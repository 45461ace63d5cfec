"""Block structure of the circuit unitary after regrouping the registers.

Reordering the basis from index x rotation x system to rotation x index x
system turns the circuit unitary V into

    U = [[A, B], [B, -A]]      (reflection variant)

with ``A = Q (sum_t w_t U_t on the diagonal) Q^dag`` and ``Q = G (x) I_N``,
so A carries the weights as an N-fold multiset of singular values and the
cosine-sine factors of U can be written down explicitly.  :func:`verify`
runs every check of this module, plus the Phi = C X factorization against
the dense circuit, as one battery.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .circuit import CircuitSpec, circuit_unitary, coefficient_matrix, mixing_layers, row_matrix
from .linalg import kron, numerical_rank, random_state, rng, svd

__all__ = [
    "CsdFactors",
    "ShuffledUnitary",
    "csd_assemble",
    "involution_check",
    "shuffle",
    "similarity_check",
    "singular_multiset_check",
    "verify",
]

_BLOCK_ATOL = 1e-12


@dataclass(frozen=True)
class ShuffledUnitary:
    """Circuit unitary in the rotation-major basis, split into K*N blocks.

    ``u`` equals ``[[a, b], [b, -a]]`` for the reflection variant and
    ``[[a, b], [-b, a]]`` for the cyclic one.  Row and column
    ``(r * K + i) * N + m`` hold rotation r, index i, system state m.
    """

    spec: CircuitSpec
    u: np.ndarray
    a: np.ndarray
    b: np.ndarray
    block_residual: float


def shuffle(spec: CircuitSpec) -> ShuffledUnitary:
    """Regroup the circuit unitary's basis and extract the A/B blocks.

    The dense circuit orders its basis index x rotation x system; swapping
    the index and rotation axes on both sides makes it rotation-major.  For
    ``k == 1`` the regrouped unitary is the circuit unitary itself.
    """
    k, big_n = spec.k, spec.big_n
    half = k * big_n
    v = circuit_unitary(spec).reshape(k, 2, big_n, k, 2, big_n)
    u = v.transpose(1, 0, 2, 4, 3, 5).reshape(2 * half, 2 * half)
    a, b = u[:half, :half], u[:half, half:]
    if spec.variant == "reflection":
        lower = np.block([b, -a])
    else:
        lower = np.block([-b, a])
    residual = float(np.abs(u[half:] - lower).max())
    if residual > 1e6 * _BLOCK_ATOL:
        raise AssertionError("shuffled unitary lost its two-block symmetry")
    return ShuffledUnitary(spec=spec, u=u, a=a, b=b, block_residual=residual)


def _diag_blocks(spec: CircuitSpec, scale: np.ndarray) -> np.ndarray:
    big_n = spec.big_n
    out = np.zeros((spec.k * big_n, spec.k * big_n), dtype=complex)
    for t, u in enumerate(spec.unitaries):
        out[t * big_n : (t + 1) * big_n, t * big_n : (t + 1) * big_n] = scale[t] * u
    return out


def _public_mixing_q(spec: CircuitSpec) -> np.ndarray:
    if spec.mixing == "secret":
        raise ValueError("structure checks need a public mixing layer, not a secret one")
    _, g2 = mixing_layers(spec)
    return kron(g2, np.eye(spec.big_n))


def similarity_check(shuffled: ShuffledUnitary) -> float:
    """Residual of ``Q^dag A Q = diag(w_t U_t)`` (and the r_t analogue for B).

    Returns the larger of the two relative Frobenius residuals.
    """
    spec = shuffled.spec
    q = _public_mixing_q(spec)
    w = spec.weights
    r = np.sqrt(1.0 - w * w)
    res_a = np.linalg.norm(q.conj().T @ shuffled.a @ q - _diag_blocks(spec, w))
    res_b = np.linalg.norm(q.conj().T @ shuffled.b @ q - _diag_blocks(spec, r))
    return float(max(res_a / np.linalg.norm(shuffled.a), res_b / max(np.linalg.norm(shuffled.b), 1e-300)))


def singular_multiset_check(shuffled: ShuffledUnitary) -> tuple[float, float]:
    """Compare the singular values of A and B against the weight multisets.

    Every |w_t| (resp. r_t) must appear exactly N times; returns the maximum
    absolute deviations for A and B.
    """
    spec = shuffled.spec
    big_n = spec.big_n
    w = np.abs(spec.weights)
    r = np.sqrt(1.0 - w * w)
    expect_a = np.sort(np.repeat(w, big_n))[::-1]
    expect_b = np.sort(np.repeat(r, big_n))[::-1]
    dev_a = float(np.max(np.abs(svd(shuffled.a).s - expect_a)))
    dev_b = float(np.max(np.abs(svd(shuffled.b).s - expect_b)))
    return dev_a, dev_b


@dataclass(frozen=True)
class CsdFactors:
    """Explicit cosine-sine factorization of the two-block unitary.

    ``a = q1 @ diag(sigma_w) @ q2^dag`` and ``b = q1 @ diag(sigma_r) @ q2^dag``
    share the outer factors; ``sigma_w**2 + sigma_r**2 == 1`` entrywise, and
    each central 2x2 block has trace 0 and determinant -1.
    """

    q1: np.ndarray
    q2: np.ndarray
    sigma_w: np.ndarray
    sigma_r: np.ndarray

    def central_block(self, j: int) -> np.ndarray:
        sw, sr = self.sigma_w[j], self.sigma_r[j]
        return np.array([[sw, sr], [sr, -sw]])


def csd_assemble(spec: CircuitSpec) -> CsdFactors:
    """Write down the CS factors of the shuffled unitary in closed form.

    Valid for the reflection variant with non-negative weights and a public
    mixing layer; the polar choice puts each U_t inside the left factor.
    """
    if spec.variant != "reflection":
        raise ValueError("closed-form CS factors assume the reflection variant")
    if np.any(spec.weights < 0):
        raise ValueError("closed-form CS factors need non-negative weights")
    q = _public_mixing_q(spec)
    big_n = spec.big_n
    w = spec.weights
    r = np.sqrt(1.0 - w * w)
    q1 = q @ _diag_blocks(spec, np.ones(spec.k))
    sigma_w = np.repeat(w, big_n)
    sigma_r = np.repeat(r, big_n)
    return CsdFactors(q1=q1, q2=q, sigma_w=sigma_w, sigma_r=sigma_r)


def involution_check(shuffled: ShuffledUnitary, shuffled_alt: ShuffledUnitary) -> tuple[float, float]:
    """Verify that squaring the regrouped circuit erases the weights.

    Returns ``(structure_residual, key_cancel_residual)`` where the first is
    ``|U^2 - I_2 (x) Q diag(U_t^2) Q^dag|_F`` and the second compares U^2
    across the two weight choices.  The two specs must agree on everything
    but the weights and use the reflection variant.
    """
    spec, spec_alt = shuffled.spec, shuffled_alt.spec
    same = (
        spec.k == spec_alt.k
        and spec.n == spec_alt.n
        and spec.mixing == spec_alt.mixing
        and spec.variant == spec_alt.variant
        and all(np.array_equal(u, v) for u, v in zip(spec.unitaries, spec_alt.unitaries))
    )
    if not same:
        raise ValueError("specs must share everything except the weights")
    if spec.variant != "reflection":
        raise ValueError("weight cancellation in U^2 needs the reflection variant")
    q = _public_mixing_q(spec)
    u_sq = shuffled.u @ shuffled.u
    blocks = _diag_blocks(spec, np.ones(spec.k))
    target = kron(np.eye(2), q @ (blocks @ blocks) @ q.conj().T)
    structure_residual = float(np.linalg.norm(u_sq - target))
    u_alt_sq = shuffled_alt.u @ shuffled_alt.u
    key_cancel_residual = float(np.linalg.norm(u_sq - u_alt_sq))
    return structure_residual, key_cancel_residual


def verify(spec: CircuitSpec, seed: int) -> list[dict]:
    """Run the structural check battery on one circuit spec.

    One record (``name``, ``residual``, ``threshold``, ``skipped``, ``pass``)
    per check: unitarity, block-structure, similarity, singular-multiset,
    csd (factor residuals), csd-sigma (``sigma_w^2 + sigma_r^2 = 1``),
    involution, factorization (C X against the dense circuit's outcome rows),
    column-orthogonality, rank.  Every check reads the one regrouped unitary
    of ``spec`` (plus one of the alternative spec for involution).  Checks
    that do not apply are skipped and pass.  ``seed`` draws psi
    (``random_state(N, seed)``) and the involution check's second weight
    vector (``rng(seed + 1)``).
    """
    checks = []

    def add(name, residual, threshold=1e-10):
        skipped = residual is None
        residual = None if skipped else float(residual)
        checks.append({"name": name, "residual": residual, "threshold": threshold, "skipped": skipped,
                       "pass": skipped or residual < threshold})

    sh = shuffle(spec)
    add("unitarity", np.linalg.norm(sh.u.conj().T @ sh.u - np.eye(spec.extended_dim)))
    add("block-structure", sh.block_residual, 1e-12)
    public, reflection = spec.mixing != "secret", spec.variant == "reflection"
    add("similarity", similarity_check(sh) if public else None)
    add("singular-multiset", max(singular_multiset_check(sh)) if public else None)
    csd = csd_assemble(spec) if public and reflection and np.all(spec.weights >= 0) else None
    add("csd", None if csd is None else max(
        np.linalg.norm((csd.q1 * csd.sigma_w) @ csd.q2.conj().T - sh.a),
        np.linalg.norm((csd.q1 * csd.sigma_r) @ csd.q2.conj().T - sh.b),
    ))
    add("csd-sigma", None if csd is None else np.abs(csd.sigma_w**2 + csd.sigma_r**2 - 1.0).max(), 1e-12)
    if public and reflection:
        spec_alt = replace(spec, weights=rng(seed + 1).uniform(0.1, 1.0, spec.k))
        add("involution", max(involution_check(sh, shuffle(spec_alt))))
    else:
        add("involution", None)
    big_n = spec.big_n
    psi = random_state(big_n, seed)
    # psi enters in the index 0, rotation 0 block; outcome (i, r) leaves in
    # rotation-major block r * K + i, which is Phi's row order
    phi = (sh.u[:, :big_n] @ psi).reshape(2 * spec.k, big_n)
    c = coefficient_matrix(spec)
    add("factorization", np.linalg.norm(c @ row_matrix(spec, psi) - phi), 1e-12)
    add("column-orthogonality", np.abs(c.conj().T @ c - np.eye(spec.k) / spec.k).max(), 1e-12)
    add("rank", 0.0 if numerical_rank(phi) <= spec.k else 1.0, 0.5)
    return checks
