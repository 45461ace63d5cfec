"""Block structure of the circuit unitary after regrouping the registers.

Reordering the basis from index x rotation x system to rotation x index x
system turns the circuit unitary V into

    U = [[A, B], [B, -A]]      (reflection variant)

with ``A = Q (sum_t w_t U_t on the diagonal) Q^dag`` and ``Q = G (x) I_N``,
so A carries the weights as an N-fold multiset of singular values and the
cosine-sine factors of U can be written down explicitly.

Every N x N block of U is a K-term combination ``sum_t coef[r, i, s, j, t]
U_t`` of the circuit's unitaries, so the checks here work on the K x K
coefficient algebra and on the N x N products ``U_t^dag U_u`` and
``U_t U_u``.  The largest arrays are the KN x KN blocks A and B; no
(2KN)^2 array is held.  :func:`verify` runs every check of this module, plus
the Phi = C X factorization against the layer-by-layer circuit
:func:`~lcuout.circuit.apply_circuit`, as one battery.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .circuit import (
    CheckFailed,
    CircuitSpec,
    apply_circuit,
    coefficient_matrix,
    mixing_layers,
    rotation_gate,
    row_matrix,
)
from .linalg import numerical_rank, random_state, rng

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
    """Circuit unitary in the rotation-major basis, kept as block coefficients.

    Block ``(r, i), (s, j)`` of the regrouped unitary U (rows and columns
    ``(r * K + i) * N + m`` hold rotation r, index i, system state m) is
    ``sum_t coef[r, i, s, j, t] U_t``.  U equals ``[[a, b], [b, -a]]`` for
    the reflection variant and ``[[a, b], [-b, a]]`` for the cyclic one;
    only the upper blocks ``a`` and ``b`` are assembled.
    """

    spec: CircuitSpec
    coef: np.ndarray
    a: np.ndarray
    b: np.ndarray
    block_residual: float


def _combine(coef: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """Blocks ``sum_t coef[..., t] mats[t]``, shape ``coef.shape[:-1] + mats.shape[1:]``."""
    return (coef.reshape(-1, mats.shape[0]) @ mats.reshape(mats.shape[0], -1)).reshape(
        coef.shape[:-1] + mats.shape[1:]
    )


def _assemble(blocks: np.ndarray) -> np.ndarray:
    """(K, K, N, N) blocks as one KN x KN matrix."""
    k, _, big_n, _ = blocks.shape
    return blocks.transpose(0, 2, 1, 3).reshape(k * big_n, k * big_n)


def _frobenius(coef: np.ndarray, mats: np.ndarray) -> float:
    """Frobenius norm of the block matrix ``sum_t coef[a, c, t] mats[t]``, one block row at a time."""
    return float(np.linalg.norm([np.linalg.norm(_combine(row, mats)) for row in coef]))


def _block_coefficients(spec: CircuitSpec) -> np.ndarray:
    """``coef[r, i, s, j, t] = G2[i, t] R_t[r, s] G1[t, j]``."""
    g1, g2 = mixing_layers(spec)
    rot = np.stack([rotation_gate(w, spec.variant) for w in spec.weights])
    return np.einsum("it,trs,tj->risjt", g2, rot, g1)


def shuffle(spec: CircuitSpec) -> ShuffledUnitary:
    """Regroup the circuit unitary's basis and extract the A/B blocks.

    The circuit orders its basis index x rotation x system; the regrouped
    unitary is rotation-major.  The lower block row is compared with
    ``[B, -A]`` (reflection) or ``[-B, A]`` (cyclic) through the difference
    of its coefficients.
    """
    us = np.stack(spec.unitaries)
    coef = _block_coefficients(spec)
    a = _assemble(_combine(coef[0, :, 0], us))
    b = _assemble(_combine(coef[0, :, 1], us))
    sign = 1.0 if spec.variant == "reflection" else -1.0
    lower_gap = np.stack([coef[1, :, 0] - sign * coef[0, :, 1], coef[1, :, 1] + sign * coef[0, :, 0]])
    residual = float(np.abs(_combine(lower_gap, us)).max())
    if residual > 1e6 * _BLOCK_ATOL:
        raise CheckFailed("two-block symmetry", residual)
    return ShuffledUnitary(spec=spec, coef=coef, a=a, b=b, block_residual=residual)


def _public_mixing(spec: CircuitSpec) -> np.ndarray:
    """The K x K matrix G of ``Q = G (x) I_N``."""
    if spec.mixing == "secret":
        raise ValueError("structure checks need a public mixing layer, not a secret one")
    return mixing_layers(spec)[1]


def similarity_check(shuffled: ShuffledUnitary) -> float:
    """Residual of ``Q^dag A Q = diag(w_t U_t)`` (and the r_t analogue for B).

    Returns the larger of the two relative Frobenius residuals.
    """
    spec = shuffled.spec
    q = _public_mixing(spec)
    w = spec.weights
    r = np.sqrt(1.0 - w * w)
    us = np.stack(spec.unitaries)
    diag = np.arange(spec.k)
    res = []
    for s, scale in ((0, w), (1, r)):
        # Q^dag (sum_v coef U_v) Q = sum_v sim[t, u, v] U_v, block by block
        sim = np.einsum("it,ijv,ju->tuv", q.conj(), shuffled.coef[0, :, s], q)
        sim[diag, diag, diag] -= scale
        res.append(np.linalg.norm(_combine(sim, us)))
    return float(max(res[0] / np.linalg.norm(shuffled.a), res[1] / max(np.linalg.norm(shuffled.b), 1e-300)))


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
    dev_a = float(np.max(np.abs(np.linalg.svd(shuffled.a, compute_uv=False) - expect_a)))
    dev_b = float(np.max(np.abs(np.linalg.svd(shuffled.b, compute_uv=False) - expect_b)))
    return dev_a, dev_b


@dataclass(frozen=True)
class CsdFactors:
    """Closed-form cosine-sine factorization of the two-block unitary, kept as its K x K mixing.

    ``a = L diag(sigma_w) Q^dag`` and ``b = L diag(sigma_r) Q^dag`` share the
    KN x KN outer factors ``Q = g (x) I_N`` and ``L = Q diag(U_t)`` (block
    (i, t) of L is ``g[i, t] U_t``), which are never formed;
    ``sigma_w**2 + sigma_r**2 == 1`` entrywise.
    """

    g: np.ndarray
    sigma_w: np.ndarray
    sigma_r: np.ndarray


def csd_assemble(spec: CircuitSpec) -> CsdFactors:
    """Write down the CS factors of the shuffled unitary in closed form.

    Valid for the reflection variant with non-negative weights and a public
    mixing layer; the polar choice puts each U_t inside the left factor:
    ``L = Q diag(U_t)`` (block (i, t) is ``G[i, t] U_t``) and the right
    factor is ``Q``, so both are fixed by ``G`` and the spec's unitaries and
    only ``G`` is stored.
    """
    if spec.variant != "reflection":
        raise ValueError("closed-form CS factors assume the reflection variant")
    if np.any(spec.weights < 0):
        raise ValueError("closed-form CS factors need non-negative weights")
    w = spec.weights
    r = np.sqrt(1.0 - w * w)
    return CsdFactors(g=_public_mixing(spec), sigma_w=np.repeat(w, spec.big_n), sigma_r=np.repeat(r, spec.big_n))


def _csd_residual(shuffled: ShuffledUnitary, csd: CsdFactors) -> float:
    """Larger of ``|L diag(sigma_w) Q^dag - A|_F`` and ``|L diag(sigma_r) Q^dag - B|_F``.

    With the closed-form factors of :func:`csd_assemble`, block (i, j) of
    ``L diag(sigma) Q^dag`` is ``sum_t G[i, t] sigma_t conj(G[j, t]) U_t``.
    """
    spec = shuffled.spec
    us = np.stack(spec.unitaries)
    res = []
    for s, sigma in ((0, csd.sigma_w), (1, csd.sigma_r)):
        product = np.einsum("it,t,jt->ijt", csd.g, sigma[:: spec.big_n], csd.g.conj())
        res.append(np.linalg.norm(_combine(product - shuffled.coef[0, :, s], us)))
    return float(max(res))


def _unitarity_residual(shuffled: ShuffledUnitary) -> float:
    """``|U^dag U - I|_F`` from the K^2 products ``U_t^dag U_u``."""
    spec = shuffled.spec
    k, big_n = spec.k, spec.big_n
    us = np.stack(spec.unitaries)
    c = shuffled.coef.reshape(2 * k, 2 * k, k)
    gram = np.einsum("bat,bcu->actu", c.conj(), c).reshape(2 * k, 2 * k, k * k)
    prods = us.conj().transpose(0, 2, 1)[:, None] @ us[None]
    # the identity joins as one more matrix, with coefficient -1 on the diagonal blocks
    mats = np.concatenate([prods.reshape(k * k, big_n, big_n), np.eye(big_n)[None]])
    return _frobenius(np.concatenate([gram, -np.eye(2 * k)[:, :, None]], axis=2), mats)


def involution_check(shuffled: ShuffledUnitary, shuffled_alt: ShuffledUnitary) -> tuple[float, float]:
    """Verify that squaring the regrouped circuit erases the weights.

    Returns ``(structure_residual, key_cancel_residual)`` where the first is
    ``|U^2 - I_2 (x) Q diag(U_t^2) Q^dag|_F`` and the second compares U^2
    across the two weight choices.  Both are evaluated on the K^2 products
    ``U_t U_u``, which the two specs share.  The two specs must agree on
    everything but the weights and use the reflection variant.
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
    g = _public_mixing(spec)
    k, big_n = spec.k, spec.big_n
    us = np.stack(spec.unitaries)
    prods = (us[:, None] @ us[None]).reshape(k * k, big_n, big_n)

    def square(sh: ShuffledUnitary) -> np.ndarray:
        c = sh.coef.reshape(2 * k, 2 * k, k)
        return np.einsum("abt,bcu->actu", c, c).reshape(2 * k, 2 * k, k * k)

    # I_2 (x) Q diag(U_t^2) Q^dag puts G[i, t] conj(G[j, t]) on U_t U_t in both diagonal rotation blocks
    target = np.einsum("rs,it,jt,tu->risjtu", np.eye(2), g, g.conj(), np.eye(k)).reshape(2 * k, 2 * k, k * k)
    u_sq = square(shuffled)
    return _frobenius(u_sq - target, prods), _frobenius(u_sq - square(shuffled_alt), prods)


def verify(spec: CircuitSpec, seed: int) -> list[dict]:
    """Run the structural check battery on one circuit spec.

    One record (``name``, ``residual``, ``threshold``, ``skipped``, ``pass``)
    per check: unitarity, block-structure, similarity, singular-multiset,
    csd (factor residuals), csd-sigma (``sigma_w^2 + sigma_r^2 = 1``),
    involution, factorization (C X against the outcome rows of
    :func:`~lcuout.circuit.apply_circuit`), column-orthogonality, rank.
    Every check reads the block coefficients of one :func:`shuffle` of
    ``spec`` (plus one of the alternative spec for involution) and the N x N
    unitaries; no (2KN)^2 matrix is built.  Checks that do not apply are
    skipped and pass.  ``seed`` draws psi (``random_state(N, seed)``) and the
    involution check's second weight vector (``rng(seed + 1)``).
    """
    checks = []

    def add(name, residual, threshold=1e-10):
        skipped = residual is None
        residual = None if skipped else float(residual)
        checks.append({"name": name, "residual": residual, "threshold": threshold, "skipped": skipped,
                       "pass": skipped or residual < threshold})

    sh = shuffle(spec)
    add("unitarity", _unitarity_residual(sh))
    add("block-structure", sh.block_residual, 1e-12)
    public, reflection = spec.mixing != "secret", spec.variant == "reflection"
    add("similarity", similarity_check(sh) if public else None)
    add("singular-multiset", max(singular_multiset_check(sh)) if public else None)
    csd = csd_assemble(spec) if public and reflection and np.all(spec.weights >= 0) else None
    add("csd", None if csd is None else _csd_residual(sh, csd))
    add("csd-sigma", None if csd is None else np.abs(csd.sigma_w**2 + csd.sigma_r**2 - 1.0).max(), 1e-12)
    if public and reflection:
        # a copy with other (in-range) weights: the shared unitaries are not validated
        # again, so a spec whose unitaries fail the unitarity check still gets this one
        spec_alt = copy.copy(spec)
        object.__setattr__(spec_alt, "weights", rng(seed + 1).uniform(0.1, 1.0, spec.k))
        add("involution", max(involution_check(sh, shuffle(spec_alt))))
    else:
        add("involution", None)
    k, big_n = spec.k, spec.big_n
    psi = random_state(big_n, seed)
    ext = np.zeros(spec.extended_dim, dtype=complex)
    ext[:big_n] = psi  # index 0, rotation 0 block
    # outcome (i, r) leaves in index-major block i * 2 + r; Phi's row order is r * K + i
    phi = apply_circuit(spec, ext).reshape(k, 2, big_n).transpose(1, 0, 2).reshape(2 * k, big_n)
    c = coefficient_matrix(spec)
    add("factorization", np.linalg.norm(c @ row_matrix(spec, psi) - phi), 1e-12)
    add("column-orthogonality", np.abs(c.conj().T @ c - np.eye(spec.k) / spec.k).max(), 1e-12)
    add("rank", 0.0 if numerical_rank(phi) <= spec.k else 1.0, 0.5)
    return checks
