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
``U_t U_u^dag``, t <= u.  A Frobenius norm of a block combination is a quadratic form of
its coefficients in the Gram matrix ``tr(X^dag Y)`` of the matrices it
combines, so no combination is formed except by :func:`shuffle`, one block
row at a time.  The largest arrays are the K^2 stacks of N x N products;
neither A, B nor U is built, and no singular value of A or B is computed.
:func:`verify` runs every check of this module, plus the Phi = C X
factorization against the layer-by-layer circuit
:func:`~lcuout.circuit.apply_circuit`, as one battery.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import cached_property

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
    ``sum_t coef[r, i, s, j, t] U_t``.  U equals ``[[A, B], [B, -A]]`` for
    the reflection variant and ``[[A, B], [-B, A]]`` for the cyclic one,
    where A has the blocks ``coef[0, :, 0]`` and B the blocks
    ``coef[0, :, 1]``; neither is assembled.  The trace Gram matrix of the
    unitaries and the products ``U_t^dag U_u`` with their Gram matrix are
    computed on first use and kept.
    """

    spec: CircuitSpec
    coef: np.ndarray
    block_residual: float

    @cached_property
    def traces(self) -> np.ndarray:
        """``traces[t, u] = tr(U_t^dag U_u)``, the Gram matrix of the unitaries."""
        flat = np.stack(self.spec.unitaries).reshape(self.spec.k, -1)
        return flat.conj() @ flat.T

    @cached_property
    def adjoint_basis(self) -> np.ndarray:
        """``E_tu = U_t^dag U_u - delta_tu I`` at index ``t * K + u``, and ``I`` at the last index.

        ``E_tt`` is the deviation of U_t from unitarity.
        """
        k, big_n = self.spec.k, self.spec.big_n
        basis = np.empty((k * k + 1, big_n, big_n), dtype=complex)
        _paired_products([u.conj().T for u in self.spec.unitaries], self.spec.unitaries, basis[:-1])
        diag = np.arange(big_n)
        for t in range(k):
            basis[t * k + t, diag, diag] -= 1.0
        basis[-1] = np.eye(big_n)
        return basis

    @cached_property
    def adjoint_gram(self) -> np.ndarray:
        """Gram matrix ``tr(X^dag Y)`` of :attr:`adjoint_basis`."""
        flat = self.adjoint_basis.reshape(len(self.adjoint_basis), -1)
        return flat.conj() @ flat.T


def _paired_products(left: list[np.ndarray], right: list[np.ndarray], out: np.ndarray) -> np.ndarray:
    """Write ``left[t] @ right[u]`` to ``out[t * K + u]``, for factors whose (u, t) product is the (t, u) one's adjoint.

    Only the products with t <= u are multiplied out.  Returns ``out``.
    """
    k = len(left)
    for t in range(k):
        for u in range(t, k):
            np.matmul(left[t], right[u], out=out[t * k + u])
            if u > t:
                out[u * k + t] = out[t * k + u].conj().T
    return out


def _combine(coef: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """Blocks ``sum_t coef[..., t] mats[t]``, shape ``coef.shape[:-1] + mats.shape[1:]``."""
    return (coef.reshape(-1, mats.shape[0]) @ mats.reshape(mats.shape[0], -1)).reshape(
        coef.shape[:-1] + mats.shape[1:]
    )


def _frobenius(coef: np.ndarray, gram: np.ndarray) -> float:
    """Frobenius norm of the block matrix ``sum_t coef[..., t] mats[t]``.

    ``gram[t, u] = tr(mats[t]^dag mats[u])``.  Each block contributes the quadratic form ``c^dag gram c`` of its
    coefficients.  Its rounding error is about eps times the same form in
    absolute values, so the norm is accurate unless large terms cancel: the
    callers pass coefficients that are small for a correct circuit.
    """
    c = coef.reshape(-1, gram.shape[0])
    return float(np.sqrt(max(np.einsum("at,tu,au->", c.conj(), gram, c).real, 0.0)))


def _block_coefficients(spec: CircuitSpec) -> np.ndarray:
    """``coef[r, i, s, j, t] = G2[i, t] R_t[r, s] G1[t, j]``."""
    g1, g2 = mixing_layers(spec)
    rot = np.stack([rotation_gate(w, spec.variant) for w in spec.weights])
    return np.einsum("it,trs,tj->risjt", g2, rot, g1)


def shuffle(spec: CircuitSpec) -> ShuffledUnitary:
    """Regroup the circuit unitary's basis into block coefficients.

    The circuit orders its basis index x rotation x system; the regrouped
    unitary is rotation-major.  The lower block row is compared with
    ``[B, -A]`` (reflection) or ``[-B, A]`` (cyclic) through the difference
    of its coefficients, entry by entry, K blocks at a time.  Blocks whose
    coefficient differences are all exactly zero are exactly zero and are
    not formed.
    """
    k = spec.k
    us = np.stack(spec.unitaries)
    coef = _block_coefficients(spec)
    sign = 1.0 if spec.variant == "reflection" else -1.0
    lower_gap = np.stack([coef[1, :, 0] - sign * coef[0, :, 1], coef[1, :, 1] + sign * coef[0, :, 0]])
    rows = lower_gap.reshape(2 * k, k, k)
    residual = max((float(np.abs(_combine(row, us)).max()) for row in rows if row.any()), default=0.0)
    if residual > 1e6 * _BLOCK_ATOL:
        raise CheckFailed("two-block symmetry", residual)
    return ShuffledUnitary(spec=spec, coef=coef, block_residual=residual)


def _public_mixing(spec: CircuitSpec) -> np.ndarray:
    """The K x K matrix G of ``Q = G (x) I_N``."""
    if spec.mixing == "secret":
        raise ValueError("structure checks need a public mixing layer, not a secret one")
    return mixing_layers(spec)[1]


def _conjugated_diagonal(g: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Coefficients of ``Q diag(scale_t U_t) Q^dag``: block (i, j) is ``sum_t G[i, t] scale_t conj(G[j, t]) U_t``."""
    return np.einsum("it,t,jt->ijt", g, scale, g.conj())


def similarity_check(shuffled: ShuffledUnitary) -> float:
    """Residual of ``Q^dag A Q = diag(w_t U_t)`` (and the r_t analogue for B).

    Returns the larger of the two relative Frobenius residuals.
    """
    spec = shuffled.spec
    q = _public_mixing(spec)
    w = spec.weights
    r = np.sqrt(1.0 - w * w)
    diag = np.arange(spec.k)
    res = []
    for s, scale in ((0, w), (1, r)):
        block = shuffled.coef[0, :, s]
        # Q^dag (sum_v coef U_v) Q = sum_v sim[t, u, v] U_v, block by block
        sim = np.einsum("it,ijv,ju->tuv", q.conj(), block, q)
        sim[diag, diag, diag] -= scale
        res.append(_frobenius(sim, shuffled.traces) / max(_frobenius(block, shuffled.traces), 1e-300))
    return float(max(res))


def singular_multiset_check(shuffled: ShuffledUnitary) -> tuple[float, float]:
    """Certified bounds on how far the singular values of A and B lie from the weight multisets.

    Every |w_t| (resp. r_t) should appear exactly N times among the singular
    values of A (resp. B).  With ``M_w = diag(w_t U_t)``,
    ``eta_t = |U_t^dag U_t - I|_F`` and ``gamma = |G^dag G - I|_F`` (Frobenius
    norms, upper bounds on the spectral norms the argument needs), the i-th
    largest singular value of A lies within

        |A - Q M_w Q^dag|_F + max_t |w_t| eta_t + gamma max_t |w_t| (1 + max_t eta_t)

    of the i-th largest entry of the multiset: the first term by Mirsky's
    theorem, the second because ``|sigma(U_t) - 1| <= |U_t^dag U_t - I|_2``,
    and the third because the singular values of ``Q M_w Q^dag`` lie within
    a factor ``1 +- gamma`` of those of M_w.  B takes the same bound with r_t
    in place of w_t.  The bound holds for both variants and for signed
    weights; the first term is exactly 0 when A's coefficients equal
    ``G[i, t] w_t conj(G[j, t])`` bit for bit and large when they follow
    another formula.  No singular value is computed.  Returns the bounds for
    A and B, each at least the maximum deviation it bounds.
    """
    spec = shuffled.spec
    k = spec.k
    g = _public_mixing(spec)
    w = spec.weights
    r = np.sqrt(1.0 - w * w)
    eta = np.sqrt(np.maximum(np.diagonal(shuffled.adjoint_gram)[np.arange(k) * (k + 1)].real, 0.0))
    gamma = np.linalg.norm(g.conj().T @ g - np.eye(k))
    bounds = []
    for s, scale in ((0, w), (1, r)):
        gap = _frobenius(shuffled.coef[0, :, s] - _conjugated_diagonal(g, scale), shuffled.traces)
        size = np.abs(scale)
        bounds.append(float(gap + np.max(size * eta) + gamma * size.max() * (1.0 + eta.max())))
    return bounds[0], bounds[1]


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
    big_n = shuffled.spec.big_n
    return max(
        _frobenius(_conjugated_diagonal(csd.g, sigma[::big_n]) - shuffled.coef[0, :, s], shuffled.traces)
        for s, sigma in ((0, csd.sigma_w), (1, csd.sigma_r))
    )


def _unitarity_residual(shuffled: ShuffledUnitary) -> float:
    """``|U^dag U - I|_F`` from the products ``U_t^dag U_u``, t <= u.

    Block (a, c) of ``U^dag U - I`` is ``sum_tu p[a, c, t, u] U_t^dag U_u -
    delta_ac I``.  Over the basis of :attr:`ShuffledUnitary.adjoint_gram`
    its coefficients are ``p[a, c, t, u]`` on ``E_tu`` and
    ``sum_t p[a, c, t, t] - delta_ac`` on I, all at rounding level for a
    unitary circuit, so the norm taken from that Gram matrix does not cancel.
    """
    k = shuffled.spec.k
    c = shuffled.coef.reshape(2 * k, 2 * k, k)
    p = np.einsum("bat,bcu->actu", c.conj(), c)
    on_identity = np.trace(p, axis1=2, axis2=3) - np.eye(2 * k)
    return _frobenius(np.concatenate([p.reshape(2 * k, 2 * k, k * k), on_identity[:, :, None]], axis=2),
                      shuffled.adjoint_gram)


def involution_check(shuffled: ShuffledUnitary, shuffled_alt: ShuffledUnitary) -> tuple[float, float]:
    """Verify that squaring the regrouped circuit erases the weights.

    Returns ``(structure_residual, key_cancel_residual)`` where the first is
    ``|U^2 - I_2 (x) Q diag(U_t^2) Q^dag|_F`` and the second compares U^2
    across the two weight choices.  Both are quadratic forms in the Gram
    matrix of the K^2 products ``U_t U_u``, which the two specs share.  That
    Gram matrix is taken from traces of the products ``U_t^dag U_v`` that the
    unitarity check forms and of ``conj(U_u) U_w^T``, of which only those
    with u <= w are multiplied out.  The two specs must agree on
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
    k = spec.k
    # tr((U_t U_u)^dag U_v U_w) = sum_ij (U_t^dag U_v)[i, j] (conj(U_u) U_w^T)[i, j], and the
    # U_t^dag U_v are the adjoint basis with I added back on t = v, whose row is the basis's last
    basis = shuffled.adjoint_basis.reshape(k * k + 1, -1)
    transposed = _paired_products([u.conj() for u in spec.unitaries], [u.T for u in spec.unitaries],
                                  np.empty((k * k, spec.big_n, spec.big_n), dtype=complex))
    m = basis @ transposed.reshape(k * k, -1).T
    m = m[:-1] + np.eye(k).reshape(k * k, 1) * m[-1]
    prods_gram = m.reshape(k, k, k, k).transpose(0, 2, 1, 3).reshape(k * k, k * k)

    def square(sh: ShuffledUnitary) -> np.ndarray:
        c = sh.coef.reshape(2 * k, 2 * k, k)
        return np.einsum("abt,bcu->actu", c, c).reshape(2 * k, 2 * k, k * k)

    # I_2 (x) Q diag(U_t^2) Q^dag puts G[i, t] conj(G[j, t]) on U_t U_t in both diagonal rotation blocks
    target = np.einsum("rs,it,jt,tu->risjtu", np.eye(2), g, g.conj(), np.eye(k)).reshape(2 * k, 2 * k, k * k)
    u_sq = square(shuffled)
    return _frobenius(u_sq - target, prods_gram), _frobenius(u_sq - square(shuffled_alt), prods_gram)


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
