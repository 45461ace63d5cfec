"""Block structure of the circuit unitary after regrouping the registers.

Reordering the basis from index x rotation x system to rotation x index x
system turns the circuit unitary V into

    U = [[A, B], [B, -A]]      (reflection variant)

with ``A = Q (sum_t w_t U_t on the diagonal) Q^dag`` and ``Q = G (x) I_N``,
so A carries the weights as an N-fold multiset of singular values and the
cosine-sine factors of U can be written down explicitly.

Every N x N block of U is a K-term combination ``sum_t coef[r, i, s, j, t]
U_t`` of the circuit's unitaries, so the checks here work on the K x K
coefficient algebra, :func:`~lcuout.circuit.block_coefficients`.  A Frobenius norm of a block combination is a quadratic
form of its coefficients in the trace Gram matrix ``tr(U_t^dag U_u)``, so no
combination is formed.  The identities that involve products of blocks
(``U^dag U = I``, the weight-free square U^2 and the two-block form) hold for
any matrices U_t, so their residuals are certified upper bounds built from
the coefficients and from two numbers per unitary, ``eta_t = |U_t^dag U_t -
I|_F`` and ``|U_t|_F``.  The unitaries are read only through the two Gram
matrices of the spec's :class:`~lcuout.linalg.UnitaryStack`,
:attr:`ShuffledUnitary.traces` and ``defect_gram``, whatever form holds
them: a monomial stack gives both in closed form, any other stack from K
products ``U_t^dag U_t``; neither A, B nor U is built.
:func:`verify` runs every check of this module, plus the Phi = C X
factorization against the layer-by-layer circuit
:func:`~lcuout.circuit.apply_circuit`, as one battery.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .circuit import (
    CheckFailed,
    CircuitSpec,
    apply_circuit,
    block_coefficients,
    checked_parameters,
    coefficient_matrix,
    mixing_layers,
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


@dataclass(frozen=True, eq=False)
class ShuffledUnitary:
    """Circuit unitary in the rotation-major basis, kept as block coefficients.

    Block ``(r, i), (s, j)`` of the regrouped unitary U (rows and columns
    ``(r * K + i) * N + m`` hold rotation r, index i, system state m) is
    ``sum_t coef[r, i, s, j, t] U_t``.  U equals ``[[A, B], [B, -A]]`` for
    the reflection variant and ``[[A, B], [-B, A]]`` for the cyclic one,
    where A has the blocks ``coef[0, :, 0]`` and B the blocks
    ``coef[0, :, 1]``; neither is assembled.  The unitaries are read only
    through the stack's trace Gram matrix and that of the unitarity defects
    ``E_t = U_t^dag U_t - I``, each asked of the stack once; they, the
    block residual and the two diagonal gaps of A and B are computed on
    first use and kept.
    """

    spec: CircuitSpec
    coef: np.ndarray

    @cached_property
    def traces(self) -> np.ndarray:
        """``traces[t, u] = tr(U_t^dag U_u)``, the Gram matrix of the unitaries."""
        return self.spec.unitaries.trace_gram()

    @cached_property
    def block_residual(self) -> float:
        """``|lower block row - [B, -A]|_F`` (``[-B, A]`` if cyclic) from :attr:`traces`; it bounds every entry."""
        c, sign = self.coef, (1.0 if self.spec.variant == "reflection" else -1.0)
        lower_gap = np.stack([c[1, :, 0] - sign * c[0, :, 1], c[1, :, 1] + sign * c[0, :, 0]])
        return _frobenius(lower_gap, self.traces)

    @cached_property
    def diagonal_gaps(self) -> tuple[float, float]:
        """``(|A - Q diag(w_t U_t) Q^dag|_F, |B - Q diag(r_t U_t) Q^dag|_F)``; needs a public mixing layer.

        Block (i, j) of ``Q diag(scale_t U_t) Q^dag`` is ``sum_t G[i, t] scale_t conj(G[j, t]) U_t``.
        """
        g = _public_mixing(self.spec)
        return tuple(
            _frobenius(self.coef[0, :, s] - np.einsum("it,t,jt->ijt", g, scale, g.conj()), self.traces)
            for s, scale in enumerate(_scales(self.spec))
        )

    @cached_property
    def defect_gram(self) -> np.ndarray:
        """Gram matrix ``tr(X^dag Y)`` of ``E_t = U_t^dag U_t - I`` at index t < K and of I at index K.

        ``defect_gram[K, t] = tr(E_t) = |U_t|_F^2 - N``.
        """
        return self.spec.unitaries.defect_gram()

    @property
    def eta(self) -> np.ndarray:
        """``eta_t = |U_t^dag U_t - I|_F``, an upper bound on ``|U_t^dag U_t - I|_2``."""
        return np.sqrt(np.maximum(np.diagonal(self.defect_gram)[:-1].real, 0.0))

    @property
    def product_bound(self) -> np.ndarray:
        """``s_t |U_u|_F`` at [t, u], an upper bound on ``|U_t^dag U_u|_F`` and ``|U_t U_u|_F``.

        ``s_t = sqrt(1 + eta_t) >= |U_t|_2``, since ``|U_t|_2^2 = |U_t^dag U_t|_2 <= 1 + eta_t``.
        """
        norms = np.sqrt(np.maximum(self.spec.big_n + self.defect_gram[-1, :-1].real, 0.0))
        return np.outer(np.sqrt(1.0 + self.eta), norms)


def _frobenius(coef: np.ndarray, gram: np.ndarray) -> float:
    """Frobenius norm of the block matrix ``sum_t coef[..., t] mats[t]``.

    ``gram[t, u] = tr(mats[t]^dag mats[u])``.  Each block contributes the quadratic form ``c^dag gram c`` of its
    coefficients.  Its rounding error is about eps times the same form in
    absolute values, so the norm is accurate unless large terms cancel: the
    callers pass coefficients that are small for a correct circuit.
    """
    c = coef.reshape(-1, gram.shape[0])
    return float(np.sqrt(max(np.einsum("at,tu,au->", c.conj(), gram, c).real, 0.0)))


def shuffle(spec: CircuitSpec) -> ShuffledUnitary:
    """Regroup the circuit unitary's basis into block coefficients.

    The circuit orders its basis index x rotation x system; the regrouped
    unitary is rotation-major.  The lower block row is compared with
    ``[B, -A]`` (reflection) or ``[-B, A]`` (cyclic) through
    :attr:`ShuffledUnitary.block_residual`, read from the trace Gram matrix;
    ``CheckFailed`` when it exceeds 1e-6.  No block is formed.
    """
    shuffled = ShuffledUnitary(spec, block_coefficients(spec.weights, spec.mixing, spec.variant, spec.mixing_matrix))
    if shuffled.block_residual > 1e6 * _BLOCK_ATOL:
        raise CheckFailed("two-block symmetry", shuffled.block_residual)
    return shuffled


def _public_mixing(spec: CircuitSpec) -> np.ndarray:
    """The K x K matrix G of ``Q = G (x) I_N``."""
    if spec.mixing == "secret":
        raise ValueError("structure checks need a public mixing layer, not a secret one")
    return mixing_layers(spec)[1]


def _scales(spec: CircuitSpec) -> tuple[np.ndarray, np.ndarray]:
    """``(w_t, r_t)``: the scales that blocks A and B of the upper rotation row carry."""
    w = spec.weights
    return w, np.sqrt(1.0 - w * w)


def similarity_check(shuffled: ShuffledUnitary) -> float:
    """Relative residual of ``A = Q diag(w_t U_t) Q^dag`` (and of the r_t analogue for B).

    Returns the larger of ``|A - Q diag(w_t U_t) Q^dag|_F / |A|_F`` and the
    same for B, each gap read from :attr:`ShuffledUnitary.diagonal_gaps`.
    For a unitary Q this equals the residual of ``Q^dag A Q = diag(w_t U_t)``,
    since multiplying by unitaries keeps the Frobenius norm.
    """
    return float(max(
        gap / max(_frobenius(shuffled.coef[0, :, s], shuffled.traces), 1e-300)
        for s, gap in enumerate(shuffled.diagonal_gaps)
    ))


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
    eta = shuffled.eta
    gamma = np.linalg.norm(g.conj().T @ g - np.eye(k))
    bounds = []
    for gap, scale in zip(shuffled.diagonal_gaps, _scales(spec)):
        size = np.abs(scale)
        bounds.append(float(gap + np.max(size * eta) + gamma * size.max() * (1.0 + eta.max())))
    return bounds[0], bounds[1]


@dataclass(frozen=True, eq=False)
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
    w, r = _scales(spec)
    return CsdFactors(g=_public_mixing(spec), sigma_w=np.repeat(w, spec.big_n), sigma_r=np.repeat(r, spec.big_n))


def _unitarity_residual(shuffled: ShuffledUnitary) -> float:
    """Certified upper bound on ``|U^dag U - I|_F``.

    With ``p[a, c, t, u] = sum_b conj(coef[b, a, t]) coef[b, c, u]``, block
    (a, c) of ``U^dag U - I`` is ``sum_t p_actt E_t + (sum_t p_actt -
    delta_ac) I + sum_{t != u} p_actu U_t^dag U_u``.  The first two terms are
    taken exactly from :attr:`ShuffledUnitary.defect_gram`, in which their
    coefficients (at rounding level for a unitary circuit) do not cancel; the
    cross term is at most ``cross_ac = sum_{t != u} |p_actu| s_t |U_u|_F``
    (:attr:`ShuffledUnitary.product_bound`).  Returns ``sqrt(sum_ac (exact_ac + cross_ac)^2)``.
    """
    k = shuffled.spec.k
    c = shuffled.coef.reshape(2 * k, 2 * k, k)
    p = np.einsum("bat,bcu->actu", c.conj(), c)
    diag = np.arange(k)
    on_defects = p[:, :, diag, diag]
    on_identity = np.trace(p, axis1=2, axis2=3) - np.eye(2 * k)
    x = np.concatenate([on_defects, on_identity[:, :, None]], axis=2)
    exact = np.sqrt(np.maximum(np.einsum("act,tu,acu->ac", x.conj(), shuffled.defect_gram, x).real, 0.0))
    cross = np.abs(p)
    cross[:, :, diag, diag] = 0.0
    return float(np.sqrt(np.sum((exact + np.einsum("actu,tu->ac", cross, shuffled.product_bound)) ** 2)))


def involution_check(shuffled: ShuffledUnitary, weights: np.ndarray) -> tuple[float, float]:
    """Verify that squaring the regrouped circuit erases the weights.

    The second circuit is ``shuffled``'s spec under ``weights`` (K values in
    [-1, 1], else ``ValueError``), of which only the block coefficients are
    built; it shares the unitaries, which are not checked again, so a spec
    whose unitaries fail the unitarity check still gets this one.  Returns
    ``(structure_residual, key_cancel_residual)``, certified upper bounds on
    ``|U^2 - I_2 (x) Q diag(U_t^2) Q^dag|_F`` and on the distance between
    U^2 for the two weight vectors.  Block (a, c) of either difference is
    ``sum_tu d_actu U_t U_u`` for a coefficient difference d, so each bound
    is ``sqrt(sum_ac (sum_tu |d_actu| s_t |U_u|_F)^2)``, since ``|U_t
    U_u|_F <= s_t |U_u|_F`` (:attr:`ShuffledUnitary.product_bound`).  The
    spec must use the reflection variant and a public mixing layer.
    """
    spec = shuffled.spec
    if spec.variant != "reflection":
        raise ValueError("weight cancellation in U^2 needs the reflection variant")
    g = _public_mixing(spec)
    alt_weights, _ = checked_parameters(spec.k, spec.n, weights, spec.mixing, spec.variant, spec.mixing_matrix)
    alt = block_coefficients(alt_weights, spec.mixing, spec.variant, spec.mixing_matrix)
    k = spec.k
    bound = shuffled.product_bound

    def square(coef: np.ndarray) -> np.ndarray:
        c = coef.reshape(2 * k, 2 * k, k)
        return np.einsum("abt,bcu->actu", c, c)

    def residual(d: np.ndarray) -> float:
        return float(np.sqrt(np.sum(np.einsum("actu,tu->ac", np.abs(d), bound) ** 2)))

    # I_2 (x) Q diag(U_t^2) Q^dag puts G[i, t] conj(G[j, t]) on U_t U_t in both diagonal rotation blocks
    target = np.einsum("rs,it,jt,tu->risjtu", np.eye(2), g, g.conj(), np.eye(k)).reshape(2 * k, 2 * k, k, k)
    u_sq = square(shuffled.coef)
    return residual(u_sq - target), residual(u_sq - square(alt))


def verify(spec: CircuitSpec, seed: int) -> list[dict]:
    """Run the structural check battery on one circuit spec.

    One record (``name``, ``residual``, ``threshold``, ``skipped``, ``pass``)
    per check: unitarity, block-structure, similarity, singular-multiset,
    csd (the larger of the two :attr:`ShuffledUnitary.diagonal_gaps`, which
    are the residuals of the closed-form CS factors), csd-sigma
    (``sigma_w^2 + sigma_r^2 = 1``), involution, factorization (C X against
    the outcome rows of :func:`~lcuout.circuit.apply_circuit`),
    column-orthogonality, rank.  The structure checks read the block
    coefficients of one :func:`shuffle` of ``spec`` (and those of
    :func:`involution_check`'s second weights) and the unitaries only
    through the two Gram matrices of its stack, each asked for once: in
    closed form, O(K^2 N), for a Pauli-string or permutation spec, and from
    the dense (K, N, N) stack for any other (built once, by block products,
    for a Haar spec, held as Householder reflectors); no (2KN)^2 matrix is
    built.  Checks that do not apply are skipped and pass.
    ``seed`` draws psi (``random_state(N, seed)``) and the involution check's second weights (``rng(seed + 1)``).
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
    add("csd", None if csd is None else max(sh.diagonal_gaps))
    add("csd-sigma", None if csd is None else np.abs(csd.sigma_w**2 + csd.sigma_r**2 - 1.0).max(), 1e-12)
    add("involution", max(involution_check(sh, rng(seed + 1).uniform(0.1, 1.0, spec.k)))
        if public and reflection else None)
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
