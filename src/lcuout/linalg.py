"""Linear-algebra kernel: SVD, rank truncation, stacks of unitaries, seeded sampling.

Everything is plain numpy.  Randomness always flows through :func:`rng`,
a counter-based Philox generator keyed by an explicit integer seed, so every
experiment in the package is reproducible from its seed alone.  Every stack
of K unitaries is a :class:`UnitaryStack`, read through ``@``, its two Gram
matrices and its involution residuals, whatever form holds it: a
:class:`Dense` array, or :class:`Reflectors`, the form Haar unitaries are
drawn in, checked and applied in O(N^2) per unitary, whose dense N x N form
is built only when a caller asks for it.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.linalg import _umath_linalg

__all__ = [
    "INVOLUTION_ATOL",
    "Dense",
    "Reflectors",
    "UnitaryStack",
    "dft_matrix",
    "hadamard_matrix",
    "haar_random_unitary",
    "haar_reflectors",
    "is_unitary",
    "numerical_rank",
    "random_state",
    "readonly",
    "rng",
    "svd",
    "truncate_rank",
]

# truncate_rank falls back to the SVD when the Gram eigenvalues at the cut are
# this close relative to the largest one (the Gram squares the conditioning)
GRAM_GAP_RTOL = 1e-8

# the dtypes of np.linalg.eigh's eigenvalues and eigenvectors for each floating input dtype it accepts
_EIGH_RESULTS = {
    np.dtype(np.float32): (np.float32, np.float32),
    np.dtype(np.complex64): (np.float32, np.complex64),
    np.dtype(np.float64): (np.float64, np.float64),
    np.dtype(np.complex128): (np.float64, np.complex128),
}

# seeds are integers in [0, SEED_BOUND): Philox's 128-bit key
SEED_BOUND = 2**128

# how far from 1 a state's norm, and from I a unitary's Gram U^H U, may lie
UNIT_ATOL = 1e-10

# how far from I, in Frobenius norm, the square of a unitary may lie and it still counts as an involution
INVOLUTION_ATOL = 1e-10

# numerical_rank counts the singular values above this fraction of the largest one
RANK_RTOL = 1e-10

# columns per compact-WY block of a Reflectors stack
HOUSEHOLDER_BLOCK = 32


def rng(seed: int) -> np.random.Generator:
    """Counter-based generator for an integer seed (same seed, same stream).

    ``seed`` must be an ``int`` or a numpy integer: a bool, a float, a string
    or ``None`` (which would seed from OS entropy, so no run could be
    repeated) is a ``ValueError``, and so is an integer outside
    ``[0, 2**128)`` (Philox's 128-bit key), with a message that names it.
    """
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise ValueError(f"a seed must be an integer, got {seed!r}")
    if not 0 <= seed < SEED_BOUND:
        raise ValueError(f"a seed must lie in [0, 2**128), got {seed}")
    return np.random.Generator(np.random.Philox(key=seed))


def svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin singular value decomposition of a 2-D array.

    Returns ``np.linalg.svd(a, full_matrices=False)`` unchanged: the named
    result ``(U, S, Vh)`` with ``a = (U * S) @ Vh``, orthonormal columns of
    ``U`` and rows of ``Vh``, and ``S`` non-increasing and >= 0.  An input
    that is not 2-D is a ``ValueError``; ``numpy.linalg.LinAlgError`` means
    the underlying iteration did not converge.
    """
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={a.ndim}")
    return np.linalg.svd(a, full_matrices=False)


def _eigh(gram: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh(gram)`` of a square Hermitian array, bit for bit, from one direct call of its kernel.

    numpy's wrapper resolves types, enters an ``errstate`` and casts its
    results on every call: at 8 x 8 (one BLAS thread) ``np.linalg.eigh``
    takes about 14.3 us, of which its kernel, the ``eigh_lo`` gufunc, takes
    10.5 us.  Here ``eigh_lo`` runs with the signature ``np.linalg.eigh``
    picks, double precision and complex for a complex input, and its
    results are cast to the dtypes ``np.linalg.eigh`` returns: single
    precision for a float32 or complex64 input, double for an integer one.
    A float16 or long double input is a ``TypeError``, as there.  Unlike
    ``np.linalg.eigh``, a kernel that does not converge raises nothing: its
    eigenvalues and eigenvectors come back NaN, under numpy's "invalid
    value" ``RuntimeWarning``.  The one import from ``numpy.linalg``'s
    private kernels is this helper's.
    """
    dtype = gram.dtype
    if dtype.kind not in "fc":
        dtype = np.dtype(float)
    elif dtype not in _EIGH_RESULTS:
        raise TypeError(f"array type {dtype.name} is unsupported in linalg")
    lam, vecs = _umath_linalg.eigh_lo(gram, signature="D->dD" if dtype.kind == "c" else "d->dd")
    lam_type, vecs_type = _EIGH_RESULTS[dtype]
    return lam.astype(lam_type, copy=False), vecs.astype(vecs_type, copy=False)


def truncate_rank(a: np.ndarray, rank: int) -> np.ndarray:
    """Best rank-``rank`` approximation of a 2-D array (Eckart-Young).

    Forms the Gram matrix on the smaller side (``a a^H`` for wide inputs,
    ``a^H a`` for tall ones), takes its eigendecomposition and projects ``a``
    onto the top ``rank`` eigenvectors, which for a 2K x N iterate costs a
    2K x 2K ``eigh`` instead of a thin SVD.  The eigendecomposition calls
    numpy's ``eigh_lo`` gufunc directly (:func:`_eigh`): numpy's wrapper
    around it is about a quarter of the 8 x 8 ``eigh`` and several percent
    of an SVP trial, and the direct call returns ``np.linalg.eigh``'s
    bits.  The projection is one matmul with the small-side projector ``P =
    top top^H``: ``P a`` for wide inputs, ``a P`` for tall ones, which
    passes over ``a`` once instead of twice through ``top^H a``.  The Gram
    squares the condition number, so unless the eigenvalue gap at the cut
    exceeds ``GRAM_GAP_RTOL`` times the largest eigenvalue (a
    near-degenerate cut, a rank-deficient or a zero input, and a NaN
    spectrum: an ``eigh`` that did not converge, or the Gram of a finite
    input that overflows) the result comes from :func:`svd` instead, which
    raises ``numpy.linalg.LinAlgError`` if it too fails.  Returns ``a``
    itself when ``rank >= min(a.shape)``.
    """
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={a.ndim}")
    if rank < 1:
        raise ValueError(f"rank must be positive, got {rank}")
    if rank >= min(a.shape):
        return a
    wide = a.shape[0] <= a.shape[1]
    gram = a @ a.conj().T if wide else a.conj().T @ a
    lam, vecs = _eigh(gram)  # ascending
    if not (lam[-rank] - lam[-rank - 1] > GRAM_GAP_RTOL * lam[-1]):  # also true for NaN
        u, s, vh = svd(a)
        return (u[:, :rank] * s[:rank]) @ vh[:rank]
    top = vecs[:, -rank:]
    proj = top @ top.conj().T
    return proj @ a if wide else a @ proj


def numerical_rank(a: np.ndarray) -> int:
    """Number of singular values above ``RANK_RTOL`` times the largest one."""
    s = svd(a)[1]
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > RANK_RTOL * s[0]))


def hadamard_matrix(k: int) -> np.ndarray:
    """Sylvester-Hadamard matrix of size ``k`` (power of two), scaled by 1/sqrt(k).

    The result is real symmetric orthogonal with all entries +-1/sqrt(k) and an
    all-positive first row/column.
    """
    if k < 1 or k & (k - 1):
        raise ValueError(f"order must be a power of two, got {k}")
    h = np.array([[1.0]])
    while h.shape[0] < k:
        h = np.block([[h, h], [h, -h]])
    return h / np.sqrt(k)


def dft_matrix(k: int) -> np.ndarray:
    """Unitary DFT matrix ``F[j, t] = exp(2i*pi*j*t/k) / sqrt(k)``."""
    if k < 1:
        raise ValueError(f"order must be positive, got {k}")
    idx = np.arange(k)
    return np.exp(2j * np.pi * np.outer(idx, idx) / k) / np.sqrt(k)


def _check_dimension(dim: int, name: str = "dimension") -> None:
    """``ValueError`` unless ``dim`` is a positive ``int`` or numpy integer, no bool, as :func:`rng` takes seeds.

    The message calls it ``name``.
    """
    if isinstance(dim, bool) or not isinstance(dim, (int, np.integer)):
        raise ValueError(f"a {name} must be an integer, got {dim!r}")
    if dim < 1:
        raise ValueError(f"{name} must be positive, got {dim}")


def _as_generator(seed: int | np.random.Generator) -> np.random.Generator:
    return seed if isinstance(seed, np.random.Generator) else rng(seed)


def readonly(value, dtype=None) -> np.ndarray:
    """``value`` as a read-only array that owns its data, converted to ``dtype`` if one is given.

    For the arrays a record is handed, which the caller may still hold: what
    numpy builds here, from a tuple, a list or an array of another dtype, is
    held by nothing else and is frozen in place; an array that already is
    read-only and owns its data is kept; anything else (a writeable array, a
    view, an ``__array__`` holder) is copied, so no later write through
    another reference reaches the result.
    """
    a = np.asarray(value, dtype=dtype)
    built = isinstance(value, (tuple, list)) or (isinstance(value, np.ndarray) and a is not value and a.base is None)
    if not built and (a.base is not None or a.flags.writeable):
        a = a.copy()
    a.flags.writeable = False
    return a


def is_unitary(m: np.ndarray) -> bool:
    """``np.allclose(m^H m, I, rtol=0, atol=UNIT_ATOL)``, NaN and inf included, with the Gram as the one temporary."""
    g = m.conj().T @ m
    g[np.diag_indices_from(g)] -= 1
    return bool(np.max(np.abs(g)) <= UNIT_ATOL)


class UnitaryStack:
    """K unitaries of order N, read as the (K, N, N) stack they stand for, whatever form holds them.

    Every form gives ``shape``, ``len``, ``stack @ x`` with the shape
    ``np.matmul`` gives on the dense stack, ``non_unitary()`` (per
    unitary, True unless ``max|U^H U - I| <= UNIT_ATOL`` holds, shown by
    that test or by a bound that implies it), and ``dense``, the read-only
    (K, N, N) array itself, for the forms that hold it and for test
    oracles.  :meth:`trace_gram`, :meth:`defect_gram` and
    :meth:`involution_residuals` are written here once against ``dense`` and
    ``@``; a form with a closed form overrides them.  Nothing else of the
    package asks which form a stack has.
    """

    shape: tuple[int, int, int]
    dense: np.ndarray

    def trace_gram(self) -> np.ndarray:
        """``gram[t, u] = tr(U_t^H U_u)``, the K x K Gram matrix of the unitaries."""
        flat = self.dense.reshape(len(self), -1)
        return flat.conj() @ flat.T

    def defect_gram(self) -> np.ndarray:
        """Gram matrix ``tr(X^H Y)`` of ``E_t = U_t^H U_t - I`` at index t < K and of I at index K.

        The K products ``U_t^H U_t`` are its only N x N products.
        ``gram[K, t] = tr(E_t) = |U_t|_F^2 - N``.  Each entry ``t <= u`` is
        one ``np.vdot``, which conjugates as it reads, so the stack of
        defects is the one (K, N, N) array held.
        """
        k, big_n = len(self), self.shape[-1]
        defects = np.empty((k, big_n, big_n), dtype=complex)
        diag = np.arange(big_n)
        for t, u in enumerate(self.dense):
            np.matmul(u.conj().T, u, out=defects[t])
            defects[t, diag, diag] -= 1.0
        flat = defects.reshape(k, -1)
        gram = np.full((k + 1, k + 1), big_n, dtype=complex)
        for t in range(k):
            for u in range(t, k):
                gram[t, u] = np.vdot(flat[t], flat[u])
                gram[u, t] = gram[t, u].conjugate()
        gram[k, :k] = np.trace(defects, axis1=1, axis2=2)
        gram[:k, k] = gram[k, :k].conj()
        return gram

    def involution_residuals(self) -> Iterator[float]:
        """``|U_t^2 - I|_F`` for each unitary, in order, each probed in O(N^2) through ``@`` before any square.

        One fixed unit x: ``|(U_t^2 - I) x| <= |U_t^2 - I|_F``, so a probe
        above ``INVOLUTION_ATOL`` refuses its unitary as the residual would,
        and is what is yielded for it; only a unitary whose probe passes,
        once reached, is squared from ``dense``.
        """
        big_n = self.shape[-1]
        x = np.full(big_n, big_n**-0.5)
        probes = np.linalg.norm((self @ (self @ x)[..., None])[..., 0] - x, axis=-1)
        return (p if p > INVOLUTION_ATOL else _square_residual(self.dense[t]) for t, p in enumerate(probes))


def _square_residual(u: np.ndarray) -> float:
    square = u @ u
    square[np.diag_indices_from(square)] -= 1  # U^2 - I in place, the same Frobenius norm bit for bit
    return np.linalg.norm(square)


@dataclass(frozen=True, eq=False)
class Dense(UnitaryStack):
    """K unitaries of order N held as their (K, N, N) complex array, read-only, taken as :func:`readonly` takes arrays.

    ``stack @ x`` is ``np.matmul(dense, x)``, and :meth:`non_unitary`
    applies :func:`is_unitary` to each matrix.  An array that is not one
    stack of square matrices is a ``ValueError``.  Like every record of the
    package, a stack compares and hashes by identity.
    """

    dense: np.ndarray

    def __post_init__(self):
        a = readonly(self.dense, complex)
        if a.ndim != 3 or a.shape[1] != a.shape[2]:
            raise ValueError(f"an array of shape {a.shape} is no (K, N, N) stack")
        object.__setattr__(self, "dense", a)

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.dense.shape

    def __len__(self) -> int:
        return len(self.dense)

    def __matmul__(self, x) -> np.ndarray:
        return np.matmul(self.dense, x)

    def non_unitary(self) -> np.ndarray:
        """Per unitary, whether it fails :func:`is_unitary`: O(N^3) each."""
        return np.array([not is_unitary(u) for u in self.dense])


@dataclass(frozen=True, eq=False)
class Reflectors(UnitaryStack):
    """K unitaries of order N, each a product of N Householder reflectors and a diagonal of signs.

    Unitary t is ``H_0 H_1 ... H_{N-1} diag(signs[t])`` with ``H_j = I -
    taus[t, j] v_j v_j^H``, where v_j lives on rows j..N-1, as LAPACK's
    zgeqrf leaves it.  The vectors are held in blocks of
    ``HOUSEHOLDER_BLOCK`` columns: ``panels[b]`` is the (K, N - bB, w_b)
    stack of columns bB..bB+w_b-1 of V from row bB down (w_b = B but for a
    narrower last block), about half the memory of the dense stack.  All
    three are read-only, taken as :func:`readonly` takes arrays.

    ``shape`` is that of the (K, N, N) stack they stand for, and ``stack @
    x`` applies it as ``np.matmul`` would the dense stack, block by block as
    ``y -= V_b T_b V_b^H y`` in O(K N^2) per column of ``x``;
    :attr:`factors` holds the compact-WY factors T_b, and :attr:`dense` the
    dense stack, each built on first use and kept.  Nothing here checks
    that the stack is unitary; :meth:`non_unitary` decides it.  The Gram
    matrices and the involution residuals are :class:`UnitaryStack`'s, so
    the Grams read the kept dense stack.  Like every record of the package,
    a stack compares and hashes by identity.
    """

    panels: tuple
    taus: np.ndarray
    signs: np.ndarray

    def __post_init__(self):
        taus, signs = readonly(self.taus, complex), readonly(self.signs, float)
        panels = tuple(readonly(p, complex) for p in self.panels)
        k, big_n = taus.shape if taus.ndim == 2 else (0, 0)
        starts = range(0, big_n, HOUSEHOLDER_BLOCK)
        expected = [(k, big_n - c0, min(HOUSEHOLDER_BLOCK, big_n - c0)) for c0 in starts]
        if signs.shape != taus.shape or not big_n or [p.shape for p in panels] != expected:
            raise ValueError(f"reflector panels of shapes {[p.shape for p in panels]}, taus of shape {taus.shape} "
                             f"and signs of shape {signs.shape} do not make one (K, N, N) stack")
        object.__setattr__(self, "panels", panels)
        object.__setattr__(self, "taus", taus)
        object.__setattr__(self, "signs", signs)

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.taus.shape + self.taus.shape[-1:]

    def __len__(self) -> int:
        return len(self.taus)

    @cached_property
    def factors(self) -> tuple[np.ndarray, ...]:
        """The (K, w_b, w_b) upper-triangular T_b with ``H_{bB} ... H_{bB+w_b-1} = I - V_b T_b V_b^H``, read-only.

        LAPACK's zlarft recurrence (Schreiber & Van Loan, SIAM J. Sci. Stat.
        Comput. 10, 1989) from the block Gram ``G = V_b^H V_b``: diag(T) =
        tau and ``T[:j, j] = -tau_j T[:j, :j] G[:j, j]``, column by column.
        It inverts nothing and divides by no tau.  All K unitaries and all P
        blocks take the w - 1 steps together, as one (K, P, w, w) stack with w
        = min(B, N); a narrower last block is padded with tau = 0, which
        leaves its extra columns zero.
        """
        (k, big_n), width = self.taus.shape, self.panels[0].shape[-1]  # width = min(B, N)
        tau = np.zeros((k, len(self.panels) * width), dtype=complex)
        tau[:, :big_n] = self.taus
        tau = tau.reshape(k, len(self.panels), width)
        gram = np.zeros(tau.shape + (width,), dtype=complex)
        for b, v in enumerate(self.panels):
            gram[:, b, : v.shape[-1], : v.shape[-1]] = v.conj().transpose(0, 2, 1) @ v
        gram *= -tau[:, :, None, :]
        t = np.zeros_like(gram)
        t[..., range(width), range(width)] = tau
        for j in range(1, width):
            t[..., :j, j] = (t[..., :j, :j] @ gram[..., :j, j, None])[..., 0]
        t.flags.writeable = False
        return tuple(t[:, b, : v.shape[-1], : v.shape[-1]] for b, v in enumerate(self.panels))

    def __matmul__(self, x) -> np.ndarray:
        """``dense @ x`` with the shape ``np.matmul`` gives, applied block by block in O(K N^2) per column of ``x``.

        As for ``np.matmul``, an ``x`` of shape (N,) is one state, which every
        unitary applies to, and one of shape (..., N, S) is a stack of
        matrices broadcast against the (K, N, N) stack.  An ``x`` whose rows
        (the axis ``np.matmul`` contracts) are not N is a ``ValueError``.
        """
        x = np.asarray(x)
        if x.ndim == 0 or x.shape[max(x.ndim - 2, 0)] != self.shape[-1]:
            raise ValueError(f"cannot apply reflectors of shape {self.shape} to an array of shape {x.shape}")
        cols = x[:, None] if x.ndim == 1 else x
        y = np.multiply(self.signs[:, :, None], cols, dtype=complex)
        for b in reversed(range(len(self.panels))):
            v, f = self.panels[b], self.factors[b]
            rows = y[..., b * HOUSEHOLDER_BLOCK :, :]
            # V_b^H rows as conj(V_b^T conj(rows)): a copy of the few columns applied, not of the panel, same bits
            rows -= v @ (f @ (v.transpose(0, 2, 1) @ rows.conj()).conj())
        return y[..., 0] if x.ndim == 1 else y

    @cached_property
    def dense(self) -> np.ndarray:
        """The (K, N, N) stack itself, read-only; built on first use, one unitary at a time, and kept.

        Blocks b+1.. act as the identity outside rows and columns bB.., so
        block b updates only that trailing square, by the products of
        ``@``: O(N^3) per unitary, with one N x N temporary.
        """
        big_n = self.shape[-1]
        out = np.zeros(self.shape, dtype=complex)
        out[:, np.arange(big_n), np.arange(big_n)] = self.signs
        for t, u in enumerate(out):
            for b in reversed(range(len(self.panels))):
                v, f = self.panels[b][t], self.factors[b][t]
                c0 = b * HOUSEHOLDER_BLOCK
                square = u[c0:, c0:]
                square -= v @ (f @ (v.conj().T @ square))
        out.flags.writeable = False
        return out

    def non_unitary(self) -> np.ndarray:
        """Per unitary, whether its reflectors fail to bound ``|U^H U - I|_2`` by ``UNIT_ATOL``, decided in O(N^2).

        ``H_j^H H_j - I = delta_j v_j v_j^H`` with ``delta_j = |tau_j|^2
        |v_j|^2 - 2 Re tau_j``, so ``e_j = |H_j^H H_j - I|_2 = |delta_j|
        |v_j|^2``, and the signs add ``e_s = max_j |s_j^2 - 1|``.  Since
        ``|(AB)^H AB - I| <= (1 + e_A)(1 + e_B) - 1``, ``|U^H U - I|_2`` is
        at most ``prod(1 + e) - 1``, which must not exceed ``UNIT_ATOL``: a
        stack that passes passes the dense check that every entry of ``U^H U
        - I`` is within it.  A NaN or inf entry fails.
        """
        with np.errstate(invalid="ignore", over="ignore"):
            floats = [np.ascontiguousarray(p).view(float) for p in self.panels]  # Re and Im of a column side by side
            halves = np.concatenate([np.einsum("krc,krc->kc", f, f) for f in floats], axis=1)
            sq = halves[:, 0::2] + halves[:, 1::2]  # |v_j|^2
            tau = self.taus
            e = np.abs((tau.real**2 + tau.imag**2) * sq - 2 * tau.real) * sq
            e_s = np.abs(self.signs**2 - 1).max(axis=1)
            bound = np.expm1(np.log1p(e).sum(axis=1) + np.log1p(e_s))
        return ~(bound <= UNIT_ATOL)


def haar_reflectors(k: int, dim: int, seed: int | np.random.Generator) -> Reflectors:
    """``k`` successive Haar-distributed random unitaries of order ``dim`` as :class:`Reflectors`, in O(dim^2) each.

    For each unitary, dim independent complex Gaussian columns of lengths
    dim, dim - 1, ..., 1 are drawn end to end (real and imaginary parts
    interleaved), one call per block of ``HOUSEHOLDER_BLOCK`` columns,
    straight into the block's panel; numpy's generator draws normals as one
    stream, so the blocks read the bits one call of dim (dim + 1) / 2 would.
    Column j becomes reflector j by LAPACK's zlarfg rule: with alpha its
    head, ``beta = -sign(Re alpha) |x|``, ``tau = (beta - alpha) / beta``,
    ``v = x / (alpha - beta)`` with a unit head, and sign(beta) as the phase
    fix.  This is the law of the QR of a dim x
    dim complex Gaussian matrix with R's diagonal phases divided out, which
    is exactly Haar (Stewart, SIAM J. Numer. Anal. 17, 1980; Mezzadri,
    Notices AMS 54, 2007): Householder QR makes the same reflectors from
    columns that are independent Gaussians at every step.  The scale of the
    Gaussians cancels.  ``seed`` may be an integer or an already-running
    generator, which is left after the k draws; unitary t is drawn and
    turned into reflectors before unitary t + 1 is drawn, so besides the
    stack a draw holds one block's Gaussians at a time, at most
    ``HOUSEHOLDER_BLOCK * dim`` complex numbers.  ``ValueError`` for a
    count K or a dimension that is not a positive integer.
    """
    _check_dimension(k, "count K")
    _check_dimension(dim)
    gen = _as_generator(seed)
    starts = range(0, dim, HOUSEHOLDER_BLOCK)
    panels = [np.zeros((k, dim - c0, min(HOUSEHOLDER_BLOCK, dim - c0)), dtype=complex) for c0 in starts]
    # entry r of column c lies on or below row c
    lowers = [np.arange(p.shape[1]) >= np.arange(p.shape[2])[:, None] for p in panels]
    taus, signs = np.empty((k, dim), dtype=complex), np.empty((k, dim))
    for t in range(k):
        for c0, panel, lower in zip(starts, panels, lowers):
            v = panel[t]
            width = v.shape[1]
            v.T[lower] = gen.standard_normal((np.count_nonzero(lower), 2)).view(complex)[:, 0]
            alpha = np.diagonal(v).copy()
            beta = -np.copysign(np.linalg.norm(v, axis=0), alpha.real)
            taus[t, c0 : c0 + width] = (beta - alpha) / beta
            signs[t, c0 : c0 + width] = np.sign(beta)
            v /= alpha - beta
            v[np.arange(width), np.arange(width)] = 1.0
    for a in (*panels, taus, signs):
        a.flags.writeable = False
    return Reflectors(tuple(panels), taus, signs)


def haar_random_unitary(dim: int, seed: int | np.random.Generator) -> np.ndarray:
    """One Haar-distributed random unitary, dense and read-only: the ``k = 1`` case of :func:`haar_reflectors`.

    The one Haar sampler of the package is :func:`haar_reflectors`; this is
    the only unitary of its :attr:`Reflectors.dense`, with its bits and
    generator position.
    """
    return haar_reflectors(1, dim, seed).dense[0]


def random_state(dim: int, seed: int | np.random.Generator) -> np.ndarray:
    """Normalized complex Gaussian vector (uniform on the unit sphere).

    ``ValueError`` for a dimension that is not a positive integer.
    """
    _check_dimension(dim)
    gen = _as_generator(seed)
    z = gen.standard_normal(dim) + 1j * gen.standard_normal(dim)
    return z / np.linalg.norm(z)
