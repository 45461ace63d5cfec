"""Dense linear-algebra kernel: SVD, rank truncation, structured unitaries, seeded sampling.

Everything is plain numpy.  Randomness always flows through :func:`rng`,
a counter-based Philox generator keyed by an explicit integer seed, so every
experiment in the package is reproducible from its seed alone.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "dft_matrix",
    "hadamard_matrix",
    "haar_random_unitaries",
    "haar_random_unitary",
    "numerical_rank",
    "random_state",
    "rng",
    "svd",
    "truncate_rank",
]

# truncate_rank falls back to the SVD when the Gram eigenvalues at the cut are
# this close relative to the largest one (the Gram squares the conditioning)
GRAM_GAP_RTOL = 1e-8

# seeds are integers in [0, SEED_BOUND): Philox's 128-bit key
SEED_BOUND = 2**128


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


def truncate_rank(a: np.ndarray, rank: int) -> np.ndarray:
    """Best rank-``rank`` approximation of a 2-D array (Eckart-Young).

    Forms the Gram matrix on the smaller side (``a a^H`` for wide inputs,
    ``a^H a`` for tall ones), takes its eigendecomposition and projects ``a``
    onto the top ``rank`` eigenvectors, which for a 2K x N iterate costs a
    2K x 2K ``eigh`` instead of a thin SVD.  The projection is one matmul
    with the small-side projector ``P = top top^H``: ``P a`` for wide
    inputs, ``a P`` for tall ones, which passes over ``a`` once instead of
    twice through ``top^H a``.  The Gram squares the condition
    number, so when the eigenvalue gap at the cut is at most
    ``GRAM_GAP_RTOL`` times the largest eigenvalue (a near-degenerate cut, a
    rank-deficient or a zero input) the result comes from :func:`svd`
    instead.  Returns ``a`` itself when ``rank >= min(a.shape)``.
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
    lam, vecs = np.linalg.eigh(gram)  # ascending
    if lam[-rank] - lam[-rank - 1] <= GRAM_GAP_RTOL * lam[-1]:
        u, s, vh = svd(a)
        return (u[:, :rank] * s[:rank]) @ vh[:rank]
    top = vecs[:, -rank:]
    proj = top @ top.conj().T
    return proj @ a if wide else a @ proj


def numerical_rank(a: np.ndarray, tol: float = 1e-10) -> int:
    """Number of singular values above ``tol`` times the largest one."""
    s = svd(a)[1]
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > tol * s[0]))


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


def _as_generator(seed: int | np.random.Generator) -> np.random.Generator:
    return seed if isinstance(seed, np.random.Generator) else rng(seed)


def haar_random_unitary(dim: int, seed: int | np.random.Generator) -> np.ndarray:
    """One Haar-distributed random unitary: the ``k = 1`` case of :func:`haar_random_unitaries`."""
    return haar_random_unitaries(1, dim, seed)[0]


def haar_random_unitaries(k: int, dim: int, seed: int | np.random.Generator) -> np.ndarray:
    """``k`` successive Haar-distributed random unitaries as one (k, dim, dim) complex stack.

    Each is the QR of a complex Gaussian matrix with the R-factor's diagonal
    phases divided out, which makes the distribution exactly Haar rather
    than merely orthonormal.  ``seed`` may be an integer or an
    already-running generator.  Each Gaussian matrix is formed in its own
    slot of the stack, and Q is copied back there and its phases fixed in
    place, so besides the stack and QR's own arrays a draw holds one dim x
    dim array at a time; slot t has the same bits as the t-th draw formed
    out of place from ``(x + 1j * y) / sqrt(2)``.  The stack is read-only
    from birth and owns its data, so a :class:`~lcuout.circuit.CircuitSpec`
    keeps it as drawn, with no copy.
    """
    if dim < 1:
        raise ValueError(f"dimension must be positive, got {dim}")
    gen = _as_generator(seed)
    us = np.empty((k, dim, dim), dtype=complex)
    for z in us:
        x = gen.standard_normal((dim, dim))  # drawn before the imaginary part
        np.multiply(1j, gen.standard_normal((dim, dim)), out=z)
        z += x
        del x
        z /= np.sqrt(2)
        z[...], r = np.linalg.qr(z)  # Q is copied into the slot and dropped, R kept for its diagonal
        d = np.diagonal(r).copy()
        del r
        z *= d / np.abs(d)
    us.flags.writeable = False
    return us


def random_state(dim: int, seed: int | np.random.Generator) -> np.ndarray:
    """Normalized complex Gaussian vector (uniform on the unit sphere)."""
    if dim < 1:
        raise ValueError(f"dimension must be positive, got {dim}")
    gen = _as_generator(seed)
    z = gen.standard_normal(dim) + 1j * gen.standard_normal(dim)
    return z / np.linalg.norm(z)
