"""Recovering the full output matrix from partial, possibly noisy entries.

Phi is rank K with 2K rows, so a handful of observed entries per column
pins it down.  Three routes are implemented: singular-value projection
(iterative hard thresholding), ridge-regularized alternating least squares,
and — when the coefficient matrix C is known — an exact factorized
solve, one least-squares pseudo-inverse per observation pattern shared by
every column with that pattern.  ``sweep`` drives grids of seeded
experiments and returns one aggregate row per (method, swept value).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .circuit import check_layout, coefficients, integer_value, list_value, real_value, reject_unread_keys
from .linalg import SEED_BOUND, random_state, rng, truncate_rank

__all__ = [
    "FactorizedResult",
    "METHODS",
    "ObservedEntries",
    "als_complete",
    "complete",
    "factorized_complete",
    "make_mask",
    "observe",
    "recovery_errors",
    "svp_complete",
    "sweep",
    "sweep_instance",
]


# fixed solver settings: SVP's stall tolerance, ALS's ridge scale and stall tolerance
SVP_TOL = 1e-12
ALS_RIDGE = 1e-10
ALS_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class ObservedEntries:
    """Observed (possibly noisy) entries; unobserved positions hold zero.

    ``values`` must be a 2-D array and ``mask`` an array of the same shape,
    stored as a boolean copy, that observes at least one entry.  The stored
    values are a copy with every position off the mask set to zero, so no
    solver reads what was not observed; the observed values must then be
    finite.  Anything else is a ``ValueError``; for an empty mask it says
    ``no observed entries``, so no solver checks for one.  Both copies are
    read-only, so no later edit, of the caller's arrays or of these,
    changes what the entries say was observed.
    """

    values: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values)
        mask = np.array(self.mask, dtype=bool)
        if values.ndim != 2 or mask.shape != values.shape:
            raise ValueError(
                f"observed values of shape {values.shape} need a 2-D mask of the same shape, got {mask.shape}"
            )
        if not mask.any():
            raise ValueError("no observed entries")
        values = np.where(mask, values, 0)
        if not np.isfinite(values).all():
            raise ValueError("observed values must be finite")
        values.flags.writeable = mask.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "mask", mask)

    @property
    def count(self) -> int:
        return int(self.mask.sum())


def make_mask(
    rows: int,
    cols: int,
    seed: int,
    mode: str = "uniform",
    density: float | None = None,
    min_per_column: int | None = None,
) -> np.ndarray:
    """Draw a boolean ``rows x cols`` observation pattern (True = observed).

    ``uniform`` keeps each entry independently with probability ``density``
    and takes no ``min_per_column``.  ``column_guaranteed`` draws the same
    first pattern (none at all with ``density=None``) and then tops every
    column up to ``min_per_column`` observations: a column that holds
    ``count`` of them gains ``max(min_per_column - count, 0)`` more, so with
    ``density=None`` every column ends with exactly ``min_per_column``.  The
    top-up draws one uniform key per entry, gives the observed entries the
    key +inf, and observes each short column's lowest-keyed rows (a stable
    sort, so exactly the shortfall is added).  The keys of a column's
    missing rows are independent and identically distributed, so the rows
    added are a uniformly random subset of them, as a draw without
    replacement would give, in one pass over all columns.
    """
    if density is not None and not 0.0 <= density <= 1.0:
        raise ValueError(f"density must lie in [0, 1], got {density}")
    gen = rng(seed)
    if mode == "uniform":
        if density is None:
            raise ValueError("uniform mode needs a density")
        if min_per_column is not None:
            raise ValueError("min_per_column applies only to column_guaranteed mode, not uniform")
        mask = gen.random((rows, cols)) < density
    elif mode == "column_guaranteed":
        if min_per_column is None:
            raise ValueError("column_guaranteed mode needs min_per_column")
        if not 0 < integer_value("min_per_column", min_per_column) <= rows:
            raise ValueError(f"min_per_column must lie in 1..{rows}")
        if density is None:
            mask = np.zeros((rows, cols), dtype=bool)
        else:
            mask = gen.random((rows, cols)) < density
        short = min_per_column - mask.sum(axis=0)
        keys = np.where(mask, np.inf, gen.random((rows, cols)))
        # each entry's rank among its column's keys: the inverse of the stable sort order
        mask |= np.argsort(np.argsort(keys, axis=0, kind="stable"), axis=0) < short
    else:
        raise ValueError(f"unknown mask mode {mode!r}")
    return mask


def observe(phi: np.ndarray, mask: np.ndarray, sigma: float = 0.0, seed: int = 0) -> ObservedEntries:
    """The entries of ``phi`` on ``mask`` plus complex Gaussian noise of total std ``sigma``.

    ``mask`` is a boolean array of ``phi``'s shape, as drawn by
    :func:`make_mask`; :class:`ObservedEntries` checks it, refuses one
    that observes nothing with ``ValueError``, and zeroes the entries off
    it.  Each observed entry gains ``sigma/sqrt(2) * (g1 + i g2)`` with
    standard normal g1, g2, so E|noise|^2 = sigma^2; ``seed`` must be an
    integer (see :func:`lcuout.linalg.rng`), at ``sigma == 0`` too.  The unit draw
    ``g1 + i g2`` is a function of ``(phi.shape, seed)`` alone and the last
    one is kept, so consecutive calls that differ only in ``sigma`` (a
    sigmas sweep) draw it once and only rescale it.
    """
    phi = np.asarray(phi, dtype=complex)
    if not 0 <= sigma < np.inf:
        raise ValueError(f"noise level must be finite and non-negative, got {sigma}")
    if sigma > 0:
        phi = phi + _unit_noise(phi.shape, seed) * (sigma / np.sqrt(2))
    else:
        rng(seed)  # the noise draw checks the seed; without one, check it here
    return ObservedEntries(values=phi, mask=mask)


# typed, so a bool seed never hits the entry of the int it equals and reaches rng's check
@lru_cache(maxsize=1, typed=True)
def _unit_noise(shape: tuple[int, ...], seed: int) -> np.ndarray:
    # read-only: every caller of the memo shares the array
    gen = rng(seed)
    unit = gen.standard_normal(shape) + 1j * gen.standard_normal(shape)
    unit.flags.writeable = False
    return unit


def _check_iterative(rank: int, max_iters: int) -> None:
    for name, value in (("rank", rank), ("max_iters", max_iters)):
        if integer_value(name, value) < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")


def svp_complete(entries: ObservedEntries, rank: int, max_iters: int = 500) -> tuple[np.ndarray, int]:
    """Singular-value projection: gradient step on observed entries, rank-K truncation.

    Each trial step ``z + mu g`` is truncated to rank K by
    :func:`lcuout.linalg.truncate_rank`, once per trial: an ``eigh`` of the
    smaller-side Gram matrix (2K x 2K for N >= 2K) and one matmul with the
    projector onto its top K eigenvectors, falling back to the thin SVD when
    the Gram spectrum has no clear gap at K.  The step size starts at the
    reciprocal observation density and is halved within an iteration until
    the observed residual decreases, which keeps the sweep monotone even at
    sparse masks where the raw step would diverge; the masked residual of the
    accepted step is the next gradient.  Iteration stops when the residual
    stalls (relative change at most ``SVP_TOL`` = 1e-12), when no step length
    helps, or after ``max_iters`` rounds.  ``rank`` and ``max_iters`` must be
    integers of at least 1, else ``ValueError``.  Returns the completed
    matrix and the number of iterations used.

    Four arrays live for the whole call: the step ``a``, the residual pair
    ``g``/``g_new`` (``g`` starts as a copy of the observed values ``b``,
    which are never written) and the mask as floats laid out like the float
    view of ``g`` (each entry twice for complex values).  A trial writes
    ``mu g`` into ``a`` on the float views and adds ``z``, truncates ``a``,
    writes ``b - z_new`` into ``g_new`` and multiplies its float view by the
    float mask, and takes the norm ``sqrt(<g_new, g_new>)`` from one
    ``vdot``; an accepted trial swaps ``g`` and ``g_new``.  So a trial
    allocates only what the truncation returns, and runs no complex-by-real
    multiply and no mask cast.  When ``rank >= min(a.shape)`` the truncation
    returns ``a`` itself; an accepted ``a`` is then the iterate, so the step
    moves to a new buffer, or the next trial would overwrite ``z``.  These
    are the floats of a loop that allocates every step and residual and
    multiplies by a complex copy of the mask, and they must stay so: the
    accept test ``cur <= prev`` and the stall test decide at rounding level,
    so a change in the last bits moves the step halvings, the iteration
    count and the result.  Changing them is a behaviour change, the one a
    stopping rule above rounding (ROADMAP) declares.
    """
    _check_iterative(rank, max_iters)
    mask, b = entries.mask, entries.values
    parts = 2 if np.iscomplexobj(b) else 1  # floats per entry in the float view
    g = np.array(b, dtype=complex if parts == 2 else float, order="C")
    g_new = np.empty_like(g)
    a = np.empty_like(g)
    keep = np.repeat(mask, parts, axis=1).astype(float)
    mu = 1.0 / mask.mean()
    z = np.zeros_like(b)
    b_norm = np.sqrt(np.vdot(b, b).real)
    prev = b_norm
    iters = 0
    for iters in range(1, max_iters + 1):
        mu_try = mu
        for _ in range(16):
            np.multiply(g.view(float), mu_try, out=a.view(float))
            a += z
            z_new = truncate_rank(a, rank)
            np.subtract(b, z_new, out=g_new)
            residual = g_new.view(float)
            residual *= keep
            cur = math.sqrt(np.vdot(g_new, g_new).real)
            if cur <= prev:
                break
            mu_try *= 0.5
        else:
            break
        z, g, g_new = z_new, g_new, g
        if z is a:  # the truncation returned the step itself, which is now the iterate
            a = np.empty_like(g)
        if cur <= 1e-15 * b_norm or prev - cur <= SVP_TOL * max(prev, 1e-300):
            break
        prev = cur
    return z, iters


def _batched_ridge_rows(
    mask: np.ndarray, values: np.ndarray, basis: np.ndarray, ridge: float
) -> np.ndarray:
    # Solve, for every row i: min over a of |basis[cols_i] a - values[i, cols_i]|^2 + lam_i |a|^2,
    # with lam_i = ridge tr(G_i) / rank and G_i = sum_j mask[i, j] basis[j]^dag basis[j]
    rank = basis.shape[1]
    gram = np.einsum("ij,ja,jb->iab", mask, basis.conj(), basis)
    lam = ridge * np.trace(gram, axis1=1, axis2=2).real / rank
    gram = gram + (lam[:, None, None] + 1e-300) * np.eye(rank)
    rhs = np.einsum("ij,ja,ij->ia", mask, basis.conj(), values)
    return np.linalg.solve(gram, rhs[..., None])[..., 0]


def als_complete(
    entries: ObservedEntries, rank: int, seed: int = 0, max_iters: int = 200
) -> tuple[np.ndarray, int]:
    """Alternating least squares on the observed entries with a small ridge.

    Factors start as seeded complex Gaussians scaled so the product matches
    the observed Frobenius mass.  Each half-step solves ridge-regularized
    least squares with ``lam = ALS_RIDGE tr(G)/K`` (``ALS_RIDGE`` = 1e-10);
    sweeps stop when the masked residual changes by at most ``ALS_TOL`` =
    1e-10 relative, or after ``max_iters``.  ``rank`` and ``max_iters`` must
    be integers of at least 1, else ``ValueError``.  Returns the completed
    matrix and the number of sweeps used.
    """
    _check_iterative(rank, max_iters)
    mask, b = entries.mask, entries.values
    rows, cols = b.shape
    gen = rng(seed)
    scale = np.linalg.norm(b) / np.sqrt(entries.count)
    left = scale * (gen.standard_normal((rows, rank)) + 1j * gen.standard_normal((rows, rank))) / np.sqrt(2)
    right = scale * (gen.standard_normal((cols, rank)) + 1j * gen.standard_normal((cols, rank))) / np.sqrt(2)
    prev = np.inf
    iters = 0
    for iters in range(1, max_iters + 1):
        left = _batched_ridge_rows(mask, b, right.conj(), ALS_RIDGE)
        right = _batched_ridge_rows(mask.T, b.T, left, ALS_RIDGE).conj()
        z = left @ right.conj().T
        cur = np.linalg.norm(np.where(mask, b - z, 0.0))
        if np.isfinite(prev) and abs(prev - cur) <= ALS_TOL * max(prev, 1e-300):
            break
        prev = cur
    return left @ right.conj().T, iters


@dataclass(frozen=True, eq=False)
class FactorizedResult:
    """Completion through the known coefficient matrix."""

    phi: np.ndarray
    x: np.ndarray
    underdetermined: tuple[int, ...]


def _observation_patterns(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # The distinct columns of ``mask``, one per row of ``patterns``, and for every column the index of its
    # pattern; columns are grouped by their mask bits packed into bytes, so 2K rows cost ceil(2K/8) bytes
    packed = np.ascontiguousarray(np.packbits(mask, axis=0).T)
    _, first, inverse = np.unique(
        packed.view(np.dtype((np.void, packed.shape[1])))[:, 0], return_index=True, return_inverse=True
    )
    return mask[:, first].T, inverse


def factorized_complete(entries: ObservedEntries, c: np.ndarray) -> FactorizedResult:
    """Solve each column of Phi = C X from its observed rows.

    Column j with observed rows O gets the minimum-norm least-squares
    solution ``x_j = pinv(C_O) phi_obs_j``.  A column is underdetermined
    when ``C_O`` has rank below K: too few observed rows, or rows on which a
    column of C vanishes (the rotation-0 rows carry ``w_t`` and the
    rotation-1 rows ``r_t``, so a zero weight or ``|w_t| = 1`` hides
    ``U_t psi`` from one half of C).  Determined columns are solved exactly,
    so the recovery stays unbiased; underdetermined ones are still solved,
    with no component in the null space of ``C_O``, and are reported (a
    column with no observations comes out 0), even when no column is
    determined.  The one refusal reads C alone: a C whose rank, by
    ``np.linalg.matrix_rank``'s default cutoff, is below its column count
    leaves every column underdetermined on any mask, so when no column is
    determined that rank is taken and such a C is a ``ValueError``.

    ``C_O`` depends on the column only through its observation pattern, and
    2K rows allow at most 2**(2K) patterns, so the work is done once per
    distinct pattern: one batched thin SVD of the patterns' ``C_O`` gives
    both the rank, as singular values above ``np.linalg.matrix_rank``'s
    default cutoff ``s_max * 2K * eps``, and the pseudo-inverse
    ``V diag(1/s) U^dag`` on those values.  Every column then takes its
    pattern's pseudo-inverse times its observed values; the values off the
    mask are zero (:class:`ObservedEntries`), so the pseudo-inverse's
    columns on unobserved rows meet only zeros.  Two memos keep the last
    result of each step: ``_mask_patterns``, keyed on the mask's bytes and
    shape, holds its distinct patterns (sorted, so equal sets are equal
    arrays) and each column's pattern index; ``_pattern_inverses``, keyed on
    the pattern set's bytes and shape and C's bytes, dtype and shape, holds
    every pattern's pseudo-inverse and whether it is determined.  So
    consecutive calls on one mask and one C, as a sigmas sweep makes, only
    apply, and consecutive masks that share a pattern set under one C, as
    the masks of one instance do when most columns are well observed, factor
    it once.  ``c`` needs one row per mask row and between 1 and that
    many columns; any other shape is a ``ValueError``.
    """
    mask, b = entries.mask, entries.values
    c = np.asarray(c)
    if c.ndim != 2 or c.shape[0] != mask.shape[0] or not 1 <= c.shape[1] <= c.shape[0]:
        raise ValueError(
            f"coefficient matrix of shape {c.shape} does not fit a mask of shape {mask.shape}: "
            "it needs one row per mask row and between 1 and that many columns"
        )
    patterns, inverse = _mask_patterns(mask.tobytes(), mask.shape)
    pinv, determined = _pattern_inverses(patterns.tobytes(), patterns.shape, c.tobytes(), c.dtype, c.shape)
    under = ~determined[inverse]
    if under.all() and (rank := np.linalg.matrix_rank(c)) < c.shape[1]:
        raise ValueError(f"coefficient matrix of rank {rank} below its {c.shape[1]} columns: no mask determines X")
    x = np.einsum("jab,bj->aj", pinv[inverse], b)
    return FactorizedResult(phi=c @ x, x=x, underdetermined=tuple(map(int, np.flatnonzero(under))))


@lru_cache(maxsize=1)
def _mask_patterns(mask_bytes: bytes, mask_shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    # The mask's distinct observation patterns and each column's pattern index, read-only: every caller of
    # the memo shares them
    patterns, inverse = _observation_patterns(np.frombuffer(mask_bytes, dtype=bool).reshape(mask_shape))
    for array in (patterns, inverse):
        array.flags.writeable = False
    return patterns, inverse


@lru_cache(maxsize=1)
def _pattern_inverses(
    patterns_bytes: bytes, patterns_shape: tuple[int, int], c_bytes: bytes, c_dtype: np.dtype, c_shape: tuple[int, int]
) -> tuple[np.ndarray, np.ndarray]:
    # Every pattern's pseudo-inverse of C_O and whether C_O has rank K, both read-only: every caller of the
    # memo shares them
    patterns = np.frombuffer(patterns_bytes, dtype=bool).reshape(patterns_shape)
    c = np.frombuffer(c_bytes, dtype=c_dtype).reshape(c_shape)
    co = patterns[:, :, None] * c
    u, s, vh = np.linalg.svd(co, full_matrices=False)
    kept = s > s[:, :1] * max(co.shape[1:]) * np.finfo(s.dtype).eps
    determined = kept.sum(axis=1) == c_shape[1]
    inv_s = np.divide(1.0, s, out=np.zeros_like(s), where=kept)
    pinv = (vh.conj().transpose(0, 2, 1) * inv_s[:, None, :]) @ u.conj().transpose(0, 2, 1)
    for array in (pinv, determined):
        array.flags.writeable = False
    return pinv, determined


def recovery_errors(phi_hat: np.ndarray, phi_true: np.ndarray) -> tuple[float, float]:
    """Relative Frobenius error of the matrix and 2-norm error of the target row.

    The target row is row 0 (index outcome 0, rotation 0), which carries the
    combined state ``T psi`` up to the known factor K c.  Both matrices
    must be 2-D of one shape, and neither ``phi_true`` nor its row 0 may be
    zero, else ``ValueError``.
    """
    phi_hat = np.asarray(phi_hat)
    phi_true = np.asarray(phi_true)
    if phi_true.ndim != 2 or phi_hat.shape != phi_true.shape:
        raise ValueError(f"recovered matrix of shape {phi_hat.shape} does not match the true {phi_true.shape}")
    if not phi_true[:1].any():
        raise ValueError("the true matrix or its target row is zero, so a relative error is undefined")
    rel_phi = np.linalg.norm(phi_hat - phi_true) / np.linalg.norm(phi_true)
    rel_target = np.linalg.norm(phi_hat[0] - phi_true[0]) / np.linalg.norm(phi_true[0])
    return float(rel_phi), float(rel_target)


def sweep_instance(k: int, n: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Seeded Hadamard-mixed, reflection-variant ``(weights, C, X)`` with no unitary built.

    The K weights are drawn uniform on [0.1, 1]; row t of X is then a
    :func:`random_state` of dimension 2**n from the same generator.  For a
    fixed psi and a Haar U_t, ``U_t psi`` is uniform on the unit sphere (the
    Haar measure is unitarily invariant), so X has the law of the rows
    ``U_t psi`` of K Haar unitaries applied to one psi, without K Haar
    draws and a unitarity check.  ``k`` and ``n`` are checked by
    :func:`~lcuout.circuit.check_layout` for that layout: integers with
    ``k >= 1``, ``n >= 1`` and ``k`` a power of two.
    """
    check_layout(k, n, "reflection")
    gen = rng(seed)
    weights = gen.uniform(0.1, 1.0, k)
    c = coefficients(weights)
    return weights, c, np.stack([random_state(2**n, gen) for _ in range(k)])


METHODS = ("svp", "als", "factorized")


def complete(method: str, entries: ObservedEntries, c: np.ndarray, seed: int):
    """Complete Phi at rank ``c.shape[1]`` with one of ``METHODS``.

    ``seed`` starts ALS; both iterative solvers run at their default
    ``max_iters`` (500 for SVP, 200 for ALS).  Returns ``(phi, iterations,
    underdetermined)``, with 1 iteration for the direct factorized solve and
    ``()`` for the others.  The factorized solve refuses only a C of rank
    below its column count; a mask that determines no column is solved and
    every column reported.
    """
    if method == "svp":
        z, iters = svp_complete(entries, c.shape[1])
        return z, iters, ()
    if method == "als":
        z, iters = als_complete(entries, c.shape[1], seed=seed)
        return z, iters, ()
    if method == "factorized":
        result = factorized_complete(entries, c)
        return result.phi, 1, result.underdetermined
    raise ValueError(f"unknown method {method!r}")


# the keys every sweep reads; a fractions sweep also reads ``sigma``, a sigmas sweep ``fraction``
_SWEEP_KEYS = ("k", "n", "instances", "masks_per_instance", "methods", "seed", "mask_mode", "min_per_column")


def sweep(config: dict) -> list[dict]:
    """Run a seeded grid of completion experiments and aggregate the errors.

    Config keys: ``k``, ``n``, ``instances``, ``masks_per_instance``,
    ``methods``, ``seed``, plus either ``fractions`` (with fixed ``sigma``)
    or ``sigmas`` (with fixed ``fraction``) as the swept parameter; optional
    ``mask_mode``/``min_per_column``.  Any other key is a ``ValueError``
    that names it (the solvers run at fixed settings, so the retired
    ``svp``/``als`` keys are among them), and so is a grid with nothing to
    average: no instance, no mask per instance, no method or no swept value.
    Instance ``i`` is :func:`sweep_instance` at seed ``seed + 7919 (i + 1)``:
    K weights and K random states, which have the law of K Haar unitaries
    applied to one psi, with no unitary built.  Every method completes the
    same masks and noise.

    The runs go instance by instance and mask by mask.  Mask ``r`` of
    instance ``i`` has seed ``s = seed + 104729 (i + 1) + 13 (r + 1)`` and
    is drawn once per distinct fraction, then observed once per swept value
    (noise seed ``s + 1``) and completed by every method (ALS seed
    ``s + 2``), so at most one instance's masks for one ``r`` are alive at a
    time.  :func:`make_mask` and :func:`observe` are pure functions of their
    arguments, so this order gives the rows a method-by-method loop would.
    In a sigmas sweep the swept values of one mask follow each other, so
    :func:`observe` draws its unit noise once per mask, and the later values
    only rescale it.  :func:`factorized_complete` factors once per pattern
    set and C (its ``_pattern_inverses`` memo), so the masks of one
    instance that share a pattern set factor once between them, and the
    later runs only apply the factors; every run still goes through both
    calls.  Every derived seed must lie in [0, 2**128), as
    :func:`lcuout.linalg.rng` requires, so a negative base seed, or one whose
    largest derived seed ``seed + 104729 instances + 13 masks_per_instance
    + 2`` reaches 2**128, is a ``ValueError`` that names it, before any draw.
    Returns one aggregate dict per (method, parameter value), methods outer;
    its ``seconds`` is the time spent in that row's completions and their
    error evaluation, not in the shared instance build, mask draws or
    observations, and its ``underdetermined_columns`` is the number of
    underdetermined columns summed over its runs (0 for SVP and ALS); a run
    whose mask determines no column adds all of them and the sweep goes on,
    so only a C without full column rank, or a draw with no observed entry,
    stops it.  A
    mask's first swept value pays for its noise draw (outside every row's
    ``seconds``), and the first run on a new pattern set or C for its
    factorization (in its factorized row's), so the ``seconds`` of a sigmas
    sweep's rows are not comparable with each other.
    A one-cell sweep is ``lcuout complete``'s single run.
    """
    if ("fractions" in config) == ("sigmas" in config):
        raise ValueError("config must sweep exactly one of 'fractions' or 'sigmas'")
    swept = ("fractions", "sigma") if "fractions" in config else ("sigmas", "fraction")
    reject_unread_keys(config, _SWEEP_KEYS + swept, "sweep")
    k = integer_value("k", config.get("k", 4))
    n = integer_value("n", config["n"])
    instances = integer_value("instances", config.get("instances", 10))
    masks_per = integer_value("masks_per_instance", config.get("masks_per_instance", 5))
    methods = list_value("methods", config.get("methods", ["svp", "factorized"]))
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}")
    seed = integer_value("seed", config.get("seed", 0))
    mode = config.get("mask_mode", "uniform")
    min_per_column = integer_value("min_per_column", config["min_per_column"]) if "min_per_column" in config else None
    if "fractions" in config:
        params = [real_value("a fraction", p) for p in list_value("fractions", config["fractions"])]
        fixed_sigma = real_value("sigma", config.get("sigma", 0.0))
        grid = [(p, p, fixed_sigma) for p in params]
    else:
        params = [real_value("a sigma", s) for s in list_value("sigmas", config["sigmas"])]
        fraction = real_value("fraction", config["fraction"])
        grid = [(s, fraction, s) for s in params]
    if instances < 1 or masks_per < 1 or not methods or not grid:
        raise ValueError(
            "a sweep needs at least one instance, mask per instance, method and swept value; got "
            f"instances={instances}, masks_per_instance={masks_per}, {len(methods)} methods, {len(grid)} values"
        )
    # the largest seed derived below is the last mask's ALS seed
    span = 104729 * instances + 13 * masks_per + 2
    if not 0 <= seed < SEED_BOUND - span:
        raise ValueError(f"sweep seed {seed} must lie in [0, 2**128 - {span}), so that every seed derived from it does")
    # every run's (err_phi, err_target, iterations, seconds, underdetermined columns), per [method][swept value]
    runs = [[[] for _ in grid] for _ in methods]
    for inst in range(instances):
        _, c, x = sweep_instance(k, n, seed + 7919 * (inst + 1))
        phi = c @ x
        for rep in range(masks_per):
            mask_seed = seed + 104729 * (inst + 1) + 13 * (rep + 1)
            masks = {}
            for g, (_, fraction, sigma) in enumerate(grid):
                if fraction not in masks:
                    masks[fraction] = make_mask(
                        phi.shape[0], phi.shape[1], mask_seed, mode,
                        density=fraction, min_per_column=min_per_column,
                    )
                entries = observe(phi, masks[fraction], sigma, seed=mask_seed + 1)
                for m, method in enumerate(methods):
                    t0 = time.perf_counter()
                    z, iters, under = complete(method, entries, c, mask_seed + 2)
                    ep, et = recovery_errors(z, phi)
                    runs[m][g].append((ep, et, iters, time.perf_counter() - t0, len(under)))
    rows = []
    for m, method in enumerate(methods):
        for g, (param, _, _) in enumerate(grid):
            errs_phi, errs_target, iter_counts, seconds, under = zip(*runs[m][g])
            rows.append(
                {
                    "method": method,
                    "param": param,
                    "mean_err_phi": float(np.mean(errs_phi)),
                    "std_err_phi": float(np.std(errs_phi)),
                    "mean_err_target": float(np.mean(errs_target)),
                    "std_err_target": float(np.std(errs_target)),
                    "mean_iters": float(np.mean(iter_counts)),
                    "seconds": sum(seconds),
                    "underdetermined_columns": sum(under),
                }
            )
    return rows
