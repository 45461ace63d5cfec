"""Recovering the full output matrix from partial, possibly noisy entries.

Phi is rank K with 2K rows, so a handful of observed entries per column
pins it down.  Three routes are implemented: singular-value projection
(iterative hard thresholding), ridge-regularized alternating least squares,
and — when the coefficient matrix C is known — an exact per-column
factorized solve.  ``sweep`` drives grids of seeded experiments and returns
one aggregate row per (method, swept value).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .circuit import CircuitSpec, coefficients, integer_value, real_value
from .linalg import haar_random_unitary, random_state, rng, truncate_rank

__all__ = [
    "FactorizedResult",
    "ObservedEntries",
    "als_complete",
    "complete",
    "factorized_complete",
    "make_mask",
    "observe",
    "random_instance",
    "recovery_errors",
    "svp_complete",
    "sweep",
    "sweep_instance",
]


# fixed solver settings: SVP's stall tolerance, ALS's ridge scale and stall tolerance
SVP_TOL = 1e-12
ALS_RIDGE = 1e-10
ALS_TOL = 1e-10


@dataclass(frozen=True)
class ObservedEntries:
    """Observed (possibly noisy) entries; unobserved positions hold zero."""

    values: np.ndarray
    mask: np.ndarray

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
    """Mask the matrix and add complex Gaussian noise of total std ``sigma``.

    ``mask`` is a boolean array of ``phi``'s shape, as drawn by
    :func:`make_mask`.  Each observed entry gains
    ``sigma/sqrt(2) * (g1 + i g2)`` with standard normal g1, g2, so
    E|noise|^2 = sigma^2.
    """
    phi = np.asarray(phi, dtype=complex)
    m = np.asarray(mask, dtype=bool)
    if m.shape != phi.shape:
        raise ValueError(f"mask shape {m.shape} does not match matrix {phi.shape}")
    if not 0 <= sigma < np.inf:
        raise ValueError(f"noise level must be finite and non-negative, got {sigma}")
    values = np.where(m, phi, 0.0)
    if sigma > 0:
        gen = rng(seed)
        noise = (gen.standard_normal(phi.shape) + 1j * gen.standard_normal(phi.shape)) * (
            sigma / np.sqrt(2)
        )
        values = values + np.where(m, noise, 0.0)
    return ObservedEntries(values=values, mask=m)


def _check_entries(entries: ObservedEntries) -> None:
    if entries.count == 0:
        raise ValueError("no observed entries")


def svp_complete(entries: ObservedEntries, rank: int, max_iters: int = 500) -> tuple[np.ndarray, int]:
    """Singular-value projection: gradient step on observed entries, rank-K truncation.

    Each trial step is truncated to rank K by :func:`lcuout.linalg.truncate_rank`:
    an ``eigh`` of the smaller-side Gram matrix (2K x 2K for N >= 2K) and a
    projection onto its top K eigenvectors, falling back to the thin SVD when
    the Gram spectrum has no clear gap at K.  The step size starts at the
    reciprocal observation density and is halved within an iteration until
    the observed residual decreases, which keeps the sweep monotone even at
    sparse masks where the raw step would diverge; the masked residual of the
    accepted step is the next gradient.  Iteration stops when the residual
    stalls (relative change at most ``SVP_TOL`` = 1e-12), when no step length
    helps, or after ``max_iters`` rounds.  Returns the completed matrix and
    the number of iterations used.
    """
    _check_entries(entries)
    mask, b = entries.mask, entries.values
    mu = 1.0 / mask.mean()
    z = np.zeros_like(b)
    g = np.where(mask, b, 0.0)
    b_norm = np.linalg.norm(b)
    prev = b_norm
    iters = 0
    for iters in range(1, max_iters + 1):
        mu_try = mu
        for _ in range(16):
            z_new = truncate_rank(z + mu_try * g, rank)
            g_new = np.where(mask, b - z_new, 0.0)
            cur = np.linalg.norm(g_new)
            if cur <= prev:
                break
            mu_try *= 0.5
        else:
            break
        z, g = z_new, g_new
        if cur <= 1e-15 * b_norm or prev - cur <= SVP_TOL * max(prev, 1e-300):
            break
        prev = cur
    return z, iters


def _ridged_grams(mask: np.ndarray, basis: np.ndarray, ridge: float | np.ndarray) -> np.ndarray:
    # G_i = sum_j mask[i, j] basis[j]^dag basis[j] + lam_i I with lam_i = ridge_i tr(G_i) / rank;
    # ``ridge`` is a scalar or one scale per row of ``mask``
    rank = basis.shape[1]
    gram = np.einsum("ij,ja,jb->iab", mask, basis.conj(), basis)
    lam = ridge * np.trace(gram, axis1=1, axis2=2).real / rank
    return gram + (lam[:, None, None] + 1e-300) * np.eye(rank)


def _solve_rows(gram: np.ndarray, mask: np.ndarray, values: np.ndarray, basis: np.ndarray) -> np.ndarray:
    # Solve gram[i] a_i = sum_j mask[i, j] basis[j]^dag values[i, j] for every row i
    rhs = np.einsum("ij,ja,ij->ia", mask, basis.conj(), values)
    return np.linalg.solve(gram, rhs[..., None])[..., 0]


def _batched_ridge_rows(
    mask: np.ndarray, values: np.ndarray, basis: np.ndarray, ridge: float | np.ndarray
) -> np.ndarray:
    # Solve, for every row i: min over a of |basis[cols_i] a - values[i, cols_i]|^2 + lam_i |a|^2
    return _solve_rows(_ridged_grams(mask, basis, ridge), mask, values, basis)


def als_complete(
    entries: ObservedEntries, rank: int, seed: int = 0, max_iters: int = 200
) -> tuple[np.ndarray, int]:
    """Alternating least squares on the observed entries with a small ridge.

    Factors start as seeded complex Gaussians scaled so the product matches
    the observed Frobenius mass.  Each half-step solves ridge-regularized
    least squares with ``lam = ALS_RIDGE tr(G)/K`` (``ALS_RIDGE`` = 1e-10);
    sweeps stop when the masked residual changes by at most ``ALS_TOL`` =
    1e-10 relative, or after ``max_iters``.  Returns the completed matrix and
    the number of sweeps used.
    """
    _check_entries(entries)
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


@dataclass(frozen=True)
class FactorizedResult:
    """Completion through the known coefficient matrix."""

    phi: np.ndarray
    x: np.ndarray
    underdetermined: tuple[int, ...]


def factorized_complete(entries: ObservedEntries, c: np.ndarray) -> FactorizedResult:
    """Solve each column of Phi = C X from its observed rows.

    Column j with observed rows O solves the normal equations
    ``(C_O^dag C_O + lam I) x_j = C_O^dag phi_obs_j``, all columns in one
    batched solve.  A column is underdetermined when ``C_O`` has rank below
    K: too few observed rows, or rows on which a column of C vanishes (the
    rotation-0 rows carry ``w_t`` and the rotation-1 rows ``r_t``, so a zero
    weight or ``|w_t| = 1`` hides ``U_t psi`` from one half of C).
    Determined columns are solved with ``lam = 0`` so the recovery stays
    unbiased; underdetermined ones get ``lam = 1e-10 tr(C_O^dag C_O)/K``, are
    still solved, and are reported (a column with no observations comes out
    0).  If every column is underdetermined the data cannot pin down X at
    all and the call fails.

    ``C_O`` depends on the column only through its observation pattern, and
    2K rows allow at most 2**(2K) patterns, so the rank check and the ridged
    Gram matrix are computed once per distinct pattern (columns are grouped
    by their mask bits, packed into bytes) and shared by every column that
    has it.  ``c`` needs one row per mask row and between 1 and that many
    columns; any other shape is a ``ValueError``.
    """
    _check_entries(entries)
    mask, b = entries.mask, entries.values
    c = np.asarray(c)
    if c.ndim != 2 or c.shape[0] != mask.shape[0] or not 1 <= c.shape[1] <= c.shape[0]:
        raise ValueError(
            f"coefficient matrix of shape {c.shape} does not fit a mask of shape {mask.shape}: "
            "it needs one row per mask row and between 1 and that many columns"
        )
    k = c.shape[1]
    packed = np.ascontiguousarray(np.packbits(mask, axis=0).T)
    _, first, inverse = np.unique(
        packed.view(np.dtype((np.void, packed.shape[1])))[:, 0], return_index=True, return_inverse=True
    )
    patterns = mask[:, first].T
    under_pattern = np.linalg.matrix_rank(patterns[:, :, None] * c) < k
    under = under_pattern[inverse]
    if under.all():
        raise ValueError("every column is underdetermined; too few observations")
    gram = _ridged_grams(patterns, c, np.where(under_pattern, 1e-10, 0.0))[inverse]
    x = _solve_rows(gram, mask.T, b.T, c).T
    return FactorizedResult(phi=c @ x, x=x, underdetermined=tuple(map(int, np.flatnonzero(under))))


def recovery_errors(phi_hat: np.ndarray, phi_true: np.ndarray) -> tuple[float, float]:
    """Relative Frobenius error of the matrix and 2-norm error of the target row.

    The target row is row 0 (index outcome 0, rotation 0), which carries the
    combined state ``T psi`` up to the known factor K c.
    """
    phi_hat = np.asarray(phi_hat)
    phi_true = np.asarray(phi_true)
    rel_phi = np.linalg.norm(phi_hat - phi_true) / np.linalg.norm(phi_true)
    rel_target = np.linalg.norm(phi_hat[0] - phi_true[0]) / np.linalg.norm(phi_true[0])
    return float(rel_phi), float(rel_target)


def random_instance(k: int, n: int, seed: int) -> tuple[CircuitSpec, np.ndarray]:
    """Seeded Hadamard-mixed spec (weights on [0.1, 1], Haar unitaries) and input state.

    Draws the K weights, then K Haar unitaries by QR, then psi, from one
    generator, and checks the spec.  This is for callers that need the
    unitaries themselves, such as ``lcuout complete``; a sweep needs only
    the rows ``U_t psi`` and draws them directly with :func:`sweep_instance`.
    """
    gen = rng(seed)
    weights = gen.uniform(0.1, 1.0, k)
    unitaries = tuple(haar_random_unitary(2**n, gen) for _ in range(k))
    spec = CircuitSpec(k=k, n=n, weights=weights, unitaries=unitaries)
    psi = random_state(2**n, gen)
    return spec, psi


def sweep_instance(k: int, n: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Seeded Hadamard-mixed, reflection-variant ``(weights, C, X)`` with no unitary built.

    The weights are :func:`random_instance`'s for the same seed, bit for
    bit; row t of X is then a :func:`random_state` of dimension 2**n from
    the same generator.  For a fixed psi and a Haar U_t, ``U_t psi`` is
    uniform on the unit sphere (the Haar measure is unitarily invariant), so
    X has the distribution of :func:`random_instance`'s rows ``U_t psi``,
    though not its draws, without K N x N QRs and a unitarity check.
    """
    if k < 1 or n < 1:
        raise ValueError(f"need k >= 1 and n >= 1, got k={k}, n={n}")
    gen = rng(seed)
    weights = gen.uniform(0.1, 1.0, k)
    c = coefficients(weights)
    return weights, c, np.stack([random_state(2**n, gen) for _ in range(k)])


_METHODS = ("svp", "als", "factorized")


def complete(method: str, entries: ObservedEntries, c: np.ndarray, seed: int):
    """Complete Phi at rank ``c.shape[1]`` with one of ``_METHODS``.

    ``seed`` starts ALS; both iterative solvers run at their default
    ``max_iters`` (500 for SVP, 200 for ALS).  Returns ``(phi, iterations,
    underdetermined)``, with 1 iteration for the direct factorized solve and
    ``()`` for the others.
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


def reject_solver_overrides(config: dict) -> None:
    """Raise ``ValueError`` if ``config`` carries the retired ``svp``/``als`` solver-setting keys."""
    for key in ("svp", "als"):
        if key in config:
            raise ValueError(f"config key {key!r} is not supported: the solver settings are fixed")


def sweep(config: dict) -> list[dict]:
    """Run a seeded grid of completion experiments and aggregate the errors.

    Config keys: ``k``, ``n``, ``instances``, ``masks_per_instance``,
    ``methods``, ``seed``, plus either ``fractions`` (with fixed ``sigma``)
    or ``sigmas`` (with fixed ``fraction``) as the swept parameter; optional
    ``mask_mode``/``min_per_column``.  The solvers run at their fixed
    settings, so a config that still carries the ``svp`` or ``als`` override
    keys is rejected, and so is a grid with nothing to average: no instance,
    no mask per instance, no method or no swept value.  Instance ``i`` is
    :func:`sweep_instance` at seed ``seed + 7919 (i + 1)``: K weights and K
    random states, which is :func:`random_instance` in distribution, with no
    unitary built.  Every method completes the same masks and noise.
    Returns one aggregate dict per (method, parameter value).
    """
    reject_solver_overrides(config)
    k = integer_value("k", config.get("k", 4))
    n = integer_value("n", config["n"])
    instances = integer_value("instances", config.get("instances", 10))
    masks_per = integer_value("masks_per_instance", config.get("masks_per_instance", 5))
    methods = list(config.get("methods", ["svp", "factorized"]))
    for m in methods:
        if m not in _METHODS:
            raise ValueError(f"unknown method {m!r}")
    seed = integer_value("seed", config.get("seed", 0))
    mode = config.get("mask_mode", "uniform")
    min_per_column = integer_value("min_per_column", config["min_per_column"]) if "min_per_column" in config else None
    if ("fractions" in config) == ("sigmas" in config):
        raise ValueError("config must sweep exactly one of 'fractions' or 'sigmas'")
    if "fractions" in config:
        params = [real_value("a fraction", p) for p in config["fractions"]]
        fixed_sigma = real_value("sigma", config.get("sigma", 0.0))
        grid = [(p, p, fixed_sigma) for p in params]
    else:
        params = [real_value("a sigma", s) for s in config["sigmas"]]
        fraction = real_value("fraction", config["fraction"])
        grid = [(s, fraction, s) for s in params]
    if instances < 1 or masks_per < 1 or not methods or not grid:
        raise ValueError(
            "a sweep needs at least one instance, mask per instance, method and swept value; got "
            f"instances={instances}, masks_per_instance={masks_per}, {len(methods)} methods, {len(grid)} values"
        )

    cases = []
    for inst in range(instances):
        _, c, x = sweep_instance(k, n, seed + 7919 * (inst + 1))
        cases.append((c @ x, c))

    rows = []
    for method in methods:
        for param, fraction, sigma in grid:
            errs_phi, errs_target, iter_counts = [], [], []
            t0 = time.perf_counter()
            for inst, (phi, c) in enumerate(cases):
                for rep in range(masks_per):
                    mask_seed = seed + 104729 * (inst + 1) + 13 * (rep + 1)
                    mask = make_mask(
                        phi.shape[0], phi.shape[1], mask_seed, mode,
                        density=fraction, min_per_column=min_per_column,
                    )
                    entries = observe(phi, mask, sigma, seed=mask_seed + 1)
                    z, iters, _ = complete(method, entries, c, mask_seed + 2)
                    ep, et = recovery_errors(z, phi)
                    errs_phi.append(ep)
                    errs_target.append(et)
                    iter_counts.append(iters)
            rows.append(
                {
                    "method": method,
                    "param": param,
                    "mean_err_phi": float(np.mean(errs_phi)),
                    "std_err_phi": float(np.std(errs_phi)),
                    "mean_err_target": float(np.mean(errs_target)),
                    "std_err_target": float(np.std(errs_target)),
                    "mean_iters": float(np.mean(iter_counts)),
                    "seconds": time.perf_counter() - t0,
                }
            )
    return rows
