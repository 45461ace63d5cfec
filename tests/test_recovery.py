import re

import numpy as np
import pytest

import lcuout.circuit
import lcuout.cli
import lcuout.linalg
import lcuout.recovery
from lcuout.circuit import CircuitSpec
from lcuout.linalg import (
    GRAM_GAP_RTOL, haar_random_unitary, numerical_rank, random_state, rng, svd,
)
from lcuout.outputs import coefficient_matrix, output_matrix
from lcuout.recovery import (
    ObservedEntries,
    als_complete,
    complete,
    factorized_complete,
    make_mask,
    observe,
    recovery_errors,
    svp_complete,
    sweep,
    sweep_instance,
)

from helpers import random_instance


def instance(seed=77, k=4, n=8):
    spec, psi = random_instance(k, n, seed)
    return output_matrix(spec, psi), coefficient_matrix(spec)


# ---- masks and observations -----------------------------------------------

def test_make_mask_uniform():
    mask = make_mask(8, 512, 1, "uniform", density=0.6)
    assert mask.shape == (8, 512)
    assert 0.55 < mask.mean() < 0.65
    np.testing.assert_array_equal(mask, make_mask(8, 512, 1, "uniform", density=0.6))
    with pytest.raises(ValueError):
        make_mask(8, 512, 1, "uniform")


def test_make_mask_column_guaranteed():
    mask = make_mask(8, 200, 2, "column_guaranteed", density=0.4, min_per_column=4)
    assert mask.sum(axis=0).min() >= 4
    exact = make_mask(8, 200, 3, "column_guaranteed", min_per_column=5)
    np.testing.assert_array_equal(exact.sum(axis=0), np.full(200, 5))
    with pytest.raises(ValueError):
        make_mask(8, 200, 2, "column_guaranteed")
    with pytest.raises(ValueError):
        make_mask(8, 200, 2, "column_guaranteed", min_per_column=9)
    with pytest.raises(ValueError):
        make_mask(8, 200, 2, "nope", density=0.5)


@pytest.mark.parametrize("mode", ["uniform", "column_guaranteed"])
def test_make_mask_rejects_density_outside_unit_interval(mode):
    with pytest.raises(ValueError, match="density"):
        make_mask(8, 16, 1, mode, density=1.7, min_per_column=4)


def test_make_mask_rejects_min_per_column_it_would_not_honour():
    # uniform mode has no top-up to apply it to, and a bool or a float is not a count
    with pytest.raises(ValueError, match="min_per_column"):
        make_mask(8, 16, 1, "uniform", density=0.5, min_per_column=4)
    for value in (True, 4.0):
        with pytest.raises(ValueError, match="min_per_column"):
            make_mask(8, 16, 1, "column_guaranteed", min_per_column=value)


def test_observe_masks_and_noise():
    phi, _ = instance(5, n=6)
    mask = make_mask(8, 64, 6, "uniform", density=0.5)
    ent = observe(phi, mask, 0.0)
    assert ent.count == mask.sum()
    np.testing.assert_array_equal(ent.values[~ent.mask], 0.0)
    np.testing.assert_array_equal(ent.values[ent.mask], phi[ent.mask])
    noisy = observe(phi, mask, 1e-2, seed=7)
    diff = noisy.values[ent.mask] - phi[ent.mask]
    # total complex variance sigma^2 per observed entry
    assert abs(np.mean(np.abs(diff) ** 2) - 1e-4) < 3e-5
    with pytest.raises(ValueError):
        observe(phi, mask, -1.0)
    with pytest.raises(ValueError):
        observe(phi[:4], mask, 0.0)


def test_observe_rejects_nan_noise_level():
    phi, _ = instance(5, n=4)
    with pytest.raises(ValueError, match="noise"):
        observe(phi, np.ones_like(phi, dtype=bool), float("nan"))


def test_observe_noise_is_seeded():
    phi, _ = instance(8, n=4)
    mask = make_mask(8, 16, 9, "uniform", density=0.8)
    a = observe(phi, mask, 1e-3, seed=10)
    b = observe(phi, mask, 1e-3, seed=10)
    np.testing.assert_array_equal(a.values, b.values)


# ---- SVP ----------------------------------------------------------------------

def test_svp_fully_observed_converges_immediately():
    phi, _ = instance(11, n=5)
    ent = observe(phi, np.ones_like(phi, dtype=bool), 0.0)
    z, iters = svp_complete(ent, 4)
    assert iters <= 2
    assert recovery_errors(z, phi)[0] < 1e-10


def test_svp_balanced_mask_recovers():
    phi, _ = instance(12)
    mask = make_mask(8, 256, 13, "column_guaranteed", density=0.7, min_per_column=6)
    z, _ = svp_complete(observe(phi, mask, 0.0), 4)
    err_phi, err_target = recovery_errors(z, phi)
    assert err_phi < 1e-8
    assert err_target < 1e-8


def test_svp_stays_bounded_at_sparse_masks():
    # the raw 1/density step would diverge here; the monotone safeguard keeps
    # the iterate in range even though exact completion is hopeless
    phi, _ = instance(14)
    mask = make_mask(8, 256, 15, "uniform", density=0.2)
    z, _ = svp_complete(observe(phi, mask, 0.0), 4)
    err = recovery_errors(z, phi)[0]
    assert np.isfinite(err) and err <= 1.0


def test_svp_uniform_mask_floor_comes_from_deficient_columns():
    # with a plain uniform mask at 0.7 some columns get < K observations and
    # no method can reconstruct them; the error concentrates there
    phi, _ = instance(16)
    mask = make_mask(8, 256, 17, "uniform", density=0.7)
    deficient = mask.sum(axis=0) < 4
    assert deficient.any()
    z, _ = svp_complete(observe(phi, mask, 0.0), 4, max_iters=800)
    err_all = recovery_errors(z, phi)[0]
    err_good = np.linalg.norm((z - phi)[:, ~deficient]) / np.linalg.norm(phi[:, ~deficient])
    assert err_all > 1e-2
    assert err_good < err_all


def test_svp_noise_floor_tracks_sigma():
    phi, _ = instance(18)
    mask = make_mask(8, 256, 19, "column_guaranteed", density=0.7, min_per_column=6)
    errs = []
    for sigma in (1e-4, 1e-2):
        ent = observe(phi, mask, sigma, seed=20)
        z, _ = svp_complete(ent, 4)
        errs.append(recovery_errors(z, phi)[0])
    assert 30 < errs[1] / errs[0] < 300  # two decades of sigma


def test_svp_empty_observations_raise():
    with pytest.raises(ValueError):
        svp_complete(observe(np.zeros((4, 4)), np.zeros((4, 4), dtype=bool), 0.0), 2)


def test_sweep_takes_the_largest_base_seed_whose_derived_seeds_stay_below_2_to_the_128():
    config = {"k": 2, "n": 2, "instances": 1, "masks_per_instance": 1, "methods": ["factorized"], "fractions": [1.0]}
    top = 2**128 - 1 - (104729 + 13 + 2)  # the last mask's ALS seed is then 2**128 - 1
    assert len(sweep({**config, "seed": top})) == 1
    with pytest.raises(ValueError, match=re.escape(f"sweep seed {top + 1} must lie in [0, 2**128 - 104744)")):
        sweep({**config, "seed": top + 1})


def test_observe_refuses_a_mask_that_observes_nothing():
    with pytest.raises(ValueError, match="no observed entries"):
        observe(np.ones((4, 4)), np.zeros((4, 4), dtype=bool))


def _reference_truncate(a, rank):
    # truncate_rank's Gram route as it stood before the one-matmul projector: top (top^H a); like
    # truncate_rank, it returns its input itself when the rank leaves nothing to cut
    if rank >= min(a.shape):
        return a
    lam, vecs = np.linalg.eigh(a @ a.conj().T)
    if lam[-rank] - lam[-rank - 1] <= GRAM_GAP_RTOL * lam[-1]:
        u, s, vh = svd(a)
        return (u[:, :rank] * s[:rank]) @ vh[:rank]
    top = vecs[:, -rank:]
    return top @ (top.conj().T @ a)


def _reference_svp(entries, rank, max_iters=500):
    # svp_complete's loop as it stood before the in-place masked residual: np.where for the
    # residual and np.linalg.norm for its size.  Returns (z, iterations, trial steps).
    mask, b = entries.mask, entries.values
    mu = 1.0 / mask.mean()
    z = np.zeros_like(b)
    g = np.where(mask, b, 0.0)
    b_norm = np.linalg.norm(b)
    prev = b_norm
    iters = trials = 0
    for iters in range(1, max_iters + 1):
        mu_try = mu
        for _ in range(16):
            trials += 1
            z_new = _reference_truncate(z + mu_try * g, rank)
            g_new = np.where(mask, b - z_new, 0.0)
            cur = np.linalg.norm(g_new)
            if cur <= prev:
                break
            mu_try *= 0.5
        else:
            break
        z, g = z_new, g_new
        if cur <= 1e-15 * b_norm or prev - cur <= 1e-12 * max(prev, 1e-300):
            break
        prev = cur
    return z, iters, trials


@pytest.mark.parametrize("fraction", [0.2, 0.5, 0.9, 0.95])
@pytest.mark.parametrize(
    "n, rank", [pytest.param(6, 4, id="6"), pytest.param(8, 4, id="8"), pytest.param(6, 8, id="6-rank8")]
)
def test_svp_matches_the_reference_loop(n, rank, fraction, monkeypatch):
    _, c, x = sweep_instance(4, n, 41 + n)
    phi = c @ x
    entries = observe(phi, make_mask(8, 2**n, 42 + n, "uniform", density=fraction), 0.0)
    z_ref, iters_ref, trials_ref = _reference_svp(entries, rank)
    z, iters = svp_complete(entries, rank)
    if iters_ref == 500:
        assert iters == 500
    assert np.linalg.norm(z - z_ref) <= 1e-10 * np.linalg.norm(z_ref) + 1e-13
    if rank >= 8:
        # on 8 rows both truncations return the step itself, so the loops take the same floats throughout
        assert iters == iters_ref
        np.testing.assert_array_equal(z, z_ref)

    # Given the reference truncation, the loop retraces the reference's trial steps (the step and
    # the masked residual are the same floats; only the residual norm is summed differently) and
    # truncates once per trial through the module-level name.  The real truncation moves the
    # iterates at rounding level, which at sparse masks can flip a step halving, so the trial
    # count is compared on this run.
    calls = []

    def counted(a, rank):
        calls.append(rank)
        return _reference_truncate(a, rank)

    monkeypatch.setattr(lcuout.recovery, "truncate_rank", counted)
    z, iters = svp_complete(entries, rank)
    assert (iters, len(calls)) == (iters_ref, trials_ref)
    np.testing.assert_array_equal(z, z_ref)


@pytest.mark.parametrize("solver", [svp_complete, als_complete])
@pytest.mark.parametrize(
    "rank, max_iters", [(0, 10), (-1, 10), (4.0, 10), (True, 10), (None, 10), (4, 0), (4, -3), (4, 2.0)]
)
def test_iterative_solvers_reject_bad_rank_and_max_iters(solver, rank, max_iters):
    phi, _ = instance(21, n=4)
    entries = observe(phi, make_mask(8, 16, 22, "uniform", density=0.7), 0.0)
    with pytest.raises(ValueError, match="rank|max_iters"):
        solver(entries, rank, max_iters=max_iters)


# ---- ALS ----------------------------------------------------------------------

def test_als_balanced_mask_recovers():
    phi, _ = instance(21)
    mask = make_mask(8, 256, 22, "column_guaranteed", density=0.8, min_per_column=6)
    z, iters = als_complete(observe(phi, mask, 0.0), 4, seed=23)
    assert recovery_errors(z, phi)[0] < 1e-6
    assert iters <= 200


def test_als_is_seeded():
    phi, _ = instance(24, n=5)
    mask = make_mask(8, 32, 25, "uniform", density=0.9)
    ent = observe(phi, mask, 0.0)
    z1, _ = als_complete(ent, 4, seed=26)
    z2, _ = als_complete(ent, 4, seed=26)
    np.testing.assert_array_equal(z1, z2)


# ---- factorized -----------------------------------------------------------------

def test_factorized_exact_at_k_observations_per_column():
    phi, c = instance(27)
    mask = make_mask(8, 256, 28, "column_guaranteed", min_per_column=4)
    res = factorized_complete(observe(phi, mask, 0.0), c)
    assert res.underdetermined == ()
    err_phi, err_target = recovery_errors(res.phi, phi)
    assert err_phi < 1e-10
    assert err_target < 1e-10


def test_factorized_flags_underdetermined_columns():
    phi, c = instance(29, n=4)
    mask = make_mask(8, 16, 30, "column_guaranteed", min_per_column=4)
    mask[:, 3] = False
    mask[:2, 3] = True  # two observations < K
    res = factorized_complete(observe(phi, mask, 0.0), c)
    assert res.underdetermined == (3,)
    # the well-determined columns are still exact
    good = np.ones(16, dtype=bool)
    good[3] = False
    assert np.linalg.norm((res.phi - phi)[:, good]) < 1e-10


def test_factorized_solves_a_mask_that_determines_no_column():
    # two observations per column < K: every column is underdetermined, and each still gets lstsq's
    # minimum-norm answer on its observed rows of C
    phi, c = instance(31, n=4)
    mask = make_mask(8, 16, 32, "column_guaranteed", min_per_column=2)
    entries = observe(phi, mask, 0.0)
    res = factorized_complete(entries, c)
    assert res.underdetermined == tuple(range(16))
    for j in range(16):
        ref = np.linalg.lstsq(mask[:, j, None] * c, entries.values[:, j], rcond=None)[0]
        assert np.linalg.norm(res.x[:, j] - ref) <= 1e-10 * np.linalg.norm(ref), j
    np.testing.assert_array_equal(res.phi, c @ res.x)


@pytest.mark.parametrize("density", [1.0, 0.3])
def test_factorized_refuses_a_rank_deficient_c_on_a_full_or_sparse_mask(density):
    # the refusal reads C, not the draw: a C of rank 3 < K is refused whatever the mask observes
    _, c, x = sweep_instance(4, 4, 33)
    c[:, 3] = c[:, 0]
    mask = make_mask(8, 16, 34, "uniform", density=density)
    with pytest.raises(ValueError, match="coefficient matrix of rank 3 below its 4 columns"):
        factorized_complete(observe(c @ x, mask, 0.0), c)


def test_factorized_flags_rank_deficient_columns():
    # r_0 = 0 puts a zero in column 0 of every rotation-1 row of C, so a
    # column seen only through those K rows has enough rows but rank K - 1
    gen = rng(38)
    spec = CircuitSpec(k=4, n=3, weights=np.array([1.0, 0.5, 0.3, 0.8]),
                       unitaries=tuple(haar_random_unitary(8, gen) for _ in range(4)))
    phi, c = output_matrix(spec, random_state(8, gen)), coefficient_matrix(spec)
    mask = make_mask(8, 8, 39, "column_guaranteed", min_per_column=4)
    mask[:, 0] = [False] * 4 + [True] * 4
    res = factorized_complete(observe(phi, mask, 0.0), c)
    assert res.underdetermined == (0,)
    assert np.linalg.norm((res.phi - phi)[:, 1:]) < 1e-10


@pytest.mark.parametrize("shape", [(6, 4), (8,), (8, 0), (8, 9), (2, 8, 4)])
def test_factorized_rejects_a_coefficient_matrix_that_does_not_fit_the_mask(shape):
    phi, _ = instance(40, n=3)
    entries = observe(phi, make_mask(8, 8, 41, "uniform", density=0.9), 0.0)
    with pytest.raises(ValueError, match=re.escape(f"shape {shape} does not fit a mask of shape (8, 8)")):
        factorized_complete(entries, np.ones(shape, dtype=complex))


def test_factorized_is_the_minimum_norm_least_squares_solution():
    # every column, underdetermined or not, gets lstsq's answer on its observed rows of C
    under_total = 0
    for seed in range(20):
        _, c, x = sweep_instance(4, 8, 900 + seed)
        phi = c @ x
        mask = make_mask(8, 256, 950 + seed, "uniform", density=0.4)
        entries = observe(phi, mask, 0.0)
        res = factorized_complete(entries, c)
        under_total += len(res.underdetermined)
        for j in range(256):
            m = mask[:, j]
            ref = np.linalg.lstsq(m[:, None] * c, entries.values[:, j], rcond=None)[0]
            assert np.linalg.norm(res.x[:, j] - ref) <= 1e-10 * np.linalg.norm(ref), (seed, j)
    assert under_total > 0


@pytest.mark.parametrize("smallest, rank", [(1e-13, 4), (1e-17, 3)])
def test_factorized_rank_cutoff_is_matrix_ranks_default(smallest, rank):
    # C's smallest singular value lies just above or far below matrix_rank's cutoff s_max * 2K * eps = 1.8e-15
    gen = rng(980)
    u, _ = np.linalg.qr(gen.standard_normal((8, 4)) + 1j * gen.standard_normal((8, 4)))
    v, _ = np.linalg.qr(gen.standard_normal((4, 4)) + 1j * gen.standard_normal((4, 4)))
    c = (u * [1.0, 0.5, 0.25, smallest]) @ v.conj().T
    assert np.linalg.matrix_rank(c) == rank
    entries = ObservedEntries(values=c @ np.ones((4, 2)), mask=np.ones((8, 2), dtype=bool))
    if rank == 4:
        assert factorized_complete(entries, c).underdetermined == ()
    else:
        with pytest.raises(ValueError, match="coefficient matrix of rank 3 below its 4 columns"):
            factorized_complete(entries, c)


def test_factorized_ignores_values_at_unobserved_positions():
    _, c, x = sweep_instance(4, 6, 970)
    mask = make_mask(8, 64, 971, "uniform", density=0.5)
    entries = observe(c @ x, mask, 0.0)
    filled = ObservedEntries(values=np.where(mask, entries.values, 1e3 + 1e3j), mask=mask)
    np.testing.assert_array_equal(factorized_complete(filled, c).x, factorized_complete(entries, c).x)


@pytest.mark.parametrize("fill", [10.0, 1e3 + 1e3j, np.nan])
def test_svp_and_als_ignore_values_at_unobserved_positions(fill):
    # ObservedEntries zeroes what it does not observe, so the solvers see the same entries either way
    _, c, x = sweep_instance(4, 5, 980)
    mask = make_mask(8, 32, 981, "uniform", density=0.3)
    entries = observe(c @ x, mask, 1e-3, seed=982)
    filled = ObservedEntries(values=np.where(mask, entries.values, fill), mask=mask)
    np.testing.assert_array_equal(filled.values, entries.values)
    for run in (lambda e: svp_complete(e, 4, max_iters=60), lambda e: als_complete(e, 4, seed=983, max_iters=20)):
        (z_filled, iters_filled), (z, iters) = run(filled), run(entries)
        np.testing.assert_array_equal(z_filled, z)
        assert iters_filled == iters


def test_factorized_underdetermined_columns_are_stable_under_rounding():
    _, c, x = sweep_instance(4, 8, 960)
    mask = make_mask(8, 256, 961, "uniform", density=0.4)
    entries = observe(c @ x, mask, 0.0)
    res = factorized_complete(entries, c)
    nudged = factorized_complete(ObservedEntries(values=entries.values * (1 + 2**-52), mask=mask), c)
    assert res.underdetermined
    assert nudged.underdetermined == res.underdetermined
    for j in res.underdetermined:
        assert np.linalg.norm(nudged.x[:, j] - res.x[:, j]) <= 1e-12 * np.linalg.norm(res.x[:, j]), j


def test_factorized_noise_grows_linearly():
    phi, c = instance(35)
    mask = make_mask(8, 256, 36, "column_guaranteed", density=0.7, min_per_column=6)
    errs = []
    for sigma in (1e-4, 1e-3):
        ent = observe(phi, mask, sigma, seed=37)
        errs.append(recovery_errors(factorized_complete(ent, c).phi, phi)[0])
    assert 5 < errs[1] / errs[0] < 20


def test_complete_dispatches_to_each_solver():
    phi, c = instance(33, n=4)
    entries = observe(phi, make_mask(8, 16, 34, "column_guaranteed", density=0.6, min_per_column=4), 0.0)
    z, iters, under = complete("svp", entries, c, 9)
    z_ref, iters_ref = svp_complete(entries, 4)
    np.testing.assert_array_equal(z, z_ref)
    assert (iters, under) == (iters_ref, ())
    z, iters, under = complete("als", entries, c, 9)
    z_ref, iters_ref = als_complete(entries, 4, seed=9)
    np.testing.assert_array_equal(z, z_ref)
    assert (iters, under) == (iters_ref, ())
    z, iters, under = complete("factorized", entries, c, 9)
    ref = factorized_complete(entries, c)
    np.testing.assert_array_equal(z, ref.phi)
    assert (iters, under) == (1, ref.underdetermined)
    with pytest.raises(ValueError):
        complete("nuclear", entries, c, 9)


def test_recovery_errors_oracle():
    true = np.array([[3.0, 4.0], [0.0, 1.0]], dtype=complex)
    hat = np.array([[3.0, 4.0], [1.0, 1.0]], dtype=complex)
    err_phi, err_target = recovery_errors(hat, true)
    assert abs(err_phi - 1.0 / np.sqrt(26)) < 1e-12
    assert err_target == 0.0  # row 0 untouched


@pytest.mark.parametrize("hat, true", [
    (np.ones((2, 2)), np.zeros((2, 2))),
    (np.ones((2, 2)), np.array([[0.0, 0.0], [1.0, 2.0]])),
], ids=["zero-matrix", "zero-target-row"])
def test_recovery_errors_rejects_a_zero_reference(hat, true):
    with pytest.raises(ValueError, match="is zero"):
        recovery_errors(hat, true)


def test_recovery_errors_rejects_mismatched_shapes():
    with pytest.raises(ValueError, match=re.escape("shape (2, 3) does not match the true (2, 2)")):
        recovery_errors(np.ones((2, 3)), np.ones((2, 2)))


# ---- observed entries ------------------------------------------------------------

def test_observed_entries_reject_a_mask_of_another_shape():
    with pytest.raises(ValueError, match=re.escape("(8, 10)") + ".*" + re.escape("(8, 12)")):
        ObservedEntries(values=np.ones((8, 10), dtype=complex), mask=np.ones((8, 12), dtype=bool))


def test_observed_entries_reject_values_that_are_not_a_matrix():
    with pytest.raises(ValueError, match="2-D"):
        ObservedEntries(values=np.ones(8, dtype=complex), mask=np.ones(8, dtype=bool))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
def test_observed_entries_reject_non_finite_values(bad):
    values = np.ones((8, 4), dtype=complex)
    values[3, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        ObservedEntries(values=values, mask=np.ones((8, 4), dtype=bool))


def test_observed_entries_store_the_mask_as_booleans():
    entries = ObservedEntries(values=np.ones((2, 2)), mask=np.array([[1, 0], [0, 2]]))
    assert entries.mask.dtype == bool
    np.testing.assert_array_equal(entries.mask, [[True, False], [False, True]])
    assert entries.count == 2


# ---- sweep ----------------------------------------------------------------------

def test_sweep_fraction_grid_structure():
    rows = sweep({
        "k": 4, "n": 4, "instances": 2, "masks_per_instance": 2, "seed": 38,
        "methods": ["svp", "factorized"], "fractions": [0.6, 0.9], "sigma": 0.0,
    })
    assert len(rows) == 4
    assert {r["method"] for r in rows} == {"svp", "factorized"}
    assert all(set(r) >= {"method", "param", "mean_err_phi", "std_err_phi",
                          "mean_err_target", "std_err_target", "mean_iters", "seconds"}
               for r in rows)
    params = sorted(r["param"] for r in rows if r["method"] == "svp")
    assert params == [0.6, 0.9]


def test_sweep_is_deterministic_apart_from_timing():
    config = {
        "k": 2, "n": 3, "instances": 2, "masks_per_instance": 1, "seed": 39,
        "methods": ["factorized"], "sigmas": [1e-3], "fraction": 0.9,
        "mask_mode": "column_guaranteed", "min_per_column": 2,
    }
    a = sweep(config)
    b = sweep(config)
    for ra, rb in zip(a, b):
        assert ra["mean_err_phi"] == rb["mean_err_phi"]
        assert ra["std_err_target"] == rb["std_err_target"]


def test_sweep_rejects_bad_configs():
    base = {"k": 2, "n": 2, "instances": 1, "masks_per_instance": 1, "seed": 0}
    with pytest.raises(ValueError):
        sweep({**base, "methods": ["svp"]})  # neither fractions nor sigmas
    with pytest.raises(ValueError):
        sweep({**base, "methods": ["svp"], "fractions": [0.5], "sigmas": [0.1], "fraction": 0.5})
    with pytest.raises(ValueError):
        sweep({**base, "methods": ["magic"], "fractions": [0.5]})


@pytest.mark.parametrize("change", [
    {"instances": 0}, {"masks_per_instance": 0}, {"methods": []}, {"fractions": []},
    {"fractions": None, "sigmas": [], "fraction": 0.5},
], ids=["no-instances", "no-masks", "no-methods", "no-fractions", "no-sigmas"])
def test_sweep_rejects_a_grid_with_nothing_to_average(change):
    config = {"k": 2, "n": 2, "instances": 1, "masks_per_instance": 1, "seed": 0,
              "methods": ["factorized"], "fractions": [0.9], **change}
    config = {key: v for key, v in config.items() if v is not None}
    with pytest.raises(ValueError, match="at least one instance"):
        sweep(config)


@pytest.mark.parametrize("seed", [0, 616, 2**40 + 3])
def test_sweep_instance_matches_random_instance_in_weights_and_c(seed):
    weights, c, x = sweep_instance(4, 6, seed)
    spec, _ = random_instance(4, 6, seed)
    assert (spec.mixing, spec.variant) == ("hadamard", "reflection")
    np.testing.assert_array_equal(weights, spec.weights)
    np.testing.assert_array_equal(c, coefficient_matrix(spec))
    assert x.shape == (4, 64)
    np.testing.assert_allclose(np.linalg.norm(x, axis=1), 1.0, rtol=0, atol=1e-14)
    assert numerical_rank(c @ x) <= 4


@pytest.mark.parametrize("k, n, message", [(0, 4, "need at least one unitary, got k=0"),
                                            (4, 0, "need at least one system qubit, got n=0")],
                         ids=["no-weights", "no-qubits"])
def test_sweep_instance_rejects_an_empty_size(k, n, message):
    # sweep_instance checks its sizes through circuit.check_layout, with its messages
    with pytest.raises(ValueError, match=message):
        sweep_instance(k, n, 0)


def test_sweep_draws_states_not_unitaries(monkeypatch):
    built = []
    haar, post_init = lcuout.linalg.haar_reflectors, CircuitSpec.__post_init__

    def counted_haar(*args):
        built.append("haar")
        return haar(*args)

    def counted_spec(spec):
        built.append("spec")
        post_init(spec)

    monkeypatch.setattr(lcuout.linalg, "haar_reflectors", counted_haar)
    monkeypatch.setattr(lcuout.circuit, "haar_reflectors", counted_haar)
    monkeypatch.setattr(CircuitSpec, "__post_init__", counted_spec)
    # the factorized solve is reached through the module global, so it can be wrapped by name
    seen = []
    solve = lcuout.recovery.factorized_complete

    def recorded(entries, c):
        seen.append((entries.values.copy(), c))
        return solve(entries, c)

    monkeypatch.setattr(lcuout.recovery, "factorized_complete", recorded)
    config = {"k": 4, "n": 5, "instances": 2, "masks_per_instance": 2, "seed": 11,
              "methods": ["svp", "factorized"], "fractions": [1.0], "sigma": 0.0}
    sweep(config)
    assert built == []
    assert len(seen) == 4
    for i, (values, c) in enumerate(seen):
        _, c_inst, x = sweep_instance(4, 5, 11 + 7919 * (i // 2 + 1))
        np.testing.assert_array_equal(values, c_inst @ x)
        np.testing.assert_array_equal(c, c_inst)
    # the spies sit where a Haar spec draws: the instance with unitaries is counted
    random_instance(4, 2, 0)
    assert built == ["spec", "haar"]


def test_sweep_draws_each_mask_once(monkeypatch):
    # two sigmas and two methods share one mask per (instance, mask seed)
    drawn = []
    draw = lcuout.recovery.make_mask

    def counted(*args, **kwargs):
        drawn.append(args[2])
        return draw(*args, **kwargs)

    monkeypatch.setattr(lcuout.recovery, "make_mask", counted)
    config = {"k": 2, "n": 4, "instances": 3, "masks_per_instance": 2, "seed": 12,
              "methods": ["svp", "factorized"], "sigmas": [1e-3, 1e-2], "fraction": 0.7,
              "mask_mode": "column_guaranteed", "min_per_column": 2}
    rows = sweep(config)
    assert len(rows) == 4
    assert len(drawn) == 3 * 2
    assert len(set(drawn)) == 3 * 2


def test_sweep_runs_a_mask_that_determines_no_column(monkeypatch):
    # fig3's fraction grid at N = 32: some draw at f = 0.2 determines no column, which is a data outcome, not a
    # reason to stop the sweep; its SVP rows are those of an SVP-only sweep
    config = {"k": 4, "n": 5, "fractions": lcuout.cli.DEFAULT_FIG3["fractions"], "sigma": 0.0, "instances": 2,
              "masks_per_instance": 2, "methods": ["svp", "factorized"], "seed": 0}
    counts = []
    solve = lcuout.recovery.factorized_complete

    def counted(entries, c):
        result = solve(entries, c)
        counts.append(len(result.underdetermined))
        return result

    monkeypatch.setattr(lcuout.recovery, "factorized_complete", counted)
    rows = sweep(config)
    grid = len(config["fractions"])
    assert len(rows) == 2 * grid
    assert max(counts) == 32
    # the runs go instance by instance, mask by mask, then fraction by fraction
    per_run = np.array(counts).reshape(2 * 2, grid)
    assert [r["underdetermined_columns"] for r in rows[grid:]] == per_run.sum(axis=0).tolist()
    svp_only = sweep({**config, "methods": ["svp"]})
    assert [{k: v for k, v in r.items() if k != "seconds"} for r in rows[:grid]] == \
        [{k: v for k, v in r.items() if k != "seconds"} for r in svp_only]


def test_svp_sweep_at_n_equal_to_k_keeps_its_rows():
    # At N = K the 8 x 4 step has rank at most K, so truncate_rank returns the step itself and the loop must
    # not keep that buffer as its iterate.  The literals are this sweep's rows when SVP allocated a new step
    # every trial; the stops come from the 1e-15 residual floor, so the counts are exact.
    rows = sweep({"k": 4, "n": 2, "fractions": [0.5, 0.95], "sigma": 0.0, "instances": 1, "masks_per_instance": 1,
                  "methods": ["svp"], "seed": 0})
    golden = [(0.5, 0.7488064337257105, 0.8244269661766035, 18.0),
              (0.95, 0.26362224324899486, 1.4652988068583654e-16, 16.0)]
    for row, (param, err_phi, err_target, iters) in zip(rows, golden, strict=True):
        assert (row["method"], row["param"], row["mean_iters"]) == ("svp", param, iters)
        assert row["mean_err_phi"] == pytest.approx(err_phi, rel=1e-12, abs=1e-15)
        assert row["mean_err_target"] == pytest.approx(err_target, rel=1e-12, abs=1e-15)


# ---- reuse across consecutive calls -------------------------------------------

SIGMAS_SWEEP = {"k": 4, "n": 5, "instances": 1, "masks_per_instance": 2, "seed": 14,
                "methods": ["als", "factorized"], "sigmas": [1e-4, 1e-3, 1e-2], "fraction": 0.6,
                "mask_mode": "column_guaranteed", "min_per_column": 4}


def clear_memos():
    lcuout.recovery._mask_patterns.cache_clear()
    lcuout.recovery._pattern_inverses.cache_clear()
    lcuout.recovery._unit_noise.cache_clear()


def test_sigmas_sweep_factors_and_draws_noise_once_per_mask(monkeypatch):
    clear_memos()
    calls = {"_observation_patterns": [], "factorized_complete": [], "rng": []}
    for name, log in calls.items():
        def counted(*args, _fn=getattr(lcuout.recovery, name), _log=log):
            _log.append(args[0])
            return _fn(*args)
        monkeypatch.setattr(lcuout.recovery, name, counted)
    sweep({**SIGMAS_SWEEP, "methods": ["factorized"]})
    assert len(calls["_observation_patterns"]) == 2
    assert len(calls["factorized_complete"]) == 2 * 3
    # the instance, then per mask its draw at seed s and one noise draw at s + 1: none for the other sigmas
    mask_seeds = [14 + 104729 + 13 * (rep + 1) for rep in range(2)]
    assert calls["rng"] == [14 + 7919] + [s + d for s in mask_seeds for d in (0, 1)]


def cold_sweep(config, monkeypatch):
    # the sweep with every memo cleared before each completion and each observation, so nothing is reused
    def fresh(fn):
        def wrapped(*args, **kwargs):
            clear_memos()
            return fn(*args, **kwargs)
        return wrapped

    for name in ("factorized_complete", "observe"):
        monkeypatch.setattr(lcuout.recovery, name, fresh(getattr(lcuout.recovery, name)))
    return sweep(config)


def without_seconds(rows):
    return [{k: v for k, v in r.items() if k != "seconds"} for r in rows]


def test_sigmas_sweep_rows_match_a_sweep_that_reuses_nothing(monkeypatch):
    clear_memos()
    reused = sweep(SIGMAS_SWEEP)
    assert without_seconds(reused) == without_seconds(cold_sweep(SIGMAS_SWEEP, monkeypatch))


# 6 of 2K = 8 rows guaranteed per column: at N = 256 every mask of seed 21 holds all 37 patterns of 6 or more rows
SHARED_PATTERNS_SWEEP = {"k": 4, "n": 8, "instances": 1, "masks_per_instance": 3, "seed": 21,
                         "methods": ["factorized"], "sigmas": [1e-3, 1e-2], "fraction": 0.7,
                         "mask_mode": "column_guaranteed", "min_per_column": 6}


def test_masks_that_share_a_pattern_set_factor_it_once(monkeypatch):
    config = SHARED_PATTERNS_SWEEP
    masks = [make_mask(8, 256, config["seed"] + 104729 + 13 * (rep + 1), "column_guaranteed", density=0.7,
                       min_per_column=6) for rep in range(3)]
    sets = [lcuout.recovery._observation_patterns(m)[0] for m in masks]
    assert not np.array_equal(masks[0], masks[1])
    assert all(p.shape == (37, 8) and np.array_equal(p, sets[0]) for p in sets)
    clear_memos()
    reused = sweep(config)
    assert lcuout.recovery._mask_patterns.cache_info().misses == 3
    assert lcuout.recovery._pattern_inverses.cache_info().misses == 1
    assert without_seconds(reused) == without_seconds(cold_sweep(config, monkeypatch))


@pytest.mark.parametrize("change, refactors", [("same-patterns", False), ("other-patterns", True), ("other-c", True)])
def test_factorization_is_kept_across_masks_only_for_one_pattern_set_and_one_c(change, refactors):
    _, c, x = sweep_instance(4, 5, 998)
    phi = c @ x
    mask = np.ones(phi.shape, dtype=bool)
    mask[:2, ::2] = False  # two patterns: the even columns see rows 2-7, the odd ones every row
    other, other_c = mask, c
    if change == "same-patterns":
        other = np.roll(mask, 1, axis=1)  # each column takes its neighbour's pattern: another mask, one pattern set
    elif change == "other-patterns":
        other = mask.copy()
        other[7, 3] = False  # a third pattern
    else:
        other_c = c.copy()
        other_c[0, 0] *= 2
    clear_memos()
    factorized_complete(observe(phi, mask, 1e-3, seed=999), c)
    entries = observe(phi, other, 1e-3, seed=999)
    warm = factorized_complete(entries, other_c)
    assert lcuout.recovery._mask_patterns.cache_info().misses == 1 + (other is not mask)
    assert lcuout.recovery._pattern_inverses.cache_info().misses == 1 + refactors
    assert_same_solution(warm, solved_fresh(entries, other_c))


def solved_fresh(entries, c):
    clear_memos()
    return factorized_complete(entries, c)


def assert_same_solution(warm, cold):
    np.testing.assert_array_equal(warm.x, cold.x)
    assert warm.underdetermined == cold.underdetermined


def test_factorized_reuse_follows_a_mask_changed_in_place():
    _, c, x = sweep_instance(4, 5, 990)
    phi = c @ x
    mask = np.ones(phi.shape, dtype=bool)
    factorized_complete(observe(phi, mask), c)
    mask[:4, 5] = False  # column 5 now seen only on its rotation-1 rows, still rank K
    warm = factorized_complete(observe(phi, mask), c)
    assert_same_solution(warm, solved_fresh(observe(phi, mask), c))
    np.testing.assert_allclose(warm.phi[:, 5], phi[:, 5], rtol=0, atol=1e-12)


def test_entries_keep_the_mask_they_were_observed_with():
    # an edit of the caller's mask after observe changes neither the entries' mask nor their completion
    _, c, x = sweep_instance(4, 4, 1)
    mask = make_mask(8, 16, 3, "uniform", density=0.6)
    entries = observe(c @ x, mask)
    before = solved_fresh(entries, c)
    mask[:] = True
    assert_same_solution(factorized_complete(entries, c), before)
    assert not entries.mask.all()
    # nor can the entries themselves be edited: a value written off the mask would reach SVP and ALS
    for array in (entries.mask, entries.values):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 1


@pytest.mark.parametrize("change", ["entry", "complex", "dtype-same-bytes"])
def test_factorized_reuse_follows_another_coefficient_matrix(change):
    _, c, x = sweep_instance(4, 5, 992)
    entries = observe(c @ x, make_mask(8, 32, 993, "uniform", density=0.6), 1e-3, seed=994)
    if change == "entry":
        other = c.copy()
        other[3, 2] *= 1.5
    elif change == "complex":
        other = c.astype(complex)
    else:
        other = c.view(np.int64)  # the same bytes and shape read as another dtype
    factorized_complete(entries, c)
    warm = factorized_complete(entries, other)
    assert_same_solution(warm, solved_fresh(entries, other))
    # and, independently of any reuse, lstsq's answer on each column's observed rows of the other C
    for j in range(32):
        m = entries.mask[:, j]
        ref = np.linalg.lstsq(m[:, None] * other, entries.values[:, j], rcond=None)[0]
        assert np.linalg.norm(warm.x[:, j] - ref) <= 1e-8 * np.linalg.norm(ref), j


def test_reused_arrays_are_read_only():
    _, c, x = sweep_instance(4, 5, 995)
    phi = c @ x
    mask = make_mask(8, 32, 996, "uniform", density=0.6)
    clear_memos()
    factorized_complete(observe(phi, mask, 1e-3, seed=997), c)
    patterns, inverse = lcuout.recovery._mask_patterns(mask.tobytes(), mask.shape)
    shared = (patterns, inverse)
    shared += lcuout.recovery._pattern_inverses(patterns.tobytes(), patterns.shape, c.tobytes(), c.dtype, c.shape)
    shared += (lcuout.recovery._unit_noise(phi.shape, 997),)
    assert lcuout.recovery._mask_patterns.cache_info().hits == 1
    assert lcuout.recovery._pattern_inverses.cache_info().hits == 1
    assert lcuout.recovery._unit_noise.cache_info().hits == 1
    for array in shared:
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


@pytest.mark.parametrize("seed", [None, True, 1.0, "1"], ids=["none", "bool", "float", "str"])
def test_observe_refuses_a_seed_that_is_not_an_integer(seed):
    phi, _ = instance(8, n=4)
    mask = make_mask(8, 16, 9, "uniform", density=0.8)
    observe(phi, mask, 1e-3, seed=1)  # an equal int seed in the noise memo must not stand in for it
    with pytest.raises(ValueError, match="seed must be an integer"):
        observe(phi, mask, 1e-3, seed=seed)


@pytest.mark.parametrize("seed", [None, 1.5, True], ids=["none", "float", "bool"])
def test_observe_refuses_a_seed_that_is_not_an_integer_without_noise(seed):
    phi, _ = instance(8, n=4)
    mask = make_mask(8, 16, 9, "uniform", density=0.8)
    with pytest.raises(ValueError, match="seed must be an integer"):
        observe(phi, mask, 0.0, seed=seed)
