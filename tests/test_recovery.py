import re

import numpy as np
import pytest

import lcuout.linalg
import lcuout.recovery
from lcuout.circuit import CircuitSpec
from lcuout.linalg import haar_random_unitary, numerical_rank, random_state, rng
from lcuout.outputs import coefficient_matrix, output_matrix
from lcuout.recovery import (
    als_complete,
    complete,
    factorized_complete,
    make_mask,
    observe,
    random_instance,
    recovery_errors,
    svp_complete,
    sweep,
    sweep_instance,
)


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


def test_factorized_all_underdetermined_raises():
    phi, c = instance(31, n=4)
    mask = make_mask(8, 16, 32, "column_guaranteed", min_per_column=2)
    with pytest.raises(ValueError):
        factorized_complete(observe(phi, mask, 0.0), c)


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


def test_sweep_draws_states_not_unitaries(monkeypatch):
    built = []
    haar, post_init = haar_random_unitary, CircuitSpec.__post_init__

    def counted_haar(*args):
        built.append("haar")
        return haar(*args)

    def counted_spec(spec):
        built.append("spec")
        post_init(spec)

    monkeypatch.setattr(lcuout.linalg, "haar_random_unitary", counted_haar)
    monkeypatch.setattr(lcuout.recovery, "haar_random_unitary", counted_haar)
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
