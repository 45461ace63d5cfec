import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lcuout.circuit
import lcuout.structure
from lcuout.circuit import (
    CheckFailed,
    CircuitSpec,
    apply_circuit,
    circuit_unitary,
    coefficient_matrix,
    mixing_layers,
)
from lcuout.linalg import Dense, haar_random_unitary, numerical_rank, random_state, rng
from lcuout.structure import (
    csd_assemble,
    involution_check,
    shuffle,
    similarity_check,
    singular_multiset_check,
    verify,
)

from helpers import make_spec, permutation_matrix


def regrouped(spec):
    """circuit_unitary(spec) with each (index i, rotation r) block moved to r * K + i."""
    k, big_n = spec.k, spec.big_n
    perm = [(i * 2 + r) * big_n + m for r in range(2) for i in range(k) for m in range(big_n)]
    return circuit_unitary(spec)[np.ix_(perm, perm)]


def assembled(sh):
    """The KN x KN blocks A and B of a shuffle: block (i, j) of A (B) is sum_t coef[0, i, s, j, t] U_t, s = 0 (1)."""
    spec = sh.spec
    k, big_n = spec.k, spec.big_n
    us = spec.unitaries.dense.reshape(k, -1)
    return tuple((sh.coef[0, :, s].reshape(-1, k) @ us).reshape(k, k, big_n, big_n)
                 .transpose(0, 2, 1, 3).reshape(k * big_n, k * big_n) for s in (0, 1))


def test_shuffle_recovers_two_block_form():
    spec = make_spec(k=4, n=2, seed=1)
    sh = shuffle(spec)
    assert sh.block_residual < 1e-12
    half = spec.k * spec.big_n
    u = regrouped(spec)
    a, b = assembled(sh)
    # entry by entry against the dense circuit: U = [[A, B], [B, -A]]
    np.testing.assert_allclose(a, u[:half, :half], rtol=0, atol=1e-12)
    np.testing.assert_allclose(b, u[:half, half:], rtol=0, atol=1e-12)
    np.testing.assert_allclose(u[half:, :half], b, rtol=0, atol=1e-12)
    np.testing.assert_allclose(u[half:, half:], -a, rtol=0, atol=1e-12)


def test_shuffle_cyclic_flips_the_lower_left_sign():
    spec = make_spec(k=4, n=1, seed=2, variant="cyclic")
    sh = shuffle(spec)
    half = spec.k * spec.big_n
    u = regrouped(spec)
    a, b = assembled(sh)
    np.testing.assert_allclose(a, u[:half, :half], rtol=0, atol=1e-12)
    np.testing.assert_allclose(b, u[:half, half:], rtol=0, atol=1e-12)
    np.testing.assert_allclose(u[half:, :half], -b, rtol=0, atol=1e-12)
    np.testing.assert_allclose(u[half:, half:], a, rtol=0, atol=1e-12)
    assert sh.block_residual < 1e-12


def test_shuffle_k1_is_identity_permutation():
    spec = make_spec(k=1, n=2, seed=3)
    sh = shuffle(spec)
    v = circuit_unitary(spec)
    np.testing.assert_array_equal(regrouped(spec), v)
    big_n = spec.big_n
    a, b = assembled(sh)
    np.testing.assert_array_equal(a, v[:big_n, :big_n])
    np.testing.assert_array_equal(b, v[:big_n, big_n:])
    np.testing.assert_array_equal(v[big_n:, :big_n], b)
    np.testing.assert_array_equal(v[big_n:, big_n:], -a)


def test_shuffle_raises_check_failed_when_block_symmetry_breaks(monkeypatch):
    # a rotation gate that is not symmetric breaks B = lower-left block
    def lopsided(w, variant="reflection"):
        r = np.sqrt(1.0 - w * w)
        return np.array([[w, r], [0.5 * r, -w]])

    monkeypatch.setattr(lcuout.circuit, "rotation_gate", lopsided)
    with pytest.raises(CheckFailed, match="two-block symmetry check failed: residual"):
        shuffle(make_spec(k=2, n=1, seed=4))


@pytest.mark.parametrize("k,mixing", [(2, "hadamard"), (4, "hadamard"), (8, "hadamard"),
                                      (3, "dft"), (4, "dft")])
def test_similarity_block_diagonalization(k, mixing):
    spec = make_spec(k=k, n=2, seed=10 + k, mixing=mixing)
    assert similarity_check(shuffle(spec)) < 1e-12


def test_similarity_rejects_secret_mixing():
    mix = haar_random_unitary(2, 6)
    gen = rng(7)
    spec = CircuitSpec(k=2, n=1, weights=np.array([0.9, 0.5]),
                       unitaries=tuple(haar_random_unitary(2, gen) for _ in range(2)),
                       mixing="secret", mixing_matrix=mix)
    with pytest.raises(ValueError):
        similarity_check(shuffle(spec))


def test_singular_value_multisets():
    # each |w_t| and r_t appears N times among the singular values
    spec = make_spec(k=4, n=2, seed=11, weights=[1.0, 1.0, 0.5, 0.5])
    dev_a, dev_b = singular_multiset_check(shuffle(spec))
    assert dev_a < 1e-10
    assert dev_b < 1e-10


def test_singular_multisets_dft():
    spec = make_spec(k=4, n=1, seed=12, mixing="dft")
    dev_a, dev_b = singular_multiset_check(shuffle(spec))
    assert max(dev_a, dev_b) < 1e-10


def test_csd_assemble_reconstructs_blocks():
    for mixing in ("hadamard", "dft"):
        spec = make_spec(k=4, n=2, seed=13, mixing=mixing)
        sh = shuffle(spec)
        a, b = assembled(sh)
        csd = csd_assemble(spec)
        # the dense KN x KN factors as the oracle: q2 = g (x) I_N and q1 = q2 diag(U_t)
        big_n, dim = spec.big_n, spec.k * spec.big_n
        q2 = np.kron(csd.g, np.eye(big_n))
        diag_u = np.zeros((dim, dim), dtype=complex)
        for t, u in enumerate(spec.unitaries.dense):
            diag_u[t * big_n:(t + 1) * big_n, t * big_n:(t + 1) * big_n] = u
        q1 = q2 @ diag_u
        np.testing.assert_allclose(q1.conj().T @ q1, np.eye(dim), atol=1e-10)
        np.testing.assert_allclose(q2.conj().T @ q2, np.eye(dim), atol=1e-10)
        np.testing.assert_allclose(q1 @ np.diag(csd.sigma_w) @ q2.conj().T, a, atol=1e-10)
        np.testing.assert_allclose(q1 @ np.diag(csd.sigma_r) @ q2.conj().T, b, atol=1e-10)
        np.testing.assert_allclose(csd.sigma_w**2 + csd.sigma_r**2, np.ones(dim), atol=1e-12)


def test_csd_assemble_rejects_cyclic_and_negative_weights():
    with pytest.raises(ValueError):
        csd_assemble(make_spec(k=2, n=1, seed=15, variant="cyclic"))
    with pytest.raises(ValueError):
        csd_assemble(make_spec(k=2, n=1, seed=16, weights=[0.8, -0.4]))


def test_involution_square_for_involutory_unitaries():
    # permutation involutions square to the identity, so U^2 = I exactly
    perms = (permutation_matrix([1, 0, 2, 3]), permutation_matrix([0, 1, 3, 2]),
             permutation_matrix([3, 1, 2, 0]), permutation_matrix([0, 2, 1, 3]))
    spec = CircuitSpec(k=4, n=2, weights=np.array([1.0, 0.7, 0.4, 0.9]), unitaries=perms)
    structure_res, cancel_res = involution_check(shuffle(spec), np.array([0.2, 0.9, 0.4, 0.7]))
    assert structure_res < 1e-10
    assert cancel_res < 1e-10
    u2 = regrouped(spec) @ regrouped(spec)
    np.testing.assert_allclose(u2, np.eye(u2.shape[0]), atol=1e-10)


def test_involution_square_weight_independence_haar():
    # generic U_t: U^2 != I but still independent of the weights
    base = make_spec(k=4, n=2, seed=17, weights=[1.0, 1.0, 0.5, 0.5])
    structure_res, cancel_res = involution_check(shuffle(base), np.array([0.2, 0.9, 0.4, 0.7]))
    assert structure_res < 1e-10
    assert cancel_res < 1e-10


def test_involution_check_requires_reflection_and_same_unitaries():
    spec = make_spec(k=2, n=1, seed=18, variant="cyclic")
    with pytest.raises(ValueError):
        involution_check(shuffle(spec), np.array([0.3, 0.6]))


@pytest.mark.parametrize("weights", [[0.3], [0.3, 0.6, 0.9], [0.3, 1.5], [-1.2, 0.6], [np.nan, 0.6]])
def test_involution_check_rejects_a_second_weight_vector_of_the_wrong_length_or_outside_the_unit_range(weights):
    sh = shuffle(make_spec(k=2, n=1, seed=19))
    with pytest.raises(ValueError, match="weights"):
        involution_check(sh, np.array(weights))


def old_involution_residuals(sh, weights):
    """The two residuals of :func:`involution_check` as it took them from a second spec and its shuffle."""
    spec, k = sh.spec, sh.spec.k
    g = mixing_layers(spec)[1]

    def square(coef):
        c = coef.reshape(2 * k, 2 * k, k)
        return np.einsum("abt,bcu->actu", c, c)

    def residual(d):
        return float(np.sqrt(np.sum(np.einsum("actu,tu->ac", np.abs(d), sh.product_bound) ** 2)))

    target = np.einsum("rs,it,jt,tu->risjtu", np.eye(2), g, g.conj(), np.eye(k)).reshape(2 * k, 2 * k, k, k)
    u_sq = square(sh.coef)
    return residual(u_sq - target), residual(u_sq - square(shuffle(spec.with_weights(weights)).coef))


def no_second_spec(*args, **kwargs):
    raise RuntimeError("built a second spec")


@pytest.mark.parametrize("spec, weights", [
    (make_spec(k=4, n=2, seed=20), [0.2, 0.9, 0.4, 0.7]),
    (make_spec(k=4, n=2, seed=21, mixing="dft", weights=[0.9, -0.4, 1.0, -1.0]), [1.0 + 1e-13, -0.3, 0.0, 0.5]),
    (make_spec(k=2, n=3, seed=22), [-1.0 - 1e-13, 0.6]),
], ids=["hadamard", "dft-signed", "clipped"])
def test_involution_check_keeps_the_bits_of_the_second_circuit_without_building_it(monkeypatch, spec, weights):
    # the second weight vector's coefficients come from block_coefficients, not from a second spec and shuffle
    sh = shuffle(spec)
    expected = old_involution_residuals(sh, np.array(weights))
    monkeypatch.setattr(CircuitSpec, "with_weights", no_second_spec)
    assert np.array(involution_check(sh, np.array(weights))).tobytes() == np.array(expected).tobytes()


@pytest.mark.parametrize("source", [{"kind": "haar", "seed": 23}, {"kind": "pauli_strings", "data": ["XY", "ZZ", "IY", "XI"]}],
                         ids=["haar", "pauli"])
def test_verify_reads_the_unitaries_through_two_grams_and_builds_no_second_circuit(monkeypatch, source):
    # one trace Gram and one defect Gram, each asked of the spec's stack once; an entry-peak pass and a second
    # shuffle read the unitaries 4 times
    spec = CircuitSpec.from_json(json.dumps({"K": 4, "n": 2, "weights": [1.0, 0.8, 0.5, 0.3], "unitaries": source}))
    calls = []

    def counted(name):
        gram = getattr(type(spec.unitaries), name)

        def call(self):
            calls.append((name, self))
            return gram(self)
        return call

    for name in ("trace_gram", "defect_gram"):
        monkeypatch.setattr(type(spec.unitaries), name, counted(name))
    monkeypatch.setattr(CircuitSpec, "with_weights", no_second_spec)
    checks = verify(spec, seed=3)
    assert sorted(name for name, _ in calls) == ["defect_gram", "trace_gram"]
    assert all(stack is spec.unitaries for _, stack in calls)
    assert _skipped(checks) == set() and all(c["pass"] for c in checks)
    if source["kind"] == "pauli_strings":
        assert "dense" not in vars(spec.unitaries)  # both Grams in closed form, no N x N matrix


def test_structure_suite_twenty_seeded_specs():
    # broad sweep across sizes and mixings; every residual at once
    cases = 0
    for seed in range(10):
        for k, n, mixing in [(2, 2, "hadamard"), (4, 1, "dft")]:
            spec = make_spec(k=k, n=n, seed=100 + seed, mixing=mixing)
            sh = shuffle(spec)
            assert sh.block_residual < 1e-12
            assert similarity_check(sh) < 1e-10
            assert max(singular_multiset_check(sh)) < 1e-10
            cases += 1
    assert cases == 20


def _skipped(checks):
    return {c["name"] for c in checks if c["skipped"]}


def test_verify_runs_every_check_on_a_public_reflection_spec():
    checks = verify(make_spec(k=4, n=2, seed=40), seed=3)
    assert [c["name"] for c in checks] == [
        "unitarity", "block-structure", "similarity", "singular-multiset", "csd", "csd-sigma",
        "involution", "factorization", "column-orthogonality", "rank",
    ]
    assert _skipped(checks) == set()
    assert all(c["pass"] and c["residual"] < c["threshold"] for c in checks)


@pytest.mark.parametrize("variant, weights, skipped", [
    ("cyclic", None, {"csd", "csd-sigma", "involution"}),
    ("reflection", [0.9, -0.4, 1.0, -1.0], {"csd", "csd-sigma"}),
])
def test_verify_skips_checks_that_do_not_apply(variant, weights, skipped):
    checks = verify(make_spec(k=4, n=2, seed=41, variant=variant, weights=weights), seed=5)
    assert _skipped(checks) == skipped
    assert all(c["pass"] for c in checks)


def test_verify_passes_a_spec_whose_weights_are_all_zero():
    # A = 0 exactly: the similarity residual is relative to |A|_F, which must not divide 0 by 0
    checks = verify(make_spec(k=2, n=1, seed=43, weights=[0.0, 0.0]), seed=1)
    assert all(c["pass"] for c in checks)


def test_verify_secret_mixing_keeps_only_the_mixing_free_checks():
    gen = rng(42)
    spec = CircuitSpec(k=2, n=1, weights=np.array([0.9, 0.5]),
                       unitaries=tuple(haar_random_unitary(2, gen) for _ in range(2)),
                       mixing="secret", mixing_matrix=haar_random_unitary(2, 43))
    checks = verify(spec, seed=1)
    assert _skipped(checks) == {"similarity", "singular-multiset", "csd", "csd-sigma", "involution"}
    assert all(c["pass"] for c in checks)


# ---- the blockwise battery against the dense (2KN)^2 oracle -------------------

def svd_deviations(spec, a, b):
    """max_i |sigma_i - expected_i| of A against the sorted |w_t| and of B against the r_t, each N times."""
    w = spec.weights
    return tuple(np.abs(np.linalg.svd(m, compute_uv=False) - np.sort(np.repeat(np.abs(s), spec.big_n))[::-1]).max()
                 for m, s in ((a, w), (b, np.sqrt(1.0 - w * w))))


def regrouped_blocks(spec):
    """The upper blocks A and B of the regrouped dense circuit unitary."""
    half = spec.k * spec.big_n
    u = regrouped(spec)
    return u[:half, :half], u[:half, half:]


# The dense SVD deviation may exceed the certified bound by the SVD's own rounding and by that of the dense
# circuit's layer products.  Over 12,000 random specs at n <= 3 (K in 1, 2, 4, 8, Hadamard and DFT, both
# variants, a third of them exact, the rest with one U_t scaled or perturbed by 1e-3 to 1e-12) the excess
# reached 2.56 eps*KN, on an exact spec whose 16 x 16 B has the expected singular values to 1e-15 when
# assembled from its coefficients; c = 8 leaves a factor 3.
CERTIFICATE_C = 8


def certificate_slack(spec):
    return CERTIFICATE_C * np.finfo(float).eps * spec.k * spec.big_n


def dense_battery(spec, seed):
    """Residual of every verify check, taken on the regrouped dense circuit unitary."""
    k, big_n = spec.k, spec.big_n
    half = k * big_n
    u = regrouped(spec)
    a, b = u[:half, :half], u[:half, half:]
    w = spec.weights
    r = np.sqrt(1.0 - w * w)
    lower = np.block([b, -a]) if spec.variant == "reflection" else np.block([-b, a])
    out = {
        "unitarity": np.linalg.norm(u.conj().T @ u - np.eye(2 * half)),
        "block-structure": np.abs(u[half:] - lower).max(),
    }
    public, reflection = spec.mixing != "secret", spec.variant == "reflection"
    if public:
        q = np.kron(mixing_layers(spec)[1], np.eye(big_n))

        def diag_blocks(scale):
            d = np.zeros((half, half), dtype=complex)
            for t, ut in enumerate(spec.unitaries.dense):
                d[t * big_n:(t + 1) * big_n, t * big_n:(t + 1) * big_n] = scale[t] * ut
            return d

        out["similarity"] = max(np.linalg.norm(q.conj().T @ a @ q - diag_blocks(w)) / np.linalg.norm(a),
                                np.linalg.norm(q.conj().T @ b @ q - diag_blocks(r)) / max(np.linalg.norm(b), 1e-300))
        out["singular-multiset"] = max(svd_deviations(spec, a, b))
        if reflection and np.all(w >= 0):
            q1 = q @ diag_blocks(np.ones(k))
            out["csd"] = max(np.linalg.norm((q1 * np.repeat(w, big_n)) @ q.conj().T - a),
                             np.linalg.norm((q1 * np.repeat(r, big_n)) @ q.conj().T - b))
            out["csd-sigma"] = np.abs(np.repeat(w, big_n) ** 2 + np.repeat(r, big_n) ** 2 - 1.0).max()
        if reflection:
            u_alt = regrouped(spec.with_weights(rng(seed + 1).uniform(0.1, 1.0, k)))
            blocks = diag_blocks(np.ones(k))
            u_sq = u @ u
            out["involution"] = max(np.linalg.norm(u_sq - np.kron(np.eye(2), q @ (blocks @ blocks) @ q.conj().T)),
                                    np.linalg.norm(u_sq - u_alt @ u_alt))
    psi = random_state(big_n, seed)
    phi = (u[:, :big_n] @ psi).reshape(2 * k, big_n)
    c = coefficient_matrix(spec)
    x = np.stack([ut @ psi for ut in spec.unitaries.dense])
    out["factorization"] = np.linalg.norm(c @ x - phi)
    out["column-orthogonality"] = np.abs(c.conj().T @ c - np.eye(k) / k).max()
    out["rank"] = 0.0 if numerical_rank(phi) <= k else 1.0
    return out


ORACLE_CASES = [
    (k, n, mixing, variant, signed)
    for k, n in [(1, 2), (2, 3), (4, 2), (4, 3)]
    for mixing in ("hadamard", "dft")
    for variant in ("reflection", "cyclic")
    for signed in (False, True)
]


@pytest.mark.parametrize("k, n, mixing, variant, signed", ORACLE_CASES)
def test_verify_residuals_match_the_dense_oracle(k, n, mixing, variant, signed):
    weights = rng(60 + k).uniform(-1.0 if signed else 0.1, 1.0, k)
    if signed:
        weights[0] = -1.0  # r_t = 0 on a negative weight
    spec = make_spec(k=k, n=n, seed=61 + n, mixing=mixing, variant=variant, weights=weights)
    dense = dense_battery(spec, seed=7)
    checks = verify(spec, seed=7)
    assert {c["name"] for c in checks if not c["skipped"]} == set(dense)
    for c in checks:
        if not c["skipped"]:
            assert abs(c["residual"] - dense[c["name"]]) <= 1e-12, c["name"]
            assert c["pass"] == (dense[c["name"]] < c["threshold"])
    # singular-multiset is a certified bound: the dense SVD deviation lies under it up to rounding
    bound = next(c["residual"] for c in checks if c["name"] == "singular-multiset")
    assert dense["singular-multiset"] <= bound + certificate_slack(spec)


def test_verify_secret_mixing_matches_the_dense_oracle():
    gen = rng(62)
    spec = CircuitSpec(k=4, n=2, weights=gen.uniform(0.1, 1.0, 4),
                       unitaries=tuple(haar_random_unitary(4, gen) for _ in range(4)),
                       mixing="secret", mixing_matrix=haar_random_unitary(4, 63))
    dense = dense_battery(spec, seed=8)
    for c in verify(spec, seed=8):
        if not c["skipped"]:
            assert abs(c["residual"] - dense[c["name"]]) <= 1e-12, c["name"]


def test_perturbed_unitary_fails_the_same_checks_as_the_dense_oracle():
    # scaled after validation, so the spec itself no longer holds unitaries
    spec = make_spec(k=4, n=2, seed=64)
    us = spec.unitaries.dense.copy()
    us[0] *= 1 + 1e-6
    object.__setattr__(spec, "unitaries", Dense(us))
    dense = dense_battery(spec, seed=9)
    checks = verify(spec, seed=9)
    failed = {c["name"] for c in checks if not c["pass"]}
    assert failed == {name for c in checks if (name := c["name"]) in dense and dense[name] >= c["threshold"]}
    assert failed == {"unitarity", "singular-multiset"}


@settings(max_examples=40, deadline=None)
@given(
    k=st.sampled_from([1, 2, 4, 8]),
    n=st.integers(1, 3),
    mixing=st.sampled_from(["hadamard", "dft", "secret"]),
    variant=st.sampled_from(["reflection", "cyclic"]),
    signed=st.booleans(),
    scaled=st.booleans(),
    p=st.integers(3, 12),
    seed=st.integers(0, 2**16),
)
def test_multiset_bound_covers_the_dense_svd_of_perturbed_unitaries(k, n, mixing, variant, signed, scaled, p, seed):
    gen = rng(seed)
    weights = gen.uniform(-1.0 if signed else 0.0, 1.0, k)
    if mixing == "secret":
        spec = CircuitSpec(k=k, n=n, weights=weights, unitaries=tuple(haar_random_unitary(2**n, gen) for _ in range(k)),
                           mixing="secret", mixing_matrix=haar_random_unitary(k, gen), variant=variant)
    else:
        spec = make_spec(k=k, n=n, seed=seed, mixing=mixing, variant=variant, weights=weights)
    # one U_t scaled or perturbed by 10^-p after validation
    us = spec.unitaries.dense.copy()
    t = seed % k
    shape = us[t].shape
    us[t] = us[t] * (1 + 10.0**-p) if scaled else us[t] + 10.0**-p * (gen.standard_normal(shape)
                                                                       + 1j * gen.standard_normal(shape))
    object.__setattr__(spec, "unitaries", Dense(us))
    # unitarity, involution and block-structure are certified bounds too
    dense = dense_battery(spec, seed)
    bounds = {c["name"]: c["residual"] for c in verify(spec, seed) if not c["skipped"]}
    for name in ("unitarity", "involution", "block-structure"):
        if name in dense:
            assert dense[name] <= bounds[name] + certificate_slack(spec), name
    if mixing != "secret":
        devs = svd_deviations(spec, *regrouped_blocks(spec))
        for dev, bound in zip(devs, singular_multiset_check(shuffle(spec))):
            assert dev <= bound + certificate_slack(spec)


def test_bounds_cover_the_dense_residuals_of_coefficients_off_the_formula():
    # the cross terms U_t^dag U_u (t != u) of U^dag U and every term of U^2 vanish only for the circuit's own
    # coefficients; moved off it, the bounds must still cover the dense residuals (they read 2.1-2.3x them)
    spec = make_spec(k=4, n=2, seed=67)
    k, big_n = spec.k, spec.big_n
    sh = shuffle(spec)
    coef = sh.coef.copy()
    coef[..., 0] += 1e-6 * rng(68).standard_normal(coef.shape[:-1])
    moved = dataclasses.replace(sh, coef=coef)
    us = spec.unitaries.dense
    u, u_ref = (np.einsum("act,tmn->amcn", c.reshape(2 * k, 2 * k, k), us).reshape(2 * k * big_n, -1)
                for c in (coef, sh.coef))
    squares = np.zeros((k * big_n, k * big_n), dtype=complex)
    for t, ut in enumerate(spec.unitaries.dense):
        squares[t * big_n:(t + 1) * big_n, t * big_n:(t + 1) * big_n] = ut @ ut
    q = np.kron(mixing_layers(spec)[1], np.eye(big_n))
    dense = (np.linalg.norm(u.conj().T @ u - np.eye(len(u))),
             np.linalg.norm(u @ u - np.kron(np.eye(2), q @ squares @ q.conj().T)),
             np.linalg.norm(u @ u - u_ref @ u_ref))
    bounds = (lcuout.structure._unitarity_residual(moved),) + involution_check(moved, spec.weights)
    for d, b in zip(dense, bounds):
        assert d > 1e-7
        assert d <= b <= 4 * d


def test_wrong_weights_in_a_fail_the_singular_multiset_check(monkeypatch):
    # block coefficients built from other weights: U stays a unitary circuit, but A no longer carries the |w_t|
    right = lcuout.circuit.block_coefficients

    def wrong(weights, *layers):
        return right(0.9 * weights, *layers)

    monkeypatch.setattr(lcuout.structure, "block_coefficients", wrong)
    spec = make_spec(k=4, n=2, seed=65)
    failed = {c["name"] for c in verify(spec, seed=10) if not c["pass"]}
    assert "singular-multiset" in failed
    sh = shuffle(spec)
    devs = svd_deviations(spec, *assembled(sh))
    assert devs[0] > 1e-3
    for dev, bound in zip(devs, singular_multiset_check(sh)):
        assert dev <= bound + certificate_slack(spec)


# Peak allocation of one verify call at K=4, n=7, in units of K N x N complex matrices (K N^2 16 bytes): 1.27
# measured on a dense spec, since the defect Gram holds the stack of the E_t and reads it pair by pair with
# np.vdot (its conjugated copy took the peak to 2.02).  A Haar spec from JSON forms its dense stack first and keeps
# its compact-WY factors (0.25 units at n = 7), which took the peak to 2.52.  Building the K^2 products
# U_t^dag U_u and U_t U_u^dag and their Gram matrices instead peaked at 9.5 units.
VERIFY_PEAK_UNITS = 3


def verify_peak(spec) -> float:
    """Peak allocation of ``verify(spec, seed=11)``, in bytes."""
    tracemalloc.start()
    try:
        verify(spec, seed=11)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_verify_builds_no_stack_of_products():
    spec = make_spec(k=4, n=7, seed=66)
    assert verify_peak(spec) <= VERIFY_PEAK_UNITS * spec.k * spec.big_n**2 * 16


def test_verify_on_a_haar_spec_from_json_forms_its_dense_stack_within_the_same_peak():
    doc = {"K": 4, "n": 7, "weights": [1.0, 0.8, 0.5, 0.3], "unitaries": {"kind": "haar", "seed": 66}}
    spec = CircuitSpec.from_json(json.dumps(doc))
    assert "dense" not in vars(spec.unitaries)  # verify forms the dense stack inside the measured call
    assert verify_peak(spec) <= VERIFY_PEAK_UNITS * spec.k * spec.big_n**2 * 16
    assert "dense" in vars(spec.unitaries)


def test_apply_circuit_and_traces_read_the_stack_of_unitaries_without_copying_it():
    # units as above: apply_circuit needs only vectors, and the trace Gram one conjugated copy of the spec's
    # stack; stacking the unitaries again on each call peaked at 1.03 and 2.00 units
    spec = make_spec(k=4, n=7, seed=69)
    v = random_state(spec.extended_dim, 70)

    def peak(run):
        run()  # lazy imports and one-time buffers are not the call's
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1] / (spec.k * spec.big_n**2 * 16)
        finally:
            tracemalloc.stop()

    assert peak(lambda: apply_circuit(spec, v)) < 0.1
    assert peak(lambda: shuffle(spec).traces) <= 1.05
