from itertools import product

import numpy as np
import pytest

from lcuout.circuit import CircuitSpec, circuit_unitary, permutation_matrix
from lcuout.linalg import haar_random_unitary, kron, rng
from lcuout.structure import (
    csd_assemble,
    involution_check,
    shuffle,
    similarity_check,
    singular_multiset_check,
    verify,
)


def make_spec(k=4, n=2, seed=0, mixing="hadamard", variant="reflection", weights=None):
    gen = rng(seed)
    if weights is None:
        weights = gen.uniform(0.1, 1.0, k)
    unitaries = tuple(haar_random_unitary(2**n, gen) for _ in range(k))
    return CircuitSpec(k=k, n=n, weights=np.asarray(weights, float), unitaries=unitaries,
                       mixing=mixing, variant=variant)


def test_shuffle_recovers_two_block_form():
    spec = make_spec(k=4, n=2, seed=1)
    sh = shuffle(spec)
    assert sh.block_residual < 1e-12
    half = spec.k * spec.big_n
    v = circuit_unitary(spec)
    # entry by entry, U is V with each (index i, rotation r) block moved to r * K + i
    k, big_n = spec.k, spec.big_n
    for r, i, m, s, j, mp in product(range(2), range(k), range(big_n), range(2), range(k), range(big_n)):
        assert sh.u[(r * k + i) * big_n + m, (s * k + j) * big_n + mp] == \
            v[(i * 2 + r) * big_n + m, (j * 2 + s) * big_n + mp]
    np.testing.assert_allclose(sh.u[:half, :half], sh.a, atol=0)
    np.testing.assert_allclose(sh.u[half:, half:], -sh.a, atol=1e-12)
    np.testing.assert_allclose(sh.u[half:, :half], sh.b, atol=1e-12)


def test_shuffle_cyclic_flips_the_lower_left_sign():
    spec = make_spec(k=4, n=1, seed=2, variant="cyclic")
    sh = shuffle(spec)
    half = spec.k * spec.big_n
    np.testing.assert_allclose(sh.u[half:, :half], -sh.b, atol=1e-12)
    np.testing.assert_allclose(sh.u[half:, half:], sh.a, atol=1e-12)
    assert sh.block_residual < 1e-12


def test_shuffle_k1_is_identity_permutation():
    spec = make_spec(k=1, n=2, seed=3)
    sh = shuffle(spec)
    np.testing.assert_array_equal(sh.u, circuit_unitary(spec))


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
    spec = make_spec(k=4, n=2, seed=13)
    sh = shuffle(spec)
    csd = csd_assemble(spec)
    q1, q2 = csd.q1, csd.q2
    dim = spec.k * spec.big_n
    np.testing.assert_allclose(q1.conj().T @ q1, np.eye(dim), atol=1e-10)
    np.testing.assert_allclose(q2.conj().T @ q2, np.eye(dim), atol=1e-10)
    np.testing.assert_allclose(q1 @ np.diag(csd.sigma_w) @ q2.conj().T, sh.a, atol=1e-10)
    np.testing.assert_allclose(q1 @ np.diag(csd.sigma_r) @ q2.conj().T, sh.b, atol=1e-10)
    np.testing.assert_allclose(csd.sigma_w**2 + csd.sigma_r**2, np.ones(dim), atol=1e-12)


def test_csd_central_blocks_are_reflections():
    spec = make_spec(k=2, n=1, seed=14)
    csd = csd_assemble(spec)
    for j in range(4):
        m = csd.central_block(j)
        w, r = csd.sigma_w[j], csd.sigma_r[j]
        np.testing.assert_allclose(m, [[w, r], [r, -w]], atol=1e-15)
        np.testing.assert_allclose(m @ m, np.eye(2), atol=1e-12)


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
    spec_alt = CircuitSpec(k=4, n=2, weights=np.array([0.2, 0.9, 0.4, 0.7]), unitaries=perms)
    sh = shuffle(spec)
    structure_res, cancel_res = involution_check(sh, shuffle(spec_alt))
    assert structure_res < 1e-10
    assert cancel_res < 1e-10
    u2 = sh.u @ sh.u
    np.testing.assert_allclose(u2, np.eye(u2.shape[0]), atol=1e-10)


def test_involution_square_weight_independence_haar():
    # generic U_t: U^2 != I but still independent of the weights
    base = make_spec(k=4, n=2, seed=17, weights=[1.0, 1.0, 0.5, 0.5])
    alt = CircuitSpec(k=4, n=2, weights=np.array([0.2, 0.9, 0.4, 0.7]),
                      unitaries=base.unitaries)
    structure_res, cancel_res = involution_check(shuffle(base), shuffle(alt))
    assert structure_res < 1e-10
    assert cancel_res < 1e-10


def test_involution_check_requires_reflection_and_same_unitaries():
    spec = make_spec(k=2, n=1, seed=18, variant="cyclic")
    alt = CircuitSpec(k=2, n=1, weights=np.array([0.3, 0.6]),
                      unitaries=spec.unitaries, variant="cyclic")
    with pytest.raises(ValueError):
        involution_check(shuffle(spec), shuffle(alt))
    a = make_spec(k=2, n=1, seed=19)
    b = make_spec(k=2, n=1, seed=20)  # different unitaries
    with pytest.raises(ValueError):
        involution_check(shuffle(a), shuffle(b))


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


def test_verify_secret_mixing_keeps_only_the_mixing_free_checks():
    gen = rng(42)
    spec = CircuitSpec(k=2, n=1, weights=np.array([0.9, 0.5]),
                       unitaries=tuple(haar_random_unitary(2, gen) for _ in range(2)),
                       mixing="secret", mixing_matrix=haar_random_unitary(2, 43))
    checks = verify(spec, seed=1)
    assert _skipped(checks) == {"similarity", "singular-multiset", "csd", "csd-sigma", "involution"}
    assert all(c["pass"] for c in checks)
