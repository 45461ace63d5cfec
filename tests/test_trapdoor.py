import json
import tracemalloc

import numpy as np
import pytest

import lcuout.circuit
import lcuout.linalg
from lcuout.circuit import (
    Monomial, coefficients, mixing_layers, sample_shots, unitary_source,
)
from lcuout.linalg import Dense, Reflectors, haar_reflectors, haar_random_unitary, hadamard_matrix, random_state, rng
from lcuout.outputs import coefficient_matrix, output_matrix, row_matrix
from lcuout.recovery import ObservedEntries, make_mask, observe
from lcuout.trapdoor import (
    PublicLayout,
    PublicParams,
    SecretKey,
    eval_trapdoor,
    hadamard_attack,
    invert_with_key,
    involution_encrypt_decrypt,
    key_coefficients,
    key_from_json,
    key_spec,
    key_to_json,
    keygen,
    mixing_from_key,
)

from helpers import assert_same_spec, pauli_string_matrix


def make_pub(k=4, n=4, seed=0, scheme="hadamard", variant="reflection"):
    gen = rng(seed)
    unitaries = tuple(haar_random_unitary(2**n, gen) for _ in range(k))
    return PublicParams(k=k, n=n, unitaries=unitaries, scheme=scheme, variant=variant)


def pauli_pub(seed=0):
    labels = [["XZ", "ZI", "IX", "YY"], ["IZ", "XX", "YI", "ZZ"]][seed % 2]
    unitaries = tuple(pauli_string_matrix(s) for s in labels)
    return PublicParams(k=4, n=2, unitaries=unitaries, scheme="hadamard", variant="reflection")


def test_public_params_check_their_unitaries_when_built():
    for scheme in ("hadamard", "secret_mixing"):
        pub = make_pub(k=4, n=2, seed=3, scheme=scheme)
        assert pub.unitaries is pub.base_spec.unitaries
        assert key_spec(keygen(4, scheme, 1), pub).unitaries is pub.unitaries
    us = tuple(make_pub(k=4, n=2, seed=4).unitaries.dense)
    for k, unitaries, match in [
        (4, us[:3] + (us[3] * (1 + 1e-6),), "matrix 3 is not unitary"),
        (4, us[:3] + (np.eye(2),), "unitary 3 has shape"),
        (4, us[:3], "expected 4 unitaries"),
        (3, us[:3], "power-of-two"),
    ]:
        with pytest.raises(ValueError, match=match):
            PublicParams(k=k, n=2, unitaries=unitaries)
    # the unitaries are keyword-only, after the layout's defaulted scheme and variant
    with pytest.raises(TypeError):
        PublicParams(4, 2, us)


def test_public_params_draw_a_generator_after_the_layout_checks(monkeypatch):
    # a generator, the Haar source of unitary_source, is drawn by the base spec as reflectors, with the bits of
    # the direct draw
    pub = PublicParams(k=4, n=3, unitaries=rng(8), variant="cyclic")
    drawn = PublicParams(k=4, n=3, unitaries=haar_reflectors(4, 8, rng(8)), variant="cyclic")
    assert pub.scheme == drawn.scheme
    assert_same_spec(pub.base_spec, drawn.base_spec)
    assert pub.unitaries is pub.base_spec.unitaries and isinstance(pub.unitaries, Reflectors)
    assert pub.unitaries.shape == (4, 8, 8) and not pub.unitaries.taus.flags.writeable

    def no_draw(*args):
        raise RuntimeError("drew the Haar unitaries")

    # at n = 16 the draw would take 128 GiB, so a layout error must come first
    monkeypatch.setattr(lcuout.circuit, "haar_reflectors", no_draw)
    for change, match in [({"k": 3}, "power-of-two k, got 3"), ({"scheme": "rsa"}, "unknown scheme 'rsa'")]:
        with pytest.raises(ValueError, match=match):
            PublicParams(**{"k": 4, "n": 16, **change}, unitaries=rng(1))
    with pytest.raises(RuntimeError, match="drew the Haar unitaries"):
        PublicParams(k=4, n=16, unitaries=rng(1))


@pytest.mark.parametrize("cls", [PublicLayout, PublicParams])
@pytest.mark.parametrize("change, match", [
    ({"scheme": "rsa"}, "unknown scheme 'rsa'"), ({"variant": "spiral"}, "unknown variant 'spiral'"),
    ({"k": 3}, "power-of-two k, got 3"), ({"k": 0}, "at least one unitary"), ({"n": 0}, "at least one system qubit"),
])
def test_public_layout_is_checked_before_any_unitary(cls, change, match):
    # PublicParams refuses these with the layout's own message, before it looks at its (here unusable) unitaries
    extra = {"unitaries": None} if cls is PublicParams else {}
    with pytest.raises(ValueError, match=match):
        cls(**{"k": 4, "n": 2, **change}, **extra)


# ---- keys ---------------------------------------------------------------------

def test_keygen_ranges_and_determinism():
    key = keygen(4, "hadamard", 7)
    assert key.weights.shape == (4,)
    assert np.all((0.1 <= key.weights) & (key.weights <= 1.0))
    assert key.gamma is None
    np.testing.assert_array_equal(key.weights, keygen(4, "hadamard", 7).weights)
    assert not np.allclose(key.weights, keygen(4, "hadamard", 8).weights)


def test_keygen_secret_mixing_normalizes():
    key = keygen(8, "secret_mixing", 3)
    assert abs(np.linalg.norm(key.weights) - 1.0) < 1e-12
    assert isinstance(key.gamma, int)
    with pytest.raises(ValueError):
        keygen(3, "hadamard", 0)
    with pytest.raises(ValueError):
        keygen(4, "unknown", 0)


def test_key_json_never_leaks_the_mixing_matrix():
    key = keygen(4, "secret_mixing", 5)
    doc = json.loads(key_to_json(key))
    assert set(doc) == {"scheme", "weights", "gamma"}
    back = key_from_json(key_to_json(key))
    np.testing.assert_array_equal(back.weights, key.weights)
    assert back.gamma == key.gamma


@pytest.mark.parametrize("doc", [
    [0.6, 0.8],
    {"scheme": "secret", "weights": [0.6, 0.8], "gamma": 3},
    {"scheme": "secret_mixing", "weights": [0.6, 0.8]},
    {"scheme": "secret_mixing", "weights": [0.6, 0.8], "gamma": None},
    {"scheme": "secret_mixing", "weights": [0.6, 0.8], "gamma": -1},
    {"scheme": "secret_mixing", "weights": [0.6, 0.8], "gamma": 2**64},
    {"scheme": "secret_mixing", "weights": [0.6, 0.8], "gamma": 3.0},
    {"scheme": "secret_mixing", "weights": [0.6, 0.8], "gamma": True},
    {"scheme": "hadamard", "weights": [[0.6, 0.8]], "gamma": None},
    {"scheme": "hadamard", "weights": 0.6, "gamma": None},
    {"scheme": "hadamard", "weights": [0.6, float("nan")], "gamma": None},
    {"scheme": "hadamard", "weights": ["a", "b"], "gamma": None},
    {"scheme": "hadamard", "weights": {"a": 1}, "gamma": None},
    {"scheme": "hadamard", "weights": [True, 0.5], "gamma": None},
])
def test_key_from_json_rejects_malformed_keys(doc):
    with pytest.raises(ValueError):
        key_from_json(json.dumps(doc))


@pytest.mark.parametrize("scheme, weights, gamma, message", [
    ("rsa", [0.6, 0.8], None, "unknown scheme 'rsa'"),
    ("hadamard", [0.6, float("nan")], None, "key weights must be finite"),
    ("secret_mixing", [0.6, 0.8], None, r"integer gamma in \[0, 2\*\*64\), got None"),
    ("secret_mixing", [0.6, 0.8], -1, r"integer gamma in \[0, 2\*\*64\), got -1"),
    ("secret_mixing", [0.6, 0.8], 2**64, r"integer gamma in \[0, 2\*\*64\), got 18446744073709551616"),
], ids=["scheme", "nan-weight", "gamma-none", "gamma-negative", "gamma-2**64"])
def test_secret_key_checks_itself_however_it_is_built(scheme, weights, gamma, message):
    # the key's rules belong to SecretKey, so a key built without key_from_json meets them too
    with pytest.raises(ValueError, match=message):
        SecretKey(scheme=scheme, weights=np.array(weights), gamma=gamma)
    with pytest.raises(ValueError, match=message):
        key_from_json(json.dumps({"scheme": scheme, "weights": weights, "gamma": gamma}))


def test_secret_key_holds_a_read_only_float_copy_of_its_weights():
    given = np.array([0.5, 0.25, 0.125, 1.0])
    key = SecretKey("hadamard", given)
    assert not key.weights.flags.writeable and not np.shares_memory(key.weights, given)
    assert not keygen(4).weights.flags.writeable and not keygen(2, "secret_mixing").weights.flags.writeable
    given[0] = np.nan  # a write through the caller's array does not reach the checked key
    np.testing.assert_array_equal(key.weights, [0.5, 0.25, 0.125, 1.0])
    # list weights become the same float array, so whether they fit a layout is a ValueError, not an AttributeError
    listed = SecretKey("hadamard", [0.5] * 4)
    assert listed.weights.dtype == float and not listed.weights.flags.writeable
    PublicLayout(k=4, n=2).check_key(listed)
    with pytest.raises(ValueError, match="key length does not match the public parameters"):
        PublicLayout(k=2, n=2).check_key(listed)


@pytest.mark.parametrize("weights", [[[0.5, 0.5]], 0.5], ids=["2-d", "scalar"])
def test_secret_key_refuses_weights_that_are_not_one_dimensional(weights):
    with pytest.raises(ValueError, match=r"key weights must be a 1-D array, got shape"):
        SecretKey("hadamard", np.array(weights))


def test_key_from_json_accepts_the_largest_gamma():
    key = key_from_json(json.dumps({"scheme": "secret_mixing", "weights": [0.6, 0.8], "gamma": 2**64 - 1}))
    np.testing.assert_array_equal(mixing_from_key(key), mixing_from_key(key))


def test_mixing_from_key_structure():
    key = keygen(4, "secret_mixing", 11)
    w = mixing_from_key(key)
    np.testing.assert_allclose(w.conj().T @ w, np.eye(4), atol=1e-12)
    # first row encodes the key weights exactly
    np.testing.assert_allclose(w[0].real, key.weights, atol=1e-12)
    np.testing.assert_array_equal(w, mixing_from_key(key))
    with pytest.raises(ValueError):
        mixing_from_key(keygen(4, "hadamard", 11))


# ---- evaluation and inversion ----------------------------------------------------

def test_eval_trapdoor_exact_magnitudes():
    pub = make_pub(seed=1)
    key = keygen(4, "hadamard", 2)
    psi = random_state(16, 3)
    magnitudes = eval_trapdoor(key, pub, psi)
    phi = output_matrix(key_spec(key, pub), psi)
    assert magnitudes.shape == (8, 16)
    np.testing.assert_allclose(magnitudes, np.abs(phi) ** 2, atol=1e-14)
    assert abs(magnitudes.sum() - 1.0) < 1e-10


def test_eval_trapdoor_sampled():
    pub = make_pub(k=2, n=2, seed=4)
    key = keygen(2, "hadamard", 5)
    psi = random_state(4, 6)
    magnitudes = eval_trapdoor(key, pub, psi, shots=50_000, seed=7)
    # the shot frequencies of the same seed's counts
    counts = sample_shots(key_spec(key, pub), psi, 50_000, 7)
    np.testing.assert_array_equal(magnitudes, counts / 50_000)
    assert abs(magnitudes.sum() - 1.0) < 1e-12
    exact = eval_trapdoor(key, pub, psi)
    assert np.abs(magnitudes - exact).max() < 0.02


@pytest.mark.parametrize("scheme", ["hadamard", "secret_mixing"])
def test_invert_with_key_exact_round_trip(scheme):
    pub = make_pub(seed=8, scheme=scheme)
    key = keygen(4, scheme, 9)
    psi = random_state(16, 10)
    spec = key_spec(key, pub)
    phi = output_matrix(spec, psi)
    res = invert_with_key(key, pub, phi)
    truth = key.weights @ row_matrix(spec, psi)
    assert res.underdetermined == ()
    np.testing.assert_allclose(res.target, truth, atol=1e-11)
    np.testing.assert_allclose(res.x, row_matrix(spec, psi), atol=1e-11)


def test_invert_with_key_masked_observations():
    pub = make_pub(n=8, seed=11)
    key = keygen(4, "hadamard", 12)
    psi = random_state(256, 13)
    spec = key_spec(key, pub)
    phi = output_matrix(spec, psi)
    mask = make_mask(8, 256, 14, "column_guaranteed", density=0.7, min_per_column=4)
    res = invert_with_key(key, pub, observe(phi, mask, 0.0))
    truth = key.weights @ row_matrix(spec, psi)
    rel = np.linalg.norm(res.target - truth) / np.linalg.norm(truth)
    assert res.underdetermined == ()
    assert rel < 1e-8


@pytest.mark.parametrize("variant", ["reflection", "cyclic"])
@pytest.mark.parametrize("scheme", ["hadamard", "secret_mixing"])
def test_key_coefficients_have_the_bits_of_the_key_spec(scheme, variant):
    pub = make_pub(seed=15, scheme=scheme, variant=variant)
    layout = PublicLayout(k=4, n=4, scheme=scheme, variant=variant)
    for key in (keygen(4, scheme, 16), SecretKey(scheme, [1.0 + 1e-13, -0.5, 0.25, 0.0], gamma=17)):
        expected = coefficient_matrix(key_spec(key, pub)).tobytes()
        assert key_coefficients(key, layout).tobytes() == key_coefficients(key, pub).tobytes() == expected


@pytest.mark.parametrize("key, match", [
    (SecretKey("hadamard", [0.5] * 2), "key length does not match"),
    (SecretKey("secret_mixing", [0.5] * 4, gamma=3), "key scheme 'secret_mixing' does not match public 'hadamard'"),
    (SecretKey("hadamard", [0.5, 1.5, 0.5, 0.5]), "weights must be finite and lie in"),
])
def test_key_coefficients_refuse_what_key_spec_refuses(key, match):
    pub = make_pub(seed=18)
    for build in (lambda: key_spec(key, pub), lambda: key_coefficients(key, pub),
                  lambda: key_coefficients(key, PublicLayout(k=4, n=4))):
        with pytest.raises(ValueError, match=match):
            build()


@pytest.mark.parametrize("scheme", ["hadamard", "secret_mixing"])
def test_invert_with_key_reads_only_the_public_layout(scheme):
    pub = make_pub(n=5, seed=19, scheme=scheme)
    layout = PublicLayout(k=4, n=5, scheme=scheme)
    key = keygen(4, scheme, 20)
    phi = output_matrix(key_spec(key, pub), random_state(32, 21))
    partial = observe(phi, make_mask(8, 32, 22, "uniform", density=0.4), 0.0)
    for obs in (phi, partial):
        on_layout, on_params = invert_with_key(key, layout, obs), invert_with_key(key, pub, obs)
        assert on_layout.x.tobytes() == on_params.x.tobytes()
        assert on_layout.target.tobytes() == on_params.target.tobytes()
        assert on_layout.underdetermined == on_params.underdetermined


def test_mixing_from_key_of_one_weight_is_the_identity():
    assert mixing_from_key(keygen(1, "secret_mixing", 12)).tolist() == [[1.0 + 0j]]


# ---- attacks ----------------------------------------------------------------------

@pytest.mark.parametrize("variant", ["reflection", "cyclic"])
@pytest.mark.parametrize("k", [1, 2, 4, 8])
def test_hadamard_attack_recovers_weights_from_amplitudes(k, variant):
    for seed in range(5):
        pub = make_pub(k=k, seed=100 + seed, variant=variant)
        key = keygen(k, "hadamard", 200 + seed)
        psi = random_state(16, 300 + seed)
        phi = output_matrix(key_spec(key, pub), psi)
        res = hadamard_attack(pub, phi)
        assert np.all(res.recoverable)
        assert np.abs(res.weights - key.weights).max() < 1e-10
        assert res.residual < 1e-10


@pytest.mark.parametrize("variant", ["reflection", "cyclic"])
def test_hadamard_attack_recovers_unit_weights_up_to_their_sign(variant):
    # r_t = 0 leaves y1_t rounding noise: the sign of w_t = +-1 is not identifiable, and either sign fits Phi
    pub = make_pub(seed=26, variant=variant)
    key = SecretKey(scheme="hadamard", weights=np.array([1.0, -1.0, 0.5, -0.3]))
    res = hadamard_attack(pub, output_matrix(key_spec(key, pub), random_state(16, 27)))
    assert np.abs(np.abs(res.weights) - np.abs(key.weights)).max() < 1e-10
    assert np.abs(res.weights[2:] - key.weights[2:]).max() < 1e-10
    assert res.residual < 1e-10


@pytest.mark.parametrize("variant", ["reflection", "cyclic"])
@pytest.mark.parametrize("k", [2, 4])
def test_hadamard_attack_reads_only_the_public_layout(k, variant):
    pub = make_pub(k=k, seed=40 + k, variant=variant)
    layout = PublicLayout(k=k, n=pub.n, scheme=pub.scheme, variant=variant)
    key = keygen(k, "hadamard", 50 + k)
    # the layers and C taken from the layout alone have the bits of the ones taken through the public unitaries
    g1, g2 = mixing_layers(pub.base_spec)
    h = hadamard_matrix(k)
    assert h.tobytes() == g1.tobytes() == g2.tobytes()
    c = coefficients(key.weights, "hadamard", variant)
    assert c.tobytes() == coefficient_matrix(pub.base_spec.with_weights(key.weights)).tobytes()
    psi = random_state(16, 60 + k)
    for phi in (output_matrix(key_spec(key, pub), psi), np.sqrt(eval_trapdoor(key, pub, psi))):  # success, failure
        on_layout, on_params = hadamard_attack(layout, phi), hadamard_attack(pub, phi)
        assert on_layout.weights.tobytes() == on_params.weights.tobytes()
        assert on_layout.recoverable.tolist() == on_params.recoverable.tolist()
        assert on_layout.residual == on_params.residual


def test_hadamard_attack_flags_a_row_it_cannot_recover():
    # row 2 of X is zero, so nothing in Phi carries w_2; the other weights still come out
    pub = make_pub(seed=23)
    key = keygen(4, "hadamard", 24)
    spec = key_spec(key, pub)
    x = row_matrix(spec, random_state(16, 25))
    x[2] = 0.0
    res = hadamard_attack(pub, coefficient_matrix(spec) @ x)
    assert res.recoverable.tolist() == [True, True, False, True]
    assert res.weights[2] == 0.0
    assert np.abs(np.delete(res.weights - key.weights, 2)).max() < 1e-10


def test_hadamard_attack_fails_on_magnitudes_only():
    for variant in ("reflection", "cyclic"):
        pub = make_pub(seed=15, variant=variant)
        key = keygen(4, "hadamard", 16)
        psi = random_state(16, 17)
        magnitudes = eval_trapdoor(key, pub, psi)  # probabilities, no phases
        res = hadamard_attack(pub, np.sqrt(magnitudes))
        assert np.abs(res.weights - key.weights).max() > 1e-2, variant
        assert res.residual > 1e-3, variant  # self-reported misfit exposes the failure


def test_inversion_and_attack_reject_a_matrix_that_is_not_2k_by_2_to_the_n():
    pub = make_pub(seed=19)
    key = keygen(4, "hadamard", 20)
    phi = output_matrix(key_spec(key, pub), random_state(16, 21))
    full = np.ones((8, 16), dtype=bool)
    for bad in (phi[:, :1], phi[:7], phi.T, phi[0]):
        with pytest.raises(ValueError, match="2K x 2"):
            invert_with_key(key, pub, bad)
        with pytest.raises(ValueError, match="2K x 2"):
            hadamard_attack(pub, bad)
    with pytest.raises(ValueError, match="2K x 2"):
        invert_with_key(key, pub, ObservedEntries(values=phi[:, :1], mask=full[:, :1]))
    # entries whose mask does not match their values are refused before they reach the inversion
    for values, mask in ((phi, full[:, :1]), (phi[:, :1], full)):
        with pytest.raises(ValueError, match="need a 2-D mask of the same shape"):
            ObservedEntries(values=values, mask=mask)


def test_hadamard_attack_rejects_an_all_zero_matrix():
    # the relative residual of a zero matrix is 0/0
    with pytest.raises(ValueError, match="all zero"):
        hadamard_attack(make_pub(seed=22), np.zeros((8, 16), dtype=complex))


def test_hadamard_attack_rejects_other_schemes():
    pub = make_pub(seed=18, scheme="secret_mixing")
    with pytest.raises(ValueError):
        hadamard_attack(pub, np.zeros((8, 16), dtype=complex))


# ---- involution cipher ---------------------------------------------------------------

def test_involution_round_trip_any_two_keys():
    pub = pauli_pub(0)
    psi = random_state(4, 30)
    fid = involution_encrypt_decrypt(pub, psi, keygen(4, "hadamard", 31), keygen(4, "hadamard", 32))
    assert abs(fid - 1.0) < 1e-10


def test_involution_same_key_twice():
    pub = pauli_pub(1)
    psi = random_state(4, 33)
    key = keygen(4, "hadamard", 34)
    assert abs(involution_encrypt_decrypt(pub, psi, key, key) - 1.0) < 1e-10


@pytest.mark.parametrize("psi, message", [
    (2 * random_state(4, 30), "input state must be finite and normalized"),
    (np.full(4, np.nan), "input state must be finite and normalized"),
    (random_state(3, 30), r"state has shape \(3,\), expected \(4,\)"),
], ids=["twice-a-state", "nan", "length-3"])
def test_involution_checks_its_input_state(psi, message):
    # without the check, 2 psi would read as a "fidelity" of 16, a NaN psi as nan, a short psi as a broadcast error
    with pytest.raises(ValueError, match=message):
        involution_encrypt_decrypt(pauli_pub(0), psi, keygen(4, "hadamard", 31), keygen(4, "hadamard", 32))


def test_involution_rejects_non_involutory_unitaries():
    pub = make_pub(k=4, n=2, seed=35)  # Haar, almost surely not involutions
    psi = random_state(4, 36)
    with pytest.raises(ValueError):
        involution_encrypt_decrypt(pub, psi, keygen(4, "hadamard", 37), keygen(4, "hadamard", 38))


@pytest.mark.parametrize("theta", [0.49e-10, 0.51e-10, 1e-9], ids=["inside", "outside", "far-outside"])
def test_involution_check_decides_at_its_threshold(theta):
    # diag(1, e^{i theta}) squares to I up to |e^{2 i theta} - 1| = 2 sin(theta): within 1e-10 below theta = 0.5e-10
    near = np.diag([1.0, np.exp(1j * theta)])
    pub = PublicParams(k=4, n=1, unitaries=(near,) + tuple(pauli_string_matrix(s) for s in "XYZ"))
    psi, keys = random_state(2, 42), (keygen(4, "hadamard", 43), keygen(4, "hadamard", 44))
    if np.linalg.norm(near @ near - np.eye(2)) > 1e-10:
        with pytest.raises(ValueError, match="unitary 0 is not an involution"):
            involution_encrypt_decrypt(pub, psi, *keys)
    else:
        assert theta < 0.5e-10 and abs(involution_encrypt_decrypt(pub, psi, *keys) - 1.0) < 1e-9


def test_a_dense_stack_is_probed_before_any_square(monkeypatch):
    # diag(1, i) squares to diag(1, -1): the probe along the uniform vector refuses it, so no N x N square is formed;
    # dense Pauli matrices pass their probes and their squares, and still decrypt
    psi, keys = random_state(2, 45), (keygen(4, "hadamard", 46), keygen(4, "hadamard", 47))
    assert abs(involution_encrypt_decrypt(pauli_pub(0), random_state(4, 45), *keys) - 1.0) < 1e-10
    pub = PublicParams(k=4, n=1, unitaries=(np.diag([1.0, 1j]),) * 4)
    assert isinstance(pub.unitaries, Dense)

    def no_square(u):
        raise RuntimeError("formed a dense square")

    monkeypatch.setattr(lcuout.linalg, "_square_residual", no_square)
    with pytest.raises(ValueError, match="unitary 0 is not an involution"):
        involution_encrypt_decrypt(pub, psi, *keys)


def householder_involutions(k, dim, seed):
    """K reflector stacks that are involutions: each unitary one reflection I - 2 v v^H / |v|^2, the rest tau = 0."""
    stack = haar_reflectors(k, dim, rng(seed))
    taus = np.zeros_like(stack.taus)
    for t in range(k):
        v = stack.panels[0][t, :, t]
        taus[t, t] = 2 / np.vdot(v, v).real
    return Reflectors(stack.panels, taus, np.ones_like(stack.signs))


def test_involution_probe_passes_reflector_involutions_and_names_the_first_failing_unitary():
    # |(U^2 - I) x| <= |U^2 - I|_F: the probe never refuses an involution, whose dense residual then decides; a Haar
    # unitary after one is refused by its probe, as the dense residual would refuse it, and a unitary the probe
    # passes is still refused by its dense residual
    psi, keys = random_state(8, 48), (keygen(4, "hadamard", 49), keygen(4, "hadamard", 50))
    involutions = householder_involutions(4, 8, 51)
    pub = PublicParams(k=4, n=3, unitaries=involutions)
    assert abs(involution_encrypt_decrypt(pub, psi, *keys) - 1.0) < 1e-10
    haar = haar_reflectors(4, 8, rng(52))  # one block of reflectors at N = 8
    panel, taus, signs = involutions.panels[0].copy(), involutions.taus.copy(), involutions.signs.copy()
    panel[2:], taus[2:], signs[2:] = haar.panels[0][2:], haar.taus[2:], haar.signs[2:]
    pub = PublicParams(k=4, n=3, unitaries=Reflectors((panel,), taus, signs))
    with pytest.raises(ValueError, match="unitary 2 is not an involution"):
        involution_encrypt_decrypt(pub, psi, *keys)
    # the transpositions of coordinates 0, 1 and of 1, 2 (reflectors along e0 - e1 and e1 - e2, tau = 1) make a
    # 3-cycle, no involution, which fixes the uniform vector: a probe along it passes, and the residual decides
    cycle = np.eye(8, dtype=complex)
    cycle[1, 0] = cycle[2, 1] = -1
    panel, taus = involutions.panels[0].copy(), involutions.taus.copy()
    panel[1], taus[1] = cycle, [1, 1, 0, 0, 0, 0, 0, 0]
    pub = PublicParams(k=4, n=3, unitaries=Reflectors((panel,), taus, involutions.signs))
    with pytest.raises(ValueError, match="unitary 1 is not an involution"):
        involution_encrypt_decrypt(pub, psi, *keys)


def test_involution_on_fourteen_qubit_pauli_strings_builds_no_dense_matrix():
    # four 2**14 x 2**14 dense unitaries would take 16 GiB; the monomial stack takes 1.5 MiB and each circuit
    # application a few vectors of 2 K N entries
    labels = ["XYZIXYZIXYZIXY", "ZZZZZZZZZZZZZZ", "YIYIYIYIYIYIYI", "IXXIIXXIIXXIIX"]
    doc = {"K": 4, "n": 14, "unitaries": {"kind": "pauli_strings", "data": labels}}
    psi, keys = random_state(2**14, 45), (keygen(4, "hadamard", 46), keygen(4, "hadamard", 47))
    tracemalloc.start()
    try:
        _, _, unitaries = unitary_source(doc)
        pub = PublicParams(k=4, n=14, unitaries=unitaries)
        assert isinstance(pub.unitaries, Monomial)  # before any circuit runs, so a dense source fails here
        fid = involution_encrypt_decrypt(pub, psi, *keys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(fid - 1.0) < 1e-10
    assert peak < 32 * 2**20


def test_single_application_with_different_keys_does_not_decrypt():
    # the cancellation is per-circuit-square; mixing two different keys in
    # one square leaves a weight-dependent overlap strictly below 1
    pub = pauli_pub(0)
    psi = random_state(4, 39)
    key1, key2 = keygen(4, "hadamard", 40), keygen(4, "hadamard", 41)
    from lcuout.circuit import circuit_unitary

    v1 = circuit_unitary(key_spec(key1, pub))
    v2 = circuit_unitary(key_spec(key2, pub))
    ext = np.zeros(32, dtype=complex)
    ext[:4] = psi
    fid_cross = abs(np.vdot(ext, v2 @ (v1 @ ext))) ** 2
    w1, w2 = key1.weights, key2.weights
    r1, r2 = np.sqrt(1 - w1**2), np.sqrt(1 - w2**2)
    predicted = (np.sum(w1 * w2 + r1 * r2) / 4) ** 2
    assert abs(fid_cross - predicted) < 1e-10
    assert fid_cross < 0.999
