import json

import numpy as np
import pytest

import lcuout.circuit
from lcuout.circuit import (
    CheckFailed,
    CircuitSpec,
    apply_circuit,
    circuit_unitary,
    matrix_to_pairs,
    mixing_layers,
    output_states,
    pauli_string_matrix,
    permutation_matrix,
    rotation_gate,
    sample_shots,
    scale_coefficients,
    success_probabilities,
)
from lcuout.linalg import dft_matrix, hadamard_matrix, haar_random_unitary, random_state, rng

from helpers import make_spec


# ---- rotation gate ----------------------------------------------------------

@pytest.mark.parametrize("w", [-1.0, -0.3, 0.0, 0.5, 1.0])
def test_rotation_gate_reflection(w):
    g = rotation_gate(w)
    r = np.sqrt(1 - w * w)
    np.testing.assert_allclose(g, [[w, r], [r, -w]], atol=1e-15)
    np.testing.assert_allclose(g @ g, np.eye(2), atol=1e-15)  # involution
    assert abs(np.linalg.det(g) + 1) < 1e-12


def test_rotation_gate_cyclic():
    g = rotation_gate(0.6, "cyclic")
    np.testing.assert_allclose(g, [[0.6, 0.8], [-0.8, 0.6]], atol=1e-15)
    assert abs(np.linalg.det(g) - 1) < 1e-12
    # proper rotation: squaring doubles the angle instead of closing
    assert np.linalg.norm(g @ g - np.eye(2)) > 1


def test_rotation_gate_rejects_out_of_range():
    with pytest.raises(ValueError):
        rotation_gate(1.5)


def test_scale_coefficients():
    c, beta = scale_coefficients(np.array([2.0, -1.0]))
    assert c == 2.0
    np.testing.assert_allclose(beta, [1.0, -0.5])
    with pytest.raises(ValueError):
        scale_coefficients(np.zeros(3))


# ---- spec construction and serialization ------------------------------------

def test_spec_validation_errors():
    gen = rng(1)
    u = tuple(haar_random_unitary(4, gen) for _ in range(3))
    with pytest.raises(ValueError):  # hadamard needs power-of-two K
        CircuitSpec(k=3, n=2, weights=np.ones(3), unitaries=u)
    ok = CircuitSpec(k=3, n=2, weights=np.ones(3), unitaries=u, mixing="dft")
    assert ok.big_n == 4 and ok.extended_dim == 24
    with pytest.raises(ValueError):  # weight out of range
        CircuitSpec(k=3, n=2, weights=np.array([1.0, 2.0, 0.5]), unitaries=u, mixing="dft")
    with pytest.raises(ValueError):  # non-unitary entry
        bad = (np.eye(4) * 1.5,) + u[1:]
        CircuitSpec(k=3, n=2, weights=np.ones(3), unitaries=bad, mixing="dft")
    with pytest.raises(ValueError):  # secret mixing needs its matrix
        CircuitSpec(k=4, n=1, weights=np.ones(4),
                    unitaries=tuple(haar_random_unitary(2, gen) for _ in range(4)),
                    mixing="secret")


def test_spec_weight_clipping_tolerance():
    # 1 + 5e-13 is inside the clip band, 1 + 1e-6 is not
    u = (np.eye(2, dtype=complex),)
    spec = CircuitSpec(k=1, n=1, weights=np.array([1.0 + 5e-13]), unitaries=u)
    assert spec.weights[0] == 1.0
    with pytest.raises(ValueError):
        CircuitSpec(k=1, n=1, weights=np.array([1.0 + 1e-6]), unitaries=u)


def test_spec_rejects_nearly_unitary_matrix():
    # max |U^dag U - I| = 8e-6: inside numpy's default rtol, far outside 1e-10
    u = haar_random_unitary(4, rng(3)) * (1 + 4e-6)
    with pytest.raises(ValueError, match="not unitary"):
        CircuitSpec(k=1, n=2, weights=np.ones(1), unitaries=(u,))


def test_spec_rejects_nearly_unitary_mixing_matrix():
    gen = rng(4)
    with pytest.raises(ValueError, match="mixing matrix is not unitary"):
        CircuitSpec(k=2, n=1, weights=np.ones(2), unitaries=tuple(haar_random_unitary(2, gen) for _ in range(2)),
                    mixing="secret", mixing_matrix=np.eye(2) * (1 + 4e-6))


def test_spec_rejects_nan_weights():
    u = (np.eye(2, dtype=complex),) * 2
    with pytest.raises(ValueError, match="finite"):
        CircuitSpec(k=2, n=1, weights=np.array([0.5, np.nan]), unitaries=u)


def test_with_weights_shares_the_unitaries_and_checks_the_parameters():
    spec = make_spec(k=4, n=2, seed=12)
    weights = spec.weights
    other = spec.with_weights(np.array([0.2, -0.4, 1.0, 0.0]))
    assert other.unitaries is spec.unitaries and other.mixing == "hadamard"
    np.testing.assert_array_equal(other.weights, [0.2, -0.4, 1.0, 0.0])
    assert not other.weights.flags.writeable
    assert spec.weights is weights
    mix = haar_random_unitary(4, 13)
    secret = spec.with_weights(weights, mix)
    assert secret.unitaries is spec.unitaries and secret.mixing == "secret"
    np.testing.assert_array_equal(secret.mixing_matrix, mix)
    np.testing.assert_array_equal(secret.with_weights(0.5 * weights).mixing_matrix, mix)
    for w, m, match in [
        (np.array([0.5, 1.5, 0.5, 0.5]), None, r"lie in \[-1, 1\]"),
        (np.array([0.5, np.nan, 0.5, 0.5]), None, "finite"),
        (np.ones(3), None, "expected 4 weights"),
        (weights, np.eye(4) * (1 + 4e-6), "mixing matrix is not unitary"),
        (weights, np.eye(2), "mixing matrix has shape"),
    ]:
        with pytest.raises(ValueError, match=match):
            spec.with_weights(w, m)


def test_spec_json_round_trip_haar_source():
    doc = {"K": 4, "n": 2, "weights": [1.0, 0.5, 0.25, 0.75], "unitaries": {"kind": "haar", "seed": 3}}
    spec = CircuitSpec.from_json(json.dumps(doc))
    gen = rng(3)
    drawn = [haar_random_unitary(4, gen) for _ in range(4)]
    np.testing.assert_array_equal(spec.weights, doc["weights"])
    for a, b in zip(spec.unitaries, drawn):
        np.testing.assert_array_equal(a, b)
    # the same seed gives the same draw, and the drawn matrices written out explicitly load bit for bit
    doc["unitaries"] = {"kind": "explicit", "data": [matrix_to_pairs(u) for u in drawn]}
    again = CircuitSpec.from_json(json.dumps(doc))
    np.testing.assert_array_equal(spec.weights, again.weights)
    for a, b in zip(spec.unitaries, again.unitaries):
        np.testing.assert_array_equal(a, b)


def test_spec_json_round_trip_explicit_and_secret():
    mix = haar_random_unitary(2, 5)
    spec = CircuitSpec.from_json(json.dumps({
        "K": 2, "n": 1, "weights": [0.9, 0.4], "mixing": "secret", "mixing_matrix": matrix_to_pairs(mix),
        "unitaries": {"kind": "explicit", "data": [matrix_to_pairs(pauli_string_matrix(p)) for p in "XZ"]},
    }))
    np.testing.assert_array_equal(spec.weights, [0.9, 0.4])
    np.testing.assert_array_equal(spec.mixing_matrix, mix)
    np.testing.assert_array_equal(spec.unitaries[0], [[0, 1], [1, 0]])
    np.testing.assert_array_equal(spec.unitaries[1], [[1, 0], [0, -1]])
    assert spec.variant == "reflection"


@pytest.mark.parametrize("change, message", [
    ({"mixing": "secret"}, "secret mixing requires an explicit mixing matrix"),
    ({"mixing_matrix": matrix_to_pairs(np.eye(2))}, "mixing matrix only applies to secret mixing"),
    ({"colour": "red", "seed": 1}, "config key 'colour' is not read by a circuit spec; config key 'seed'"),
], ids=["secret-without-matrix", "matrix-without-secret", "unread-keys"])
def test_spec_json_rejects_an_unread_key_and_a_misplaced_mixing_matrix(change, message):
    doc = {"K": 2, "n": 1, "weights": [0.9, 0.4], "unitaries": {"kind": "pauli_strings", "data": ["X", "Z"]}}
    with pytest.raises(ValueError, match=message):
        CircuitSpec.from_json(json.dumps({**doc, **change}))


def test_pauli_string_matrix():
    np.testing.assert_array_equal(pauli_string_matrix("Y"), [[0, -1j], [1j, 0]])
    xz = pauli_string_matrix("XZ")
    np.testing.assert_array_equal(xz, np.kron(pauli_string_matrix("X"), pauli_string_matrix("Z")))
    np.testing.assert_allclose(xz @ xz, np.eye(4), atol=1e-15)
    with pytest.raises(ValueError):
        pauli_string_matrix("XQ")


def test_permutation_matrix():
    # column t holds e_{perm[t]}: basis state t maps to perm[t]
    p = permutation_matrix([2, 0, 1])
    for t, target in enumerate([2, 0, 1]):
        col = np.zeros(3)
        col[target] = 1
        np.testing.assert_array_equal(p[:, t], col)
    np.testing.assert_allclose(p @ p.T, np.eye(3), atol=1e-15)
    with pytest.raises(ValueError):
        permutation_matrix([0, 0, 1])


# ---- layers and full unitary -------------------------------------------------

def test_mixing_layers_hadamard_and_dft():
    spec = make_spec(k=4, n=1)
    g1, g2 = mixing_layers(spec)
    np.testing.assert_array_equal(g1, hadamard_matrix(4))
    np.testing.assert_array_equal(g2, hadamard_matrix(4))
    spec = make_spec(k=4, n=1, mixing="dft")
    g1, g2 = mixing_layers(spec)
    np.testing.assert_allclose(g1, dft_matrix(4), atol=1e-15)
    np.testing.assert_allclose(g2, dft_matrix(4).conj().T, atol=1e-15)


def test_mixing_layers_secret_prepares_uniform_then_mixes():
    w = np.array([1.0, 0.6, 0.3, 0.8])
    mix = haar_random_unitary(4, 8)
    gen = rng(2)
    spec = CircuitSpec(k=4, n=1, weights=w,
                       unitaries=tuple(haar_random_unitary(2, gen) for _ in range(4)),
                       mixing="secret", mixing_matrix=mix)
    g1, g2 = mixing_layers(spec)
    np.testing.assert_array_equal(g1, hadamard_matrix(4))
    np.testing.assert_array_equal(g2, mix)


@pytest.mark.parametrize("mixing", ["hadamard", "dft"])
@pytest.mark.parametrize("variant", ["reflection", "cyclic"])
@pytest.mark.parametrize("k", [1, 2, 4])
def test_circuit_unitary_is_unitary(k, mixing, variant):
    spec = make_spec(k=k, n=2, seed=k, mixing=mixing, variant=variant)
    v = circuit_unitary(spec)
    dim = spec.extended_dim
    assert v.shape == (dim, dim)
    np.testing.assert_allclose(v.conj().T @ v, np.eye(dim), atol=1e-10)


def test_apply_circuit_rejects_a_vector_of_the_wrong_length():
    spec = make_spec(k=2, n=1, seed=6)
    with pytest.raises(ValueError, match="expected"):
        apply_circuit(spec, np.ones(spec.big_n))


# ---- output states ------------------------------------------------------------

@pytest.mark.parametrize("mixing", ["hadamard", "dft"])
@pytest.mark.parametrize("variant", ["reflection", "cyclic"])
def test_output_states_match_statevector_slices(mixing, variant):
    spec = make_spec(k=4, n=2, seed=9, mixing=mixing, variant=variant)
    big_n = spec.big_n
    psi = random_state(big_n, 10)
    ext = np.zeros(spec.extended_dim, dtype=complex)
    ext[:big_n] = psi  # |0>_K (x) |0>_2 (x) psi
    full = circuit_unitary(spec) @ ext
    out = output_states(spec, psi)
    for i in range(4):
        for r in range(2):
            slice_ = full[(i * 2 + r) * big_n : (i * 2 + r + 1) * big_n]
            np.testing.assert_allclose(out.state(i, r), slice_, atol=1e-13)


def test_output_states_secret_mixing_matches_statevector():
    mix = haar_random_unitary(4, 44)
    gen = rng(45)
    spec = CircuitSpec(k=4, n=2, weights=gen.uniform(0.1, 1.0, 4),
                       unitaries=tuple(haar_random_unitary(4, gen) for _ in range(4)),
                       mixing="secret", mixing_matrix=mix)
    psi = random_state(4, 46)
    ext = np.zeros(spec.extended_dim, dtype=complex)
    ext[:4] = psi
    full = circuit_unitary(spec) @ ext
    out = output_states(spec, psi)
    for i in range(4):
        for r in range(2):
            np.testing.assert_allclose(out.state(i, r), full[(i * 2 + r) * 4 : (i * 2 + r + 1) * 4], atol=1e-13)


def test_probabilities_sum_to_one_and_match_states():
    spec = make_spec(k=8, n=3, seed=2)
    psi = random_state(8, 3)
    out = output_states(spec, psi)
    assert abs(out.probabilities.sum() - 1.0) < 1e-10
    for i in range(8):
        for r in range(2):
            assert abs(out.probability(i, r) - np.linalg.norm(out.state(i, r)) ** 2) < 1e-14


def test_output_states_rejects_nan_state():
    spec = make_spec(k=2, n=1, seed=3)
    with pytest.raises(ValueError, match="finite"):
        output_states(spec, np.array([np.nan, 1.0]))


def test_success_probabilities_identity():
    k, n = 4, 4
    gen = rng(21)
    alpha = np.array([1.0, 1.0, 0.35, 0.35])
    c, beta = scale_coefficients(alpha)
    spec = CircuitSpec(k=k, n=n, weights=beta,
                       unitaries=tuple(haar_random_unitary(16, gen) for _ in range(k)))
    psi = random_state(16, 22)
    p00, p0_any, p_std = success_probabilities(spec, psi, alpha)
    t_psi = sum(a * (u @ psi) for a, u in zip(alpha, spec.unitaries))
    assert abs(p00 - np.linalg.norm(t_psi) ** 2 / (c * k) ** 2) < 1e-14
    assert p_std >= p00 > 0
    assert p0_any >= p00
    # the index-0 ensemble includes both rotation outcomes
    out = output_states(spec, psi)
    assert abs(p0_any - out.probability(0, 0) - out.probability(0, 1)) < 1e-14


def test_success_probabilities_requires_matching_weights():
    spec = make_spec(k=2, n=1, weights=[1.0, 0.5])
    psi = random_state(2, 0)
    with pytest.raises(ValueError):
        success_probabilities(spec, psi, np.array([1.0, 0.9]))
    dft_spec = make_spec(k=2, n=1, weights=[1.0, 0.5], mixing="dft")
    with pytest.raises(ValueError):
        success_probabilities(dft_spec, psi, np.array([2.0, 1.0]))


def test_success_probabilities_rejects_a_wrong_length_alpha():
    # [2.0] rescales to [1.0], which broadcasts against the four unit weights
    spec = make_spec(k=4, n=1, weights=[1.0, 1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="alpha must have shape"):
        success_probabilities(spec, random_state(2, 0), np.array([2.0]))


def test_success_probabilities_rejects_weights_off_by_more_than_1e_12():
    spec = make_spec(k=2, n=1, weights=[1.0, 0.5])
    with pytest.raises(ValueError, match="rescaled coefficients"):
        success_probabilities(spec, random_state(2, 0), np.array([1.0, 0.5 + 4e-6]))


def test_success_probabilities_self_check_raises_check_failed(monkeypatch):
    real = lcuout.circuit.output_states

    def skewed(spec, psi):
        out = real(spec, psi)
        return type(out)(k=out.k, states=out.states, probabilities=out.probabilities * 1.01)

    monkeypatch.setattr(lcuout.circuit, "output_states", skewed)
    spec = make_spec(k=2, n=1, weights=[1.0, 0.5])
    with pytest.raises(CheckFailed, match="closed-form p00 check failed: residual") as info:
        success_probabilities(spec, random_state(2, 0), np.array([1.0, 0.5]))
    assert info.value.check == "closed-form p00" and info.value.residual > 1e-12


# ---- sampling -----------------------------------------------------------------

def test_sample_shots_counts_and_determinism():
    spec = make_spec(k=2, n=2, seed=17)
    psi = random_state(4, 18)
    counts = sample_shots(spec, psi, shots=5000, seed=19)
    assert counts.shape == (4, 4)
    assert counts.sum() == 5000
    assert not counts.flags.writeable
    np.testing.assert_array_equal(counts, sample_shots(spec, psi, shots=5000, seed=19))


def test_sample_shots_empirical_frequencies_converge():
    spec = make_spec(k=2, n=1, seed=23)
    psi = random_state(2, 24)
    out = output_states(spec, psi)
    shots = 200_000
    probs = np.abs(out.states) ** 2
    freq = sample_shots(spec, psi, shots=shots, seed=25) / shots
    # 5-sigma binomial envelope
    assert np.all(np.abs(freq - probs) < 5 * np.sqrt(np.maximum(probs, 1e-12) / shots) + 1e-4)


def test_sample_shots_zero_probability_rows():
    # unit weights make r = 0, so every rotation-1 outcome is impossible
    spec = make_spec(k=2, n=1, weights=[1.0, 1.0], seed=26)
    psi = random_state(2, 27)
    counts = sample_shots(spec, psi, shots=2000, seed=28)
    assert counts[2:].sum() == 0
