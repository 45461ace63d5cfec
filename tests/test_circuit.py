import dataclasses
import itertools
import json
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import lcuout.circuit
import lcuout.recovery
import lcuout.structure
import lcuout.trapdoor
from lcuout.circuit import (
    CheckFailed,
    CircuitSpec,
    Monomial,
    apply_circuit,
    block_coefficients,
    checked_parameters,
    circuit_unitary,
    coefficient_matrix,
    coefficients,
    matrix_from_pairs,
    mixing_layers,
    output_states,
    pauli_string_monomial,
    permutation_monomial,
    rotation_gate,
    row_matrix,
    sample_shots,
    scale_coefficients,
    shot_counts,
    success_probabilities,
    unitary_source,
)
from lcuout.linalg import (
    Reflectors, dft_matrix, hadamard_matrix, haar_random_unitary, haar_reflectors, random_state, rng,
)
from lcuout.recovery import factorized_complete, observe, sweep_instance
from lcuout.structure import csd_assemble, shuffle
from lcuout.trapdoor import PublicLayout, PublicParams, SecretKey, hadamard_attack, invert_with_key, keygen

from helpers import assert_same_spec, make_spec, matrix_to_pairs, pauli_string_matrix, permutation_matrix


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


@pytest.mark.parametrize("mixing", ["hadamard", "secret"])
def test_a_hadamard_first_layer_needs_a_power_of_two_k(mixing):
    # secret mixing prepares the index register with the Hadamard matrix of order K, as Hadamard mixing does,
    # so K = 3 is refused when the spec is built, not later inside hadamard_matrix
    mix = dft_matrix(3) if mixing == "secret" else None
    with pytest.raises(ValueError, match=f"{mixing.capitalize()} mixing needs a power-of-two k, got 3"):
        CircuitSpec(k=3, n=1, weights=np.ones(3), unitaries=(np.eye(2),) * 3, mixing=mixing, mixing_matrix=mix)


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


def _near_unitary_cases():
    """``(label, matrix)`` pairs whose Gram residual max |M^H M - I| sits at, just inside or just outside 1e-10, or is NaN or inf."""
    edge = 1e-10
    cases = []
    for label, b in [("at", edge), ("inside", np.nextafter(edge, 0)), ("outside", np.nextafter(edge, 1)),
                     ("far-outside", 2 * edge), ("imaginary-at", 1j * edge), ("imaginary-outside", 1.01j * edge)]:
        # the Gram's off-diagonal entry is exactly b; its diagonal stays within 1e-15 of 1
        cases.append((label, np.array([[1.0, b], [0.0, np.sqrt(1 - abs(b) ** 2)]], dtype=complex)))
    for label, d in [("diagonal-inside", 0.99e-10), ("diagonal-outside", 1.01e-10)]:
        cases.append((label, np.diag([np.sqrt(1 + d), 1.0]).astype(complex)))
    for label, bad in [("nan", np.nan), ("inf", np.inf), ("nan-imaginary", complex(0, np.nan))]:
        m = np.eye(2, dtype=complex)
        m[1, 0] = bad
        cases.append((label, m))
    return cases


@pytest.mark.parametrize("label, m", _near_unitary_cases(), ids=[c[0] for c in _near_unitary_cases()])
@np.errstate(invalid="ignore")  # an inf entry makes 0 * inf in the Gram
def test_unitarity_check_decides_as_allclose(label, m):
    expected = np.allclose(m.conj().T @ m, np.eye(2), rtol=0, atol=1e-10)
    assert expected == label.endswith(("at", "inside"))  # the cases straddle the threshold as labelled
    for build in (
        lambda: CircuitSpec(k=1, n=1, weights=np.ones(1), unitaries=(m,)),
        lambda: CircuitSpec(k=2, n=1, weights=np.ones(2), unitaries=(np.eye(2),) * 2, mixing="secret", mixing_matrix=m),
    ):
        if expected:
            build()
        else:
            with pytest.raises(ValueError, match="not unitary"):
                build()


class _Holder:
    """An object whose ``__array__`` returns the array it keeps and may write to later."""

    def __init__(self, a):
        self.a = a

    def __array__(self, dtype=None, copy=None):
        return self.a


@pytest.mark.parametrize("given", ["tuple", "writeable", "read-only-view", "array-holder"])
def test_spec_copies_a_writeable_unitary_or_a_view(given):
    writer = haar_reflectors(2, 4, rng(21)).dense.copy()  # a draw is read-only; this test needs a writer
    if given == "tuple":
        given = (writer[0], writer[1])
    elif given == "read-only-view":
        given = writer[:]
        given.flags.writeable = False
    else:
        given = writer if given == "writeable" else _Holder(writer)
    kept = CircuitSpec(k=2, n=2, weights=np.ones(2), unitaries=given).unitaries.dense
    assert kept.shape == (2, 4, 4) and kept.dtype == complex
    assert not np.shares_memory(kept, writer) and not kept.flags.writeable and kept.base is None
    before = kept.copy()
    writer[1, 0, 0] = 7.0
    np.testing.assert_array_equal(kept, before)


def test_spec_keeps_a_read_only_unitary_that_owns_its_data():
    # a Haar draw is read-only from birth and owns its data, so a spec keeps it as drawn
    us = haar_reflectors(2, 4, rng(22)).dense
    assert not us.flags.writeable and us.flags.owndata and us.base is None
    spec = CircuitSpec(k=2, n=2, weights=np.ones(2), unitaries=us)
    assert spec.unitaries.dense is us
    mix = dft_matrix(2)
    mix.flags.writeable = False
    secret = CircuitSpec(k=2, n=2, weights=np.ones(2), unitaries=us, mixing="secret", mixing_matrix=mix)
    assert secret.mixing_matrix is mix and secret.unitaries.dense is us
    # a float stack or a list is converted into the spec's own read-only array
    eye = np.eye(4)
    converted = CircuitSpec(k=1, n=2, weights=np.ones(1), unitaries=eye[None]).unitaries.dense
    assert converted.dtype == complex and converted.base is None and not np.shares_memory(converted, eye)
    assert not CircuitSpec(k=1, n=2, weights=np.ones(1), unitaries=[eye.tolist()]).unitaries.dense.flags.writeable
    # a tuple is copied once into the stack, and a float stack converted once into it, not converted and then
    # copied: the unitarity check's Gram and its conjugate add half a unit
    k, n = 4, 7
    for given in (tuple(haar_reflectors(k, 2**n, rng(24)).dense), np.stack([np.eye(2**n)] * k)):
        CircuitSpec(k=k, n=n, weights=np.ones(k), unitaries=given)  # lazy imports and one-time buffers
        tracemalloc.start()
        try:
            CircuitSpec(k=k, n=n, weights=np.ones(k), unitaries=given)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.75 * k * (2**n) ** 2 * 16, type(given)


@pytest.mark.parametrize("seed", [0, 23])
def test_spec_draws_a_generator_as_haar_random_unitaries_and_keeps_the_draw(seed):
    # a generator, the Haar source of unitary_source, is drawn by the spec itself as reflectors, with the bits of
    # the direct draw, and the dense stack of the same seed is the spec's dense form bit for bit
    k, n = 4, 3
    gen, direct, dense_gen = rng(seed), rng(seed), rng(seed)
    spec = CircuitSpec(k=k, n=n, weights=np.ones(k), unitaries=gen)
    assert_same_spec(spec, CircuitSpec(k=k, n=n, weights=np.ones(k), unitaries=haar_reflectors(k, 2**n, direct)))
    us = spec.unitaries
    assert isinstance(us, Reflectors) and us.shape == (k, 2**n, 2**n) and "dense" not in vars(us)
    assert not any(a.flags.writeable for a in (*us.panels, us.taus, us.signs))
    dense = haar_reflectors(k, 2**n, dense_gen).dense
    assert dense.tobytes() == spec.unitaries.dense.tobytes() and spec.unitaries.dense is us.dense
    assert not dense.flags.writeable and dense.flags.owndata and dense.base is None
    # the generator is left where the direct draw leaves it, so what is drawn from it next is unchanged
    assert gen.random() == direct.random() == dense_gen.random()


@pytest.mark.parametrize("kind, data", [
    ("haar", None), ("pauli_strings", ["XZ", "ZY"]), ("permutation", [[1, 0, 3, 2], [3, 2, 1, 0]]),
    ("explicit", [matrix_to_pairs(pauli_string_matrix(p)) for p in ("XX", "IZ")]),
])
def test_unitary_sources_hand_over_read_only_matrices(kind, data):
    source = {"kind": kind, "seed": 4} if data is None else {"kind": kind, "data": data}
    k, n, unitaries = unitary_source({"K": 2, "n": 2, "unitaries": source})
    if kind == "haar":
        # a Haar source is its generator, undrawn, and the spec from_json builds draws from it
        assert isinstance(unitaries, np.random.Generator)
        unitaries = haar_reflectors(k, 2**n, unitaries)
    assert (k, n) == (2, 2) and len(unitaries) == 2
    spec = CircuitSpec(k=2, n=2, weights=np.ones(2), unitaries=unitaries)
    from_json = CircuitSpec.from_json(json.dumps({"K": 2, "n": 2, "weights": [1.0, 1.0], "unitaries": source}))
    assert_same_spec(from_json, spec)
    if kind == "haar":
        # the draw is one read-only stack of reflectors that the spec keeps
        assert spec.unitaries is unitaries and not unitaries.taus.flags.writeable
        unitaries = unitaries.dense
    elif kind == "explicit":
        # spelled-out matrices are a tuple, stacked into the spec's own array
        assert isinstance(unitaries, tuple) and spec.unitaries.dense.base is None
        assert not any(np.shares_memory(spec.unitaries.dense, u) for u in unitaries)
    else:
        # Pauli strings and permutations are a tuple of monomials, stacked into one read-only monomial stack
        assert isinstance(unitaries, tuple) and all(isinstance(u, Monomial) for u in unitaries)
        assert isinstance(spec.unitaries, Monomial) and spec.unitaries.images.shape == (2, 4)
        assert not spec.unitaries.images.flags.writeable and not spec.unitaries.phases.flags.writeable
        oracle = pauli_string_matrix if kind == "pauli_strings" else permutation_matrix
        np.testing.assert_array_equal(spec.unitaries.dense, [oracle(d) for d in data])
        unitaries = tuple(u.dense for u in unitaries)
    np.testing.assert_array_equal(spec.unitaries.dense, unitaries)


def test_haar_spec_from_json_peaks_below_two_copies_of_its_unitaries():
    # the unitaries themselves take K N^2 16 bytes; the draw, check and store may add one more such amount
    k, n = 4, 7
    doc = json.dumps({"K": k, "n": n, "weights": [0.5] * k, "unitaries": {"kind": "haar", "seed": 3}})
    CircuitSpec.from_json(doc)  # lazy imports and one-time buffers are not the spec's
    tracemalloc.start()
    try:
        spec = CircuitSpec.from_json(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(spec.unitaries) == k
    assert peak <= 2.0 * k * (2**n) ** 2 * 16


@pytest.mark.parametrize("change, fields, message", [
    ({"extra": 1}, None, "config key 'extra' is not read by a circuit spec"),
    ({"variant": "spiral"}, {"variant": "spiral"}, "unknown variant 'spiral'"),
    ({"mixing": "dft", "mixing_matrix": [[[1.0, 0.0]]]}, {"mixing": "dft", "mixing_matrix": np.ones((1, 1))},
     "mixing matrix only applies to secret mixing"),
    ({"weights": [1.0, 2.0, 0.5, 0.5]}, {"weights": [1.0, 2.0, 0.5, 0.5]},
     r"weights must be finite and lie in \[-1, 1\]"),
], ids=["unread-key", "unknown-variant", "misplaced-mixing-matrix", "weight-out-of-range"])
def test_from_json_checks_the_whole_document_before_the_draw(monkeypatch, change, fields, message):
    # at n = 16 the K Haar unitaries would take 128 GiB of reflectors, so a bad document must fail before any draw
    def no_draw(*args):
        raise RuntimeError("drew the Haar unitaries")

    monkeypatch.setattr(lcuout.circuit, "haar_reflectors", no_draw)
    doc = {"K": 4, "n": 16, "weights": [0.5] * 4, "unitaries": {"kind": "haar", "seed": 1}}
    with pytest.raises(ValueError, match=message):
        CircuitSpec.from_json(json.dumps({**doc, **change}))
    if fields is not None:
        # a spec handed the generator itself checks the same fields before it draws
        with pytest.raises(ValueError, match=message):
            CircuitSpec(**{"k": 4, "n": 16, "weights": [0.5] * 4, "unitaries": rng(1), **fields})
    with pytest.raises(RuntimeError, match="drew the Haar unitaries"):  # a good document is drawn next
        CircuitSpec.from_json(json.dumps(doc))


def test_spec_rejects_nan_weights():
    u = (np.eye(2, dtype=complex),) * 2
    with pytest.raises(ValueError, match="finite"):
        CircuitSpec(k=2, n=1, weights=np.array([0.5, np.nan]), unitaries=u)


EYES = (np.eye(4, dtype=complex),) * 4


@pytest.mark.parametrize("call, message", [
    (lambda: PublicLayout(4, 2.0), "n must be an integer, got 2.0"),
    (lambda: PublicLayout(4.0, 2), "K must be an integer, got 4.0"),
    (lambda: CircuitSpec(k=4.0, n=2, weights=[0.5] * 4, unitaries=EYES), "K must be an integer, got 4.0"),
    (lambda: CircuitSpec(k=4, n=2.0, weights=[0.5] * 4, unitaries=EYES), "n must be an integer, got 2.0"),
    (lambda: CircuitSpec(k=2, n=True, weights=[0.5] * 2, unitaries=EYES[:2]), "n must be an integer, got True"),
    (lambda: PublicParams(k=4, n=2.0, unitaries=EYES), "n must be an integer, got 2.0"),
    (lambda: sweep_instance(4, 2.0, 1), "n must be an integer, got 2.0"),
    (lambda: keygen(4.0), "K must be an integer, got 4.0"),
    (lambda: keygen(True), "K must be an integer, got True"),
], ids=["layout-n", "layout-k", "spec-k", "spec-n", "spec-n-bool", "public-n", "sweep-instance-n", "keygen-k",
        "keygen-k-bool"])
def test_k_and_n_must_be_integers(call, message):
    # refused before numpy or range sees them, and a bool is not taken for 0 or 1
    with pytest.raises(ValueError, match=message):
        call()


def test_k_and_n_may_be_numpy_integers():
    k, n = np.int64(4), np.int64(2)
    assert PublicLayout(k, n).k == 4
    assert CircuitSpec(k=k, n=n, weights=[0.5] * 4, unitaries=EYES).big_n == 4
    assert keygen(k).weights.tobytes() == keygen(4).weights.tobytes()
    assert all(a.tobytes() == b.tobytes() for a, b in zip(sweep_instance(k, n, 1), sweep_instance(4, 2, 1)))


@pytest.mark.parametrize("weights", [np.array([0.5 + 0.3j, 0.2, 0.1, 0.4]), [0.5 + 0.3j, 0.2, 0.1, 0.4],
                                     np.array([0.5, 0.2, 0.1, 0.4], dtype=complex)], ids=["array", "list", "zero-imag"])
def test_complex_weights_are_refused(weights):
    # not cast to their real part, and not a TypeError from inside numpy
    with pytest.raises(ValueError, match="^weights must be real, not complex"):
        CircuitSpec(k=4, n=2, weights=weights, unitaries=EYES)
    with pytest.raises(ValueError, match="^weights must be real, not complex"):
        make_spec(k=4, n=2, seed=1).with_weights(weights)
    with pytest.raises(ValueError, match="^key weights must be real, not complex"):
        SecretKey("hadamard", weights)


WEIGHT_READERS = {
    "checked_parameters": lambda w: checked_parameters(len(w), 1, w, "hadamard", "reflection", None),
    "key": lambda w: SecretKey("hadamard", w),
}


@pytest.mark.parametrize("read", WEIGHT_READERS.values(), ids=WEIGHT_READERS)
@pytest.mark.parametrize("weights", [["0.5", 0.5], ["0.5", "0.2"], [{}, 0.5], [None, 0.5], [True, False],
                                     np.array([1, 0], dtype=bool), [0.5 + 0j, 0.5]],
                         ids=["string", "strings", "object", "null", "bools", "bool-array", "complex"])
def test_weights_of_another_dtype_than_integer_or_float_are_refused(read, weights):
    # one dtype rule for both readers of weights: no string parsed as a number, no bool taken as 1 or 0, and no
    # TypeError from inside numpy
    with pytest.raises(ValueError, match="weights must be real, not complex, bool, text or an object"):
        read(weights)


def test_a_bool_among_numbers_is_refused():
    # numpy promotes [True, 0.5] to [1.0, 0.5]; the element types are read before it can
    message = "weights must be real, not complex, bool, text or an object; got dtype bool$"
    with pytest.raises(ValueError, match="^key " + message):
        SecretKey("hadamard", [True, 0.5])
    with pytest.raises(ValueError, match="^" + message):
        checked_parameters(2, 1, [0.5, True], "hadamard", "reflection", None)
    for weights in ((0.5, np.bool_(False)), [np.array(True), 0.5], [[0.5, True]]):
        with pytest.raises(ValueError, match="^" + message):
            checked_parameters(2, 1, weights, "hadamard", "reflection", None)
    assert SecretKey("hadamard", [1, 0.5]).weights.tolist() == [1.0, 0.5]
    assert checked_parameters(2, 1, [1, 0.5], "hadamard", "reflection", None)[0].tolist() == [1.0, 0.5]


@pytest.mark.parametrize("read", WEIGHT_READERS.values(), ids=WEIGHT_READERS)
def test_integer_weights_are_read_as_floats(read):
    for weights in ([1, 0], np.array([1, 0], dtype=np.int8), np.array([1, 0], dtype=np.float32)):
        w = read(weights)
        w = w[0] if isinstance(w, tuple) else w.weights
        assert w.dtype == np.float64 and w.tolist() == [1.0, 0.0]


X_PAIRS = [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]
BAD_PAIRS = {
    "string": [[[0, 0], ["1", 0]], [[1, 0], [0, 0]]],
    "bool": [[[0, 0], [True, 0]], [[1, 0], [0, 0]]],
    "null": [[[0, 0], [1, None]], [[1, 0], [0, 0]]],
    "object": [[[0, 0], {}], [[1, 0], [0, 0]]],
    "number": [[[0, 0], 1], [[1, 0], [0, 0]]],
    "triple": [[[0, 0], [1, 0, 0]], [[1, 0], [0, 0]]],
    "ragged": [[[0, 0], [1, 0]], [[1, 0]]],
    "empty-row": [[], []],
    "no-rows": [],
    "not-a-list": "X",
}


@pytest.mark.parametrize("where", ["explicit", "mixing_matrix"])
@pytest.mark.parametrize("bad", BAD_PAIRS.values(), ids=BAD_PAIRS)
def test_pair_entries_must_be_pairs_of_json_numbers(where, bad):
    # "1" is no 1, true no 1 and null no NaN; a ragged row is no numpy error
    doc = {"K": 2, "n": 1, "weights": [0.9, 0.4], "unitaries": {"kind": "explicit", "data": [X_PAIRS, X_PAIRS]}}
    if where == "explicit":
        doc["unitaries"]["data"][0] = bad
    else:
        doc.update(mixing="secret", mixing_matrix=bad)
    with pytest.raises(ValueError, match=r"^matrix entries must be \[re, im\] pairs$"):
        CircuitSpec.from_json(json.dumps(doc))


def test_pair_entries_keep_their_bits_integers_and_signed_zeros_included():
    m = matrix_from_pairs(json.loads("[[[1, -0.0], [-0.0, 0]], [[0.1, -2], [3, 0.5]]]"))
    expected = np.array([[1.0, -0.0, -0.0, 0.0], [0.1, -2.0, 3.0, 0.5]]).view(complex)
    assert m.dtype == np.complex128 and m.tobytes() == expected.tobytes()


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
    for a, b in zip(spec.unitaries.dense, drawn):
        np.testing.assert_array_equal(a, b)
    # the same seed gives the same draw, and the drawn matrices written out explicitly load bit for bit
    doc["unitaries"] = {"kind": "explicit", "data": [matrix_to_pairs(u) for u in drawn]}
    again = CircuitSpec.from_json(json.dumps(doc))
    np.testing.assert_array_equal(spec.weights, again.weights)
    for a, b in zip(spec.unitaries.dense, again.unitaries.dense):
        np.testing.assert_array_equal(a, b)


def test_spec_json_round_trip_explicit_and_secret():
    mix = haar_random_unitary(2, 5)
    spec = CircuitSpec.from_json(json.dumps({
        "K": 2, "n": 1, "weights": [0.9, 0.4], "mixing": "secret", "mixing_matrix": matrix_to_pairs(mix),
        "unitaries": {"kind": "explicit", "data": [matrix_to_pairs(pauli_string_matrix(p)) for p in "XZ"]},
    }))
    np.testing.assert_array_equal(spec.weights, [0.9, 0.4])
    np.testing.assert_array_equal(spec.mixing_matrix, mix)
    np.testing.assert_array_equal(spec.unitaries.dense[0], [[0, 1], [1, 0]])
    np.testing.assert_array_equal(spec.unitaries.dense[1], [[1, 0], [0, -1]])
    assert spec.variant == "reflection"


@pytest.mark.parametrize("change, message", [
    ({"mixing": "secret"}, "secret mixing requires an explicit mixing matrix"),
    ({"mixing_matrix": matrix_to_pairs(np.eye(2))}, "mixing matrix only applies to secret mixing"),
    ({"colour": "red", "seed": 1}, "config key 'colour' is not read by a circuit spec; config key 'seed'"),
    ({"K": 0}, "need at least one unitary, got k=0"),
    ({"n": 0}, "need at least one system qubit, got n=0"),
    ({"mixing": "fourier"}, "unknown mixing 'fourier'"),
    ({"variant": "spiral"}, "unknown variant 'spiral'"),
    ({"unitaries": {"kind": "fourier"}}, "unknown unitary source kind 'fourier'"),
], ids=["secret-without-matrix", "matrix-without-secret", "unread-keys", "no-unitaries", "no-qubits",
        "unknown-mixing", "unknown-variant", "unknown-source-kind"])
def test_spec_json_rejects_an_unread_key_and_a_misplaced_mixing_matrix(change, message):
    doc = {"K": 2, "n": 1, "weights": [0.9, 0.4], "unitaries": {"kind": "pauli_strings", "data": ["X", "Z"]}}
    with pytest.raises(ValueError, match=message):
        CircuitSpec.from_json(json.dumps({**doc, **change}))


@pytest.mark.parametrize("call, message", [
    (lambda: unitary_source([1, 2]), "a circuit document must be a JSON object"),
    (lambda: matrix_from_pairs([[1.0, 0.0]]), r"matrix entries must be \[re, im\] pairs"),
    (lambda: rotation_gate(0.5, "spiral"), "unknown variant 'spiral'"),
    (lambda: output_states(make_spec(k=2, n=1, seed=1), np.ones(4) / 2), r"state has shape \(4,\), expected \(2,\)"),
], ids=["document-not-an-object", "pairs-not-3d", "gate-variant", "state-shape"])
def test_circuit_inputs_of_the_wrong_form_are_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_pauli_string_matrix():
    np.testing.assert_array_equal(pauli_string_matrix("Y"), [[0, -1j], [1j, 0]])
    xz = pauli_string_matrix("XZ")
    np.testing.assert_array_equal(xz, np.kron(pauli_string_matrix("X"), pauli_string_matrix("Z")))
    np.testing.assert_allclose(xz @ xz, np.eye(4), atol=1e-15)


def test_permutation_matrix():
    # column t holds e_{perm[t]}: basis state t maps to perm[t]
    p = permutation_matrix([2, 0, 1])
    for t, target in enumerate([2, 0, 1]):
        col = np.zeros(3)
        col[target] = 1
        np.testing.assert_array_equal(p[:, t], col)
    np.testing.assert_allclose(p @ p.T, np.eye(3), atol=1e-15)


def test_monomials_hold_the_oracle_entries_bit_for_bit():
    # every Pauli string on up to 3 qubits, and a few permutations: same support, and the kron entry's bits
    # (signed zeros included) as the phase, since the phases are multiplied in the order np.kron multiplies
    labels = ["".join(p) for n in (1, 2, 3) for p in itertools.product("IXYZ", repeat=n)]
    pairs = [(pauli_string_matrix(s), pauli_string_monomial(s)) for s in labels]
    pairs += [(permutation_matrix(p), permutation_monomial(p)) for p in ([0], [1, 0], [2, 0, 1, 3], [])]
    for dense, mono in pairs:
        size = len(mono.images)
        assert mono.shape == dense.shape and not mono.images.flags.writeable and not mono.phases.flags.writeable
        support = np.zeros(dense.shape, dtype=bool)
        support[mono.images, np.arange(size)] = True
        assert not dense[~support].any()
        assert dense[mono.images, np.arange(size)].tobytes() == mono.phases.tobytes()
        np.testing.assert_array_equal(mono.dense, dense)
    for bad, message in [(lambda: pauli_string_monomial("XQ"), "unknown Pauli letter 'Q' in 'XQ'"),
                         (lambda: pauli_string_monomial(5), "a Pauli label must be a string, got 5"),
                         (lambda: permutation_monomial([0, 0, 1]), "not a permutation"),
                         (lambda: permutation_monomial([1.0, 0]), "not a permutation"),
                         (lambda: Monomial(np.array([0.0, 1.0]), np.ones(2)), "images must be integers"),
                         (lambda: Monomial([0, 1], np.ones(3)), "need one shape")]:
        with pytest.raises(ValueError, match=message):
            bad()


def test_a_monomial_spec_holds_and_applies_no_dense_matrix():
    mono = tuple(pauli_string_monomial(s) for s in ("XY", "ZZ", "IY", "YX"))
    spec = CircuitSpec(k=4, n=2, weights=[0.9, 0.5, -0.3, 1.0], unitaries=mono)
    assert isinstance(spec.unitaries, Monomial) and spec.unitaries.images.shape == (4, 4)
    # a monomial stack is kept as it is, and shared by with_weights
    again = CircuitSpec(k=4, n=2, weights=spec.weights, unitaries=spec.unitaries)
    assert again.unitaries is spec.unitaries and spec.with_weights(np.zeros(4)).unitaries is spec.unitaries
    assert "dense" not in vars(spec.unitaries)  # nothing so far built the N x N form
    psi = random_state(4, 3)
    x = row_matrix(spec, psi)
    apply_circuit(spec, np.ones(spec.extended_dim) / np.sqrt(spec.extended_dim))
    output_states(spec, psi)
    assert "dense" not in vars(spec.unitaries)
    dense = np.stack([pauli_string_matrix(s) for s in ("XY", "ZZ", "IY", "YX")])
    np.testing.assert_array_equal(x, dense @ psi)
    # the dense form is built once, on first use, and kept read-only
    assert spec.unitaries.dense is spec.unitaries.dense and not spec.unitaries.dense.flags.writeable
    np.testing.assert_array_equal(spec.unitaries.dense, dense)
    for given, message in [(mono[:3], "expected 4 unitaries, got 3"),
                           (mono[:3] + (pauli_string_monomial("XYZ"),), r"unitary 3 has shape \(8, 8\), expected \(4, 4\)")]:
        with pytest.raises(ValueError, match=message):
            CircuitSpec(k=4, n=2, weights=np.ones(4), unitaries=given)


@pytest.mark.parametrize("shape", [(4,), (3, 4), (4, 4), (4, 3), (3, 4, 2), (2, 3, 4, 2)],
                         ids=["state", "K-by-N", "K-by-N-square", "N-by-S", "K-by-N-by-S", "batch-K-by-N-by-S"])
def test_monomial_matmul_has_the_bits_of_the_dense_matmul(shape):
    # K = 3 Pauli strings and permutations, whose phases +-1 and +-i make every product exact; np.matmul reads
    # a 2-D operand as one matrix of N rows, so the (K, N) operand broadcasts only where K = N
    paulis = [[pauli_string_monomial(s) for s in labels] for labels in (("XY", "ZZ", "YI"), ("IY", "YX", "ZI"))]
    stacks = [Monomial(np.stack([u.images for u in us]), np.stack([u.phases for u in us])) for us in paulis]
    stacks.append(Monomial(np.array([[1, 0, 3, 2], [3, 2, 1, 0], [0, 2, 1, 3]]), np.ones((3, 4))))
    gen = rng(31)
    x = gen.standard_normal(shape) + 1j * gen.standard_normal(shape)
    for mono in stacks:
        for u in (mono, mono[1]):
            try:
                dense = u.dense @ x
            except ValueError:  # np.matmul refuses to broadcast (3, 4, 4) against (3, 4): so must the monomial
                with pytest.raises(ValueError):
                    u @ x
                continue
            got = u @ x
            assert got.shape == dense.shape and got.tobytes() == dense.tobytes()
    with pytest.raises(ValueError, match=r"cannot apply a monomial of shape \(3, 4, 4\) to an array of shape \(1,\)"):
        stacks[0] @ np.ones(1)
    with pytest.raises(ValueError, match="cannot apply"):
        stacks[0][0] @ np.ones((2, 3))


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


def _coefficients_as_formed(weights, mixing, variant, mixing_matrix):
    """C row block by row block, ``G2 * (G1[:, 0] * w)`` over ``G2 * (G1[:, 0] * r)``: the reference for C's bits."""
    w = np.asarray(weights, dtype=float)
    k = w.shape[0]
    g1, g2 = {"hadamard": (hadamard_matrix(k), hadamard_matrix(k)), "dft": (dft_matrix(k), dft_matrix(k).conj().T),
              "secret": (hadamard_matrix(k), mixing_matrix)}[mixing]
    r = np.sqrt(1.0 - w * w) * (1.0 if variant == "reflection" else -1.0)
    return np.vstack([g2 * (g1[:, 0] * w), g2 * (g1[:, 0] * r)])


@pytest.mark.parametrize("mixing", ["hadamard", "dft", "secret"])
@pytest.mark.parametrize("variant", ["reflection", "cyclic"])
@pytest.mark.parametrize("k", [1, 2, 4, 8])
def test_coefficients_are_the_input_slice_of_the_block_coefficients(k, mixing, variant):
    weights = rng(70 + k).uniform(-1.0, 1.0, k)
    mix = haar_random_unitary(k, 71 + k) if mixing == "secret" else None
    c = coefficients(weights, mixing, variant, mix)
    coef = block_coefficients(weights, mixing, variant, mix)
    assert coef.shape == (2, k, 2, k, k) and c.shape == (2 * k, k)
    assert c.tobytes() == coef[:, :, 0, 0].reshape(2 * k, k).tobytes()
    assert c.tobytes() == _coefficients_as_formed(weights, mixing, variant, mix).tobytes()
    # each N x N block of the dense circuit unitary is the tensor's combination of the U_t
    spec = make_spec(k=k, n=1, seed=72, mixing="dft" if mixing == "dft" else "hadamard", variant=variant,
                     weights=weights).with_weights(weights, mix)
    big_n = spec.big_n
    blocks = circuit_unitary(spec).reshape(k, 2, big_n, k, 2, big_n)  # rows (i, r, m), columns (j, s, m')
    combined = np.einsum("risjt,tmn->irmjsn", coef, spec.unitaries.dense)
    np.testing.assert_allclose(blocks, combined, rtol=0, atol=1e-12)


def test_coefficients_at_k_128_peak_below_four_mib():
    # C is 2K x K (256 KiB of floats here); the 4K^3 block tensor it is the input-(0, 0) slice of takes 64 MiB
    weights = rng(73).uniform(-1.0, 1.0, 128)
    coefficients(weights)  # lazy imports and one-time buffers are not the call's
    tracemalloc.start()
    try:
        c = coefficients(weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert c.shape == (256, 128)
    assert peak < 4 * 2**20


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
    p00_sim, p00, p0_any, p_std = success_probabilities(spec, psi)
    t_psi = sum(a * (u @ psi) for a, u in zip(alpha, spec.unitaries.dense))
    assert abs(p00 - np.linalg.norm(t_psi) ** 2 / (c * k) ** 2) < 1e-14
    assert p_std >= p00 > 0
    assert p0_any >= p00
    # the index-0 ensemble includes both rotation outcomes
    out = output_states(spec, psi)
    assert p00_sim == out.probability(0, 0)
    assert abs(p0_any - out.probability(0, 0) - out.probability(0, 1)) < 1e-14


def test_success_probabilities_match_the_closed_forms_of_unscaled_coefficients():
    # alpha with max |alpha| = 3.7: the spec holds only beta = alpha / 3.7, and both probabilities ignore the scale
    k, n = 4, 3
    gen = rng(31)
    alpha = np.array([1.0, 1.0, 3.7, 3.7])
    c, beta = scale_coefficients(alpha)
    spec = CircuitSpec(k=k, n=n, weights=beta, unitaries=tuple(haar_random_unitary(8, gen) for _ in range(k)))
    psi = random_state(8, 32)
    _, p00, _, p_std = success_probabilities(spec, psi)
    target_sq = np.linalg.norm(sum(a * (u @ psi) for a, u in zip(alpha, spec.unitaries.dense))) ** 2
    assert abs(p00 - target_sq / (c * k) ** 2) <= 1e-15 * p00
    assert abs(p_std - target_sq / np.sum(np.abs(alpha)) ** 2) <= 1e-15 * p_std


def test_success_probabilities_requires_matching_weights():
    psi = random_state(2, 0)
    dft_spec = make_spec(k=2, n=1, weights=[1.0, 0.5], mixing="dft")
    with pytest.raises(ValueError):
        success_probabilities(dft_spec, psi)


def test_success_probabilities_self_check_raises_check_failed(monkeypatch):
    # the simulated outcome rows are C X and the closed form reads X alone, so a skewed C must be caught
    real = lcuout.circuit.coefficient_matrix
    monkeypatch.setattr(lcuout.circuit, "coefficient_matrix", lambda spec: real(spec) * 1.01)
    spec = make_spec(k=2, n=1, weights=[1.0, 0.5])
    with pytest.raises(CheckFailed, match="closed-form p00 check failed: residual") as info:
        success_probabilities(spec, random_state(2, 0))
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


def searched_counts(states, shots, seed):
    """The per-shot formulation: search every uniform in the cumulative probabilities, then count the cells."""
    p = (np.abs(states) ** 2).ravel()
    cdf = np.cumsum(p)
    cdf[-1] = 1.0
    draws = np.searchsorted(cdf, rng(seed).random(shots), side="right")
    return np.bincount(draws, minlength=p.size).reshape(states.shape)


def _states_with_empty_cells():
    # zero probability in the first, the last and a run of middle cells, so empty bins sit at both ends
    states = output_states(make_spec(k=4, n=3, seed=31), random_state(8, 32)).states.copy()
    states[0, :3] = states[-1, -2:] = states[3, :] = 0.0
    return states / np.linalg.norm(states)


@pytest.mark.parametrize("shots", [1, 2, 7, 1000, 100_000])
@pytest.mark.parametrize("case", ["circuit", "empty-cells", "one-cell", "unit-weights"])
def test_shot_counts_equal_the_per_shot_search(case, shots):
    states = {
        "circuit": lambda: output_states(make_spec(k=4, n=4, seed=29), random_state(16, 30)).states,
        "empty-cells": _states_with_empty_cells,
        "one-cell": lambda: np.eye(1, 6, 4).reshape(2, 3),
        # r = 0: the rotation-1 half holds only rounding, so the cumulative sum can pass 1 before the top cell
        "unit-weights": lambda: output_states(make_spec(k=2, n=2, weights=[1.0, 1.0], seed=26),
                                              random_state(4, 27)).states,
    }[case]()
    for seed in (0, 5, 2**64 + 3):
        counts = shot_counts(states, shots, seed)
        assert counts.shape == states.shape and np.issubdtype(counts.dtype, np.integer)
        assert not counts.flags.writeable and counts.sum() == shots
        np.testing.assert_array_equal(counts, searched_counts(states, shots, seed))


def test_sample_shots_are_the_shot_counts_of_the_outcome_states():
    spec, psi = make_spec(k=4, n=3, seed=33), random_state(8, 34)
    expected = shot_counts(output_states(spec, psi).states, 5000, 35)
    np.testing.assert_array_equal(sample_shots(spec, psi, 5000, 35), expected)
    np.testing.assert_array_equal(expected, searched_counts(output_states(spec, psi).states, 5000, 35))


def test_shot_counts_put_a_uniform_on_a_cell_edge_into_the_next_cell(monkeypatch):
    # the cumulative probabilities 0.25, 0.5, 1, 1 are exact and three uniforms sit on them; a shot lands in the
    # first cell whose cumulative probability exceeds its uniform, so 0.25 counts in cell 1 and 0.5 in cell 2
    monkeypatch.setattr(lcuout.circuit, "rng", lambda seed: SimpleNamespace(random=lambda shots: np.array(
        [0.75, 0.0, 0.5, 0.25])))
    counts = shot_counts(np.sqrt([[0.25, 0.25], [0.5, 0.0]]), 4, 0)
    np.testing.assert_array_equal(counts, [[1, 1], [2, 0]])


@pytest.mark.parametrize("shots", [0, -3])
def test_shot_counts_refuse_fewer_than_one_shot(shots):
    with pytest.raises(ValueError, match="need at least one shot"):
        shot_counts(np.ones((2, 2)) / 2, shots, 0)


# ---- equality ---------------------------------------------------------------

def _equal_contents_twice():
    """Per record type of the package, a builder of one instance; two calls give two instances of equal contents."""
    psi, mask = random_state(4, 5), ~np.eye(4, 4, dtype=bool)

    def spec():
        return make_spec(k=2, n=2, seed=36)

    def phi():
        return coefficient_matrix(spec()) @ row_matrix(spec(), psi)

    return {
        "Monomial": lambda: pauli_string_monomial("XZ"),
        "CircuitSpec": spec,
        "OutcomeStates": lambda: output_states(spec(), psi),
        "ObservedEntries": lambda: observe(phi(), mask),
        "FactorizedResult": lambda: factorized_complete(observe(phi(), mask), coefficient_matrix(spec())),
        "ShuffledUnitary": lambda: shuffle(spec()),
        "CsdFactors": lambda: csd_assemble(spec()),
        "PublicLayout": lambda: PublicLayout(k=2, n=2),
        "PublicParams": lambda: PublicParams(k=2, n=2, unitaries=tuple(map(pauli_string_matrix, ["XZ", "YI"]))),
        "SecretKey": lambda: keygen(2),
        "InversionResult": lambda: invert_with_key(keygen(2), PublicLayout(k=2, n=2), observe(phi(), mask)),
        "AttackResult": lambda: hadamard_attack(PublicLayout(k=2, n=2), phi()),
    }


def test_every_record_type_is_built_above():
    modules = (lcuout.circuit, lcuout.recovery, lcuout.structure, lcuout.trapdoor)
    records = {name for module in modules for name, obj in vars(module).items()
               if isinstance(obj, type) and dataclasses.is_dataclass(obj) and obj.__module__ == module.__name__}
    assert records == set(_equal_contents_twice())


@pytest.mark.parametrize("name", sorted(_equal_contents_twice()))
def test_records_compare_and_hash_by_identity_and_never_raise(name):
    # the arrays a record holds would make a field-wise == raise; identity needs no field
    build = _equal_contents_twice()[name]
    a, b = build(), build()
    assert type(a).__name__ == type(b).__name__ == name
    assert (a == b) is False and (a != b) is True
    assert (a == a) is True and (a != a) is False
    assert (a == "record") is False and len({a, b, a}) == 2
