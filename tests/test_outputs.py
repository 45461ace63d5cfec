import re

import numpy as np
import pytest

from lcuout.circuit import CircuitSpec, output_states, scale_coefficients
from lcuout.linalg import hadamard_matrix, haar_random_unitary, random_state, rng
from lcuout.outputs import (
    coefficient_matrix,
    matrix_from_csv,
    matrix_to_csv,
    output_matrix,
    row_matrix,
)
from lcuout.recovery import factorized_complete, observe

from helpers import csv_by_cells, make_spec


@pytest.mark.parametrize("mixing", ["hadamard", "dft"])
def test_coefficient_matrix_columns_orthogonal(mixing):
    spec = make_spec(k=4, n=2, seed=1, mixing=mixing)
    c = coefficient_matrix(spec)
    assert c.shape == (8, 4)
    np.testing.assert_allclose(c.conj().T @ c, np.eye(4) / 4, atol=1e-12)
    if mixing == "hadamard":
        assert np.all(c.imag == 0)


def test_coefficient_matrix_hand_formula():
    # C[(r, i), t] = G2[i, t] * G1[t, 0] * (R_t row r first column)
    spec = make_spec(k=2, n=1, seed=2, weights=[0.8, 0.5])
    c = coefficient_matrix(spec)
    h = hadamard_matrix(2)
    w = spec.weights
    r = np.sqrt(1 - w**2)
    for i in range(2):
        for t in range(2):
            assert abs(c[i, t] - h[i, t] * h[t, 0] * w[t]) < 1e-15
            assert abs(c[2 + i, t] - h[i, t] * h[t, 0] * r[t]) < 1e-15


def test_coefficient_matrix_cyclic_sign():
    ref = make_spec(k=2, n=1, seed=3, weights=[0.8, 0.5])
    cyc = CircuitSpec(k=2, n=1, weights=ref.weights, unitaries=ref.unitaries, variant="cyclic")
    c_ref = coefficient_matrix(ref)
    c_cyc = coefficient_matrix(cyc)
    np.testing.assert_array_equal(c_ref[:2], c_cyc[:2])
    np.testing.assert_array_equal(c_ref[2:], -c_cyc[2:])


def test_row_matrix_is_unitary_rows():
    spec = make_spec(k=4, n=3, seed=4)
    psi = random_state(8, 5)
    x = row_matrix(spec, psi)
    assert x.shape == (4, 8)
    for t in range(4):
        np.testing.assert_allclose(x[t], spec.unitaries.dense[t] @ psi, atol=1e-15)
        assert abs(np.linalg.norm(x[t]) - 1) < 1e-10


@pytest.mark.parametrize("mixing,variant", [("hadamard", "reflection"), ("dft", "reflection"),
                                            ("hadamard", "cyclic")])
def test_output_matrix_factorizes(mixing, variant):
    spec = make_spec(k=4, n=2, seed=6, mixing=mixing, variant=variant)
    psi = random_state(4, 7)
    phi = output_matrix(spec, psi)
    c = coefficient_matrix(spec)
    x = row_matrix(spec, psi)
    assert np.linalg.norm(phi - c @ x) < 1e-12
    # and the matrix stacks the outcome states row-by-row
    out = output_states(spec, psi)
    np.testing.assert_allclose(phi, out.states, atol=1e-13)


def test_output_matrix_rank_bound():
    spec = make_spec(k=4, n=5, seed=8)
    psi = random_state(32, 9)
    phi = output_matrix(spec, psi)
    s = np.linalg.svd(phi, compute_uv=False)
    assert s.size == 8 and np.all(s[4:] < 1e-10 * s[0])


def solve_full(c, phi):
    """X from Phi = C X through the one solver, with every entry observed."""
    return factorized_complete(observe(phi, np.ones(phi.shape, dtype=bool)), c)


def test_full_mask_factorized_solve_inverts_phi():
    # C^dag C = I/K for every mixing, so the exact inverse is X = K C^dag Phi
    base = make_spec(k=4, n=4, seed=10)
    psi = random_state(16, 11)
    for spec in (base, make_spec(k=4, n=4, seed=10, mixing="dft"),
                 base.with_weights(base.weights, haar_random_unitary(4, rng(12)))):
        phi = output_matrix(spec, psi)
        c = coefficient_matrix(spec)
        result = solve_full(c, phi)
        assert result.underdetermined == ()
        np.testing.assert_allclose(result.x, row_matrix(spec, psi), rtol=0, atol=1e-12)
        np.testing.assert_allclose(result.x, 4 * c.conj().T @ phi, rtol=0, atol=1e-12)


def test_full_mask_with_rank_deficient_c_is_rejected():
    c = np.zeros((8, 4), dtype=complex)
    c[:, 0] = 1.0
    with pytest.raises(ValueError, match="coefficient matrix of rank 1 below its 4 columns"):
        solve_full(c, np.zeros((8, 16), dtype=complex))


def test_target_row_combination_scaling_consistency():
    # T psi = alpha @ X = K c phi_{0,0} for Hadamard mixing
    k, n = 4, 3
    gen = rng(12)
    alpha = np.array([1.4, -0.7, 0.9, 0.3])
    c_scale, beta = scale_coefficients(alpha)
    spec = CircuitSpec(k=k, n=n, weights=beta,
                       unitaries=tuple(haar_random_unitary(8, gen) for _ in range(k)))
    psi = random_state(8, 13)
    phi = output_matrix(spec, psi)
    x = solve_full(coefficient_matrix(spec), phi).x
    t_psi = alpha @ x
    direct = sum(a * (u @ psi) for a, u in zip(alpha, spec.unitaries.dense))
    np.testing.assert_allclose(t_psi, direct, atol=1e-10)
    np.testing.assert_allclose(t_psi, k * c_scale * phi[0], atol=1e-10)


def test_output_matrix_is_the_read_only_states_of_output_states():
    spec = make_spec(k=4, n=3, seed=41, weights=[1.0, 0.8, 0.5, 0.3])
    psi = random_state(8, 42)
    phi = output_matrix(spec, psi)
    assert not phi.flags.writeable
    assert phi.tobytes() == output_states(spec, psi).states.tobytes()
    with pytest.raises(ValueError, match="read-only"):
        phi[0, 0] = 0


# ---- serialization -------------------------------------------------------------

def test_csv_round_trip_exact():
    gen = rng(17)
    m = gen.standard_normal((3, 5)) + 1j * gen.standard_normal((3, 5))
    text = matrix_to_csv(m)
    back = matrix_from_csv(text)
    np.testing.assert_array_equal(back, m)  # 17 significant digits round-trip float64


def test_csv_cells_format_as_numpy_scalars_do():
    # signed zeros, a subnormal, extremes, inf and nan: the text is the per-numpy-scalar format, and parses back
    m = np.array([[0.0 - 0.0j, complex(-0.0, 0.0), 5e-324 - 1e300j],
                  [complex(np.inf, -np.inf), complex(np.nan, 1.0), complex(-1.7976931348623157e308, np.nan)]])
    old = "\n".join(",".join(f"{z.real:.17g}{z.imag:+.17g}j" for z in row) for row in m) + "\n"
    text = matrix_to_csv(m)
    assert text == old
    back = matrix_from_csv(text).view(float)
    np.testing.assert_array_equal(back, m.view(float))  # nan where m has nan
    np.testing.assert_array_equal(np.signbit(back), np.signbit(m.view(float)))


SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 1.797e308, -1.797e308, 1 / 3]


@pytest.mark.parametrize("case", ["specials", "real", "1x1", "1xN", "transposed-view", "empty-rows", "no-rows"])
def test_csv_writes_the_bytes_of_the_per_cell_format(case):
    # one % per row over the row's floats: the same text as formatting each cell, for every value and layout
    re, im = np.meshgrid(SPECIAL, SPECIAL[::-1])
    specials = re + 1j * 0.0
    specials.imag = im  # re + 1j * im would turn inf * 1j into nan + inf j
    wide = rng(18).standard_normal((6, 9)) + 1j * rng(19).standard_normal((6, 9))
    m = {"specials": specials, "real": np.array([[1.5, -0.0, np.inf], [np.nan, 5e-324, -2.0]]),
         "1x1": np.array([[complex(-0.0, np.nan)]]), "1xN": specials[:1], "transposed-view": wide[::2, ::3].T,
         "empty-rows": np.zeros((3, 0), complex), "no-rows": np.zeros((0, 4), complex)}[case]
    assert case != "transposed-view" or not m.flags.c_contiguous
    assert matrix_to_csv(m) == csv_by_cells(m)


@pytest.mark.parametrize("m", [np.ones(3), np.float64(1.0), np.ones((2, 2, 2))], ids=["1-D", "0-D", "3-D"])
def test_csv_refuses_an_array_that_is_not_a_matrix_and_names_its_shape(m):
    with pytest.raises(ValueError, match=re.escape(f"a CSV matrix must be 2-D, got shape {np.shape(m)}")):
        matrix_to_csv(m)


def test_csv_skips_comment_lines():
    text = "# tool x\n# config y\n" + matrix_to_csv(np.array([[1 + 2j, 3 - 4j]]))
    back = matrix_from_csv(text)
    np.testing.assert_array_equal(back, [[1 + 2j, 3 - 4j]])


def test_csv_real_values_parse():
    back = matrix_from_csv("0.5,0.25\n-1,2\n")
    np.testing.assert_array_equal(back, [[0.5, 0.25], [-1.0, 2.0]])
