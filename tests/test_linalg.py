import re

import numpy as np
import pytest

import lcuout.linalg
from lcuout.circuit import CircuitSpec, Monomial, pauli_string_monomial
from lcuout.linalg import (
    HOUSEHOLDER_BLOCK,
    INVOLUTION_ATOL,
    RANK_RTOL,
    UNIT_ATOL,
    Dense,
    Reflectors,
    dft_matrix,
    haar_random_unitary,
    haar_reflectors,
    hadamard_matrix,
    numerical_rank,
    random_state,
    rng,
    svd,
    truncate_rank,
)

from helpers import (
    apply_by_conj_copy, column_by_column_haar, pauli_string_matrix, qr_haar_unitary, reflector_product,
    reflector_vectors, wy_factors_by_inverse,
)


def test_rng_is_deterministic():
    a = rng(5).standard_normal(8)
    b = rng(5).standard_normal(8)
    np.testing.assert_array_equal(a, b)
    assert not np.allclose(a, rng(6).standard_normal(8))


@pytest.mark.parametrize("seed", [None, True, False, np.bool_(True), 1.5, 1.0, np.float64(1.0), "1", [1]],
                         ids=["none", "true", "false", "numpy-bool", "float", "whole-float", "numpy-float", "str",
                              "list"])
def test_rng_refuses_a_seed_that_is_not_an_integer(seed):
    with pytest.raises(ValueError, match="seed must be an integer"):
        rng(seed)


@pytest.mark.parametrize("seed", [-1, 2**128], ids=["negative", "2**128"])
def test_rng_refuses_a_seed_outside_the_philox_key_range_and_names_it(seed):
    with pytest.raises(ValueError, match=re.escape(f"a seed must lie in [0, 2**128), got {seed}")):
        rng(seed)
    rng(2**128 - 1)  # the largest key


@pytest.mark.parametrize("seed", [np.int64(5), np.uint32(5), np.int8(5)], ids=["int64", "uint32", "int8"])
def test_rng_takes_numpy_integers_as_their_value(seed):
    np.testing.assert_array_equal(rng(seed).standard_normal(8), rng(5).standard_normal(8))


@pytest.mark.parametrize("k", [1, 2, 4, 8, 16])
def test_hadamard_matrix_orthogonal(k):
    h = hadamard_matrix(k)
    np.testing.assert_allclose(h @ h.T, np.eye(k), atol=1e-12)
    # symmetric, entries +-1/sqrt(k)
    np.testing.assert_array_equal(h, h.T)
    np.testing.assert_allclose(np.abs(h), 1 / np.sqrt(k), atol=1e-15)


def test_hadamard_matrix_2x2_values():
    h = hadamard_matrix(2) * np.sqrt(2)
    np.testing.assert_allclose(h, [[1, 1], [1, -1]], atol=1e-15)


def test_hadamard_matrix_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        hadamard_matrix(3)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 6, 8])
def test_dft_matrix_unitary(k):
    f = dft_matrix(k)
    np.testing.assert_allclose(f.conj().T @ f, np.eye(k), atol=1e-12)


def test_dft_matrix_entries():
    k = 5
    f = dft_matrix(k)
    w = np.exp(2j * np.pi / k)
    for j in range(k):
        for t in range(k):
            assert abs(f[j, t] - w ** (j * t) / np.sqrt(k)) < 1e-12


@pytest.mark.parametrize("dim", [1, 2, 5, 16])
@pytest.mark.parametrize("seed", [0, 1, 77])
def test_haar_random_unitary_is_unitary(dim, seed):
    u = haar_random_unitary(dim, seed)
    assert u.shape == (dim, dim)
    np.testing.assert_allclose(u.conj().T @ u, np.eye(dim), atol=1e-12)


def test_haar_random_unitary_seeded():
    np.testing.assert_array_equal(haar_random_unitary(6, 3), haar_random_unitary(6, 3))
    assert not np.allclose(haar_random_unitary(6, 3), haar_random_unitary(6, 4))


@pytest.mark.parametrize("dim", [1, 2, 7, 64])
@pytest.mark.parametrize("seed", [0, 5, 2**40 + 3])
def test_haar_random_unitary_matches_the_out_of_place_draw(dim, seed):
    # the reference draws the same Gaussians and multiplies out one reflector at a time, so it rounds differently
    # from the blocked products: the two agree to 1e-13, and the generator advances by the same draws
    np.testing.assert_allclose(haar_random_unitary(dim, seed), column_by_column_haar(dim, rng(seed)), rtol=0, atol=1e-13)
    gen, ref = rng(seed), rng(seed)
    for _ in range(3):
        np.testing.assert_allclose(haar_random_unitary(dim, gen), column_by_column_haar(dim, ref), rtol=0, atol=1e-13)
    # k successive draws from one generator are the k unitaries of one stack, each bit for bit
    again = rng(seed)
    singles = [haar_random_unitary(dim, again) for _ in range(3)]
    stack = haar_reflectors(3, dim, rng(seed)).dense
    assert stack.shape == (3, dim, dim)
    assert all(u.tobytes() == s.tobytes() for u, s in zip(stack, singles))
    assert gen.random() == ref.random()


@pytest.mark.parametrize("dim", [1, 3, 31, 32, 33, 100])
def test_reflector_dense_form_and_apply_match_the_reflector_product(dim):
    # the blocked dense form and @ against the product of the N reflectors, across one, two and four blocks
    stack = haar_reflectors(3, dim, rng(dim))
    assert len(stack.panels) == -(-dim // HOUSEHOLDER_BLOCK) and stack.shape == (3, dim, dim)
    for t in range(3):
        np.testing.assert_allclose(stack.dense[t], reflector_product(stack, t), rtol=0, atol=1e-14)
    gen = rng(dim + 1)
    for x in (gen.standard_normal(dim), gen.standard_normal((3, dim, 2)) + 1j * gen.standard_normal((3, dim, 2)),
              gen.standard_normal((dim, 5)), gen.standard_normal((2, 1, dim, 3))):
        out = stack @ x
        assert out.shape == np.matmul(stack.dense, x).shape and out.dtype == complex
        np.testing.assert_allclose(out, stack.dense @ x, rtol=0, atol=1e-13 * max(1.0, np.abs(x).max()))
    with pytest.raises(ValueError, match="cannot apply reflectors"):
        stack @ np.ones(dim + 1)


@pytest.mark.parametrize("dim", [1, 2, 3, 31, 32, 33, 100, 128, 256, 257, 1024])
def test_reflector_apply_gives_the_bits_of_the_conjugated_panel_formula(dim):
    # V_b^H rows is formed as conj(V_b^T conj(rows)), which conjugates the few columns applied instead of the
    # panel; conjugation only flips signs, so both forms run the same products and sums and agree bit for bit
    stack = haar_reflectors(4, dim, rng(dim + 3))
    gen = rng(dim + 4)
    for shape in ((dim,), (4, dim, 1), (4, dim, 3), (dim, 5), (2, 4, dim, 2)):
        x = gen.standard_normal(shape) + 1j * gen.standard_normal(shape)
        assert (stack @ x).tobytes() == apply_by_conj_copy(stack, x).tobytes(), shape


@pytest.mark.parametrize("dim", [1, 2, 3, 31, 32, 33, 100, 256])
def test_reflector_factors_match_the_inverse_formula_and_the_block_products(dim):
    # the zlarft recurrence against the closed form it replaced, and the blocks I - V_b T_b V_b^H, multiplied out,
    # against the product of the reflectors; unitary 1 has a tau of 0 (an identity reflector) in its first and its
    # last block
    stack = haar_reflectors(2, dim, rng(dim + 7))
    taus = stack.taus.copy()
    taus[1, dim // 2] = taus[1, dim - 1] = 0.0
    stack = Reflectors(stack.panels, taus, stack.signs)
    factors = stack.factors
    assert len(factors) == len(stack.panels)
    blocks = np.eye(dim, dtype=complex)[None].repeat(2, axis=0)
    for b, (f, ref, v) in enumerate(zip(factors, wy_factors_by_inverse(stack), stack.panels)):
        c0, width = b * HOUSEHOLDER_BLOCK, v.shape[-1]
        assert f.shape == (2, width, width) and not f.flags.writeable
        assert not np.tril(f, -1).any()
        assert np.diagonal(f, axis1=1, axis2=2).tobytes() == taus[:, c0 : c0 + width].tobytes()
        np.testing.assert_allclose(f, ref, rtol=0, atol=1e-13 * np.abs(ref).max())
        for t in range(2):
            vb = reflector_vectors(stack, t)[:, c0 : c0 + width]
            blocks[t] -= (blocks[t] @ vb) @ f[t] @ vb.conj().T
    for t in range(2):
        np.testing.assert_allclose(blocks[t] * stack.signs[t], reflector_product(stack, t), rtol=0, atol=1e-13)
    with pytest.raises(ValueError, match="read-only"):
        factors[-1][0, 0, 0] = 1.0


# E|U_ij|^2 = 1/N, E|U_ij|^4 = 2/(N(N+1)) and E|tr U|^2 = 1 for Haar U; their standard deviations at N = 4 are
# sqrt(3/80), sqrt(1/35 - 1/100) (E|U_ij|^8 = 24/(N(N+1)(N+2)(N+3))) and 1, and E U_ij = 0 with E|U_ij|^2 - |E U_ij|^2 = 1/4.  Each band is 5
# standard errors of the mean over DRAWS unitaries: over seeds 0-19, the largest deviation of any moment of any
# entry was 4.1 of them for the reflectors and 3.3 for the QR oracle; a draw without its phase fix reads 38 and 54.
HAAR_N, DRAWS = 4, 4000


def haar_moments(us):
    """Mean over a (DRAWS, N, N) stack of U_ij, |U_ij|^2 and |U_ij|^4 per entry, and of |tr U|^2, in standard errors."""
    n = us.shape[-1]
    sq = us.real**2 + us.imag**2
    sd = {"first": 0.5, "second": np.sqrt((n - 1) / (n**2 * (n + 1))),
          "fourth": np.sqrt(24 / (n * (n + 1) * (n + 2) * (n + 3)) - (2 / (n * (n + 1))) ** 2), "trace": 1.0}
    z = {"first": np.abs(us.mean(axis=0)) / sd["first"],
         "second": np.abs(sq.mean(axis=0) - 1 / n) / sd["second"],
         "fourth": np.abs((sq**2).mean(axis=0) - 2 / (n * (n + 1))) / sd["fourth"],
         "trace": abs((np.abs(np.trace(us, axis1=1, axis2=2)) ** 2).mean() - 1.0) / sd["trace"]}
    return {name: float(np.max(v)) * np.sqrt(len(us)) for name, v in z.items()}


@pytest.mark.parametrize("sampler", ["reflectors", "qr-oracle"])
@pytest.mark.parametrize("seed", [0, 1])
def test_haar_draws_have_the_haar_moments(sampler, seed):
    if sampler == "reflectors":
        us = haar_reflectors(DRAWS, HAAR_N, rng(seed)).dense
    else:
        gen = rng(seed)
        us = np.stack([qr_haar_unitary(HAAR_N, gen) for _ in range(DRAWS)])
    moments = haar_moments(us)
    assert max(moments.values()) <= 5.0, moments


def test_haar_moments_catch_a_draw_without_its_phase_fix():
    # Householder products without the signs of beta are unitary but not Haar: their diagonal leans negative
    stack = haar_reflectors(DRAWS, HAAR_N, rng(0))
    unfixed = Reflectors(stack.panels, stack.taus, np.ones_like(stack.signs))
    assert haar_moments(unfixed.dense)["first"] > 5.0


@pytest.mark.parametrize("corrupt", ["tau", "nan-vector", "inf-tau", "sign"])
def test_spec_refuses_a_reflector_stack_that_is_not_unitary(corrupt):
    stack = haar_reflectors(4, 8, rng(3))
    panels, taus, signs = [p.copy() for p in stack.panels], stack.taus.copy(), stack.signs.copy()
    if corrupt == "tau":
        taus[2, 3] *= 1 + 1e-9
    elif corrupt == "nan-vector":
        panels[0][2, 5, 1] = np.nan
    elif corrupt == "inf-tau":
        taus[2, 0] = np.inf
    else:
        signs[2, 7] = 1 + 1e-9
    bent = Reflectors(tuple(panels), taus, signs)
    assert list(bent.non_unitary()) == [False, False, True, False]
    with pytest.raises(ValueError, match="matrix 2 is not unitary"):
        CircuitSpec(k=4, n=3, weights=np.ones(4), unitaries=bent)
    assert not CircuitSpec(k=4, n=3, weights=np.ones(4), unitaries=stack).unitaries.non_unitary().any()


def dense_stack():
    """A Haar unitary, a Pauli string, a Haar unitary scaled off unitarity and a real Householder reflection."""
    gen = rng(80)
    v = gen.standard_normal(8)
    return Dense(np.stack([haar_random_unitary(8, gen), pauli_string_matrix("XYZ"),
                           haar_random_unitary(8, gen) * (1 + 1e-6), np.eye(8) - 2 * np.outer(v, v) / (v @ v)]))


def pauli_stack(*labels):
    strings = [pauli_string_monomial(s) for s in labels]
    return Monomial(np.stack([m.images for m in strings]), np.stack([m.phases for m in strings]))


def permutation_stack(phases):
    """Four permutations of 8, two of them involutions, with the given (4, 8) phases."""
    images = [[1, 0, 3, 2, 5, 4, 7, 6], [3, 0, 1, 2, 7, 4, 5, 6], [0, 2, 1, 3, 4, 6, 5, 7], [7, 6, 5, 4, 0, 1, 2, 3]]
    return Monomial(np.array(images), phases)


def e_i_theta_phases():
    """Phases e^{i theta} off the exact +-1, +-i, one of them scaled 1e-6 off the unit circle."""
    phases = np.exp(1j * rng(81).uniform(0, 2 * np.pi, (4, 8)))
    phases[1, 5] *= 1 + 1e-6
    return phases


STACKS = {
    "dense": (dense_stack, False),
    "reflectors": (lambda: haar_reflectors(4, 40, rng(82)), False),  # two blocks of reflectors
    "pauli": (lambda: pauli_stack("XYZ", "ZZI", "IYX", "YXY"), True),
    "permutation": (lambda: permutation_stack(np.array([1, -1, 1j, -1j] * 8).reshape(4, 8)), True),
    "permutation-e-i-theta": (lambda: permutation_stack(e_i_theta_phases()), False),
}


def oracle_grams(dense):
    """The trace Gram, the defect Gram (with I at index K) and the unitarity flags of a dense stack."""
    k, big_n = dense.shape[:2]
    flat = dense.reshape(k, -1)
    defects = dense.conj().transpose(0, 2, 1) @ dense - np.eye(big_n)
    gram = np.full((k + 1, k + 1), big_n, dtype=complex)
    gram[:k, :k] = defects.reshape(k, -1).conj() @ defects.reshape(k, -1).T
    gram[k, :k] = np.trace(defects, axis1=1, axis2=2)
    gram[:k, k] = gram[k, :k].conj()
    return flat.conj() @ flat.T, gram, np.abs(defects).max(axis=(1, 2)) > UNIT_ATOL


def oracle_involution_residuals(dense):
    """``|U_t^2 - I|_F`` of each unitary and ``|(U_t^2 - I) x|`` along the uniform unit x."""
    big_n = dense.shape[-1]
    squares = dense @ dense - np.eye(big_n)
    return np.linalg.norm(squares, axis=(1, 2)), np.linalg.norm(squares @ np.full(big_n, big_n**-0.5), axis=-1)


@pytest.mark.parametrize("make, exact", STACKS.values(), ids=STACKS)
def test_every_stack_form_reads_as_its_dense_stack(make, exact):
    # one interface: the two Grams, the unitarity flags and the involution residuals of every form are those of
    # its dense stack, bit for bit for the exact phases of Pauli strings and permutations
    stack = make()
    got = (stack.trace_gram(), stack.defect_gram(), stack.non_unitary())
    residuals = np.array(list(stack.involution_residuals()))
    if isinstance(stack, Monomial):
        assert "dense" not in vars(stack)  # every closed form reads the images and phases alone
    want = oracle_grams(stack.dense)
    frobenius, probes = oracle_involution_residuals(stack.dense)
    # a form that probes returns its probe where the probe already exceeds the threshold, which then the
    # residual does too
    probed = (probes > INVOLUTION_ATOL) & (not isinstance(stack, Monomial))
    want_residuals = np.where(probed, probes, frobenius)
    assert (residuals > INVOLUTION_ATOL).tolist() == (frobenius > INVOLUTION_ATOL).tolist()
    np.testing.assert_array_equal(got[2], want[2])
    for a, b in [*zip(got[:2], want[:2]), (residuals, want_residuals)]:
        assert a.shape == b.shape
        if exact:
            assert a.tobytes() == b.tobytes()
        else:
            np.testing.assert_allclose(a, b, rtol=1e-14, atol=1e-14 * np.abs(b).max())


def test_reflector_unitarity_bound_covers_the_dense_defect():
    # the bound prod(1 + e_j) - 1 is at least |U^H U - I|_2, so at least every entry of the dense defect
    stack = haar_reflectors(1, 16, rng(4))
    for scale in (1e-12, 1e-9, 1e-6, 1e-3):
        taus = stack.taus.copy()
        taus[0, ::3] *= 1 + scale
        bent = Reflectors(stack.panels, taus, stack.signs)
        u = bent.dense[0]
        defect = np.linalg.norm(u.conj().T @ u - np.eye(16), 2)
        sq = np.concatenate([(np.abs(p[0]) ** 2).sum(axis=0) for p in stack.panels])
        e = np.abs(np.abs(taus[0]) ** 2 * sq - 2 * taus[0].real) * sq
        assert defect <= np.expm1(np.log1p(e).sum()) * (1 + 1e-6) + 1e-14
        assert bool(bent.non_unitary()[0]) == (np.expm1(np.log1p(e).sum()) > 1e-10)


def test_reflectors_check_their_shapes_and_hold_read_only_copies():
    stack = haar_reflectors(2, 40, rng(5))
    with pytest.raises(ValueError, match="do not make one"):
        Reflectors(stack.panels[:1], stack.taus, stack.signs)
    with pytest.raises(ValueError, match="do not make one"):
        Reflectors(stack.panels, stack.taus[:, :-1], stack.signs[:, :-1])
    with pytest.raises(ValueError, match="do not make one"):
        Reflectors(stack.panels, stack.taus, stack.signs[:1])
    taus = stack.taus.copy()
    kept = Reflectors(stack.panels, taus, stack.signs)
    assert kept.panels[0] is stack.panels[0] and not np.shares_memory(kept.taus, taus)
    taus[0, 0] = 7.0
    assert kept.taus[0, 0] == stack.taus[0, 0] and not kept.taus.flags.writeable


@pytest.mark.parametrize("n", [1, 4, 8])
def test_haar_random_unitaries_are_unitary_to_1e_13(n):
    us = haar_reflectors(2, 2**n, rng(n)).dense
    gram = np.einsum("kji,kjl->kil", us.conj(), us)
    assert np.abs(gram - np.eye(2**n)).max() <= 1e-13


def test_haar_random_unitary_accepts_generator():
    gen = rng(9)
    u1 = haar_random_unitary(4, gen)
    u2 = haar_random_unitary(4, gen)  # stream advances
    assert not np.allclose(u1, u2)
    np.testing.assert_allclose(u1.conj().T @ u1, np.eye(4), atol=1e-12)


def test_random_state_normalized():
    psi = random_state(16, 2)
    assert psi.dtype == complex
    assert abs(np.linalg.norm(psi) - 1) < 1e-12
    np.testing.assert_array_equal(psi, random_state(16, 2))


def test_svd_reconstruction_seeded():
    gen = rng(11)
    a = gen.standard_normal((6, 4)) + 1j * gen.standard_normal((6, 4))
    u, s, vh = svd(a)
    assert u.shape == (6, 4) and s.shape == (4,) and vh.shape == (4, 4)
    assert np.all(np.diff(s) <= 0) and np.all(s >= 0)
    np.testing.assert_allclose(u.conj().T @ u, np.eye(4), atol=1e-10)
    np.testing.assert_allclose(vh @ vh.conj().T, np.eye(4), atol=1e-10)
    rel = np.linalg.norm((u * s) @ vh - a) / np.linalg.norm(a)
    assert rel < 1e-10


def test_numerical_rank():
    gen = rng(4)
    c = gen.standard_normal((8, 3)) + 1j * gen.standard_normal((8, 3))
    x = gen.standard_normal((3, 20)) + 1j * gen.standard_normal((3, 20))
    assert numerical_rank(c @ x) == 3
    assert numerical_rank(np.zeros((4, 4))) == 0
    # the cutoff is RANK_RTOL times the top singular value
    assert RANK_RTOL == 1e-10
    assert numerical_rank(np.diag([1.0, 1e-14])) == 1
    assert numerical_rank(np.diag([4.0, 4.0 * 1.5 * RANK_RTOL])) == 2
    assert numerical_rank(np.diag([4.0, 4.0 * RANK_RTOL / 1.5])) == 1


def svd_truncation(a, rank):
    u, s, vh = svd(a)
    return (u[:, :rank] * s[:rank]) @ vh[:rank]


@pytest.mark.parametrize("shape", [(8, 64), (64, 8), (5, 5)])
@pytest.mark.parametrize("complex_input", [False, True])
def test_truncate_rank_matches_svd_truncation(shape, complex_input):
    gen = rng(31)
    a = gen.standard_normal(shape)
    if complex_input:
        a = a + 1j * gen.standard_normal(shape)
    for rank in range(1, min(shape)):
        out = truncate_rank(a, rank)
        assert out.shape == a.shape and out.dtype == a.dtype
        assert np.linalg.norm(out - svd_truncation(a, rank)) <= 1e-12 * np.linalg.norm(a)


def test_truncate_rank_degenerate_cut_uses_svd():
    # sigma_2 == sigma_3: no gap at the cut, so the Gram route must not decide
    gen = rng(32)
    u = haar_random_unitary(6, gen)[:, :4]
    v = haar_random_unitary(40, gen)[:4]
    a = (u * np.array([3.0, 2.0, 2.0, 1.0])) @ v
    np.testing.assert_array_equal(truncate_rank(a, 2), svd_truncation(a, 2))


def test_truncate_rank_tall_complex_input_with_a_gap(monkeypatch):
    # a clear gap at the cut keeps the Gram route, here its tall branch a P, with no SVD fallback
    gen = rng(35)
    u = haar_random_unitary(48, gen)[:, :6]
    v = haar_random_unitary(6, gen)
    a = (u * np.array([4.0, 3.0, 2.5, 0.1, 0.05, 0.01])) @ v
    expected = svd_truncation(a, 3)

    def no_svd(_):
        raise AssertionError("the SVD fallback ran despite a clear gap")

    monkeypatch.setattr(lcuout.linalg, "svd", no_svd)
    out = truncate_rank(a, 3)
    assert out.shape == a.shape and out.dtype == a.dtype
    assert np.linalg.norm(out - expected) <= 1e-12 * np.linalg.norm(a)


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_truncate_rank_zero_and_rank_deficient_inputs(rank):
    gen = rng(33)
    deficient = (gen.standard_normal((6, 2)) + 1j * gen.standard_normal((6, 2))) @ (
        gen.standard_normal((2, 30)) + 1j * gen.standard_normal((2, 30))
    )
    for a in (np.zeros((6, 30), dtype=complex), deficient):
        out = truncate_rank(a, rank)
        assert np.all(np.isfinite(out))
        s = np.linalg.svd(a, compute_uv=False)
        # Eckart-Young: the best rank-r approximation leaves exactly the tail
        residual = np.linalg.norm(a - out)
        assert abs(residual - np.sqrt(np.sum(s[rank:] ** 2))) <= 1e-12 * max(np.linalg.norm(a), 1.0)
        assert np.linalg.matrix_rank(out, tol=1e-10 * max(s[0], 1.0)) <= rank


@pytest.mark.parametrize("shape, rank", [((4, 9), 4), ((4, 9), 7), ((9, 4), 4), ((3, 3), 3)])
def test_truncate_rank_full_rank_request_returns_input(shape, rank):
    a = rng(34).standard_normal(shape)
    assert truncate_rank(a, rank) is a


@pytest.mark.parametrize("call, message", [
    (lambda: dft_matrix(0), "order must be positive, got 0"),
    (lambda: haar_random_unitary(0, 1), "dimension must be positive, got 0"),
    (lambda: random_state(0, 1), "dimension must be positive, got 0"),
    (lambda: svd(np.ones(3)), "expected a matrix, got ndim=1"),
], ids=["dft-order", "haar-dimension", "state-dimension", "svd-vector"])
def test_sizes_and_shapes_that_give_no_matrix_are_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_truncate_rank_rejects_bad_arguments():
    with pytest.raises(ValueError):
        truncate_rank(np.ones(4), 1)
    with pytest.raises(ValueError):
        truncate_rank(np.ones((4, 4)), 0)
