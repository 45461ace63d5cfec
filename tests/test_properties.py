"""Property tests for the single sources of truth: the C formula, the circuit operator, the codecs, the mask draw
and the factorized solve."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcuout.circuit import CircuitSpec, apply_circuit, circuit_unitary, matrix_from_pairs, matrix_to_pairs
from lcuout.linalg import haar_random_unitary, numerical_rank, random_state, rng
from lcuout.outputs import (
    coefficient_matrix,
    matrix_from_csv,
    matrix_to_csv,
    output_matrix,
)
from lcuout.recovery import ObservedEntries, factorized_complete, make_mask

# r = sqrt(1 - w^2) vanishes at the endpoints, so they are drawn on purpose
weights_in_range = st.one_of(st.sampled_from([-1.0, 1.0, -0.0, 0.0]), st.floats(-1.0, 1.0))


@settings(max_examples=60, deadline=None)
@given(
    k=st.sampled_from([1, 2, 4, 8]),
    n=st.integers(1, 3),
    mixing=st.sampled_from(["hadamard", "dft"]),
    variant=st.sampled_from(["reflection", "cyclic"]),
    weights=st.lists(weights_in_range, min_size=8, max_size=8),
    seed=st.integers(0, 2**32),
)
def test_coefficient_columns_orthonormal_up_to_k_and_rank_bounded(k, n, mixing, variant, weights, seed):
    gen = rng(seed)
    spec = CircuitSpec(k=k, n=n, weights=np.array(weights[:k]), mixing=mixing, variant=variant,
                       unitaries=tuple(haar_random_unitary(2**n, gen) for _ in range(k)))
    c = coefficient_matrix(spec)
    assert c.shape == (2 * k, k)
    assert np.abs(c.conj().T @ c - np.eye(k) / k).max() < 1e-12
    assert numerical_rank(output_matrix(spec, random_state(2**n, gen))) <= k


@settings(max_examples=60, deadline=None)
@given(
    k=st.sampled_from([1, 2, 4]),
    n=st.integers(1, 3),
    mixing=st.sampled_from(["hadamard", "dft", "secret"]),
    variant=st.sampled_from(["reflection", "cyclic"]),
    weights=st.lists(weights_in_range, min_size=4, max_size=4),
    seed=st.integers(0, 2**32),
)
def test_apply_circuit_matches_the_dense_unitary(k, n, mixing, variant, weights, seed):
    gen = rng(seed)
    spec = CircuitSpec(k=k, n=n, weights=np.array(weights[:k]), mixing=mixing, variant=variant,
                       unitaries=tuple(haar_random_unitary(2**n, gen) for _ in range(k)),
                       mixing_matrix=haar_random_unitary(k, gen) if mixing == "secret" else None)
    # a random vector over every index and rotation block, not only psi (+) 0
    v = gen.standard_normal(spec.extended_dim) + 1j * gen.standard_normal(spec.extended_dim)
    v /= np.linalg.norm(v)
    assert np.abs(apply_circuit(spec, v) - circuit_unitary(spec) @ v).max() < 1e-12


# finite doubles, with signed zeros and subnormals always in the draw
finite = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def complex_matrices(draw, max_side=4):
    rows, cols = draw(st.integers(1, max_side)), draw(st.integers(1, max_side))
    parts = draw(st.lists(finite, min_size=2 * rows * cols, max_size=2 * rows * cols))
    return np.array(parts, dtype=float).view(complex).reshape(rows, cols)


def same_bits(a, b):
    return a.dtype == b.dtype == np.complex128 and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=200, deadline=None)
@given(complex_matrices())
def test_json_round_trip_is_bit_exact(m):
    assert same_bits(matrix_from_pairs(json.loads(json.dumps(matrix_to_pairs(m)))), m)


@settings(max_examples=200, deadline=None)
@given(complex_matrices())
def test_csv_round_trip_is_bit_exact(m):
    assert same_bits(matrix_from_csv(matrix_to_csv(m)), m)


# off-support entries small enough that a permutation-times-phases matrix stays unitary
tiny = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-300, 1e-20])


@st.composite
def unitaries(draw, dim):
    """Phased permutation matrix whose zero entries are replaced by signed zeros or subnormals."""
    m = np.array(draw(st.lists(tiny, min_size=2 * dim * dim, max_size=2 * dim * dim))).view(complex)
    m = m.reshape(dim, dim)
    images = draw(st.permutations(range(dim)))
    for j, i in enumerate(images):
        theta = draw(st.floats(-math.pi, math.pi))
        m[i, j] = complex(math.cos(theta), math.sin(theta))
    return m


@settings(max_examples=60, deadline=None)
@given(data=st.data(), k=st.sampled_from([1, 2, 4]), n=st.integers(1, 2),
       secret=st.booleans(), variant=st.sampled_from(["reflection", "cyclic"]))
def test_explicit_spec_json_round_trip_is_bit_exact(data, k, n, secret, variant):
    weights = np.array(data.draw(st.lists(weights_in_range, min_size=k, max_size=k)))
    us = [data.draw(unitaries(2**n)) for _ in range(k)]
    mix = data.draw(unitaries(k)) if secret else None
    doc = {"K": k, "n": n, "weights": weights.tolist(), "variant": variant,
           "unitaries": {"kind": "explicit", "data": [matrix_to_pairs(u) for u in us]},
           "mixing": "secret" if secret else "hadamard"}
    if secret:
        doc["mixing_matrix"] = matrix_to_pairs(mix)
    spec = CircuitSpec.from_json(json.dumps(doc))
    assert (spec.k, spec.n, spec.mixing, spec.variant) == (k, n, doc["mixing"], variant)
    assert spec.weights.tobytes() == weights.tobytes()
    assert all(same_bits(a, b) for a, b in zip(spec.unitaries, us))
    if secret:
        assert same_bits(spec.mixing_matrix, mix)
    else:
        assert spec.mixing_matrix is None


@settings(max_examples=100, deadline=None)
@given(data=st.data(), rows=st.integers(1, 10), cols=st.integers(1, 40), seed=st.integers(0, 2**63 - 1),
       density=st.one_of(st.none(), st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
def test_make_mask_is_seeded_and_tops_up_every_column(data, rows, cols, seed, density):
    min_per_column = data.draw(st.integers(1, rows))
    guaranteed = make_mask(rows, cols, seed, "column_guaranteed", density=density, min_per_column=min_per_column)
    again = make_mask(rows, cols, seed, "column_guaranteed", density=density, min_per_column=min_per_column)
    for m in (guaranteed, again):
        assert m.dtype == bool and m.shape == (rows, cols)
    np.testing.assert_array_equal(guaranteed, again)
    per_column = guaranteed.sum(axis=0)
    base_count = 0
    if density is not None:
        uniform = make_mask(rows, cols, seed, "uniform", density=density)
        assert uniform.dtype == bool and uniform.shape == (rows, cols)
        np.testing.assert_array_equal(uniform, make_mask(rows, cols, seed, "uniform", density=density))
        # both modes start from the same first draw of the seed's stream
        assert np.all(guaranteed[uniform])
        base_count = uniform.sum(axis=0)
    # a column that already holds enough entries is left alone; a short one ends with exactly min_per_column
    np.testing.assert_array_equal(per_column, np.maximum(base_count, min_per_column))


def test_make_mask_top_up_picks_every_subset_equally_often():
    # with density=None each column is one top-up: 2 of 4 rows, C(4, 2) = 6 subsets, 1000 columns expected
    # per subset; the chi-square statistic has 5 degrees of freedom and exceeds 20.52 with probability 0.001
    cols = 6000
    mask = make_mask(4, cols, 2024, "column_guaranteed", min_per_column=2)
    codes = (mask * (1 << np.arange(4))[:, None]).sum(axis=0)
    counts = np.bincount(codes, minlength=16)
    subsets = [a | b for a in (1, 2, 4, 8) for b in (1, 2, 4, 8) if a < b]
    assert counts[subsets].sum() == cols
    chi2 = ((counts[subsets] - cols / 6) ** 2 / (cols / 6)).sum()
    assert chi2 < 20.52, (counts[subsets], chi2)


def per_column_factorized(mask, values, c):
    """Inline reference of the factorized solve: one rank check and one set of normal equations per column."""
    k = c.shape[1]
    x = np.empty((k, mask.shape[1]), dtype=complex)
    under = []
    for j in range(mask.shape[1]):
        m = mask[:, j]
        deficient = np.linalg.matrix_rank(m[:, None] * c) < k
        gram = np.einsum("j,ja,jb->ab", m, c.conj(), c)
        lam = (1e-10 if deficient else 0.0) * np.trace(gram).real / k
        rhs = np.einsum("j,ja,j->a", m, c.conj(), values[:, j])
        x[:, j] = np.linalg.solve(gram + (lam + 1e-300) * np.eye(k), rhs)
        if deficient:
            under.append(j)
    return x, tuple(under)


@settings(max_examples=150, deadline=None)
@given(k=st.integers(1, 5), cols=st.integers(1, 60), density=st.floats(0.05, 1.0),
       zero_row=st.booleans(), zero_block=st.booleans(), seed=st.integers(0, 2**32))
def test_factorized_solve_per_pattern_matches_a_per_column_reference_bit_for_bit(
    k, cols, density, zero_row, zero_block, seed
):
    # 2K up to 10 rows, so a pattern's packed key spans two bytes; a zero row of C, or one column of C
    # zeroed on its first K rows, leaves some columns with K or more observations underdetermined
    gen = rng(seed)
    c = gen.standard_normal((2 * k, k)) + 1j * gen.standard_normal((2 * k, k))
    if zero_row:
        c[gen.integers(2 * k)] = 0
    if zero_block:
        c[:k, gen.integers(k)] = 0
    mask = gen.random((2 * k, cols)) < density
    values = np.where(mask, gen.standard_normal(mask.shape) + 1j * gen.standard_normal(mask.shape), 0)
    entries = ObservedEntries(values=values, mask=mask)
    x, under = per_column_factorized(mask, values, c)
    if len(under) == cols:
        with pytest.raises(ValueError):
            factorized_complete(entries, c)
        return
    result = factorized_complete(entries, c)
    assert result.underdetermined == under
    assert result.x.tobytes() == x.tobytes()
    assert result.phi.tobytes() == (c @ x).tobytes()
