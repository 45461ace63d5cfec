"""Builders shared by the test modules."""

import numpy as np

from lcuout.circuit import CircuitSpec, Monomial
from lcuout.linalg import haar_random_unitary, rng


def make_spec(k=4, n=2, seed=0, mixing="hadamard", variant="reflection", weights=None):
    """A checked spec over K seeded Haar unitaries, with seeded weights on [0.1, 1] unless given."""
    gen = rng(seed)
    if weights is None:
        weights = gen.uniform(0.1, 1.0, k)
    unitaries = tuple(haar_random_unitary(2**n, gen) for _ in range(k))
    return CircuitSpec(k=k, n=n, weights=np.asarray(weights, float), unitaries=unitaries,
                       mixing=mixing, variant=variant)


def assert_same_spec(a, b):
    """``a`` and ``b`` hold equal sizes, weights, mixing, mixing matrix, variant and unitaries, in one form.

    Specs compare by identity, so this reads every field: the arrays element
    by element, and a monomial stack by its images and phases.
    """
    assert (a.k, a.n, a.mixing, a.variant) == (b.k, b.n, b.mixing, b.variant)
    np.testing.assert_array_equal(a.weights, b.weights)
    assert (a.mixing_matrix is None) == (b.mixing_matrix is None)
    np.testing.assert_array_equal(a.mixing_matrix, b.mixing_matrix)
    assert type(a.unitaries) is type(b.unitaries)
    if isinstance(a.unitaries, Monomial):
        np.testing.assert_array_equal(a.unitaries.images, b.unitaries.images)
        np.testing.assert_array_equal(a.unitaries.phases, b.unitaries.phases)
    else:
        np.testing.assert_array_equal(a.unitaries, b.unitaries)
