"""Builders shared by the test modules."""

import numpy as np

from lcuout.circuit import CircuitSpec
from lcuout.linalg import haar_random_unitary, rng


def make_spec(k=4, n=2, seed=0, mixing="hadamard", variant="reflection", weights=None):
    """A checked spec over K seeded Haar unitaries, with seeded weights on [0.1, 1] unless given."""
    gen = rng(seed)
    if weights is None:
        weights = gen.uniform(0.1, 1.0, k)
    unitaries = tuple(haar_random_unitary(2**n, gen) for _ in range(k))
    return CircuitSpec(k=k, n=n, weights=np.asarray(weights, float), unitaries=unitaries,
                       mixing=mixing, variant=variant)
