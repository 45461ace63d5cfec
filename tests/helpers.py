"""Builders shared by the test modules, and the dense oracles and the Haar instance the tests check the package
against."""

import numpy as np

from lcuout.circuit import CircuitSpec, Monomial
from lcuout.linalg import HOUSEHOLDER_BLOCK, Reflectors, haar_random_unitary, random_state, rng


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
    by element, a monomial stack by its images and phases, and a reflector
    stack by its panels, taus and signs.
    """
    assert (a.k, a.n, a.mixing, a.variant) == (b.k, b.n, b.mixing, b.variant)
    np.testing.assert_array_equal(a.weights, b.weights)
    assert (a.mixing_matrix is None) == (b.mixing_matrix is None)
    np.testing.assert_array_equal(a.mixing_matrix, b.mixing_matrix)
    assert type(a.unitaries) is type(b.unitaries)
    if isinstance(a.unitaries, Monomial):
        np.testing.assert_array_equal(a.unitaries.images, b.unitaries.images)
        np.testing.assert_array_equal(a.unitaries.phases, b.unitaries.phases)
    elif isinstance(a.unitaries, Reflectors):
        assert len(a.unitaries.panels) == len(b.unitaries.panels)
        for pa, pb in zip(a.unitaries.panels, b.unitaries.panels):
            np.testing.assert_array_equal(pa, pb)
        np.testing.assert_array_equal(a.unitaries.taus, b.unitaries.taus)
        np.testing.assert_array_equal(a.unitaries.signs, b.unitaries.signs)
    else:
        np.testing.assert_array_equal(a.unitaries.dense, b.unitaries.dense)


def qr_haar_unitary(dim, gen):
    """A Haar unitary by the QR of a complex Gaussian matrix with R's diagonal phases divided out.

    The sampler the package used before its reflector stacks, kept only as an
    oracle of the Haar law: the moment tests hold it to the bands they hold
    the package's draws to.
    """
    z = (gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def reflector_vectors(stack, t):
    """Unitary t of a :class:`Reflectors` stack as its N x N matrix V of reflector vectors, one per column."""
    big_n = stack.shape[-1]
    v = np.zeros((big_n, big_n), dtype=complex)
    for b, panel in enumerate(stack.panels):
        c0 = b * HOUSEHOLDER_BLOCK
        v[c0:, c0 : c0 + panel.shape[-1]] = panel[t]
    return v


def reflector_product(stack, t):
    """Unitary t of a :class:`Reflectors` stack multiplied out one reflector at a time, ``H_0 ... H_{N-1} diag(s)``."""
    v = reflector_vectors(stack, t)
    u = np.eye(len(v), dtype=complex)
    for j, tau in enumerate(stack.taus[t]):
        u -= tau * np.outer(u @ v[:, j], v[:, j].conj())
    return u * stack.signs[t]


def column_by_column_haar(dim, gen):
    """One Haar unitary drawn as :func:`~lcuout.linalg.haar_reflectors` draws it, unblocked and out of place.

    One call of dim (dim + 1) / 2 complex Gaussians, read as columns of
    lengths dim, ..., 1; each becomes a reflector by LAPACK's zlarfg rule,
    and the unitary is their product, multiplied out one reflector at a time,
    times the signs of the betas.
    """
    z = gen.standard_normal((dim * (dim + 1) // 2, 2)) @ [1, 1j]
    u, start = np.eye(dim, dtype=complex), 0
    signs = np.empty(dim)
    for j in range(dim):
        x = z[start : start + dim - j]
        start += dim - j
        beta = -np.copysign(np.linalg.norm(x), x[0].real)
        v = np.zeros(dim, dtype=complex)
        v[j:] = x / (x[0] - beta)
        v[j] = 1.0
        u -= ((beta - x[0]) / beta) * np.outer(u @ v, v.conj())
        signs[j] = np.sign(beta)
    return u * signs


def wy_factors_by_inverse(stack):
    """The compact-WY factors of a :class:`Reflectors` stack by the closed form ``diag(tau) (I + striu(V_b^H V_b) diag(tau))^-1``.

    The formula the package used before the zlarft recurrence, one general
    inverse per block, kept only as an oracle of ``Reflectors.factors``.
    """
    out = []
    for c0, v in zip(range(0, stack.shape[-1], HOUSEHOLDER_BLOCK), stack.panels):
        tau = stack.taus[:, c0 : c0 + v.shape[-1]]
        upper = np.triu(v.conj().transpose(0, 2, 1) @ v, 1) * tau[:, None, :] + np.eye(v.shape[-1])
        out.append(tau[:, :, None] * np.linalg.inv(upper))
    return out


def apply_by_conj_copy(stack, x):
    """``stack @ x`` with each block's ``V_b^H rows`` formed from a conjugated copy of the panel.

    The formula the package applied reflectors with before it conjugated the
    applied columns instead of the panel, kept only as a bit-for-bit oracle
    of ``Reflectors.__matmul__``.
    """
    x = np.asarray(x)
    y = np.multiply(stack.signs[:, :, None], x[:, None] if x.ndim == 1 else x, dtype=complex)
    for b in reversed(range(len(stack.panels))):
        v, f = stack.panels[b], stack.factors[b]
        rows = y[..., b * HOUSEHOLDER_BLOCK :, :]
        rows -= v @ (f @ (v.conj().transpose(0, 2, 1) @ rows))
    return y[..., 0] if x.ndim == 1 else y


def csv_by_cells(m):
    """The text of :func:`~lcuout.outputs.matrix_to_csv` formatted one cell at a time, ``f"{re:.17g}{im:+.17g}j"``."""
    rows = np.asarray(m, dtype=complex).tolist()
    return "\n".join(",".join(f"{z.real:.17g}{z.imag:+.17g}j" for z in row) for row in rows) + "\n"


# the literals of lcuout.circuit's own table, so the kron entries have the bits of pauli_string_monomial's phases
_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli_string_matrix(label):
    """Tensor product of single-qubit Paulis, e.g. ``"XZI"`` on 3 qubits, built with ``np.kron``.

    The dense oracle that :func:`~lcuout.circuit.pauli_string_monomial` is tested against.
    """
    m = np.array([[1.0 + 0j]])
    for ch in label:
        m = np.kron(m, _PAULI[ch])
    return m


def permutation_matrix(images):
    """Unitary sending basis vector ``e_j`` to ``e_images[j]``; ``images`` must be a list of integers.

    The dense oracle that :func:`~lcuout.circuit.permutation_monomial` is tested against.
    """
    size = len(images)
    m = np.zeros((size, size), dtype=complex)
    m[images, np.arange(size)] = 1.0
    return m


def matrix_to_pairs(m):
    """Nested lists of ``[re, im]`` float pairs, one list per matrix row, as :func:`~lcuout.circuit.matrix_from_pairs`
    reads them."""
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], axis=-1).tolist()


def random_instance(k, n, seed):
    """Seeded Hadamard-mixed spec (weights on [0.1, 1], Haar unitaries) and input state.

    Draws the K weights, then K Haar unitaries as Householder reflectors,
    then psi, from one generator: the spec, handed the generator, checks the
    weights and then draws the unitaries from it.  Its weights are
    :func:`~lcuout.recovery.sweep_instance`'s for the same seed, bit for bit.
    """
    gen = rng(seed)
    weights = gen.uniform(0.1, 1.0, k)
    spec = CircuitSpec(k=k, n=n, weights=weights, unitaries=gen)
    psi = random_state(2**n, gen)
    return spec, psi
