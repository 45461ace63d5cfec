"""LCU circuit with a mixed index register and a single rotation qubit.

The circuit acts on index (K outcomes) x rotation (2) x system (N = 2^n)
registers: a mixing layer on the index register, a block-diagonal select
operator applying ``R_t (x) U_t`` controlled on the index, and a second
mixing layer.  Instead of post-selecting one ancilla outcome, every outcome
``(i, r)`` is kept; the unnormalized system states are

    phi[i, r] = sum_t G2[i, t] * G1[t, 0] * <r|R_t|0> * U_t psi

which for Hadamard mixing reduces to ``(1/K) sum_t s[i,t] w_t U_t psi`` on
the rotation-0 branch and the matching ``r_t`` combination on rotation-1.
"""

from __future__ import annotations

import copy
import json
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import (
    UNIT_ATOL, Dense, UnitaryStack, dft_matrix, haar_reflectors, hadamard_matrix, is_unitary, readonly, rng,
)

__all__ = [
    "CheckFailed",
    "CircuitSpec",
    "Monomial",
    "OutcomeStates",
    "apply_circuit",
    "block_coefficients",
    "check_layout",
    "check_state",
    "checked_parameters",
    "circuit_unitary",
    "coefficient_matrix",
    "coefficients",
    "integer_value",
    "list_value",
    "matrix_from_pairs",
    "mixing_layers",
    "output_states",
    "pauli_string_monomial",
    "permutation_monomial",
    "real_array",
    "real_value",
    "reject_unread_keys",
    "rotation_gate",
    "row_matrix",
    "sample_shots",
    "scale_coefficients",
    "shot_counts",
    "success_probabilities",
    "unitary_source",
]

_MIXINGS = ("hadamard", "dft", "secret")
_VARIANTS = ("reflection", "cyclic")
_SPEC_KEYS = ("K", "n", "weights", "unitaries", "mixing", "mixing_matrix", "variant")


class CheckFailed(RuntimeError):
    """A library self-check found a residual above its threshold."""

    def __init__(self, check: str, residual: float):
        super().__init__(f"{check} check failed: residual {residual:.3e}")
        self.check = check
        self.residual = residual


def check_layout(k: int, n: int, variant: str, mixing: str = "hadamard") -> None:
    """Check the sizes, variant and mixing of a circuit, which need no unitary to check.

    ``ValueError`` unless ``k`` and ``n`` are integers (:func:`integer_value`)
    with ``k >= 1`` and ``n >= 1``, ``variant`` and ``mixing`` are known, and
    ``k`` is a power of two under every mixing whose first layer is the
    Hadamard matrix of order K: ``hadamard`` and ``secret``, not ``dft``.
    :class:`CircuitSpec`, :class:`lcuout.trapdoor.PublicLayout` and
    :func:`lcuout.recovery.sweep_instance` all check through it.
    """
    integer_value("K", k)
    integer_value("n", n)
    if k < 1:
        raise ValueError(f"need at least one unitary, got k={k}")
    if n < 1:
        raise ValueError(f"need at least one system qubit, got n={n}")
    if mixing not in _MIXINGS:
        raise ValueError(f"unknown mixing {mixing!r}")
    if variant not in _VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if mixing != "dft" and k & (k - 1):
        raise ValueError(f"{mixing.capitalize()} mixing needs a power-of-two k, got {k}")


def checked_parameters(k, n, weights, mixing, variant, mixing_matrix) -> tuple[np.ndarray, np.ndarray | None]:
    """The weights and mixing matrix of a circuit as a :class:`CircuitSpec` holds them, checked with its layout.

    ``ValueError`` for a layout :func:`check_layout` refuses, weights that are
    not K real numbers in [-1, 1] (1e-12 beyond is clipped back), and a mixing
    matrix that secret mixing lacks, that is not a K x K unitary, or that
    another mixing is given.  Both arrays come back read-only.
    """
    check_layout(k, n, variant, mixing)
    w = real_array("weights", weights)
    if w.shape != (k,):
        raise ValueError(f"expected {k} weights, got shape {w.shape}")
    if not np.all(np.abs(w) <= 1 + 1e-12):
        raise ValueError("weights must be finite and lie in [-1, 1]")
    w = np.clip(w, -1.0, 1.0)
    w.flags.writeable = False
    if mixing != "secret":
        if mixing_matrix is not None:
            raise ValueError(f"mixing matrix only applies to secret mixing, not {mixing!r}")
        return w, None
    if mixing_matrix is None:
        raise ValueError("secret mixing requires an explicit mixing matrix")
    m = readonly(mixing_matrix, complex)
    if m.shape != (k, k):
        raise ValueError(f"mixing matrix has shape {m.shape}, expected {(k, k)}")
    if not is_unitary(m):
        raise ValueError("mixing matrix is not unitary")
    return w, m


@dataclass(frozen=True, eq=False)
class Monomial(UnitaryStack):
    """Unitaries with one nonzero entry per column, held as that entry's row and value.

    ``U e_j = phases[..., j] e_{images[..., j]}``: ``images`` is an integer
    array and ``phases`` a complex array of the same shape, (N,) for one
    unitary or (K, N) for a stack, both held read-only from birth, as a Haar
    draw is, so a spec keeps a monomial stack as given.  ``shape`` is that
    of the matrix or (K, N, N) stack they stand for, and a stack indexes and
    iterates as its K unitaries, so :class:`CircuitSpec` counts and
    shape-checks a tuple of them, or a stack, as it does dense matrices;
    ``U @ x`` is the dense product.  Pauli strings and permutations take
    this form (:func:`pauli_string_monomial`, :func:`permutation_monomial`):
    O(N) memory per unitary, and O(N) to apply one, where the dense form
    needs N^2; a stack's two Gram matrices and involution residuals have
    closed forms in the images and phases, O(K^2 N) and O(K N), so no
    N x N matrix is formed for them either.  Nothing here checks that the
    entries form a unitary; :class:`CircuitSpec` does.  Like every record
    of the package, a monomial compares and hashes by identity, so ``==``
    never raises.
    """

    images: np.ndarray
    phases: np.ndarray

    def __post_init__(self):
        images, phases = readonly(self.images), readonly(self.phases, complex)
        if not np.issubdtype(images.dtype, np.integer):
            raise ValueError(f"monomial images must be integers, got dtype {images.dtype}")
        if images.ndim not in (1, 2) or phases.shape != images.shape:
            raise ValueError(f"monomial images and phases need one shape, (N,) or (K, N), "
                             f"got {images.shape} and {phases.shape}")
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "phases", phases)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.images.shape + self.images.shape[-1:]

    def __len__(self) -> int:
        return len(self.images)

    def __getitem__(self, t) -> "Monomial":
        return Monomial(self.images[t], self.phases[t])

    @cached_property
    def dense(self) -> np.ndarray:
        """The matrix or stack itself, read-only, zero off the one entry per column; built on first use and kept."""
        m = np.zeros(self.shape, dtype=complex)
        np.put_along_axis(m, self.images[..., None, :], self.phases[..., None, :], axis=-2)
        m.flags.writeable = False
        return m

    def __matmul__(self, x) -> np.ndarray:
        """``dense @ x`` with its shape, by scattering each column's one entry: O(N) per column of ``x``.

        As for ``np.matmul``, an ``x`` of shape (N,) is one state, which
        every unitary of a stack applies to, and one of shape (..., N, S) is
        a stack of matrices broadcast against the (K, N, N) stack.  Each
        entry is one product ``phase * x``, so for the exact phases +-1 and
        +-i of Pauli strings and permutations it has the dense product's
        bits.  An ``x`` whose rows (the axis ``np.matmul`` contracts) are
        not N is a ``ValueError``.
        """
        x = np.asarray(x)
        if x.ndim == 0 or x.shape[max(x.ndim - 2, 0)] != self.shape[-1]:
            raise ValueError(f"cannot apply a monomial of shape {self.shape} to an array of shape {x.shape}")
        cols = x[:, None] if x.ndim == 1 else x
        values = self.phases[..., None] * cols
        out = np.empty(values.shape, dtype=complex)
        # out[..., t, images[t, j], :] = values[..., t, j, :], with no t for one unitary
        rows = (np.arange(len(self.images))[:, None], self.images) if self.images.ndim == 2 else (self.images,)
        out[(..., *rows, slice(None))] = values
        return out[..., 0] if x.ndim == 1 else out

    def non_unitary(self) -> np.ndarray:
        """Per unitary of a stack, whether it fails :func:`~lcuout.linalg.is_unitary`, decided in O(N).

        ``U^H U`` has the diagonal ``|p_j|^2`` and, for two columns j != k
        with one image, the entry ``conj(p_j) p_k``.  So ``max|U^H U - I| <=
        1e-10`` holds exactly when the images are a permutation of 0..N-1 and
        every ``||p_j|^2 - 1|`` is at most 1e-10: two phases that pass the
        second test give an entry of modulus about 1 on a shared image.  A
        NaN or inf phase fails.
        """
        big_n = self.images.shape[-1]
        permutes = (np.sort(self.images, axis=-1) == np.arange(big_n)).all(axis=-1)
        p = self.phases
        return ~(permutes & (np.abs(p.real**2 + p.imag**2 - 1) <= UNIT_ATOL).all(axis=-1))

    def trace_gram(self) -> np.ndarray:
        """``tr(U_t^H U_u) = sum_j conj(p_t[j]) p_u[j] [a_t(j) = a_u(j)]`` for a stack, in O(K^2 N).

        Column j of U_t and of U_u (images a, phases p) meet only where they
        share an image.  Each entry sums the products the dense Gram sums,
        less its zeros, so for the exact phases +-1 and +-i of Pauli strings
        and permutations it has the dense Gram's bits.
        """
        shared = self.images[:, None] == self.images[None]
        return np.where(shared, self.phases.conj()[:, None] * self.phases[None], 0).sum(axis=-1)

    def defect_gram(self) -> np.ndarray:
        """:meth:`UnitaryStack.defect_gram` of a stack from ``E_t = diag(|p_t|^2 - 1)``, in O(K^2 N).

        ``U^H U`` is diagonal only when the images are a permutation, which
        they are in every stack a spec keeps (:meth:`non_unitary` refuses any
        other), so the formula holds for those.
        """
        p = self.phases
        d = p.real**2 + p.imag**2 - 1
        k = len(d)
        gram = np.full((k + 1, k + 1), d.shape[-1], dtype=complex)
        gram[:k, :k] = d @ d.T
        gram[k, :k] = d.sum(axis=-1)
        gram[:k, k] = gram[k, :k].conj()
        return gram

    def involution_residuals(self) -> Iterator[float]:
        """``|U_t^2 - I|_F`` for each unitary of a stack, in order, in O(N) each.

        U^2 sends e_j to ``p_j p_{a(j)} e_{a(a(j))}``, with a the images and
        p the phases, so column j of ``U^2 - I`` is ``p_j p_{a(j)} - 1`` on
        the diagonal where ``a(a(j)) = j``, and otherwise holds ``p_j
        p_{a(j)}`` and -1 in two rows.
        """
        images, phases = self.images, self.phases
        square = phases * np.take_along_axis(phases, images, axis=-1)
        fixed = np.take_along_axis(images, images, axis=-1) == np.arange(images.shape[-1])
        return iter(np.sqrt(np.where(fixed, np.abs(square - 1) ** 2, np.abs(square) ** 2 + 1).sum(axis=-1)))


@dataclass(frozen=True, eq=False)
class CircuitSpec:
    """Full description of one circuit instance.

    Attributes:
        k: number of combined unitaries (power of two for Hadamard and secret mixing).
        n: number of system qubits; the system dimension is ``N = 2**n``.
        weights: K real rotation weights, each in [-1, 1].
        unitaries: the K unitaries U_t as one
            :class:`~lcuout.linalg.UnitaryStack`: a
            :class:`~lcuout.linalg.Dense` (K, N, N) array, a (K, N)
            :class:`Monomial` stack or a :class:`~lcuout.linalg.Reflectors`
            stack; given as a generator, the Haar source of
            :func:`unitary_source`, they are drawn from it as reflectors.
        mixing: "hadamard", "dft", or "secret" (requires ``mixing_matrix``).
        mixing_matrix: K x K unitary used when ``mixing == "secret"``.
        variant: "reflection" (symmetric rotation gate) or "cyclic".

    ``unitaries`` may be given as a tuple or a list of N x N matrices, each
    of whose shape is checked before they are copied once into a
    :class:`~lcuout.linalg.Dense` stack, as an array, or as a stack of any
    form, which is kept as given.  The spec holds the array of a dense stack
    and the mixing matrix once, read-only: a complex one that is already
    read-only and owns its data is
    kept as given, not copied; an array of another dtype is converted once
    into the spec's own array; anything else (a writeable array, a view, an
    ``__array__`` holder) is copied, so no later write through the caller's
    reference reaches the spec.

    A tuple or list of :class:`Monomial` unitaries (what the Pauli-string
    and permutation sources of :func:`unitary_source` build) is stacked into
    one monomial stack, and a monomial stack is kept as given; either way
    no N x N matrix is formed, and unitarity is decided in O(K N) by
    :meth:`Monomial.non_unitary`, with the same outcome and message as the
    dense check.

    A ``np.random.Generator`` is drawn from by the spec itself: K Haar
    unitaries of order N as Householder reflectors,
    :func:`~lcuout.linalg.haar_reflectors`, after every check but
    unitarity, so a bad weight, mixing or size costs no draw.  The spec
    keeps the stack as drawn, and a :class:`~lcuout.linalg.Reflectors`
    stack given is kept too; no N x N matrix is formed, and unitarity is
    decided in O(K N^2) by :meth:`~lcuout.linalg.Reflectors.non_unitary`,
    whose bound implies the dense check, with its message.

    Which form the spec holds is decided here alone, and then read only
    through the stack's interface: :func:`row_matrix` and
    :func:`apply_circuit` apply every form with ``@``, ``verify`` reads its
    two Gram matrices, the involution cipher its involution residuals, and
    the dense oracle :func:`circuit_unitary` its ``dense`` array.

    Like every record of the package, a spec compares and hashes by
    identity, so ``==`` never raises and two specs built alike are two.
    """

    k: int
    n: int
    weights: np.ndarray
    unitaries: UnitaryStack
    mixing: str = "hadamard"
    mixing_matrix: np.ndarray | None = None
    variant: str = "reflection"

    def __post_init__(self):
        self._check_parameters()
        given = self.unitaries
        if isinstance(given, np.random.Generator):
            given = haar_reflectors(self.k, self.big_n, given)
        stacked = isinstance(given, UnitaryStack)
        given = given if stacked or isinstance(given, (tuple, list)) else np.asarray(given)
        if len(given) != self.k:
            raise ValueError(f"expected {self.k} unitaries, got {len(given)}")
        for t, shape in enumerate([given.shape[1:]] * self.k if stacked else map(np.shape, given)):
            if shape != (self.big_n,) * 2:
                raise ValueError(f"unitary {t} has shape {shape}, expected {(self.big_n,) * 2}")
        if stacked:
            us = given
        elif all(isinstance(u, Monomial) for u in given):
            us = Monomial(np.stack([u.images for u in given]), np.stack([u.phases for u in given]))
        else:
            us = Dense(given)
        defects = us.non_unitary()
        if any(defects):
            raise ValueError(f"matrix {int(np.argmax(defects))} is not unitary")
        object.__setattr__(self, "unitaries", us)

    def _check_parameters(self):
        """Check and freeze everything but the unitaries: sizes, mixing, variant, weights."""
        w, m = checked_parameters(self.k, self.n, self.weights, self.mixing, self.variant, self.mixing_matrix)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "mixing_matrix", m)

    def with_weights(self, weights: np.ndarray, mixing_matrix: np.ndarray | None = None) -> "CircuitSpec":
        """The same unitaries under other weights, and under secret mixing if ``mixing_matrix`` is given.

        Every check of :meth:`__post_init__` but the unitary loop runs again;
        the unitaries are shared by identity, not copied or re-checked.
        """
        spec = copy.copy(self)
        object.__setattr__(spec, "weights", weights)
        if mixing_matrix is not None:
            object.__setattr__(spec, "mixing", "secret")
            object.__setattr__(spec, "mixing_matrix", mixing_matrix)
        spec._check_parameters()
        return spec

    @property
    def big_n(self) -> int:
        """System dimension N = 2**n."""
        return 2**self.n

    @property
    def extended_dim(self) -> int:
        """Dimension of the full index x rotation x system space."""
        return 2 * self.k * self.big_n

    @classmethod
    def from_json(cls, text: str) -> "CircuitSpec":
        """Load a spec from the interchange JSON schema, whose keys are ``_SPEC_KEYS``; another is a ``ValueError``.

        Checks the document's JSON (:func:`unitary_source`,
        :func:`reject_unread_keys`, the types of the weights and the mixing
        matrix) and hands the source to the spec as it comes, so a Haar
        source is drawn by :meth:`__post_init__`, after the spec's own checks.
        """
        doc = json.loads(text)
        k, n, source = unitary_source(doc)
        reject_unread_keys(doc, _SPEC_KEYS, "a circuit spec")
        return cls(k=k, n=n, weights=[real_value("a weight", w) for w in list_value("weights", doc["weights"])],
                   unitaries=source, mixing=doc.get("mixing", "hadamard"), variant=doc.get("variant", "reflection"),
                   mixing_matrix=matrix_from_pairs(doc["mixing_matrix"]) if "mixing_matrix" in doc else None)


def matrix_from_pairs(data: list) -> np.ndarray:
    """A complex matrix from nested lists of ``[re, im]`` pairs of JSON numbers, one list per row.

    Keeps every bit, signed zeros included.  ``ValueError`` for rows of no
    or unequal length and for an entry that is not two ints or floats.
    """
    rows = data if type(data) is list and data else [[]]
    if any(type(row) is not list or not row or len(row) != len(rows[0]) for row in rows) or any(
            type(e) is not list or len(e) != 2 or not set(map(type, e)) <= {int, float} for r in rows for e in r):
        raise ValueError("matrix entries must be [re, im] pairs")
    return np.array(rows, dtype=float).view(complex)[..., 0]


_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli_string_monomial(label: str) -> Monomial:
    """Tensor product of single-qubit Paulis, e.g. ``"XZI"`` on 3 qubits, as a :class:`Monomial`.

    Built in O(n N) integer bit operations and no N x N matrix; a label that
    is not a string of the letters I, X, Y and Z is a ``ValueError`` naming
    the first letter that is not.  The first letter acts on the most
    significant bit of the basis index.  Letter q moves column j to row
    ``j ^ flip_q`` (X and Y flip its bit) and multiplies its entry by the
    letter's own 2 x 2 entry there; the entries are multiplied in the order
    ``np.kron`` multiplies them, starting from ``1 + 0j``, so each phase has
    the bits of the kron entry, signed zeros included.
    """
    if type(label) is not str:
        raise ValueError(f"a Pauli label must be a string, got {label!r}")
    for ch in label:
        if ch not in _PAULI:
            raise ValueError(f"unknown Pauli letter {ch!r} in {label!r}")
    n = len(label)
    cols = np.arange(2**n)
    images, phases = cols.copy(), np.ones(2**n, dtype=complex)
    for q, ch in enumerate(label):
        shift = n - 1 - q
        bit = (cols >> shift) & 1
        flip = int(ch in "XY")
        images ^= flip << shift
        phases = phases * _PAULI[ch][bit ^ flip, bit]
    return Monomial(images, phases)


def permutation_monomial(images: list[int]) -> Monomial:
    """The unitary sending basis vector ``e_j`` to ``e_images[j]``, as a :class:`Monomial`.

    ``images`` must be a list of the integers 0..N-1 in some order, or it is
    a ``ValueError``; the monomial holds the images as given and every phase
    ``1 + 0j``.
    """
    size = len(list_value("a permutation", images))
    if any(type(i) is not int for i in images) or sorted(images) != list(range(size)):
        raise ValueError("not a permutation of 0..N-1")
    return Monomial(np.array(images, dtype=np.intp), np.ones(size, dtype=complex))


def integer_value(name: str, value) -> int:
    """``value`` if it is an ``int`` or a numpy integer; ``ValueError`` for a bool, a float, a string or a null."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def real_value(name: str, value) -> float:
    """``value`` as a float if it is an int or a float; ``ValueError`` for a bool, a string or a null."""
    if type(value) not in (int, float):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)


def real_array(name: str, values) -> np.ndarray:
    """``values`` as a float array, not copied if one; ``ValueError`` for bool, string, object or complex input.

    A list or tuple with a bool among its numbers is refused too: numpy
    would promote it to a float array, with the bool as 1.0 or 0.0.
    """
    a = np.asarray(values)
    mixed = isinstance(values, (list, tuple)) and any(
        np.asarray(v).dtype.kind == "b" for v in np.asarray(values, dtype=object).flat)
    if mixed or a.dtype.kind not in "iuf":
        raise ValueError(f"{name} must be real, not complex, bool, text or an object; got dtype "
                         f"{'bool' if mixed else a.dtype}")
    return a.astype(float, copy=False)


def list_value(name: str, value) -> list:
    """``value`` if it is a list; ``ValueError`` for a number, a string, a null or an object."""
    if type(value) is not list:
        raise ValueError(f"{name} must be a list, got {value!r}")
    return value


def reject_unread_keys(config: dict, read, reader: str) -> None:
    """``ValueError`` naming every key of ``config`` outside ``read``, the keys that ``reader`` reads."""
    unread = sorted(set(config) - set(read))
    if unread:
        raise ValueError("; ".join(f"config key {key!r} is not read by {reader}" for key in unread))


def unitary_source(doc: dict) -> tuple[int, int, np.random.Generator | tuple[np.ndarray | Monomial, ...]]:
    """``(K, n, source)`` of a spec or public-parameter document, with no Haar draw.

    Raises ``ValueError`` for a document or ``unitaries`` source that is not
    a JSON object, a ``K``, ``n`` or Haar ``seed`` that is not an integer, a
    Haar seed that :func:`~lcuout.linalg.rng` refuses, source ``data`` that
    is not a list, a Pauli label or a permutation that is malformed, and an
    unknown source kind.  A Haar source is the generator of its seed, not
    yet drawn: :class:`CircuitSpec` draws from it after its own checks, so
    no caller draws.  Every other source is the tuple of unitaries it spells
    out, not yet checked as unitaries: :class:`Monomial` ones, built in
    O(n N) each, for ``pauli_strings`` and ``permutation``, and N x N
    matrices for ``explicit``.  So which form a spec holds follows from the
    source kind alone.
    """
    if not isinstance(doc, dict):
        raise ValueError("a circuit document must be a JSON object")
    k, n = integer_value("K", doc["K"]), integer_value("n", doc["n"])
    source = doc["unitaries"]
    if not isinstance(source, dict):
        raise ValueError("the unitaries entry must be a JSON object with a 'kind'")
    kind = source.get("kind")
    if kind == "haar":
        return k, n, rng(integer_value("the Haar seed", source["seed"]))
    if kind == "pauli_strings":
        return k, n, tuple(pauli_string_monomial(s) for s in list_value("the unitaries data", source["data"]))
    if kind == "permutation":
        return k, n, tuple(permutation_monomial(p) for p in list_value("the unitaries data", source["data"]))
    if kind == "explicit":
        return k, n, tuple(matrix_from_pairs(m) for m in list_value("the unitaries data", source["data"]))
    raise ValueError(f"unknown unitary source kind {kind!r}")


def rotation_gate(w: float, variant: str = "reflection") -> np.ndarray:
    """Real orthogonal 2x2 gate with ``<0|R|0> = w`` and ``r = sqrt(1 - w^2)``.

    The reflection form is ``[[w, r], [r, -w]]`` (symmetric, determinant -1);
    the cyclic form ``[[w, r], [-r, w]]`` is the proper rotation, which only
    changes the sign of the rotation-1 branch amplitude.
    """
    w = float(w)
    if not -1.0 <= w <= 1.0:
        raise ValueError(f"weight must lie in [-1, 1], got {w}")
    r = np.sqrt(1.0 - w * w)
    if variant == "reflection":
        return np.array([[w, r], [r, -w]])
    if variant == "cyclic":
        return np.array([[w, r], [-r, w]])
    raise ValueError(f"unknown variant {variant!r}")


def scale_coefficients(alpha: np.ndarray) -> tuple[float, np.ndarray]:
    """Rescale real coefficients by ``c = max_t |alpha_t|`` so max |beta| = 1."""
    alpha = np.asarray(alpha, dtype=float)
    c = float(np.max(np.abs(alpha))) if alpha.size else 0.0
    if c == 0.0:
        raise ValueError("all coefficients vanish; nothing to combine")
    return c, alpha / c


def _index_layers(k: int, mixing: str, mixing_matrix: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    if mixing == "hadamard":
        h = hadamard_matrix(k)
        return h, h
    if mixing == "dft":
        f = dft_matrix(k)
        return f, f.conj().T
    return hadamard_matrix(k), mixing_matrix


def mixing_layers(spec: CircuitSpec) -> tuple[np.ndarray, np.ndarray]:
    """Index-register layers ``(G1, G2)`` so that ``V = (G2 . ) M (G1 . )``.

    Hadamard uses the same symmetric orthogonal matrix twice; DFT uses F
    then its inverse; secret mixing prepares the uniform superposition with
    a Hadamard layer and mixes the outcomes with the secret unitary W.
    """
    return _index_layers(spec.k, spec.mixing, spec.mixing_matrix)


def _rotations(weights: np.ndarray, variant: str) -> np.ndarray:
    """K x 2 x 2 stack of the :func:`rotation_gate` of each weight."""
    return np.stack([rotation_gate(w, variant) for w in weights])


def block_coefficients(
    weights: np.ndarray,
    mixing: str = "hadamard",
    variant: str = "reflection",
    mixing_matrix: np.ndarray | None = None,
) -> np.ndarray:
    """The circuit's coefficient algebra ``coef[r, i, s, j, t] = G2[i, t] R_t[r, s] G1[t, j]``.

    The N x N block of the circuit unitary from (index j, rotation s) to
    (index i, rotation r) is ``sum_t coef[r, i, s, j, t] U_t``; the input
    (0, 0) slice is :func:`coefficients`, and :func:`lcuout.structure.shuffle`
    regroups the whole tensor.  ``weights``, ``mixing``, ``variant`` and
    ``mixing_matrix`` are taken as :func:`coefficients` takes them.
    """
    return _coefficient_tensor(weights, mixing, variant, mixing_matrix, slice(None))


def _coefficient_tensor(weights, mixing, variant, mixing_matrix, inputs: slice) -> np.ndarray:
    """:func:`block_coefficients` restricted to the input rotations ``s`` and indices ``j`` in ``inputs``."""
    w = np.asarray(weights, dtype=float)
    g1, g2 = _index_layers(w.shape[0], mixing, mixing_matrix)
    rot = _rotations(w, variant).transpose(1, 2, 0)[:, inputs]  # (r, s, t)
    g1t = g1.T[inputs]  # (j, t)
    # axes (r, i, s, j, t), multiplied as G2 (R G1): another order moves the last bits of C and of every output
    return g2[None, :, None, None, :] * (rot[:, None, :, None, :] * g1t[None, None, None, :, :])


def coefficients(
    weights: np.ndarray,
    mixing: str = "hadamard",
    variant: str = "reflection",
    mixing_matrix: np.ndarray | None = None,
) -> np.ndarray:
    """2K x K matrix C of K rotation weights under a mixing and a rotation variant.

    Row ``r * K + i`` holds the coefficient multiplying ``U_t psi`` in
    phi[i, r]: the input-(0, 0) slice ``[:, :, 0, 0]`` of
    :func:`block_coefficients`, its two K x K rotation blocks stacked, built
    from the input-(0, 0) operands alone (O(K^2), not the 4K^3 tensor).  For
    Hadamard mixing this is ``s[i, t] w_t / K`` on top and ``s[i, t] r_t /
    K`` below, with ``s[i, t] = +-1`` and ``r_t = sqrt(1 - w_t^2)`` (negated
    for the cyclic variant); the columns are orthogonal with squared norm
    1/K for every supported mixing.  Only the Hadamard order is checked (K
    must be a power of two), and :func:`rotation_gate` refuses a weight
    outside [-1, 1]; secret mixing needs its K x K unitary, which
    :class:`CircuitSpec` checks before :func:`coefficient_matrix` applies
    this formula to it.
    """
    return np.vstack(_coefficient_tensor(weights, mixing, variant, mixing_matrix, slice(0, 1))[:, :, 0, 0])


def coefficient_matrix(spec: CircuitSpec) -> np.ndarray:
    """2K x K matrix C so that stacking the outcome states factors as ``C @ X``.

    The :func:`coefficients` of the spec's weights, mixing and variant.
    """
    return coefficients(spec.weights, spec.mixing, spec.variant, spec.mixing_matrix)


def row_matrix(spec: CircuitSpec, psi: np.ndarray) -> np.ndarray:
    """K x N matrix X whose row t is ``U_t psi``: O(K N^2) for dense or reflector unitaries, O(K N) for monomials."""
    return spec.unitaries @ np.asarray(psi, dtype=complex)


def circuit_unitary(spec: CircuitSpec) -> np.ndarray:
    """Dense circuit unitary ``V = (G2 x I_2N) M (G1 x I_2N)``.

    ``M = sum_t |t><t| (x) R_t (x) U_t`` is the block-diagonal select
    operator.  For ``k == 1`` the mixing layers are the scalar 1 and ``V`` is
    just ``R_0 (x) U_0``.  Building it costs two (2KN)^3 products; the
    package itself uses :func:`apply_circuit`, and this dense form, built
    from the ``dense`` array of the spec's stack, is the oracle the tests
    compare it against.
    """
    g1, g2 = mixing_layers(spec)
    block = 2 * spec.big_n
    m = np.zeros((spec.k * block, spec.k * block), dtype=complex)
    for t, (r, u) in enumerate(zip(_rotations(spec.weights, spec.variant), spec.unitaries.dense)):
        m[t * block : (t + 1) * block, t * block : (t + 1) * block] = np.kron(r, u)
    eye = np.eye(block)
    return np.kron(g2, eye) @ m @ np.kron(g1, eye)


def apply_circuit(spec: CircuitSpec, v: np.ndarray) -> np.ndarray:
    """``circuit_unitary(spec) @ v`` without forming the (2KN)^2 matrix.

    ``v`` has length 2KN in the index x rotation x system order of
    :func:`circuit_unitary`.  Applies ``G1 (x) I``, then ``R_t (x) U_t`` on
    index block t, then ``G2 (x) I``, in O(K N^2 + K^2 N), or O(K N + K^2 N)
    for a :class:`Monomial` stack.
    """
    k, big_n = spec.k, spec.big_n
    v = np.asarray(v, dtype=complex)
    if v.shape != (spec.extended_dim,):
        raise ValueError(f"vector has shape {v.shape}, expected {(spec.extended_dim,)}")
    g1, g2 = mixing_layers(spec)
    rot = _rotations(spec.weights, spec.variant)
    x = np.tensordot(g1, v.reshape(k, 2, big_n), axes=1).transpose(0, 2, 1)  # (t, m, s)
    x = spec.unitaries @ x  # (t, m, s): U_t on both rotation halves
    x = rot @ x.transpose(0, 2, 1)  # (t, r, m)
    return np.tensordot(g2, x, axes=1).reshape(-1)


@dataclass(frozen=True, eq=False)
class OutcomeStates:
    """Unnormalized post-measurement system states for all 2K ancilla outcomes.

    Row ``r * k + i`` of ``states`` holds phi[i, r]; ``probabilities`` are the
    squared 2-norms of the rows and sum to 1 for a normalized input.
    """

    k: int
    states: np.ndarray
    probabilities: np.ndarray

    def state(self, i: int, r: int) -> np.ndarray:
        return self.states[r * self.k + i]

    def probability(self, i: int, r: int) -> float:
        return float(self.probabilities[r * self.k + i])


def check_state(psi: np.ndarray, big_n: int) -> np.ndarray:
    """``psi`` as a complex vector of length ``big_n`` and norm 1.

    ``ValueError`` for another shape, and for a norm that is not finite or is
    more than 1e-10 from 1.  Every function that runs a circuit on an input
    state checks it through here.
    """
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (big_n,):
        raise ValueError(f"state has shape {psi.shape}, expected {(big_n,)}")
    if not abs(np.linalg.norm(psi) - 1.0) <= UNIT_ATOL:
        raise ValueError("input state must be finite and normalized")
    return psi


def output_states(spec: CircuitSpec, psi: np.ndarray) -> OutcomeStates:
    """Evaluate all outcome states as ``C @ X``.

    This path never builds the full circuit unitary; it applies each U_t to
    psi once and combines the rows with :func:`coefficient_matrix`.  The
    dense :func:`circuit_unitary` applied to the extended input is the
    independent oracle these states are tested against.
    """
    return _outcomes(spec, row_matrix(spec, check_state(psi, spec.big_n)))


def _outcomes(spec: CircuitSpec, x: np.ndarray) -> OutcomeStates:
    """The :class:`OutcomeStates` ``C @ x`` of the rows ``x = X`` of a checked input state."""
    states = coefficient_matrix(spec) @ x
    probs = np.einsum("ij,ij->i", states, states.conj()).real
    states.flags.writeable = probs.flags.writeable = False
    return OutcomeStates(k=spec.k, states=states, probabilities=probs)


def success_probabilities(spec: CircuitSpec, psi: np.ndarray) -> tuple[float, float, float, float]:
    """Post-selection probabilities for realizing ``T = sum_t alpha_t U_t`` with the spec's weights.

    The circuit realizes ``T`` through ``beta = alpha / c`` alone, with ``c =
    max_t |alpha_t|`` (:func:`scale_coefficients`), so ``spec.weights`` is
    beta.  Both closed forms are unchanged when alpha is rescaled:
    ``p00 = |T psi|^2 / (c K)^2 = |T_beta psi|^2 / K^2`` and the standard
    prepare-select-unprepare ``p_std = |T psi|^2 / (sum_t |alpha_t|)^2 =
    |T_beta psi|^2 / (sum_t |beta_t|)^2``, with ``T_beta = sum_t beta_t U_t``.
    Returns ``(p00_sim, p00, p0_any, p_std)``: the all-zero outcome
    probability of the simulated circuit, its closed form (the two must
    agree to 1e-12, else :class:`CheckFailed`), the probability that the
    index register alone returns 0, and ``p_std``.
    """
    if spec.mixing != "hadamard":
        raise ValueError("closed-form success probabilities assume Hadamard mixing")
    x = row_matrix(spec, check_state(psi, spec.big_n))
    t_psi = sum(b * row for b, row in zip(spec.weights, x))
    target_sq = float(np.vdot(t_psi, t_psi).real)
    p00 = target_sq / spec.k**2
    p_std = target_sq / float(np.sum(np.abs(spec.weights))) ** 2
    out = _outcomes(spec, x)
    p00_sim = out.probability(0, 0)
    p00_gap = abs(p00 - p00_sim)
    if p00_gap > 1e-12:
        raise CheckFailed("closed-form p00", p00_gap)
    return p00_sim, p00, p00_sim + out.probability(0, 1), p_std


def sample_shots(spec: CircuitSpec, psi: np.ndarray, shots: int, seed: int) -> np.ndarray:
    """Measurement counts over the full (i, r, m) outcome grid: the :func:`shot_counts` of the spec's outcome states.

    Returns a read-only integer array whose entry ``[r * K + i, m]`` counts
    the shots that returned index i, rotation bit r and system basis state
    m; rows follow the layout of :class:`OutcomeStates`.
    """
    return shot_counts(output_states(spec, psi).states, shots, seed)


def shot_counts(states: np.ndarray, shots: int, seed: int) -> np.ndarray:
    """Counts of ``shots`` measurements of outcome states, by inverse-CDF sampling of ``|states|^2``.

    A read-only integer array of the shape of ``states``.  Shot j lands in
    the first cell whose cumulative probability exceeds its uniform u_j
    from ``rng(seed)``; the top cell's is set to 1 against round-off.  The
    uniforms are sorted once and each cell counts those below its
    cumulative probability and at or above the previous cell's, which gives
    the counts of searching every u_j in the cumulative probabilities, in
    O(shots log shots + cells) with no per-shot index.  ``ValueError``
    for ``shots < 1``, for states with no cell, and for a non-finite entry
    or a total probability more than ``2 * cells * UNIT_ATOL`` from 1.  That bound admits every
    :func:`output_states` of a spec the package accepts: its (2K, N) states
    carry total probability ``|V psi|^2`` with ``|psi|`` within UNIT_ATOL of
    1 (:func:`check_state`), and V's layers each leave it within ``UNIT_ATOL``
    times their order: a dense U_t passes with entries of ``U^H U - I`` up to
    UNIT_ATOL, so ``|U_t psi|^2`` may sit N UNIT_ATOL from 1, and a secret
    mixing matrix K UNIT_ATOL.  To first order that is (N + K + 2)
    UNIT_ATOL, below 4KN UNIT_ATOL for every K >= 1 and N >= 2.
    """
    if shots < 1:
        raise ValueError(f"need at least one shot, got {shots}")
    cdf = np.cumsum(np.abs(states) ** 2)
    if not cdf.size:
        raise ValueError(f"no outcome to sample: states of shape {np.shape(states)}")
    tol = 2 * cdf.size * UNIT_ATOL
    if not abs(cdf[-1] - 1.0) <= tol:  # also false for a nan or inf total, which a non-finite entry gives
        raise ValueError(f"outcome probabilities must be finite and sum to 1 within {tol:.3g}, got {float(cdf[-1])!r}")
    cdf[-1] = 1.0  # guard the top bin against float round-off
    uniforms = rng(seed).random(shots)
    uniforms.sort()
    below = np.searchsorted(uniforms, cdf, side="left")
    counts = np.diff(below, prepend=0).reshape(np.shape(states))
    counts.flags.writeable = False
    return counts
