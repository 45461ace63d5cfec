"""Weight-hiding trapdoor protocol built on the all-outcomes circuit.

The secret key is the weight vector of the rotation gates (plus, in the
secret-mixing scheme, the seed of a hidden mixing unitary whose first row
encodes the normalized weights).  Publishing only outcome magnitudes makes
recovering the weights a phase-retrieval problem, while the key holder can
rebuild the coefficient matrix C and invert the linear map exactly.

The key holder's inversion and the attack's fit both go through
:func:`lcuout.recovery.factorized_complete`, the one solver of Phi = C X; a
full matrix is passed to it as entries that are all observed.

What each step reads: the evaluation and the involution cipher read the
:class:`PublicParams`, the public unitaries included; the key holder's
inversion and the attack read only the :class:`PublicLayout` (K, n, scheme
and rotation variant) and Phi, since C (:func:`key_coefficients`) and the
mixing layers of the Hadamard scheme follow from the layout and the weights
alone.

Also included: the closed-form attack that breaks the Hadamard scheme, for
both rotation variants, when full complex amplitudes leak and fails on
magnitudes alone (no magnitude-only attack is implemented, so that failure
does not show that magnitudes hide the weights), and the involution
encrypt/decrypt demo (squaring the circuit cancels the weights whenever
every U_t is an involution), which checks and applies its usual unitaries,
Pauli strings and permutations, in O(K N) and forms no N x N matrix.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .circuit import (
    CircuitSpec, apply_circuit, check_layout, check_state, checked_parameters, coefficients, integer_value,
    list_value, output_states, real_array, real_value, rotation_gate, sample_shots,
)
from .linalg import INVOLUTION_ATOL, UnitaryStack, haar_random_unitary, hadamard_matrix, rng
from .recovery import ObservedEntries, factorized_complete

__all__ = [
    "AttackResult",
    "InversionResult",
    "PublicLayout",
    "PublicParams",
    "SecretKey",
    "eval_trapdoor",
    "hadamard_attack",
    "invert_with_key",
    "involution_encrypt_decrypt",
    "key_coefficients",
    "key_from_json",
    "key_to_json",
    "key_spec",
    "keygen",
    "mixing_from_key",
]

_SCHEMES = ("hadamard", "secret_mixing")


@dataclass(frozen=True, eq=False)
class PublicLayout:
    """The public sizes and circuit form: K, n, scheme and rotation variant, no unitary.

    Building it checks that the scheme is known and, through
    :func:`~lcuout.circuit.check_layout`, that ``k`` is a power of two (the
    Hadamard layer of both schemes), ``n >= 1`` and the variant is known.
    This is all :func:`hadamard_attack` and :func:`invert_with_key` read,
    and all :meth:`check_key` needs to decide whether a key fits.  Like
    every record of the package, a layout compares and hashes by identity,
    so ``==`` never raises.
    """

    k: int
    n: int
    scheme: str = "hadamard"
    variant: str = "reflection"

    def __post_init__(self):
        if self.scheme not in _SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        check_layout(self.k, self.n, self.variant)

    def check_key(self, key: SecretKey) -> None:
        """``ValueError`` unless ``key`` is of this layout's scheme and holds K weights."""
        if key.scheme != self.scheme:
            raise ValueError(f"key scheme {key.scheme!r} does not match public {self.scheme!r}")
        if key.weights.shape != (self.k,):
            raise ValueError("key length does not match the public parameters")


@dataclass(frozen=True, eq=False)
class PublicParams(PublicLayout):
    """Everything the evaluating party publishes: the :class:`PublicLayout` and the keyword-only unitaries.

    Building it checks the layout, then the unitaries once, through
    ``base_spec``, the zero-weight circuit over them, and keeps the spec's
    read-only :class:`~lcuout.linalg.UnitaryStack` as ``unitaries``: a
    stack given as it is, a :class:`~lcuout.linalg.Dense` stack over a
    tuple of matrices or an array (over the array itself when it is
    read-only and owns its data, else over a copy), the
    :class:`~lcuout.linalg.Reflectors` of the K Haar unitaries the spec
    draws, after the layout checks, from a generator given as
    ``unitaries`` (the Haar source of
    :func:`~lcuout.circuit.unitary_source`), or, for Pauli strings and
    permutations, the (K, N) :class:`~lcuout.circuit.Monomial` stack.
    Neither structured stack holds an N x N matrix, so evaluating a Haar
    public draws and applies its unitaries in O(K N^2).
    Every circuit over them (:func:`key_spec` and so the evaluation and
    the involution cipher) derives from ``base_spec`` with
    ``CircuitSpec.with_weights``; the key holder's inversion needs only the
    layout.  They compare and hash by identity, as their layout does.
    """

    unitaries: UnitaryStack = field(kw_only=True)
    base_spec: CircuitSpec = field(init=False, repr=False)

    def __post_init__(self):
        super().__post_init__()
        base = CircuitSpec(k=self.k, n=self.n, weights=[0.0] * self.k, unitaries=self.unitaries, variant=self.variant)
        object.__setattr__(self, "base_spec", base)
        object.__setattr__(self, "unitaries", base.unitaries)


@dataclass(frozen=True, eq=False)
class SecretKey:
    """Rotation weights plus, for secret mixing, the mixing-completion seed.

    Building one, however it is built, raises ``ValueError`` for an unknown
    scheme, weights that are not one 1-D array of finite real numbers, and a
    secret-mixing key whose gamma is not an integer in [0, 2**64): without a
    fixed gamma, :func:`mixing_from_key` would draw a different mixing
    unitary on every call.  The key holds its own read-only float copy of
    the weights, so a list is accepted and no later write through the
    caller's array reaches the key.  Whether the key fits a layout is
    :meth:`PublicLayout.check_key`'s to decide.  Like every record of the
    package, a key compares and hashes by identity, so ``==`` never raises.
    """

    scheme: str
    weights: np.ndarray
    gamma: int | None = None

    def __post_init__(self):
        if self.scheme not in _SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        w = real_array("key weights", self.weights).copy()
        if w.ndim != 1:
            raise ValueError(f"key weights must be a 1-D array, got shape {w.shape}")
        if not np.isfinite(w).all():
            raise ValueError("key weights must be finite")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)
        if self.scheme == "secret_mixing" and not (type(self.gamma) is int and 0 <= self.gamma < 2**64):
            raise ValueError(f"a secret-mixing key needs an integer gamma in [0, 2**64), got {self.gamma!r}")


def keygen(k: int, scheme: str = "hadamard", seed: int = 0) -> SecretKey:
    """Draw a key: weights uniform on [0.1, 1.0], unit-normalized for secret mixing.

    The secret-mixing scheme also draws gamma, the seed of the Haar-random
    completion of the mixing unitary below its weight-encoding first row.
    ``k`` must be an integer (:func:`~lcuout.circuit.integer_value`) and a
    power of two, since both schemes mix with a Hadamard layer of order K;
    the key has no n, so that is the one layout rule checked here, and
    :class:`SecretKey` checks the scheme.
    """
    if integer_value("K", k) < 1 or k & (k - 1):
        raise ValueError(f"the mixing layer needs a power-of-two k, got {k}")
    gen = rng(seed)
    weights = gen.uniform(0.1, 1.0, k)
    gamma = None
    if scheme == "secret_mixing":
        weights = weights / np.linalg.norm(weights)
        gamma = int(gen.integers(0, 2**63))
    return SecretKey(scheme=scheme, weights=weights, gamma=gamma)


def key_to_json(key: SecretKey) -> str:
    """Serialize the key; the derived mixing matrix itself is never written."""
    return json.dumps(
        {"scheme": key.scheme, "weights": list(map(float, key.weights)), "gamma": key.gamma}
    )


def key_from_json(text: str) -> SecretKey:
    """Parse a key written by :func:`key_to_json`.

    Checks only the JSON types: ``ValueError`` for a document that is not a
    JSON object and for weights that are not a list of real numbers (checked
    as config values are, so a bool or a null is refused).  The key's own
    rules (scheme, finite weights, gamma) are :class:`SecretKey`'s.
    """
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("a key file must hold a JSON object")
    weights = np.array([real_value("a key weight", w) for w in list_value("key weights", doc["weights"])])
    return SecretKey(scheme=doc["scheme"], weights=weights, gamma=doc.get("gamma"))


def mixing_from_key(key: SecretKey) -> np.ndarray:
    """Secret mixing unitary: first row is the normalized weight vector.

    A real Householder reflection maps the first basis vector onto the
    weights; the remaining rows are mixed by a Haar-random unitary drawn
    from gamma, exercising the full freedom below the first row.
    """
    if key.scheme != "secret_mixing":
        raise ValueError("only secret-mixing keys carry a mixing matrix")
    k = key.weights.shape[0]
    u = key.weights / np.linalg.norm(key.weights)
    if k == 1:
        return np.array([[1.0 + 0j]])
    v = np.eye(k)[0] - u
    nv = np.linalg.norm(v)
    householder = np.eye(k) if nv < 1e-12 else np.eye(k) - 2.0 * np.outer(v, v) / nv**2
    w = np.zeros((k, k), dtype=complex)
    w[0, 0] = 1.0
    w[1:, 1:] = haar_random_unitary(k - 1, rng(key.gamma))
    return w @ householder


def key_spec(key: SecretKey, pub: PublicParams) -> CircuitSpec:
    """The key holder's circuit: the public unitaries with the secret weights (and mixing).

    Derived from ``pub.base_spec``, so it shares the public unitaries, which
    were checked when ``pub`` was built.  :meth:`PublicLayout.check_key`
    checks that the key fits ``pub``, and ``with_weights`` checks the
    weights and the secret mixing matrix.  Its C is
    :func:`key_coefficients`, which needs only the layout; the evaluation
    and the involution cipher need the spec itself.
    """
    pub.check_key(key)
    return pub.base_spec.with_weights(key.weights, _secret_mixing(key))


def key_coefficients(key: SecretKey, pub: PublicLayout) -> np.ndarray:
    """The key holder's 2K x K matrix C, from the layout and the key alone.

    The same checks and the same bits as
    ``coefficient_matrix(key_spec(key, pub))``, with no public unitary:
    :meth:`PublicLayout.check_key`, then
    :func:`~lcuout.circuit.checked_parameters` of the key's weights (and
    secret mixing matrix) under ``pub.variant``, as ``key_spec`` checks them.
    """
    pub.check_key(key)
    mixing = "hadamard" if key.scheme == "hadamard" else "secret"
    weights, mixing_matrix = checked_parameters(pub.k, pub.n, key.weights, mixing, pub.variant, _secret_mixing(key))
    return coefficients(weights, mixing, pub.variant, mixing_matrix)


def _secret_mixing(key: SecretKey) -> np.ndarray | None:
    """The key's secret mixing matrix (:func:`mixing_from_key`), None for a Hadamard key."""
    return mixing_from_key(key) if key.scheme == "secret_mixing" else None


def eval_trapdoor(
    key: SecretKey,
    pub: PublicParams,
    psi: np.ndarray,
    shots: int | None = None,
    seed: int = 0,
) -> np.ndarray:
    """Run the circuit and publish the outcome magnitudes |Phi|^2, never the phases.

    Exact probabilities when ``shots`` is None, else the frequencies
    ``counts / shots`` of :func:`~lcuout.circuit.sample_shots`; either way a
    2K x N array in the row layout of Phi.
    """
    spec = key_spec(key, pub)
    if shots is None:
        return np.abs(output_states(spec, psi).states) ** 2
    return sample_shots(spec, psi, shots, seed) / shots


@dataclass(frozen=True, eq=False)
class InversionResult:
    x: np.ndarray
    target: np.ndarray
    underdetermined: tuple[int, ...]


def _entries(pub: PublicLayout, obs: ObservedEntries | np.ndarray) -> ObservedEntries:
    # a full matrix becomes entries with every position observed; it must be 2K x 2**n (entries carry a mask
    # of their values' shape)
    values = obs.values if isinstance(obs, ObservedEntries) else np.asarray(obs, dtype=complex)
    expected = (2 * pub.k, 2**pub.n)
    if values.shape != expected:
        raise ValueError(f"expected a 2K x 2**n = {expected[0]} x {expected[1]} matrix, got shape {values.shape}")
    if isinstance(obs, ObservedEntries):
        return obs
    return ObservedEntries(values=values, mask=np.ones(values.shape, dtype=bool))


def invert_with_key(
    key: SecretKey, pub: PublicLayout, obs: ObservedEntries | np.ndarray
) -> InversionResult:
    """Key-holder inversion: rebuild C, solve Phi = C X, combine rows.

    Reads only the layout of ``pub``: C is :func:`key_coefficients`, so a
    :class:`PublicLayout` is enough and no public unitary is needed.
    ``obs`` is either the exact complex output matrix, solved as entries
    that are all observed, or partial observed entries; both go through
    :func:`~lcuout.recovery.factorized_complete`.  Returns the
    recovered X, the combined state sum_t w_t U_t psi, and any columns with
    too few observations to be pinned down.  Raises ``ValueError`` unless
    the matrix is 2K x 2**n.
    """
    entries = _entries(pub, obs)
    result = factorized_complete(entries, key_coefficients(key, pub))
    return InversionResult(x=result.x, target=key.weights @ result.x, underdetermined=result.underdetermined)


@dataclass(frozen=True, eq=False)
class AttackResult:
    weights: np.ndarray
    recoverable: np.ndarray
    residual: float


def hadamard_attack(pub: PublicLayout, phi: np.ndarray) -> AttackResult:
    """Break the Hadamard scheme given full complex amplitudes, for either rotation variant.

    Reads only ``pub.k``, ``pub.n``, ``pub.scheme`` and ``pub.variant``, so
    a :class:`PublicLayout` is enough and no public unitary is needed.  Each
    rotation block of Phi is ``G2 diag(G1[:, 0] w) X`` (resp. ``+-r`` in
    place of w) with the public mixing layers ``G1 = G2 = H``, the
    :func:`~lcuout.linalg.hadamard_matrix` of order K; applying ``G2^T``
    (G2 is real orthogonal) and dividing by ``G1[:, 0]`` undoes the mixing.  The
    rotation-1 block is then multiplied by the gate's own sign of r_t,
    ``rotation_gate(0.0, pub.variant)[1, 0]`` (+1 reflection, -1 cyclic), so
    the blocks are ``y0 = diag(w) X`` and ``y1 = diag(r) X`` with r_t >= 0.
    In closed form over every column,
    ``w_t = s_t sqrt(|y0_t|^2 / (|y0_t|^2 + |y1_t|^2))`` with s_t = -1 where
    ``Re <y1_t, y0_t> < 0`` and +1 otherwise, so w_t = +1 when that product
    is exactly 0.  At |w_t| = 1 (r_t = 0) the sign is not identifiable: w_t
    and -w_t fit Phi alike, the sign moving into row t of X, and the
    rounding left in y1_t decides it.
    A row whose energy ``|y0_t|^2 + |y1_t|^2`` is at most 1e-28 of the largest
    row's carries no weight: it is marked not ``recoverable`` and its weight
    is 0.  The returned residual is the relative misfit of the rank-K
    factorization refit from the recovered weights, with C their
    :func:`~lcuout.circuit.coefficients` under Hadamard mixing and
    ``pub.variant`` — against magnitude-only data it stays large, which is
    the point.  Raises
    ``ValueError`` unless ``phi`` is 2K x 2**n with a nonzero entry, which
    the relative residual needs.
    """
    if pub.scheme != "hadamard":
        raise ValueError("this linear attack applies to the Hadamard scheme")
    entries = _entries(pub, phi)
    phi = entries.values
    if not phi.any():
        raise ValueError("the attack needs a matrix with a nonzero entry; this one is all zero")
    h = hadamard_matrix(pub.k)
    y0, y1 = (h.T @ phi.reshape(2, pub.k, -1)) / h[:, :1]
    y1 *= rotation_gate(0.0, pub.variant)[1, 0]
    e0 = (np.abs(y0) ** 2).sum(axis=1)
    energy = e0 + (np.abs(y1) ** 2).sum(axis=1)
    recoverable = energy > 1e-28 * energy.max()
    sign = np.where((y1.conj() * y0).real.sum(axis=1) < 0, -1.0, 1.0)
    weights = np.zeros(pub.k)
    weights[recoverable] = sign[recoverable] * np.sqrt(e0[recoverable] / energy[recoverable])
    fit = factorized_complete(entries, coefficients(weights, "hadamard", pub.variant))
    residual = float(np.linalg.norm(fit.phi - phi) / np.linalg.norm(phi))
    return AttackResult(weights=weights, recoverable=recoverable, residual=residual)


def involution_encrypt_decrypt(
    pub: PublicParams, psi: np.ndarray, key: SecretKey, key2: SecretKey
) -> float:
    """Round-trip fidelity of the involution cipher for two independent keys.

    When every public unitary is an involution the squared circuit is the
    identity regardless of the weights, so applying a circuit twice decrypts
    whatever it encrypted.  The demo encrypts/decrypts with ``key`` and then
    with ``key2`` and returns the overlap of the final state with the
    extended input — the weight cancellation makes it 1 for any key pair.
    ``psi`` is checked by :func:`~lcuout.circuit.check_state`, as every
    circuit input is, so the overlap is a fidelity in [0, 1].  ``ValueError``
    names the first unitary t with ``|U_t^2 - I|_F > INVOLUTION_ATOL``, read
    from the public stack's
    :meth:`~lcuout.linalg.UnitaryStack.involution_residuals`: O(N) for each
    unitary of a monomial stack, whose circuits also apply in O(K N + K^2
    N), so Pauli strings and permutations need no N x N matrix at any step;
    any other stack is probed in O(K N^2) first, so a Haar stack, almost
    surely no involution, is refused before its dense form.
    """
    if pub.scheme != "hadamard" or pub.variant != "reflection":
        raise ValueError("the involution cipher needs the Hadamard reflection circuit")
    big_n = 2**pub.n
    for t, residual in enumerate(pub.unitaries.involution_residuals()):
        if residual > INVOLUTION_ATOL:
            raise ValueError(f"unitary {t} is not an involution")
    spec, spec2 = key_spec(key, pub), key_spec(key2, pub)
    ext = np.zeros(2 * pub.k * big_n, dtype=complex)
    ext[:big_n] = check_state(psi, big_n)  # index 0, rotation 0 block
    result = ext
    for s in (spec, spec, spec2, spec2):
        result = apply_circuit(s, result)
    return float(np.abs(np.vdot(ext, result)) ** 2)
