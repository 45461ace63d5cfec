"""Toolkit for LCU circuits that keep every ancilla outcome.

Simulates the Hadamard-mixed linear-combination-of-unitaries circuit, collects
the complete set of post-selection outcomes into a low-rank output matrix,
and provides structure checks, matrix-completion solvers, and the
coefficient-hiding trapdoor protocol built on top of it.
"""

from .circuit import (
    CheckFailed,
    CircuitSpec,
    apply_circuit,
    circuit_unitary,
    output_states,
    rotation_gate,
    sample_shots,
    scale_coefficients,
    success_probabilities,
)
from .linalg import (
    dft_matrix,
    hadamard_matrix,
    haar_random_unitary,
    numerical_rank,
    random_state,
    rng,
    svd,
    truncate_rank,
)
from .outputs import (
    coefficient_matrix,
    extract_target,
    output_matrix,
    row_matrix,
)
from .recovery import (
    als_complete,
    factorized_complete,
    make_mask,
    observe,
    recovery_errors,
    svp_complete,
    sweep,
)
from .structure import (
    csd_assemble,
    involution_check,
    shuffle,
    similarity_check,
    singular_multiset_check,
)
from .trapdoor import (
    PublicParams,
    SecretKey,
    eval_trapdoor,
    hadamard_attack,
    invert_with_key,
    involution_encrypt_decrypt,
    keygen,
)

__version__ = "0.1.0"
