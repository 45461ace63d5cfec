"""The rank-K output matrix Phi = C X and its plain-text codec.

Stacking all 2K outcome states row-wise gives ``Phi = C @ X`` where C is the
2K x K coefficient matrix determined by the mixing layer and the rotation
weights, and row t of X is ``U_t psi``.  C has orthogonal columns of norm
``1/sqrt(K)``, so X is determined by Phi; the one solver of Phi = C X, for a
full matrix (every entry observed) or a partial one, is
:func:`lcuout.recovery.factorized_complete`.  The combined state
``T psi = sum_t alpha_t U_t psi`` is one further row combination of X away,
``alpha @ X``.

Also provides the plain-text round-trip CSV codec for complex matrices:
cells are ``re+imj`` at 17 significant digits (bit-exact).
"""

from __future__ import annotations

import numpy as np

from .circuit import (
    CircuitSpec,
    coefficient_matrix,
    output_states,
    row_matrix,
)

__all__ = [
    "coefficient_matrix",
    "matrix_from_csv",
    "matrix_to_csv",
    "output_matrix",
    "row_matrix",
]


def output_matrix(spec: CircuitSpec, psi: np.ndarray) -> np.ndarray:
    """2K x N matrix of all outcome states, ``Phi = C @ X``.

    The read-only ``states`` of :func:`~lcuout.circuit.output_states`,
    returned as they are; the dense circuit unitary is the oracle it is
    tested against.
    """
    return output_states(spec, psi).states


# -- plain-text serialization -------------------------------------------------

def matrix_to_csv(m: np.ndarray) -> str:
    """Comma-separated complex matrix, one row per line, cells ``re+imj``.

    Each row is one ``%`` operation over the Python floats of its real and
    imaginary parts, side by side, which give the bytes
    ``f"{z.real:.17g}{z.imag:+.17g}j"`` gives cell by cell.  ``ValueError``,
    naming the shape, for an array that is not 2-D.
    """
    if np.ndim(m) != 2:
        raise ValueError(f"a CSV matrix must be 2-D, got shape {np.shape(m)}")
    cells = np.ascontiguousarray(m, dtype=complex)
    row = ",".join(["%.17g%+.17gj"] * cells.shape[-1])
    return "\n".join(row % tuple(parts) for parts in cells.view(float).tolist()) + "\n"


def _cell(cell: str, number: int) -> complex:
    try:
        return complex(cell)
    except ValueError:  # complex()'s own message names neither the cell nor its line
        raise ValueError(f"line {number}: cell {cell.strip()!r} is not a complex number") from None


def matrix_from_csv(text: str) -> np.ndarray:
    """Parse :func:`matrix_to_csv` output; lines starting with '#' are skipped.

    Raises ``ValueError`` for text with no matrix row, a cell that is not a
    complex number and a row whose cell count differs from the first row's,
    naming the line.
    """
    rows = []
    for number, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        cells = line.split(",")
        if rows and len(cells) != len(rows[0]):
            raise ValueError(f"line {number}: row {len(rows) + 1} has {len(cells)} cells, expected {len(rows[0])}")
        rows.append([_cell(cell, number) for cell in cells])
    if not rows:
        raise ValueError("no matrix rows found")
    return np.array(rows, dtype=complex)
