"""Toolkit for LCU circuits that keep every ancilla outcome.

Simulates the Hadamard-mixed linear-combination-of-unitaries circuit, collects
the complete set of post-selection outcomes into a low-rank output matrix,
and provides structure checks, matrix-completion solvers, and the
coefficient-hiding trapdoor protocol built on top of it.  Names are imported
from their modules; the package root holds only ``__version__``.
"""

__version__ = "0.1.0"
