"""Krylov solvers for complex symmetric, skew symmetric and skew
Hermitian systems, with minimum-length solutions of singular problems."""

from .core import (
    EPS,
    LinearOperator,
    NonFiniteError,
    PreconditionerBreakdownError,
    SparseMatrix,
    StructureError,
    SymmetryClass,
    probe_symmetry,
)
from .precond import Custom, Diagonal, Identity, jacobi_from_matrix
from .reflect import Reflection, sym_ortho
from .solver import (
    CONVERGED_REASONS,
    MonitorRecord,
    SolveReport,
    SolverConfig,
    StopReason,
    solve,
)

__all__ = [
    "EPS",
    "LinearOperator",
    "NonFiniteError",
    "PreconditionerBreakdownError",
    "SparseMatrix",
    "StructureError",
    "SymmetryClass",
    "probe_symmetry",
    "Custom",
    "Diagonal",
    "Identity",
    "jacobi_from_matrix",
    "Reflection",
    "sym_ortho",
    "CONVERGED_REASONS",
    "MonitorRecord",
    "SolveReport",
    "SolverConfig",
    "StopReason",
    "solve",
]

__version__ = "0.1.0"
