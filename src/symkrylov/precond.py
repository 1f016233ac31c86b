"""Preconditioners: objects with a .solve(z) applying M^{-1}.

M must be positive definite with symmetry compatible with the problem
class's pairing (core.Structure.pair): real symmetric for cs, whose
pairing is the transpose, Hermitian for ss, sh and hermitian, which
pair through the conjugate transpose; the solver checks this
indirectly through the positivity of q'z in that pairing.  The solver
reads what .solve returns as a complex vector: any array that flattens
to z's length will do, and any other length raises ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import SparseMatrix

# diagonal entries below this fraction of the largest are clipped
JACOBI_FLOOR = 1e-8


@dataclass(frozen=True)
class Identity:
    """M = I.  The solver recognizes this kind and runs the plain
    process, so the reduction to the unpreconditioned run is exact."""

    def solve(self, z: np.ndarray) -> np.ndarray:
        return z.copy()


@dataclass(frozen=True, eq=False)
class Diagonal:
    """M = diag(d) with d real positive; any other d raises ValueError.

    Keeps 1/d beside d, one more real n-vector, and applies M^{-1} as
    z * (1/d): for complex z that is z / d bit for bit, an exact zero's
    sign aside (numpy divides by d + 0j through the same reciprocal),
    without the slower complex division loop.
    """

    d: np.ndarray
    _dinv: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        # a complex entry is refused, not cut to its real part
        d = np.asarray(self.d).reshape(-1)
        if (d.size == 0 or np.any(d.imag != 0.0) or np.any(d.real <= 0.0)
                or not np.all(np.isfinite(d))):
            raise ValueError("diagonal preconditioner needs finite real positive entries")
        object.__setattr__(self, "d", np.asarray(d.real, dtype=np.float64))
        object.__setattr__(self, "_dinv", 1.0 / self.d)

    def solve(self, z: np.ndarray) -> np.ndarray:
        return z * self._dinv


@dataclass(frozen=True)
class Custom:
    """Wrap any callable applying M^{-1}; its output is returned as it
    comes, and the solver converts and checks it."""

    apply_inverse: Callable[[np.ndarray], np.ndarray]

    def solve(self, z: np.ndarray) -> np.ndarray:
        return self.apply_inverse(z)


def jacobi_from_matrix(a) -> object:
    """Diagonal preconditioner from |diag(A)|, floored at a fraction of
    the largest entry.  A structurally zero diagonal (skew classes) has
    nothing to scale by, so fall back to the identity."""
    if isinstance(a, SparseMatrix):
        diag = a.diagonal()
    else:
        diag = np.diagonal(np.asarray(a)).astype(np.complex128)
    mags = np.abs(diag)
    top = float(mags.max()) if mags.size else 0.0
    if top == 0.0:
        return Identity()
    return Diagonal(np.maximum(mags, JACOBI_FLOOR * top))
