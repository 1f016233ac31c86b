"""Shared numeric primitives: vectors, sparse matrices, operator wrappers."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

import numpy as np

EPS = float(np.finfo(np.float64).eps)


class PreconditionerBreakdownError(RuntimeError):
    """An inner product that must be positive real came out otherwise."""


class StructureError(ValueError):
    """The operator failed a probe of its declared symmetry class."""


class NonFiniteError(ArithmeticError):
    """An operator or preconditioner produced NaN or Inf."""


class SymmetryClass(str, Enum):
    """Structural classes the solver knows how to exploit."""

    COMPLEX_SYMMETRIC = "cs"
    SKEW_SYMMETRIC = "ss"
    SKEW_HERMITIAN = "sh"
    HERMITIAN = "hermitian"


def as_vector(x, n: Optional[int] = None) -> np.ndarray:
    """Copy input into a 1-d complex128 array, optionally checking length."""
    v = np.asarray(x, dtype=np.complex128).reshape(-1)
    if n is not None and v.shape[0] != n:
        raise ValueError(f"expected length {n}, got {v.shape[0]}")
    return v.copy()


def inner_t(x: np.ndarray, y: np.ndarray) -> complex:
    """Unconjugated (transpose) inner product x^T y."""
    if x.shape != y.shape:
        raise ValueError("inner_t: shape mismatch")
    return complex(np.dot(x, y))


def inner_h(x: np.ndarray, y: np.ndarray) -> complex:
    """Conjugated inner product x^* y."""
    if x.shape != y.shape:
        raise ValueError("inner_h: shape mismatch")
    return complex(np.vdot(x, y))


def norm2(x: np.ndarray) -> float:
    """The 2-norm, safe where the sum of squares under- or overflows.

    A vector whose norm comes out 0 or Inf but which holds a nonzero
    finite entry is scaled by the exact power of two of its largest
    magnitude first, and the norm unscaled after, so norm2(2**k * x) is
    2**k * norm2(x) bit for bit wherever no entry leaves the normal
    range.  Every other vector takes the plain path.
    """
    nrm = float(np.linalg.norm(x))
    if nrm == 0.0 or nrm == math.inf:
        big = float(np.max(np.abs(x), initial=0.0))
        if 0.0 < big < math.inf:
            e = math.frexp(big)[1]
            x = np.asarray(x)
            if np.iscomplexobj(x):
                scaled = np.empty(x.shape, dtype=np.complex128)
                scaled.real = np.ldexp(x.real, -e)
                scaled.imag = np.ldexp(x.imag, -e)
            else:
                scaled = np.ldexp(x, -e)
            nrm = math.ldexp(float(np.linalg.norm(scaled)), e)
    return nrm


@dataclass
class SparseMatrix:
    """Square sparse matrix in CSR form, built from COO triplets.

    Duplicate entries are summed.  The matvec uses an unbuffered
    scatter-add so the result does not depend on entry order.  The
    arrays are treated as immutable once built: the row of each entry
    is computed from indptr once, here.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    _rows: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._rows = np.repeat(np.arange(self.n), np.diff(self.indptr))

    @classmethod
    def from_coo(cls, n: int, rows, cols, vals) -> "SparseMatrix":
        rows = np.asarray(rows, dtype=np.int64).reshape(-1)
        cols = np.asarray(cols, dtype=np.int64).reshape(-1)
        vals = np.asarray(vals, dtype=np.complex128).reshape(-1)
        if not (rows.shape == cols.shape == vals.shape):
            raise ValueError("COO triplet arrays must have equal length")
        if rows.size and (rows.min() < 0 or rows.max() >= n or cols.min() < 0 or cols.max() >= n):
            raise ValueError("COO index out of range")
        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        if rows.size:
            keep = np.ones(rows.size, dtype=bool)
            keep[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
            group = np.cumsum(keep) - 1
            summed = np.zeros(int(group[-1]) + 1, dtype=np.complex128)
            np.add.at(summed, group, vals)
            rows, cols, vals = rows[keep], cols[keep], summed
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.add.at(indptr, rows + 1, 1)
        np.cumsum(indptr, out=indptr)
        return cls(n=n, indptr=indptr, indices=cols, data=vals)

    @classmethod
    def from_dense(cls, a: np.ndarray) -> "SparseMatrix":
        a = np.asarray(a, dtype=np.complex128)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("dense input must be square")
        # np.nonzero walks the array in row-major order, which is CSR
        # order already, and a dense array holds no duplicates; adding
        # 0.0 turns a -0.0 part into +0.0 as from_coo's summation does,
        # so both builds give the same arrays bit for bit
        rows, cols = np.nonzero(a)
        n = a.shape[0]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        return cls(n=n, indptr=indptr, indices=cols.astype(np.int64, copy=False),
                   data=a[rows, cols] + 0.0)

    @property
    def nnz(self) -> int:
        return int(self.data.size)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.complex128).reshape(-1)
        if x.shape[0] != self.n:
            raise ValueError("matvec: length mismatch")
        y = np.zeros(self.n, dtype=np.complex128)
        np.add.at(y, self._rows, self.data * x[self.indices])
        return y

    def to_dense(self) -> np.ndarray:
        a = np.zeros((self.n, self.n), dtype=np.complex128)
        a[self._rows, self.indices] += self.data
        return a

    def diagonal(self) -> np.ndarray:
        d = np.zeros(self.n, dtype=np.complex128)
        on_diag = self._rows == self.indices
        np.add.at(d, self._rows[on_diag], self.data[on_diag])
        return d


@dataclass
class LinearOperator:
    """Matrix-free operator with a declared symmetry class.

    `apply` computes A @ x.
    """

    n: int
    symmetry: SymmetryClass
    apply: Callable[[np.ndarray], np.ndarray]
    _applies: int = field(default=0, repr=False)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        self._applies += 1
        y = np.asarray(self.apply(x), dtype=np.complex128).reshape(-1)
        if y.shape[0] != self.n:
            raise ValueError("operator returned wrong length")
        return y

    @classmethod
    def from_matrix(cls, a, symmetry: SymmetryClass) -> "LinearOperator":
        if isinstance(a, SparseMatrix):
            mat = a
        else:
            mat = SparseMatrix.from_dense(np.asarray(a))
        return cls(n=mat.n, symmetry=symmetry, apply=mat.matvec)


# the symmetry probe draws PROBE_PAIRS vector pairs, two operator applies
# each, from a generator seeded with PROBE_SEED, so every solve probes alike
PROBE_PAIRS = 2
PROBE_SEED = 20260822


def probe_symmetry(op: LinearOperator) -> float:
    """Check the declared symmetry on PROBE_PAIRS random vector pairs.

    Returns the worst relative defect.  Raises StructureError (a
    ValueError) when the operator visibly violates its declared class,
    and NonFiniteError when a product holds NaN or Inf.
    """
    rng = np.random.default_rng(PROBE_SEED)
    worst = 0.0
    anorm_est = 0.0
    cls = op.symmetry
    transpose = cls in (SymmetryClass.COMPLEX_SYMMETRIC, SymmetryClass.SKEW_SYMMETRIC)
    for _ in range(PROBE_PAIRS):
        y = rng.standard_normal(op.n) + 1j * rng.standard_normal(op.n)
        z = rng.standard_normal(op.n) + 1j * rng.standard_normal(op.n)
        ay = op(y)
        # read ay before the next apply: an operator may return a cached array
        ay_norm = norm2(ay)
        z_ay = inner_t(z, ay) if transpose else np.conj(inner_h(z, ay))
        az = op(z)
        az_norm = norm2(az)
        # max() would drop a NaN, so a NaN operator would pass the probe
        if not (math.isfinite(ay_norm) and math.isfinite(az_norm)):
            raise NonFiniteError("operator returned NaN or Inf in the symmetry probe")
        anorm_est = max(anorm_est, ay_norm / norm2(y), az_norm / norm2(z))
        scale = max(anorm_est * norm2(y) * norm2(z), EPS)
        y_az = inner_t(y, az) if transpose else inner_h(y, az)
        if cls in (SymmetryClass.COMPLEX_SYMMETRIC, SymmetryClass.HERMITIAN):
            defect = abs(y_az - z_ay)
        else:
            defect = abs(y_az + z_ay)
        worst = max(worst, defect / scale)
    if worst > 1e-10:
        raise StructureError(
            f"operator is not {op.symmetry.value} (relative defect {worst:.2e})"
        )
    return worst
