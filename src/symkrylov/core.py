"""Shared numeric primitives: vectors, sparse matrices, operator wrappers."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

import numpy as np

EPS = float(np.finfo(np.float64).eps)

# SparseMatrix keeps a slot-major copy when k*n <= SLOT_PADDING*nnz, k the
# longest row.  scripts/slot_threshold.py, stencils with some long rows:
# at n = 2*10**4 and 2*10**5 the slot product took 0.88-0.92 of the
# scatter-add's time at padding k*n/nnz = 1.2, 1.00-1.05 at 1.4 and
# 1.04-1.25 at 1.6; at n <= 2000 it still won at 1.6.  1.2 is the largest
# padding measured faster at every n
SLOT_PADDING = 1.2
_GATHER_FIRST_NNZ = 1 << 14       # see SparseMatrix._products
_COMPLEX128 = np.dtype(np.complex128)


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


@dataclass(frozen=True)
class Structure:
    """How one symmetry class enters the shared recurrence of
    tridiagonalize (its module docstring says what each field does
    there), and the one statement of the class's pairing.

    The pairing is a^T b on a `conj` row and a^H b on every other row.
    Under it rot*A is self-adjoint, or skew-adjoint on a `skew` row:
    A = A^T (cs), A = A^H (hermitian), i*A = (i*A)^H, so A = -A^H (sh),
    and A = -A^H (ss).  The `ss` process is real Lanczos on C^n read as
    R^(2n), whose inner product is Re(a^H b): under it alpha vanishes
    for any A = -A^H, and real skew A, the paper's case, is one such.
    A complex A = -A^T fits no row.
    """

    rot: complex
    conj: bool
    skew: bool

    def rotate(self, x):
        """rot*x; x itself when rot is 1, so no copy and no rounding."""
        return x if self.rot == 1 else self.rot * x

    def pair(self, a: np.ndarray, b: np.ndarray) -> complex:
        """a^T b on a `conj` row, a^H b otherwise."""
        return complex(np.dot(a, b) if self.conj else np.vdot(a, b))


STRUCTURES = {
    SymmetryClass.COMPLEX_SYMMETRIC: Structure(rot=1, conj=True, skew=False),
    SymmetryClass.SKEW_SYMMETRIC: Structure(rot=1, conj=False, skew=True),
    SymmetryClass.SKEW_HERMITIAN: Structure(rot=1j, conj=False, skew=False),
    SymmetryClass.HERMITIAN: Structure(rot=1, conj=False, skew=False),
}


def as_vector(x, n: int, what: str) -> np.ndarray:
    """x as a 1-d complex128 array of length n: x itself when it is one
    already, else converted and flattened, a view where numpy can.

    Every vector that enters a solve from outside passes here: b, an
    operator's output and a preconditioner's output.  A length other
    than n raises ValueError naming `what`.
    """
    if not (type(x) is np.ndarray and x.dtype is _COMPLEX128 and x.ndim == 1):
        x = np.asarray(x, dtype=np.complex128).reshape(-1)
    if x.shape[0] != n:
        raise ValueError(f"{what} has length {x.shape[0]}, expected {n}")
    return x


def norm2(x: np.ndarray) -> float:
    """The 2-norm, safe where the sum of squares under- or overflows.

    A float64 or complex128 vector takes np.linalg.norm's own arithmetic,
    sqrt(re.re + im.im) with each part's dot product, without its
    argument handling; any other dtype goes through np.linalg.norm.
    A vector whose norm comes out 0 or Inf but which holds a nonzero
    finite entry is scaled by the exact power of two of its largest
    magnitude first, and the norm unscaled after, so norm2(2**k * x) is
    2**k * norm2(x) bit for bit wherever no entry leaves the normal
    range.  Every other vector takes the plain path.
    """
    x = np.asarray(x)
    if x.dtype.char in "dD":
        # ravel as np.linalg.norm does: a strided vector is copied, so
        # its dot products run over contiguous parts there and here
        x = x.ravel(order="K")
        if x.dtype.char == "D":
            re, im = x.real, x.imag
            nrm = math.sqrt(float(re.dot(re)) + float(im.dot(im)))
        else:
            nrm = math.sqrt(float(x.dot(x)))
    else:
        nrm = float(np.linalg.norm(x))
    if nrm == 0.0 or nrm == math.inf:
        big = float(np.max(np.abs(x), initial=0.0))
        if 0.0 < big < math.inf:
            e = math.frexp(big)[1]
            if np.iscomplexobj(x):
                scaled = np.empty(x.shape, dtype=np.complex128)
                scaled.real = np.ldexp(x.real, -e)
                scaled.imag = np.ldexp(x.imag, -e)
            else:
                scaled = np.ldexp(x, -e)
            nrm = math.ldexp(float(np.linalg.norm(scaled)), e)
    return nrm


@dataclass(eq=False)
class SparseMatrix:
    """Square sparse matrix in CSR form, built from COO triplets.

    Duplicate entries are summed.  The arrays are treated as immutable
    once built: they are checked, and the row of each entry and the
    slot-major copy of the entries that the matvec reads are computed,
    here, once.

    Slot-major copy: with k the length of the longest row, entry j of
    row i sits at [j, i] of a C-contiguous (k, n) array, and a padded
    slot holds 0 at the row's own column index.  It costs 24*k*n bytes
    (index and value), at most 24*SLOT_PADDING = 28.8 bytes per entry
    beside the 32 of the CSR arrays and row numbers.  It is kept only
    when n > 1 and k*n <= SLOT_PADDING*nnz (dense input and stencils; a
    skewed matrix such as an arrow keeps the scatter-add alone), a fixed
    property of the matrix.  A (k, 1) array would be summed as one
    contiguous run, which numpy adds pairwise, out of column order.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    _rows: np.ndarray = field(init=False, repr=False)
    _slot_indices: Optional[np.ndarray] = field(init=False, repr=False)
    _slot_data: Optional[np.ndarray] = field(init=False, repr=False)
    _gather_first: bool = field(init=False, repr=False)

    def __post_init__(self):
        n, indptr = self.n, np.asarray(self.indptr)
        indices, data = np.asarray(self.indices), np.asarray(self.data)
        if n < 0 or indptr.shape != (n + 1,) or indptr[0] != 0:
            raise ValueError(f"indptr must have shape (n + 1,) for n = {n} and start at 0")
        counts = np.diff(indptr)
        if counts.min(initial=0) < 0 or not indices.shape == data.shape == (indptr[-1],):
            raise ValueError("indptr must never decrease and end at len(indices) == len(data)")
        if indices.min(initial=0) < 0 or indices.max(initial=-1) >= n:
            raise ValueError(f"column index out of range [0, {n})")
        self.indptr, self.indices, self.data = indptr, indices, data
        self._rows = np.repeat(np.arange(self.n), counts)
        k = int(counts.max(initial=0))
        self._slot_indices = self._slot_data = None
        if self.n > 1 and k * self.n <= SLOT_PADDING * self.nnz:
            self._slot_indices, self._slot_data = self._slot_layout(k)
        self._gather_first = self.nnz >= _GATHER_FIRST_NNZ

    def _slot_layout(self, k: int):
        """The (k, n) slot-major index and value arrays, k >= the longest row."""
        if k * self.n == self.nnz:
            # every row has k entries (a full matrix, or one with a zero
            # diagonal): the slot-major copy is the transposed CSR arrays
            return (np.ascontiguousarray(self.indices.reshape(self.n, k).T, dtype=np.int64),
                    np.ascontiguousarray(self.data.reshape(self.n, k).T, dtype=np.complex128))
        slot = np.arange(self.nnz) - self.indptr[self._rows]
        indices = np.empty((k, self.n), dtype=np.int64)
        indices[:] = np.arange(self.n)
        indices[slot, self._rows] = self.indices
        data = np.zeros((k, self.n), dtype=np.complex128)
        data[slot, self._rows] = self.data
        return indices, data

    @classmethod
    def from_coo(cls, n: int, rows, cols, vals) -> "SparseMatrix":
        rows = np.asarray(rows, dtype=np.int64).reshape(-1)
        cols = np.asarray(cols, dtype=np.int64).reshape(-1)
        vals = np.asarray(vals, dtype=np.complex128).reshape(-1)
        if not (rows.shape == cols.shape == vals.shape):
            raise ValueError("COO triplet arrays must have equal length")
        if rows.size and (rows.min() < 0 or rows.max() >= n):     # the constructor checks cols
            raise ValueError("COO row index out of range")
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
        """The same arrays as from_coo on the nonzero entries, bit for
        bit, built straight from the dense array.

        A row's nonzeros are already in column order, and a dense array
        holds no duplicates.  Adding 0.0 turns a -0.0 part into +0.0, as
        from_coo's summation from zero does.
        """
        a = np.asarray(a, dtype=np.complex128)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("dense input must be square")
        n = a.shape[0]
        nonzero = a != 0            # NaN counts as nonzero, as in np.nonzero
        data = a[nonzero]           # row-major: CSR order
        np.add(data, 0.0, out=data)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(nonzero.sum(axis=1), out=indptr[1:])
        columns = np.empty((n, n), dtype=np.int64)
        columns[:] = np.arange(n)               # the column of each cell
        return cls(n=n, indptr=indptr, indices=columns[nonzero], data=data)

    @property
    def nnz(self) -> int:
        return int(self.data.size)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        x = as_vector(x, self.n, "matvec input")
        if self._slot_data is not None:
            # each row's products summed in column order from +0.0, as
            # the scatter-add below does, so the bits are the same: a
            # padded slot adds 0*x_i, a signed zero that leaves every
            # partial sum as it is (for finite x_i).  The sum runs over
            # axis 0, the non-contiguous one, which numpy adds in order
            gathered = x[self._slot_indices]
            return np.add.reduce(self._products(self._slot_data, gathered), axis=0,
                                 initial=0.0)
        gathered = x[self.indices]
        y = np.zeros(self.n, dtype=np.complex128)
        np.add.at(y, self._rows, self._products(self.data, gathered))
        return y

    def _products(self, data: np.ndarray, gathered: np.ndarray) -> np.ndarray:
        # numpy's complex multiply uses FMA where the CPU has it, so a*b
        # and b*a can differ in the last bit of the imaginary part.  A
        # plain `data * x[indices]` lets numpy reuse the gathered temporary
        # from 2**14 entries (256 KiB) on, computing x[indices] * data into
        # it.  Both paths do that explicitly, chosen by nnz, so they agree
        # at every size, give the plain expression's bits and hold one
        # temporary of the product's size, not two
        if self._gather_first:
            return np.multiply(gathered, data, out=gathered)
        return data * gathered

    def to_dense(self) -> np.ndarray:
        a = np.zeros((self.n, self.n), dtype=np.complex128)
        np.add.at(a, (self._rows, self.indices), self.data)      # sums repeated entries
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

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return as_vector(self.apply(x), self.n, "operator output")

    @classmethod
    def from_matrix(cls, a, symmetry: SymmetryClass) -> "LinearOperator":
        mat = a if isinstance(a, SparseMatrix) else SparseMatrix.from_dense(a)
        return cls(n=mat.n, symmetry=symmetry, apply=mat.matvec)


# the symmetry probe draws PROBE_PAIRS vector pairs, two operator applies
# each, with parts uniform on [-1, 1) from a generator seeded with
# PROBE_SEED, so every solve probes alike
PROBE_PAIRS = 2
PROBE_SEED = 20260822


def probe_symmetry(op: LinearOperator) -> float:
    """Check the declared symmetry on PROBE_PAIRS random vector pairs:
    that B = rot*A is self-adjoint under the class's pairing, or
    skew-adjoint on a `skew` row (see Structure).

    Returns the worst relative defect, 0.0 for an empty operator, which
    has no vector to probe with.  The defect |<y, Bz> -+ <By, z>| is
    measured against anorm_est*||y||*||z||, anorm_est the largest
    ||By||/||y|| seen, floored only at the smallest normal float: the
    probe gives the same verdict for 2**k * A wherever the operator's
    entries stay normal numbers.  Raises StructureError (a ValueError)
    when the operator visibly violates its declared class, and
    NonFiniteError when a product holds NaN or Inf.
    """
    if op.n == 0:
        return 0.0
    row = STRUCTURES[op.symmetry]
    rng = np.random.default_rng(PROBE_SEED)
    worst = 0.0
    anorm_est = 0.0
    for _ in range(PROBE_PAIRS):
        # 2n reals per vector, read as n complex entries; y and z are one
        # draw, which gives the values of two draws in turn.  Uniform
        # draws take less than half the time of normal ones (3.0 against
        # 6.6-7.8 ms for 4n at n = 99 856), and the defect is relative,
        # so it needs no particular distribution
        y, z = rng.uniform(-1.0, 1.0, 4 * op.n).view(np.complex128).reshape(2, op.n)
        y_norm, z_norm = norm2(y), norm2(z)
        by = row.rotate(op(y))
        # read By before the next apply: an operator may return a cached array
        by_norm = norm2(by)
        by_z = row.pair(by, z)
        bz = row.rotate(op(z))
        bz_norm = norm2(bz)
        # max() would drop a NaN, so a NaN operator would pass the probe
        if not (math.isfinite(by_norm) and math.isfinite(bz_norm)):
            raise NonFiniteError("operator returned NaN or Inf in the symmetry probe")
        anorm_est = max(anorm_est, by_norm / y_norm, bz_norm / z_norm)
        # <y, Bz> - <By, z>, or + on a skew row
        defect = abs(row.pair(y, bz) + (by_z if row.skew else -by_z))
        scale = max(anorm_est * y_norm * z_norm, np.finfo(float).tiny)
        worst = max(worst, defect / scale)
    if worst > 1e-10:
        raise StructureError(
            f"operator is not {op.symmetry.value} (relative defect {worst:.2e})"
        )
    return worst
