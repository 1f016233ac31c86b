"""Short-recurrence tridiagonalization processes for structured operators.

Each process builds, one step at a time, a unitary basis V and scalars
(alpha_k, beta_k) so that the operator acts tridiagonally on the basis.
All four symmetry classes run the same three-term recurrence; the row
`STRUCTURES[cls]` says how a class enters it:

* `rot`: the recurrence runs on rot*A from the start vector rot*b
  (i for skew Hermitian, which turns i*A Hermitian; 1 otherwise);
* `conj`: the operator is applied to conj(v_k) (complex symmetric);
  the preconditioned form pairs through conj(z) and the transpose
  inner product instead;
* `skew`: alpha vanishes identically and each new basis vector picks
  up a minus sign (skew symmetric), so T carries -beta below its
  diagonal.

Where the shift lands also follows from the row.  A `conj` row keeps it
inside the recurrence: a diagonal shift of T would be wrong there
because v^T conj(v) is not 1.  Every other row leaves V unchanged under
a shift and moves only T's diagonal, by rot*shift; a `skew` row's
diagonal is then -shift.  The solver places it; the process steps here
subtract only a shift they are handed.

A reorthogonalized plain process keeps v_1..v_k as the rows of one
contiguous block (`_Basis`) and takes each new direction through two
passes of classical Gram-Schmidt (CGS2) against all of them, each pass
two matrix-vector products with the block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np

from .core import (
    LinearOperator,
    PreconditionerBreakdownError,
    SymmetryClass,
    inner_h,
    inner_t,
    norm2,
)

# relative imaginary part allowed in inner products that should be real
BREAKDOWN_RTOL = 1e-10


@dataclass(frozen=True)
class Structure:
    """How one symmetry class enters the shared recurrence (see above)."""

    rot: complex
    conj: bool
    skew: bool

    def rotate(self, x):
        """rot*x; x itself when rot is 1, so no copy and no rounding."""
        return x if self.rot == 1 else self.rot * x


STRUCTURES = {
    SymmetryClass.COMPLEX_SYMMETRIC: Structure(rot=1, conj=True, skew=False),
    SymmetryClass.SKEW_SYMMETRIC: Structure(rot=1, conj=False, skew=True),
    SymmetryClass.SKEW_HERMITIAN: Structure(rot=1j, conj=False, skew=False),
    SymmetryClass.HERMITIAN: Structure(rot=1, conj=False, skew=False),
}


class _Basis:
    """The basis a reorthogonalized process keeps: v_1..v_m as the
    leading rows of one contiguous complex128 block.

    The block doubles when it is full, so an append costs amortized
    O(n).  Each row is written once, when its vector is formed, and
    handed out as v_curr (later v_prev); it is never written again, so
    a caller may keep it.  After a regrow the rows handed out earlier
    stay valid: they are views of the old block, which they keep alive
    and which holds the same values.  The class is module-private, so a
    tracer that wraps public callables (bench/layertrace.py) times its
    work as part of the step that calls it.
    """

    def __init__(self, n: int):
        self._block = np.empty((16, n), dtype=np.complex128)
        self._m = 0

    def rows(self) -> np.ndarray:
        """v_1..v_m as an (m, n) view of the block."""
        return self._block[:self._m]

    def new_row(self) -> np.ndarray:
        """The next unused row, for the caller to write v_{m+1} into."""
        if self._m == self._block.shape[0]:
            grown = np.empty((2 * self._m, self._block.shape[1]), dtype=np.complex128)
            grown[:self._m] = self._block[:self._m]
            self._block = grown
        self._m += 1
        return self._block[self._m - 1]

    def orthogonalize(self, cand: np.ndarray) -> np.ndarray:
        """cand less its projection on the kept rows V, by two passes of
        classical Gram-Schmidt (CGS2); a pass is two matrix-vector
        products against V, and neither copies V nor forms conj(V)."""
        v = self.rows()
        for _ in range(2):
            h = np.conj(v @ np.conj(cand))      # V^H cand
            cand = cand - h @ v
        return cand


@dataclass
class TridiagState:
    """State after k process steps.

    beta_next is beta_{k+1}; v_curr is v_{k+1} (None once the recurrence
    terminates with beta_{k+1} = 0).  A reorthogonalized run keeps its
    basis in `basis`, whose rows v_curr and v_prev are.  For
    preconditioned runs z/q carry the auxiliary sequences and v_* stay
    None; a preconditioned step writes z_{k+1} into the storage of
    z_{k-1}, so only the latest state of a preconditioned run holds
    valid z vectors.
    """

    k: int
    beta_next: float
    v_prev: Optional[np.ndarray] = None
    v_curr: Optional[np.ndarray] = None
    alpha: complex = 0.0
    beta_curr: float = 0.0
    basis: Optional[_Basis] = field(default=None, repr=False)
    z_prev: Optional[np.ndarray] = None
    z_curr: Optional[np.ndarray] = None
    q_curr: Optional[np.ndarray] = None


def process_init(b: np.ndarray, structure: Structure,
                 reorthogonalize: bool = False) -> TridiagState:
    """Start a plain process from v_1 = rot*b/||b||."""
    beta1 = norm2(b)
    basis = _Basis(b.shape[0]) if reorthogonalize else None
    v1 = None
    if beta1 > 0.0:
        v1 = np.divide(structure.rotate(b), beta1,
                       out=None if basis is None else basis.new_row())
    return TridiagState(k=0, beta_next=beta1, v_curr=v1, basis=basis)


def _step(op: LinearOperator, st: TridiagState, structure: Structure,
          shift: complex, w: Optional[np.ndarray]) -> TridiagState:
    """One plain step of the shared recurrence.

    The operator is applied to w = conj(v_k) for a `conj` row and to
    v_k otherwise (pass w when the caller has already formed it).  A
    nonzero shift is subtracted inside the recurrence; the solver hands
    one only to a `conj` row, since the others carry it on T.
    """
    v = st.v_curr
    assert v is not None, "recurrence already terminated"
    if w is None:
        w = np.conj(v) if structure.conj else v
    cand = structure.rotate(op(w))
    if shift != 0.0:
        cand = cand - shift * w
    if st.v_prev is not None:
        cand = cand - st.beta_next * st.v_prev
    alpha = 0.0
    if not structure.skew:
        alpha = inner_h(v, cand)
        cand = cand - alpha * v
    if st.basis is not None:
        cand = st.basis.orthogonalize(cand)
    beta_next = norm2(cand)
    v_next = None
    if beta_next > 0.0:
        v_next = np.divide(-cand if structure.skew else cand, beta_next,
                           out=None if st.basis is None else st.basis.new_row())
    return TridiagState(k=st.k + 1, beta_next=beta_next, v_prev=v, v_curr=v_next,
                        alpha=alpha, beta_curr=st.beta_next, basis=st.basis)


# One entry point per class.  Each is a module attribute looked up when a
# solve starts, so a wrapper installed over it (bench/layertrace.py counts
# and times steps by these names) sees every call.

def complex_symmetric_step(op: LinearOperator, st: TridiagState, shift: complex = 0.0,
                           w: Optional[np.ndarray] = None) -> TridiagState:
    return _step(op, st, STRUCTURES[SymmetryClass.COMPLEX_SYMMETRIC], shift, w)


def skew_symmetric_step(op: LinearOperator, st: TridiagState, shift: complex = 0.0,
                        w: Optional[np.ndarray] = None) -> TridiagState:
    return _step(op, st, STRUCTURES[SymmetryClass.SKEW_SYMMETRIC], shift, w)


def skew_hermitian_step(op: LinearOperator, st: TridiagState, shift: complex = 0.0,
                        w: Optional[np.ndarray] = None) -> TridiagState:
    return _step(op, st, STRUCTURES[SymmetryClass.SKEW_HERMITIAN], shift, w)


def hermitian_step(op: LinearOperator, st: TridiagState, shift: complex = 0.0,
                   w: Optional[np.ndarray] = None) -> TridiagState:
    return _step(op, st, STRUCTURES[SymmetryClass.HERMITIAN], shift, w)


def _real_positive(product: complex, what: str) -> float:
    if abs(product.imag) > BREAKDOWN_RTOL * abs(product) or product.real <= 0.0:
        raise PreconditionerBreakdownError(
            f"{what} = {product!r} is not positive real; "
            "preconditioner must be positive definite with the right symmetry"
        )
    return float(product.real)


def _precond_pair(z: np.ndarray, m_solve, structure: Structure):
    """Solve for q and return (q, beta) with beta = sqrt(<q, z>), or
    beta = NaN when z holds NaN or Inf, which the solver stops on.

    A `conj` row pairs through conj(z) and the transpose inner product,
    which then comes out real for real positive definite M; every other
    row pairs through the Hermitian inner product.
    """
    if structure.conj:
        q = np.asarray(m_solve(np.conj(z)), dtype=np.complex128)
        prod = inner_t(q, z)
    else:
        q = np.asarray(m_solve(z), dtype=np.complex128)
        prod = inner_h(q, z)
    z_norm = norm2(z)
    if not math.isfinite(z_norm):
        # a NaN would fail z_norm > 0 and pass for an exact termination
        return q, math.nan
    beta2 = _real_positive(prod, "q'z") if z_norm > 0.0 else 0.0
    return q, float(np.sqrt(beta2))


def precond_init(b: np.ndarray, m_solve: Callable, structure: Structure,
                 ) -> TridiagState:
    """Start a preconditioned process from z_1 = rot*b.

    The process takes a complex128 b over: with rot = 1, z_1 is b itself,
    and the second step writes z_3 into its storage.
    """
    z1 = structure.rotate(np.asarray(b, dtype=np.complex128))
    if norm2(z1) == 0.0:
        return TridiagState(k=0, beta_next=0.0, z_curr=z1, q_curr=np.zeros_like(z1))
    q1, beta1 = _precond_pair(z1, m_solve, structure)
    return TridiagState(k=0, beta_next=beta1, z_curr=z1, q_curr=q1)


def precond_step(op: LinearOperator, st: TridiagState, m_solve: Callable,
                 structure: Structure, shift: complex = 0.0,
                 work: Optional[Tuple[np.ndarray, np.ndarray]] = None) -> TridiagState:
    """One preconditioned step: the shared recurrence in z/q form.

    z_{k+1} is written into the storage of z_{k-1}, which retires here.
    `work` is a pair of scratch vectors whose contents are not kept
    (allocated when absent).  Arrays the operator or the preconditioner
    return are only read: either may hand back its argument or a cached
    array.  A nonzero shift is subtracted inside the recurrence, as in
    the plain step.
    """
    z, q, beta = st.z_curr, st.q_curr, st.beta_next
    assert z is not None and q is not None and beta > 0.0
    t, t2 = work if work is not None else (np.empty_like(z), np.empty_like(z))
    z_prev = st.z_prev
    # each out= call below is one operation of the expression in its
    # comment, in numpy's evaluation order, so the bits do not change
    p = op(q)
    if structure.skew:
        alpha: complex = 0.0
        np.divide(np.negative(p, out=t), beta, out=t)            # -p / beta
    else:
        if structure.rot != 1:
            p = np.multiply(structure.rot, p, out=t)             # rot * p
        if shift != 0.0:
            p = np.subtract(p, np.multiply(shift, q, out=t2), out=t)  # p - shift * q
        inner = inner_t if structure.conj else inner_h
        alpha = inner(q, p) / beta**2
        np.divide(p, beta, out=t)                                # p / beta - (alpha / beta) z
        np.subtract(t, np.multiply(alpha / beta, z, out=t2), out=t)
    if z_prev is None:
        z_next = t.copy()
    else:
        # t - (beta / beta_k) z_{k-1}; + for a skew row, whose sign is in t
        np.multiply(beta / st.beta_curr, z_prev, out=z_prev)
        z_next = (np.add if structure.skew else np.subtract)(t, z_prev, out=z_prev)
    q_next, beta_next = _precond_pair(z_next, m_solve, structure)
    return TridiagState(
        k=st.k + 1,
        beta_next=beta_next,
        alpha=alpha,
        beta_curr=beta,
        z_prev=z,
        z_curr=z_next,
        q_curr=q_next,
    )
