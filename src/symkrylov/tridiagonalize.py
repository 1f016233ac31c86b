"""Short-recurrence tridiagonalization processes for structured operators.

Each process builds, one step at a time, a unitary basis V and scalars
(alpha_k, beta_k) so that the operator acts tridiagonally on the basis.
All four symmetry classes run the same three-term recurrence on the
operator and start vector they are handed; the solver hands them rot*A
and rot*b (see solver._Driver), so a skew Hermitian A arrives as the
Hermitian i*A.  Two flags of the row `STRUCTURES[cls]` (core.Structure,
which also states each class's pairing) say how a class enters it:

* `conj`: the operator is applied to conj(v_k) (complex symmetric);
  the preconditioned form pairs through conj(z) and the transpose
  inner product instead;
* `skew`: alpha vanishes identically and each new basis vector picks
  up a minus sign (skew symmetric), so T carries -beta below its
  diagonal.  The basis is orthonormal under Re(u^H w), the inner
  product of C^n read as R^(2n), so T is real.

No step reads `rot` or takes a shift: the solver either moves T's
diagonal or hands the steps the operator rot*(A - shift*I).

A reorthogonalized plain process keeps v_1..v_k as the rows of one
contiguous block (`_Basis`) and takes each new direction through two
passes of classical Gram-Schmidt (CGS2) against all of them, each pass
two matrix-vector products with the block, in the row's inner product.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .core import (
    STRUCTURES,
    PreconditionerBreakdownError,
    Structure,
    SymmetryClass,
    as_vector,
    norm2,
)

# relative imaginary part allowed in inner products that should be real
BREAKDOWN_RTOL = 1e-10

# entries per chunk of precond_step's sweep.  On bench/'s matfree-qlp
# (n = 99 856, 137 steps per solve; 2-vCPU Xeon, 2 MiB L2 per core) the
# sweep took, per solve, medians over 15 and 25 interleaved solves:
# 130 ms at 2048 entries, 109-116 at 4096, 99-108 at 8192, 99-107 at
# 12288, 98-111 at 16384, 116-123 at 32768 and 160-165 ms as one chunk
# (five whole-vector passes).  Smaller chunks pay per-call overhead,
# larger ones leave L2; 8192 (five 128 KiB operands) is the smallest
# size on the flat part
_CHUNK = 8192


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

    def orthogonalize(self, cand: np.ndarray, real: bool) -> np.ndarray:
        """cand less its projection on the kept rows V, by two passes of
        classical Gram-Schmidt (CGS2); a pass is two matrix-vector
        products against V, and neither copies V nor forms conj(V).
        With `real` (a skew row) only Re(V^H cand) is removed: the skew
        recurrence keeps the i*v_k parts, which are orthogonal to v_k
        under its inner product Re(u^H w)."""
        v = self.rows()
        for _ in range(2):
            h = np.conj(v @ np.conj(cand))      # V^H cand
            cand = cand - (h.real if real else h) @ v
        return cand


@dataclass(slots=True, eq=False)
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


def process_init(b: np.ndarray, reorthogonalize: bool = False) -> TridiagState:
    """Start a plain process from v_1 = b/||b||."""
    beta1 = norm2(b)
    basis = _Basis(b.shape[0]) if reorthogonalize else None
    v1 = None
    if beta1 > 0.0:
        # numpy divides by a real beta as by beta + 0j, scaling both parts
        # by the one reciprocal 1/beta; multiplying by that reciprocal
        # gives the same bits (an exact zero's sign and the NaN/Inf
        # pattern aside) without the slower complex division loop
        v1 = np.multiply(b, 1.0 / beta1,
                         out=None if basis is None else basis.new_row())
    return TridiagState(k=0, beta_next=beta1, v_curr=v1, basis=basis)


def _step(op: Callable, st: TridiagState, structure: Structure,
          w: np.ndarray) -> TridiagState:
    """One plain step of the shared recurrence; w is the vector the
    operator is applied to: conj(v_k) on a `conj` row, v_k otherwise."""
    v = st.v_curr
    assert v is not None, "recurrence already terminated"
    cand = op(w)
    if st.v_prev is not None:
        cand = cand - st.beta_next * st.v_prev
    alpha = 0.0
    if not structure.skew:
        alpha = complex(np.vdot(v, cand))
        cand = cand - alpha * v
    if st.basis is not None:
        cand = st.basis.orthogonalize(cand, structure.skew)
    beta_next = norm2(cand)
    v_next = None
    if beta_next > 0.0:
        v_next = np.multiply(cand, (-1.0 if structure.skew else 1.0) / beta_next,
                             out=None if st.basis is None else st.basis.new_row())
    return TridiagState(k=st.k + 1, beta_next=beta_next, v_prev=v, v_curr=v_next,
                        alpha=alpha, beta_curr=st.beta_next, basis=st.basis)


# One entry point per class.  Each is a module attribute looked up when a
# solve starts, so a wrapper installed over it (bench/layertrace.py counts
# and times steps by these names) sees every call.

def complex_symmetric_step(op: Callable, st: TridiagState,
                           w: np.ndarray) -> TridiagState:
    return _step(op, st, STRUCTURES[SymmetryClass.COMPLEX_SYMMETRIC], w)


def skew_symmetric_step(op: Callable, st: TridiagState, w: np.ndarray) -> TridiagState:
    return _step(op, st, STRUCTURES[SymmetryClass.SKEW_SYMMETRIC], w)


def skew_hermitian_step(op: Callable, st: TridiagState, w: np.ndarray) -> TridiagState:
    return _step(op, st, STRUCTURES[SymmetryClass.SKEW_HERMITIAN], w)


def hermitian_step(op: Callable, st: TridiagState, w: np.ndarray) -> TridiagState:
    return _step(op, st, STRUCTURES[SymmetryClass.HERMITIAN], w)


def _precond_pair(z: np.ndarray, m_solve, structure: Structure):
    """Solve for q and return (q, beta) with beta = sqrt(<q, z>): 0 for
    a zero z, and NaN or Inf, which the solver stops on, when z holds
    NaN or Inf or <q, z> is NaN or +Inf.

    This is where a preconditioner's output enters, through as_vector.
    <q, z> is the row's pairing; a `conj` row solves with conj(z), so
    that <q, z> comes out real for real positive definite M, as it does
    on every other row for Hermitian positive definite M.  Any other
    <q, z> that is not positive real, a finite one whose modulus
    overflows included, raises PreconditionerBreakdownError.
    """
    q = as_vector(m_solve(np.conj(z) if structure.conj else z), z.shape[0],
                  "preconditioner output")
    prod = structure.pair(q, z)
    if not (cmath.isfinite(prod) and prod.real > 0.0):
        # a finite positive q'z needs a finite nonzero z, so only here
        # can z be zero (beta = 0) or hold NaN or Inf
        z_norm = norm2(z)
        if not math.isfinite(z_norm):
            # a NaN would fail z_norm > 0 and pass for an exact termination
            return q, math.nan
        if z_norm == 0.0:
            return q, 0.0
    # a NaN or +Inf q'z passes this test: beta comes out non-finite, which
    # the solver stops on
    try:
        tilted = abs(prod.imag) > BREAKDOWN_RTOL * abs(prod)
    except OverflowError:
        # finite parts whose modulus overflows; halving them is exact there
        tilted = abs(prod.imag * 0.5) > BREAKDOWN_RTOL * abs(prod * 0.5)
    if tilted or prod.real <= 0.0:
        raise PreconditionerBreakdownError(f"q'z = {prod!r} is not positive real; preconditioner "
                                           "must be positive definite with the right symmetry")
    return q, math.sqrt(prod.real)


def precond_init(b: np.ndarray, m_solve: Callable, structure: Structure,
                 ) -> TridiagState:
    """Start a preconditioned process from z_1 = b.

    The process takes a complex128 b over: z_1 is b itself, and the
    second step writes z_3 into its storage.
    """
    z1 = np.asarray(b, dtype=np.complex128)
    q1, beta1 = _precond_pair(z1, m_solve, structure)
    return TridiagState(k=0, beta_next=beta1, z_curr=z1, q_curr=q1)


def precond_step(op: Callable, st: TridiagState, m_solve: Callable,
                 structure: Structure) -> TridiagState:
    """One preconditioned step: the shared recurrence in z/q form.

    z_{k+1} = p/beta - (alpha/beta) z_k - (beta/beta_k) z_{k-1}, with
    p = op(q_k), is written into the storage of z_{k-1}, which retires
    here; the first step writes it into a new array.  A skew row has no
    alpha term and forms -p/beta + (beta/beta_k) z_{k-1}.  After the
    whole-vector inner product that gives alpha, one sweep forms z_{k+1}
    _CHUNK entries at a time, each chunk by p/beta, (alpha/beta) z_k,
    their difference, (beta/beta_k) z_{k-1} and the last difference, in
    that order.  These are the ufunc calls of the whole-vector
    expression on the same scalars, so every entry gets the same bits,
    and each chunk stays in cache from its first call to its last.  A
    chunk's two temporaries live in a (2, min(n, _CHUNK)) array of the
    step's own.  Arrays the operator or the preconditioner return are
    only read: either may hand back its argument or a cached array.
    """
    z, q, beta = st.z_curr, st.q_curr, st.beta_next
    assert z is not None and q is not None and beta > 0.0
    z_prev = st.z_prev
    # each out= call below is one operation of the expression in its
    # comment, in numpy's evaluation order, and a division by beta is a
    # multiplication by 1/beta (see process_init), so the bits do not change
    p = op(q)
    if structure.skew:
        alpha: complex = 0.0
        p_scale = -1.0 / beta
    else:
        alpha = structure.pair(q, p) / beta**2
        p_scale = 1.0 / beta
    z_next = np.empty_like(z) if z_prev is None else z_prev
    z_scale = alpha / beta
    prev_scale = None if z_prev is None else beta / st.beta_curr
    combine = np.add if structure.skew else np.subtract
    t, t2 = np.empty((2, min(z.shape[0], _CHUNK)), dtype=np.complex128)
    for lo in range(0, z.shape[0], _CHUNK):
        hi = lo + _CHUNK
        p_c, z_c, out = p[lo:hi], z[lo:hi], z_next[lo:hi]
        m = out.shape[0]
        # the chunk's p / beta goes straight to z_{k+1} on the first step
        t_c = out if z_prev is None else t[:m]
        np.multiply(p_c, p_scale, out=t_c)                       # p / beta, or -p / beta
        if not structure.skew:                                   # - (alpha / beta) z
            np.subtract(t_c, np.multiply(z_scale, z_c, out=t2[:m]), out=t_c)
        if z_prev is not None:
            # t - (beta / beta_k) z_{k-1}; + for a skew row
            np.multiply(prev_scale, out, out=out)
            combine(t_c, out, out=out)
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
