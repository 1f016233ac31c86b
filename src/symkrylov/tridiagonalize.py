"""Short-recurrence tridiagonalization processes for structured operators.

Each process builds, one step at a time, a unitary basis V and scalars
(alpha_k, beta_k) so that the operator acts tridiagonally on the basis.
Variants differ in where conjugation enters and in sign conventions:

* complex symmetric: the operator is applied to conj(v_k) and the shift
  stays inside the recurrence (a diagonal shift of T would be wrong here
  because v^T conj(v) is not 1),
* skew symmetric: alpha vanishes identically and the new basis vector
  picks up a minus sign,
* skew Hermitian: ordinary Hermitian Lanczos run on i*A with starting
  vector i*b,
* Hermitian: ordinary Lanczos.

Shifts for the last three are handled by the caller on the tridiagonal
coefficients; shifting the operator there would only shift T's diagonal
and leave V unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Tuple

import numpy as np

from .core import (
    EPS,
    LinearOperator,
    PreconditionerBreakdownError,
    SymmetryClass,
    inner_h,
    inner_t,
    norm2,
)

# relative imaginary part allowed in inner products that should be real
BREAKDOWN_RTOL = 1e-10


@dataclass
class TridiagState:
    """State after k process steps.

    beta_next is beta_{k+1}; v_curr is v_{k+1} (None once the recurrence
    terminates with beta_{k+1} = 0).  For preconditioned runs z/q carry
    the auxiliary sequences and v_* stay None; a preconditioned step
    writes z_{k+1} into the storage of z_{k-1}, so only the latest state
    of a preconditioned run holds valid z vectors.
    """

    k: int
    beta_next: float
    v_prev: Optional[np.ndarray] = None
    v_curr: Optional[np.ndarray] = None
    alpha: complex = 0.0
    beta_curr: float = 0.0
    basis: Optional[List[np.ndarray]] = field(default=None, repr=False)
    z_prev: Optional[np.ndarray] = None
    z_curr: Optional[np.ndarray] = None
    q_curr: Optional[np.ndarray] = None


def _finish_step(st: TridiagState, cand: np.ndarray, alpha: complex, negate: bool) -> TridiagState:
    if st.basis is not None:
        # two-pass classical reorthogonalization; test instrumentation only
        for _ in range(2):
            for v in st.basis:
                cand = cand - v * inner_h(v, cand)
    beta_next = norm2(cand)
    v_next = None
    if beta_next > 0.0:
        v_next = (-cand if negate else cand) / beta_next
    new = TridiagState(
        k=st.k + 1,
        beta_next=beta_next,
        v_prev=st.v_curr,
        v_curr=v_next,
        alpha=alpha,
        beta_curr=st.beta_next,
        basis=st.basis,
    )
    if new.basis is not None and v_next is not None:
        new.basis.append(v_next)
    return new


def process_init(b: np.ndarray, reorthogonalize: bool = False) -> TridiagState:
    """Start a process from v_1 = b/||b||.  Shared by cs, ss, hermitian."""
    beta1 = norm2(b)
    v1 = b / beta1 if beta1 > 0.0 else None
    basis = [v1] if (reorthogonalize and v1 is not None) else ([] if reorthogonalize else None)
    return TridiagState(k=0, beta_next=beta1, v_curr=v1, basis=basis)


def skew_hermitian_init(b: np.ndarray, reorthogonalize: bool = False) -> TridiagState:
    """Start from v_1 = i*b/||b||; the i folds the structure into i*A."""
    beta1 = norm2(b)
    v1 = (1j * b) / beta1 if beta1 > 0.0 else None
    basis = [v1] if (reorthogonalize and v1 is not None) else ([] if reorthogonalize else None)
    return TridiagState(k=0, beta_next=beta1, v_curr=v1, basis=basis)


def complex_symmetric_step(op: LinearOperator, st: TridiagState, shift: complex = 0.0,
                           v_conj: Optional[np.ndarray] = None) -> TridiagState:
    """One complex symmetric step: operate on conj(v_k), shift in place.

    v_conj is conj(v_k) when the caller has already formed it.
    """
    v = st.v_curr
    assert v is not None, "recurrence already terminated"
    vc = np.conj(v) if v_conj is None else v_conj
    p = op(vc)
    if shift != 0.0:
        p = p - shift * vc
    if st.v_prev is not None:
        p = p - st.beta_next * st.v_prev
    alpha = inner_h(v, p)
    cand = p - alpha * v
    return _finish_step(st, cand, alpha, negate=False)


def hermitian_step(op: LinearOperator, st: TridiagState) -> TridiagState:
    v = st.v_curr
    assert v is not None, "recurrence already terminated"
    p = op(v)
    if st.v_prev is not None:
        p = p - st.beta_next * st.v_prev
    alpha = inner_h(v, p)
    cand = p - alpha * v
    return _finish_step(st, cand, alpha, negate=False)


def skew_hermitian_step(op: LinearOperator, st: TridiagState) -> TridiagState:
    """Hermitian step for i*A; alpha comes out real up to roundoff."""
    v = st.v_curr
    assert v is not None, "recurrence already terminated"
    p = 1j * op(v)
    if st.v_prev is not None:
        p = p - st.beta_next * st.v_prev
    alpha = inner_h(v, p)
    cand = p - alpha * v
    return _finish_step(st, cand, alpha, negate=False)


def skew_symmetric_step(op: LinearOperator, st: TridiagState) -> TridiagState:
    """Skew step: alpha is identically zero, new vector is negated."""
    v = st.v_curr
    assert v is not None, "recurrence already terminated"
    cand = op(v)
    if st.v_prev is not None:
        cand = cand - st.beta_next * st.v_prev
    return _finish_step(st, cand, 0.0, negate=True)


def _real_positive(product: complex, what: str) -> float:
    if abs(product.imag) > BREAKDOWN_RTOL * abs(product) or product.real <= 0.0:
        raise PreconditionerBreakdownError(
            f"{what} = {product!r} is not positive real; "
            "preconditioner must be positive definite with the right symmetry"
        )
    return float(product.real)


def _precond_pair(z: np.ndarray, m_solve, variant: SymmetryClass):
    """Solve for q and return (q, beta) with beta = sqrt(<q, z>).

    Complex symmetric pairs through conj(z); the transpose inner product
    then comes out real for real positive definite M.
    """
    if variant is SymmetryClass.COMPLEX_SYMMETRIC:
        q = np.asarray(m_solve(np.conj(z)), dtype=np.complex128)
        prod = inner_t(q, z)
    elif variant is SymmetryClass.SKEW_SYMMETRIC:
        q = np.asarray(m_solve(z), dtype=np.complex128)
        prod = inner_t(q, z)
    else:
        q = np.asarray(m_solve(z), dtype=np.complex128)
        prod = inner_h(q, z)
    beta2 = _real_positive(prod, "q'z") if norm2(z) > 0.0 else 0.0
    return q, float(np.sqrt(beta2))


def precond_init(b: np.ndarray, m_solve: Callable, variant: SymmetryClass,
                 ) -> TridiagState:
    """Start a preconditioned process from z_1 = b (i*b for skew Hermitian).

    The process takes a complex128 b over: z_1 is b itself, and the
    second step writes z_3 into its storage.
    """
    if variant is SymmetryClass.SKEW_HERMITIAN:
        z1 = 1j * b
    else:
        z1 = np.asarray(b, dtype=np.complex128)
    if norm2(z1) == 0.0:
        return TridiagState(k=0, beta_next=0.0, z_curr=z1, q_curr=np.zeros_like(z1))
    q1, beta1 = _precond_pair(z1, m_solve, variant)
    return TridiagState(k=0, beta_next=beta1, z_curr=z1, q_curr=q1)


def precond_step(op: LinearOperator, st: TridiagState, m_solve: Callable,
                 variant: SymmetryClass, shift: complex = 0.0,
                 work: Optional[Tuple[np.ndarray, np.ndarray]] = None) -> TridiagState:
    """One preconditioned step; mirrors the plain recurrences in z/q form.

    z_{k+1} is written into the storage of z_{k-1}, which retires here.
    `work` is a pair of scratch vectors whose contents are not kept
    (allocated when absent).  Arrays the operator or the preconditioner
    return are only read: either may hand back its argument or a cached
    array.
    """
    z, q, beta = st.z_curr, st.q_curr, st.beta_next
    assert z is not None and q is not None and beta > 0.0
    t, t2 = work if work is not None else (np.empty_like(z), np.empty_like(z))
    z_prev = st.z_prev
    # each out= call below is one operation of the expression in its
    # comment, in numpy's evaluation order, so the bits do not change
    if variant is SymmetryClass.SKEW_SYMMETRIC:
        np.divide(np.negative(op(q), out=t), beta, out=t)        # -op(q) / beta
        if z_prev is not None:                                   # + (beta / beta_k) z_{k-1}
            np.multiply(beta / st.beta_curr, z_prev, out=z_prev)
            z_next = np.add(t, z_prev, out=z_prev)
        alpha: complex = 0.0
    else:
        p = op(q)
        if variant is SymmetryClass.SKEW_HERMITIAN:
            p = np.multiply(1j, p, out=t)
        elif variant is SymmetryClass.COMPLEX_SYMMETRIC and shift != 0.0:
            p = np.subtract(p, np.multiply(shift, q, out=t2), out=t)
        if variant is SymmetryClass.COMPLEX_SYMMETRIC:
            alpha = inner_t(q, p) / beta**2
        else:
            alpha = inner_h(q, p) / beta**2
        np.divide(p, beta, out=t)                                # p / beta - (alpha / beta) z
        np.subtract(t, np.multiply(alpha / beta, z, out=t2), out=t)
        if z_prev is not None:                                   # - (beta / beta_k) z_{k-1}
            np.multiply(beta / st.beta_curr, z_prev, out=z_prev)
            z_next = np.subtract(t, z_prev, out=z_prev)
    if z_prev is None:
        z_next = t.copy()
    q_next, beta_next = _precond_pair(z_next, m_solve, variant)
    return TridiagState(
        k=st.k + 1,
        beta_next=beta_next,
        alpha=alpha,
        beta_curr=beta,
        z_prev=z,
        z_curr=z_next,
        q_curr=q_next,
    )
