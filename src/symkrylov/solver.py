"""Two-phase minimum-residual engine for structured symmetric systems.

Phase one is classical MINRES: a left QR of the growing tridiagonal by
reflections, with the solution advanced through the usual d-vector
recurrence.  Once the running condition estimate passes `trancond` the
engine transfers to a QLP phase that also applies right reflections,
exposing a rank-revealing lower-triangular factor; solution updates then
go through W-vectors and stay stable on singular and ill-conditioned
problems, and the limit point is the minimum-length solution.

The transfer is division free: the last two MINRES d-vectors and the
current basis vector determine the three live W columns without ever
dividing by the (possibly vanishing) rotated diagonal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Tuple, Union

import numpy as np

from .core import (
    EPS,
    LinearOperator,
    PreconditionerBreakdownError,
    SparseMatrix,
    StructureError,
    SymmetryClass,
    as_vector,
    norm2,
    probe_symmetry,
)
from . import tridiagonalize as tri
from .precond import Identity
from .reflect import sym_ortho


class StopReason(str, Enum):
    Converged_Rnorm = "Converged_Rnorm"
    Converged_ArNorm = "Converged_ArNorm"
    BetaZero_xZero = "BetaZero_xZero"
    Beta2Zero_OneStep = "Beta2Zero_OneStep"
    GammaZero = "GammaZero"
    MaxIt = "MaxIt"
    CondExceeded = "CondExceeded"
    XnormExceeded = "XnormExceeded"
    LanczosExhausted = "LanczosExhausted"
    NotStructured = "NotStructured"
    PreconditionerBreakdown = "PreconditionerBreakdown"


# reasons that mean "a solution at the requested accuracy was delivered"
CONVERGED_REASONS = frozenset(
    {
        StopReason.Converged_Rnorm,
        StopReason.Converged_ArNorm,
        StopReason.BetaZero_xZero,
        StopReason.Beta2Zero_OneStep,
        StopReason.GammaZero,
        StopReason.LanczosExhausted,
    }
)


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for one solve.

    maxit defaults to 4n.  trancond <= 1 forces the QLP phase from the
    first iteration; trancond > 1/eps keeps plain MINRES throughout.
    The condition limit is applied as acond >= max(maxcond, 1/eps).
    """

    tol: float = EPS
    maxit: Optional[int] = None
    maxxnorm: float = 1e7
    maxcond: float = 1e15
    trancond: float = 1e7
    shift: complex = 0.0
    check_structure: bool = True


@dataclass
class MonitorRecord:
    """Per-iteration diagnostics passed to the monitor callback.

    psi is the lagged estimate for the previous iterate; alpha/sub/sup
    are the tridiagonal entries fed to the engine this iteration.
    """

    k: int
    alpha: complex
    sub: complex
    sup: complex
    phi: float
    psi: float
    chi: float
    anorm: float
    acond: float
    gamma2: complex
    gamma4: complex
    x: np.ndarray


@dataclass
class SolveReport:
    x: np.ndarray
    reason: StopReason
    iterations: int
    transfer_iteration: int
    phi: float
    psi: float
    chi: float
    anorm: float
    acond: float
    omega: float


class _Driver:
    """Feeds the engine per-iteration tridiagonal data and basis vectors.

    Hides which process runs underneath: the per-class conjugation and
    sign conventions, preconditioning, and where the shift lands.  It
    takes b over (a preconditioned process reuses its storage) and
    shares the solve's two scratch vectors with the preconditioned step.
    """

    def __init__(self, op: LinearOperator, b: np.ndarray, shift: complex,
                 m_solve: Optional[Callable], reorthogonalize: bool,
                 work: Tuple[np.ndarray, np.ndarray]):
        self.op = op
        self.variant = op.symmetry
        self.shift = complex(shift)
        self.m_solve = m_solve
        self.work = work
        if m_solve is not None:
            self.st = tri.precond_init(b, m_solve, self.variant)
            self.u = np.empty_like(b)
        elif self.variant is SymmetryClass.SKEW_HERMITIAN:
            self.st = tri.skew_hermitian_init(b, reorthogonalize)
        else:
            self.st = tri.process_init(b, reorthogonalize)
        self.beta1 = self.st.beta_next

    def can_advance(self) -> bool:
        if self.m_solve is not None:
            return self.st.q_curr is not None and self.st.beta_next > 0.0
        return self.st.v_curr is not None

    def advance(self):
        """One process step; returns (u, alpha, sub, sup): the
        solution-basis vector of this iteration and the tridiagonal
        entries for the engine.  u is valid until the next step."""
        v = self.variant
        st = self.st
        if self.m_solve is not None:
            u = np.divide(st.q_curr, st.beta_next, out=self.u)
            self.st = tri.precond_step(self.op, st, self.m_solve, v, self.shift, self.work)
        elif v is SymmetryClass.COMPLEX_SYMMETRIC:
            u = np.conj(st.v_curr)
            self.st = tri.complex_symmetric_step(self.op, st, self.shift, u)
        else:
            u = st.v_curr
            if v is SymmetryClass.SKEW_SYMMETRIC:
                self.st = tri.skew_symmetric_step(self.op, st)
            elif v is SymmetryClass.SKEW_HERMITIAN:
                self.st = tri.skew_hermitian_step(self.op, st)
            else:
                self.st = tri.hermitian_step(self.op, st)
        alpha = self.st.alpha
        bn = complex(self.st.beta_next)
        if v is SymmetryClass.SKEW_SYMMETRIC:
            return u, -self.shift, -bn, bn
        if v is SymmetryClass.SKEW_HERMITIAN:
            return u, alpha - 1j * self.shift, bn, bn
        if v is SymmetryClass.HERMITIAN:
            return u, alpha - self.shift, bn, bn
        return u, alpha, bn, bn


def _comb(a, x, b, y, out, tmp, op=np.add):
    """out = a*x + b*y (op=np.subtract: a*x - b*y), evaluated in the
    order of that expression.  out may alias x and tmp may alias x or y;
    out must not alias y."""
    np.multiply(a, x, out=out)
    return op(out, np.multiply(b, y, out=tmp), out=out)


def _add_scaled(y, a, x, tmp):
    """y = y + a*x in place, in the order of that expression."""
    return np.add(y, np.multiply(a, x, out=tmp), out=y)


def _as_operator(A, variant) -> LinearOperator:
    if isinstance(A, LinearOperator):
        if variant is not None and SymmetryClass(variant) is not A.symmetry:
            raise ValueError("variant disagrees with the operator's symmetry class")
        return A
    if variant is None:
        raise ValueError("variant is required when passing a raw matrix")
    return LinearOperator.from_matrix(A, SymmetryClass(variant))


def solve(A, b, variant: Union[SymmetryClass, str, None] = None,
          config: Optional[SolverConfig] = None, *,
          preconditioner=None,
          monitor: Optional[Callable[[MonitorRecord], None]] = None,
          reorthogonalize: bool = False) -> SolveReport:
    """Solve (A - shift*I) x = b, or its least-squares analogue, to the
    minimum-length solution.

    A may be a LinearOperator, a SparseMatrix, or a dense array (then
    `variant` names the symmetry class).  `preconditioner` is an object
    with a .solve(z) method applying M^{-1} for positive definite M.
    """
    cfg = config or SolverConfig()
    op = _as_operator(A, variant)
    b = as_vector(b, op.n)
    n = op.n
    rtol = max(float(cfg.tol), EPS)
    maxit = cfg.maxit if cfg.maxit is not None else 4 * n
    if maxit < 1:
        raise ValueError("maxit must be at least 1")

    shift = complex(cfg.shift)
    if shift == 0.0:
        shift = complex(op.shift)
    elif op.shift != 0.0 and complex(op.shift) != shift:
        raise ValueError("conflicting shifts on config and operator")

    def report(reason, x, k, transfer, phi, psi, chi, anorm, acond, omega):
        return SolveReport(x=x, reason=reason, iterations=k,
                           transfer_iteration=transfer, phi=phi, psi=psi,
                           chi=chi, anorm=anorm, acond=acond, omega=omega)

    if cfg.check_structure:
        try:
            probe_symmetry(op)
        except StructureError:
            return report(StopReason.NotStructured, np.zeros(n, dtype=np.complex128),
                          0, 0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0)

    # the Identity kind reduces to the plain process exactly; routing it
    # through the z/q recurrences would only reproduce the same run to
    # roundoff, and ulp-level differences amplify through the recurrence
    if preconditioner is None or isinstance(preconditioner, Identity):
        m_solve = None
    else:
        m_solve = preconditioner.solve
    x = np.zeros(n, dtype=np.complex128)
    # the engine's scratch, lent to the preconditioned step as well;
    # no vector is kept in it from one use to the next
    work = (np.empty(n, dtype=np.complex128), np.empty(n, dtype=np.complex128))
    try:
        driver = _Driver(op, b, shift, m_solve, reorthogonalize, work)
    except PreconditionerBreakdownError:
        return report(StopReason.PreconditionerBreakdown, x, 0, 0,
                      norm2(b), 0.0, 0.0, 0.0, 1.0, 0.0)
    del b   # the process owns it now; no copy of b stays resident
    beta1 = driver.beta1
    if beta1 == 0.0:
        return report(StopReason.BetaZero_xZero, x, 0, 0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0)

    # left-reflection registers; the sentinel c = -1 makes iteration 1
    # come out as gamma_1 = alpha_1, delta_2 = sup_2
    c1, s1 = -1.0, 0.0 + 0.0j
    delta_next = 0.0 + 0.0j      # delta_{k} entering iteration k
    eps_next = 0.0 + 0.0j        # epsilon_{k} entering iteration k
    # right-reflection registers
    gamma_r2 = 0.0 + 0.0j        # gamma_{k-2}^{(5)}
    gamma_r1 = 0.0 + 0.0j        # gamma_{k-1}^{(4)}
    theta_prev = 0.0 + 0.0j      # theta_{k-1}
    theta2_km2 = 0.0 + 0.0j      # theta_{k-2}^{(2)}
    eta_km2 = 0.0 + 0.0j
    eta_km1 = 0.0 + 0.0j
    tau2_km2 = 0.0 + 0.0j
    tau2_km1 = 0.0 + 0.0j
    tau_carry = beta1 + 0.0j     # tau_k entering iteration k
    phi = beta1
    # mu registers: mu_{k-1}, mu_{k-2}^{(2)}, mu_{k-3}^{(3)}, mu_{k-4}^{(3)}
    mu_c = 0.0 + 0.0j
    mu_l = 0.0 + 0.0j
    mu_l2 = 0.0 + 0.0j
    mu_l3 = 0.0 + 0.0j
    chi_locked = 0.0
    chi = 0.0
    omega = 0.0
    anorm = 0.0
    gamma_min = math.inf
    acond = 1.0
    # every vector update below writes into x, these vectors or `work`,
    # in the operation order of the expression in its comment, so the
    # bits match the plain expression; only the phase transfer allocates
    d_km1 = np.zeros(n, dtype=np.complex128)
    d_km2 = np.zeros(n, dtype=np.complex128)
    w_prev = None       # w_{k-1}^{(2)}, QLP phase
    w_prev2 = None      # w_{k-2}^{(3)}, QLP phase
    x2 = None           # x_{k-3}^{(2)}, QLP phase
    in_qlp = False
    transfer_iteration = 0
    lanczos_done = False
    reason: Optional[StopReason] = None
    psi_lag = beta1
    k = 0
    s_a, s_b = work

    def qlp_iterate():
        # the QLP phase forms x_k only where it is read (x is None then)
        return x2 + mu_l * w_prev2 + mu_c * w_prev

    try:
        for k in range(1, maxit + 1):
            u, alpha, sub, sup = driver.advance()
            beta_k = driver.st.beta_curr
            beta_next = driver.st.beta_next
            if k == 1:
                rho = math.hypot(abs(alpha), beta_next)
            else:
                rho = math.hypot(beta_k, abs(alpha), beta_next)
            anorm_mid = max(anorm, rho)
            if beta_next <= n * anorm_mid * EPS:
                lanczos_done = True
                sub = 0.0 + 0.0j
                sup = 0.0 + 0.0j

            # left reflections: finish column k, start column k+1
            delta2 = c1 * delta_next + s1 * alpha
            gamma_pre = np.conj(s1) * delta_next - c1 * alpha
            eps_cur = eps_next
            eps_next = s1 * sup
            delta_nn = -c1 * sup
            rot = sym_ortho(gamma_pre, sub)
            gamma2 = rot.r
            psi_lag = phi * math.hypot(abs(gamma_pre), abs(delta_nn))
            tau2 = rot.c * tau_carry
            tau_carry = np.conj(rot.s) * tau_carry
            phi_prev = phi
            phi = phi_prev * abs(rot.s)

            # right reflections (scalars run in both phases)
            rot2 = sym_ortho(gamma_r2, eps_cur)
            c2, s2, gamma6 = rot2.c, rot2.s, rot2.r
            theta2_km1 = c2 * theta_prev + s2 * delta2
            delta3 = np.conj(s2) * theta_prev - c2 * delta2
            eta_k = s2 * gamma2
            gamma3 = -c2 * gamma2
            rot3 = sym_ortho(gamma_r1, delta3)
            c3, s3, gamma5 = rot3.c, rot3.s, rot3.r
            theta_k = s3 * gamma3
            gamma4 = -c3 * gamma3

            # norm and condition estimates
            anorm = anorm_mid
            if k > 2:
                anorm = max(anorm, abs(gamma6))
                gamma_min = min(gamma_min, abs(gamma6))
            if k > 1:
                anorm = max(anorm, abs(gamma5))
                gamma_min = min(gamma_min, abs(gamma5))
            anorm = max(anorm, abs(gamma4))
            gamma_min = min(gamma_min, abs(gamma4))
            acond = anorm / gamma_min if gamma_min > 0.0 else math.inf

            # noise scale for rank decisions; the n factor keeps the
            # classification robust once beta terminates at roundoff level
            tiny_rank = n * EPS * max(anorm, 1.0)
            tiny_gamma4 = abs(gamma4) <= tiny_rank
            # a deficient final column is the one signal phi cannot carry:
            # the terminal rotation has |s| = 0 for either rank, so the
            # revealed diagonal decides; its roundoff level after an
            # exhausted basis sits well above n*eps*anorm
            rank_deficient_term = lanczos_done and abs(gamma4) <= max(
                tiny_rank, math.sqrt(EPS) * max(anorm, 1.0))
            if rank_deficient_term or abs(gamma4) < EPS:
                # a collapsed revealed diagonal means the rotation's
                # residual reduction was noise; undo the phi update
                phi = phi_prev

            transferred_now = False
            if not in_qlp and (cfg.trancond <= 1.0 or acond > cfg.trancond):
                # division-free phase transfer: reconstruct the three
                # live W columns from d-vectors, then rebase x
                u_num = u - delta2 * d_km1 - eps_cur * d_km2
                w4_km2 = gamma6 * d_km2 + theta2_km1 * d_km1 + s2 * u_num
                w3_km1 = gamma5 * d_km1 - (c2 * s3) * u_num
                w2_k = (c2 * c3) * u_num
                w_mid = np.conj(s3) * w3_km1 - c3 * w2_k          # w_k
                w_km2_v3 = c2 * w4_km2 + s2 * w_mid               # w_{k-2}^{(3)}
                w_km1_v2 = c3 * w3_km1 + s3 * w2_k                # w_{k-1}^{(2)}
                x2 = x - mu_l * w_km2_v3 - mu_c * w_km1_v2
                x = d_km1 = d_km2 = None
                in_qlp = True
                transferred_now = True
                transfer_iteration = k

            # mu recurrences (final values lag two iterations)
            mu_km2 = 0.0 + 0.0j
            if k > 2:
                num = tau2_km2 - eta_km2 * mu_l3 - theta2_km2 * mu_l2
                mu_km2 = num / gamma6 if gamma6 != 0.0 else 0.0 + 0.0j
            mu_km1 = 0.0 + 0.0j
            if k > 1:
                num = tau2_km1 - eta_km1 * mu_l2 - theta2_km1 * mu_km2
                mu_km1 = num / gamma5 if gamma5 != 0.0 else 0.0 + 0.0j
            if tiny_gamma4 or rank_deficient_term:
                mu_k = 0.0 + 0.0j
            else:
                mu_k = (tau2 - eta_k * mu_km2 - theta_k * mu_km1) / gamma4
            if k > 2:
                chi_locked = math.hypot(chi_locked, abs(mu_km2))
            chi_full = math.hypot(chi_locked, abs(mu_km1), abs(mu_k))

            xnorm_stop = False
            if not in_qlp:
                if chi_full > cfg.maxxnorm:
                    xnorm_stop = True
                elif gamma2 != 0.0 and not rank_deficient_term:
                    # d_k = (u - delta2 * d_km1 - eps_cur * d_km2) / gamma2,
                    # written over d_{k-2}
                    np.subtract(u, np.multiply(delta2, d_km1, out=s_a), out=s_a)
                    np.multiply(eps_cur, d_km2, out=d_km2)
                    np.subtract(s_a, d_km2, out=d_km2)
                    d_k = np.divide(d_km2, gamma2, out=d_km2)
                    _add_scaled(x, tau2, d_k, s_a)                # x + tau2 * d_k
                    d_km2 = d_km1
                    d_km1 = d_k
                chi = chi_full if chi_full <= cfg.maxxnorm else chi
            else:
                if not transferred_now:
                    # w_k = conj(s2) * w_prev2 - c2 * u; then
                    # w4_km2 = c2 * w_prev2 + s2 * u over w_{k-2}^{(3)}
                    w_mid = _comb(np.conj(s2), w_prev2, c2, u, s_a, s_b, np.subtract)
                    w4_km2 = _comb(c2, w_prev2, s2, u, w_prev2, s_b)
                if k > 2:
                    _add_scaled(x2, mu_km2, w4_km2, s_b)          # x2 + mu_km2 * w4_km2
                if not transferred_now:
                    # w3_km1 = c3 * w_prev + s3 * w_k over w4_km2, whose
                    # last use was above; w2_k = conj(s3) * w_prev - c3 * w_k
                    # over w_{k-1}^{(2)}
                    w3_km1 = _comb(c3, w_prev, s3, w_mid, w4_km2, s_b)
                    w2_k = _comb(np.conj(s3), w_prev, c3, w_mid, w_prev, w_mid, np.subtract)
                if chi_full <= cfg.maxxnorm:
                    chi = chi_full
                else:
                    # drop trailing components until the length bound holds
                    mu_k = 0.0 + 0.0j
                    chi_part = math.hypot(chi_locked, abs(mu_km1))
                    if chi_part <= cfg.maxxnorm:
                        x = x2 + mu_km1 * w3_km1
                        chi = chi_part
                    else:
                        mu_km1 = 0.0 + 0.0j
                        x = x2.copy()
                        chi = chi_locked
                    xnorm_stop = True
                w_prev2 = w3_km1
                w_prev = w2_k

            omega = math.hypot(omega, abs(tau2))

            mu_l3 = mu_l2
            mu_l2 = mu_km2
            mu_l = mu_km1
            mu_c = mu_k
            tau2_km2 = tau2_km1
            tau2_km1 = tau2
            eta_km2 = eta_km1
            eta_km1 = eta_k
            theta2_km2 = theta2_km1
            theta_prev = theta_k
            gamma_r2 = gamma5
            gamma_r1 = gamma4
            c1, s1 = rot.c, rot.s
            delta_next = delta_nn

            if monitor is not None:
                monitor(MonitorRecord(k=k, alpha=alpha, sub=sub, sup=sup,
                                      phi=phi, psi=psi_lag, chi=chi,
                                      anorm=anorm, acond=acond,
                                      gamma2=gamma2, gamma4=gamma4,
                                      x=qlp_iterate() if x is None else x.copy()))

            if lanczos_done and k == 1:
                reason = StopReason.Beta2Zero_OneStep
                break
            if phi / (anorm * chi + beta1) <= rtol:
                reason = StopReason.Converged_Rnorm
                break
            if phi_prev > 0.0 and psi_lag <= rtol * anorm * phi_prev:
                reason = StopReason.Converged_ArNorm
                break
            if lanczos_done:
                if rank_deficient_term:
                    reason = StopReason.Converged_ArNorm
                elif phi <= rtol * (anorm * chi + beta1):
                    reason = StopReason.Converged_Rnorm
                else:
                    reason = StopReason.LanczosExhausted
                break
            if abs(gamma4) < EPS or (not in_qlp and gamma2 == 0.0):
                # rank-revealed diagonal collapsed (the d-recurrence
                # would be undefined too); phi was already reverted
                reason = StopReason.GammaZero
                break
            if acond >= max(cfg.maxcond, 1.0 / EPS):
                reason = StopReason.CondExceeded
                break
            if xnorm_stop:
                reason = StopReason.XnormExceeded
                break
        else:
            reason = StopReason.MaxIt
    except PreconditionerBreakdownError:
        return report(StopReason.PreconditionerBreakdown,
                      qlp_iterate() if x is None else x, k, transfer_iteration,
                      phi, psi_lag, chi, anorm, acond, omega)
    if x is None:
        x = qlp_iterate()

    psi_final = 0.0
    if not lanczos_done and driver.can_advance():
        # one look-ahead process step turns the lagged estimate into the
        # one matching the returned iterate
        try:
            _, alpha_pk, _, sup_pk = driver.advance()
            gamma_pk = np.conj(s1) * delta_next - c1 * alpha_pk
            delta_pk = -c1 * sup_pk
            psi_final = phi * math.hypot(abs(gamma_pk), abs(delta_pk))
        except PreconditionerBreakdownError:
            psi_final = psi_lag
    if (reason is StopReason.GammaZero and phi > 0.0
            and psi_final <= rtol * anorm * phi):
        # the collapse left an iterate that already passes the A*r test;
        # the in-loop check lags one step and loses that race
        reason = StopReason.Converged_ArNorm
    return report(reason, x, k, transfer_iteration, phi, psi_final, chi,
                  anorm, acond, omega)
