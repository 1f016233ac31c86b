"""Two-phase minimum-residual solver for structured symmetric systems.

MINRES-QLP (Choi, Paige & Saunders, SIAM J. Sci. Comput. 33(4), 2011)
runs here in three parts:

* the driver (`_Driver`) runs the class's short-recurrence process and
  hands over, per iteration, one column of the tridiagonal T_k and the
  basis vector that goes with it;
* the engine (`_Engine`) is the scalar recurrence on T_k and touches no
  vector: left reflections (the QR), right reflections that expose a
  rank-revealing lower-triangular factor (the QLP), the recurrences for
  the solution's coordinates mu, the estimates phi, psi, chi, anorm and
  acond, the rank decisions and the stop tests;
* the vector side (`_Vectors`) turns the engine's coefficients into
  vectors.  In the MINRES phase x advances through the d-vector
  recurrence.  Once the engine's condition estimate passes `trancond`
  it moves to the QLP phase: updates go through W-vectors and stay
  stable on singular and ill-conditioned problems, the limit point is
  the minimum-length solution, and x is formed only where it is read.

The vector side keeps every vector of a solve in one block of m + 6
rows, m = `_WINDOW` = 3: two three-row slots that take turns as the
base, with a window of m rows between them for the basis vectors u.
The MINRES phase keeps x and the two d-vectors in the first slot and
updates them in place.  In the QLP phase the live vectors (x_{k-3}^{(2)}
and two W columns) are held as a 3 x (m + 6) coefficient matrix over
the block's rows.  Each iteration maps it by a 3 x 4 matrix made of the
right reflections and mu_{k-2}, at O(m) scalar cost.  Once the window
is full, one matrix product with the base slot and the window writes
the three vectors into the idle slot, which becomes the base.  The
phase transfer is the first of these maps.  It is division free: the
last two d-vectors and the current basis vector determine the three
live W columns without ever dividing by the (possibly vanishing)
rotated diagonal.

`solve` validates its input, probes the structure, scales b by the
exact power of two that puts its largest entry in [1/2, 1), and then
loops: driver step, engine step, vector update, monitor, stop verdict.
What it reports and monitors is scaled back to the caller's b.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Optional, Union

import numpy as np

from .core import (
    EPS,
    LinearOperator,
    NonFiniteError,
    PreconditionerBreakdownError,
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
    MaxIt = "MaxIt"
    CondExceeded = "CondExceeded"
    XnormExceeded = "XnormExceeded"
    LanczosExhausted = "LanczosExhausted"
    NotStructured = "NotStructured"
    PreconditionerBreakdown = "PreconditionerBreakdown"
    NonFinite = "NonFinite"


# reasons that mean "a solution at the requested accuracy was delivered"
CONVERGED_REASONS = frozenset(
    {
        StopReason.Converged_Rnorm,
        StopReason.Converged_ArNorm,
        StopReason.BetaZero_xZero,
        StopReason.Beta2Zero_OneStep,
        StopReason.LanczosExhausted,
    }
)


def _number(value, kind) -> bool:
    """Whether value is a number of the abstract kind; a bool is not one."""
    return isinstance(value, kind) and not isinstance(value, bool)


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for one solve.

    maxit defaults to 4n.  trancond <= 1 forces the QLP phase from the
    first iteration; trancond > 1/eps keeps plain MINRES throughout.
    A solve stops with CondExceeded once acond >= maxcond; the default
    1/eps is the numerical-rank limit.
    maxxnorm bounds ||x|| in the units of the b passed to solve.

    tol, maxxnorm, maxcond and trancond must be real numbers and are
    stored as float, shift a complex number stored as complex, maxit an
    integer and check_structure a bool; a bool is no number here.  A
    wrong type raises ValueError naming the field.  So does a number
    beyond float range (an int such as 10**400), a NaN tol, maxxnorm,
    maxcond or trancond, since every test against it would fail, an
    infinite tol or a tol of 1 or more, which the first iterate would
    pass, a maxit below 1, and a shift with a NaN or infinite part,
    which would turn every iterate into NaN.
    """

    tol: float = EPS
    maxit: Optional[int] = None
    maxxnorm: float = 1e7
    maxcond: float = 1.0 / EPS
    trancond: float = 1e7
    shift: complex = 0.0
    check_structure: bool = True

    def __post_init__(self):
        # each field is checked, and stored in its own type, here once
        for name in ("tol", "maxxnorm", "maxcond", "trancond"):
            value = getattr(self, name)
            if not _number(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
            try:
                value = float(value)
            except OverflowError:       # an int beyond float range
                raise ValueError(f"{name} must be a real number in float range") from None
            if math.isnan(value):
                raise ValueError(f"{name} must not be NaN")
            if name == "tol" and math.isinf(value):
                raise ValueError("tol must be finite")
            if name == "tol" and value >= 1.0:  # the Rnorm test's ratio is <= 1
                raise ValueError("tol must be below 1")
            object.__setattr__(self, name, value)
        if not _number(self.shift, numbers.Complex):
            raise ValueError(f"shift must be a complex number, got {self.shift!r}")
        try:
            shift = complex(self.shift)
        except OverflowError:           # an int beyond float range
            raise ValueError("shift must be a complex number in float range") from None
        if not cmath.isfinite(shift):
            raise ValueError("shift must be finite (it holds NaN or Inf)")
        object.__setattr__(self, "shift", shift)
        if self.maxit is not None and not _number(self.maxit, numbers.Integral):
            raise ValueError(f"maxit must be an integer, got {self.maxit!r}")
        if self.maxit is not None and self.maxit < 1:
            raise ValueError("maxit must be at least 1")
        if not isinstance(self.check_structure, bool):
            raise ValueError(f"check_structure must be a bool, got {self.check_structure!r}")


@dataclass(eq=False)
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


@dataclass(eq=False)
class SolveReport:
    """The result of one solve.  iterations counts the iterations the
    engine finished; x, phi, psi and chi belong to the last of them."""

    x: np.ndarray
    reason: StopReason
    iterations: int = 0
    transfer_iteration: int = 0
    phi: float = 0.0
    psi: float = 0.0
    chi: float = 0.0
    anorm: float = 0.0
    acond: float = 1.0
    omega: float = 0.0


class _Driver:
    """Feeds the engine per-iteration tridiagonal data and basis vectors.

    Hides which process runs underneath: the class's row of
    `tri.STRUCTURES`, preconditioning, and where the shift lands.  It is
    the one place that forms the problem the process runs on: __init__
    builds the operator rot*A and the shift sigma = rot*shift, and start
    hands the process rot*b, so no step reads rot.  A skew Hermitian
    system is thus solved as the Hermitian one (i*A) x = i*b, shifted by
    i*shift; each product by i is exact, so the run is that of a
    Hermitian solve on those inputs, bit for bit.

    Where the shift lands.  On the plain process of a row without conj,
    V does not depend on the shift: the process runs on rot*A and the
    shift moves only T's diagonal, by sigma, or by -sigma on a skew row.
    Everywhere else a diagonal shift of T would be wrong: v^T conj(v) is
    not 1 on a conj row, and with M != I it solves (A - shift*M) x = b.
    There the process runs on rot*A - sigma*I, which must then keep the
    row's symmetry: any sigma on a conj row, else a real one, or an
    imaginary one on a skew row.  So cs takes any shift, hermitian a
    real one, and sh (sigma = i*shift) and ss an imaginary one; any
    other raises ValueError here, before the operator is applied.
    """

    def __init__(self, op: LinearOperator, shift: complex, m_solve: Optional[Callable]):
        self.row = row = tri.STRUCTURES[op.symmetry]
        self.m_solve = m_solve
        # closures, not LinearOperators: a traced apply stays one call
        self.op = rotated = op if row.rot == 1 else (lambda x: row.rot * op(x))
        # never reassigned: the closure below reads it when it is called
        sigma = row.rotate(shift)
        on_diagonal = sigma
        if sigma != 0.0 and (row.conj or m_solve is not None):
            # sigma*I is of the class: sigma real, or imaginary on a skew row
            if not (row.conj or (sigma.real if row.skew else sigma.imag) == 0.0):
                raise ValueError(f"a preconditioned {op.symmetry.value} solve cannot take "
                                 f"shift {shift!r}: A - shift*I leaves the class")
            self.op = lambda x: rotated(x) - sigma * x
            on_diagonal = 0j
        # a zero shift still puts -0j on a skew row's diagonal
        self.diagonal_shift = -on_diagonal if row.skew else on_diagonal
        # looked up now, not bound at import: a wrapper installed over the
        # module attribute then sees every step
        self.step = (tri.precond_step if m_solve is not None
                     else getattr(tri, f"{op.symmetry.name.lower()}_step"))

    def start(self, b: np.ndarray, reorthogonalize: bool):
        """Start the process from rot*b; a b that is rot*b itself (rot =
        1) is taken over (a preconditioned process reuses its storage)."""
        b = self.row.rotate(b)
        self.st = (tri.precond_init(b, self.m_solve, self.row) if self.m_solve is not None
                   else tri.process_init(b, reorthogonalize))
        self.beta1 = self.st.beta_next
        if not math.isfinite(self.beta1):
            raise NonFiniteError("beta_1 is not finite")

    def advance(self, out: np.ndarray):
        """One process step; returns (u, alpha, sub, sup, beta_k,
        beta_next): the solution-basis vector of this iteration, the
        tridiagonal entries for the engine and the two betas for its
        norm estimate.  u is written into out, except that a plain
        process without conj hands out its basis vector v_k itself.
        Raises NonFiniteError when the step yields a non-finite alpha
        or beta, before the engine sees either."""
        st = self.st
        if self.m_solve is not None:
            u = np.multiply(st.q_curr, 1.0 / st.beta_next, out=out)   # q / beta
            st = self.st = self.step(self.op, st, self.m_solve, self.row)
        else:
            u = np.conj(st.v_curr, out=out) if self.row.conj else st.v_curr
            st = self.st = self.step(self.op, st, u)
        alpha, beta_next = st.alpha, st.beta_next
        if not (cmath.isfinite(alpha) and math.isfinite(beta_next)):
            raise NonFiniteError(f"step {st.k}: alpha = {alpha!r}, "
                                 f"beta = {beta_next!r}")
        bn = complex(beta_next)
        if self.row.skew:
            # alpha vanishes on a skew row; only the shift is on T's diagonal
            return u, self.diagonal_shift, -bn, bn, st.beta_curr, beta_next
        return u, alpha - self.diagonal_shift, bn, bn, st.beta_curr, beta_next


_SQRT_EPS = math.sqrt(EPS)


def _abs(z) -> float:
    """|z|, or inf where the magnitude of a finite complex z overflows:
    abs() raises OverflowError there, np.abs returns inf."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def _mu(tau, eta, mu_a, theta, mu_b, gamma):
    """One mu recurrence, (tau - eta*mu_a - theta*mu_b) / gamma; zero
    for a vanished gamma."""
    return (tau - eta * mu_a - theta * mu_b) / gamma if gamma != 0.0 else 0.0 + 0.0j


class _Engine:
    """The scalar recurrence of MINRES-QLP on the tridiagonal T_k.

    step() takes column k of T_k and leaves, as attributes, what the
    vector side reads for iteration k (the reflections' c2, s2, c3,
    s3, the entries delta2, eps_k, gamma2, ... and the mu values), the
    estimates, and the decisions: the phase, the rank, the length
    bound.  A register lagged across iterations holds the value of the
    iteration that set it last; step() shifts it into place first.

    The engine is unit free: each threshold on T_k is relative to anorm,
    its estimate of ||T_k||, and the one rank decision (`collapsed` in
    step()) is stated once.  So T_k times 2**k gives the same decisions,
    reflections and mu values times 2**-k, bit for bit while they stay
    in range.  Only maxxnorm is absolute, in the units of b.
    """

    __slots__ = (
        "n", "cfg", "rtol", "beta1", "k", "column",
        # left reflection carried into the next column, and tau_{k+1}
        "c1", "s1", "delta", "eps", "tau",
        # iteration k's coefficients
        "delta2", "eps_k", "gamma2", "tau2", "c2", "s2", "gamma6",
        "theta2_km1", "c3", "s3", "gamma5", "gamma4", "eta_k", "theta_k",
        "mu_l", "mu_c", "mu_km2", "mu_km1", "mu_k",
        # lagged registers: tau2_{k-1}, eta_{k-1}, mu_{k-2}^{(2)}
        "tau2_km1", "eta_km1", "mu_l2",
        # estimates and decisions
        "phi", "phi_prev", "psi", "chi", "chi_locked", "omega", "anorm",
        "gamma_min", "acond", "lanczos_done", "collapsed", "qlp",
        "transfer", "transfer_iteration", "xnorm_stop", "keep_km1",
    )

    def __init__(self, n: int, beta1: float, cfg: SolverConfig):
        self.n, self.cfg, self.beta1 = n, cfg, beta1
        self.rtol = max(cfg.tol, EPS)
        self.k = 0
        # the sentinel c = -1 makes iteration 1 come out as
        # gamma_1 = alpha_1, delta_2 = sup_2
        self.c1, self.s1 = -1.0, 0.0 + 0.0j
        self.delta = self.eps = self.tau2 = self.tau2_km1 = 0.0 + 0.0j
        self.gamma5 = self.gamma4 = self.eta_k = self.eta_km1 = 0.0 + 0.0j
        self.theta2_km1 = self.theta_k = 0.0 + 0.0j
        self.mu_l2 = self.mu_km2 = self.mu_km1 = self.mu_k = 0.0 + 0.0j
        self.tau = beta1 + 0.0j
        self.phi = self.psi = beta1
        self.chi = self.chi_locked = self.omega = self.anorm = 0.0
        self.gamma_min = math.inf
        self.acond = 1.0
        self.lanczos_done = self.qlp = False
        self.transfer_iteration = 0

    def lookahead(self, alpha, sup):
        """(psi, gamma, delta) from alpha and sup of the column after
        the last one stepped: gamma is that column's diagonal and delta
        the entry right of it, both after the last left reflection
        (gamma_{k+1}, delta_{k+2}); psi = phi*||(gamma, delta)|| is the
        A*r estimate for iterate k."""
        gamma = self.s1.conjugate() * self.delta - self.c1 * alpha
        delta = -self.c1 * sup
        return self.phi * math.hypot(_abs(gamma), abs(delta)), gamma, delta

    def step(self, alpha, sub, sup, beta_k, beta_next) -> None:
        """Iteration k on column k of T: diagonal alpha, sub below it,
        sup to its right in row k; beta_k and beta_{k+1} feed the norm
        estimate.  Registers are read into locals once and written back
        once; the arithmetic is unchanged, operation for operation."""
        cfg = self.cfg
        self.k = k = self.k + 1
        tau2_km2, self.tau2_km1 = self.tau2_km1, self.tau2
        eta_km2, self.eta_km1 = self.eta_km1, self.eta_k
        mu_l3, self.mu_l2 = self.mu_l2, self.mu_km2
        self.mu_l, self.mu_c = self.mu_km1, self.mu_k

        if k == 1:
            rho = math.hypot(abs(alpha), beta_next)
        else:
            rho = math.hypot(beta_k, abs(alpha), beta_next)
        # each `if a > b: b = a` below is max(b, a), and `if a < b: b = a`
        # min(b, a), NaN handling included
        anorm = self.anorm
        if rho > anorm:
            anorm = rho
        self.lanczos_done = lanczos_done = beta_next <= self.n * anorm * EPS
        if lanczos_done:
            sub = sup = 0.0 + 0.0j
        self.column = (alpha, sub, sup)

        # left reflections: finish column k, start column k+1
        c1, s1, delta = self.c1, self.s1, self.delta
        self.psi, gamma_pre, delta_next = self.lookahead(alpha, sup)
        delta2 = c1 * delta + s1 * alpha
        eps_k, self.eps = self.eps, s1 * sup
        c1, s1, gamma2 = sym_ortho(gamma_pre, sub)
        tau = self.tau
        tau2 = c1 * tau
        self.tau = s1.conjugate() * tau
        self.phi_prev = phi_prev = self.phi
        phi = phi_prev * abs(s1)
        self.c1, self.s1, self.delta = c1, s1, delta_next

        # right reflections (scalars run in both phases)
        c2, s2, gamma6 = sym_ortho(self.gamma5, eps_k)
        theta_km1 = self.theta_k
        theta2_km2 = self.theta2_km1
        theta2_km1 = c2 * theta_km1 + s2 * delta2
        delta3 = s2.conjugate() * theta_km1 - c2 * delta2
        eta_k = s2 * gamma2
        gamma3 = -c2 * gamma2
        c3, s3, gamma5 = sym_ortho(self.gamma4, delta3)
        theta_k = s3 * gamma3
        gamma4 = -c3 * gamma3

        # norm and condition estimates over the revealed diagonal
        # gamma6, gamma5, gamma4, of which iteration k has the last k
        abs_gamma4 = abs(gamma4)
        if k > 2:
            revealed = (abs(gamma6), abs(gamma5), abs_gamma4)
        else:
            revealed = (abs(gamma5), abs_gamma4) if k == 2 else (abs_gamma4,)
        gamma_min = self.gamma_min
        for g in revealed:
            if g > anorm:
                anorm = g
            if g < gamma_min:
                gamma_min = g
        self.anorm, self.gamma_min = anorm, gamma_min
        self.acond = acond = anorm / gamma_min if gamma_min > 0.0 else math.inf

        # the one rank decision, relative to anorm, so that it does not
        # depend on the scale of A: the revealed diagonal has collapsed
        # when it is at the noise level n*eps*anorm, or when it is the
        # deficient final column.  That column is the one signal phi
        # cannot carry: the terminal rotation has |s| = 0 for either
        # rank, and its roundoff level after an exhausted basis sits well
        # above n*eps*anorm.  A collapsed column takes no mu_k, and its
        # rotation's residual reduction was noise, so phi is reverted
        self.collapsed = collapsed = (abs_gamma4 <= self.n * EPS * anorm
                                      or lanczos_done and abs_gamma4 <= _SQRT_EPS * anorm)
        if collapsed:
            phi = phi_prev
        self.phi = phi

        qlp = self.qlp
        self.transfer = transfer = not qlp and (cfg.trancond <= 1.0 or acond > cfg.trancond)
        if transfer:
            self.qlp = qlp = True
            self.transfer_iteration = k

        # mu recurrences (final values lag two iterations)
        mu_km2 = mu_km1 = 0.0 + 0.0j
        mu_l2 = self.mu_l2
        if k > 2:
            mu_km2 = _mu(tau2_km2, eta_km2, mu_l3, theta2_km2, mu_l2, gamma6)
        if k > 1:
            mu_km1 = _mu(self.tau2_km1, self.eta_km1, mu_l2, theta2_km1, mu_km2, gamma5)
        if collapsed:
            mu_k = 0.0 + 0.0j
        else:
            mu_k = _mu(tau2, eta_k, mu_km2, theta_k, mu_km1, gamma4)
        chi_locked = self.chi_locked
        if k > 2:
            self.chi_locked = chi_locked = math.hypot(chi_locked, _abs(mu_km2))
        abs_km1 = _abs(mu_km1)
        chi_full = math.hypot(chi_locked, abs_km1, _abs(mu_k))
        # past the length bound the MINRES phase skips the x update; the
        # QLP phase drops trailing components until the bound holds
        maxxnorm = cfg.maxxnorm
        fits = chi_full <= maxxnorm
        if fits:
            self.chi = chi_full
        elif qlp:
            chi_part = math.hypot(chi_locked, abs_km1)
            self.keep_km1 = keep_km1 = chi_part <= maxxnorm
            self.chi = chi_part if keep_km1 else chi_locked
        # a NaN chi_full neither fits nor exceeds: the QLP phase stops on
        # it, the MINRES phase goes on
        self.xnorm_stop = not fits if qlp else chi_full > maxxnorm
        # |tau2| <= beta1, and beta1 is below sqrt(max float) (the norm
        # of a b scaled to entries under 1, or the root of a finite q'z),
        # so this abs() cannot overflow
        self.omega = math.hypot(self.omega, abs(tau2))

        self.delta2, self.eps_k, self.gamma2, self.tau2 = delta2, eps_k, gamma2, tau2
        self.c2, self.s2, self.gamma6, self.theta2_km1 = c2, s2, gamma6, theta2_km1
        self.c3, self.s3, self.gamma5, self.gamma4 = c3, s3, gamma5, gamma4
        self.eta_k, self.theta_k = eta_k, theta_k
        self.mu_km2, self.mu_km1, self.mu_k = mu_km2, mu_km1, mu_k

    def ar_converged(self, psi: float, phi: float) -> bool:
        """The A*r test for an iterate with residual estimate phi."""
        return phi > 0.0 and psi <= self.rtol * self.anorm * phi

    def verdict(self) -> Optional[StopReason]:
        """Why to stop after iteration k, or None to go on.  A collapsed
        column is no reason to stop: it added no mu_k and kept phi, and
        the tests below see the iterate it left."""
        if self.lanczos_done and self.k == 1:
            return StopReason.Beta2Zero_OneStep
        if self.phi / (self.anorm * self.chi + self.beta1) <= self.rtol:
            return StopReason.Converged_Rnorm
        if self.ar_converged(self.psi, self.phi_prev):
            return StopReason.Converged_ArNorm
        if self.lanczos_done:
            return StopReason.Converged_ArNorm if self.collapsed else StopReason.LanczosExhausted
        if self.acond >= self.cfg.maxcond:
            return StopReason.CondExceeded
        if self.xnorm_stop:
            return StopReason.XnormExceeded
        return None

    def record(self, x: np.ndarray, e: int) -> MonitorRecord:
        """The monitor's view of iteration k, with iterate x, for a b
        the solve scaled by 2**-e: x, phi, psi and chi come out times
        2**e."""
        return MonitorRecord(self.k, *self.column, _ldexp(self.phi, e), _ldexp(self.psi, e),
                             _ldexp(self.chi, e), self.anorm, self.acond, self.gamma2,
                             self.gamma4, _ldexp(x, e))


# basis vectors u the QLP phase holds back between two products with the
# block; each row is one more resident vector, and 3 kept peak memory
# where 4 did not, at no cost in time against 2 (the m = 2, 3, 4 runs are
# in CHANGES.md, entry "QLP phase: one block per solve")
_WINDOW = 3


class _Vectors:
    """The vector side.  Every vector it keeps is a row of one block of
    6 + m zero-filled rows, m = _WINDOW: rows 0-2 (slot A) and rows
    m+3..m+5 (slot B) are two slots that take turns as the base, and
    rows 3..m+2 are the window.  The slot that is not the base is idle.
    lend() hands out the row the next u goes to, and nothing else.

    MINRES phase: x, d_{k-1} and d_{k-2} are the rows of slot A and
    advance in place, in the operation order of the expression in each
    comment, so the bits match the plain expression; u goes to row 3.

    QLP phase: the three live vectors x_{k-3}^{(2)}, w_{k-2}^{(3)} and
    w_{k-1}^{(2)} are not stored.  `coef` (3 x (6+m)) holds them as
    combinations of the block's rows: the base slot and the u's of the
    window so far.  The window fills outwards from the base, so the rows
    in use are one range [lo, hi), and each iteration maps `coef` by a
    3 x 4 matrix G_k on (the three live vectors, u_k); the phase
    transfer is the first such map, on (x, d_{k-2}, d_{k-1}, u_k).  When
    the window is full, one matrix product writes the three vectors into
    the idle slot, which becomes the base: [A; window] -> B and
    [window; B] -> A, each operand contiguous.  x is formed, by one
    product over the rows in use, only where it is read.
    """

    __slots__ = ("block", "rows", "lo", "hi", "r", "km1", "km2", "coef")

    def __init__(self, n: int):
        self.block = np.zeros((_WINDOW + 6, n), dtype=np.complex128)
        self.rows = list(self.block)      # one view per row, made once
        # the rows in use; lo is 0 exactly while slot A is the base
        self.lo, self.hi = 0, 3
        # the rows of d_{k-1} and d_{k-2}; x is row 0 (MINRES phase)
        self.km1, self.km2 = 1, 2
        self.coef = None

    def lend(self) -> np.ndarray:
        """The row for the next u."""
        self.r = self.hi if self.lo == 0 else self.lo - 1
        return self.rows[self.r]

    def update(self, u: np.ndarray, e: _Engine) -> None:
        """Apply iteration e.k, whose solution-basis vector is u."""
        if not e.qlp:
            if not e.xnorm_stop and e.gamma2 != 0.0 and not (e.lanczos_done and e.collapsed):
                x, d_km1, d_km2 = self.rows[0], self.rows[self.km1], self.rows[self.km2]
                s_a = self.rows[_WINDOW + 3]       # scratch in the idle slot B
                # d_k = (u - delta2 * d_km1 - eps_k * d_km2) / gamma2,
                # written over d_{k-2}; then x + tau2 * d_k
                np.subtract(u, np.multiply(e.delta2, d_km1, out=s_a), out=s_a)
                np.multiply(e.eps_k, d_km2, out=d_km2)
                np.subtract(s_a, d_km2, out=d_km2)
                np.divide(d_km2, e.gamma2, out=d_km2)
                np.add(x, np.multiply(e.tau2, d_km2, out=s_a), out=x)
                self.km1, self.km2 = self.km2, self.km1
            return
        if u is not self.rows[self.r]:
            np.copyto(self.rows[self.r], u)
        if e.transfer:
            g = _transfer_map(e)
            self.coef = np.zeros((3, self.block.shape[0]), dtype=np.complex128)
            self.coef[(0, 1, 2), (0, self.km2, self.km1)] = 1.0
        else:
            # w_k = conj(s2) * w_prev2 - c2 * u and
            # w4_km2 = c2 * w_prev2 + s2 * u; then x2 + mu_km2 * w4_km2,
            # w3_km1 = c3 * w_prev + s3 * w_k, w2_k = conj(s3) * w_prev - c3 * w_k
            c2, s2, c3, s3, mu = e.c2, e.s2, e.c3, e.s3, e.mu_km2
            g = np.array([[1.0, mu * c2, 0.0, mu * s2],
                          [0.0, s3 * s2.conjugate(), c3, -s3 * c2],
                          [0.0, -c3 * s2.conjugate(), s3.conjugate(), c3 * c2]])
        r, lo, hi, coef = self.r, self.lo, self.hi, self.coef
        coef[:, lo:hi] = g[:, :3] @ coef[:, lo:hi]
        coef[:, r] = g[:, 3]
        self.lo, self.hi = min(lo, r), max(hi, r + 1)
        if self.hi - self.lo == _WINDOW + 3:
            self._flush()

    def _flush(self) -> None:
        """Form the three live vectors in the idle slot, which becomes
        the base."""
        lo, hi = self.lo, self.hi
        dst = _WINDOW + 3 if lo == 0 else 0
        np.matmul(self.coef[:, lo:hi], self.block[lo:hi], out=self.block[dst:dst + 3])
        self.coef[:, lo:hi] = 0.0
        self.coef[(0, 1, 2), (dst, dst + 1, dst + 2)] = 1.0
        self.lo, self.hi = dst, dst + 3

    def iterate(self, e: _Engine) -> np.ndarray:
        """x_k as a fresh array; reading it changes no state."""
        if self.coef is None:
            return self.rows[0].copy()
        c = self.coef[:, self.lo:self.hi]
        if not e.xnorm_stop:
            cx = c[0] + e.mu_km1 * c[1] + e.mu_k * c[2]
        else:
            # the length bound dropped mu_k, and mu_{k-1} unless keep_km1
            cx = c[0] + e.mu_km1 * c[1] if e.keep_km1 else c[0]
        return cx @ self.block[self.lo:self.hi]


def _transfer_map(e: _Engine) -> np.ndarray:
    """The division-free phase transfer as G_k on (x, d_{k-2}, d_{k-1},
    u_k): the three live W columns (w4_km2, w3_km1, w2_k) without
    dividing by the rotated diagonal, x rebased to x_{k-3}^{(2)} and
    then iteration k's x2 update."""
    u_num = np.array([0.0, -e.eps_k, -e.delta2, 1.0])        # u - delta2 d_km1 - eps_k d_km2
    w4_km2 = np.array([0.0, e.gamma6, e.theta2_km1, 0.0]) + e.s2 * u_num
    w3_km1 = np.array([0.0, 0.0, e.gamma5, 0.0]) - (e.c2 * e.s3) * u_num
    w2_k = (e.c2 * e.c3) * u_num
    w_k = e.s3.conjugate() * w3_km1 - e.c3 * w2_k
    x2 = (np.array([1.0, 0.0, 0.0, 0.0])
          - e.mu_l * (e.c2 * w4_km2 + e.s2 * w_k)                # w_{k-2}^{(3)}
          - e.mu_c * (e.c3 * w3_km1 + e.s3 * w2_k))             # w_{k-1}^{(2)}
    return np.array([x2 + e.mu_km2 * w4_km2, w3_km1, w2_k])


def _ldexp(v, e: int):
    """2**e * v, exact wherever the result stays in range.  v is a float
    (an overflow gives inf) or a complex array, scaled in place."""
    if isinstance(v, np.ndarray):
        np.ldexp(v.real, e, out=v.real)
        np.ldexp(v.imag, e, out=v.imag)
        return v
    try:
        return math.ldexp(v, e)
    except OverflowError:
        return math.copysign(math.inf, v)


def _stopped(n: int, reason: StopReason, **fields) -> SolveReport:
    """The report of a solve that stops before its first iteration."""
    return SolveReport(np.zeros(n, dtype=np.complex128), reason, **fields)


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
    With a preconditioner other than Identity the shift must keep
    A - shift*I in A's class (any shift on cs, a real one on hermitian,
    an imaginary one on sh and ss); any other raises ValueError before
    the operator is applied (see _Driver).

    b is scaled by a power of two on entry, and every threshold of the
    probe and the engine is relative to the operator's norm, so without
    a preconditioner solve(2**k * A, 2**k * b) returns the x of
    solve(A, b) bit for bit while the process's products stay in range.
    A converged reason (CONVERGED_REASONS) on an inconsistent problem
    means a least-squares x by the recurred estimates; it is the
    minimum-length one wherever the basis stays orthogonal.
    """
    cfg = config or SolverConfig()
    op = _as_operator(A, variant)
    b = as_vector(b, op.n, "b").copy()
    if not np.isfinite(b).all():
        raise ValueError("b must be finite (it holds NaN or Inf)")
    n = op.n
    maxit = cfg.maxit if cfg.maxit is not None else 4 * n
    if maxit < 1:       # the default 4n for n = 0; SolverConfig checks the rest
        raise ValueError("maxit must be at least 1")
    # the Identity kind reduces to the plain process exactly; routing it
    # through the z/q recurrences would only reproduce the same run to
    # roundoff, and ulp-level differences amplify through the recurrence
    if preconditioner is None or isinstance(preconditioner, Identity):
        m_solve = None
    elif reorthogonalize:
        raise ValueError("reorthogonalize needs the plain process: no "
                         "preconditioner, or Identity")
    else:
        m_solve = preconditioner.solve
    driver = _Driver(op, cfg.shift, m_solve)
    if cfg.check_structure:
        try:
            probe_symmetry(op)
        except StructureError:
            return _stopped(n, StopReason.NotStructured)
        except NonFiniteError:
            return _stopped(n, StopReason.NonFinite)

    # solve for 2**-e * b, whose largest entry lies in [1/2, 1), so that
    # neither beta_1 nor b / beta_1 nor q'z can under- or overflow; the
    # scale is exact, so x, phi, psi, chi and omega come back unscaled
    # bit for bit, and maxxnorm, in the caller's units, is scaled along
    e = math.frexp(float(np.max(np.abs(b), initial=0.0)))[1]
    if e != 0:
        _ldexp(b, -e)
        cfg = replace(cfg, maxxnorm=_ldexp(cfg.maxxnorm, -e))
    vectors = _Vectors(n)
    try:
        driver.start(b, reorthogonalize)
    except PreconditionerBreakdownError:
        return _stopped(n, StopReason.PreconditionerBreakdown, phi=_ldexp(norm2(b), e))
    except NonFiniteError:
        return _stopped(n, StopReason.NonFinite)
    del b   # the process owns it now; no copy of b stays resident
    if driver.beta1 == 0.0:
        return _stopped(n, StopReason.BetaZero_xZero)

    engine = _Engine(n, driver.beta1, cfg)
    advance, lend, step, update, verdict = (driver.advance, vectors.lend, engine.step,
                                            vectors.update, engine.verdict)
    reason = None
    try:
        for _ in range(maxit):
            u, alpha, sub, sup, beta_k, beta_next = advance(lend())
            step(alpha, sub, sup, beta_k, beta_next)
            update(u, engine)
            if monitor is not None:
                monitor(engine.record(vectors.iterate(engine), e))
            reason = verdict()
            if reason is not None:
                break
        else:
            reason = StopReason.MaxIt
        psi = 0.0
        if not engine.lanczos_done:
            # one look-ahead process step turns the lagged estimate into
            # the one matching the returned iterate
            _, alpha, _, sup, _, _ = driver.advance(vectors.lend())
            psi = engine.lookahead(alpha, sup)[0]
    except NonFiniteError:
        reason, psi = StopReason.NonFinite, engine.psi
    except PreconditionerBreakdownError:
        # a breakdown in the look-ahead step keeps the loop's reason
        reason, psi = reason or StopReason.PreconditionerBreakdown, engine.psi
    if (reason is StopReason.CondExceeded and engine.collapsed
            and engine.ar_converged(psi, engine.phi)):
        # the stop came on a collapsed column, which added no mu_k and
        # kept phi; the look-ahead psi matches the iterate it left, and
        # that iterate may already pass the A*r test the in-loop check,
        # one step behind, missed.  A CondExceeded stop on a maxcond that
        # no collapse reached keeps its reason
        reason = StopReason.Converged_ArNorm
    return SolveReport(x=_ldexp(vectors.iterate(engine), e), reason=reason, iterations=engine.k,
                       transfer_iteration=engine.transfer_iteration, phi=_ldexp(engine.phi, e),
                       psi=_ldexp(psi, e), chi=_ldexp(engine.chi, e), anorm=engine.anorm,
                       acond=engine.acond, omega=_ldexp(engine.omega, e))
