"""The benchmark's three workloads.

Each workload builds its inputs from a seed (`build`), runs one sample
of solver work (`run`, the only timed part), computes references once
(`references`, untimed) and lists the solves of a sample that fail
their check (`failures`, untimed).  The program only ever receives the
generated arrays, operators and preconditioners.
"""

from __future__ import annotations

import functools
import statistics
import time

import numpy as np

# the package is reached through its namespace at call time, never
# bound here by name, so the tracer's wrappers are the ones called
import symkrylov as sk
from symkrylov.oracle import suite_problem, tsvd_solve

# the paper's four suites and their sizes (odd n makes ss singular)
SUITE_FAMILIES = (("cs-h", 50), ("cs-m", 50), ("ss", 51), ("sh", 51))
SUITE_RELERR = 1e-5
EPS = np.finfo(float).eps


class SuiteDense:
    """The four generated suites, compatible and incompatible halves,
    dense arrays at the paper protocol (tol = eps, maxit = 4n).  The
    incompatible (least-squares) halves are solved with
    reorthogonalization, the configuration the package documents for
    the least-squares suites and its acceptance gate uses.  One sample
    is one pass over the whole fixed list."""

    name = "suite-dense"

    def __init__(self, per_half: int = 10):
        self.per_half = per_half

    def build(self, seed: int) -> None:
        self.problems = [suite_problem(family, n, index, seed, compatible)
                         for family, n in SUITE_FAMILIES
                         for compatible in (True, False)
                         for index in range(self.per_half)]
        self.configs = [sk.SolverConfig(tol=EPS, maxit=4 * p.n) for p in self.problems]

    def run(self):
        return [sk.solve(p.a, p.b, p.variant, config, reorthogonalize=not p.compatible)
                for p, config in zip(self.problems, self.configs)]

    def references(self) -> None:
        self.refs = [tsvd_solve(p.a, p.b) for p in self.problems]

    def failures(self, reports) -> list:
        bad = []
        for p, rep, ref in zip(self.problems, reports, self.refs):
            relerr = np.linalg.norm(rep.x - ref) / max(np.linalg.norm(ref), EPS)
            if not relerr <= SUITE_RELERR:
                bad.append(f"{p.id} {rep.reason.value} relerr {relerr:.2e}")
        return bad

    def facts(self) -> dict:
        return {"solves": len(self.problems), "relerr_bound": SUITE_RELERR,
                "sizes": [p.n for p in self.problems[:: 2 * self.per_half]]}


def _stencil_apply(diag: np.ndarray, m: int, x: np.ndarray) -> np.ndarray:
    """Five-point stencil with -1 couplings, straight from the grid;
    the residual check uses it so it does not go through the CSR code
    it grades."""
    u = x.reshape(m, m)
    y = diag.reshape(m, m) * u
    y[:, :-1] -= u[:, 1:]
    y[:, 1:] -= u[:, :-1]
    y[:-1, :] -= u[1:, :]
    y[1:, :] -= u[:-1, :]
    return y.reshape(-1)


class _ResidualChecked:
    """A large workload: one solve per sample, which passes when it stops
    with a converged reason and its true relative residual, recomputed
    by `check_apply` outside the timed region, is within the bound."""

    def references(self) -> None:
        self.bnorm = np.linalg.norm(self.b)

    def relres(self, x) -> float:
        return float(np.linalg.norm(self.b - self.check_apply(x)) / self.bnorm)

    def failures(self, reports) -> list:
        bad = []
        for rep in reports:
            relres = self.relres(rep.x)
            if not (rep.reason in sk.CONVERGED_REASONS and relres <= self.residual_bound):
                bad.append(f"{self.name} {rep.reason.value} relres {relres:.2e}")
        return bad


class StencilCSR(_ResidualChecked):
    """Complex symmetric five-point stencil on an m x m grid with a
    random complex diagonal, assembled by SparseMatrix.from_coo.  The
    diagonal keeps it well conditioned, so the solve stays in the
    MINRES phase throughout."""

    name = "stencil-csr"
    tol = 1e-10
    residual_bound = 1e-9

    def __init__(self, m: int = 447):
        self.m = m
        self.n = m * m

    def build(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        m, n = self.m, self.n
        idx = np.arange(n).reshape(m, m)
        self.diag = (10.0 + 4.0 * rng.uniform(size=n)) + 1j * (4.0 + 4.0 * rng.uniform(size=n))
        rows, cols, vals = [idx.ravel()], [idx.ravel()], [self.diag]
        for left, right in ((idx[:, :-1], idx[:, 1:]), (idx[:-1, :], idx[1:, :])):
            left, right = left.ravel(), right.ravel()
            rows += [left, right]
            cols += [right, left]
            vals += [-np.ones(left.size), -np.ones(left.size)]
        self.b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        self.matrix = sk.SparseMatrix.from_coo(n, np.concatenate(rows), np.concatenate(cols),
                                            np.concatenate(vals))
        self.config = sk.SolverConfig(tol=self.tol)
        self.check_apply = functools.partial(_stencil_apply, self.diag, m)

    def run(self):
        return [sk.solve(self.matrix, self.b, "cs", self.config)]

    def facts(self) -> dict:
        return {"solves": 1, "n": self.n, "nnz": self.matrix.nnz, "tol": self.tol,
                "relres_bound": self.residual_bound}


class MatfreeQLP(_ResidualChecked):
    """Hermitian variable-coefficient Neumann Laplacian on an m x m
    grid, applied by a numpy closure in a LinearOperator.  It is
    singular (constants span the null space) and b = A z is compatible.
    A Diagonal preconditioner and trancond = 1 run the rank-revealing
    phase from step one."""

    name = "matfree-qlp"
    tol = 1e-6
    # phi is in the M^-1 norm under preconditioning, so the true
    # residual is checked against its own bound, not against phi
    residual_bound = 1e-5
    z_stream = 20130423

    def __init__(self, m: int = 316):
        self.m = m
        self.n = m * m

    def build(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        m = self.m
        kx = np.exp(rng.uniform(-1.0, 1.0, size=(m, m - 1)))
        ky = np.exp(rng.uniform(-1.0, 1.0, size=(m - 1, m)))
        dia = np.zeros((m, m))
        dia[:, :-1] += kx
        dia[:, 1:] += kx
        dia[:-1, :] += ky
        dia[1:, :] += ky

        def apply(v):
            u = v.reshape(m, m)
            y = dia * u
            y[:, :-1] -= kx * u[:, 1:]
            y[:, 1:] -= kx * u[:, :-1]
            y[:-1, :] -= ky * u[1:, :]
            y[1:, :] -= ky * u[:-1, :]
            return y.reshape(-1)

        self.check_apply = apply
        self.diagonal = dia.reshape(-1)
        # the seed draws the coefficients; z is drawn from a fixed stream,
        # since an iteration count that moves with a random right-hand
        # side (125-138 over ten seeds, against 131-137 over twenty with
        # z fixed) would add seed-to-seed spread to the timing
        fixed = np.random.default_rng(self.z_stream)
        z = fixed.standard_normal(self.n) + 1j * fixed.standard_normal(self.n)
        self.b = apply(z)
        self.operator = sk.LinearOperator(self.n, sk.SymmetryClass.HERMITIAN, apply)
        self.preconditioner = sk.Diagonal(self.diagonal)
        self.config = sk.SolverConfig(tol=self.tol, trancond=1.0)

    def run(self):
        return [sk.solve(self.operator, self.b, config=self.config,
                      preconditioner=self.preconditioner)]

    def scipy_baseline(self, target_relres: float, maxiter: int, reps: int = 3) -> dict:
        """scipy.sparse.linalg.minres on the same operator, preconditioner
        and right-hand side, stopped at the first iteration whose true
        relative residual reaches `target_relres` (within `maxiter`).

        scipy's minres pairs vectors without conjugation, so it is only
        right for real data; A and M are real here, so it solves for the
        real and imaginary parts of b separately, and one iteration is one
        step of both.  Informational: scipy is imported here only and is
        no dependency of the package."""
        import scipy.sparse.linalg as sla

        shape = (self.n, self.n)
        a = sla.LinearOperator(shape, matvec=self.check_apply, dtype=np.float64)
        m_inv = sla.LinearOperator(shape, matvec=lambda v: v / self.diagonal,
                                   dtype=np.float64)
        parts = (self.b.real.copy(), self.b.imag.copy())
        squares = []
        for rhs in parts:
            hist = []
            sla.minres(a, rhs, M=m_inv, rtol=1e-15, maxiter=maxiter,
                       callback=lambda xk: hist.append(np.linalg.norm(rhs - a @ xk) ** 2))
            hist += [hist[-1]] * (maxiter - len(hist))
            squares.append(np.array(hist))
        relres = np.sqrt(squares[0] + squares[1]) / self.bnorm
        hits = np.flatnonzero(relres <= target_relres)
        if hits.size == 0:
            return {"iterations": 0, "seconds": 0.0, "relres": float(relres.min())}
        iterations = int(hits[0]) + 1
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            xs = [sla.minres(a, rhs, M=m_inv, rtol=1e-15, maxiter=iterations)[0]
                  for rhs in parts]
            times.append(time.perf_counter() - t0)
        return {"iterations": iterations, "seconds": statistics.median(times),
                "relres": self.relres(xs[0] + 1j * xs[1])}

    def facts(self) -> dict:
        return {"solves": 1, "n": self.n, "tol": self.tol, "relres_bound": self.residual_bound}


WORKLOADS = {w.name: w for w in (SuiteDense, StencilCSR, MatfreeQLP)}
