"""The scalar engine on its own: fed the entries of a tridiagonal T_k,
with no operator and no vector, it must agree with a dense QLP and a
dense least-squares solve of T_k at every k.  Inside a solve it reads no
vector either, which is what lets the vector side change roundoff and
nothing else."""

from dataclasses import fields

import numpy as np
import pytest

from symkrylov import solver
from symkrylov.core import EPS
from symkrylov.oracle import SplitMix64, dense_qlp, suite_problem
from symkrylov.precond import Diagonal
from symkrylov.solver import CONVERGED_REASONS, SolverConfig, StopReason, _Engine, solve

K = 12


def tridiagonal(kind, seed):
    """beta_1..beta_{K+1} and, per column k, (alpha_k, sub_k, sup_k)
    as the driver hands them over, with the (K+1) x K matrix they form:
    sub_k below alpha_k, sup_k to the right of alpha_k."""
    rng = np.random.default_rng(seed)
    beta = rng.uniform(0.5, 1.5, size=K + 1)
    if kind == "hermitian":
        alpha = rng.standard_normal(K) + 0j
    elif kind == "complex symmetric":
        alpha = rng.standard_normal(K) + 1j * rng.standard_normal(K)
    else:
        alpha = np.zeros(K, dtype=np.complex128)
    sub = -beta[1:] if kind == "skew" else beta[1:]
    t = np.zeros((K + 1, K), dtype=np.complex128)
    for j in range(K):
        t[j, j] = alpha[j]
        t[j + 1, j] = sub[j]
        if j + 1 < K:
            t[j, j + 1] = beta[j + 1]
    columns = [(complex(alpha[j]), complex(sub[j]), complex(beta[j + 1]))
               for j in range(K)]
    return beta, columns, t


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("kind", ["hermitian", "complex symmetric", "skew"])
def test_engine_matches_dense_qlp_and_least_squares(kind, seed):
    beta, columns, t = tridiagonal(kind, seed)
    # backward stable reflections: each entry of the revealed diagonal
    # is off by at most a modest multiple of eps * ||T||
    bound = 16 * K * EPS * np.linalg.norm(t, 2)
    engine = _Engine(K + 1, beta[0], SolverConfig())
    final = []          # gamma_1^(6), gamma_2^(6), ... as they lock in
    for k in range(1, K + 1):
        engine.step(*columns[k - 1], beta[k - 1], beta[k])
        assert not engine.lanczos_done
        if k > 2:
            final.append(engine.gamma6)
        revealed = np.abs(final + ([engine.gamma5] if k > 1 else []) + [engine.gamma4])

        t_k = t[:k + 1, :k]
        _, low, _ = dense_qlp(t_k)
        np.testing.assert_allclose(revealed, np.abs(np.diag(low)), rtol=0, atol=bound)

        rhs = np.zeros(k + 1, dtype=np.complex128)
        rhs[0] = beta[0]
        y = np.linalg.lstsq(t_k, rhs, rcond=None)[0]
        assert engine.phi == pytest.approx(np.linalg.norm(rhs - t_k @ y), rel=1e-12)
        assert engine.chi == pytest.approx(np.linalg.norm(y), rel=1e-12)


FAMILIES = (("cs-h", 30), ("cs-m", 30), ("ss", 31), ("sh", 31))


def scalar_outputs(report, records):
    """The bits of every output that is not a vector."""
    out = [(f.name, np.asarray(getattr(report, f.name)).tobytes())
           for f in fields(report) if f.name != "x"]
    for rec in records:
        out += [(f.name, np.asarray(getattr(rec, f.name)).tobytes())
                for f in fields(rec) if f.name != "x"]
    return out


@pytest.mark.parametrize("trancond", [1.0, 1e7])
@pytest.mark.parametrize("preconditioned", [False, True])
def test_engine_reads_no_vector(monkeypatch, trancond, preconditioned):
    problems = [suite_problem(family, n, index, 42424242, compatible)
                for family, n in FAMILIES
                for index, compatible in ((0, True), (1, False))]
    config = SolverConfig(tol=EPS, trancond=trancond)

    def outputs():
        out = []
        for p in problems:
            m = Diagonal(0.5 + SplitMix64(2031).uniforms(p.n)) if preconditioned else None
            recs = []
            r = solve(p.a, p.b, p.variant, config, preconditioner=m, monitor=recs.append)
            out.append((r.transfer_iteration, scalar_outputs(r, recs)))
        return out

    real = outputs()
    monkeypatch.setattr(solver._Vectors, "update", lambda self, u, e: None)
    monkeypatch.setattr(solver._Vectors, "iterate",
                        lambda self, e: np.zeros(self.block.shape[1], dtype=np.complex128))
    assert outputs() == real
    if trancond > 1.0:
        # the set also moves from the MINRES phase to the QLP phase mid-run
        assert any(transfer > 1 for transfer, _ in real)


def assert_python_scalars(engine):
    """Every register holds a Python bool, int, float or complex (or a
    tuple of them), never a numpy scalar; np.float64 and np.complex128
    subclass float and complex, so the type is checked exactly."""
    for name in _Engine.__slots__:
        if name == "cfg" or not hasattr(engine, name):
            continue
        value = getattr(engine, name)
        for v in value if isinstance(value, tuple) else (value,):
            assert type(v) in (bool, int, float, complex), (name, type(v))


@pytest.mark.parametrize("trancond", [1.0, 1e7])
@pytest.mark.parametrize("preconditioned", [False, True])
@pytest.mark.parametrize("family, n", FAMILIES + (("hermitian", 31),))
def test_engine_registers_are_python_scalars(monkeypatch, family, n, preconditioned, trancond):
    steps = []
    real_step = _Engine.step

    def step(self, *column):
        real_step(self, *column)
        assert_python_scalars(self)
        steps.append(self.qlp)
    monkeypatch.setattr(_Engine, "step", step)
    for index, compatible in ((0, True), (1, False)):
        if family == "hermitian":
            # i times a skew Hermitian matrix is Hermitian
            p = suite_problem("sh", n, index, 42424242, compatible)
            a, variant = 1j * p.a, "hermitian"
        else:
            p = suite_problem(family, n, index, 42424242, compatible)
            a, variant = p.a, p.variant
        m = Diagonal(0.5 + SplitMix64(2031).uniforms(n)) if preconditioned else None
        solve(a, p.b, variant, SolverConfig(tol=EPS, trancond=trancond), preconditioner=m)
    assert steps and (all(steps) if trancond == 1.0 else not steps[0])


@pytest.mark.parametrize("variant", ["hermitian", "cs"])
@pytest.mark.parametrize("k, reason", [
    (-1070, StopReason.NonFinite), (-1060, StopReason.NonFinite),
    # GammaZero compares the revealed diagonal with eps in absolute
    # terms, so a tiny operator stops at once (not unit free)
    (-1000, StopReason.GammaZero), (-600, StopReason.GammaZero),
    (600, StopReason.Converged_Rnorm), (1000, StopReason.Converged_Rnorm),
])
def test_scaled_operator_raises_nothing(variant, k, reason):
    # Python complex abs() raises OverflowError where np.abs returns
    # inf; over this range of operator scales no register gets there
    a = np.ldexp(np.diag(np.arange(1.0, 9.0)), k)
    with np.errstate(all="ignore"):
        r = solve(a, np.ones(8), variant, SolverConfig(maxxnorm=np.inf))
    assert r.reason is reason
    if reason in CONVERGED_REASONS:
        assert np.isfinite(r.x).all()
