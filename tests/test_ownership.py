"""Buffer ownership and the exit paths of the lazily formed QLP iterate.

The engine and the preconditioned process update their vectors in
place.  These tests pin what that must never touch: the caller's b,
arrays the operator or preconditioner hand back (their argument, or a
cached array they overwrite on the next call), earlier reports and
monitor snapshots.  They also pin that every exit returns the iterate
the monitor saw last, and that the QLP phase's window (the vector side
moves its vectors once per `_WINDOW` iterations) is invisible from
outside: a monitor changes nothing, a truncation on any window offset
returns the last monitored iterate and `report.x` owns its memory.
"""

from dataclasses import fields

import numpy as np
import pytest

from symkrylov import solver
from symkrylov.core import EPS, LinearOperator, SymmetryClass
from symkrylov.oracle import SplitMix64, suite_problem
from symkrylov.precond import Custom, Diagonal
from symkrylov.solver import CONVERGED_REASONS, SolverConfig, StopReason, solve

from problems import class_matrix

SEED = 42424242
N = 24
CONFIGS = (SolverConfig(tol=EPS, maxit=4 * N), SolverConfig(tol=EPS, maxit=4 * N, trancond=1.0))
QLP = SolverConfig(tol=EPS, trancond=1.0)


def class_problem(variant):
    """A matrix of each class and a complex right-hand side."""
    rng = SplitMix64(2024)
    a = class_matrix(variant, N, rng)
    b = rng.uniforms(N) + 1j * rng.uniforms(N)
    return a, b


def diagonal():
    return 0.5 + SplitMix64(2025).uniforms(N)


def assert_same_bits(r1, r2):
    for f in fields(r1):
        v1, v2 = np.asarray(getattr(r1, f.name)), np.asarray(getattr(r2, f.name))
        assert v1.dtype == v2.dtype and v1.tobytes() == v2.tobytes(), f.name


@pytest.mark.parametrize("variant", list(SymmetryClass))
def test_cached_and_argument_returns_match_copying_versions(variant):
    a, b = class_problem(variant)
    d = diagonal()
    op_cache = np.empty(N, dtype=np.complex128)
    m_cache = np.empty(N, dtype=np.complex128)

    def cached_apply(v):
        np.matmul(a, v, out=op_cache)
        return op_cache

    def cached_inverse(z):
        np.divide(z, d, out=m_cache)
        return m_cache

    cached_op = LinearOperator(N, variant, cached_apply)
    copying_op = LinearOperator(N, variant, lambda v: cached_apply(v).copy())
    for config in CONFIGS:
        for cached_m, copying_m in (
                (None, None),
                (Custom(lambda z: z), Custom(lambda z: z.copy())),
                (Custom(cached_inverse), Custom(lambda z: cached_inverse(z).copy()))):
            r1 = solve(cached_op, b, config=config, preconditioner=cached_m)
            r2 = solve(copying_op, b, config=config, preconditioner=copying_m)
            assert r1.iterations > 2
            assert_same_bits(r1, r2)


@pytest.mark.parametrize("variant", [SymmetryClass.COMPLEX_SYMMETRIC, SymmetryClass.HERMITIAN])
def test_identity_operator_returning_its_argument(variant):
    b = SplitMix64(2026).uniforms(N) + 1j * SplitMix64(2027).uniforms(N)
    returning = LinearOperator(N, variant, lambda v: v)
    copying = LinearOperator(N, variant, lambda v: v.copy())
    for config in CONFIGS:
        for m_returning, m_copying in ((None, None),
                                       (Diagonal(diagonal()), Diagonal(diagonal())),
                                       (Custom(lambda z: z), Custom(lambda z: z.copy()))):
            r1 = solve(returning, b, config=config, preconditioner=m_returning)
            r2 = solve(copying, b, config=config, preconditioner=m_copying)
            assert_same_bits(r1, r2)


@pytest.mark.parametrize("variant", list(SymmetryClass))
def test_caller_b_is_not_written(variant):
    a, b = class_problem(variant)
    b_before = b.copy()
    for config in CONFIGS:
        for m in (None, Diagonal(diagonal())):
            solve(a, b, variant, config, preconditioner=m)
            assert b.tobytes() == b_before.tobytes()


def test_earlier_report_survives_a_second_solve():
    a, b = class_problem(SymmetryClass.HERMITIAN)
    for config in CONFIGS:
        for m in (None, Diagonal(diagonal())):
            r1 = solve(a, b, "hermitian", config, preconditioner=m)
            x1 = r1.x.copy()
            r2 = solve(a, 2.0 * b, "hermitian", config, preconditioner=m)
            assert r2.x is not r1.x
            assert r1.x.tobytes() == x1.tobytes()


@pytest.mark.parametrize("trancond", [1.0, 1e7])
def test_monitor_records_are_snapshots(trancond):
    p = suite_problem("cs-h", 30, 0, SEED, True)
    for m in (None, Diagonal(0.5 + SplitMix64(2028).uniforms(30))):
        seen = []
        r = solve(p.a, p.b, p.variant, SolverConfig(tol=EPS, trancond=trancond),
                  preconditioner=m, monitor=lambda rec: seen.append((rec, rec.x.copy())))
        assert len(seen) == r.iterations > 2
        for rec, x_then in seen:
            assert rec.x.tobytes() == x_then.tobytes()
        assert seen[-1][0].x is not r.x
        assert r.x.tobytes() == seen[-1][1].tobytes()


def test_qlp_xnorm_truncation_returns_last_monitored_iterate():
    for family, compatible in (("cs-h", True), ("ss", True), ("cs-m", False)):
        n = 31 if family == "ss" else 30
        p = suite_problem(family, n, 1, SEED, compatible)
        free = solve(p.a, p.b, p.variant, SolverConfig(tol=EPS, trancond=1.0))
        maxxnorm = 0.9 * min(free.chi, 1e7)
        recs = []
        r = solve(p.a, p.b, p.variant, SolverConfig(tol=EPS, trancond=1.0, maxxnorm=maxxnorm),
                  monitor=recs.append)
        assert r.reason is StopReason.XnormExceeded
        assert r.transfer_iteration == 1 and r.iterations > 2
        assert r.chi <= maxxnorm
        assert recs[-1].x is not r.x
        assert r.x.tobytes() == recs[-1].x.tobytes()


@pytest.mark.parametrize("trancond", [1.0, 1e7])
def test_midrun_preconditioner_breakdown_returns_last_monitored_iterate(trancond):
    p = suite_problem("cs-h", 30, 0, SEED, True)
    d = 0.5 + SplitMix64(2029).uniforms(30)
    calls = []

    def turns_indefinite(z):
        calls.append(None)
        return z / d if len(calls) <= 6 else -(z / d)

    recs = []
    r = solve(p.a, p.b, p.variant, SolverConfig(tol=EPS, trancond=trancond),
              preconditioner=Custom(turns_indefinite), monitor=recs.append)
    assert r.reason is StopReason.PreconditionerBreakdown
    assert len(recs) == 5 and r.iterations == recs[-1].k
    assert r.x.tobytes() == recs[-1].x.tobytes()


@pytest.mark.parametrize("preconditioned", [False, True])
@pytest.mark.parametrize("variant", list(SymmetryClass))
def test_monitor_leaves_a_windowed_qlp_solve_unchanged(variant, preconditioned):
    a, b = class_problem(variant)
    m = Diagonal(diagonal()) if preconditioned else None
    plain = solve(a, b, variant, QLP, preconditioner=m)
    recs = []
    watched = solve(a, b, variant, QLP, preconditioner=m, monitor=recs.append)
    assert plain.transfer_iteration == 1
    assert plain.iterations >= 4 * solver._WINDOW
    assert_same_bits(plain, watched)
    assert watched.x.tobytes() == recs[-1].x.tobytes()
    # where it converges, the d-vector recurrence, which keeps no
    # window, finds the same x
    minres = solve(a, b, variant, SolverConfig(tol=EPS, trancond=1e20), preconditioner=m)
    if minres.reason in CONVERGED_REASONS:
        assert np.linalg.norm(plain.x - minres.x) <= 1e-10 * np.linalg.norm(minres.x)


@pytest.mark.parametrize("preconditioned", [False, True])
def test_xnorm_truncation_on_each_window_offset(preconditioned):
    p = suite_problem("cs-h", 30, 1, SEED, True)
    m = Diagonal(0.5 + SplitMix64(2028).uniforms(30)) if preconditioned else None
    free = []
    solve(p.a, p.b, p.variant, QLP, preconditioner=m, monitor=free.append)
    offsets = set()
    for rec in free[1:4 * solver._WINDOW]:
        recs = []
        config = SolverConfig(tol=EPS, trancond=1.0, maxxnorm=0.999 * rec.chi)
        r = solve(p.a, p.b, p.variant, config, preconditioner=m, monitor=recs.append)
        assert r.reason is StopReason.XnormExceeded
        assert r.chi <= config.maxxnorm
        assert recs[-1].x is not r.x
        assert r.x.tobytes() == recs[-1].x.tobytes()
        if not preconditioned:
            # the W columns are orthonormal, so chi is the length of x
            assert abs(np.linalg.norm(r.x) - r.chi) <= 1e-10 * r.chi
        # with trancond = 1 iteration k's u sits at window offset k - 1 mod m
        offsets.add((r.iterations - 1) % solver._WINDOW)
    assert offsets == set(range(solver._WINDOW))


@pytest.mark.parametrize("trancond", [1.0, 1e7])
def test_report_x_shares_no_memory_with_the_block(monkeypatch, trancond):
    blocks = []
    init = solver._Vectors.__init__

    def keep_block(self, n):
        init(self, n)
        blocks.append(self.block)

    monkeypatch.setattr(solver._Vectors, "__init__", keep_block)
    a, b = class_problem(SymmetryClass.HERMITIAN)
    config = SolverConfig(tol=EPS, trancond=trancond)
    for m in (None, Diagonal(diagonal())):
        r1 = solve(a, b, "hermitian", config, preconditioner=m)
        r2 = solve(a, 2.0 * b, "hermitian", config, preconditioner=m)
        assert r1.iterations > solver._WINDOW
        assert r1.x.flags.owndata and r2.x.flags.owndata
        assert not np.shares_memory(r1.x, blocks[-2])
        assert not np.shares_memory(r2.x, blocks[-1])
        assert not np.shares_memory(r1.x, r2.x)
