#!/usr/bin/env python3
"""Compare solver outputs bit for bit between the working tree and REV.

    python3 scripts/compare_iterates.py REV

REV (any git revision, e.g. HEAD~) is exported with `git archive` to a
temporary directory and its src/symkrylov is imported as the package
`symkrylov_rev`, next to the working tree's `symkrylov`, in one
interpreter (scripts/ab.py's export and loader).  Each problem of a
fixed set is a thunk that takes the package: it runs with REV's, then
with the working tree's, and the two outputs are compared bit for bit
at once: every SolveReport field, the returned x, and every field of
every monitor record.  One line per problem reports `same` or the first
output whose bits differ, followed for a solve by whether its `reason`
and `iterations` agree and by the relative gap
||x - x_REV|| / ||x_REV||, and by whether any output that is not an
array differs, so a change that moves roundoff only can show it
(ab.py's difference report); the exit status is 1 when any output
differs.

The set:
  * the four generated suites of oracle.FAMILIES (cs-h, cs-m, ss, sh)
    at their paper n, seeds 1-3, two problems from each of the
    compatible and least-squares halves, under each configuration in
    CONFIGS, with and without a monitor;
  * the three bench/ workloads at seed 1: the working tree's
    bench/workloads.py, built and run with its `sk` bound to each
    package in turn (REV's bench/ is not read);
  * a large preconditioned block: per class, a tridiagonal operator of
    size LARGE_N, which spans several chunks of the preconditioned
    step's sweep and is no multiple of one, solved with a Diagonal
    preconditioner, with and without a shift its preconditioned row can
    carry: SHIFT on cs, its real part on hermitian, its imaginary part
    on sh and ss;
  * a small fixed block of solves, built as in tests/, that stop for
    each of the seven reasons the sets above do not reach (stop_runs:
    CondExceeded, on two problems, MaxIt, BetaZero_xZero,
    Beta2Zero_OneStep, NotStructured, NonFinite and
    PreconditionerBreakdown), with and without a monitor, plus an entry
    with a NaN tol, which records the ValueError it raises;
  * a generator block, which runs no solve: the four suites at their
    paper n, seeds 1-20, both halves, with as many problems per half as
    the bench/ suite-dense workload builds, each recorded as a sha256 of
    a.tobytes() + b.tobytes() and its rank, so a change to the problem
    generator is checked directly, not only through the iterates.
Before the summary line, one line tallies the stop reasons of the
working tree's solves and one counts the problems that differ in arrays
only, with their largest x gap, against those that differ in a
non-array output.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import importlib
import itertools
import os
import sys
import tempfile
import time
from collections import Counter

import numpy as np

import ab
from ab import workloads
from symkrylov.oracle import FAMILIES as SUITES

# each suite at the n of the paper's protocol, from the working tree's table
FAMILIES = tuple((family, suite.paper_n) for family, suite in SUITES.items())
SEEDS = (1, 2, 3)
PER_HALF = 2
BENCH_SEED = 1
GENERATOR_SEEDS = range(1, 21)
GENERATOR_PER_HALF = workloads.SuiteDense().per_half
SMALL_XNORM = 2.0     # below the solution norm of every compatible suite problem
SHIFT = 0.05 + 0.02j
LARGE_N = 20011       # more than two chunks of the preconditioned sweep, no multiple of one
LARGE_MAXIT = 100
TESTS_SEED = 42424242   # SEED of tests/test_solver.py and tests/test_ownership.py
# name -> (SolverConfig overrides, preconditioned?)
CONFIGS = {
    "default": ({}, False),
    "trancond1": ({"trancond": 1.0}, False),
    "maxxnorm": ({"maxxnorm": SMALL_XNORM}, False),
    "maxxnorm-qlp": ({"maxxnorm": SMALL_XNORM, "trancond": 1.0}, False),
    "diagonal": ({}, True),
    "diagonal-qlp": ({"trancond": 1.0}, True),
    "diagonal-shift": ({"shift": SHIFT}, True),
}


def oracle(sk):
    """The package `sk`'s oracle module."""
    return importlib.import_module(f"{sk.__name__}.oracle")


def solved(sk, a, b, variant, config, monitored, **kwargs):
    """The outputs of one solve by the package `sk`."""
    records = [] if monitored else None
    report = sk.solve(a, b, variant, config,
                      monitor=records.append if monitored else None, **kwargs)
    return ab.outputs(report, records)


def suite_runs():
    """(problem id, solve thunk) for every suite problem and configuration."""
    eps = np.finfo(float).eps
    # each package generates a problem once for all its configurations
    suite_problem = functools.cache(lambda sk, *args: oracle(sk).suite_problem(*args))
    for family, n in FAMILIES:
        for seed in SEEDS:
            for compatible in (True, False):
                for index in range(PER_HALF):
                    d = 1.0 + np.random.default_rng([seed, index]).uniform(size=n)
                    half = "compat" if compatible else "lsq"
                    for name, (overrides, precond) in CONFIGS.items():
                        for monitored in (False, True):
                            pid = (f"{family} seed{seed} {half}{index} {name}"
                                   f"{' monitor' if monitored else ''}")

                            def run(sk, problem=(family, n, index, seed, compatible), d=d,
                                    overrides=overrides, precond=precond, monitored=monitored):
                                p = suite_problem(sk, *problem)
                                config = sk.SolverConfig(tol=eps, maxit=4 * p.n, **overrides)
                                m = sk.Diagonal(d) if precond else None
                                return solved(sk, p.a, p.b, p.variant, config, monitored,
                                              preconditioner=m)
                            yield pid, run


def stop_runs():
    """(problem id, solve thunk) for solves that stop for each reason the
    suites and the workloads do not reach."""
    eps = np.finfo(float).eps

    def suite(sk, family, n, index, compatible, reorthogonalize=False, **overrides):
        p = oracle(sk).suite_problem(family, n, index, TESTS_SEED, compatible)
        return (p.a, p.b, p.variant, sk.SolverConfig(**overrides),
                {"reorthogonalize": reorthogonalize})

    def turns_nan(sk, trancond):
        # the operator's ninth call, in the fifth process step, writes a NaN
        rng = oracle(sk).SplitMix64(814)
        a = oracle(sk).symmetric_imaginary_matrix(24, 24, rng)
        b = rng.uniforms(24) + 1j * rng.uniforms(24)
        calls = [0]

        def apply(x):
            calls[0] += 1
            y = a @ x
            if calls[0] == 9:
                y[0] = np.nan
            return y
        op = sk.LinearOperator(24, sk.SymmetryClass.COMPLEX_SYMMETRIC, apply)
        return op, b, None, sk.SolverConfig(trancond=trancond), {}

    def turns_indefinite(sk, trancond):
        # the preconditioner's seventh solve, in the sixth step, flips sign
        p = oracle(sk).suite_problem("cs-h", 30, 0, TESTS_SEED, True)
        d = 0.5 + oracle(sk).SplitMix64(2029).uniforms(30)
        calls = [0]

        def m_solve(z):
            calls[0] += 1
            return z / d if calls[0] <= 6 else -(z / d)
        return (p.a, p.b, p.variant, sk.SolverConfig(tol=eps, trancond=trancond),
                {"preconditioner": sk.Custom(m_solve)})

    cases = {
        # a least-squares solve whose revealed diagonal collapses
        "CondExceeded cs-h": lambda sk: suite(sk, "cs-h", 30, 0, False, tol=eps, maxit=500,
                                              maxxnorm=1e300),
        "CondExceeded": lambda sk: suite(sk, "cs-m", 30, 2, False, tol=eps, maxit=500,
                                         maxxnorm=1e300),
        "MaxIt": lambda sk: suite(sk, "cs-h", 30, 0, True, maxit=1),
        # no finite tol reaches LanczosExhausted; SolverConfig rejects a
        # NaN tol, so this entry records the ValueError
        "LanczosExhausted": lambda sk: suite(sk, "ss", 31, 0, True, reorthogonalize=True,
                                             tol=np.nan),
        "BetaZero_xZero": lambda sk: (np.eye(3), np.zeros(3), "cs", sk.SolverConfig(), {}),
        "Beta2Zero_OneStep": lambda sk: (1j * np.eye(2), np.array([1.0 + 1.0j, 0.0]), "cs",
                                         sk.SolverConfig(), {}),
        "NotStructured": lambda sk: (np.array([[1.0, 2.0], [0.0, 1.0]]), np.ones(2), "cs",
                                     sk.SolverConfig(), {}),
        "NonFinite": lambda sk: turns_nan(sk, 1e7),
        "NonFinite qlp": lambda sk: turns_nan(sk, 1.0),
        "PreconditionerBreakdown": lambda sk: turns_indefinite(sk, 1e7),
        "PreconditionerBreakdown qlp": lambda sk: turns_indefinite(sk, 1.0),
    }
    for name, case in cases.items():
        for monitored in (False, True):
            def run(sk, case=case, monitored=monitored):
                a, b, variant, config, kwargs = case(sk)
                with np.errstate(all="ignore"):
                    return solved(sk, a, b, variant, config, monitored, **kwargs)
            yield f"stop {name}{' monitor' if monitored else ''}", run


def large_problems():
    """The large block's b, M's diagonal and, per class, the operator's
    apply(x) and the shift its preconditioned row can carry (A - shift*I
    stays of the class)."""
    n = LARGE_N
    rng = np.random.default_rng(LARGE_N)
    real = lambda size: rng.uniform(-1.0, 1.0, size)
    c = real(n - 1) + 1j * real(n - 1)
    d = 3.0 + real(n)
    # symmetry class -> (diagonal, superdiagonal, subdiagonal) of A, shift
    entries = {
        "hermitian": (d, c, np.conj(c), SHIFT.real),
        "cs": (d + 1j * real(n), c, c, SHIFT),
        # the ss row solves A = -A^H; a complex A = -A^T fits no class
        "ss": (np.zeros(n), c.real, -c.real, 1j * SHIFT.imag),
        "sh": (1j * d, c, -np.conj(c), 1j * SHIFT.imag),
    }
    m_diagonal = 1.0 + rng.uniform(size=n)
    b = real(n) + 1j * real(n)
    problems = {}
    for cls, (diag, sup, sub, shift) in entries.items():
        def apply(x, diag=diag, sup=sup, sub=sub):
            y = diag * x
            y[:-1] += sup * x[1:]
            y[1:] += sub * x[:-1]
            return y
        problems[cls] = (apply, shift)
    return b, m_diagonal, problems


def large_precond_runs():
    """(problem id, solve thunk) for the large preconditioned block."""
    n = LARGE_N
    b, m_diagonal, problems = large_problems()
    for cls, (apply, class_shift) in problems.items():
        for shift in (0.0, class_shift):
            def run(sk, cls=cls, apply=apply, shift=shift):
                op = sk.LinearOperator(n, sk.SymmetryClass(cls), apply)
                config = sk.SolverConfig(tol=1e-10, maxit=LARGE_MAXIT, shift=shift)
                return solved(sk, op, b, None, config, False,
                              preconditioner=sk.Diagonal(m_diagonal))
            yield f"large {cls} n{n} diagonal{' shift' if shift else ''}", run


def generator_runs():
    """(problem id, thunk) giving each generated problem's digest and rank."""
    for family, n in FAMILIES:
        for seed in GENERATOR_SEEDS:
            for compatible in (True, False):
                for index in range(GENERATOR_PER_HALF):
                    def run(sk, problem=(family, n, index, seed, compatible)):
                        p = oracle(sk).suite_problem(*problem)
                        digest = hashlib.sha256(p.a.tobytes() + p.b.tobytes()).hexdigest()
                        return [("sha256", ab.bits(digest)), ("rank", ab.bits(p.rank))]
                    half = "compat" if compatible else "lsq"
                    yield f"generator {family} seed{seed} {half}{index}", run


def bench_runs():
    """(problem id, thunk) for each solve of each bench/ workload.  A
    package builds and runs a workload once, at its first thunk."""
    for name, factory in sorted(workloads.WORKLOADS.items()):
        @functools.cache
        def reports(sk, factory=factory):
            with ab.bound(sk):
                workload = factory()
                workload.build(BENCH_SEED)
                return workload.run()

        for i in itertools.count():
            yield (f"bench {name} seed{BENCH_SEED} solve{i}",
                   lambda sk, i=i, reports=reports: ab.outputs(reports(sk)[i]))
            # the working tree's count of solves, its thunk run by now
            if i + 1 >= len(reports(ab.symkrylov)):
                break


def record(run, sk):
    """run(sk): the outputs of a problem; a raised error is an output too."""
    try:
        return run(sk)
    except Exception as exc:
        return [("raised", ("repr", f"{type(exc).__name__}: {exc}"))]


def compare(runs, rev, label):
    """Run each (problem id, thunk) of `runs` with the package `rev`, then
    with the working tree's; print the report; 1 when any output
    differs, else 0."""
    packages = {"rev": rev, "tree": ab.symkrylov}
    seconds = dict.fromkeys(packages, 0.0)
    lines, reasons = {}, Counter()
    differ = compared = array_only = 0
    max_gap = 0.0
    for pid, run in runs:
        out = {}
        for side, sk in packages.items():
            t0 = time.perf_counter()
            out[side] = record(run, sk)
            seconds[side] += time.perf_counter() - t0
        compared += len(out["tree"])
        reason = dict(out["tree"]).get("reason")
        if reason is not None:
            reasons[reason[1]] += 1
        diff = ab.difference(out["rev"], out["tree"])
        lines[pid] = f"{pid}: {diff or 'same'}"
        if diff is not None:
            differ += 1
            if not ab.scalar_differs(out["rev"], out["tree"]):
                array_only += 1
                max_gap = max(max_gap, ab.x_gap(out["rev"], out["tree"]) or 0.0)
    for pid in sorted(lines):
        print(lines[pid])
    print("stop reasons (working tree): "
          + ", ".join(f"{reason} {count}" for reason, count in sorted(reasons.items())))
    print(f"{array_only} problems differ in arrays only (max x gap {max_gap:.2e}), "
          f"{differ - array_only} in a non-array output")
    print(f"{len(lines)} problems, {compared} outputs compared, {differ} problems differ "
          f"(working tree {seconds['tree']:.1f} s, {label} {seconds['rev']:.1f} s)")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("rev", help="git revision to compare against")
    args = parser.parse_args(argv)
    runs = itertools.chain(suite_runs(), stop_runs(), large_precond_runs(),
                           generator_runs(), bench_runs())
    with tempfile.TemporaryDirectory() as tmp:
        ab.export(args.rev, tmp)
        return compare(runs, ab.load_package(os.path.join(tmp, "src"), ab.REV_PACKAGE),
                       args.rev)


if __name__ == "__main__":
    sys.exit(main())
