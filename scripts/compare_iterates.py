#!/usr/bin/env python3
"""Compare solver outputs bit for bit between the working tree and REV.

    python3 scripts/compare_iterates.py REV

REV (any git revision, e.g. HEAD~) is exported with `git archive` to a
temporary directory.  Each tree then runs the same fixed set of solves
in its own interpreter, importing its own src/ and bench/, and the
outputs are compared bit for bit: every SolveReport field, the
returned x, and every field of every monitor record.  One line per
problem reports `same` or the first output whose bits differ, followed
for a solve by whether its `reason` and `iterations` agree and by the
relative gap ||x - x_REV|| / ||x_REV||, and by whether any output that
is not an array differs, so a change that moves roundoff only can show
it; the exit status is 1 when any output differs.

The set:
  * the four generated suites (cs-h, cs-m, ss, sh) at seeds 1-3, two
    problems from each of the compatible and least-squares halves,
    under each configuration in CONFIGS, with and without a monitor;
  * the three bench/ workloads at seed 1;
  * a small fixed block of solves, built as in tests/, that stop for
    each of the eight reasons the sets above do not reach (stop_runs),
    with and without a monitor, plus an entry with a NaN tol, which
    records the ValueError it raises.
Before the summary line, one line tallies the stop reasons of the
working tree's solves and one counts the problems that differ in arrays
only, with their largest x gap, against those that differ in a
non-array output.
"""

from __future__ import annotations

import argparse
import os
import pickle
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import fields
from enum import Enum

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FAMILIES = (("cs-h", 50), ("cs-m", 50), ("ss", 51), ("sh", 51))
SEEDS = (1, 2, 3)
PER_HALF = 2
BENCH_SEED = 1
SMALL_XNORM = 2.0     # below the solution norm of every compatible suite problem
SHIFT = 0.05 + 0.02j
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


def plain(value):
    """A value reduced to what its bits are compared by."""
    if isinstance(value, np.ndarray):
        return ("array", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, Enum):
        return ("enum", value.value)
    if isinstance(value, (bool, np.bool_)):
        return ("bool", bool(value))
    if isinstance(value, (int, np.integer)):
        return ("int", int(value))
    if isinstance(value, (float, np.floating)):
        return ("float", np.float64(value).tobytes())
    if isinstance(value, (complex, np.complexfloating)):
        return ("complex", np.complex128(value).tobytes())
    return ("repr", repr(value))


def outputs(report, records):
    """[(name, value)] for a report and its monitor records, in order."""
    out = [(f.name, getattr(report, f.name)) for f in fields(report)]
    for i, rec in enumerate(records or ()):
        out += [(f"records[{i}].{f.name}", getattr(rec, f.name)) for f in fields(rec)]
    return out


def suite_runs():
    """(problem id, solve thunk) for every suite problem and configuration."""
    import symkrylov as sk
    from symkrylov.oracle import suite_problem

    eps = np.finfo(float).eps
    for family, n in FAMILIES:
        for seed in SEEDS:
            for compatible in (True, False):
                for index in range(PER_HALF):
                    p = suite_problem(family, n, index, seed, compatible)
                    d = 1.0 + np.random.default_rng([seed, index]).uniform(size=n)
                    half = "compat" if compatible else "lsq"
                    for name, (overrides, precond) in CONFIGS.items():
                        config = sk.SolverConfig(tol=eps, maxit=4 * n, **overrides)
                        m = sk.Diagonal(d) if precond else None
                        for monitored in (False, True):
                            pid = (f"{family} seed{seed} {half}{index} {name}"
                                   f"{' monitor' if monitored else ''}")

                            def run(p=p, config=config, m=m, monitored=monitored):
                                records = [] if monitored else None
                                report = sk.solve(p.a, p.b, p.variant, config,
                                                  preconditioner=m,
                                                  monitor=records.append if monitored else None)
                                return outputs(report, records)
                            yield pid, run


def stop_runs():
    """(problem id, solve thunk) for solves that stop for each reason the
    suites and the workloads do not reach."""
    import symkrylov as sk
    from symkrylov.oracle import SplitMix64, suite_problem, symmetric_imaginary_matrix

    eps = np.finfo(float).eps

    def suite(family, n, index, compatible, reorthogonalize=False, **overrides):
        p = suite_problem(family, n, index, TESTS_SEED, compatible)
        return (p.a, p.b, p.variant, sk.SolverConfig(**overrides),
                {"reorthogonalize": reorthogonalize})

    def turns_nan(trancond):
        # the operator's ninth call, in the fifth process step, writes a NaN
        rng = SplitMix64(814)
        a = symmetric_imaginary_matrix(24, 24, rng)
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

    def turns_indefinite(trancond):
        # the preconditioner's seventh solve, in the sixth step, flips sign
        p = suite_problem("cs-h", 30, 0, TESTS_SEED, True)
        d = 0.5 + SplitMix64(2029).uniforms(30)
        calls = [0]

        def m_solve(z):
            calls[0] += 1
            return z / d if calls[0] <= 6 else -(z / d)
        return (p.a, p.b, p.variant, sk.SolverConfig(tol=eps, trancond=trancond),
                {"preconditioner": sk.Custom(m_solve)})

    cases = {
        "GammaZero": lambda: suite("cs-h", 30, 0, False, tol=eps, maxit=500, maxxnorm=1e300),
        "CondExceeded": lambda: suite("cs-m", 30, 2, False, tol=eps, maxit=500, maxxnorm=1e300),
        "MaxIt": lambda: suite("cs-h", 30, 0, True, maxit=1),
        # no finite tol reaches LanczosExhausted; SolverConfig rejects a
        # NaN tol, so this entry records the ValueError
        "LanczosExhausted": lambda: suite("ss", 31, 0, True, reorthogonalize=True, tol=np.nan),
        "BetaZero_xZero": lambda: (np.eye(3), np.zeros(3), "cs", sk.SolverConfig(), {}),
        "Beta2Zero_OneStep": lambda: (1j * np.eye(2), np.array([1.0 + 1.0j, 0.0]), "cs",
                                      sk.SolverConfig(), {}),
        "NotStructured": lambda: (np.array([[1.0, 2.0], [0.0, 1.0]]), np.ones(2), "cs",
                                  sk.SolverConfig(), {}),
        "NonFinite": lambda: turns_nan(1e7),
        "NonFinite qlp": lambda: turns_nan(1.0),
        "PreconditionerBreakdown": lambda: turns_indefinite(1e7),
        "PreconditionerBreakdown qlp": lambda: turns_indefinite(1.0),
    }
    for name, case in cases.items():
        for monitored in (False, True):
            def run(case=case, monitored=monitored):
                a, b, variant, config, kwargs = case()
                records = [] if monitored else None
                with np.errstate(all="ignore"):
                    report = sk.solve(a, b, variant, config,
                                      monitor=records.append if monitored else None, **kwargs)
                return outputs(report, records)
            yield f"stop {name}{' monitor' if monitored else ''}", run


def bench_runs(tree):
    sys.path.insert(0, os.path.join(tree, "bench"))
    from workloads import WORKLOADS

    for name in sorted(WORKLOADS):
        workload = WORKLOADS[name]()
        workload.build(BENCH_SEED)
        reports = workload.run()
        for i, report in enumerate(reports):
            yield f"bench {name} seed{BENCH_SEED} solve{i}", lambda report=report: outputs(report, None)


def collect(tree, out_path):
    """Run the set on the package under `tree` and pickle the outputs."""
    sys.path.insert(0, os.path.join(tree, "src"))
    results = {}
    runs = list(suite_runs()) + list(stop_runs())
    if os.path.isdir(os.path.join(tree, "bench")):
        runs += list(bench_runs(tree))
    for pid, run in runs:
        try:
            results[pid] = [(name, plain(value)) for name, value in run()]
        except Exception as exc:          # a raised error is an output too
            results[pid] = [("raised", ("repr", f"{type(exc).__name__}: {exc}"))]
    with open(out_path, "wb") as fh:
        pickle.dump(results, fh)


def first_difference(a, b):
    """Name of the first output whose bits differ, or None."""
    for (name_a, val_a), (name_b, val_b) in zip(a, b):
        if name_a != name_b:
            return f"{name_a} vs {name_b}"
        if val_a != val_b:
            return name_a
    if len(a) != len(b):
        return f"output count {len(a)} vs {len(b)}"
    return None


def x_gap(a, b):
    """||x - x_REV|| / ||x_REV|| for two solves' outputs, or None when
    either one raised."""
    a, b = dict(a), dict(b)
    if "x" not in a or "x" not in b:
        return None
    x, x_rev = (np.frombuffer(v[3], dtype=v[1]).reshape(v[2]) for v in (a["x"], b["x"]))
    return float(np.linalg.norm(x - x_rev) / np.linalg.norm(x_rev))


def scalar_differs(a, b):
    """Whether an output that is not an array differs (or is missing on
    one side)."""
    a, b = dict(a), dict(b)
    return any(a.get(name) != b.get(name) for name in set(a) | set(b)
               if "array" not in (a.get(name, ("",))[0], b.get(name, ("",))[0]))


def how_it_differs(a, b, scalar, gap):
    """Whether reason and iterations agree, the relative x gap and
    whether any non-array output differs (scalar), for two solves'
    outputs; only the last when either one raised (gap is None)."""
    scalars = "a non-array output differs" if scalar else "arrays only"
    if gap is None:
        return f"; {scalars}"
    a, b = dict(a), dict(b)
    agree = {key: "same" if a[key] == b[key] else "differ" for key in ("reason", "iterations")}
    return (f"; reason {agree['reason']}, iterations {agree['iterations']}, "
            f"x gap {gap:.2e}; {scalars}")


def run_tree(tree, out_path):
    t0 = time.perf_counter()
    subprocess.run([sys.executable, os.path.abspath(__file__), "--collect", tree, out_path],
                   check=True)
    with open(out_path, "rb") as fh:      # written by this script just above
        return pickle.load(fh), time.perf_counter() - t0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("rev", nargs="?", help="git revision to compare against")
    parser.add_argument("--collect", nargs=2, metavar=("TREE", "OUT"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.collect:
        collect(*args.collect)
        return 0
    if not args.rev:
        parser.error("REV is required")

    with tempfile.TemporaryDirectory() as tmp:
        rev_tree = os.path.join(tmp, "rev")
        os.mkdir(rev_tree)
        archive = subprocess.run(["git", "-C", ROOT, "archive", args.rev],
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", rev_tree], input=archive, check=True)
        ours, ours_s = run_tree(ROOT, os.path.join(tmp, "ours.pkl"))
        theirs, theirs_s = run_tree(rev_tree, os.path.join(tmp, "theirs.pkl"))

    differ = compared = array_only = 0
    max_gap = 0.0
    for pid in sorted(set(ours) | set(theirs)):
        if pid not in ours or pid not in theirs:
            print(f"{pid}: only in {'the working tree' if pid in ours else args.rev}")
            differ += 1
            continue
        compared += len(ours[pid])
        diff = first_difference(ours[pid], theirs[pid])
        if diff is None:
            print(f"{pid}: same")
            continue
        differ += 1
        scalar, gap = scalar_differs(ours[pid], theirs[pid]), x_gap(ours[pid], theirs[pid])
        print(f"{pid}: differs at {diff}{how_it_differs(ours[pid], theirs[pid], scalar, gap)}")
        if not scalar:
            array_only += 1
            max_gap = max(max_gap, gap or 0.0)
    reasons = Counter(dict(out)["reason"][1] for out in ours.values() if "reason" in dict(out))
    print("stop reasons (working tree): "
          + ", ".join(f"{reason} {count}" for reason, count in sorted(reasons.items())))
    print(f"{array_only} problems differ in arrays only (max x gap {max_gap:.2e}), "
          f"{differ - array_only} in a non-array output")
    print(f"{len(ours)} problems, {compared} outputs compared, {differ} problems differ "
          f"(working tree {ours_s:.1f} s, {args.rev} {theirs_s:.1f} s)")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
