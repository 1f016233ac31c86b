#!/usr/bin/env python3
"""Alternating samples of a bench/ workload, REV against the working tree, in one process.

    python3 scripts/ab_inprocess.py REV [--workload W] [--rounds R]
                                        [--per-half P] [--seed S]

REV (any git revision, e.g. HEAD) is exported with `git archive` to a
temporary directory, and its src/symkrylov is imported as the package
`symkrylov_rev`, next to the working tree's `symkrylov`.  The inputs are
those of the bench/ workload W, built once at seed S and handed to both
packages:
  * suite-dense (the default): `SuiteDense(per_half=P)`; a sample is one
    pass over its problems, as dense arrays;
  * matfree-qlp: `MatfreeQLP()`; a sample is its one solve, and each
    package wraps the workload's numpy closure and diagonal in its own
    LinearOperator and Diagonal.
Each round runs one sample with each package, REV first in odd rounds
and the working tree first in even ones, after one untimed warm-up
sample each.

Both packages then see the same host at nearly the same moment, which
separate benchmark processes do not: the ratio of the two passes of a
round is much less noisy than either time.  Each round's reports must
agree bit for bit (x, reason, iterations and every estimate); the
script stops with exit status 1 at the first that does not.  It prints
one line per round, then each side's median pass (sample) time and the
quartiles of the paired ratio working tree / REV.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import importlib.util
import os
import statistics
import subprocess
import sys
import tempfile
import time
from enum import Enum

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import symkrylov  # noqa: E402
from workloads import MatfreeQLP, SuiteDense  # noqa: E402

REV_PACKAGE = "symkrylov_rev"


def export(rev, dest):
    """Write the files of git revision `rev` into the directory `dest`."""
    archive = subprocess.run(["git", "-C", ROOT, "archive", rev],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def load_package(src, name):
    """Import the package src/symkrylov under the module name `name`."""
    for module in [m for m in sys.modules if m == name or m.startswith(name + ".")]:
        del sys.modules[module]
    pkg = os.path.join(src, "symkrylov")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(pkg, "__init__.py"), submodule_search_locations=[pkg])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def bits(value):
    """A report field reduced to what its bits are compared by."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, Enum):                       # each side's own StopReason
        return value.value
    if isinstance(value, (float, complex)):
        return np.complex128(value).tobytes()
    return value


def first_difference(problems, rev_reports, tree_reports):
    """'problem field' of the first report field whose bits differ, or
    None; a problem is named by its .id, or is a plain label."""
    for p, rev, tree in zip(problems, rev_reports, tree_reports):
        for f in dataclasses.fields(tree):
            if bits(getattr(rev, f.name)) != bits(getattr(tree, f.name)):
                return f"{getattr(p, 'id', p)} {f.name}"
    return None


def build(workload, per_half, seed, grid=None):
    """The bench/ workload named `workload`, built at `seed`; `grid`
    shrinks matfree-qlp's grid side for tests (None: bench/'s default)."""
    if workload == "suite-dense":
        built = SuiteDense(per_half=per_half)
    else:
        built = MatfreeQLP() if grid is None else MatfreeQLP(m=grid)
    built.build(seed)
    return built


class Side:
    """One package's sample of the workload, with its own config objects
    and, on matfree-qlp, its own operator and preconditioner."""

    def __init__(self, package, workload):
        self.solve = package.solve
        if workload.name == "suite-dense":
            self.calls = [((p.a, p.b, p.variant.value,
                            package.SolverConfig(**dataclasses.asdict(c))),
                           {"reorthogonalize": not p.compatible})
                          for p, c in zip(workload.problems, workload.configs)]
            self.labels = workload.problems
        else:
            op = workload.operator
            self.calls = [((package.LinearOperator(op.n, package.SymmetryClass[op.symmetry.name],
                                                   op.apply), workload.b),
                           {"config": package.SolverConfig(**dataclasses.asdict(workload.config)),
                            "preconditioner": package.Diagonal(workload.diagonal)})]
            self.labels = [workload.name]

    def run(self):
        """(seconds, reports) of one sample, timed as bench/run.py times one."""
        gc.collect()
        t0 = time.perf_counter()
        reports = [self.solve(*args, **kwargs) for args, kwargs in self.calls]
        return time.perf_counter() - t0, reports


def compare(rev_src, rounds, per_half, seed, label, workload="suite-dense", grid=None):
    """Run the rounds against the package under rev_src; 0 when every
    report agreed bit for bit, else 1."""
    workload = build(workload, per_half, seed, grid)
    sides = {"rev": Side(load_package(rev_src, REV_PACKAGE), workload),
             "tree": Side(symkrylov, workload)}
    for side in sides.values():
        side.run()
    times = {"rev": [], "tree": []}
    for i in range(1, rounds + 1):
        order = ("rev", "tree") if i % 2 else ("tree", "rev")
        reports = {}
        for name in order:
            dt, reports[name] = sides[name].run()
            times[name].append(dt)
        diff = first_difference(sides["tree"].labels, reports["rev"], reports["tree"])
        if diff is not None:
            print(f"round {i}: reports differ at {diff}")
            return 1
        print(f"round {i} ({order[0]} first): {label} {times['rev'][-1]:.4f} s, "
              f"working tree {times['tree'][-1]:.4f} s, "
              f"ratio {times['tree'][-1] / times['rev'][-1]:.3f}", flush=True)
    ratios = [t / r for r, t in zip(times["rev"], times["tree"])]
    q1, q2, q3 = statistics.quantiles(ratios, n=4) if rounds > 1 else ratios * 3
    size = f"per_half {per_half}" if workload.name == "suite-dense" else f"m {workload.m}"
    print(f"{workload.name} in one process, {rounds} rounds, {size}, seed {seed}, "
          f"{label} -> working tree:")
    print(f"  median pass {statistics.median(times['rev']):.4f} -> "
          f"{statistics.median(times['tree']):.4f} s; paired ratio quartiles "
          f"{q1:.3f} / {q2:.3f} / {q3:.3f}; working tree faster in "
          f"{sum(r < 1.0 for r in ratios)}/{rounds} rounds")
    print(f"  {len(sides['tree'].calls)} reports per pass, bit-identical in every round")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("rev", help="git revision to compare against")
    parser.add_argument("--workload", choices=("suite-dense", "matfree-qlp"),
                        default="suite-dense")
    parser.add_argument("--rounds", type=int, default=60)
    parser.add_argument("--per-half", type=int, default=10,
                        help="problems per suite half on suite-dense (bench/ default 10)")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    with tempfile.TemporaryDirectory() as tmp:
        export(args.rev, tmp)
        return compare(os.path.join(tmp, "src"), args.rounds, args.per_half, args.seed,
                       args.rev, args.workload)


if __name__ == "__main__":
    sys.exit(main())
