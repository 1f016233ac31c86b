#!/usr/bin/env python3
"""Scan the converged-reason contract on the generated suites.

    python3 scripts/contract_scan.py [--quick]

A converged stop reason (solver.CONVERGED_REASONS) promises a right x.
The scan solves the four suite families of oracle.FAMILIES at the paper
protocol (tol = eps, maxit = 4n): n = 9, 16 and 25, seeds 1-20, three
problems from each half (compatible and least-squares), in three
settings:

  * plain and reorth: through cli.run_suite, without and with
    reorthogonalization.  A solve is right when its relative error
    against tsvd_solve, the minimum-length solution, is at most RIGHT.
  * diagonal: the compatible half only, under Diagonal(0.5 + u), with u
    uniform from a SplitMix64 stream of the problem's own.  The
    minimum-length solution is then in M's norm, so a solve is right
    when its true residual ||b - Ax|| / ||b|| is at most RESIDUAL.

--quick scans n = 9 at seeds 1-5 only.

One line per cell (setting, half, family) gives four counts:
converged-right, converged-wrong, non-converged-right and
non-converged-wrong, then every stop reason the cell reached with its
count and the largest error behind a converged reason (relative error,
or true residual in the diagonal setting).  A total line per setting
and half follows its four families.  The exit status is 1 when any
solve stops converged with a wrong x.
"""

from __future__ import annotations

import argparse
import collections
import itertools
import os
import sys
import zlib

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from symkrylov.cli import run_suite  # noqa: E402
from symkrylov.core import EPS, norm2  # noqa: E402
from symkrylov.oracle import FAMILIES, SplitMix64, suite_problem  # noqa: E402
from symkrylov.precond import Diagonal  # noqa: E402
from symkrylov.solver import CONVERGED_REASONS, SolverConfig, StopReason, solve  # noqa: E402

RIGHT = 1e-5
RESIDUAL = 1e-8
COUNTS = ("conv-right", "conv-wrong", "nonconv-right", "nonconv-wrong")


def record(cells, key, reason, err, bound):
    """Count one solve of cell `key`: right when err <= bound, and its
    stop reason; a converged one's err may raise the cell's worst."""
    tally, worst = cells.get(key, (collections.Counter(), 0.0))
    converged = reason in CONVERGED_REASONS
    tally[COUNTS[2 * (not converged) + (not err <= bound)]] += 1
    tally[reason.value] += 1
    cells[key] = tally, max(worst, err) if converged else worst


def scan(sizes, seeds, count=3):
    """{(setting, half, family): (Counter of COUNTS and reasons, worst
    converged error)} over the grid."""
    cells = {}
    grid = list(itertools.product(FAMILIES, sizes, seeds))
    for setting, reorthogonalize in (("plain", False), ("reorth", True)):
        for family, n, seed in grid:
            for rec in run_suite(family, n, count, seed, reorthogonalize):
                half = "compatible" if rec.compatible else "least-squares"
                record(cells, (setting, half, family), StopReason(rec.stop_reason),
                       rec.relerr, RIGHT)
    for family, n, seed in grid:
        for index in range(count):
            p = suite_problem(family, n, index, seed, True)
            u = SplitMix64(zlib.crc32(f"diagonal {seed} {p.id}".encode())).uniforms(n)
            r = solve(p.a, p.b, p.variant, SolverConfig(tol=EPS, maxit=4 * n),
                      preconditioner=Diagonal(0.5 + u))
            record(cells, ("diagonal", "compatible", family), r.reason,
                   norm2(p.b - p.a @ r.x) / norm2(p.b), RESIDUAL)
    return cells


def line(label, tally, worst):
    reasons = ", ".join(f"{r} {tally[r]}" for r in sorted(tally) if r not in COUNTS)
    counts = " ".join(f"{tally[c]:>{len(c)}}" for c in COUNTS)
    return f"{label:<34} {counts}  worst {worst:.1e}  {reasons}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="n = 9, seeds 1-5")
    args = parser.parse_args(argv)
    sizes, seeds = ((9,), range(1, 6)) if args.quick else ((9, 16, 25), range(1, 21))
    cells = scan(sizes, seeds)
    print(f"{'cell':<34} {' '.join(COUNTS)}")
    # each (setting, half) in the order the scan first reached it
    for setting, half in dict.fromkeys(key[:2] for key in cells):
        total, total_worst = collections.Counter(), 0.0
        for family in FAMILIES:
            tally, worst = cells[setting, half, family]
            print(line(f"{setting} {half} {family}", tally, worst))
            total.update(tally)
            total_worst = max(total_worst, worst)
        print(line(f"{setting} {half} total", total, total_worst))
    wrong = sum(tally["conv-wrong"] for tally, _ in cells.values())
    print(f"{wrong} converged-wrong solves")
    return 1 if wrong else 0


if __name__ == "__main__":
    raise SystemExit(main())
