#!/usr/bin/env python3
"""Scan the converged-reason contract on the generated suites.

    python3 scripts/contract_scan.py [--quick]

A converged stop reason (solver.CONVERGED_REASONS) promises a right x.
The scan solves the four suite families of oracle.FAMILIES through
cli.run_suite, at the paper protocol (tol = eps, maxit = 4n): n = 9, 16
and 25, seeds 1-20, three problems from each half (compatible and
least-squares), each plain and reorthogonalized.  A solve is right when
its relative error against tsvd_solve, the minimum-length solution, is
at most RIGHT.  --quick scans n = 9 at seeds 1-5 only.

One line per cell (setting, half, family) gives four counts:
converged-right, converged-wrong, non-converged-right and
non-converged-wrong, then every stop reason the cell reached with its
count and the largest relative error behind a converged reason.  A
total line per setting and half follows its four families.  The exit
status is 1 when any solve stops converged with a wrong x.
"""

from __future__ import annotations

import argparse
import collections
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from symkrylov.cli import run_suite  # noqa: E402
from symkrylov.oracle import FAMILIES  # noqa: E402
from symkrylov.solver import CONVERGED_REASONS, StopReason  # noqa: E402

RIGHT = 1e-5
COUNTS = ("conv-right", "conv-wrong", "nonconv-right", "nonconv-wrong")


def scan(sizes, seeds, count=3):
    """{(setting, half, family): (Counter of COUNTS and reasons, worst
    converged relerr)} over the grid."""
    cells = {}
    for setting, reorthogonalize in (("plain", False), ("reorth", True)):
        for family in FAMILIES:
            for n in sizes:
                for seed in seeds:
                    for rec in run_suite(family, n, count, seed, reorthogonalize):
                        half = "compatible" if rec.compatible else "least-squares"
                        tally, worst = cells.get((setting, half, family), (collections.Counter(), 0.0))
                        converged = StopReason(rec.stop_reason) in CONVERGED_REASONS
                        right = rec.relerr <= RIGHT
                        tally[COUNTS[2 * (not converged) + (not right)]] += 1
                        tally[rec.stop_reason] += 1
                        if converged:
                            worst = max(worst, rec.relerr)
                        cells[setting, half, family] = tally, worst
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
    for setting in ("plain", "reorth"):
        for half in ("compatible", "least-squares"):
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
