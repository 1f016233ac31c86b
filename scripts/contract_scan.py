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
  * nonsingular: one problem per symmetry class, n = 2-8 and seed, with
    A = Q diag(lambda) Q^T for a Haar Q (hermitian), the same with
    lambda * e^{i theta} (cs), i Q diag(lambda) Q^T (sh) and Q times
    2 x 2 blocks [[0, lambda], [-lambda, 0]] times Q^T (ss, even n),
    |lambda| = 10**(-12 u) with random signs, and a complex gaussian b,
    all from a SplitMix64 stream of the problem's own; plain and
    reorthogonalized.  A solve is right when its backward error
    ||b - Ax|| / (||A|| ||x|| + ||b||) is at most BACKWARD.

--quick scans n = 9 at seeds 1-5 only, and the nonsingular setting at
seeds 1-5.

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

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from symkrylov.cli import run_suite  # noqa: E402
from symkrylov.core import EPS, norm2  # noqa: E402
from symkrylov.oracle import FAMILIES, SplitMix64, haar_orthogonal, suite_problem  # noqa: E402
from symkrylov.precond import Diagonal  # noqa: E402
from symkrylov.solver import CONVERGED_REASONS, SolverConfig, StopReason, solve  # noqa: E402

RIGHT = 1e-5
RESIDUAL = 1e-8
BACKWARD = 1e-10
NONSINGULAR_SIZES = range(2, 9)
COUNTS = ("conv-right", "conv-wrong", "nonconv-right", "nonconv-wrong")


def record(cells, key, reason, err, bound):
    """Count one solve of cell `key`: right when err <= bound, and its
    stop reason; a converged one's err may raise the cell's worst."""
    tally, worst = cells.get(key, (collections.Counter(), 0.0))
    converged = reason in CONVERGED_REASONS
    tally[COUNTS[2 * (not converged) + (not err <= bound)]] += 1
    tally[reason.value] += 1
    cells[key] = tally, max(worst, err) if converged else worst


def nonsingular_problem(variant, n, seed):
    """(A, b) of the nonsingular setting for one class, n and seed."""
    rng = SplitMix64(zlib.crc32(f"nonsingular {variant} {n} {seed}".encode()))
    q = haar_orthogonal(n, rng)
    m = n // 2 if variant == "ss" else n
    u = rng.uniforms(2 * m)
    lam = np.where(u[1::2] < 0.5, 1.0, -1.0) * 10.0 ** (-12.0 * u[0::2])
    if variant == "cs":
        lam = lam * np.exp(2j * np.pi * rng.uniforms(n))
    if variant == "ss":
        d = np.zeros((n, n))
        d[0::2, 1::2] = np.diag(lam)
        a = q @ (d - d.T) @ q.T
    else:
        a = (q * lam) @ q.T
    if variant == "sh":
        a = 1j * a
    b = rng.gaussians(n) + 1j * rng.gaussians(n)
    return a, b


def scan(sizes, seeds, count=3):
    """{(setting, half, family): (Counter of COUNTS and reasons, worst
    converged error)} over the grid; the nonsingular setting's keys are
    (setting, process, class)."""
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
    for process, reorthogonalize in (("plain", False), ("reorth", True)):
        for variant, n, seed in itertools.product(("hermitian", "cs", "sh", "ss"),
                                                  NONSINGULAR_SIZES, seeds):
            if variant == "ss" and n % 2:
                continue
            a, b = nonsingular_problem(variant, n, seed)
            r = solve(a, b, variant, SolverConfig(tol=EPS, maxit=4 * n),
                      reorthogonalize=reorthogonalize)
            err = norm2(b - a @ r.x) / (np.linalg.norm(a, 2) * norm2(r.x) + norm2(b))
            record(cells, ("nonsingular", process, variant), r.reason, err, BACKWARD)
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
    # each (setting, half) and its families in the order the scan first
    # reached them
    groups = collections.defaultdict(list)
    for key in cells:
        groups[key[:2]].append(key[2])
    for (setting, half), families in groups.items():
        total, total_worst = collections.Counter(), 0.0
        for family in families:
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
