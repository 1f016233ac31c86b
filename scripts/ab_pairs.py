#!/usr/bin/env python3
"""Alternating A/B runs of the benchmark between REV and the working tree.

    python3 scripts/ab_pairs.py REV --workload matfree-qlp --pairs 10 --seconds 50

REV (any git revision, e.g. HEAD) is exported with `git archive` to a
temporary directory, as scripts/compare_iterates.py does.  Pair i
(i = 1..N) runs `python3 bench/run.py --workload W --seed i --seconds S`
once in each tree, each in its own interpreter importing its own src/;
REV runs first in odd pairs and the working tree first in even ones, so
a drift in the host's speed does not favour one side.

One line per pair gives the end-to-end metrics BENCHMARK.json names, for
REV and for the working tree.  Then, per metric: each side's median and
quartiles, REV's interquartile range, and in how many pairs the working
tree was better (ties count for neither side), in the direction
BENCHMARK.json gives.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def bench(tree, workload, seed, seconds):
    """The metrics {name: value} of one bench/run.py run in `tree`."""
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds)],
                         cwd=tree, check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("rev", help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}

    runs = {"rev": [], "tree": []}
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "-C", ROOT, "archive", args.rev],
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        trees = {"rev": tmp, "tree": ROOT}
        for seed in range(1, args.pairs + 1):
            order = ("rev", "tree") if seed % 2 else ("tree", "rev")
            for side in order:
                runs[side].append(bench(trees[side], args.workload, seed, args.seconds))
            print(f"pair {seed} (seed {seed}, {order[0]} first): " + "; ".join(
                f"{name} {runs['rev'][-1][name]:.4g} -> {runs['tree'][-1][name]:.4g}"
                for name in better), flush=True)

    print(f"{args.workload}, {args.pairs} pairs at --seconds {args.seconds:g}, "
          f"{args.rev} -> working tree:")
    for name, direction in better.items():
        rev = [r[name] for r in runs["rev"]]
        tree = [r[name] for r in runs["tree"]]
        sign = 1.0 if direction == "lower" else -1.0
        wins = sum(sign * (t - r) < 0 for r, t in zip(rev, tree))
        (r1, r2, r3), (t1, t2, t3) = quartiles(rev), quartiles(tree)
        change = f" ({(t2 - r2) / r2:+.1%})" if r2 else ""
        print(f"  {name}: median {r2:.4g} -> {t2:.4g}{change}; "
              f"quartiles {r1:.4g}-{r3:.4g} -> {t1:.4g}-{t3:.4g}; "
              f"{args.rev} IQR {r3 - r1:.4g}; working tree {direction} in "
              f"{wins}/{args.pairs} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
