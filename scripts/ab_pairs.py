#!/usr/bin/env python3
"""Alternating A/B runs of the benchmark between REV and the working tree.

    python3 scripts/ab_pairs.py REV --workload matfree-qlp --pairs 10 --seconds 50

REV (any git revision, e.g. HEAD) is exported with `git archive` to a
temporary directory, as scripts/compare_iterates.py does.  Pair i
(i = 1..N) runs `python3 bench/run.py --workload W --seed K+i-1
--seconds S` once in each tree, each in its own interpreter importing
its own src/; K is `--first-seed` (default 1), so a claim can be
rechecked on seeds not used while the change was written.  REV runs
first in odd pairs and the working tree first in even ones, so a drift
in the host's speed does not favour one side.

One line per pair gives the end-to-end metrics BENCHMARK.json names, for
REV and for the working tree.  Then, per metric: each side's median and
quartiles, REV's interquartile range, and in how many pairs the working
tree was better (ties count for neither side), in the direction
BENCHMARK.json gives.

`--json FILE` also stores all of it in FILE, under the key "WORKLOAD
from seed K", next to what FILE holds for other workloads and other
first seeds (FILE is created if need be): the settings, each pair's
metrics for both sides and the per-metric summary.  So a claim and its recheck on fresh seeds share one file; a
second run with the same workload and first seed replaces the first.
Entries under a bare workload name (files written before the key held
the first seed) are kept as they are.  The BENCH_*.json files at the
root of the repository are written this way.
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


def export(rev, dest):
    """Write the files of git revision `rev` into the directory `dest`."""
    archive = subprocess.run(["git", "-C", ROOT, "archive", rev],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return q1, q2, q3


def summarize(runs, better):
    """Per metric: each side's quartiles, REV's IQR and the pairs in
    which the working tree was better (ties count for neither side)."""
    summary = {}
    for name, direction in better.items():
        rev = [r[name] for r in runs["rev"]]
        tree = [r[name] for r in runs["tree"]]
        sign = 1.0 if direction == "lower" else -1.0
        (r1, r2, r3), (t1, t2, t3) = quartiles(rev), quartiles(tree)
        summary[name] = {
            "better": direction,
            "rev": {"q1": r1, "median": r2, "q3": r3},
            "tree": {"q1": t1, "median": t2, "q3": t3},
            "rev_iqr": r3 - r1,
            "tree_wins": sum(sign * (t - r) < 0 for r, t in zip(rev, tree)),
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("rev", help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--first-seed", type=int, default=1, help="seed of pair 1 (default 1)")
    parser.add_argument("--json", metavar="FILE", help="also write the pairs and the summary here")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}

    runs = {"rev": [], "tree": []}
    with tempfile.TemporaryDirectory() as tmp:
        export(args.rev, tmp)
        trees = {"rev": tmp, "tree": ROOT}
        for pair in range(1, args.pairs + 1):
            seed = args.first_seed + pair - 1
            order = ("rev", "tree") if pair % 2 else ("tree", "rev")
            for side in order:
                runs[side].append(bench(trees[side], args.workload, seed, args.seconds))
            print(f"pair {pair} (seed {seed}, {order[0]} first): " + "; ".join(
                f"{name} {runs['rev'][-1][name]:.4g} -> {runs['tree'][-1][name]:.4g}"
                for name in better), flush=True)

    summary = summarize(runs, better)
    print(f"{args.workload}, {args.pairs} pairs from seed {args.first_seed} "
          f"at --seconds {args.seconds:g}, "
          f"{args.rev} -> working tree:")
    for name, m in summary.items():
        (r1, r2, r3), (t1, t2, t3) = m["rev"].values(), m["tree"].values()
        change = f" ({(t2 - r2) / r2:+.1%})" if r2 else ""
        print(f"  {name}: median {r2:.4g} -> {t2:.4g}{change}; "
              f"quartiles {r1:.4g}-{r3:.4g} -> {t1:.4g}-{t3:.4g}; "
              f"{args.rev} IQR {m['rev_iqr']:.4g}; working tree {m['better']} in "
              f"{m['tree_wins']}/{args.pairs} pairs")
    if args.json:
        store = {}
        if os.path.exists(args.json):
            with open(args.json) as fh:
                store = json.load(fh)
        store[f"{args.workload} from seed {args.first_seed}"] = {
            "workload": args.workload, "first_seed": args.first_seed,
            "rev": args.rev, "pairs": args.pairs, "seconds": args.seconds,
            "runs": [{"seed": seed, "rev": r, "tree": t}
                     for seed, (r, t) in enumerate(zip(runs["rev"], runs["tree"]),
                                                   start=args.first_seed)],
            "summary": summary}
        with open(args.json, "w") as fh:
            json.dump(store, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
