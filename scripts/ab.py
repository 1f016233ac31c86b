#!/usr/bin/env python3
"""Alternating A/B runs of a bench/ workload, REV against the working tree.

    python3 scripts/ab.py pairs REV --workload W --pairs N --seconds S
                                    [--first-seed K] [--json FILE]
    python3 scripts/ab.py inprocess REV [--workload W] [--rounds R]
                                        [--seed S] [--json FILE]

REV (any git revision, e.g. HEAD) is exported with `git archive` to a
temporary directory; scripts/compare_iterates.py uses the same export,
loader and bit-for-bit report.  Both modes take turns: REV runs first
in odd pairs (rounds) and the working tree first in even ones, so a
drift in the host's speed does not favour one side.

pairs: pair i (i = 1..N) runs `python3 bench/run.py --workload W
--seed K+i-1 --seconds S` once in each tree, each in its own
interpreter importing its own src/.  Both trees run from fresh
directories, as the benchmark's own check runs both commits: REV's
export and a copy of the working tree's src/ and bench/ (without
__pycache__).  K is --first-seed (default 1), so a claim can be
rechecked on seeds not used while the change was written.
The metrics are the end-to-end ones BENCHMARK.json names.

inprocess: REV's src/symkrylov is imported as the package
`symkrylov_rev`, next to the working tree's `symkrylov`.  Each side
builds bench/'s workload W (default suite-dense) at seed S and runs it
with bench/workloads.py's `sk` bound to its own package; the metric
`sample_s` is one sample, that workload's own run(), timed as
bench/run.py times one, with BLAS held to one thread as there.  Both
packages then see the same host at nearly the same moment, which
separate processes do not: the ratio of a round's two samples is much
less noisy than either time.  After one untimed warm-up sample per
side, every round runs, and each round's reports are compared bit for
bit (x, reason, iterations and every estimate).  A report that differs
gets a line, as compare_iterates.py prints it, the first time that
exact line appears; each round's line counts the reports that differ,
and the summary gives their number, the rounds they were in, the
largest x gap and whether a reason or an iteration count differs.  So
a change that moves roundoff can still be timed, and the run exits
with status 1 whenever anything differed.

One line per pair (round) gives both sides' figures.  Then, per metric:
each side's median and quartiles, REV's interquartile range, and in how
many pairs (rounds) the working tree was better (ties count for neither
side), in the direction BENCHMARK.json gives; in-process also the
quartiles of the paired ratio working tree / REV.

`--json FILE` also stores all of it in FILE, next to what FILE holds
already (FILE is created if need be): the settings, each pair's (round's)
figures for both sides and the summary, under the key "W from seed K"
(pairs) or "W in one process from seed S" (inprocess).  An in-process
entry also holds each round's count of differing reports and, under
"differing", the summary's figures for them.  So a claim and
its recheck on fresh seeds share one file; a second run under the same
key replaces the first.  Entries under other keys, such as a bare
workload name (files written before the key held the first seed), are
kept as they are.  The BENCH_*.json files at the root of the repository
are written this way.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import importlib.util
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from enum import Enum

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

from run import THREAD_VARS, timed_sample  # noqa: E402

if __name__ == "__main__":        # one BLAS thread, as in bench/run.py's samples
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))

import numpy as np  # noqa: E402
import symkrylov  # noqa: E402
import workloads  # noqa: E402

REV_PACKAGE = "symkrylov_rev"


def export(rev, dest):
    """Write the files of git revision `rev` into the directory `dest`."""
    archive = subprocess.run(["git", "-C", ROOT, "archive", rev],
                             check=True, capture_output=True).stdout
    os.makedirs(dest, exist_ok=True)
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def copy_working_tree(dest):
    """Copy the working tree's src/ and bench/ into the directory `dest`."""
    for part in ("src", "bench"):
        shutil.copytree(os.path.join(ROOT, part), os.path.join(dest, part),
                        ignore=shutil.ignore_patterns("__pycache__"))


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return q1, q2, q3


def summarize(runs, better):
    """Per metric: each side's quartiles, REV's IQR and the runs in
    which the working tree was better (ties count for neither side)."""
    summary = {}
    for name, direction in better.items():
        rev = [run["rev"][name] for run in runs]
        tree = [run["tree"][name] for run in runs]
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


def finish(runs, better, unit, key, entry, json_path):
    """Print the summary of `runs`, each {"rev": metrics, "tree": metrics}
    and its number; with `json_path`, store `entry` (the settings) there
    under `key`, with the runs and the summary."""
    summary = summarize(runs, better)
    label, count = entry["rev"], len(runs)
    for name, m in summary.items():
        (r1, r2, r3), (t1, t2, t3) = m["rev"].values(), m["tree"].values()
        change = f" ({(t2 - r2) / r2:+.1%})" if r2 else ""
        print(f"  {name}: median {r2:.4g} -> {t2:.4g}{change}; "
              f"quartiles {r1:.4g}-{r3:.4g} -> {t1:.4g}-{t3:.4g}; "
              f"{label} IQR {m['rev_iqr']:.4g}; working tree {m['better']} in "
              f"{m['tree_wins']}/{count} {unit}")
    if json_path:
        store = {}
        if os.path.exists(json_path):
            with open(json_path) as fh:
                store = json.load(fh)
        store[key] = {**entry, "runs": runs, "summary": summary}
        with open(json_path, "w") as fh:
            json.dump(store, fh, indent=1)
            fh.write("\n")
    return 0


def bench(tree, workload, seed, seconds):
    """The metrics {name: value} of one bench/run.py run in `tree`."""
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds)],
                         cwd=tree, check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def pairs(trees, workload, count, first_seed, seconds, label, json_path=None):
    """Run the pairs in `trees`, {"rev": REV's tree, "tree": the working
    tree's}; 0."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    runs = []
    for pair in range(1, count + 1):
        run = {"seed": first_seed + pair - 1, "rev": None, "tree": None}
        order = ("rev", "tree") if pair % 2 else ("tree", "rev")
        for side in order:
            run[side] = bench(trees[side], workload, run["seed"], seconds)
        runs.append(run)
        print(f"pair {pair} (seed {run['seed']}, {order[0]} first): " + "; ".join(
            f"{name} {run['rev'][name]:.4g} -> {run['tree'][name]:.4g}"
            for name in better), flush=True)
    print(f"{workload}, {count} pairs from seed {first_seed} at --seconds {seconds:g}, "
          f"{label} -> working tree:")
    entry = {"workload": workload, "first_seed": first_seed, "rev": label,
             "pairs": count, "seconds": seconds}
    return finish(runs, better, "pairs", f"{workload} from seed {first_seed}", entry,
                  json_path)


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
    """A value reduced to what its bits are compared by; bool, int, float
    and complex stay apart, and an Enum (each package has its own
    StopReason) is compared by its value."""
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


def outputs(report, records=None):
    """[(name, bits)] for a SolveReport and its monitor records, in order."""
    out = [(f.name, bits(getattr(report, f.name))) for f in dataclasses.fields(report)]
    for i, rec in enumerate(records or ()):
        out += [(f"records[{i}].{f.name}", bits(getattr(rec, f.name)))
                for f in dataclasses.fields(rec)]
    return out


def first_difference(rev, tree):
    """Name of the first output whose bits differ, or None; `rev` and
    `tree` are each side's [(name, bits)]."""
    for (name_rev, val_rev), (name_tree, val_tree) in zip(rev, tree):
        if name_rev != name_tree:
            return f"{name_tree} vs {name_rev}"
        if val_rev != val_tree:
            return name_rev
    if len(rev) != len(tree):
        return f"output count {len(tree)} vs {len(rev)}"
    return None


def x_gap(rev, tree):
    """||x - x_REV|| / ||x_REV|| for two solves' outputs, or None when
    either one has no x (it raised).  A zero x_REV gives 0.0 when x is
    zero too and inf otherwise."""
    rev, tree = dict(rev), dict(tree)
    if "x" not in rev or "x" not in tree:
        return None
    x_rev, x = (np.frombuffer(v[3], dtype=v[1]).reshape(v[2]) for v in (rev["x"], tree["x"]))
    gap, base = np.linalg.norm(x - x_rev), np.linalg.norm(x_rev)
    if base == 0.0:
        return 0.0 if gap == 0.0 else math.inf
    return float(gap / base)


def scalar_differs(rev, tree):
    """Whether an output that is not an array differs (or is missing on
    one side)."""
    rev, tree = dict(rev), dict(tree)
    return any(rev.get(name) != tree.get(name) for name in rev.keys() | tree.keys()
               if "array" not in (rev.get(name, ("",))[0], tree.get(name, ("",))[0]))


def difference(rev, tree):
    """None when the outputs `rev` and `tree` agree bit for bit.  Else
    'differs at' the first output that does not, then for a solve
    whether its reason and iterations agree and the x gap, then whether
    an output that is not an array differs."""
    diff = first_difference(rev, tree)
    if diff is None:
        return None
    scalars = "a non-array output differs" if scalar_differs(rev, tree) else "arrays only"
    gap = x_gap(rev, tree)
    if gap is None:
        return f"differs at {diff}; {scalars}"
    rev, tree = dict(rev), dict(tree)
    agree = {key: "same" if rev[key] == tree[key] else "differ"
             for key in ("reason", "iterations")}
    return (f"differs at {diff}; reason {agree['reason']}, iterations "
            f"{agree['iterations']}, x gap {gap:.2e}; {scalars}")


@contextlib.contextmanager
def bound(package):
    """bench/workloads.py calling `package` as its `sk`."""
    saved = workloads.sk
    workloads.sk = package
    try:
        yield
    finally:
        workloads.sk = saved


def differences(problems, rev_reports, tree_reports):
    """[(line, x gap, whether reason or iterations differ)] for each
    report that does not agree bit for bit with REV's; line is the
    problem's id and its difference(), and the x gap is None when a
    report has no x."""
    found = []
    for problem, rev, tree in zip(problems, rev_reports, tree_reports):
        rev, tree = outputs(rev), outputs(tree)
        diff = difference(rev, tree)
        if diff is not None:
            rev_d, tree_d = dict(rev), dict(tree)
            solve = any(rev_d.get(key) != tree_d.get(key) for key in ("reason", "iterations"))
            found.append((f"{getattr(problem, 'id', problem)}: {diff}", x_gap(rev, tree), solve))
    return found


def inprocess(rev_src, factory, rounds, seed, label, json_path=None):
    """Run every round of the workload `factory()` against the package
    under `rev_src`; 0 when every report agreed bit for bit, else 1."""
    packages = {"rev": load_package(rev_src, REV_PACKAGE), "tree": symkrylov}
    built = {}
    for side, package in packages.items():
        with bound(package):
            built[side] = factory()
            built[side].build(seed)
            built[side].run()
    name = built["tree"].name
    problems = getattr(built["tree"], "problems", [name])
    runs, printed, diffs = [], set(), []
    for i in range(1, rounds + 1):
        order = ("rev", "tree") if i % 2 else ("tree", "rev")
        times, reports = {}, {}
        for side in order:
            with bound(packages[side]):
                times[side], reports[side] = timed_sample(built[side])
        found = differences(problems, reports["rev"], reports["tree"])
        for line in [line for line, _, _ in found if line not in printed]:
            printed.add(line)
            print(f"round {i}: {line}")
        diffs += [(i, gap, solve) for _, gap, solve in found]
        runs.append({"round": i, "rev": {"sample_s": times["rev"]},
                     "tree": {"sample_s": times["tree"]}, "differ": len(found)})
        print(f"round {i} ({order[0]} first): {label} {times['rev']:.4f} s, working tree "
              f"{times['tree']:.4f} s, ratio {times['tree'] / times['rev']:.3f}, "
              f"{len(found)} differ", flush=True)
    q1, q2, q3 = quartiles([run["tree"]["sample_s"] / run["rev"]["sample_s"] for run in runs])
    differing = {"reports": len(diffs), "rounds": sorted({i for i, _, _ in diffs}),
                 "max_x_gap": max((gap for _, gap, _ in diffs if gap is not None), default=0.0),
                 "reason_or_iterations_differ": any(solve for _, _, solve in diffs)}
    verdict = "bit-identical in every round"
    if diffs:
        verdict = (f"{len(diffs)} reports differ, in rounds "
                   f"{', '.join(map(str, differing['rounds']))}; largest x gap "
                   f"{differing['max_x_gap']:.2e}; reason or iterations "
                   f"{'differ' if differing['reason_or_iterations_differ'] else 'same'}")
    print(f"{name} in one process, {rounds} rounds, seed {seed}, {label} -> working tree:")
    print(f"  paired ratio quartiles {q1:.3f} / {q2:.3f} / {q3:.3f}; "
          f"{len(problems)} reports per sample, {verdict}")
    entry = {"workload": name, "seed": seed, "rev": label, "rounds": rounds,
             "ratio": {"q1": q1, "median": q2, "q3": q3}, "differing": differing}
    finish(runs, {"sample_s": "lower"}, "rounds",
           f"{name} in one process from seed {seed}", entry, json_path)
    return 1 if diffs else 0


def main(argv=None) -> int:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("rev", help="git revision to compare against")
    common.add_argument("--json", metavar="FILE", help="also store the runs and the summary here")
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    modes = parser.add_subparsers(dest="mode", required=True)
    by_pairs = modes.add_parser("pairs", parents=[common], help="bench/run.py processes")
    by_pairs.add_argument("--workload", required=True)
    by_pairs.add_argument("--pairs", type=int, required=True)
    by_pairs.add_argument("--seconds", type=float, required=True)
    by_pairs.add_argument("--first-seed", type=int, default=1, help="seed of pair 1 (default 1)")
    by_rounds = modes.add_parser("inprocess", parents=[common], help="both trees in one process")
    by_rounds.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                           default="suite-dense")
    by_rounds.add_argument("--rounds", type=int, default=60)
    by_rounds.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    count = "pairs" if args.mode == "pairs" else "rounds"
    if getattr(args, count) < 1:
        parser.error(f"--{count} must be at least 1")
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"rev": os.path.join(tmp, "rev"), "tree": os.path.join(tmp, "tree")}
        export(args.rev, trees["rev"])
        if args.mode == "pairs":
            copy_working_tree(trees["tree"])
            return pairs(trees, args.workload, args.pairs, args.first_seed, args.seconds,
                         args.rev, args.json)
        return inprocess(os.path.join(trees["rev"], "src"), workloads.WORKLOADS[args.workload],
                         args.rounds, args.seed, args.rev, args.json)


if __name__ == "__main__":
    sys.exit(main())
