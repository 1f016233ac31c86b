"""scripts/ab.py: pairs mode on a stubbed bench() (no benchmark runs),
and inprocess mode on small bench/ workloads, with the working tree's
own src/ standing in for REV's, so no git export is needed."""

import dataclasses
import importlib.util
import json
import os
import statistics
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def load_script():
    spec = importlib.util.spec_from_file_location("ab", os.path.join(ROOT, "scripts", "ab.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ab = load_script()
workloads = ab.workloads

# per side, seed -> solve_s; the working tree is lower in pairs 1 and 3
SOLVE_S = {"rev": {1: 1.0, 2: 2.0, 3: 3.0}, "tree": {1: 0.5, 2: 2.5, 3: 2.0}}

# one small factory per bench/ workload; a workload added there needs one here
SMALL = {
    "suite-dense": lambda: workloads.SuiteDense(per_half=1),
    "stencil-csr": lambda: workloads.StencilCSR(m=30),
    "matfree-qlp": lambda: workloads.MatfreeQLP(m=24),
}


@pytest.fixture
def calls(monkeypatch):
    """ab.bench stubbed by SOLVE_S, ab.export by a no-op; the list of
    bench's calls.  Neither side runs in the repository itself: REV in
    its export, the working tree in a copy of its src/ and bench/."""
    calls, exported = [], []

    def bench(tree, workload, seed, seconds):
        assert tree != ab.ROOT
        side = "rev" if tree in exported else "tree"
        if side == "tree":
            assert os.path.isfile(os.path.join(tree, "bench", "run.py"))
            assert os.path.isfile(os.path.join(tree, "src", "symkrylov", "solver.py"))
            assert not [d for d, _, _ in os.walk(tree) if d.endswith("__pycache__")]
        calls.append((side, workload, seed, seconds))
        return {"solve_s": SOLVE_S[side][seed], "setup_s": 1.0, "peak_rss_mb": 70.0 + seed,
                "ok_frac": 1.0}

    monkeypatch.setattr(ab, "bench", bench)
    monkeypatch.setattr(ab, "export", lambda rev, dest: exported.append(dest))
    return calls


@pytest.fixture
def rev():
    """REV's package, after the test removed from sys.modules again."""
    yield lambda: sys.modules[ab.REV_PACKAGE]
    for name in [m for m in sys.modules if m.startswith(ab.REV_PACKAGE)]:
        del sys.modules[name]
    assert workloads.sk is ab.symkrylov


def pairs(*argv):
    return ab.main(["pairs", *argv])


def test_json_holds_pairs_and_summary(calls, tmp_path, capsys):
    out = tmp_path / "bench.json"
    assert pairs("abc123", "--workload", "w1", "--pairs", "3", "--seconds", "2",
                 "--json", str(out)) == 0
    assert calls == [("rev", "w1", 1, 2.0), ("tree", "w1", 1, 2.0),
                     ("tree", "w1", 2, 2.0), ("rev", "w1", 2, 2.0),
                     ("rev", "w1", 3, 2.0), ("tree", "w1", 3, 2.0)]
    text = out.read_text()
    assert text.endswith("\n")
    entry = json.loads(text)["w1 from seed 1"]
    assert list(entry) == ["workload", "first_seed", "rev", "pairs", "seconds", "runs",
                           "summary"]
    assert (entry["rev"], entry["pairs"], entry["seconds"]) == ("abc123", 3, 2.0)
    assert (entry["workload"], entry["first_seed"]) == ("w1", 1)
    assert [list(run) for run in entry["runs"]] == [["seed", "rev", "tree"]] * 3
    assert [run["seed"] for run in entry["runs"]] == [1, 2, 3]
    assert [run["tree"]["solve_s"] for run in entry["runs"]] == [0.5, 2.5, 2.0]
    assert [run["rev"]["peak_rss_mb"] for run in entry["runs"]] == [71.0, 72.0, 73.0]

    summary = entry["summary"]
    assert set(summary) == {"solve_s", "setup_s", "peak_rss_mb", "ok_frac"}
    solve = summary["solve_s"]
    q1, q2, q3 = statistics.quantiles([1.0, 2.0, 3.0], n=4)
    assert solve["better"] == "lower"
    assert solve["rev"] == {"q1": q1, "median": q2, "q3": q3}
    assert solve["tree"]["median"] == 2.0
    assert solve["rev_iqr"] == q3 - q1
    assert solve["tree_wins"] == 2
    # ties count for neither side, whichever way is better
    assert summary["setup_s"]["tree_wins"] == 0
    assert summary["peak_rss_mb"]["tree_wins"] == 0
    assert summary["ok_frac"]["better"] == "higher"
    assert summary["ok_frac"]["tree_wins"] == 0
    # the printed summary reads the same numbers
    assert "working tree lower in 2/3 pairs" in capsys.readouterr().out


def test_json_keeps_other_workloads(calls, tmp_path):
    out = tmp_path / "bench.json"
    pairs("r", "--workload", "w1", "--pairs", "1", "--seconds", "1", "--json", str(out))
    first = json.loads(out.read_text())["w1 from seed 1"]
    pairs("r", "--workload", "w2", "--pairs", "2", "--seconds", "1", "--json", str(out))
    store = json.loads(out.read_text())
    assert set(store) == {"w1 from seed 1", "w2 from seed 1"}
    assert store["w1 from seed 1"] == first
    assert len(store["w2 from seed 1"]["runs"]) == 2
    # one pair: each quartile is the single value, the IQR zero
    assert first["summary"]["solve_s"]["rev"] == {"q1": 1.0, "median": 1.0, "q3": 1.0}
    assert first["summary"]["solve_s"]["rev_iqr"] == 0.0


def test_no_json_writes_nothing(calls, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    pairs("r", "--workload", "w1", "--pairs", "1", "--seconds", "1")
    assert os.listdir(tmp_path) == []


def test_first_seed_shifts_the_seeds_not_the_order(calls, tmp_path, capsys):
    out = tmp_path / "bench.json"
    pairs("r", "--workload", "w1", "--pairs", "2", "--seconds", "1",
          "--first-seed", "2", "--json", str(out))
    assert calls == [("rev", "w1", 2, 1.0), ("tree", "w1", 2, 1.0),
                     ("tree", "w1", 3, 1.0), ("rev", "w1", 3, 1.0)]
    assert "pair 1 (seed 2, rev first)" in capsys.readouterr().out
    runs = json.loads(out.read_text())["w1 from seed 2"]["runs"]
    assert [run["seed"] for run in runs] == [2, 3]
    assert [run["tree"]["solve_s"] for run in runs] == [2.5, 2.0]


def test_json_keeps_a_recheck_on_other_seeds(calls, tmp_path):
    # a claim on seeds 1-2 and its recheck on seeds 2-3 share one file;
    # running the claim again replaces only the claim
    out = tmp_path / "bench.json"
    claim = ["r", "--workload", "w1", "--pairs", "2", "--seconds", "1", "--json", str(out)]
    pairs(*claim)
    pairs(*claim[:-2], "--first-seed", "2", "--json", str(out))
    store = json.loads(out.read_text())
    assert set(store) == {"w1 from seed 1", "w1 from seed 2"}
    assert [run["seed"] for run in store["w1 from seed 1"]["runs"]] == [1, 2]
    assert [run["seed"] for run in store["w1 from seed 2"]["runs"]] == [2, 3]
    recheck = store["w1 from seed 2"]
    pairs("s", *claim[1:])
    store = json.loads(out.read_text())
    assert set(store) == {"w1 from seed 1", "w1 from seed 2"}
    assert store["w1 from seed 1"]["rev"] == "s"
    assert store["w1 from seed 2"] == recheck


def test_json_keeps_entries_keyed_by_workload_alone(calls, tmp_path):
    # BENCH_pr13.json and BENCH_pr14.json key each run by the workload alone
    out = tmp_path / "bench.json"
    old = {"w1": {"rev": "q", "pairs": 1, "runs": [{"seed": 1, "rev": {}, "tree": {}}]}}
    out.write_text(json.dumps(old))
    pairs("r", "--workload", "w1", "--pairs", "1", "--seconds", "1", "--json", str(out))
    store = json.loads(out.read_text())
    assert set(store) == {"w1", "w1 from seed 1"}
    assert store["w1"] == old["w1"]


@pytest.mark.parametrize("argv", [["pairs", "r", "--workload", "w1", "--pairs", "0",
                                   "--seconds", "1"],
                                  ["inprocess", "r", "--rounds", "0"],
                                  ["inprocess", "r", "--workload", "w1"]])
def test_bad_counts_and_workloads_are_refused(calls, argv):
    with pytest.raises(SystemExit):
        ab.main(argv)
    assert calls == []


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_runs_in_one_process(name, rev, tmp_path, capsys):
    out = tmp_path / "bench.json"
    assert ab.inprocess(SRC, SMALL[name], rounds=2, seed=1, label="REV",
                        json_path=str(out)) == 0
    # REV's package is a separate module tree, not the working tree's
    assert rev().solve is not ab.symkrylov.solve
    assert rev().core.SparseMatrix is not ab.symkrylov.core.SparseMatrix
    out_lines = capsys.readouterr().out.splitlines()
    assert out_lines[0].startswith("round 1 (rev first): REV ")
    assert out_lines[1].startswith("round 2 (tree first): REV ")
    assert out_lines[0].endswith(", 0 differ") and out_lines[1].endswith(", 0 differ")
    assert out_lines[2] == f"{name} in one process, 2 rounds, seed 1, REV -> working tree:"
    reports = 8 if name == "suite-dense" else 1
    assert out_lines[3].endswith(f"; {reports} reports per sample, bit-identical in every round")
    assert "working tree lower in" in out_lines[4] and out_lines[4].endswith("/2 rounds")
    entry = json.loads(out.read_text())[f"{name} in one process from seed 1"]
    assert (entry["workload"], entry["seed"], entry["rev"], entry["rounds"]) == \
        (name, 1, "REV", 2)
    assert [run["round"] for run in entry["runs"]] == [1, 2]
    assert [run["differ"] for run in entry["runs"]] == [0, 0]
    assert entry["differing"] == {"reports": 0, "rounds": [], "max_x_gap": 0.0,
                                  "reason_or_iterations_differ": False}
    assert entry["summary"]["sample_s"]["tree_wins"] in (0, 1, 2)
    times = [(run["rev"]["sample_s"], run["tree"]["sample_s"]) for run in entry["runs"]]
    assert entry["ratio"]["median"] == statistics.median(t / r for r, t in times)


def test_each_side_builds_and_runs_with_its_own_package(rev):
    seen = []

    class Recorded(workloads.MatfreeQLP):
        def build(self, seed):
            super().build(seed)
            seen.append((self, "build", workloads.sk))

        def run(self):
            seen.append((self, "run", workloads.sk))
            return super().run()

    assert ab.inprocess(SRC, lambda: Recorded(m=24), rounds=2, seed=1, label="REV") == 0
    sides = {w: {sk for v, _, sk in seen if v is w} for w, _, _ in seen}
    assert sorted(map(len, sides.values())) == [1, 1]
    assert {sk for (sk,) in sides.values()} == {rev(), ab.symkrylov}
    # a build, a warm-up sample and two timed ones per side
    assert [what for _, what, _ in seen].count("run") == 6
    built = next(w for w, (sk,) in sides.items() if sk is rev())
    # REV's own operator, preconditioner and config around its closure
    assert type(built.operator) is rev().LinearOperator
    assert built.operator.symmetry is rev().SymmetryClass.HERMITIAN
    assert type(built.preconditioner) is rev().Diagonal
    assert type(built.config) is rev().SolverConfig


def test_a_side_that_differs_is_timed_in_every_round(rev, tmp_path, capsys):
    class Drifting(workloads.MatfreeQLP):
        def run(self):
            reports = super().run()
            if workloads.sk is ab.symkrylov:
                return reports
            return [dataclasses.replace(r, iterations=r.iterations + 1) for r in reports]

    out = tmp_path / "bench.json"
    assert ab.inprocess(SRC, lambda: Drifting(m=24), rounds=3, seed=1, label="REV",
                        json_path=str(out)) == 1
    lines = capsys.readouterr().out.splitlines()
    # the difference is printed once, the first time it appears
    assert lines[0] == ("round 1: matfree-qlp: differs at iterations; reason same, "
                        "iterations differ, x gap 0.00e+00; a non-array output differs")
    for i, first in ((1, "rev"), (2, "tree"), (3, "rev")):
        assert lines[i].startswith(f"round {i} ({first} first): REV ")
        assert lines[i].endswith(", 1 differ")
    assert lines[4] == "matfree-qlp in one process, 3 rounds, seed 1, REV -> working tree:"
    assert lines[5].endswith("; 1 reports per sample, 3 reports differ, in rounds 1, 2, 3; "
                             "largest x gap 0.00e+00; reason or iterations differ")
    assert lines[6].endswith("/3 rounds") and len(lines) == 7
    entry = json.loads(out.read_text())["matfree-qlp in one process from seed 1"]
    assert [run["differ"] for run in entry["runs"]] == [1, 1, 1]
    assert entry["differing"] == {"reports": 3, "rounds": [1, 2, 3], "max_x_gap": 0.0,
                                  "reason_or_iterations_differ": True}
    # the rev fixture checks that workloads.sk is the working tree's again


def test_every_report_that_differs_in_the_round_is_printed(rev, capsys):
    class Drifting(workloads.SuiteDense):
        def run(self):
            reports = super().run()
            if workloads.sk is ab.symkrylov:
                return reports
            for i in (1, 5):
                x = reports[i].x.copy()
                x[0] = np.nextafter(x[0].real, np.inf) + 1j * x[0].imag
                reports[i] = dataclasses.replace(reports[i], x=x)
            return reports

    assert ab.inprocess(SRC, lambda: Drifting(per_half=1), rounds=2, seed=1, label="REV") == 1
    lines = capsys.readouterr().out.splitlines()
    problems = workloads.SuiteDense(per_half=1)
    problems.build(1)
    # round 2 repeats round 1's two lines, so only round 1 prints them
    diff_lines, timing = lines[:2], lines[2:4]
    assert [line.split(": ")[1] for line in diff_lines] == \
        [problems.problems[i].id for i in (1, 5)]
    for line in diff_lines:
        assert line.startswith("round 1: ")
        assert line.split(": ", 2)[2].startswith(
            "differs at x; reason same, iterations same, x gap ")
        assert line.endswith("; arrays only")
    assert timing[0].startswith("round 1 (rev first): ") and timing[0].endswith(", 2 differ")
    assert timing[1].startswith("round 2 (tree first): ") and timing[1].endswith(", 2 differ")
    gap = max(float(line.split("x gap ")[1].split(";")[0]) for line in diff_lines)
    assert lines[5].endswith(f"; 8 reports per sample, 4 reports differ, in rounds 1, 2; "
                             f"largest x gap {gap:.2e}; reason or iterations same")
    assert "bit-identical" not in "\n".join(lines)


def test_a_side_that_raises_leaves_workloads_bound_to_the_tree(rev):
    class Failing(workloads.SuiteDense):
        def run(self):
            if workloads.sk is not ab.symkrylov:
                raise RuntimeError("REV failed")
            return super().run()

    with pytest.raises(RuntimeError, match="REV failed"):
        ab.inprocess(SRC, lambda: Failing(per_half=1), rounds=1, seed=1, label="REV")


def test_a_report_that_differs_is_named():
    workload = workloads.SuiteDense(per_half=1)
    workload.build(1)
    report = workload.run()[3]
    same = ab.outputs(report)
    assert ab.first_difference(same, same) is None and ab.difference(same, same) is None
    x = report.x.copy()
    x[0] = np.nextafter(x[0].real, np.inf) + 1j * x[0].imag
    changed = ab.outputs(dataclasses.replace(report, x=x))
    assert ab.first_difference(same, changed) == "x"
    gap = np.linalg.norm(x - report.x) / np.linalg.norm(report.x)
    assert ab.difference(same, changed) == \
        f"differs at x; reason same, iterations same, x gap {gap:.2e}; arrays only"
    changed = ab.outputs(dataclasses.replace(report, phi=-0.0 if report.phi == 0.0 else 0.0))
    assert ab.first_difference(same, changed) == "phi"
    assert ab.difference(same, changed) == ("differs at phi; reason same, iterations same, "
                                            "x gap 0.00e+00; a non-array output differs")
    # a raised error is an output with no x
    raised = [("raised", ("repr", "ValueError: tol must not be NaN"))]
    assert ab.difference(same, raised) == \
        "differs at raised vs x; a non-array output differs"


def test_bits_keep_kinds_apart():
    kinds = [True, 1, 1.0, 1.0 + 0.0j, np.float64(1.0), np.array([1.0])]
    assert len({ab.bits(v) for v in kinds}) == 5      # np.float64 is a float
    assert ab.bits(np.int64(1)) == ab.bits(1) and ab.bits(np.bool_(True)) == ab.bits(True)
    assert ab.bits(0.0) != ab.bits(-0.0)
    assert ab.bits(workloads.sk.StopReason.MaxIt) == ("enum", "MaxIt")
