"""scripts/ab_pairs.py --json, on a stubbed bench(): no benchmark runs."""

import importlib.util
import json
import os
import statistics

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# per side, seed -> solve_s; the working tree is lower in pairs 1 and 3
SOLVE_S = {"rev": {1: 1.0, 2: 2.0, 3: 3.0}, "tree": {1: 0.5, 2: 2.5, 3: 2.0}}


@pytest.fixture
def ab_pairs(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "ab_pairs", os.path.join(ROOT, "scripts", "ab_pairs.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    calls = []

    def bench(tree, workload, seed, seconds):
        side = "tree" if tree == module.ROOT else "rev"
        calls.append((side, workload, seed, seconds))
        return {"solve_s": SOLVE_S[side][seed], "setup_s": 1.0, "peak_rss_mb": 70.0 + seed,
                "ok_frac": 1.0}

    monkeypatch.setattr(module, "bench", bench)
    monkeypatch.setattr(module, "export", lambda rev, dest: None)
    module.calls = calls
    return module


def test_json_holds_pairs_and_summary(ab_pairs, tmp_path, capsys):
    out = tmp_path / "bench.json"
    assert ab_pairs.main(["abc123", "--workload", "w1", "--pairs", "3", "--seconds", "2",
                          "--json", str(out)]) == 0
    assert ab_pairs.calls == [("rev", "w1", 1, 2.0), ("tree", "w1", 1, 2.0),
                              ("tree", "w1", 2, 2.0), ("rev", "w1", 2, 2.0),
                              ("rev", "w1", 3, 2.0), ("tree", "w1", 3, 2.0)]
    text = out.read_text()
    assert text.endswith("\n")
    entry = json.loads(text)["w1 from seed 1"]
    assert (entry["rev"], entry["pairs"], entry["seconds"]) == ("abc123", 3, 2.0)
    assert (entry["workload"], entry["first_seed"]) == ("w1", 1)
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


def test_json_keeps_other_workloads(ab_pairs, tmp_path):
    out = tmp_path / "bench.json"
    ab_pairs.main(["r", "--workload", "w1", "--pairs", "1", "--seconds", "1", "--json", str(out)])
    first = json.loads(out.read_text())["w1 from seed 1"]
    ab_pairs.main(["r", "--workload", "w2", "--pairs", "2", "--seconds", "1", "--json", str(out)])
    store = json.loads(out.read_text())
    assert set(store) == {"w1 from seed 1", "w2 from seed 1"}
    assert store["w1 from seed 1"] == first
    assert len(store["w2 from seed 1"]["runs"]) == 2
    # one pair: each quartile is the single value, the IQR zero
    assert first["summary"]["solve_s"]["rev"] == {"q1": 1.0, "median": 1.0, "q3": 1.0}
    assert first["summary"]["solve_s"]["rev_iqr"] == 0.0


def test_no_json_writes_nothing(ab_pairs, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    ab_pairs.main(["r", "--workload", "w1", "--pairs", "1", "--seconds", "1"])
    assert os.listdir(tmp_path) == []


def test_first_seed_shifts_the_seeds_not_the_order(ab_pairs, tmp_path, capsys):
    out = tmp_path / "bench.json"
    ab_pairs.main(["r", "--workload", "w1", "--pairs", "2", "--seconds", "1",
                   "--first-seed", "2", "--json", str(out)])
    assert ab_pairs.calls == [("rev", "w1", 2, 1.0), ("tree", "w1", 2, 1.0),
                              ("tree", "w1", 3, 1.0), ("rev", "w1", 3, 1.0)]
    assert "pair 1 (seed 2, rev first)" in capsys.readouterr().out
    runs = json.loads(out.read_text())["w1 from seed 2"]["runs"]
    assert [run["seed"] for run in runs] == [2, 3]
    assert [run["tree"]["solve_s"] for run in runs] == [2.5, 2.0]


def test_json_keeps_a_recheck_on_other_seeds(ab_pairs, tmp_path):
    # a claim on seeds 1-2 and its recheck on seeds 2-3 share one file;
    # running the claim again replaces only the claim
    out = tmp_path / "bench.json"
    claim = ["r", "--workload", "w1", "--pairs", "2", "--seconds", "1", "--json", str(out)]
    ab_pairs.main(claim)
    ab_pairs.main(claim[:-2] + ["--first-seed", "2", "--json", str(out)])
    store = json.loads(out.read_text())
    assert set(store) == {"w1 from seed 1", "w1 from seed 2"}
    assert [run["seed"] for run in store["w1 from seed 1"]["runs"]] == [1, 2]
    assert [run["seed"] for run in store["w1 from seed 2"]["runs"]] == [2, 3]
    recheck = store["w1 from seed 2"]
    ab_pairs.main(["s"] + claim[1:])
    store = json.loads(out.read_text())
    assert set(store) == {"w1 from seed 1", "w1 from seed 2"}
    assert store["w1 from seed 1"]["rev"] == "s"
    assert store["w1 from seed 2"] == recheck


def test_json_keeps_entries_keyed_by_workload_alone(ab_pairs, tmp_path):
    # BENCH_pr13.json and BENCH_pr14.json key each run by the workload alone
    out = tmp_path / "bench.json"
    old = {"w1": {"rev": "q", "pairs": 1, "runs": [{"seed": 1, "rev": {}, "tree": {}}]}}
    out.write_text(json.dumps(old))
    ab_pairs.main(["r", "--workload", "w1", "--pairs", "1", "--seconds", "1", "--json", str(out)])
    store = json.loads(out.read_text())
    assert set(store) == {"w1", "w1 from seed 1"}
    assert store["w1"] == old["w1"]
