"""scripts/compare_iterates.py, loaded as a module: no tree is exported.
The comparison runs on a cut-down set, with the working tree's own src/
loaded under REV's package name."""

import hashlib
import importlib.util
import itertools
import math
import os
import sys
import warnings

import numpy as np
import pytest

import symkrylov
from symkrylov.oracle import suite_problem

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


@pytest.fixture
def compare_iterates(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "scripts"))
    spec = importlib.util.spec_from_file_location(
        "compare_iterates", os.path.join(ROOT, "scripts", "compare_iterates.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def rev(compare_iterates):
    """A loader of the working tree's src/ as REV's package; the package
    is removed from sys.modules after the test."""
    ab = compare_iterates.ab
    yield lambda: ab.load_package(SRC, ab.REV_PACKAGE)
    for name in [m for m in sys.modules if m.startswith(ab.REV_PACKAGE)]:
        del sys.modules[name]
    assert ab.workloads.sk is ab.symkrylov


def solve_outputs(module, x):
    return [("reason", module.ab.bits("Converged")), ("x", module.ab.bits(np.asarray(x)))]


def test_x_gap_of_zero_solutions(compare_iterates):
    zero = solve_outputs(compare_iterates, np.zeros(3, dtype=np.complex128))
    nonzero = solve_outputs(compare_iterates, np.array([0.0, 3.0, 4.0j]))
    x_gap = compare_iterates.ab.x_gap       # ||x - x_REV|| / ||x_REV||, REV first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert x_gap(zero, zero) == 0.0
        assert x_gap(zero, nonzero) == math.inf
        assert x_gap(nonzero, zero) == 1.0
    assert x_gap(zero, [("raised", ("repr", "E"))]) is None


def test_generator_block_covers_the_suites(compare_iterates):
    runs = list(compare_iterates.generator_runs())
    assert len(runs) == 4 * 20 * 2 * 10
    assert len({pid for pid, _ in runs}) == len(runs)
    pid, run = runs[0]
    assert pid == "generator cs-h seed1 compat0"
    p = suite_problem("cs-h", 50, 0, 1, True)
    bits = compare_iterates.ab.bits
    assert run(symkrylov) == [
        ("sha256", bits(hashlib.sha256(p.a.tobytes() + p.b.tobytes()).hexdigest())),
        ("rank", bits(p.rank))]


def test_large_block_spans_chunks_in_every_class(compare_iterates):
    from symkrylov import tridiagonalize as tri

    n = compare_iterates.LARGE_N
    assert n > 2 * tri._CHUNK and n % tri._CHUNK != 0
    runs = list(compare_iterates.large_precond_runs())
    assert len(runs) == 4 * 2 and len({pid for pid, _ in runs}) == len(runs)
    b, m_diagonal, problems = compare_iterates.large_problems()
    for pid, run in runs:
        out = dict(run(symkrylov))
        # each operator is of its declared class, so every solve takes steps
        assert out["reason"] != ("enum", "NotStructured") and out["iterations"][1] > 0, pid
        assert out["x"][:3] == ("array", "<c16", (n,))
        # every shift is one the class's preconditioned row carries, so phi
        # is the M^-1 norm of the true residual of the shifted system
        apply, shift = problems[pid.split()[1]]
        shift = shift if pid.endswith("shift") else 0.0
        x = np.frombuffer(out["x"][3], dtype=np.complex128)
        r = b - (apply(x) - shift * x)
        true_phi = math.sqrt(np.vdot(r, r / m_diagonal).real)
        assert abs(true_phi - np.frombuffer(out["phi"][1])[0]) <= 1e-12 * np.linalg.norm(b), pid


def cut_down(module, monkeypatch):
    """Seed 1's first compatible problem of each suite under every
    configuration, the stop block, four generator entries and two small
    bench/ workloads."""
    workloads = module.workloads
    monkeypatch.setattr(workloads, "WORKLOADS", {
        "suite-dense": lambda: workloads.SuiteDense(per_half=1),
        "matfree-qlp": lambda: workloads.MatfreeQLP(m=24)})
    runs = [run for run in module.suite_runs() if run[0].split()[1:3] == ["seed1", "compat0"]]
    return (runs + list(module.stop_runs()) + list(itertools.islice(module.generator_runs(), 4))
            + list(module.bench_runs()))


def problem_lines(out):
    """The per-problem lines of compare()'s report, by problem id."""
    lines = out.splitlines()[:-3]
    return dict(line.split(": ", 1) for line in lines)


def test_the_same_package_reads_same(compare_iterates, rev, monkeypatch, capsys):
    runs = cut_down(compare_iterates, monkeypatch)
    assert compare_iterates.compare(runs, rev(), "REV") == 0
    out = capsys.readouterr().out
    lines = problem_lines(out)
    assert len(lines) == len(runs) == 4 * 14 + 22 + 4 + 8 + 1
    assert list(lines) == sorted(pid for pid, _ in runs)
    assert set(lines.values()) == {"same"}
    assert "bench suite-dense seed1 solve7" in lines and "bench matfree-qlp seed1 solve0" in lines
    summary = out.splitlines()[-3:]
    assert summary[0].startswith("stop reasons (working tree): Beta2Zero_OneStep 2, ")
    assert summary[1] == "0 problems differ in arrays only (max x gap 0.00e+00), 0 in a non-array output"
    assert summary[2].startswith(f"{len(runs)} problems, ")
    assert ", 0 problems differ (working tree " in summary[2]


def test_a_qlp_window_change_differs_in_arrays_only(compare_iterates, rev, monkeypatch, capsys):
    # the QLP phase flushes its coefficient window every _WINDOW
    # iterations; the engine reads no vector, so only x may move
    package = rev()
    package.solver._WINDOW = 4
    assert compare_iterates.compare(cut_down(compare_iterates, monkeypatch), package, "REV") == 1
    out = capsys.readouterr().out
    differ = {pid: line for pid, line in problem_lines(out).items() if line != "same"}
    assert any("trancond1" in pid for pid in differ)
    assert "bench matfree-qlp seed1 solve0" in differ
    for pid, line in differ.items():
        assert line.startswith("differs at x; reason same, iterations same, x gap "), pid
        assert line.endswith("; arrays only"), pid
    assert f"{len(differ)} problems differ in arrays only" in out
    assert out.splitlines()[-2].endswith(", 0 in a non-array output")
