"""scripts/ab_inprocess.py at per_half = 1 and at m = 24, with the working
tree's own src/ standing in for REV's, so no git export is needed."""

import dataclasses
import importlib.util
import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_script():
    spec = importlib.util.spec_from_file_location(
        "ab_inprocess", os.path.join(ROOT, "scripts", "ab_inprocess.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_small_run_alternates_and_reports_same_bits(capsys):
    module = load_script()
    try:
        assert module.compare(os.path.join(ROOT, "src"), rounds=2, per_half=1, seed=1,
                              label="REV") == 0
        # REV's package is a separate module tree, not the working tree's
        rev = sys.modules[module.REV_PACKAGE]
        assert rev.solve is not module.symkrylov.solve
        assert rev.core.SparseMatrix is not module.symkrylov.core.SparseMatrix
    finally:
        for name in [m for m in sys.modules if m.startswith(module.REV_PACKAGE)]:
            del sys.modules[name]
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("round 1 (rev first): REV ")
    assert out[1].startswith("round 2 (tree first): REV ")
    assert "2 rounds, per_half 1, seed 1" in out[2]
    assert out[-1] == "  8 reports per pass, bit-identical in every round"


def test_matfree_run_wraps_the_closure_in_each_package(capsys):
    module = load_script()
    try:
        assert module.compare(os.path.join(ROOT, "src"), rounds=2, per_half=1, seed=1,
                              label="REV", workload="matfree-qlp", grid=24) == 0
        rev = sys.modules[module.REV_PACKAGE]
        workload = module.build("matfree-qlp", 1, 1, grid=24)
        side = module.Side(rev, workload)
        (op, b), kwargs = side.calls[0]
        # REV's own operator, preconditioner and config around the shared closure
        assert type(op) is rev.LinearOperator and op.apply is workload.operator.apply
        assert op.symmetry is rev.SymmetryClass.HERMITIAN and b is workload.b
        assert type(kwargs["preconditioner"]) is rev.Diagonal
        assert type(kwargs["config"]) is rev.SolverConfig
        report = side.run()[1][0]
        assert report.reason in rev.CONVERGED_REASONS
        # a plain label names the workload's one solve
        changed = dataclasses.replace(report, iterations=report.iterations + 1)
        assert module.first_difference(side.labels, [report], [changed]) == \
            "matfree-qlp iterations"
    finally:
        for name in [m for m in sys.modules if m.startswith(module.REV_PACKAGE)]:
            del sys.modules[name]
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("round 1 (rev first): REV ")
    assert out[1].startswith("round 2 (tree first): REV ")
    assert out[2].startswith("matfree-qlp in one process, 2 rounds, m 24, seed 1")
    assert out[-1] == "  1 reports per pass, bit-identical in every round"


def test_a_report_that_differs_is_named():
    module = load_script()
    workload = module.SuiteDense(per_half=1)
    workload.build(1)
    _, reports = module.Side(module.symkrylov, workload).run()
    assert module.first_difference(workload.problems, reports, reports) is None
    changed = list(reports)
    x = reports[3].x.copy()
    x[0] = np.nextafter(x[0].real, np.inf) + 1j * x[0].imag
    changed[3] = dataclasses.replace(reports[3], x=x)
    assert module.first_difference(workload.problems, reports, changed) == \
        f"{workload.problems[3].id} x"
    changed[3] = dataclasses.replace(reports[3], phi=-0.0 if reports[3].phi == 0.0 else 0.0)
    assert module.first_difference(workload.problems, reports, changed) == \
        f"{workload.problems[3].id} phi"
