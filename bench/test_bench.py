"""Checks of the benchmark's own counting and tracing.

    python3 -m pytest bench/test_bench.py -q

The workloads run here at small sizes; counts must not depend on size
for these properties to hold.
"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import layertrace  # noqa: E402
import run  # noqa: E402
import symkrylov  # noqa: E402
from workloads import MatfreeQLP, StencilCSR, SuiteDense  # noqa: E402

SMALL = {
    "suite-dense": lambda: SuiteDense(per_half=1),
    "stencil-csr": lambda: StencilCSR(m=40),
    "matfree-qlp": lambda: MatfreeQLP(m=24),
}


def _traced_counts(name, seed):
    tracer = layertrace.Tracer(work={"core.SparseMatrix.matvec": run.csr_matvec_bytes})
    tracer.install()
    try:
        workload = SMALL[name]()
        workload.build(seed)
    finally:
        tracer.uninstall()
    workload.references()
    _, reports, readout = run.traced_sample(tracer, workload)
    assert workload.failures(reports) == []
    return readout


@pytest.mark.parametrize("name", sorted(SMALL))
def test_counts_repeat_and_add_up(name):
    first = _traced_counts(name, seed=3)
    second = _traced_counts(name, seed=3)
    assert first["counts"] == second["counts"]
    assert run.counts_consistent(first)
    c = first["counts"]
    assert c["core.applies"] > 0 and c["solver.iterations"] > 0
    # layer self times are disjoint parts of the sample, so none is
    # negative and together they leave a non-negative rest
    shares = {k: v for k, v in first["times"].items() if k.startswith("share.")}
    assert all(v >= 0.0 for v in shares.values())
    assert shares["share.other"] < 1.0


def test_layers_are_exercised_where_predicted():
    dense = _traced_counts("suite-dense", seed=3)["counts"]
    stencil = _traced_counts("stencil-csr", seed=3)["counts"]
    matfree = _traced_counts("matfree-qlp", seed=3)["counts"]
    assert dense["core.matvecs"] > 0 and dense["solver.qlp_iterations"] > 0
    assert stencil["core.matvecs"] > 0 and stencil["solver.qlp_iterations"] == 0
    assert matfree["core.matvecs"] == 0 and matfree["precond.solves"] > 0
    assert matfree["solver.qlp_iterations"] == matfree["solver.iterations"]


def _slots():
    return (symkrylov.solve, symkrylov.solver.probe_symmetry, symkrylov.solver.sym_ortho,
            vars(symkrylov.SparseMatrix)["from_coo"], symkrylov.LinearOperator.__call__)


def test_wrappers_reach_names_imported_by_name_and_come_off():
    tracer = layertrace.Tracer()
    before = _slots()
    tracer.install()
    assert all(a is not b for a, b in zip(before, _slots()))
    tracer.uninstall()
    assert all(a is b for a, b in zip(before, _slots()))


def test_missing_name_is_reported_absent(monkeypatch):
    probes = dict(layertrace.PROBES, step=layertrace.PROBES["step"] + ("tridiagonalize.gone_step",))
    monkeypatch.setattr(layertrace, "PROBES", probes)
    tracer = layertrace.Tracer()
    assert tracer.absent == ["tridiagonalize.gone_step"]
    assert tracer.count("step") == 0 and tracer.self_time("step") == 0.0


def test_exits_nonzero_without_sources(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", str(tmp_path / "src"))
    assert run.main(["--workload", "stencil-csr", "--seed", "1", "--seconds", "1"]) != 0
