#!/usr/bin/env python3
"""Benchmark of the symkrylov solver, end to end and layer by layer.

    python3 bench/run.py --workload suite-dense --seed 1 --seconds 50 --trace 0

Run from the repository root; the package is imported from src/.  One
closed-loop client in one process solves the workload's fixed inputs
over and over.  A sample is one fixed, identical unit of solver work
(one pass over the suites, or one large solve), and every timing is a
median over samples.

--trace 0 prints the end-to-end metrics: solve_s (median sample time),
setup_s (imports plus the median of several set-ups spread over the
run, each generating the inputs, building operators and preconditioners
and running one warm-up sample), peak_rss_mb and ok_frac (solves
passing their check over solves attempted).

--trace 1 alternates untraced samples with samples traced by wrappers
around the package's public callables (layertrace.py) and prints the
per-layer metrics, the traced/untraced overhead and, on matfree-qlp,
an informational scipy MINRES baseline.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the line before it holds the run's
context (machine, sample counts, workload facts).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time

T_START = time.perf_counter()
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPS = 5
MIN_SAMPLES = 5
PROBE_APPLIES = 4     # probe_symmetry's default: two probes, two applies each


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def reference_kernels() -> dict:
    """Fixed work whose time tracks the host's speed, not the program's:
    a pure-Python loop and a numpy complex axpy, medians of five."""
    import numpy as np

    def py_loop():
        acc = 0
        for i in range(200_000):
            acc += i * i
        return acc

    x = np.ones(1_000_000, dtype=np.complex128)
    y = np.zeros_like(x)

    def axpy():
        for _ in range(10):
            np.add(y, 0.5j * x, out=y)

    out = {}
    for name, kernel in (("python_loop_ms", py_loop), ("numpy_axpy_ms", axpy)):
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - t0)
        out[name] = round(1e3 * statistics.median(times), 3)
    return out


def machine_context() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version")},
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def quartiles(values):
    return statistics.quantiles(values, n=4)


def timed_sample(workload):
    gc.collect()
    t0 = time.perf_counter()
    reports = workload.run()
    return time.perf_counter() - t0, reports


def set_up(wl_class, seed):
    """One timed set-up: inputs, operators, preconditioners and one
    warm-up sample.  Returns (seconds, workload)."""
    gc.collect()
    t0 = time.perf_counter()
    workload = wl_class()
    workload.build(seed)
    workload.run()
    return time.perf_counter() - t0, workload


def end_to_end(wl_class, seed, seconds, context):
    dt, workload = set_up(wl_class, seed)
    setups = [dt]
    workload.references()

    # the other set-ups are spread evenly over the run, so that their
    # median meets the same host speed as the samples' median does
    samples, failures, attempted, failed = [], set(), 0, 0
    start = time.perf_counter()
    deadline = start + seconds
    while (len(samples) < MIN_SAMPLES or len(setups) < SETUP_REPS
           or time.perf_counter() < deadline):
        if (len(setups) < SETUP_REPS
                and time.perf_counter() >= start + seconds * len(setups) / SETUP_REPS):
            setups.append(set_up(wl_class, seed)[0])
        dt, reports = timed_sample(workload)
        samples.append(dt)
        bad = workload.failures(reports)
        attempted += len(reports)
        failed += len(bad)
        failures.update(bad)
    setup_s = context["import_s"] + statistics.median(setups)

    context.update(setup_reps_s=setups, samples=len(samples),
                   sample_quartiles_s=quartiles(samples),
                   samples_s=[round(t, 6) for t in samples],
                   transfer_iterations=sorted({r.transfer_iteration for r in reports}),
                   failed_solves=sorted(failures), workload=workload.facts())
    metrics = {
        "solve_s": (statistics.median(samples), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": ((attempted - failed) / attempted, "fraction"),
    }
    return metrics, attempted, failed


def csr_matvec_bytes(mat, x) -> int:
    """Compulsory traffic of one CSR matvec: data, indices and indptr
    read once, x read once, y written once (computed, not measured)."""
    return 24 * mat.nnz + 8 * (mat.n + 1) + 32 * mat.n


def layer_readout(tracer, reports, dt) -> dict:
    """Per-layer metrics of one traced sample of wall time dt."""
    solves = len(reports)
    iterations = sum(r.iterations for r in reports)
    layer_s = tracer.layer_self_time()

    def per(value, count):
        return value / count if count else 0.0

    counts = {
        "core.applies": tracer.count("apply"),
        "core.probe_applies": tracer.calls_from("probe", "apply"),
        "core.matvecs": tracer.count("matvec"),
        "tridiagonalize.steps": tracer.count("step"),
        "reflect.calls": tracer.count("sym_ortho"),
        "precond.solves": tracer.count("precond"),
        "solver.iterations": iterations,
        "solver.qlp_iterations": sum(r.iterations - r.transfer_iteration + 1
                                     for r in reports if r.transfer_iteration > 0),
    }
    times = {
        "core.matvec_us": 1e6 * per(tracer.total_time("matvec"), counts["core.matvecs"]),
        "core.matvec_bytes": per(tracer.work_bytes("matvec"), counts["core.matvecs"]),
        "core.build_us": 1e6 * tracer.self_time("build"),
        "core.apply_us": 1e6 * per(tracer.self_time("apply"), counts["core.applies"]),
        "core.probe_us": 1e6 * per(tracer.total_time("probe"), solves),
        "tridiagonalize.step_us": 1e6 * per(tracer.self_time("step"), counts["tridiagonalize.steps"]),
        "reflect.sym_ortho_us": 1e6 * per(tracer.self_time("sym_ortho"), counts["reflect.calls"]),
        "precond.solve_us": 1e6 * per(tracer.self_time("precond"), counts["precond.solves"]),
        "solver.engine_us_per_iter": 1e6 * per(layer_s["solver"], iterations),
    }
    for layer, s in layer_s.items():
        times[f"share.{layer}"] = s / dt
    times["share.other"] = 1.0 - sum(layer_s.values()) / dt
    return {"solves": solves, "counts": counts, "times": times}


def counts_consistent(readout) -> bool:
    """Every apply is a probe apply or a process step, the probe makes
    its fixed number per solve, and steps exceed iterations by at most
    one look-ahead per solve."""
    c, solves = readout["counts"], readout["solves"]
    lookahead = c["tridiagonalize.steps"] - c["solver.iterations"]
    return (c["core.probe_applies"] == PROBE_APPLIES * solves
            and c["core.applies"] == c["core.probe_applies"] + c["tridiagonalize.steps"]
            and 0 <= lookahead <= solves)


def traced_sample(tracer, workload):
    """One sample with the wrappers installed: (seconds, reports, readout)."""
    tracer.reset()
    tracer.install()
    try:
        dt, reports = timed_sample(workload)
    finally:
        tracer.uninstall()
    return dt, reports, layer_readout(tracer, reports, dt)


def peak_alloc_mb(workload) -> float:
    """Peak bytes allocated during one untraced sample (tracemalloc)."""
    import tracemalloc

    gc.collect()
    tracemalloc.start()
    try:
        workload.run()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def traced(wl_class, seed, seconds, context):
    from layertrace import Tracer

    plain = wl_class()
    plain.build(seed)
    plain.run()
    plain.references()
    # operators built while the wrappers are installed capture them
    tracer = Tracer(work={"core.SparseMatrix.matvec": csr_matvec_bytes})
    tracer.install()
    try:
        spied = wl_class()
        spied.build(seed)
        spied.run()
    finally:
        tracer.uninstall()
    spied.references()

    plain_s, traced_s, readouts, failures = [], [], [], set()
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while len(readouts) < MIN_SAMPLES or time.perf_counter() < deadline:
        dt, plain_reports = timed_sample(plain)
        plain_s.append(dt)
        dt, reports, readout = traced_sample(tracer, spied)
        traced_s.append(dt)
        readouts.append(readout)
        bad = plain.failures(plain_reports) + spied.failures(reports)
        attempted += len(plain_reports) + len(reports)
        failed += len(bad)
        failures.update(bad)

    counts = readouts[0]["counts"]
    metrics = {name: (value, "count") for name, value in counts.items()
               if name not in ("core.probe_applies", "core.matvecs")}
    for name in readouts[0]["times"]:
        values = [r["times"][name] for r in readouts]
        unit = "B" if name.endswith("_bytes") else "us" if name.endswith(("_us", "_per_iter")) \
            else "fraction"
        metrics[name] = (statistics.median(values), unit)
    metrics["trace.overhead"] = (statistics.median(traced_s) / statistics.median(plain_s) - 1.0,
                                 "fraction")
    metrics["solver.peak_alloc_mb"] = (peak_alloc_mb(plain), "MB")

    baseline = {"iterations": 0, "seconds": 0.0, "relres": None}
    if hasattr(plain, "scipy_baseline"):
        ours = plain.run()[0]
        baseline = plain.scipy_baseline(plain.relres(ours.x), maxiter=4 * ours.iterations)
        baseline["symkrylov_iterations"] = ours.iterations
    metrics["baseline.scipy_minres_iters"] = (baseline["iterations"], "count")
    metrics["baseline.scipy_minres_s"] = (baseline["seconds"], "s")

    context.update(samples=len(readouts), absent=tracer.absent,
                   counts_repeat=all(r["counts"] == counts for r in readouts),
                   counts_consistent=all(counts_consistent(r) for r in readouts),
                   untraced_quartiles_s=quartiles(plain_s),
                   traced_quartiles_s=quartiles(traced_s),
                   scipy_baseline=baseline, failed_solves=sorted(failures),
                   workload=plain.facts())
    return metrics, attempted, failed


def main(argv=None) -> int:
    if not os.path.isdir(os.path.join(SRC, "symkrylov")):
        print(f"bench: no symkrylov sources under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    for var in THREAD_VARS:      # before numpy loads its BLAS
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS    # imports numpy and the package

    args = parse_args(argv, sorted(WORKLOADS))
    context = {"import_s": time.perf_counter() - T_START}
    context["machine"] = machine_context()
    context["reference_start"] = reference_kernels()
    run = traced if args.trace else end_to_end
    metrics, attempted, failed = run(WORKLOADS[args.workload], args.seed, args.seconds, context)
    context["reference_end"] = reference_kernels()

    print(json.dumps({"context": context}, default=str))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
