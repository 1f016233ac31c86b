"""scripts/compare_iterates.py helpers, loaded as a module: no tree is exported."""

import hashlib
import importlib.util
import math
import os
import warnings

import numpy as np
import pytest

from symkrylov.oracle import suite_problem

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def compare_iterates():
    spec = importlib.util.spec_from_file_location(
        "compare_iterates", os.path.join(ROOT, "scripts", "compare_iterates.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def solve_outputs(module, x):
    return [("reason", module.plain("Converged")), ("x", module.plain(np.asarray(x)))]


def test_x_gap_of_zero_solutions(compare_iterates):
    zero = solve_outputs(compare_iterates, np.zeros(3, dtype=np.complex128))
    nonzero = solve_outputs(compare_iterates, np.array([0.0, 3.0, 4.0j]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert compare_iterates.x_gap(zero, zero) == 0.0
        assert compare_iterates.x_gap(nonzero, zero) == math.inf
        assert compare_iterates.x_gap(zero, nonzero) == 1.0
    assert compare_iterates.x_gap([("raised", ("repr", "E"))], zero) is None


def test_generator_block_covers_the_suites(compare_iterates):
    runs = list(compare_iterates.generator_runs())
    assert len(runs) == 4 * 20 * 2 * 10
    assert len({pid for pid, _ in runs}) == len(runs)
    pid, run = runs[0]
    assert pid == "generator cs-h seed1 compat0"
    p = suite_problem("cs-h", 50, 0, 1, True)
    assert run() == [("sha256", hashlib.sha256(p.a.tobytes() + p.b.tobytes()).hexdigest()),
                     ("rank", p.rank)]


def test_large_block_spans_chunks_in_every_class(compare_iterates):
    from symkrylov import StopReason
    from symkrylov import tridiagonalize as tri

    n = compare_iterates.LARGE_N
    assert n > 2 * tri._CHUNK and n % tri._CHUNK != 0
    runs = list(compare_iterates.large_precond_runs())
    assert len(runs) == 4 * 2 and len({pid for pid, _ in runs}) == len(runs)
    for pid, run in runs:
        out = dict(run())
        # each operator is of its declared class, so every solve takes steps
        assert out["reason"] is not StopReason.NotStructured and out["iterations"] > 0, pid
        assert out["x"].shape == (n,)
