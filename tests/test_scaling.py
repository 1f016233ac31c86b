"""A right-hand side scaled by a power of two scales the solve exactly.

With A fixed, the process normalizes b away, so the basis and T are the
same for b and 2**k * b; beta_1 and everything the engine derives from
it scale by 2**k.  That holds bit for bit as long as beta_1 does, which
needs a 2-norm that neither underflows nor overflows.
"""

import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from symkrylov.core import EPS
from symkrylov.oracle import suite_problem
from symkrylov.precond import Diagonal
from symkrylov.solver import CONVERGED_REASONS, SolverConfig, StopReason, solve

SEED = 42424242
FAMILIES = (("cs-h", 30), ("cs-m", 30), ("ss", 31), ("sh", 31))
# the length bound is absolute, so it alone would tell the scales apart
CONFIG = SolverConfig(maxxnorm=math.inf)
_REFERENCE = {}


def scaled(v, k):
    """2**k * v, exactly: the exponent moves and the mantissa stays."""
    v = np.asarray(v)
    out = np.empty(v.shape, dtype=np.complex128)
    out.real = np.ldexp(v.real, k)
    out.imag = np.ldexp(v.imag, k)
    return out


def reference(family):
    """(problem, its solve at scale 1), one compatible problem per family."""
    if family not in _REFERENCE:
        f, n = next(entry for entry in FAMILIES if entry[0] == family)
        p = suite_problem(f, n, 0, SEED, True)
        _REFERENCE[family] = p, solve(p.a, p.b, p.variant, CONFIG)
    return _REFERENCE[family]


def assert_scaled_solve(family, k):
    p, ref = reference(family)
    r = solve(p.a, scaled(p.b, k), p.variant, CONFIG)
    assert r.reason is ref.reason and r.iterations == ref.iterations
    assert r.x.tobytes() == scaled(ref.x, k).tobytes()
    for name in ("phi", "psi", "chi"):
        want = math.ldexp(getattr(ref, name), k)
        assert np.float64(getattr(r, name)).tobytes() == np.float64(want).tobytes(), name


@pytest.mark.parametrize("k", [-900, -600, -300, 300, 600, 900])
@pytest.mark.parametrize("family", [f for f, _ in FAMILIES])
def test_scaled_rhs_at_fixed_exponents(family, k):
    assert_scaled_solve(family, k)


@given(st.integers(min_value=-900, max_value=900), st.sampled_from([f for f, _ in FAMILIES]))
@seed(2027)
@settings(max_examples=60, deadline=None)
def test_scaled_rhs_scales_the_solve_bitwise(k, family):
    assert_scaled_solve(family, k)


@pytest.mark.parametrize("k", [-700, 600])
def test_extreme_rhs_solves_the_diagonal_system(k):
    d = np.arange(1.0, 9.0)
    r = solve(np.diag(d), 2.0**k * np.ones(8), "hermitian", CONFIG)
    assert r.reason is StopReason.Converged_Rnorm and r.iterations == 8
    want = 2.0**k / d
    assert np.linalg.norm(r.x - want) <= 8 * EPS * np.linalg.norm(want)


def test_tiny_rhs_preconditioned_is_no_converged_zero():
    d = np.arange(1.0, 9.0)
    r = solve(np.diag(d), 2.0**-700 * np.ones(8), "hermitian", preconditioner=Diagonal(d))
    assert not (r.reason in CONVERGED_REASONS and not r.x.any())
