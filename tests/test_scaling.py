"""A right-hand side or an operator scaled by a power of two scales the
solve exactly.

solve() runs on b scaled by the exact power of two that puts its largest
entry in [1/2, 1), so b and 2**k * b run the same solve, and x, phi, psi
and chi come back times 2**k.  That holds bit for bit wherever those
outputs stay in range, even where b itself is subnormal or its norm
overflows.  Every threshold of the probe and the engine is relative to
the operator's norm, so the plain process on 2**k * A runs the solve on A
with the tridiagonal T_k times 2**k, bit for bit, as long as no product
under- or overflows.  So does the preconditioned process under a fixed
M, whose step applies the operator to a vector of unit length in M's
norm.
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

from problems import ACCEPTED_BY, constructions, random_problem

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


@pytest.mark.parametrize("k", [-700, 600, 1023])
def test_extreme_rhs_solves_the_diagonal_system(k):
    d = np.arange(1.0, 9.0)
    r = solve(np.diag(d), 2.0**k * np.ones(8), "hermitian", CONFIG)
    assert r.reason is StopReason.Converged_Rnorm and r.iterations == 8
    # compared at scale 1, where neither norm under- or overflows
    assert np.linalg.norm(scaled(r.x, -k) - 1 / d) <= 8 * EPS * np.linalg.norm(1 / d)


def test_subnormal_rhs_scales_the_solve():
    d = np.arange(1.0, 9.0)
    ref_records, records = [], []
    ref = solve(np.diag(d), np.ones(8), "hermitian", monitor=ref_records.append)
    r = solve(np.diag(d), scaled(np.ones(8), -1071), "hermitian", monitor=records.append)
    assert r.reason is ref.reason is StopReason.Converged_Rnorm and r.iterations == 8
    assert r.x.tobytes() == scaled(ref.x, -1071).tobytes()
    assert len(records) == len(ref_records)
    for rec, want in zip(records, ref_records):
        assert rec.x.tobytes() == scaled(want.x, -1071).tobytes()
        for name in ("phi", "psi", "chi"):
            assert getattr(rec, name) == math.ldexp(getattr(want, name), -1071), name


@pytest.mark.parametrize("k", [-1071, -700])
def test_tiny_rhs_preconditioned_scales_the_solve(k):
    d = np.arange(1.0, 9.0)
    ref = solve(np.diag(d), np.ones(8), "hermitian", preconditioner=Diagonal(d))
    r = solve(np.diag(d), scaled(np.ones(8), k), "hermitian", preconditioner=Diagonal(d))
    assert r.reason is ref.reason and r.iterations == ref.iterations
    assert r.x.tobytes() == scaled(ref.x, k).tobytes()


@pytest.mark.parametrize("k", [-1071, -600, 600])
def test_maxxnorm_bounds_x_in_the_units_of_b(k):
    d = np.arange(1.0, 9.0)
    ref = solve(np.diag(d), np.ones(8), "hermitian", SolverConfig(maxxnorm=1.0))
    assert ref.reason is StopReason.XnormExceeded
    r = solve(np.diag(d), scaled(np.ones(8), k), "hermitian",
              SolverConfig(maxxnorm=math.ldexp(1.0, k)))
    assert r.reason is ref.reason and r.iterations == ref.iterations
    assert r.x.tobytes() == scaled(ref.x, k).tobytes()


def test_tiny_rhs_preconditioned_is_no_converged_zero():
    d = np.arange(1.0, 9.0)
    r = solve(np.diag(d), 2.0**-700 * np.ones(8), "hermitian", preconditioner=Diagonal(d))
    assert not (r.reason in CONVERGED_REASONS and not r.x.any())


def assert_scaled_operator_solve(a, b, cls, k, **options):
    """solve(2**k A, 2**k b) has the bits of solve(A, b): x, the reason,
    the counts, chi and acond the same, phi, omega and anorm times 2**k
    and psi times 2**2k.  With the length bound lifted, solve(2**k A, b)
    returns 2**-k times the x of solve(A, b).  `options` go to every
    solve: reorthogonalize, or a preconditioner, which is not scaled."""
    ref = solve(a, b, cls, **options)
    r = solve(scaled(a, k), scaled(b, k), cls, **options)
    assert (r.reason, r.iterations, r.transfer_iteration) == \
        (ref.reason, ref.iterations, ref.transfer_iteration)
    assert r.x.tobytes() == ref.x.tobytes()
    assert (r.chi, r.acond) == (ref.chi, ref.acond)
    for name, power in (("phi", k), ("omega", k), ("anorm", k), ("psi", 2 * k)):
        assert getattr(r, name) == math.ldexp(getattr(ref, name), power), name
    ref = solve(a, b, cls, CONFIG, **options)
    r = solve(scaled(a, k), b, cls, CONFIG, **options)
    assert r.x.tobytes() == scaled(ref.x, -k).tobytes()


@given(st.integers(min_value=1, max_value=15), st.integers(min_value=0, max_value=2**31),
       st.integers(min_value=-400, max_value=400), st.booleans(), st.booleans())
@seed(2029)
@settings(max_examples=100, deadline=None)
def test_scaled_operator_scales_the_solve_bitwise(n, s, k, deficient, reorthogonalize):
    # |k| <= 400 keeps every product of the process in range: A is not
    # scaled on entry, so from about 2**500 the sums of squares in its
    # norms overflow.  Tier-1 turns any RuntimeWarning into an error, so
    # none is raised here
    r, b = random_problem(n, s)
    if deficient:
        # every construction from a matrix of rank n // 3 has rank below n
        r[:, n // 3:] = 0.0
    for name, a in constructions(r).items():
        for cls in ACCEPTED_BY[name]:
            assert_scaled_operator_solve(a, b, cls, k, reorthogonalize=reorthogonalize)


@given(st.integers(min_value=1, max_value=15), st.integers(min_value=0, max_value=2**31),
       st.integers(min_value=-400, max_value=400), st.booleans())
@seed(2030)
@settings(max_examples=100, deadline=None)
def test_scaled_operator_scales_the_preconditioned_solve_bitwise(n, s, k, deficient):
    # M is held fixed while A is scaled.  beta = sqrt(q'z) pairs two
    # vectors at the scale of A, so past about 2**+-500 q'z leaves the range
    r, b = random_problem(n, s)
    if deficient:
        r[:, n // 3:] = 0.0
    m = Diagonal(0.5 + np.random.default_rng([s, 1]).uniform(size=n))
    for name, a in constructions(r).items():
        for cls in ACCEPTED_BY[name]:
            assert_scaled_operator_solve(a, b, cls, k, preconditioner=m)


@pytest.mark.parametrize("k", [-1000, -600, -300, -50, 0, 50, 300, 600, 1000])
def test_upper_triangle_is_not_hermitian_at_any_scale(k):
    # the probe's defect is relative to the operator's norm, with the
    # smallest normal float as its only floor
    a = np.ldexp(np.triu(np.ones((8, 8))), k)
    with np.errstate(over="ignore"):    # from 2**600 the norms overflow in the dot
        r = solve(a, np.ones(8), "hermitian")
    assert r.reason is StopReason.NotStructured
