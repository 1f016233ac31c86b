import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from symkrylov.core import EPS, LinearOperator, SymmetryClass, norm2
from symkrylov.oracle import SplitMix64, skew_symmetric_matrix, suite_problem
from symkrylov.precond import Custom, Diagonal, Identity, jacobi_from_matrix
from symkrylov.solver import SolverConfig, StopReason, solve

SEED = 42424242


def test_identity_matches_plain_run_bitwise():
    for idx, compatible in ((0, True), (1, True), (0, False)):
        p = suite_problem("cs-h", 20, idx, SEED, compatible)
        m1, m2 = [], []
        r1 = solve(p.a, p.b, p.variant, SolverConfig(tol=1e-12),
                   monitor=m1.append)
        r2 = solve(p.a, p.b, p.variant, SolverConfig(tol=1e-12),
                   preconditioner=Identity(), monitor=m2.append)
        assert r1.iterations == r2.iterations
        assert r1.reason is r2.reason
        np.testing.assert_array_equal(r1.x, r2.x)
        for x, y in zip(m1, m2):
            assert x.phi == y.phi and x.chi == y.chi and x.acond == y.acond
            np.testing.assert_array_equal(x.x, y.x)


def test_diagonal_validation():
    with pytest.raises(ValueError):
        Diagonal(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        Diagonal(np.array([1.0, -2.0]))
    with pytest.raises(ValueError):
        Diagonal(np.array([1.0, np.inf]))
    with pytest.raises(ValueError):
        Diagonal(np.array([1.0, np.nan]))


def test_diagonal_solve_applies_inverse():
    m = Diagonal(np.array([2.0, 4.0]))
    np.testing.assert_array_equal(m.solve(np.array([2.0, 4.0])), [1.0, 1.0])


def test_diagonal_solve_equals_division_across_the_range():
    rng = np.random.default_rng(5)
    n = 2000
    z = (rng.standard_normal(n) * 2.0 ** rng.integers(-1000, 1000, n)
         + 1j * rng.standard_normal(n) * 2.0 ** rng.integers(-1000, 1000, n))
    z.real[::11] = 0.0
    z.imag[::13] = 0.0
    z[::17] = 0.0
    d = rng.uniform(0.5, 2.0, n) * 2.0 ** rng.integers(-60, 60, n)
    m = Diagonal(d)
    with np.errstate(over="ignore"):      # some quotients leave the range
        np.testing.assert_array_equal(m.solve(z), z / d)


def test_hiding_non_finite_entries_still_stops_non_finite():
    # M^{-1} zeroes the Inf the operator writes into one step's z, so only
    # z itself shows it; the solve must stop NonFinite, not carry on
    a = np.diag(np.arange(1.0, 9.0))
    calls = [0]

    def apply(x):
        calls[0] += 1
        y = a @ x
        if calls[0] == 7:
            y[2] = np.inf
        return y
    m = Custom(lambda v: np.where(np.isfinite(v), v, 0.0) / 2.0)
    with np.errstate(invalid="ignore"):
        r = solve(LinearOperator(8, SymmetryClass.HERMITIAN, apply), np.ones(8),
                  preconditioner=m)
    assert r.reason is StopReason.NonFinite and r.iterations == 2
    assert np.all(np.isfinite(r.x))


def test_scaled_identity_preconditioner_one_step():
    # M = 4I turns A = I into I/4 for the process; still one step
    b = np.array([1.0, 2.0, 3.0])
    r = solve(np.eye(3), b, "cs", preconditioner=Diagonal(np.full(3, 4.0)))
    assert r.reason is StopReason.Beta2Zero_OneStep
    np.testing.assert_allclose(r.x, b, atol=1e-12)


def test_jacobi_from_matrix_kinds():
    j = jacobi_from_matrix(np.diag([4.0, 9.0]).astype(np.complex128))
    assert isinstance(j, Diagonal)
    np.testing.assert_allclose(j.d, [4.0, 9.0])
    skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert isinstance(jacobi_from_matrix(skew), Identity)


def test_jacobi_floor_keeps_conditioning_finite():
    a = np.diag([1.0, 1e-300])
    j = jacobi_from_matrix(a)
    assert isinstance(j, Diagonal)
    assert j.d.min() >= 1e-8 * j.d.max() * (1.0 - 4 * EPS)


def test_jacobi_reduces_iterations_on_dominant_diagonal():
    rng = np.random.default_rng(3)
    n = 40
    a = rng.standard_normal((n, n))
    a = a + a.T + np.diag(20.0 + np.arange(n, dtype=float) * 5.0)
    a = a.astype(np.complex128)
    b = a @ rng.standard_normal(n).astype(np.complex128)
    r_plain = solve(a, b, "cs", SolverConfig(tol=1e-10))
    r_jac = solve(a, b, "cs", SolverConfig(tol=1e-10),
                  preconditioner=jacobi_from_matrix(a))
    assert r_plain.iterations == 28
    assert r_jac.iterations == 11
    x_ref = np.linalg.solve(a, b)
    assert norm2(r_jac.x - x_ref) <= 1e-8 * norm2(x_ref)


def test_indefinite_preconditioner_reported():
    r = solve(np.eye(4), np.ones(4), "cs",
              preconditioner=Custom(lambda v: -v))
    assert r.reason is StopReason.PreconditionerBreakdown
    # breaking down before the first step leaves the residual at ||b||
    assert r.iterations == 0 and r.phi == 2.0


def test_preconditioner_whose_q_z_modulus_overflows_reported():
    # q'z is finite but abs() of it overflows; the test is scale-safe
    r = solve(np.eye(4), 0.75 * np.ones(4), "cs",
              preconditioner=Custom(lambda v: v * (0.7e308 + 0.7e308j)))
    assert r.reason is StopReason.PreconditionerBreakdown and r.iterations == 0


def test_singular_preconditioner_reported():
    r = solve(np.eye(4), np.ones(4), "cs",
              preconditioner=Custom(lambda v: np.zeros_like(v)))
    assert r.reason is StopReason.PreconditionerBreakdown


def test_non_finite_first_preconditioner_solve_stops():
    r = solve(np.eye(4), np.ones(4), "cs",
              preconditioner=Custom(lambda v: np.full_like(v, np.nan)))
    assert r.reason is StopReason.NonFinite and r.iterations == 0
    np.testing.assert_array_equal(r.x, np.zeros(4))


def test_zero_rhs_preconditioned_returns_zero():
    d = np.arange(1.0, 5.0)
    r = solve(np.diag(d), np.zeros(4), "cs", preconditioner=Diagonal(d))
    assert r.reason is StopReason.BetaZero_xZero and r.iterations == 0
    np.testing.assert_array_equal(r.x, np.zeros(4))


@pytest.mark.parametrize("m", [Diagonal(np.arange(1.0, 5.0)), Custom(lambda v: v / 2.0)])
def test_reorthogonalize_with_preconditioner_rejected(m):
    with pytest.raises(ValueError, match="reorthogonalize"):
        solve(np.eye(4), np.ones(4), "cs", preconditioner=m, reorthogonalize=True)


def test_preconditioned_shift_equals_shifted_matrix():
    # a complex symmetric run keeps the shift inside the preconditioned step
    p = suite_problem("cs-h", 20, 0, SEED, True)
    d = 0.5 + SplitMix64(79).uniforms(20)
    sigma = 0.2 + 0.1j
    r1 = solve(p.a, p.b, p.variant, SolverConfig(tol=1e-12, shift=sigma),
               preconditioner=Diagonal(d))
    r2 = solve(p.a - sigma * np.eye(20), p.b, p.variant, SolverConfig(tol=1e-12),
               preconditioner=Diagonal(d))
    assert r1.reason is r2.reason is StopReason.Converged_Rnorm
    assert norm2(r1.x - r2.x) <= 1e-9 * norm2(r2.x)


def test_diagonal_preconditioned_residual_quality():
    p = suite_problem("cs-h", 20, 0, SEED, True)
    d = 0.5 + SplitMix64(77).uniforms(20)
    r = solve(p.a, p.b, p.variant, SolverConfig(tol=1e-12),
              preconditioner=Diagonal(d))
    assert r.reason is StopReason.Converged_Rnorm
    s1 = np.linalg.svd(p.a, compute_uv=False)[0]
    assert norm2(p.b - p.a @ r.x) <= 1e-8 * (s1 * norm2(r.x) + norm2(p.b))


def test_preconditioned_skew_and_hermitian_runs():
    for fam, n in (("ss", 15), ("sh", 15)):
        p = suite_problem(fam, n, 0, SEED, True)
        d = 0.5 + SplitMix64(78).uniforms(n)
        r = solve(p.a, p.b, p.variant, SolverConfig(tol=1e-11, maxit=4 * n),
                  preconditioner=Diagonal(d))
        s1 = np.linalg.svd(p.a, compute_uv=False)[0]
        assert norm2(p.b - p.a @ r.x) <= 1e-7 * (s1 * norm2(r.x) + norm2(p.b))


def test_preconditioned_skew_symmetric_complex_rhs():
    # the pairing <q, z> must be Hermitian here: the transpose product of
    # a complex z is not real, which broke down before the first step
    rng = SplitMix64(5)
    a = skew_symmetric_matrix(24, rng)
    b = rng.uniforms(24) + 1j * rng.uniforms(24)
    d = 0.5 + rng.uniforms(24)
    r = solve(a, b, "ss", preconditioner=Diagonal(d))
    assert r.reason is StopReason.Converged_Rnorm
    x_ref = np.linalg.solve(a, b)
    assert norm2(r.x - x_ref) <= 1e-12 * norm2(x_ref)


def test_custom_wraps_callable():
    m = Custom(lambda v: v / 3.0)
    np.testing.assert_allclose(m.solve(np.array([3.0, 6.0])), [1.0, 2.0])


def _precond_problem(variant):
    """A 12 x 12 problem of the class and a diagonal M^{-1} for it."""
    if variant == "cs":
        p = suite_problem("cs-h", 12, 0, SEED, True)
        a, b = p.a, p.b
    else:
        a = np.diag(np.arange(1.0, 13.0)) + 0.5j * (np.eye(12, k=1) - np.eye(12, k=-1))
        b = SplitMix64(80).uniforms(12) + 1j
    return a, b, 0.5 + SplitMix64(79).uniforms(12)


@pytest.mark.parametrize("variant", ["cs", "hermitian"])
def test_wrong_length_preconditioner_output_is_named(variant):
    a, b, d = _precond_problem(variant)
    with pytest.raises(ValueError, match="preconditioner output has length 11, expected 12"):
        solve(a, b, variant, preconditioner=Custom(lambda v: (v / d)[:-1]))


@pytest.mark.parametrize("variant", ["cs", "hermitian"])
def test_zero_rhs_with_preconditioner_stops_beta_zero(variant):
    # the preconditioner is called once, on the zero b, and q'z = 0 ends the run
    a, _, d = _precond_problem(variant)
    calls = []

    def m_solve(v):
        calls.append(v.copy())
        return v / d

    r = solve(a, np.zeros(12), variant, preconditioner=Custom(m_solve))
    assert r.reason is StopReason.BetaZero_xZero and r.iterations == 0
    assert len(calls) == 1 and not calls[0].any()
    np.testing.assert_array_equal(r.x, np.zeros(12))


def _report_bits(report):
    return [np.asarray(getattr(report, f.name)).tobytes() if f.name != "reason"
            else report.reason for f in dataclasses.fields(report)]


@pytest.mark.parametrize("wrap", [Custom, lambda f: SimpleNamespace(solve=f)],
                         ids=["Custom", "bare"])
@pytest.mark.parametrize("shape", [(-1, 1), (1, -1)])
@pytest.mark.parametrize("variant", ["cs", "hermitian"])
def test_column_and_row_preconditioner_output_gives_the_vector_run(variant, shape, wrap):
    a, b, d = _precond_problem(variant)
    want = solve(a, b, variant, preconditioner=wrap(lambda v: v / d))
    got = solve(a, b, variant, preconditioner=wrap(lambda v: (v / d).reshape(shape)))
    assert want.iterations > 1
    assert _report_bits(got) == _report_bits(want)
