import numpy as np
import pytest

from symkrylov.core import EPS, norm2
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
