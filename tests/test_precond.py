import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from symkrylov.core import EPS, LinearOperator, SymmetryClass, norm2
from symkrylov.oracle import SplitMix64, skew_symmetric_matrix, suite_problem
from symkrylov.precond import Custom, Diagonal, Identity, jacobi_from_matrix
from symkrylov.solver import CONVERGED_REASONS, SolverConfig, StopReason, solve

from problems import constructions

SEED = 42424242


def test_identity_matches_plain_run_bitwise():
    # Identity is the plain process, whose hermitian row carries any
    # shift on T's diagonal, a complex one included
    cases = [suite_problem("cs-h", 20, idx, SEED, compatible)
             for idx, compatible in ((0, True), (1, True), (0, False))]
    sh = suite_problem("sh", 20, 0, SEED, True)
    cases = [(p.a, p.b, p.variant, 0.0) for p in cases]
    cases.append((1j * sh.a, sh.b, "hermitian", 0.2 + 0.1j))
    for a, b, variant, shift in cases:
        m1, m2 = [], []
        r1 = solve(a, b, variant, SolverConfig(tol=1e-12, shift=shift),
                   monitor=m1.append)
        r2 = solve(a, b, variant, SolverConfig(tol=1e-12, shift=shift),
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
    # M must be real: a complex entry is refused, not cut to its real part
    with pytest.raises(ValueError):
        Diagonal(np.array([1 + 1j, 2, 3, 4]))


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


SHIFTS = {"real": 0.2, "imaginary": 0.1j, "complex": 0.2 + 0.1j}
# the shifts that keep A - shift*I in each class, which a preconditioned
# process can therefore run on
CARRIED = {"cs": {"real", "imaginary", "complex"}, "hermitian": {"real"},
           "sh": {"imaginary"}, "ss": {"imaginary"}}


def _class_matrix(variant, r):
    """A matrix of the class from a complex square r."""
    return constructions(r)[{"cs": "R + R^T", "hermitian": "R + R^H",
                             "sh": "R - R^H", "ss": "R - R^H"}[variant]]


def _counted(a, variant):
    """A LinearOperator applying a, and the list its applies append to."""
    applies = []

    def apply(x):
        applies.append(1)
        return a @ x
    return LinearOperator(a.shape[0], SymmetryClass(variant), apply), applies


def test_preconditioned_shift_equals_shifted_matrix():
    # in every class a carried shift runs the process on A - shift*I, the
    # same run bit for bit as on that operator; any other is refused
    # before an apply
    d = 0.5 + SplitMix64(79).uniforms(20)
    for variant, family in (("cs", "cs-h"), ("hermitian", "sh"), ("sh", "sh"), ("ss", "ss")):
        p = suite_problem(family, 20, 0, SEED, True)
        a = 1j * p.a if variant == "hermitian" else p.a
        op, applies = _counted(a, variant)
        for kind, sigma in SHIFTS.items():
            config = SolverConfig(tol=1e-12, shift=sigma)
            if kind not in CARRIED[variant]:
                applies.clear()
                with pytest.raises(ValueError, match=f"{variant} solve cannot take shift"):
                    solve(op, p.b, config=config, preconditioner=Diagonal(d))
                assert not applies, (variant, kind)
                continue
            r1 = solve(op, p.b, config=config, preconditioner=Diagonal(d))
            shifted = LinearOperator(20, SymmetryClass(variant), lambda x: a @ x - sigma * x)
            r2 = solve(shifted, p.b, config=SolverConfig(tol=1e-12), preconditioner=Diagonal(d))
            r3 = solve(a - sigma * np.eye(20), p.b, variant, SolverConfig(tol=1e-12),
                       preconditioner=Diagonal(d))
            assert r1.reason is r3.reason is StopReason.Converged_Rnorm, (variant, kind)
            assert _report_bits(r1) == _report_bits(r2), (variant, kind)
            assert norm2(r1.x - r3.x) <= 1e-9 * norm2(r3.x), (variant, kind)


@given(st.integers(min_value=2, max_value=15), st.integers(min_value=0, max_value=2**31))
@seed(2031)
@settings(max_examples=40, deadline=None)
def test_preconditioned_shifted_solves_are_right_or_refused(n, s):
    # no converged reason with a wrong x: a carried shift solves
    # (A - shift*I) x = b, any other raises before the operator is applied
    rng = np.random.default_rng(s)
    r = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    m = Diagonal(1.0 + rng.uniform(size=n))
    for variant in CARRIED:
        a = _class_matrix(variant, r)
        op, applies = _counted(a, variant)
        for kind, sigma in SHIFTS.items():
            config = SolverConfig(tol=1e-13, shift=sigma)
            if kind not in CARRIED[variant]:
                applies.clear()
                with pytest.raises(ValueError, match="shift"):
                    solve(op, b, config=config, preconditioner=m)
                assert not applies, (variant, kind)
                continue
            rep = solve(op, b, config=config, preconditioner=m)
            x_ref = np.linalg.solve(a - sigma * np.eye(n), b)
            assert rep.reason in CONVERGED_REASONS, (variant, kind, rep.reason)
            assert norm2(rep.x - x_ref) <= 1e-10 * norm2(x_ref), (variant, kind)


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
