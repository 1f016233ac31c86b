import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from symkrylov import solver
from symkrylov import tridiagonalize as tri
from symkrylov.core import (
    EPS,
    LinearOperator,
    SparseMatrix,
    StructureError,
    SymmetryClass,
    norm2,
    probe_symmetry,
)
from symkrylov.oracle import (
    SplitMix64,
    haar_orthogonal,
    suite_problem,
    symmetric_imaginary_matrix,
    tsvd_solve,
)
from symkrylov.precond import Diagonal
from symkrylov.solver import (
    CONVERGED_REASONS,
    MonitorRecord,
    SolveReport,
    SolverConfig,
    StopReason,
    solve,
)

from problems import ACCEPTED_BY, constructions, random_problem

SEED = 42424242


def test_tiny_imaginary_diagonal_pseudoinverse():
    r = solve(1j * np.diag([1.0, 0.0]), 1j * np.ones(2), "cs")
    np.testing.assert_allclose(r.x, [1.0, 0.0], atol=1e-12)
    assert r.reason is StopReason.Converged_ArNorm
    assert r.iterations == 2
    assert abs(r.phi - 1.0) <= 1e-12
    assert r.psi <= 1e-12
    assert abs(r.chi - 1.0) <= 1e-12


def test_identity_solves_in_one_step():
    b = np.array([1.0, -0.5, 3.0])
    r = solve(np.eye(3), b, "cs")
    np.testing.assert_allclose(r.x, b, atol=4 * EPS)
    assert r.iterations == 1
    assert r.phi <= 4 * EPS * norm2(b)


def test_identity_complex_rhs_two_steps():
    # conjugation splits a complex rhs across two process directions
    b = np.array([1.0 + 2.0j, -0.5, 3.0])
    r = solve(np.eye(3), b, "cs")
    np.testing.assert_allclose(r.x, b, atol=16 * EPS)
    assert r.iterations == 2
    assert r.phi <= 16 * EPS * norm2(b)


def test_diagonal_singular_pseudoinverse():
    r = solve(np.diag([1.0, 2.0, 0.0]), np.array([1.0, 2.0, 0.0]), "cs")
    np.testing.assert_allclose(r.x, [1.0, 1.0, 0.0], atol=1e-12)
    assert r.reason is StopReason.Converged_Rnorm


def test_skew_two_by_two_compatible():
    a = np.array([[0.0, 5.0], [-5.0, 0.0]])
    r = solve(a, np.array([1.0, 0.0]), "ss")
    np.testing.assert_allclose(r.x, [0.0, 0.2], atol=1e-12)
    assert r.reason in CONVERGED_REASONS


def test_skew_three_by_three_least_squares():
    a = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    r = solve(a, np.array([1.0, 1.0, 1.0]), "ss")
    np.testing.assert_allclose(r.x, [-1.0, 1.0, 0.0], atol=1e-10)
    assert abs(r.phi - 1.0) <= 1e-10
    assert r.reason is StopReason.Converged_ArNorm


def test_zero_rhs_returns_zero():
    r = solve(np.eye(3), np.zeros(3), "cs")
    np.testing.assert_array_equal(r.x, np.zeros(3))
    assert r.reason is StopReason.BetaZero_xZero
    assert r.iterations == 0


def test_one_step_conjugate_formula():
    # beta_2 = 0 after one step: x = conj(b)/alpha_1
    b = np.array([1.0 + 1.0j, 0.0])
    r = solve(1j * np.eye(2), b, "cs")
    assert r.reason is StopReason.Beta2Zero_OneStep
    np.testing.assert_allclose(r.x, [1.0 - 1.0j, 0.0], atol=1e-12)
    np.testing.assert_allclose(1j * np.eye(2) @ r.x, b, atol=1e-12)


def test_skew_hermitian_identity_one_step():
    r = solve(1j * np.eye(2), np.array([1.0, 0.0]), "sh")
    assert r.reason is StopReason.Beta2Zero_OneStep
    np.testing.assert_allclose(r.x, [-1.0j, 0.0], atol=1e-12)


def test_not_structured_reported_not_raised():
    bad = np.array([[1.0, 2.0], [0.0, 1.0]])
    r = solve(bad, np.ones(2), "cs")
    assert r.reason is StopReason.NotStructured
    np.testing.assert_array_equal(r.x, np.zeros(2))
    assert r.iterations == 0


def test_structure_check_can_be_skipped():
    bad = np.array([[1.0, 2.0], [0.0, 1.0]])
    r = solve(bad, np.ones(2), "cs", SolverConfig(check_structure=False))
    assert r.reason is not StopReason.NotStructured


@given(st.integers(min_value=2, max_value=15), st.integers(min_value=0, max_value=2**31))
@seed(2027)
@settings(max_examples=30, deadline=None)
def test_probe_accepts_each_construction_under_its_classes_only(n, s):
    for name, a in constructions(random_problem(n, s)[0]).items():
        for cls in SymmetryClass:
            op = LinearOperator.from_matrix(a, cls)
            if cls in ACCEPTED_BY[name]:
                assert probe_symmetry(op) <= 1e-10, (name, cls)
            else:
                with pytest.raises(StructureError):
                    probe_symmetry(op)


@given(st.integers(min_value=2, max_value=15), st.integers(min_value=0, max_value=2**31))
@seed(2028)
@settings(max_examples=60, deadline=None)
# 'real R - R^T' under sh, plain: a rank-deficient n = 3 least-squares
# problem that once stopped converged with relerr 0.044
@example(n=3, s=284241)
def test_accepted_converged_solves_are_right(n, s):
    # no converged reason with a wrong x: plain, reorthogonalized, or
    # through the preconditioned process with M = I held as a Diagonal
    r, b = random_problem(n, s)
    variants = ({}, {"reorthogonalize": True}, {"preconditioner": Diagonal(np.ones(n))})
    for name, a in constructions(r).items():
        x_ref = np.linalg.lstsq(a, b, rcond=None)[0]
        for cls in SymmetryClass:
            for kwargs in variants:
                rep = solve(a, b, cls, **kwargs)
                assert (rep.reason is not StopReason.NotStructured) == (cls in ACCEPTED_BY[name])
                if rep.reason in CONVERGED_REASONS:
                    assert norm2(rep.x - x_ref) <= 1e-10 * norm2(x_ref), (name, cls)


@pytest.mark.parametrize("shift", [0.3, 0.3 + 0.2j, -0.5 + 0.4j])
@pytest.mark.parametrize("skew_hermitian", [False, True], ids=["real-skew", "skew-hermitian"])
def test_shifted_skew_solves_with_complex_rhs(skew_hermitian, shift):
    # the ss row is real Lanczos on C^n read as R^(2n); its reorthogonalized
    # basis must stay orthogonal in that inner product, or a converged
    # reason comes with a wrong x
    for s in range(10):
        r, b = random_problem(2 + s, s)
        a = r - r.conj().T if skew_hermitian else r.real - r.real.T
        rep = solve(a, b, "ss", SolverConfig(shift=shift), reorthogonalize=True)
        x_ref = np.linalg.solve(a - shift * np.eye(a.shape[0]), b)
        assert rep.reason in CONVERGED_REASONS, s
        assert norm2(rep.x - x_ref) <= 1e-8 * norm2(x_ref), s


def test_preconditioned_skew_hermitian_solves_under_ss():
    # the preconditioned ss row on a complex A = -A^H: no alpha term, and
    # beta from q^H z with a Hermitian positive definite M
    for s in range(10):
        r, b = random_problem(2 + s, s)
        a = r - r.conj().T
        d = np.random.default_rng(s).uniform(0.5, 2.0, a.shape[0])
        rep = solve(a, b, "ss", preconditioner=Diagonal(d))
        x_ref = np.linalg.solve(a, b)
        assert rep.reason in CONVERGED_REASONS, s
        assert norm2(rep.x - x_ref) <= 1e-10 * norm2(x_ref), s


def test_maxit_stop():
    p = suite_problem("cs-h", 30, 0, SEED, True)
    r = solve(p.a, p.b, p.variant, SolverConfig(maxit=1))
    assert r.reason is StopReason.MaxIt
    assert r.iterations == 1


def test_maxit_validation():
    with pytest.raises(ValueError):
        solve(np.eye(2), np.ones(2), "cs", SolverConfig(maxit=0))


@pytest.mark.parametrize("maxit", [0, -3])
def test_maxit_below_one_rejected_by_config(maxit):
    with pytest.raises(ValueError, match="maxit"):
        SolverConfig(maxit=maxit)


@pytest.mark.parametrize("maxit", [2.5, 3.0, "3"])
def test_non_integer_maxit_rejected_by_config(maxit):
    with pytest.raises(ValueError, match="maxit must be an integer"):
        SolverConfig(maxit=maxit)


def test_numpy_integer_maxit_accepted():
    r = solve(np.diag([1.0, 2.0, 3.0]), np.ones(3), "hermitian",
              SolverConfig(maxit=np.int64(3)))
    assert r.reason in CONVERGED_REASONS and r.iterations == 3


def test_array_holding_dataclasses_compare_by_identity():
    # the generated __eq__ compared array fields and raised on them
    first, second = [], []
    for records in (first, second):
        solve(np.diag([1.0, 2.0, 3.0]), np.ones(3), "hermitian", monitor=records.append)
    b = np.ones(4, dtype=np.complex128)
    pairs = [
        (SparseMatrix.from_dense(np.eye(3)), SparseMatrix.from_dense(np.eye(3))),
        (Diagonal(np.ones(3)), Diagonal(np.ones(3))),
        (SolveReport(np.zeros(3), StopReason.MaxIt), SolveReport(np.zeros(3), StopReason.MaxIt)),
        (suite_problem("cs-h", 6, 0, SEED, True), suite_problem("cs-h", 6, 0, SEED, True)),
        (tri.process_init(b), tri.process_init(b)),
        (first[0], second[0]),
    ]
    for one, other in pairs:
        assert not one == other and one != other
        assert one == one
    assert hash(pairs[1][0]) != hash(pairs[1][1])


def test_default_maxit_of_empty_operator_rejected():
    op = LinearOperator(0, SymmetryClass.HERMITIAN, lambda x: x)
    with pytest.raises(ValueError, match="maxit"):
        solve(op, np.zeros(0))


@pytest.mark.parametrize("a, variant", [
    (LinearOperator(0, SymmetryClass.HERMITIAN, lambda x: x), None),
    (np.zeros((0, 0)), "cs"),
], ids=["operator", "dense"])
def test_empty_operator_returns_beta_zero(a, variant):
    r = solve(a, np.zeros(0), variant, SolverConfig(maxit=3))
    assert r.reason is StopReason.BetaZero_xZero
    assert r.x.shape == (0,) and r.iterations == 0


@pytest.mark.parametrize("name", ["tol", "maxxnorm", "maxcond", "trancond"])
def test_nan_option_rejected(name):
    with pytest.raises(ValueError, match=name):
        SolverConfig(**{name: np.nan})
    if name == "tol":
        # every iterate passes an infinite tol's residual test: a random
        # 8 x 8 Hermitian solve stopped Converged_Rnorm after one
        # iteration with relerr 1.05
        with pytest.raises(ValueError, match="tol must be finite"):
            SolverConfig(tol=math.inf)
        # phi never exceeds beta_1, so a tol of 1 or more passes at
        # iteration 1 too: the same solve, relerr 1.07
        for tol in (1, 1.0, 1e300):
            with pytest.raises(ValueError, match="tol must be below 1"):
                SolverConfig(tol=tol)


@pytest.mark.parametrize("shift", [math.nan, math.inf, -math.inf, complex(0, math.nan),
                                   complex(1, math.inf)])
def test_non_finite_shift_rejected(shift):
    # an infinite shift would stop converged (Beta2Zero_OneStep) with an
    # all-NaN x, and a NaN one would run to MaxIt with a NaN x
    with pytest.raises(ValueError, match="shift"):
        SolverConfig(shift=shift)


@pytest.mark.parametrize("name, value", [
    ("tol", None), ("maxxnorm", "1e7"), ("maxcond", True), ("trancond", 1j),
    ("shift", "1"), ("shift", None), ("shift", False),
    ("maxit", True), ("check_structure", "no"), ("check_structure", 1),
    # ints beyond float range
    pytest.param("tol", 10**400, id="tol-10**400"),
    pytest.param("maxxnorm", -10**400, id="maxxnorm--10**400"),
    pytest.param("maxcond", 10**400, id="maxcond-10**400"),
    pytest.param("trancond", 10**400, id="trancond-10**400"),
    pytest.param("shift", 10**400, id="shift-10**400"),
])
def test_wrong_option_type_is_named(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be a"):
        SolverConfig(**{name: value})


def test_options_are_stored_in_their_own_type():
    cfg = SolverConfig(tol=0, maxxnorm=np.float32(2.0), maxcond=10**3, trancond=1,
                       shift=np.complex64(1 + 2j))
    for name, value in (("tol", 0.0), ("maxxnorm", 2.0), ("maxcond", 1e3),
                        ("trancond", 1.0), ("shift", 1 + 2j)):
        assert type(getattr(cfg, name)) is type(value) and getattr(cfg, name) == value
    assert type(SolverConfig(shift=2).shift) is complex


def test_variant_required_for_raw_matrix():
    with pytest.raises(ValueError):
        solve(np.eye(2), np.ones(2))
    with pytest.raises(ValueError):
        solve(np.eye(2), np.ones(2), "unknown")


def test_variant_conflict_with_operator():
    op = LinearOperator.from_matrix(np.eye(2), SymmetryClass.HERMITIAN)
    with pytest.raises(ValueError):
        solve(op, np.ones(2), "cs")
    r = solve(op, np.ones(2), "hermitian")
    assert r.reason in CONVERGED_REASONS


def test_sparse_and_dense_inputs_agree_bitwise():
    p = suite_problem("cs-h", 20, 1, SEED, True)
    r1 = solve(p.a, p.b, "cs")
    r2 = solve(SparseMatrix.from_dense(p.a), p.b, "cs")
    np.testing.assert_array_equal(r1.x, r2.x)
    assert r1.iterations == r2.iterations


def all_outputs(report, records):
    """The bits of every report field and of every field of every
    monitor record."""
    return [(f.name, np.asarray(getattr(obj, f.name)).tobytes())
            for obj in (report, *records) for f in fields(obj)]


def test_skew_hermitian_equals_rotated_hermitian():
    rng = SplitMix64(808)
    from symkrylov.oracle import skew_hermitian_matrix

    n = 13
    a = skew_hermitian_matrix(n, rng)
    b = a @ rng.uniforms(n).astype(np.complex128)
    # as dense matrices: the same Krylov process up to matvec rounding (the
    # rotation is applied before vs after the product, so FMA orderings
    # differ by ulps)
    r1 = solve(a, b, "sh", SolverConfig(tol=1e-12, maxit=60))
    r2 = solve(1j * a, 1j * b, "hermitian", SolverConfig(tol=1e-12, maxit=60))
    assert abs(r1.iterations - r2.iterations) <= 2
    assert r1.reason in CONVERGED_REASONS and r2.reason in CONVERGED_REASONS
    assert norm2(r1.x - r2.x) <= 1e-4 * max(norm2(r2.x), 1.0)
    # as operators: sh is the Hermitian system (iA) x = ib shifted by
    # i*shift, bit for bit; a preconditioned run carries only an imaginary
    # shift on sh
    sh = LinearOperator.from_matrix(a, SymmetryClass.SKEW_HERMITIAN)
    herm = LinearOperator(n, SymmetryClass.HERMITIAN, lambda x: 1j * sh(x))
    d = np.random.default_rng(808).uniform(0.5, 2.0, n)
    runs = [({}, (0.0, 0.3j, 0.2 + 0.1j)), ({"reorthogonalize": True}, (0.0, 0.3j, 0.2 + 0.1j)),
            ({"preconditioner": Diagonal(d)}, (0.0, 0.3j))]
    for kwargs, shifts in runs:
        for shift in shifts:
            for trancond in (1.0, 1e7):
                out = []
                for op, rhs, sigma in ((sh, b, shift), (herm, 1j * b, 1j * shift)):
                    records = []
                    r = solve(op, rhs, config=SolverConfig(shift=sigma, trancond=trancond),
                              monitor=records.append, **kwargs)
                    out.append(all_outputs(r, records))
                case = (kwargs, shift, trancond)
                assert r.reason in CONVERGED_REASONS and records, case
                assert out[0] == out[1], case


def test_hermitian_variant_compatible():
    rng = SplitMix64(809)
    h = 1j * symmetric_imaginary_matrix(16, 16, rng)
    z = rng.uniforms(16).astype(np.complex128)
    b = h @ z
    r = solve(h, b, "hermitian", SolverConfig(tol=1e-13))
    assert norm2(h @ r.x - b) <= 1e-10 * (norm2(b) + norm2(r.x))


def test_config_shift_equals_shifted_matrix():
    rng = SplitMix64(810)
    a = symmetric_imaginary_matrix(14, 14, rng)
    b = rng.uniforms(14).astype(np.complex128)
    sigma = 0.2 + 0.1j
    r1 = solve(a, b, "cs", SolverConfig(tol=1e-12, shift=sigma))
    r2 = solve(a - sigma * np.eye(14), b, "cs", SolverConfig(tol=1e-12))
    assert norm2(r1.x - r2.x) <= 1e-9 * norm2(r2.x)
    # a cs row runs its process on A - shift*I: the same run, bit for bit,
    # as on that operator unshifted
    op = LinearOperator.from_matrix(a, SymmetryClass.COMPLEX_SYMMETRIC)
    shifted = LinearOperator(14, SymmetryClass.COMPLEX_SYMMETRIC, lambda x: op(x) - sigma * x)
    r3 = solve(shifted, b, config=SolverConfig(tol=1e-12))
    assert r1.iterations == r3.iterations and r1.x.tobytes() == r3.x.tobytes()


@pytest.mark.parametrize("preconditioned", [False, True])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("variant", ["cs", "ss", "sh", "hermitian"])
def test_non_finite_rhs_rejected(variant, bad, preconditioned):
    from symkrylov.oracle import skew_hermitian_matrix, skew_symmetric_matrix
    from symkrylov.precond import Diagonal

    rng = SplitMix64(813)
    a = {"cs": lambda: symmetric_imaginary_matrix(8, 8, rng),
         "ss": lambda: skew_symmetric_matrix(8, rng),
         "sh": lambda: skew_hermitian_matrix(8, rng),
         "hermitian": lambda: 1j * symmetric_imaginary_matrix(8, 8, rng)}[variant]()
    b = np.ones(8, dtype=np.complex128)
    b[3] = bad
    m = Diagonal(np.full(8, 2.0)) if preconditioned else None
    with pytest.raises(ValueError, match="finite"):
        solve(a, b, variant, preconditioner=m)


@pytest.mark.parametrize("trancond", [1e7, 1.0])
@pytest.mark.parametrize("preconditioned", [False, True])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("variant", ["cs", "ss", "sh", "hermitian"])
def test_non_finite_operator_output_stops(variant, bad, preconditioned, trancond):
    # the operator turns bad on one call: call 2 is in the symmetry
    # probe (4 applies), call 9 is the fifth process step
    from symkrylov.oracle import skew_hermitian_matrix, skew_symmetric_matrix
    from symkrylov.precond import Diagonal

    rng = SplitMix64(814)
    n = 24
    a = {"cs": lambda: symmetric_imaginary_matrix(n, n, rng),
         "ss": lambda: skew_symmetric_matrix(n, rng),
         "sh": lambda: skew_hermitian_matrix(n, rng),
         "hermitian": lambda: 1j * symmetric_imaginary_matrix(n, n, rng)}[variant]()
    b = rng.uniforms(n) + 1j * rng.uniforms(n)
    m = Diagonal(np.full(n, 2.0)) if preconditioned else None
    for bad_call in (2, 9):
        calls = [0]

        def apply(x):
            calls[0] += 1
            y = a @ x
            if calls[0] == bad_call:
                y[0] = bad
            return y

        op = LinearOperator(n, SymmetryClass(variant), apply)
        records = []
        with np.errstate(all="ignore"):
            r = solve(op, b, config=SolverConfig(trancond=trancond),
                      preconditioner=m, monitor=records.append)
        assert r.reason is StopReason.NonFinite
        assert StopReason.NonFinite not in CONVERGED_REASONS
        assert np.isfinite(r.x).all()
        if bad_call == 9:
            assert r.iterations == records[-1].k
            # the last iterate the engine finished, bit for bit
            np.testing.assert_array_equal(r.x, records[-1].x)
        else:
            assert r.iterations == 0 and not records


@pytest.mark.parametrize("check_structure", [True, False])
def test_nan_matrix_stops_non_finite(check_structure):
    a = np.diag(np.arange(1.0, 9.0))
    a[0, 0] = np.nan
    with np.errstate(all="ignore"):
        r = solve(a, np.ones(8), "hermitian",
                  SolverConfig(check_structure=check_structure))
    assert r.reason is StopReason.NonFinite
    assert np.isfinite(r.x).all()


def test_skew_shift_on_tridiagonal_coefficients():
    # skew A with shift: engine solves (A - sigma I) x = b
    rng = SplitMix64(812)
    from symkrylov.oracle import skew_symmetric_matrix

    a = skew_symmetric_matrix(12, rng)
    b = rng.uniforms(12).astype(np.complex128)
    sigma = 0.4
    r = solve(a, b, "ss", SolverConfig(tol=1e-12, shift=sigma))
    x_ref = np.linalg.solve(a - sigma * np.eye(12), b)
    assert norm2(r.x - x_ref) <= 1e-8 * norm2(x_ref)


def test_monitor_record_stream():
    p = suite_problem("cs-h", 25, 2, SEED, True)
    recs = []
    r = solve(p.a, p.b, p.variant, SolverConfig(tol=1e-12), monitor=recs.append)
    assert [m.k for m in recs] == list(range(1, r.iterations + 1))
    assert all(isinstance(m, MonitorRecord) for m in recs)
    phis = [m.phi for m in recs]
    assert all(a >= b - 1e-12 for a, b in zip(phis, phis[1:]))
    anorms = [m.anorm for m in recs]
    assert all(a <= b + 1e-15 for a, b in zip(anorms, anorms[1:]))
    np.testing.assert_array_equal(recs[-1].x, r.x)
    assert recs[-1].chi == r.chi and recs[-1].anorm == r.anorm


def test_residual_recurrence_tracks_truth():
    p = suite_problem("cs-h", 30, 1, SEED, True)
    s1 = np.linalg.svd(p.a, compute_uv=False)[0]
    recs = []
    solve(p.a, p.b, p.variant, SolverConfig(tol=EPS), monitor=recs.append)
    beta1 = norm2(p.b)
    for m in recs:
        if m.phi < 1e-10 * beta1:
            continue
        true_r = norm2(p.b - p.a @ m.x)
        assert abs(m.phi - true_r) <= 1e-8 * (s1 * norm2(m.x) + beta1)


def test_psi_estimate_tracks_truth():
    # record k carries the estimate for iterate k-1; the estimate is
    # tight until the quantity sinks toward its stall floor
    rng = SplitMix64(2020)
    n = 30
    a = symmetric_imaginary_matrix(n, n - 3, rng)
    b = rng.uniforms(n).astype(np.complex128)
    recs = []
    solve(a, b, "cs", SolverConfig(tol=EPS, maxit=120), monitor=recs.append)
    anorm = np.linalg.norm(a, 2)
    beta1 = norm2(b)
    for k in range(1, len(recs)):
        true_ar = norm2(np.conj(a) @ (b - a @ recs[k - 1].x))
        if true_ar < 1e-8 * anorm * beta1:
            continue
        assert abs(recs[k].psi - true_ar) <= 1e-2 * true_ar
        if true_ar >= 1e-6 * anorm * beta1:
            assert abs(recs[k].psi - true_ar) <= 1e-6 * true_ar


def test_phase_equivalence_well_conditioned():
    rng = SplitMix64(99)
    n = 20
    a = symmetric_imaginary_matrix(n, n, rng)
    b = a @ rng.uniforms(n).astype(np.complex128)
    r1 = solve(a, b, "cs", SolverConfig(tol=1e-12, trancond=1.0))
    r2 = solve(a, b, "cs", SolverConfig(tol=1e-12, trancond=1e300))
    assert r1.transfer_iteration == 1
    assert r2.transfer_iteration == 0
    assert norm2(r1.x - r2.x) <= 1e-8 * norm2(r2.x)


def test_qlp_from_start_matches_on_singular_diagonal():
    a = np.diag([1.0, 2.0, 0.0])
    b = np.array([1.0, 2.0, 0.0])
    r1 = solve(a, b, "cs", SolverConfig(trancond=1.0))
    r2 = solve(a, b, "cs")
    np.testing.assert_allclose(r1.x, [1.0, 1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(r2.x, [1.0, 1.0, 0.0], atol=1e-12)


def test_reorthogonalized_ls_terminates_at_rank_plus_one():
    p = suite_problem("cs-h", 30, 0, SEED, False)
    r = solve(p.a, p.b, p.variant, SolverConfig(tol=EPS, maxit=120),
              reorthogonalize=True)
    assert r.reason is StopReason.Converged_ArNorm
    assert r.iterations == p.rank + 1
    x_ref = tsvd_solve(p.a, p.b)
    assert norm2(r.x - x_ref) <= 1e-6 * norm2(x_ref)


def test_xnorm_guard_truncates():
    p = suite_problem("cs-h", 30, 0, SEED, False)
    r = solve(p.a, p.b, p.variant, SolverConfig(tol=EPS, maxit=200))
    assert r.reason is StopReason.XnormExceeded
    assert r.chi <= 1e7
    # the truncated iterate still lands on the pseudoinverse solution
    x_ref = tsvd_solve(p.a, p.b)
    assert norm2(r.x - x_ref) <= 1e-4 * norm2(x_ref)


def test_tight_xnorm_stops_immediately():
    p = suite_problem("cs-h", 20, 0, SEED, True)
    r = solve(p.a, p.b, p.variant, SolverConfig(maxxnorm=1e-8))
    assert r.reason is StopReason.XnormExceeded
    assert r.chi <= 1e-8


def test_cond_guard_stops_at_a_maxcond_below_one_over_eps():
    # maxcond is the bound itself: unguarded, this solve runs on to
    # Converged_Rnorm with acond 1e12
    a = np.diag([1.0, 1e-6, 1e-12])
    b = np.random.default_rng(0).standard_normal(3)
    r = solve(a, b, "hermitian", SolverConfig(maxcond=1e3, maxxnorm=1e300))
    assert r.reason is StopReason.CondExceeded
    assert 1e3 <= r.acond < 1.0 / EPS


def test_collapse_stop_whose_iterate_passes_the_ar_test_is_converged():
    # the reorthogonalized solve reaches acond >= maxcond on a collapsed
    # column at iteration 7; the in-loop A*r test, one step behind, has
    # not passed, and the look-ahead psi of the iterate it left does
    p = suite_problem("cs-h", 9, 1, 1, False)
    records = []
    r = solve(p.a, p.b, p.variant, SolverConfig(tol=EPS, maxit=36), monitor=records.append,
              reorthogonalize=True)
    last = records[-1]
    assert last.acond >= 1.0 / EPS and abs(last.gamma4) <= 9 * EPS * last.anorm
    assert r.reason is StopReason.Converged_ArNorm and r.iterations == 7
    assert r.psi <= EPS * r.anorm * r.phi
    x_ref = tsvd_solve(p.a, p.b)
    assert norm2(r.x - x_ref) <= 1e-10 * norm2(x_ref)


def test_cond_stop_without_a_collapse_keeps_its_reason():
    # a real skew A of odd order is singular; at maxcond = 10 the solve
    # stops on a column far from collapse, with an iterate whose psi
    # passes the A*r test: the reason stays CondExceeded
    r, b = random_problem(3, 33)
    records = []
    rep = solve(r.real - r.real.T, b, "sh", SolverConfig(tol=1e-6, maxcond=10.0, maxxnorm=1e300),
                monitor=records.append)
    assert abs(records[-1].gamma4) > 1e-3 * records[-1].anorm
    assert rep.reason is StopReason.CondExceeded and rep.iterations == 2
    assert 0.0 < rep.psi <= 1e-6 * rep.anorm * rep.phi


def test_abs_is_inf_where_a_finite_modulus_overflows():
    z = complex(1.5e308, 1.5e308)
    with pytest.raises(OverflowError):
        abs(z)
    assert solver._abs(z) == math.inf
    assert solver._abs(3.0 - 4.0j) == 5.0
    assert solver._abs(complex(-math.inf, 1.0)) == math.inf


def test_cond_guard_with_xnorm_lifted():
    p = suite_problem("cs-m", 30, 2, SEED, False)
    r = solve(p.a, p.b, p.variant,
              SolverConfig(tol=EPS, maxit=500, maxxnorm=1e300))
    assert r.reason is StopReason.CondExceeded
    assert r.acond >= 1.0 / EPS


def test_collapsed_diagonal_stop_with_guards_lifted():
    p = suite_problem("cs-h", 30, 0, SEED, False)
    r = solve(p.a, p.b, p.variant,
              SolverConfig(tol=EPS, maxit=500, maxxnorm=1e300))
    assert r.reason in (StopReason.Converged_ArNorm, StopReason.CondExceeded)


def test_converged_suite_sample_each_family():
    for fam, n in (("cs-h", 30), ("cs-m", 30), ("ss", 31), ("sh", 31)):
        p = suite_problem(fam, n, 0, SEED, True)
        x_ref = tsvd_solve(p.a, p.b)
        r = solve(p.a, p.b, p.variant, SolverConfig(tol=EPS, maxit=4 * n))
        assert r.reason is StopReason.Converged_Rnorm
        assert norm2(r.x - x_ref) <= 1e-6 * max(norm2(x_ref), 1.0)


def test_transfer_reported_once():
    p = suite_problem("cs-h", 30, 0, SEED, False)
    recs = []
    r = solve(p.a, p.b, p.variant, SolverConfig(tol=EPS, maxit=200),
              monitor=recs.append)
    if r.transfer_iteration:
        assert 1 <= r.transfer_iteration <= r.iterations


def test_omega_splits_rhs_energy():
    import math

    # omega collects what the reflections move out of the residual, so
    # omega^2 + phi^2 reassembles the initial residual norm
    for idx, compatible in ((0, True), (1, False)):
        p = suite_problem("cs-h", 25, idx, SEED, compatible)
        r = solve(p.a, p.b, p.variant, SolverConfig(tol=1e-12))
        beta1 = norm2(p.b)
        assert abs(math.hypot(r.omega, r.phi) - beta1) <= 16 * EPS * beta1
