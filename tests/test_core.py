import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from symkrylov.core import (
    EPS,
    LinearOperator,
    SparseMatrix,
    StructureError,
    SymmetryClass,
    as_vector,
    inner_h,
    inner_t,
    norm2,
    probe_symmetry,
)


def test_inner_t_oracles():
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    assert inner_t(e1, e2) == 0.0
    assert inner_t(np.array([2.0]), np.array([3.0])) == 6.0
    # transpose product has no conjugation
    assert inner_t(np.array([1j]), np.array([1j])) == -1.0 + 0.0j


@pytest.mark.parametrize("k", [-1000, -900, -600, 600, 900, 1000])
def test_norm2_scales_by_powers_of_two_exactly(k):
    x = np.array([3.0 + 4.0j, -1.0 + 0.5j, 0.25j, 2.0])
    big = np.empty_like(x)
    big.real, big.imag = np.ldexp(x.real, k), np.ldexp(x.imag, k)
    with np.errstate(over="ignore"):
        assert norm2(big) == np.ldexp(norm2(x), k)
        assert norm2(big.real) == np.ldexp(norm2(x.real), k)


def test_norm2_edge_values():
    assert norm2(np.zeros(3, dtype=np.complex128)) == 0.0
    assert norm2(np.zeros(0)) == 0.0
    assert norm2(np.array([5e-324, 0.0])) == 5e-324
    assert norm2(np.array([np.inf, 1.0])) == np.inf
    assert np.isnan(norm2(np.array([np.nan, 1.0])))
    assert np.isnan(norm2(np.array([np.nan, np.inf])))


def test_inner_h_oracles():
    assert inner_h(np.array([1j]), np.array([1j])) == 1.0
    assert inner_h(np.array([1.0, 1j]), np.array([1.0, 1j])) == 2.0
    assert inner_h(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0


def test_as_vector_checks_length():
    v = as_vector([1, 2, 3], 3)
    assert v.dtype == np.complex128
    with pytest.raises(ValueError):
        as_vector([1, 2], 3)


def test_from_coo_sums_duplicates():
    m = SparseMatrix.from_coo(2, [0, 0, 1], [1, 1, 0], [2.0, 3.0, -1.0])
    assert m.nnz == 2
    np.testing.assert_array_equal(m.to_dense(), [[0.0, 5.0], [-1.0, 0.0]])


def test_from_coo_rejects_out_of_range():
    with pytest.raises(ValueError):
        SparseMatrix.from_coo(2, [0, 2], [0, 0], [1.0, 1.0])
    with pytest.raises(ValueError):
        SparseMatrix.from_coo(2, [0], [0, 1], [1.0, 1.0])


def test_matvec_oracles():
    ident = SparseMatrix.from_dense(np.eye(3))
    np.testing.assert_array_equal(ident.matvec([1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])
    skew = SparseMatrix.from_dense(np.array([[0.0, 5.0], [-5.0, 0.0]]))
    np.testing.assert_array_equal(skew.matvec([1.0, 0.0]), [0.0, -5.0])
    diag = SparseMatrix.from_dense(1j * np.diag([1.0, 0.0]))
    np.testing.assert_array_equal(diag.matvec([1.0, 1.0]), [1j, 0.0])


def test_matvec_order_independent():
    # distinct cells: entry order must not change a single bit
    rng = np.random.default_rng(11)
    cells = rng.choice(36, size=20, replace=False)
    rows, cols = cells // 6, cells % 6
    vals = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    x = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    m1 = SparseMatrix.from_coo(6, rows, cols, vals)
    perm = rng.permutation(20)
    m2 = SparseMatrix.from_coo(6, rows[perm], cols[perm], vals[perm])
    np.testing.assert_array_equal(m1.matvec(x), m2.matvec(x))


def test_duplicate_order_only_moves_ulps():
    rng = np.random.default_rng(12)
    rows = rng.integers(0, 6, size=40)
    cols = rng.integers(0, 6, size=40)
    vals = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    x = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    m1 = SparseMatrix.from_coo(6, rows, cols, vals)
    perm = rng.permutation(40)
    m2 = SparseMatrix.from_coo(6, rows[perm], cols[perm], vals[perm])
    np.testing.assert_allclose(m1.matvec(x), m2.matvec(x), rtol=0, atol=64 * EPS)


def test_diagonal_extraction():
    m = SparseMatrix.from_coo(3, [0, 1, 2, 0], [0, 1, 2, 1],
                              [1.0, 2.0, 0.0, 9.0])
    np.testing.assert_array_equal(m.diagonal(), [1.0, 2.0, 0.0])


def test_operator_counts_applies_and_checks_length():
    op = LinearOperator.from_matrix(np.eye(2), SymmetryClass.COMPLEX_SYMMETRIC)
    op(np.ones(2))
    assert op._applies == 1
    bad = LinearOperator(n=2, symmetry=SymmetryClass.HERMITIAN,
                         apply=lambda x: np.ones(3))
    with pytest.raises(ValueError):
        bad(np.ones(2))


def _probe_cases():
    rng = np.random.default_rng(5)
    base = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    sym = base + base.T
    skw = np.real(base) - np.real(base).T
    skh = base - base.conj().T
    herm = base + base.conj().T
    return [
        (sym, SymmetryClass.COMPLEX_SYMMETRIC),
        (skw, SymmetryClass.SKEW_SYMMETRIC),
        (skh, SymmetryClass.SKEW_HERMITIAN),
        (herm, SymmetryClass.HERMITIAN),
    ]


def test_probe_accepts_each_class():
    for mat, cls in _probe_cases():
        op = LinearOperator.from_matrix(mat, cls)
        assert probe_symmetry(op) <= 1e-10


def test_probe_rejects_wrong_class():
    # a real skew matrix is also skew Hermitian, so pair each matrix
    # with a class it genuinely violates
    sym, skw, skh, herm = [mat for mat, _ in _probe_cases()]
    wrong = [
        (sym, SymmetryClass.SKEW_SYMMETRIC),
        (skw, SymmetryClass.COMPLEX_SYMMETRIC),
        (skh, SymmetryClass.HERMITIAN),
        (herm, SymmetryClass.SKEW_HERMITIAN),
        (sym, SymmetryClass.HERMITIAN),
    ]
    for mat, cls in wrong:
        op = LinearOperator.from_matrix(mat, cls)
        with pytest.raises(StructureError):
            probe_symmetry(op)


@given(st.integers(min_value=2, max_value=10), st.integers(min_value=0, max_value=2**31))
@seed(2026)
@settings(max_examples=60, deadline=None)
def test_probe_invariant_random_symmetric(n, s):
    rng = np.random.default_rng(s)
    base = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    op = LinearOperator.from_matrix(base + base.T, SymmetryClass.COMPLEX_SYMMETRIC)
    assert probe_symmetry(op) <= 1e-10
