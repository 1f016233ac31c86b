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
    norm2,
    probe_symmetry,
)


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


@pytest.mark.parametrize("indptr, indices, data", [
    ([0, 1, 2, 3], [0, -1, 2], np.ones(3)),     # would read x[-1] = x[2]
    ([0, 1, 2, 3], [0, 3, 2], np.ones(3)),
    ([0, 1, 3], [0, 1, 2], np.ones(3)),         # indptr too short
    ([1, 1, 2, 3], [0, 1, 2], np.ones(3)),
    ([0, 2, 1, 3], [0, 1, 2], np.ones(3)),
    ([0, 1, 2, 2], [0, 1, 2], np.ones(3)),
    ([0, 1, 2, 3], [0, 1, 2], np.ones(2)),
    ([[0, 1, 2, 3]], [0, 1, 2], np.ones(3)),
])
def test_sparse_matrix_checks_its_arrays(indptr, indices, data):
    with pytest.raises(ValueError):
        SparseMatrix(3, np.array(indptr), np.array(indices), data)


def test_sparse_matrix_accepts_empty_rows_and_no_rows():
    m = SparseMatrix(3, np.array([0, 0, 2, 2]), np.array([0, 2]), np.array([1.0, 2.0]))
    np.testing.assert_array_equal(m.matvec([1.0, 5.0, 3.0]), [0.0, 7.0, 0.0])
    empty = SparseMatrix(0, np.array([0]), np.array([], dtype=np.int64), np.array([]))
    assert empty.matvec([]).shape == (0,)


def test_as_vector_checks_length():
    v = as_vector([1, 2, 3], 3, "b")
    assert v.dtype == np.complex128 and v.shape == (3,)
    assert as_vector(v, 3, "b") is v
    column = np.ones((3, 1), dtype=np.complex128)
    assert np.shares_memory(as_vector(column, 3, "b"), column)
    with pytest.raises(ValueError, match="b has length 2, expected 3"):
        as_vector([1, 2], 3, "b")


@pytest.mark.parametrize("call, what", [
    (lambda m: m.matvec(np.ones(2)), "matvec input"),
    (lambda m: LinearOperator(3, SymmetryClass.HERMITIAN, lambda x: x[:2])(np.ones(3)),
     "operator output"),
], ids=["matvec", "operator"])
def test_wrong_length_vectors_are_named(call, what):
    with pytest.raises(ValueError, match=f"{what} has length 2, expected 3"):
        call(SparseMatrix.from_dense(np.eye(3)))


def test_to_dense_sums_repeated_entries():
    # a directly built CSR matrix may repeat a (row, column) entry
    m = SparseMatrix(2, np.array([0, 2, 3]), np.array([0, 0, 1]), np.array([1.0, 2.0, 5.0]))
    np.testing.assert_array_equal(m.matvec([1.0, 1.0]), [3.0, 5.0])
    np.testing.assert_array_equal(m.diagonal(), [3.0, 5.0])
    np.testing.assert_array_equal(m.to_dense(), [[3.0, 0.0], [0.0, 5.0]])


@pytest.mark.parametrize("a", [np.ones((2, 3)), np.ones(4), np.ones((2, 2, 2))],
                         ids=["rectangle", "vector", "3-d"])
def test_from_dense_rejects_non_square_input(a):
    with pytest.raises(ValueError, match="dense input must be square"):
        SparseMatrix.from_dense(a)


def test_from_coo_sums_duplicates():
    m = SparseMatrix.from_coo(2, [0, 0, 1], [1, 1, 0], [2.0, 3.0, -1.0])
    assert m.nnz == 2
    np.testing.assert_array_equal(m.to_dense(), [[0.0, 5.0], [-1.0, 0.0]])


def test_from_coo_rejects_out_of_range():
    with pytest.raises(ValueError):
        SparseMatrix.from_coo(2, [0, 2], [0, 0], [1.0, 1.0])
    with pytest.raises(ValueError):
        SparseMatrix.from_coo(2, [0], [0, 1], [1.0, 1.0])
    for col in (-1, 2):
        with pytest.raises(ValueError, match="column index out of range"):
            SparseMatrix.from_coo(2, [0], [col], [1.0])


def test_matvec_oracles():
    ident = SparseMatrix.from_dense(np.eye(3))
    np.testing.assert_array_equal(ident.matvec([1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])
    skew = SparseMatrix.from_dense(np.array([[0.0, 5.0], [-5.0, 0.0]]))
    np.testing.assert_array_equal(skew.matvec([1.0, 0.0]), [0.0, -5.0])
    diag = SparseMatrix.from_dense(1j * np.diag([1.0, 0.0]))
    np.testing.assert_array_equal(diag.matvec([1.0, 1.0]), [1j, 0.0])


def scatter_add(m, x):
    """The reference product: each row's products added to +0.0 in CSR
    order by an unbuffered scatter-add."""
    rows = np.repeat(np.arange(m.n), np.diff(m.indptr))
    y = np.zeros(m.n, dtype=np.complex128)
    np.add.at(y, rows, m.data * x[m.indices])
    return y


def assert_same_bits(y, ref):
    # a float64 view, compared as raw bits, so that signed zeros count
    assert y.dtype == ref.dtype and y.shape == ref.shape
    assert y.view(np.float64).tobytes() == ref.view(np.float64).tobytes()


def random_x(rng, n):
    """A complex vector with some zero, negative zero and subnormal entries."""
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    pick = rng.integers(0, 4, size=n)
    x[pick == 0] = 0.0
    x[pick == 1] = complex(-0.0, -0.0)
    x[pick == 2] *= 1e-310
    return x


@pytest.mark.parametrize("seed", range(40))
def test_matvec_matches_scatter_add_bit_for_bit(seed):
    rng = np.random.default_rng([13, seed])
    n = int(rng.integers(1, 13))
    count = int(rng.integers(0, 2 * n * n))
    # drawn with replacement: duplicates, which from_coo sums, and
    # rows left empty at low counts
    rows, cols = rng.integers(0, n, size=count), rng.integers(0, n, size=count)
    vals = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    vals[rng.integers(0, 3, size=count) == 0] = 0.0          # explicit zeros
    if seed % 4 == 0:
        vals *= 1e-310                                        # subnormal data
    m = SparseMatrix.from_coo(n, rows, cols, vals)
    # the same arrays, with the explicit zeros stored as -0.0
    data = m.data.copy()
    data[data == 0.0] = complex(-0.0, -0.0)
    signed = SparseMatrix(n, m.indptr, m.indices, data)
    for mat in (m, signed):
        for x in (random_x(rng, n), random_x(rng, n).real + 0j):
            assert_same_bits(mat.matvec(x), scatter_add(mat, x))


def test_matvec_takes_the_slot_layout_on_dense_and_banded_input():
    rng = np.random.default_rng(14)
    a = rng.standard_normal((9, 9))
    a[4] = 0.0                                       # an empty row
    a[2, 5] = a[7, 1] = a[3, 3] = 0.0                # padding 81/69 <= 1.2
    for mat in (a, a + 1j * rng.standard_normal((9, 9)), np.diag(rng.standard_normal(9))):
        m = SparseMatrix.from_dense(mat)
        assert m._slot_data is not None
        for x in (random_x(rng, 9), random_x(rng, 9).real + 0j):
            assert_same_bits(m.matvec(x), scatter_add(m, x))


@pytest.mark.parametrize("n, every", [(2800, 7), (4000, 0)],
                         ids=["k*n above 2**14, nnz below", "nnz above 2**14"])
def test_matvec_matches_scatter_add_where_numpy_reuses_temporaries(n, every):
    # numpy reuses a temporary of 2**14 or more complex entries in place,
    # which swaps the operands of data * x[indices]; complex products are
    # not commutative bit for bit where numpy uses FMA.  A band of five
    # diagonals, with a sixth entry in every 7th row for the first case,
    # keeps the slot layout (padding 1.17 and 1.0) on both sides of that size
    offsets = range(-2, 3)
    rows = np.concatenate([np.arange(max(0, -o), n - max(0, o)) for o in offsets])
    cols = np.concatenate([np.arange(max(0, o), n + min(0, o)) for o in offsets])
    if every:
        extra = np.arange(0, n, every)
        rows, cols = np.concatenate([rows, extra]), np.concatenate([cols, (extra + n // 2) % n])
    rng = np.random.default_rng(18)
    vals = rng.standard_normal(rows.size) + 1j * rng.standard_normal(rows.size)
    m = SparseMatrix.from_coo(n, rows, cols, vals)
    assert m._slot_data is not None
    for x in (random_x(rng, n), rng.standard_normal(n) + 1j * rng.standard_normal(n)):
        assert_same_bits(m.matvec(x), scatter_add(m, x))


@pytest.mark.parametrize("m", [SparseMatrix.from_dense(np.zeros((0, 0))),
                               SparseMatrix.from_coo(0, [], [], []),
                               SparseMatrix.from_coo(5, [], [], []),
                               SparseMatrix.from_dense(np.zeros((4, 4)))],
                         ids=["dense n=0", "coo n=0", "coo nnz=0", "dense nnz=0"])
def test_matvec_of_an_empty_matrix_is_positive_zero(m):
    x = random_x(np.random.default_rng(15), m.n)
    y = m.matvec(x)
    assert_same_bits(y, scatter_add(m, x))
    assert not np.signbit(y.view(np.float64)).any()


def test_arrow_matrix_keeps_the_scatter_add():
    # row 0 is full and every other row holds two entries: k*n = n**2
    # against nnz = 3n - 2, so no (k, n) layout is built
    n = 40
    rng = np.random.default_rng(16)
    a = np.diag(rng.standard_normal(n)) + 0j
    a[0, :] = a[:, 0] = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    m = SparseMatrix.from_dense(a)
    assert m._slot_data is None and m._slot_indices is None
    assert all(np.ndim(v) < 2 for v in vars(m).values())
    x = random_x(rng, n)
    assert_same_bits(m.matvec(x), scatter_add(m, x))


def test_one_row_of_duplicates_keeps_the_scatter_add():
    # a (k, 1) layout would be summed as one contiguous run, pairwise,
    # which reorders more than eight terms; a 1 x 1 matrix built as CSR
    # with repeated column indices has such a row
    rng = np.random.default_rng(17)
    k = 40
    data = (rng.standard_normal(k) + 1j * rng.standard_normal(k)) * 10.0 ** rng.integers(-8, 8, k)
    m = SparseMatrix(1, np.array([0, k]), np.zeros(k, dtype=np.int64), data)
    x = np.array([0.75 - 1.25j])
    assert_same_bits(m.matvec(x), scatter_add(m, x))
    assert m._slot_data is None


def test_padded_slot_turns_an_infinite_entry_of_x_into_nan():
    # row 1 lacks column 1 and is one entry shorter than the others; its
    # padded slot reads x_1
    a = np.arange(1.0, 17.0).reshape(4, 4)
    a[1, 1] = 0.0
    m = SparseMatrix.from_dense(a)
    assert m._slot_data is not None
    x = np.array([1.0, np.inf, 1.0, 1.0], dtype=np.complex128)
    with np.errstate(invalid="ignore"):
        y, ref = m.matvec(x), scatter_add(m, x)
    assert_same_bits(y[[0, 2, 3]], ref[[0, 2, 3]])
    assert ref[1] == 5.0 + 7.0 + 8.0 and np.isnan(y[1].real)


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
    calls = []

    def apply(x):
        calls.append(x)
        return x

    op = LinearOperator(n=2, symmetry=SymmetryClass.COMPLEX_SYMMETRIC, apply=apply)
    op(np.ones(2))
    assert len(calls) == 1
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


def test_probe_of_an_empty_operator_is_zero():
    calls = []

    def apply(x):
        calls.append(x)
        return x

    for cls in SymmetryClass:
        assert probe_symmetry(LinearOperator(0, cls, apply)) == 0.0
    assert calls == []


# --- fast paths, pinned bit for bit against the general code they replace

def _bits(a):
    a = np.asarray(a)
    return a.dtype.str, a.shape, a.tobytes()


# an entry's magnitude regime: ordinary, subnormal, or near the overflow
# threshold, where a sum of squares can overflow
_REGIMES = {"normal": (-30, 30), "subnormal": (-1074, -1023), "huge": (500, 511)}
_ENTRY = st.tuples(st.floats(-1.0, 1.0), st.sampled_from(sorted(_REGIMES)),
                   st.integers(0, 2**16))


def _entries(drawn):
    out = []
    for m, regime, k in drawn:
        lo, hi = _REGIMES[regime]
        out.append(np.ldexp(m, lo + k % (hi - lo + 1)))
    return np.array(out, dtype=np.float64)


@given(st.lists(_ENTRY, max_size=24), st.lists(_ENTRY, max_size=24), st.booleans())
@seed(2026)
@settings(max_examples=300, deadline=None)
def test_norm2_is_numpys_norm_bit_for_bit(re, im, is_complex):
    # wherever np.linalg.norm neither under- nor overflows to 0 or Inf,
    # norm2 takes no rescue and must return its bits
    re, im = _entries(re), _entries(im)
    x = re
    if is_complex:
        n = max(re.size, im.size)
        x = np.zeros(n, dtype=np.complex128)
        x.real[:re.size], x.imag[:im.size] = re, im
    with np.errstate(over="ignore"):
        ref = float(np.linalg.norm(x))
        got = norm2(x)
    if 0.0 < ref < np.inf:
        assert got == ref
    elif not x.any():
        assert got == 0.0
    else:
        assert 0.0 < got < np.inf        # the rescue


def test_norm2_is_numpys_norm_on_every_layout():
    rng = np.random.default_rng(20)
    z = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    cases = [z, z[::3], z.real, z.imag[1::2], z.reshape(8, 8), z.reshape(8, 8).T,
             list(z[:5]), z.astype(np.complex64), z.real.astype(np.float32),
             np.arange(7), z.astype(">c16")]
    for x in cases:
        assert norm2(x) == float(np.linalg.norm(x))


def _coo_twin(a):
    """from_coo on the nonzero entries of the dense array a."""
    a = np.asarray(a, dtype=np.complex128)
    rows, cols = np.nonzero(a)
    return SparseMatrix.from_coo(a.shape[0], rows, cols, a[rows, cols])


def _scattered_slots(m):
    """The slot-major pair scattered entry by entry from m's CSR arrays:
    entry j of row i at [j, i], a padded slot 0 at the row's column."""
    counts = np.diff(m.indptr)
    k = int(counts.max(initial=0))
    rows = np.repeat(np.arange(m.n), counts)
    slot = np.arange(m.nnz) - m.indptr[rows]
    indices = np.empty((k, m.n), dtype=np.int64)
    indices[:] = np.arange(m.n)
    indices[slot, rows] = m.indices
    data = np.zeros((k, m.n), dtype=np.complex128)
    data[slot, rows] = m.data
    return indices, data


def _dense_cases():
    rng = np.random.default_rng(21)
    full = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
    zero_diagonal = full.copy()
    np.fill_diagonal(zero_diagonal, 0.0)
    signed = full.copy()
    signed[::2, 1::3] = complex(-0.0, -0.0)          # a zero, not stored
    signed[1, :4] = complex(-0.0, 2.0)               # stored, real part -0.0
    signed[3, 4] = complex(1.5, -0.0)
    nan = full.copy()
    nan[2, 5], nan[0, 0], nan[4, 1] = complex(np.nan, 0.0), complex(0.0, np.nan), np.inf
    padded = full.copy()
    padded[rng.random((7, 7)) < 0.15] = 0.0          # rows of unequal length
    holes = full.copy()
    holes[3] = 0.0                                   # an empty row, padded to k
    holes[:, 5] = 0.0
    skew = np.triu(rng.standard_normal((6, 6)), 1)
    return {
        "full": full,
        "zero diagonal": zero_diagonal,
        "signed zeros": signed,
        "nan and inf": nan,
        "padded": padded,
        "empty row": holes,
        "real": rng.standard_normal((6, 6)),
        "real skew": skew - skew.T,
        "fortran order": np.asfortranarray(full),
        "n = 0": np.zeros((0, 0)),
        "n = 1": np.array([[2.5 - 1.0j]]),
        "n = 1 zero": np.zeros((1, 1)),
        "all zero": np.zeros((4, 4)),
    }


@pytest.mark.parametrize("name", sorted(_dense_cases()))
def test_from_dense_builds_the_arrays_of_from_coo(name):
    a = _dense_cases()[name]
    got, ref = SparseMatrix.from_dense(a), _coo_twin(a)
    assert got.n == ref.n
    for field in ("indptr", "indices", "data", "_rows"):
        assert _bits(getattr(got, field)) == _bits(getattr(ref, field)), field
    assert (got._slot_data is None) == (ref._slot_data is None)
    if ref._slot_data is not None:
        # rows of equal length take the transposed CSR arrays, the others
        # the scatter; both must give the entry-by-entry layout
        for field, want in zip(("_slot_indices", "_slot_data"), _scattered_slots(ref)):
            assert _bits(getattr(got, field)) == _bits(getattr(ref, field)), field
            assert _bits(getattr(got, field)) == _bits(want), field
            assert getattr(got, field).flags.c_contiguous
    assert got._gather_first == ref._gather_first
    assert _bits(got.diagonal()) == _bits(ref.diagonal())
    assert _bits(got.to_dense()) == _bits(ref.to_dense())
    x = random_x(np.random.default_rng(22), got.n)
    with np.errstate(invalid="ignore"):
        assert_same_bits(got.matvec(x), ref.matvec(x))


def test_from_dense_keeps_the_slot_layout_for_a_zero_diagonal():
    # the skew suites' matrices: every row one entry short of n, no padding
    a = _dense_cases()["zero diagonal"]
    m = SparseMatrix.from_dense(a)
    assert m._slot_data.shape == (6, 7)
    assert m._slot_indices[:, 0].tolist() == [1, 2, 3, 4, 5, 6]
    assert m._slot_indices[:, 6].tolist() == [0, 1, 2, 3, 4, 5]


def _recording_operator(n, out):
    return LinearOperator(n, SymmetryClass.HERMITIAN, lambda x: out)


def test_operator_call_converts_what_is_not_a_complex_vector():
    z = np.array([1.0 + 2.0j, -3.0, 0.5j, 4.0, 5.0, -6.0j])
    cases = {
        "list": ([1.0, 2.0, 3.0], np.array([1.0, 2.0, 3.0], dtype=np.complex128)),
        "real array": (np.array([1.0, -2.0, 3.0]), np.array([1.0, -2.0, 3.0], dtype=np.complex128)),
        "(n, 1) array": (z[:3].reshape(3, 1), z[:3]),
        "strided view": (z[::2], z[::2]),
        "big endian": (z[:3].astype(">c16"), z[:3]),
    }
    for name, (out, want) in cases.items():
        y = _recording_operator(3, out)(np.zeros(3))
        assert y.dtype == np.complex128 and y.ndim == 1, name
        assert _bits(np.ascontiguousarray(y)) == _bits(np.ascontiguousarray(want)), name
    # a 1-d complex128 array is handed on as it is, with no copy
    y = np.ones(3, dtype=np.complex128)
    assert _recording_operator(3, y)(np.zeros(3)) is y


@pytest.mark.parametrize("out", [np.ones(4), [1.0, 2.0], np.ones((3, 2)), np.ones(6)[::3]],
                         ids=["too long", "list too short", "(3, 2)", "strided, too short"])
def test_operator_call_rejects_a_wrong_length(out):
    with pytest.raises(ValueError):
        _recording_operator(3, out)(np.zeros(3))


def test_matvec_converts_its_input_and_checks_length():
    rng = np.random.default_rng(23)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    m = SparseMatrix.from_dense(a)
    x = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    want = m.matvec(np.ascontiguousarray(x[::2]))
    for given_x in (x[::2], x[::2].reshape(5, 1), list(x[::2])):
        assert_same_bits(m.matvec(given_x), want)
    assert_same_bits(m.matvec(x[::2].real), m.matvec(x[::2].real + 0j))
    for bad in (x, x[:4], np.ones((5, 2))):
        with pytest.raises(ValueError):
            m.matvec(bad)
