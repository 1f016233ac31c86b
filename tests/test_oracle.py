import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from symkrylov.core import EPS, SymmetryClass
from symkrylov.oracle import (
    GeneratedProblem,
    SplitMix64,
    dense_qlp,
    haar_orthogonal,
    mixed_spectrum_matrix,
    numerical_rank,
    skew_hermitian_matrix,
    skew_symmetric_matrix,
    suite_problem,
    symmetric_imaginary_matrix,
    tsvd_solve,
)


def test_splitmix_reference_vectors():
    # published first outputs of splitmix64 for these seeds
    r = SplitMix64(0)
    assert [r.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    r = SplitMix64(1234567)
    assert [r.next_u64() for _ in range(3)] == [
        0x599ED017FB08FC85, 0x2C73F08458540FA5, 0x883EBCE5A3F27C77]


def test_splitmix_uniform_frozen():
    u = SplitMix64(42)
    got = [u.uniform() for _ in range(3)]
    np.testing.assert_allclose(
        got, [0.7415648787718233, 0.1599103928769201, 0.27860113025513866],
        rtol=0, atol=0)


@given(st.integers(min_value=0, max_value=2**64 - 1))
@seed(2026)
@settings(max_examples=50)
def test_splitmix_streams_deterministic(s):
    a = SplitMix64(s).uniforms(8)
    b = SplitMix64(s).uniforms(8)
    np.testing.assert_array_equal(a, b)
    assert np.all(a >= 0.0) and np.all(a < 1.0)


def scalar_draws(rng, kind, n):
    """n draws of the reference stream, one scalar call at a time."""
    draw = rng.uniform if kind == "u" else rng.gaussian
    return np.array([draw() for _ in range(n)], dtype=np.float64)


def assert_same_draws(block, scalar, calls):
    for kind, n in calls:
        got = block.uniforms(n) if kind == "u" else block.gaussians(n)
        want = scalar_draws(scalar, kind, n)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert block.state == scalar.state
        assert block._spare == scalar._spare


CALL = st.tuples(st.sampled_from("ug"),
                 st.one_of(st.integers(0, 9), st.sampled_from([257, 1000, 2601])))


@given(st.integers(min_value=0, max_value=2**64 - 1), st.lists(CALL, max_size=8))
@seed(2027)
@settings(max_examples=60, deadline=None)
def test_block_draws_match_scalar_stream(s, calls):
    # odd gaussian counts leave a spare pending for the next call
    assert_same_draws(SplitMix64(s), SplitMix64(s), calls)


def invert_finalizer(out):
    """The state whose SplitMix64 output is `out`."""
    mask = 2**64 - 1

    def unshift(z, k):
        # inverse of z ^ (z >> k): apply the shift until it runs out of bits
        y = z
        for _ in range(64 // k):
            y = z ^ (y >> k)
        return y

    z = unshift(out, 31)
    z = unshift(z * pow(0x94D049BB133111EB, -1, 2**64) & mask, 27)
    return unshift(z * pow(0xBF58476D1CE4E5B9, -1, 2**64) & mask, 30)


@pytest.mark.parametrize("pair, spare", [(0, False), (3, False), (3, True), (6, True)])
def test_gaussians_zero_u1_takes_the_redraw(pair, spare):
    # u1 of Box-Muller pair `pair` (uniform 2*pair) is exactly 0.0: the
    # scalar loop redraws it, and the block draw must do the same
    golden = 0x9E3779B97F4A7C15
    state = (invert_finalizer(0x5A5) - (2 * pair + 1) * golden) % 2**64
    probe = SplitMix64(state)
    assert [probe.uniform() for _ in range(2 * pair + 1)][-1] == 0.0
    block, scalar = SplitMix64(state), SplitMix64(state)
    if spare:
        block._spare = scalar._spare = 0.25
    assert_same_draws(block, scalar, [("g", 2 * pair + 5), ("g", 3), ("u", 2)])


def test_gaussians_have_sane_moments():
    g = SplitMix64(7).gaussians(4000)
    assert abs(g.mean()) < 0.1
    assert abs(g.std() - 1.0) < 0.1


def test_haar_is_orthogonal():
    q = haar_orthogonal(12, SplitMix64(3))
    assert q.dtype == np.float64
    assert np.linalg.norm(q.T @ q - np.eye(12)) <= 1e-13 * 12


def test_symmetric_imaginary_structure():
    a = symmetric_imaginary_matrix(14, 11, SplitMix64(5))
    np.testing.assert_array_equal(a, a.T)
    assert np.all(a.real == 0.0)
    assert numerical_rank(a) == 11
    sv = np.linalg.svd(a, compute_uv=False)
    assert sv[0] <= 1.0 + 1e-12 and sv[10] >= 1e-3 * (1 - 1e-12)


def test_mixed_spectrum_structure():
    a = mixed_spectrum_matrix(14, 12, SplitMix64(6))
    np.testing.assert_array_equal(a, a.T)
    assert numerical_rank(a) == 12
    # eigenvalues stay inside a modest ball around the imaginary spectrum
    lam_top = np.linalg.norm(np.imag(a), 2)
    eigs = np.linalg.eigvals(a)
    assert np.max(np.abs(eigs)) <= 1.6 * lam_top


def test_mixed_all_zero_rank():
    a = mixed_spectrum_matrix(6, 0, SplitMix64(8))
    assert np.all(a == 0.0)
    assert numerical_rank(a) == 0


def test_skew_symmetric_structure():
    s = skew_symmetric_matrix(9, SplitMix64(9))
    np.testing.assert_array_equal(s, -s.T)
    assert np.all(np.diagonal(s) == 0.0)
    # odd order forces nullity one
    assert numerical_rank(s) == 8


def test_skew_hermitian_structure():
    t = skew_hermitian_matrix(8, SplitMix64(10))
    np.testing.assert_array_equal(t, -t.conj().T)
    assert np.all(t[-1, :] == 0.0) and np.all(t[:, -1] == 0.0)
    it = 1j * t
    np.testing.assert_allclose(it, it.conj().T, atol=0)
    assert numerical_rank(t) < 8


def test_numerical_rank_oracles():
    assert numerical_rank(np.zeros((3, 3))) == 0
    assert numerical_rank(np.diag([2.0, 1.0, 0.0])) == 2
    assert numerical_rank(np.eye(4)) == 4


def test_tsvd_diagonal_truncation():
    x = tsvd_solve(np.diag([2.0, 1.0, 0.0]), np.array([2.0, 1.0, 1.0]))
    np.testing.assert_allclose(x, [1.0, 1.0, 0.0], atol=1e-14)


def test_tsvd_tiny_pseudoinverse():
    x = tsvd_solve(1j * np.diag([1.0, 0.0]), 1j * np.ones(2))
    np.testing.assert_allclose(x, [1.0, 0.0], atol=1e-14)


def test_tsvd_minimum_length_membership():
    rng = SplitMix64(11)
    n, r = 12, 9
    a = symmetric_imaginary_matrix(n, r, rng)
    b = rng.uniforms(n).astype(np.complex128)
    x = tsvd_solve(a, b)
    u, s, vh = np.linalg.svd(a)
    null = vh.conj().T[:, r:]
    # x lies in range(A*): no component along the null space
    assert np.linalg.norm(null.conj().T @ x) <= 1e-10
    # normal equations hold
    res = a.conj().T @ (a @ x - b)
    assert np.linalg.norm(res) <= 1e-10 * max(np.linalg.norm(b), 1.0)
    # A x is the orthogonal projection of b onto range(A)
    pr = u[:, :r] @ (u[:, :r].conj().T @ b)
    assert np.linalg.norm(a @ x - pr) <= 1e-10


def test_dense_qlp_reconstructs():
    # economy form: tall input gives row-orthonormal Q and square L
    rng = SplitMix64(12)
    t = rng.uniforms(20).reshape(5, 4) + 1j * rng.uniforms(20).reshape(5, 4)
    q, low, p = dense_qlp(t)
    assert q.shape == (4, 5) and low.shape == (4, 4) and p.shape == (4, 4)
    assert np.linalg.norm(q @ q.conj().T - np.eye(4)) <= 1e-12
    assert np.linalg.norm(p @ p.conj().T - np.eye(4)) <= 1e-12
    assert np.linalg.norm(np.triu(low, 1)) <= 1e-14
    d = np.diagonal(low)
    assert np.all(np.abs(d.imag) <= 1e-14) and np.all(d.real >= -1e-14)
    assert np.linalg.norm(q @ t @ p - low) <= 1e-12 * np.linalg.norm(t)


def test_dense_qlp_diagonal_fixed_point():
    t = np.diag([3.0, 2.0, 1.0])
    _, low, _ = dense_qlp(t)
    np.testing.assert_allclose(low, t, atol=1e-13)


def test_dense_qlp_diagonal_brackets_singular_values():
    rng = SplitMix64(13)
    a = rng.uniforms(36).reshape(6, 6) + 1j * rng.uniforms(36).reshape(6, 6)
    _, low, _ = dense_qlp(a)
    sv = np.linalg.svd(a, compute_uv=False)
    d = np.abs(np.diagonal(low))
    assert d.max() <= sv[0] * (1 + 1e-12)
    assert d.min() >= sv[-1] * (1 - 1e-12)


def test_suite_problem_deterministic():
    p1 = suite_problem("cs-h", 20, 3, 99, True)
    p2 = suite_problem("cs-h", 20, 3, 99, True)
    np.testing.assert_array_equal(p1.a, p2.a)
    np.testing.assert_array_equal(p1.b, p2.b)
    assert p1.id == p2.id == "cs-h-n20-c003"


def test_suite_problem_families():
    for fam, variant in [("cs-h", SymmetryClass.COMPLEX_SYMMETRIC),
                         ("cs-m", SymmetryClass.COMPLEX_SYMMETRIC),
                         ("ss", SymmetryClass.SKEW_SYMMETRIC),
                         ("sh", SymmetryClass.SKEW_HERMITIAN)]:
        n = 21
        p = suite_problem(fam, n, 0, 7, False)
        assert isinstance(p, GeneratedProblem)
        assert p.variant is variant and p.n == n
        assert p.rank < n
        assert p.id.startswith(f"{fam}-n{n}-i")


def test_suite_problem_rank_is_numerical_rank():
    for fam, n in (("cs-h", 20), ("cs-m", 20), ("ss", 21), ("sh", 21)):
        p = suite_problem(fam, n, 2, 3, False)
        assert p.rank == numerical_rank(p.a)


def test_suite_problem_compatible_b_in_range():
    for fam in ("cs-h", "ss", "sh"):
        n = 21
        p = suite_problem(fam, n, 1, 5, True)
        u, s, _ = np.linalg.svd(p.a)
        r = numerical_rank(p.a)
        out = p.b - u[:, :r] @ (u[:, :r].conj().T @ p.b)
        assert np.linalg.norm(out) <= 1e-10 * np.linalg.norm(p.b)


def test_suite_problem_incompatible_b_off_range():
    p = suite_problem("cs-h", 21, 1, 5, False)
    u, s, _ = np.linalg.svd(p.a)
    r = numerical_rank(p.a)
    out = p.b - u[:, :r] @ (u[:, :r].conj().T @ p.b)
    assert np.linalg.norm(out) > 1e-3


def test_suite_problem_rejects_unknown_family():
    with pytest.raises(ValueError):
        suite_problem("dense", 10, 0, 1, True)


@pytest.mark.parametrize("family, least", [("cs-h", 3), ("cs-m", 3), ("ss", 1), ("sh", 1)])
def test_suite_problem_needs_the_family_least_n(family, least):
    with pytest.raises(ValueError, match=f"{family} problems need n >= {least}, got {least - 1}"):
        suite_problem(family, least - 1, 0, 1, True)
    assert suite_problem(family, least, 0, 1, False).a.shape == (least, least)


@pytest.mark.parametrize("family, n, digest", [
    ("cs-h", 50, "9029692343a10b97398c73bd71f46c86a8f422e04b47f7059449197547878d5e"),
    ("cs-m", 50, "469c7cd10083fdada63b84fa110038568e0c9e796648317f2490772c1ebb594a"),
    ("ss", 51, "a0b04435290d3c5b9872513cdacb29fa39c1ce0d42f00f955d211e43b8be8b21"),
    ("sh", 51, "34356fe77f7b5c29daf02c22ff30465da2fc59f40dcb45d3ef734a0ffb14021c"),
])
def test_each_family_keeps_its_stream(family, n, digest):
    # a least-squares b is the uniform z drawn after the matrix, so its
    # bytes pin the family's stream code and its generator's draw count;
    # that is integer arithmetic, the same on every machine, where a is
    # not (it goes through LAPACK)
    p = suite_problem(family, n, 0, 1, False)
    assert hashlib.sha256(p.b.tobytes()).hexdigest() == digest


def test_distinct_streams_give_distinct_problems():
    a = suite_problem("cs-h", 16, 0, 99, True).a
    b = suite_problem("cs-h", 16, 1, 99, True).a
    c = suite_problem("cs-h", 16, 0, 100, True).a
    assert np.linalg.norm(a - b) > 1e-3
    assert np.linalg.norm(a - c) > 1e-3
