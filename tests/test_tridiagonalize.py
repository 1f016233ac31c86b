import numpy as np
import pytest

from symkrylov import tridiagonalize as tri
from symkrylov.core import (
    EPS,
    LinearOperator,
    PreconditionerBreakdownError,
    SymmetryClass,
)
from symkrylov.oracle import (
    SplitMix64,
    skew_hermitian_matrix,
    skew_symmetric_matrix,
    symmetric_imaginary_matrix,
)

CS = SymmetryClass.COMPLEX_SYMMETRIC
SS = SymmetryClass.SKEW_SYMMETRIC
SH = SymmetryClass.SKEW_HERMITIAN
H = SymmetryClass.HERMITIAN


def run_process(a, variant, b, steps, reorthogonalize=False, shift=0.0):
    op = LinearOperator.from_matrix(a, variant)
    st = tri.process_init(b, tri.STRUCTURES[variant], reorthogonalize)
    vs = [st.v_curr]
    alphas, betas = [], [st.beta_next]
    for _ in range(steps):
        if st.v_curr is None:
            break
        if variant is CS:
            st = tri.complex_symmetric_step(op, st, shift)
        elif variant is SS:
            st = tri.skew_symmetric_step(op, st)
        elif variant is SH:
            st = tri.skew_hermitian_step(op, st)
        else:
            st = tri.hermitian_step(op, st)
        alphas.append(st.alpha)
        betas.append(st.beta_next)
        vs.append(st.v_curr)
    return alphas, betas, vs


def rect_t(alphas, betas, variant):
    k = len(alphas)
    t = np.zeros((k + 1, k), dtype=np.complex128)
    for j in range(k):
        t[j, j] = alphas[j]
        t[j + 1, j] = -betas[j + 1] if variant is SS else betas[j + 1]
        if j + 1 < k:
            t[j, j + 1] = betas[j + 1]
    return t


def test_init_normalizes():
    st = tri.process_init(1j * np.ones(2), tri.STRUCTURES[CS])
    assert abs(st.beta_next - np.sqrt(2)) <= 4 * EPS
    np.testing.assert_allclose(st.v_curr, 1j * np.ones(2) / np.sqrt(2), atol=4 * EPS)
    st = tri.process_init(np.array([1.0, 0.0]), tri.STRUCTURES[CS])
    assert st.beta_next == 1.0
    np.testing.assert_array_equal(st.v_curr, [1.0, 0.0])


def test_init_zero_b_degenerate():
    st = tri.process_init(np.zeros(3), tri.STRUCTURES[CS])
    assert st.beta_next == 0.0 and st.v_curr is None
    st = tri.process_init(np.zeros(3), tri.STRUCTURES[SH])
    assert st.beta_next == 0.0 and st.v_curr is None


def test_cs_step_tiny_diagonal():
    # i*diag(1,0) with b = i[1,1]: alpha_1 = -i/2, beta_2 = 1/2
    op = LinearOperator.from_matrix(1j * np.diag([1.0, 0.0]), CS)
    st = tri.process_init(1j * np.ones(2), tri.STRUCTURES[CS])
    st = tri.complex_symmetric_step(op, st)
    assert abs(st.alpha - (-0.5j)) <= 8 * EPS
    assert abs(st.beta_next - 0.5) <= 8 * EPS


def test_identity_terminates_after_one_step():
    op = LinearOperator.from_matrix(np.eye(3), CS)
    st = tri.process_init(np.array([1.0, 0.0, 0.0]), tri.STRUCTURES[CS])
    st = tri.complex_symmetric_step(op, st)
    assert abs(st.alpha - 1.0) <= 4 * EPS
    assert st.beta_next == 0.0 and st.v_curr is None


def test_zero_operator_terminates():
    op = LinearOperator.from_matrix(np.zeros((3, 3)), CS)
    st = tri.complex_symmetric_step(op, tri.process_init(np.array([1.0, 0.0, 0.0]), tri.STRUCTURES[CS]))
    assert st.beta_next == 0.0


def test_skew_two_by_two_trace():
    a = np.array([[0.0, 5.0], [-5.0, 0.0]])
    alphas, betas, vs = run_process(a, SS, np.array([1.0, 0.0]), 2)
    assert betas[0] == 1.0
    np.testing.assert_array_equal(vs[0], [1.0, 0.0])
    assert alphas[0] == 0.0
    assert abs(betas[1] - 5.0) <= 8 * EPS
    np.testing.assert_allclose(vs[1], [0.0, 1.0], atol=4 * EPS)


def test_skew_alpha_identically_zero():
    rng = SplitMix64(31)
    a = skew_symmetric_matrix(9, rng)
    alphas, _, _ = run_process(a, SS, rng.uniforms(9).astype(np.complex128), 8)
    assert all(al == 0.0 for al in alphas)


def test_skew_hermitian_identity_scaled():
    # A = i*I folds to -I: alpha_1 = -1, immediate termination
    op = LinearOperator.from_matrix(1j * np.eye(2), SH)
    st = tri.process_init(np.array([1.0, 0.0]), tri.STRUCTURES[SH])
    np.testing.assert_allclose(st.v_curr, [1j, 0.0], atol=4 * EPS)
    st = tri.skew_hermitian_step(op, st)
    assert abs(st.alpha - (-1.0)) <= 4 * EPS
    assert st.beta_next <= 4 * EPS


def test_skew_hermitian_alphas_real():
    rng = SplitMix64(77)
    a = skew_hermitian_matrix(11, rng)
    alphas, _, _ = run_process(a, SH, rng.uniforms(11).astype(np.complex128), 10)
    assert max(abs(al.imag) for al in alphas) <= 1e-12


def test_matrix_relation_each_class():
    rng = SplitMix64(404)
    n, k = 24, 12
    cases = [
        (symmetric_imaginary_matrix(n, n, rng), CS),
        (skew_symmetric_matrix(n, rng), SS),
        (skew_hermitian_matrix(n, rng), SH),
    ]
    herm = symmetric_imaginary_matrix(n, n, SplitMix64(405))
    cases.append((1j * herm, H))   # i times symmetric-imaginary is Hermitian
    for a, variant in cases:
        b = SplitMix64(406).uniforms(n).astype(np.complex128)
        alphas, betas, vs = run_process(a, variant, b, k)
        t = rect_t(alphas, betas, variant)
        vk = np.column_stack(vs[:k])
        vk1 = np.column_stack(vs[: k + 1])
        if variant is CS:
            lhs = a @ np.conj(vk)
        elif variant is SH:
            lhs = (1j * a) @ vk
        else:
            lhs = a @ vk
        anorm = np.linalg.norm(a, 2)
        assert np.linalg.norm(lhs - vk1 @ t) <= 1e-12 * anorm


def test_orthonormality_small_k():
    # tight spectrum keeps the plain recurrence orthogonal this long
    from symkrylov.oracle import haar_orthogonal

    rng = SplitMix64(909)
    n = 30
    q = haar_orthogonal(n, rng)
    lam = 1.0 + rng.uniforms(n)
    a = 1j * (q * lam) @ q.T
    b = rng.uniforms(n).astype(np.complex128)
    _, _, vs = run_process(a, CS, b, 25)
    v = np.column_stack(vs[:-1] if vs[-1] is None else vs)
    g = v.conj().T @ v
    assert np.linalg.norm(g - np.eye(g.shape[0])) <= 1e-8


def test_reorthogonalization_keeps_basis_tight():
    rng = SplitMix64(910)
    n = 40
    a = symmetric_imaginary_matrix(n, n, rng)
    b = rng.uniforms(n).astype(np.complex128)
    _, _, vs = run_process(a, CS, b, n - 1, reorthogonalize=True)
    v = np.column_stack([u for u in vs if u is not None])
    assert v.shape[1] == n
    g = v.conj().T @ v
    assert np.linalg.norm(g - np.eye(n)) <= 1e-13 * n


@pytest.mark.parametrize("variant", [CS, SS, SH, H])
def test_reorthogonalized_basis_block(variant):
    # 100 rows from a first block of 16 take at least two regrows
    rng = SplitMix64(917)
    n = 100
    a = {CS: lambda: symmetric_imaginary_matrix(n, n, rng),
         SS: lambda: skew_symmetric_matrix(n, rng),
         SH: lambda: skew_hermitian_matrix(n, rng),
         H: lambda: 1j * symmetric_imaginary_matrix(n, n, rng)}[variant]()
    b = rng.uniforms(n).astype(np.complex128)
    op = LinearOperator.from_matrix(a, variant)
    step = getattr(tri, f"{variant.name.lower()}_step")
    st = tri.process_init(b, tri.STRUCTURES[variant], reorthogonalize=True)
    kept, snapshots = [st.v_curr], [st.v_curr.copy()]
    blocks = {id(st.basis.rows().base)}
    for _ in range(n - 1):
        st = step(op, st)
        kept.append(st.v_curr)
        snapshots.append(st.v_curr.copy())
        blocks.add(id(st.basis.rows().base))
    assert len(blocks) >= 3
    for v, snap in zip(kept, snapshots):
        np.testing.assert_array_equal(v, snap)
    rows = st.basis.rows()
    assert rows.shape == (n, n) and rows.flags.c_contiguous
    assert np.shares_memory(rows, st.v_curr) and np.shares_memory(rows, st.v_prev)
    g = rows.conj() @ rows.T
    assert np.linalg.norm(g - np.eye(n)) <= 1e-13 * n


def test_shift_inside_matches_shifted_operator():
    rng = SplitMix64(911)
    n = 16
    a = symmetric_imaginary_matrix(n, n, rng)
    b = rng.uniforms(n).astype(np.complex128)
    sigma = 0.3 - 0.1j
    al1, be1, vs1 = run_process(a, CS, b, 8, shift=sigma)
    al2, be2, vs2 = run_process(a - sigma * np.eye(n), CS, b, 8)
    for x, y in zip(al1, al2):
        assert abs(x - y) <= 1e-12
    for x, y in zip(be1, be2):
        assert abs(x - y) <= 1e-12
    for x, y in zip(vs1, vs2):
        assert np.linalg.norm(x - y) <= 1e-10


def test_hermitian_shift_moves_only_diagonal():
    herm = 1j * symmetric_imaginary_matrix(12, 12, SplitMix64(912))
    b = SplitMix64(913).uniforms(12).astype(np.complex128)
    sigma = 0.25
    al1, be1, vs1 = run_process(herm, H, b, 6)
    al2, be2, vs2 = run_process(herm - sigma * np.eye(12), H, b, 6)
    for x, y in zip(al1, al2):
        assert abs((x - sigma) - y) <= 1e-10
    for x, y in zip(be1, be2):
        assert abs(x - y) <= 1e-10
    for x, y in zip(vs1, vs2):
        assert np.linalg.norm(x - y) <= 1e-8


def test_termination_rank_reveals_compatibility():
    rng = SplitMix64(914)
    n = 20
    a = symmetric_imaginary_matrix(n, n - 3, rng)
    z = rng.uniforms(n).astype(np.complex128)
    for b, singular in ((a @ z, False), (z, True)):
        alphas, betas, _ = run_process(a, CS, b, 2 * n, reorthogonalize=True)
        # walk to the first terminal beta
        ell = len(alphas)
        for j in range(1, len(betas)):
            if betas[j] <= n * EPS * np.linalg.norm(a, 2) * 10:
                ell = j
                break
        t = np.zeros((ell, ell), dtype=np.complex128)
        for j in range(ell):
            t[j, j] = alphas[j]
            if j + 1 < ell:
                t[j + 1, j] = betas[j + 1]
                t[j, j + 1] = betas[j + 1]
        sv = np.linalg.svd(t, compute_uv=False)
        if singular:
            assert sv[-1] <= 1e-8 * sv[0]
        else:
            assert sv[-1] > 1e-8 * sv[0]


def test_precond_identity_first_steps_match_plain():
    rng = SplitMix64(915)
    n = 18
    a = symmetric_imaginary_matrix(n, n, rng)
    b = rng.uniforms(n).astype(np.complex128)
    op = LinearOperator.from_matrix(a, CS)
    ident = lambda z: z.copy()
    stp = tri.process_init(b, tri.STRUCTURES[CS])
    stq = tri.precond_init(b, ident, tri.STRUCTURES[CS])
    assert abs(stp.beta_next - stq.beta_next) <= 4 * EPS
    # drift amplifies through the recurrence, so only early steps are
    # compared; one step stays at a few eps
    for k, (tol_s, tol_v) in enumerate([(4 * EPS, 1e-14), (16 * EPS, 1e-13),
                                        (64 * EPS, 1e-12)]):
        stp = tri.complex_symmetric_step(op, stp)
        stq = tri.precond_step(op, stq, ident, tri.STRUCTURES[CS])
        assert abs(stp.alpha - stq.alpha) <= tol_s
        assert abs(stp.beta_next - stq.beta_next) <= tol_s
        v_pre = stq.z_curr / stq.beta_next
        assert np.linalg.norm(stp.v_curr - v_pre) <= tol_v


def test_precond_identity_skew_step():
    rng = SplitMix64(916)
    a = skew_symmetric_matrix(9, rng)
    b = rng.uniforms(9).astype(np.complex128)
    op = LinearOperator.from_matrix(a, SS)
    ident = lambda z: z.copy()
    stp = tri.skew_symmetric_step(op, tri.process_init(b, tri.STRUCTURES[SS]))
    stq = tri.precond_step(op, tri.precond_init(b, ident, tri.STRUCTURES[SS]), ident,
                           tri.STRUCTURES[SS])
    assert abs(stp.beta_next - stq.beta_next) <= 16 * EPS
    # plain negates the stored vector; the z recurrence carries the sign
    np.testing.assert_allclose(stq.z_curr / stq.beta_next, stp.v_curr,
                               atol=1e-13)


def test_precond_init_skew_hermitian_rotates_b():
    b = np.array([1.0, 2.0])
    st = tri.precond_init(b, lambda z: z.copy(), tri.STRUCTURES[SH])
    np.testing.assert_array_equal(st.z_curr, 1j * b)


def test_precond_diagonal_quarter():
    # M = 4I on A = I, b = e1: beta_1 = sqrt(b' M^{-1} b) = 1/2, and the
    # process sees the preconditioned operator M^{-1/2} A M^{-1/2} = I/4
    b = np.array([1.0, 0.0])
    st = tri.precond_init(b, lambda z: z / 4.0, tri.STRUCTURES[CS])
    assert abs(st.beta_next - 0.5) <= 4 * EPS
    op = LinearOperator.from_matrix(np.eye(2), CS)
    st = tri.precond_step(op, st, lambda z: z / 4.0, tri.STRUCTURES[CS])
    assert abs(st.alpha - 0.25) <= 8 * EPS
    assert st.beta_next <= 8 * EPS


def test_precond_breakdown_on_singular_m():
    b = np.array([1.0, 1.0])
    with pytest.raises(PreconditionerBreakdownError):
        tri.precond_init(b, lambda z: np.zeros_like(z), tri.STRUCTURES[CS])


def test_precond_breakdown_on_indefinite_m():
    b = np.array([1.0, 1.0])
    with pytest.raises(PreconditionerBreakdownError):
        tri.precond_init(b, lambda z: -z, tri.STRUCTURES[CS])
