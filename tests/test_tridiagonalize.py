import dataclasses

import numpy as np
import pytest

from symkrylov import Custom, SolverConfig, StopReason, solve
from symkrylov import solver
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


def rotated(a, variant):
    """rot*A, the operator the solver hands a process of the class."""
    op, row = LinearOperator.from_matrix(a, variant), tri.STRUCTURES[variant]
    return lambda x: row.rotate(op(x))


def step(op, st, variant):
    """One plain step of the class, applied to conj(v_k) on a conj row
    and to v_k otherwise, as the solver applies it."""
    w = np.conj(st.v_curr) if tri.STRUCTURES[variant].conj else st.v_curr
    return getattr(tri, f"{variant.name.lower()}_step")(op, st, w)


def run_process(a, variant, b, steps, reorthogonalize=False):
    # the process runs on rot*A from rot*b, as the solver hands them over
    op, row = rotated(a, variant), tri.STRUCTURES[variant]
    st = tri.process_init(row.rotate(b), reorthogonalize)
    vs = [st.v_curr]
    alphas, betas = [], [st.beta_next]
    for _ in range(steps):
        if st.v_curr is None:
            break
        st = step(op, st, variant)
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
    st = tri.process_init(1j * np.ones(2))
    assert abs(st.beta_next - np.sqrt(2)) <= 4 * EPS
    np.testing.assert_allclose(st.v_curr, 1j * np.ones(2) / np.sqrt(2), atol=4 * EPS)
    st = tri.process_init(np.array([1.0, 0.0]))
    assert st.beta_next == 1.0
    np.testing.assert_array_equal(st.v_curr, [1.0, 0.0])


def test_init_zero_b_degenerate():
    st = tri.process_init(np.zeros(3))
    assert st.beta_next == 0.0 and st.v_curr is None


def test_cs_step_tiny_diagonal():
    # i*diag(1,0) with b = i[1,1]: alpha_1 = -i/2, beta_2 = 1/2
    op = LinearOperator.from_matrix(1j * np.diag([1.0, 0.0]), CS)
    st = step(op, tri.process_init(1j * np.ones(2)), CS)
    assert abs(st.alpha - (-0.5j)) <= 8 * EPS
    assert abs(st.beta_next - 0.5) <= 8 * EPS


def test_identity_terminates_after_one_step():
    op = LinearOperator.from_matrix(np.eye(3), CS)
    st = step(op, tri.process_init(np.array([1.0, 0.0, 0.0])), CS)
    assert abs(st.alpha - 1.0) <= 4 * EPS
    assert st.beta_next == 0.0 and st.v_curr is None


def test_zero_operator_terminates():
    op = LinearOperator.from_matrix(np.zeros((3, 3)), CS)
    st = step(op, tri.process_init(np.array([1.0, 0.0, 0.0])), CS)
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
    op = rotated(1j * np.eye(2), SH)
    st = tri.process_init(1j * np.array([1.0, 0.0]))
    np.testing.assert_allclose(st.v_curr, [1j, 0.0], atol=4 * EPS)
    st = step(op, st, SH)
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


@pytest.mark.parametrize("skew_hermitian", [False, True], ids=["real-skew", "skew-hermitian"])
def test_reorthogonalized_skew_row_keeps_the_recurrence(skew_hermitian):
    # on complex data the skew row's basis is orthonormal under Re(u^H w)
    # only; CGS2 in that inner product keeps A V_k = V_{k+1} T
    rng = np.random.default_rng(31)
    n = 9
    r = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a = r - r.conj().T if skew_hermitian else r.real - r.real.T
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    k = n - 1
    alphas, betas, vs = run_process(a, SS, b, k, reorthogonalize=True)
    assert len(alphas) == k and alphas == [0.0] * k
    vk1 = np.column_stack(vs)
    assert np.linalg.norm((vk1.conj().T @ vk1).real - np.eye(k + 1)) <= 1e-13 * k
    resid = a @ vk1[:, :k] - vk1 @ rect_t(alphas, betas, SS)
    assert np.linalg.norm(resid) <= 1e-12 * np.linalg.norm(a, 2)


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
    op, row = rotated(a, variant), tri.STRUCTURES[variant]
    st = tri.process_init(row.rotate(b), reorthogonalize=True)
    kept, snapshots = [st.v_curr], [st.v_curr.copy()]
    blocks = {id(st.basis.rows().base)}
    for _ in range(n - 1):
        st = step(op, st, variant)
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
    stp = tri.process_init(b)
    stq = tri.precond_init(b, ident, tri.STRUCTURES[CS])
    assert abs(stp.beta_next - stq.beta_next) <= 4 * EPS
    # drift amplifies through the recurrence, so only early steps are
    # compared; one step stays at a few eps
    for k, (tol_s, tol_v) in enumerate([(4 * EPS, 1e-14), (16 * EPS, 1e-13),
                                        (64 * EPS, 1e-12)]):
        stp = step(op, stp, CS)
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
    stp = step(op, tri.process_init(b), SS)
    stq = tri.precond_step(op, tri.precond_init(b, ident, tri.STRUCTURES[SS]), ident,
                           tri.STRUCTURES[SS])
    assert abs(stp.beta_next - stq.beta_next) <= 16 * EPS
    # plain negates the stored vector; the z recurrence carries the sign
    np.testing.assert_allclose(stq.z_curr / stq.beta_next, stp.v_curr,
                               atol=1e-13)


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


ROWS = [pytest.param(tri.STRUCTURES[v], id=v.value) for v in (CS, SS, SH, H)]


@pytest.mark.parametrize("row", ROWS)
def test_precond_pair_zero_z_gives_beta_zero(row):
    z = np.zeros(4, dtype=np.complex128)
    for m_solve in (lambda v: v / 2.0, lambda v: -v):
        q, beta = tri._precond_pair(z, m_solve, row)
        assert beta == 0.0
        np.testing.assert_array_equal(q, np.zeros(4))


@pytest.mark.parametrize("row", ROWS)
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, 1j * np.inf, complex(1.0, np.nan)])
def test_precond_pair_non_finite_z_gives_nan(row, bad):
    z = np.array([1.0, 2.0 + 1.0j, bad, 0.5], dtype=np.complex128)
    # M = I hands z's Inf on to q, v / 2 puts a NaN beside it, and the
    # last M^{-1} zeroes NaN and Inf, so that only z shows them
    with np.errstate(invalid="ignore"):
        for m_solve in (np.copy, lambda v: v / 2.0,
                        lambda v: np.where(np.isfinite(v), v, 0.0)):
            assert np.isnan(tri._precond_pair(z, m_solve, row)[1])


@pytest.mark.parametrize("row", ROWS)
def test_precond_pair_breakdowns(row):
    z = np.array([1.0, 2.0 + 1.0j, -0.5j], dtype=np.complex128)
    assert tri._precond_pair(z, lambda v: v / 2.0, row)[1] > 0.0
    # indefinite M: q'z is negative real
    with pytest.raises(PreconditionerBreakdownError):
        tri._precond_pair(z, lambda v: -v, row)
    # M^{-1} = (1 + i) I: q'z is (1 - i) or, for a conj row, (1 + i)
    # times a positive real, an imaginary part as large as the real one
    with pytest.raises(PreconditionerBreakdownError):
        tri._precond_pair(z, lambda v: (1.0 + 1.0j) * v, row)


@pytest.mark.parametrize("row", ROWS)
def test_precond_pair_breakdown_when_the_modulus_overflows(row):
    # q'z = 2.25 * (0.7e308 + 0.7e308j) is finite, |q'z| is not
    z = np.full(4, 0.75, dtype=np.complex128)
    with pytest.raises(PreconditionerBreakdownError):
        tri._precond_pair(z, lambda v: (0.7e308 + 0.7e308j) * v, row)


@pytest.mark.parametrize("variant", [CS, SS, SH, H])
def test_init_vector_is_rotated_b_over_beta(variant):
    # the first basis vector of the process the solver starts is
    # rot*b / beta_1 bit for bit, across the range
    rng = np.random.default_rng(11)
    b = (rng.standard_normal(64) * 2.0 ** rng.integers(-40, 40, 64)
         + 1j * rng.standard_normal(64) * 2.0 ** rng.integers(-40, 40, 64))
    b[::7] = 0.0
    row = tri.STRUCTURES[variant]
    driver = solver._Driver(LinearOperator(64, variant, lambda x: x), 0j, None)
    driver.start(b.copy(), reorthogonalize=False)
    np.testing.assert_array_equal(driver.st.v_curr, row.rotate(b) / driver.beta1)


# precond_step's chunked sweep against the whole-vector expression it
# replaces, kept here as the reference: same ufunc calls, operand order
# and scalars, so z_{k+1} and alpha must agree bit for bit

def unblocked_precond_z(op, st, structure):
    """(alpha, z_{k+1}) of one preconditioned step by five whole-vector
    passes, each a new array; reads st and writes nothing of it."""
    z, q, beta, z_prev = st.z_curr, st.q_curr, st.beta_next, st.z_prev
    p = op(q)
    if structure.skew:
        alpha = 0.0
        t = np.multiply(p, -1.0 / beta)
    else:
        alpha = complex(np.dot(q, p) if structure.conj else np.vdot(q, p)) / beta**2
        t = np.subtract(np.multiply(p, 1.0 / beta), np.multiply(alpha / beta, z))
    if z_prev is None:
        return alpha, t
    scaled = np.multiply(beta / st.beta_curr, z_prev)
    return alpha, (np.add if structure.skew else np.subtract)(t, scaled)


def sweep_operator(kind, n, rng):
    """A complex diagonal operator, the identity that hands back its
    argument, or a diagonal one that returns one cached array."""
    c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    if kind == "diagonal":
        return lambda x: c * x
    if kind == "argument":
        return lambda x: x
    cache = np.empty(n, dtype=np.complex128)

    def cached(x):
        np.multiply(c, x, out=cache)
        return cache
    return cached


SWEEP_SIZES = [1, tri._CHUNK - 1, tri._CHUNK, tri._CHUNK + 1, 3 * tri._CHUNK + 5]


@pytest.mark.parametrize("kind", ["diagonal", "argument", "cached"])
@pytest.mark.parametrize("n", SWEEP_SIZES)
@pytest.mark.parametrize("shift", [0.0, 0.3 - 0.7j], ids=["unshifted", "shifted"])
@pytest.mark.parametrize("variant", [CS, SS, SH, H])
def test_precond_sweep_matches_whole_vector_passes(variant, shift, n, kind):
    rng = np.random.default_rng([n, len(kind)])
    row = tri.STRUCTURES[variant]
    a = LinearOperator(n, variant, sweep_operator(kind, n, rng))
    # the solver hands a preconditioned step rot*A, less shift*I when
    # shifted, as a closure, and the process rot*b
    rot_a = lambda x: row.rotate(a(x))
    op = (lambda x: rot_a(x) - shift * x) if shift else rot_a
    d = 0.5 + rng.uniform(size=n)
    # M^{-1} = I hands z back as q on a row without conj
    m_solve = (lambda v: v) if kind == "argument" else (lambda v: v / d)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    st = tri.precond_init(row.rotate(b), m_solve, row)
    for k in range(4):
        # the reference reads copies, since the step writes z_{k-1} over
        copies = {f: None if getattr(st, f) is None else getattr(st, f).copy()
                  for f in ("z_prev", "z_curr", "q_curr")}
        alpha, z_next = unblocked_precond_z(op, dataclasses.replace(st, **copies), row)
        st = tri.precond_step(op, st, m_solve, row)
        assert np.complex128(st.alpha).tobytes() == np.complex128(alpha).tobytes()
        assert st.z_curr.tobytes() == z_next.tobytes()
        assert st.z_prev.tobytes() == copies["z_curr"].tobytes()
        if k == 0:
            # the first step has no z_{k-1} to write over
            assert not np.shares_memory(st.z_curr, st.z_prev)


def test_preconditioned_empty_solve_takes_no_step():
    # an empty b gives beta_1 = 0, so the sweep never runs at n = 0 (its
    # chunk is a constant, so its range could not have step 0 either)
    op = LinearOperator(0, H, lambda x: x)
    r = solve(op, np.zeros(0), config=SolverConfig(maxit=3), preconditioner=Custom(lambda v: v))
    assert r.reason is StopReason.BetaZero_xZero and r.iterations == 0
