"""Dense reference solvers and reproducible problem generators.

The reference route goes through numpy's SVD/QR factorizations and
never touches the iterative engine, so the two can check each other.
Problem generation uses a self-contained SplitMix64 stream to stay
bit-reproducible across numpy versions.  Its block draws (`uniforms`,
`gaussians`) give the bits of the scalar stream: numpy does only the
correctly rounded steps (wrapping integer arithmetic, `sqrt`, `*`, `-`),
while `log`, `cos`, `sin` and `10.0 ** x` are libm calls made per
element from Python, since numpy's own versions may round differently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np

from .core import EPS, SymmetryClass

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """64-bit SplitMix generator (Steele et al. constants).

    uniform() maps the top 53 bits onto [0, 1); gaussians come from
    Box-Muller on a pair of uniforms.  The scalar methods define the
    stream; uniforms(n) and gaussians(n) draw a block of it at once,
    bit for bit, and leave the same state behind.
    """

    def __init__(self, seed: int):
        self.state = seed & _MASK
        self._spare: Optional[float] = None

    def next_u64(self) -> int:
        self.state = (self.state + _GOLDEN) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def uniform(self) -> float:
        return (self.next_u64() >> 11) * 2.0**-53

    def uniforms(self, n: int) -> np.ndarray:
        # state k of the block is state + k*golden, in wrapping uint64
        z = np.uint64(self.state) + np.uint64(_GOLDEN) * np.arange(1, n + 1, dtype=np.uint64)
        if n:
            self.state = int(z[-1])
        z ^= z >> np.uint64(30)
        z *= np.uint64(_MIX1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def gaussian(self) -> float:
        if self._spare is not None:
            g, self._spare = self._spare, None
            return g
        u1 = self.uniform()
        while u1 == 0.0:
            u1 = self.uniform()
        u2 = self.uniform()
        r = math.sqrt(-2.0 * math.log(u1))
        self._spare = r * math.sin(2.0 * math.pi * u2)
        return r * math.cos(2.0 * math.pi * u2)

    def gaussians(self, n: int) -> np.ndarray:
        out = np.empty(n, dtype=np.float64)
        start = 0
        if n and self._spare is not None:
            out[0], self._spare = self._spare, None
            start = 1
        pairs = (n - start + 1) // 2
        state = self.state
        u = self.uniforms(2 * pairs)
        u1, u2 = u[0::2], u[1::2]
        if np.any(u1 == 0.0):
            # the scalar loop redraws a zero u1, which shifts the pairs
            self.state = state
            out[start:] = [self.gaussian() for _ in range(n - start)]
            return out
        r = np.sqrt(-2.0 * np.array([math.log(v) for v in u1.tolist()]))
        theta = (2.0 * math.pi * u2).tolist()
        g = np.empty(2 * pairs, dtype=np.float64)
        g[0::2] = r * np.array([math.cos(t) for t in theta])
        g[1::2] = r * np.array([math.sin(t) for t in theta])
        out[start:] = g[:n - start]
        if n - start < 2 * pairs:
            self._spare = float(g[-1])
        return out


def haar_orthogonal(n: int, rng: SplitMix64) -> np.ndarray:
    """Random real orthogonal matrix; sign-fixing the R diagonal makes
    the distribution Haar and the output deterministic in the stream."""
    g = rng.gaussians(n * n).reshape(n, n)
    q, r = np.linalg.qr(g)
    d = np.sign(np.diagonal(r))
    d[d == 0.0] = 1.0
    return q * d


def _spectrum(n: int, rank: int, rng: SplitMix64) -> np.ndarray:
    """rank nonzero eigenvalues, magnitudes log-uniform in [1e-3, 1]."""
    lam = np.zeros(n, dtype=np.float64)
    u = rng.uniforms(2 * rank)
    mag = np.array([10.0 ** x for x in (-3.0 * u[0::2]).tolist()])
    lam[:rank] = np.where(u[1::2] < 0.5, mag, -mag)
    return lam


def symmetric_imaginary_matrix(n: int, rank: int, rng: SplitMix64) -> np.ndarray:
    """i times a rank-deficient real symmetric matrix: complex symmetric."""
    q = haar_orthogonal(n, rng)
    lam = _spectrum(n, rank, rng)
    a = (q * lam) @ q.T
    a = 0.5 * (a + a.T)
    return 1j * a


def mixed_spectrum_matrix(n: int, rank: int, rng: SplitMix64) -> np.ndarray:
    """Complex symmetric Q (D + i Lambda) Q^T with D random real on the
    support of Lambda; eigenvalues land in a ball of radius sqrt(2)
    times the largest |lambda|."""
    q = haar_orthogonal(n, rng)
    lam = _spectrum(n, rank, rng)
    top = float(np.max(np.abs(lam))) if rank else 0.0
    d = np.zeros(n, dtype=np.float64)
    support = np.flatnonzero(lam)
    d[support] = (2.0 * rng.uniforms(support.size) - 1.0) * top
    a = (q * (d + 1j * lam)) @ q.T
    return 0.5 * (a + a.T)


def skew_symmetric_matrix(n: int, rng: SplitMix64) -> np.ndarray:
    """Real skew symmetric from a uniform square; odd n makes it
    singular with nullity one."""
    base = rng.uniforms(n * n).reshape(n, n)
    lower = np.tril(base)
    return lower - lower.T


def skew_hermitian_matrix(n: int, rng: SplitMix64) -> np.ndarray:
    """(1+i) L - (1-i) L^T with the last row and column of the base
    zeroed; that zeroes the matrix's last row and column too, forcing a
    null vector regardless of parity."""
    base = rng.uniforms(n * n).reshape(n, n)
    base[-1, :] = 0.0
    base[:, -1] = 0.0
    lower = np.tril(base, -1)
    s = lower - lower.T
    b = lower + lower.T
    return s + 1j * b


def _above_noise(s: np.ndarray, n: int) -> np.ndarray:
    """Which of the descending singular values s of an order-n matrix
    count toward its rank: those above n*eps*s[0], the noise scale the
    iterative side uses for its rank decisions too."""
    return s > n * EPS * s[:1]


def numerical_rank(a: np.ndarray) -> int:
    s = np.linalg.svd(a, compute_uv=False)
    return int(np.count_nonzero(_above_noise(s, a.shape[0])))


def tsvd_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimum-length least-squares solution by truncated SVD: the
    singular values that numerical_rank does not count are treated as
    zero."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128).reshape(-1)
    u, s, vh = np.linalg.svd(a)
    ub = u.conj().T @ b
    y = np.zeros_like(ub)
    keep = _above_noise(s, a.shape[0])
    y[keep] = ub[keep] / s[keep]
    return vh.conj().T @ y


def dense_qlp(a: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Two-sided orthogonal factorization Q a P = L, L lower triangular
    with real nonnegative diagonal.  Built from two QR passes."""
    a = np.asarray(a, dtype=np.complex128)
    q1, r1 = np.linalg.qr(a)
    q2, r2 = np.linalg.qr(r1.conj().T)
    low = r2.conj().T
    diag = np.diagonal(low).copy()
    mags = np.abs(diag)
    phase = np.where(mags > 0.0, diag / np.where(mags > 0.0, mags, 1.0), 1.0)
    low = low * np.conj(phase)[np.newaxis, :]
    p = q2 * np.conj(phase)[np.newaxis, :]
    return q1.conj().T, low, p


@dataclass(eq=False)
class GeneratedProblem:
    """One suite problem: operator data plus the right-hand side."""

    id: str
    n: int
    variant: SymmetryClass
    a: np.ndarray
    b: np.ndarray
    compatible: bool

    @cached_property
    def rank(self) -> int:
        """numerical_rank(a), computed on first read."""
        return numerical_rank(self.a)


class Family(NamedTuple):
    """One generated suite: the code that seeds its streams, its
    symmetry class, its least n, the n of the paper's protocol and its
    matrix generator, called as matrix(n, rng)."""

    code: int
    variant: SymmetryClass
    least: int
    paper_n: int
    matrix: Callable[[int, SplitMix64], np.ndarray]


# cs families are generated at rank n-3; ss relies on odd n for its
# nullity; sh is singular by construction
FAMILIES = {
    "cs-h": Family(1, SymmetryClass.COMPLEX_SYMMETRIC, 3, 50,
                   lambda n, rng: symmetric_imaginary_matrix(n, n - 3, rng)),
    "cs-m": Family(2, SymmetryClass.COMPLEX_SYMMETRIC, 3, 50,
                   lambda n, rng: mixed_spectrum_matrix(n, n - 3, rng)),
    "ss": Family(3, SymmetryClass.SKEW_SYMMETRIC, 1, 51, skew_symmetric_matrix),
    "sh": Family(4, SymmetryClass.SKEW_HERMITIAN, 1, 51, skew_hermitian_matrix),
}


def suite_problem(family: str, n: int, index: int, seed: int,
                  compatible: bool) -> GeneratedProblem:
    """Deterministic problem index `index` of a family suite.

    The family's row of FAMILIES gives its stream code, class, least n
    and generator; an n below the least raises ValueError.  Compatible
    right-hand sides are A z with z uniform; incompatible ones are
    plain uniform.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    fam = FAMILIES[family]
    if n < fam.least:
        raise ValueError(f"{family} problems need n >= {fam.least}, got {n}")
    # one stream per seed, family, index and half
    rng = SplitMix64(seed * _GOLDEN + fam.code * 65537 + index * 2 + int(compatible))
    a = fam.matrix(n, rng)
    z = rng.uniforms(n).astype(np.complex128)
    b = a @ z if compatible else z
    kind = "c" if compatible else "i"
    return GeneratedProblem(
        id=f"{family}-n{n}-{kind}{index:03d}",
        n=n,
        variant=fam.variant,
        a=a,
        b=b,
        compatible=compatible,
    )
