"""Time the slot-major CSR product against the scatter-add, by padding.

    python3 scripts/slot_threshold.py [--n N ...] [--repeat R] [--seed S]

`SparseMatrix` keeps a (k, n) slot-major copy of its entries, k the
longest row, only when k*n <= SLOT_PADDING*nnz (see core.py).  The slot
product touches k*n slots where `np.add.at` touches nnz entries, so
the ratio k*n/nnz (the padding) sets which one is cheaper.  This script
builds, for each n, matrices of known padding and times both products
on the same arrays:

- a five-point stencil with a share f of its rows lengthened to ten
  entries, padding about 2/(1 + f): f = 100 % gives 1, then 1.2, 1.4,
  1.6, 1.8, and one long row gives about 2;
- at n <= 100 also random dense-ish matrices with a share of entries
  zero, as the suites' dense input can hold.

Each line gives the best of --repeat timings of each product in
microseconds, their ratio slot/scatter (below 1 the slot product is
faster) and whether `SparseMatrix` keeps the layout for that matrix.
Both products run through `SparseMatrix.matvec`, and the script checks
that they give the same bits.

Between about 10**4 and 10**5 entries, glibc may serve each product's
temporaries from fresh pages, and the page faults can make one side 3-4
times slower for a given matrix.  MALLOC_MMAP_THRESHOLD_=1000000000 and
MALLOC_TRIM_THRESHOLD_=1000000000 in the environment keep the heap, which
shows the products' own cost.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from symkrylov.core import SparseMatrix  # noqa: E402


def stencil(n: int, share_long: float, rng) -> SparseMatrix:
    """Five-point rows; a share of them gets five more random columns."""
    m = max(int(round(n ** 0.5)), 1)
    i = np.arange(n)
    rows, cols = [i], [i]
    for off in (1, -1, m, -m):
        j = i + off
        ok = (j >= 0) & (j < n)
        rows.append(i[ok])
        cols.append(j[ok])
    long_rows = np.flatnonzero(rng.random(n) < share_long)
    if long_rows.size == 0:
        long_rows = np.array([n // 2])
    for _ in range(5):
        rows.append(long_rows)
        cols.append((long_rows + rng.integers(2, n, size=long_rows.size)) % n)
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = rng.standard_normal((rows.size, 2)).view(np.complex128).reshape(-1)
    return SparseMatrix.from_coo(n, rows, cols, vals)


def dense(n: int, zero_share: float, rng) -> SparseMatrix:
    a = rng.standard_normal((n, n, 2)).view(np.complex128)[..., 0]
    a[rng.random((n, n)) < zero_share] = 0.0
    a[np.arange(n), np.arange(n)] = 1.0
    return SparseMatrix.from_dense(a)


def both_paths(mat: SparseMatrix):
    """The same matrix twice: with the slot-major copy and without it."""
    slot = SparseMatrix(mat.n, mat.indptr, mat.indices, mat.data)
    scatter = SparseMatrix(mat.n, mat.indptr, mat.indices, mat.data)
    k = int(np.diff(mat.indptr).max(initial=0))
    slot._slot_indices, slot._slot_data = slot._slot_layout(k)
    scatter._slot_indices = scatter._slot_data = None
    return slot, scatter


def best_us(fns, repeat: int):
    """Best time per call of each function, in microseconds; the
    functions take turns, so that a slow stretch of the host hits both."""
    once = []
    for fn in fns:
        t = time.perf_counter()
        fn()
        once.append(time.perf_counter() - t)
    calls = max(1, int(2e-3 / max(min(once), 1e-7)))
    best = [float("inf")] * len(fns)
    for _ in range(repeat):
        for i, fn in enumerate(fns):
            t = time.perf_counter()
            for _ in range(calls):
                fn()
            best[i] = min(best[i], (time.perf_counter() - t) / calls)
    return [b * 1e6 for b in best]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, nargs="+", default=[50, 2000, 200_000])
    parser.add_argument("--repeat", type=int, default=15)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    print(f"{'matrix':>22} {'n':>7} {'padding':>7} {'slot_us':>10} {'scatter_us':>10} "
          f"{'ratio':>6} {'layout':>8}")
    for n in args.n:
        cases = [(f"stencil, {s:.0%} long", stencil(n, s, rng))
                 for s in (1.0, 2 / 1.2 - 1, 2 / 1.4 - 1, 2 / 1.6 - 1, 2 / 1.8 - 1, 0.0)]
        if n <= 100:
            cases += [(f"dense {z:.0%} zero", dense(n, z, rng)) for z in (0.0, 0.2, 0.4)]
        for name, mat in cases:
            x = rng.standard_normal((n, 2)).view(np.complex128).reshape(-1)
            slot, scatter = both_paths(mat)
            padding = slot._slot_data.size / mat.nnz
            same = np.array_equal(slot.matvec(x).view(np.float64),
                                  scatter.matvec(x).view(np.float64))
            t_slot, t_scatter = best_us([lambda: slot.matvec(x), lambda: scatter.matvec(x)],
                                        args.repeat)
            kept = "kept" if mat._slot_data is not None else "not kept"
            print(f"{name:>22} {n:7d} {padding:7.2f} {t_slot:10.1f} {t_scatter:10.1f} "
                  f"{t_slot / t_scatter:6.2f} {kept:>8}{'' if same else '  BITS DIFFER'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
