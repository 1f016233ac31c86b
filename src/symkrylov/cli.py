"""Command line front end.

Two subcommands:

* solve: read a Matrix Market coordinate file, build or read a right
  hand side, run the solver, print a key: value report.  Exit code 0
  when a solution was delivered, 2 when a regularization limit stopped
  the run (condition or solution-norm bound), 3 on the iteration limit,
  4 on input problems (parse errors, a NaN option, failed structure probe,
  preconditioner breakdown).
* experiment: run a reproducible generated suite and write one CSV row
  per problem, with a pass-fraction summary on stdout;
  --reorthogonalize runs it with full reorthogonalization.

The coordinate format subset understood here: real or complex field;
general, symmetric, skew-symmetric or hermitian symmetry.  Skew files
must not carry diagonal entries; hermitian diagonals must be real.
Skew Hermitian matrices have no Matrix Market symmetry tag of their
own, so ship them as general plus --variant sh.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
import time
from dataclasses import dataclass, fields
from typing import List, Optional, TextIO, Tuple

import numpy as np

from .core import EPS, SparseMatrix, SymmetryClass, norm2
from .oracle import suite_problem, tsvd_solve
from .precond import jacobi_from_matrix
from .solver import CONVERGED_REASONS, SolverConfig, StopReason, solve

DEFAULT_SEED = 42424242

EXIT_OK = 0
EXIT_REGULARIZED = 2
EXIT_MAXIT = 3
EXIT_INPUT = 4

_FAMILY_DEFAULT_N = {"cs-h": 50, "cs-m": 50, "ss": 51, "sh": 51}


class InputError(Exception):
    """Anything wrong with files or arguments; maps to exit code 4."""


# each symmetric Matrix Market kind: its symmetry class, and how the
# entry (j, i) follows from a stored (i, j)
_MM_KINDS = {
    "symmetric": (SymmetryClass.COMPLEX_SYMMETRIC, lambda v: v),
    "skew-symmetric": (SymmetryClass.SKEW_SYMMETRIC, lambda v: -v),
    "hermitian": (SymmetryClass.HERMITIAN, complex.conjugate),
}
_MM_SYMMETRIES = ("general", *_MM_KINDS)


def _data_lines(fh: TextIO):
    """The stripped lines of fh that are neither blank nor % comments."""
    for line in fh:
        stripped = line.strip()
        if stripped and not stripped.startswith("%"):
            yield stripped


def _finite_entry(path: str, toks: List[str], line: str) -> complex:
    """complex(*toks) for one or two real tokens; InputError unless
    each parses and is finite."""
    try:
        parts = [float(tok) for tok in toks]
    except ValueError as exc:
        raise InputError(f"{path}: bad number in {line!r}") from exc
    if not all(math.isfinite(part) for part in parts):
        raise InputError(f"{path}: non-finite entry {line!r}")
    return complex(*parts)


def mm_read(path: str) -> Tuple[SparseMatrix, str]:
    """Read a coordinate Matrix Market file; returns (matrix, symmetry).

    Mirrored entries are filled in here, so the returned matrix is the
    full square operator.
    """
    with open(path, "r") as fh:
        header = fh.readline()
        parts = header.strip().split()
        if len(parts) != 5 or parts[0] != "%%MatrixMarket" or parts[1].lower() != "matrix":
            raise InputError(f"{path}: not a MatrixMarket matrix header")
        layout, field, symmetry = (p.lower() for p in parts[2:5])
        if layout != "coordinate":
            raise InputError(f"{path}: only coordinate layout is supported")
        if field not in ("real", "complex"):
            raise InputError(f"{path}: field {field!r} not supported (real or complex)")
        if symmetry not in _MM_SYMMETRIES:
            raise InputError(f"{path}: symmetry {symmetry!r} not supported")
        lines = _data_lines(fh)
        size_line = next(lines, None)
        if size_line is None:
            raise InputError(f"{path}: missing size line")
        try:
            m, n, nnz = (int(tok) for tok in size_line.split())
        except ValueError as exc:
            raise InputError(f"{path}: bad size line {size_line!r}") from exc
        if m != n:
            raise InputError(f"{path}: matrix must be square, got {m}x{n}")
        mirror = _MM_KINDS[symmetry][1] if symmetry in _MM_KINDS else None
        rows: List[int] = []
        cols: List[int] = []
        vals: List[complex] = []
        want = 3 if field == "real" else 4
        count = 0
        for line in lines:
            toks = line.split()
            if len(toks) != want:
                raise InputError(f"{path}: bad entry line {line!r}")
            try:
                i = int(toks[0]) - 1
                j = int(toks[1]) - 1
            except ValueError as exc:
                raise InputError(f"{path}: bad number in {line!r}") from exc
            v = _finite_entry(path, toks[2:], line)
            if not (0 <= i < n and 0 <= j < n):
                raise InputError(f"{path}: index out of range in {line!r}")
            if mirror is not None and i < j:
                raise InputError(
                    f"{path}: entry above the diagonal in a {symmetry} file")
            if symmetry == "skew-symmetric" and i == j:
                raise InputError(f"{path}: diagonal entry in a skew-symmetric file")
            if symmetry == "hermitian" and i == j and v.imag != 0.0:
                raise InputError(f"{path}: non-real diagonal in a hermitian file")
            rows.append(i)
            cols.append(j)
            vals.append(v)
            if mirror is not None and i != j:
                rows.append(j)
                cols.append(i)
                vals.append(mirror(v))
            count += 1
        if count != nnz:
            raise InputError(f"{path}: expected {nnz} entries, found {count}")
    return SparseMatrix.from_coo(n, rows, cols, vals), symmetry


def _fmt(v: float) -> str:
    return repr(float(v))


def mm_write(path: str, mat: SparseMatrix, symmetry: str = "general") -> None:
    """Write a coordinate file.  For the symmetric kinds only the lower
    triangle is emitted; the matrix is trusted to have the structure."""
    if symmetry not in _MM_SYMMETRIES:
        raise InputError(f"unsupported symmetry kind {symmetry!r}")
    n = mat.n
    rows = np.repeat(np.arange(n), np.diff(mat.indptr))
    cols = mat.indices
    vals = mat.data
    if symmetry == "skew-symmetric":
        keep = rows > cols
    elif symmetry == "general":
        keep = np.ones(rows.size, dtype=bool)
    else:
        keep = rows >= cols
    rows, cols, vals = rows[keep], cols[keep], vals[keep]
    if symmetry == "hermitian" and np.any(vals[rows == cols].imag != 0.0):
        raise InputError("hermitian write needs a real diagonal")
    field = "real" if np.all(vals.imag == 0.0) else "complex"
    with open(path, "w") as fh:
        fh.write(f"%%MatrixMarket matrix coordinate {field} {symmetry}\n")
        fh.write(f"{n} {n} {rows.size}\n")
        for i, j, v in zip(rows, cols, vals):
            if field == "real":
                fh.write(f"{i + 1} {j + 1} {_fmt(v.real)}\n")
            else:
                fh.write(f"{i + 1} {j + 1} {_fmt(v.real)} {_fmt(v.imag)}\n")


def read_rhs(path: str, n: int) -> np.ndarray:
    """Right-hand sides are plain text: one entry per line, either
    're' or 're im', with % comment lines allowed."""
    entries: List[complex] = []
    with open(path, "r") as fh:
        for line in _data_lines(fh):
            toks = line.split()
            if len(toks) not in (1, 2):
                raise InputError(f"{path}: bad vector line {line!r}")
            entries.append(_finite_entry(path, toks, line))
    if len(entries) != n:
        raise InputError(f"{path}: expected {n} entries, found {len(entries)}")
    return np.array(entries, dtype=np.complex128)


def write_vector(path: str, v: np.ndarray) -> None:
    with open(path, "w") as fh:
        for z in v:
            fh.write(f"{_fmt(z.real)} {_fmt(z.imag)}\n")


def _parse_shift(text: str) -> complex:
    try:
        if "," in text:
            re_s, im_s = text.split(",", 1)
            return complex(float(re_s), float(im_s))
        return complex(float(text), 0.0)
    except ValueError as exc:
        raise InputError(f"bad shift {text!r}; use RE or RE,IM") from exc


def _resolve_seed(arg_seed: Optional[int]) -> int:
    if arg_seed is not None:
        return arg_seed
    env = os.environ.get("SYMKRYLOV_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise InputError(f"SYMKRYLOV_SEED={env!r} is not an integer") from exc
    return DEFAULT_SEED


def cmd_solve(args: argparse.Namespace) -> int:
    mat, symmetry = mm_read(args.matrix)
    if args.variant is not None:
        variant = SymmetryClass(args.variant)
    elif symmetry in _MM_KINDS:
        variant = _MM_KINDS[symmetry][0]
    else:
        raise InputError("general files need an explicit --variant")

    sources = [args.rhs is not None, args.rhs_random, args.rhs_compatible]
    if sum(sources) != 1:
        raise InputError("choose exactly one of --rhs, --rhs-random, --rhs-compatible")
    if args.rhs is not None:
        b = read_rhs(args.rhs, mat.n)
    else:
        from .oracle import SplitMix64

        rng = SplitMix64(_resolve_seed(args.seed))
        z = rng.uniforms(mat.n).astype(np.complex128)
        b = mat.matvec(z) if args.rhs_compatible else z

    shift = _parse_shift(args.shift) if args.shift else 0.0
    try:
        cfg = SolverConfig(
            tol=args.tol,
            maxit=args.maxit,
            maxxnorm=args.maxxnorm,
            maxcond=args.maxcond,
            trancond=args.trancond,
            shift=shift,
        )
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    precond = jacobi_from_matrix(mat) if args.precond == "jacobi" else None
    report = solve(mat, b, variant, cfg, preconditioner=precond)

    print(f"reason: {report.reason.value}")
    print(f"iterations: {report.iterations}")
    print(f"transfer_iteration: {report.transfer_iteration}")
    for name in ("phi", "psi", "chi", "anorm", "acond", "omega"):
        print(f"{name}: {getattr(report, name):.6e}")
    if args.oracle:
        dense = mat.to_dense()
        if shift != 0.0:
            dense = dense - shift * np.eye(mat.n)
        x_ref = tsvd_solve(dense, b)
        denom = max(norm2(x_ref), EPS)
        print(f"relerr_vs_svd: {norm2(report.x - x_ref) / denom:.6e}")
    if args.out:
        write_vector(args.out, report.x)

    if report.reason in CONVERGED_REASONS:
        return EXIT_OK
    if report.reason in (StopReason.CondExceeded, StopReason.XnormExceeded):
        return EXIT_REGULARIZED
    if report.reason is StopReason.MaxIt:
        return EXIT_MAXIT
    return EXIT_INPUT


@dataclass
class RunRecord:
    """One CSV row of an experiment suite."""

    id: str
    n: int
    variant: str
    compatible: bool
    iterations: int
    transfer_iteration: int
    stop_reason: str
    phi: float
    psi: float
    chi: float
    anorm: float
    acond: float
    relerr: float
    wall_time: float


def run_suite(family: str, n: int, count: int, seed: int,
              reorthogonalize: bool = False) -> List[RunRecord]:
    """Solve `count` compatible plus `count` incompatible generated
    problems with the standard protocol (tol = eps, maxit = 4n) and
    score each against the dense SVD reference."""
    records: List[RunRecord] = []
    for compatible in (True, False):
        for index in range(count):
            prob = suite_problem(family, n, index, seed, compatible)
            x_ref = tsvd_solve(prob.a, prob.b)
            start = time.perf_counter()
            report = solve(prob.a, prob.b, prob.variant,
                           SolverConfig(tol=EPS, maxit=4 * n),
                           reorthogonalize=reorthogonalize)
            elapsed = time.perf_counter() - start
            denom = max(norm2(x_ref), EPS)
            records.append(RunRecord(
                id=prob.id,
                n=prob.n,
                variant=prob.variant.value,
                compatible=compatible,
                iterations=report.iterations,
                transfer_iteration=report.transfer_iteration,
                stop_reason=report.reason.value,
                phi=report.phi,
                psi=report.psi,
                chi=report.chi,
                anorm=report.anorm,
                acond=report.acond,
                relerr=norm2(report.x - x_ref) / denom,
                wall_time=elapsed,
            ))
    return records


def write_records(records: List[RunRecord], out: TextIO) -> None:
    names = [f.name for f in fields(RunRecord)]
    writer = csv.writer(out)
    writer.writerow(names)
    for rec in records:
        writer.writerow([getattr(rec, name) for name in names])


def cmd_experiment(args: argparse.Namespace) -> int:
    n = args.n if args.n is not None else _FAMILY_DEFAULT_N[args.family]
    seed = _resolve_seed(args.seed)
    records = run_suite(args.family, n, args.count, seed, args.reorthogonalize)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            write_records(records, fh)
    else:
        write_records(records, sys.stdout)
    good = sum(1 for r in records if r.relerr <= 1e-5)
    frac = good / len(records) if records else 0.0
    print(f"{args.family}: {good}/{len(records)} runs with relerr <= 1e-5 "
          f"({frac:.2f})", file=sys.stderr if not args.out else sys.stdout)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="symkrylov")
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="solve one system from files")
    ps.add_argument("--matrix", required=True, help="MatrixMarket coordinate file")
    ps.add_argument("--rhs", help="right-hand side file (re [im] per line)")
    ps.add_argument("--rhs-random", action="store_true",
                    help="uniform random right-hand side")
    ps.add_argument("--rhs-compatible", action="store_true",
                    help="right-hand side A z for uniform random z")
    ps.add_argument("--variant", choices=[c.value for c in SymmetryClass],
                    help="symmetry class; inferred from the file when possible")
    ps.add_argument("--tol", type=float, default=EPS)
    ps.add_argument("--maxit", type=int, default=None)
    ps.add_argument("--maxxnorm", type=float, default=1e7)
    ps.add_argument("--maxcond", type=float, default=1e15)
    ps.add_argument("--trancond", type=float, default=1e7)
    ps.add_argument("--shift", default=None, help="spectral shift RE or RE,IM")
    ps.add_argument("--precond", choices=("none", "jacobi"), default="none")
    ps.add_argument("--oracle", action="store_true",
                    help="also solve densely by SVD and report the gap")
    ps.add_argument("--out", help="write the solution vector here")
    ps.add_argument("--seed", type=int, default=None)
    ps.set_defaults(func=cmd_solve)

    pe = sub.add_parser("experiment", help="run a generated suite to CSV")
    pe.add_argument("--family", required=True, choices=sorted(_FAMILY_DEFAULT_N))
    pe.add_argument("--n", type=int, default=None)
    pe.add_argument("--count", type=int, default=10,
                    help="problems per half (compatible and incompatible)")
    pe.add_argument("--seed", type=int, default=None)
    pe.add_argument("--out", help="CSV path (stdout when omitted)")
    pe.add_argument("--reorthogonalize", action="store_true",
                    help="full reorthogonalization (exact rank termination "
                         "on singular problems)")
    pe.set_defaults(func=cmd_experiment)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
