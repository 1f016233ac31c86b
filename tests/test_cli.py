import csv

import numpy as np
import pytest

from symkrylov.cli import (
    DEFAULT_SEED,
    EXIT_INPUT,
    EXIT_MAXIT,
    EXIT_OK,
    EXIT_REGULARIZED,
    InputError,
    build_parser,
    main,
    mm_read,
    mm_write,
    read_rhs,
    run_suite,
    write_records,
    write_vector,
)
from symkrylov.core import SparseMatrix
from symkrylov.oracle import (
    SplitMix64,
    skew_hermitian_matrix,
    skew_symmetric_matrix,
    symmetric_imaginary_matrix,
)
from symkrylov.solver import SolverConfig


def _round_trip(tmp_path, dense, kind):
    path = str(tmp_path / f"{kind}.mtx")
    mm_write(path, SparseMatrix.from_dense(dense), kind)
    mat, symmetry = mm_read(path)
    assert symmetry == kind
    np.testing.assert_array_equal(mat.to_dense(), dense)


def test_round_trip_general(tmp_path):
    rng = SplitMix64(31)
    _round_trip(tmp_path, skew_hermitian_matrix(7, rng), "general")


def test_round_trip_symmetric(tmp_path):
    rng = SplitMix64(32)
    _round_trip(tmp_path, symmetric_imaginary_matrix(6, 6, rng), "symmetric")


def test_round_trip_skew(tmp_path):
    rng = SplitMix64(33)
    _round_trip(tmp_path, skew_symmetric_matrix(7, rng), "skew-symmetric")


def test_round_trip_hermitian(tmp_path):
    rng = SplitMix64(34)
    h = 1j * symmetric_imaginary_matrix(6, 6, rng)
    h = h + np.diag(rng.uniforms(6))
    _round_trip(tmp_path, h, "hermitian")


def test_skew_file_mirrors_with_sign(tmp_path):
    path = str(tmp_path / "skew.mtx")
    path_obj = tmp_path / "skew.mtx"
    path_obj.write_text(
        "%%MatrixMarket matrix coordinate real skew-symmetric\n"
        "% a comment\n"
        "2 2 1\n"
        "2 1 -5.0\n")
    mat, _ = mm_read(path)
    np.testing.assert_array_equal(mat.to_dense(),
                                  [[0.0, 5.0], [-5.0, 0.0]])


def _write(tmp_path, text):
    p = tmp_path / "bad.mtx"
    p.write_text(text)
    return str(p)


@pytest.mark.parametrize("text", [
    "not a header\n2 2 0\n",
    "%%MatrixMarket matrix array real general\n2 2 0\n",
    "%%MatrixMarket matrix coordinate integer general\n2 2 0\n",
    "%%MatrixMarket matrix coordinate real skew-hermitian\n2 2 0\n",
    "%%MatrixMarket matrix coordinate real general\nnot numbers\n",
    "%%MatrixMarket matrix coordinate real general\n",                    # no size line
    "%%MatrixMarket matrix coordinate real general\n% a comment, then nothing\n",
    "%%MatrixMarket matrix coordinate real general\n2 3 0\n",
    "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n",
    "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.0 2.0\n",
    "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n",
    "%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n1 2 1.0\n",
    "%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 1\n1 1 1.0\n",
    "%%MatrixMarket matrix coordinate complex hermitian\n2 2 1\n1 1 1.0 2.0\n",
])
def test_rejected_files(tmp_path, text):
    with pytest.raises(InputError):
        mm_read(_write(tmp_path, text))


def test_mm_write_rejects_unknown_kind_and_complex_hermitian_diagonal(tmp_path):
    path = str(tmp_path / "a.mtx")
    with pytest.raises(InputError, match="unsupported symmetry kind 'skew-hermitian'"):
        mm_write(path, SparseMatrix.from_dense(np.eye(2)), "skew-hermitian")
    with pytest.raises(InputError, match="hermitian write needs a real diagonal"):
        mm_write(path, SparseMatrix.from_dense(np.diag([1.0, 1.0 + 1e-3j])), "hermitian")
    assert not (tmp_path / "a.mtx").exists()


def test_rhs_formats(tmp_path):
    p = tmp_path / "b.txt"
    p.write_text("% rhs\n1.5\n-2.0 3.0\n")
    b = read_rhs(str(p), 2)
    np.testing.assert_array_equal(b, [1.5 + 0.0j, -2.0 + 3.0j])
    with pytest.raises(InputError):
        read_rhs(str(p), 3)
    p.write_text("1 2 3\n")
    with pytest.raises(InputError):
        read_rhs(str(p), 1)


def test_vector_round_trip(tmp_path):
    v = np.array([0.1 + 0.25j, -3.0, 1e-300 + 1e300j])
    p = tmp_path / "x.txt"
    write_vector(str(p), v)
    np.testing.assert_array_equal(read_rhs(str(p), 3), v)


def _matrix_file(tmp_path, dense, kind="general", name="a.mtx"):
    path = str(tmp_path / name)
    mm_write(path, SparseMatrix.from_dense(dense), kind)
    return path


def test_solve_exit_ok_and_report(tmp_path, capsys):
    rng = SplitMix64(35)
    n = 12
    a = symmetric_imaginary_matrix(n, n, rng)
    path = _matrix_file(tmp_path, a, "symmetric")
    out = str(tmp_path / "x.txt")
    code = main(["solve", "--matrix", path, "--rhs-compatible",
                 "--oracle", "--out", out, "--seed", "5"])
    text = capsys.readouterr().out
    assert code == EXIT_OK
    assert "reason: Converged" in text
    relerr = float(next(ln.split()[1] for ln in text.splitlines()
                        if ln.startswith("relerr_vs_svd:")))
    assert relerr <= 1e-6
    x = read_rhs(out, n)
    assert np.isfinite(x).all()


def test_solve_bundled_hermitian_example(tmp_path, capsys):
    import os

    here = os.path.dirname(os.path.abspath(__file__))
    out = str(tmp_path / "x.txt")
    code = main(["solve",
                 "--matrix", os.path.join(here, "data", "hermitian_tiny.mtx"),
                 "--rhs", os.path.join(here, "data", "hermitian_tiny_rhs.txt"),
                 "--oracle", "--out", out])
    text = capsys.readouterr().out
    assert code == EXIT_OK
    relerr = float(next(ln.split()[1] for ln in text.splitlines()
                        if ln.startswith("relerr_vs_svd:")))
    assert relerr <= 1e-8
    np.testing.assert_allclose(read_rhs(out, 3), np.ones(3), atol=1e-10)


@pytest.mark.parametrize("entry", ["nan", "abc"])
def test_solve_bad_rhs_entry_exits_input(tmp_path, capsys, entry):
    import os

    here = os.path.dirname(os.path.abspath(__file__))
    rhs = tmp_path / "b.txt"
    rhs.write_text(f"1\n{entry}\n2\n")
    code = main(["solve",
                 "--matrix", os.path.join(here, "data", "hermitian_tiny.mtx"),
                 "--rhs", str(rhs)])
    assert code == EXIT_INPUT
    assert repr(entry) in capsys.readouterr().err


@pytest.mark.parametrize("precond", [[], ["--precond", "jacobi"]])
@pytest.mark.parametrize("entry", ["1 1 nan", "1 1 inf", "1 1 abc", "x 1 1.0"])
def test_solve_bad_matrix_entry_exits_input(tmp_path, capsys, entry, precond):
    matrix = tmp_path / "a.mtx"
    matrix.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                      f"3 3 3\n{entry}\n2 2 2.0\n3 3 3.0\n")
    rhs = tmp_path / "b.txt"
    rhs.write_text("1\n1\n1\n")
    code = main(["solve", "--matrix", str(matrix), "--rhs", str(rhs), *precond])
    assert code == EXIT_INPUT
    assert repr(entry) in capsys.readouterr().err


def test_solve_rhs_file(tmp_path, capsys):
    a = np.diag([1.0, 2.0, 4.0]).astype(np.complex128)
    path = _matrix_file(tmp_path, a, "symmetric")
    rhs = tmp_path / "b.txt"
    rhs.write_text("1.0\n2.0\n4.0\n")
    out = str(tmp_path / "x.txt")
    code = main(["solve", "--matrix", path, "--rhs", str(rhs), "--out", out])
    assert code == EXIT_OK
    np.testing.assert_allclose(read_rhs(out, 3), np.ones(3), atol=1e-10)


def test_solve_exit_regularized(tmp_path):
    rng = SplitMix64(36)
    a = symmetric_imaginary_matrix(10, 10, rng)
    path = _matrix_file(tmp_path, a, "symmetric")
    code = main(["solve", "--matrix", path, "--rhs-random",
                 "--maxxnorm", "1e-9"])
    assert code == EXIT_REGULARIZED


def test_solve_exit_maxit(tmp_path):
    rng = SplitMix64(37)
    a = symmetric_imaginary_matrix(10, 10, rng)
    path = _matrix_file(tmp_path, a, "symmetric")
    code = main(["solve", "--matrix", path, "--rhs-random", "--maxit", "1",
                 "--tol", "1e-14"])
    assert code == EXIT_MAXIT


def test_solve_exit_input_on_failed_probe(tmp_path):
    path = _matrix_file(tmp_path, np.eye(3), "general")
    code = main(["solve", "--matrix", path, "--rhs-random", "--variant", "ss"])
    assert code == EXIT_INPUT


@pytest.mark.parametrize("field, code", [("real", EXIT_OK), ("complex", EXIT_INPUT)])
def test_solve_skew_symmetric_file(tmp_path, capsys, field, code):
    # a complex A = -A^T fits no class: the ss probe checks A = -A^H
    rng = np.random.default_rng(8)
    r = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    if field == "real":
        r = r.real
    path = _matrix_file(tmp_path, r - r.T, "skew-symmetric")
    assert (tmp_path / "a.mtx").read_text().split()[3] == field
    assert main(["solve", "--matrix", path, "--rhs-random", "--oracle"]) == code
    text = capsys.readouterr().out
    if field == "complex":
        assert "reason: NotStructured" in text
    else:
        relerr = float(text.split("relerr_vs_svd:")[1].split()[0])
        assert relerr <= 1e-10


def test_solve_general_needs_variant(tmp_path):
    path = _matrix_file(tmp_path, np.eye(3), "general")
    assert main(["solve", "--matrix", path, "--rhs-random"]) == EXIT_INPUT


def test_solve_rhs_source_exclusive(tmp_path):
    path = _matrix_file(tmp_path, np.eye(2), "symmetric")
    assert main(["solve", "--matrix", path, "--rhs-random",
                 "--rhs-compatible"]) == EXIT_INPUT
    assert main(["solve", "--matrix", path]) == EXIT_INPUT


@pytest.mark.parametrize("option", ["--tol", "--maxxnorm", "--maxcond", "--trancond"])
def test_solve_nan_option_exits_input(tmp_path, capsys, option):
    path = _matrix_file(tmp_path, np.eye(2), "symmetric")
    assert main(["solve", "--matrix", path, "--rhs-random", option, "nan"]) == EXIT_INPUT
    assert "must not be NaN" in capsys.readouterr().err


def test_solve_infinite_tol_exits_input(tmp_path, capsys):
    # every iterate would pass the residual test of an infinite tol
    path = _matrix_file(tmp_path, np.eye(2), "symmetric")
    assert main(["solve", "--matrix", path, "--rhs-random", "--tol", "inf"]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "tol must be finite" in err and "Traceback" not in err


def test_solve_maxit_zero_exits_input(tmp_path, capsys):
    path = _matrix_file(tmp_path, np.eye(2), "symmetric")
    assert main(["solve", "--matrix", path, "--rhs-random", "--maxit", "0"]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "maxit must be at least 1" in err and "Traceback" not in err


def test_solve_missing_file():
    assert main(["solve", "--matrix", "/nonexistent.mtx",
                 "--rhs-random"]) == EXIT_INPUT


def test_solve_bad_shift(tmp_path):
    path = _matrix_file(tmp_path, np.eye(2), "symmetric")
    assert main(["solve", "--matrix", path, "--rhs-random",
                 "--shift", "oops"]) == EXIT_INPUT


@pytest.mark.parametrize("shift", ["inf", "nan", "0,-inf"])
def test_solve_non_finite_shift_exits_input(shift, capsys):
    import os

    here = os.path.dirname(os.path.abspath(__file__))
    assert main(["solve", "--matrix", os.path.join(here, "data", "hermitian_tiny.mtx"),
                 "--rhs", os.path.join(here, "data", "hermitian_tiny_rhs.txt"),
                 "--shift", shift]) == EXIT_INPUT
    assert "shift must be finite" in capsys.readouterr().err


def test_solve_defaults_are_the_solver_config_defaults():
    args = build_parser().parse_args(["solve", "--matrix", "a.mtx"])
    defaults = SolverConfig()
    for name in ("tol", "maxit", "maxxnorm", "maxcond", "trancond"):
        assert getattr(args, name) == getattr(defaults, name), name


def test_solve_shift_argument(tmp_path, capsys):
    a = np.diag([3.0, 5.0]).astype(np.complex128)
    path = _matrix_file(tmp_path, a, "symmetric")
    rhs = tmp_path / "b.txt"
    rhs.write_text("2.0\n4.0\n")
    out = str(tmp_path / "x.txt")
    code = main(["solve", "--matrix", path, "--rhs", str(rhs),
                 "--shift", "1", "--out", out])
    assert code == EXIT_OK
    np.testing.assert_allclose(read_rhs(out, 2), np.ones(2), atol=1e-10)


def test_solve_oracle_solves_the_shifted_system(tmp_path, capsys):
    # the SVD reference must shift too: unshifted, its x is (2/3, 4/5)
    path = _matrix_file(tmp_path, np.diag([3.0, 5.0]).astype(np.complex128), "symmetric")
    rhs = tmp_path / "b.txt"
    rhs.write_text("2.0\n4.0\n")
    code = main(["solve", "--matrix", path, "--rhs", str(rhs), "--shift", "1,0", "--oracle"])
    assert code == EXIT_OK
    relerr = float(next(ln.split()[1] for ln in capsys.readouterr().out.splitlines()
                        if ln.startswith("relerr_vs_svd:")))
    assert relerr <= 1e-12


def test_solve_jacobi_flag(tmp_path):
    rng = np.random.default_rng(11)
    n = 16
    a = rng.standard_normal((n, n))
    a = (a + a.T + np.diag(np.full(n, 30.0))).astype(np.complex128)
    path = _matrix_file(tmp_path, a, "symmetric")
    code = main(["solve", "--matrix", path, "--rhs-compatible",
                 "--precond", "jacobi"])
    assert code == EXIT_OK


def _relerr(out):
    return float(next(ln.split()[1] for ln in out.splitlines() if ln.startswith("relerr_vs_svd:")))


@pytest.mark.parametrize("variant, kind, carried, refused", [
    ("hermitian", "hermitian", "0.3", "0,0.3"), ("sh", "general", "0,0.3", "0.3")])
def test_solve_jacobi_shift_is_carried_or_refused(tmp_path, capsys, variant, kind, carried,
                                                  refused):
    # the Jacobi M is no identity here, so the process runs on A - shift*I:
    # a shift that keeps it in the class solves the shifted system, any
    # other exits 4 with the solver's message
    rng = np.random.default_rng(23)
    r = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    if variant == "hermitian":
        a = r + r.conj().T + 6 * np.eye(8)
    else:
        a = r - r.conj().T + 6j * np.eye(8)
    args = ["solve", "--matrix", _matrix_file(tmp_path, a, kind), "--variant", variant,
            "--rhs-random", "--precond", "jacobi", "--oracle"]
    assert main(args + ["--shift", carried]) == EXIT_OK
    assert _relerr(capsys.readouterr().out) <= 1e-10
    assert main(args + ["--shift", refused]) == EXIT_INPUT
    assert f"preconditioned {variant} solve cannot take shift" in capsys.readouterr().err


def test_solve_jacobi_shift_on_a_zero_diagonal_runs_plain(tmp_path, capsys):
    # a real skew matrix has a zero diagonal, so Jacobi gives the identity,
    # the plain process runs, and T's diagonal carries a real shift
    path = _matrix_file(tmp_path, skew_symmetric_matrix(8, SplitMix64(36)), "skew-symmetric")
    assert main(["solve", "--matrix", path, "--rhs-random", "--precond", "jacobi",
                 "--shift", "0.3", "--oracle"]) == EXIT_OK
    assert _relerr(capsys.readouterr().out) <= 1e-10


def _rows_without_wall_time(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    head = rows[0]
    drop = head.index("wall_time")
    return [[c for i, c in enumerate(row) if i != drop] for row in rows]


def test_experiment_csv_and_summary(tmp_path, capsys):
    out = str(tmp_path / "runs.csv")
    code = main(["experiment", "--family", "cs-h", "--n", "16",
                 "--count", "2", "--seed", "7", "--out", out])
    assert code == EXIT_OK
    assert "4/4" in capsys.readouterr().out
    rows = _rows_without_wall_time(out)
    assert len(rows) == 5
    assert rows[0][0] == "id"
    assert rows[1][0] == "cs-h-n16-c000"
    assert rows[3][0] == "cs-h-n16-i000"


def test_experiment_empty_suite(tmp_path):
    out = str(tmp_path / "empty.csv")
    code = main(["experiment", "--family", "ss", "--n", "11",
                 "--count", "0", "--out", out])
    assert code == EXIT_OK
    rows = _rows_without_wall_time(out)
    assert len(rows) == 1


def test_experiment_without_out_writes_the_csv_to_stdout(tmp_path, capsys):
    assert main(["experiment", "--family", "sh", "--n", "5", "--count", "1"]) == EXIT_OK
    captured = capsys.readouterr()
    rows = list(csv.reader(captured.out.splitlines()))
    assert rows[0][:2] == ["id", "n"] and [row[0] for row in rows[1:]] == \
        ["sh-n5-c000", "sh-n5-i000"]
    assert captured.err.startswith("sh: ") and "runs with relerr <= 1e-5" in captured.err


@pytest.mark.parametrize("argv", [
    ["--family", "cs-h", "--n", "2"], ["--family", "cs-m", "--n", "0"],
    ["--family", "ss", "--n", "0"], ["--family", "sh", "--n", "-4"],
    ["--family", "ss", "--n", "5", "--count", "-1"],
], ids=["cs-h-2", "cs-m-0", "ss-0", "sh-negative", "negative-count"])
def test_experiment_small_n_or_count_exits_input(tmp_path, capsys, argv):
    out = tmp_path / "runs.csv"
    assert main(["experiment", *argv, "--out", str(out)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists()


def test_experiment_deterministic_given_seed(tmp_path):
    out1 = str(tmp_path / "r1.csv")
    out2 = str(tmp_path / "r2.csv")
    main(["experiment", "--family", "sh", "--n", "13", "--count", "1",
          "--seed", "7", "--out", out1])
    main(["experiment", "--family", "sh", "--n", "13", "--count", "1",
          "--seed", "7", "--out", out2])
    assert _rows_without_wall_time(out1) == _rows_without_wall_time(out2)


def test_experiment_reorthogonalize(tmp_path):
    out = str(tmp_path / "reorth.csv")
    assert main(["experiment", "--family", "ss", "--n", "11", "--count", "2",
                 "--seed", "7", "--reorthogonalize", "--out", out]) == EXIT_OK
    want = tmp_path / "want.csv"
    with open(want, "w", newline="") as fh:
        write_records(run_suite("ss", 11, 2, 7, reorthogonalize=True), fh)
    assert _rows_without_wall_time(out) == _rows_without_wall_time(str(want))


def _experiment_rows(tmp_path, name, *seed):
    out = str(tmp_path / name)
    assert main(["experiment", "--family", "cs-m", "--n", "12", "--count", "1",
                 *seed, "--out", out]) == EXIT_OK
    return _rows_without_wall_time(out)


def test_seed_option_picks_the_suite(tmp_path):
    first = _experiment_rows(tmp_path, "r1.csv", "--seed", "7")
    assert _experiment_rows(tmp_path, "r2.csv", "--seed", "7") == first
    assert _experiment_rows(tmp_path, "r3.csv", "--seed", "8") != first


def test_seed_comes_from_the_option_alone(tmp_path, monkeypatch):
    want = _experiment_rows(tmp_path, "want.csv", "--seed", str(DEFAULT_SEED))
    monkeypatch.setenv("SYMKRYLOV_SEED", "7")
    assert _experiment_rows(tmp_path, "got.csv") == want


def test_run_suite_records_shape():
    recs = run_suite("ss", 13, 1, 7)
    assert [r.compatible for r in recs] == [True, False]
    assert all(r.variant == "ss" for r in recs)
    assert all(r.relerr >= 0.0 and r.wall_time >= 0.0 for r in recs)
