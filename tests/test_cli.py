import hashlib
import importlib
import json
import os
import shlex
import shutil
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import secthresh.cli as cli
import secthresh.curves as curves
import secthresh.harness as harness
import secthresh.tau as tau
from conftest import drop_timing
from secthresh import DomainError, ProblemShape, sample_gaussian_matrix
from secthresh.cli import main
from secthresh.harness import MAX_REPS
from secthresh.instances import MAX_N


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture
def refuses(tmp_path, capsys, forbid):
    """``refuses(code, line, argv, files={})``: ``secthresh argv`` exits ``code``
    with an empty stdout and ``line`` as its one stderr line ("..." at the end
    matches the line's start), and leaves no file behind; at exit 2 nothing is
    sampled, factored, solved or run.  ``{tmp}`` in argv and line is the test's
    directory, where ``files`` (name to text or bytes) are written first."""
    def check(code, line, argv, files={}):
        for name, content in files.items():
            (tmp_path / name).write_bytes(
                content if isinstance(content, bytes) else content.encode())
        argv = [arg.replace("{tmp}", str(tmp_path)) for arg in shlex.split(argv)]
        line = line.replace("{tmp}", str(tmp_path))
        before = sorted(tmp_path.rglob("*"))
        if code == 2:
            for module, name in [(cli, "sample_gaussian_matrix"), (tau, "null_projector"),
                                 (curves, "erfinv"), (harness, "_run_instance"), (os, "fork")]:
                forbid(module, name)
        assert run_cli(*argv) == code
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and err.endswith("\n")
        if line.endswith("..."):
            assert err.startswith(line[:-3])
        else:
            assert err == line + "\n"
        outputs = [path for flag, path in zip(argv, argv[1:])
                   if flag in ("--out", "--svg", "--emit-certificate")]
        assert not any(map(os.path.isfile, outputs))
        assert sorted(tmp_path.rglob("*")) == before
    return check


# The refusal table: each row is a class attribute below, named for the input
# it refuses, and every row is checked by ``refuses``.
def refusal(code, line, argv, files={}):
    """A test of one refusal, checked by ``refuses``."""
    def test(self, refuses):
        refuses(code, line, argv, files)
    return test


def refusals(table):
    """A test of each refusal in ``table``, {id: (code, line, argv[, files])}."""
    @pytest.mark.parametrize("row", list(table.values()), ids=list(table))
    def test(self, refuses, row):
        refuses(*row)
    return test


def with_nonfinite(entry):
    """A 5 x 12 matrix CSV with ``entry`` on line 3."""
    rows = [[repr(float(v)) for v in row]
            for row in np.random.default_rng(3).standard_normal((5, 12))]
    rows[2][7] = entry
    return "".join(",".join(row) + "\n" for row in rows)


SIMULATE = "simulate --cell 30,24,10 --reps 1 --workers 1"
SUITE = "simulate --suite {tmp}/suite.json --out {tmp}/r.csv"
CERTIFY = "certify --matrix {tmp}/m.csv --k 1"
MALFORMED = "error: malformed matrix file '{tmp}/m.csv': "


class TestDimensionCap:
    """n above MAX_N exits 2 before any n x n basis is allocated."""

    test_simulate = refusal(
        2, f"error: need n <= {MAX_N}, got n=2000000",
        "simulate --cell 2000000,2,1 --reps 1 --workers 1 --out {tmp}/r.csv")
    test_tau = refusal(2, f"error: need n <= {MAX_N}, got n=2000000",
                       "tau --n 2000000 --m 2 --k 1")
    test_certify = refusal(2, f"error: need n <= {MAX_N}, got n={MAX_N + 1}", CERTIFY,
                           {"m.csv": ",".join(["1"] * (MAX_N + 1)) + "\n"})


class TestCurvesCommand:
    test_malformed_grid_leaves_no_file = refusal(
        2, "error: grid must be START:STOP:STEP in finite numbers, got 'nope'",
        "curves --grid nope --out {tmp}/c.csv")
    test_non_finite_grid_rejected = refusals({
        grid: (2, f"error: grid must be START:STOP:STEP in finite numbers, got {grid!r}",
               f"curves --grid {grid} --out {{tmp}}/c.csv")
        for grid in ("0.1:inf:0.1", "nan:0.5:0.1", "0.1:0.5:nan")})
    test_oversized_grid_rejected_before_solving = refusal(
        2, "error: grid '0.1:0.9:1e-7' has more than 10000 points",
        "curves --grid 0.1:0.9:1e-7 --out {tmp}/c.csv")
    test_xi_sk_outside_domain = refusals({
        f"{xi}-{code}": (code, line, f"curves --grid 0.5:0.5:0.1 --xi-sk {xi} --out {{tmp}}/c.csv")
        for xi, code, line in [
            ("nan", 2, "error: xi_sk must be finite and >= 0, got nan"),
            ("inf", 2, "error: xi_sk must be finite and >= 0, got inf"),
            ("-1", 2, "error: xi_sk must be finite and >= 0, got -1.0"),
            ("1e155", 3, "numerical failure: curve solve failed at alpha=0.5: sectional "
                         "upper-bound denominator overflows at xi_sk=1e+155")]})

    def test_grid_cap_boundary(self):
        assert cli.MAX_GRID_POINTS == 10_000
        assert len(cli._parse_grid("1:10000:1")) == 10_000
        with pytest.raises(DomainError):
            cli._parse_grid("1:10001:1")

    def test_degenerate_coupling_collapses_rows(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run_cli("curves", "--grid", "0.1:0.3:0.1", "--xi-sk", "0",
                       "--out", str(out)) == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "curve,alpha,beta"
        weak = {r.split(",")[1]: float(r.split(",")[2])
                for r in rows[1:] if r.startswith("weak,")}
        upper = {r.split(",")[1]: float(r.split(",")[2])
                 for r in rows[1:] if r.startswith("sec-upper,")}
        assert weak.keys() == upper.keys()
        for alpha, beta in weak.items():
            assert abs(beta - upper[alpha]) <= 1e-8

    def test_single_point_ordered(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run_cli("curves", "--grid", "0.5:0.5:0.1", "--out", str(out)) == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 3
        beta = {r.split(",")[0]: float(r.split(",")[2]) for r in rows}
        assert beta["sec-lower"] < beta["sec-upper"] < beta["weak"]

    def test_default_grid_csv_pinned(self, tmp_path, capsys):
        # The fixed-seed contract's curve bytes, on the default grid.
        out = tmp_path / "c.csv"
        assert run_cli("curves", "--out", str(out)) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "1decebd191fab13ef02432571635d321f1ca4c972cdc4bdadfce60bccb1af87a")
        capsys.readouterr()

    def test_svg_written(self, tmp_path):
        out, svg = tmp_path / "c.csv", tmp_path / "c.svg"
        assert run_cli("curves", "--grid", "0.3:0.6:0.1", "--out", str(out),
                       "--svg", str(svg)) == 0
        text = svg.read_text()
        assert text.startswith("<svg") and "polyline" in text


class TestTauCommand:
    test_square_matrix_rejected = refusal(2, "error: need 0 < m < n, got m=100 n=100",
                                          "tau --n 100 --m 100 --k 5")

    def test_k_rule_is_the_library_rule(self, capsys):
        # 1 <= k < n, as in certify and estimate_failure: k >= m runs.
        assert run_cli("tau", "--n", "10", "--m", "6", "--k", "7", "--seed", "1") == 0
        assert "verdict:" in capsys.readouterr().out

    test_k_outside_block_refused_before_sampling = refusals({
        k: (2, f"error: need 1 <= k < n=10, got k={k}", f"tau --n 10 --m 6 --k {k}")
        for k in ("0", "10")})

    def test_small_failure_instance(self, tmp_path, capsys):
        cert = tmp_path / "cert.json"
        code = run_cli("tau", "--n", "40", "--m", "30", "--k", "12",
                       "--seed", "5", "--emit-certificate", str(cert))
        assert code == 0
        stdout = capsys.readouterr().out
        assert "verdict:" in stdout
        if "CertifiedFailure" in stdout:
            payload = json.loads(cert.read_text())
            assert payload["n"] == 40 and payload["k"] == 12


class TestSimulateCommand:
    test_zero_reps_rejected = refusal(
        2, "error: need 1 <= reps <= 100000, got reps=0",
        "simulate --cell 30,24,10 --reps 0 --out {tmp}/r.csv")

    def test_reps_cap(self, refuses, forbid):
        forbid(cli, "run_suite")
        too_many = MAX_REPS + 1
        refuses(2, f"error: need 1 <= reps <= 100000, got reps={too_many}",
                f"simulate --cell 30,24,10 --reps {too_many} --out {{tmp}}/r.csv")
        cell = {"n": 30, "m": 24, "k": 10, "reps": too_many}
        refuses(2, f"error: malformed suite cell {cell!r}: need 1 <= reps <= 100000, "
                   f"got reps={too_many}", SUITE, {"suite.json": json.dumps([cell])})

    test_worker_count_bounded = refusals({
        workers: (2, f"error: need 1 <= workers <= 256, got workers={workers}",
                  f"simulate --cell 30,24,12 --reps 5000 --workers {workers} --out {{tmp}}/r.csv")
        for workers in ("-3", "5000")})
    test_malformed_cell = refusal(2, "error: argument --cell: must be n,m,k, got '30;24;10'",
                                  "simulate --cell 30;24;10 --out {tmp}/r.csv")
    test_selector_required = refusal(
        2, "error: one of the arguments --builtin --suite --cell is required",
        "simulate --out {tmp}/r.csv")
    test_usage_error_is_one_line = refusals({
        f"argv{i}": (2, f"error: argument {line}", f"simulate {argv} --out {{tmp}}/r.csv")
        for i, (argv, line) in enumerate([
            ("--builtin table2 --cell 30,24,12", "--cell: not allowed with argument --builtin"),
            ("--cell 30,24,12 --suite suite.json", "--suite: not allowed with argument --cell"),
            ("--cell 30,24", "--cell: must be n,m,k, got '30,24'"),
            ("--cell 30,24,x", "--cell: must be n,m,k, got '30,24,x'"),
            ("--cell 30,24,12 --reps x", "--reps: invalid int value: 'x'")])})
    # Masked to 64 bits, -1 would alias 2**64 - 1 and 2**64 would alias 0.
    test_seed_outside_64_bits_before_any_rep = refusals({
        seed: (2, f"error: base_seed must be a 64-bit unsigned integer, got {seed}",
               f"simulate --cell 30,24,12 --reps 3 --seed {seed} --workers 1 --out {{tmp}}/r.csv")
        for seed in ("-1", str(2**64))})
    # The seed is checked where each cell is made; a suite file's cells are
    # not blamed for it.
    test_seed_refused_as_itself_from_any_selector = refusals({
        f"selector{i}": (2, "error: base_seed must be a 64-bit unsigned integer, got -1",
                         f"simulate {selector} --seed -1 --workers 1 --out {{tmp}}/r.csv",
                         {"suite.json": json.dumps([{"n": 30, "m": 24, "k": 12}])})
        for i, selector in enumerate(["--builtin table2", "--suite {tmp}/suite.json"])})
    # JSON reads 1e400 as inf, which no int holds; int() would truncate 30.7
    # to n = 30 and 1.9 to 1 rep, and read true as 1 and "2" as 2.
    test_suite_number_overflow_rejected = refusals({
        f"{n}-{reps}": (2, f"error: malformed suite cell {{'n': {shown[0]}, 'm': 24, 'k': 10, "
                           f"'reps': {shown[1]}}}: {shown[2]}", SUITE,
                        {"suite.json": f'[{{"n": {n}, "m": 24, "k": 10, "reps": {reps}}}]'})
        for n, reps, shown in [
            ("1e400", "2", ("inf", "2", "n must be an integer, got inf")),
            ("30", "1e400", ("30", "inf", "reps must be an integer, got inf")),
            ("30.7", "1", ("30.7", "1", "n must be an integer, got 30.7")),
            ("30", "1.9", ("30", "1.9", "reps must be an integer, got 1.9")),
            ("30", "true", ("30", "True", "reps must be an integer, got True")),
            ("30", '"2"', ("30", "'2'", "reps must be an integer, got '2'"))]})
    # A misspelt "reps" would otherwise fall back to --reps.
    test_suite_unknown_key_rejected = refusal(
        2, "error: malformed suite cell {'n': 30, 'm': 24, 'k': 10, 'rep': 3}: "
           "unknown key 'rep'", SUITE, {"suite.json": '[{"n": 30, "m": 24, "k": 10, "rep": 3}]'})
    test_undecodable_suite_is_one_line = refusals({
        "not-utf8": (2, "error: cannot read suite spec '{tmp}/suite.json': 'utf-8' codec "
                        "can't decode byte 0xe9 in position 28: invalid continuation byte",
                     SUITE, {"suite.json": b'[{"n": 30, "m": 24, "k": 10}\xe9]'}),
        "nested-too-deep": (2, "error: cannot read suite spec '{tmp}/suite.json': ...",
                            SUITE, {"suite.json": b"[" * 100_000})})

    def test_unreadable_suite(self, refuses):
        refuses(2, "error: cannot read suite spec '{tmp}/suite.json': [Errno 2] No such file "
                   "or directory: '{tmp}/suite.json'", SUITE)
        refuses(2, "error: suite spec must be a JSON list of cells", SUITE,
                {"suite.json": '{"not": "a list"}'})

    def test_inline_cell_csv(self, tmp_path):
        out = tmp_path / "r.csv"
        assert run_cli("simulate", "--cell", "30,24,10", "--reps", "2",
                       "--seed", "4", "--out", str(out), "--workers", "1") == 0
        rows = out.read_text().splitlines()
        assert rows[0] == ("n,m,k,reps,failures,rate,paper_rate,mean_flips,errors,"
                           "mean_seconds")
        fields = rows[1].split(",")
        assert fields[:4] == ["30", "24", "10", "2"]
        assert fields[6] == ""  # not a tabulated cell
        assert fields[8] == "0"  # no rep errored

    def test_rerun_stable_modulo_timing(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run_cli("simulate", "--cell", "24,18,8", "--reps", "3",
                           "--out", str(out), "--workers", "1") == 0
        assert drop_timing(a.read_text()) == drop_timing(b.read_text())

    def test_suite_spec_file(self, tmp_path):
        spec = tmp_path / "suite.json"
        spec.write_text(json.dumps([{"n": 24, "m": 18, "k": 8, "reps": 2},
                                    {"n": 30, "m": 24, "k": 10}]))
        out = tmp_path / "r.csv"
        assert run_cli("simulate", "--suite", str(spec), "--reps", "1",
                       "--out", str(out), "--workers", "1") == 0
        rows = out.read_text().splitlines()
        assert len(rows) == 3
        assert rows[1].split(",")[3] == "2"  # explicit per-cell reps
        assert rows[2].split(",")[3] == "1"  # fell back to --reps

    def test_suite_integral_float_accepted(self, tmp_path):
        suite = tmp_path / "suite.json"
        suite.write_text('[{"n": 30.0, "m": 24, "k": 10, "reps": 1.0}]')
        out = tmp_path / "r.csv"
        assert run_cli("simulate", "--suite", str(suite), "--out", str(out),
                       "--workers", "1") == 0
        assert out.read_text().splitlines()[1].startswith("30,24,10,1,")


class TestUnwritableOutput:
    """An output path that cannot be written exits 2 with one stderr line."""

    test_curves_missing_directory = refusal(
        2, "error: cannot write '{tmp}/missing/c.csv': no writable directory '{tmp}/missing'",
        "curves --grid 0.5:0.5:0.1 --out {tmp}/missing/c.csv")
    # No temp file is left in the directory either.
    test_curves_out_is_directory = refusal(2, "error: cannot write '{tmp}': not a file name",
                                           "curves --grid 0.5:0.5:0.1 --out {tmp}")
    test_simulate_missing_directory_before_any_rep = refusal(
        2, "error: cannot write '{tmp}/missing/r.csv': no writable directory '{tmp}/missing'",
        SIMULATE + " --out {tmp}/missing/r.csv")

    def test_simulate_unwritable_directory_before_any_rep(self, tmp_path, monkeypatch,
                                                          refuses):
        # Permission bits do not bind root, so the refusal is simulated.
        access = os.access
        locked = tmp_path / "locked"
        locked.mkdir()
        monkeypatch.setattr(os, "access", lambda path, mode, **kwargs: (
            path != str(locked) and access(path, mode, **kwargs)))
        refuses(2, "error: cannot write '{tmp}/locked/r.csv': no writable directory "
                   "'{tmp}/locked'", SIMULATE + " --out {tmp}/locked/r.csv")

    test_curves_bad_svg_writes_no_csv = refusal(
        2, "error: cannot write '{tmp}/missing/c.svg': no writable directory '{tmp}/missing'",
        "curves --grid 0.5:0.5:0.1 --out {tmp}/c.csv --svg {tmp}/missing/c.svg")
    test_empty_path_before_any_work = refusals({
        name: (2, "error: cannot write '': not a file name", argv, {"m.csv": "2,1\n"})
        for name, argv in [
            ("curves-out", "curves --out ''"),
            ("curves-svg", "curves --out {tmp}/c.csv --svg ''"),
            ("simulate", SIMULATE + " --out ''"),
            ("tau", "tau --n 30 --m 24 --k 12 --emit-certificate ''"),
            ("certify", CERTIFY + " --emit-certificate ''")]})
    test_tau_certificate_missing_directory = refusal(
        2, "error: cannot write '{tmp}/missing/c.json': no writable directory '{tmp}/missing'",
        "tau --n 30 --m 24 --k 12 --seed 0 --emit-certificate {tmp}/missing/c.json")
    test_certify_certificate_missing_directory = refusal(
        2, "error: cannot write '{tmp}/missing/c.json': no writable directory '{tmp}/missing'",
        CERTIFY + " --emit-certificate {tmp}/missing/c.json", {"m.csv": "2,1\n"})

class TestCertifyCommand:
    def test_hand_failure_instance(self, tmp_path, capsys):
        mat = tmp_path / "m.csv"
        mat.write_text("2,1\n")
        cert = tmp_path / "cert.json"
        assert run_cli("certify", "--matrix", str(mat), "--k", "1",
                       "--emit-certificate", str(cert)) == 0
        assert "CertifiedFailure" in capsys.readouterr().out
        payload = json.loads(cert.read_text())
        assert set(payload) == {"n", "m", "k", "b", "w", "head_l1", "tail_l1",
                                "gap", "nullspace_residual"}
        assert abs(payload["gap"] - 0.2) <= 1e-6
        assert payload["b"] in ([1], [-1])

    def test_unconverged_solves_reported(self, tmp_path, capsys, monkeypatch):
        A = sample_gaussian_matrix(ProblemShape(n=30, m=20, k=8), 2).A
        mat = tmp_path / "m.csv"
        mat.write_text("".join(",".join(map(repr, row.tolist())) + "\n" for row in A))
        tau_argv = ("tau", "--n", "30", "--m", "20", "--k", "8", "--seed", "2")
        certify_argv = ("certify", "--matrix", str(mat), "--k", "8")
        for argv in (tau_argv, certify_argv):
            assert run_cli(*argv) == 0
            assert "unconverged" not in capsys.readouterr().out
        # Capped at 3 iterations, none of the search's 17 solves converges.
        monkeypatch.setattr(tau, "MAX_ITERATIONS", 3)
        for argv in (tau_argv, certify_argv):
            assert run_cli(*argv) == 0
            assert capsys.readouterr().out.endswith(
                "flips evaluated: 16\nunconverged solves: 17\n")

    def test_hand_balanced_instance(self, tmp_path, capsys):
        mat = tmp_path / "m.csv"
        mat.write_text("1,1\n")
        assert run_cli("certify", "--matrix", str(mat), "--k", "1") == 0
        assert "NotCertified" in capsys.readouterr().out

    test_ragged_rows = refusal(2, MALFORMED + "line 2 has 2 entries, line 1 has 3", CERTIFY,
                               {"m.csv": "1,2,3\n4,5\n6,7,8\n"})

    def test_blank_lines_skipped(self, tmp_path):
        mat = tmp_path / "m.csv"
        mat.write_text("\n1,2,3\n\n  \n4,5,6\n\n")
        A = cli._read_matrix_csv(str(mat))
        assert A.tolist() == [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]

    test_malformed_matrix_is_one_line = refusals({
        text: (2, line, CERTIFY, {"m.csv": text}) for text, line in [
            ("# comment\n1,2,3\n", MALFORMED + "line 1 has an entry that is not a number"),
            ("1,2,3,\n4,5,6,\n", MALFORMED + "line 1 has an entry that is not a number"),
            ("a,b,c\n1,2,3\n", MALFORMED + "line 1 has an entry that is not a number"),
            ("1,2,3\n4,5\n", MALFORMED + "line 2 has 2 entries, line 1 has 3"),
            ("", "error: matrix file '{tmp}/m.csv' is empty"),
            ("\n \n", "error: matrix file '{tmp}/m.csv' is empty")]})
    test_malformed_row_names_its_line = refusals({
        f"{row}-{why}": (2, MALFORMED + why, CERTIFY,
                         {"m.csv": f"\n1,2,3\n\n{row}\n7,8,9\n"})
        for row, why in [("4,x,6", "line 2 has an entry that is not a number"),
                         ("4,5", "line 2 has 2 entries, line 1 has 3")]})
    test_matrix_not_utf8_is_one_line = refusal(
        2, "error: cannot read matrix file '{tmp}/m.csv': 'utf-8' codec can't decode byte "
           "0xe9 in position 6: invalid continuation byte", CERTIFY, {"m.csv": b"2,1\n1,\xe9\n"})
    test_not_wide_rejected = refusal(2, "error: need 0 < m < n, got m=2 n=2", CERTIFY,
                                     {"m.csv": "1,2\n3,4\n"})
    test_k_outside_block_range_rejected = refusals({
        k: (2, f"error: need 1 <= k < n=3, got k={k}", f"certify --matrix {{tmp}}/m.csv --k {k}",
            {"m.csv": "1,2,3\n"})
        for k in ("-1", "0", "3")})
    # The smallest singular value's bits are BLAS's own, so only its start is given.
    test_rank_deficient = refusal(
        3, "numerical failure: rank-deficient matrix: singular values span [...", CERTIFY,
        {"m.csv": "1,2,3\n2,4,6\n"})
    test_non_finite_entry_rejected = refusals({
        bad: (2, "error: non-finite entry on line 3", "certify --matrix {tmp}/m.csv --k 2",
              {"m.csv": with_nonfinite(bad)})
        for bad in ("nan", "inf")})
    test_missing_file = refusal(
        2, "error: cannot read matrix file '{tmp}/m.csv': [Errno 2] No such file or "
           "directory: '{tmp}/m.csv'", CERTIFY)


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask-022", "umask-077"])
def test_output_files_take_the_umask(tmp_path, umask, mode):
    # As open() leaves them, m.csv here, not with the 0600 of a private temp
    # file; a file already there keeps its mode.
    (tmp_path / "kept.csv").touch()
    (tmp_path / "kept.csv").chmod(0o640)
    old = os.umask(umask)
    try:
        (tmp_path / "m.csv").write_text("2,1\n")
        for argv in ["curves --grid 0.5:0.5:0.1 --out {tmp}/c.csv --svg {tmp}/c.svg",
                     SIMULATE + " --out {tmp}/r.csv", CERTIFY + " --emit-certificate {tmp}/c.json",
                     "curves --grid 0.5:0.5:0.1 --out {tmp}/kept.csv"]:
            assert run_cli(*shlex.split(argv.replace("{tmp}", str(tmp_path)))) == 0
    finally:
        os.umask(old)
    modes = {path.name: stat.S_IMODE(path.stat().st_mode) for path in tmp_path.iterdir()}
    assert modes == {"kept.csv": 0o640,
                     **dict.fromkeys(["m.csv", "c.csv", "c.svg", "r.csv", "c.json"], mode)}


def test_entry_point_resolves_to_main(tmp_path, monkeypatch):
    # The installed console script calls this; check it without installing.
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as handle:
        target = tomllib.load(handle)["project"]["scripts"]["secthresh"]
    module, _, attr = target.partition(":")
    entry = getattr(importlib.import_module(module), attr)
    assert entry is cli.main
    out = tmp_path / "c.csv"
    monkeypatch.setattr(sys, "argv", ["secthresh", "curves", "--grid", "0.5:0.5:0.1",
                                      "--out", str(out)])
    assert entry() == 0
    assert len(out.read_text().splitlines()) == 4


@pytest.mark.skipif(shutil.which("secthresh") is None,
                    reason="console script not on PATH")
def test_console_entry_point(tmp_path):
    out = tmp_path / "c.csv"
    proc = subprocess.run(["secthresh", "curves", "--grid", "0.5:0.5:0.1",
                           "--out", str(out)], capture_output=True, text=True)
    assert proc.returncode == 0
    assert out.exists()
