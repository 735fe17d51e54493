import hashlib
import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import secthresh.cli as cli
import secthresh.harness as harness
import secthresh.tau as tau
from secthresh import DomainError, ProblemShape, sample_gaussian_matrix
from secthresh.cli import main
from secthresh.harness import MAX_REPS
from secthresh.instances import MAX_N


def run_cli(*argv):
    return main(list(argv))


def drop_timing(csv_text):
    # mean_seconds (the last column) is wall-clock and legitimately varies
    # between reruns; everything before it must be stable.
    return ["," .join(line.split(",")[:-1]) for line in csv_text.splitlines()]


@pytest.fixture
def nothing_runs(monkeypatch):
    """Fail a test that samples an instance, runs a rep or starts a search."""
    def unreachable(*args, **kwargs):
        raise AssertionError("the input got past validation")

    monkeypatch.setattr(cli, "sample_gaussian_matrix", unreachable)
    monkeypatch.setattr(cli, "estimate_failure", unreachable)
    monkeypatch.setattr(harness, "_run_rep", unreachable)


class TestDimensionCap:
    """n above MAX_N exits 2 before any n x n basis is allocated."""

    def test_simulate(self, tmp_path, capsys, nothing_runs):
        out = tmp_path / "r.csv"
        assert run_cli("simulate", "--cell", "2000000,2,1", "--reps", "1",
                       "--workers", "1", "--out", str(out)) == 2
        assert capsys.readouterr().err == f"error: need n <= {MAX_N}, got n=2000000\n"
        assert not out.exists()

    def test_tau(self, capsys, nothing_runs):
        assert run_cli("tau", "--n", "2000000", "--m", "2", "--k", "1") == 2
        assert capsys.readouterr().err == f"error: need n <= {MAX_N}, got n=2000000\n"

    def test_certify(self, tmp_path, capsys, nothing_runs):
        mat = tmp_path / "m.csv"
        mat.write_text(",".join(["1"] * (MAX_N + 1)) + "\n")
        assert run_cli("certify", "--matrix", str(mat), "--k", "1") == 2
        assert capsys.readouterr().err == (
            f"error: need n <= {MAX_N}, got n={MAX_N + 1}\n")


class TestCurvesCommand:
    def test_malformed_grid_leaves_no_file(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        assert run_cli("curves", "--grid", "nope", "--out", str(out)) == 2
        assert not out.exists()
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", ["0.1:inf:0.1", "nan:0.5:0.1", "0.1:0.5:nan"])
    def test_non_finite_grid_rejected(self, tmp_path, capsys, grid):
        out = tmp_path / "c.csv"
        assert run_cli("curves", "--grid", grid, "--out", str(out)) == 2
        assert not out.exists()
        capsys.readouterr()

    def test_oversized_grid_rejected_before_solving(self, tmp_path, capsys, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("emit_curves called on an oversized grid")

        monkeypatch.setattr(cli, "emit_curves", unreachable)
        out = tmp_path / "c.csv"
        assert run_cli("curves", "--grid", "0.1:0.9:1e-7", "--out", str(out)) == 2
        assert not out.exists()
        assert "more than 10000 points" in capsys.readouterr().err

    def test_grid_cap_boundary(self):
        assert cli.MAX_GRID_POINTS == 10_000
        assert len(cli._parse_grid("1:10000:1")) == 10_000
        with pytest.raises(DomainError):
            cli._parse_grid("1:10001:1")

    def test_degenerate_coupling_collapses_rows(self, tmp_path, capsys):
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
        capsys.readouterr()

    def test_single_point_ordered(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        assert run_cli("curves", "--grid", "0.5:0.5:0.1", "--out", str(out)) == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 3
        beta = {r.split(",")[0]: float(r.split(",")[2]) for r in rows}
        assert beta["sec-lower"] < beta["sec-upper"] < beta["weak"]
        capsys.readouterr()

    def test_rerun_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli("curves", "--grid", "0.2:0.8:0.2", "--out", str(a)) == 0
        assert run_cli("curves", "--grid", "0.2:0.8:0.2", "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()
        capsys.readouterr()

    def test_default_grid_csv_pinned(self, tmp_path, capsys):
        # The fixed-seed contract's curve bytes, on the default grid.
        out = tmp_path / "c.csv"
        assert run_cli("curves", "--out", str(out)) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "1decebd191fab13ef02432571635d321f1ca4c972cdc4bdadfce60bccb1af87a")
        capsys.readouterr()

    @pytest.mark.parametrize("xi, code", [("nan", 2), ("inf", 2), ("-1", 2), ("1e155", 3)])
    def test_xi_sk_outside_domain(self, tmp_path, capsys, xi, code):
        out = tmp_path / "c.csv"
        assert run_cli("curves", "--grid", "0.5:0.5:0.1", "--xi-sk", xi,
                       "--out", str(out)) == code
        err = capsys.readouterr().err
        assert err.splitlines() == [err.strip()] and "xi_sk" in err
        assert not out.exists()

    def test_svg_written(self, tmp_path, capsys):
        out, svg = tmp_path / "c.csv", tmp_path / "c.svg"
        assert run_cli("curves", "--grid", "0.3:0.6:0.1", "--out", str(out),
                       "--svg", str(svg)) == 0
        text = svg.read_text()
        assert text.startswith("<svg") and "polyline" in text
        capsys.readouterr()


class TestTauCommand:
    def test_square_matrix_rejected(self, capsys):
        assert run_cli("tau", "--n", "100", "--m", "100", "--k", "5") == 2
        assert "error" in capsys.readouterr().err

    def test_k_rule_is_the_library_rule(self, capsys):
        # 1 <= k < n, as in certify and estimate_failure: k >= m runs.
        assert run_cli("tau", "--n", "10", "--m", "6", "--k", "7", "--seed", "1") == 0
        assert "verdict:" in capsys.readouterr().out

    @pytest.mark.parametrize("k", ["0", "10"])
    def test_k_outside_block_refused_before_sampling(self, capsys, nothing_runs, k):
        assert run_cli("tau", "--n", "10", "--m", "6", "--k", k) == 2
        assert capsys.readouterr().err == f"error: need 1 <= k < n=10, got k={k}\n"

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
    def test_zero_reps_rejected(self, tmp_path, capsys):
        assert run_cli("simulate", "--cell", "30,24,10", "--reps", "0",
                       "--out", str(tmp_path / "r.csv")) == 2
        capsys.readouterr()

    def test_reps_cap(self, tmp_path, capsys, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("run_suite called with too many reps")

        monkeypatch.setattr(cli, "run_suite", unreachable)
        too_many = MAX_REPS + 1
        assert run_cli("simulate", "--cell", "30,24,10", "--reps", str(too_many),
                       "--out", str(tmp_path / "r.csv")) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "reps" in err
        suite = tmp_path / "suite.json"
        suite.write_text(json.dumps([{"n": 30, "m": 24, "k": 10, "reps": too_many}]))
        assert run_cli("simulate", "--suite", str(suite),
                       "--out", str(tmp_path / "r.csv")) == 2
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("workers", ["-3", "5000"])
    def test_worker_count_bounded(self, tmp_path, capsys, monkeypatch, workers):
        def unreachable(*args, **kwargs):
            raise AssertionError("a child was forked or a rep was run")

        monkeypatch.setattr(os, "fork", unreachable)
        monkeypatch.setattr(harness, "_run_rep", unreachable)
        out = tmp_path / "r.csv"
        assert run_cli("simulate", "--cell", "30,24,12", "--reps", "5000",
                       "--workers", workers, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "workers" in err.lower()
        assert not out.exists()

    def test_malformed_cell(self, tmp_path, capsys):
        assert run_cli("simulate", "--cell", "30;24;10",
                       "--out", str(tmp_path / "r.csv")) == 2
        capsys.readouterr()

    def test_selector_required(self, tmp_path, capsys):
        assert run_cli("simulate", "--out", str(tmp_path / "r.csv")) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ["--builtin", "table2", "--cell", "30,24,12"],
        ["--cell", "30,24,12", "--suite", "suite.json"],
        ["--cell", "30,24"],
        ["--cell", "30,24,x"],
        ["--cell", "30,24,12", "--reps", "x"],
    ])
    def test_usage_error_is_one_line(self, tmp_path, capsys, nothing_runs, argv):
        out = tmp_path / "r.csv"
        assert run_cli("simulate", *argv, "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: argument --")
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_64_bits_before_any_rep(self, tmp_path, capsys, nothing_runs, seed):
        # Masked to 64 bits, -1 would alias 2**64 - 1 and 2**64 would alias 0.
        out = tmp_path / "r.csv"
        assert run_cli("simulate", "--cell", "30,24,12", "--reps", "3", "--seed", seed,
                       "--workers", "1", "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: base_seed must be a 64-bit unsigned integer, "
                                f"got {seed}\n")
        assert not out.exists()

    @pytest.mark.parametrize("selector", [["--builtin", "table2"], ["--suite", "SUITE"]])
    def test_seed_refused_as_itself_from_any_selector(self, tmp_path, capsys, nothing_runs,
                                                      selector):
        # The seed is checked where each cell is made; a suite file's cells
        # are not blamed for it.
        suite = tmp_path / "s.json"
        suite.write_text(json.dumps([{"n": 30, "m": 24, "k": 12}]))
        selector = [str(suite) if arg == "SUITE" else arg for arg in selector]
        out = tmp_path / "r.csv"
        assert run_cli("simulate", *selector, "--seed", "-1", "--workers", "1",
                       "--out", str(out)) == 2
        assert capsys.readouterr().err == (
            "error: base_seed must be a 64-bit unsigned integer, got -1\n")
        assert not out.exists()

    def test_inline_cell_csv(self, tmp_path, capsys):
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
        capsys.readouterr()

    def test_rerun_stable_modulo_timing(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run_cli("simulate", "--cell", "24,18,8", "--reps", "3",
                           "--out", str(out), "--workers", "1") == 0
        assert drop_timing(a.read_text()) == drop_timing(b.read_text())
        capsys.readouterr()

    def test_suite_spec_file(self, tmp_path, capsys):
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
        capsys.readouterr()

    @pytest.mark.parametrize("n, reps", [("1e400", "2"), ("30", "1e400"),
                                         ("30.7", "1"), ("30", "1.9"),
                                         ("30", "true"), ("30", '"2"')])
    def test_suite_number_overflow_rejected(self, tmp_path, capsys, n, reps):
        # JSON reads 1e400 as inf, which no int holds; int() would truncate
        # 30.7 to n = 30 and 1.9 to 1 rep, and read true as 1 and "2" as 2.
        suite = tmp_path / "suite.json"
        suite.write_text(f'[{{"n": {n}, "m": 24, "k": 10, "reps": {reps}}}]')
        out = tmp_path / "r.csv"
        assert run_cli("simulate", "--suite", str(suite), "--out", str(out),
                       "--workers", "1") == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "malformed suite cell" in err
        assert not out.exists()

    def test_suite_unknown_key_rejected(self, tmp_path, capsys):
        # A misspelt "reps" would otherwise fall back to --reps.
        suite = tmp_path / "suite.json"
        suite.write_text('[{"n": 30, "m": 24, "k": 10, "rep": 3}]')
        out = tmp_path / "r.csv"
        assert run_cli("simulate", "--suite", str(suite), "--out", str(out),
                       "--workers", "1") == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "malformed suite cell" in err
        assert "unknown key 'rep'" in err
        assert not out.exists()

    def test_suite_integral_float_accepted(self, tmp_path, capsys):
        suite = tmp_path / "suite.json"
        suite.write_text('[{"n": 30.0, "m": 24, "k": 10, "reps": 1.0}]')
        out = tmp_path / "r.csv"
        assert run_cli("simulate", "--suite", str(suite), "--out", str(out),
                       "--workers", "1") == 0
        assert out.read_text().splitlines()[1].startswith("30,24,10,1,")
        capsys.readouterr()

    @pytest.mark.parametrize("content", [b'[{"n": 30, "m": 24, "k": 10}\xe9]',
                                         b"[" * 100_000],
                             ids=["not-utf8", "nested-too-deep"])
    def test_undecodable_suite_is_one_line(self, tmp_path, capsys, nothing_runs, content):
        suite = tmp_path / "suite.json"
        suite.write_bytes(content)
        out = tmp_path / "r.csv"
        assert run_cli("simulate", "--suite", str(suite), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [err.strip()]
        assert err.startswith(f"error: cannot read suite spec {str(suite)!r}: ")
        assert not out.exists()

    def test_unreadable_suite(self, tmp_path, capsys):
        assert run_cli("simulate", "--suite", str(tmp_path / "missing.json"),
                       "--out", str(tmp_path / "r.csv")) == 2
        bad = tmp_path / "bad.json"
        bad.write_text('{"not": "a list"}')
        assert run_cli("simulate", "--suite", str(bad),
                       "--out", str(tmp_path / "r.csv")) == 2
        capsys.readouterr()


class TestUnwritableOutput:
    """An output path that cannot be written exits 2 with one stderr line."""

    def assert_one_line(self, capsys, path):
        err = capsys.readouterr().err
        assert err.splitlines() == [err.strip()] and f"cannot write {str(path)!r}" in err

    def test_curves_missing_directory(self, tmp_path, capsys):
        out = tmp_path / "missing" / "c.csv"
        assert run_cli("curves", "--grid", "0.5:0.5:0.1", "--out", str(out)) == 2
        self.assert_one_line(capsys, out)

    def test_curves_out_is_directory(self, tmp_path, capsys):
        assert run_cli("curves", "--grid", "0.5:0.5:0.1", "--out", str(tmp_path)) == 2
        self.assert_one_line(capsys, tmp_path)
        assert list(tmp_path.iterdir()) == []  # the temp file is gone

    def test_simulate_missing_directory_before_any_rep(self, tmp_path, capsys, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("a rep ran before the output path was checked")

        monkeypatch.setattr(harness, "_run_rep", unreachable)
        out = tmp_path / "missing" / "r.csv"
        assert run_cli("simulate", "--cell", "30,24,10", "--reps", "1",
                       "--workers", "1", "--out", str(out)) == 2
        self.assert_one_line(capsys, out)

    def test_simulate_unwritable_directory_before_any_rep(self, tmp_path, capsys,
                                                          monkeypatch):
        # Permission bits do not bind root, so the refusal is simulated.
        def unreachable(*args, **kwargs):
            raise AssertionError("a rep ran before the output path was checked")

        access = os.access
        locked = tmp_path / "locked"
        locked.mkdir()
        monkeypatch.setattr(os, "access", lambda path, mode, **kwargs: (
            path != str(locked) and access(path, mode, **kwargs)))
        monkeypatch.setattr(harness, "_run_rep", unreachable)
        out = locked / "r.csv"
        assert run_cli("simulate", "--cell", "30,24,10", "--reps", "1",
                       "--workers", "1", "--out", str(out)) == 2
        self.assert_one_line(capsys, out)
        assert list(locked.iterdir()) == []

    def test_curves_bad_svg_writes_no_csv(self, tmp_path, capsys, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("the curves were solved before the paths were checked")

        monkeypatch.setattr(cli, "emit_curves", unreachable)
        out, svg = tmp_path / "c.csv", tmp_path / "missing" / "c.svg"
        assert run_cli("curves", "--grid", "0.5:0.5:0.1", "--out", str(out),
                       "--svg", str(svg)) == 2
        self.assert_one_line(capsys, svg)
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["curves", "--out", ""],
        ["curves", "--out", "OUT", "--svg", ""],
        ["simulate", "--cell", "30,24,10", "--reps", "1", "--workers", "1", "--out", ""],
        ["tau", "--n", "30", "--m", "24", "--k", "12", "--emit-certificate", ""],
        ["certify", "--matrix", "M", "--k", "1", "--emit-certificate", ""],
    ], ids=["curves-out", "curves-svg", "simulate", "tau", "certify"])
    def test_empty_path_before_any_work(self, tmp_path, capsys, monkeypatch, nothing_runs,
                                        argv):
        def unreachable(*args, **kwargs):
            raise AssertionError("the curves were solved before the paths were checked")

        monkeypatch.setattr(cli, "emit_curves", unreachable)
        mat = tmp_path / "m.csv"
        mat.write_text("2,1\n")
        paths = {"OUT": str(tmp_path / "c.csv"), "M": str(mat)}
        assert run_cli(*[paths.get(a, a) for a in argv]) == 2
        self.assert_one_line(capsys, "")
        assert [p.name for p in tmp_path.iterdir()] == ["m.csv"]

    def test_tau_certificate_missing_directory(self, tmp_path, capsys, nothing_runs):
        cert = tmp_path / "missing" / "c.json"
        assert run_cli("tau", "--n", "30", "--m", "24", "--k", "12", "--seed", "0",
                       "--emit-certificate", str(cert)) == 2
        self.assert_one_line(capsys, cert)

    def test_certify_certificate_missing_directory(self, tmp_path, capsys, nothing_runs):
        mat = tmp_path / "m.csv"
        mat.write_text("2,1\n")
        cert = tmp_path / "missing" / "c.json"
        assert run_cli("certify", "--matrix", str(mat), "--k", "1",
                       "--emit-certificate", str(cert)) == 2
        self.assert_one_line(capsys, cert)


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

    def test_ragged_rows(self, tmp_path, capsys):
        mat = tmp_path / "m.csv"
        mat.write_text("1,2,3\n4,5\n6,7,8\n")
        assert run_cli("certify", "--matrix", str(mat), "--k", "1") == 2
        capsys.readouterr()

    def test_blank_lines_skipped(self, tmp_path):
        mat = tmp_path / "m.csv"
        mat.write_text("\n1,2,3\n\n  \n4,5,6\n\n")
        A = cli._read_matrix_csv(str(mat))
        assert A.tolist() == [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]

    @pytest.mark.parametrize("text", ["# comment\n1,2,3\n", "1,2,3,\n4,5,6,\n",
                                      "a,b,c\n1,2,3\n", "1,2,3\n4,5\n", "",
                                      "\n \n"])
    def test_malformed_matrix_is_one_line(self, tmp_path, capsys, nothing_runs, text):
        mat = tmp_path / "m.csv"
        mat.write_text(text)
        assert run_cli("certify", "--matrix", str(mat), "--k", "1") == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [err.strip()] and err.startswith("error: ")

    @pytest.mark.parametrize("row, why", [
        ("4,x,6", "line 2 has an entry that is not a number"),
        ("4,5", "line 2 has 2 entries, line 1 has 3"),
    ])
    def test_malformed_row_names_its_line(self, tmp_path, capsys, nothing_runs, row, why):
        mat = tmp_path / "m.csv"
        mat.write_text(f"\n1,2,3\n\n{row}\n7,8,9\n")
        assert run_cli("certify", "--matrix", str(mat), "--k", "1") == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [err.strip()] and err.strip().endswith(why)

    def test_matrix_not_utf8_is_one_line(self, tmp_path, capsys, nothing_runs):
        mat = tmp_path / "m.csv"
        mat.write_bytes(b"2,1\n1,\xe9\n")
        assert run_cli("certify", "--matrix", str(mat), "--k", "1") == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [err.strip()]
        assert err.startswith(f"error: cannot read matrix file {str(mat)!r}: ")

    def test_not_wide_rejected(self, tmp_path, capsys):
        mat = tmp_path / "m.csv"
        mat.write_text("1,2\n3,4\n")
        assert run_cli("certify", "--matrix", str(mat), "--k", "1") == 2
        capsys.readouterr()

    @pytest.mark.parametrize("k", ["-1", "0", "3"])
    def test_k_outside_block_range_rejected(self, tmp_path, capsys, monkeypatch, k):
        def unreachable(*args, **kwargs):
            raise AssertionError("the matrix was factored")

        monkeypatch.setattr(tau, "null_projector", unreachable)
        mat = tmp_path / "m.csv"
        mat.write_text("1,2,3\n")
        assert run_cli("certify", "--matrix", str(mat), "--k", k) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [err.strip()] and "k" in err

    def test_rank_deficient(self, tmp_path, capsys):
        mat = tmp_path / "m.csv"
        mat.write_text("1,2,3\n2,4,6\n")
        assert run_cli("certify", "--matrix", str(mat), "--k", "1") == 3
        capsys.readouterr()

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_entry_rejected(self, tmp_path, capsys, bad):
        A = np.random.default_rng(3).standard_normal((5, 12))
        rows = [[repr(float(v)) for v in row] for row in A]
        rows[2][7] = bad
        mat = tmp_path / "m.csv"
        mat.write_text("".join(",".join(row) + "\n" for row in rows))
        assert run_cli("certify", "--matrix", str(mat), "--k", "2") == 2
        err = capsys.readouterr().err
        assert err.splitlines() == ["error: non-finite entry on line 3"]

    def test_missing_file(self, tmp_path, capsys):
        assert run_cli("certify", "--matrix", str(tmp_path / "nope.csv"),
                       "--k", "1") == 2
        capsys.readouterr()


def test_entry_point_resolves_to_main(tmp_path, monkeypatch, capsys):
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
    capsys.readouterr()


@pytest.mark.skipif(shutil.which("secthresh") is None,
                    reason="console script not on PATH")
def test_console_entry_point(tmp_path):
    out = tmp_path / "c.csv"
    proc = subprocess.run(["secthresh", "curves", "--grid", "0.5:0.5:0.1",
                           "--out", str(out)], capture_output=True, text=True)
    assert proc.returncode == 0
    assert out.exists()
