import json
import shutil
import subprocess

import numpy as np
import pytest

import secthresh.cli as cli
from secthresh import DomainError
from secthresh.cli import main


def run_cli(*argv):
    return main(list(argv))


def drop_timing(csv_text):
    # mean_seconds (the last column) is wall-clock and legitimately varies
    # between reruns; everything before it must be stable.
    return ["," .join(line.split(",")[:-1]) for line in csv_text.splitlines()]


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

    def test_malformed_cell(self, tmp_path, capsys):
        assert run_cli("simulate", "--cell", "30;24;10",
                       "--out", str(tmp_path / "r.csv")) == 2
        capsys.readouterr()

    def test_selector_required(self, tmp_path, capsys):
        assert run_cli("simulate", "--out", str(tmp_path / "r.csv")) == 2
        capsys.readouterr()

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

    def test_unreadable_suite(self, tmp_path, capsys):
        assert run_cli("simulate", "--suite", str(tmp_path / "missing.json"),
                       "--out", str(tmp_path / "r.csv")) == 2
        bad = tmp_path / "bad.json"
        bad.write_text('{"not": "a list"}')
        assert run_cli("simulate", "--suite", str(bad),
                       "--out", str(tmp_path / "r.csv")) == 2
        capsys.readouterr()


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

    def test_not_wide_rejected(self, tmp_path, capsys):
        mat = tmp_path / "m.csv"
        mat.write_text("1,2\n3,4\n")
        assert run_cli("certify", "--matrix", str(mat), "--k", "1") == 2
        capsys.readouterr()

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


@pytest.mark.skipif(shutil.which("secthresh") is None,
                    reason="console script not on PATH")
def test_console_entry_point(tmp_path):
    out = tmp_path / "c.csv"
    proc = subprocess.run(["secthresh", "curves", "--grid", "0.5:0.5:0.1",
                           "--out", str(out)], capture_output=True, text=True)
    assert proc.returncode == 0
    assert out.exists()
