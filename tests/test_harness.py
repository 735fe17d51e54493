import os
import subprocess
import sys
from pathlib import Path

import pytest

import secthresh
import secthresh.harness as harness
from secthresh import (DEFAULT_OPTIONS, CellSpec, DomainError, NumericalError,
                       Verdict, builtin_suite, builtin_tables, derive_rep_seed,
                       paper_rate, run_cell, run_suite)


class TestBuiltinTables:
    def test_reference_lookups(self):
        tables = builtin_tables()
        assert tables[(800, 80, 14)] == (99, 100)
        assert tables[(300, 180, 51)] == (100, 100)
        assert (123, 45, 6) not in tables

    def test_rate_helper(self):
        assert paper_rate(800, 80, 14) == pytest.approx(0.99)
        assert paper_rate(123, 45, 6) is None

    def test_ragged_denominators_kept(self):
        tables = builtin_tables()
        assert tables[(400, 200, 44)] == (13, 57)
        assert tables[(400, 200, 40)] == (0, 14)
        assert tables[(400, 160, 30)] == (1, 27)
        assert tables[(300, 180, 44)] == (21, 99)
        assert tables[(200, 140, 34)] == (0, 31)
        assert tables[(200, 160, 48)] == (5, 28)
        assert tables[(200, 180, 66)] == (22, 57)

    def test_cell_counts(self):
        table1 = [key for key in builtin_tables() if key[0] in (400, 800)]
        table2 = [key for key in builtin_tables() if key[0] in (200, 300)]
        assert len(table1) == 30
        assert len(table2) == 24

    def test_suite_construction(self):
        suite = builtin_suite("table1", reps=5, base_seed=3)
        assert len(suite) == 30
        assert all(spec.reps == 5 and spec.base_seed == 3 for spec in suite)
        with pytest.raises(DomainError):
            builtin_suite("table3")


class TestCellSpec:
    def test_validation(self):
        with pytest.raises(DomainError):
            CellSpec(n=100, m=100, k=5, reps=1)
        with pytest.raises(DomainError):
            CellSpec(n=100, m=50, k=50, reps=1)
        with pytest.raises(DomainError):
            CellSpec(n=100, m=50, k=5, reps=0)


class TestRunCell:
    def test_single_rep(self):
        res = run_cell(CellSpec(n=30, m=24, k=10, reps=1), DEFAULT_OPTIONS)
        assert len(res.per_rep) == 1
        assert res.failures in (0, 1)
        assert res.per_rep[0].seed == derive_rep_seed(0, 0)

    def test_deterministic_across_workers(self):
        spec = CellSpec(n=40, m=20, k=8, reps=4, base_seed=11)
        serial = run_cell(spec, DEFAULT_OPTIONS, workers=1)
        parallel = run_cell(spec, DEFAULT_OPTIONS, workers=2)
        assert serial.failures == parallel.failures
        for a, b in zip(serial.per_rep, parallel.per_rep):
            assert a.seed == b.seed
            assert a.verdict == b.verdict
            assert a.flips == b.flips

    def test_rate_and_means(self):
        res = run_cell(CellSpec(n=30, m=24, k=12, reps=3), DEFAULT_OPTIONS)
        assert res.rate == res.failures / 3
        assert res.mean_seconds >= 0.0
        # Deep failure regime: alpha = 0.8, beta = 0.4 is far above every
        # threshold curve, so all reps should certify.
        assert all(r.verdict is Verdict.CertifiedFailure for r in res.per_rep)

    def test_errored_reps_counted(self, monkeypatch):
        def broken(instance, k, opts):
            raise NumericalError("forced")

        monkeypatch.setattr(harness, "estimate_failure", broken)
        res = run_cell(CellSpec(n=30, m=24, k=10, reps=3), DEFAULT_OPTIONS)
        assert res.errors == 3
        assert res.failures == 0
        for rec in res.per_rep:
            assert rec.errored and rec.verdict is Verdict.NotCertified
            assert rec.diagnostic == "NumericalError: forced"

    def test_reference_rate_joined(self):
        res = run_cell(CellSpec(n=400, m=80, k=10, reps=1), DEFAULT_OPTIONS)
        assert res.paper_reference_rate == pytest.approx(0.0)
        assert res.per_rep[0].verdict is Verdict.NotCertified


def test_run_suite_empty():
    assert run_suite([], DEFAULT_OPTIONS) == []


def test_run_suite_order_preserved():
    cells = [CellSpec(n=24, m=18, k=9, reps=1),
             CellSpec(n=30, m=24, k=12, reps=1)]
    results = run_suite(cells, DEFAULT_OPTIONS)
    assert [r.spec for r in results] == cells


def test_import_loads_neither_sampler_nor_pool():
    # numpy.random is loaded on the first sample and the process pool on the
    # first parallel cell, not by `import secthresh`.
    src = str(Path(secthresh.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    code = ("import sys, secthresh; "
            "print([m for m in ('numpy.random', 'concurrent.futures') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
