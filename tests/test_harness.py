import hashlib
import multiprocessing
import os
import time

import numpy as np
import pytest

import secthresh.harness as harness
import secthresh.tau as tau
from secthresh import (CellResult, CellSpec, NumericalError,
                       ProblemShape, RepRecord, Verdict, builtin_suite,
                       builtin_tables, derive_rep_seed, estimate_failure,
                       paper_rate, run_suite, sample_gaussian_matrix)

from conftest import AVX2_HOST, CPU_FEATURES, drop_timing, run_child
from test_api import add_refusal_tests


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
        suite = builtin_suite("table1", reps=5, base_seed=3)
        assert len(suite) == 30
        assert all(spec.reps == 5 and spec.base_seed == 3 for spec in suite)


class TestCellSpec:
    def test_numpy_integers_accepted(self):
        spec = CellSpec(n=np.int64(30), m=np.int32(20), k=np.int16(5), reps=np.uint8(1))
        assert run_suite([spec])[0].per_rep[0].seed == derive_rep_seed(0, 0)


class TestRunCell:
    def test_single_rep(self):
        res = run_suite([CellSpec(n=30, m=24, k=10, reps=1)])[0]
        assert len(res.per_rep) == 1
        assert res.failures in (0, 1)
        assert res.per_rep[0].seed == derive_rep_seed(0, 0)

    def test_deterministic_across_workers(self):
        spec = CellSpec(n=40, m=20, k=8, reps=4, base_seed=11)
        serial = run_suite([spec], workers=1)[0]
        parallel = run_suite([spec], workers=2)[0]
        assert serial.failures == parallel.failures
        for a, b in zip(serial.per_rep, parallel.per_rep):
            assert a.seed == b.seed
            assert a.verdict == b.verdict
            assert a.flips == b.flips

    def test_rate_and_means(self):
        res = run_suite([CellSpec(n=30, m=24, k=12, reps=3)])[0]
        assert res.rate == res.failures / 3
        assert res.mean_seconds >= 0.0
        # Deep failure regime: alpha = 0.8, beta = 0.4 is far above every
        # threshold curve, so all reps should certify.
        assert all(r.verdict is Verdict.CertifiedFailure for r in res.per_rep)

    def test_errored_reps_counted(self, monkeypatch):
        def broken(P, k):
            raise NumericalError("forced")

        monkeypatch.setattr(harness, "_search_checked", broken)
        res = run_suite([CellSpec(n=30, m=24, k=10, reps=3)])[0]
        assert res.errors == 3
        assert res.failures == 0
        for rec in res.per_rep:
            assert rec.error == "NumericalError: forced"
            assert rec.verdict is Verdict.NotCertified
        assert res.mean_flips == 0.0 and res.mean_seconds == 0.0

    def test_means_skip_errored_reps(self, monkeypatch):
        spec = CellSpec(n=30, m=24, k=12, reps=2)
        clean = run_suite([spec])[0].per_rep[1]
        original = harness._search_checked
        calls = []

        def first_rep_breaks(P, k):
            calls.append(P)
            if len(calls) == 1:
                raise NumericalError("forced")
            return original(P, k)

        monkeypatch.setattr(harness, "_search_checked", first_rep_breaks)
        res = run_suite([spec])[0]
        assert res.errors == 1 and res.per_rep[0].error
        assert res.per_rep[1].flips == clean.flips > 0
        assert res.mean_flips == clean.flips
        assert res.mean_seconds == res.per_rep[1].seconds
        # rate still counts every rep, errored ones included.
        assert res.rate == res.failures / 2

    def test_wall_clock_recorded(self):
        # A rep that did not error is timed around its factorization and search.
        [rec] = run_suite([CellSpec(n=30, m=20, k=8, reps=1, base_seed=2)])[0].per_rep
        assert not rec.error and rec.seconds > 0.0

    def test_reference_rate_joined(self):
        res = run_suite([CellSpec(n=400, m=80, k=10, reps=1)])[0]
        assert res.paper_reference_rate == pytest.approx(0.0)
        assert res.per_rep[0].verdict is Verdict.NotCertified


def test_unconverged_solves_recorded_per_rep(monkeypatch):
    spec = CellSpec(n=30, m=20, k=8, reps=3, base_seed=2)
    assert [r.unconverged_solves for r in run_suite([spec])[0].per_rep] == [0, 0, 0]
    # Capped at 3 iterations, every rep's search has unconverged solves, and
    # each rep carries its own count, from any worker.
    monkeypatch.setattr(tau, "MAX_ITERATIONS", 3)
    want = [estimate_failure(sample_gaussian_matrix(ProblemShape(n=30, m=20, k=8), seed),
                             8).unconverged_solves
            for seed in (derive_rep_seed(2, r) for r in range(3))]
    assert min(want) > 0
    for workers in (1, 2):
        assert [r.unconverged_solves for r in run_suite([spec], workers)[0].per_rep] == want


def test_cell_counts_derived_from_reps():
    spec = CellSpec(n=800, m=80, k=14, reps=3)
    reps = (RepRecord(seed=1, verdict=Verdict.CertifiedFailure, flips=4, seconds=0.5),
            RepRecord(seed=2, verdict=Verdict.NotCertified, flips=0, seconds=0.0,
                      error="NumericalError: forced"),
            RepRecord(seed=3, verdict=Verdict.NotCertified, flips=10, seconds=1.5))
    cell = CellResult(spec=spec, per_rep=reps)
    assert (cell.failures, cell.errors) == (1, 1)
    assert cell.rate == pytest.approx(1 / 3)
    assert cell.mean_flips == 7.0 and cell.mean_seconds == 1.0
    assert cell.paper_reference_rate == paper_rate(800, 80, 14) == pytest.approx(0.99)
    with pytest.raises(AttributeError):
        cell.per_rep = ()


def _table2_csv_sha(tmp_path, env=None):
    """sha256 of the table2 CSV at 2 reps and seed 0 without mean_seconds."""
    out = tmp_path / "t2.csv"
    run_child("-m", "secthresh.cli", "simulate", "--builtin", "table2", "--reps", "2",
              "--seed", "0", "--workers", "2", "--out", str(out), blas_threads=1, env=env)
    stable = "".join(line + "\n" for line in drop_timing(out.read_text()))
    return hashlib.sha256(stable.encode()).hexdigest()


TABLE2_CSV_SHA = "1ce0e3aa604df19b64131f85d543be358006212f8f74e8abc1fcd08a7cbce9f5"


def test_table2_csv_pinned(tmp_path):
    # The harness half of the fixed-seed contract: the table2 CSV at 2 reps
    # and seed 0, every column but mean_seconds, byte for byte.
    assert _table2_csv_sha(tmp_path) == TABLE2_CSV_SHA


def test_table2_csv_pinned_on_an_avx2_host(tmp_path):
    # The CSV holds verdicts and flip counts, not bits, and those do not move
    # with the CPU class although the sampled bits and the BLAS kernels do.
    if not CPU_FEATURES.get("AVX2"):
        pytest.skip("this host cannot run AVX2 kernels")
    assert _table2_csv_sha(tmp_path, env=AVX2_HOST) == TABLE2_CSV_SHA


def test_run_suite_empty():
    assert run_suite([]) == []


def test_run_suite_order_preserved():
    cells = [CellSpec(n=24, m=18, k=9, reps=1),
             CellSpec(n=30, m=24, k=12, reps=1)]
    results = run_suite(cells)
    assert [r.spec for r in results] == cells


# Shapes, rep counts and base seeds all differ between cells, so a rep that
# landed in the wrong cell would change a seed or a count.
MIXED_SUITE = [CellSpec(n=30, m=24, k=12, reps=2, base_seed=1),
               CellSpec(n=40, m=20, k=8, reps=3, base_seed=11),
               CellSpec(n=24, m=18, k=9, reps=1, base_seed=5)]


@pytest.fixture
def forks(monkeypatch):
    """The pid of every child forked while the test runs."""
    pids = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return pids


def rep_fields(results):
    return [[(r.seed, r.verdict, r.flips, r.error) for r in res.per_rep]
            for res in results]


def cell_fields(results):
    return [(res.spec, res.failures, res.errors, res.paper_reference_rate)
            for res in results]


def test_run_suite_takes_a_generator():
    cells = [CellSpec(n=24, m=18, k=k, reps=1) for k in (5, 9)]
    from_list = run_suite(cells)
    from_generator = run_suite(spec for spec in cells)
    assert cell_fields(from_generator) == cell_fields(from_list)
    assert rep_fields(from_generator) == rep_fields(from_list)


def test_suite_on_one_pool_identical_across_workers(forks):
    serial = run_suite(MIXED_SUITE, workers=1)
    assert forks == []
    parallel = run_suite(MIXED_SUITE, workers=2)
    assert len(forks) == 1  # one child for all three cells, beside the caller
    assert rep_fields(serial) == rep_fields(parallel)
    assert cell_fields(serial) == cell_fields(parallel)
    assert [len(res.per_rep) for res in parallel] == [2, 3, 1]
    assert [r.seed for r in parallel[1].per_rep] == [derive_rep_seed(11, i) for i in range(3)]


def test_more_workers_than_tasks(forks):
    cells = MIXED_SUITE[:1]
    parallel = run_suite(cells, workers=8)
    assert len(forks) == 1  # two processes for the two reps: the caller and a child
    assert rep_fields(parallel) == rep_fields(run_suite(cells))
    # A single rep needs no child at all.
    run_suite([MIXED_SUITE[2]], workers=8)
    assert len(forks) == 1


def test_caller_runs_reps_beside_its_children(monkeypatch):
    # A child may run a rep only once the caller has finished one, so the
    # test passes whatever the scheduling, and fails if the caller only waits.
    caller = os.getpid()
    caller_done = multiprocessing.get_context("fork").Event()
    caller_seeds = []
    run_rep = harness._run_rep

    def gated(task):
        if os.getpid() != caller:
            assert caller_done.wait(timeout=120), "the caller ran no rep"
            return run_rep(task)
        record = run_rep(task)
        caller_seeds.append(record.seed)
        caller_done.set()
        return record

    monkeypatch.setattr(harness, "_run_rep", gated)
    two = run_suite(MIXED_SUITE, workers=2)
    assert caller_seeds
    monkeypatch.setattr(harness, "_run_rep", run_rep)
    serial = run_suite(MIXED_SUITE, workers=1)
    assert rep_fields(two) == rep_fields(serial) == rep_fields(run_suite(MIXED_SUITE, workers=3))
    assert cell_fields(two) == cell_fields(serial)


def _child_reps_do(monkeypatch, child, caller=None):
    """A child calls child() in place of each rep it takes.  The caller waits
    at its first rep until a child has taken one, then calls caller(), if
    given, and runs its reps."""
    caller_pid = os.getpid()
    child_took_rep = multiprocessing.get_context("fork").Event()
    run_rep = harness._run_rep

    def gated(task):
        if os.getpid() != caller_pid:
            child_took_rep.set()
            return child()
        assert child_took_rep.wait(timeout=120), "no child took a rep"
        if caller is not None:
            caller()
        return run_rep(task)

    monkeypatch.setattr(harness, "_run_rep", gated)


def _raise(exc):
    raise exc


def test_dead_child_raises_child_process_error(monkeypatch):
    _child_reps_do(monkeypatch, lambda: os._exit(1))
    with pytest.raises(ChildProcessError, match="exited with status 1 and no result"):
        run_suite(MIXED_SUITE, workers=2)


def test_child_exception_keeps_its_type(monkeypatch):
    # Only library errors become a rep's error; any other exception in a
    # child reaches the caller as itself.
    _child_reps_do(monkeypatch, lambda: _raise(LookupError("in a child")))
    with pytest.raises(LookupError, match="in a child"):
        run_suite(MIXED_SUITE, workers=2)


class Unpicklable(Exception):
    def __reduce__(self):
        raise TypeError("cannot pickle this")


def test_unpicklable_child_exception_keeps_its_repr(monkeypatch):
    _child_reps_do(monkeypatch, lambda: _raise(Unpicklable("held a lock")))
    with pytest.raises(ChildProcessError, match=r"Unpicklable\('held a lock'\)"):
        run_suite(MIXED_SUITE, workers=2)


@pytest.fixture
def reaps(monkeypatch, forks):
    """The pids reaped through os.waitpid, hooked as bench/simulate.py hooks
    it, while the test runs; forks lists the pids forked."""
    pids = []

    def waitpid(pid, options):
        got, status, _usage = os.wait4(pid, options)
        if got:
            pids.append(got)
        return got, status

    monkeypatch.setattr(os, "waitpid", waitpid)
    return pids


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_every_child_forked_and_reaped_through_os(monkeypatch, forks, reaps):
    # A memory probe that hooks os.fork and os.waitpid sees every child of a
    # suite, and none is left once run_suite returns or raises.
    assert rep_fields(run_suite(MIXED_SUITE, workers=3)) == rep_fields(run_suite(MIXED_SUITE))
    assert len(forks) == 2 and sorted(reaps) == sorted(forks)
    assert_no_child_left()
    # A child dies; a child raises; the caller raises while its children
    # are still busy, and they are killed.
    for child, caller, raised in [(lambda: os._exit(1), None, ChildProcessError),
                                  (lambda: _raise(SystemExit(3)), None, SystemExit),
                                  (lambda: time.sleep(120), lambda: _raise(KeyError("caller")),
                                   KeyError)]:
        forks.clear(), reaps.clear()
        _child_reps_do(monkeypatch, child, caller)
        with pytest.raises(raised):
            run_suite(MIXED_SUITE, workers=3)
        assert len(forks) == 2 and sorted(reaps) == sorted(forks)
        assert_no_child_left()


# Rep j of the second, fourth and last cell draws one instance: the fourth
# is not next to the second, and the last repeats the second.  The first,
# of one rep, has the same base seed, so its rep seed is theirs for rep 0,
# but another (n, m); the third has their (n, m) and another base seed.
SHARED_SUITE = [CellSpec(n=24, m=18, k=8, reps=1, base_seed=4),
                CellSpec(n=30, m=20, k=7, reps=3, base_seed=4),
                CellSpec(n=30, m=20, k=8, reps=3, base_seed=7),
                CellSpec(n=30, m=20, k=5, reps=2, base_seed=4),
                CellSpec(n=30, m=20, k=7, reps=3, base_seed=4)]


def test_reps_sharing_an_instance_keep_their_results(count_calls):
    want = []
    for spec in SHARED_SUITE:
        seeds = [derive_rep_seed(spec.base_seed, r) for r in range(spec.reps)]
        outcomes = [estimate_failure(sample_gaussian_matrix(
            ProblemShape(n=spec.n, m=spec.m, k=spec.k), seed), spec.k) for seed in seeds]
        want.append([(seed, out.verdict, out.flips_evaluated, out.unconverged_solves)
                     for seed, out in zip(seeds, outcomes)])
    assert {v for cell in want for _, v, _, _ in cell} == set(Verdict)
    calls = count_calls(harness, "null_projector")
    for workers in (1, 2, 3):
        results = run_suite(SHARED_SUITE, workers)
        assert [res.spec for res in results] == SHARED_SUITE
        assert [[(r.seed, r.verdict, r.flips, r.unconverged_solves) for r in res.per_rep]
                for res in results] == want
        if workers == 1:
            # One factorization for each distinct (n, m, seed): 1 + 3 + 3.
            assert calls["null_projector"] == 7


def test_factorization_error_reaches_every_rep_sharing_it(monkeypatch):
    bad_seed = derive_rep_seed(4, 0)
    bad = sample_gaussian_matrix(ProblemShape(n=30, m=20, k=1), bad_seed).A
    factor = harness.null_projector

    def failing(A):
        if A.shape == bad.shape and np.array_equal(A, bad):
            raise NumericalError("forced")
        return factor(A)

    clean = run_suite(SHARED_SUITE)
    monkeypatch.setattr(harness, "null_projector", failing)
    for workers in (1, 2):
        results = run_suite(SHARED_SUITE, workers)
        hit = 0
        for res, ok in zip(results, clean):
            for r, r_ok in zip(res.per_rep, ok.per_rep):
                if (res.spec.n, r.seed) == (30, bad_seed):
                    hit += 1
                    assert (r.error, r.verdict, r.flips, r.seconds) == (
                        "NumericalError: forced", Verdict.NotCertified, 0, 0.0)
                else:
                    assert not r.error
                    assert (r.seed, r.verdict, r.flips) == (r_ok.seed, r_ok.verdict, r_ok.flips)
        assert hit == 3  # rep 0 of the second, fourth and last cell


def test_no_instance_cached_after_a_suite(monkeypatch):
    # The cache holds at most one instance a process, and only while
    # run_suite runs, whether it returns or raises.
    run_suite(SHARED_SUITE[:2])
    assert harness._cached is None
    monkeypatch.setattr(harness, "_search_checked", lambda P, k: _raise(KeyError("search")))
    with pytest.raises(KeyError, match="search"):
        run_suite(SHARED_SUITE[:2])
    assert harness._cached is None


def test_shared_index_hands_out_each_rep_once():
    # Many cheap reps on more processes than cores: an index taken twice or
    # skipped would drop, repeat or shift a rep against the serial run.
    cells = [CellSpec(n=8, m=5, k=2, reps=30, base_seed=s) for s in range(4)]
    assert rep_fields(run_suite(cells, workers=5)) == rep_fields(run_suite(cells))


def test_worker_cap_itself_accepted(monkeypatch):
    monkeypatch.setattr(os, "fork", None)
    # One task needs no child, whatever the cap allows.
    [cell] = run_suite([CellSpec(n=24, m=18, k=9, reps=1)], workers=harness.MAX_WORKERS)
    assert len(cell.per_rep) == 1


def test_import_loads_neither_sampler_nor_pool():
    # No process loads numpy.random (test_sampling_and_pool_never_load_numpy_random),
    # and none loads the standard process pool (test_parallel_suite_loads_no_pool_modules).
    code = ("import sys, secthresh; "
            "print([m for m in ('numpy.random', 'concurrent.futures', 'multiprocessing') "
            "if m in sys.modules])")
    assert run_child("-c", code) == "[]"


def test_sampling_and_pool_never_load_numpy_random():
    # The Philox stream is computed in numpy integer arithmetic, so neither a
    # sample nor a two-process suite, whose child forks from this process,
    # loads numpy.random.
    code = ("import sys; "
            "from secthresh import CellSpec, ProblemShape, run_suite, sample_gaussian_matrix; "
            "sample_gaussian_matrix(ProblemShape(n=30, m=12, k=3), 5); "
            "[cell] = run_suite([CellSpec(n=24, m=18, k=9, reps=2)], workers=2); "
            "assert len(cell.per_rep) == 2; "
            "print('numpy.random' in sys.modules)")
    assert run_child("-c", code) == "False"


def test_parallel_suite_loads_no_pool_modules():
    # The pool is os.fork and pipes: a suite on two processes loads neither
    # concurrent.futures nor multiprocessing, whose pages every child would
    # also hold.
    code = ("import sys; "
            "from secthresh import CellSpec, run_suite; "
            "[cell] = run_suite([CellSpec(n=24, m=18, k=9, reps=2)], workers=2); "
            "assert len(cell.per_rep) == 2; "
            "print([m for m in sys.modules "
            "if m.split('.')[0] in ('concurrent', 'multiprocessing')])")
    assert run_child("-c", code) == "[]"


BLAS_THREADS_CODE = """
import dataclasses, multiprocessing, os
import secthresh.harness as harness
from secthresh import CellSpec, run_suite
from secthresh._blas import thread_functions

getters = [get for get, _ in thread_functions()]
if not getters:
    raise SystemExit(print("no setter"))
threads = getters[0]
caller, child_ran = os.getpid(), multiprocessing.get_context("fork").Event()
run_rep = harness._run_rep

def traced(task):
    # The caller's first rep waits for a child's, so both run at least one.
    if os.getpid() == caller:
        assert child_ran.wait(timeout=120), "no child ran a rep"
    record = run_rep(task)
    child_ran.set()
    where = "caller" if os.getpid() == caller else "child"
    return dataclasses.replace(record, error=f"{where}:{threads()}")

def raising(task):
    raise RuntimeError("a rep that raises")

before = threads()
harness._run_rep = traced
[cell] = run_suite([CellSpec(n=24, m=18, k=9, reps=4)], workers=2)
after = threads()
harness._run_rep = raising
try:
    run_suite([CellSpec(n=24, m=18, k=9, reps=1)])
except RuntimeError:
    pass
print(before == after == threads(), sorted({r.error for r in cell.per_rep}))
"""


def test_reps_run_on_one_blas_thread(monkeypatch):
    # Left unset, OpenBLAS runs a thread a core in every process, so the
    # processes of a suite oversubscribe the cores.  run_suite runs the
    # caller's reps and its children's on one thread, and then gives the
    # caller back its count, also after a rep raised.
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    out = run_child("-c", BLAS_THREADS_CODE)
    if out == "no setter":
        pytest.skip("no OpenBLAS thread-count setter in this process")
    assert out == "True ['caller:1', 'child:1']"


add_refusal_tests(globals())  # this module's rows of the refusal table
