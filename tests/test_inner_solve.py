"""The inner solve loop: bit identity of the compiled loop with the numpy
loop, on two OpenBLAS cores, the compiled loop's refusal of an M it cannot
read, and the compiled loop taken wherever a compiler is; the early stop below
a bound; and pins of the search: its call sequence on four small instances,
on either loop, its outcomes per rep on table1 and table2, and the
certificate the `tau` command writes for one cell, on either loop."""

import dataclasses
import hashlib
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
import sysconfig
import types

import numpy as np
import pytest

import secthresh.tau as tau
from conftest import CPU_FEATURES, TESTS, pinned_on, projector, run_child
from secthresh import (ProblemShape, _blas, bit_flip_search, builtin_suite, derive_rep_seed,
                       dual_distance, estimate_failure, sample_gaussian_matrix)
from test_api import add_refusal_tests


def _assert_same_bits(M, c, x0, stop_below=None):
    """The compiled loop's solve equals the numpy loop's, bit for bit."""
    if _blas.box_lsq_kernel() is None:
        pytest.skip("no compiled loop on this host")
    x_ref, *flags = tau._box_lsq_numpy(M, c, x0, stop_below)
    x, *got = tau._box_lsq(M, c, x0, stop_below)
    assert x.tobytes() == x_ref.tobytes()
    assert got == flags
    return flags


class TestLoopBitIdentity:
    # (400,120) is a table1 shape; (200,180) and (300,180) are table2 shapes.
    @pytest.mark.parametrize("n, m, k, seed", [(400, 120, 21, 0), (200, 180, 66, 0),
                                               (300, 180, 44, 1)])
    def test_search_solves(self, count_calls, n, m, k, seed):
        calls = count_calls(tau, "_box_lsq")
        bit_flip_search(projector(n, m, k, seed), k)
        assert len(calls.log) >= 25
        # The first solve is cold; the rest start warm from an incumbent head.
        for solve in calls.log[:25]:
            M, c, x0, _ = solve.args.values()
            _assert_same_bits(M, c, x0)

    @pytest.mark.parametrize("n, m, k, seed, stopped, bounded", [(200, 180, 66, 0, 229, 230),
                                                                  (400, 120, 21, 2, 34, 34)])
    def test_stop_below_solves(self, count_calls, n, m, k, seed, stopped, bounded):
        # Every solve the search bounds; at (200,180,66) one of them runs to
        # its fixed point all the same.
        calls = count_calls(tau, "_box_lsq")
        bit_flip_search(projector(n, m, k, seed), k)
        inputs = [solve.args for solve in calls.log if solve.args["stop_below"] is not None]
        solves = [_assert_same_bits(**args) for args in inputs]
        assert (sum(flags[2] for flags in solves), len(solves)) == (stopped, bounded)

    def test_restart_heavy_cases(self, monkeypatch, count_calls):
        # The loop takes sqrt only on a momentum step, so the iterations that
        # did not call it are restarts.
        monkeypatch.setattr(tau, "math", types.SimpleNamespace(sqrt=math.sqrt))
        calls = count_calls(tau.math, "sqrt")
        iterations = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            size = int(rng.integers(2, 30))
            M = np.diag(rng.uniform(0.01, 1.0, size))
            c = rng.standard_normal(size)
            x0 = rng.choice([-1.0, 1.0], size)  # a corner start
            iterations += _assert_same_bits(M, c, x0)[0]
        restarts = iterations - calls["sqrt"]
        assert restarts >= 150  # 166 of 2,970 steps restart

    @pytest.mark.parametrize("cap", [30, 25])
    def test_iteration_cap(self, monkeypatch, count_calls, cap):
        calls = count_calls(tau, "_box_lsq")
        bit_flip_search(projector(400, 120, 21, 0), 21)
        M, c, x0, _ = calls.log[0].args.values()
        monkeypatch.setattr(tau, "MAX_ITERATIONS", cap)
        assert _assert_same_bits(M, c, x0) == [cap, False, False]

    # (300,180) is a table2 shape whose basis rows are padded (300 % 8 = 4),
    # (400,80) a table1 shape whose rows are not.  Each copy of the bases is
    # given as (offset of its first row past a 64-byte boundary, padded rows).
    @pytest.mark.parametrize("n, m, k, seed", [(300, 180, 44, 1), (400, 80, 13, 0)])
    def test_search_bits_independent_of_basis_layout(self, n, m, k, seed):
        P = projector(n, m, k, seed)
        want = _outcome_bits(bit_flip_search(P, k))
        for offset, padded in ((8, True), (16, True), (32, True), (0, False)):
            relaid = dataclasses.replace(P, Dperp=_relaid(P.Dperp, offset, padded),
                                         rowspace=_relaid(P.rowspace, offset, padded))
            assert _outcome_bits(bit_flip_search(relaid, k)) == want, (offset, padded)


def _relaid(a, offset, padded):
    """A read-only copy of the basis a whose first row starts ``offset`` bytes
    past a 64-byte boundary, with a's row stride or, unpadded, none."""
    rows, cols = a.shape
    stride = a.strides[0] // 8 if padded else cols
    raw = np.empty(rows * stride + 16)
    skip = (-raw.ctypes.data % 64 + offset) // 8
    out = raw[skip:skip + rows * stride].reshape(rows, stride)[:, :cols]
    out[...] = a
    out.setflags(write=False)
    assert out.ctypes.data % 64 == offset
    return out


def _outcome_bits(out):
    """A search's verdict, flips, best pattern, best-distance bits and certificate bytes."""
    cert = out.certificate
    return (out.verdict, out.flips_evaluated, out.best_b.tobytes(), out.best_distance.hex(),
            None if cert is None else (cert.w.tobytes(), cert.head_l1.hex(),
                                       cert.tail_l1.hex(), cert.nullspace_residual.hex()))


# Dperp layouts whose M the compiled loop refuses: its C call reads M through
# a raw pointer as float64 rows of unit column stride.  The float32 columns
# sit 8 bytes apart, as float64 columns do, so only the dtype test refuses them.
REFUSED_LAYOUTS = {"fortran-order": np.asfortranarray,
                   "float32": lambda Dperp: np.repeat(Dperp.astype(np.float32), 2, 1)[:, ::2],
                   "reversed-columns": lambda Dperp: Dperp[:, ::-1]}


@pytest.mark.parametrize("layout", REFUSED_LAYOUTS)
def test_compiled_loop_refuses_layout(layout):
    # A refused M falls back to the numpy loop; the seeded projector's own
    # layout, float64 rows of unit column stride, is the control.
    kernel = _blas.box_lsq_kernel()
    if kernel is None:
        pytest.skip("no compiled loop on this host")
    n, k = 40, 25
    P = projector(n, 30, k, 0)
    relaid = dataclasses.replace(P, Dperp=REFUSED_LAYOUTS[layout](P.Dperp))
    for Q, accepted in ((P, True), (relaid, False)):
        M, c, x0 = Q.Dperp[:, :n - k], Q.Dperp[:, n - k:] @ np.ones(k), np.zeros(n - k)
        assert (kernel(M, c, x0, 10, 1, 0.0, None) is not None) is accepted
        _assert_same_bits(M, c, x0)


# OpenBLAS cores, each with a CPU feature (numpy's name) it needs.
CORES = {"SkylakeX": "AVX512_SKX", "Haswell": "AVX2"}


@pytest.mark.parametrize("core", CORES)
def test_loop_bits_on_openblas_core(core):
    # gemv and dot run another kernel on each core, and the compiled loop
    # must call them as numpy does on every one.
    if _blas.box_lsq_kernel() is None:
        pytest.skip("no compiled loop on this host")
    if not CPU_FEATURES.get(CORES[core]):
        pytest.skip(f"this host cannot run OpenBLAS's {core} kernels")
    env = {"OPENBLAS_CORETYPE": core}
    assert run_child("-c", "import numpy, secthresh._blas as b; print(b.corename())",
                     env=env) == core
    out = run_child("-m", "pytest", "-p", "no:cacheprovider",
                    f"{TESTS / 'test_inner_solve.py'}::TestLoopBitIdentity", env=env)
    # Every test the class collects passes: none fails, errs or is skipped.
    collected = re.search(r"\bcollected (\d+) items?\b", out)
    assert collected and re.search(rf"= {collected[1]} passed(, \d+ warnings?)? in ", out), out


def _compiler():
    """The compiler Python was built with, if it is on PATH."""
    cc = shlex.split(sysconfig.get_config_var("CC") or "")
    return cc and shutil.which(cc[0])


def test_compiled_loop_is_taken_where_a_compiler_is(forbid):
    if not _compiler():
        pytest.skip("no C compiler on PATH")
    assert _blas.box_lsq_kernel() is not None
    forbid(tau, "_box_lsq_numpy")
    assert bit_flip_search(projector(200, 180, 66, 0), 66).flips_evaluated > 0


def test_import_finds_builds_and_loads_nothing():
    # The benchmark times the import; the first solve, or run_suite before it
    # forks, resolves the compiled loop.
    code = ("import secthresh, secthresh._blas as b; "
            "print(b._openblas.cache_info().currsize, b.box_lsq_kernel.cache_info().currsize)")
    assert run_child("-c", code) == "0 0"


def test_two_processes_build_into_an_empty_cache(tmp_path):
    # Started together, the two build at once.  Each builds under a name of
    # its own and moves the library into place, so both load a whole library
    # and one file is left.
    if not _compiler():
        pytest.skip("no C compiler on PATH")
    code = "import secthresh._blas as b; print(b.box_lsq_kernel() is not None)"
    env = {**os.environ, "XDG_CACHE_HOME": str(tmp_path),
           "PYTHONPATH": os.pathsep.join(filter(None, [str(TESTS.parent / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    children = [subprocess.Popen([sys.executable, "-c", code], env=env, text=True,
                                 stdout=subprocess.PIPE) for _ in range(2)]
    assert [child.communicate(timeout=300)[0] for child in children] == ["True\n"] * 2
    [library] = (tmp_path / "secthresh").iterdir()
    assert re.fullmatch(r"_box_lsq-[0-9a-f]{8}\.so", library.name)


class TestEarlyStop:
    @pytest.mark.parametrize("n, m, k, seed", [(200, 180, 66, 0), (200, 140, 38, 1),
                                               (300, 180, 44, 2), (400, 120, 21, 2)])
    def test_stopped_solves_are_sound(self, count_calls, n, m, k, seed):
        P = projector(n, m, k, seed)
        calls = count_calls(tau, "dual_distance")
        bit_flip_search(P, k)
        # (b, x0, bound, solve) of every solve that stopped early.
        stopped = [(call.args["b"], call.args["x0"], call.args["stop_below"], call.result)
                   for call in calls.log if call.result.stopped_below]
        assert len(stopped) >= 30
        for b, x0, bound, solve in stopped:
            assert bound == tau.positivity_threshold(n)
            assert solve.converged
            z = solve.z_star
            assert np.array_equal(z[n - k:], -b)
            assert np.all(np.abs(z[:n - k]) <= 1.0)
            assert np.linalg.norm(P.Dperp @ z) <= bound * (1 + 1e-12)
            assert solve.distance <= bound * (1 + 1e-12)
        # Run to the fixed point from the same start, the stopped solves end
        # at or below the bound too, so none of them was a keeper.
        for b, x0, bound, solve in stopped[::5]:
            full = dual_distance(P, k, b, x0=x0)
            assert full.converged and not full.stopped_below
            assert full.distance <= bound

    def test_bound_stops_at_a_fixed_point_test(self):
        P = projector(40, 30, 25, 0)
        b = np.ones(25)
        full = dual_distance(P, 25, b)
        assert full.distance > 0.5 and full.iterations > 4 * tau.CHECK_EVERY
        solve = dual_distance(P, 25, b, stop_below=2.0 * full.distance)
        assert solve.stopped_below and solve.converged
        assert solve.iterations % tau.CHECK_EVERY == 0
        assert solve.iterations < full.iterations
        assert full.distance <= solve.distance <= 2.0 * full.distance
        # No bound, or one below the distance, leaves the solve untouched.
        for bound in (None, 0.0, 0.5 * full.distance):
            again = dual_distance(P, 25, b, stop_below=bound)
            assert not again.stopped_below
            assert again.z_star.tobytes() == full.z_star.tobytes()
            assert again.iterations == full.iterations



# Four small searches, one for each way a search ends: certified at the
# all-ones start, certified after flips, k rejects in a row, and the flip cap
# (MAX_PASSES lowered to 1).  Keys are (n, m, k, seed, MAX_PASSES or None).
SEARCH_ENDINGS = ((24, 12, 4, 4, None), (30, 20, 8, 2, None),
                  (16, 10, 4, 3, None), (16, 10, 4, 3, 1))


def _assert_search_call_sequence(monkeypatch, count_calls):
    # The benchmark counts the search's solves and certificate calls and
    # rebuilds its accepted flips from their patterns, so each call keeps its
    # order, pattern, warm start and bound.
    endings = []
    default_passes = tau.MAX_PASSES
    calls = count_calls(tau, "dual_distance", "extract_certificate")
    for n, m, k, seed, passes in SEARCH_ENDINGS:
        monkeypatch.setattr(tau, "MAX_PASSES", passes or default_passes)
        out = bit_flip_search(projector(n, m, k, seed), k)
        endings.append((out.verdict.value, out.flips_evaluated))
    assert endings == [("CertifiedFailure", 0), ("CertifiedFailure", 13),
                       ("NotCertified", 10), ("NotCertified", 4)]
    h = hashlib.sha256()
    for call in calls.log:
        args = call.args
        if call.name == "extract_certificate":
            h.update(b"certify" + (-args["solve"].z_star[-args["k"]:]).tobytes())
            continue
        h.update(b"solve" + np.asarray(args["b"], dtype=float).tobytes())
        h.update(b"cold" if args["x0"] is None else np.asarray(args["x0"]).tobytes())
        h.update(b"none" if args["stop_below"] is None else args["stop_below"].hex().encode())
    assert h.hexdigest() == (
        "44e46f62f3acbfbef0e605f475de55d9a51394a5e0d41a8dc3b142e50c24e6e4"), pinned_on()


def test_search_call_sequence_pinned(monkeypatch, count_calls):
    _assert_search_call_sequence(monkeypatch, count_calls)


def test_search_call_sequence_pinned_on_the_numpy_loop(monkeypatch, count_calls):
    monkeypatch.setattr(_blas, "box_lsq_kernel", lambda: None)
    calls = count_calls(tau, "_box_lsq_numpy")
    _assert_search_call_sequence(monkeypatch, count_calls)
    assert calls["_box_lsq_numpy"] > 0


def table1_outcome_digest():
    """sha256 over each table1 cell's verdict, flips and best pattern at 1 rep,
    base seed 0.  Distances and certificate bits are left out."""
    h = hashlib.sha256()
    for spec in builtin_suite("table1", reps=1, base_seed=0):
        seed = derive_rep_seed(spec.base_seed, 0)
        instance = sample_gaussian_matrix(ProblemShape(n=spec.n, m=spec.m, k=spec.k), seed)
        out = estimate_failure(instance, spec.k)
        h.update(repr((out.verdict.value, out.flips_evaluated)).encode())
        h.update(out.best_b.tobytes())
    return h.hexdigest()


def table2_outcome_digest():
    """sha256 over each table2 cell's outcome at 1 rep, base seed 0."""
    h = hashlib.sha256()
    for spec in builtin_suite("table2", reps=1, base_seed=0):
        seed = derive_rep_seed(spec.base_seed, 0)
        instance = sample_gaussian_matrix(ProblemShape(n=spec.n, m=spec.m, k=spec.k), seed)
        out = estimate_failure(instance, spec.k)
        h.update(repr((out.verdict.value, out.flips_evaluated,
                       out.best_distance.hex())).encode())
        h.update(out.best_b.tobytes())
        h.update(out.certificate.w.tobytes() if out.certificate is not None else b"")
    return h.hexdigest()


def test_table2_search_outcomes_pinned():
    # Recorded before the early stop and the compiled loop: neither may move
    # a verdict, a flip count, a best distance or pattern, or a certificate.
    code = "import test_inner_solve as t; print(t.table2_outcome_digest())"
    assert run_child("-c", code, blas_threads=1) == (
        "2cf93d43ead636f17d431a161bf8994d2474976564a444974a7227d5cd711c40"), pinned_on()


def test_table2_search_outcomes_independent_of_blas_threads():
    # The SVD, whose bits move with the thread count, runs on one BLAS thread
    # in every process, so two threads give the pinned outcomes too.
    code = "import test_inner_solve as t; print(t.table2_outcome_digest())"
    assert run_child("-c", code, blas_threads=2) == (
        "2cf93d43ead636f17d431a161bf8994d2474976564a444974a7227d5cd711c40"), pinned_on()


def test_table1_search_outcomes_pinned():
    # The table1 half of the fixed-seed contract: verdicts, flips and patterns.
    code = "import test_inner_solve as t; print(t.table1_outcome_digest())"
    assert run_child("-c", code, blas_threads=1) == (
        "deac25f9e6d4b01060f796d83c9465752baec8a99ebb0aa8f326474ce79e31ac"), pinned_on()


def _tau_certificate_sha(tmp_path, *entry):
    """sha256 of the certificate JSON that `tau` writes for the contract cell."""
    cert = tmp_path / "cert.json"
    run_child(*entry, "tau", "--n", "200", "--m", "180", "--k", "74", "--seed", "1",
              "--emit-certificate", str(cert), blas_threads=1)
    return hashlib.sha256(cert.read_bytes()).hexdigest()


TAU_CERTIFICATE_SHA = "3333d45be473296acbcf3cbc5052540a32a6071c83fcce8e7b84bcd971ff6b45"


def test_tau_certificate_pinned(tmp_path):
    # The certificate JSON of the `tau` contract cell, byte for byte.
    assert _tau_certificate_sha(tmp_path, "-m", "secthresh.cli") == TAU_CERTIFICATE_SHA, (
        pinned_on())


def test_tau_certificate_pinned_on_the_numpy_loop(tmp_path):
    entry = ("import sys, secthresh._blas as b; b.box_lsq_kernel = lambda: None; "
             "from secthresh.cli import main; sys.exit(main(sys.argv[1:]))")
    assert _tau_certificate_sha(tmp_path, "-c", entry) == TAU_CERTIFICATE_SHA, pinned_on()


add_refusal_tests(globals())  # this module's rows of the refusal table
