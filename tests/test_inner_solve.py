"""The inner solve loop: bit identity with its allocating form, the early stop
below a bound, and pins of the search: its call sequence on four small
instances, its outcomes per rep on table1 and table2, and the certificate the
`tau` command writes for one cell."""

import hashlib
import math
import types

import numpy as np
import pytest

import oracles
import secthresh.tau as tau
from conftest import projector, run_child
from oracles import box_lsq_reference
from secthresh import (ProblemShape, bit_flip_search, builtin_suite, derive_rep_seed,
                       dual_distance, estimate_failure, sample_gaussian_matrix)
from test_api import add_refusal_tests


def _search_solves(monkeypatch, P, k):
    """The (M, c, x0) of every inner solve one search runs, in order."""
    calls = []
    original = tau._box_lsq

    def recording(M, c, x0, *args):
        calls.append((M, c, x0.copy()))
        return original(M, c, x0, *args)

    monkeypatch.setattr(tau, "_box_lsq", recording)
    bit_flip_search(P, k)
    monkeypatch.undo()
    return calls


def _assert_same_bits(M, c, x0):
    x_ref, it_ref, conv_ref = box_lsq_reference(M, c, x0)
    x, it, conv, stopped = tau._box_lsq(M, c, x0)
    assert x.tobytes() == x_ref.tobytes()
    assert (it, conv, stopped) == (it_ref, conv_ref, False)
    return it_ref, conv_ref


class TestLoopBitIdentity:
    # (400,120) is a table1 shape; (200,180) and (300,180) are table2 shapes.
    @pytest.mark.parametrize("n, m, k, seed", [(400, 120, 21, 0), (200, 180, 66, 0),
                                               (300, 180, 44, 1)])
    def test_search_solves(self, monkeypatch, n, m, k, seed):
        calls = _search_solves(monkeypatch, projector(n, m, k, seed), k)
        assert len(calls) >= 25
        # The first solve is cold; the rest start warm from an incumbent head.
        for M, c, x0 in calls[:25]:
            _assert_same_bits(M, c, x0)

    def test_restart_heavy_cases(self, monkeypatch):
        # The loop takes sqrt only on a momentum step, so the iterations that
        # did not call it are restarts.
        momentum_steps = 0

        def counting_sqrt(v):
            nonlocal momentum_steps
            momentum_steps += 1
            return math.sqrt(v)

        monkeypatch.setattr(oracles, "math", types.SimpleNamespace(sqrt=counting_sqrt))
        iterations = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            size = int(rng.integers(2, 30))
            M = np.diag(rng.uniform(0.01, 1.0, size))
            c = rng.standard_normal(size)
            x0 = rng.choice([-1.0, 1.0], size)  # a corner start
            iterations += _assert_same_bits(M, c, x0)[0]
        restarts = iterations - momentum_steps
        assert restarts >= 150  # 166 of 2,970 steps restart

    @pytest.mark.parametrize("cap", [30, 25])
    def test_iteration_cap(self, monkeypatch, cap):
        P = projector(400, 120, 21, 0)
        M, c, x0 = _search_solves(monkeypatch, P, 21)[0]
        monkeypatch.setattr(tau, "MAX_ITERATIONS", cap)
        assert _assert_same_bits(M, c, x0) == (cap, False)


def _stopped_solves(monkeypatch, P, k):
    """Every (b, x0, bound, solve) of one search whose solve stopped early."""
    stopped = []
    original = tau.dual_distance

    def recording(P, k, b, x0=None, stop_below=None):
        solve = original(P, k, b, x0=x0, stop_below=stop_below)
        if solve.stopped_below:
            stopped.append((np.array(b), None if x0 is None else x0.copy(), stop_below,
                            solve))
        return solve

    monkeypatch.setattr(tau, "dual_distance", recording)
    bit_flip_search(P, k)
    monkeypatch.undo()
    return stopped


class TestEarlyStop:
    @pytest.mark.parametrize("n, m, k, seed", [(200, 180, 66, 0), (200, 140, 38, 1),
                                               (300, 180, 44, 2), (400, 120, 21, 2)])
    def test_stopped_solves_are_sound(self, monkeypatch, n, m, k, seed):
        P = projector(n, m, k, seed)
        stopped = _stopped_solves(monkeypatch, P, k)
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


def test_search_call_sequence_pinned(monkeypatch):
    # The benchmark counts the search's solves and certificate calls and
    # rebuilds its accepted flips from their patterns, so each call keeps its
    # order, pattern, warm start and bound.
    h = hashlib.sha256()
    endings = []
    solve_original, certify_original = tau.dual_distance, tau.extract_certificate
    default_passes = tau.MAX_PASSES

    def solve(P, k, b, x0=None, stop_below=None):
        h.update(b"solve" + np.asarray(b, dtype=float).tobytes())
        h.update(b"cold" if x0 is None else np.asarray(x0).tobytes())
        h.update(b"none" if stop_below is None else stop_below.hex().encode())
        return solve_original(P, k, b, x0=x0, stop_below=stop_below)

    def certify(P, k, s):
        h.update(b"certify" + (-s.z_star[-k:]).tobytes())
        return certify_original(P, k, s)

    monkeypatch.setattr(tau, "dual_distance", solve)
    monkeypatch.setattr(tau, "extract_certificate", certify)
    for n, m, k, seed, passes in SEARCH_ENDINGS:
        monkeypatch.setattr(tau, "MAX_PASSES", passes or default_passes)
        out = bit_flip_search(projector(n, m, k, seed), k)
        endings.append((out.verdict.value, out.flips_evaluated))
    assert endings == [("CertifiedFailure", 0), ("CertifiedFailure", 13),
                       ("NotCertified", 10), ("NotCertified", 4)]
    assert h.hexdigest() == (
        "44e46f62f3acbfbef0e605f475de55d9a51394a5e0d41a8dc3b142e50c24e6e4")


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
    # Recorded before the early stop and the buffered loop: neither may move
    # a verdict, a flip count, a best distance or pattern, or a certificate.
    code = "import test_inner_solve as t; print(t.table2_outcome_digest())"
    assert run_child("-c", code, blas_threads=1) == (
        "2cf93d43ead636f17d431a161bf8994d2474976564a444974a7227d5cd711c40")


def test_table2_search_outcomes_independent_of_blas_threads():
    # The SVD, whose bits move with the thread count, runs on one BLAS thread
    # in every process, so two threads give the pinned outcomes too.
    code = "import test_inner_solve as t; print(t.table2_outcome_digest())"
    assert run_child("-c", code, blas_threads=2) == (
        "2cf93d43ead636f17d431a161bf8994d2474976564a444974a7227d5cd711c40")


def test_table1_search_outcomes_pinned():
    # The table1 half of the fixed-seed contract: verdicts, flips and patterns.
    code = "import test_inner_solve as t; print(t.table1_outcome_digest())"
    assert run_child("-c", code, blas_threads=1) == (
        "deac25f9e6d4b01060f796d83c9465752baec8a99ebb0aa8f326474ce79e31ac")


def test_tau_certificate_pinned(tmp_path):
    # The certificate JSON of the `tau` contract cell, byte for byte.
    cert = tmp_path / "cert.json"
    run_child("-m", "secthresh.cli", "tau", "--n", "200", "--m", "180", "--k", "74",
              "--seed", "1", "--emit-certificate", str(cert), blas_threads=1)
    assert hashlib.sha256(cert.read_bytes()).hexdigest() == (
        "3333d45be473296acbcf3cbc5052540a32a6071c83fcce8e7b84bcd971ff6b45")


add_refusal_tests(globals())  # this module's rows of the refusal table
