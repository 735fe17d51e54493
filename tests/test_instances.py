import hashlib
import os
import threading
import tracemalloc

import numpy as np
import pytest

from secthresh import (NumericalError, ProblemShape,
                       derive_rep_seed, null_projector, sample_gaussian_matrix)
from secthresh._blas import box_lsq_kernel, one_thread, thread_functions
from secthresh.instances import _PHILOX_CHUNK, _philox_raw
from conftest import pinned_on, projector
from test_api import add_refusal_tests


class TestSampleGaussianMatrix:
    def test_deterministic(self):
        shape = ProblemShape(n=24, m=9, k=3)
        a = sample_gaussian_matrix(shape, 123456789).A
        b = sample_gaussian_matrix(shape, 123456789).A
        np.testing.assert_array_equal(a, b)

    def test_moments(self):
        # CLT bounds: mean within 4/sqrt(mn), variance within 0.05 of 1.
        shape = ProblemShape(n=400, m=200, k=0)
        A = sample_gaussian_matrix(shape, 2024).A
        assert abs(A.mean()) <= 4.0 / np.sqrt(A.size)
        assert abs(A.var() - 1.0) <= 0.05

    def test_distinct_seeds_differ(self):
        shape = ProblemShape(n=30, m=10, k=0)
        a = sample_gaussian_matrix(shape, 1).A
        b = sample_gaussian_matrix(shape, 2).A
        assert np.mean(a != b) >= 0.99

    @pytest.mark.parametrize("seed, digest", [
        (0, "6b152e088e44b28c19da7c96a7a2dd9c5b285bf17250343b170445769e6ece73"),
        (9000, "83922b5c5c96480d98242d5710ec922006693257303ab2f38035d8b06ab12acf"),
        (2**64 - 1, "b2f6b09fdfd39bcf42679b2447495a45556817a549098c06b28ed9521f4aef71"),
    ])
    def test_bits_pinned(self, seed, digest):
        # Every fixed-seed verdict rests on these exact bits; a change to the
        # Box-Muller arithmetic, even one that is equal in distribution,
        # breaks them.
        A = sample_gaussian_matrix(ProblemShape(n=300, m=180, k=0), seed).A
        assert hashlib.sha256(A.tobytes()).hexdigest() == digest, pinned_on()

    @pytest.mark.parametrize("seed", [np.int64(5), np.uint64(2**64 - 1)])
    def test_numpy_integer_seed(self, seed):
        shape = ProblemShape(n=12, m=5, k=0)
        inst = sample_gaussian_matrix(shape, seed)
        assert type(inst.seed) is int
        assert inst.A.tobytes() == sample_gaussian_matrix(shape, int(seed)).A.tobytes()
        assert derive_rep_seed(seed, np.int64(3)) == derive_rep_seed(int(seed), 3)


class TestPhilox:
    # numpy.random is the reference here and is loaded by no package module.
    @pytest.mark.parametrize("seed", [0, 1, 2**32, 2**63, 2**64 - 1, 0x9E3779B97F4A7C15])
    @pytest.mark.parametrize("count", [*range(1, 10), 9 * 23, 300 * 180,
                                       4 * _PHILOX_CHUNK + 5])
    def test_words_match_numpy(self, seed, count):
        # 9 * 23 is an odd m * n; the last count takes a second pass of blocks.
        from numpy.random import Philox

        want = Philox(key=seed).random_raw(count)
        np.testing.assert_array_equal(_philox_raw(seed, count), want)

    @pytest.mark.parametrize("passes", [1, 3, 8])
    def test_temporaries_bounded(self, passes):
        # Above its output the stream holds one pass of lane arrays and round
        # temporaries, however many passes the count takes.
        tracemalloc.start()
        try:
            words = _philox_raw(7, 4 * _PHILOX_CHUNK * passes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - words.nbytes <= 2.5e6


class TestNullProjector:
    def test_coordinate_null_space(self):
        P = null_projector(np.array([[1.0, 0.0, 0.0],
                                                 [0.0, 1.0, 0.0]]))
        row = P.Dperp[0]
        np.testing.assert_allclose(np.abs(row), [0.0, 0.0, 1.0], atol=1e-12)

    def test_hand_null_space(self):
        P = null_projector(np.array([[2.0, 1.0]]))
        row = P.Dperp[0]
        want = np.array([1.0, -2.0]) / np.sqrt(5.0)
        if row[0] < 0:
            row = -row
        np.testing.assert_allclose(row, want, atol=1e-12)

    def test_invariants_random_instance(self):
        P = projector(8, 4, 2, 77)
        A = P.A
        fro = np.linalg.norm(A)
        assert np.max(np.abs(P.Dperp @ A.T)) <= 1e-10 * fro
        gram = P.Dperp @ P.Dperp.T
        assert np.max(np.abs(gram - np.eye(4))) <= 1e-10
        Q = P.Dperp.T @ P.Dperp
        assert np.max(np.abs(Q @ Q - Q)) <= 1e-9

    def test_projector_spectrum(self):
        P = projector(20, 7, 3, 5)
        Q = P.Dperp.T @ P.Dperp
        eig = np.sort(np.linalg.eigvalsh(Q))
        np.testing.assert_allclose(eig[:7], 0.0, atol=1e-8)
        np.testing.assert_allclose(eig[7:], 1.0, atol=1e-8)

    def test_rank_deficiency_detected(self):
        A = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])
        with pytest.raises(NumericalError):
            null_projector(A)

    # n % 8 = 4, 0 and 5.
    @pytest.mark.parametrize("n, m, k", [(300, 180, 44), (400, 80, 13), (13, 5, 3)])
    def test_bases_are_aligned_rows_of_the_svd(self, n, m, k):
        # Each row starts on a cache line, no basis is writable, and the
        # bases hold the SVD's bits split at m.
        P = projector(n, m, k, 1)
        with one_thread():
            vh = np.linalg.svd(P.A, full_matrices=True)[2]
        for basis, want in ((P.rowspace, vh[:m]), (P.Dperp, vh[m:])):
            assert basis.dtype == np.float64 and basis.strides[1] == 8
            assert basis.strides[0] % 64 == 0 and basis.ctypes.data % 64 == 0
            assert not basis.flags.writeable
            assert basis.tobytes() == want.tobytes()
        kernel = box_lsq_kernel()
        if kernel is not None:  # a host with the compiled loop reads M as it is
            M = P.Dperp[:, :n - k]
            assert kernel(M, P.Dperp[:, n - k:] @ np.ones(k), np.zeros(n - k),
                          1, 1, 0.0, None) is not None

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_is_numerical_error(self, bad):
        A = np.random.default_rng(3).standard_normal((5, 12))
        A[2, 7] = bad
        with pytest.raises(NumericalError):
            null_projector(A)


class TestDeriveRepSeed:
    def test_deterministic(self):
        assert derive_rep_seed(42, 7) == derive_rep_seed(42, 7)

    def test_rep_separation(self):
        rng = np.random.default_rng(0)
        for s in rng.integers(0, 2**63, size=1000):
            assert derive_rep_seed(int(s), 0) != derive_rep_seed(int(s), 1)

    def test_no_collisions(self):
        seeds = {derive_rep_seed(99, i) for i in range(10_000)}
        assert len(seeds) == 10_000


def test_blas_pin_takes_turns_across_threads():
    # The thread count is the process's: a second thread that pinned it while
    # the first held it would save 1 and restore 1 for good.  It waits instead,
    # and both leave the count as they found it.
    counts = [get() for get, _ in thread_functions()]
    order = []

    def second():
        with one_thread():
            order.append("second")

    with one_thread():
        thread = threading.Thread(target=second)
        thread.start()
        thread.join(timeout=0.5)
        order.append("first")
    thread.join(timeout=60)
    assert order == ["first", "second"]
    assert [get() for get, _ in thread_functions()] == counts


def test_pin_starts_no_thread_pool_in_a_forked_child():
    # run_suite forks its children inside the pin, so they inherit a count of
    # 1.  OpenBLAS restarts its thread pool in a forked child at the first set
    # of the count, and the idle pool threads spin on the cores the reps use.
    A = sample_gaussian_matrix(ProblemShape(n=30, m=12, k=0), 1).A
    with one_thread():
        pid = os.fork()
        if pid == 0:
            null_projector(A)
            os._exit(len(os.listdir("/proc/self/task")))
        _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 1


add_refusal_tests(globals())  # this module's rows of the refusal table
