import dataclasses
import math

import numpy as np
import pytest

import secthresh.tau as tau
from secthresh import (CertificateError, DomainError,
                       GaussianInstance, ProblemShape,
                       TauOutcome,
                       Verdict, bit_flip_search, dual_distance,
                       estimate_failure, extract_certificate,
                       null_projector,
                       sample_gaussian_matrix, verify_theorem2_construction)

from oracles import oracle_box_distance, primal_tau_batch, primal_tau_reference


def _hand_projector():
    return null_projector(np.array([[2.0, 1.0]]))


def _balanced_projector():
    return null_projector(np.array([[1.0, 1.0]]))


class TestDualDistance:
    @pytest.mark.parametrize("k", [-1, 0, 12, 2.5, True])
    def test_k_outside_block_range_rejected(self, k):
        P = null_projector(sample_gaussian_matrix(ProblemShape(n=12, m=5, k=1), 3).A)
        message = "need 1 <= k < n=12" if type(k) is int else "k must be an integer"
        with pytest.raises(DomainError, match=message):
            dual_distance(P, k, np.ones(max(int(k), 0)))

    def test_hand_instance(self):
        solve = dual_distance(_hand_projector(), 1, [1.0])
        assert abs(solve.distance - 1.0 / math.sqrt(5.0)) <= 1e-9
        assert solve.converged

    def test_balanced_instance(self):
        solve = dual_distance(_balanced_projector(), 1, [1.0])
        assert solve.distance <= 1e-8

    def test_matches_exact_solver(self):
        sp = pytest.importorskip("scipy.optimize")
        del sp
        rng = np.random.default_rng(31)
        for _ in range(30):
            n = int(rng.integers(8, 26))
            m = int(rng.integers(2, n))
            k = int(rng.integers(1, min(9, m + 1)))
            P = null_projector(
                sample_gaussian_matrix(ProblemShape(n=n, m=m, k=k),
                                       int(rng.integers(0, 2**32))).A)
            b = rng.choice([-1.0, 1.0], size=k)
            solve = dual_distance(P, k, b)
            exact = oracle_box_distance(P.Dperp, k, b)
            assert abs(solve.distance - exact) <= 1e-7

    def test_basis_choice_irrelevant(self):
        # Any orthonormal basis of the same null space gives the same
        # distance: rotate the rows and re-solve.
        shape = ProblemShape(n=18, m=7, k=4)
        P = null_projector(sample_gaussian_matrix(shape, 9).A)
        rng = np.random.default_rng(1)
        rot, _ = np.linalg.qr(rng.standard_normal((11, 11)))
        P2 = dataclasses.replace(P, Dperp=rot @ P.Dperp)
        b = np.array([1.0, -1.0, 1.0, 1.0])
        d1 = dual_distance(P, 4, b).distance
        d2 = dual_distance(P2, 4, b).distance
        assert abs(d1 - d2) <= 1e-9

    def test_solve_keeps_its_pattern(self):
        # The search flips its pattern in place; a solve keeps its own copy.
        P = null_projector(sample_gaussian_matrix(ProblemShape(n=40, m=30, k=25), 0).A)
        b = np.ones(25)
        solve = dual_distance(P, 25, b)
        b[0] = -1.0
        assert np.all(solve.z_star[-25:] == -1.0)

    def test_bad_sign_pattern(self):
        with pytest.raises(DomainError):
            dual_distance(_hand_projector(), 1, [2.0])


class TestPrimalReference:
    def test_hand_instance(self):
        value = primal_tau_reference(_hand_projector(), 1, [1.0])
        assert abs(value + 1.0 / math.sqrt(5.0)) <= 5e-3

    def test_never_positive(self):
        rng = np.random.default_rng(17)
        cases = []
        for _ in range(10):
            n = int(rng.integers(8, 20))
            m = int(rng.integers(2, n))
            k = int(rng.integers(1, m + 1))
            P = null_projector(
                sample_gaussian_matrix(ProblemShape(n=n, m=m, k=k),
                                       int(rng.integers(0, 2**32))).A)
            cases.append((P, k, rng.choice([-1.0, 1.0], size=k)))
        assert np.all(primal_tau_batch(cases) <= 0.0)

    def test_size_cap(self):
        shape = ProblemShape(n=61, m=10, k=2)
        P = null_projector(sample_gaussian_matrix(shape, 0).A)
        with pytest.raises(DomainError):
            primal_tau_reference(P, 2, [1.0, 1.0])


class TestCertificates:
    def test_hand_certificate(self):
        P = _hand_projector()
        solve = dual_distance(P, 1, [1.0])
        cert = extract_certificate(P, 1, solve)
        assert abs(cert.head_l1 - 0.2) <= 1e-9
        assert abs(cert.tail_l1 - 0.4) <= 1e-9
        assert abs(cert.gap - 0.2) <= 1e-6
        assert cert.nullspace_residual <= 1e-8

    def test_gap_dominates_distance_squared(self):
        rng = np.random.default_rng(23)
        found = 0
        for _ in range(20):
            n = int(rng.integers(8, 22))
            m = int(rng.integers(2, max(3, n // 2)))
            k = int(rng.integers(1, m + 1))
            P = null_projector(
                sample_gaussian_matrix(ProblemShape(n=n, m=m, k=k),
                                       int(rng.integers(0, 2**32))).A)
            b = rng.choice([-1.0, 1.0], size=k)
            solve = dual_distance(P, k, b)
            if not solve.converged:
                continue
            if solve.distance <= tau.positivity_threshold(n):
                continue
            cert = extract_certificate(P, k, solve)
            assert cert.gap >= solve.distance**2 - 1e-6
            assert cert.nullspace_residual <= 1e-8
            found += 1
        assert found >= 5  # the sweep must actually exercise the check

    def test_below_threshold_rejected(self):
        P = _balanced_projector()
        solve = dual_distance(P, 1, [1.0])
        with pytest.raises(DomainError):
            extract_certificate(P, 1, solve)

    def test_construction_recheck(self):
        P = _hand_projector()
        cert = extract_certificate(P, 1, dual_distance(P, 1, [1.0]))
        report = verify_theorem2_construction(np.array([[2.0, 1.0]]), 1, cert)
        assert report.passed
        assert report.l1_competitor < report.l1_original
        assert report.measurement_residual <= 1e-8
        # Hand values: x = (0, 2/sqrt(5)) scaled by the certificate's norm.
        assert abs(report.l1_original - cert.tail_l1) <= 1e-12
        assert abs(report.l1_competitor - cert.head_l1) <= 1e-12


@pytest.mark.parametrize("scale", [1e155, 1e200, 1e-300])
class TestChecksFailClosed:
    """At these scales ||A||_F overflows to inf or underflows to 0, so the
    residual checks compare non-finite or vacuous numbers and must fail."""

    def test_extraction_refuses(self, scale):
        P = null_projector(np.array([[2.0, 1.0]]) * scale)
        solve = dual_distance(P, 1, [1.0])
        with pytest.raises(CertificateError):
            extract_certificate(P, 1, solve)

    def test_construction_check_refuses(self, scale):
        P = _hand_projector()
        cert = extract_certificate(P, 1, dual_distance(P, 1, [1.0]))
        A = np.array([[2.0, 1.0]]) * scale
        assert not verify_theorem2_construction(A, 1, cert).passed

    def test_scaled_gaussian_matrix_not_certified(self, scale):
        A = np.random.default_rng(0).standard_normal((5, 12)) * scale
        inst = GaussianInstance(seed=0, A=A)
        for k in (2, 4, 6):
            assert estimate_failure(inst, k).verdict is Verdict.NotCertified


class TestBitFlipSearch:
    def test_hand_instance_immediate(self):
        out = bit_flip_search(_hand_projector(), 1)
        assert out.verdict is Verdict.CertifiedFailure
        assert out.certificate is not None
        assert abs(out.best_distance - 1.0 / math.sqrt(5.0)) <= 1e-9

    def test_balanced_instance_not_certified(self):
        out = bit_flip_search(_balanced_projector(), 1)
        assert out.verdict is Verdict.NotCertified
        assert out.certificate is None

    def test_flip_budget(self):
        shape = ProblemShape(n=40, m=8, k=5)
        P = null_projector(sample_gaussian_matrix(shape, 13).A)
        out = bit_flip_search(P, 5)
        assert out.flips_evaluated <= tau.MAX_PASSES * 5

    def test_k_zero_rejected(self):
        with pytest.raises(DomainError):
            bit_flip_search(_hand_projector(), 0)

    def test_improves_on_start(self):
        # Whatever the verdict, the reported distance can not be worse than
        # the all-ones starting pattern.
        shape = ProblemShape(n=30, m=18, k=9)
        P = null_projector(sample_gaussian_matrix(shape, 4).A)
        start = dual_distance(P, 9, np.ones(9)).distance
        out = bit_flip_search(P, 9)
        assert out.best_distance >= start - 1e-9


class TestTailMarginGram:
    @pytest.mark.parametrize("n, m, k, seed", [(300, 180, 47, 0), (200, 180, 74, 1),
                                               (800, 80, 12, 2), (400, 200, 46, 3)])
    def test_matches_minimum_norm_lstsq(self, n, m, k, seed):
        # The margin is the head energy of the row-space point D c whose tail
        # is -b, with c the minimum-norm solution of D_t c = -b.
        P = null_projector(sample_gaussian_matrix(ProblemShape(n=n, m=m, k=k), seed).A)
        D = P.rowspace.T
        G = tau._tail_margin_gram(P, k)
        rng = np.random.default_rng(seed)
        for _ in range(20):
            b = rng.choice([-1.0, 1.0], size=k)
            c = np.linalg.lstsq(D[n - k:], -b, rcond=None)[0]
            want = float(np.sum((D[:n - k] @ c) ** 2))
            assert abs(b @ G @ b - want) <= 1e-10 * want

    def test_rank_deficient_tail_is_zero(self):
        # More tail coordinates than measurements.
        P = null_projector(sample_gaussian_matrix(ProblemShape(n=30, m=10, k=15), 5).A)
        G = tau._tail_margin_gram(P, 15)
        assert G.shape == (15, 15) and not G.any()
        # Two equal tail columns of A.
        A = np.random.default_rng(6).standard_normal((10, 30))
        A[:, -1] = A[:, -2]
        G = tau._tail_margin_gram(null_projector(A), 5)
        assert G.shape == (5, 5) and not G.any()


class TestEstimateFailure:
    @pytest.mark.parametrize("k", [-1, 0, 12, 2.5, True])
    def test_k_outside_block_range_rejected_before_factoring(self, k, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("the instance was factored")

        monkeypatch.setattr(tau, "null_projector", unreachable)
        inst = sample_gaussian_matrix(ProblemShape(n=12, m=5, k=1), 1)
        message = "need 1 <= k < n=12" if type(k) is int else "k must be an integer"
        with pytest.raises(DomainError, match=message):
            estimate_failure(inst, k)

    def test_deep_failure_cell(self):
        inst = sample_gaussian_matrix(ProblemShape(n=200, m=180, k=74), 1)
        out = estimate_failure(inst, 74)
        assert out.verdict is Verdict.CertifiedFailure
        report = verify_theorem2_construction(inst.A, 74, out.certificate)
        assert report.passed

    def test_deep_success_cell(self):
        inst = sample_gaussian_matrix(ProblemShape(n=400, m=80, k=4), 1)
        out = estimate_failure(inst, 4)
        assert out.verdict is Verdict.NotCertified


class TestOptionsAndOutcome:
    def test_positivity_threshold_scales(self):
        assert tau.positivity_threshold(100) == pytest.approx(1e-5)

    def test_verdict_follows_certificate(self):
        P = _hand_projector()
        cert = extract_certificate(P, 1, dual_distance(P, 1, [1.0]))
        for certificate, verdict in ((cert, Verdict.CertifiedFailure),
                                     (None, Verdict.NotCertified)):
            out = TauOutcome(best_b=np.ones(1), best_distance=1.0,
                             certificate=certificate, flips_evaluated=0)
            assert out.verdict is verdict

    def test_custom_options_accepted(self, monkeypatch):
        # The settings are read at call time.  At the default cap this search
        # evaluates 9 flips, more than 2 * k.
        k = 4
        P = null_projector(sample_gaussian_matrix(ProblemShape(n=24, m=12, k=k), 8).A)
        assert bit_flip_search(P, k).flips_evaluated > 2 * k
        monkeypatch.setattr(tau, "MAX_PASSES", 2)
        assert bit_flip_search(P, k).flips_evaluated <= 2 * k
