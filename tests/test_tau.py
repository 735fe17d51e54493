import dataclasses
import math

import numpy as np
import pytest

import secthresh.tau as tau
from secthresh import (CertificateError, DomainError, DualSolve, GaussianInstance,
                       ProblemShape, TauOutcome, Verdict, bit_flip_search, dual_distance,
                       estimate_failure, extract_certificate, null_projector,
                       sample_gaussian_matrix, verify_theorem2_construction)

from conftest import projector
from oracles import oracle_box_distance, primal_tau_batch, primal_tau_reference
from test_api import add_refusal_tests


def _hand_projector():
    return null_projector(np.array([[2.0, 1.0]]))


def _balanced_projector():
    return null_projector(np.array([[1.0, 1.0]]))


class TestDualDistance:
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
            P = projector(n, m, k, int(rng.integers(0, 2**32)))
            b = rng.choice([-1.0, 1.0], size=k)
            solve = dual_distance(P, k, b)
            exact = oracle_box_distance(P.Dperp, k, b)
            assert abs(solve.distance - exact) <= 1e-7

    def test_basis_choice_irrelevant(self):
        # Any orthonormal basis of the same null space gives the same
        # distance: rotate the rows and re-solve.
        P = projector(18, 7, 4, 9)
        rng = np.random.default_rng(1)
        rot, _ = np.linalg.qr(rng.standard_normal((11, 11)))
        P2 = dataclasses.replace(P, Dperp=rot @ P.Dperp)
        b = np.array([1.0, -1.0, 1.0, 1.0])
        d1 = dual_distance(P, 4, b).distance
        d2 = dual_distance(P2, 4, b).distance
        assert abs(d1 - d2) <= 1e-9

    def test_solve_keeps_its_pattern(self):
        # The search flips its pattern in place; a solve keeps its own copy.
        P = projector(40, 30, 25, 0)
        b = np.ones(25)
        solve = dual_distance(P, 25, b)
        b[0] = -1.0
        assert np.all(solve.z_star[-25:] == -1.0)


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
            P = projector(n, m, k, int(rng.integers(0, 2**32)))
            cases.append((P, k, rng.choice([-1.0, 1.0], size=k)))
        assert np.all(primal_tau_batch(cases) <= 0.0)

    def test_size_cap(self):
        P = projector(61, 10, 2, 0)
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
            P = projector(n, m, k, int(rng.integers(0, 2**32)))
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

    def test_construction_recheck(self):
        P = _hand_projector()
        cert = extract_certificate(P, 1, dual_distance(P, 1, [1.0]))
        A = np.array([[2.0, 1.0]])
        verify_theorem2_construction(A, 1, cert)
        # Reversed, w carries more l1 mass on its head and leaves the null space.
        flipped = dataclasses.replace(cert, w=cert.w[::-1].copy())
        with pytest.raises(CertificateError, match=r"\|\|x \+ w\|\|_1 .* vs \|\|x\|\|_1"):
            verify_theorem2_construction(A, 1, flipped)

    def test_nonpositive_gap_refused(self):
        # Every null-space vector of [1, 2] has twice as much l1 mass on its
        # head as on its tail, whatever the solve says.
        P = null_projector(np.array([[1.0, 2.0]]))
        solve = DualSolve(z_star=np.array([1.0, -1.0]), distance=1.0, iterations=1,
                          converged=True)
        with pytest.raises(CertificateError, match="gap .* is not positive"):
            extract_certificate(P, 1, solve)


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
        with pytest.raises(CertificateError, match="construction"):
            verify_theorem2_construction(A, 1, cert)

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
        P = projector(40, 8, 5, 13)
        out = bit_flip_search(P, 5)
        assert out.flips_evaluated <= tau.MAX_PASSES * 5

    def test_improves_on_start(self):
        # Whatever the verdict, the reported distance can not be worse than
        # the all-ones starting pattern.
        P = projector(30, 18, 9, 4)
        start = dual_distance(P, 9, np.ones(9)).distance
        out = bit_flip_search(P, 9)
        assert out.best_distance >= start - 1e-9


class TestTailMarginGram:
    @pytest.mark.parametrize("n, m, k, seed", [(300, 180, 47, 0), (200, 180, 74, 1),
                                               (800, 80, 12, 2), (400, 200, 46, 3)])
    def test_matches_minimum_norm_lstsq(self, n, m, k, seed):
        # The margin is the head energy of the row-space point D c whose tail
        # is -b, with c the minimum-norm solution of D_t c = -b.
        P = projector(n, m, k, seed)
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
        P = projector(30, 10, 15, 5)
        G = tau._tail_margin_gram(P, 15)
        assert G.shape == (15, 15) and not G.any()
        # Two equal tail columns of A.
        A = np.random.default_rng(6).standard_normal((10, 30))
        A[:, -1] = A[:, -2]
        G = tau._tail_margin_gram(null_projector(A), 5)
        assert G.shape == (5, 5) and not G.any()


class TestEstimateFailure:
    def test_failed_construction_check_raises(self, monkeypatch):
        P = _hand_projector()
        cert = extract_certificate(P, 1, dual_distance(P, 1, [1.0]))
        flipped = dataclasses.replace(cert, w=cert.w[::-1].copy())
        monkeypatch.setattr(tau, "bit_flip_search", lambda P, k: TauOutcome(
            best_b=np.ones(1), best_distance=1.0, certificate=flipped, flips_evaluated=1))
        with pytest.raises(CertificateError, match="construction check failed"):
            estimate_failure(GaussianInstance(seed=0, A=np.array([[2.0, 1.0]])), 1)

    def test_deep_failure_cell(self):
        inst = sample_gaussian_matrix(ProblemShape(n=200, m=180, k=74), 1)
        out = estimate_failure(inst, 74)
        assert out.verdict is Verdict.CertifiedFailure
        verify_theorem2_construction(inst.A, 74, out.certificate)

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

    def test_unconverged_solves_counted(self, monkeypatch, count_calls):
        inst = sample_gaussian_matrix(ProblemShape(n=30, m=20, k=8), 2)
        assert estimate_failure(inst, 8).unconverged_solves == 0
        # Capped at 3 iterations, no solve of this search reaches its fixed point.
        monkeypatch.setattr(tau, "MAX_ITERATIONS", 3)
        calls = count_calls(tau, "dual_distance")
        out = estimate_failure(inst, 8)
        converged = [call.result.converged for call in calls.log]
        assert out.unconverged_solves == converged.count(False) == len(converged) == 17
        assert out.flips_evaluated == 16 and out.verdict is Verdict.NotCertified

    def test_custom_options_accepted(self, monkeypatch):
        # The settings are read at call time.  At the default cap this search
        # evaluates 9 flips, more than 2 * k.
        k = 4
        P = projector(24, 12, k, 8)
        assert bit_flip_search(P, k).flips_evaluated > 2 * k
        monkeypatch.setattr(tau, "MAX_PASSES", 2)
        assert bit_flip_search(P, k).flips_evaluated <= 2 * k


add_refusal_tests(globals())  # this module's rows of the refusal table
