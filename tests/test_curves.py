import numpy as np
import pytest

from secthresh import (XI_SK_DEFAULT, ConsistencyError, CurveKind, DomainError,
                       emit_curves, sec_lower_solve, sec_upper_beta,
                       sec_upper_residual, weak_beta, weak_residual)
import secthresh.curves as curves
from secthresh.curves import mg_ratio_closed_form

from oracles import adjusted_dims

# Frozen from tests/oracles.py (scipy brentq on independently transcribed
# residuals, xtol 1e-13).
WEAK_BETA = {0.3: 0.0872353104740279, 0.5: 0.19284483309074055,
             0.7: 0.34918992673388255}
SEC_UPPER_BETA_HALF = 0.13345549818314295
SEC_LOWER_01 = (0.4190748330026554, 0.49294641420449503)


class TestWeakResidual:
    def test_sign_bracket_at_half(self):
        # The root at alpha = 0.5 lies in (0.19, 0.20): oracle signs.
        assert weak_residual(0.5, 0.19) > 0.0
        assert weak_residual(0.5, 0.20) < 0.0

    def test_boundary_anchors(self):
        # alpha just above beta: the quantile blows up, residual goes negative.
        assert weak_residual(0.2 + 1e-6, 0.2) < -1.0
        # alpha near 1: quantile term vanishes, residual stays positive.
        assert weak_residual(0.999999, 0.3) > 0.5

    def test_domain(self):
        with pytest.raises(DomainError):
            weak_residual(0.3, 0.5)  # beta >= alpha
        with pytest.raises(DomainError):
            weak_residual(1.0, 0.5)


class TestWeakBeta:
    def test_reference_values(self):
        for alpha, want in WEAK_BETA.items():
            assert abs(weak_beta(alpha) - want) <= 1e-9

    def test_monotone_sample(self):
        assert weak_beta(0.3) < weak_beta(0.5) < weak_beta(0.7)

    def test_root_certified(self):
        b = weak_beta(0.62)
        assert abs(weak_residual(0.62, b)) <= 1e-9


class TestSecLower:
    def test_reference_solve(self):
        sol = sec_lower_solve(0.1)
        assert abs(sol.theta_hat - SEC_LOWER_01[0]) <= 1e-8
        assert abs(sol.alpha_bound - SEC_LOWER_01[1]) <= 1e-8

    def test_sits_below_weak_curve(self):
        # At the alpha the bound demands for beta=0.1, the weak curve already
        # allows a larger beta.
        sol = sec_lower_solve(0.1)
        assert weak_beta(sol.alpha_bound) > 0.1

    def test_alpha_bound_in_range(self):
        for beta in (0.02, 0.1, 0.3):
            sol = sec_lower_solve(beta)
            assert beta < sol.alpha_bound < 1.0

    def test_domain(self):
        with pytest.raises(DomainError):
            sec_lower_solve(0.0)
        with pytest.raises(DomainError):
            sec_lower_solve(0.6)


class TestAdjustedDims:
    def test_collapse_at_zero_coupling(self):
        dims = adjusted_dims(0.37, 0.12, 0.0)
        assert abs(dims.kg_ratio - 0.12) <= 1e-15
        assert abs(dims.mg_ratio - 0.37) <= 1e-15
        assert abs(dims.ng_ratio - 1.0) <= 1e-15

    def test_hand_value(self):
        dims = adjusted_dims(0.5, 0.1, 0.7632)
        assert abs(dims.xi_l - 0.299926797749979) <= 1e-12
        assert abs(dims.kg_ratio - 0.1799121680171136) <= 1e-12
        assert abs(dims.mg_ratio - 0.5799121680171136) <= 1e-12
        assert abs(dims.ng_ratio - 1.0799121680171135) <= 1e-12

    def test_shift_identity(self):
        # mg - (alpha - beta) = kg, by construction, for arbitrary inputs.
        rng = np.random.default_rng(7)
        for _ in range(100):
            beta = float(rng.uniform(0.01, 0.5))
            alpha = float(rng.uniform(beta + 0.01, 0.99))
            xi = float(rng.uniform(0.0, 1.5))
            dims = adjusted_dims(alpha, beta, xi)
            assert abs(dims.mg_ratio - (alpha - beta) - dims.kg_ratio) <= 1e-14


class TestSecUpperResidual:
    def test_degenerate_to_weak(self):
        for alpha in np.linspace(0.1, 0.9, 9):
            beta = 0.5 * weak_beta(float(alpha))
            r1 = sec_upper_residual(float(alpha), beta, 0.0)
            r2 = weak_residual(float(alpha), beta)
            assert abs(r1 - r2) <= 1e-14

    def test_two_denominator_routes_agree(self):
        # The inflated denominator can be computed directly or through the
        # adjusted-dimension ratios; both must give the same residual.
        rng = np.random.default_rng(11)
        for _ in range(50):
            beta = float(rng.uniform(0.01, 0.4))
            alpha = float(rng.uniform(beta + 0.05, 0.95))
            xi = float(rng.uniform(0.0, 1.2))
            dims = adjusted_dims(alpha, beta, xi)
            direct = mg_ratio_closed_form(alpha, beta, xi)
            assert abs(dims.mg_ratio - direct) <= 1e-14

    def test_sign_bracket(self):
        assert sec_upper_residual(0.5, 0.15, 0.7632) < 0.0
        assert sec_upper_residual(0.5, 0.05, 0.7632) > 0.0


class TestSecUpperBeta:
    def test_reference_value(self):
        assert abs(sec_upper_beta(0.5, 0.7632) - SEC_UPPER_BETA_HALF) <= 1e-9

    def test_strictly_below_weak(self):
        assert sec_upper_beta(0.5, 0.7632) < weak_beta(0.5)

    def test_above_sectional_lower(self):
        curve = emit_curves([0.5])
        lower = curve.by_kind(CurveKind.SectionalLower)[0].beta
        assert lower <= sec_upper_beta(0.5, 0.7632)


class TestEmitCurves:
    def test_zero_coupling_collapses_pair(self):
        curve = emit_curves([0.5], xi_sk=0.0)
        weak = curve.by_kind(CurveKind.WeakExact)[0].beta
        upper = curve.by_kind(CurveKind.SectionalUpper)[0].beta
        assert abs(weak - upper) <= 1e-8

    def test_empty_grid(self):
        assert emit_curves([]).points == []

    def test_full_grid_ordering(self):
        alphas = [round(0.05 * i, 2) for i in range(1, 20)]
        curve = emit_curves(alphas, xi_sk=XI_SK_DEFAULT)
        assert len(curve.points) == 3 * len(alphas)
        for a in alphas:
            bw = next(p.beta for p in curve.by_kind(CurveKind.WeakExact)
                      if p.alpha == a)
            bl = next(p.beta for p in curve.by_kind(CurveKind.SectionalLower)
                      if p.alpha == a)
            bu = next(p.beta for p in curve.by_kind(CurveKind.SectionalUpper)
                      if p.alpha == a)
            assert bl < bu < bw

    def test_grid_domain(self):
        with pytest.raises(DomainError):
            emit_curves([0.0])
        with pytest.raises(DomainError):
            emit_curves([0.99])


class TestSecLowerSweepCache:
    GRID = [0.2, 0.5, 0.8]

    def test_solved_once_across_xi_and_tol(self, monkeypatch):
        calls = []
        original = curves.sec_lower_solve

        def counted(beta, *args, **kwargs):
            calls.append(beta)
            return original(beta, *args, **kwargs)

        curves._sec_lower_sweep.cache_clear()
        monkeypatch.setattr(curves, "sec_lower_solve", counted)
        first = emit_curves(self.GRID, xi_sk=0.3)
        second = emit_curves(self.GRID, xi_sk=XI_SK_DEFAULT)
        assert len(calls) == 600
        emit_curves(self.GRID, xi_sk=0.0)
        assert len(calls) == 600
        lower = [[p.beta for p in c.by_kind(CurveKind.SectionalLower)]
                 for c in (first, second)]
        assert lower[0] == lower[1]
        upper = [[p.beta for p in c.by_kind(CurveKind.SectionalUpper)]
                 for c in (first, second)]
        assert upper[0] != upper[1]

    def test_cold_and_warm_calls_agree(self):
        curves._sec_lower_sweep.cache_clear()
        cold = emit_curves(self.GRID)
        assert curves._sec_lower_sweep.cache_info().currsize == 1
        warm = emit_curves(self.GRID)
        assert cold.points == warm.points

    def test_shared_sweep_is_immutable(self):
        alphas, betas = curves._sec_lower_sweep()
        assert isinstance(alphas, tuple) and isinstance(betas, tuple)
