import hashlib
import math

import numpy as np
import pytest

from secthresh import (XI_SK_DEFAULT, CurveKind, DomainError, NumericalError,
                       emit_curves, erfinv, sec_lower_solve,
                       sec_upper_beta, sec_upper_residual, weak_beta, weak_residual)
import secthresh.curves as curves
from secthresh.curves import mg_ratio_closed_form

from oracles import adjusted_dims

# Frozen from tests/oracles.py (scipy brentq on independently transcribed
# residuals, xtol 1e-13).
WEAK_BETA = {0.3: 0.0872353104740279, 0.5: 0.19284483309074055,
             0.7: 0.34918992673388255}
SEC_UPPER_BETA_HALF = 0.13345549818314295
SEC_LOWER_01 = (0.4190748330026554, 0.49294641420449503)

# sha256 of the space-joined float.hex() of every beta emit_curves returns on
# the CLI's default grid, in point order.  The CSV pin prints 12 significant
# digits and cannot see a last-bit change; these can.
DEFAULT_GRID = [round(0.05 + i * 0.05, 12) for i in range(19)]
CURVE_BITS = {
    0.0: "64d6d62d6db60f6c1ae73a678635ae0928fa3ddc9ff22b8d6258933378b8bce7",
    0.1: "4d2daa324a8c9b200eb99d51e1ceb0668f56e2e393a18968ff920271c5864808",
    0.2: "dd372aaabaf6fc8251d696ae0d0170e5ef7f9f5a2abfe377f7371a2dbc1c50d7",
    0.3: "37e28e43b32101643f3a165d722c91d789b24ef79b4471791e5c198a32894c03",
    0.4: "484dc8aa7b8397052dbdd0b8f658dbac872bc02b341319b8bfaa692a30e9dceb",
    0.5: "ce0144e7221fa8a939b8c45fd4ec4174e02cb53c54e362a74790d15704ba40b8",
    0.6: "a829aa63f1cd7c1119a1e5a2df449b23a66a1a597436762e32c149874f7c393a",
    0.7632: "19212fd50747a43cc722aa767469d679ab9898c439b685b1143817c5ad20bda9",
}
# erfinv calls of the 19 sec_upper_beta roots on the default grid at the
# default xi_sk, counted before the weak roots were cached: a warm
# emit_curves call makes exactly these.
UPPER_ROOTS_ERFINV_CALLS = 8052
SWEEP_BITS = ("c9a31adbc1ff46aa8f17c7a8725c5a60c1b63f2ab2cece87607e958e3439297a",
              "e0112f75cdb2ec74df98f6f5f368e05638896fbe76abe81cf36a22d62a2eab86")


def hex_digest(values):
    return hashlib.sha256(" ".join(float(v).hex() for v in values).encode()).hexdigest()


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

    def test_solved_once_across_xi(self, monkeypatch):
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

    def test_failed_beta_fails_the_sweep(self, monkeypatch):
        calls = []
        original = curves.sec_lower_solve

        def fails_once(beta):
            calls.append(beta)
            if len(calls) == 300:
                raise NumericalError("no sign change at one beta")
            return original(beta)

        curves._sec_lower_sweep.cache_clear()
        curves._xi_free_point.cache_clear()
        monkeypatch.setattr(curves, "sec_lower_solve", fails_once)
        try:
            with pytest.raises(NumericalError, match="at one beta"):
                emit_curves(self.GRID)
            assert len(calls) == 300
            assert curves._sec_lower_sweep.cache_info().currsize == 0
        finally:
            curves._sec_lower_sweep.cache_clear()
            curves._xi_free_point.cache_clear()

    def test_shared_sweep_is_immutable(self):
        alphas, betas = curves._sec_lower_sweep()
        assert isinstance(alphas, tuple) and isinstance(betas, tuple)


def _count_calls(monkeypatch, name):
    calls = []
    original = getattr(curves, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(curves, name, counted)
    return calls


class TestXiFreePointCache:
    GRID = [0.2, 0.5, 0.8]

    def test_weak_roots_solved_once_across_xi(self, monkeypatch):
        curves._xi_free_point.cache_clear()
        calls = _count_calls(monkeypatch, "weak_beta")
        uppers = [[p.beta for p in emit_curves(self.GRID, xi_sk=xi)
                   .by_kind(CurveKind.SectionalUpper)] for xi in (0.3, XI_SK_DEFAULT, 0.0)]
        assert len(calls) == len(self.GRID)
        assert uppers[0] != uppers[1] != uppers[2]

    def test_cold_and_warm_points_are_bit_equal(self):
        curves._sec_lower_sweep.cache_clear()
        curves._xi_free_point.cache_clear()
        cold = emit_curves(self.GRID)
        assert curves._xi_free_point.cache_info().currsize == len(self.GRID)
        warm = emit_curves(self.GRID)
        assert [p.beta.hex() for p in cold.points] == [p.beta.hex() for p in warm.points]

    def test_failed_root_is_not_cached(self, monkeypatch):
        calls = []

        def failing(alpha):
            calls.append(alpha)
            raise NumericalError("no sign change")

        curves._xi_free_point.cache_clear()
        monkeypatch.setattr(curves, "weak_beta", failing)
        for _ in range(2):
            with pytest.raises(NumericalError, match="alpha=0.5"):
                emit_curves([0.5])
        assert calls == [0.5, 0.5]
        assert curves._xi_free_point.cache_info().currsize == 0

    def test_bounded_at_grid_cap(self):
        assert curves._xi_free_point.cache_info().maxsize == curves.MAX_GRID_POINTS

    def test_warm_call_solves_only_upper_roots(self, monkeypatch):
        emit_curves(DEFAULT_GRID)
        calls = _count_calls(monkeypatch, "erfinv")
        emit_curves(DEFAULT_GRID)
        assert len(calls) == UPPER_ROOTS_ERFINV_CALLS


class TestBitPins:
    @pytest.mark.parametrize("xi", sorted(CURVE_BITS))
    def test_emitted_betas(self, xi):
        points = emit_curves(DEFAULT_GRID, xi_sk=xi).points
        assert hex_digest(p.beta for p in points) == CURVE_BITS[xi]

    def test_sec_lower_sweep(self):
        alphas, betas = curves._sec_lower_sweep()
        assert (hex_digest(alphas), hex_digest(betas)) == SWEEP_BITS


class TestDomainChecksBeforeResiduals:
    """Bad inputs are refused before any residual is evaluated."""

    @pytest.fixture(autouse=True)
    def no_residual_runs(self, monkeypatch):
        def unreachable(p):
            raise AssertionError(f"a residual ran: erfinv({p!r})")

        monkeypatch.setattr(curves, "erfinv", unreachable)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1, 1.5, math.nan, math.inf])
    def test_alpha_outside_unit_interval(self, alpha):
        with pytest.raises(DomainError):
            weak_beta(alpha)
        with pytest.raises(DomainError):
            sec_upper_beta(alpha)
        with pytest.raises(DomainError):
            emit_curves([alpha])

    @pytest.mark.parametrize("alpha", ["x", None, 10**400])
    def test_alpha_not_a_number(self, alpha):
        with pytest.raises(DomainError):
            emit_curves([alpha])

    @pytest.mark.parametrize("value", ["x", None, "0.5", 1j],
                             ids=["str", "None", "numeric-str", "complex"])
    @pytest.mark.parametrize("entry", [
        weak_beta, sec_upper_beta, sec_lower_solve, erfinv,
        lambda v: emit_curves([v]),
        lambda v: weak_residual(v, 0.2), lambda v: weak_residual(0.5, v),
        lambda v: sec_upper_residual(v, 0.2), lambda v: sec_upper_residual(0.5, v),
    ], ids=["weak_beta", "sec_upper_beta", "sec_lower_solve", "erfinv", "emit_curves",
            "weak_residual-alpha", "weak_residual-beta", "sec_upper_residual-alpha",
            "sec_upper_residual-beta"])
    def test_input_not_a_number(self, entry, value):
        with pytest.raises(DomainError):
            entry(value)

    @pytest.mark.parametrize("xi", [math.nan, math.inf, -1.0])
    def test_bad_xi_sk(self, xi):
        with pytest.raises(DomainError):
            sec_upper_beta(0.5, xi)
        with pytest.raises(DomainError):
            emit_curves([0.5], xi_sk=xi)

    @pytest.mark.parametrize("xi", ["x", None, 10**400, 1j],
                             ids=["str", "None", "huge-int", "complex"])
    @pytest.mark.parametrize("entry", [lambda xi: emit_curves([0.5], xi_sk=xi),
                                       lambda xi: sec_upper_beta(0.5, xi),
                                       lambda xi: sec_upper_residual(0.5, 0.2, xi)],
                             ids=["emit_curves", "sec_upper_beta", "sec_upper_residual"])
    def test_xi_sk_not_a_number(self, entry, xi):
        with pytest.raises(DomainError, match="xi_sk"):
            entry(xi)

    @pytest.mark.parametrize("alpha, beta", [(0.3, 0.3), (0.3, 0.5)])
    def test_beta_not_below_alpha(self, alpha, beta):
        with pytest.raises(DomainError):
            weak_residual(alpha, beta)
        with pytest.raises(DomainError):
            sec_upper_residual(alpha, beta, XI_SK_DEFAULT)
