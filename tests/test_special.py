import numpy as np
import pytest

from secthresh import DomainError, erf, erfc, erfinv

# Reference values frozen from tests/oracles.py (mpmath at 30 digits).
ERF_1 = 0.8427007929497149
ERF_POINTS = {0.3: 0.3286267594591274, 1.1: 0.8802050695740817,
              2.7: 0.9998656672600594}
ERFINV_HALF = 0.4769362762044699


class TestErf:
    def test_zero(self):
        assert erf(0.0) == 0.0

    def test_odd_symmetry(self):
        for x in (0.3, 1.1, 2.7):
            assert erf(-x) == -erf(x)

    def test_reference_values(self):
        assert abs(erf(1.0) - ERF_1) <= 1e-14
        for x, want in ERF_POINTS.items():
            assert abs(erf(x) - want) <= 1e-14

    def test_monotone_on_dense_grid(self):
        xs = np.linspace(-4.0, 4.0, 801)
        vals = [erf(float(x)) for x in xs]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_complement(self):
        for x in (-2.0, -0.5, 0.0, 0.7, 3.1):
            assert abs(erf(x) + erfc(x) - 1.0) <= 1e-15

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            erf(float("nan"))
        with pytest.raises(DomainError):
            erf(float("inf"))


class TestErfinv:
    def test_zero(self):
        assert erfinv(0.0) == 0.0

    def test_reference_value(self):
        assert abs(erfinv(0.5) - ERFINV_HALF) <= 1e-14

    def test_roundtrip(self):
        for x in (0.1, 0.5, 1.5, 3.0):
            assert abs(erfinv(erf(x)) - x) <= 1e-10

    def test_inverse_roundtrip(self):
        # The other composition order, across the open interval.
        for p in np.linspace(-0.999, 0.999, 201):
            p = float(p)
            assert abs(erf(erfinv(p)) - p) <= 1e-13

    def test_odd(self):
        for p in (0.1, 0.5, 0.9, 0.99999):
            assert erfinv(-p) == -erfinv(p)

    def test_against_scipy(self):
        sp = pytest.importorskip("scipy.special")
        ps = np.linspace(-0.99999, 0.99999, 2001)
        ours = np.array([erfinv(float(p)) for p in ps])
        theirs = sp.erfinv(ps)
        np.testing.assert_allclose(ours, theirs, rtol=1e-12, atol=1e-15)

    def test_domain(self):
        for bad in (-1.0, 1.0, 1.5, float("nan")):
            with pytest.raises(DomainError):
                erfinv(bad)
