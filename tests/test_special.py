import math

import numpy as np
import pytest

from secthresh import DomainError, erfinv

# Reference value frozen from tests/oracles.py (mpmath at 30 digits).
ERFINV_HALF = 0.4769362762044699


class TestErfinv:
    def test_zero(self):
        assert erfinv(0.0) == 0.0

    def test_reference_value(self):
        assert abs(erfinv(0.5) - ERFINV_HALF) <= 1e-14

    def test_roundtrip(self):
        for x in (0.1, 0.5, 1.5, 3.0):
            assert abs(erfinv(math.erf(x)) - x) <= 1e-10

    def test_inverse_roundtrip(self):
        # The other composition order, across the open interval.
        for p in np.linspace(-0.999, 0.999, 201):
            p = float(p)
            assert abs(math.erf(erfinv(p)) - p) <= 1e-13

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
