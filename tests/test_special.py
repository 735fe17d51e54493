import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

from secthresh import erfinv
from test_api import add_refusal_tests

# Reference value frozen from tests/oracles.py (mpmath at 30 digits).
ERFINV_HALF = 0.4769362762044699

# A dense grid on both branches, 0, tiny values, and values within 1e-12 of
# +-1, pinned by the sha256 of the space-joined float.hex() of erfinv on it.
_PS = [i / 10000 for i in range(-9999, 10000)]
_PS += [1.0 - 10.0 ** -j for j in range(5, 16)] + [1.0 - 2e-16, 5e-324, 1e-300, 1e-17]
PIN_GRID = _PS + [-p for p in _PS]
PIN_BITS = "f5725be33df9aaedf1e594b0ee11e0d334443c58484d934448e9027797d0f19b"


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

    @pytest.mark.parametrize("p", [np.float32(0.5), np.float64(0.5), Fraction(1, 2)])
    def test_real_taken_as_python_float(self, p):
        # Computed in double precision, not in the input's type.
        got = erfinv(p)
        assert type(got) is float
        assert got == erfinv(0.5)

    @pytest.mark.parametrize("p", [1.0 - 3 * 2.0**-53, 1.0 - 1e-15, 1.0 - 1e-13])
    def test_near_one_against_mpmath(self, p):
        # (1 + p) / 2 rounds here, so a seed taken there sits too far off for
        # two Newton steps; the seed from the exact 1 - p does not.
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            ref = float(mpmath.erfinv(mpmath.mpf(p)))
        for q, want in ((p, ref), (-p, -ref)):
            assert abs(erfinv(q) - want) <= 1e-15 * abs(want)

    def test_last_float_below_one(self):
        # (p + 1) / 2 rounds to 1 here; the value is mpmath's.
        p = 1.0 - 2.0**-53
        assert erfinv(p) == 5.8635847487551676
        assert erfinv(-p) == -5.8635847487551676

    def test_bits_pinned(self):
        bits = " ".join(erfinv(p).hex() for p in PIN_GRID)
        assert hashlib.sha256(bits.encode()).hexdigest() == PIN_BITS


add_refusal_tests(globals())  # this module's rows of the refusal table
