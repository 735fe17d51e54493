import hashlib
import math
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from secthresh import DomainError, erfinv

# Reference value frozen from tests/oracles.py (mpmath at 30 digits).
ERFINV_HALF = 0.4769362762044699

# A dense grid on both branches, 0, tiny values, and values within 1e-12 of
# +-1, pinned by the sha256 of the space-joined float.hex() of erfinv on it.
_PS = [i / 10000 for i in range(-9999, 10000)]
_PS += [1.0 - 10.0 ** -j for j in range(5, 16)] + [1.0 - 2e-16, 5e-324, 1e-300, 1e-17]
PIN_GRID = _PS + [-p for p in _PS]
PIN_BITS = "f8a33b396383e4497c38480d7d95209dbceafd5c78bba1f3d2f33ac742cf9079"


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

    @pytest.mark.parametrize("bad", [Decimal("0.5"), np.array([0.5]), "0.5", None])
    def test_non_real_named(self, bad):
        with pytest.raises(DomainError, match=re.escape(repr(bad))):
            erfinv(bad)

    @pytest.mark.parametrize("p", [np.float32(0.5), np.float64(0.5), Fraction(1, 2)])
    def test_real_taken_as_python_float(self, p):
        # Computed in double precision, not in the input's type.
        got = erfinv(p)
        assert type(got) is float
        assert got == erfinv(0.5)

    def test_last_float_below_one(self):
        # (p + 1) / 2 rounds to 1 here, so the seed comes from the lower tail;
        # the value is mpmath's.
        p = 1.0 - 2.0**-53
        assert erfinv(p) == 5.8635847487551676
        assert erfinv(-p) == -5.8635847487551676

    def test_bits_pinned(self):
        bits = " ".join(erfinv(p).hex() for p in PIN_GRID)
        assert hashlib.sha256(bits.encode()).hexdigest() == PIN_BITS
