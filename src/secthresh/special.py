"""The inverse error function underpinning the threshold equations.

The forward error function is the C library's ``math.erf`` (accurate to
< 1 ulp).  The inverse is built locally: a rational approximation of the
normal quantile seeds two Newton corrections on erf itself, which pins the
relative error well below 1e-12 everywhere the curve solvers can reach
(|p| <= 1 - 1e-12 by bracket clamping).
"""

from __future__ import annotations

import math

from .errors import DomainError

SQRT_PI = math.sqrt(math.pi)
SQRT_2 = math.sqrt(2.0)


# Rational approximation of the standard normal quantile (Acklam's
# coefficients; relative error ~1.15e-9 on (0,1)).  erfinv is recovered via
# erfinv(p) = Phi^{-1}((p+1)/2) / sqrt(2) and then polished on erf directly.
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)
_P_LOW = 0.02425


def _norm_quantile(p: float) -> float:
    """Acklam's rational approximation to Phi^{-1}(p), 0 < p < 1."""
    if p < _P_LOW:
        q = math.sqrt(-2.0 * math.log(p))
        return ((((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5])
                / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0))
    if p > 1.0 - _P_LOW:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        return -((((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5])
                 / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0))
    q = p - 0.5
    r = q * q
    return ((((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]) * q
            / (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0))


def erfinv(p: float) -> float:
    """Inverse error function: the x with erf(x) = p, for -1 < p < 1.

    Parameters
    ----------
    p : float
        Target value, strictly inside (-1, 1).

    Returns
    -------
    float
        erf^{-1}(p) with relative error <= 1e-12.

    Raises
    ------
    DomainError
        If |p| >= 1 or p is not finite.
    """
    if not math.isfinite(p) or abs(p) >= 1.0:
        raise DomainError(f"erfinv requires -1 < p < 1, got {p!r}")
    if p == 0.0:
        return 0.0
    if p < 0.0:
        return -erfinv(-p)
    x = _norm_quantile(0.5 * (p + 1.0)) / SQRT_2
    # Newton on erf; near p = 1 the residual is formed through erfc to dodge
    # the cancellation in erf(x) - p.
    q = 1.0 - p
    for _ in range(2):
        if p > 0.5:
            residual = q - math.erfc(x)  # == erf(x) - p, without cancellation
        else:
            residual = math.erf(x) - p
        x -= residual * 0.5 * SQRT_PI * math.exp(x * x)
    return x
