"""Threshold curves for l1 recovery over Gaussian measurements.

Three curves in the (alpha, beta) = (m/n, k/n) plane are computed:

* ``weak``      — the exact weak-recovery threshold, the root in beta of
                  ``(1-b)*sqrt(2/pi)*exp(-q^2)/a - sqrt(2)*q`` with
                  ``q = erfinv((1-a)/(1-b))``.
* ``sec-lower`` — a lower bound on the sectional threshold, obtained by
                  solving an auxiliary scalar equation for ``theta_hat`` and
                  evaluating a closed-form bound ``alpha(beta)``; the curve is
                  traced parametrically in beta and interpolated onto the
                  requested alpha grid.
* ``sec-upper`` — an upper bound on the sectional threshold: the weak
                  equation with the denominator alpha inflated to
                  ``a - b + b*(1 + xi*sqrt(b/(1-a)))^2``, where ``xi`` is the
                  scaled ground-state energy constant of the
                  Sherrington-Kirkpatrick bilinear form (default 0.7632).

All roots are located by a linear sign-change scan (400 points) followed by
bisection, and every returned root is certified by the residual held at it.
The scan refuses to proceed if it sees more than one sign change, so an
unexpected multi-root geometry fails loudly instead of returning garbage.

Each input is checked once, where it enters, by the rules of
:mod:`secthresh.errors`.  ``weak_beta`` and ``sec_upper_beta`` check alpha and
``xi_sk`` before the scan, whose points lie in ``[1e-6, alpha - 1e-6]``, and
then evaluate the unchecked ``_residual``.  A root costs about 425 residual
evaluations, each one ``erfinv`` call, looked up in this module.

Only the sec-upper curve depends on ``xi_sk``, so :func:`emit_curves` solves
the rest once per process.  The 600-point sec-lower sweep is solved on the
first call.  The weak root and the interpolated sec-lower beta at a grid alpha
are kept in a cache keyed by alpha and bounded at :data:`MAX_GRID_POINTS`
alphas.  It holds the very floats the solvers returned, so a warm point is
bit-equal to a cold one.  A warm call solves only its sec-upper roots.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Sequence

from .errors import DomainError, NumericalError, nonnegative, real
from .special import erfinv

#: Scaled Sherrington-Kirkpatrick ground-state energy constant used by the
#: sectional upper bound.  Exposed so sensitivity to it can be explored.
XI_SK_DEFAULT = 0.7632

SQRT_2 = math.sqrt(2.0)
SQRT_2_PI = math.sqrt(2.0 / math.pi)

_SCAN_POINTS = 400
_ROOT_WIDTH_TOL = 1e-10  # bisection width; the 1e-9 residual check pins a root
_BRACKET_MARGIN = 1e-6
_SWEEP_POINTS = 600

#: Largest alpha grid the ``curves`` command accepts, and the number of alphas
#: whose weak and sec-lower betas :func:`emit_curves` keeps.
MAX_GRID_POINTS = 10_000


class CurveKind(Enum):
    """Which of the three threshold curves a point belongs to."""

    WeakExact = "weak"
    SectionalLower = "sec-lower"
    SectionalUpper = "sec-upper"


@dataclass(frozen=True)
class ThresholdPoint:
    alpha: float
    beta: float
    kind: CurveKind


@dataclass(frozen=True)
class SectionalLowerSolve:
    """Solution of the sectional lower-bound system at one beta."""

    beta: float
    theta_hat: float
    alpha_bound: float


@dataclass
class CurveSet:
    points: list[ThresholdPoint] = field(default_factory=list)

    def by_kind(self, kind: CurveKind) -> list[ThresholdPoint]:
        return [p for p in self.points if p.kind is kind]


def _residual(alpha: float, beta: float, denom: float) -> float:
    # Unchecked: callers guarantee 0 < beta < alpha < 1.  The weak equation
    # has denom = alpha, the sectional upper bound mg_ratio_closed_form.
    q = erfinv((1.0 - alpha) / (1.0 - beta))
    return (1.0 - beta) * SQRT_2_PI * math.exp(-q * q) / denom - SQRT_2 * q


def weak_residual(alpha: float, beta: float) -> float:
    """Residual of the weak-threshold equation at (alpha, beta).

    Positive residual means beta is below the weak threshold at this alpha;
    the threshold itself is the root in beta.
    """
    alpha = real(alpha, "alpha", 0.0, 1.0)
    beta = real(beta, "beta", 0.0, alpha)
    return _residual(alpha, beta, alpha)


def mg_ratio_closed_form(alpha: float, beta: float, xi_sk: float) -> float:
    """Inflated denominator of the sectional upper bound (closed form)."""
    try:
        return alpha - beta + beta * (1.0 + xi_sk * math.sqrt(beta / (1.0 - alpha))) ** 2
    except OverflowError as exc:
        raise NumericalError(
            f"sectional upper-bound denominator overflows at xi_sk={xi_sk!r}"
        ) from exc


def sec_upper_residual(alpha: float, beta: float, xi_sk: float = XI_SK_DEFAULT) -> float:
    """Weak residual with alpha replaced by the inflated denominator."""
    alpha = real(alpha, "alpha", 0.0, 1.0)
    beta = real(beta, "beta", 0.0, alpha)
    xi_sk = nonnegative(xi_sk, "xi_sk")
    return _residual(alpha, beta, mg_ratio_closed_form(alpha, beta, xi_sk))


def _sec_lower_theta_residual(theta: float, beta: float) -> float:
    q = erfinv((1.0 - theta) / (1.0 - beta))
    return ((1.0 - beta) * SQRT_2_PI * math.exp(-q * q) - SQRT_2_PI * beta) / theta - SQRT_2 * q


def _sec_lower_alpha_bound(theta: float, beta: float) -> float:
    q = erfinv((1.0 - theta) / (1.0 - beta))
    sqrt_2pi = math.sqrt(2.0 * math.pi)
    first = (1.0 - beta) / sqrt_2pi * (
        sqrt_2pi
        + 2.0 * math.sqrt(2.0 * q * q) * math.exp(-q * q)
        - sqrt_2pi * (1.0 - theta) / (1.0 - beta)
    )
    second = ((1.0 - beta) * SQRT_2_PI * math.exp(-q * q) - SQRT_2_PI * beta) ** 2 / theta
    return first + beta - second


def _scan_bracket(f: Callable[[float], float], lo: float,
                  hi: float) -> tuple[float, float, float, float]:
    """Locate exactly one sign change of f on [lo, hi] by a linear scan.

    A scan point where f is exactly zero counts as a sign change of its own.
    """
    width = hi - lo
    xs = [lo + width * i / (_SCAN_POINTS - 1) for i in range(_SCAN_POINTS)]
    vals = list(map(f, xs))
    changes = [i for i, (u, v) in enumerate(zip(vals, vals[1:])) if u * v < 0.0]
    zeros = vals.count(0.0)
    if not changes and not zeros:
        raise NumericalError(
            f"no sign change on [{lo:.6g}, {hi:.6g}] over {_SCAN_POINTS} scan points"
        )
    if len(changes) + zeros > 1:
        raise NumericalError(
            f"{len(changes) + zeros} sign changes on [{lo:.6g}, {hi:.6g}]; refusing to pick one"
        )
    if zeros:
        i = vals.index(0.0)
        return xs[i], xs[i], vals[i], vals[i]
    i = changes[0]
    return xs[i], xs[i + 1], vals[i], vals[i + 1]


def _bisect(f: Callable[[float], float], lo: float, hi: float,
            flo: float, fhi: float, resid_tol: float) -> float:
    """Bisection to bracket width <= _ROOT_WIDTH_TOL, then residual certification.

    The root is the bracket end with the smaller residual, certified with the
    residual already held there.
    """
    if lo == hi:
        return lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fm = f(mid)
        if fm == 0.0:
            return mid
        if flo * fm < 0.0:
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
        if hi - lo <= _ROOT_WIDTH_TOL and min(abs(flo), abs(fhi)) <= resid_tol:
            break
    root, froot = (lo, flo) if abs(flo) <= abs(fhi) else (hi, fhi)
    if abs(froot) > resid_tol:
        raise NumericalError(
            f"root residual {froot:.3e} exceeds certification tolerance {resid_tol:.1e}"
        )
    return root


def _root(f: Callable[[float], float], lo: float, hi: float, resid_tol: float) -> float:
    """The one root of f on [lo, hi]: a sign-change scan, then bisection."""
    a, b, fa, fb = _scan_bracket(f, lo, hi)
    return _bisect(f, a, b, fa, fb, resid_tol)


def _beta_bracket(alpha: float) -> tuple[float, float, float]:
    """Alpha as a float, and the beta interval inside (0, alpha) a root scans."""
    alpha = real(alpha, "alpha", 0.0, 1.0)
    lo, hi = 1e-6, alpha - _BRACKET_MARGIN
    if hi <= lo:
        raise DomainError(f"alpha={alpha!r} leaves no beta bracket")
    return alpha, lo, hi


def weak_beta(alpha: float) -> float:
    """Root in beta of the weak-threshold equation at the given alpha."""
    alpha, lo, hi = _beta_bracket(alpha)
    return _root(lambda b: _residual(alpha, b, alpha), lo, hi, resid_tol=1e-9)


def sec_upper_beta(alpha: float, xi_sk: float = XI_SK_DEFAULT) -> float:
    """Root in beta of the sectional upper-bound equation at the given alpha."""
    alpha, lo, hi = _beta_bracket(alpha)
    xi_sk = nonnegative(xi_sk, "xi_sk")
    return _root(lambda b: _residual(alpha, b, mg_ratio_closed_form(alpha, b, xi_sk)),
                 lo, hi, resid_tol=1e-9)


def sec_lower_solve(beta: float) -> SectionalLowerSolve:
    """Solve the sectional lower-bound system at one beta.

    Solves the auxiliary equation for ``theta_hat`` on
    ``[beta + 1e-9, 1 - 1e-9]`` (scan + bisection), then evaluates the
    closed-form bound ``alpha_bound``.  The pair traces the lower-bound curve
    parametrically: beta is the ordinate, alpha_bound the abscissa.
    """
    # At beta >= 1/2 the theta equation's numerator is negative for every
    # theta in (beta, 1), so the system has no solution at all.
    beta = real(beta, "beta", 0.0, 0.5)
    theta = _root(lambda t: _sec_lower_theta_residual(t, beta),
                  beta + 1e-9, 1.0 - 1e-9, resid_tol=1e-10)
    alpha_bound = _sec_lower_alpha_bound(theta, beta)
    if not (beta < alpha_bound < 1.0):
        raise NumericalError(f"alpha_bound={alpha_bound!r} outside (beta, 1) "
                             f"at beta={beta!r}")
    return SectionalLowerSolve(beta=beta, theta_hat=theta, alpha_bound=alpha_bound)


@functools.cache
def _sec_lower_sweep() -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Trace the lower-bound curve parametrically: beta grid -> alpha grid.

    Every beta must solve; a failed solve fails the sweep.  Cached for the
    life of the process; tuples keep the shared result immutable.
    """
    betas = tuple(1e-4 + (0.4999 - 1e-4) * i / (_SWEEP_POINTS - 1)
                  for i in range(_SWEEP_POINTS))
    alphas = tuple(sec_lower_solve(beta).alpha_bound for beta in betas)
    if any(a2 <= a1 for a1, a2 in zip(alphas, alphas[1:])):
        raise NumericalError("sectional lower-bound sweep is not monotone in alpha")
    return alphas, betas


def _interp(x: float, xs: Sequence[float], ys: Sequence[float]) -> float:
    """Linear interpolation with strictly increasing xs; refuses extrapolation."""
    if not (xs[0] <= x <= xs[-1]):
        raise NumericalError(f"alpha={x!r} outside the swept range [{xs[0]:.4g}, {xs[-1]:.4g}]")
    j = bisect.bisect_left(xs, x)
    if j == 0:
        return ys[0]
    t = (x - xs[j - 1]) / (xs[j] - xs[j - 1])
    return ys[j - 1] + t * (ys[j] - ys[j - 1])


@functools.lru_cache(maxsize=MAX_GRID_POINTS)
def _xi_free_point(alpha: float) -> tuple[float, float]:
    """The weak root and the interpolated sec-lower beta at one grid alpha.

    Neither depends on ``xi_sk``, so each is solved once per alpha.  A solve
    that raises is not cached.
    """
    sweep_alpha, sweep_beta = _sec_lower_sweep()
    return weak_beta(alpha), _interp(alpha, sweep_alpha, sweep_beta)


def emit_curves(alphas: Iterable[float], xi_sk: float = XI_SK_DEFAULT) -> CurveSet:
    """Sample all three curves on an alpha grid.

    Weak and sectional-upper points come from direct root solves at each
    alpha; sectional-lower points come from the parametric beta sweep, solved
    once per process and interpolated onto the grid.  The weak and
    sectional-lower betas do not depend on ``xi_sk`` and are solved once per
    alpha (see the module docstring).  Emitted points are checked against the
    ordering invariant sec-lower <= sec-upper <= weak.
    """
    xi_sk = nonnegative(xi_sk, "xi_sk")
    grid = [real(a, "grid alpha", 0.02, 0.98) for a in alphas]
    out = CurveSet()
    if not grid:
        return out
    _sec_lower_sweep()  # a sweep failure surfaces before any root is solved
    for a in grid:
        try:
            bw, bl = _xi_free_point(a)
            bu = sec_upper_beta(a, xi_sk)
        except NumericalError as exc:
            raise NumericalError(f"curve solve failed at alpha={a!r}: {exc}") from exc
        if not (bl <= bu + 1e-12 and bu <= bw + 1e-12):
            raise NumericalError(f"ordering violated at alpha={a!r}: sec-lower={bl!r} "
                                 f"sec-upper={bu!r} weak={bw!r}")
        for beta, kind in ((bw, CurveKind.WeakExact), (bl, CurveKind.SectionalLower),
                           (bu, CurveKind.SectionalUpper)):
            out.points.append(ThresholdPoint(alpha=a, beta=beta, kind=kind))
    return out
