"""Independent reference computations used to freeze expected test values.

Everything here is deliberately built on *different* machinery than the
package under test: mpmath for special functions, scipy.optimize.brentq for
curve roots, the adjusted-dimension ratios as a second route to the
sectional upper bound's denominator, scipy.optimize.lsq_linear (BVLS active
set) for the box least-squares inner problem, a primal subgradient descent
for the dual distance, and exhaustive sign-pattern enumeration for verdicts.
Run as a script to print the constants that the unit tests hard-code.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from secthresh import DomainError
from secthresh.tau import as_sign_pattern

PRIMAL_ITERATIONS = 50_000
PRIMAL_STEP = 0.1
PRIMAL_SIZE_CAP = 60


def oracle_erf(x):
    import mpmath

    with mpmath.workdps(30):
        return float(mpmath.erf(x))


def oracle_erfinv(p):
    import mpmath

    with mpmath.workdps(30):
        return float(mpmath.erfinv(p))


def _weak_residual(alpha, beta):
    from scipy.special import erfinv as sp_erfinv

    q = sp_erfinv((1.0 - alpha) / (1.0 - beta))
    return (1.0 - beta) * math.sqrt(2.0 / math.pi) * math.exp(-q * q) / alpha \
        - math.sqrt(2.0) * q


def oracle_weak_beta(alpha):
    from scipy.optimize import brentq

    return brentq(lambda b: _weak_residual(alpha, b), 1e-9, alpha - 1e-9,
                  xtol=1e-13)


def _sec_upper_residual(alpha, beta, xi_sk):
    from scipy.special import erfinv as sp_erfinv

    q = sp_erfinv((1.0 - alpha) / (1.0 - beta))
    denom = alpha - beta + beta * (1.0 + xi_sk * math.sqrt(beta / (1.0 - alpha))) ** 2
    return (1.0 - beta) * math.sqrt(2.0 / math.pi) * math.exp(-q * q) / denom \
        - math.sqrt(2.0) * q


def oracle_sec_upper_beta(alpha, xi_sk):
    from scipy.optimize import brentq

    return brentq(lambda b: _sec_upper_residual(alpha, b, xi_sk),
                  1e-9, alpha - 1e-9, xtol=1e-13)


@dataclass(frozen=True)
class AdjustedDims:
    """Surrogate problem-size ratios used by the sectional upper bound."""

    xi_l: float
    kg_ratio: float
    mg_ratio: float
    ng_ratio: float
    xi_sk: float


def adjusted_dims(alpha, beta, xi_sk):
    """Map (alpha, beta) to the surrogate dimension ratios.

    ``xi_l = beta * (sqrt((1-alpha)/beta) + xi_sk)`` is the scaled mixed-term
    bound; the surrogate sparsity ratio is ``kg = xi_l^2 / (1-alpha)`` and the
    measurement/ambient ratios shift by the same amount:
    ``mg = alpha - beta + kg``, ``ng = 1 - beta + kg``.  ``mg`` is the
    inflated denominator that ``secthresh.curves.mg_ratio_closed_form``
    computes in closed form.
    """
    xi_l = beta * (math.sqrt((1.0 - alpha) / beta) + xi_sk)
    kg = xi_l * xi_l / (1.0 - alpha)
    return AdjustedDims(
        xi_l=xi_l,
        kg_ratio=kg,
        mg_ratio=alpha - beta + kg,
        ng_ratio=1.0 - beta + kg,
        xi_sk=xi_sk,
    )


def oracle_sec_lower(beta):
    """Return (theta_hat, alpha_bound) for the sectional lower-bound system."""
    from scipy.optimize import brentq
    from scipy.special import erfinv as sp_erfinv

    def theta_residual(theta):
        q = sp_erfinv((1.0 - theta) / (1.0 - beta))
        num = math.sqrt(2.0 / math.pi) * ((1.0 - beta) * math.exp(-q * q) - beta)
        return num / theta - math.sqrt(2.0) * q

    theta = brentq(theta_residual, beta + 1e-9, 1.0 - 1e-9, xtol=1e-13)
    q = sp_erfinv((1.0 - theta) / (1.0 - beta))
    e = math.exp(-q * q)
    term = (1.0 - beta) / math.sqrt(2.0 * math.pi) * (
        math.sqrt(2.0 * math.pi)
        + 2.0 * math.sqrt(2.0 * q * q) * e
        - math.sqrt(2.0 * math.pi) * (1.0 - theta) / (1.0 - beta)
    ) + beta
    g = (1.0 - beta) * math.sqrt(2.0 / math.pi) * e - math.sqrt(2.0 / math.pi) * beta
    alpha_bound = term - g * g / theta
    return theta, alpha_bound


def oracle_box_distance(Dperp, k, b):
    """Exact distance from the sign-pattern box slice to the row space.

    minimize ||M x - c|| over x in [-1, 1]^(n-k), where z = [x, -b].
    """
    from scipy.optimize import lsq_linear

    Dperp = np.asarray(Dperp, dtype=float)
    n = Dperp.shape[1]
    b = np.asarray(b, dtype=float)
    M = Dperp[:, : n - k]
    c = Dperp[:, n - k:] @ b
    res = lsq_linear(M, c, bounds=(-1.0, 1.0), method="bvls", tol=1e-14)
    return float(np.linalg.norm(M @ res.x - c))


def primal_tau_batch(cases):
    """Primal values for a batch of (projector, k, b) cases, as an array.

    Each value is the minimum of head-l1(w) minus b . tail(w) over
    w = Dperp^T u with ||u|| <= 1, found by projected subgradient descent
    with steps PRIMAL_STEP / sqrt(t) over PRIMAL_ITERATIONS steps.  The
    running minimum starts at 0 (u = 0 is feasible), so no value is
    positive; it should match -distance(b) to about 1e-3 absolute.

    All cases run as one numpy pass over bases zero-padded to the largest
    (n-m, n).  The padding is inert: padded rows of Dperp leave u at 0, and
    padded columns give w = 0, a zero subgradient and no tail.  Capped at
    n <= PRIMAL_SIZE_CAP.
    """
    cases = list(cases)
    rows = max(P.Dperp.shape[0] for P, _, _ in cases)
    cols = max(P.Dperp.shape[1] for P, _, _ in cases)
    D = np.zeros((len(cases), rows, cols))
    head = np.ones((len(cases), cols, 1))
    signs = np.zeros((len(cases), cols, 1))  # b on the tail, 0 elsewhere
    for i, (P, k, b) in enumerate(cases):
        n = P.Dperp.shape[1]
        if n > PRIMAL_SIZE_CAP:
            raise DomainError(f"primal reference capped at n <= {PRIMAL_SIZE_CAP}, got n={n}")
        if not (1 <= k < n):
            raise DomainError(f"need 1 <= k < n={n}, got k={k}")
        D[i, :P.Dperp.shape[0], :n] = P.Dperp
        head[i, n - k:n] = 0.0
        signs[i, n - k:n, 0] = as_sign_pattern(b, k)
    DT = D.transpose(0, 2, 1).copy()
    u = np.zeros((len(cases), rows, 1))
    best = np.zeros(len(cases))
    for t in range(1, PRIMAL_ITERATIONS + 1):
        w = DT @ u
        sub = np.sign(w) * head - signs
        # w . sub = head l1 of w minus b . tail of w, the primal value at u.
        np.minimum(best, np.sum(w * sub, axis=(1, 2)), out=best)
        u -= (PRIMAL_STEP / math.sqrt(t)) * (D @ sub)
        u /= np.maximum(np.sqrt(np.sum(u * u, axis=(1, 2), keepdims=True)), 1.0)
    return best


def primal_tau_reference(P, k, b):
    """The primal value of one case: a batch of one."""
    return float(primal_tau_batch([(P, k, b)])[0])


def oracle_enumerate(Dperp, k):
    """Max box distance over every sign pattern (exhaustive, k <= 12)."""
    if k > 12:
        raise ValueError("enumeration oracle capped at k <= 12")
    best = 0.0
    best_b = None
    for signs in itertools.product((-1.0, 1.0), repeat=k):
        b = np.array(signs)
        d = oracle_box_distance(Dperp, k, b)
        if d > best:
            best, best_b = d, b
    return best, best_b


if __name__ == "__main__":
    print(f"oracle_erf(1) = {oracle_erf(1.0)!r}")
    print(f"oracle_erf(0.3) = {oracle_erf(0.3)!r}")
    print(f"oracle_erf(1.1) = {oracle_erf(1.1)!r}")
    print(f"oracle_erf(2.7) = {oracle_erf(2.7)!r}")
    print(f"oracle_erfinv(0.5) = {oracle_erfinv(0.5)!r}")
    print(f"oracle_weak_beta(0.3) = {oracle_weak_beta(0.3)!r}")
    print(f"oracle_weak_beta(0.5) = {oracle_weak_beta(0.5)!r}")
    print(f"oracle_weak_beta(0.7) = {oracle_weak_beta(0.7)!r}")
    print(f"oracle_sec_upper_beta(0.5, 0.7632) = {oracle_sec_upper_beta(0.5, 0.7632)!r}")
    print(f"oracle_sec_lower(0.1) = {oracle_sec_lower(0.1)!r}")
    print(f"weak_residual(0.5, 0.19) = {_weak_residual(0.5, 0.19)!r}")
    print(f"weak_residual(0.5, 0.20) = {_weak_residual(0.5, 0.20)!r}")
    print(f"sec_upper_residual(0.5, 0.15, 0.7632) = {_sec_upper_residual(0.5, 0.15, 0.7632)!r}")
    print(f"sec_upper_residual(0.5, 0.05, 0.7632) = {_sec_upper_residual(0.5, 0.05, 0.7632)!r}")
