"""Sectional-failure functional: exact dual solves, bit-flip search, certificates.

Terminology: coordinates 1..n-k are the *head* (off the designated support
block), coordinates n-k+1..n are the *tail* (the block).  l1 recovery fails
sectionally iff some null-space vector w carries more l1 mass on the tail
than on the head; the search looks for such a w one sign pattern at a time.

For a fixed tail sign pattern b the inner problem is the distance from the
box slice {|z_i| <= 1 head, z_i = -b_i tail} to the row space of A:

    distance(b) = min ||Dperp z||_2  over the slice,

a box-constrained least-squares problem solved here by projected gradient
steps with Nesterov momentum and adaptive restart (plain step 1/2 on the
squared objective; the momentum changes the path, not the fixed point).
A positive distance yields, through the KKT conditions, a null-space vector
w = -Q z* whose tail l1 beats its head l1 by at least distance^2 — an
arithmetically checkable failure certificate.

The outer search climbs distance(b) by cyclic single-bit flips.  Below the
positivity threshold the distance is identically zero across wide regions of
{-1,+1}^k and carries no search signal, so ties are broken by a *tail margin*:
the squared norm of the minimum-head-energy row-space point with tail pinned
at -b.  That margin is the quadratic form b^T G b of a Gram matrix built once
per instance from the SVD of the tail rows D_t = U S V^T of the row-space
basis, in closed form G = U (S^-2 - I) U^T, so each tentative flip costs O(k)
to score.  Patterns with larger margin force row-space vectors to carry more
head energy, which is exactly what drives the slice off the row space and the
distance positive.  When D_t is rank deficient (k > m, say) G is zero: no
pattern's margin differs from another's, and the search runs on the distance
alone.

Most tentative flips are rejects, and most of them can be told apart early.
While the incumbent sits at or below the threshold, a flip that does not raise
the margin is kept only if its distance exceeds the threshold.  Its solve
stops as soon as a boxed iterate z (head clipped to the box, tail at -b) has
||Dperp z|| <= threshold: z lies in the slice, so the minimum over the slice,
the distance, is at most the threshold, and the flip can be neither kept nor
certified.  The stopped solve is discarded.  Every solve whose result the
search keeps or certifies from (the first solve, margin-raising flips, and all
flips once the incumbent is positive) runs to the fixed point as before, so
the incumbent heads, warm starts and certificates keep their bits.  The one
way a reject can differ from a solve run to the end is at the threshold edge:
a fixed point that lands just above the threshold after an earlier boxed
iterate was already at or below it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from . import _blas
from .errors import CertificateError, DomainError, count, floats, matrix, nonnegative, vector
from .instances import GaussianInstance, NullProjector, null_projector

__all__ = [
    "DualSolve", "Certificate", "Verdict", "TauOutcome", "as_sign_pattern",
    "positivity_threshold", "dual_distance", "extract_certificate",
    "verify_theorem2_construction", "bit_flip_search", "estimate_failure",
]

# Solver settings.  They are read from the module when a function runs, so a
# test can monkeypatch one.
FIXED_POINT_TOL = 1e-9   # inner solve: largest unaccelerated step at a fixed point
MAX_ITERATIONS = 50_000  # inner solve: iteration cap
CHECK_EVERY = 10         # inner solve: iterations between fixed-point tests
ACCEPT_TOL = 1e-9        # search: quantized-distance gain a kept flip needs
MAX_PASSES = 64          # search: cap of MAX_PASSES * k tentative flips


def positivity_threshold(n: int) -> float:
    """Distance a solve must exceed to count as positive in dimension n."""
    return 1e-6 * np.sqrt(n)


@dataclass(frozen=True)
class DualSolve:
    """Result of one box-slice-to-row-space distance computation.

    The tail of ``z_star`` is -b for the pattern b that was solved.
    ``converged`` means the solve ended before MAX_ITERATIONS.
    ``stopped_below`` means it ended early, at a boxed point within the
    ``stop_below`` bound it was given, rather than at the fixed point.
    """

    z_star: np.ndarray
    distance: float
    iterations: int
    converged: bool
    stopped_below: bool = False


@dataclass(frozen=True)
class Certificate:
    """Null-space vector whose tail l1 mass exceeds its head l1 mass."""

    w: np.ndarray
    head_l1: float
    tail_l1: float
    nullspace_residual: float

    @property
    def gap(self) -> float:
        return self.tail_l1 - self.head_l1


class Verdict(Enum):
    CertifiedFailure = "CertifiedFailure"
    NotCertified = "NotCertified"


@dataclass(frozen=True)
class TauOutcome:
    best_b: np.ndarray
    best_distance: float
    certificate: Optional[Certificate]
    flips_evaluated: int
    unconverged_solves: int = 0

    @property
    def verdict(self) -> Verdict:
        """CertifiedFailure exactly when the search holds a certificate."""
        if self.certificate is None:
            return Verdict.NotCertified
        return Verdict.CertifiedFailure


def as_sign_pattern(b, k: int) -> np.ndarray:
    """Validate and canonicalize a +-1 pattern of length k, as a new array."""
    arr = vector(b, "sign pattern", k).copy()
    if np.count_nonzero(np.abs(arr) != 1.0):  # nan too
        raise DomainError("sign pattern entries must be exactly +-1")
    return arr


def _box_lsq(M: np.ndarray, c: np.ndarray, x0: np.ndarray,
             stop_below: Optional[float] = None) -> tuple[np.ndarray, int, bool, bool]:
    """min ||M x - c||^2 over the unit box, by accelerated projected gradient.

    The gradient step is the plain step-1/2 projected-gradient update (the
    operator norm of M is at most 1 because its rows sit in an orthonormal
    basis); Nesterov momentum with gradient-based restart accelerates the
    linear tail.  Convergence is declared when the *unaccelerated* projected
    step from the current iterate moves no coordinate by more than
    FIXED_POINT_TOL, so the returned point satisfies the same fixed-point
    criterion the plain method would.

    With ``stop_below`` set, each test first checks the boxed iterate x: once
    ||M x - c|| <= stop_below, the minimum is known to be at most that, and
    the solve stops there.  Returns (x, iterations, converged, stopped); a
    stopped solve counts as converged.

    The loop runs compiled (``_blas.box_lsq_kernel``), with the operations of
    ``_box_lsq_numpy`` in the same order, so its bits equal that loop's; the
    numpy loop runs where the compiled one cannot.
    """
    kernel = _blas.box_lsq_kernel()
    solved = None if kernel is None else kernel(M, c, x0, MAX_ITERATIONS, CHECK_EVERY,
                                                FIXED_POINT_TOL, stop_below)
    return _box_lsq_numpy(M, c, x0, stop_below) if solved is None else solved


def _box_lsq_numpy(M: np.ndarray, c: np.ndarray, x0: np.ndarray,
                   stop_below: Optional[float] = None) -> tuple[np.ndarray, int, bool, bool]:
    """``_box_lsq``'s loop in numpy calls."""
    stop_sq = None if stop_below is None else stop_below * stop_below
    x = x0.copy()
    y = x.copy()
    t_mom = 1.0
    it = 0
    for it in range(1, MAX_ITERATIONS + 1):
        g = M.T @ (M @ y - c)
        # minimum(maximum(.)) gives np.clip's bits for finite input and costs
        # less than np.clip on vectors of this size.
        xn = np.minimum(np.maximum(y - g, -1.0), 1.0)
        if np.dot(g, xn - x) > 0.0:
            t_mom, y = 1.0, xn
        else:
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_mom * t_mom))
            y = xn + ((t_mom - 1.0) / t_next) * (xn - x)
            t_mom = t_next
        x = xn
        if it % CHECK_EVERY == 0 or it == MAX_ITERATIONS:
            r = M @ x - c
            if stop_sq is not None and np.dot(r, r) <= stop_sq:
                return x, it, True, True
            step = np.minimum(np.maximum(x - M.T @ r, -1.0), 1.0) - x
            if np.max(np.abs(step), initial=0.0) <= FIXED_POINT_TOL:
                return x, it, True, False
    return x, it, False, False


def dual_distance(P: NullProjector, k: int, b,
                  x0: Optional[np.ndarray] = None,
                  stop_below: Optional[float] = None) -> DualSolve:
    """Distance from the box slice for pattern b to the row space of A.

    Parameters
    ----------
    P : NullProjector
        Factorization of the instance.
    k : int
        Tail block length, 1 <= k < n.
    b : array-like
        Sign pattern of length k (entries +-1).
    x0 : ndarray, optional
        Warm start for the head block: a finite vector of length n - k,
        clipped to the box (defaults to zeros).
    stop_below : float, optional
        Stop once a boxed iterate lies within this distance (finite, >= 0) of
        the row space, which proves distance(b) <= stop_below; the result then
        has ``stopped_below`` set.  Default: always solve to the fixed point.

    Returns
    -------
    DualSolve
        With z_star feasible (head clipped to the box, tail pinned at -b) and
        distance recomputed as ||Dperp z_star|| at return.
    """
    n = P.Dperp.shape[1]
    count(k, "k", 1, n - 1, "n")
    b = as_sign_pattern(b, k)
    if stop_below is not None:
        stop_below = nonnegative(stop_below, "stop_below")
    Dperp = P.Dperp
    M = Dperp[:, :n - k]
    c = Dperp[:, n - k:] @ b
    start = np.zeros(n - k) if x0 is None else vector(x0, "x0", n - k)
    if not np.isfinite(start).all():
        raise DomainError("x0 must have finite entries")
    start = np.clip(start, -1.0, 1.0)
    x, iterations, converged, stopped = _box_lsq(M, c, start, stop_below)
    z = np.concatenate([x, -b])
    distance = float(np.linalg.norm(Dperp @ z))
    return DualSolve(z_star=z, distance=distance, iterations=iterations,
                     converged=converged, stopped_below=stopped)


def extract_certificate(P: NullProjector, k: int, solve: DualSolve) -> Certificate:
    """Turn a converged positive-distance solve into a verified certificate.

    The candidate is w = -Q z*; at the optimum the supporting-hyperplane
    identity forces tail_l1(w) - head_l1(w) >= distance^2 up to solver slack.
    ``solve.z_star`` must have shape (n,) for the n columns of the matrix.
    The gap and the null-space residual are re-measured arithmetically here,
    and a candidate failing either check raises instead of being returned.
    The residual check fails closed: an ||A||_F that overflows to inf or
    underflows to 0, or a non-finite ||A w||, proves nothing and raises.
    """
    n = P.Dperp.shape[1]
    count(k, "k", 1, n - 1, "n")
    z_star = vector(solve.z_star, "z_star", n)
    threshold = positivity_threshold(n)
    if not solve.converged or solve.stopped_below:
        raise DomainError("certificate extraction requires a solve run to its fixed point")
    if solve.distance <= threshold:
        raise DomainError(f"distance {solve.distance:.3e} not above positivity threshold "
                          f"{threshold:.3e}")
    w = -P.apply_q(z_star)
    head_l1 = float(np.sum(np.abs(w[:n - k])))
    tail_l1 = float(np.sum(np.abs(w[n - k:])))
    gap = tail_l1 - head_l1
    with np.errstate(over="ignore"):  # a norm that overflows is refused below
        norm_a = float(np.linalg.norm(P.A))
        norm_aw = float(np.linalg.norm(P.A @ w))
    residual = norm_aw / norm_a if norm_a else 0.0
    if gap <= 0.0:
        raise CertificateError(
            f"candidate gap {gap:.3e} is not positive (distance {solve.distance:.3e})")
    if not (0.0 < norm_a < math.inf and math.isfinite(norm_aw) and residual <= 1e-8):
        raise CertificateError(
            f"null-space residual {residual:.3e} exceeds 1e-8 or rests on a zero or "
            f"non-finite norm (||A w|| {norm_aw:.3e}, ||A|| {norm_a:.3e})")
    return Certificate(w=w, head_l1=head_l1, tail_l1=tail_l1, nullspace_residual=residual)


def verify_theorem2_construction(A: np.ndarray, k: int, cert: Certificate) -> None:
    """Check the explicit sparse vector built from a certificate.

    Builds x supported on the tail with x_j = -w_j there; then x + w agrees
    with w on the head and vanishes on the tail, so the construction fails l1
    recovery iff ||x + w||_1 < ||x||_1 and both vectors measure identically.
    A must be a 2-D matrix with n columns and ``cert.w`` of shape (n,);
    either refusal is a DomainError.  A construction that fails the check
    raises CertificateError with the measured numbers.  The check fails
    closed: a zero or non-finite tolerance (an ||A||_F that underflowed or
    overflowed) or a non-finite measurement residual does not pass.
    """
    A = floats(A, "A")
    if A.ndim != 2:
        raise DomainError(f"A must be a 2-D matrix, got shape {A.shape}")
    n = A.shape[1]
    count(k, "k", 1, n - 1, "n")
    w = vector(cert.w, "w", n)
    x = np.zeros(n)
    x[n - k:] = -w[n - k:]
    l1_original = float(np.sum(np.abs(x)))
    l1_competitor = float(np.sum(np.abs(x + w)))
    with np.errstate(over="ignore"):  # a norm that overflows does not pass
        norm_a = float(np.linalg.norm(A))
        norm_w = float(np.linalg.norm(w))
        meas = float(np.linalg.norm(A @ (x + w) - A @ x))
    bound = 1e-8 * norm_a * max(norm_w, 1e-300)
    if not (l1_competitor < l1_original and 0.0 < bound < math.inf and meas <= bound):
        raise CertificateError(
            f"construction check failed: ||x + w||_1 {l1_competitor:.3e} vs ||x||_1 "
            f"{l1_original:.3e}, measurement residual {meas:.3e} vs bound {bound:.3e}")


def _tail_margin_gram(P: NullProjector, k: int) -> np.ndarray:
    """Gram matrix G with b^T G b = squared tail margin of pattern b.

    The margin is min ||z_head||_2 over row-space points z with z_tail = -b.
    Writing row-space points as z = D c (D = orthonormal row-space basis,
    split into head rows D_h and tail rows D_t), the minimizer is the
    minimum-norm solution of D_t c = -b, and ||z_head||^2 = ||c||^2 - ||b||^2
    because the columns of D are orthonormal.  With D_t = U S V^T that gives

        G = (D_t D_t^T)^{-1} - I = U (S^-2 - I) U^T.

    When the tail rows of D are rank deficient (k > m, or two equal tail
    columns of A) no row-space point pins every tail pattern, and G is zero:
    every pattern has the same margin, so the margin carries no search signal.
    """
    n = P.Dperp.shape[1]
    u, s, _ = np.linalg.svd(P.rowspace[:, n - k:].T, full_matrices=False)
    if s.shape[0] < k or s[-1] <= 1e-10:
        return np.zeros((k, k))
    return (u * (1.0 / (s * s) - 1.0)) @ u.T


def bit_flip_search(P: NullProjector, k: int) -> TauOutcome:
    """Cyclic single-bit local search for a certifiably failing sign pattern.

    Starts from the all-ones pattern and walks the lexicographic objective
    (distance quantized at the positivity threshold, then the tail margin):
    a tentative flip is kept iff the quantized distance strictly increases by
    the accept tolerance, or ties while the margin strictly increases.  Every
    converged evaluation above the threshold attempts certificate extraction;
    the first verified certificate ends the search.  The search gives up
    after a full cycle of k consecutive non-improving flips, or after
    MAX_PASSES * k tentative evaluations.

    While the incumbent sits at or below the positivity threshold, a flip
    that does not raise the margin is kept only if its distance exceeds the
    threshold.  Its solve is therefore told to stop below the threshold, and
    a stopped solve is a reject: a boxed point that close to the row space
    proves the distance is at most the threshold, so the flip could neither
    be kept nor certified.  Every other solve runs to its fixed point.
    """
    n = P.Dperp.shape[1]
    count(k, "k", 1, n - 1, "n")
    threshold = positivity_threshold(n)
    unconverged = 0

    def step(x0, stop_below):
        """Solve b: the solve, its quantized distance, and its certificate or None."""
        nonlocal unconverged
        solve = dual_distance(P, k, b, x0=x0, stop_below=stop_below)
        unconverged += not solve.converged
        positive = solve.distance > threshold and not solve.stopped_below
        cert = None
        if positive and solve.converged:
            try:
                cert = extract_certificate(P, k, solve)
            except CertificateError:
                pass
        return solve, (solve.distance if positive else 0.0), cert

    gram = _tail_margin_gram(P, k)
    b = np.ones(k)
    gram_b = gram @ b
    margin = float(b @ gram_b)
    solve, quantized, cert = step(None, None)
    incumbent = solve.distance
    head = solve.z_star[:n - k]
    flips = rejects = 0
    cap = MAX_PASSES * k
    while cert is None and rejects < k and flips < cap:
        i = flips % k
        flips += 1
        margin_cand = margin + float(-4.0 * b[i] * gram_b[i] + 4.0 * gram[i, i])
        margin_improves = margin_cand > margin + 1e-12 * max(1.0, abs(margin))
        stop_below = threshold if quantized == 0.0 and not margin_improves else None
        b[i] = -b[i]
        cand, cand_q, cert = step(head, stop_below)
        # A certified flip ends the search as the incumbent.
        if (cert is not None or cand_q > quantized + ACCEPT_TOL
                or (cand_q == quantized and margin_improves)):
            gram_b = gram_b + 2.0 * b[i] * gram[:, i]
            margin = margin_cand
            incumbent = cand.distance
            quantized = cand_q
            head = cand.z_star[:n - k]
            rejects = 0
        else:
            b[i] = -b[i]
            rejects += 1
    return TauOutcome(best_b=b.copy(), best_distance=incumbent, certificate=cert,
                      flips_evaluated=flips, unconverged_solves=unconverged)


def estimate_failure(instance: GaussianInstance, k: int) -> TauOutcome:
    """Full pipeline for one instance: factor, search, check the construction.

    Raises DomainError unless A is a matrix of an instance's shape and
    1 <= k < n, before anything is factored, and CertificateError when a
    certificate fails the construction check.
    """
    A = matrix(instance.A)
    count(k, "k", 1, A.shape[1] - 1, "n")
    return _search_checked(null_projector(A), k)


def _search_checked(P: NullProjector, k: int) -> TauOutcome:
    """``bit_flip_search`` on a factored instance, then the construction check
    of its certificate, if it found one, against the instance's A (``P.A``).
    Raises CertificateError when that check fails."""
    outcome = bit_flip_search(P, k)
    if outcome.certificate is not None:
        verify_theorem2_construction(P.A, k, outcome.certificate)
    return outcome
