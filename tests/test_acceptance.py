"""Acceptance gate: one test per release criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Statistical criteria use fixed seeds throughout, so every run
reproduces the same counts exactly; wall-clock assertions use the stated
budgets with no slack added.
"""

import math
import time

import numpy as np
import pytest

from secthresh import (CellSpec, CurveKind, Verdict,
                       dual_distance, emit_curves,
                       erfinv, estimate_failure, extract_certificate,
                       null_projector,
                       bit_flip_search, run_suite,
                       sample_gaussian_matrix, sec_upper_beta,
                       verify_theorem2_construction, weak_beta, ProblemShape)
from secthresh.cli import main as cli_main
from secthresh.curves import mg_ratio_closed_form
from secthresh.tau import positivity_threshold

from conftest import projector
from oracles import adjusted_dims, oracle_enumerate, primal_tau_batch

ALPHA_GRID = [round(0.05 * i, 2) for i in range(1, 20)]


def _verdict_line(num, name, detail):
    print(f"\n[criterion {num}] {name}: PASS ({detail})")


@pytest.fixture(scope="module")
def transition_column():
    """(n=400, m=80) column at reps=25, shared by criteria 6 and 8.  The
    results do not depend on the worker count, so the suite runs on two."""
    t0 = time.monotonic()
    cells = [CellSpec(n=400, m=80, k=k, reps=25, base_seed=0) for k in (15, 14, 13, 12, 11, 10)]
    rates = {res.spec.k: res.failures for res in run_suite(cells, workers=2)}
    return rates, time.monotonic() - t0


def test_01_zero_coupling_degenerates_to_weak_curve():
    t0 = time.monotonic()
    worst = max(abs(sec_upper_beta(a, 0.0) - weak_beta(a)) for a in ALPHA_GRID)
    elapsed = time.monotonic() - t0
    assert worst <= 1e-8
    assert elapsed < 5.0
    _verdict_line(1, "zero-coupling degeneracy", f"max gap {worst:.2e}, {elapsed:.2f}s")


def test_02_curve_ordering_on_grid():
    t0 = time.monotonic()
    curves = emit_curves(ALPHA_GRID, xi_sk=0.7632)
    for a in ALPHA_GRID:
        bw = next(p.beta for p in curves.by_kind(CurveKind.WeakExact) if p.alpha == a)
        bl = next(p.beta for p in curves.by_kind(CurveKind.SectionalLower) if p.alpha == a)
        bu = next(p.beta for p in curves.by_kind(CurveKind.SectionalUpper) if p.alpha == a)
        assert bl < bu < bw, f"ordering violated at alpha={a}"
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _verdict_line(2, "strict curve ordering", f"19 grid points, {elapsed:.2f}s")


def test_03_hand_instances():
    P = null_projector(np.array([[2.0, 1.0]]))
    solve = dual_distance(P, 1, [1.0])
    assert abs(solve.distance - 1.0 / math.sqrt(5.0)) <= 1e-9
    cert = extract_certificate(P, 1, solve)
    assert abs(cert.gap - 0.2) <= 1e-6
    verify_theorem2_construction(np.array([[2.0, 1.0]]), 1, cert)  # raises on failure

    P2 = null_projector(np.array([[1.0, 1.0]]))
    solve2 = dual_distance(P2, 1, [1.0])
    assert solve2.distance <= 1e-8
    out = bit_flip_search(P2, 1)
    assert out.verdict is Verdict.NotCertified
    _verdict_line(3, "hand-computed instances",
                  f"distance {solve.distance:.10f}, gap {cert.gap:.7f}")


def test_04_primal_dual_coherence():
    t0 = time.monotonic()
    rng = np.random.default_rng(20260814)
    cases, duals = [], []
    for _ in range(200):
        n = int(rng.integers(6, 41))
        m = int(rng.integers(2, n))
        k = int(rng.integers(1, m))
        P = projector(n, m, k, int(rng.integers(0, 2**32)))
        b = rng.choice([-1.0, 1.0], size=k)
        duals.append(dual_distance(P, k, b).distance)
        cases.append((P, k, b))
    worst = 0.0
    contradictions = 0
    for p, d in zip(primal_tau_batch(cases), duals):
        worst = max(worst, abs(p + d))
        if (d > 1e-4) != (p < -1e-4):
            contradictions += 1
    elapsed = time.monotonic() - t0
    assert worst <= 5e-3
    assert contradictions == 0
    assert elapsed < 300.0
    _verdict_line(4, "primal-dual coherence",
                  f"max |p+d| {worst:.2e}, 0 contradictions, {elapsed:.0f}s")


def test_05_exhaustive_oracle_agreement():
    t0 = time.monotonic()
    rng = np.random.default_rng(5050)
    agree = 0
    unsound = 0
    for _ in range(50):
        n = int(rng.integers(12, 32))
        m = int(rng.integers(max(3, n // 4), n))
        k = int(rng.integers(1, min(11, m)))
        P = projector(n, m, k, int(rng.integers(0, 2**32)))
        threshold = positivity_threshold(n)
        searched = bit_flip_search(P, k).verdict is Verdict.CertifiedFailure
        enumerated = oracle_enumerate(P.Dperp, k)[0] > threshold
        if searched == enumerated:
            agree += 1
        if searched and not enumerated:
            unsound += 1
    elapsed = time.monotonic() - t0
    assert agree >= 48, f"only {agree}/50 agreement with enumeration"
    assert unsound == 0, f"{unsound} unsound failure claims"
    assert elapsed < 600.0
    _verdict_line(5, "exhaustive-oracle agreement",
                  f"{agree}/50 agree, 0 unsound, {elapsed:.0f}s")


def _table_spots(checks):
    """Run the checked cells at reps=25, base seed 0, as one suite on two
    workers, assert each cell's bound on its rate, and list the rates."""
    cells = [CellSpec(n=n, m=m, k=k, reps=25, base_seed=0) for (n, m, k), _, _ in checks]
    spots = []
    for ((n, m, k), op, bound), res in zip(checks, run_suite(cells, workers=2)):
        if op == "ge":
            assert res.rate >= bound, f"({n},{m},{k}) rate {res.rate} < {bound}"
        else:
            assert res.rate <= bound, f"({n},{m},{k}) rate {res.rate} > {bound}"
        spots.append(f"({n},{m},{k})={res.rate:.2f}")
    return ", ".join(spots)


def test_06_low_alpha_table_spots(transition_column):
    t0 = time.monotonic()
    rates, column_elapsed = transition_column
    checks = [((800, 80, 14), "ge", 0.80), ((800, 80, 8), "le", 0.20),
              ((400, 200, 50), "ge", 0.80), ((400, 200, 40), "le", 0.25)]
    spots = _table_spots(checks)
    # The shared column supplies the two (400, 80) spots.
    assert rates[15] / 25 >= 0.80
    assert rates[10] / 25 <= 0.20
    elapsed = time.monotonic() - t0 + column_elapsed
    assert elapsed < 1800.0
    _verdict_line(6, "low-alpha reproduction",
                  f"(400,80,15)={rates[15]/25:.2f}, (400,80,10)={rates[10]/25:.2f}, "
                  f"{spots}, {elapsed:.0f}s")


def test_07_high_alpha_table_spots():
    t0 = time.monotonic()
    checks = [((300, 180, 51), "ge", 0.85), ((300, 180, 40), "le", 0.25),
              ((200, 180, 74), "ge", 0.80), ((200, 180, 61), "le", 0.25)]
    spots = _table_spots(checks)
    elapsed = time.monotonic() - t0
    assert elapsed < 900.0
    _verdict_line(7, "high-alpha reproduction", f"{spots}, {elapsed:.0f}s")


def test_08_monotone_transition_brackets_theory(transition_column):
    rates, _ = transition_column
    ks = [15, 14, 13, 12, 11, 10]
    counts = [rates[k] for k in ks]

    # Nonincreasing as k decreases, allowing one inversion of at most 2 counts.
    inversions = [(a, b) for a, b in zip(counts, counts[1:]) if b > a]
    assert len(inversions) <= 1
    assert all(b - a <= 2 for a, b in inversions)

    # Interpolate the k where the rate crosses 1/2.
    crossing = None
    for k_hi, k_lo in zip(ks, ks[1:]):
        hi, lo = rates[k_hi] / 25, rates[k_lo] / 25
        if hi >= 0.5 >= lo:
            crossing = k_lo + (0.5 - lo) / (hi - lo) * (k_hi - k_lo)
            break
    assert crossing is not None, f"rate never crosses 1/2: {counts}"

    lower = emit_curves([0.2]).by_kind(CurveKind.SectionalLower)[0].beta
    upper = sec_upper_beta(0.2, 0.7632)
    k_lower, k_upper = lower * 400, upper * 400
    assert k_lower - 1.0 <= crossing <= k_upper + 1.0, (
        f"crossing k={crossing:.2f} outside "
        f"[{k_lower:.2f} - 1, {k_upper:.2f} + 1]"
    )
    _verdict_line(8, "monotone transition",
                  f"counts {counts}, crossing k={crossing:.2f}, "
                  f"theory k in [{k_lower:.2f}, {k_upper:.2f}]")


class TestCriterion9StructuralInvariants:
    def test_projector_invariants(self):
        P = projector(50, 20, 5, 314159)
        assert np.max(np.abs(P.Dperp @ P.A.T)) <= 1e-10 * np.linalg.norm(P.A)
        assert np.max(np.abs(P.Dperp @ P.Dperp.T - np.eye(30))) <= 1e-10
        Q = P.Dperp.T @ P.Dperp
        assert np.max(np.abs(Q @ Q - Q)) <= 1e-9

    def test_adjusted_dimension_identities(self):
        # Fixed grid, no randomness: shift identity and the equivalence of
        # the two denominator routes, both at 1e-14.
        for alpha in (0.15, 0.35, 0.55, 0.75, 0.95):
            for beta_frac in (0.2, 0.5, 0.8):
                for xi in (0.0, 0.7632, 1.3):
                    beta = beta_frac * alpha
                    dims = adjusted_dims(alpha, beta, xi)
                    assert abs(dims.mg_ratio - (alpha - beta) - dims.kg_ratio) <= 1e-14
                    assert abs(dims.mg_ratio - mg_ratio_closed_form(alpha, beta, xi)) <= 1e-14

    def test_erf_roundtrip(self):
        for x in np.linspace(-3.5, 3.5, 141):
            assert abs(erfinv(math.erf(float(x))) - x) <= 1e-10

    def test_certificate_soundness(self):
        # Every certificate produced across a deterministic seed sweep must
        # pass the arithmetic construction check.
        produced = 0
        for seed in range(20):
            inst = sample_gaussian_matrix(ProblemShape(n=60, m=45, k=20), seed)
            out = estimate_failure(inst, 20)
            if out.verdict is Verdict.CertifiedFailure:
                verify_theorem2_construction(inst.A, 20, out.certificate)
                produced += 1
        assert produced >= 10  # regime chosen so most seeds certify

    def test_deterministic_outcomes(self):
        inst = sample_gaussian_matrix(ProblemShape(n=80, m=60, k=25), 7)
        a = estimate_failure(inst, 25)
        b = estimate_failure(inst, 25)
        assert a.verdict == b.verdict
        assert a.flips_evaluated == b.flips_evaluated
        assert a.best_distance == b.best_distance
        np.testing.assert_array_equal(a.best_b, b.best_b)

    def test_byte_identical_curve_files(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            assert cli_main(["curves", "--grid", "0.1:0.9:0.1",
                             "--out", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        _verdict_line(9, "structural invariants",
                      "projector, identities, roundtrip, soundness, determinism")
