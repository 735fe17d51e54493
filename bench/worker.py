"""Measured phase of one benchmark workload, run in a fresh interpreter.

``run.py`` starts this script with the BLAS thread count pinned to 1 in the
environment and ``src`` on ``PYTHONPATH``.  It drives secthresh only through
its public functions, checks every output with its own arithmetic, and prints
one JSON object as the last line of standard output.

    python3 bench/worker.py tables --seed 7 --trace
    python3 bench/worker.py curves --seed 7 --seconds 45

``tables`` runs round 0 of table2 once, the serial reference for the
``table2-2workers`` workload.  ``curves`` runs whole rounds until
``--seconds`` have passed.  With ``--trace`` either runs round 0 twice,
first plain and then with the layer wrappers of :class:`Tracer` installed,
so the counts repeat exactly at a seed and the difference of the two passes
is the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import sys
import time
from collections import Counter

import numpy as np

import secthresh.curves as curves_mod
import secthresh.tau as tau_mod
from common import TABLE2_REPS, round_seed
from secthresh import (CurveKind, ProblemShape, Verdict, builtin_suite,
                       builtin_tables, derive_rep_seed, emit_curves,
                       estimate_failure, sample_gaussian_matrix)

# The curves workload: the CLI's default alpha grid (0.05:0.95:0.05) and a
# fixed sweep of the spin-glass constant up to its default.  Above about 0.95
# the ordering guard rightly refuses high alphas, so the sweep stays below.
GRID = [round(0.05 + i * 0.05, 12) for i in range(19)]
XI_VALUES = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7632)


class Tracer:
    """Counts and times the layers, wrapping public functions where they are looked up.

    ``secthresh.tau`` looks up ``null_projector``, ``bit_flip_search``,
    ``dual_distance``, ``extract_certificate`` and
    ``verify_theorem2_construction`` in its own namespace, and
    ``secthresh.curves`` does the same for ``sec_lower_solve``, ``weak_beta``,
    ``sec_upper_beta`` and ``erfinv``, so replacing those attributes sees every
    call without editing the package.
    """

    def __init__(self):
        self.seconds = Counter()
        self.counts = Counter()
        self._saved = []

    def __enter__(self):
        self._wrap(tau_mod, "null_projector", "svd")
        self._wrap(tau_mod, "extract_certificate", "extract", "certificates")
        self._wrap(tau_mod, "verify_theorem2_construction", "verify")
        self._wrap(curves_mod, "sec_lower_solve", "sweep", "sweep_solves")
        self._wrap(curves_mod, "weak_beta", "root", "roots")
        self._wrap(curves_mod, "sec_upper_beta", "root", "roots")
        patterns = None
        solve_original = tau_mod.dual_distance
        search_original = tau_mod.bit_flip_search
        erfinv_original = curves_mod.erfinv

        def dual_distance(P, k, b, *args, **kwargs):
            pattern = np.array(b, dtype=float)  # the search flips b in place later
            t0 = time.perf_counter()
            solve = solve_original(P, k, b, *args, **kwargs)
            self.seconds["solve"] += time.perf_counter() - t0
            self.counts["solves"] += 1
            self.counts["inner_iters"] += solve.iterations
            self.counts["unconverged"] += not solve.converged
            if patterns is not None:
                patterns.append(pattern)
            return solve

        def bit_flip_search(P, k, *args, **kwargs):
            nonlocal patterns
            patterns = []
            t0 = time.perf_counter()
            try:
                outcome = search_original(P, k, *args, **kwargs)
            finally:
                self.seconds["search"] += time.perf_counter() - t0
                seen, patterns = patterns, None
            self.counts["flips"] += outcome.flips_evaluated
            self.counts["accepted"] += accepted_flips(seen, outcome.best_b, k)
            return outcome

        def erfinv(p):
            self.counts["erfinv_calls"] += 1
            return erfinv_original(p)

        self._patch(tau_mod, "dual_distance", dual_distance)
        self._patch(tau_mod, "bit_flip_search", bit_flip_search)
        self._patch(curves_mod, "erfinv", erfinv)
        return self

    def __exit__(self, *exc):
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()

    def _patch(self, module, name, replacement):
        self._saved.append((module, name, getattr(module, name)))
        setattr(module, name, replacement)

    def _wrap(self, module, name, key, count=None):
        original = getattr(module, name)

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self.seconds[key] += time.perf_counter() - t0
                if count:
                    self.counts[count] += 1

        self._patch(module, name, timed)

    def layer_metrics(self, sample_seconds: float) -> dict:
        s, c = self.seconds, self.counts
        solves, iters, flips = c["solves"], c["inner_iters"], c["flips"]
        return {
            "instances.sample_s": sample_seconds,
            "instances.svd_s": s["svd"],  # null_projector is the SVD
            "tau.solve_s": s["solve"],
            "tau.us_per_iter": 1e6 * s["solve"] / iters if iters else 0.0,
            "tau.solves": solves,
            "tau.inner_iters": iters,
            "tau.iters_per_solve": iters / solves if solves else 0.0,
            "tau.unconverged_solves": c["unconverged"],
            "tau.flips": flips,
            "tau.flip_accept_share": c["accepted"] / flips if flips else 0.0,
            # Certificate extraction runs inside the search; the construction
            # re-check runs after it, in estimate_failure.
            "tau.search_self_s": s["search"] - s["solve"] - s["extract"],
            "tau.certify_s": s["extract"] + s["verify"],
            "tau.certificates": c["certificates"],
            "curves.sweep_s": s["sweep"],
            "curves.sweep_solves": c["sweep_solves"],
            "curves.root_s": s["root"],
            "curves.roots": c["roots"],
            "special.erfinv_calls": c["erfinv_calls"],
        }


def accepted_flips(patterns: list, best_b: np.ndarray, k: int) -> int:
    """Accepted tentative flips of one search, from its successive sign patterns.

    ``patterns[0]`` is the all-ones start and ``patterns[t]`` the pattern of
    tentative flip t, which negated bit ``(t-1) % k`` of the incumbent.  So
    the incumbent after flip t is ``patterns[t+1]`` with bit ``t % k`` negated
    back, or the returned pattern after the last flip; flip t was accepted
    when that incumbent equals ``patterns[t]``.
    """
    accepted = 0
    for t in range(1, len(patterns)):
        if t + 1 < len(patterns):
            incumbent = patterns[t + 1].copy()
            incumbent[t % k] = -incumbent[t % k]
        else:
            incumbent = best_b
        accepted += int(np.array_equal(incumbent, patterns[t]))
    return accepted


# -- tables: serial Monte Carlo reps ----------------------------------------

def recheck_certificate(A: np.ndarray, k: int, w: np.ndarray) -> bool:
    """Soundness of a failure certificate, recomputed from A and w alone."""
    n = w.shape[0]
    residual = np.linalg.norm(A @ w) / np.linalg.norm(A)
    head, tail = np.abs(w[:n - k]).sum(), np.abs(w[n - k:]).sum()
    x = np.zeros(n)
    x[n - k:] = -w[n - k:]
    return bool(residual <= 1e-8 and tail > head
                and np.abs(x + w).sum() < np.abs(x).sum())


def run_table_round(base_seed: int) -> dict:
    """Sampling plus estimate_failure for every (cell, rep) of table2, serially."""
    records, sample_seconds = [], 0.0
    started = time.perf_counter()
    for cell in builtin_suite("table2", reps=TABLE2_REPS, base_seed=base_seed):
        for r in range(TABLE2_REPS):
            seed = derive_rep_seed(base_seed, r)
            rec = {"cell": [cell.n, cell.m, cell.k], "rep": r}
            t0 = time.perf_counter()
            try:
                inst = sample_gaussian_matrix(ProblemShape(n=cell.n, m=cell.m, k=cell.k), seed)
                sample_seconds += time.perf_counter() - t0
                out = estimate_failure(inst, cell.k)
            except Exception as exc:  # a rep that raises is a failed operation
                rec.update(failed=True, error=f"{type(exc).__name__}: {exc}")
                records.append(rec)
                continue
            certified = out.verdict is Verdict.CertifiedFailure
            sound = not certified or recheck_certificate(inst.A, cell.k, out.certificate.w)
            rec.update(failed=not sound, certified=certified, flips=out.flips_evaluated,
                       distance=out.best_distance)
            if not sound:
                rec["error"] = "certificate failed the re-check"
            records.append(rec)
    return {"records": records, "wall": time.perf_counter() - started,
            "sample_seconds": sample_seconds}


def verdict_key(records: list) -> list:
    """What must repeat exactly for a seed: verdict, flips and best distance per rep."""
    return [(tuple(r["cell"]), r["rep"], r.get("certified"), r.get("flips"),
             r.get("distance")) for r in records if not r["failed"]]


def cell_summary(records: list) -> dict:
    """Per-cell failures and flips, in the form the simulate CSV reports them."""
    cells: dict[str, dict] = {}
    for r in records:
        key = ",".join(map(str, r["cell"]))
        entry = cells.setdefault(key, {"reps": 0, "failures": 0, "flips": 0, "failed": 0})
        entry["reps"] += 1
        if r["failed"]:
            entry["failed"] += 1
            continue
        entry["failures"] += int(r["certified"])
        entry["flips"] += r["flips"]
    return cells


def tables_workload(args) -> dict:
    """Round 0 of table2, serially: the reference a `simulate` CSV is compared with."""
    base = round_seed(args.seed, 0)
    plain = run_table_round(base)
    records = plain["records"]
    traced_ok, layers, overhead = True, None, None
    if args.trace:
        with Tracer() as tracer:
            traced = run_table_round(base)
        traced_ok = verdict_key(records) == verdict_key(traced["records"])
        layers = tracer.layer_metrics(traced["sample_seconds"])
        overhead = traced["wall"] - plain["wall"]
    return {
        "failed": sum(1 for r in records if r["failed"]),
        "errors": sorted({r["error"] for r in records if r["failed"]}),
        "checks": {"traced_matches_plain": traced_ok},
        "digest": hashlib.sha256(repr(verdict_key(records)).encode()).hexdigest()[:16],
        "cells": cell_summary(records),
        "paper_rates": {",".join(map(str, cell)): builtin_tables()[cell]
                        for cell in {tuple(r["cell"]) for r in records}},
        "layers": layers,
        "trace_overhead_s": overhead,
    }


# -- curves: emit_curves over a sweep of xi ---------------------------------

def own_erfinv(p: float) -> float:
    """Inverse of math.erf on [0, 1) by bisection, to the last bit."""
    lo, hi = 0.0, 6.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return lo if abs(math.erf(lo) - p) <= abs(math.erf(hi) - p) else hi
        if math.erf(mid) < p:
            lo = mid
        else:
            hi = mid


def own_residual(alpha: float, beta: float, xi) -> float:
    """Weak residual (xi None) or sectional-upper residual, with own_erfinv."""
    q = own_erfinv((1.0 - alpha) / (1.0 - beta))
    denom = alpha if xi is None else (
        alpha - beta + beta * (1.0 + xi * math.sqrt(beta / (1.0 - alpha))) ** 2)
    return (1.0 - beta) * math.sqrt(2.0 / math.pi) * math.exp(-q * q) / denom - math.sqrt(2.0) * q


def check_curves(points_by_xi: dict) -> dict:
    """Roots bracket a sign change of the own-erfinv residuals; curves are ordered."""
    roots_ok = ordered = True
    uppers = {}
    delta = 1e-7
    for xi, pts in points_by_xi.items():
        weak, lower, upper = (pts[kind] for kind in ("weak", "sec-lower", "sec-upper"))
        uppers[xi] = upper
        for a, bw, bl, bu in zip(GRID, weak, lower, upper):
            for beta, x in ((bw, None), (bu, xi)):
                below, above = own_residual(a, beta - delta, x), own_residual(a, beta + delta, x)
                roots_ok &= below > 0.0 > above
            ordered &= bl < bu and (abs(bu - bw) <= 1e-8 if xi == 0.0 else bu < bw)
    xis = sorted(uppers)
    decreasing = all(u2 < u1 for x1, x2 in zip(xis, xis[1:])
                     for u1, u2 in zip(uppers[x1], uppers[x2]))
    return {"roots_change_sign": roots_ok, "ordered": ordered,
            "upper_decreases_in_xi": decreasing}


def curves_round(order: list) -> dict:
    calls = []
    started = time.perf_counter()
    for xi in order:
        t0 = time.perf_counter()
        try:
            cs = emit_curves(GRID, xi_sk=xi)
        except Exception as exc:  # a call that raises is a failed operation
            calls.append({"xi": xi, "failed": True, "error": f"{type(exc).__name__}: {exc}"})
            continue
        wall = time.perf_counter() - t0
        pts = {kind.value: [p.beta for p in cs.by_kind(kind)] for kind in CurveKind}
        calls.append({"xi": xi, "failed": False, "wall": wall, "points": pts})
    return {"calls": calls, "wall": time.perf_counter() - started}


def curves_workload(args) -> dict:
    order = list(XI_VALUES)
    random.Random(args.seed).shuffle(order)
    rounds, layers, overhead, traced_ok = [], None, None, True
    if args.trace:
        plain = curves_round(order)
        with Tracer() as tracer:
            traced = curves_round(order)
        rounds = [plain]
        traced_ok = ([c.get("points") for c in plain["calls"]]
                     == [c.get("points") for c in traced["calls"]])
        layers = tracer.layer_metrics(0.0)
        overhead = traced["wall"] - plain["wall"]
    else:
        started = time.perf_counter()
        while not rounds or time.perf_counter() - started < args.seconds:
            rounds.append(curves_round(order))
    calls = [c for rnd in rounds for c in rnd["calls"]]
    done = [c for c in calls if not c["failed"]]
    first: dict = {}
    repeat_ok = True
    for c in done:
        repeat_ok &= first.setdefault(c["xi"], c["points"]) == c["points"]
    checks = check_curves(first) if first else {}
    checks.update(repeat_identical=repeat_ok, traced_matches_plain=traced_ok)
    digest = hashlib.sha256(repr(sorted(first.items())).encode()).hexdigest()[:16]
    return {
        "attempted": len(calls),
        "failed": len(calls) - len(done),
        "errors": sorted({c["error"] for c in calls if c["failed"]}),
        "checks": checks,
        "op_seconds": [c["wall"] for c in done],
        "measured_seconds": sum(rnd["wall"] for rnd in rounds),
        "digest": digest,
        "layers": layers,
        "trace_overhead_s": overhead,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("kind", choices=("tables", "curves"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    # Lazy set-up (the first LAPACK call) is paid before the measured phase.
    np.linalg.svd(np.arange(12.0).reshape(3, 4))
    result = tables_workload(args) if args.kind == "tables" else curves_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
