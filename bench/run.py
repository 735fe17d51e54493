"""secthresh benchmark: two workloads, end-to-end and per-layer metrics.

Run from the root of a checkout (no install needed, ``src`` is put on the
path of every child process):

    python3 bench/run.py --workload table2-2workers --seed 3 --seconds 45 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  See README.md in
this directory for the workloads, the metrics and the checks.

This process never imports numpy.  Every process it starts gets
``OPENBLAS_NUM_THREADS=1`` (and ``OMP_NUM_THREADS=1``) in its environment, so
BLAS is single-threaded from before numpy loads, and no workload runs more
busy processes than there are CPUs.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

from common import TABLE2_REPS, round_seed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

WORKLOADS = ("table2-2workers", "curves-xi")
CLI_WORKERS = 2
# Set-up probes before and again after the measured phase, so that their
# median spans the run as the other metrics do.
SETUP_PROBES = 12
CHILD_TIMEOUT_S = 150.0
# A table pass's certified count may sit this many standard deviations from
# the count the reference rates predict.
BINOMIAL_Z = 5.0

# Interpreter start to ready: import the package, finish a first LAPACK call,
# then report the monotonic clock, which parent and child share.
PROBE = ("import secthresh, numpy, time; "
         "numpy.linalg.svd(numpy.arange(12.0).reshape(3, 4)); "
         "print(time.monotonic())")


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    env.pop("SECTHRESH_WORKERS", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list, stdout_path: Path, timeout: float = CHILD_TIMEOUT_S) -> dict:
    """Run a child in its own session and reap it with wait4.

    Returns exit code, wall seconds (spawn to reap) and the peak resident set
    of the child and its reaped descendants.  On timeout the whole process
    group is killed, so no worker outlives the run.
    """
    with open(stdout_path, "w") as out, open(stdout_path.with_suffix(".err"), "w") as err:
        started = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err,
                                start_new_session=True)
        timer = threading.Timer(timeout, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.monotonic() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "wall": wall, "started": started,
            "rss_mb": usage.ru_maxrss / 1024.0, "stdout": stdout_path.read_text()}


def worker(args: list, name: str, timeout: float = CHILD_TIMEOUT_S) -> tuple[dict, dict]:
    child = spawn([sys.executable, str(BENCH_DIR / "worker.py"), *args], OUT_DIR / f"{name}.out",
                  timeout)
    lines = child["stdout"].strip().splitlines()
    if child["code"] != 0 or not lines:
        err = (OUT_DIR / f"{name}.err").read_text().strip().splitlines()
        raise BenchError(f"worker {args} exited {child['code']}: {err[-1] if err else ''}")
    return json.loads(lines[-1]), child


def setup_seconds() -> list:
    """Start-to-ready times of SETUP_PROBES fresh interpreters."""
    times = []
    for i in range(SETUP_PROBES):
        child = spawn([sys.executable, "-c", PROBE], OUT_DIR / f"probe{i}.out", timeout=30.0)
        if child["code"] != 0:
            raise BenchError(f"set-up probe exited {child['code']}: cannot import secthresh")
        times.append(float(child["stdout"].split()[-1]) - child["started"])
    return times


def calibration_seconds() -> float:
    """A fixed pure-Python loop; its time tracks host speed, nothing else."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0


# -- the CLI workload ------------------------------------------------------

def simulate_cli(seed: int, index: int) -> dict:
    """One `secthresh simulate` run, through bench/simulate.py for its memory peak."""
    out_csv, peak = OUT_DIR / f"simulate-{index}.csv", OUT_DIR / f"simulate-{index}.peak"
    for stale in (out_csv, peak):
        if stale.exists():
            stale.unlink()
    child = spawn([sys.executable, str(BENCH_DIR / "simulate.py"), str(peak),
                   "simulate", "--builtin", "table2",
                   "--reps", str(TABLE2_REPS), "--seed", str(seed),
                   "--workers", str(CLI_WORKERS), "--out", str(out_csv)],
                  OUT_DIR / f"simulate-{index}.out")
    child["rows"] = []
    if child["code"] == 0 and out_csv.exists() and peak.exists():
        with open(out_csv, newline="") as handle:
            child["rows"] = list(csv.DictReader(handle))
        child["rss_mb"] = json.loads(peak.read_text())["peak_rss_mb"]
    return child


def check_cli_rows(rows: list, rates: dict) -> bool:
    """Every table2 cell once, with its reps, a consistent rate and the reference rate."""
    keys = [f"{r['n']},{r['m']},{r['k']}" for r in rows]
    ok = sorted(keys) == sorted(rates)
    for r, key in zip(rows, keys):
        errors, total = rates.get(key, (0, 1))
        ok &= (int(r["reps"]) == TABLE2_REPS and 0 <= int(r["failures"]) <= TABLE2_REPS
               and r["rate"] == f"{int(r['failures']) / TABLE2_REPS:.6f}"
               and r["paper_rate"] == f"{errors / total:.6f}")
    return ok


def cli_matches_serial(rows: list, cells: dict) -> bool:
    """The simulate CSV, apart from mean_seconds, equals the serial run of the same reps."""
    if len(rows) != len(cells):
        return False
    for r in rows:
        ref = cells.get(f"{r['n']},{r['m']},{r['k']}")
        if ref is None or ref["failed"] or ref["reps"] != int(r["reps"]):
            return False
        if (int(r["failures"]) != ref["failures"]
                or r["mean_flips"] != f"{ref['flips'] / ref['reps']:.2f}"):
            return False
    return True


def binomial_z(rows: list, rates: dict) -> float:
    """z-score of one table pass's certified count against the reference rates.

    Every cell of one (n, m) draws rep j's matrix from the same seed, and for
    one matrix an l1 failure at k is a failure at every larger k.  So the
    verdicts of one rep across k are comonotone: cells i and j of the group
    have covariance min(p_i, p_j) - p_i p_j, and only reps are independent.
    """
    observed = expected = variance = 0.0
    groups = defaultdict(list)
    for r in rows:
        errors, total = rates[f"{r['n']},{r['m']},{r['k']}"]
        groups[r["n"], r["m"]].append(errors / total)
        observed += int(r["failures"])
        expected += int(r["reps"]) * errors / total
    for ps in groups.values():
        variance += TABLE2_REPS * sum(min(p, q) - p * q for p in ps for q in ps)
    return (observed - expected) / variance ** 0.5 if variance else 0.0


def table2_2workers(seed: int, seconds: float, trace: bool) -> dict:
    """Timed `secthresh simulate` runs, then a serial run of round 0's reps to compare."""
    runs = []
    started = time.monotonic()
    while not runs or (not trace and time.monotonic() - started < seconds):
        runs.append(simulate_cli(round_seed(seed, len(runs)), len(runs)))
    good = [c for c in runs if c["code"] == 0 and c["rows"]]
    if not good:
        raise BenchError(f"every simulate run failed, the first with exit code {runs[0]['code']}")

    ref_args = ["tables", "--seed", str(seed)]
    reference, _ = worker(ref_args + (["--trace"] if trace else []), "reference")
    rates = reference["paper_rates"]
    rows_ok = all(check_cli_rows(c["rows"], rates) for c in good)
    matches = runs[0] is good[0] and cli_matches_serial(runs[0]["rows"], reference["cells"])
    binom = all(abs(binomial_z(c["rows"], rates)) <= BINOMIAL_Z for c in good)
    layers = None
    if trace:
        first = good[0]
        rep_seconds = sum(float(r["mean_seconds"]) * int(r["reps"]) for r in first["rows"])
        layers = dict(reference["layers"])
        layers["harness.parallel_efficiency"] = rep_seconds / (CLI_WORKERS * first["wall"])
        layers["harness.overhead_s"] = first["wall"] - rep_seconds / CLI_WORKERS
    return {
        "attempted": len(runs),
        "failed": len(runs) - len(good),
        "completed": len(good) * len(rates) * TABLE2_REPS,
        "errors": [f"simulate exited {c['code']}" for c in runs if c["code"] != 0 or not c["rows"]]
        + [f"serial reference: {e}" for e in reference["errors"]],
        "checks": {"cli_csv": rows_ok, "cli_matches_serial": matches, "binomial": binom,
                   "serial_reference": reference["failed"] == 0
                   and all(reference["checks"].values())},
        "op_seconds": [c["wall"] for c in good],
        "measured_seconds": sum(c["wall"] for c in good),
        "rss_mb": max(c["rss_mb"] for c in good),
        "layers": layers,
        "trace_overhead_s": reference["trace_overhead_s"],
        "digest": reference["digest"],
    }


# -- the curves workload --------------------------------------------------

def curves_xi(seed: int, seconds: float, trace: bool) -> dict:
    args = ["curves", "--seed", str(seed), "--seconds", str(seconds)]
    result, child = worker(args + (["--trace"] if trace else []), "curves",
                           seconds + CHILD_TIMEOUT_S)
    if not result["op_seconds"]:
        raise BenchError(f"every emit_curves call failed: {result['errors'][:1]}")
    result["completed"] = result["attempted"] - result["failed"]
    result["rss_mb"] = child["rss_mb"]
    if trace:
        op_seconds = sum(result["op_seconds"])
        result["layers"]["harness.parallel_efficiency"] = op_seconds / result["measured_seconds"]
        result["layers"]["harness.overhead_s"] = result["measured_seconds"] - op_seconds
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="secthresh benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("need --seed >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "secthresh" / "__init__.py").is_file():
        print(f"error: no secthresh sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    try:
        calib_start = calibration_seconds()
        setup = [] if args.trace else setup_seconds()
        run = table2_2workers if args.workload == "table2-2workers" else curves_xi
        res = run(args.seed, float(args.seconds), bool(args.trace))
        setup += [] if args.trace else setup_seconds()
        calib_end = calibration_seconds()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    correct = all(res["checks"].values())
    print(f"workload={args.workload} seed={args.seed} ops={len(res['op_seconds'])} "
          f"digest={res['digest']} checks={res['checks']} "
          f"calib_s={calib_start:.4f}->{calib_end:.4f}")
    for error in res["errors"][:5]:
        print(f"failed operation: {error}")
    if args.trace:
        metrics = {**res["layers"],
                   "host.calib_s": (calib_start + calib_end) / 2,
                   "trace.overhead_s": res["trace_overhead_s"]}
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "throughput_per_s": res["completed"] / res["measured_seconds"],
            "latency_p50_s": statistics.median(res["op_seconds"]),
            "peak_rss_mb": res["rss_mb"],
        }
    units = json.loads((ROOT / "BENCHMARK.json").read_text())
    unit_of = {m["name"]: m["unit"] for m in units["end_to_end"] + units["per_layer"]}
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": unit_of[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
