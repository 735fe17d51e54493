"""Command-line front end.

Subcommands
-----------
curves    Emit the three threshold curves on an alpha grid (CSV, optional SVG).
tau       Certify sectional failure on one seeded Gaussian instance.
simulate  Run a Monte Carlo suite of cells and tabulate failure rates.
certify   Certify sectional failure for a matrix supplied as CSV.

Exit codes: 0 success, 2 invalid input or configuration, 3 numerical failure.
All output files are written to a temporary sibling and atomically renamed,
so a crashed run never leaves a half-written artifact.

A NotCertified verdict is one-sided: the search found no failure certificate,
which is evidence of--but not a proof of--successful recovery.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from typing import Optional, Sequence

import numpy as np

from .curves import MAX_GRID_POINTS, XI_SK_DEFAULT, CurveKind, emit_curves
from .errors import DomainError, SecthreshError
from .harness import MAX_REPS, MAX_WORKERS, CellSpec, builtin_suite, run_suite
from .instances import GaussianInstance, ProblemShape, sample_gaussian_matrix
from .tau import Verdict, estimate_failure

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

_CURVE_ORDER = (CurveKind.WeakExact, CurveKind.SectionalLower, CurveKind.SectionalUpper)


def _check_writable(*paths: Optional[str]) -> None:
    """Refuse an empty or unwritable output path before any work; skip None."""
    for path in paths:
        if path is None:
            continue
        if not path:
            raise DomainError(f"cannot write {path!r}: empty path")
        directory = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(directory):
            raise DomainError(f"cannot write {path!r}: no directory {directory!r}")
        if not os.access(directory, os.W_OK | os.X_OK):
            raise DomainError(f"cannot write {path!r}: directory {directory!r} is not writable")
        if os.path.isdir(path):
            raise DomainError(f"cannot write {path!r}: Is a directory")


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise DomainError(f"cannot write {path!r}: {exc.strerror or exc}") from exc


def _parse_grid(spec: str) -> list[float]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise DomainError(f"grid must be START:STOP:STEP, got {spec!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError as exc:
        raise DomainError(f"grid has a non-numeric field: {spec!r}") from exc
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise DomainError(f"grid fields must be finite, got {spec!r}")
    if step <= 0 or stop < start:
        raise DomainError(f"grid must ascend with positive step, got {spec!r}")
    steps = (stop - start) / step + 1e-9
    if steps >= MAX_GRID_POINTS:
        raise DomainError(f"grid {spec!r} has more than {MAX_GRID_POINTS} points")
    count = int(steps) + 1
    return [round(start + i * step, 12) for i in range(count)]


def _curves_svg(points_by_kind: dict[CurveKind, list[tuple[float, float]]]) -> str:
    """Render the three curves as SVG polylines on the unit square."""
    width, height, margin = 640, 480, 50
    colors = {CurveKind.WeakExact: "#1f77b4",
              CurveKind.SectionalLower: "#2ca02c",
              CurveKind.SectionalUpper: "#d62728"}

    def sx(a: float) -> float:
        return margin + a * (width - 2 * margin)

    def sy(b: float) -> float:
        return height - margin - b * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="black"/>',
        f'<text x="{width // 2}" y="{height - 12}" text-anchor="middle" '
        f'font-size="14">alpha = m/n</text>',
        f'<text x="16" y="{height // 2}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 16 {height // 2})">beta = k/n</text>',
    ]
    for kind in _CURVE_ORDER:
        pts = points_by_kind.get(kind, [])
        if not pts:
            continue
        coords = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in pts)
        parts.append(f'<polyline points="{coords}" fill="none" '
                     f'stroke="{colors[kind]}" stroke-width="2"/>')
        a_last, b_last = pts[-1]
        parts.append(f'<text x="{sx(a_last) + 4:.2f}" y="{sy(b_last):.2f}" '
                     f'font-size="12" fill="{colors[kind]}">{kind.value}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_curves(args: argparse.Namespace) -> int:
    grid = _parse_grid(args.grid)
    _check_writable(args.out, args.svg)
    curve_set = emit_curves(grid, xi_sk=args.xi_sk)
    lines = ["curve,alpha,beta"]
    by_kind: dict[CurveKind, list[tuple[float, float]]] = {}
    for kind in _CURVE_ORDER:
        pts = [(p.alpha, p.beta) for p in curve_set.by_kind(kind)]
        by_kind[kind] = pts
        for a, b in pts:
            lines.append(f"{kind.value},{a:.10g},{b:.12g}")
    _atomic_write(args.out, "\n".join(lines) + "\n")
    if args.svg:
        _atomic_write(args.svg, _curves_svg(by_kind))
    print(f"wrote {len(curve_set.points)} points to {args.out}"
          + (f" and {args.svg}" if args.svg else ""))
    return EXIT_OK


def _certificate_json(n: int, m: int, k: int, b: np.ndarray, cert) -> str:
    payload = {
        "n": n, "m": m, "k": k,
        "b": [int(v) for v in b],
        "w": [float(v) for v in cert.w],
        "head_l1": cert.head_l1,
        "tail_l1": cert.tail_l1,
        "gap": cert.gap,
        "nullspace_residual": cert.nullspace_residual,
    }
    return json.dumps(payload, indent=2) + "\n"


def _report_outcome(outcome, n: int, m: int, k: int,
                    emit_path: Optional[str]) -> None:
    if outcome.verdict is Verdict.CertifiedFailure:
        cert = outcome.certificate
        print("verdict: CertifiedFailure")
        print(f"distance: {outcome.best_distance:.12g}")
        print(f"gap: {cert.gap:.12g} (tail {cert.tail_l1:.12g} vs head {cert.head_l1:.12g})")
        if emit_path:
            _atomic_write(emit_path, _certificate_json(n, m, k, outcome.best_b, cert))
            print(f"certificate written to {emit_path}")
    else:
        print("verdict: NotCertified (one-sided: no failure certificate found; "
              "this does not prove recovery succeeds)")
        print(f"best distance: {outcome.best_distance:.12g}")
    print(f"flips evaluated: {outcome.flips_evaluated}")
    if outcome.diagnostic:
        print(f"diagnostic: {outcome.diagnostic}")


def cmd_tau(args: argparse.Namespace) -> int:
    # CellSpec holds the cell rules (n <= MAX_N, m < n, 1 <= k < m) and
    # raises DomainError before anything is sampled.
    CellSpec(n=args.n, m=args.m, k=args.k, reps=1)
    _check_writable(args.emit_certificate)
    instance = sample_gaussian_matrix(ProblemShape(n=args.n, m=args.m, k=args.k), args.seed)
    outcome = estimate_failure(instance, args.k)
    _report_outcome(outcome, args.n, args.m, args.k, args.emit_certificate)
    return EXIT_OK


def _suite_int(value) -> int:
    # A suite number is a JSON int or an integral float.  int() would read
    # true as 1, "2" as 2 and truncate 30.7 to 30.
    if type(value) is int or (type(value) is float and value.is_integer()):
        return int(value)
    raise ValueError(f"{value!r} is not an integer")


def _parse_cell(text: str) -> tuple[int, int, int]:
    try:
        n, m, k = (int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be n,m,k, got {text!r}") from None
    return n, m, k


def _load_suite(args: argparse.Namespace) -> list[CellSpec]:
    # argparse admits exactly one of --builtin, --cell and --suite.
    if args.builtin:
        return builtin_suite(args.builtin, reps=args.reps, base_seed=args.seed)
    if args.cell:
        n, m, k = args.cell
        return [CellSpec(n=n, m=m, k=k, reps=args.reps, base_seed=args.seed)]
    try:
        with open(args.suite) as handle:
            raw = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise DomainError(f"cannot read suite spec {args.suite!r}: {exc}") from exc
    if not isinstance(raw, list):
        raise DomainError("suite spec must be a JSON list of cells")
    cells = []
    for entry in raw:
        try:
            unknown = set(entry) - {"n", "m", "k", "reps"}
            if unknown:
                raise ValueError(f"unknown key {min(map(repr, unknown))}")
            cells.append(CellSpec(n=_suite_int(entry["n"]), m=_suite_int(entry["m"]),
                                  k=_suite_int(entry["k"]),
                                  reps=_suite_int(entry.get("reps", args.reps)),
                                  base_seed=args.seed))
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError(f"malformed suite cell {entry!r}: {exc}") from exc
    return cells


def cmd_simulate(args: argparse.Namespace) -> int:
    cells = _load_suite(args)
    _check_writable(args.out)
    workers = args.workers or min(os.cpu_count() or 1, MAX_WORKERS)
    results = run_suite(cells, workers=workers)
    lines = ["n,m,k,reps,failures,rate,paper_rate,mean_flips,errors,mean_seconds"]
    for res in results:
        s = res.spec
        ref = res.paper_reference_rate
        ref_txt = f"{ref:.6f}" if ref is not None else ""
        lines.append(
            f"{s.n},{s.m},{s.k},{s.reps},{res.failures},{res.rate:.6f},"
            f"{ref_txt},{res.mean_flips:.2f},{res.errors},{res.mean_seconds:.4f}"
        )
        print(lines[-1])
    _atomic_write(args.out, "\n".join(lines) + "\n")
    print(f"wrote {len(results)} cells to {args.out}")
    return EXIT_OK


def _read_matrix_csv(path: str) -> np.ndarray:
    """Rows of comma-separated numbers; blank lines are skipped and not counted.

    Each row is read on its own, so every refusal names its line, counting
    non-blank lines from 1.
    """
    try:
        with open(path) as handle:
            rows = [line for line in handle if line.strip()]
    except OSError as exc:
        raise DomainError(f"cannot read matrix file {path!r}: {exc}") from exc
    if not rows:
        raise DomainError(f"matrix file {path!r} is empty")
    data = []
    for number, row in enumerate(rows, 1):
        try:
            values = np.loadtxt([row], delimiter=",", ndmin=1, comments=None)
        except ValueError:
            raise DomainError(f"malformed matrix file {path!r}: line {number} "
                              "has an entry that is not a number") from None
        if data and values.size != data[0].size:
            raise DomainError(f"malformed matrix file {path!r}: line {number} has "
                              f"{values.size} entries, line 1 has {data[0].size}")
        if not np.isfinite(values).all():
            raise DomainError(f"non-finite entry on line {number}")
        data.append(values)
    return np.vstack(data)


def cmd_certify(args: argparse.Namespace) -> int:
    _check_writable(args.emit_certificate)
    A = _read_matrix_csv(args.matrix)
    m, n = A.shape
    ProblemShape(n=n, m=m, k=args.k)  # raises on a bad shape before any work
    # Far from unit scale ||A||_F overflows or underflows and no certificate
    # re-checks; a power-of-two rescale is exact and keeps the null space.
    peak = float(np.max(np.abs(A)))
    if peak and not (2.0**-500 <= peak <= 2.0**500):
        e = math.frexp(peak)[1]
        A = np.ldexp(A, -e)
        print(f"note: matrix rescaled by 2^{-e} (max |entry| was {peak:.6g})")
    instance = GaussianInstance(seed=0, A=A)
    # estimate_failure rejects k outside [1, n) before it factors A, and
    # raises CertificateError when a certificate's construction fails.
    outcome = estimate_failure(instance, args.k)
    _report_outcome(outcome, n, m, args.k, args.emit_certificate)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one ``error: ...`` line and exits 2."""

    def error(self, message: str):
        self.exit(EXIT_USAGE, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="secthresh",
        description="Threshold curves and sectional-failure certification "
                    "for l1 recovery over Gaussian measurements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_curves = sub.add_parser("curves", help="emit threshold curves")
    p_curves.add_argument("--grid", default="0.05:0.95:0.05",
                          help="alpha grid START:STOP:STEP (default 0.05:0.95:0.05)")
    p_curves.add_argument("--xi-sk", type=float, default=XI_SK_DEFAULT, dest="xi_sk",
                          help="spin-glass constant for the sectional upper bound")
    p_curves.add_argument("--out", default="curves.csv")
    p_curves.add_argument("--svg", default=None, help="optional SVG plot path")
    p_curves.set_defaults(func=cmd_curves)

    p_tau = sub.add_parser("tau", help="certify one seeded Gaussian instance")
    p_tau.add_argument("--n", type=int, required=True)
    p_tau.add_argument("--m", type=int, required=True)
    p_tau.add_argument("--k", type=int, required=True)
    p_tau.add_argument("--seed", type=int, default=0)
    p_tau.add_argument("--emit-certificate", default=None, dest="emit_certificate")
    p_tau.set_defaults(func=cmd_tau)

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo suite")
    selector = p_sim.add_mutually_exclusive_group(required=True)
    selector.add_argument("--builtin", choices=("table1", "table2"))
    selector.add_argument("--suite", help="JSON suite spec path")
    selector.add_argument("--cell", type=_parse_cell, help="inline cell n,m,k")
    p_sim.add_argument("--reps", type=int, default=25,
                       help=f"reps per cell, 1 to {MAX_REPS} (default 25)")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", default="results.csv")
    p_sim.add_argument("--workers", type=int, default=0,
                       help=f"processes that run reps, this one included, 1 to "
                            f"{MAX_WORKERS} (default: the CPU count)")
    p_sim.set_defaults(func=cmd_simulate)

    p_cert = sub.add_parser("certify", help="certify a matrix supplied as CSV")
    p_cert.add_argument("--matrix", required=True)
    p_cert.add_argument("--k", type=int, required=True)
    p_cert.add_argument("--emit-certificate", default=None, dest="emit_certificate")
    p_cert.set_defaults(func=cmd_certify)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SecthreshError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
