"""Monte Carlo harness: failure-rate estimation over (n, m, k) cells.

Each cell draws ``reps`` seeded Gaussian instances, runs the certification
pipeline on each, and reports the fraction certified.  A suite runs every rep
of every cell on one process pool, so the workers stay busy across cell
boundaries.  Per-rep seeds are pre-derived from the cell's base seed, so
results are identical no matter how the work is scheduled or how many workers
run it.  Each rep is timed here, once, around ``estimate_failure``: the
factorization, the search and the certificate checks, not the sampling.  A
cell keeps only its reps; its counts and means are computed from them.

The reference counts from the original simulation study are embedded for
side-by-side reporting; their occasionally ragged denominators (57, 27, 28,
14, 31, 99) are stored verbatim and compared as rates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import islice
from typing import Optional, Sequence

from .errors import DomainError, SecthreshError
from .instances import ProblemShape, derive_rep_seed, sample_gaussian_matrix
from .tau import Verdict, estimate_failure

# A suite's (cell, rep) tasks are listed before any rep runs, so the rep count
# is capped to keep that list small.
MAX_REPS = 100_000
# Each worker is a forked process, so the pool size is capped as well.
MAX_WORKERS = 256


@dataclass(frozen=True)
class CellSpec:
    """One table cell: dimensions, support size, repetition count, seed."""

    n: int
    m: int
    k: int
    reps: int
    base_seed: int = 0

    def __post_init__(self):
        ProblemShape(n=self.n, m=self.m, k=self.k)  # raises on a bad shape
        if not (1 <= self.k < self.m):
            raise DomainError(f"need 1 <= k < m, got k={self.k} m={self.m}")
        if not (1 <= self.reps <= MAX_REPS):
            raise DomainError(f"need 1 <= reps <= {MAX_REPS}, got {self.reps}")


@dataclass(frozen=True)
class RepRecord:
    """One rep's outcome.  An errored rep raised a library error; its verdict
    is NotCertified and ``diagnostic`` names the error."""

    seed: int
    verdict: Verdict
    flips: int
    seconds: float
    diagnostic: str = ""
    errored: bool = False


@dataclass(frozen=True)
class CellResult:
    """A cell's reps.  ``failures`` counts certified failures and ``errors``
    the reps that errored; both are out of ``spec.reps``.  The means are over
    the reps that did not error, and read 0.0 if every rep errored."""

    spec: CellSpec
    per_rep: tuple[RepRecord, ...]

    @property
    def failures(self) -> int:
        return sum(r.verdict is Verdict.CertifiedFailure for r in self.per_rep)

    @property
    def errors(self) -> int:
        return sum(r.errored for r in self.per_rep)

    @property
    def paper_reference_rate(self) -> Optional[float]:
        return paper_rate(self.spec.n, self.spec.m, self.spec.k)

    @property
    def rate(self) -> float:
        return self.failures / self.spec.reps

    @property
    def mean_flips(self) -> float:
        return _mean([r.flips for r in self.per_rep if not r.errored])

    @property
    def mean_seconds(self) -> float:
        return _mean([r.seconds for r in self.per_rep if not r.errored])


def _mean(values: list) -> float:
    return sum(values) / len(values) if values else 0.0


# Reference failure counts (errors, repetitions) from the original simulation
# study, keyed by (n, m, k).  Lower-alpha and higher-alpha groups are kept
# separate so suites can target one table at a time.
_TABLE1 = {
    (800, 80): ((14, 99, 100), (12, 79, 100), (10, 22, 100),
                (8, 0, 100), (6, 0, 100), (4, 0, 100)),
    (400, 80): ((15, 99, 100), (14, 89, 100), (13, 58, 100),
                (12, 19, 100), (11, 3, 100), (10, 0, 100)),
    (400, 120): ((24, 99, 100), (23, 80, 100), (22, 44, 100),
                 (21, 21, 100), (20, 7, 100), (19, 1, 100)),
    (400, 160): ((35, 92, 100), (34, 84, 100), (33, 69, 100),
                 (32, 30, 100), (31, 17, 100), (30, 1, 27)),
    (400, 200): ((50, 99, 100), (48, 90, 100), (46, 53, 100),
                 (44, 13, 57), (42, 4, 100), (40, 0, 14)),
}
_TABLE2 = {
    (300, 180): ((51, 100, 100), (49, 95, 100), (47, 72, 100),
                 (44, 21, 99), (42, 8, 100), (40, 2, 100)),
    (200, 140): ((44, 98, 100), (42, 81, 100), (40, 50, 100),
                 (38, 19, 100), (36, 13, 100), (34, 0, 31)),
    (200, 160): ((58, 100, 100), (55, 92, 100), (53, 67, 100),
                 (50, 34, 100), (48, 5, 28), (45, 1, 100)),
    (200, 180): ((74, 99, 100), (71, 91, 100), (69, 68, 100),
                 (66, 22, 57), (64, 9, 100), (61, 1, 100)),
}


_REFERENCE = {(n, m, k): (errors, reps)
              for group in (_TABLE1, _TABLE2)
              for (n, m), rows in group.items()
              for k, errors, reps in rows}


def builtin_tables() -> dict[tuple[int, int, int], tuple[int, int]]:
    """All embedded reference cells as {(n, m, k): (errors, repetitions)}."""
    return dict(_REFERENCE)


def paper_rate(n: int, m: int, k: int) -> Optional[float]:
    """Reference failure rate for a cell, or None if the cell is not tabulated."""
    entry = _REFERENCE.get((n, m, k))
    if entry is None:
        return None
    errors, reps = entry
    return errors / reps


def builtin_suite(name: str, reps: int = 25, base_seed: int = 0) -> list[CellSpec]:
    """Cell specs covering one embedded table ('table1' or 'table2')."""
    group = {"table1": _TABLE1, "table2": _TABLE2}.get(name)
    if group is None:
        raise DomainError(f"unknown builtin suite {name!r} (expected 'table1' or 'table2')")
    cells = []
    for (n, m), rows in group.items():
        for k, _errors, _reps in rows:
            cells.append(CellSpec(n=n, m=m, k=k, reps=reps, base_seed=base_seed))
    return cells


def _run_rep(args: tuple[int, int, int, int]) -> RepRecord:
    n, m, k, seed = args
    instance = sample_gaussian_matrix(ProblemShape(n=n, m=m, k=k), seed)
    started = time.perf_counter()
    try:
        outcome = estimate_failure(instance, k)
    except SecthreshError as exc:
        return RepRecord(seed=seed, verdict=Verdict.NotCertified, flips=0,
                         seconds=0.0, diagnostic=f"{type(exc).__name__}: {exc}",
                         errored=True)
    return RepRecord(seed=seed, verdict=outcome.verdict, flips=outcome.flips_evaluated,
                     seconds=time.perf_counter() - started,
                     diagnostic=outcome.diagnostic)


def run_suite(cells: Sequence[CellSpec], workers: int = 1) -> list[CellResult]:
    """Run cells in order, every rep of the suite on one pool of at most
    ``workers`` processes; the results do not depend on the worker count.
    A rep that raises a library error is recorded as errored and never
    aborts its cell.  ``workers`` must lie in 1..MAX_WORKERS."""
    if not (1 <= workers <= MAX_WORKERS):
        raise DomainError(f"need 1 <= workers <= {MAX_WORKERS}, got {workers}")
    tasks = [(spec.n, spec.m, spec.k, derive_rep_seed(spec.base_seed, r))
             for spec in cells for r in range(spec.reps)]
    workers = min(workers, len(tasks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        # The workers sample instances, which needs numpy.random; load it
        # before they fork so that they share its pages.
        import numpy.random  # noqa: F401

        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_run_rep, tasks))
    else:
        records = [_run_rep(t) for t in tasks]
    # pool.map keeps task order, so each cell's reps are the next spec.reps.
    ordered = iter(records)
    return [CellResult(spec, tuple(islice(ordered, spec.reps))) for spec in cells]
