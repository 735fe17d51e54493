"""Monte Carlo harness: failure-rate estimation over (n, m, k) cells.

Each cell draws ``reps`` seeded Gaussian instances, runs the certification
pipeline on each, and reports the fraction certified.  A suite lists every rep
of every cell as one task list, and ``workers`` processes work it: the
calling process and ``workers - 1`` forked children, each taking the next rep
from one shared index, so every process stays busy across cell boundaries and
none sits idle waiting for the others.  Per-rep seeds are pre-derived from the
cell's base seed, so results are identical no matter how the work is
scheduled or how many processes run it.  Each process samples its reps from
the Philox4x64-10 stream that ``instances`` computes in numpy integer
arithmetic, bit for bit numpy's ``Philox(key=seed)``, so no process loads
numpy's ``random`` package.  Each rep is timed here, once, around
``estimate_failure``: the factorization, the search and the certificate
checks, not the sampling.  A cell keeps only its reps; its counts and means
are computed from them.

The reference counts from the original simulation study are embedded for
side-by-side reporting; their occasionally ragged denominators (57, 27, 28,
14, 31, 99) are stored verbatim and compared as rates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Optional

from .errors import DomainError, SecthreshError, count, dimensions
from .instances import (_OPENBLAS_THREADS, ProblemShape, _one_blas_thread,
                        derive_rep_seed, sample_gaussian_matrix)
from .tau import Verdict, estimate_failure

# A suite's (cell, rep) tasks are listed before any rep runs, so the rep count
# is capped to keep that list small.
MAX_REPS = 100_000
# Every worker but the caller is a forked process, so the count is capped.
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
        dimensions(self.n, self.m)
        count(self.k, "k", 1, self.m - 1, "m")
        count(self.reps, "reps", 1, MAX_REPS)


@dataclass(frozen=True)
class RepRecord:
    """One rep's outcome.  ``error`` is empty unless the rep raised a library
    error; then it reads "Type: message" and the verdict is NotCertified."""

    seed: int
    verdict: Verdict
    flips: int
    seconds: float
    unconverged_solves: int = 0
    error: str = ""


@dataclass(frozen=True)
class CellResult:
    """A cell's reps.  ``failures`` counts certified failures and ``errors``
    the reps with an ``error``; both are out of ``spec.reps``.  The means are
    over the reps without one, and read 0.0 if every rep has one."""

    spec: CellSpec
    per_rep: tuple[RepRecord, ...]

    @property
    def failures(self) -> int:
        return sum(r.verdict is Verdict.CertifiedFailure for r in self.per_rep)

    @property
    def errors(self) -> int:
        return sum(bool(r.error) for r in self.per_rep)

    @property
    def paper_reference_rate(self) -> Optional[float]:
        return paper_rate(self.spec.n, self.spec.m, self.spec.k)

    @property
    def rate(self) -> float:
        return self.failures / self.spec.reps

    @property
    def mean_flips(self) -> float:
        return _mean([r.flips for r in self.per_rep if not r.error])

    @property
    def mean_seconds(self) -> float:
        return _mean([r.seconds for r in self.per_rep if not r.error])


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
        return RepRecord(seed=seed, verdict=Verdict.NotCertified, flips=0, seconds=0.0,
                         error=f"{type(exc).__name__}: {exc}")
    return RepRecord(seed=seed, verdict=outcome.verdict, flips=outcome.flips_evaluated,
                     seconds=time.perf_counter() - started,
                     unconverged_solves=outcome.unconverged_solves)


# The next task index of the running suite, shared by the caller and its
# pool children; each child receives it from the pool's initializer.
_task_index = None


def _share_index(index) -> None:
    global _task_index
    _task_index = index


def _drain(tasks: list, index=None) -> list[tuple[int, RepRecord]]:
    """Run tasks by the shared index, lowest first, until none is left, and
    return (task index, record) pairs.  ``index`` defaults to the one this
    pool child was given."""
    index = _task_index if index is None else index
    done = []
    while True:
        with index.get_lock():
            i = index.value
            index.value = i + 1
        if i >= len(tasks):
            return done
        done.append((i, _run_rep(tasks[i])))


def run_suite(cells: Iterable[CellSpec], workers: int = 1) -> list[CellResult]:
    """Run cells, any iterable of CellSpec, in order, every rep of the suite
    on ``workers`` processes: this one and ``workers - 1`` forked children,
    which take reps from one shared index; the results do not depend on the
    worker count.  A rep that raises a library error keeps it in ``error``
    and never aborts its cell.  ``workers`` lies in 1..MAX_WORKERS; no more
    processes run than there are reps.  Each process runs its reps on one
    BLAS thread, so N processes keep N cores busy, not oversubscribed."""
    cells = list(cells)
    workers = count(workers, "workers", 1, MAX_WORKERS)
    tasks = [(spec.n, spec.m, spec.k, derive_rep_seed(spec.base_seed, r))
             for spec in cells for r in range(spec.reps)]
    workers = min(workers, len(tasks))
    with _one_blas_thread():
        if workers > 1:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            fork = multiprocessing.get_context("fork")
            index = fork.Value("q", 0)
            with ProcessPoolExecutor(max_workers=workers - 1, mp_context=fork,
                                     initializer=_share_index, initargs=(index,)) as pool:
                children = [pool.submit(_drain, tasks) for _ in range(workers - 1)]
                done = _drain(tasks, index)
                for child in children:
                    done += child.result()
            records = [record for _, record in sorted(done)]
        else:
            records = [_run_rep(t) for t in tasks]
    # Records are in task order, so each cell's reps are the next spec.reps.
    ordered = iter(records)
    return [CellResult(spec, tuple(islice(ordered, spec.reps))) for spec in cells]
