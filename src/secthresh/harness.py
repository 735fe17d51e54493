"""Monte Carlo harness: failure-rate estimation over (n, m, k) cells.

Each cell draws ``reps`` seeded Gaussian instances, runs the certification
pipeline on each, and reports the fraction certified.  A suite lists every rep
of every cell as one task list, and ``workers`` processes work it: the calling
process and ``workers - 1`` children it forks.  Each takes the next rep from
one shared index, a counter handed along a pipe, so none sits idle at a cell
boundary; a child pickles its records into its own pipe.  Per-rep seeds are
pre-derived from the cell's base seed, so results do not depend on the
scheduling or on the worker count.  No process loads numpy's ``random``
package: ``instances`` computes the Philox stream itself.  Each rep is timed
here, once, around ``estimate_failure``: the factorization, the search and the
certificate checks, not the sampling.

The reference counts from the original simulation study are embedded for
side-by-side reporting; their occasionally ragged denominators (57, 27, 28,
14, 31, 99) are stored verbatim and compared as rates.
"""

from __future__ import annotations

import os
import pickle
import signal
import time
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Optional

from .errors import DomainError, SecthreshError, count, dimensions, seed64
from .instances import ProblemShape, _one_blas_thread, derive_rep_seed, sample_gaussian_matrix
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
        seed64(self.base_seed, "base_seed")


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


def _drain(tasks: list, token: tuple[int, int]) -> list[tuple[int, RepRecord]]:
    """Run tasks by the shared index, lowest first, until none is left, and
    return (task index, record) pairs.  The token pipe holds the index."""
    done = []
    while True:
        i = int.from_bytes(os.read(token[0], 8), "little")
        os.write(token[1], (i + 1).to_bytes(8, "little"))
        if i >= len(tasks):
            return done
        done.append((i, _run_rep(tasks[i])))


def _fork_worker(tasks: list, token: tuple[int, int]):
    """Fork a child to drain tasks into its own pipe; return its pid and the pipe."""
    r, w = os.pipe()
    if pid := os.fork():
        os.close(w)
        return pid, open(r, "rb")
    try:
        try:
            result = _drain(tasks, token)
        except BaseException as exc:
            try:
                result = pickle.loads(pickle.dumps(exc))
            except Exception:
                result = ChildProcessError(f"a worker raised {exc!r}")
        with open(w, "wb") as pipe:
            pickle.dump(result, pipe)
        os._exit(0)
    finally:
        os._exit(1)


def run_suite(cells: Iterable[CellSpec], workers: int = 1) -> list[CellResult]:
    """Run cells, any iterable of CellSpec, in order, every rep of the suite
    on ``workers`` processes: this one and ``workers - 1`` forked children,
    which take reps from one shared index; the results do not depend on the
    worker count.  A rep's library error is kept in its ``error``.  Any other
    exception in a child is raised here with its type, a child that dies
    without a result raises ChildProcessError, and no child outlives the call.
    ``workers`` lies in 1..MAX_WORKERS; no more processes run than reps, each
    on one BLAS thread."""
    cells = list(cells)
    workers = count(workers, "workers", 1, MAX_WORKERS)
    tasks = [(spec.n, spec.m, spec.k, derive_rep_seed(spec.base_seed, r))
             for spec in cells for r in range(spec.reps)]
    with _one_blas_thread():
        token, children, sent, codes = os.pipe(), [], None, []
        os.write(token[1], bytes(8))
        try:
            for _ in range(min(workers, len(tasks)) - 1):
                children.append(_fork_worker(tasks, token))
            done = _drain(tasks, token)
            sent = [pipe.read() for _, pipe in children]
        finally:
            for pid, pipe in children:
                pipe.close()
                if sent is None:  # the children may still be at work
                    os.kill(pid, signal.SIGKILL)
                codes.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
            os.close(token[0])
            os.close(token[1])
    for (pid, _), blob, code in zip(children, sent, codes):
        result = pickle.loads(blob) if code == 0 else ChildProcessError(
            f"worker {pid} exited with status {code} and no result")
        if isinstance(result, BaseException):
            raise result
        done += result
    # Sorted by task index, each cell's reps are the next spec.reps.
    ordered = (record for _, record in sorted(done))
    return [CellResult(spec, tuple(islice(ordered, spec.reps))) for spec in cells]
