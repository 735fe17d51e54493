"""Run the secthresh CLI and report the peak memory of it and its pool workers.

    python3 bench/simulate.py PEAK.json simulate --builtin table2 --workers 2 ...

runs ``python -m secthresh.cli simulate ...`` in this process and exits with
the CLI's exit code.  The pool workers are forked children.  On Linux the
``RUSAGE_CHILDREN`` peak of a process is that of its largest child, not a
sum, so this script reaps each child with ``wait4`` to get its own peak.
PEAK.json receives ``peak_rss_mb``: this process's peak plus the largest sum
of the peaks of children that were alive at the same time.
"""

from __future__ import annotations

import itertools
import json
import os
import resource
import runpy
import sys
import threading
from pathlib import Path

_fork = os.fork
_lock = threading.Lock()
_tick = itertools.count()
_spans: list = []   # [forked at, reaped at or None, peak MB] for each child
_alive: dict = {}   # pid -> its span


def fork() -> int:
    pid = _fork()
    if pid:
        with _lock:
            _alive[pid] = span = [next(_tick), None, 0.0]
            _spans.append(span)
    return pid


def waitpid(pid: int, options: int) -> tuple[int, int]:
    got, status, usage = os.wait4(pid, options)
    if got:
        with _lock:
            span = _alive.pop(got, None)
            if span is not None:
                span[1:] = [next(_tick), usage.ru_maxrss / 1024.0]
    return got, status


def children_peak() -> float:
    """Largest sum of child peaks over the moments a child was forked."""
    return max((sum(mb for start, end, mb in _spans
                    if start <= t and (end is None or t < end))
                for t, _, _ in _spans), default=0.0)


def main() -> int:
    report = Path(sys.argv[1])
    sys.argv = ["secthresh", *sys.argv[2:]]
    # multiprocessing forks and reaps its workers through these attributes.
    os.fork, os.waitpid = fork, waitpid
    try:
        runpy.run_module("secthresh.cli", run_name="__main__", alter_sys=True)
        code = 0
    except SystemExit as exc:
        code = exc.code
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report.write_text(json.dumps({"peak_rss_mb": own + children_peak()}))
    return code


if __name__ == "__main__":
    sys.exit(main())
