"""What run.py (which never imports numpy) and worker.py must agree on."""

from __future__ import annotations

# Reps per table2 cell, in `secthresh simulate` and in the serial reference
# pass that its CSV is compared with.
TABLE2_REPS = 2


def round_seed(seed: int, r: int) -> int:
    """Base seed of round r of a run; the serial and the CLI workloads share it."""
    return seed * 1000 + r
