"""Plumbing shared by the test modules: a fresh-interpreter runner, a seeded
projector, the CSV filter for the one rerun-variable column, a guard that
fails a test when a function it must not reach is called, and a call
counter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from secthresh import ProblemShape, null_projector, sample_gaussian_matrix

TESTS = Path(__file__).resolve().parent


def run_child(*argv, blas_threads=None):
    """stdout, stripped, of ``python *argv`` in a fresh interpreter.

    The child imports this checkout's package, and can import the test
    modules, as the digest pins do.  Given ``blas_threads``, BLAS runs on that
    many threads, set before numpy loads, as the benchmark runs it.
    """
    env = dict(os.environ)
    if blas_threads is not None:
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[name] = str(blas_threads)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(TESTS.parent / "src"), str(TESTS), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *argv], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def projector(n, m, k, seed):
    """The null projector of the seeded Gaussian instance of shape (n, m, k)."""
    return null_projector(sample_gaussian_matrix(ProblemShape(n=n, m=m, k=k), seed).A)


def drop_timing(csv_text):
    # mean_seconds (the last column) is wall-clock and legitimately varies
    # between reruns; everything before it must be stable.
    return [",".join(line.split(",")[:-1]) for line in csv_text.splitlines()]


@pytest.fixture
def forbid(monkeypatch):
    """``forbid(module, name)``: the test fails if it calls ``module.name``."""
    def forbid_(module, name):
        def unreachable(*args, **kwargs):
            raise AssertionError(f"{module.__name__}.{name} was called")

        monkeypatch.setattr(module, name, unreachable)
    return forbid_


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(module, *names)``: a dict, name to calls made so far."""
    def count_calls_(module, *names):
        calls = dict.fromkeys(names, 0)
        for name in names:
            def counted(*args, _name=name, _original=getattr(module, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        return calls
    return count_calls_
