"""Plumbing shared by the test modules: a fresh-interpreter runner, the CPU
class the bit pins were recorded on, a seeded projector, the CSV filter for
the one rerun-variable column, a guard that fails a test when a function it
must not reach is called, and a call recorder, the one way a test watches
the library's calls."""

import inspect
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from secthresh import ProblemShape, _blas, null_projector, sample_gaussian_matrix

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

TESTS = Path(__file__).resolve().parent


def run_child(*argv, blas_threads=None, env=None):
    """stdout, stripped, of ``python *argv`` in a fresh interpreter.

    The child imports this checkout's package, and can import the test
    modules, as the digest pins do.  Given ``blas_threads``, BLAS runs on that
    many threads, set before numpy loads, as the benchmark runs it.  ``env``
    adds variables to the child's environment.
    """
    env = {**os.environ, **(env or {})}
    if blas_threads is not None:
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[name] = str(blas_threads)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(TESTS.parent / "src"), str(TESTS), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *argv], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


# The CPU class the bit pins were recorded on.  numpy's AVX-512 log moves
# sampled bits by an ulp, and OpenBLAS's gemv, dot and SVD kernels differ by
# core, so on another class a bit pin can fail while verdicts hold.
RECORDED_ON = "numpy dispatch X86_V4, OpenBLAS core SkylakeX"
# An AVX2 host, emulated in a child: numpy's AVX-512 kernels off, OpenBLAS's
# Haswell kernels.
AVX2_HOST = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR",
             "OPENBLAS_CORETYPE": "Haswell"}
# numpy's map of CPU features, by its names, to whether this host has them.
CPU_FEATURES = __cpu_features__


def cpu_class():
    """The numpy dispatch targets and the OpenBLAS core this process runs."""
    targets = " ".join(t for t in __cpu_dispatch__ if CPU_FEATURES.get(t)) or "baseline"
    return f"numpy dispatch {targets}, OpenBLAS core {_blas.corename() or 'unknown'}"


def pinned_on():
    """The assertion message of a bit pin: where it was recorded, and this host."""
    return f"bits pinned on {RECORDED_ON}; this host runs {cpu_class()}"


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


class CallRecord:
    """The calls ``count_calls`` saw, in call order, in ``log``: each a
    namespace of the wrapped ``name``, the ``args`` by parameter name
    (defaults filled in, each writable array copied at call time) and the
    ``result``, None until the call returns.  ``record[name]`` counts one
    name's calls."""

    def __init__(self, names):
        self.names, self.log = names, []

    def __getitem__(self, name):
        return sum(call.name == name for call in self.log)

    def __repr__(self):
        return repr({name: self[name] for name in self.names})


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(module, *names)``: a ``CallRecord`` of every call of
    ``module.name`` from then on, for each name."""
    def count_calls_(module, *names):
        record = CallRecord(names)
        for name in names:
            def recorded(*args, _name=name, _original=getattr(module, name), **kwargs):
                bound = inspect.signature(_original).bind(*args, **kwargs)
                bound.apply_defaults()
                # The search flips its pattern in place after the call.
                call = SimpleNamespace(name=_name, result=None, args={
                    key: value.copy() if isinstance(value, np.ndarray)
                    and value.flags.writeable else value
                    for key, value in bound.arguments.items()})
                record.log.append(call)
                call.result = _original(*args, **kwargs)
                return call.result

            monkeypatch.setattr(module, name, recorded)
        return record
    return count_calls_
