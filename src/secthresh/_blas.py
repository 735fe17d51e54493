"""numpy's OpenBLAS through ctypes: its thread count, its core name, and the
compiled inner loop of the box least-squares solve, which calls its CBLAS.

Nothing here runs at import.  The OpenBLAS that numpy loaded is found in
/proc/self/maps on first use, and the loop is compiled on first use into the
user's cache directory, ``$XDG_CACHE_HOME/secthresh`` or
``~/.cache/secthresh``, under a name keyed on its source and flags.  A caller
that forks resolves both first, so its children inherit them.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import threading
import zlib
from pathlib import Path
from typing import Callable, Optional

import numpy as np

# The (get, set) thread-count functions an OpenBLAS may export: int get(), void set(int).
_OPENBLAS_THREADS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)
# The CBLAS routines numpy's matmul and dot call, and the core-name getter, as
# the 64-bit-int OpenBLAS of numpy's wheels exports them.
_GEMV, _DOT = "scipy_cblas_dgemv64_", "scipy_cblas_ddot64_"
_CORENAME = "scipy_openblas_get_corename64_"
_SOURCE = Path(__file__).with_name("_box_lsq.c")
# No fused multiply-add: each operation rounds as numpy's ufuncs round it.
_FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")
# One thread at a time pins the count; a forked child starts with the lock free.
_lock = threading.RLock()
os.register_at_fork(after_in_child=_lock._at_fork_reinit)


@functools.cache
def _openblas() -> tuple:
    """Every loaded OpenBLAS, found once; forked children inherit them."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split(None, 5)[5].strip() for line in maps if "openblas" in line})
        return tuple(map(ctypes.CDLL, paths))
    except OSError:  # no /proc/self/maps (not Linux), or a library that will not reopen
        return ()


@functools.cache
def thread_functions() -> tuple:
    """(get, set) of every loaded OpenBLAS."""
    return tuple((getattr(lib, get), getattr(lib, put)) for lib in _openblas()
                 for get, put in _OPENBLAS_THREADS if hasattr(lib, get) and hasattr(lib, put))


@contextlib.contextmanager
def one_thread():
    """Every loaded OpenBLAS on one thread in the block and its forks, one caller at a time."""
    pairs = thread_functions()
    with _lock:
        # A count of 1 is left alone: in a forked child a set restarts the thread pool.
        saved = [(put, count) for get, put in pairs if (count := get()) != 1]
        for put, _ in saved:
            put(1)
        try:
            yield
        finally:
            for put, count in saved:
                put(count)


def corename() -> str:
    """The CPU core that numpy's OpenBLAS dispatches its kernels for, or ""."""
    for lib in _openblas():
        if hasattr(lib, _CORENAME):
            getter = getattr(lib, _CORENAME)
            getter.restype = ctypes.c_char_p
            return getter().decode()
    return ""


def _library() -> Optional[Path]:
    """The compiled loop, built into the cache unless already there, or None."""
    try:
        base = os.environ.get("XDG_CACHE_HOME", "")
        cache = Path(base if os.path.isabs(base) else Path.home() / ".cache") / "secthresh"
        key = zlib.crc32(b"\0".join([_SOURCE.read_bytes(), os.uname().machine.encode(),
                                     *map(str.encode, _FLAGS)]))
    except (OSError, RuntimeError):  # no C source, or no home directory
        return None
    library = cache / f"_box_lsq-{key:08x}.so"
    if library.exists():
        return library
    import shlex
    import subprocess
    import sysconfig

    cc = sysconfig.get_config_var("CC")
    if not cc:
        return None
    # Built under a name of its own, then moved into place, so a process or
    # thread that builds at the same time never loads half a file.
    partial = library.with_name(f"{library.name}.{os.getpid()}.{threading.get_ident()}")
    try:
        cache.mkdir(parents=True, exist_ok=True)
        subprocess.run([*shlex.split(cc), *_FLAGS, "-o", str(partial), str(_SOURCE)],
                       check=True, capture_output=True, timeout=120)
        os.replace(partial, library)
    except (OSError, subprocess.SubprocessError):  # no compiler, a failed build, no cache
        return None
    finally:
        partial.unlink(missing_ok=True)
    return library


@functools.cache
def box_lsq_kernel() -> Optional[Callable]:
    """The compiled loop of ``tau._box_lsq`` bound to numpy's CBLAS, or None
    when a piece is missing: the CBLAS routines, a compiler, a build or a
    writable cache.

    The callable takes (M, c, x0, max_iterations, check_every, tol,
    stop_below) and returns (x, iterations, converged, stopped) as the numpy
    loop does, or None for input that numpy's matmul does not hand to gemv as
    it is (a single row or column, or an M that is not float64 rows of unit
    column stride) and for check_every < 1.  M's rows may sit further apart
    than their length, as the rows of a padded basis from
    ``instances.null_projector`` do: the row stride goes to gemv as its lda.
    """
    blas = next((lib for lib in _openblas() if hasattr(lib, _GEMV) and hasattr(lib, _DOT)), None)
    library = None if blas is None else _library()
    if library is None:
        return None
    try:
        kernel = ctypes.CDLL(str(library)).box_lsq
    except (OSError, AttributeError):  # a cached file this host cannot load
        return None
    kernel.restype = ctypes.c_int64
    kernel.argtypes = [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64,
                       ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p,
                       ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64, ctypes.c_double,
                       ctypes.c_double, ctypes.POINTER(ctypes.c_int)]
    gemv = ctypes.cast(getattr(blas, _GEMV), ctypes.c_void_p).value
    dot = ctypes.cast(getattr(blas, _DOT), ctypes.c_void_p).value

    def box_lsq(M, c, x0, max_iterations, check_every, tol, stop_below):
        rows, cols = M.shape
        row_stride, col_stride = M.strides
        if (min(rows, cols) < 2 or M.dtype != np.float64 or col_stride != 8
                or row_stride % 8 or row_stride < 8 * cols or c.shape != (rows,)
                or x0.shape != (cols,) or check_every < 1):
            return None
        # x, c and the loop's work vectors in one buffer, whose address is read once.
        buf = np.empty(5 * cols + 2 * rows)
        buf[:cols] = x0
        buf[cols:cols + rows] = c
        at = buf.ctypes.data
        status = ctypes.c_int()
        # A negative bound never stops: a squared norm is never negative.
        stop_sq = -1.0 if stop_below is None else stop_below * stop_below
        it = kernel(gemv, dot, rows, cols, M.ctypes.data, row_stride // 8, at + 8 * cols, at,
                    at + 8 * (cols + rows), max_iterations, check_every, tol, stop_sq,
                    ctypes.byref(status))
        return buf[:cols], it, status.value != 0, status.value == 2

    return box_lsq
