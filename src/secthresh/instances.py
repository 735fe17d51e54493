"""Seeded Gaussian instances and their null-space geometry.

An instance's entries are standard normals made by Box-Muller from the words
of a Philox4x64-10 stream, computed in numpy integer arithmetic without
numpy's ``random`` package.  A (shape, seed) pair thus gives the same bits on
every platform and at any degree of parallelism.  The SVD of an instance gives
orthonormal bases of its row space and its null space; the latter induces the
projector Q used by the dual solver.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import MAX_N, NumericalError, dimensions, matrix, seed64

_TWO_NEG53 = 2.0 ** -53
_MASK64 = 0xFFFFFFFFFFFFFFFF
# The (get, set) thread-count functions an OpenBLAS may export: int get(), void set(int).
_OPENBLAS_THREADS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)
# One thread at a time pins the count; a forked child starts with the lock free.
_blas_lock = threading.RLock()
os.register_at_fork(after_in_child=_blas_lock._at_fork_reinit)


@dataclass(frozen=True)
class ProblemShape:
    """Dimensions n and m with 0 < m < n <= MAX_N, and a block k left unchecked."""

    n: int
    m: int
    k: int

    def __post_init__(self):
        dimensions(self.n, self.m)


@dataclass(frozen=True)
class GaussianInstance:
    """A measurement matrix and the seed it was drawn from."""

    seed: int
    A: np.ndarray


@dataclass(frozen=True)
class NullProjector:
    """Orthonormal null-space basis of A plus companion row-space data.

    ``Dperp`` has shape (n-m, n) with orthonormal rows spanning null(A); the
    induced projector is Q = Dperp^T Dperp.  ``rowspace`` holds the
    complementary orthonormal basis (m, n) of the row space, and ``A`` is kept
    so certificates can report their null-space residual against the original
    matrix.
    """

    Dperp: np.ndarray
    rowspace: np.ndarray
    A: np.ndarray

    def apply_q(self, z: np.ndarray) -> np.ndarray:
        """Project z onto null(A)."""
        return self.Dperp.T @ (self.Dperp @ z)


# Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3",
# SC 2011), numpy's ``Philox`` bit generator: each round multiplies lanes 0
# and 2 by these constants, and the key takes a Weyl step between rounds.
_PHILOX_M = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
_PHILOX_BUMP = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
# Blocks encrypted in one pass, so a lane array takes 128 KB at any count.
_PHILOX_CHUNK = 2**14
_LO32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


def _mulhilo(a: np.ndarray, m: np.uint64) -> tuple[np.ndarray, np.ndarray]:
    """The high and low words of each 128-bit product a * m, built from 32-bit
    halves so that no partial product overflows 64 bits."""
    a_lo, a_hi = a & _LO32, a >> _SHIFT32
    m_lo, m_hi = m & _LO32, m >> _SHIFT32
    mid = ((a_lo * m_lo) >> _SHIFT32) + a_lo * m_hi
    cross = a_hi * m_lo + (mid & _LO32)
    hi = a_hi * m_hi + (mid >> _SHIFT32) + (cross >> _SHIFT32)
    return hi, a * m


def _philox_raw(seed: int, count: int) -> np.ndarray:
    """The first ``count`` words of numpy's ``Philox(key=seed).random_raw``.

    Block j (from 0) encrypts the counter [j + 1, 0, 0, 0] under the key
    [seed mod 2**64, seed >> 64] and yields its four words in order.  numpy
    wraps uint64 array arithmetic modulo 2**64 without a warning.
    """
    blocks = (count + 3) // 4
    words = np.empty((blocks, 4), dtype=np.uint64)
    for start in range(0, blocks, _PHILOX_CHUNK):
        stop = min(start + _PHILOX_CHUNK, blocks)
        x0 = np.arange(start + 1, stop + 1, dtype=np.uint64)
        x1 = x2 = x3 = np.zeros_like(x0)
        k0, k1 = seed & _MASK64, seed >> 64
        for _ in range(_PHILOX_ROUNDS):
            hi0, lo0 = _mulhilo(x0, _PHILOX_M[0])
            hi2, lo2 = _mulhilo(x2, _PHILOX_M[1])
            x0, x1, x2, x3 = hi2 ^ x1 ^ np.uint64(k0), lo2, hi0 ^ x3 ^ np.uint64(k1), lo0
            k0 = (k0 + _PHILOX_BUMP[0]) & _MASK64
            k1 = (k1 + _PHILOX_BUMP[1]) & _MASK64
        words[start:stop] = np.column_stack((x0, x1, x2, x3))
    return words.ravel()[:count]


def _philox_normals(seed: int, count: int) -> np.ndarray:
    """Standard normals from the seed's Philox stream by Box-Muller.

    Each word keeps its top 53 bits as a uniform, and each pair of uniforms
    (u1, u2) gives the pair of normals r cos(t), r sin(t), with
    r = sqrt(-2 log u1) and t = 2 pi u2.  u1 is shifted into (0, 1] so the
    logarithm never sees zero.
    """
    pairs = (count + 1) // 2
    bits = _philox_raw(seed, 2 * pairs) >> np.uint64(11)
    radius = np.sqrt(np.log((bits[0::2] + np.uint64(1)) * _TWO_NEG53) * -2.0)
    angle = bits[1::2] * _TWO_NEG53 * (2.0 * math.pi)
    out = np.empty(2 * pairs)
    out[0::2] = radius * np.cos(angle)
    out[1::2] = radius * np.sin(angle)
    return out[:count]


def sample_gaussian_matrix(shape: ProblemShape, seed: int) -> GaussianInstance:
    """Draw the m x n standard-normal matrix for (shape, seed).

    Entries fill in row-major order from the seeded stream, so the same
    arguments reproduce the same matrix bit-for-bit.
    """
    seed = seed64(seed, "seed")
    entries = _philox_normals(seed, shape.m * shape.n)
    A = entries.reshape(shape.m, shape.n)
    A.setflags(write=False)
    return GaussianInstance(seed=seed, A=A)


@functools.cache
def _blas_thread_functions() -> tuple:
    """(get, set) of every loaded OpenBLAS, found once; forked children inherit them."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split(None, 5)[5].strip() for line in maps if "openblas" in line})
        return tuple((getattr(lib, get), getattr(lib, put))
                     for lib in map(ctypes.CDLL, paths) for get, put in _OPENBLAS_THREADS
                     if hasattr(lib, get) and hasattr(lib, put))
    except OSError:  # no /proc/self/maps (not Linux), or a library that will not reopen
        return ()


@contextlib.contextmanager
def _one_blas_thread():
    """Every loaded OpenBLAS on one thread in the block and its forks, one caller at a time."""
    pairs = _blas_thread_functions()
    with _blas_lock:
        # A count of 1 is left alone: in a forked child a set restarts the thread pool.
        saved = [(put, count) for get, put in pairs if (count := get()) != 1]
        for put, _ in saved:
            put(1)
        try:
            yield
        finally:
            for put, count in saved:
                put(count)


def null_projector(A: np.ndarray) -> NullProjector:
    """Factor an m x n matrix into row-space and null-space orthonormal bases.

    Raises
    ------
    DomainError
        If A is not a 2-D array of real numbers or its shape breaks
        0 < m < n <= MAX_N.
    NumericalError
        If A has a non-finite entry, if the SVD does not converge, or if A is
        (numerically) rank deficient: smallest singular value below 1e-8
        times the largest.
    """
    A = matrix(A)
    m = A.shape[0]
    if not np.isfinite(A).all():
        raise NumericalError("matrix has a non-finite entry")
    try:
        with _one_blas_thread():  # the SVD's bits move with the thread count
            _, s, vh = np.linalg.svd(A, full_matrices=True)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed: {exc}") from exc
    if s[-1] <= 1e-8 * s[0]:
        raise NumericalError(
            f"rank-deficient matrix: singular values span [{s[-1]:.3e}, {s[0]:.3e}]"
        )
    # Read-only views that share the SVD's vh rather than copies of it.
    Dperp = vh[m:]
    rowspace = vh[:m]
    Dperp.setflags(write=False)
    rowspace.setflags(write=False)
    return NullProjector(Dperp=Dperp, rowspace=rowspace, A=A)


def derive_rep_seed(base_seed: int, rep_index: int) -> int:
    """Mix (base_seed, rep_index) into an independent 64-bit stream seed.

    Splitmix-style avalanche over base + (index+1)*phi; injective in practice
    and deterministic, so per-rep streams can be pre-derived regardless of
    worker scheduling.
    """
    base_seed = seed64(base_seed, "base_seed")
    rep_index = seed64(rep_index, "rep_index")
    x = (base_seed + (rep_index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)
