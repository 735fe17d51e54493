"""Seeded Gaussian instances and their null-space geometry.

An instance's entries are standard normals made by Box-Muller from the words
of a Philox4x64-10 stream, computed in numpy integer arithmetic without
numpy's ``random`` package.  A (shape, seed) pair thus gives the same bits at
any degree of parallelism, on hosts of one CPU class.  Across classes the bits
can move: on AVX-512 hosts numpy runs ``np.log`` in a kernel that differs from
its AVX2 kernel by one ulp at some points.  The SVD of an instance gives
orthonormal bases of its row space and its null space; the latter induces the
projector Q used by the dual solver.  Both bases are row views of one copy of
the SVD's vh, whose rows each start on a 64-byte boundary: the row stride is
padded up to a multiple of 8 floats, so the bases are not C-contiguous when
n % 8 != 0.  Factoring holds that copy and vh at once, briefly: one extra n x n
array, 0.7 MB at n = 300, 5.1 MB at n = 800 and 800 MB at MAX_N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _blas
from .errors import MAX_N, NumericalError, dimensions, matrix, seed64

_TWO_NEG53 = 2.0 ** -53
_MASK64 = 0xFFFFFFFFFFFFFFFF
# Each basis row starts on a cache line: 64 bytes, 8 floats.
_ALIGN = 64
_ROW_FLOATS = _ALIGN // 8


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

    Both bases are read-only row views of one aligned, padded buffer: each row
    starts on a 64-byte boundary, and the row stride is n rounded up to a
    multiple of 8 floats, so they are not C-contiguous when n % 8 != 0.  The
    inner loop streams Dperp row by row from whole cache lines.  Making the
    buffer briefly holds one extra n x n copy of the SVD's output: 0.7 MB at
    n = 300, 5.1 MB at n = 800 and 800 MB at MAX_N.
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
        with _blas.one_thread():  # the SVD's bits move with the thread count
            _, s, vh = np.linalg.svd(A, full_matrices=True)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed: {exc}") from exc
    if s[-1] <= 1e-8 * s[0]:
        raise NumericalError(
            f"rank-deficient matrix: singular values span [{s[-1]:.3e}, {s[0]:.3e}]"
        )
    rows = _aligned_rows(vh)
    # Read-only row views of the one aligned, padded buffer.
    Dperp = rows[m:]
    rowspace = rows[:m]
    Dperp.setflags(write=False)
    rowspace.setflags(write=False)
    return NullProjector(Dperp=Dperp, rowspace=rowspace, A=A)


def _aligned_rows(a: np.ndarray) -> np.ndarray:
    """A copy of the 2-D float array a whose rows each start on a 64-byte
    boundary, its row stride padded up to a multiple of 8 floats.  The padding
    is left unset and is never read."""
    rows, cols = a.shape
    stride = -(-cols // _ROW_FLOATS) * _ROW_FLOATS
    raw = np.empty(rows * stride + _ROW_FLOATS)  # room to move the start to a boundary
    skip = (-raw.ctypes.data % _ALIGN) // raw.itemsize
    out = raw[skip:skip + rows * stride].reshape(rows, stride)[:, :cols]
    out[...] = a
    return out


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
