"""Seeded Gaussian instances and their null-space geometry.

Matrices are generated from a counter-based random stream (Philox) through an
explicit Box-Muller transform, so a (shape, seed) pair yields bit-identical
entries on every platform and under any degree of parallelism.  The SVD of an
instance provides both an orthonormal basis of the row space and one of the
null space; the latter induces the projector Q used by the dual solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError

_TWO_NEG53 = 2.0 ** -53
_MASK64 = 0xFFFFFFFFFFFFFFFF

# Largest ambient dimension accepted.  Factoring an instance builds an n x n
# orthonormal basis, 800 MB at this size; the embedded tables stop at n = 800.
MAX_N = 10_000


def _check_dimensions(n: int, m: int) -> None:
    """The dimension rule for an m x n instance: 0 < m < n <= MAX_N."""
    if n > MAX_N:
        raise DomainError(f"need n <= {MAX_N}, got n={n}")
    if not (0 < m < n):
        raise DomainError(f"need 0 < m < n, got m={m} n={n}")


@dataclass(frozen=True)
class ProblemShape:
    """Instance dimensions n (ambient), m (measurements), k (support block)."""

    n: int
    m: int
    k: int

    def __post_init__(self):
        _check_dimensions(self.n, self.m)
        if not (0 <= self.k <= self.n):
            raise DomainError(f"need 0 <= k <= n, got k={self.k}")

    @property
    def alpha(self) -> float:
        return self.m / self.n

    @property
    def beta(self) -> float:
        return self.k / self.n


@dataclass(frozen=True)
class GaussianInstance:
    shape: ProblemShape
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


def _philox_normals(seed: int, count: int) -> np.ndarray:
    """Standard normals from a Philox counter stream via Box-Muller.

    Each 64-bit word maps to a uniform; word pairs map to normal pairs.  The
    first uniform is shifted into (0, 1] so the logarithm never sees zero.
    """
    # Imported here, not at module level, so that `import secthresh` does not
    # load numpy.random for callers that never sample.
    from numpy.random import Philox

    pairs = (count + 1) // 2
    raw = Philox(key=seed & _MASK64).random_raw(2 * pairs)
    # Each step after the first works in place, in the order of
    # radius = sqrt(-2 log u1) and angle = 2 pi u2, so the bits do not change.
    # The transcendental functions see contiguous arrays only.
    bits = raw[0::2] >> np.uint64(11)
    bits += np.uint64(1)
    radius = bits * _TWO_NEG53
    np.log(radius, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    angle = (raw[1::2] >> np.uint64(11)) * _TWO_NEG53
    angle *= 2.0 * math.pi
    del raw, bits
    out = np.empty(2 * pairs)
    trig = np.cos(angle)
    np.multiply(radius, trig, out=out[0::2])
    np.sin(angle, out=trig)
    np.multiply(radius, trig, out=out[1::2])
    return out[:count]


def sample_gaussian_matrix(shape: ProblemShape, seed: int) -> GaussianInstance:
    """Draw the m x n standard-normal matrix for (shape, seed).

    Entries fill in row-major order from the seeded stream, so the same
    arguments reproduce the same matrix bit-for-bit.
    """
    if not (0 <= seed < 2**64):
        raise DomainError(f"seed must be a 64-bit unsigned integer, got {seed}")
    entries = _philox_normals(seed, shape.m * shape.n)
    A = entries.reshape(shape.m, shape.n)
    A.setflags(write=False)
    return GaussianInstance(shape=shape, seed=seed, A=A)


def null_projector(A: np.ndarray) -> NullProjector:
    """Factor an m x n matrix into row-space and null-space orthonormal bases.

    Raises
    ------
    DomainError
        If A is not 2-D or its shape breaks 0 < m < n <= MAX_N.
    NumericalError
        If A has a non-finite entry, if the SVD does not converge, or if A is
        (numerically) rank deficient: smallest singular value below 1e-8
        times the largest.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise DomainError(f"matrix must be 2-D, got ndim={A.ndim}")
    m, n = A.shape
    _check_dimensions(n, m)
    if not np.isfinite(A).all():
        raise NumericalError("matrix has a non-finite entry")
    try:
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
    if rep_index < 0:
        raise DomainError(f"rep_index must be >= 0, got {rep_index}")
    x = (base_seed + (rep_index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)
