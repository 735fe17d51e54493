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


@dataclass(frozen=True)
class ProblemShape:
    """Instance dimensions n (ambient), m (measurements), k (support block)."""

    n: int
    m: int
    k: int

    def __post_init__(self):
        if not (0 < self.m < self.n):
            raise DomainError(f"need 0 < m < n, got m={self.m} n={self.n}")
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

    shape: ProblemShape
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
    u1 = ((raw[0::2] >> np.uint64(11)) + np.uint64(1)) * _TWO_NEG53
    u2 = (raw[1::2] >> np.uint64(11)) * _TWO_NEG53
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * math.pi * u2
    out = np.empty(2 * pairs)
    out[0::2] = radius * np.cos(angle)
    out[1::2] = radius * np.sin(angle)
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


def null_projector(instance: GaussianInstance) -> NullProjector:
    """Factor the instance into row-space and null-space orthonormal bases.

    Raises
    ------
    NumericalError
        If A has a non-finite entry, if the SVD does not converge, or if A is
        (numerically) rank deficient: smallest singular value below 1e-8
        times the largest.
    """
    m = instance.shape.m
    if not np.isfinite(instance.A).all():
        raise NumericalError("matrix has a non-finite entry")
    try:
        _, s, vh = np.linalg.svd(instance.A, full_matrices=True)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed: {exc}") from exc
    if s[-1] <= 1e-8 * s[0]:
        raise NumericalError(
            f"rank-deficient matrix: singular values span [{s[-1]:.3e}, {s[0]:.3e}]"
        )
    Dperp = vh[m:].copy()
    rowspace = vh[:m].copy()
    Dperp.setflags(write=False)
    rowspace.setflags(write=False)
    return NullProjector(shape=instance.shape, Dperp=Dperp, rowspace=rowspace, A=instance.A)


def null_projector_from_matrix(A: np.ndarray, k: int, seed: int = 0) -> NullProjector:
    """Convenience wrapper: build the projector for an externally supplied matrix."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise DomainError(f"matrix must be 2-D, got ndim={A.ndim}")
    m, n = A.shape
    shape = ProblemShape(n=n, m=m, k=k)
    return null_projector(GaussianInstance(shape=shape, seed=seed, A=A))


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
