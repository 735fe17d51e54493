"""Exception hierarchy and input rules shared across the library.

Every failure mode raises a subclass of :class:`SecthreshError`, so callers
can catch one base type at API boundaries (the CLI maps them onto exit codes).
Each input rule is written here once, one function per kind of input, which
returns the value as the library computes with it or raises DomainError.
"""

import math
import numbers
import os
import sys

import numpy as np

# Largest ambient dimension accepted.  Factoring an instance builds an n x n
# orthonormal basis, 800 MB at this size; the embedded tables stop at n = 800.
MAX_N = 10_000


class SecthreshError(Exception):
    """Base class for all library errors."""


class DomainError(SecthreshError, ValueError):
    """An argument lies outside the domain or the supported envelope of an operation."""


class NumericalError(SecthreshError, ArithmeticError):
    """A numerical procedure failed or its result broke a sanity bound."""


class CertificateError(SecthreshError):
    """A candidate failure certificate did not verify."""


def count(value, name: str, lo: float = -math.inf, hi: float = math.inf,
          bound: str = "") -> int:
    """An integer, numpy's included but not a bool, in [lo, hi], as a Python int;
    ``bound`` names the quantity hi lies just below, as n in 1 <= k < n."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if not lo <= value <= hi:
        low = f"{lo} <= " if lo > -math.inf else ""
        high = f"< {bound}={hi + 1}" if bound else f"<= {hi}"
        raise DomainError(f"need {low}{name} {high}, got {name}={value}")
    return value


def seed64(value, name: str) -> int:
    """An integer with 0 <= seed < 2**64, so that no two seeds alias one stream."""
    value = count(value, name)
    if not 0 <= value < 2**64:
        raise DomainError(f"{name} must be a 64-bit unsigned integer, got {value}")
    return value


def dimensions(n, m) -> None:
    """The shape of an m x n instance: 0 < m < n <= MAX_N."""
    n, m = count(n, "n", hi=MAX_N), count(m, "m")
    if not 0 < m < n:
        raise DomainError(f"need 0 < m < n, got m={m} n={n}")


def floats(x, name: str) -> np.ndarray:
    """An array of real numbers as a float array, x itself when it is one."""
    try:
        return np.asarray(x, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"{name} must be an array of real numbers: {exc}") from None


def vector(x, name: str, length: int) -> np.ndarray:
    """An array of reals of shape (length,), as a float array, x itself when it is one."""
    x = floats(x, name)
    if x.shape != (length,):
        raise DomainError(f"{name} must have shape ({length},), got {x.shape}")
    return x


def matrix(A) -> np.ndarray:
    """A 2-D array of reals with an instance's shape, as a float array."""
    A = floats(A, "matrix")
    if A.ndim != 2:
        raise DomainError(f"matrix must be 2-D, got ndim={A.ndim}")
    dimensions(A.shape[1], A.shape[0])
    return A


def real(x, name: str, lo: float = -math.inf, hi: float = math.inf) -> float:
    """A real number in the open interval (lo, hi), as a float."""
    try:  # nan, which fails every interval, stands for a value that is no float
        value = float(x) if isinstance(x, numbers.Real) else math.nan
    except OverflowError:  # an int past the float range
        value = math.nan
    if not lo < value < hi:
        raise DomainError(f"{name} must be a real number in ({lo!r}, {hi!r}), got {x!r}")
    return value


def nonnegative(x, name: str) -> float:
    """A real number from 0 to the largest float, as a float."""
    if not (isinstance(x, numbers.Real) and 0.0 <= x <= sys.float_info.max):
        raise DomainError(f"{name} must be finite and >= 0, got {x!r}")
    return float(x)


def writable(*paths) -> None:
    """Output paths that name a file in a writable directory; None is skipped."""
    for path in paths:
        if path is None:
            continue
        if not path or "\0" in path or os.path.isdir(path):
            raise DomainError(f"cannot write {path!r}: not a file name")
        directory = os.path.dirname(os.path.abspath(path))
        if not (os.path.isdir(directory) and os.access(directory, os.W_OK | os.X_OK)):
            raise DomainError(f"cannot write {path!r}: no writable directory {directory!r}")
