"""Exception hierarchy shared across the library.

Every failure mode raises a subclass of :class:`SecthreshError`, so callers
can catch one base type at API boundaries (the CLI maps them onto exit codes).
"""


class SecthreshError(Exception):
    """Base class for all library errors."""


class DomainError(SecthreshError, ValueError):
    """An argument lies outside the domain or the supported envelope of an operation."""


class NumericalError(SecthreshError, ArithmeticError):
    """A numerical procedure failed or its result broke a sanity bound."""


class CertificateError(SecthreshError):
    """A candidate failure certificate did not verify."""
