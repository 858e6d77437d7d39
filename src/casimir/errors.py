"""Exception hierarchy shared across the package, and the input checks that raise it."""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "CasimirError", "DomainError", "TableRangeError", "UnsupportedModelError",
    "ConvergenceError", "BracketError", "FitError", "ConfigError",
    "TableFormatError", "ApplicabilityWarning",
]


class CasimirError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(CasimirError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


def check_positive(what: str, value) -> None:
    """DomainError naming what and its first bad value unless all are finite and > 0."""
    v = np.asarray(value)
    if v.ndim:  # arrays only: on a scalar the test below is many times faster
        ok = (v > 0) & (v < math.inf)  # NaN fails too
        if ok.all():
            return
        value = v[~ok][0]
    if not 0 < value < math.inf:
        raise DomainError(f"{what} must be finite and > 0, got {value}")


def check_index(m, lo: int) -> None:
    """Raise DomainError unless the mode index m is an integer (not a bool) >= lo."""
    if isinstance(m, bool) or not isinstance(m, (int, np.integer)) or m < lo:
        raise DomainError(f"mode index m must be an integer >= {lo}, got {m!r}")


def check_eps(eps):
    """eps(i zeta) as a float array; DomainError unless every value is finite and >= 1."""
    eps = np.asarray(eps, dtype=float)
    if not np.all((eps >= 1.0) & (eps < math.inf)):  # NaN fails too
        raise DomainError("eps must be >= 1 and finite on the imaginary axis")
    return eps


class TableRangeError(DomainError):
    """A frequency falls outside a permittivity table (no extrapolation).

    Carries the lowest out-of-range frequency (rad/s) in ``zeta`` when known.
    """

    def __init__(self, message: str, zeta: float | None = None):
        super().__init__(message)
        self.zeta = zeta


class UnsupportedModelError(CasimirError, TypeError):
    """The operation is not defined for the given material model."""


class ConvergenceError(CasimirError):
    """An iterative computation failed to converge.

    Carries the best estimate achieved so far in ``estimate``.
    """

    def __init__(self, message: str, estimate: float | None = None):
        super().__init__(message)
        self.estimate = estimate


class BracketError(CasimirError, ValueError):
    """A root bracket does not actually bracket a sign change."""


class FitError(CasimirError):
    """A least-squares fit failed its residual gate.

    ``coeff`` and ``residual`` hold the rejected fit values when available.
    """

    def __init__(self, message: str, coeff: float | None = None,
                 residual: float | None = None):
        super().__init__(message)
        self.coeff = coeff
        self.residual = residual


class ConfigError(CasimirError, ValueError):
    """Invalid run configuration (CLI exit code 2)."""


class TableFormatError(ConfigError):
    """A permittivity table file is malformed; message carries the line number."""


class ApplicabilityWarning(UserWarning):
    """A result was computed outside its guaranteed regime of validity."""
