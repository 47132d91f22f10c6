"""Exception types shared by every module in the package, and the one check
per kind of scalar argument: :func:`_count` for counts, :func:`_positive` for
times, rates, horizons, volumes and steps, :func:`_nonnegative` for tempering
rates and density arguments, :func:`_index` for fractional and stable indices.
Each returns the checked value and raises :class:`DomainError` for anything
else, NaN, infinities, strings and ``None`` included; the caps keep their own
exception types where they are applied.
"""

import math

import numpy as np

__all__ = ["FracppkError", "DomainError", "NonConvergence", "CapExceeded", "HorizonOverflow", "DegenerateBins"]


class FracppkError(Exception):
    """Base class for all package-specific errors."""


class DomainError(FracppkError, ValueError):
    """An argument lies outside the supported (or numerically safe) domain."""


class NonConvergence(FracppkError):
    """A series or iterative scheme failed to reach the requested accuracy."""


class CapExceeded(FracppkError):
    """A configured size, truncation, or memory cap would be exceeded."""


class HorizonOverflow(FracppkError):
    """A simulated path exhausted its allowed extensions before the target event."""


class DegenerateBins(FracppkError):
    """Too few usable bins remain after pooling for a goodness-of-fit test."""


def _count(name: str, value, least=0, most=None) -> int:
    """``value`` as an int: a Python or numpy integer in ``least..most``, else DomainError."""
    if not (isinstance(value, (int, np.integer)) and least <= value and (most is None or value <= most)):
        bounds = f">= {least}" if most is None else f"in {least}..{most}"
        raise DomainError(f"{name} must be an integer {bounds}, not {value!r}")
    return int(value)


def _real(value) -> float:
    """``value`` as a float, NaN where it is not a real number (a string is not)."""
    if isinstance(value, (str, bytes)):
        return math.nan
    try:
        return float(value)
    except (TypeError, ValueError):
        return math.nan


def _positive(name: str, value) -> float:
    """``value`` as a float, positive and finite, else DomainError."""
    x = _real(value)
    if not 0.0 < x < math.inf:
        raise DomainError(f"{name} must be positive and finite, not {value!r}")
    return x


def _nonnegative(name: str, value) -> float:
    """``value`` as a float, nonnegative and finite, else DomainError."""
    x = _real(value)
    if not 0.0 <= x < math.inf:
        raise DomainError(f"{name} must be nonnegative and finite, not {value!r}")
    return x


def _index(name: str, value, one=False) -> float:
    """``value`` as a float in (0, 1), or in (0, 1] with ``one``, else DomainError."""
    x = _real(value)
    if not (0.0 < x < 1.0 or (one and x == 1.0)):
        raise DomainError(f"{name} must lie in (0, 1{']' if one else ')'}, not {value!r}")
    return x
