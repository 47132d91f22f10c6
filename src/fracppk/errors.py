"""Exception types shared by every module in the package, and the one check
per kind of scalar argument: :func:`_count` for counts, :func:`_positive` for
times, rates, horizons, volumes and steps, :func:`_nonnegative` for tempering
rates and density arguments, :func:`_index` for fractional and stable indices.
Each returns the checked value and raises :class:`DomainError` for anything
else, NaN, infinities, strings and ``None`` included; the caps keep their own
exception types where they are applied.  Array arguments are read by
:func:`_reals`, which refuses anything but numbers the same way and leaves
the range to the caller.

:class:`_Record` is the base of every value record in the package (order-k
parameters, variants, subordinator specs, tables, paths, fields and
reports): immutable, with ``repr``, ``==`` and ``hash`` on its fields.
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


def _reals(name: str, value) -> np.ndarray:
    """``value`` as a float array: a number, an array or nested sequences of
    numbers, else DomainError (strings, None, other objects and ragged lists
    included); the caller checks the range of the entries."""
    try:
        arr = np.asarray(value)
    except ValueError:  # a ragged list
        arr = None
    if arr is None or arr.dtype.kind not in "biuf":
        raise DomainError(f"{name} must be real numbers, not {value!r}")
    return np.asarray(arr, dtype=float)


def _same(a, b) -> bool:
    """Whether two field values are equal: arrays by shape and entries (an
    array compared with ``==`` gives an array, not a bool), anything else
    by ``==``."""
    if a is b:
        return True
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    return bool(a == b)


class _Record:
    """Immutable value record, as a frozen dataclass without building one.

    The fields are the annotated names of the class and of its record bases,
    bases first (``_fields``); a class attribute of a field's name is its
    default.  ``__init__`` binds positional and keyword arguments, raises
    TypeError on a missing or unknown one, and calls ``__post_init__``, which
    checks the fields and may store a normalized value with
    ``object.__setattr__``.  After that a field cannot be assigned or deleted.
    ``repr`` and ``hash`` read the field tuple, so a record holding an array
    or a dict is unhashable; ``==`` (same class only) compares field by
    field, arrays by shape and entries, and returns a bool.  Fields are set
    one by one rather than through ``__dict__``, which keeps instance
    attribute reads on their fast path.
    """

    _fields: tuple = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields += tuple(name for name in cls.__annotations__ if name not in cls._fields)

    def __init__(self, *args, **kwargs) -> None:
        names = self._fields
        if kwargs or len(args) != len(names):
            args = self._bind(args, kwargs)
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """``args`` completed from ``kwargs`` and the defaults, in field order."""
        names = cls._fields
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} arguments but {len(args)} were given")
        values = list(args)
        for name in names[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif hasattr(cls, name):
                values.append(getattr(cls, name))
            else:
                raise TypeError(f"{cls.__name__}() missing argument {name!r}")
        if kwargs:
            raise TypeError(f"{cls.__name__}() got an unexpected or repeated argument {next(iter(kwargs))!r}")
        return values

    def __post_init__(self) -> None:
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def _asdict(self) -> dict:
        """The fields by name, in order."""
        return dict(zip(self._fields, self._values()))

    def __repr__(self) -> str:
        pairs = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({pairs})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(_same(a, b) for a, b in zip(self._values(), other._values()))

    def __hash__(self) -> int:
        return hash(self._values())
