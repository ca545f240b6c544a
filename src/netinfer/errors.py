"""Exception hierarchy shared across the package.

Two failure families matter to callers (and to the CLI exit codes):
bad inputs or configuration (``ValidationError``) versus numerical
breakdown at runtime (``NumericError``). The one check of a number and
the one check of an integer setting live here too, so that any module can
use them without importing another.
"""

import math
import numbers


class NetinferError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(NetinferError, ValueError):
    """Invalid input data, configuration, or argument combination."""


class DataFormatError(ValidationError):
    """Malformed input file (CSV/DOT/JSON); message carries the position."""


class NumericError(NetinferError, ArithmeticError):
    """Numerical failure: degenerate covariance, divergence, df overflow."""


def check_number(name: str, value) -> float:
    """``value`` as a finite float; a bool, a string, NaN, an infinity or an
    int beyond float range is no number here, whatever ``float()`` would
    make of it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise ValidationError(f"{name} is too large for a float") from None
    if not math.isfinite(number):
        raise ValidationError(f"{name} must be finite, got {number!r}")
    return number


def check_int(name: str, value, minimum: int) -> int:
    """The one rule for an integer setting: ``value`` as an int, if it is a
    number by :func:`check_number` that is integral (2, 2.0 or numpy's int64
    2, not True, 2.5 or "2") and at least ``minimum``."""
    if not check_number(name, value).is_integer():
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValidationError(f"{name} must be >= {minimum}")
    return int(value)
