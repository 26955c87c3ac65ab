"""Exception types shared across the package, and the one check of an order and of a real parameter."""

import numbers
import operator


class SobtraceError(Exception):
    """Base class for all package errors."""


class InvalidInputError(SobtraceError, ValueError):
    """Malformed data or parameters: unsorted points, bad p, size mismatches."""


class HypothesisViolationError(InvalidInputError):
    """An operation was called outside its stated hypothesis.

    Typical case: a functional that needs at least m+1 points was handed a
    smaller set.  The message points at the small-set route when applicable.
    """


class SizeCapError(InvalidInputError):
    """A computation refused because its cost would exceed a fixed budget.

    The budgets are the count of divided differences over index subsets
    that the finite-p inhomogeneous variational form and the sharp profiles
    share (``VARIATIONAL_BUDGET``; the other variational forms are sequence
    forms and never refuse) and the cells of a profile grid or an
    extension sampling, or the points of an extension's gap lattice
    (``sharp.MAX_GRID_CELLS``, one million).
    """


class NumericalFailureError(SobtraceError):
    """A linear solve, a quadrature, a derivative or a functional's power sum produced non-finite results."""


class NonintegrableError(SobtraceError):
    """An L^p norm was requested for a function with non-vanishing tails."""


class UnsupportedError(SobtraceError):
    """A parameter combination outside the implemented scope."""


def _check_order(value, least: int, name: str = "m") -> None:
    """Raise InvalidInputError unless ``value`` is an integer, as ``operator.index`` takes it
    (numpy integers too, no float, not even 2.0), of at least ``least``."""
    try:
        operator.index(value)
    except TypeError:
        raise InvalidInputError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise InvalidInputError(f"{name} must be an integer of at least {least}, got {value}")


def _check_real(value, least: float, name: str = "p", strict: bool = False) -> None:
    """Raise InvalidInputError unless ``value`` is a real number, as ``numbers.Real`` takes it (numpy
    floats too, no string or None), of at least ``least``, or above it when ``strict``; inf passes
    and NaN fails.  Every exponent p and tolerance takes this one rule."""
    if not (isinstance(value, numbers.Real) and (value > least if strict else value >= least)):
        raise InvalidInputError(f"{name} must be a number {'above' if strict else 'of at least'} {least:g}, got {value!r}")
