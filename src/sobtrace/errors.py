"""Exception types shared across the package."""


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
    that the variational forms and the sharp profiles share
    (``VARIATIONAL_BUDGET``) and the cells of a profile grid or an
    extension sampling (``sharp.MAX_GRID_CELLS``).
    """


class NumericalFailureError(SobtraceError):
    """A linear solve, a quadrature or a derivative produced non-finite results."""


class NonintegrableError(SobtraceError):
    """An L^p norm was requested for a function with non-vanishing tails."""


class UnsupportedError(SobtraceError):
    """A parameter combination outside the implemented scope."""
