"""Piecewise polynomials with explicit tails.

Pieces live in local monomial coordinates centered at their left breakpoint,
which keeps evaluation well conditioned on wide domains.  The two tails extend
the function beyond the first and last breakpoint; identically zero tails give
a compactly supported function.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from .errors import InvalidInputError, NumericalFailureError


def shift_polynomial(coeffs, t0) -> np.ndarray:
    """Coefficients of p(t + t0), the Taylor coefficients of p at t0; each row
    of a 2-D array shifts by its own entry of ``t0``."""
    c = np.array(coeffs, dtype=float)
    if not np.any(t0):
        return c
    cols = c.T  # a view: cols[j] holds coefficient j of every row
    for i in range(len(cols) - 1):
        for j in range(len(cols) - 2, i - 1, -1):
            cols[j] += t0 * cols[j + 1]
    return c


def polynomial_derivative(coeffs) -> np.ndarray:
    """Derivative coefficients; a 2-D array is differentiated row by row.  An
    overflow is left to the caller's finite check."""
    c = np.asarray(coeffs, dtype=float)
    if c.shape[-1] <= 1:
        return np.zeros(c.shape[:-1] + (1,))
    with np.errstate(over="ignore", invalid="ignore"):
        return c[..., 1:] * np.arange(1, c.shape[-1], dtype=float)


def polynomial_eval_rows(coeffs, t) -> np.ndarray:
    """Row i of a coefficient matrix evaluated at ``t[i]``, a point or a row
    of points, by Horner's recurrence."""
    C = np.asarray(coeffs, dtype=float)
    arr = np.asarray(t, dtype=float)
    cols = C.T.reshape(C.shape[::-1] + (1,) * (arr.ndim - 1))
    out = np.array(np.broadcast_to(cols[-1], np.broadcast_shapes(cols.shape[1:], arr.shape)))
    for a in cols[-2::-1]:
        out *= arr
        out += a
    return out


def _floats(value, name: str) -> np.ndarray:
    """``value`` as a new float array; a value that is not a number raises InvalidInputError."""
    try:
        return np.array(value, dtype=float)
    except (TypeError, ValueError):
        raise InvalidInputError(f"{name} must be numbers") from None


def join(arrays, offsets=None) -> np.ndarray:
    """The arrays laid end to end, each plus its offset if ``offsets`` is given;
    a single array is returned as it is."""
    if len(arrays) == 1:
        return arrays[0]
    return np.concatenate(arrays if offsets is None else [a + o for a, o in zip(arrays, offsets)])


class PiecewisePolynomial:
    """Breakpoints b_0 < ... < b_n with one polynomial piece per interval.

    Piece j holds coefficients in the local coordinate (x - b_j) and is used
    on [b_j, b_{j+1}).  ``left_tail`` (coordinate x - b_0) applies for x < b_0
    and ``right_tail`` (coordinate x - b_n) for x >= b_n.
    """

    __slots__ = ("breakpoints", "coefficients", "left_tail", "right_tail")

    def __init__(self, breakpoints, coefficients, left_tail=None, right_tail=None):
        """``coefficients`` is a sequence of rows of any lengths, or a 2-D
        array with one row per piece; a number that is not finite, a value
        that is not a number and a piece or tail that is not one flat row
        raise InvalidInputError."""
        bp = _floats(breakpoints, "breakpoints")  # copies: the stored arrays are made read-only
        if bp.ndim != 1 or len(bp) < 2:
            raise InvalidInputError("need at least two breakpoints")
        if not np.all(np.isfinite(bp)):
            raise InvalidInputError("breakpoints must be finite")
        if not np.all(np.diff(bp) > 0):
            raise InvalidInputError("breakpoints must be strictly increasing")
        if isinstance(coefficients, np.ndarray) and coefficients.ndim == 2:
            coef = _floats(coefficients, "coefficients")
        elif not isinstance(coefficients, Iterable):
            raise InvalidInputError("coefficients must be a sequence of rows")
        else:
            pieces = [np.atleast_1d(_floats(c, "coefficients")) for c in coefficients]
            if any(c.ndim != 1 for c in pieces):
                raise InvalidInputError("each piece must be one flat row of coefficients")
            piece_width = max((len(c) for c in pieces), default=1)
            coef = np.zeros((len(pieces), piece_width))
            for row, c in zip(coef, pieces):
                row[: len(c)] = c
        if len(coef) != len(bp) - 1:
            raise InvalidInputError(
                f"{len(bp)} breakpoints require {len(bp) - 1} pieces, got {len(coef)}"
            )
        lt, rt = (np.zeros(1) if t is None else np.atleast_1d(_floats(t, "tail")) for t in (left_tail, right_tail))
        if lt.ndim != 1 or rt.ndim != 1:
            raise InvalidInputError("each tail must be one flat row of coefficients")
        width = max(coef.shape[1], len(lt), len(rt))
        if coef.shape[1] < width:
            coef = np.hstack([coef, np.zeros((len(coef), width - coef.shape[1]))])
        tails = np.zeros((2, width))
        tails[0, : len(lt)], tails[1, : len(rt)] = lt, rt
        if not (np.isfinite(coef).all() and np.isfinite(tails).all()):
            raise InvalidInputError("non-finite piece or tail coefficients")
        self._freeze(bp, coef, *tails)

    def _freeze(self, breakpoints, coefficients, left_tail, right_tail) -> "PiecewisePolynomial":
        """Store arrays of one width, already checked, made read-only."""
        self.breakpoints, self.coefficients = breakpoints, coefficients
        self.left_tail, self.right_tail = left_tail, right_tail
        for arr in (breakpoints, coefficients, left_tail, right_tail):
            arr.setflags(write=False)
        return self

    # ------------------------------------------------------------------ info

    @property
    def degree(self) -> int:
        """Degree bound (width of the coefficient rows minus one)."""
        return self.coefficients.shape[1] - 1

    @property
    def n_pieces(self) -> int:
        return self.coefficients.shape[0]

    def has_zero_tails(self) -> bool:
        return not (np.any(self.left_tail != 0.0) or np.any(self.right_tail != 0.0))

    # ------------------------------------------------------------ evaluation

    def __call__(self, x):
        arr = np.atleast_1d(np.asarray(x, dtype=float))
        flat = arr.ravel()
        bp = self.breakpoints
        idx = np.searchsorted(bp, flat, side="right") - 1
        j = np.clip(idx, 0, self.n_pieces - 1)
        rows, origin = self.coefficients[j], bp[j]
        left, right = idx < 0, idx >= self.n_pieces
        rows[left], origin[left] = self.left_tail, bp[0]
        rows[right], origin[right] = self.right_tail, bp[-1]
        out = polynomial_eval_rows(rows, flat - origin).reshape(arr.shape)
        if np.ndim(x) == 0:
            return float(out[0])
        return out

    def differentiate(self) -> "PiecewisePolynomial":
        """Piecewise derivative; breakpoints are preserved.  Raises
        NumericalFailureError when its coefficients overflow."""
        rows = [polynomial_derivative(c) for c in (self.coefficients, self.left_tail, self.right_tail)]
        if not all(np.all(np.isfinite(c)) for c in rows):
            raise NumericalFailureError("the derivative's coefficients overflow")
        return PiecewisePolynomial.__new__(PiecewisePolynomial)._freeze(self.breakpoints, *rows)

    # -------------------------------------------------------------- calculus

    def smoothness_order(self, tol: float = 1e-8) -> int:
        """Largest r with matching one-sided derivatives up to order r at
        every interior breakpoint.

        Derivative values L, R agree when
        ``|L - R| <= tol * (1 + max(|L|, |R|))``.  Returns -1 when the
        function is not even continuous, and the degree bound when there are
        no interior breakpoints.  Tail joins are not graded here; compactly
        supported constructions keep their extreme pieces compatible with the
        zero tails by construction.
        """
        if not tol > 0:
            raise InvalidInputError(f"tol must be positive, got {tol!r}")
        # derivative r at a join is r! times coefficient r of the rows shifted there
        left, fact = shift_polynomial(self.coefficients[:-1], np.diff(self.breakpoints)[:-1]), 1.0
        for r in range(self.degree + 1):
            fact *= max(r, 1)
            L, R = fact * left[:, r], fact * self.coefficients[1:, r]
            if not np.all(np.abs(L - R) <= tol * (1.0 + np.maximum(np.abs(L), np.abs(R)))):
                return r - 1
        return self.degree

    # ---------------------------------------------------------- serialization

    def to_dict(self) -> dict:
        return {
            "breakpoints": [float(b) for b in self.breakpoints],
            "pieces": [[float(v) for v in row] for row in self.coefficients],
            "left_tail": [float(v) for v in self.left_tail],
            "right_tail": [float(v) for v in self.right_tail],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PiecewisePolynomial":
        """The inverse of :meth:`to_dict`; anything but a mapping with its four keys raises
        InvalidInputError."""
        try:
            fields = d["breakpoints"], d["pieces"], d["left_tail"], d["right_tail"]
        except (TypeError, KeyError) as exc:
            raise InvalidInputError(f"need a mapping with breakpoints, pieces, left_tail and right_tail: {exc!r}") from None
        return cls(*fields)
