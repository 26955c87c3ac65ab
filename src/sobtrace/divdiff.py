"""Divided differences: the two-term recurrence and the Newton form.

Two routes to the same number live here, the recurrence table and the
leading coefficient of the Lagrange polynomial, which agree exactly.
Downstream functionals lean on divided differences for everything, so the
test suite checks both against a third, independent route, the sum of
f(x_i)/omega'(x_i), which lives in ``tests/oracles.py``.
"""

from __future__ import annotations

import numpy as np

from .errors import _check_order
from .piecewise import PiecewisePolynomial, shift_polynomial
from .samples import SampledFunction


def divided_difference_rows(points, values, max_order: int) -> list[np.ndarray]:
    """Triangular table rows, one float array per order: rows[k][i] holds the
    order-k difference on the consecutive window x_i, ..., x_{i+k}.  Only the
    order is checked; an overflow gives a non-finite entry, as in scalar arithmetic."""
    _check_order(max_order, 0, "max_order")
    with np.errstate(over="ignore", invalid="ignore"):
        return _difference_rows(np.asarray(points, dtype=float), np.asarray(values, dtype=float), max_order)


def _difference_rows(x: np.ndarray, values: np.ndarray, max_order: int) -> list[np.ndarray]:
    """:func:`divided_difference_rows` of float arrays, under the caller's float error state."""
    rows = [values]
    for k in range(1, max_order + 1):
        rows.append((rows[-1][1:] - rows[-1][:-1]) / (x[k:] - x[:-k]))
    return rows


def lagrange_polynomial(s: SampledFunction) -> PiecewisePolynomial:
    """Global interpolating polynomial of degree <= len-1, as a single piece.

    Both tails continue the same polynomial, so the result interpolates and
    extends globally.  The top coefficient of the piece equals the full-order
    divided difference exactly: the expansion multiplies monic factors only,
    which never touches the leading Newton coefficient.
    """
    pts, vals = s.points, s.values
    n = len(pts) - 1
    newton = [[row[0] for row in divided_difference_rows(pts, vals, n)]]
    (coeffs,) = _expand_newton(newton, [[x - pts[0] for x in pts[:-1]]])
    if n == 0:
        breakpoints = (pts[0], pts[0] + 1.0)
    else:
        breakpoints = (pts[0], pts[n])
    right = shift_polynomial(coeffs, breakpoints[1] - breakpoints[0])
    return PiecewisePolynomial(breakpoints, [coeffs], left_tail=coeffs, right_tail=right)


def _expand_newton(newton, roots) -> np.ndarray:
    """Monomial coefficients (centered at the expansion origin) of the Newton
    forms sum_k newton[i, k] * prod_{j<k} (t - roots[i, j]), one per row;
    each row takes the operations of a scalar expansion, in the same order,
    so expanding many rows at once changes no bit of any of them."""
    newton, roots = np.asarray(newton, dtype=float), np.asarray(roots, dtype=float)
    coeffs = newton[:, -1:]
    for k in range(newton.shape[1] - 2, -1, -1):
        new = np.zeros((len(coeffs), coeffs.shape[1] + 1))
        new[:, 1:] += coeffs
        new[:, :-1] -= roots[:, k, None] * coeffs
        new[:, 0] += newton[:, k]
        coeffs = new
    return coeffs


def _nearest_windows(points, m: int, first=0, end=None) -> np.ndarray:
    """Start of the window of the m points nearest to each point (ties
    broken toward smaller coordinates): of the m windows that hold a point,
    the first whose next point is no nearer than its first, in one array pass.
    Windows stay within points[first:end], by default all of them; per-point
    bounds, as a column, keep each point's windows within its own set."""
    x, n = np.asarray(points, dtype=float), len(points)
    end = n if end is None else end
    lo = np.clip(np.arange(n)[:, None] + np.arange(1 - m, 1), first, end - m)
    nearer = np.abs(x[np.minimum(lo + m, end - 1)] - x[:, None]) < np.abs(x[lo] - x[:, None])
    return lo[np.arange(n), np.argmax((lo + m == end) | ~nearer, axis=1)]
