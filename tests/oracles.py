"""Reference implementations kept only to check the library against.

Each routine is the straightforward form the library once used: a whole-set
sort per data knot for the hermite jets, one dense solve per hermite piece,
and spline systems filled entry by entry through ``lil_matrix``.  They share
the library's call signatures, so a test can swap one in and compare the
public results exactly.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.sparse import lil_matrix
from scipy.sparse.linalg import spsolve

from sobtrace.divdiff import divided_difference_rows
from sobtrace.errors import NumericalFailureError
from sobtrace.piecewise import PiecewisePolynomial


# ------------------------------------------------------------------ hermite


def nearest_indices(points, t: float, m: int) -> list[int]:
    """Indices of the m points nearest to t (ties toward smaller
    coordinates), in increasing order."""
    order = sorted(range(len(points)), key=lambda j: (abs(points[j] - t), points[j]))
    return sorted(order[:m])


def local_jet(data, t: float, m: int) -> list[float]:
    """Derivatives 0..m-1 at t of the interpolating polynomial through the m
    nearest data points."""
    sel = nearest_indices(data.points, t, m)
    xs = [data.points[j] for j in sel]
    ys = [data.values[j] for j in sel]
    newton = [row[0] for row in divided_difference_rows(xs, ys, len(xs) - 1)]
    # expand the Newton form around t; coefficient ell gives the ell-th
    # derivative over ell!
    coeffs = [newton[-1]]
    for k in range(len(newton) - 2, -1, -1):
        new = [0.0] * (len(coeffs) + 1)
        root = xs[k] - t
        for d, c in enumerate(coeffs):
            new[d + 1] += c
            new[d] -= root * c
        new[0] += newton[k]
        coeffs = new
    return [coeffs[ell] * math.factorial(ell) if ell < len(coeffs) else 0.0 for ell in range(m)]


def hermite_piece(h: float, jet_left, jet_right, m: int) -> np.ndarray:
    """Degree <= 2m-1 coefficients on [0, h] matching m-jets at both ends,
    solved on the unit interval."""
    q_low = np.array([h**ell * jet_left[ell] / math.factorial(ell) for ell in range(m)])
    rhs = np.empty(m)
    for ell in range(m):
        known = sum(math.perm(d, ell) * q_low[d] for d in range(ell, m))
        rhs[ell] = h**ell * jet_right[ell] - known
    A = np.zeros((m, m))
    for ell in range(m):
        for j in range(m):
            A[ell, j] = math.perm(m + j, ell)
    q_high = np.linalg.solve(A, rhs)
    q = np.concatenate([q_low, q_high])
    return q / h ** np.arange(2 * m)


def hermite_extend(data, merged, m: int) -> PiecewisePolynomial:
    """The hermite backend, one jet sort and one solve per knot and piece."""
    data_set = set(data.points)
    jets = [local_jet(data, t, m) if t in data_set else [0.0] * m for t in merged.points]
    pieces = []
    for i in range(len(merged) - 1):
        h = merged.points[i + 1] - merged.points[i]
        pieces.append(hermite_piece(h, jets[i], jets[i + 1], m))
    return PiecewisePolynomial(merged.points, pieces)


# ------------------------------------------------------------------ splines


def _perm(d: int, ell: int) -> float:
    return float(math.perm(d, ell))


def _solve_sparse(A, b, n_pieces: int, width: int) -> np.ndarray:
    sol = spsolve(A.tocsc(), b)
    if not np.all(np.isfinite(sol)):
        raise NumericalFailureError("spline system is singular or badly scaled")
    return np.asarray(sol, dtype=float).reshape(n_pieces, width)


def natural_system(t: np.ndarray, y: np.ndarray, m: int) -> np.ndarray:
    """Coefficients (pieces x 2m) of the minimal energy interpolant on knots
    ``t`` with vanishing derivatives of orders m..2m-2 at both extreme knots."""
    n = len(t) - 1
    w = 2 * m
    size = w * n
    A = lil_matrix((size, size))
    b = np.zeros(size)
    h = np.diff(t)
    row = 0
    for j in range(n):
        A[row, j * w] = 1.0
        b[row] = y[j]
        row += 1
        powers = h[j] ** np.arange(w)
        for d in range(w):
            A[row, j * w + d] = powers[d]
        b[row] = y[j + 1]
        row += 1
    for j in range(n - 1):
        for ell in range(1, 2 * m - 1):
            for d in range(ell, w):
                A[row, j * w + d] = _perm(d, ell) * h[j] ** (d - ell)
            A[row, (j + 1) * w + ell] = -_perm(ell, ell)
            row += 1
    for ell in range(m, 2 * m - 1):
        A[row, ell] = 1.0
        row += 1
    for ell in range(m, 2 * m - 1):
        for d in range(ell, w):
            A[row, (n - 1) * w + d] = _perm(d, ell) * h[n - 1] ** (d - ell)
        row += 1
    assert row == size
    return _solve_sparse(A, b, n, w)


def anchored_system(t: np.ndarray, y: np.ndarray, m: int) -> np.ndarray:
    """Coefficients (pieces x 2m) of the minimal energy interpolant of the
    interior knots of ``t``, clamped to zero m-jets at both extreme knots."""
    n = len(t) - 1  # pieces; interior knots carry the data
    w = 2 * m
    size = w * n
    A = lil_matrix((size, size))
    b = np.zeros(size)
    h = np.diff(t)
    row = 0
    for ell in range(m):  # zero jet at the left edge
        A[row, ell] = _perm(ell, ell)
        row += 1
    for ell in range(m):  # zero jet at the right edge
        for d in range(ell, w):
            A[row, (n - 1) * w + d] = _perm(d, ell) * h[n - 1] ** (d - ell)
        row += 1
    for q in range(1, n):  # data knot between piece q-1 and piece q
        for d in range(w):
            A[row, (q - 1) * w + d] = h[q - 1] ** d
        b[row] = y[q - 1]
        row += 1
        A[row, q * w] = 1.0
        b[row] = y[q - 1]
        row += 1
        for ell in range(1, 2 * m - 1):
            for d in range(ell, w):
                A[row, (q - 1) * w + d] = _perm(d, ell) * h[q - 1] ** (d - ell)
            A[row, q * w + ell] = -_perm(ell, ell)
            row += 1
    assert row == size
    return _solve_sparse(A, b, n, w)


def spline_system(t: np.ndarray, y: np.ndarray, m: int, anchored: bool) -> np.ndarray:
    """Drop-in for ``splines._spline_system``."""
    return anchored_system(t, y, m) if anchored else natural_system(t, y, m)
