"""Reference implementations kept only to check the library against.

Two kinds live here.  Brute-force checks of the theory: the full-order
divided difference by the recurrence and by the 1/omega' sum, the wide-set
reduction certificate, the convex-hull lemma for subset differences and the
pointwise sharp maximal value by enumeration over subsets.  And the
straightforward forms the library once used: a zero fill that sorts
(coordinate, value) pairs, a whole-set sort per data knot for the hermite
jets, one dense solve per hermite piece, edge knots absorbed one at a time,
and spline systems filled entry by entry through ``lil_matrix``.  Those
share the library's call signatures, so a test can swap one in or call it
beside the library and compare the results exactly.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.sparse import lil_matrix
from scipy.sparse.linalg import spsolve

from sobtrace.divdiff import divided_difference_rows
from sobtrace.errors import InvalidInputError, NumericalFailureError
from sobtrace.piecewise import PiecewisePolynomial
from sobtrace.samples import SampledFunction
from sobtrace.sharp import _check_args
from sobtrace.splines import _spline_system


# -------------------------------------------------------- divided differences


def _top_difference(points, values) -> float:
    n = len(points) - 1
    return divided_difference_rows(points, values, n)[n][0]


def divdiff_recursive(points, values) -> float:
    """Full-order divided difference via the two-term recurrence."""
    s = SampledFunction(tuple(points), tuple(values))
    return _top_difference(s.points, s.values)


def divdiff_sum(points, values) -> float:
    """Full-order divided difference via the sum of f(x_i)/omega'(x_i).

    This is the numerically fragile route and serves as an independent
    cross-check of :func:`divdiff_recursive`.  Terms are accumulated in
    input order with compensated (Neumaier) summation.
    """
    s = SampledFunction(tuple(points), tuple(values))
    xs, ys = s.points, s.values
    total = 0.0
    comp = 0.0
    for i, xi in enumerate(xs):
        w = 1.0
        for j, xj in enumerate(xs):
            if j != i:
                w *= xi - xj
        term = ys[i] / w
        t = total + term
        if abs(total) >= abs(term):
            comp += (total - t) + term
        else:
            comp += (term - t) + total
        total = t
    return total + comp


def reduce_wide_difference(s: SampledFunction) -> tuple[int, int, float]:
    """Certificate (k, i, bound) controlling the full-order difference.

    For a set with diameter >= 1 this finds a consecutive window
    y_i, ..., y_{i+k} of width at most 1, with k < n, such that

        |D^n f[S]|  <=  2^n * |D^k f[y_i..y_{i+k}]| / diam(S)  =  bound,

    and such that the window has a 1-separated neighbour on at least one
    side (either i+k+1 <= n with y_{i+k+1} - y_i >= 1, or i >= 1 with
    y_{i+k} - y_{i-1} >= 1).

    The search runs the inductive split: drop the last point or the first
    point, recurse into a part of diameter >= 1, fall back to the whole part
    when it is narrower than 1, and keep the certificate with the larger
    difference magnitude.  Ties prefer the right split for determinism.
    """
    pts, vals = s.points, s.values
    n = len(pts) - 1
    if n < 1:
        raise InvalidInputError("need at least two points")
    diam = pts[n] - pts[0]
    if not diam >= 1.0:
        raise InvalidInputError(f"diameter must be at least 1, got {diam!r}")
    rows = divided_difference_rows(pts, vals, n)

    def magnitude(cert: tuple[int, int]) -> float:
        k, i = cert
        return abs(rows[k][i])

    def search(lo: int, hi: int) -> tuple[int, int]:
        if hi - lo == 1:
            return (0, lo) if abs(vals[lo]) > abs(vals[hi]) else (0, hi)
        certs = []
        for a, b in ((lo, hi - 1), (lo + 1, hi)):
            if pts[b] - pts[a] >= 1.0:
                certs.append(search(a, b))
            else:
                certs.append((b - a, a))
        first, second = certs
        return second if magnitude(second) >= magnitude(first) else first

    k, i = search(0, n)
    bound = (2.0**n) * abs(rows[k][i]) / diam
    return k, i, bound


def convex_hull_check(full: SampledFunction, subset_indices, k: int) -> bool:
    """Whether the difference on a subset lies in the hull of the consecutive
    window differences of the full set.

    This is the testable consequence of divided differences on subsets being
    convex combinations of consecutive-window ones; the combination weights
    themselves are never needed.  A small guard (1e-9 relative to the hull
    magnitude) absorbs floating-point excursions and only ever widens the
    hull.
    """
    idx = [int(j) for j in subset_indices]
    if len(idx) != k + 1:
        raise InvalidInputError(f"subset must have k+1 = {k + 1} indices, got {len(idx)}")
    if len(set(idx)) != len(idx):
        raise InvalidInputError("subset indices must be distinct")
    n = len(full) - 1
    if any(j < 0 or j > n for j in idx):
        raise InvalidInputError("subset indices out of range: subset not contained in full set")
    if k > n:
        raise InvalidInputError(f"order {k} exceeds full set order {n}")
    idx.sort()
    sub_pts = [full.points[j] for j in idx]
    sub_vals = [full.values[j] for j in idx]
    value = _top_difference(sub_pts, sub_vals)
    generators = divided_difference_rows(full.points, full.values, k)[k]
    lo, hi = min(generators), max(generators)
    guard = 1e-9 * (1.0 + max(abs(lo), abs(hi)))
    return lo - guard <= value <= hi + guard


# --------------------------------------------------------------------- sharp


def sharp_value(s: SampledFunction, m: int, k: int, x: float) -> float:
    """Pointwise sharp maximal value by brute force over subsets, with the
    definition and argument checks of ``sharp.profile_values``."""
    _check_args(s, m, k)
    pts, vals = s.points, s.values
    if len(s) < k + 1:
        return 0.0
    best = 0.0
    for combo in itertools.combinations(range(len(pts)), k + 1):
        if min(abs(x - pts[j]) for j in combo) > 1.0:
            continue
        xs = [pts[j] for j in combo]
        ys = [vals[j] for j in combo]
        dd = abs(divided_difference_rows(xs, ys, k)[k][0])
        if k == m:
            diam_s = xs[-1] - xs[0]
            diam_sx = max(xs[-1], x) - min(xs[0], x)
            dd *= diam_s / diam_sx
        best = max(best, dd)
    return best


# -------------------------------------------------------------- zero fill


def zero_extend(s: SampledFunction, lattice) -> tuple[np.ndarray, np.ndarray]:
    """The merged knots and values, by sorting (coordinate, value) pairs and
    validating the result as a ``SampledFunction``."""
    pairs = sorted(list(zip(s.points, s.values)) + [(x, 0.0) for x in lattice.lattice_points])
    merged = SampledFunction(tuple(x for x, _ in pairs), tuple(v for _, v in pairs))
    return np.array(merged.points), np.array(merged.values)


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


def hermite_extend(data, knots, m: int) -> PiecewisePolynomial:
    """The hermite backend, one jet sort and one solve per knot and piece."""
    data_set = set(data.points)
    pts = [float(t) for t in knots]
    jets = [local_jet(data, t, m) if t in data_set else [0.0] * m for t in pts]
    pieces = []
    for i in range(len(pts) - 1):
        h = pts[i + 1] - pts[i]
        pieces.append(hermite_piece(h, jets[i], jets[i + 1], m))
    return PiecewisePolynomial(pts, pieces)


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
    """Drop-in for ``splines._spline_system``: the same scaling of the knots
    to unit mean gap around the entry-by-entry assembly."""
    g = float(t[-1] - t[0]) / (len(t) - 1)
    scaled = (t - t[0]) / g
    coef = anchored_system(scaled, y, m) if anchored else natural_system(scaled, y, m)
    return coef / g ** np.arange(2 * m)


def anchored_min_energy_spline(points, values, m: int, edge_left: float, edge_right: float):
    """``splines.anchored_min_energy_spline`` with its edge knots absorbed one
    at a time, on the library's spline builder."""
    if m < 1:
        raise InvalidInputError("m must be a positive integer")
    pts = [float(x) for x in points]
    vals = [float(v) for v in values]
    slack_left = 1e-9 * (1.0 + abs(edge_left))
    slack_right = 1e-9 * (1.0 + abs(edge_right))
    if not edge_left < pts[0] + slack_left or not edge_right > pts[-1] - slack_right:
        raise InvalidInputError("edges must bracket the data")
    interior: list[tuple[float, float]] = []
    for x, v in zip(pts, vals):
        near_left = abs(x - edge_left) <= slack_left
        near_right = abs(x - edge_right) <= slack_right
        if near_left or near_right:
            if v != 0.0:
                raise InvalidInputError("a knot on the window edge must carry the value 0")
            continue
        interior.append((x, v))
    knots = np.array([edge_left] + [x for x, _ in interior] + [edge_right])
    yvals = np.array([v for _, v in interior])
    return PiecewisePolynomial(knots, _spline_system(knots, yvals, m, anchored=True))
