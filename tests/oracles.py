"""Reference implementations kept only to check the library against.

Two kinds live here.  Brute-force checks of the theory: the full-order
divided difference by the recurrence and by the 1/omega' sum, the wide-set
reduction certificate, the convex-hull lemma for subset differences, the
p = inf variational suprema and the pointwise sharp maximal value by
enumeration over subsets.  And the
straightforward forms the library once used: the gap lattice built one gap
at a time, a zero fill that sorts (coordinate, value) pairs, the hermite
windows by two pointers, a whole-set sort per data knot for the hermite
jets, one dense solve per hermite piece, edge knots absorbed one at a time,
spline systems filled entry by entry through ``lil_matrix`` in the library's
row order, one ``lp_norm`` call per derivative order, a real-root search per
group of end zeros with one companion solve per degree, and the variational
forms' subset table and longest path kept in dicts keyed by index tuples.
Those share the library's call signatures, so a test can swap one in or call
it beside the library and compare the results exactly.  The CLI's old output
encoders, ``json.dumps`` with ``indent=2`` and ``f"{v:.17g}"`` per CSV cell,
give the text each output file must equal byte for byte.  The spline systems
can also go to SuperLU instead of the library's band solve, an independent
solver that agrees up to rounding.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np
from scipy.sparse import lil_matrix
from scipy.sparse.linalg import spsolve

from sobtrace.divdiff import divided_difference_rows
from sobtrace.errors import InvalidInputError, NumericalFailureError
from sobtrace.extension import GapLattice
from sobtrace.functionals import homogeneous_sequence_functional, sequence_functional
from sobtrace.piecewise import PiecewisePolynomial, polynomial_eval_rows
from sobtrace.samples import SampledFunction
from sobtrace.sharp import _check_args
from sobtrace.splines import (
    NormReport,
    _band_solve,
    _degrees,
    _NEAR_REAL,
    _spline_system,
    _ZERO_TAYLOR,
    _gauss_jacobi,
    lp_norm,
)


# ---------------------------------------------------------- term arithmetic


def abs_pow(x: float, p: float) -> float:
    """|x|^p as the functionals compute each term: numpy's elementwise power on
    an array, which gives the same bits for one element as for many (a numpy
    or Python scalar power differs from it in the last bit on some inputs)."""
    return float((np.abs(np.array([x], dtype=float)) ** p)[0])


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


# ---------------------------------------------------- p = inf variational


def fresh_dd(pts, vals, idx) -> float:
    """Divided difference over selected indices by the plain recursive
    definition; identical operation tree to the production table, but an
    independent code path."""
    xs = [pts[j] for j in idx]
    ys = [vals[j] for j in idx]

    def rec(lo, hi):
        if lo == hi:
            return ys[lo]
        return (rec(lo + 1, hi) - rec(lo, hi - 1)) / (xs[hi] - xs[lo])

    return rec(0, len(xs) - 1)


def oracle_variational_sup(s: SampledFunction, m: int) -> float:
    """The p = inf variational functional by its definition: the largest
    |D^k f| over every index subset of 1..min(m, n-1)+1 points."""
    pts, vals = s.points, s.values
    n1 = len(pts)
    best = 0.0
    limit = min(m, n1 - 1) + 1

    def walk(i, chosen):
        nonlocal best
        if len(chosen) >= 1 and len(chosen) <= limit:
            best = max(best, abs(fresh_dd(pts, vals, chosen)))
        if i == n1 or len(chosen) == limit:
            return
        for j in range(i, n1):
            walk(j + 1, chosen + [j])

    walk(0, [])
    return best


def oracle_homogeneous_variational_sup(s: SampledFunction, m: int) -> float:
    """The p = inf homogeneous variational functional by its definition: the
    largest |D^m f| over every (m+1)-point index subset."""
    pts, vals = s.points, s.values
    return max(
        abs(fresh_dd(pts, vals, sub))
        for sub in itertools.combinations(range(len(pts)), m + 1)
    )


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


def build_gap_lattice(points, cfg) -> GapLattice:
    """``extension.build_gap_lattice`` one gap at a time, without its refusals."""
    pts = tuple(float(x) for x in points)
    n_left = math.floor(cfg.window_pad / 2.0)
    lattice = [pts[0] - 2.0 * n for n in range(n_left, 0, -1)]
    for a, b in zip(pts, pts[1:]):
        width = b - a
        if width > 4.0:
            n_j = math.floor(width / 2.0)
            lattice.extend((a + width / n_j * np.arange(1, n_j)).tolist())
    lattice.extend(pts[-1] + 2.0 * n for n in range(1, n_left + 1))
    return GapLattice(tuple(lattice))


def zero_extend(s: SampledFunction, lattice) -> tuple[np.ndarray, np.ndarray]:
    """The merged knots and values, by sorting (coordinate, value) pairs and
    validating the result as a ``SampledFunction``."""
    pairs = sorted(list(zip(s.points, s.values)) + [(x, 0.0) for x in lattice.lattice_points])
    merged = SampledFunction(tuple(x for x, _ in pairs), tuple(v for _, v in pairs))
    return np.array(merged.points), np.array(merged.values)


# ------------------------------------------------------------------ hermite


def nearest_windows(points, m: int) -> list[int]:
    """Start of the window of the m points nearest to each point (ties toward
    smaller coordinates) by two pointers: the windows only move right."""
    starts, lo = [], 0
    for t in points:
        while lo + m < len(points) and abs(points[lo + m] - t) < abs(points[lo] - t):
            lo += 1
        starts.append(lo)
    return starts


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
    solved on the unit interval; numpy's vectorised power, as the library."""
    powers = h ** np.arange(m)
    q_low = np.array([powers[ell] * jet_left[ell] / math.factorial(ell) for ell in range(m)])
    rhs = np.empty(m)
    for ell in range(m):
        known = sum(math.perm(d, ell) * q_low[d] for d in range(ell, m))
        rhs[ell] = powers[ell] * jet_right[ell] - known
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


def _right_end_row(A, row: int, col: int, h: float, ell: int, w: int) -> None:
    """Derivative ``ell`` at the right end of the piece whose coefficients
    start at column ``col``; numpy's vectorised power, as the library."""
    powers = h ** np.arange(w)
    for d in range(ell, w):
        A[row, col + d] = _perm(d, ell) * powers[d - ell]


def _knot_rows(A, b, row: int, j: int, h: float, powers, yj: float, w: int) -> int:
    """The 2m rows of interior knot j: the value at the right end of piece
    j-1 (``powers`` of its width h), coefficient 0 of piece j, and the joins
    of derivatives 1..2m-2."""
    for d in range(w):
        A[row, (j - 1) * w + d] = powers[d]
    A[row + 1, j * w] = 1.0
    b[row : row + 2] = yj
    for ell in range(1, w - 1):
        _right_end_row(A, row + 1 + ell, (j - 1) * w, h, ell, w)
        A[row + 1 + ell, j * w + ell] = -_perm(ell, ell)
    return row + w


def natural_system(t: np.ndarray, y: np.ndarray, m: int):
    """The system (A, b) of the minimal energy interpolant on knots ``t`` with
    vanishing derivatives of orders m..2m-2 at both extreme knots; rows in
    band order, unknowns the 2m coefficients of each piece."""
    n = len(t) - 1
    w = 2 * m
    size = w * n
    A = lil_matrix((size, size))
    b = np.zeros(size)
    h = np.diff(t)
    A[0, 0] = 1.0
    b[0] = y[0]
    row = 1
    for ell in range(m, w - 1):
        A[row, ell] = 1.0
        row += 1
    for j in range(1, n):
        row = _knot_rows(A, b, row, j, h[j - 1], h[j - 1] ** np.arange(w), y[j], w)
    powers = h[n - 1] ** np.arange(w)
    for d in range(w):
        A[row, (n - 1) * w + d] = powers[d]
    b[row] = y[n]
    row += 1
    for ell in range(m, w - 1):
        _right_end_row(A, row, (n - 1) * w, h[n - 1], ell, w)
        row += 1
    assert row == size
    return A, b


def anchored_system(t: np.ndarray, y: np.ndarray, m: int):
    """The system (A, b) of the minimal energy interpolant of the interior
    knots of ``t``, clamped to zero m-jets at both extreme knots; rows in band
    order, unknowns the 2m coefficients of each piece."""
    n = len(t) - 1  # pieces; interior knots carry the data
    w = 2 * m
    size = w * n
    A = lil_matrix((size, size))
    b = np.zeros(size)
    h = np.diff(t)
    for ell in range(m):  # zero jet at the left edge
        A[ell, ell] = _perm(ell, ell)
    row = m
    for j in range(1, n):
        row = _knot_rows(A, b, row, j, h[j - 1], h[j - 1] ** np.arange(w), y[j - 1], w)
    for ell in range(m):  # zero jet at the right edge
        _right_end_row(A, row, (n - 1) * w, h[n - 1], ell, w)
        row += 1
    assert row == size
    return A, b


def spline_matrix(t: np.ndarray, y: np.ndarray, m: int, anchored: bool):
    """The system (A, b) of ``splines._spline_system`` filled entry by entry,
    on the knots scaled to unit mean gap g, and g."""
    g = float(t[-1] - t[0]) / (len(t) - 1)
    scaled = (t - t[0]) / g
    A, b = anchored_system(scaled, y, m) if anchored else natural_system(scaled, y, m)
    return A, b, g


def backward_error(A, x: np.ndarray, b: np.ndarray) -> float:
    """|Ax - b| / (|A| |x| + |b|) in the infinity norm."""
    A = A.tocsr()
    residual = np.abs(A @ x - b).max()
    return residual / (abs(A).sum(axis=1).max() * np.abs(x).max() + np.abs(b).max()) if residual else 0.0


def _solve_sparse(A, b) -> np.ndarray:
    sol = spsolve(A.tocsc(), b)
    if not np.all(np.isfinite(sol)):
        raise NumericalFailureError("spline system is singular or badly scaled")
    return np.asarray(sol, dtype=float)


def _solve_band(A, b, m: int) -> np.ndarray:
    """The library's LAPACK band solve, with A moved entry by entry into band
    storage with m+1 sub- and m-1 super-diagonals."""
    kl, ku = m + 1, m - 1
    A = A.tocoo()
    assert np.all(A.row - A.col <= kl) and np.all(A.col - A.row <= ku)
    ab = np.zeros((2 * kl + ku + 1, A.shape[1]))
    ab[kl + ku + A.row - A.col, A.col] = A.data
    return _band_solve(ab, b, kl, ku)


def spline_system(t: np.ndarray, y: np.ndarray, m: int, anchored: bool) -> np.ndarray:
    """Drop-in for ``splines._spline_system``: the entry-by-entry assembly
    handed to the library's band solve, so results are bit-identical."""
    A, b, g = spline_matrix(t, y, m, anchored)
    return _solve_band(A, b, m).reshape(-1, 2 * m) / g ** np.arange(2 * m)


def spline_system_superlu(t: np.ndarray, y: np.ndarray, m: int, anchored: bool) -> np.ndarray:
    """Drop-in for ``splines._spline_system`` solved by SuperLU instead: an
    independent solver, equal to the library's up to rounding."""
    A, b, g = spline_matrix(t, y, m, anchored)
    return _solve_sparse(A, b).reshape(-1, 2 * m) / g ** np.arange(2 * m)


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


# -------------------------------------------------------------------- norms


def sobolev_norm(F: PiecewisePolynomial, m: int, p: float, quad_tol: float = 1e-10) -> NormReport:
    """``splines.sobolev_norm`` as one ``lp_norm`` call per derivative order."""
    if m < 0:
        raise InvalidInputError("m must be nonnegative")
    norms = []
    current = F
    for k in range(m + 1):
        norms.append(lp_norm(current, p, quad_tol))
        if k < m:
            current = current.differentiate()
    lp = tuple(norms)
    return NormReport(lp, sum(lp), lp[-1])


def jacobi_pair(C: np.ndarray, p: float, row, a, b, left, right) -> list[np.ndarray]:
    """``splines._jacobi_pair`` one rule at a time: the 16-node values, then
    the 32-node values, each from its own nodes and weights."""
    keys, group = np.unique(left * C.shape[1] + right, return_inverse=True)
    alpha, beta = p * (keys // C.shape[1]), p * (keys % C.shape[1])
    half, out = 0.5 * (b - a), []
    for n in (16, 32):
        x, w = np.reshape([_gauss_jacobi(n, *ab) for ab in zip(beta, alpha)], (-1, 2, n)).transpose(1, 0, 2)
        w = w / ((1.0 - x) ** beta[:, None] * (1.0 + x) ** alpha[:, None])
        q = polynomial_eval_rows(C[row], a[:, None] + half[:, None] * (1.0 + x[group]))
        out.append(half * np.einsum("ij,ij->i", np.abs(q) ** p, w[group]))
    return out


def roots_per_degree(P: np.ndarray):
    """``splines._roots`` by one companion-matrix solve per degree, each of
    its own size, with no padding."""
    deg = _degrees(P, _ZERO_TAYLOR)
    z = np.full((len(P), deg.max(initial=0)), np.nan, dtype=complex)
    for d in np.unique(deg[deg > 0]):
        sel = np.flatnonzero(deg == d)
        comp = np.zeros((len(sel), d, d))
        comp[:, 0, :] = -P[sel, d - 1 :: -1] / P[sel, d, None]
        comp[:, np.arange(1, d), np.arange(d - 1)] = 1.0
        z[sel, :d] = np.linalg.eigvals(comp)
    return z, np.abs(z.imag) <= 1e-9 * (1.0 + np.abs(z.real))


def root_split(C: np.ndarray):
    """Drop-in for ``splines._root_split`` that seeks the interior roots of
    each group of rows with the same end-zero multiplicities separately."""
    K, w = C.shape
    binom = np.array([[math.comb(i, j) for j in range(w)] for i in range(w)], dtype=float)
    tiny = _ZERO_TAYLOR * np.max(np.abs(C), axis=1, keepdims=True)
    k0 = np.argmax(np.abs(C) > tiny, axis=1)
    k1 = np.minimum(np.argmax(np.abs(C @ binom) > tiny, axis=1), _degrees(C) - k0)
    cut_rows, cuts, zeros = [np.arange(K), np.arange(K)], [np.zeros(K), np.ones(K)], [k0, k1]
    roots = np.full((K, w + 1), np.nan, dtype=complex)
    roots[:, w - 1], roots[:, w] = np.where(k0 > 0, 0.0, np.nan), np.where(k1 > 0, 1.0, np.nan)
    group = k0 * w + k1
    for key in np.unique(group):
        sel = np.flatnonzero(group == key)
        lo, hi = divmod(int(key), w)
        P = C[sel, lo:]
        if hi:
            z, real = roots_per_degree((P @ binom[: w - lo, : w - lo])[:, hi:])
        else:
            z, real = roots_per_degree(P)
        roots[sel, : z.shape[1]] = np.where(real, z.real, z) + (1.0 if hi else 0.0)
        r, c = np.nonzero(real | ((z.imag > 0.0) & (z.imag <= _NEAR_REAL)))
        cut = z.real[r, c] + (1.0 if hi else 0.0)
        inside = (cut > 0.0) & (cut < 1.0)
        cut_rows.append(sel[r[inside]])
        cuts.append(cut[inside])
        zeros.append(real[r, c][inside].astype(int))
    row, cut, zero = np.concatenate(cut_rows), np.concatenate(cuts), np.concatenate(zeros)
    order = np.lexsort((cut, row))
    row, cut, zero = row[order], cut[order], zero[order]
    same = row[1:] == row[:-1]
    row, a, b = row[:-1][same], cut[:-1][same], cut[1:][same]
    return row, a, b, zero[:-1][same], zero[1:][same], roots


# ------------------------------------------------------------ longest path


def dict_subset_differences(points, values, k: int):
    """(table, top): ``table`` maps each index subset S of at most k points to
    D f[S]; ``top`` yields (W, D^k f[W]) for each (k+1)-point index tuple W in
    lexicographic order, unstored.  The same recurrence as the library's
    ``functionals.subset_differences``, one tuple key at a time."""
    table: dict[tuple[int, ...], float] = {}

    def order(j):
        for w in itertools.combinations(range(len(points)), j + 1):
            if j == 0:
                yield w, values[w[0]]
            else:
                yield w, (table[w[1:]] - table[w[:-1]]) / (points[w[-1]] - points[w[0]])

    for j in range(k):
        table.update(order(j))
    return table, order(k)


def _dict_best_subsequence(s: SampledFunction, m: int, terms, tail) -> SampledFunction:
    """The increasing subsequence of at least m+1 samples maximising the sum of
    ``terms`` over its windows of m+1 consecutive elements plus ``tail`` of its
    last m indices, by a dict keyed on index tuples; windows come in
    lexicographic order, so windows into a state precede those out."""
    best: dict[tuple[int, ...], float] = {}
    back: dict[tuple[int, ...], int] = {}
    for w, term in terms:
        value = best.get(w[:-1], 0.0) + term
        if value > best.get(w[1:], -1.0):
            best[w[1:]] = value
            back[w[1:]] = w[0]
    path = list(max(best, key=lambda state: best[state] + tail(state)))
    while (state := tuple(path[:m])) in back:
        path.insert(0, back[state])
    return SampledFunction(tuple(s.points[j] for j in path), tuple(s.values[j] for j in path))


def oracle_longest_path(s: SampledFunction, m: int, p: float, homogeneous: bool = False) -> float:
    """The finite-p variational form (``homogeneous``: its top-order variant)
    by the dict longest path the library once used: the sequence functional
    of the best subsequence, with terms through :func:`abs_pow`."""
    pts = s.points
    table, top = dict_subset_differences(pts, s.values, m)
    if homogeneous:
        terms = ((w, (pts[w[-1]] - pts[w[0]]) * abs_pow(d, p)) for w, d in top)
        sub = _dict_best_subsequence(s, m, terms, lambda _: 0.0)
        return homogeneous_sequence_functional(sub, m, p).value
    prefix: dict[tuple[int, ...], float] = {}  # sum of |D^k f|^p on the first k+1 points of S
    for S, d in table.items():
        prefix[S] = prefix.get(S[:-1], 0.0) + abs_pow(d, p)
    terms = ((w, min(1.0, pts[w[-1]] - pts[w[0]]) * (prefix[w[:-1]] + abs_pow(d, p))) for w, d in top)
    sub = _dict_best_subsequence(s, m, terms, lambda state: sum(prefix[state[a:]] for a in range(m)))
    return sequence_functional(sub, m, p).value


# ------------------------------------------------------------ CLI encoders


def json_text(obj) -> str:
    """The text the CLI once wrote for a JSON payload."""
    return json.dumps(obj, sort_keys=True, ensure_ascii=False, indent=2, allow_nan=False) + "\n"


def csv_text(header, rows) -> str:
    """The text the CLI once wrote for a CSV table: float cells (Python or
    numpy) as f"{v:.17g}", string cells as they are."""
    lines = [",".join(header)]
    lines.extend(",".join(v if isinstance(v, str) else f"{v:.17g}" for v in row) for row in rows)
    return "\n".join(lines) + "\n"
