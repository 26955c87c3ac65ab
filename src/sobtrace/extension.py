"""Compactly supported smooth extensions of scattered samples.

Pipeline: very small sets are first padded to m+1 points with zero samples;
complementary gaps wider than 4 receive lattice points at spacing between 2
and 3 (spacing exactly 2 in the two unbounded gaps, truncated to the support
window), each placed beside the data point it steps from, which merges data
and lattice into arrays of knots and values without a sort; finally one of
two backends interpolates the merged data with a piecewise polynomial of
degree at most 2m-1 joining C^{m-1}:

* ``hermite`` assigns a jet to every merged knot (zero at lattice knots; at
  a data knot, the derivatives of the polynomial through its m nearest data
  points, whose windows one array pass finds and whose Newton
  coefficients are columns of one divided-difference table) and places the
  unique two-point Hermite piece on each knot interval.  The pieces with a non-zero
  end jet are solved against one fixed m x m matrix; the others are zero;
* ``natural2`` solves one minimal-bending-energy problem on the merged knots,
  clamped to zero jets at the window edges, with the builder of
  ``natural_spline_min_energy``: one banded Gram solve for F^(m) in the
  B-spline basis, and each piece recovered from its m nearest knots.

``extend`` is the one-set case of ``extensions``, which runs every stage once
over many sets laid end to end: no window, piece or join crosses from one set
to the next, and each solve or matrix product whose rounding could depend on
the columns beside it runs on one set's columns alone (the hermite solves of
sets with as many pieces as one stack), so every result is the single call's
bit for bit.  Both backends cost O(n m) plus one solve per set, vanish
identically outside the support window, reproduce the data exactly up to
solver precision, and depend linearly on the values.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .divdiff import _expand_newton, _nearest_windows, divided_difference_rows
from .errors import InvalidInputError, NumericalFailureError, SizeCapError, SobtraceError, UnsupportedError, _check_order, _check_real
from .functionals import (
    pad_small_set,
    sequence_functional,
    variational_feasible,
    variational_functional,
)
from .piecewise import PiecewisePolynomial, join, per_item, polynomial_eval_rows
from .samples import MIN_GAP, SampledFunction
from .sharp import MAX_GRID_CELLS
from .splines import MAX_ORDER, _anchored_splines, _perm_table, sobolev_norms

#: Gaps wider than this receive lattice points.
LONG_GAP = 4.0
#: Lattice spacing in unbounded gaps.
EDGE_SPACING = 2.0


def support_pad(m: int) -> float:
    """Default half-width added beyond the data: 3(m+2)."""
    _check_order(m, 1)
    return 3.0 * (m + 2)


@dataclass(frozen=True)
class ExtensionConfig:
    """Parameters of the extension construction.

    ``window_pad`` is the half-width of the support window beyond the data,
    finite and no less than 3(m+2).  A larger pad keeps the hermite extension
    as it is on the default window and only adds zero pieces beyond it; the
    natural2 spline is solved on the whole window, so from m = 2 on a larger
    pad moves it and spreads its support to the new window.  ``extend``
    reads neither ``p`` nor ``quad_tol``.
    """

    m: int
    p: float = 2.0
    backend: str = "hermite"
    window_pad: float | None = None
    quad_tol: float = 1e-10

    def __post_init__(self) -> None:
        _check_order(self.m, 1)
        if self.m > MAX_ORDER:
            raise UnsupportedError(f"order m = {self.m} is above {MAX_ORDER}: (2m-1)! overflows a float")
        if self.backend not in ("hermite", "natural2"):
            raise InvalidInputError(f"unknown backend {self.backend!r}")
        pad = self.window_pad
        if pad is None:
            object.__setattr__(self, "window_pad", support_pad(self.m))
        elif not (pad >= support_pad(self.m) and math.isfinite(pad)):
            raise InvalidInputError(
                f"window_pad must be finite and at least 3(m+2) = {support_pad(self.m)}, got {pad}"
            )


@dataclass(frozen=True)
class GapLattice:
    """Lattice points inserted into the wide complementary gaps of a point set:
    the bounded gaps wider than 4 and the two unbounded gaps, truncated to
    the support window."""

    lattice_points: tuple[float, ...]


def build_gap_lattice(points, cfg: ExtensionConfig) -> GapLattice:
    """Subdivide wide gaps of a finite point set.

    A bounded gap J = (a, b) with |J| > 4 receives n_J = floor(|J|/2)
    subintervals of equal width ell = |J|/n_J (always in [2, 3]); the lattice
    points are the n_J - 1 interior division points.  The two unbounded gaps
    get points at spacing exactly 2, marching outward from the data until the
    window edge.  The result keeps distance >= 2 from the data, has pairwise
    separation >= 2, and leaves no window point farther than 2 from data
    plus lattice.  Non-finite points raise InvalidInputError, and a lattice
    of more than ``MAX_GRID_CELLS`` points raises SizeCapError.
    """
    pts = np.asarray(points, dtype=float)
    knots, _, at, _ = _lattice_knots(pts, pts, np.array([len(pts)]), cfg.window_pad)  # values unused
    return GapLattice(tuple(np.delete(knots, at).tolist()))


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # a gap past the float range is inf
def _lattice_knots(x: np.ndarray, y: np.ndarray, sizes: np.ndarray, window_pad: float):
    """The gap lattice of each set of points, laid end to end in x with ``sizes`` points each,
    merged with its data valued y: (knots, values, the index of each data point among the knots, the
    end of each set's knots).  Each lattice point is placed beside the data point it steps from,
    so no sort is needed; the refusals of :func:`build_gap_lattice` are judged per set, and no
    gap runs from one set to the next.  Rounding far from the origin can put a lattice point on
    or past a datum, which the caller refuses."""
    ends = sizes.cumsum()
    last = ends - 1  # the gap after a set's last point is its right edge, not a gap to the next set
    width = np.concatenate([x[1:] - x[:-1], [0.0]])
    increasing = width > 0
    increasing[last] = True
    if not (len(x) and np.isfinite(x).all() and increasing.all()):
        raise InvalidInputError("need at least one point; points must be finite and strictly increasing")
    # n_J - 1 points in each wide gap J, n_edge in each unbounded one: counted in floats first
    wide = width > LONG_GAP
    wide[last] = False
    n_j, n_edge = np.floor(width / 2.0), math.floor(window_pad / EDGE_SPACING)
    after = np.where(wide, n_j - 1.0, 0.0)
    if (np.add.reduceat(after, ends - sizes) + 2.0 * n_edge > MAX_GRID_CELLS).any():
        raise SizeCapError(f"the gap lattice would hold more than {MAX_GRID_CELLS} points")
    # each point carries the lattice points after it (the right edge after a set's last point)
    # and, at a set's first point, the left edge before it, at offsets -n_edge..-1 and 1..after
    after = after.astype(int)
    after[last] = n_edge
    block = after + 1
    block[ends - sizes] += n_edge
    at = block.cumsum() - after - 1
    offset = np.arange(at[-1] + n_edge + 1) - at.repeat(block)
    step = width / n_j
    step[last] = EDGE_SPACING
    knots = x.repeat(block) + np.where(offset < 0, EDGE_SPACING, step.repeat(block)) * offset
    knots[at] = x
    values = np.zeros(len(knots))
    values[at] = y
    return knots, values, at, at[ends - 1] + n_edge + 1


def zero_extend(s: SampledFunction, lattice: GapLattice) -> tuple[np.ndarray, np.ndarray]:
    """Merge the data with the lattice, assigning the value 0 on the lattice.

    Returns the merged knots and values as arrays in increasing knot order.
    Far from the origin, rounding can bring a lattice point within
    ``MIN_GAP`` of a data point; such a merge raises InvalidInputError.
    """
    lattice = np.asarray(lattice.lattice_points, dtype=float)
    knots = np.concatenate([s.points, lattice])
    order = np.argsort(knots, kind="stable")
    knots, values = knots[order], np.concatenate([s.values, np.zeros(len(lattice))])[order]
    if not np.all(knots[1:] - knots[:-1] >= MIN_GAP):
        raise InvalidInputError(f"merged knots closer than {MIN_GAP:g}: data and lattice collide")
    return knots, values


# ----------------------------------------------------------------- hermite


@np.errstate(all="ignore")  # an overflow surfaces as a non-finite coefficient
def _hermite_extensions(x, y, sizes, knots, at, kends, m: int) -> list[PiecewisePolynomial]:
    """Every knot gets a jet: zero at lattice knots, and at a data knot the
    derivatives of the polynomial through the m nearest data points of its own
    set, whose Newton coefficients all come from one divided-difference table
    over the sets laid end to end.  Each piece takes the two-point Hermite
    interpolant of its end jets, solved on the unit interval (sigma = t/h), so
    one fixed m x m matrix serves all pieces, in one solve per set.  The piece
    from one set's last knot to the next set's first has zero jets and is
    dropped.  A coefficient that is not finite, which includes an h**k that
    underflows to 0 at high order, raises NumericalFailureError."""
    perm = _perm_table(2 * m)[:m]  # derivative ell of s^d at s = 1, rows ell < m
    fact = perm.diagonal()
    ends = sizes.cumsum()
    lo = _nearest_windows(x, m, per_item(ends - sizes, sizes)[:, None], per_item(ends, sizes)[:, None])
    # column lo of the whole table is the Newton form on window lo
    table = divided_difference_rows(x, y, m - 1)
    newton = np.stack([row[lo] for row in table], axis=1)
    roots = x[lo[:, None] + np.arange(m - 1)] - x[:, None]
    jets = np.zeros((len(knots), m))
    jets[at] = _expand_newton(newton, roots) * fact
    h = knots[1:] - knots[:-1]
    live = (jets[:-1].any(axis=1) | jets[1:].any(axis=1)).nonzero()[0]
    powers = h[live, None] ** np.arange(m)
    q_low = powers * jets[live] / fact
    # derivatives at s = 1 of the low part, summed over d in order (a matmul rounds otherwise)
    known = np.cumsum(q_low[:, :, None] * perm[:, :m].T, axis=1)[:, -1]
    rhs = powers * jets[live + 1] - known
    q_high = _solve_each(perm[:, m:], rhs, np.searchsorted(live, kends))
    coeffs = np.zeros((len(h), 2 * m))
    coeffs[live] = np.hstack([q_low, q_high]) / h[live, None] ** np.arange(2 * m)
    if not np.isfinite(coeffs[live]).all():
        raise NumericalFailureError(f"hermite piece coefficients overflow at order m = {m}")
    kends = kends.tolist()
    return [PiecewisePolynomial._compact(knots[a:b], coeffs[a : b - 1]) for a, b in zip([0, *kends[:-1]], kends)]


def _solve_each(A: np.ndarray, R: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """solve(A, R[a:b].T).T for each run of R's rows that ends at one of ``ends``, laid end to end:
    a solve can round a row differently beside other rows, so each run is solved alone, the runs
    of one length as one stack of systems, which numpy solves one by one as single runs."""
    if len(ends) == 1:
        return np.linalg.solve(A, R.T).T
    # the runs in order of length, so that each length's runs are one block of rows
    lengths = ends - np.concatenate([[0], ends[:-1]])
    by_length = np.argsort(lengths, kind="stable")
    sizes = lengths[by_length]
    rows = np.repeat(ends[by_length] - sizes.cumsum(), sizes) + np.arange(len(R))
    block, solved, width = R[rows], np.empty_like(R), R.shape[1]
    values, first = np.unique(sizes, return_index=True)
    cuts = (sizes.cumsum() - sizes)[first].tolist() + [len(R)]
    for n, a, b in zip(values.tolist(), cuts, cuts[1:]):
        if n:
            stack = block[a:b].reshape(-1, n, width).transpose(0, 2, 1)
            solved[a:b] = np.linalg.solve(A, stack).transpose(0, 2, 1).reshape(-1, width)
    out = np.empty_like(R)
    out[rows] = solved
    return out


# -------------------------------------------------------------------- public


def extend(s: SampledFunction, cfg: ExtensionConfig) -> PiecewisePolynomial:
    """Build the piecewise-polynomial extension of the samples.

    Sets with at most m points are padded to m+1 first; the construction then
    runs on the (possibly padded) data.  The result interpolates the original
    samples, joins C^{m-1}, has degree at most 2m-1 per piece, and vanishes
    identically outside the support window of the working set.  The whole map
    from values to extension is linear.  :func:`extensions` is the same
    construction over many sets.
    """
    return extensions([s], cfg)[0]


def extensions(sets, cfg: ExtensionConfig) -> list[PiecewisePolynomial]:
    """:func:`extend` of every set, in one pass per stage over all of them
    laid end to end: no window, piece or join crosses from one set to the
    next, every product or solve whose rounding could depend on its neighbours
    runs per set, and every result is the single call's bit for bit.  A batch
    that holds a refused set raises what its first refused set raises alone."""
    works = [pad_small_set(s, cfg.m) if len(s) <= cfg.m else s for s in sets]
    try:
        return _extensions(works, cfg) if works else []
    except SobtraceError:
        if len(works) > 1:  # each set alone, in order, so the first refused one raises its own error
            for work in works:
                _extensions([work], cfg)
        raise


def _extensions(works, cfg: ExtensionConfig) -> list[PiecewisePolynomial]:
    """:func:`extensions` of sets that need no padding."""
    counts = [len(w) for w in works]
    sizes = np.array(counts)
    x = np.fromiter(itertools.chain.from_iterable(w.points for w in works), float, sum(counts))
    y = np.fromiter(itertools.chain.from_iterable(w.values for w in works), float, len(x))
    knots, values, at, kends = _lattice_knots(x, y, sizes, cfg.window_pad)
    apart = knots[1:] - knots[:-1] >= MIN_GAP
    apart[kends[:-1] - 1] = True  # no set's knots meet the next set's
    if not apart.all():
        raise InvalidInputError(f"merged knots closer than {MIN_GAP:g}: data and lattice collide")
    if cfg.backend == "hermite":
        return _hermite_extensions(x, y, sizes, knots, at, kends, cfg.m)
    if len(works) == 1:
        return _anchored_splines(knots, values, kends, cfg.m, x[0] - cfg.window_pad, x[-1] + cfg.window_pad)
    ends = sizes.cumsum()
    return _anchored_splines(knots, values, kends - np.concatenate([[0], kends[:-1]]), cfg.m,
                             x[ends - sizes] - cfg.window_pad, x[ends - 1] + cfg.window_pad)


@dataclass(frozen=True)
class NecessityReport:
    """Outcome of the explicit lower-bound inequality check."""

    functional: float
    functional_kind: str
    extension_norm: float
    bound_factor: float
    ratio: float
    passed: bool


def necessity_bound_factor(m: int, p: float) -> float:
    """Explicit constant relating the trace functional to any extension norm.

    Finite p: summing the per-order bounds (each order contributes at most
    2^p (2m+1) times the p-th power of the norm, over m+1 orders) gives
    N <= 2 ((m+1)(2m+1))^{1/p} * ||F||.  For p = inf the factor is 1.
    """
    _check_order(m, 1)
    _check_real(p, 1, strict=True)
    if p == math.inf:
        return 1.0
    return 2.0 * ((m + 1) * (2 * m + 1)) ** (1.0 / p)


def verify_necessity(
    s: SampledFunction, F: PiecewisePolynomial, m: int, p: float, quad_tol: float = 1e-10
) -> NecessityReport:
    """Check the proven inequality between the trace functional of the data
    and the full norm of an interpolating extension.

    The variational functional is used at p = inf, where it is the
    consecutive-window maximum, and at finite p while the set is within its
    subset budget (:func:`variational_feasible`); the sequence functional
    beyond it.  At finite p a set of at most m points
    is first padded to m+1 points by :func:`pad_small_set`, the set that
    :func:`extend` interpolates, since the variational functional needs m+1
    points.  F must interpolate the (padded) data, checked to 1e-9 relative.
    Failure of the inequality on a valid pair indicates a bug, not an unlucky
    input.
    """
    return verify_necessities([s], [[F]], m, p, quad_tol)[0]


def verify_necessities(sets, extensions, m: int, p: float, quad_tol: float = 1e-10) -> list[NecessityReport]:
    """:func:`verify_necessity` of every set against each of its extensions,
    ``extensions[i]`` those of ``sets[i]``, in that order: every interpolation
    residual in one evaluation, each set's functional once, and every norm in
    one :func:`sobolev_norms` call; each refusal is the single call's."""
    _check_order(m, 1)
    _check_real(p, 1, strict=True)
    works = [pad_small_set(s, m) if p != math.inf and len(s) <= m else s for s in sets]
    residuals = iter(_residuals([(w, F) for w, Fs in zip(works, extensions) for F in Fs]))
    functionals = []
    for s, work, Fs in zip(sets, works, extensions):
        scale = 1.0 + max(abs(v) for v in s.values)
        for residual in itertools.islice(residuals, len(Fs)):
            if not residual <= 1e-9 * scale:
                data = "the samples" if work is s else f"the samples padded with zeros to {m + 1} points"
                raise InvalidInputError(f"F does not interpolate {data}: residual {residual:.3e} exceeds {1e-9 * scale:.3e}")
        feasible = p == math.inf or variational_feasible(len(work), m)
        functionals += [(variational_functional if feasible else sequence_functional)(work, m, p)] * len(Fs)
    norms = sobolev_norms([F for Fs in extensions for F in Fs], m, p, quad_tol)
    factor, reports = necessity_bound_factor(m, p), []
    for report, norm in zip(functionals, norms):
        n_val, w_val = report.value, norm.w_norm
        passed = n_val <= factor * w_val + 1e-12 * (1.0 + n_val)
        ratio = n_val / w_val if w_val > 0 else 0.0
        reports.append(NecessityReport(n_val, report.kind, w_val, factor, ratio, passed))
    return reports


def _residuals(pairs) -> list[float]:
    """max |F(x) - f(x)| over the samples of each (samples, F) pair, all evaluated at once: each
    point takes the row and origin F(x) takes (a piece, or a tail beyond the breakpoints), and
    rows narrower than the widest are padded with top zeros, which leave Horner's value as it is."""
    width = max(F.coefficients.shape[1] for _, F in pairs)

    def wide(a):
        return a if a.shape[-1] == width else np.pad(a, [(0, 0)] * (a.ndim - 1) + [(0, width - a.shape[-1])])

    # each F's pieces, then its two tails, as rows laid end to end, and its breakpoints likewise
    rows = join([wide(np.vstack([F.coefficients, F.left_tail, F.right_tail])) for _, F in pairs])
    bp = join([F.breakpoints for _, F in pairs])
    x, y = (join([np.asarray(getattr(s, name)) for s, _ in pairs]) for name in ("points", "values"))
    counts = [len(s) for s, _ in pairs]
    idx = join([np.searchsorted(F.breakpoints, x[a:b], side="right") - 1
                for (_, F), a, b in zip(pairs, np.cumsum([0, *counts[:-1]]).tolist(), np.cumsum(counts).tolist())])
    n = per_item(np.array([F.n_pieces for _, F in pairs]), counts)
    first_row = per_item(np.cumsum([0] + [F.n_pieces + 2 for _, F in pairs][:-1]), counts)
    first_bp = per_item(np.cumsum([0] + [len(F.breakpoints) for _, F in pairs][:-1]), counts)
    j = np.clip(idx, 0, n - 1)
    row, origin = first_row + j, first_bp + j
    row, origin = np.where(idx < 0, first_row + n, row), np.where(idx < 0, first_bp, origin)
    row, origin = np.where(idx >= n, first_row + n + 1, row), np.where(idx >= n, first_bp + n, origin)
    error = np.abs(polynomial_eval_rows(rows[row], x - bp[origin]) - y)
    return np.maximum.reduceat(error, np.cumsum([0, *counts[:-1]])).tolist()
