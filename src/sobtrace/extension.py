"""Compactly supported smooth extensions of scattered samples.

Pipeline: very small sets are first padded to m+1 points with zero samples;
complementary gaps wider than 4 receive lattice points at spacing between 2
and 3 (spacing exactly 2 in the two unbounded gaps, truncated to the support
window); the data is extended by zero onto the lattice, giving arrays of
knots and values; finally one of two backends interpolates the merged data
with a piecewise polynomial of degree at most 2m-1 joining C^{m-1}:

* ``hermite`` assigns a jet to every merged knot (zero at lattice knots; at
  a data knot, the derivatives of the polynomial through its m nearest data
  points, whose windows one array pass finds and whose Newton
  coefficients are columns of one divided-difference table) and places the
  unique two-point Hermite piece on each knot interval.  The pieces with a non-zero
  end jet are solved together against one fixed m x m matrix; the others
  are zero;
* ``natural2`` solves one minimal-bending-energy system on the merged knots,
  clamped to zero jets at the window edges, filled into LAPACK band storage
  and factored once by the builder of ``natural_spline_min_energy``.

Both backends cost O(n m) plus one solve, vanish identically outside the
support window, reproduce the data exactly up to solver precision, and
depend linearly on the values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .divdiff import _expand_newton, divided_difference_rows
from .errors import InvalidInputError, NumericalFailureError, SizeCapError, UnsupportedError, _check_order
from .functionals import (
    pad_small_set,
    sequence_functional,
    variational_feasible,
    variational_functional,
)
from .piecewise import PiecewisePolynomial
from .samples import MIN_GAP, SampledFunction
from .sharp import MAX_GRID_CELLS
from .splines import MAX_ORDER, _perm_table, anchored_min_energy_spline, sobolev_norms

#: Gaps wider than this receive lattice points.
LONG_GAP = 4.0
#: Lattice spacing in unbounded gaps.
EDGE_SPACING = 2.0


def support_pad(m: int) -> float:
    """Default half-width added beyond the data: 3(m+2)."""
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
    with np.errstate(over="ignore", invalid="ignore"):  # a gap past the float range is inf
        width = pts[1:] - pts[:-1]
    if not (len(pts) and np.isfinite(pts).all() and (width > 0).all()):
        raise InvalidInputError("need at least one point; points must be finite and strictly increasing")
    # n_J - 1 points in each wide gap J, n_edge in each unbounded one: counted in floats first
    wide = width > LONG_GAP
    n_j, n_edge = np.floor(width[wide] / 2.0), math.floor(cfg.window_pad / EDGE_SPACING)
    if (n_j - 1.0).sum() + 2.0 * n_edge > MAX_GRID_CELLS:
        raise SizeCapError(f"the gap lattice would hold more than {MAX_GRID_CELLS} points")
    counts = n_j.astype(int) - 1
    k = np.arange(1, counts.sum() + 1) - np.repeat(np.cumsum(counts) - counts, counts)
    edge = EDGE_SPACING * np.arange(1, n_edge + 1)
    inner = np.repeat(pts[:-1][wide], counts) + np.repeat(width[wide] / n_j, counts) * k
    return GapLattice(tuple(np.concatenate([pts[0] - edge[::-1], inner, pts[-1] + edge]).tolist()))


def zero_extend(s: SampledFunction, lattice: GapLattice) -> tuple[np.ndarray, np.ndarray]:
    """Merge the data with the lattice, assigning the value 0 on the lattice.

    Returns the merged knots and values as arrays in increasing knot order.
    Far from the origin, rounding can bring a lattice point within
    ``MIN_GAP`` of a data point; such a merge raises InvalidInputError.
    """
    knots = np.concatenate([s.points, lattice.lattice_points])
    values = np.concatenate([s.values, np.zeros(len(lattice.lattice_points))])
    order = np.argsort(knots, kind="stable")
    knots, values = knots[order], values[order]
    if not np.all(np.diff(knots) >= MIN_GAP):
        raise InvalidInputError(f"merged knots closer than {MIN_GAP:g}: data and lattice collide")
    return knots, values


# ----------------------------------------------------------------- hermite


def _nearest_windows(points, m: int) -> np.ndarray:
    """Start of the window of the m points nearest to each point (ties
    broken toward smaller coordinates): of the m windows that hold a point,
    the first whose next point is no nearer than its first, in one array pass."""
    x, n = np.asarray(points, dtype=float), len(points)
    lo = np.clip(np.arange(n)[:, None] + np.arange(1 - m, 1), 0, n - m)
    nearer = np.abs(x[np.minimum(lo + m, n - 1)] - x[:, None]) < np.abs(x[lo] - x[:, None])
    return lo[np.arange(n), np.argmax((lo + m == n) | ~nearer, axis=1)]


@np.errstate(all="ignore")  # an overflow surfaces as a non-finite coefficient
def _hermite_extend(data: SampledFunction, knots: np.ndarray, m: int) -> PiecewisePolynomial:
    """Every knot gets a jet: zero at lattice knots, and at a data knot the
    derivatives of the polynomial through its m nearest data points, whose
    Newton coefficients all come from one divided-difference table.  Each
    piece takes the two-point Hermite interpolant of its end jets, solved on
    the unit interval (sigma = t/h), so one fixed m x m matrix serves all
    pieces in a single batched solve.  A coefficient that is not finite,
    which includes an h**k that underflows to 0 at high order, raises
    NumericalFailureError."""
    perm = _perm_table(2 * m)[:m]  # derivative ell of s^d at s = 1, rows ell < m
    fact = perm.diagonal()
    pts = np.asarray(data.points)
    lo = _nearest_windows(pts, m)
    # column lo of the whole-set table is the Newton form on window lo
    table = divided_difference_rows(data.points, data.values, m - 1)
    newton = np.stack([row[lo] for row in table], axis=1)
    roots = pts[lo[:, None] + np.arange(m - 1)] - pts[:, None]
    jets = np.zeros((len(knots), m))
    jets[np.searchsorted(knots, pts)] = _expand_newton(newton, roots) * fact
    h = np.diff(knots)
    live = np.flatnonzero(jets[:-1].any(axis=1) | jets[1:].any(axis=1))
    powers = h[live, None] ** np.arange(m)
    q_low = powers * jets[live] / fact
    # derivatives at s = 1 of the low part, summed over d in order (a matmul rounds otherwise)
    known = np.cumsum(q_low[:, :, None] * perm[:, :m].T, axis=1)[:, -1]
    q_high = np.linalg.solve(perm[:, m:], (powers * jets[live + 1] - known).T).T
    coeffs = np.zeros((len(h), 2 * m))
    coeffs[live] = np.hstack([q_low, q_high]) / h[live, None] ** np.arange(2 * m)
    if not np.all(np.isfinite(coeffs[live])):
        raise NumericalFailureError(f"hermite piece coefficients overflow at order m = {m}")
    return PiecewisePolynomial(knots, coeffs)


# -------------------------------------------------------------------- public


def extend(s: SampledFunction, cfg: ExtensionConfig) -> PiecewisePolynomial:
    """Build the piecewise-polynomial extension of the samples.

    Sets with at most m points are padded to m+1 first; the construction then
    runs on the (possibly padded) data.  The result interpolates the original
    samples, joins C^{m-1}, has degree at most 2m-1 per piece, and vanishes
    identically outside the support window of the working set.  The whole map
    from values to extension is linear.
    """
    m = cfg.m
    work = pad_small_set(s, m) if len(s) <= m else s
    lattice = build_gap_lattice(work.points, cfg)
    knots, values = zero_extend(work, lattice)
    if cfg.backend == "hermite":
        return _hermite_extend(work, knots, m)
    edges = (work.points[0] - cfg.window_pad, work.points[-1] + cfg.window_pad)
    return anchored_min_energy_spline(knots, values, m, *edges)


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
    ``extensions[i]`` those of ``sets[i]``, in that order: each set's
    functional is computed once, and every norm in one :func:`sobolev_norms` call."""
    _check_order(m, 1)
    functionals = []
    for s, Fs in zip(sets, extensions):
        work = pad_small_set(s, m) if p != math.inf and len(s) <= m else s
        scale = 1.0 + max(abs(v) for v in s.values)
        for F in Fs:
            residual = float(np.max(np.abs(F(np.asarray(work.points)) - np.asarray(work.values))))
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
