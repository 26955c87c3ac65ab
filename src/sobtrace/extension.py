"""Compactly supported smooth extensions of scattered samples.

Pipeline: very small sets are first padded to m+1 points with zero samples;
complementary gaps wider than 4 receive lattice points at spacing between 2
and 3 (spacing exactly 2 in the two unbounded gaps, truncated to the support
window); the data is extended by zero onto the lattice; finally one of two
backends interpolates the merged data with a piecewise polynomial of degree
at most 2m-1 joining C^{m-1}:

* ``hermite`` assigns a jet to every merged knot (zero at lattice knots; at
  a data knot, the derivatives of the polynomial through its m nearest data
  points, whose windows one two-pointer pass finds) and places the unique
  two-point Hermite piece on each knot interval.  The pieces with a non-zero
  end jet are solved together against one fixed m x m matrix; the others
  are zero;
* ``natural2`` solves one sparse minimal-bending-energy system on the merged
  knots, clamped to zero jets at the window edges, built by the same COO
  assembly as ``natural_spline_min_energy``.

Both backends cost O(n m) plus one solve, vanish identically outside the
support window, reproduce the data exactly up to solver precision, and
depend linearly on the values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .divdiff import _expand_newton, divided_difference_rows
from .errors import InvalidInputError, UnsupportedError
from .functionals import (
    pad_small_set,
    sequence_functional,
    variational_feasible,
    variational_functional,
)
from .piecewise import PiecewisePolynomial, scalar_powers
from .samples import SampledFunction
from .splines import MAX_ORDER, NormReport, anchored_min_energy_spline, sobolev_norm

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
    finite and no less than 3(m+2); the construction itself never produces
    anything outside the default window, so larger pads only add zero space.
    ``extend`` reads neither ``p`` nor ``quad_tol``.
    """

    m: int
    p: float = 2.0
    backend: str = "hermite"
    window_pad: float | None = None
    quad_tol: float = 1e-10

    def __post_init__(self) -> None:
        if self.m < 1:
            raise InvalidInputError(f"m must be a positive integer, got {self.m}")
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
    plus lattice.
    """
    pts = tuple(float(x) for x in points)
    if not pts:
        raise InvalidInputError("at least one point is required")
    if any(b - a <= 0 for a, b in zip(pts, pts[1:])):
        raise InvalidInputError("points must be strictly increasing")
    pad = cfg.window_pad
    lattice: list[float] = []
    n_left = int(math.floor(pad / EDGE_SPACING))
    lattice.extend(pts[0] - EDGE_SPACING * n for n in range(n_left, 0, -1))
    for a, b in zip(pts, pts[1:]):
        width = b - a
        if width > LONG_GAP:
            n_j = int(math.floor(width / 2.0))
            ell = width / n_j
            lattice.extend(a + ell * n for n in range(1, n_j))
    lattice.extend(pts[-1] + EDGE_SPACING * n for n in range(1, n_left + 1))
    return GapLattice(tuple(lattice))


def zero_extend(s: SampledFunction, lattice: GapLattice) -> SampledFunction:
    """Merge the data with the lattice, assigning the value 0 on the lattice."""
    pairs = sorted(
        list(zip(s.points, s.values)) + [(x, 0.0) for x in lattice.lattice_points]
    )
    pts = tuple(x for x, _ in pairs)
    vals = tuple(v for _, v in pairs)
    # separation >= 2 between data and lattice makes collisions impossible;
    # the constructor enforces strict monotonicity anyway
    return SampledFunction(pts, vals)


# ----------------------------------------------------------------- hermite


def _nearest_windows(points, m: int) -> list[int]:
    """Start of the window of the m points nearest to each point (ties
    broken toward smaller coordinates).  The windows only move right, so two
    pointers find them all in one pass."""
    starts, lo = [], 0
    for t in points:
        while lo + m < len(points) and abs(points[lo + m] - t) < abs(points[lo] - t):
            lo += 1
        starts.append(lo)
    return starts


def _hermite_extend(data: SampledFunction, merged: SampledFunction, m: int) -> PiecewisePolynomial:
    """Every knot gets a jet: zero at lattice knots, and at a data knot the
    derivatives of the polynomial through its m nearest data points.  Each
    piece takes the two-point Hermite interpolant of its end jets, solved on
    the unit interval (sigma = t/h), so one fixed m x m matrix serves all
    pieces in a single batched solve."""
    fact = np.array([math.factorial(k) for k in range(m)], dtype=float)
    jets = np.zeros((len(merged), m))
    at = np.searchsorted(merged.points, data.points)
    pts, vals = data.points, data.values
    for i, (t, lo) in enumerate(zip(pts, _nearest_windows(pts, m))):
        xs = pts[lo : lo + m]
        newton = [row[0] for row in divided_difference_rows(xs, vals[lo : lo + m], m - 1)]
        jets[at[i]] = _expand_newton(newton, [x - t for x in xs[:-1]]) * fact
    h = np.diff(merged.points)
    live = np.flatnonzero(jets[:-1].any(axis=1) | jets[1:].any(axis=1))
    powers = scalar_powers(h[live], m)
    q_low = powers * jets[live] / fact
    known = np.zeros_like(q_low)
    for d in range(m):
        known[:, : d + 1] += fact[d] / fact[d::-1] * q_low[:, d, None]
    unit = np.array([[math.perm(m + j, ell) for j in range(m)] for ell in range(m)], dtype=float)
    q_high = np.linalg.solve(unit, (powers * jets[live + 1] - known).T).T
    coeffs = np.zeros((len(h), 2 * m))
    coeffs[live] = np.hstack([q_low, q_high]) / h[live, None] ** np.arange(2 * m)
    return PiecewisePolynomial(merged.points, coeffs)


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
    merged = zero_extend(work, lattice)
    if cfg.backend == "hermite":
        return _hermite_extend(work, merged, m)
    return anchored_min_energy_spline(
        merged.points,
        merged.values,
        m,
        work.points[0] - cfg.window_pad,
        work.points[-1] + cfg.window_pad,
    )


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

    The variational functional is used while the set is within its window
    budget (:func:`variational_feasible`), the sequence functional beyond
    it.  At finite p a set of at most m points
    is first padded to m+1 points by :func:`pad_small_set`, the set that
    :func:`extend` interpolates, since the variational functional needs m+1
    points.  F must interpolate the (padded) data, checked to 1e-9 relative.
    Failure of the inequality on a valid pair indicates a bug, not an unlucky
    input.
    """
    work = pad_small_set(s, m) if p != math.inf and len(s) <= m else s
    scale = 1.0 + max(abs(v) for v in s.values)
    residual = float(np.max(np.abs(F(np.asarray(work.points)) - np.asarray(work.values))))
    if not residual <= 1e-9 * scale:
        data = "the samples" if work is s else f"the samples padded with zeros to {m + 1} points"
        raise InvalidInputError(
            f"F does not interpolate {data}: residual {residual:.3e} exceeds "
            f"{1e-9 * scale:.3e}"
        )
    functional = variational_functional if variational_feasible(len(work), m) else sequence_functional
    report = functional(work, m, p)
    norm: NormReport = sobolev_norm(F, m, p, quad_tol)
    factor = necessity_bound_factor(m, p)
    n_val = report.value
    w_val = norm.w_norm
    passed = n_val <= factor * w_val + 1e-12 * (1.0 + n_val)
    ratio = n_val / w_val if w_val > 0 else 0.0
    return NecessityReport(n_val, report.kind, w_val, factor, ratio, passed)
