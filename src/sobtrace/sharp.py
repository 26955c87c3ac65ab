"""Local sharp maximal functions of sampled data.

For order k < m the profile x -> sup over (k+1)-point subsets within unit
reach of x is a step function: it can only change when some sample enters or
leaves the window [x-1, x+1], i.e. at the points e +- 1 for e in the data.
At the top order a diameter damping factor makes the profile decay smoothly
between those same break locations.  Quadrature therefore uses a composite
midpoint rule on a grid with forced nodes at the data points and at e +- 1.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .divdiff import divided_difference_rows
from .errors import InvalidInputError, SizeCapError, UnsupportedError
from .functionals import FunctionalReport, effective_order, subset_differences
from .samples import SampledFunction

#: Sharp values enumerate every subset at each grid node; larger sets are refused.
ENUMERATION_CAP = 20


@dataclass(frozen=True)
class GridSpec:
    """Grid control for profiles and quadrature.

    ``max_spacing`` bounds the cell width; None selects the default
    0.02 * min(1, smallest sample gap).
    """

    max_spacing: float | None = None

    def spacing_for(self, s: SampledFunction) -> float:
        if self.max_spacing is not None:
            if self.max_spacing <= 0:
                raise InvalidInputError("grid spacing must be positive")
            return self.max_spacing
        return 0.02 * min(1.0, s.min_gap)


@dataclass
class MaximalProfile:
    """Sampled values of one sharp maximal function."""

    order: int
    grid: np.ndarray
    values: np.ndarray
    support_bounds: tuple[float, float]


def _check_args(s: SampledFunction, m: int, k: int) -> None:
    if m < 1:
        raise InvalidInputError(f"m must be a positive integer, got {m}")
    if not 0 <= k <= m:
        raise InvalidInputError(f"order k must lie in [0, {m}], got {k}")
    if len(s) > ENUMERATION_CAP:
        raise SizeCapError(
            f"subset enumeration is capped at {ENUMERATION_CAP} points, got {len(s)}"
        )


def sharp_value(s: SampledFunction, m: int, k: int, x: float) -> float:
    """Pointwise sharp maximal value by brute force over subsets.

    Admissible subsets S have k+1 points and contain at least one sample
    within distance 1 of x; the rest may lie arbitrarily far away.  For
    k < m the supremum is of |D^k f[S]|; at k = m each candidate is damped
    by diam(S) / diam(S u {x}).  An empty admissible family gives 0.
    """
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


def _subset_arrays(s: SampledFunction, k: int):
    combos, dds = zip(*subset_differences(s.points, s.values, k)[1])
    return np.array([[s.points[j] for j in c] for c in combos]), np.abs(dds)


def profile_values(s: SampledFunction, m: int, k: int, xs: np.ndarray) -> np.ndarray:
    """Sharp maximal values on a whole coordinate array at once.

    Same definition as :func:`sharp_value`; vectorized over ``xs`` with a
    deterministic reduction (running elementwise maximum over subsets in
    lexicographic order).
    """
    _check_args(s, m, k)
    xs = np.asarray(xs, dtype=float)
    out = np.zeros_like(xs)
    if len(s) < k + 1:
        return out
    coords, dds = _subset_arrays(s, k)
    for row, dd in zip(coords, dds):
        dist = np.min(np.abs(xs[None, :] - row[:, None]), axis=0)
        mask = dist <= 1.0
        if not np.any(mask):
            continue
        if k == m:
            diam_s = row[-1] - row[0]
            diam_sx = np.maximum(row[-1], xs) - np.minimum(row[0], xs)
            cand = dd * (diam_s / diam_sx)
        else:
            cand = np.full_like(xs, dd)
        np.maximum(out, np.where(mask, cand, 0.0), out=out)
    return out


def support_bounds(s: SampledFunction) -> tuple[float, float]:
    return (s.points[0] - 1.0, s.points[-1] + 1.0)


def grid_edges(s: SampledFunction, grid_spec: GridSpec | None = None) -> np.ndarray:
    """Quadrature/profile grid covering the support of all sharp profiles.

    Forced nodes sit at every data point and at every e +- 1 (the locations
    where an admissible family can change); each stretch in between is split
    into cells no wider than the configured spacing.
    """
    spec = grid_spec or GridSpec()
    h = spec.spacing_for(s)
    lo, hi = support_bounds(s)
    forced: set[float] = {lo, hi}
    for e in s.points:
        for v in (e - 1.0, e, e + 1.0):
            if lo < v < hi:
                forced.add(v)
    nodes = sorted(forced)
    merged = [nodes[0]]
    for v in nodes[1:]:
        if v - merged[-1] > 1e-12:
            merged.append(v)
    edges = [merged[0]]
    for a, b in zip(merged, merged[1:]):
        ncell = max(1, math.ceil((b - a) / h))
        for q in range(1, ncell + 1):
            edges.append(a + (b - a) * q / ncell)
    return np.array(edges)


def sharp_profile(
    s: SampledFunction, m: int, k: int, grid_spec: GridSpec | None = None
) -> MaximalProfile:
    """Sharp maximal function of one order sampled on the standard grid."""
    edges = grid_edges(s, grid_spec)
    values = profile_values(s, m, k, edges)
    return MaximalProfile(k, edges, values, support_bounds(s))


def wmf_functional(
    s: SampledFunction, m: int, p: float, grid_spec: GridSpec | None = None
) -> FunctionalReport:
    """Sum over k = 0..m of the L^p norms of the sharp maximal functions.

    Each integral uses the composite midpoint rule on the forced-node grid;
    the profiles vanish outside [min E - 1, max E + 1], so the integration
    window is exactly that interval.  Defined for finite p only.
    """
    if p == math.inf:
        raise UnsupportedError("the sharp-maximal criterion is defined for finite p only")
    if not p > 1:
        raise InvalidInputError(f"p must lie in (1, inf), got {p}")
    edges = grid_edges(s, grid_spec)
    mids = 0.5 * (edges[:-1] + edges[1:])
    widths = np.diff(edges)
    total = 0.0
    for k in range(m + 1):
        vals = profile_values(s, m, k, mids)
        integral = float(np.dot(widths, vals**p))
        total += integral ** (1.0 / p)
    return FunctionalReport(m, p, total, "sharp_maximal", effective_order(s, m))
