"""Local sharp maximal functions of sampled data.

For order k < m the profile x -> sup over (k+1)-point subsets within unit
reach of x is a step function: it can only change when some sample enters or
leaves the window [x-1, x+1], i.e. at the points e +- 1 for e in the data.
At the top order a diameter damping factor makes the profile decay smoothly
between those same break locations.  Quadrature therefore uses a composite
midpoint rule on a grid with forced nodes at the data points and at e +- 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, SizeCapError, UnsupportedError
from .functionals import FunctionalReport, effective_order, require_feasible, subset_differences
from .samples import SampledFunction

#: Most cells a grid may have; the default spacing follows the closest pair of
#: points, so one tiny gap would otherwise ask for an unbounded grid.
MAX_GRID_CELLS = 1_000_000


@dataclass(frozen=True)
class GridSpec:
    """Grid control for profiles and quadrature.

    ``max_spacing`` bounds the cell width and must be finite and positive;
    None selects the default 0.02 * min(1, smallest sample gap).
    """

    max_spacing: float | None = None

    def spacing_for(self, s: SampledFunction) -> float:
        if self.max_spacing is not None:
            if not (0 < self.max_spacing < math.inf):
                raise InvalidInputError(f"grid spacing must be finite and positive, got {self.max_spacing}")
            return self.max_spacing
        return 0.02 * min(1.0, s.min_gap)


def _check_args(s: SampledFunction, m: int, k: int) -> None:
    if m < 1:
        raise InvalidInputError(f"m must be a positive integer, got {m}")
    if not 0 <= k <= m:
        raise InvalidInputError(f"order k must lie in [0, {m}], got {k}")
    require_feasible(len(s), m)


def profile_values(s: SampledFunction, m: int, k: int, xs: np.ndarray) -> np.ndarray:
    """Sharp maximal values of order k at every coordinate of ``xs``.

    Admissible subsets S have k+1 points and contain at least one sample
    within distance 1 of x; the rest may lie arbitrarily far away.  For
    k < m the value at x is the supremum of |D^k f[S]|; at k = m each
    candidate is damped by diam(S) / diam(S u {x}).  An empty admissible
    family gives 0.  Sets failing :func:`variational_feasible` at order m
    raise SizeCapError.

    One pass over the subsets keeps the largest |D^k f[S]| per sample j in
    S, at k = m per (j, min S, max S): the damping sees only the ends of S
    and fl(d r) is monotone in d, so the maxima are exact.  A node reads the
    entries of the samples within 1 of it.
    """
    _check_args(s, m, k)
    xs = np.asarray(xs, dtype=float)
    out = np.zeros_like(xs)
    if len(s) < k + 1:
        return out
    combos, dds = zip(*subset_differences(s.points, s.values, k)[1])
    W, n, pts = np.array(combos), len(s), np.asarray(s.points)
    if k == m:  # one key per (member, first, last) index triple
        W = (W * n + W[:, :1]) * n + W[:, -1:]
    keys, at = np.unique(W.ravel(), return_inverse=True)
    best = np.zeros(len(keys))
    np.maximum.at(best, at, np.repeat(np.abs(dds), k + 1))
    member = keys // n**2 if k == m else keys
    first, last = pts[keys // n % n, None], pts[keys % n, None]
    order = np.argsort(xs, kind="stable")
    xsort = xs[order]
    for j, a, count in zip(*np.unique(member, return_index=True, return_counts=True)):
        e = slice(a, a + count)
        u, v = np.searchsorted(xsort, (pts[j] - 2.0, pts[j] + 2.0))
        near = order[u:v][np.abs(xsort[u:v] - pts[j]) <= 1.0]
        # blocks of nodes keep the (entries x nodes) temporaries near 2^18 elements
        for idx in np.array_split(near, 1 + len(near) * count // 2**18):
            cand = best[e, None]
            if k == m:
                cand = cand * ((last[e] - first[e]) / (np.maximum(last[e], xs[idx]) - np.minimum(first[e], xs[idx])))
            out[idx] = np.maximum(out[idx], cand.max(axis=0))
    return out


def grid_cells(widths, h: float) -> list[int]:
    """Cells of width at most h across each stretch, at least one each.

    Raises SizeCapError, before anything is built, when they total more than
    MAX_GRID_CELLS; a count past the budget is clipped so it cannot overflow.
    """
    cells = [max(1, math.ceil(min(w / h, MAX_GRID_CELLS + 1))) for w in widths]
    if sum(cells) > MAX_GRID_CELLS:
        raise SizeCapError(
            f"a grid of spacing {h:g} needs more than {MAX_GRID_CELLS} cells; "
            "pass a coarser spacing with GridSpec(h) or --grid-h"
        )
    return cells


def grid_edges(s: SampledFunction, grid_spec: GridSpec | None = None) -> np.ndarray:
    """Quadrature/profile grid covering the support [min E - 1, max E + 1]
    of all sharp profiles.

    Forced nodes sit at every data point and at every e +- 1 (the locations
    where an admissible family can change); each stretch in between is split
    into cells no wider than the configured spacing, within the budget of
    :func:`grid_cells`.
    """
    spec = grid_spec or GridSpec()
    h = spec.spacing_for(s)
    lo, hi = s.points[0] - 1.0, s.points[-1] + 1.0
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
    stretches = list(zip(merged, merged[1:]))
    edges = [merged[0]]
    for (a, b), ncell in zip(stretches, grid_cells([b - a for a, b in stretches], h)):
        for q in range(1, ncell + 1):
            edges.append(a + (b - a) * q / ncell)
    return np.array(edges)


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
