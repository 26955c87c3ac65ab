"""Local sharp maximal functions of sampled data.

For order k < m the profile x -> sup over (k+1)-point subsets within unit
reach of x is a step function: it can only change when some sample enters or
leaves the window [x-1, x+1], i.e. at the points e +- 1 for e in the data.
At the top order a diameter damping factor makes the profile decay smoothly
between those same break locations.  Quadrature therefore uses a composite
midpoint rule on a grid with forced nodes at the data points and at e +- 1.
Every order's profile is one array reduction over the order-m subset table that
:func:`functionals.subset_differences` keeps, shared with the variational form.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, SizeCapError, UnsupportedError, _check_order
from .functionals import VARIATIONAL_BUDGET, FunctionalReport, _power_sum, effective_order, require_feasible, subset_differences
from .piecewise import join
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
    _check_order(m, 1)
    _check_order(k, 0, "order k")
    if k > m:
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
    """
    _check_args(s, m, k)
    return _profile(np.asarray(s.points), subset_differences(s.points, s.values, m)[k][:2], k == m, _nodes(s, xs))


def _nodes(s: SampledFunction, xs):
    """(order, xsort, first, end): the nodes' sort order, the sorted nodes and the run
    first..end-1 of samples within 1 of each, from searches at e -+ 1 moved to the exact test."""
    pts, order = np.asarray(s.points), np.argsort(xs, kind="stable")
    x = np.concatenate([[-np.inf], np.asarray(xs, dtype=float)[order], [np.inf]])  # x[c] is node c - 1
    counts = []
    for test, edge in ((np.less, -1.0), (np.less_equal, 1.0)):  # the nodes with test(fl(x - e), edge)
        c = np.searchsorted(x[1:-1], pts + edge)
        while (step := ~test(x[c] - pts, edge)).any():
            c -= step
        while (step := test(x[c + 1] - pts, edge)).any():
            c += step
        counts.append(c)
    return order, x[1:-1], *(np.searchsorted(c, np.arange(len(xs)), "right") for c in counts[::-1])


def _steps(x: np.ndarray) -> np.ndarray:
    """``np.diff(x, prepend=-1)`` of non-negative integers, without its overhead on short arrays."""
    return x - np.concatenate(([-1], x[:-1]))


def _profile(pts: np.ndarray, top_order, damped: bool, nodes) -> np.ndarray:
    """:func:`profile_values` on samples at ``pts`` from the order's (subsets, differences) at the :func:`_nodes`.
    The largest |D f[S]| is kept per sample j in S, if ``damped`` per (j, min S, max S): the
    damping sees only the ends of S and fl(d r) is monotone in d, so the maxima are exact.
    Sorted by sample, they give each node one slice, reduced in blocks of about 2^18 elements:
    one (entries x nodes) array per run of nodes reading one slice past 750 elements per run, as
    on fine grids, else the slices laid end to end for ``np.maximum.reduceat``."""
    (order, xsort, first_sample, end_sample), (W, dds) = nodes, top_order
    out, n = np.zeros(len(xsort)), len(pts)
    key = ((W * n + W[:, :1]) * n + W[:, -1:] if damped else W).ravel()  # (member, first, last) triples
    at = np.argsort(key, kind="stable")
    key, cand = key[at], np.repeat(np.abs(dds), W.shape[1])[at]
    new = np.flatnonzero(_steps(key))
    key, best = key[new], np.maximum.reduceat(cand, new)[:, None]
    first, last = pts[key // n % n, None], pts[key % n, None]
    start = np.searchsorted(key // n**2 if damped else key, np.arange(n + 1))  # the entries of each sample
    lo, size = start[first_sample], start[end_sample] - start[first_sample]
    def cands(e, x):  # the entries e at the nodes x
        return best[e] * ((last[e] - first[e]) / (np.maximum(last[e], x) - np.minimum(first[e], x))) if damped else best[e]
    runs = np.flatnonzero(_steps(lo) | _steps(size))  # nodes reading one slice
    total = np.concatenate([[0], np.cumsum(size)])
    if total[-1] > 750 * len(runs):  # the timed crossover: a Python step per run beats per-element gathers
        for q0, q1 in itertools.pairwise(np.append(runs, len(lo))):
            e, step = slice(lo[q0], lo[q0] + size[q0]), 1 + 2**18 // max(size[q0], 1)
            for r in range(q0, q1 if size[q0] else q0, step):  # an empty slice leaves its nodes at 0
                out[order[r : r + step][: q1 - r]] = cands(e, xsort[r : min(r + step, q1)]).max(axis=0)
        return out
    # short runs: the slices laid end to end, each block starting at a node that holds its first element
    blocks = np.unique(np.searchsorted(total, np.arange(0, total[-1], 2**18), "right") - 1)
    for q0, q1 in itertools.pairwise(np.append(blocks, len(size))):
        sz, offset = size[q0:q1], total[q0:q1] - total[q0]
        e = np.arange(total[q1] - total[q0]) + np.repeat(lo[q0:q1] - offset, sz)
        out[order[q0:q1][sz > 0]] = np.maximum.reduceat(cands(e, np.repeat(xsort[q0:q1], sz)[:, None]), offset[sz > 0])[:, 0]
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
    a, b = np.array(merged[:-1]), np.array(merged[1:])
    ncell = np.array(grid_cells((b - a).tolist(), h))
    stretch = np.repeat(np.arange(len(a)), ncell)
    q = np.arange(1, len(stretch) + 1) - np.repeat(np.cumsum(ncell) - ncell, ncell)
    return np.concatenate([merged[:1], a[stretch] + (b - a)[stretch] * q / ncell[stretch]])


def wmf_functional(
    s: SampledFunction, m: int, p: float, grid_spec: GridSpec | None = None
) -> FunctionalReport:
    """Sum over k = 0..m of the L^p norms of the sharp maximal functions.

    Each integral uses the composite midpoint rule on the forced-node grid;
    the profiles vanish outside [min E - 1, max E + 1], so the integration
    window is exactly that interval.  Defined for finite p only.
    """
    return wmf_functionals([s], m, p, grid_spec)[0]


def wmf_functionals(sets, m: int, p: float, grid_spec: GridSpec | None = None) -> list[FunctionalReport]:
    """:func:`wmf_functional` of every set, each order's profile one reduction over a run of sets,
    closed once their tables pass ``VARIATIONAL_BUDGET`` rows: laid end to end, coordinates as they are,
    table and node-run indices offset by the samples before and nodes by the nodes before, so
    every value is the exact maximum of the single call."""
    if p == math.inf:
        raise UnsupportedError("the sharp-maximal criterion is defined for finite p only")
    if not p > 1:
        raise InvalidInputError(f"p must lie in (1, inf), got {p}")
    values, group, rows = [], [], 0
    for i, s in enumerate(sets):
        edges = grid_edges(s, grid_spec)
        _check_args(s, m, 0)
        table = subset_differences(s.points, s.values, m)
        group.append((np.asarray(s.points), np.diff(edges), table, _nodes(s, 0.5 * (edges[:-1] + edges[1:]))))
        rows += sum(len(W) for W, *_ in table)
        if i + 1 < len(sets) and rows <= VARIATIONAL_BUDGET:
            continue
        starts, cuts = (list(itertools.accumulate((len(g[j]) for g in group), initial=0)) for j in (0, 1))
        # the nodes' (order, xsort, first, end): order offset by the nodes before, the sample runs by the samples before
        nodes = [join(a, o) for a, o in zip(zip(*(g[3] for g in group)), (cuts, [0] * len(cuts), starts, starts))]
        pts, totals = join([g[0] for g in group]), [0.0] * len(group)
        for k in range(m + 1):
            W, D = join([g[2][k][0] for g in group], starts), join([g[2][k][1] for g in group])
            out = _profile(pts, (W, D), k == m, nodes)
            for j, g in enumerate(group):
                totals[j] += _power_sum(g[1], out[cuts[j] : cuts[j + 1]], p)
        values += totals
        group, rows = [], 0
    return [FunctionalReport(m, p, v, "sharp_maximal", effective_order(s, m)) for s, v in zip(sets, values)]
