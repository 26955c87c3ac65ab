"""Trace-norm functionals on finite sample sets.

Two families are computed.  Sequence forms run over consecutive windows of
the data; variational forms take the exact supremum over all strictly
increasing subsequences.  The finite-p inhomogeneous one is a longest path
whose states are the last m chosen indices, over the array table of
differences on every index subset of at most m+1 points
(:func:`subset_differences`, which the sharp profiles share), within
:func:`variational_feasible`.  The others are sequence forms, as a divided
difference over any k+1 points is a convex combination of the window
differences in their hull (de Boor): the window maxima at p = inf, and by
Jensen's inequality the homogeneous sequence form at every p.  Homogeneous
variants keep only the top-order term with the plain gap weight.  Every power
sum, here and in the sharp-maximal functional, is one :func:`_power_sum`: numpy's
elementwise power, a correctly rounded ``math.fsum`` and a NumericalFailureError
for a result that is not finite.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .divdiff import divided_difference_rows
from .errors import HypothesisViolationError, InvalidInputError, NumericalFailureError, SizeCapError, _check_order
from .samples import SampledFunction

#: Most divided differences a subset enumeration (finite-p variational_functional, sharp profiles)
#: computes, one per index subset of at most m+1 points.  At the budget a variational form takes
#: 0.04-0.06 s and 20 MB; wmf_functional 0.2-0.8 s on GridSpec(0.05), 7-37 s near 9e5 cells, 40-55 MB.
VARIATIONAL_BUDGET = 250_000


@dataclass(frozen=True)
class FunctionalReport:
    """A computed functional value plus the conventions it was computed under."""

    m: int
    p: float
    value: float
    kind: str
    effective_order: int


def _check_mp(m: int, p: float) -> None:
    _check_order(m, 1)
    if p != math.inf and not p > 1:
        raise InvalidInputError(f"p must lie in (1, inf], got {p}")


def _power_sum(weights, diffs, p: float) -> float:
    """(sum weights |diffs|^p)^(1/p), the sum correctly rounded by ``math.fsum``, or max |diffs|
    at p = inf; a result that is not finite raises NumericalFailureError."""
    if p == math.inf:
        value = float(np.abs(diffs).max())
    else:
        try:
            with np.errstate(over="ignore"):  # refused below, as a non-finite value
                value = math.fsum((weights * np.abs(diffs) ** p).tolist()) ** (1.0 / p)
        except OverflowError:  # finite terms whose sum passes the float range
            value = math.inf
    if math.isfinite(value):
        return value
    if p == math.inf:
        raise NumericalFailureError("a divided difference overflows a float; rescale the values")
    raise NumericalFailureError(f"a power sum at p = {p} overflows a float; rescale the values or lower p")


def effective_order(s: SampledFunction, m: int) -> int:
    return min(m, len(s) - 1)


def sequence_functional(s: SampledFunction, m: int, p: float) -> FunctionalReport:
    """Weighted consecutive-window functional of the data.

    For finite p this is the 1/p-th power of the double sum over orders
    k = 0..min(m, n) and consecutive windows, each term carrying the weight
    min(1, x_{i+m} - x_i) with weight exactly 1 once i+m exceeds the last
    index.  For p = inf it is the plain maximum of |D^k f| over the same
    windows.
    """
    _check_mp(m, p)
    M = effective_order(s, m)
    x = np.asarray(s.points)
    rows = divided_difference_rows(x, s.values, M)
    # min(1, x_{i+m} - x_i); the gap counts as +inf once i+m runs past the end
    gap = np.minimum(1.0, np.concatenate([x[m:], np.full(min(m, len(x)), np.inf)]) - x)
    weights = np.concatenate([gap[: len(row)] for row in rows])
    return FunctionalReport(m, p, _power_sum(weights, np.concatenate(rows), p), "sequence", M)


def variational_feasible(n_points: int, m: int) -> bool:
    """Whether the finite-p :func:`variational_functional` and the sharp profiles accept
    ``n_points`` points at order m: whether the divided differences they compute, one per
    index subset of 1..min(m+1, n_points) points, number at most :data:`VARIATIONAL_BUDGET`."""
    counts = itertools.accumulate(math.comb(n_points, j) for j in range(1, min(m + 1, n_points) + 1))
    return all(count <= VARIATIONAL_BUDGET for count in counts)


def require_feasible(n_points: int, m: int) -> None:
    """Raise SizeCapError unless :func:`variational_feasible`, for every subset enumeration."""
    if not variational_feasible(n_points, m):
        raise SizeCapError(
            f"{n_points} points at m = {m} need more than {VARIATIONAL_BUDGET} divided "
            "differences, one per index subset of at most m+1 points, for the finite-p "
            "inhomogeneous variational form or a sharp profile; use the sequence functional, which is "
            "equivalent up to a constant depending only on m, or p = inf, which enumerates nothing"
        )


@functools.lru_cache(maxsize=1)
def subset_differences(points, values, k: int) -> tuple[tuple[np.ndarray, ...], ...]:
    """One entry (W, D, lo, hi) per order j = 0..k: the (j+1)-point index subsets W in
    lexicographic order, one per row, which lists the children W + (last,) of each row of order
    j-1 in turn; their differences D f[W] by the recurrence of :func:`divided_difference_rows`,
    so bit-identical to it; and (j >= 1) the rows of W[:, :-1] and W[:, 1:] in order j-1.
    The last table is kept, read-only, for the next call on the same sample tuples, so every
    consumer of a set shares one: order j of the order-k table is the order-j table.  Keys
    compare as tuples, so 0.0 and -0.0 share one, which moves only signs of zero in D."""
    pts, n = np.asarray(points, dtype=float), len(points)
    table = [(np.arange(n)[:, None], np.asarray(values, dtype=float), None, None)]
    for _ in range(k):
        W, D, _, hi = table[-1]
        counts = n - 1 - W[:, -1]
        lo, first = np.repeat(np.arange(len(W)), counts), np.cumsum(counts) - counts
        sibling = np.arange(len(lo)) - first[lo]
        last = W[lo, -1] + 1 + sibling
        # W[1:] + (last,) is child `sibling` of the row of W[1:] in order j-2
        hi = last if W.shape[1] == 1 else first_child[hi[lo]] + sibling
        first_child = first
        table.append((np.column_stack([W[lo], last]), (D[hi] - D[lo]) / (pts[last] - pts[W[lo, 0]]), lo, hi))
    for a in itertools.chain.from_iterable(table):
        if a is not None:
            a.setflags(write=False)
    return tuple(table)


def _best_subsequence(s: SampledFunction, m: int, table, term: np.ndarray, tail: np.ndarray) -> SampledFunction:
    """The increasing subsequence of at least m+1 samples maximising the sum of ``term`` over
    its windows of m+1 consecutive elements (rows of table[m]) plus ``tail`` of its last m
    indices (rows of table[m-1]).  A longest path, one first index i at a time: windows from i
    read states starting at i, final by then, and write later ones, once per step, earlier
    steps winning ties.  Paths start at states starting at 0; step 0 reaches all the others,
    so the first maximal one in lexicographic order is the first reached."""
    W, _, lo, hi = table[m]
    steps = np.searchsorted(W[:, 0], np.arange(len(s) - m + 1))
    best, back = np.where(table[m - 1][0][:, 0] == 0, 0.0, -np.inf), np.full(len(tail), -1)
    for i in range(len(s) - m):
        w = np.arange(steps[i], steps[i + 1])
        value = best[lo[w]] + term[w]
        w = w[value > best[hi[w]]]
        best[hi[w]], back[hi[w]] = value[w - steps[i]], w
    path = list(table[m - 1][0][state := np.argmax(np.where(back >= 0, best + tail, -np.inf))])
    while back[state] >= 0:
        path.insert(0, W[back[state], 0])
        state = lo[back[state]]
    return SampledFunction(tuple(s.points[j] for j in path), tuple(s.values[j] for j in path))


def variational_functional(s: SampledFunction, m: int, p: float) -> FunctionalReport:
    """Exact supremum of the weighted sum over all increasing subsequences.

    Finite p: every subsequence of length >= m+1 competes with the same
    weighted double sum as the sequence functional, weights and the +inf
    convention applied within the subsequence.  p = inf: supremum of |D^k f|
    over all (k+1)-point subsets for k = 0..m, the p = inf sequence functional.

    Finite p is a longest path over windows of m+1 consecutive subsequence
    elements, each worth min(1, gap) sum_k |D^k f|^p on its first k+1 points,
    plus weight-1 terms on the last m; the best subsequence's value is its
    sequence functional.  Sets failing :func:`variational_feasible` raise :class:`SizeCapError`.
    """
    _check_mp(m, p)
    if p == math.inf:
        return replace(sequence_functional(s, m, p), kind="variational")
    require_feasible(len(s), m)
    if len(s) < m + 1:
        raise HypothesisViolationError(f"the variational functional for finite p needs at least m+1 = {m + 1} points, "
                                       f"got {len(s)}; route small sets through the max-of-differences small-set functional")
    table = subset_differences(s.points, s.values, m)
    with np.errstate(over="ignore"):  # an overflowing sum wins the path, and its sequence functional refuses it
        prefix = [np.abs(table[0][1]) ** p]  # sum of |D^k f|^p on the first k+1 points of S
        for _, d, lo, _ in table[1:]:
            prefix.append(prefix[-1][lo] + np.abs(d) ** p)
        tail, at = prefix[m - 1].copy(), np.arange(len(prefix[m - 1]))
        for j in range(m - 1, 0, -1):  # add the prefix of state[a:], a = 1..m-1, in order j - 1
            tail += prefix[j - 1][at := table[j][3][at]]
        W, pts = table[m][0], np.asarray(s.points)
        sub = _best_subsequence(s, m, table, np.minimum(1.0, pts[W[:, -1]] - pts[W[:, 0]]) * prefix[m], tail)
    return FunctionalReport(m, p, sequence_functional(sub, m, p).value, "variational", m)


def homogeneous_sequence_functional(s: SampledFunction, m: int, p: float) -> FunctionalReport:
    """Top-order consecutive-window functional with plain gap weights:
    (sum_i (x_{i+m} - x_i) |D^m f[x_i..x_{i+m}]|^p)^{1/p}, or the sup of
    |D^m f| over consecutive windows for p = inf."""
    _check_mp(m, p)
    if len(s) < m + 1:
        raise HypothesisViolationError(f"need at least m+1 = {m + 1} points for the top-order functional, got {len(s)}")
    x = np.asarray(s.points)
    value = _power_sum(x[m:] - x[:-m], divided_difference_rows(x, s.values, m)[m], p)
    return FunctionalReport(m, p, value, "homogeneous_sequence", m)


def homogeneous_variational_functional(s: SampledFunction, m: int, p: float) -> FunctionalReport:
    """Supremum of (sum_j (y_{j+m} - y_j) |D^m f[y_j..y_{j+m}]|^p)^{1/p} over increasing
    subsequences y of at least m+1 points (of |D^m f| at p = inf): at every p the
    :func:`homogeneous_sequence_functional`, since adding points never lowers the sum.

    Proof: by knot insertion (Boehm, CAD 12, 1980; de Boor, A Practical Guide to Splines) the
    B-spline N^y_j on y_j..y_{j+m} is sum_i b_ji N_i over the data windows in its hull, with
    b_ji >= 0 and sum_j b_ji <= 1.  By Peano, D^m f[y_j..] = sum_i a_ji d_i, d_i = D^m f[x_i..x_{i+m}],
    a convex combination with a_ji = b_ji (x_{i+m} - x_i) / (y_{j+m} - y_j); by Jensen then
    sum_j (y_{j+m} - y_j) |D^m f[y_j..]|^p <= sum_i (x_{i+m} - x_i) |d_i|^p sum_j b_ji.
    """
    return replace(homogeneous_sequence_functional(s, m, p), kind="homogeneous_variational")


def small_set_functional(s: SampledFunction, m: int, p: float) -> FunctionalReport:
    """Max of |D^k f| over consecutive windows, for sets of at most m points.

    On such sets all the trace functionals collapse, up to constants depending
    only on m, to this single maximum, so it serves as the equivalence-class
    representative.  The value does not depend on p: it is the p = inf
    :func:`sequence_functional`, reported under its own kind.
    """
    _check_mp(m, p)
    if len(s) > m:
        raise InvalidInputError(
            f"the small-set functional applies to at most m = {m} points, got {len(s)}"
        )
    value = sequence_functional(s, m, math.inf).value
    return FunctionalReport(m, p, value, "small_set_max", len(s) - 1)


def pad_small_set(s: SampledFunction, m: int) -> SampledFunction:
    """Grow a set of n+1 <= m points to exactly m+1 by appending zero samples.

    The new coordinates continue past the right end with spacing 2:
    x_k = x_n + 2(k - n) for k = n+1..m, each carrying the value 0.
    """
    _check_order(m, 1)
    n = len(s) - 1
    if len(s) > m:
        raise InvalidInputError(
            f"padding applies to at most m = {m} points, got {len(s)}"
        )
    extra_pts = tuple(s.points[n] + 2.0 * (k - n) for k in range(n + 1, m + 1))
    extra_vals = (0.0,) * (m - n)
    return SampledFunction(s.points + extra_pts, s.values + extra_vals)
