"""Trace-norm functionals on finite sample sets.

Two families are computed.  Sequence forms run over consecutive windows of
the data; variational forms take the exact supremum over all strictly
increasing subsequences, as a longest path whose states are the last m
chosen indices, within the cost rule :func:`variational_feasible`.
Homogeneous variants keep only the top-order term with the plain gap weight.
p = inf is a distinct code path, never a large-p approximation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .divdiff import divided_difference_rows
from .errors import HypothesisViolationError, InvalidInputError, SizeCapError
from .samples import SampledFunction

#: Most divided differences a subset enumeration (variational forms, sharp profiles) computes,
#: one per index subset of at most m+1 points.  At the budget a variational form takes about
#: 1 s and 40 MB; wmf_functional 0.7-0.9 s on GridSpec(0.05), 5-27 s near 9e5 cells, 80-90 MB.
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
    if m < 1:
        raise InvalidInputError(f"m must be a positive integer, got {m}")
    if p != math.inf and not p > 1:
        raise InvalidInputError(f"p must lie in (1, inf], got {p}")


def abs_pow(x: float, p: float) -> float:
    """|x|^p via exp(p*log|x|), with a zero short-circuit (supports fractional p)."""
    if x == 0.0:
        return 0.0
    return math.exp(p * math.log(abs(x)))


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
    pts, n = s.points, len(s) - 1
    rows = divided_difference_rows(pts, s.values, M)
    if p == math.inf:
        value = 0.0
        for k in range(M + 1):
            for entry in rows[k]:
                value = max(value, abs(entry))
        return FunctionalReport(m, p, value, "sequence", M)
    # deterministic accumulation order: k ascending, then i ascending
    total = 0.0
    for k in range(M + 1):
        row = rows[k]
        for i in range(n - k + 1):
            # min(1, x_{i+m} - x_i); the gap counts as +inf once i+m runs past the end
            weight = 1.0 if i + m > n else min(1.0, pts[i + m] - pts[i])
            total += weight * abs_pow(row[i], p)
    return FunctionalReport(m, p, total ** (1.0 / p), "sequence", M)


def variational_feasible(n_points: int, m: int) -> bool:
    """Whether the variational forms accept ``n_points`` points at order m:
    whether the divided differences they compute, one per index subset of
    1..min(m+1, n_points) points, number at most :data:`VARIATIONAL_BUDGET`."""
    counts = itertools.accumulate(math.comb(n_points, j) for j in range(1, min(m + 1, n_points) + 1))
    return all(count <= VARIATIONAL_BUDGET for count in counts)


def require_feasible(n_points: int, m: int) -> None:
    """Raise SizeCapError unless :func:`variational_feasible`, for every subset enumeration."""
    if not variational_feasible(n_points, m):
        raise SizeCapError(
            f"{n_points} points at m = {m} need more than {VARIATIONAL_BUDGET} divided "
            "differences, one per index subset of at most m+1 points; use the sequence "
            "functional, which is equivalent up to a constant depending only on m"
        )


def _variational_guard(s: SampledFunction, m: int, p: float) -> None:
    require_feasible(len(s), m)
    if p != math.inf and len(s) < m + 1:
        raise HypothesisViolationError(
            f"the variational functional for finite p needs at least m+1 = {m + 1} "
            f"points, got {len(s)}; route small sets through the max-of-differences "
            "small-set functional instead"
        )


def subset_differences(points, values, k: int):
    """(table, top): ``table`` maps each index subset S of at most k points to
    D f[S]; ``top`` yields (W, D^k f[W]) for each (k+1)-point index tuple W in
    lexicographic order, unstored.  Both follow the recurrence of
    :func:`divided_difference_rows`, so they are bit-identical to it."""
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


def _best_subsequence(s: SampledFunction, m: int, terms, tail) -> SampledFunction:
    """The increasing subsequence of at least m+1 samples maximising the sum of
    ``terms`` over its windows of m+1 consecutive elements plus ``tail`` of its
    last m indices.  ``terms`` yields (W, term) for each (m+1)-point index
    window W in lexicographic order, so windows into a state precede those out."""
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


def variational_functional(s: SampledFunction, m: int, p: float) -> FunctionalReport:
    """Exact supremum of the weighted sum over all increasing subsequences.

    Finite p: every subsequence of length >= m+1 competes with the same
    weighted double sum as the sequence functional, weights and the +inf
    convention applied within the subsequence.  p = inf: supremum of |D^k f|
    over all (k+1)-point subsets for k = 0..m.

    Finite p is a longest path over windows of m+1 consecutive subsequence
    elements, each worth min(1, gap) sum_k |D^k f|^p on its first k+1 points,
    plus weight-1 terms on the last m; the best subsequence's value is its
    sequence functional.  Sets failing :func:`variational_feasible` raise :class:`SizeCapError`.
    """
    _check_mp(m, p)
    _variational_guard(s, m, p)
    pts, vals = s.points, s.values
    M = effective_order(s, m)
    table, top = subset_differences(pts, vals, M)
    if p == math.inf:
        value = max(map(abs, itertools.chain(table.values(), (d for _, d in top))))
        return FunctionalReport(m, p, value, "variational", M)
    prefix: dict[tuple[int, ...], float] = {}  # sum of |D^k f|^p on the first k+1 points of S
    for S, d in table.items():
        prefix[S] = prefix.get(S[:-1], 0.0) + abs_pow(d, p)
    terms = ((w, min(1.0, pts[w[-1]] - pts[w[0]]) * (prefix[w[:-1]] + abs_pow(d, p))) for w, d in top)
    sub = _best_subsequence(s, m, terms, lambda state: sum(prefix[state[a:]] for a in range(m)))
    return FunctionalReport(m, p, sequence_functional(sub, m, p).value, "variational", M)


def homogeneous_sequence_functional(s: SampledFunction, m: int, p: float) -> FunctionalReport:
    """Top-order consecutive-window functional with plain gap weights:
    (sum_i (x_{i+m} - x_i) |D^m f[x_i..x_{i+m}]|^p)^{1/p}, or the sup of
    |D^m f| over consecutive windows for p = inf."""
    _check_mp(m, p)
    if len(s) < m + 1:
        raise HypothesisViolationError(
            f"need at least m+1 = {m + 1} points for the top-order functional, got {len(s)}"
        )
    pts, vals = s.points, s.values
    n = len(pts) - 1
    row = divided_difference_rows(pts, vals, m)[m]
    if p == math.inf:
        value = max(abs(entry) for entry in row)
        return FunctionalReport(m, p, value, "homogeneous_sequence", m)
    total = 0.0
    for i in range(n - m + 1):
        total += (pts[i + m] - pts[i]) * abs_pow(row[i], p)
    return FunctionalReport(m, p, total ** (1.0 / p), "homogeneous_sequence", m)


def homogeneous_variational_functional(s: SampledFunction, m: int, p: float) -> FunctionalReport:
    """Supremum of the top-order weighted sum over increasing subsequences
    (finite p, a longest path with window terms gap |D^m f|^p and no tail), or
    of |D^m f| over all (m+1)-point subsets (p = inf)."""
    _check_mp(m, p)
    if len(s) < m + 1:
        raise HypothesisViolationError(
            f"need at least m+1 = {m + 1} points, got {len(s)}"
        )
    _variational_guard(s, m, p)
    pts = s.points
    _, top = subset_differences(pts, s.values, m)
    if p == math.inf:
        return FunctionalReport(m, p, max(abs(d) for _, d in top), "homogeneous_variational", m)
    terms = ((w, (pts[w[-1]] - pts[w[0]]) * abs_pow(d, p)) for w, d in top)
    value = homogeneous_sequence_functional(_best_subsequence(s, m, terms, lambda _: 0.0), m, p).value
    return FunctionalReport(m, p, value, "homogeneous_variational", m)


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
    if m < 1:
        raise InvalidInputError(f"m must be a positive integer, got {m}")
    n = len(s) - 1
    if len(s) > m:
        raise InvalidInputError(
            f"padding applies to at most m = {m} points, got {len(s)}"
        )
    extra_pts = tuple(s.points[n] + 2.0 * (k - n) for k in range(n + 1, m + 1))
    extra_vals = (0.0,) * (m - n)
    return SampledFunction(s.points + extra_pts, s.values + extra_vals)
