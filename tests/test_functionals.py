import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sobtrace import (
    GridSpec,
    HypothesisViolationError,
    InvalidInputError,
    NumericalFailureError,
    SampledFunction,
    SizeCapError,
    VARIATIONAL_BUDGET,
    homogeneous_sequence_functional,
    homogeneous_variational_functional,
    pad_small_set,
    sequence_functional,
    small_set_functional,
    variational_feasible,
    variational_functional,
    wmf_functional,
)
from sobtrace.divdiff import divided_difference_rows
from sobtrace.functionals import subset_differences
from sobtrace.sharp import profile_values
from sobtrace.splines import _perm_table
from conftest import make_samples, polynomial_samples
from oracles import (
    abs_pow,
    fresh_dd,
    oracle_homogeneous_variational_sup,
    oracle_longest_path,
    oracle_variational_sup,
)

INF = math.inf

CALIBRATION = json.loads(
    (Path(__file__).parent / "data" / "calibration.json").read_text()
)


# ----------------------------------------------------- independent oracles


def oracle_variational(s, m, p):
    """Recursive include/exclude enumeration of subsequences.

    Per-subsequence sums are correctly rounded, as the library's are, so the
    supremum is bit-for-bit comparable whatever the order of the terms.
    """
    pts, vals = s.points, s.values
    n1 = len(pts)
    best = 0.0

    def evaluate(sub):
        nsub = len(sub) - 1
        terms = []
        for k in range(m + 1):
            for i in range(nsub - k + 1):
                if i + m > nsub:
                    w = 1.0
                else:
                    w = min(1.0, pts[sub[i + m]] - pts[sub[i]])
                terms.append(w * abs_pow(fresh_dd(pts, vals, sub[i : i + k + 1]), p))
        return math.fsum(terms)

    def walk(i, chosen):
        nonlocal best
        if i == n1:
            if len(chosen) >= m + 1:
                best = max(best, evaluate(chosen))
            return
        walk(i + 1, chosen + [i])
        walk(i + 1, chosen)

    walk(0, [])
    return best ** (1.0 / p)


def oracle_homogeneous_variational(s, m, p):
    """Correctly rounded sum of (gap) |D^m f|^p over the windows of every
    subsequence of at least m+1 points; the largest sum."""
    pts, vals = s.points, s.values
    best = 0.0
    for size in range(m + 1, len(pts) + 1):
        for sub in itertools.combinations(range(len(pts)), size):
            terms = []
            for i in range(size - m):
                window = sub[i : i + m + 1]
                gap = pts[window[-1]] - pts[window[0]]
                terms.append(gap * abs_pow(fresh_dd(pts, vals, window), p))
            best = max(best, math.fsum(terms))
    return best ** (1.0 / p)


@st.composite
def dp_cases(draw):
    """(samples, m, p) with m+1 to 10 points.  Values are 0 or at least 1e-3
    in size, so that |value|^p neither underflows nor turns subnormal."""
    m = draw(st.sampled_from((1, 2, 3)))
    n = draw(st.integers(m + 1, 10))
    start = draw(st.floats(-20, 20))
    gaps = draw(st.lists(st.floats(0.01, 3.0), min_size=n - 1, max_size=n - 1))
    pts = list(itertools.accumulate(gaps, initial=start))
    value = st.one_of(st.just(0.0), st.floats(1e-3, 10), st.floats(-10, -1e-3))
    vals = draw(st.lists(value, min_size=n, max_size=n))
    p = draw(st.sampled_from((1.1, 1.5, 2.0, 3.0, INF)))
    return SampledFunction(tuple(pts), tuple(vals)), m, p


# ---------------------------------------------------------------- sequence


def test_sequence_zero_function():
    s = SampledFunction((0.0, 1.0, 5.0), (0.0, 0.0, 0.0))
    assert sequence_functional(s, 2, 2.0).value == 0.0


def test_sequence_hand_instance():
    s = SampledFunction((0.0, 0.5, 3.0), (0.0, 1.0, 1.0))
    r = sequence_functional(s, 1, 2.0)
    assert r.value == pytest.approx(2.0, rel=1e-12)
    assert r.effective_order == 1


def test_sequence_singleton_sup():
    s = SampledFunction((4.0,), (-2.5,))
    for m in (1, 3):
        assert sequence_functional(s, m, INF).value == 2.5


def test_sequence_weight_convention_past_end():
    # with m = 2 every window of a 2-point set runs past the end: weights are
    # exactly 1 even though the data diameter is far below 1
    s = SampledFunction((0.0, 0.1), (3.0, 4.0))
    got = sequence_functional(s, 2, 2.0).value
    d1 = (4.0 - 3.0) / 0.1
    expected = (abs_pow(3.0, 2.0) + abs_pow(4.0, 2.0) + abs_pow(d1, 2.0)) ** 0.5
    assert got == expected


def test_sequence_rejects_bad_p(rng):
    s = make_samples(rng, 4)
    for p in (1.0, 0.5, -2.0):
        with pytest.raises(InvalidInputError):
            sequence_functional(s, 1, p)
    with pytest.raises(InvalidInputError):
        sequence_functional(s, 0, 2.0)


@st.composite
def window_cases(draw):
    """(samples, m, p) with 1 to 30 points, so that sets of at most m points come up, and
    gaps on both sides of 1, so that both weight rules do."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 30))
    start = draw(st.floats(-1e3, 1e3))
    gaps = draw(st.lists(st.floats(0.01, 5.0), min_size=n - 1, max_size=n - 1))
    pts = list(itertools.accumulate(gaps, initial=start))
    vals = draw(st.lists(st.one_of(st.just(0.0), st.floats(-1e3, 1e3)), min_size=n, max_size=n))
    p = draw(st.sampled_from((1.1, 1.5, 2.0, 3.0, 7.0, INF)))
    return SampledFunction(tuple(pts), tuple(vals)), m, p


@given(window_cases())
@settings(max_examples=150, deadline=None)
def test_window_forms_match_definition(case):
    # the consecutive-window forms against their definition, built window by window: each
    # difference by the plain recursion, each weight by its rule, the terms by the same
    # power and the sum correctly rounded, so the values agree exactly
    s, m, p = case
    pts, vals, n = s.points, s.values, len(s) - 1
    dd = [[fresh_dd(pts, vals, range(i, i + k + 1)) for i in range(n - k + 1)] for k in range(min(m, n) + 1)]
    assert [row.tolist() for row in divided_difference_rows(pts, vals, min(m, n))] == dd

    def power_sum(terms):
        if p == INF:
            return max(abs(d) for _, d in terms)
        return math.fsum(w * abs_pow(d, p) for w, d in terms) ** (1.0 / p)

    weight = [1.0 if i + m > n else min(1.0, pts[i + m] - pts[i]) for i in range(n + 1)]
    terms = [(weight[i], d) for row in dd for i, d in enumerate(row)]
    assert sequence_functional(s, m, p).value == power_sum(terms)
    if n >= m:
        terms = [(pts[i + m] - pts[i], d) for i, d in enumerate(dd[m])]
        assert homogeneous_sequence_functional(s, m, p).value == power_sum(terms)


# ------------------------------------------------------------- variational


def test_variational_zero():
    s = SampledFunction((0.0, 1.0, 2.0), (0.0, 0.0, 0.0))
    assert variational_functional(s, 2, 2.0).value == 0.0


def test_variational_single_competitor(rng):
    # with exactly m+1 points the only admissible subsequence is E itself
    for m in (1, 2, 3):
        s = make_samples(rng, m + 1)
        assert (
            variational_functional(s, m, 2.0).value
            == sequence_functional(s, m, 2.0).value
        )


def test_variational_dominates_sequence(rng):
    for _ in range(10):
        s = make_samples(rng, 9, span=6.0)
        v = variational_functional(s, 2, 2.0).value
        t = sequence_functional(s, 2, 2.0).value
        assert v >= t * (1 - 1e-13)


def test_variational_hypothesis_violation(rng):
    s = make_samples(rng, 2)
    with pytest.raises(HypothesisViolationError):
        variational_functional(s, 2, 2.0)
    # p = inf has no such hypothesis
    assert variational_functional(s, 2, INF).value >= 0.0


def test_variational_size_cap(rng):
    # the budget bounds the divided differences computed, one per index
    # subset of at most m+1 points: the subset table and the windows together
    assert VARIATIONAL_BUDGET == 250_000
    assert variational_feasible(706, 1) and not variational_feasible(707, 1)
    assert variational_feasible(49, 3) and not variational_feasible(50, 3)
    # at m near or past n the table holds almost all 2^n subsets
    assert variational_feasible(17, 16) and not variational_feasible(18, 17)
    assert not variational_feasible(30, 29) and not variational_feasible(30, 40)
    s = make_samples(rng, 50, span=80.0)
    with pytest.raises(SizeCapError):
        variational_functional(s, 3, 2.0)
    # the homogeneous variational form is the homogeneous sequence form, which enumerates nothing
    assert homogeneous_variational_functional(s, 3, 2.0).value == homogeneous_sequence_functional(s, 3, 2.0).value
    # p = inf enumerates nothing: the variational forms are the window maxima at any size
    assert variational_functional(s, 3, INF).value == sequence_functional(s, 3, INF).value
    assert (
        homogeneous_variational_functional(s, 3, INF).value
        == homogeneous_sequence_functional(s, 3, INF).value
    )
    # the sharp profiles enumerate the same subsets under the same rule
    with pytest.raises(SizeCapError):
        profile_values(s, 3, 0, [0.0])
    with pytest.raises(SizeCapError):
        wmf_functional(s, 3, 2.0, GridSpec(0.5))
    s = make_samples(rng, 30, span=40.0)
    with pytest.raises(SizeCapError):
        variational_functional(s, 29, 2.0)
    assert homogeneous_variational_functional(s, 29, 2.0).value == homogeneous_sequence_functional(s, 29, 2.0).value
    assert variational_functional(s, 40, INF).value == sequence_functional(s, 40, INF).value
    # the 20-point limit of exhaustive enumeration is gone
    t = make_samples(rng, 25, span=40.0)
    assert variational_functional(t, 2, 2.0).value >= sequence_functional(t, 2, 2.0).value


def test_subset_table_is_kept_shared_and_read_only():
    s = SampledFunction((0.0, 0.7, 2.1, 3.3, 6.0), (0.3, -1.2, 0.8, 0.1, 2.0))
    subset_differences.cache_clear()
    variational_functional(s, 2, 1.5)
    wmf_functional(s, 2, 1.5, GridSpec(0.25))  # reads the variational form's table
    assert subset_differences.cache_info().misses == 1
    table = subset_differences(s.points, s.values, 3)
    for k in range(4):  # order k of a higher-order table is the order-k table
        subset_differences.cache_clear()
        own = subset_differences(s.points, s.values, k)[k]
        assert all(a is b is None or np.array_equal(a, b) for a, b in zip(table[k], own))
    for a in itertools.chain.from_iterable(table):
        if a is not None:
            with pytest.raises(ValueError):
                a[0] = 0
    with pytest.raises(ValueError):
        _perm_table(4)[1, 1] = 0.0


@pytest.mark.parametrize("m,p", [(1, 2.0), (2, 2.0), (2, 1.5), (3, 3.0)])
def test_variational_matches_recursive_oracle(rng, m, p):
    for _ in range(5):
        size = int(rng.integers(m + 1, 10))
        s = make_samples(rng, size, span=5.0)
        assert variational_functional(s, m, p).value == oracle_variational(s, m, p)


def test_variational_sup_matches_recursive_oracle(rng):
    for m in (1, 2):
        for _ in range(5):
            size = int(rng.integers(1, 9))
            s = make_samples(rng, size, span=5.0)
            assert variational_functional(s, m, INF).value == oracle_variational_sup(s, m)


@pytest.mark.parametrize("size, m", [(2, 1), (9, 3), (14, 2), (25, 1), (40, 2)])
def test_longest_path_matches_dict_oracle(size, m):
    # the array longest path against the dict one the library once used; the
    # path's value is its sequence functional, so a path chosen differently
    # would show.  Integer data on a coarse lattice gives exact ties
    rng = np.random.default_rng(size)
    pts = tuple(float(x) for x in np.cumsum(rng.integers(1, 3, size)) * 0.5)
    sets = [make_samples(rng, size, span=10.0), SampledFunction(pts, tuple(float(v) for v in rng.integers(-2, 3, size)))]
    for s in sets:
        windows = list(itertools.combinations(range(size), m + 1))
        for p in (1.1, 1.5, 3.0):
            assert variational_functional(s, m, p).value == oracle_longest_path(s, m, p)
            hom = homogeneous_variational_functional(s, m, p).value
            assert hom == homogeneous_sequence_functional(s, m, p).value
            # a path may drop a point of a collinear run, whose sum ties in exact arithmetic
            assert hom <= oracle_longest_path(s, m, p, True) <= _subsequence_bound(s, m, p, windows)


@given(dp_cases())
@example(
    (SampledFunction((1.0, 1.5, 2.5, 3.0, 4.0), (-2.0, -2.0, 2.0, 1.0, -1.0)), 1, 1.5)
)  # drawn with np.random.default_rng(17) on the half-integer lattice: dropping 3.0 from the
# collinear run 2.5, 3.0, 4.0 ties in exact arithmetic and rounds 1.7e-16 above the full sequence
@settings(max_examples=60, deadline=None)
def test_longest_path_matches_oracles(case):
    s, m, p = case
    var = variational_functional(s, m, p).value
    hom = homogeneous_variational_functional(s, m, p).value
    if p == INF:
        # the enumeration can round above the window maximum the library
        # returns; see test_sup_variational_is_window_maximum
        bound = 4 * np.finfo(float).eps * _rounding_scale(s, m)
        assert 0.0 <= oracle_variational_sup(s, m) - var <= bound
        assert 0.0 <= oracle_homogeneous_variational_sup(s, m) - hom <= bound
    else:
        assert var == pytest.approx(oracle_variational(s, m, p), rel=1e-12, abs=0.0)
        assert hom == homogeneous_sequence_functional(s, m, p).value
        # the oracles take the largest rounded sum, which the full sequence's is one of
        bound = _subsequence_bound(s, m, p, list(itertools.combinations(range(len(s)), m + 1)))
        assert hom <= oracle_longest_path(s, m, p, True) <= bound
        assert hom <= oracle_homogeneous_variational(s, m, p) <= bound


def _subsequence_bound(s, m, p, windows):
    """The most rounding can lift homogeneous_sequence_functional of a subsequence of s,
    whose (m+1)-point windows are among ``windows`` (index tuples), above that of s.  In
    exact arithmetic adding points never lowers the sum (see
    homogeneous_variational_functional), so any excess is rounding, on either side:
    - relative, on a p-th power: a correctly rounded sum (eps / 2) of nonnegative terms,
      each a gap (eps / 2) times numpy's power of |d| (about an ulp) with the product
      rounded (eps / 2): a few eps.  The allowance (n + 2 + 2p |log|d||) eps, made for a
      left-to-right sum of terms exp(p log|d|), is kept; it still covers that;
    - absolute: each difference d lies within 4(m+1) eps of its rounding scale, the sum of
      |f_i / omega'(x_i)| over its window, which cancellation can leave far above |d|.  By
      Minkowski's inequality in the gap-weighted l^p norm that moves a value by at most
      the same multiple of (m span)^(1/p): one subsequence's window gaps sum to at most
      m span."""
    eps, pts, vals = np.finfo(float).eps, s.points, s.values
    log_d = max((abs(math.log(abs(d))) for w in windows if (d := fresh_dd(pts, vals, w))), default=0.0)
    scale = max(sum(abs(vals[i] / math.prod(pts[i] - pts[j] for j in w if j != i)) for i in w) for w in windows)
    rel = 2 * (len(s) + 2 + 2 * p * log_d) * eps
    noise = 2 * 4 * (m + 1) * eps * scale * (m * (pts[-1] - pts[0])) ** (1 / p)
    return homogeneous_sequence_functional(s, m, p).value * (1 + rel) + noise


@st.composite
def subsequence_cases(draw):
    """(samples, m, p, kept) with m+1 to 200 points and the indices ``kept`` of a
    subsequence of at least m+1 of them, often all but a few.  Half the sets lie on the
    half-integer lattice with slopes in -2..2, exact in floating point, where a point
    dropped from a run of equal slopes ties in exact arithmetic."""
    m = draw(st.sampled_from((1, 2, 3)))
    n = draw(st.integers(m + 1, 200))
    if draw(st.booleans()):
        start = draw(st.integers(-40, 40)) * 0.5
        gaps = draw(st.lists(st.sampled_from((0.5, 1.0)), min_size=n - 1, max_size=n - 1))
        slopes = draw(st.lists(st.integers(-2, 2), min_size=n - 1, max_size=n - 1))
        vals = list(itertools.accumulate((a * g for a, g in zip(slopes, gaps)), initial=float(draw(st.integers(-2, 2)))))
    else:
        start = draw(st.floats(-20, 20))
        gaps = draw(st.lists(st.floats(0.01, 3.0), min_size=n - 1, max_size=n - 1))
        value = st.one_of(st.just(0.0), st.floats(1e-3, 10), st.floats(-10, -1e-3))
        vals = draw(st.lists(value, min_size=n, max_size=n))
    pts = list(itertools.accumulate(gaps, initial=start))
    dropped = draw(st.sets(st.integers(0, n - 1), max_size=min(n - m - 1, draw(st.sampled_from((1, 3, n))))))
    p = draw(st.sampled_from((1.1, 1.5, 3.0, 7.0)))
    return SampledFunction(tuple(pts), tuple(vals)), m, p, [i for i in range(n) if i not in dropped]


@given(subsequence_cases())
@settings(max_examples=100, deadline=None)
def test_adding_points_never_lowers_homogeneous_sum(case):
    # the theorem that makes the homogeneous variational form the homogeneous
    # sequence form, checked on one subsequence at a time, with no enumeration
    s, m, p, kept = case
    sub = SampledFunction(tuple(s.points[i] for i in kept), tuple(s.values[i] for i in kept))
    windows = [tuple(range(i, i + m + 1)) for i in range(len(s) - m)]
    windows += [tuple(kept[i : i + m + 1]) for i in range(len(kept) - m)]
    assert homogeneous_sequence_functional(sub, m, p).value <= _subsequence_bound(s, m, p, windows)


def test_homogeneous_variational_is_sequence_past_the_budget():
    s = SampledFunction(tuple(1.5 * i + 0.5 * (i % 3) for i in range(2000)), tuple(math.sin(i) for i in range(2000)))
    assert not variational_feasible(2000, 3)
    report = homogeneous_variational_functional(s, 3, 1.5)
    assert report.kind == "homogeneous_variational"
    assert report.value == homogeneous_sequence_functional(s, 3, 1.5).value


def _rounding_scale(s, m):
    """Largest sum of |y_i / omega'(x_i)| over the index subsets of at most
    m+1 points: the size of the terms each divided difference adds up, which
    bounds its rounding even when it cancels to nothing."""
    return max(
        sum(abs(s.values[i] / math.prod(s.points[i] - s.points[j] for j in S if j != i)) for i in S)
        for size in range(1, m + 2)
        for S in itertools.combinations(range(len(s)), size)
    )


@st.composite
def window_max_cases(draw):
    """(samples, m) with 2-12 points whose values are random or a polynomial
    of degree m or m-1.  On polynomial data many subset differences of the
    top orders tie with the window ones in exact arithmetic, so only rounding
    can set them apart."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(2, 12))
    start = draw(st.floats(-20, 20))
    gaps = draw(st.lists(st.floats(0.01, 3.0), min_size=n - 1, max_size=n - 1))
    pts = list(itertools.accumulate(gaps, initial=start))
    degree = draw(st.sampled_from((m, m - 1, None)))
    if degree is None:
        vals = draw(st.lists(st.floats(-10, 10), min_size=n, max_size=n))
    else:
        coef = draw(st.lists(st.floats(-5, 5), min_size=degree + 1, max_size=degree + 1))
        vals = np.polyval(coef, pts).tolist()
    return SampledFunction(tuple(pts), tuple(vals)), m


@given(window_max_cases())
@example(
    (
        SampledFunction(
            (-0.7938456937481035, 2.1565771624771535, 3.3041776181560967, 5.598252374318535),
            (0.48724596373259044, 1.3001322149926255, 1.6163135482523154, 2.248365941932928),
        ),
        2,
    )
)  # linear data: one 3-point subset difference rounds above every window's
@settings(max_examples=150, deadline=None)
def test_sup_variational_is_window_maximum(case):
    # every subset difference is a convex combination of the window differences
    # in its hull, so the p = inf suprema are the window maxima, bit for bit,
    # and the enumeration exceeds them by rounding only
    s, m = case
    bound = 4 * np.finfo(float).eps * _rounding_scale(s, m)
    forms = [(variational_functional, sequence_functional, oracle_variational_sup)]
    if len(s) >= m + 1:
        forms.append(
            (homogeneous_variational_functional, homogeneous_sequence_functional, oracle_homogeneous_variational_sup)
        )
    for func, window, oracle in forms:
        value = func(s, m, INF).value
        assert value == window(s, m, INF).value
        assert 0.0 <= oracle(s, m) - value <= bound


@given(dp_cases(), st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3)))
@example(
    (SampledFunction((0.0, 1.8374469167347898, 3.6748938334695795, 5.51234075020437), (-1.0, 0.0, 0.0, -1.0)), 3, 1.1),
    5.0,
)  # the top differences cancel to rounding noise of about 1e-17
@settings(max_examples=60, deadline=None)
def test_variational_value_scaling(case, c):
    s, m, p = case
    scaled = s.scaled_values(c)
    noise = 1e-12 * abs(c) * _rounding_scale(s, m)
    for func in (variational_functional, homogeneous_variational_functional):
        base = func(s, m, p).value
        assert func(scaled, m, p).value == pytest.approx(abs(c) * base, rel=1e-12, abs=noise)


_HOMOGENEOUS = (homogeneous_sequence_functional, homogeneous_variational_functional)


@pytest.mark.parametrize(
    "values, p, wmf_p",
    [
        ((10.0, -20.0, 5.0, 30.0), 400.0, 250.0),
        ((1e200, -2e200, 5e199, 3e200), 2.0, 2.0),
        # every term is finite, 1.69e308, but not their sum, which math.fsum refuses with a bare OverflowError
        ((1.3e154,) * 4, 2.0, 2.0),
    ],
)
def test_power_sum_overflow_is_typed(values, p, wmf_p):
    # a power sum past the float range is refused, not returned as inf; the suite
    # turns a leaked numpy RuntimeWarning into an error
    s = SampledFunction((0.0, 1.0, 2.0, 3.5), values)
    for func in (sequence_functional, variational_functional) + _HOMOGENEOUS:
        if func in _HOMOGENEOUS and len(set(values)) == 1:
            assert func(s, 1, p).value == 0.0  # constant data: every first difference is 0
            continue
        with pytest.raises(NumericalFailureError, match="overflows"):
            func(s, 1, p)
    with pytest.raises(NumericalFailureError, match="overflows"):
        wmf_functional(s, 1, wmf_p, GridSpec(0.05))
    # just inside the float range the value is the power sum as before
    t = SampledFunction((0.0, 1.0), (0.0, 1e153))
    assert sequence_functional(t, 1, 2.0).value == (2 * abs_pow(1e153, 2.0)) ** 0.5


def test_sup_overflow_is_typed():
    # at p = inf a divided difference past the float range is refused, with no advice to lower p
    s = SampledFunction((0.0, 0.5, 1.0), (1e308, -1e308, 1e308))
    cases = [(sequence_functional, 1), (sequence_functional, 2), (small_set_functional, 3)]
    cases += [(func, m) for func in (variational_functional,) + _HOMOGENEOUS for m in (1, 2)]
    for func, m in cases:
        with pytest.raises(NumericalFailureError, match="overflows") as info:
            func(s, m, INF)
        assert "lower p" not in str(info.value)


# ------------------------------------------------------------- homogeneous


def test_homogeneous_annihilates_low_degree(rng):
    for m in (1, 2, 3):
        s, _ = polynomial_samples(rng, m - 1, m + 3)
        scale = 1 + max(abs(v) for v in s.values)
        assert homogeneous_sequence_functional(s, m, 2.0).value <= 1e-10 * scale


def test_homogeneous_hand_instance():
    s = SampledFunction((0.0, 1.0, 3.0), (0.0, 1.0, 1.0))
    assert homogeneous_sequence_functional(s, 1, 2.0).value == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(HypothesisViolationError, match="m\\+1 = 4"):  # the top order needs m+1 points
        homogeneous_sequence_functional(s, 3, 2.0)


def test_homogeneous_polynomial_shift_invariance(rng):
    for m in (1, 2, 3):
        s = make_samples(rng, m + 4)
        _, coeffs = polynomial_samples(rng, m - 1, m)  # just for random coefficients
        import numpy as np

        shift = np.polynomial.polynomial.polyval(np.array(s.points), coeffs)
        shifted = SampledFunction(s.points, tuple(v + d for v, d in zip(s.values, shift)))
        a = homogeneous_sequence_functional(s, m, 2.0).value
        b = homogeneous_sequence_functional(shifted, m, 2.0).value
        assert b == pytest.approx(a, rel=1e-7, abs=1e-9)


def test_homogeneous_variational_zero_and_dominates(rng):
    s = SampledFunction((0.0, 1.0, 2.0), (0.0, 0.0, 0.0))
    assert homogeneous_variational_functional(s, 1, 2.0).value == 0.0
    for _ in range(5):
        t = make_samples(rng, 8, span=6.0)
        hv = homogeneous_variational_functional(t, 2, 2.0).value
        hs = homogeneous_sequence_functional(t, 2, 2.0).value
        assert hv >= hs * (1 - 1e-13)


def test_homogeneous_variational_m1_equals_sequence(rng):
    # splitting a gap only increases the weighted sum when m = 1, so the full
    # sequence attains the supremum
    for _ in range(10):
        size = int(rng.integers(2, 9))
        s = make_samples(rng, size, span=5.0)
        hv = homogeneous_variational_functional(s, 1, 2.0).value
        hs = homogeneous_sequence_functional(s, 1, 2.0).value
        assert hv == hs


# ---------------------------------------------------------------- small set


def test_small_set_single_point():
    s = SampledFunction((7.0,), (-3.0,))
    assert small_set_functional(s, 2, 2.0).value == 3.0


def test_small_set_two_points():
    s = SampledFunction((0.0, 1.0), (0.0, 1.0))
    r = small_set_functional(s, 2, 2.0)
    assert r.value == 1.0
    assert r.effective_order == 1


def test_small_set_matches_sup_sequence(rng):
    for m in (2, 3, 4):
        for _ in range(5):
            size = int(rng.integers(1, m + 1))
            s = make_samples(rng, size)
            assert (
                small_set_functional(s, m, 2.0).value
                == sequence_functional(s, m, INF).value
            )


def test_small_set_rejects_large(rng):
    s = make_samples(rng, 4)
    with pytest.raises(InvalidInputError):
        small_set_functional(s, 2, 2.0)


# ----------------------------------------------------------------- padding


def test_pad_example():
    s = SampledFunction((5.0,), (1.0,))
    padded = pad_small_set(s, 2)
    assert padded.points == (5.0, 7.0, 9.0)
    assert padded.values == (1.0, 0.0, 0.0)


def test_pad_rejects_full_sets(rng):
    s = make_samples(rng, 3)
    with pytest.raises(InvalidInputError):
        pad_small_set(s, 2)
    with pytest.raises(InvalidInputError):
        pad_small_set(SampledFunction((0.0,), (1.0,)), 0)


def test_pad_shape(rng):
    for m in (1, 2, 3, 4):
        for _ in range(5):
            size = int(rng.integers(1, m + 1))
            s = make_samples(rng, size)
            padded = pad_small_set(s, m)
            assert len(padded) == m + 1
            gaps = [b - a for a, b in zip(padded.points, padded.points[1:])]
            assert all(g > 0 for g in gaps)
            assert all(abs(g - 2.0) < 1e-12 for g in gaps[size - 1 :])
            assert padded.values[size:] == (0.0,) * (m + 1 - size)


def test_padding_consistency_band(rng):
    # calibrated corpus bound: the padded sequence functional is controlled by
    # the small-set maximum, uniformly over the corpus
    for m in (1, 2, 3, 4):
        bound = CALIBRATION["padding_B"][str(m)]
        for _ in range(10):
            size = int(rng.integers(1, m + 1))
            s = make_samples(rng, size)
            small = small_set_functional(s, m, 2.0).value
            padded_val = sequence_functional(pad_small_set(s, m), m, 2.0).value
            assert padded_val <= bound * small * (1 + 1e-9) + 1e-12
            # and the sup over windows inside E is always reached
            assert sequence_functional(pad_small_set(s, m), m, INF).value >= small


# ------------------------------------------------------ cross-functionals


def test_sequence_below_variational(rng):
    for _ in range(10):
        size = int(rng.integers(3, 10))
        s = make_samples(rng, size, span=4.0)
        m = int(rng.integers(1, min(3, size - 1) + 1))
        assert (
            sequence_functional(s, m, 2.0).value
            <= variational_functional(s, m, 2.0).value * (1 + 1e-13)
        )


def test_term_bracketing(rng):
    # largest single weighted term <= value <= (#terms)^(1/p) * largest term
    for _ in range(10):
        s = make_samples(rng, 7)
        m, p = 2, 2.5
        n = len(s) - 1
        rows = divided_difference_rows(s.points, s.values, min(m, n))
        terms = []
        for k in range(min(m, n) + 1):
            for i in range(n - k + 1):
                w = min(1.0, s.points[i + m] - s.points[i]) if i + m <= n else 1.0
                terms.append(w * abs_pow(rows[k][i], p))
        value = sequence_functional(s, m, p).value
        top = max(terms) ** (1 / p)
        assert top <= value * (1 + 1e-12)
        assert value <= (len(terms) ** (1 / p)) * top * (1 + 1e-12)


@given(st.floats(-20, 20))
@settings(max_examples=50, deadline=None)
def test_absolute_homogeneity(alpha):
    s = SampledFunction((0.0, 0.4, 1.1, 3.0), (1.0, -0.5, 2.0, 0.25))
    scaled = s.scaled_values(alpha)
    for func, m, p in (
        (sequence_functional, 2, 2.0),
        (sequence_functional, 1, INF),
        (homogeneous_sequence_functional, 2, 1.5),
        (variational_functional, 1, 2.0),
    ):
        base = func(s, m, p).value
        got = func(scaled, m, p).value
        assert got == pytest.approx(abs(alpha) * base, rel=1e-9, abs=1e-12)


@st.composite
def dyadic_translates(draw):
    """(samples, translate, m, p): points k 2^-6 with |k| <= 2^12 and the same
    set moved by an integer c with |c| <= 1e8.  Every moved point and every
    gap is exact in binary, so no functional can tell the two sets apart."""
    ks = sorted(draw(st.lists(st.integers(-(2**12), 2**12), min_size=1, max_size=9, unique=True)))
    pts = tuple(k / 64 for k in ks)
    vals = tuple(draw(st.lists(st.floats(-10, 10), min_size=len(pts), max_size=len(pts))))
    c = draw(st.integers(-(10**8), 10**8))
    m = draw(st.integers(1, 3))
    p = draw(st.sampled_from((1.5, 2.0, 3.0, INF)))
    return SampledFunction(pts, vals), SampledFunction(tuple(x + c for x in pts), vals), m, p


@given(dyadic_translates())
@settings(max_examples=100, deadline=None)
def test_translation_invariance(case):
    s, moved, m, p = case
    funcs = [sequence_functional]
    if p == INF or len(s) >= m + 1:
        funcs.append(variational_functional)
    if len(s) >= m + 1:
        funcs += [homogeneous_sequence_functional, homogeneous_variational_functional]
    else:
        funcs.append(small_set_functional)
    for func in funcs:
        assert func(moved, m, p) == func(s, m, p)
