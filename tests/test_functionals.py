import itertools
import json
import math
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sobtrace import (
    GridSpec,
    HypothesisViolationError,
    InvalidInputError,
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
from sobtrace.functionals import abs_pow
from sobtrace.sharp import profile_values
from conftest import make_samples, polynomial_samples

INF = math.inf

CALIBRATION = json.loads(
    (Path(__file__).parent / "data" / "calibration.json").read_text()
)


# ----------------------------------------------------- independent oracles


def _fresh_dd(pts, vals, idx):
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


def oracle_variational(s, m, p):
    """Recursive include/exclude enumeration of subsequences.

    Per-subsequence sums follow the same accumulation order as the library
    (orders ascending, windows left to right) so that the supremum is
    bit-for-bit comparable.
    """
    pts, vals = s.points, s.values
    n1 = len(pts)
    best = 0.0

    def evaluate(sub):
        nsub = len(sub) - 1
        total = 0.0
        for k in range(m + 1):
            for i in range(nsub - k + 1):
                if i + m > nsub:
                    w = 1.0
                else:
                    w = min(1.0, pts[sub[i + m]] - pts[sub[i]])
                total += w * abs_pow(_fresh_dd(pts, vals, sub[i : i + k + 1]), p)
        return total

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


def oracle_variational_sup(s, m):
    pts, vals = s.points, s.values
    n1 = len(pts)
    best = 0.0
    limit = min(m, n1 - 1) + 1

    def walk(i, chosen):
        nonlocal best
        if len(chosen) >= 1 and len(chosen) <= limit:
            best = max(best, abs(_fresh_dd(pts, vals, chosen)))
        if i == n1 or len(chosen) == limit:
            return
        for j in range(i, n1):
            walk(j + 1, chosen + [j])

    walk(0, [])
    return best


def oracle_homogeneous_variational(s, m, p):
    """Sum of (gap) |D^m f|^p over the windows of every subsequence of at
    least m+1 points, windows left to right; the largest sum."""
    pts, vals = s.points, s.values
    best = 0.0
    for size in range(m + 1, len(pts) + 1):
        for sub in itertools.combinations(range(len(pts)), size):
            total = 0.0
            for i in range(size - m):
                window = sub[i : i + m + 1]
                gap = pts[window[-1]] - pts[window[0]]
                total += gap * abs_pow(_fresh_dd(pts, vals, window), p)
            best = max(best, total)
    return best ** (1.0 / p)


def oracle_homogeneous_variational_sup(s, m):
    pts, vals = s.points, s.values
    return max(
        abs(_fresh_dd(pts, vals, sub))
        for sub in itertools.combinations(range(len(pts)), m + 1)
    )


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
    for func in (variational_functional, homogeneous_variational_functional):
        for p in (2.0, INF):
            with pytest.raises(SizeCapError):
                func(s, 3, p)
    # the sharp profiles enumerate the same subsets under the same rule
    with pytest.raises(SizeCapError):
        profile_values(s, 3, 0, [0.0])
    with pytest.raises(SizeCapError):
        wmf_functional(s, 3, 2.0, GridSpec(0.5))
    s = make_samples(rng, 30, span=40.0)
    for func in (variational_functional, homogeneous_variational_functional):
        with pytest.raises(SizeCapError):
            func(s, 29, 2.0)
    with pytest.raises(SizeCapError):
        variational_functional(s, 40, INF)
    # the 20-point limit of exhaustive enumeration is gone
    t = make_samples(rng, 25, span=40.0)
    assert variational_functional(t, 2, 2.0).value >= sequence_functional(t, 2, 2.0).value


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


@given(dp_cases())
@settings(max_examples=60, deadline=None)
def test_longest_path_matches_oracles(case):
    s, m, p = case
    var = variational_functional(s, m, p).value
    hom = homogeneous_variational_functional(s, m, p).value
    if p == INF:
        assert var == oracle_variational_sup(s, m)
        assert hom == oracle_homogeneous_variational_sup(s, m)
    else:
        assert var == pytest.approx(oracle_variational(s, m, p), rel=1e-12, abs=0.0)
        assert hom == pytest.approx(oracle_homogeneous_variational(s, m, p), rel=1e-12, abs=0.0)


def _rounding_scale(s, m):
    """Largest sum of |y_i / omega'(x_i)| over the index subsets of at most
    m+1 points: the size of the terms each divided difference adds up, which
    bounds its rounding even when it cancels to nothing."""
    return max(
        sum(abs(s.values[i] / math.prod(s.points[i] - s.points[j] for j in S if j != i)) for i in S)
        for size in range(1, m + 2)
        for S in itertools.combinations(range(len(s)), size)
    )


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


# ------------------------------------------------------------- homogeneous


def test_homogeneous_annihilates_low_degree(rng):
    for m in (1, 2, 3):
        s, _ = polynomial_samples(rng, m - 1, m + 3)
        scale = 1 + max(abs(v) for v in s.values)
        assert homogeneous_sequence_functional(s, m, 2.0).value <= 1e-10 * scale


def test_homogeneous_hand_instance():
    s = SampledFunction((0.0, 1.0, 3.0), (0.0, 1.0, 1.0))
    assert homogeneous_sequence_functional(s, 1, 2.0).value == pytest.approx(1.0, rel=1e-12)


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
