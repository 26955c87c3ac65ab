import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sobtrace import (
    InvalidInputError,
    SampledFunction,
    build_table,
    convex_hull_check,
    divdiff_recursive,
    divdiff_sum,
    lagrange_polynomial,
    reduce_wide_difference,
)
from conftest import make_samples, polynomial_samples


def rel_diff(a, b):
    denom = max(abs(a), abs(b))
    return 0.0 if denom == 0 else abs(a - b) / denom


# ---------------------------------------------------------------- examples


def test_recursive_examples():
    assert divdiff_recursive([0, 1, 2], [0, 1, 4]) == pytest.approx(1.0, abs=1e-14)
    assert divdiff_recursive([0, 1], [3, 3]) == 0.0
    assert divdiff_recursive([0, 1, 3], [0, 1, 9]) == pytest.approx(1.0, abs=1e-14)


def test_sum_examples():
    assert divdiff_sum([0, 1, 2], [0, 1, 4]) == pytest.approx(1.0, abs=1e-14)
    assert divdiff_sum([0, 2], [0, 4]) == pytest.approx(2.0, abs=1e-14)


def test_invalid_inputs_rejected():
    with pytest.raises(InvalidInputError):
        divdiff_recursive([1, 1], [0, 0])
    with pytest.raises(InvalidInputError):
        divdiff_sum([2, 1], [0, 0])


def test_cross_path_random(rng):
    for _ in range(50):
        s = make_samples(rng, 6)
        assert rel_diff(divdiff_recursive(s.points, s.values), divdiff_sum(s.points, s.values)) <= 1e-9


# ---------------------------------------------------------------- lagrange


def test_lagrange_identity_line():
    L = lagrange_polynomial(SampledFunction((0.0, 1.0), (0.0, 1.0)))
    for x in (-1.0, 0.25, 2.0):
        assert L(x) == pytest.approx(x, abs=1e-14)


def test_lagrange_square():
    L = lagrange_polynomial(SampledFunction((0.0, 1.0, 2.0), (0.0, 1.0, 4.0)))
    for x in (-0.5, 0.5, 3.0):
        assert L(x) == pytest.approx(x * x, abs=1e-12)


def test_lagrange_leading_coefficient_is_divided_difference(rng):
    for _ in range(25):
        s = make_samples(rng, 5)
        L = lagrange_polynomial(s)
        # the expansion multiplies monic factors only, so this is exact
        assert L.coefficients[0][-1] == divdiff_recursive(s.points, s.values)


def test_lagrange_interpolates(rng):
    s = make_samples(rng, 7)
    L = lagrange_polynomial(s)
    for x, v in zip(s.points, s.values):
        assert L(x) == pytest.approx(v, rel=1e-9, abs=1e-9)


# ------------------------------------------------------------------- table


def test_table_example():
    t = build_table(SampledFunction((0.0, 1.0, 2.0), (0.0, 1.0, 4.0)), 2)
    assert t.entries[0] == (0.0, 1.0, 4.0)
    assert t.entries[1] == (1.0, 3.0)
    assert t.entries[2] == (1.0,)


def test_table_order_zero_is_values(rng):
    s = make_samples(rng, 5)
    t = build_table(s, 0)
    assert t.entries[0] == s.values


def test_table_against_sum_path(rng):
    s = make_samples(rng, 8)
    t = build_table(s, 4)
    for k in range(5):
        for i in range(len(s) - k):
            window_pts = s.points[i : i + k + 1]
            window_vals = s.values[i : i + k + 1]
            assert rel_diff(t.value(k, i), divdiff_sum(window_pts, window_vals)) <= 1e-9


def test_table_order_out_of_range(rng):
    s = make_samples(rng, 4)
    with pytest.raises(InvalidInputError):
        build_table(s, 4)
    with pytest.raises(InvalidInputError):
        build_table(s, -1)


# ------------------------------------------------------- wide-set reduction


def test_reduce_two_point_cases():
    assert reduce_wide_difference(SampledFunction((0.0, 5.0), (1.0, 7.0))) == (0, 1, 2 * 7 / 5)
    assert reduce_wide_difference(SampledFunction((0.0, 5.0), (-7.0, 1.0))) == (0, 0, 2 * 7 / 5)


def test_reduce_requires_diameter_one():
    with pytest.raises(InvalidInputError):
        reduce_wide_difference(SampledFunction((0.0, 0.5), (1.0, 2.0)))
    with pytest.raises(InvalidInputError):
        reduce_wide_difference(SampledFunction((3.0,), (1.0,)))


def certificate_postconditions(s):
    k, i, bound = reduce_wide_difference(s)
    pts = s.points
    n = len(pts) - 1
    assert 0 <= k <= n - 1
    assert 0 <= i <= n - k
    assert pts[i + k] - pts[i] <= 1.0
    side_right = i + k + 1 <= n and pts[i + k + 1] - pts[i] >= 1.0
    side_left = i >= 1 and pts[i + k] - pts[i - 1] >= 1.0
    assert side_right or side_left
    full = abs(divdiff_recursive(pts, s.values))
    assert full <= bound * (1 + 1e-12)


def test_reduce_random_certificates(rng):
    for _ in range(100):
        size = int(rng.integers(2, 7))
        while True:
            s = make_samples(rng, size, span=6.0)
            if s.span >= 1.0:
                break
        certificate_postconditions(s)


def test_reduce_clustered_certificate():
    # both sub-splits narrower than 1: the fallback certificates kick in
    s = SampledFunction((0.0, 0.6, 1.2), (1.0, -2.0, 1.5))
    certificate_postconditions(s)


def test_reduce_tie_prefers_right_split():
    # both splits certify with magnitude 1; determinism demands the right one
    s = SampledFunction((0.0, 1.0, 2.0), (1.0, 0.0, 1.0))
    assert reduce_wide_difference(s) == (0, 2, 2.0)


# -------------------------------------------------------------- hull check


def test_hull_consecutive_window_is_generator(rng):
    s = make_samples(rng, 6)
    assert convex_hull_check(s, (2, 3, 4), 2)


def test_hull_order_zero_always(rng):
    s = make_samples(rng, 5)
    for j in range(5):
        assert convex_hull_check(s, (j,), 0)


def test_hull_random_subsets(rng):
    import itertools

    for _ in range(20):
        s = make_samples(rng, 7)
        for idx in itertools.combinations(range(7), 3):
            assert convex_hull_check(s, idx, 2)


def test_hull_rejects_bad_subsets(rng):
    s = make_samples(rng, 5)
    with pytest.raises(InvalidInputError):
        convex_hull_check(s, (0, 1), 2)
    with pytest.raises(InvalidInputError):
        convex_hull_check(s, (0, 7, 8), 2)
    with pytest.raises(InvalidInputError):
        convex_hull_check(s, (1, 1, 2), 2)


# ---------------------------------------------------------- property tests


@st.composite
def sampled_functions(draw, min_len=2, max_len=9):
    n = draw(st.integers(min_len, max_len))
    start = draw(st.floats(-20, 20))
    gaps = draw(st.lists(st.floats(0.01, 3.0), min_size=n - 1, max_size=n - 1))
    pts = [start]
    for g in gaps:
        pts.append(pts[-1] + g)
    vals = draw(st.lists(st.floats(-10, 10), min_size=n, max_size=n))
    return SampledFunction(tuple(pts), tuple(vals))


@given(sampled_functions())
@example(SampledFunction((0.0, 1.0, 1.5), (1.0, 1.0, 1.0)))
@settings(max_examples=150, deadline=None)
def test_paths_agree(s):
    a = divdiff_recursive(s.points, s.values)
    b = divdiff_sum(s.points, s.values)
    c = lagrange_polynomial(s).coefficients[0][-1]
    # the 1/omega' route adds up terms of this size, so its rounding scales
    # with them, not with the (possibly exactly zero) result
    terms = sum(
        abs(y / math.prod(x - z for z in s.points if z != x))
        for x, y in zip(s.points, s.values)
    )
    assert abs(a - b) <= 1e-9 * terms
    assert c == a


@given(sampled_functions(max_len=7), st.floats(-100, 100))
@settings(max_examples=100, deadline=None)
def test_translation_invariance(s, t):
    moved = s.shifted(t)
    a = divdiff_recursive(s.points, s.values)
    b = divdiff_recursive(moved.points, moved.values)
    assert abs(a - b) <= 1e-7 * (1 + max(abs(a), abs(b)))


@given(sampled_functions(max_len=7), st.floats(-50, 50))
@settings(max_examples=100, deadline=None)
def test_homogeneity(s, alpha):
    scaled = s.scaled_values(alpha)
    a = divdiff_recursive(s.points, s.values)
    b = divdiff_recursive(scaled.points, scaled.values)
    assert abs(b - alpha * a) <= 1e-9 * (1 + abs(alpha) * abs(a))


def test_annihilation_and_reproduction(rng):
    for k in range(1, 5):
        # degree < k annihilates
        s, _ = polynomial_samples(rng, k - 1, k + 1)
        scale = 1 + max(abs(v) for v in s.values)
        assert abs(divdiff_recursive(s.points, s.values)) <= 1e-10 * scale
        # degree k with leading coefficient a reproduces a
        s2, coeffs = polynomial_samples(rng, k, k + 1)
        assert divdiff_recursive(s2.points, s2.values) == pytest.approx(
            coeffs[-1], rel=1e-8, abs=1e-10
        )


def test_mean_value_property(rng):
    # k! * D^k of polynomial samples lies in the hull of the k-th derivative
    for _ in range(20):
        deg = int(rng.integers(1, 6))
        k = int(rng.integers(1, deg + 1))
        s, coeffs = polynomial_samples(rng, deg, k + 1)
        value = math.factorial(k) * divdiff_recursive(s.points, s.values)
        dk = np.polynomial.Polynomial(coeffs).deriv(k)
        a, b = s.points[0], s.points[-1]
        candidates = [a, b] + [
            float(r.real)
            for r in dk.deriv().roots()
            if abs(r.imag) < 1e-9 and a < r.real < b
        ]
        extremes = [dk(t) for t in candidates]
        lo, hi = min(extremes), max(extremes)
        guard = 1e-8 * (1 + max(abs(lo), abs(hi)))
        assert lo - guard <= value <= hi + guard
