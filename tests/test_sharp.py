import math

import numpy as np
import pytest

from sobtrace import (
    GridSpec,
    InvalidInputError,
    SampledFunction,
    SizeCapError,
    UnsupportedError,
    lagrange_polynomial,
    wmf_functional,
)
from sobtrace.sharp import grid_edges, profile_values
from conftest import make_samples
from oracles import sharp_value


def test_singleton_box_shape():
    s = SampledFunction((0.0,), (3.0,))
    assert sharp_value(s, 1, 0, 0.5) == 3.0
    assert sharp_value(s, 1, 0, 1.0) == 3.0  # closed window
    assert sharp_value(s, 1, 0, 2.0) == 0.0
    assert sharp_value(s, 1, 1, 0.0) == 0.0  # no 2-point subsets exist


def test_zero_data_zero_everywhere(rng):
    s = SampledFunction((0.0, 1.0, 2.0), (0.0, 0.0, 0.0))
    for k in (0, 1, 2):
        for x in rng.uniform(-2, 4, 10):
            assert sharp_value(s, 2, k, float(x)) == 0.0


def test_square_samples_top_order():
    s = SampledFunction((0.0, 1.0, 2.0), (0.0, 1.0, 4.0))
    # only subset {0,1,2}; at x=0 the hull contains x, so no damping
    assert sharp_value(s, 2, 2, 0.0) == pytest.approx(1.0, rel=1e-12)


def test_top_order_damping_factor():
    s = SampledFunction((0.0, 1.0), (0.0, 2.0))
    # D^1 = 2; at x = 2 the hull grows from 1 to 2: damping 1/2
    assert sharp_value(s, 1, 1, 2.0) == pytest.approx(1.0, rel=1e-12)
    # inside the hull the factor is exactly 1
    assert sharp_value(s, 1, 1, 0.5) == pytest.approx(2.0, rel=1e-12)


def _assert_matches_oracle(s, m, xs):
    for k in range(m + 1):
        expected = np.array([sharp_value(s, m, k, float(x)) for x in xs])
        assert np.array_equal(profile_values(s, m, k, xs), expected)


def test_profile_matches_pointwise(rng):
    for m in (1, 2, 3):
        s = make_samples(rng, 5 + m, span=4.0)
        grid = grid_edges(s, GridSpec(0.25))
        _assert_matches_oracle(s, m, grid)
        _assert_matches_oracle(s, m, rng.uniform(grid[0] - 1.0, grid[-1] + 1.0, 25))
    # equally spaced integer values: many subsets tie at k = m
    s = SampledFunction(tuple(0.5 * i for i in range(8)), (0.0, 1.0, 0.0, 1.0, 2.0, 1.0, 0.0, 0.0))
    for m in (1, 2, 3):
        _assert_matches_oracle(s, m, grid_edges(s, GridSpec(0.25)))
    # past the 20 points that once capped the subset enumeration
    s = make_samples(rng, 22, span=8.0)
    _assert_matches_oracle(s, 2, grid_edges(s, GridSpec(0.5)))


def test_profile_nonnegative_and_supported(rng):
    s = make_samples(rng, 4, span=3.0)
    grid = grid_edges(s, GridSpec(0.5))
    assert np.all(profile_values(s, 2, 1, grid) >= 0.0)
    lo, hi = grid[0], grid[-1]
    assert lo == s.points[0] - 1.0 and hi == s.points[-1] + 1.0
    for x in (lo - 0.5, hi + 0.5, lo - 3.0):
        assert sharp_value(s, 2, 1, float(x)) == 0.0


def test_profile_piecewise_constant_below_top_order(rng):
    s = make_samples(rng, 4, span=6.0)
    m, k = 2, 1
    breaks = sorted({e + d for e in s.points for d in (-1.0, 1.0)})
    for a, b in zip(breaks, breaks[1:]):
        if b - a < 1e-6:
            continue
        xs = np.linspace(a + 1e-9, b - 1e-9, 7)
        vals = profile_values(s, m, k, xs)
        assert np.all(vals == vals[0])


def test_monotone_under_point_addition(rng):
    # add interpolated midpoints: the admissible family only grows
    s = make_samples(rng, 4, span=4.0)
    L = lagrange_polynomial(s)
    mids = [(a + b) / 2 for a, b in zip(s.points, s.points[1:])]
    merged = sorted(list(s.points) + mids)
    enlarged = SampledFunction(tuple(merged), tuple(float(L(x)) for x in merged))
    for k in (0, 1):
        for x in np.linspace(s.points[0] - 1, s.points[-1] + 1, 15):
            a = sharp_value(s, 2, k, float(x))
            b = sharp_value(enlarged, 2, k, float(x))
            assert b >= a * (1 - 1e-12)


def test_grid_refinement_stability(rng):
    s = make_samples(rng, 5, span=3.0)
    p = 2.0
    coarse = wmf_functional(s, 1, p, GridSpec(0.1)).value
    fine = wmf_functional(s, 1, p, GridSpec(0.05)).value
    assert abs(fine - coarse) <= 0.05 * max(coarse, fine)


def test_wmf_zero_and_homogeneity(rng):
    z = SampledFunction((0.0, 2.0), (0.0, 0.0))
    assert wmf_functional(z, 1, 2.0).value == 0.0
    s = make_samples(rng, 4)
    base = wmf_functional(s, 2, 2.0, GridSpec(0.1)).value
    scaled = wmf_functional(s.scaled_values(-3.0), 2, 2.0, GridSpec(0.1)).value
    assert scaled == pytest.approx(3.0 * base, rel=1e-9)


def test_wmf_rejects_p_infinity(rng):
    s = make_samples(rng, 3)
    with pytest.raises(UnsupportedError):
        wmf_functional(s, 1, math.inf)
    with pytest.raises(InvalidInputError):
        wmf_functional(s, 1, 1.0)


def test_grid_spacing_and_cell_budget():
    # the default spacing follows the closest pair: about 6e11 cells here
    s = SampledFunction((0.0, 1e-9, 10.0), (1.0, 2.0, 3.0))
    with pytest.raises(SizeCapError, match="--grid-h"):
        wmf_functional(s, 1, 2.0)
    assert wmf_functional(s, 1, 2.0, GridSpec(0.05)).value > 0.0
    for h in (math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(InvalidInputError):
            grid_edges(s, GridSpec(h))


def test_grid_edges_cover_forced_nodes(rng):
    s = make_samples(rng, 4, span=5.0)
    edges = grid_edges(s, GridSpec(0.3))
    assert edges[0] == s.points[0] - 1.0
    assert edges[-1] == s.points[-1] + 1.0
    assert np.all(np.diff(edges) > 0)
    assert np.max(np.diff(edges)) <= 0.3 + 1e-12
    for e in s.points:
        for v in (e - 1.0, e, e + 1.0):
            if edges[0] < v < edges[-1]:
                assert np.min(np.abs(edges - v)) <= 1e-9


def test_sharp_rejects_bad_order(rng):
    s = make_samples(rng, 3)
    with pytest.raises(InvalidInputError):
        sharp_value(s, 2, 3, 0.0)
    with pytest.raises(InvalidInputError):
        sharp_value(s, 0, 0, 0.0)
    with pytest.raises(InvalidInputError):
        profile_values(s, 2, 3, [0.0])
    with pytest.raises(InvalidInputError):
        profile_values(s, 0, 0, [0.0])
