import math
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from sobtrace import (
    ExtensionConfig,
    InvalidInputError,
    NumericalFailureError,
    PiecewisePolynomial,
    SampledFunction,
    UnsupportedError,
    build_gap_lattice,
    extend,
    extension,
    natural_spline_min_energy,
    necessity_bound_factor,
    pad_small_set,
    splines,
    support_pad,
    verify_necessity,
    zero_extend,
)
from sobtrace.corpus import random_sampled_function
from sobtrace.samples import MIN_GAP
from conftest import make_samples


def lattice_invariants(points, lattice, pad):
    pts = list(points)
    G = lattice.lattice_points
    # interior long gaps subdivide into widths in [2, 3]
    for a, b in zip(pts, pts[1:]):
        width = b - a
        inside = [y for y in G if a < y < b]
        if width > 4:
            n_j = math.floor(width / 2)
            ell = width / n_j
            assert 2.0 <= ell <= 3.0
            assert len(inside) == n_j - 1
            expected = [a + ell * n for n in range(1, n_j)]
            assert inside == pytest.approx(expected, abs=1e-12)
        else:
            assert inside == []
    # separation from the data and among lattice points
    for y in G:
        assert min(abs(y - x) for x in pts) >= 2.0 - 1e-12
    for u, v in zip(G, G[1:]):
        assert v - u >= 2.0 - 1e-12
    # window coverage within 2
    lo, hi = pts[0] - pad, pts[-1] + pad
    merged = sorted([*pts, *G])
    assert merged[0] - lo <= 2.0 + 1e-12
    assert hi - merged[-1] <= 2.0 + 1e-12
    for u, v in zip(merged, merged[1:]):
        assert v - u <= 4.0 + 1e-12


def test_lattice_example_two_points():
    cfg = ExtensionConfig(m=1)
    lat = build_gap_lattice((0.0, 10.0), cfg)
    interior = [y for y in lat.lattice_points if 0 < y < 10]
    assert interior == [2.0, 4.0, 6.0, 8.0]


def test_lattice_short_gap_empty():
    cfg = ExtensionConfig(m=1)
    lat = build_gap_lattice((0.0, 3.0), cfg)
    assert [y for y in lat.lattice_points if 0 < y < 3] == []


def test_lattice_invariants_random(rng):
    for _ in range(100):
        m = int(rng.integers(1, 4))
        cfg = ExtensionConfig(m=m)
        size = int(rng.integers(1, 9))
        if rng.random() < 0.5:
            pts = np.sort(rng.uniform(0, 40, size))
        else:  # clustered
            centers = rng.uniform(0, 60, max(1, size // 3 + 1))
            pts = np.sort(rng.choice(centers, size) + rng.uniform(0, 0.5, size))
        pts = np.unique(pts)
        if len(pts) > 1 and np.diff(pts).min() < 1e-6:
            continue
        lat = build_gap_lattice(tuple(pts), cfg)
        lattice_invariants(pts, lat, cfg.window_pad)


def test_zero_extend_example():
    cfg = ExtensionConfig(m=1, window_pad=9.0)
    s = SampledFunction((0.0, 10.0), (1.0, 1.0))
    lat = build_gap_lattice(s.points, cfg)
    merged = zero_extend(s, lat)
    assert len(merged) == len(s) + len(lat.lattice_points)
    inner = {x: v for x, v in zip(merged.points, merged.values) if 0 <= x <= 10}
    assert inner == {0.0: 1.0, 2.0: 0.0, 4.0: 0.0, 6.0: 0.0, 8.0: 0.0, 10.0: 1.0}


def test_zero_extend_zero_data(rng):
    s = SampledFunction((0.0, 7.0), (0.0, 0.0))
    lat = build_gap_lattice(s.points, ExtensionConfig(m=2))
    merged = zero_extend(s, lat)
    assert all(v == 0.0 for v in merged.values)


def test_config_validation():
    with pytest.raises(InvalidInputError):
        ExtensionConfig(m=0)
    with pytest.raises(InvalidInputError):
        ExtensionConfig(m=2, backend="nope")
    with pytest.raises(InvalidInputError):
        ExtensionConfig(m=2, window_pad=5.0)
    for pad in (math.nan, math.inf):
        with pytest.raises(InvalidInputError):
            ExtensionConfig(m=2, window_pad=pad)
    assert ExtensionConfig(m=2).window_pad == support_pad(2) == 12.0
    assert ExtensionConfig(m=85).m == 85
    with pytest.raises(UnsupportedError):
        ExtensionConfig(m=86)  # (2m-1)! = 171! overflows a float


@pytest.mark.parametrize("backend", ["hermite", "natural2"])
def test_extension_contract_random(rng, backend):
    for _ in range(8):
        m = int(rng.integers(1, 4))
        size = int(rng.integers(1, 9))
        s = make_samples(rng, size, span=12.0)
        cfg = ExtensionConfig(m=m, backend=backend)
        F = extend(s, cfg)
        scale = 1 + max(abs(v) for v in s.values)
        resid = max(abs(F(x) - v) for x, v in zip(s.points, s.values))
        assert resid <= 1e-9 * scale
        assert F.smoothness_order(1e-8) >= m - 1
        assert F.degree <= 2 * m - 1
        lo = s.points[0] - cfg.window_pad
        hi = s.points[-1] + cfg.window_pad
        pad_geom = 2.0 * (m - size) if size <= m else 0.0  # padding continues right
        for x in (lo - 1.0, hi + pad_geom + 1.0, lo - 50.0, hi + pad_geom + 50.0):
            assert F(x) == 0.0
        # a padded set ends 2(m + 1 - size) past the data, and so does its
        # window; the probes above can fall inside it, these two cannot
        if size <= m:
            outside = hi + 2.0 * (m + 1 - size)
            assert F.breakpoints[-1] <= outside
            for x in (outside + 1.0, outside + 50.0):
                assert F(x) == 0.0


def bounded_gap_poly_samples(rng, m, size, max_gap=4.0):
    """Polynomial samples whose interior gaps all stay within ``max_gap``."""
    coeffs = rng.standard_normal(m)
    while True:
        pts = np.sort(rng.uniform(0.0, 2.0 * size, size))
        gaps = np.diff(pts)
        if len(pts) == 1 or (gaps.min() >= 0.3 and gaps.max() <= max_gap):
            break
    vals = np.polynomial.polynomial.polyval(pts, coeffs)
    return SampledFunction(tuple(pts), tuple(vals)), coeffs


def test_polynomial_reproduction_hermite(rng):
    for m in (1, 2, 3, 4):
        s, coeffs = bounded_gap_poly_samples(rng, m, m + 3)
        F = extend(s, ExtensionConfig(m=m, backend="hermite"))
        xs = np.linspace(s.points[0], s.points[-1], 200)
        expected = np.polynomial.polynomial.polyval(xs, coeffs)
        scale = 1 + np.max(np.abs(expected))
        assert np.max(np.abs(F(xs) - expected)) <= 1e-8 * scale


def test_zero_data_zero_extension(rng):
    for backend in ("hermite", "natural2"):
        s = SampledFunction((0.0, 1.0, 5.0), (0.0, 0.0, 0.0))
        F = extend(s, ExtensionConfig(m=2, backend=backend))
        xs = np.linspace(-15.0, 20.0, 100)
        assert np.max(np.abs(F(xs))) <= 1e-12


@pytest.mark.parametrize("backend", ["hermite", "natural2"])
def test_linearity(rng, backend):
    m = 2
    pts = tuple(sorted(rng.uniform(0, 10, 6)))
    f_vals = rng.standard_normal(6)
    g_vals = rng.standard_normal(6)
    alpha, beta = 1.7, -0.6
    cfg = ExtensionConfig(m=m, backend=backend)
    Ff = extend(SampledFunction(pts, tuple(f_vals)), cfg)
    Fg = extend(SampledFunction(pts, tuple(g_vals)), cfg)
    Fc = extend(SampledFunction(pts, tuple(alpha * f_vals + beta * g_vals)), cfg)
    xs = np.linspace(pts[0] - cfg.window_pad, pts[-1] + cfg.window_pad, 200)
    combo = alpha * Ff(xs) + beta * Fg(xs)
    scale = 1 + np.max(np.abs(combo))
    assert np.max(np.abs(Fc(xs) - combo)) <= 1e-8 * scale


def test_natural2_interior_smoothness(rng):
    m = 2
    s = make_samples(rng, 5, span=6.0)
    F = extend(s, ExtensionConfig(m=m, backend="natural2"))
    dF = F.differentiate()
    ddF = dF.differentiate()
    eps = 1e-7
    for knot in F.breakpoints[1:-1]:
        # merged data+lattice knots keep 2m-2 = 2 continuous derivatives
        for G in (dF, ddF):
            left, right = G(float(knot) - eps), G(float(knot) + eps)
            assert abs(left - right) <= 1e-4 * (1 + max(abs(left), abs(right)))


def test_small_sets_are_padded_and_extended(rng):
    for backend in ("hermite", "natural2"):
        for m in (2, 3):
            s = make_samples(rng, 1)
            F = extend(s, ExtensionConfig(m=m, backend=backend))
            assert F(s.points[0]) == pytest.approx(s.values[0], abs=1e-9)


def test_merged_set_energy_identity(rng):
    # the m=1 closed-form identity survives zero fill onto the lattice
    from sobtrace import homogeneous_sequence_functional, natural_spline_min_energy

    s = make_samples(rng, 4, span=20.0)
    cfg = ExtensionConfig(m=1)
    merged = zero_extend(s, build_gap_lattice(s.points, cfg))
    _, energy = natural_spline_min_energy(merged, 1)
    h = homogeneous_sequence_functional(merged, 1, 2.0).value
    assert energy == pytest.approx(h * h, rel=1e-10)


def test_verify_necessity_zero_data():
    s = SampledFunction((0.0, 1.0, 2.0), (0.0, 0.0, 0.0))
    F = extend(s, ExtensionConfig(m=1))
    rep = verify_necessity(s, F, 1, 2.0)
    assert rep.passed and rep.ratio == 0.0


def test_verify_necessity_hand_instance():
    s = SampledFunction((0.0, 1.0, 2.0), (0.0, 1.0, 4.0))
    F = extend(s, ExtensionConfig(m=1, backend="natural2"))
    rep = verify_necessity(s, F, 1, 2.0)
    assert rep.passed
    assert 0 < rep.ratio <= rep.bound_factor
    assert rep.functional_kind == "variational"


def test_verify_necessity_rejects_non_interpolant():
    s = SampledFunction((0.0, 1.0, 2.0), (0.0, 1.0, 4.0))
    other = SampledFunction((0.0, 1.0, 2.0), (5.0, 1.0, 4.0))
    F = extend(other, ExtensionConfig(m=1))
    with pytest.raises(InvalidInputError):
        verify_necessity(s, F, 1, 2.0)


@pytest.mark.parametrize("backend", ["hermite", "natural2"])
def test_verify_necessity_small_set_is_padded(backend):
    # two points at m = 2: the variational functional needs three, so the
    # check runs on the zero-padded set that extend interpolates
    s = SampledFunction((0.0, 1.0), (1.0, 2.0))
    F = extend(s, ExtensionConfig(m=2, backend=backend))
    rep = verify_necessity(s, F, 2, 2.0)
    assert rep.passed
    assert rep.functional_kind == "variational"
    assert 0 < rep.ratio <= rep.bound_factor


def test_verify_necessity_small_set_rejects_missing_padding_zero():
    # 1 + x interpolates (0, 1), (1, 2) but not the padded zero at x = 3
    s = SampledFunction((0.0, 1.0), (1.0, 2.0))
    F = PiecewisePolynomial([0.0, 5.0], [[1.0, 1.0]])
    with pytest.raises(InvalidInputError, match="padded"):
        verify_necessity(s, F, 2, 2.0)


@pytest.mark.parametrize(
    "points",
    [
        tuple(x + shift for x in (0.0, 0.5, 3.0))
        for shift in (2e4, 1e5, -1e5, 1e6)
    ]
    + [(-50000.5, -50000.0, 50000.0, 50000.5)],
    ids=["shift2e4", "shift1e5", "shift-1e5", "shift1e6", "gap1e5"],
)
def test_natural2_far_from_origin(points):
    # at even m the outermost lattice point lands exactly on the window edge;
    # far from the origin that must not read as an edge inside the data
    s = SampledFunction(points, tuple(1.0 + 0.5 * k for k in range(len(points))))
    cfg = ExtensionConfig(m=2, backend="natural2")
    F = extend(s, cfg)
    scale = 1 + max(abs(v) for v in s.values)
    assert max(abs(F(x) - v) for x, v in zip(s.points, s.values)) <= 1e-9 * scale
    assert F(s.points[0] - cfg.window_pad - 1.0) == 0.0
    assert F(s.points[-1] + cfg.window_pad + 1.0) == 0.0


def test_necessity_bound_factor_values():
    assert necessity_bound_factor(1, 2.0) == pytest.approx(2 * math.sqrt(6))
    assert necessity_bound_factor(2, math.inf) == 1.0


def test_verify_necessity_beyond_cap_uses_sequence_form(rng):
    # 22 points are within the variational budget at m = 1
    s = make_samples(rng, 22, span=30.0)
    rep = verify_necessity(s, extend(s, ExtensionConfig(m=1)), 1, 2.0)
    assert rep.passed
    assert rep.functional_kind == "variational"
    # 52 points at m = 3 are past it: the consecutive window functional takes over
    s = make_samples(rng, 52, span=60.0)
    rep = verify_necessity(s, extend(s, ExtensionConfig(m=3)), 3, 2.0)
    assert rep.passed
    assert rep.functional_kind == "sequence"


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, math.inf])
def test_necessity_random(rng, p):
    for backend in ("hermite", "natural2"):
        m = int(rng.integers(1, 3))
        s = make_samples(rng, m + int(rng.integers(1, 5)), span=9.0)
        F = extend(s, ExtensionConfig(m=m, backend=backend))
        assert verify_necessity(s, F, m, p).passed


@st.composite
def oracle_sets(draw):
    """Sets of 2-40 points: equally spaced (ties in every jet window), with
    gaps wider than 4 (lattice points), or in clusters near MIN_GAP."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(2, 40))
    kind = draw(st.sampled_from(["equal", "wide", "clustered"]))
    start = float(draw(st.integers(-50, 50)))
    if kind == "equal":
        pts = start + draw(st.sampled_from([0.5, 1.0, 2.0, 3.0])) * np.arange(n)
    else:
        sizes = [0.3, 1.0, 4.5, 7.0, 12.0] if kind == "wide" else [4 * MIN_GAP, 1e-9, 1e-6, 1.0, 6.0]
        gaps = draw(st.lists(st.sampled_from(sizes), min_size=n - 1, max_size=n - 1))
        pts = np.cumsum([start, *gaps])
    values = draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n))
    return SampledFunction(tuple(pts), tuple(values)), m


def _outcome(f, *args):
    try:
        return f(*args)
    except NumericalFailureError:
        return "NumericalFailureError"


@settings(max_examples=60, deadline=None)
@given(oracle_sets())
def test_extensions_match_oracles(case):
    s, m = case
    work = pad_small_set(s, m) if len(s) <= m else s  # the set extend works on
    for t, lo in zip(work.points, extension._nearest_windows(work.points, m)):
        assert list(range(lo, lo + m)) == oracles.nearest_indices(work.points, t, m)
    hermite = ExtensionConfig(m=m, backend="hermite")
    natural2 = ExtensionConfig(m=m, backend="natural2")
    got = [extend(s, hermite), _outcome(extend, s, natural2), _outcome(natural_spline_min_energy, s, m)]
    with mock.patch.object(extension, "_hermite_extend", oracles.hermite_extend), mock.patch.object(
        splines, "_spline_system", oracles.spline_system
    ):
        ref = [extend(s, hermite), _outcome(extend, s, natural2), _outcome(natural_spline_min_energy, s, m)]
    assert np.array_equal(got[0].breakpoints, ref[0].breakpoints)
    c, c_ref = got[0].coefficients, ref[0].coefficients
    assert np.abs(c - c_ref).max() <= 1e-13 * (1.0 + np.abs(c_ref).max())
    if isinstance(ref[1], str) or isinstance(got[1], str):
        assert got[1] == ref[1]
    else:
        assert np.array_equal(got[1].breakpoints, ref[1].breakpoints)
        assert np.array_equal(got[1].coefficients, ref[1].coefficients)
    if isinstance(ref[2], str) or isinstance(got[2], str):
        assert got[2] == ref[2]
    else:
        (F, energy), (F_ref, energy_ref) = got[2], ref[2]
        for a, b in zip(
            (F.coefficients, F.left_tail, F.right_tail, energy),
            (F_ref.coefficients, F_ref.left_tail, F_ref.right_tail, energy_ref),
        ):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("backend", ["hermite", "natural2"])
def test_extension_scales_linearly(backend, monkeypatch):
    # 20,000 points at m = 3; min_gap 1e-6 keeps the rejection sampling of
    # random_sampled_function short at this density
    s = random_sampled_function(np.random.default_rng(5), 20000, 20000.0, min_gap=1e-6)
    calls = []
    rows = extension.divided_difference_rows
    monkeypatch.setattr(extension, "divided_difference_rows", lambda *a: calls.append(1) or rows(*a))
    start = time.perf_counter()
    F = extend(s, ExtensionConfig(m=3, backend=backend))
    assert time.perf_counter() - start < 5.0
    assert len(calls) == (len(s) if backend == "hermite" else 0)
    assert F.n_pieces >= len(s)
