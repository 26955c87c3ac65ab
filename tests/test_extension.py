import math
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from sobtrace import (
    ExtensionConfig,
    InvalidInputError,
    NumericalFailureError,
    PiecewisePolynomial,
    SampledFunction,
    SizeCapError,
    UnsupportedError,
    anchored_min_energy_spline,
    build_gap_lattice,
    divided_difference_rows,
    effective_order,
    extend,
    extension,
    homogeneous_sequence_functional,
    natural_spline_min_energy,
    necessity_bound_factor,
    pad_small_set,
    sequence_functional,
    small_set_functional,
    sobolev_norm,
    splines,
    support_pad,
    variational_feasible,
    variational_functional,
    verify_necessities,
    verify_necessity,
    wmf_functional,
    zero_extend,
)
from sobtrace.corpus import SPANS, calibration_corpus, random_sampled_function
from sobtrace.sharp import profile_values
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
        assert lat == oracles.build_gap_lattice(tuple(pts), cfg)


def test_lattice_refuses_huge_and_non_finite_sets(monkeypatch):
    # a gap or a pad of 1e12 or 1e300 would need billions of lattice points:
    # the count, taken in floats, refuses before anything is allocated
    for pad in (1e12, 1e300):
        with pytest.raises(SizeCapError, match="lattice"):
            build_gap_lattice((0.0,), ExtensionConfig(m=1, window_pad=pad))
    for gap in (1e12, 1e300):
        with pytest.raises(SizeCapError, match="lattice"):
            build_gap_lattice((0.0, gap), ExtensionConfig(m=1))
        with pytest.raises(SizeCapError, match="lattice"):
            extend(SampledFunction((0.0, gap), (1.0, 2.0)), ExtensionConfig(m=1, backend="natural2"))
    for pts in ((0.0, math.nan, 5.0), (0.0, math.inf), (-math.inf,), (3.0, 2.0)):
        with pytest.raises(InvalidInputError, match="finite and strictly increasing"):
            build_gap_lattice(pts, ExtensionConfig(m=1))
    # the budget counts every point: 8 edge points at m = 1 and 2 in a gap of 6.5
    monkeypatch.setattr(extension, "MAX_GRID_CELLS", 10)
    assert len(build_gap_lattice((0.0, 6.5), ExtensionConfig(m=1)).lattice_points) == 10
    with pytest.raises(SizeCapError):
        build_gap_lattice((0.0, 8.0), ExtensionConfig(m=1))


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
def test_nearest_windows_match_two_pointers(m):
    # 10,000 points, equally spaced (a tie at every point) or with gaps drawn
    # from {1e-12, 4e-12, 1e-9, 1} (ties and near-ties within clusters)
    rng = np.random.default_rng(m)
    sets = [0.5 * np.arange(10_000)]
    sets += [np.cumsum(rng.choice([1e-12, 4e-12, 1e-9, 1.0], 10_000)) for _ in range(3)]
    for pts in sets:
        assert np.all(np.diff(pts) > 0)
        assert extension._nearest_windows(pts, m).tolist() == oracles.nearest_windows(pts.tolist(), m)


def test_zero_extend_example():
    cfg = ExtensionConfig(m=1, window_pad=9.0)
    s = SampledFunction((0.0, 10.0), (1.0, 1.0))
    lat = build_gap_lattice(s.points, cfg)
    knots, values = zero_extend(s, lat)
    assert len(knots) == len(values) == len(s) + len(lat.lattice_points)
    inner = {x: v for x, v in zip(knots.tolist(), values.tolist()) if 0 <= x <= 10}
    assert inner == {0.0: 1.0, 2.0: 0.0, 4.0: 0.0, 6.0: 0.0, 8.0: 0.0, 10.0: 1.0}


def test_zero_extend_zero_data(rng):
    s = SampledFunction((0.0, 7.0), (0.0, 0.0))
    lat = build_gap_lattice(s.points, ExtensionConfig(m=2))
    _, values = zero_extend(s, lat)
    assert not values.any()


def test_zero_extend_refuses_colliding_knots():
    # 2 is below half an ulp at 1e17, so every lattice point lands on a datum
    s = SampledFunction((1e17,), (1.0,))
    lat = build_gap_lattice(s.points, ExtensionConfig(m=1))
    with pytest.raises(InvalidInputError, match="merged knots"):
        zero_extend(s, lat)
    with pytest.raises(InvalidInputError):
        oracles.zero_extend(s, lat)


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


_FOUR = SampledFunction((0.0, 1.0, 2.5, 4.0), (1.0, -0.5, 2.0, 0.3))
_ONE = SampledFunction((0.0,), (1.0,))


@pytest.mark.parametrize(
    "call",
    [
        lambda: sequence_functional(_FOUR, 1.5, 2.0),
        lambda: homogeneous_sequence_functional(_FOUR, 1.5, 2.0),
        lambda: small_set_functional(_ONE, 1.5, 2.0),
        lambda: pad_small_set(_ONE, 1.5),
        lambda: variational_functional(_FOUR, 2.0, 2.0),
        lambda: wmf_functional(_FOUR, 1.5, 2.0),
        lambda: wmf_functional(_FOUR, 2.0, 2.0),
        lambda: sobolev_norm(extend(_FOUR, ExtensionConfig(m=2)), 2.0, 2.0),
        lambda: verify_necessity(_FOUR, extend(_FOUR, ExtensionConfig(m=2)), 1.5, 2.0),
        lambda: natural_spline_min_energy(_FOUR, 2.0),
        lambda: anchored_min_energy_spline(_FOUR.points, _FOUR.values, 1.5, -1.0, 5.0),
        lambda: profile_values(_FOUR, 2, 1.0, np.array([0.5])),
        lambda: ExtensionConfig(m=1.5),
        lambda: variational_feasible(5, 1.5),
        lambda: divided_difference_rows(_FOUR.points, _FOUR.values, 1.5),
        lambda: effective_order(_FOUR, 1.5),
        lambda: support_pad(1.5),
        lambda: necessity_bound_factor(1.5, 2.0),
    ],
    ids=["sequence", "homogeneous", "small_set", "pad", "variational", "wmf_1.5", "wmf_2.0", "sobolev_norm",
         "necessity", "natural_spline", "anchored_spline", "profile_k", "config", "feasible", "divided_differences",
         "effective_order", "support_pad", "bound_factor"],
)
def test_non_integer_order_is_refused(call):
    with pytest.raises(InvalidInputError, match="must be an integer"):
        call()


def test_numpy_integer_orders_are_accepted():
    m = np.int64(2)
    assert sequence_functional(_FOUR, m, 2.0) == sequence_functional(_FOUR, 2, 2.0)
    assert wmf_functional(_FOUR, m, 2.0) == wmf_functional(_FOUR, 2, 2.0)
    assert np.array_equal(extend(_FOUR, ExtensionConfig(m=m)).coefficients, extend(_FOUR, ExtensionConfig(m=2)).coefficients)


def test_hermite_ignores_a_larger_window_pad():
    # hermite pieces depend only on the data and the lattice knots beside
    # them, so a wider window keeps every piece of the default one, bit for
    # bit, and adds only zero pieces beyond it
    s = make_samples(np.random.default_rng(3), 8, span=10.0)
    for m in (1, 2, 3):
        F = extend(s, ExtensionConfig(m=m))
        G = extend(s, ExtensionConfig(m=m, window_pad=60.0))
        k = np.searchsorted(G.breakpoints, F.breakpoints)
        assert np.array_equal(G.breakpoints[k], F.breakpoints)
        assert np.array_equal(G.coefficients[k[:-1]], F.coefficients)
        assert not np.delete(G.coefficients, k[:-1], axis=0).any()


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
        # a padded set ends 2(m + 1 - size) past the data, and so does its window
        pad_geom = 2.0 * (m + 1 - size) if size <= m else 0.0
        assert F.breakpoints[-1] <= hi + pad_geom
        for x in (lo - 1.0, hi + pad_geom + 1.0, lo - 50.0, hi + pad_geom + 50.0):
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
    merged = SampledFunction(*zero_extend(s, build_gap_lattice(s.points, cfg)))
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


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, math.inf])
def test_verify_necessities_equal_single_calls(p):
    # each set's functional once and every norm in one batched call give the
    # reports of the one-pair calls, small (padded) sets included; a pair
    # that does not interpolate is refused as by the one-pair call
    rng = np.random.default_rng(31)
    sets = [random_sampled_function(rng, size, 10.0) for size in (1, 2, 3, 5, 8, 12)]
    for m in (1, 2, 3):
        extensions = [[extend(s, ExtensionConfig(m=m, backend=b)) for b in ("hermite", "natural2")] for s in sets]
        expected = [verify_necessity(s, F, m, p) for s, Fs in zip(sets, extensions) for F in Fs]
        assert verify_necessities(sets, extensions, m, p) == expected
        assert all(rep.passed for rep in expected)
    with pytest.raises(InvalidInputError, match="does not interpolate"):
        verify_necessities(sets[:2], [extensions[0], extensions[0]], 3, p)


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
    F = extend(s, ExtensionConfig(m=3))
    rep = verify_necessity(s, F, 3, 2.0)
    assert rep.passed
    assert rep.functional_kind == "sequence"
    # except at p = inf, where the variational functional is the window maximum at any size
    rep = verify_necessity(s, F, 3, math.inf)
    assert rep.passed
    assert rep.functional_kind == "variational"


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


#: The Taylor-form oracle system's 1-norm condition below which the library's
#: spline must match the oracle's, derivatives included.
ORACLE_CONDITION = 1e8


def _oracle_condition(t, y, m, anchored) -> float:
    return oracles.condition(oracles.spline_matrix(np.asarray(t), np.asarray(y), m, anchored)[0])


def _assert_matches_taylor_oracle(F, F_ref, t, y, m, anchored, data):
    """Where the Taylor-form oracle system is well conditioned, F and its
    derivatives up to m equal the oracle's to 1e-10 (1 + max |F_ref^(k)|);
    elsewhere F, unless refused, interpolates ``data`` (points, values) and
    joins C^{m-1}, to the library's rounding bound in unit coordinates."""
    cond = math.inf if isinstance(F_ref, str) else _oracle_condition(t, y, m, anchored)
    if cond < ORACLE_CONDITION:
        assert not isinstance(F, str), f"refused at condition {cond:.3g}"
        xs = np.concatenate([np.linspace(F_ref.breakpoints[0] - 1.0, F_ref.breakpoints[-1] + 1.0, 1500), F_ref.breakpoints])
        for _ in range(m + 1):
            want = F_ref(xs)
            assert np.abs(F(xs) - want).max() <= 1e-10 * (1.0 + np.abs(want).max())
            F, F_ref = F.differentiate(), F_ref.differentiate()
    elif not isinstance(F, str):
        assert oracles.unit_interpolation_error(F, *data) <= splines._MAX_JOIN_ERROR
        assert oracles.unit_join_error(F, m) <= splines._MAX_JOIN_ERROR


@settings(max_examples=60, deadline=None)
@given(oracle_sets())
def test_extensions_match_oracles(case):
    s, m = case
    work = pad_small_set(s, m) if len(s) <= m else s  # the set extend works on
    for t, lo in zip(work.points, extension._nearest_windows(work.points, m)):
        assert list(range(lo, lo + m)) == oracles.nearest_indices(work.points, t, m)
    hermite = ExtensionConfig(m=m, backend="hermite")
    natural2 = ExtensionConfig(m=m, backend="natural2")
    expanded, expand = [], extension._expand_newton
    with mock.patch.object(extension, "_expand_newton", lambda *a: expanded.append(expand(*a)) or expanded[-1]):
        got = [extend(s, hermite), _outcome(extend, s, natural2), _outcome(natural_spline_min_energy, s, m)]
    # the jets, all expanded from one whole-set table, are the per-point loop's bit for bit
    jets = [oracles.local_jet(work, t, m) for t in work.points]
    assert len(expanded) == 1 and np.array_equal(expanded[0] * [math.factorial(k) for k in range(m)], jets)
    with mock.patch.object(extension, "_hermite_extend", oracles.hermite_extend), mock.patch.object(
        extension, "anchored_min_energy_spline", oracles.anchored_min_energy_spline
    ):
        ref = [extend(s, hermite), _outcome(extend, s, natural2), _outcome(oracles.natural_spline_min_energy, s, m)]
    assert np.array_equal(got[0].breakpoints, ref[0].breakpoints)
    c, c_ref = got[0].coefficients, ref[0].coefficients
    assert np.abs(c - c_ref).max() <= 1e-13 * (1.0 + np.abs(c_ref).max())
    # natural2 against the Taylor-form system on the merged knots, with the edges absorbed
    knots, values = zero_extend(work, build_gap_lattice(work.points, natural2))
    edges = (work.points[0] - natural2.window_pad, work.points[-1] + natural2.window_pad)
    t, y = oracles.anchored_knots(knots, values, *edges)
    _assert_matches_taylor_oracle(got[1], ref[1], t, y, m, True, (work.points, work.values))
    if len(s) <= m:  # the interpolating polynomial
        (F, energy), (F_ref, energy_ref) = got[2], ref[2]
        assert energy == energy_ref == 0.0 and np.array_equal(F.coefficients, F_ref.coefficients)
    else:
        F, F_ref = (r if isinstance(r, str) else r[0] for r in (got[2], ref[2]))
        _assert_matches_taylor_oracle(F, F_ref, s.points, s.values, m, False, (s.points, s.values))


@st.composite
def shifted_wide_sets(draw):
    """Sets of 1-30 points with gaps up to 60 (lattice points) under shifts
    up to 1e6, and an order m whose even values put the outermost lattice
    points on the window edges."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 30))
    gaps = draw(st.lists(st.sampled_from([1e-6, 0.3, 1.0, 4.5, 7.0, 12.0, 60.0]), min_size=n - 1, max_size=n - 1))
    shift = draw(st.sampled_from([0.0, 1.0, -1e3]) | st.floats(-1e6, 1e6))
    values = draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n))
    return SampledFunction(tuple(np.cumsum([shift, *gaps])), tuple(values)), m


@settings(max_examples=80, deadline=None)
@given(shifted_wide_sets())
def test_merged_knots_match_oracles(case):
    s, m = case
    cfg = ExtensionConfig(m=m, backend="natural2")
    work = pad_small_set(s, m) if len(s) <= m else s
    lattice = build_gap_lattice(work.points, cfg)
    assert lattice == oracles.build_gap_lattice(work.points, cfg)
    knots, values = zero_extend(work, lattice)
    ref_knots, ref_values = oracles.zero_extend(work, lattice)
    assert np.array_equal(knots, ref_knots) and np.array_equal(values, ref_values)
    edges = (work.points[0] - cfg.window_pad, work.points[-1] + cfg.window_pad)
    if m % 2 == 0:  # the outermost lattice points lie on the edges and are absorbed
        assert (knots[0], knots[-1]) == edges
    F = _outcome(splines.anchored_min_energy_spline, knots, values, m, *edges)
    F_ref = _outcome(oracles.anchored_min_energy_spline, knots, values, m, *edges)
    t, y = oracles.anchored_knots(knots, values, *edges)
    if not isinstance(F, str):
        assert np.array_equal(F.breakpoints, t)
        assert np.array_equal(extend(s, cfg).coefficients, F.coefficients)
    _assert_matches_taylor_oracle(F, F_ref, t, y, m, True, (work.points, work.values))


def _solved_systems(*calls) -> list:
    """Run each (function, *args) call and return every spline it solved, as
    (knots, values, m, anchored, coefficients)."""
    systems = []
    solve = splines._min_energy_spline

    def record(x, y, m, anchored):
        coef, energy = solve(x, y, m, anchored)
        systems.append((x, y, m, anchored, coef))
        return coef, energy

    with mock.patch.object(splines, "_min_energy_spline", record):
        for f, *args in calls:
            _outcome(f, *args)
    return systems


def _oracle_backward_error(t, y, m, anchored, coef) -> tuple[float, float]:
    """Backward error of the library's coefficients in the Taylor-form oracle
    system (whose anchored form takes the interior values only), and its bound:
    1e-12, plus, for a result below the normal range, the backward error that
    rounding it to the subnormal grid (absolute, half of 2^-1074) can cause."""
    A, b, g = oracles.spline_matrix(t, y[1:-1] if anchored else y, m, anchored)
    scale = np.broadcast_to(g ** np.arange(2 * m), coef.shape).ravel()
    x = coef.ravel() * scale
    bound, size = 1e-12, abs(A).sum(axis=1).max() * np.abs(x).max() + np.abs(b).max()
    if np.abs(coef).max() < np.finfo(float).tiny and size:  # a zero system has no error
        bound += 0.5 * (np.finfo(float).smallest_subnormal / size) * (abs(A) @ scale).max()
    return oracles.backward_error(A, x, b), bound


@settings(max_examples=60, deadline=None)
@given(oracle_sets())
@example((SampledFunction((0.0, 0.5), (0.0, 2.2250738585e-313)), 2))  # a subnormal result
def test_spline_solutions_solve_the_oracle_system(case):
    s, m = case
    for system in _solved_systems(
        (extend, s, ExtensionConfig(m=m, backend="natural2")), (natural_spline_min_energy, s, m)
    ):
        error, bound = _oracle_backward_error(*system)
        assert error <= bound


def test_band_solve_matches_superlu(rng):
    # corpus-style sets: F and its derivatives up to m agree with the
    # SuperLU solution of the Taylor-form system, and so do the energies
    for i in range(60):
        m, span = 1 + i % 3, SPANS[(i // 3) % 3]
        s = make_samples(rng, int(rng.integers(1, 13)), span=span)
        natural2 = ExtensionConfig(m=m, backend="natural2")
        got = [extend(s, natural2), natural_spline_min_energy(s, m)]
        with mock.patch.object(extension, "anchored_min_energy_spline", oracles.anchored_min_energy_spline):
            ref = [extend(s, natural2), oracles.natural_spline_min_energy(s, m)]
        for F, F_ref in ((got[0], ref[0]), (got[1][0], ref[1][0])):
            xs = np.linspace(F_ref.breakpoints[0] - 1.0, F_ref.breakpoints[-1] + 1.0, 2000)
            for _ in range(m + 1):
                want = F_ref(xs)
                assert np.abs(F(xs) - want).max() <= 1e-10 * (1.0 + np.abs(want).max())
                F, F_ref = F.differentiate(), F_ref.differentiate()
        energy, energy_ref = got[1][1], ref[1][1]
        assert abs(energy - energy_ref) <= 1e-11 * energy_ref


def test_clustered_natural2_joins_or_refuses():
    # clusters with gaps from 4e-12 to 6 at m = 3 and 4: each natural2 result
    # interpolates and joins C^{m-1} to rounding per piece in unit coordinates,
    # or is a typed refusal
    rng, gaps, solved = np.random.default_rng(0), (4e-12, 1e-9, 1e-6, 1.0, 6.0), 0
    for i in range(300):
        m, n = 3 + i % 2, int(rng.integers(2, 10))
        pts = float(rng.uniform(-100.0, 100.0)) + np.concatenate([[0.0], np.cumsum(rng.choice(gaps, n - 1))])
        vals = rng.standard_normal(n)
        try:
            s = SampledFunction(tuple(pts), tuple(vals))
        except InvalidInputError:  # two points rounded together
            continue
        F = _outcome(extend, s, ExtensionConfig(m=m, backend="natural2"))
        if isinstance(F, str):
            assert F == "NumericalFailureError"
            continue
        work = pad_small_set(s, m) if n <= m else s
        assert oracles.unit_interpolation_error(F, work.points, work.values) <= splines._MAX_JOIN_ERROR
        assert oracles.unit_join_error(F, m) <= splines._MAX_JOIN_ERROR
        solved += 1
    assert solved >= 100


def test_natural_energies_match_the_oracle_on_the_corpus():
    # the Gram energy lambda . m! delta against the integral of |F^(m)|^2 on the
    # Taylor-form oracle's spline, on the calibration corpus
    for inst in calibration_corpus():
        energy, energy_ref = natural_spline_min_energy(inst.samples, inst.m)[1], oracles.natural_spline_min_energy(inst.samples, inst.m)[1]
        assert abs(energy - energy_ref) <= 1e-12 * energy_ref


def test_near_min_gap_cluster_is_solved():
    # gaps of 1e-9 and 4e-12 at m = 3: a sparse LU met an exactly zero pivot
    # on this set's Taylor-form system; the Gram solve returns an interpolant
    # that solves that system to rounding
    s = SampledFunction(
        (62.00000400001599, 62.00000400101599, 62.00000400101999, 62.00000400102399),
        (-7.979, 6.129, -8.853, 0.287),
    )
    cfg = ExtensionConfig(m=3, backend="natural2")
    [(t, y, m, anchored, coef)] = _solved_systems((extend, s, cfg))
    error, bound = _oracle_backward_error(t, y, m, anchored, coef)
    assert anchored and error <= bound == 1e-12
    F = extend(s, cfg)
    assert np.array_equal(F(np.array(s.points)), np.array(s.values))


@pytest.mark.parametrize("backend", ["hermite", "natural2"])
def test_extension_commutes_with_translation(backend):
    # extend(s + c)(x + c) = extend(s)(x) up to rounding: shifting a coordinate by c
    # rounds it by half an ulp of |c| + |x|, the lattice arithmetic and the shifted
    # evaluation point by about as much again, so every knot and evaluation point moves
    # by delta, a few eps (|c| + |x|).  Moving a point moves F by delta |F'|, and moving
    # a knot of a piece of width at most w moves its order-k jet, a divided difference
    # over such widths, by about delta |F^(k)| w^(k-1); 16 allows for a few such roundings
    rng, eps = np.random.default_rng(11), np.finfo(float).eps
    for i in range(24):
        m = 1 + i % 3
        s = make_samples(rng, int(rng.integers(2, 11)), span=SPANS[(i // 3) % 3])
        cfg = ExtensionConfig(m=m, backend=backend)
        F = extend(s, cfg)
        xs = np.linspace(F.breakpoints[0], F.breakpoints[-1], 997)
        w, G, size = np.diff(F.breakpoints).max(), F, 0.0
        for k in range(1, m + 1):
            G = G.differentiate()
            size += np.abs(G(xs)).max() * w ** (k - 1)
        for c in (1e3, -1e6, 1e8, -1e8):
            delta = eps * (abs(c) + np.abs(xs).max())
            assert np.abs(extend(s.shifted(c), cfg)(xs + c) - F(xs)).max() <= 16.0 * delta * size


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
    # every hermite jet comes from one whole-set table
    assert len(calls) == (1 if backend == "hermite" else 0)
    assert F.n_pieces >= len(s)
