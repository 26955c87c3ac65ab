import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as P
from scipy.integrate import quad
from scipy.special import roots_jacobi

import oracles
from sobtrace import (
    ExtensionConfig,
    InvalidInputError,
    NonintegrableError,
    NumericalFailureError,
    PiecewisePolynomial,
    SampledFunction,
    UnsupportedError,
    anchored_min_energy_spline,
    extend,
    homogeneous_sequence_functional,
    lagrange_polynomial,
    lp_norm,
    natural_spline_min_energy,
    sobolev_norm,
)
from sobtrace import splines
from sobtrace.corpus import random_sampled_function
from sobtrace.piecewise import shift_polynomial
from sobtrace.splines import _gauss_jacobi
from conftest import make_samples, polynomial_samples

INF = math.inf


def linear_piece():
    return PiecewisePolynomial([0.0, 1.0], [[0.0, 1.0]])


# ---------------------------------------------------------------- lp norms


def test_lp2_of_x():
    assert lp_norm(linear_piece(), 2.0) == pytest.approx(math.sqrt(1 / 3), rel=1e-13)


def test_lp_zero_function():
    Z = PiecewisePolynomial([0.0, 1.0], [[0.0]])
    for p in (1.5, 2.0, 3.0, INF):
        assert lp_norm(Z, p) == 0.0


def test_sup_norm_critical_point():
    # x(1-x) on [0,1]: maximum 0.25 at the interior critical point
    F = PiecewisePolynomial([0.0, 1.0], [[0.0, 1.0, -1.0]])
    assert lp_norm(F, INF) == pytest.approx(0.25, rel=1e-12)


def test_gauss_exactness_monomials(rng):
    # closed form: integral of t^d over [0, h] is h^(d+1)/(d+1)
    for d in range(8):
        h = float(rng.uniform(0.3, 2.5))
        coeffs = [0.0] * d + [1.0]
        F = PiecewisePolynomial([0.0, h], [coeffs])
        exact = math.sqrt(h ** (2 * d + 1) / (2 * d + 1))
        assert lp_norm(F, 2.0) == pytest.approx(exact, rel=1e-12)


def test_odd_p_with_sign_change():
    # |x - 0.5|^3 on [0,1] integrates to 2 * 0.5^4 / 4
    F = PiecewisePolynomial([0.0, 1.0], [[-0.5, 1.0]])
    assert lp_norm(F, 3.0) == pytest.approx((2 * 0.5**4 / 4) ** (1 / 3), rel=1e-12)


def test_fractional_p():
    # integral of x^1.5 over [0,1] = 0.4
    assert lp_norm(linear_piece(), 1.5) == pytest.approx(0.4 ** (1 / 1.5), rel=1e-9)


def test_fractional_p_across_root():
    # local coefficients -1 + t on [-1, 1] represent q(x) = x, zero at 0
    F = PiecewisePolynomial([-1.0, 1.0], [[-1.0, 1.0]])
    exact = (2 / 2.5) ** (1 / 1.5)
    assert lp_norm(F, 1.5) == pytest.approx(exact, rel=1e-9)


def test_nonintegrable_tails_raise():
    F = PiecewisePolynomial([0.0, 1.0], [[1.0]], left_tail=[1.0], right_tail=[1.0])
    with pytest.raises(NonintegrableError):
        lp_norm(F, 2.0)


def test_sup_norm_with_tails():
    const_tail = PiecewisePolynomial([0.0, 1.0], [[0.5]], left_tail=[2.0], right_tail=[0.0])
    assert lp_norm(const_tail, INF) == 2.0
    growing = PiecewisePolynomial([0.0, 1.0], [[0.5]], left_tail=[0.0, 1.0], right_tail=[0.0])
    assert lp_norm(growing, INF) == INF


def test_lp_rejects_bad_p():
    with pytest.raises(InvalidInputError):
        lp_norm(linear_piece(), 0.5)
    for tol in (math.nan, -1e-10):
        with pytest.raises(InvalidInputError):
            lp_norm(linear_piece(), 1.5, quad_tol=tol)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the point
def test_overflow_is_a_typed_failure():
    huge = PiecewisePolynomial([0.0, 1.0], [[1e200, 0.0, 1e300]])
    for p in (1.5, 2.0, 3.0):
        with pytest.raises(NumericalFailureError):
            lp_norm(huge, p)
    with pytest.raises(NumericalFailureError):
        PiecewisePolynomial([0.0, 1.0], [[0.0, 0.0, 1e308]]).differentiate()
    # (2m-1)! overflows a float from m = 86 on
    with pytest.raises(UnsupportedError):
        anchored_min_energy_spline([0.0, 1.0], [1.0, 2.0], 86, -10.0, 10.0)
    s = SampledFunction(tuple(float(x) for x in range(90)), (1.0,) * 90)
    with pytest.raises(UnsupportedError):
        natural_spline_min_energy(s, 86)


def test_lp_triangle_inequality_and_scaling(rng):
    for p in (1.5, 2.0, 3.0):
        for _ in range(5):
            bp = np.sort(rng.uniform(0, 5, 5))
            if np.diff(bp).min() < 0.1:
                continue
            # F and G as coefficient rows on shared breakpoints, F on the
            # first three pieces and G on the last three
            cf, cg = rng.standard_normal((4, 3)), rng.standard_normal((4, 3))
            cf[3:], cg[:1] = 0.0, 0.0
            nf, ng = lp_norm(PiecewisePolynomial(bp, cf), p), lp_norm(PiecewisePolynomial(bp, cg), p)
            nfg = lp_norm(PiecewisePolynomial(bp, cf + cg), p)
            assert nfg <= nf + ng + 1e-9 * (nf + ng)
            assert lp_norm(PiecewisePolynomial(bp, -2.5 * cf), p) == pytest.approx(2.5 * nf, rel=1e-9)


def test_adaptive_depth_cap_raises():
    # (t - 0.3)^2 + 1e-6: no real root to split at, so the Gauss-Jacobi
    # values differ and a zero tolerance sends the adaptive fallback to its
    # depth cap, which must be reported rather than absorbed
    F = PiecewisePolynomial([0.0, 1.0], [[0.09 + 1e-6, -0.6, 1.0]])
    with pytest.raises(NumericalFailureError):
        lp_norm(F, 1.5, quad_tol=0.0)


@pytest.mark.parametrize("n", [16, 32])
@pytest.mark.parametrize("a", [0.0, 0.55, 1.5, 3.3, 6.0])
@pytest.mark.parametrize("b", [0.0, 1.1, 4.5, 6.0])
def test_gauss_jacobi_matches_scipy(n, a, b):
    x, w = _gauss_jacobi(n, a, b)
    ref_x, ref_w = roots_jacobi(n, a, b)
    assert np.max(np.abs(x - ref_x)) <= 1e-14
    assert np.max(np.abs(w - ref_w) / ref_w) <= 2e-12


@st.composite
def norm_test_pieces(draw):
    """One piece on [0, h] of degree <= 7 with the features that make |q|^p
    hard to integrate: multiple zeros at either end, near-double roots and
    roots just outside the piece."""
    h = draw(st.floats(0.1, 3.0))
    roots = [0.0] * draw(st.integers(0, 3)) + [h] * draw(st.integers(0, 2))
    r = h * draw(st.floats(0.05, 0.9))
    delta = h * 10.0 ** draw(st.integers(-6, -2))
    feature = draw(
        st.sampled_from(["none", "interior", "near_double", "outside_left", "outside_right"])
    )
    roots += {
        "none": [],
        "interior": [r],
        "near_double": [r, r + delta],
        "outside_left": [-delta],
        "outside_right": [h + delta],
    }[feature]
    free = draw(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=8 - len(roots)))
    if free[-1] == 0.0:
        free[-1] = 1.0
    return h, P.polymul(P.polyfromroots(roots), free)


def real_roots_inside(c, h):
    """Real roots of c in (0, h), leaving out those within 1e-9 h of an end.
    Coefficients below 1e-14 of the largest are dropped first: a tiny
    leading one would only add a root far outside and overflow polyroots."""
    c = np.asarray(c, dtype=float)
    c = np.trim_zeros(np.where(np.abs(c) < 1e-14 * np.abs(c).max(), 0.0, c), "b")
    if len(c) <= 1:
        return []
    margin = 1e-9 * h
    return sorted(
        z.real for z in P.polyroots(c) if abs(z.imag) <= 1e-7 and margin < z.real < h - margin
    )


@given(norm_test_pieces(), st.sampled_from([1.1, 1.5, 2.5]))
@settings(max_examples=150, deadline=None)
@example(  # a near-double complex pair inside each piece
    piece=(
        1.5170116679612322,
        np.array([-0.05600801084514823, -3.6742052250753114, 1.275292101153262,
                  6.664973402140967, -6.186814358108782, 1.517578125]),
    ),
    p=1.5,
)
def test_fractional_lp_norm_matches_scipy_quad(piece, p):
    h, c = piece
    F = PiecewisePolynomial([0.0, h, h + 1.0, 2 * h + 1.0], [c, [0.0], c[::-1]])
    ref = 0.0
    for coeffs in (c, c[::-1]):
        ref += quad(
            lambda t: abs(P.polyval(t, coeffs)) ** p,
            0.0,
            h,
            points=real_roots_inside(coeffs, h) or None,
            limit=500,
            epsabs=0.0,
            epsrel=1e-13,
        )[0]
    got = lp_norm(F, p, quad_tol=1e-10) ** p
    assert got == pytest.approx(ref, rel=1e-9)


def test_fractional_lp_norm_sharply_peaked():
    # a triple zero at 0 and p = 60.5: the 16-node rule underestimates the
    # integral 27000-fold, so the fallback's tolerance must follow the
    # larger estimate or the adaptive path cannot meet it
    c = [0.0, 0.0, 0.0, -745.48453346, 1375.47196811, -630.85264773]
    F = PiecewisePolynomial([0.0, 1.0], [c])
    ref = quad(
        lambda t: abs(P.polyval(t, c)) ** 60.5,
        0.0,
        1.0,
        points=[0.59],
        limit=500,
        epsabs=0.0,
        epsrel=1e-12,
    )[0]
    assert lp_norm(F, 60.5) ** 60.5 == pytest.approx(ref, rel=1e-9)


@pytest.mark.parametrize(
    "h, c, p",
    [
        (1.2156842962338434, [0.4792295258560019, -1.5526704157406237, 1.2576367084859035], 1.1),
        (2.8429123237781964, [-2.8836273350063717, 4.740460154407935, -1.9482373990799804], 2.5),
        (1.8949468702433467, [4.109255634106997, -2.919463757936183, -1.5592504778240266,
                              1.1195173581224758], 2.5),
        (1.5170116679612322, [1.517578125, -6.186814358108782, 6.664973402140967, 1.275292101153262,
                              -3.6742052250753114, -0.05600801084514823], 1.5),
    ],
)
def test_fractional_lp_norm_near_double_complex_roots(h, c, p):
    # each piece has a complex root pair 7e-9 to 5e-4 off the real axis
    # inside it, where |q|^p bends like |s - r|^(2p); uncut, the 16/32-node
    # rules and then the adaptive whole-vs-split test accept values 1.5e-9
    # to 1.4e-8 relative off
    roots = sorted(z.real for z in P.polyroots(c) if 0.0 < z.real < h)
    ref = quad(
        lambda t: abs(P.polyval(t, c)) ** p, 0.0, h, points=roots, limit=500, epsabs=0.0, epsrel=1e-13
    )[0]
    got = lp_norm(PiecewisePolynomial([0.0, h], [c]), p, quad_tol=1e-10) ** p
    assert got == pytest.approx(ref, rel=1e-10)


@given(norm_test_pieces(), st.sampled_from([1, 2, 3, 4]))
@settings(max_examples=150, deadline=None)
def test_integer_lp_norm_matches_exact_integrals(piece, p):
    # q^p integrated in exact rational arithmetic: in floating point the
    # antiderivative of q^p loses more than 1e-12 to cancellation
    h, c = piece
    F = PiecewisePolynomial([0.0, h], [c])
    power = P.polyint(P.polypow(np.array([Fraction(v) for v in c], dtype=object), p))
    cuts = [0.0, h] if p % 2 == 0 else [0.0, *real_roots_inside(c, h), h]
    exact = sum(
        abs(P.polyval(Fraction(b), power) - P.polyval(Fraction(a), power))
        for a, b in zip(cuts, cuts[1:])
    )
    assert lp_norm(F, float(p)) ** p == pytest.approx(float(exact), rel=1e-12)


def test_sobolev_norm_of_x():
    rep = sobolev_norm(linear_piece(), 1, 2.0)
    assert rep.lp_norms[0] == pytest.approx(math.sqrt(1 / 3), rel=1e-12)
    assert rep.lp_norms[1] == pytest.approx(1.0, rel=1e-12)
    assert rep.w_norm == sum(rep.lp_norms)
    assert rep.l_homog == rep.lp_norms[-1]


def test_sobolev_zero():
    Z = PiecewisePolynomial([0.0, 2.0], [[0.0, 0.0]])
    rep = sobolev_norm(Z, 2, 2.0)
    assert rep.w_norm == 0.0


def test_w_norm_dominates_homogeneous(rng):
    s = make_samples(rng, 5)
    F, _ = natural_spline_min_energy(s, 2)
    # the natural spline has polynomial tails; compare on a clipped copy
    rep = sobolev_norm(_clip_to_window(F), 2, 2.0)
    assert rep.w_norm >= rep.l_homog


@st.composite
def corpus_like_sets(draw):
    """Sets of m+1 to 14 points from the calibration corpus's generator on
    spans 2, 10 and 50, under shifts up to 1e6, with an order m of 1-3."""
    m = draw(st.integers(1, 3))
    size = draw(st.integers(m + 1, 14))
    span = draw(st.sampled_from([2.0, 10.0, 50.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shift = draw(st.just(0.0) | st.floats(-1e6, 1e6))
    return random_sampled_function(rng, size, span).shifted(shift), m


@settings(max_examples=60, deadline=None)
@given(corpus_like_sets())
def test_batched_sobolev_norm_matches_oracle(case):
    # the oracle integrates one order at a time and seeks roots group by
    # group; the batch sizes its Gauss rules by the widest order and sums
    # through bincount, so integer p and p = inf agree to rounding and
    # fractional p to the quadrature tolerance
    s, m = case
    for backend in ("hermite", "natural2"):
        F = extend(s, ExtensionConfig(m=m, backend=backend))
        for p in (1.5, 2.0, 2.5, 3.0, INF):
            got = sobolev_norm(F, m, p, 1e-9)
            with mock.patch.object(splines, "_root_split", oracles.root_split):
                ref = oracles.sobolev_norm(F, m, p, 1e-9)
            tol = 1e-9 if p in (1.5, 2.5) else 1e-13
            for a, b in zip(got.lp_norms + (got.w_norm,), ref.lp_norms + (ref.w_norm,)):
                assert abs(a - b) <= tol * b
            assert got.l_homog == got.lp_norms[-1]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the point
def test_batched_sobolev_norm_raises_as_oracle():
    s = SampledFunction((0.0, 1.0, 2.5), (1.0, -1.0, 2.0))
    F = extend(s, ExtensionConfig(m=2))
    natural, _ = natural_spline_min_energy(s, 2)  # polynomial tails
    huge = PiecewisePolynomial([0.0, 1.0], [[0.0, 0.0, 1e308]])  # its derivative overflows
    cases = [
        (NonintegrableError, (natural, 2, 2.0)),
        (NonintegrableError, (natural, 2, 1.5)),
        (InvalidInputError, (F, 2, 0.5)),
        (InvalidInputError, (F, 2, 1.5, -1.0)),
        (NumericalFailureError, (huge, 1, INF)),
    ]
    for error, args in cases:
        for norm in (sobolev_norm, oracles.sobolev_norm):
            with pytest.raises(error):
                norm(*args)


def test_sobolev_norm_makes_one_root_split(monkeypatch):
    # all four orders of this extension fit one batch, so their roots come
    # from one call
    F = extend(make_samples(np.random.default_rng(3), 8, span=10.0), ExtensionConfig(m=3))
    assert 4 * F.n_pieces <= splines._CHUNK
    calls = []
    root_split = splines._root_split
    monkeypatch.setattr(splines, "_root_split", lambda C: calls.append(1) or root_split(C))
    sobolev_norm(F, 3, 1.5)
    assert len(calls) == 1


def _clip_to_window(F):
    return PiecewisePolynomial(F.breakpoints, list(F.coefficients))


# --------------------------------------------------------- natural splines


def test_natural_m1_energy_closed_form():
    s = SampledFunction((0.0, 1.0, 3.0), (0.0, 1.0, 1.0))
    F, energy = natural_spline_min_energy(s, 1)
    assert energy == pytest.approx(1.0, rel=1e-12)
    for x, v in zip(s.points, s.values):
        assert F(x) == pytest.approx(v, abs=1e-12)


def test_natural_reproduces_low_degree(rng):
    for m in (1, 2, 3):
        s, coeffs = polynomial_samples(rng, m - 1, m + 3)
        F, energy = natural_spline_min_energy(s, m)
        scale = 1 + max(abs(v) for v in s.values)
        assert energy <= 1e-16 * scale**2
        xs = np.linspace(s.points[0], s.points[-1], 50)
        expected = np.polynomial.polynomial.polyval(xs, coeffs)
        assert F(xs) == pytest.approx(expected, rel=1e-7, abs=1e-8 * scale)


def test_degenerate_small_set_returns_polynomial(rng):
    s = make_samples(rng, 2)
    F, energy = natural_spline_min_energy(s, 3)
    assert energy == 0.0
    for x, v in zip(s.points, s.values):
        assert F(x) == pytest.approx(v, abs=1e-10)


def test_natural_m1_matches_functional(rng):
    for _ in range(20):
        size = int(rng.integers(2, 9))
        s = make_samples(rng, size, span=5.0)
        _, energy = natural_spline_min_energy(s, 1)
        h = homogeneous_sequence_functional(s, 1, 2.0).value
        assert energy == pytest.approx(h * h, rel=1e-10)


def test_energy_quadratic_scaling(rng):
    s = make_samples(rng, 6)
    _, e1 = natural_spline_min_energy(s, 2)
    _, e4 = natural_spline_min_energy(s.scaled_values(2.0), 2)
    assert e4 == pytest.approx(4.0 * e1, rel=1e-9)


def test_energy_triangle_inequality(rng):
    s = make_samples(rng, 6)
    g_vals = tuple(float(v) for v in rng.standard_normal(6))
    g = SampledFunction(s.points, g_vals)
    fg = SampledFunction(s.points, tuple(a + b for a, b in zip(s.values, g_vals)))
    _, ef = natural_spline_min_energy(s, 2)
    _, eg = natural_spline_min_energy(g, 2)
    _, efg = natural_spline_min_energy(fg, 2)
    assert math.sqrt(efg) <= math.sqrt(ef) + math.sqrt(eg) + 1e-9


def _bump_in_gap(a, b, m, amp):
    """C^{m-1} bump amp ((x-a)(b-x))^m supported inside (a, b)."""
    width = b - a
    coeffs = np.zeros(2 * m + 1)
    for i in range(m + 1):
        coeffs[m + i] = amp * math.comb(m, i) * width ** (m - i) * (-1.0) ** i
    return PiecewisePolynomial([a, b], [coeffs])


def _plus_bump(F, bump):
    """F plus a bump supported inside one piece of F: that piece is split at
    the bump's ends, and the middle part takes the sum of both polynomials."""
    (a, b), bump_row = bump.breakpoints, bump.coefficients[0]
    j = int(np.searchsorted(F.breakpoints, a)) - 1
    c, x0 = F.coefficients[j], F.breakpoints[j]
    middle = np.zeros(max(len(c), len(bump_row)))
    middle[: len(c)] = shift_polynomial(c, a - x0)
    middle[: len(bump_row)] += bump_row
    pieces = [*F.coefficients[:j], c, middle, shift_polynomial(c, b - x0), *F.coefficients[j + 1 :]]
    bp = np.concatenate([F.breakpoints[: j + 1], [a, b], F.breakpoints[j + 1 :]])
    return PiecewisePolynomial(bp, pieces, F.left_tail, F.right_tail)


def test_minimizer_stationarity_under_bumps(rng):
    for m in (1, 2):
        s = make_samples(rng, 6, span=8.0)
        F, energy = natural_spline_min_energy(s, m)
        for _ in range(20):
            j = int(rng.integers(0, len(s) - 1))
            x0, x1 = s.points[j], s.points[j + 1]
            pad = 0.2 * (x1 - x0)
            a = float(rng.uniform(x0 + 0.1 * pad, x0 + pad))
            b = float(rng.uniform(x1 - pad, x1 - 0.1 * pad))
            if b <= a:
                continue
            amp = float(rng.uniform(-2.0, 2.0))
            bump = _bump_in_gap(a, b, m, amp)
            for x, v in zip(s.points, s.values):
                assert bump(x) == 0.0
            perturbed = _plus_bump(F, bump)
            xs = np.linspace(s.points[0] - 1.0, s.points[-1] + 1.0, 41)
            assert np.allclose(perturbed(xs), F(xs) + bump(xs), rtol=1e-12, atol=1e-12)
            deriv = perturbed
            for _ in range(m):
                deriv = deriv.differentiate()
            new_energy = lp_norm(deriv, 2.0) ** 2
            assert new_energy >= energy * (1 - 1e-8) - 1e-12


# --------------------------------------------------------- anchored solves


def test_anchored_interpolates_and_clamps(rng):
    pts = (0.0, 1.0, 2.5, 4.0)
    vals = (1.0, -1.0, 0.5, 2.0)
    for m in (1, 2, 3):
        F = anchored_min_energy_spline(pts, vals, m, -6.0, 10.0)
        for x, v in zip(pts, vals):
            assert F(x) == pytest.approx(v, abs=1e-9)
        assert F(-6.0) == pytest.approx(0.0, abs=1e-9)
        assert F(-7.0) == 0.0
        assert F(11.0) == 0.0
        assert F.smoothness_order(1e-7) >= m - 1


def test_anchored_interior_extra_smoothness():
    pts = (0.0, 1.0, 2.0)
    vals = (1.0, -1.0, 0.5)
    m = 2
    F = anchored_min_energy_spline(pts, vals, m, -5.0, 7.0)
    dF = F.differentiate()
    ddF = dF.differentiate()
    # jumps of the first 2m-2 = 2 derivatives vanish at the data knots
    for knot in pts:
        eps = 1e-7
        for G in (dF, ddF):
            assert G(knot + eps) == pytest.approx(G(knot - eps), rel=1e-4, abs=1e-4)


def test_anchored_coincident_edge_knot():
    # a zero-valued knot exactly on the edge is absorbed into the clamp
    F = anchored_min_energy_spline((-6.0, 0.0, 1.0), (0.0, 1.0, 2.0), 2, -6.0, 7.0)
    assert F(0.0) == pytest.approx(1.0, abs=1e-9)
    assert F(-6.5) == 0.0
    with pytest.raises(InvalidInputError):
        anchored_min_energy_spline((-6.0, 0.0), (1.0, 1.0), 2, -6.0, 6.0)
    with pytest.raises(InvalidInputError, match="one length"):
        anchored_min_energy_spline((0.0, 1.0, 2.0), (1.0, 2.0), 2, -6.0, 6.0)


def test_spline_solve_residual_is_checked(rng, monkeypatch):
    # a solution that is finite but does not solve the system must raise
    s = make_samples(rng, 8, span=10.0)
    natural_spline_min_energy(s, 2)
    extend(s, ExtensionConfig(m=2, backend="natural2"))
    # at m = 85, |A| |x| overflows a float while the backward error is 2.2e-175
    high = SampledFunction((0.0, 0.1, 0.2), (1.0, -1.0, 1.0))
    extend(high, ExtensionConfig(m=85, backend="natural2"))
    solve = splines.spsolve

    def perturbed(A, b):
        x = solve(A, b)
        return x + 1e-6 * np.abs(x).max()

    monkeypatch.setattr(splines, "spsolve", perturbed)
    with pytest.raises(NumericalFailureError, match="backward error"):
        natural_spline_min_energy(s, 2)
    with pytest.raises(NumericalFailureError, match="backward error"):
        extend(s, ExtensionConfig(m=2, backend="natural2"))
    with pytest.raises(NumericalFailureError, match="backward error"):
        extend(high, ExtensionConfig(m=85, backend="natural2"))


def test_lagrange_degenerate_tail_integrity(rng):
    # degenerate natural spline inherits the global polynomial's tails
    s = make_samples(rng, 3)
    L = lagrange_polynomial(s)
    xs = np.linspace(s.points[0] - 2, s.points[-1] + 2, 25)
    F, _ = natural_spline_min_energy(s, 4)
    assert F(xs) == pytest.approx(L(xs), rel=1e-9, abs=1e-9)
