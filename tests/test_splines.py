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
    sobolev_norms,
)
from sobtrace import splines
from sobtrace.corpus import random_sampled_function
from sobtrace.piecewise import polynomial_derivative, shift_polynomial
from sobtrace.splines import NormReport, _gauss_jacobi
from conftest import make_samples, polynomial_samples

INF = math.inf
#: A piece with a triple zero at 0, sharply peaked at p = 60.5.
SHARP_PEAK = [0.0, 0.0, 0.0, -745.48453346, 1375.47196811, -630.85264773]


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
    with pytest.raises(InvalidInputError):
        sobolev_norm(linear_piece(), -1, 2.0)
    for tol in (math.nan, -1e-10, "1e-10", None):
        with pytest.raises(InvalidInputError):
            lp_norm(linear_piece(), 1.5, quad_tol=tol)
    for p in ("2", None, math.nan):
        with pytest.raises(InvalidInputError):
            lp_norm(linear_piece(), p)
        with pytest.raises(InvalidInputError):
            sobolev_norms([linear_piece()], 1, p)


def test_overflow_is_a_typed_failure():
    huge = PiecewisePolynomial([0.0, 1.0], [[1e200, 0.0, 1e300]])
    for p in (1.5, 2.0, 3.0):
        with pytest.raises(NumericalFailureError):
            lp_norm(huge, p)
    # h^2 = 1e400 overflows when the piece is scaled to its unit interval
    scaled = PiecewisePolynomial([0.0, 1e200], [[0.0, 1e-200, 1e-200]])
    for p in (1.5, 2.0, 3.0, INF):
        with pytest.raises(NumericalFailureError):
            lp_norm(scaled, p)
    # at p = inf each norm is 1.7e308 and their sum overflows
    with pytest.raises(NumericalFailureError):
        sobolev_norm(PiecewisePolynomial([0.0, 1.0], [[0.0, 1.7e308]]), 1, INF)
    with pytest.raises(NumericalFailureError):
        PiecewisePolynomial([0.0, 1.0], [[0.0, 0.0, 1e308]]).differentiate()
    # (2m-1)! overflows a float from m = 86 on
    with pytest.raises(UnsupportedError):
        anchored_min_energy_spline([0.0, 1.0], [1.0, 2.0], 86, -10.0, 10.0)
    s = SampledFunction(tuple(float(x) for x in range(90)), (1.0,) * 90)
    with pytest.raises(UnsupportedError):
        natural_spline_min_energy(s, 86)


def _dense_sup(F):
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.max(np.abs(F(np.linspace(F.breakpoints[0], F.breakpoints[-1], 20001)[:-1]))))


def test_near_max_sup_is_never_below_dense_evaluation():
    # the derivative [1e308, -1.8e308] overflows; the critical point at 5/9,
    # where q = 2.78e307, is found on the row scaled by a power of two
    F = PiecewisePolynomial([0.0, 1.0], [[0.0, 1e308, -0.9e308]])
    assert lp_norm(F, INF) == pytest.approx(1e308 / 3.6, rel=1e-15)
    assert lp_norm(F, INF) >= _dense_sup(F)
    rng = np.random.default_rng(3)
    for _ in range(300):
        F = PiecewisePolynomial([0.0, 1.0], [rng.choice([-1.0, 1.0], 4) * 10.0 ** rng.uniform(300.0, 308.25, 4)])
        dense = _dense_sup(F)
        try:
            sup = lp_norm(F, INF)
        except NumericalFailureError:
            assert dense == INF  # refused only where the evaluation itself overflows
        else:
            assert dense * (1 - 1e-12) <= sup < INF


def test_norms_are_finite_or_refused_on_extreme_coefficients():
    # coefficients of modulus 1e-320..1e308 and widths 1e-3..1e3, with
    # RuntimeWarning an error (pyproject): every report is finite, and every
    # other outcome a typed refusal
    rng = np.random.default_rng(11)
    outcomes = set()
    for i in range(2000):
        k, w = rng.integers(1, 4), rng.integers(1, 6)
        coef = rng.choice([-1.0, 1.0], (k, w)) * 10.0 ** rng.uniform(-320.0, 308.0, (k, w))
        bp = np.concatenate([[0.0], np.cumsum(10.0 ** rng.uniform(-3.0, 3.0, k))])
        tail = rng.choice([0.0, 1.0]) * 10.0 ** rng.uniform(-320.0, 308.0)  # a constant tail, or none
        F = PiecewisePolynomial(bp, coef, [tail], [0.0])
        try:
            report = sobolev_norm(F, int(rng.integers(0, 3)), (1.5, 2.0, 3.0, INF)[i % 4])
        except (NumericalFailureError, NonintegrableError) as exc:
            outcomes.add(type(exc))
        else:
            assert all(map(math.isfinite, report.lp_norms)) and math.isfinite(report.w_norm)
            outcomes.add(NormReport)
    assert outcomes == {NormReport, NumericalFailureError, NonintegrableError}


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


def test_adaptive_depth_cap_raises(monkeypatch):
    # (t - 0.3)^2 + 1e-6: no real root to split at, so the Gauss-Jacobi
    # values differ, and at zero tolerance the graded panels fail in greater
    # number than the first pass's subintervals; the growth guard must report
    # that rather than absorb it
    F = PiecewisePolynomial([0.0, 1.0], [[0.09 + 1e-6, -0.6, 1.0]])
    with pytest.raises(NumericalFailureError, match="quad_tol"):
        lp_norm(F, 1.5, quad_tol=0.0)
    # SHARP_PEAK needs two refinements at p = 60.5, so a depth limit of one
    # refuses it
    monkeypatch.setattr(splines, "_MAX_DEPTH", 1)
    with pytest.raises(NumericalFailureError, match="quad_tol"):
        lp_norm(PiecewisePolynomial([0.0, 1.0], [SHARP_PEAK]), 60.5)


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
    # at p = 60.5 the 16-node rule underestimates the integral 27000-fold,
    # so the panels' tolerance must follow the larger estimate or the
    # refinement cannot meet it
    c = SHARP_PEAK
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
        (0.5655835811751397, [-0.05473294247376953, 0.2021331120018276, -0.07098019610705669,
                              -0.2402784955234334], 1.1),
        (0.5708263882160133, [-0.155373056742593, 5.09057004395267, -64.5244086780927, 388.91505025444576,
                              -1077.4701097369787, 1005.979917430136], 60.5),
        (0.7215346639347463, [0.15288817121542986, -3.9485354445557728, 25.477529357806905, 65.59415479864894,
                              -1213.3941571138548, 4281.3040214276525, -6053.955546326843,
                              3061.4290302942672], 60.5),
    ],
)
def test_fractional_lp_norm_near_double_complex_roots(h, c, p):
    # each piece has a complex root pair 7e-9 to 3e-3 off the real axis
    # inside it, where |q|^p bends like |s - r|^(2p); uncut, the 16/32-node
    # rules and then an adaptive whole-vs-split test accepted values 1.5e-9
    # to 1.4e-8 relative off.  On the fifth piece, cut there, adaptive
    # panels' 16-node whole and split estimates once agreed while both erred,
    # 5.0e-10 relative off.  The last two peak steeply at p = 60.5: on the
    # first the first pass puts the integral 240-fold too low, so the
    # tolerance must follow the kept panels; on the second the rounding of
    # the peak's panels exceeds their share by length at every depth, so the
    # piece must be done once its differences sum well inside its tolerance
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


def test_batched_sobolev_norm_raises_as_oracle():
    s = SampledFunction((0.0, 1.0, 2.5), (1.0, -1.0, 2.0))
    F = extend(s, ExtensionConfig(m=2))
    natural, _ = natural_spline_min_energy(s, 2)  # polynomial tails
    huge = PiecewisePolynomial([0.0, 1.0], [[0.0, 0.0, 1e308]])  # its derivative overflows
    huge_tail = PiecewisePolynomial([0.0, 1.0], [[1.0]], right_tail=[0.0, 1e308, 1e308])
    cases = [
        (NonintegrableError, (natural, 2, 2.0)),
        (NonintegrableError, (natural, 2, 1.5)),
        (InvalidInputError, (F, 2, 0.5)),
        (InvalidInputError, (F, 2, 1.5, -1.0)),
        (NumericalFailureError, (huge, 1, INF)),
        (NumericalFailureError, (huge_tail, 1, INF)),  # so does its tail's
    ]
    for error, args in cases:
        for norm in (sobolev_norm, oracles.sobolev_norm):
            with pytest.raises(error):
                norm(*args)


def _random_extensions(rng, m, count):
    """Extensions of corpus-style sets of 1-12 points at order m, both backends."""
    sets = [random_sampled_function(rng, int(rng.integers(1, 13)), float(rng.choice([2.0, 10.0, 50.0]))) for _ in range(count)]
    return [extend(s, ExtensionConfig(m=m, backend=backend)) for s in sets for backend in ("hermite", "natural2")]


@pytest.mark.parametrize("p", [2.0, 3.0, 4.0, 5.0, 6.0, 1.5, 4.5, INF])
def test_sobolev_norms_equal_single_calls(p):
    # whole F's share a chunk, and each F's rows are integrated and summed as
    # in its own call (row by row, never by a matrix product, whose rounding
    # depends on the row's place), so a batch gives every single report bit
    # for bit: 120 random extensions (m 1-3, both backends), an all-zero F,
    # and an F whose 2,000-odd rows exceed a chunk between two short ones
    rng = np.random.default_rng(11)
    zero = PiecewisePolynomial([0.0, 1.0, 2.0], np.zeros((2, 4)))
    for m in (1, 2, 3):
        Fs = _random_extensions(rng, m, 20)
        Fs.insert(7, zero)
        if m == 1:
            long = extend(random_sampled_function(rng, 1100, 1100.0), ExtensionConfig(m=1))
            assert 2 * (long.coefficients != 0).any(axis=1).sum() > splines._CHUNK
            Fs[3:3] = [long]
        assert sobolev_norms(Fs, m, p) == [sobolev_norm(F, m, p) for F in Fs]
    assert sobolev_norms([], 2, p) == []


def test_sobolev_norms_refuse_as_single_calls():
    rng = np.random.default_rng(5)
    Fs = _random_extensions(rng, 1, 2)
    huge = PiecewisePolynomial([0.0, 1.0], [[1e200, 0.0, 1e300]])  # its integral overflows
    for p in (1.5, 2.0, 3.0):
        with pytest.raises(NumericalFailureError):
            sobolev_norms(Fs[:2] + [huge] + Fs[2:], 1, p)
    wide = PiecewisePolynomial([0.0, 1.0], [[0.0, 1.7e308]])  # the sum of its sups overflows
    with pytest.raises(NumericalFailureError):
        sobolev_norms(Fs[:2] + [wide] + Fs[2:], 1, INF)
    # F's of other widths are tabled apart, but refused in F order: non-zero tails at
    # finite p before a later table that overflows (h^2 = 1e400), and the other way round
    tails = PiecewisePolynomial([0.0, 1.0], [[1.0]], left_tail=[1.0])
    scaled = PiecewisePolynomial([0.0, 1e200], [[0.0, 1e-200, 1e-200]])
    for p in (1.5, 2.0, 3.0):
        with pytest.raises(NonintegrableError):
            sobolev_norms(Fs[:1] + [tails] + Fs[1:] + [scaled], 1, p)
        with pytest.raises(NumericalFailureError, match="scaled coefficients overflow"):
            sobolev_norms(Fs[:1] + [scaled] + Fs[1:] + [tails], 1, p)
    # the growth guard of the fractional quadrature counts each F's panels: at
    # p = 1.1 and quad_tol = 1e-15 this quartic, with three complex pairs near
    # the axis, fails 5 graded panels after 3 first-pass subintervals; the two
    # benign F's of its chunk pass alone, and their 60-odd subintervals would
    # let a guard counted over the chunk refine it further
    bad = PiecewisePolynomial([0.0, 1.0], [[0.012629490126605544, -0.2440445680171576, 1.403704156121127, -2.1715820513738056, 1.0]])
    benign = [PiecewisePolynomial(np.arange(21.0), rng.standard_normal((20, 5))) for _ in range(2)]
    for F in benign:
        lp_norm(F, 1.1, 1e-15)
    with pytest.raises(NumericalFailureError) as single:
        lp_norm(bad, 1.1, 1e-15)
    assert "5 of 47 panels fail after 1 refinements, against limits of 3" in str(single.value)
    with pytest.raises(NumericalFailureError) as batch:
        sobolev_norms(benign + [bad], 0, 1.1, 1e-15)
    assert str(batch.value) == str(single.value)


@np.errstate(over="ignore", invalid="ignore")
def sup_reference(F, m):
    """The p = inf report of F at order m from ``splines._unit_sup`` of every live row: F's
    non-zero pieces and tails differentiated in t order by order, scaled to s = t/h, the
    largest value per order joined with the constant tails, inf past a non-constant tail."""
    keep = F.coefficients.any(axis=1)
    rows = np.vstack([F.coefficients[keep], F.left_tail, F.right_tail])
    h = np.append(np.diff(F.breakpoints)[keep], [1.0, 1.0])
    width = int(np.flatnonzero(rows.any(axis=0)).max(initial=0)) + 1
    table = [rows[:, :width]]
    for _ in range(m):
        table.append(np.hstack([polynomial_derivative(table[-1])[:, : width - 1], np.zeros((len(h), 1))]))
    table = np.array(table) * h[:, None] ** np.arange(width)
    if not np.isfinite(table).all():
        raise NumericalFailureError("the derivatives' scaled coefficients overflow")
    pieces, tails = table[:, :-2], table[:, -2:]
    order, piece = np.nonzero(pieces.any(axis=2))
    lp = np.abs(tails[:, :, 0]).max(axis=1)
    np.maximum.at(lp, order, splines._unit_sup(pieces[order, piece]))
    if not math.isfinite(lp.sum()):
        raise NumericalFailureError(f"not finite: {lp}")
    return tuple(np.where(tails[:, :, 1:].any(axis=(1, 2)), INF, lp).tolist())


def random_sup_case(rng):
    """(F, m): 1-12 pieces of width 1-8 at a scale of 1e-300 to 1e308 (the top ones
    overflow their derivative, which ``_unit_sup`` rescales), some rows zero, some
    pieces sharing one row or peaking at 1/2; tails zero, constant or not; m 0-4."""
    n, width = int(rng.integers(1, 13)), int(rng.integers(1, 9))
    e = rng.uniform(-300.0, 308.25) if rng.random() < 0.8 else float(rng.choice([0.0, 307.0, 308.25]))
    C = rng.uniform(-1.0, 1.0, (n, width)) * 10.0 ** (e - rng.uniform(0.0, 2.0 if e < 300.0 else 0.1, (n, 1)))
    C[rng.random((n, width)) < 0.2] = 0.0
    C[rng.random(n) < 0.2] = 0.0
    if rng.random() < 0.3:
        C[:] = C[0]
    if width >= 3 and rng.random() < 0.3:  # c0 + c2 (s - 1/2)^2, halved, its extremum at the probe 1/2
        C[:, :3] = np.column_stack([C[:, 0] / 2 + C[:, 2] / 8, -C[:, 2] / 2, C[:, 2] / 2])
    h = 10.0 ** rng.uniform(-2.0, 2.0 if e < 300.0 else 0.0, n)
    tails = [rng.choice([0.0, 1.0]) * rng.uniform(-1.0, 1.0, int(rng.choice([1, 1, 2]))) * 10.0**e for _ in range(2)]
    return PiecewisePolynomial(np.concatenate([[0.0], np.cumsum(h)]), C, *tails), int(rng.integers(0, 5))


def test_sup_norm_equals_every_row_reference():
    # the pruned p = inf report against _unit_sup of every live row: single calls and
    # mixed batches give each report bit for bit, and refuse the same F's
    rng = np.random.default_rng(28)
    batches = [[], []]
    for _ in range(600):
        F, m = random_sup_case(rng)
        try:
            ref = sup_reference(F, m)
        except NumericalFailureError:
            with pytest.raises(NumericalFailureError):
                sobolev_norm(F, m, INF)
            continue
        assert sobolev_norm(F, m, INF).lp_norms == ref
        if m == 2:
            batches[len(batches[0]) > 60].append((F, ref))
    for batch in batches:
        Fs, refs = zip(*batch)
        assert [r.lp_norms for r in sobolev_norms(Fs, 2, INF)] == list(refs)


@np.errstate(over="ignore", invalid="ignore")
def test_sup_bounds_hold_every_computed_sup():
    # rows of widths 3-8 at scales 1e-300 to 1e300, near-constant rows whose
    # computed sup sits at the rounding of their Bernstein bound, rows near the
    # float range and rows of a few subnormal units
    rng = np.random.default_rng(4)
    for w in range(3, 9):
        base = rng.uniform(-1.0, 1.0, (4, 3000, w))
        flat = base[1] * 10.0 ** rng.uniform(-18.0, -14.0, (3000, 1))
        flat[:, 0] += rng.uniform(0.5, 1.0, 3000)
        C = np.vstack([
            base[0] * 10.0 ** rng.uniform(-300.0, 300.0, (3000, 1)),
            flat,
            base[2] * 10.0 ** rng.uniform(307.5, 308.25, (3000, 1)),
            np.round(base[3] * 8.0) * 5e-324,
        ])
        C = C[C[:, 2:].any(axis=1)]
        upper, _ = splines._unit_sup_bounds(C)
        assert np.all(splines._unit_sup(C) <= upper)
    # past half the float range Horner's partial sums may overflow: no finite bound
    assert splines._unit_sup_bounds(np.array([[-0.3, 0.3, 0.3]]) * 1.7e308)[0] == INF


def test_sup_norm_rechecks_rows_against_the_report():
    # the 14-fold critical point of 1 - 2^14 (s - 1/2)^14 is solved to some
    # 4e-13 below its value 1 at the probe 1/2, the first pass's threshold; a
    # flat row peaking in between is left out of that pass, and the second,
    # against the report, solves it
    peak = -(2.0**14) * P.polyfromroots([0.5] * 14)
    peak[0] += 1.0
    sup = splines._unit_sup(peak[None])[0]
    assert sup < 1.0 - 1e-13
    top, c = sup + (1.0 - sup) / 4, (1.0 - sup) / 10
    flat = np.zeros(15)
    flat[:3] = top - c / 4, c, -c  # top - c (s - 1/2)^2
    (upper, _), (_, probe) = splines._unit_sup_bounds(flat[None]), splines._unit_sup_bounds(peak[None])
    assert upper[0] < probe[0]
    F = PiecewisePolynomial([0.0, 1.0, 2.0], [peak, flat])
    assert lp_norm(F, INF) == sup_reference(F, 0)[0] == splines._unit_sup(flat[None])[0] > sup


def test_sup_norm_solves_few_rows(monkeypatch):
    # the Bernstein bounds leave the root solve at most 2 % of the live rows
    # of a 500-point extension at m = 3, each order
    rng = np.random.default_rng(7)
    s = SampledFunction(tuple(np.cumsum(rng.uniform(0.5, 1.5, 500))), tuple(rng.standard_normal(500)))
    solved, roots = [], splines._roots
    monkeypatch.setattr(splines, "_roots", lambda P: solved.append(len(P)) or roots(P))
    for backend in ("hermite", "natural2"):
        F = extend(s, ExtensionConfig(m=3, backend=backend))
        live, G = 0, F
        for _ in range(4):
            live += np.count_nonzero(G.coefficients.any(axis=1))
            G = G.differentiate()
        solved.clear()
        sobolev_norm(F, 3, INF)
        assert 0 < sum(solved) <= 0.02 * live


def test_sobolev_norm_makes_one_root_split(monkeypatch):
    # all four orders of this extension fit one batch, so their roots come
    # from one call, and the polynomials of every degree from one eigenvalue
    # solve
    F = extend(make_samples(np.random.default_rng(3), 8, span=10.0), ExtensionConfig(m=3))
    assert 4 * F.n_pieces <= splines._CHUNK
    calls, solves = [], []
    root_split, eigvals = splines._root_split, np.linalg.eigvals
    monkeypatch.setattr(splines, "_root_split", lambda C: calls.append(1) or root_split(C))
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: solves.append(1) or eigvals(a))
    sobolev_norm(F, 3, 1.5)
    assert len(calls) == 1 and len(solves) == 1
    sobolev_norm(F, 3, 3.0)
    assert len(calls) == 2 and len(solves) == 2


def test_roots_drop_padding_by_value(monkeypatch):
    # rows of degrees 1 to 4 share one padded eigenvalue solve; the padding
    # must go whatever order the solver returns the eigenvalues in
    roots = ([0.3], [0.2, 0.7], [0.1, 0.5 + 0.2j, 0.5 - 0.2j], [-2.0, 0.25, 0.6, 3.0])
    rows = np.zeros((len(roots), 5))
    for i, r in enumerate(roots):
        rows[i, : len(r) + 1] = P.polyfromroots(r).real
    eigvals = np.linalg.eigvals
    for order in (slice(None), slice(None, None, -1)):
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: eigvals(a)[:, order])
        z, _ = splines._roots(rows)
        for zi, r in zip(z, roots):
            assert np.allclose(np.sort_complex(zi[~np.isnan(zi)]), np.sort_complex(r), atol=1e-12)


def test_corpus_fractional_norms_refine_at_most_once(monkeypatch):
    # p = 1.5 norms of corpus-style extensions: a subinterval whose 16- and
    # 32-node values disagree is cut into panels graded toward the nearest
    # root of its row, and on these sets those panels pass, so each batch
    # makes the first pass and at most one refinement
    passes, calls = [], []
    pair, integrals = splines._jacobi_pair, splines._fractional_integrals
    monkeypatch.setattr(splines, "_jacobi_pair", lambda *args: calls.append(1) or pair(*args))

    def counted(*args):
        calls.clear()
        out = integrals(*args)
        passes.append(len(calls))
        return out

    monkeypatch.setattr(splines, "_fractional_integrals", counted)
    rng = np.random.default_rng(7)
    for m in (1, 2, 3):
        for span in (2.0, 10.0, 50.0):
            for size in range(12, m, -2):
                s = random_sampled_function(rng, size, span)
                for backend in ("hermite", "natural2"):
                    sobolev_norm(extend(s, ExtensionConfig(m=m, backend=backend)), m, 1.5, 1e-9)
    assert 2 in passes and max(passes) <= 2


def test_fractional_lp_norm_meets_tight_tolerance():
    # three real roots inside and a complex pair 7e-7 off the axis: before
    # every panel kept its share of quad_tol by length, subintervals that
    # failed their graded panels each took the whole tolerance, and the
    # integral came out 2.8e-12 relative off at quad_tol = 1e-12
    h = 0.3048413139860209
    c = [-0.014683600633497928, 1.4148864062665332, -49.352153102910734, 785.1322443556749,
         -6389.147540279611, 27371.926453416745, -58669.22833676508, 49576.01326614529]
    ref = quad(
        lambda t: abs(P.polyval(t, c)) ** 1.1,
        0.0,
        h,
        points=real_roots_inside(c, h),
        limit=500,
        epsabs=0.0,
        epsrel=1e-13,
    )[0]
    got = lp_norm(PiecewisePolynomial([0.0, h], [c]), 1.1, quad_tol=1e-12) ** 1.1
    assert got == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_fractional_lp_norm_near_pair_cubic():
    # a complex pair 0.0027 off the real axis at 0.1247 (unit scale): the
    # piece is cut there, and the subinterval right of the cut, once integrated
    # by adaptive Gauss-Legendre panels alone, came out 1.08e-10 relative off
    # the 40-digit mpmath integral below
    F = PiecewisePolynomial(
        [0.0, 0.8517066778142263],
        [[0.0026589477476738157, -0.04488151832853181, 0.20697114150555518, -0.1441648080536912]],
    )
    assert lp_norm(F, 1.1, 1e-10) ** 1.1 == pytest.approx(0.006430312916796007, rel=1e-10)


def test_sobolev_norm_differentiates_one_table(monkeypatch):
    # the derivative orders come from one scaled coefficient table, not from
    # one derivative object per order
    F = extend(make_samples(np.random.default_rng(3), 8, span=10.0), ExtensionConfig(m=3))
    calls = []
    differentiate = PiecewisePolynomial.differentiate
    monkeypatch.setattr(PiecewisePolynomial, "differentiate", lambda f: calls.append(1) or differentiate(f))
    for p in (1.5, 2.0, 3.0, INF):
        sobolev_norm(F, 3, p)
    assert calls == []


@pytest.mark.parametrize("p", [1.1, 1.5, 2.5, 7.3])
def test_jacobi_pair_equals_one_rule_at_a_time(p):
    # both rules from one pass over their 48 nodes give, bit for bit, the
    # 16- and the 32-node sums taken each on its own
    rng = np.random.default_rng(int(10 * p))
    C = rng.standard_normal((30, 6)) * 10.0 ** rng.integers(-3, 4, (30, 1))
    row = rng.integers(0, len(C), 500)
    a = rng.uniform(0.0, 0.9, 500)
    b = a + rng.uniform(1e-9, 1.0 - a)
    left, right = rng.integers(0, 4, 500), rng.integers(0, 4, 500)
    got = splines._jacobi_pair(C, p, row, a, b, left, right)
    for values, ref in zip(got, oracles.jacobi_pair(C, p, row, a, b, left, right)):
        assert np.array_equal(values, ref)


def test_fractional_norm_of_smooth_extension_is_one_jacobi_pass(monkeypatch):
    # no subinterval of this extension fails the 16/32 test, so no graded
    # pass runs after the first
    F = extend(make_samples(np.random.default_rng(3), 8, span=10.0), ExtensionConfig(m=1))
    calls = []
    pair = splines._jacobi_pair
    monkeypatch.setattr(splines, "_jacobi_pair", lambda *a: calls.append(1) or pair(*a))
    sobolev_norm(F, 1, 1.5)
    assert calls == [1]


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
    with pytest.raises(InvalidInputError, match="bracket"):
        anchored_min_energy_spline((0.0, 1.0, 2.0), (1.0, 2.0, 3.0), 2, 0.5, 6.0)
    with pytest.raises(InvalidInputError):
        anchored_min_energy_spline((0.0, 1.0), (1.0, 2.0), 0, -6.0, 6.0)
    with pytest.raises(InvalidInputError):
        natural_spline_min_energy(SampledFunction((0.0, 1.0), (1.0, 2.0)), 0)


def test_spline_solve_residual_is_checked(rng, monkeypatch):
    # a solution that is finite but does not solve the system must raise
    s = make_samples(rng, 8, span=10.0)
    natural_spline_min_energy(s, 2)
    extend(s, ExtensionConfig(m=2, backend="natural2"))
    # at m = 85 the B-spline Gram matrix is not numerically positive definite
    high = SampledFunction((0.0, 0.1, 0.2), (1.0, -1.0, 1.0))
    with pytest.raises(NumericalFailureError, match="singular or badly scaled"):
        extend(high, ExtensionConfig(m=85, backend="natural2"))
    solve = splines.dpbsv

    def perturbed(ab, b):
        c, x, info = solve(ab, b)
        return c, x + 1e-6 * np.abs(x).max(), info

    # values at the float limit: the solution overflows, refused before any residual
    with pytest.raises(NumericalFailureError, match="singular or badly scaled"):
        natural_spline_min_energy(SampledFunction((0, 1, 2, 3), (1e308, -1e308, 1e308, -1e308)), 2)
    monkeypatch.setattr(splines, "dpbsv", perturbed)
    with pytest.raises(NumericalFailureError, match="backward error"):
        natural_spline_min_energy(s, 2)
    with pytest.raises(NumericalFailureError, match="backward error"):
        extend(s, ExtensionConfig(m=2, backend="natural2"))


def test_lagrange_degenerate_tail_integrity(rng):
    # degenerate natural spline inherits the global polynomial's tails
    s = make_samples(rng, 3)
    L = lagrange_polynomial(s)
    xs = np.linspace(s.points[0] - 2, s.points[-1] + 2, 25)
    F, _ = natural_spline_min_energy(s, 4)
    assert F(xs) == pytest.approx(L(xs), rel=1e-9, abs=1e-9)
