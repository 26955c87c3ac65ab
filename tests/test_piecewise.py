import json

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyval

from sobtrace import InvalidInputError, PiecewisePolynomial
from sobtrace.piecewise import polynomial_derivative, shift_polynomial


def square_piece():
    return PiecewisePolynomial([0.0, 1.0], [[0.0, 0.0, 1.0]])


def test_evaluate_single_piece():
    F = square_piece()
    assert F(0.5) == 0.25
    assert F(0.25) == 0.0625


def test_zero_tails_outside():
    F = square_piece()
    assert F(-3.0) == 0.0
    assert F(7.0) == 0.0


def test_vector_evaluation_matches_scalar():
    F = PiecewisePolynomial([0.0, 1.0, 3.0], [[0.0, 1.0], [1.0, -2.0, 0.5]])
    xs = np.linspace(-1.0, 4.0, 37)
    vec = F(xs)
    assert vec == pytest.approx([F(float(x)) for x in xs])


def random_piecewise(rng):
    bp = np.cumsum(rng.uniform(0.2, 1.5, 9)) - 3.0
    return PiecewisePolynomial(
        bp, rng.standard_normal((8, 5)), rng.standard_normal(3), rng.standard_normal(4)
    )


def per_piece_value(F, x):
    """Reference: pick the active polynomial by comparison, then polyval."""
    bp = F.breakpoints
    if x < bp[0]:
        return np.polynomial.polynomial.polyval(x - bp[0], F.left_tail)
    if x >= bp[-1]:
        return np.polynomial.polynomial.polyval(x - bp[-1], F.right_tail)
    j = max(k for k in range(F.n_pieces) if bp[k] <= x)
    return np.polynomial.polynomial.polyval(x - bp[j], F.coefficients[j])


def test_vector_evaluation_matches_per_piece_polyval(rng):
    F = random_piecewise(rng)
    bp = F.breakpoints
    xs = np.concatenate([rng.uniform(bp[0] - 3.0, bp[-1] + 3.0, 300), bp, [-50.0, 50.0]])
    got = F(xs)
    assert got == pytest.approx([per_piece_value(F, x) for x in xs], rel=1e-13, abs=1e-13)
    # a point exactly on a breakpoint belongs to the piece (or tail) to its right
    assert np.array_equal(F(bp[:-1]), F.coefficients[:, 0])
    assert F(bp[-1]) == F.right_tail[0]
    assert np.array_equal(F(xs[:300].reshape(3, 100)), got[:300].reshape(3, 100))


def test_two_d_coefficients_match_rows(rng):
    F = random_piecewise(rng)
    rows = F.coefficients.copy()
    G = PiecewisePolynomial(F.breakpoints, [list(r) for r in rows], F.left_tail, F.right_tail)
    H = PiecewisePolynomial(F.breakpoints, rows, F.left_tail, F.right_tail)
    rows[0, 0] = 99.0  # the constructor copies
    for other in (G, H):
        assert np.array_equal(other.coefficients, F.coefficients)
    # a 2-D array narrower than a tail is padded with zero columns
    W = PiecewisePolynomial([0.0, 1.0, 2.0], np.ones((2, 1)), [0.0, 0.0, 1.0])
    assert np.array_equal(W.coefficients, [[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    dF = F.differentiate()
    for j in range(F.n_pieces):
        assert np.array_equal(dF.coefficients[j], polynomial_derivative(F.coefficients[j]))
    constant = PiecewisePolynomial([0.0, 1.0], [[3.0]]).differentiate()
    assert np.array_equal(constant.coefficients, [[0.0]])


def test_constructor_leaves_caller_arrays_writable():
    bp, tail = np.array([0.0, 1.0, 2.0]), np.array([1.0, 2.0])
    F = PiecewisePolynomial(bp, [[1.0, 0.0], [2.0, 0.0]], left_tail=tail, right_tail=tail)
    assert bp.flags.writeable and tail.flags.writeable
    bp[0], tail[0] = -5.0, 7.0  # the stored arrays are copies
    assert F.breakpoints[0] == 0.0 and F.left_tail[0] == F.right_tail[0] == 1.0
    assert not (F.breakpoints.flags.writeable or F.left_tail.flags.writeable)
    # a derivative shares the already frozen breakpoints instead of copying them
    assert F.differentiate().breakpoints is F.breakpoints


def test_differentiate_twice_linear_piece():
    F = PiecewisePolynomial([0.0, 2.0], [[3.0, 4.0]])
    dd = F.differentiate().differentiate()
    for x in (-1.0, 0.5, 1.5, 3.0):
        assert dd(x) == 0.0


def test_derivative_matches_finite_differences():
    # two-point Hermite-style cubic piece
    F = PiecewisePolynomial([0.0, 1.0], [[1.0, 0.5, -3.0, 2.0]], [1.0], [0.5])
    dF = F.differentiate()
    h = 1e-5
    for x in (0.2, 0.5, 0.8):
        fd = (F(x + h) - F(x - h)) / (2 * h)
        assert dF(x) == pytest.approx(fd, rel=1e-6)


def test_smoothness_global_polynomial_split():
    # x^2 + x split artificially at 1: all derivatives match
    left = [0.0, 1.0, 1.0]
    right = shift_polynomial(left, 1.0)
    F = PiecewisePolynomial([0.0, 1.0, 2.0], [left, right])
    assert F.smoothness_order(1e-10) == F.degree


def test_smoothness_hat_function():
    F = PiecewisePolynomial([0.0, 1.0, 2.0], [[0.0, 1.0], [1.0, -1.0]])
    assert F.smoothness_order(1e-10) == 0


def test_smoothness_discontinuous():
    F = PiecewisePolynomial([0.0, 1.0, 2.0], [[0.0], [5.0]])
    assert F.smoothness_order(1e-10) == -1


def test_smoothness_no_interior_breakpoints():
    F = PiecewisePolynomial([0.0, 1.0], [[1.0, 2.0]])
    assert F.smoothness_order(1e-10) == F.degree


def test_addition_and_scaling():
    # evaluation is linear in the coefficient rows and tails on shared breakpoints
    bp = [0.0, 0.5, 1.0, 2.0]
    cf = np.array([[0.0, 1.0, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 0.0]])
    cg = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 2.0], [1.5, 2.0, 2.0]])
    lf, lg, rf, rg = np.array([0.0, 1.0, 0.0]), np.zeros(3), np.zeros(3), np.array([9.0, 6.0, 2.0])
    F, G = PiecewisePolynomial(bp, cf, lf, rf), PiecewisePolynomial(bp, cg, lg, rg)
    H = PiecewisePolynomial(bp, cf + 2.0 * cg, lf + 2.0 * lg, rf + 2.0 * rg)
    for x in (-0.5, 0.1, 0.7, 1.5, 2.5):
        assert H(x) == pytest.approx(F(x) + 2.0 * G(x), rel=1e-12, abs=1e-12)
    D = PiecewisePolynomial(bp, cf - cf, lf - lf, rf - rf)
    for x in (-1.0, 0.3, 2.0):
        assert D(x) == 0.0


def test_shift_polynomial_identity():
    c = [1.0, -2.0, 3.0, 0.5]
    shifted = shift_polynomial(c, 0.7)
    for t in (-1.0, 0.0, 0.4):
        assert polyval(t, shifted) == pytest.approx(polyval(t + 0.7, c), rel=1e-12, abs=1e-12)


def test_shift_polynomial_rows(rng):
    # each row shifts by its own amount, exactly as it would alone
    C, t0 = rng.standard_normal((6, 5)), rng.uniform(-2.0, 2.0, 6)
    rows = shift_polynomial(C, t0)
    for c, t, row in zip(C, t0, rows):
        assert np.array_equal(row, shift_polynomial(c, float(t)))


def test_serialization_round_trip_bit_stable():
    F = PiecewisePolynomial(
        [0.0, 1.0 / 3.0, np.pi],
        [[0.1, -2.0 / 7.0, 1e-17], [5.0, 0.0, -1.2345678901234567]],
        [0.0, 1e-300],
        [7.0],
    )
    # repr-based float serialization round-trips every finite double
    text = json.dumps(F.to_dict(), sort_keys=True, allow_nan=False)
    G = PiecewisePolynomial.from_dict(json.loads(text))
    assert np.array_equal(G.breakpoints, F.breakpoints)
    assert np.array_equal(G.coefficients, F.coefficients)
    assert np.array_equal(G.left_tail, F.left_tail)
    assert np.array_equal(G.right_tail, F.right_tail)
    assert json.dumps(G.to_dict(), sort_keys=True) == text


def test_validation_errors():
    with pytest.raises(InvalidInputError):
        PiecewisePolynomial([0.0], [])
    with pytest.raises(InvalidInputError):
        PiecewisePolynomial([0.0, 0.0], [[1.0]])
    with pytest.raises(InvalidInputError):
        PiecewisePolynomial([1.0, 0.0], [[1.0]])
    with pytest.raises(InvalidInputError):
        PiecewisePolynomial([0.0, 1.0], [[1.0], [2.0]])
    with pytest.raises(InvalidInputError, match="finite"):
        PiecewisePolynomial([0.0, np.inf], [[1.0]])
    for tol in (0.0, -1.0, np.nan):
        with pytest.raises(InvalidInputError, match="tol"):
            square_piece().smoothness_order(tol=tol)
    # not a mapping, a missing key, a value that is not a number, no rows, a
    # 3-D coefficient array and a 2-D tail
    good = square_piece().to_dict()
    for d in ([0.0, 1.0], {k: v for k, v in good.items() if k != "pieces"}, {**good, "pieces": [["x"]]}):
        with pytest.raises(InvalidInputError):
            PiecewisePolynomial.from_dict(d)
    for args in (([0.0, 1.0], 5.0), ([0.0, 1.0], [[1.0, "b"]]), ([0.0, "a"], [[1.0]]), ([0.0, 1.0], np.zeros((1, 2, 2))),
                 ([0.0, 1.0], [[[1.0, 2.0]]]), ([0.0, 1.0], [[1.0]], [[1.0, 2.0], [3.0, 4.0]])):
        with pytest.raises(InvalidInputError):
            PiecewisePolynomial(*args)


@pytest.mark.parametrize("tail", [np.inf, -np.inf, np.nan])
def test_non_finite_tails_rejected(tail):
    with pytest.raises(InvalidInputError):
        PiecewisePolynomial([0.0, 1.0], [[1.0]], left_tail=[tail])
    with pytest.raises(InvalidInputError):
        PiecewisePolynomial([0.0, 1.0], [[1.0]], right_tail=[0.0, tail])
    # json reads Infinity and NaN as floats
    text = json.dumps({"breakpoints": [0.0, 1.0], "pieces": [[1.0]], "left_tail": [0.0], "right_tail": [tail]})
    with pytest.raises(InvalidInputError):
        PiecewisePolynomial.from_dict(json.loads(text))
