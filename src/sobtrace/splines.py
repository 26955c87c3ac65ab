"""L^p norms of piecewise polynomials and minimal-energy interpolating splines.

Quadrature policy.  ``sobolev_norm`` integrates F and its derivatives up to
order m in one pass (``lp_norm`` is the case m = 0): the non-zero pieces of
every order, each in its scaled coordinate s = t/h on [0, 1], are stacked
into batches of coefficient rows and their integrals summed per order:

* even integer p: |q|^p is a polynomial, so one Gauss-Legendre rule of
  sufficient order is exact; one Horner pass evaluates every piece at once;
* odd integer p: the same exact rule on the subintervals between the real
  roots of q, where the sign of q is constant.  The cuts also fall at each
  complex pair of roots within 0.1 of the real axis, where |q|^p bends too
  sharply for the rules below;
* fractional p: on the same subintervals |q|^p behaves like |s - r|^(p k) at
  an end where q has a k-fold zero: k is 1 at a real root, 0 at a complex
  pair, and at a piece end it is read from the scaled Taylor coefficients there
  (hermite pieces next to lattice knots carry m-fold zeros).  Gauss-Jacobi
  rules put these factors into the weight (Golub & Welsch 1969) and leave a
  smooth integrand.  A subinterval keeps its 32-node value when the 16-node
  value differs from it by at most the subinterval's share (by length) of
  quad_tol times the piece's integral, the larger of its two estimates.
  Otherwise adaptive Gauss-Legendre panels integrate that subinterval alone;
  the adaptive recursion raises NumericalFailureError when it reaches depth
  48 rather than return an unconverged value;
* p = inf: the largest |q| over the piece ends and the real critical points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import spsolve

from .divdiff import lagrange_polynomial
from .errors import InvalidInputError, NonintegrableError, NumericalFailureError, UnsupportedError
from .piecewise import (
    PiecewisePolynomial,
    polynomial_derivative,
    polynomial_eval,
    polynomial_eval_rows,
    scalar_powers,
    shift_polynomial,
)
from .samples import SampledFunction

_GAUSS_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}
_JACOBI_CACHE: dict[tuple[int, float, float], tuple[np.ndarray, np.ndarray]] = {}

#: Rows per batch; bounds the (rows x nodes) temporaries of sobolev_norm.
_CHUNK = 2048
#: Orders of the two Gauss-Jacobi rules compared for fractional p.
_LOW_ORDER, _HIGH_ORDER = 16, 32
#: A scaled Taylor coefficient at a piece end counts as zero below this
#: fraction of the piece's largest scaled coefficient.
_ZERO_TAYLOR = 1e-12
#: Pieces are also cut at a complex pair of roots this close to the real axis
#: (unit scale), where |q|^p bends too sharply for the Gauss rules.
_NEAR_REAL = 0.1
#: Adaptive quadrature raises instead of splitting a panel this deep.
_MAX_DEPTH = 48
#: Spline solves with a larger relative backward error raise.
_MAX_BACKWARD_ERROR = 1e-10
#: Highest order m whose factorials up to (2m-1)! = 169! fit in a float.
MAX_ORDER = 85


def _gauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    if n not in _GAUSS_CACHE:
        _GAUSS_CACHE[n] = leggauss(n)
    return _GAUSS_CACHE[n]


def _gauss_jacobi(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss rule for the weight
    (1 - x)^a (1 + x)^b on [-1, 1], with a, b >= 0.

    The nodes are the eigenvalues of the Jacobi matrix (Golub & Welsch 1969).
    Each weight is 1 / sum_k p_k(x)^2 over the orthonormal polynomials
    p_0..p_{n-1}, which keeps the small weights next to a heavy endpoint
    accurate to full relative precision.
    """
    key = (n, a, b)
    if key not in _JACOBI_CACHE:
        k = np.arange(1, n, dtype=float)
        s = 2.0 * k + a + b
        diag = np.concatenate([[(b - a) / (a + b + 2.0)], (b * b - a * a) / (s * (s + 2.0))])
        off = np.sqrt(4.0 * k * (k + a) * (k + b) * (k + a + b) / (s * s * (s + 1.0) * (s - 1.0)))
        x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
        log_mu0 = (
            (a + b + 1.0) * math.log(2.0)
            + math.lgamma(a + 1.0)
            + math.lgamma(b + 1.0)
            - math.lgamma(a + b + 2.0)
        )
        prev, cur = np.zeros(n), np.full(n, math.exp(-0.5 * log_mu0))
        total = cur * cur
        for j in range(n - 1):
            back = off[j - 1] * prev if j else 0.0
            prev, cur = cur, ((x - diag[j]) * cur - back) / off[j]
            total += cur * cur
        _JACOBI_CACHE[key] = (x, 1.0 / total)
    return _JACOBI_CACHE[key]


@dataclass(frozen=True)
class NormReport:
    """Per-derivative L^p norms of an extension F.

    ``w_norm`` is the sum of ``lp_norms``; ``l_homog`` is the top-order entry
    alone (the homogeneous seminorm).
    """

    lp_norms: tuple[float, ...]
    w_norm: float
    l_homog: float


def _trimmed(c) -> np.ndarray:
    c = np.asarray(c, dtype=float)
    nz = np.nonzero(c)[0]
    if len(nz) == 0:
        return np.zeros(0)
    return c[: nz[-1] + 1]


def _gl_abs_pow(coeffs, a: float, b: float, p: float, n: int = 16) -> float:
    nodes, weights = _gauss(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    vals = np.abs(polynomial_eval(coeffs, mid + half * nodes))
    return half * float(np.dot(weights, vals**p))


def _adaptive_abs_pow(coeffs, a: float, b: float, p: float, atol: float, depth: int = 0) -> float:
    # absolute budget that halves per split: near a root of q the panel
    # integral of |q|^p shrinks like h^{p+1} >> the budget's factor 2, so the
    # recursion grades into the root and terminates; a per-panel relative
    # test would never converge there (the Gauss error of |t|^p is
    # scale-invariant)
    whole = _gl_abs_pow(coeffs, a, b, p)
    mid = 0.5 * (a + b)
    split = _gl_abs_pow(coeffs, a, mid, p) + _gl_abs_pow(coeffs, mid, b, p)
    if abs(split - whole) <= atol:
        return split
    if depth >= _MAX_DEPTH:
        raise NumericalFailureError(
            f"adaptive quadrature of |q|^{p} did not reach the tolerance {atol:.3e} "
            f"by depth {_MAX_DEPTH} (panel [{a!r}, {b!r}])"
        )
    return _adaptive_abs_pow(coeffs, a, mid, p, atol / 2, depth + 1) + _adaptive_abs_pow(
        coeffs, mid, b, p, atol / 2, depth + 1
    )


def _degrees(C: np.ndarray, rtol: float = 0.0) -> np.ndarray:
    """Degree of each coefficient row, ignoring top coefficients of modulus at
    most ``rtol`` times the row's largest (0 for an all-zero row)."""
    big = np.abs(C) > rtol * np.max(np.abs(C), axis=1, keepdims=True)
    return np.where(big.any(axis=1), C.shape[1] - 1 - np.argmax(big[:, ::-1], axis=1), 0)


def _roots_near_axis(P: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Real roots of the polynomial rows of P and the real part of each complex
    pair within ``_NEAR_REAL`` of the real axis, as flat arrays (row, root,
    real), from one batched companion-matrix solve per degree; a root within
    1e-9 relative of the real axis counts as real.  Top coefficients below
    ``_ZERO_TAYLOR`` of the row's largest are dropped: their roots lie beyond
    1e12 (on the unit scale of the rows) and would overflow the companion matrix.
    """
    rows, roots, real = [np.zeros(0, dtype=int)], [np.zeros(0)], [np.zeros(0, dtype=bool)]
    deg = _degrees(P, _ZERO_TAYLOR)
    for d in np.unique(deg[deg > 0]):
        sel = np.flatnonzero(deg == d)
        comp = np.zeros((len(sel), d, d))
        comp[:, 0, :] = -P[sel, d - 1 :: -1] / P[sel, d, None]
        comp[:, np.arange(1, d), np.arange(d - 1)] = 1.0
        z = np.linalg.eigvals(comp)
        is_real = np.abs(z.imag) <= 1e-9 * (1.0 + np.abs(z.real))
        r, c = np.nonzero(is_real | ((z.imag > 0.0) & (z.imag <= _NEAR_REAL)))
        rows.append(sel[r])
        roots.append(z.real[r, c])
        real.append(is_real[r, c])
    return np.concatenate(rows), np.concatenate(roots), np.concatenate(real)


def _drop_leading(C: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Row i of C without its first k[i] coefficients, zero-padded on the right."""
    w = C.shape[1]
    idx = k[:, None] + np.arange(w)
    return np.where(idx < w, np.take_along_axis(C, np.minimum(idx, w - 1), axis=1), 0.0)


def _root_split(C: np.ndarray):
    """Cut the unit interval of each (non-zero) row of C at the real roots of
    its polynomial, and at the real part of each complex pair near the real
    axis (see ``_roots_near_axis``).

    Returns flat arrays over the subintervals: the row, the ends a < b, and
    the multiplicity of the zero of the polynomial at each end (0 at the cut
    of a complex pair).  A piece end takes the number of its leading scaled
    Taylor coefficients below ``_ZERO_TAYLOR`` of the row's largest; those
    zeros are divided out before the interior roots are sought, so that a
    multiple zero at an end does not scatter into spurious roots beside it.
    A row with a zero at s = 1 is searched in u = s - 1 (root offset 1), the
    others in s; all rows share one padded matrix and one root solve.
    """
    K, w = C.shape
    binom = np.array([[math.comb(i, j) for j in range(w)] for i in range(w)], dtype=float)
    tiny = _ZERO_TAYLOR * np.max(np.abs(C), axis=1, keepdims=True)
    k0 = np.argmax(np.abs(C) > tiny, axis=1)
    # Taylor coefficients at s = 1, in u = s - 1
    k1 = np.minimum(np.argmax(np.abs(C @ binom) > tiny, axis=1), _degrees(C) - k0)
    reduced, offset = _drop_leading(C, k0), (k1 > 0).astype(float)
    reduced = np.where(offset[:, None] > 0, _drop_leading(reduced @ binom, k1), reduced)
    r, z, real = _roots_near_axis(reduced)
    z = z + offset[r]
    inside = (z > 0.0) & (z < 1.0)
    row = np.concatenate([np.arange(K), np.arange(K), r[inside]])
    cut = np.concatenate([np.zeros(K), np.ones(K), z[inside]])
    zeros = np.concatenate([k0, k1, real[inside].astype(int)])
    order = np.lexsort((cut, row))
    row, cut, zeros = row[order], cut[order], zeros[order]
    same = row[1:] == row[:-1]
    row, a, b = row[:-1][same], cut[:-1][same], cut[1:][same]
    left, right = zeros[:-1][same], zeros[1:][same]
    return row, a, b, left, right


def _power_integrals(C: np.ndarray, p: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact integral of q_i(s)^p over [a_i, b_i] for each row i of C."""
    n = max(1, math.ceil(((C.shape[1] - 1) * p + 1) / 2))
    nodes, weights = _gauss(n)
    half = 0.5 * (b - a)
    s = (a + half)[:, None] + half[:, None] * nodes
    return half * (polynomial_eval_rows(C, s) ** p @ weights)


def _odd_integrals(C: np.ndarray, p: int) -> np.ndarray:
    """Integral of |q_i|^p over [0, 1] for each row i of C, odd p."""
    row, a, b, _, _ = _root_split(C)
    return np.bincount(row, np.abs(_power_integrals(C[row], p, a, b)), minlength=len(C))


def _fractional_integrals(C: np.ndarray, p: float, quad_tol: float) -> np.ndarray:
    """Integral of |q_i|^p over [0, 1] for each row i of C, fractional p,
    to within quad_tol relative (see the module docstring)."""
    row, a, b, left, right = _root_split(C)
    half = 0.5 * (b - a)
    low, high = np.empty(len(row)), np.empty(len(row))
    group = left * C.shape[1] + right
    for key in np.unique(group):
        sel = np.flatnonzero(group == key)
        alpha, beta = p * left[sel[0]], p * right[sel[0]]
        rows = C[row[sel]]
        for n, out in ((_LOW_ORDER, low), (_HIGH_ORDER, high)):
            x, w = _gauss_jacobi(n, beta, alpha)
            w = w / ((1.0 - x) ** beta * (1.0 + x) ** alpha)
            s = a[sel, None] + half[sel, None] * (1.0 + x)
            out[sel] = half[sel] * (np.abs(polynomial_eval_rows(rows, s)) ** p @ w)
    rough = np.bincount(row, np.maximum(low, high), minlength=len(C))
    converged = np.abs(high - low) <= 2.0 * half * quad_tol * rough[row]
    for i in np.flatnonzero(~converged):
        atol = quad_tol * (rough[row[i]] + 1e-300)
        high[i] = _adaptive_abs_pow(_trimmed(C[row[i]]), a[i], b[i], p, atol)
    return np.bincount(row, high, minlength=len(C))


def _unit_sup(C: np.ndarray) -> np.ndarray:
    """max |q_i| over [0, 1] for each row i of C: the ends and the real
    critical points inside."""
    best = np.maximum(np.abs(C[:, 0]), np.abs(polynomial_eval_rows(C, np.ones(len(C)))))
    row, z, real = _roots_near_axis(polynomial_derivative(C))
    inside = real & (z > 0.0) & (z < 1.0)
    row, z = row[inside], z[inside]
    np.maximum.at(best, row, np.abs(polynomial_eval_rows(C[row], z)))
    return best


def _scaled_nonzero_pieces(F: PiecewisePolynomial) -> tuple[np.ndarray, np.ndarray]:
    """The non-zero pieces of F as coefficient rows in s = t/h, without
    all-zero top columns, and their widths h."""
    keep = np.flatnonzero(np.any(F.coefficients != 0.0, axis=1))
    C = F.coefficients[keep]
    h = np.diff(F.breakpoints)[keep]
    width = int(np.flatnonzero(C.any(axis=0)).max(initial=0)) + 1
    return C[:, :width] * h[:, None] ** np.arange(width), h


def lp_norm(F: PiecewisePolynomial, p: float, quad_tol: float = 1e-10) -> float:
    """||F||_{L^p} over the whole line: :func:`sobolev_norm` with m = 0.

    For finite p the tails must vanish identically (a nonzero polynomial tail
    is not integrable); for p = inf a constant tail contributes its modulus
    and a non-constant one makes the supremum infinite.  Fractional p is
    computed to within quad_tol relative, which must be a non-negative
    number; see the module docstring for the quadrature policy.
    """
    return sobolev_norm(F, 0, p, quad_tol).lp_norms[0]


def sobolev_norm(F: PiecewisePolynomial, m: int, p: float, quad_tol: float = 1e-10) -> NormReport:
    """Norms of F and its derivatives up to order m, plus their sum.

    The orders are integrated in one batched pass: the non-zero pieces of
    every order are stacked into one zero-padded matrix with their order's
    index, integrated ``_CHUNK`` rows at a time and summed per order.  The
    tails, p and quad_tol follow the rules of :func:`lp_norm`.
    """
    if m < 0:
        raise InvalidInputError("m must be nonnegative")
    if not p >= 1:
        raise InvalidInputError(f"p must be in [1, inf], got {p}")
    if not quad_tol >= 0:
        raise InvalidInputError(f"quad_tol must be non-negative, got {quad_tol}")
    if p != math.inf and not F.has_zero_tails():
        raise NonintegrableError(
            "finite-p norm requires identically zero tails; differentiate away "
            "polynomial tails first or restrict to a compactly supported function"
        )
    derivatives = [F]
    for _ in range(m):
        derivatives.append(derivatives[-1].differentiate())
    pieces = [_scaled_nonzero_pieces(f) for f in derivatives]
    sizes = [len(h) for _, h in pieces]
    C = np.zeros((sum(sizes), max(c.shape[1] for c, _ in pieces)))
    for (c, _), lo in zip(pieces, np.cumsum([0] + sizes)):
        C[lo : lo + len(c), : c.shape[1]] = c
    h = np.concatenate([h for _, h in pieces])
    order = np.repeat(np.arange(m + 1), sizes)
    if p == math.inf:
        norms = np.zeros(m + 1)
        for lo in range(0, len(C), _CHUNK):
            np.maximum.at(norms, order[lo : lo + _CHUNK], _unit_sup(C[lo : lo + _CHUNK]))
        for k, f in enumerate(derivatives):
            for t in (_trimmed(f.left_tail), _trimmed(f.right_tail)):
                norms[k] = math.inf if len(t) > 1 else max(norms[k], abs(t[0]) if len(t) else 0.0)
    else:
        q, totals = int(p), np.zeros(m + 1)
        for lo in range(0, len(C), _CHUNK):
            rows, part = C[lo : lo + _CHUNK], slice(lo, lo + _CHUNK)
            if p != q:
                integrals = _fractional_integrals(rows, p, quad_tol)
            elif q % 2:
                integrals = _odd_integrals(rows, q)
            else:
                integrals = _power_integrals(rows, q, np.zeros(len(rows)), np.ones(len(rows)))
            totals += np.bincount(order[part], h[part] * integrals, minlength=m + 1)
        if not np.all(np.isfinite(totals)):
            raise NumericalFailureError(f"the integral of |F|^{p} is not finite: {totals.max()}")
        norms = [float(t) ** (1.0 / p) for t in totals]
    lp = tuple(float(v) for v in norms)
    return NormReport(lp, sum(lp), lp[-1])


# --------------------------------------------------------------------------
# minimal-energy interpolating splines
#
# Both splines below come from one builder, _spline_system: the unknowns are
# the 2m monomial coefficients of each piece, and every row is a value, a
# derivative or a join condition at a knot.  The rows are made as arrays and
# assembled into one sparse matrix in a single pass, so the cost is linear in
# the number of knots plus one sparse solve.


def _rows(end, ell, start, value, rhs) -> np.ndarray:
    """A block of spline-system rows, its five fields broadcast to one shape.
    A row asks that derivative ``ell`` at the right end of piece ``end``,
    plus ``value`` times coefficient ``ell`` of piece ``start``, equal
    ``rhs``; a piece of -1 leaves that part out."""
    return np.stack(np.broadcast_arrays(end, ell, start, value, rhs)).astype(float)


def _spline_system(t: np.ndarray, y: np.ndarray, m: int, anchored: bool) -> np.ndarray:
    """Coefficients (pieces x 2m) of the minimal ∫|F^(m)|^2 interpolant on
    knots ``t``: degree 2m-1 pieces with C^{2m-2} joins.

    The two systems share their value and join rows and differ in their
    boundary rows.  The natural system interpolates y at every knot and makes
    the derivatives of orders m..2m-2 vanish at both extreme knots; the
    anchored one interpolates y at the interior knots and clamps zero m-jets
    at the extreme knots.  The system is built on the knots scaled to unit
    mean gap, assembled as arrays into one COO matrix and solved once; the
    coefficients are scaled back to ``t``.  A solution that is not finite,
    or whose backward error |Ax - b| / (|A| |x| + |b|) in the infinity norm
    is not at most 1e-10, raises NumericalFailureError.
    """
    if m > MAX_ORDER:
        raise UnsupportedError(f"order m = {m} is above {MAX_ORDER}: (2m-1)! overflows a float")
    n, w = len(t) - 1, 2 * m
    g = float(t[-1] - t[0]) / n
    h = np.diff((t - t[0]) / g)
    fact = np.array([math.factorial(k) for k in range(w)], dtype=float)
    knot = np.arange(1, n)[:, None]  # interior knot between pieces knot-1 and knot
    joined = np.arange(1, w - 1)
    joins = _rows(knot - 1, joined, knot, -fact[joined], 0.0)
    # the row order decides the solver's choice among equal pivots, so each
    # system keeps its own: anchored edges first, then knot by knot; natural
    # values piece by piece, then the joins, then the end conditions
    if anchored:
        edge, at_knot = np.arange(m), y[:, None]
        from_left, from_right = _rows(knot - 1, 0, -1, 0.0, at_knot), _rows(-1, 0, knot, 1.0, at_knot)
        blocks = [
            _rows(-1, edge, 0, fact[edge], 0.0),
            _rows(n - 1, edge, -1, 0.0, 0.0),
            np.concatenate([from_left, from_right, joins], axis=2),
        ]
    else:
        piece, top = np.arange(n)[:, None], np.arange(m, w - 1)
        first, last = _rows(-1, 0, piece, 1.0, y[:-1, None]), _rows(piece, 0, -1, 0.0, y[1:, None])
        blocks = [
            np.concatenate([first, last], axis=2),
            joins,
            _rows(-1, top, 0, 1.0, 0.0),
            _rows(n - 1, top, -1, 0.0, 0.0),
        ]
    end, ell, start, value, b = np.concatenate([blk.reshape(5, -1) for blk in blocks], axis=1)
    end, ell, start = end.astype(int), ell.astype(int), start.astype(int)
    # right-end part: perm(d, ell) h^(d-ell) on coefficient d >= ell
    ends, d = np.flatnonzero(end >= 0), np.arange(w)
    k = np.maximum(d - ell[ends, None], 0)
    keep = d >= ell[ends, None]
    entries = fact[d] / fact[k] * scalar_powers(h, w)[end[ends, None], k]
    if not anchored:  # the natural value rows take numpy's vectorised power, as the
        # entry-by-entry assembly in tests/oracles.py does, so results stay bit-identical
        value_rows = ell[ends] == 0
        entries[value_rows] = h[end[ends[value_rows]], None] ** d
    starts = np.flatnonzero(start >= 0)
    rows = np.concatenate([np.broadcast_to(ends[:, None], keep.shape)[keep], starts])
    cols = np.concatenate([(end[ends, None] * w + d)[keep], start[starts] * w + ell[starts]])
    entries = np.concatenate([entries[keep], value[starts]])
    A = coo_matrix((entries, (rows, cols)), shape=(n * w, n * w)).tocsc()
    sol = np.asarray(spsolve(A, b), dtype=float)
    if not np.all(np.isfinite(sol)):
        raise NumericalFailureError("spline system is singular or badly scaled")
    # |A| divides each term before |x| would multiply it, so nothing overflows
    norm_a, residual = abs(A).sum(axis=1).max(), np.abs(A @ sol - b).max()
    backward = residual / norm_a / (np.abs(sol).max() + np.abs(b).max() / norm_a) if residual else 0.0
    if not backward <= _MAX_BACKWARD_ERROR:
        raise NumericalFailureError(
            f"spline solve has backward error {backward:.3e}, not at most {_MAX_BACKWARD_ERROR:g}"
        )
    return sol.reshape(n, w) / g ** np.arange(w)


def natural_spline_min_energy(s: SampledFunction, m: int) -> tuple[PiecewisePolynomial, float]:
    """Interpolant minimizing ∫ |F^(m)|^2, with its exact energy.

    The minimizer is a spline of degree 2m-1 with C^{2m-2} interior joins and
    polynomial tails of degree <= m-1 (the energy density vanishes outside the
    data).  With fewer than m+1 samples the minimum is 0, attained by the
    interpolating polynomial itself; that degenerate case is returned as such.
    Otherwise the spline comes from one sparse solve, which raises
    NumericalFailureError on a backward error above 1e-10.
    """
    if m < 1:
        raise InvalidInputError("m must be a positive integer")
    if len(s) <= m:
        return lagrange_polynomial(s), 0.0
    pts = np.asarray(s.points)
    coef = _spline_system(pts, np.asarray(s.values), m, anchored=False)
    right_tail = shift_polynomial(coef[-1], float(pts[-1] - pts[-2]))[:m]
    F = PiecewisePolynomial(pts, coef, coef[0][:m], right_tail)
    deriv = F
    for _ in range(m):
        deriv = deriv.differentiate()
    energy = lp_norm(deriv, 2.0) ** 2
    return F, energy


def anchored_min_energy_spline(
    points, values, m: int, edge_left: float, edge_right: float
) -> PiecewisePolynomial:
    """Minimal ∫|F^(m)|^2 interpolant clamped to zero jets at two edge knots.

    The result vanishes identically outside [edge_left, edge_right]: the edge
    knots carry m zero conditions each (value and derivatives up to m-1),
    realized as interpolation rows rather than a constrained optimization, so
    the single sparse solve of :func:`natural_spline_min_energy`'s builder
    produces the spline.  Interior joins are C^{2m-2}; the edge joins are
    C^{m-1} against the zero tails.

    The knots come as arrays (or sequences) of coordinates and values.  A
    knot within 1e-9 relative of an edge must carry the value 0 and is
    absorbed into the edge conditions.
    """
    if m < 1:
        raise InvalidInputError("m must be a positive integer")
    pts, vals = np.asarray(points, dtype=float), np.asarray(values, dtype=float)
    if pts.ndim != 1 or not 0 < len(pts) == len(vals):
        raise InvalidInputError("points and values must be two non-empty sequences of one length")
    # relative slack: the outermost lattice point may land exactly on an edge,
    # and far from the origin an absolute slack falls below half an ulp
    slack_left = 1e-9 * (1.0 + abs(edge_left))
    slack_right = 1e-9 * (1.0 + abs(edge_right))
    if not edge_left < pts[0] + slack_left or not edge_right > pts[-1] - slack_right:
        raise InvalidInputError("edges must bracket the data")
    on_edge = (np.abs(pts - edge_left) <= slack_left) | (np.abs(pts - edge_right) <= slack_right)
    if np.any(vals[on_edge] != 0.0):
        raise InvalidInputError("a knot on the window edge must carry the value 0")
    knots = np.concatenate([[edge_left], pts[~on_edge], [edge_right]])
    return PiecewisePolynomial(knots, _spline_system(knots, vals[~on_edge], m, anchored=True))
