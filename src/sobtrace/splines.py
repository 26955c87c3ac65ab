"""L^p norms of piecewise polynomials and minimal-energy interpolating splines.

Quadrature policy.  ``sobolev_norm`` integrates F and its derivatives up to
order m in one pass (``lp_norm`` is the case m = 0, ``sobolev_norms`` the
pass over many F): F's non-zero pieces are differentiated order by order in
one table, scaled once to the coordinate s = t/h on [0, 1].  The tables'
non-zero rows are integrated in chunks of whole F's of one width, up to
``_CHUNK`` rows (an F with more is cut alone, as in its own call), and summed
per F and order in their order, so a batch gives each F's report bit for bit:

* even integer p: |q|^p is a polynomial, so one Gauss-Legendre rule of
  sufficient order is exact; one Horner pass evaluates every piece at once;
* odd integer p: the same exact rule on the subintervals between the real
  roots of q, where the sign of q is constant, all from one eigenvalue solve
  per batch.  The cuts also fall at each complex pair of roots within 0.1 of
  the real axis, where |q|^p bends too sharply for the rules below;
* fractional p: on the same subintervals |q|^p behaves like |s - r|^(p k) at
  an end where q has a k-fold zero: k is 1 at a real root, 0 at a complex
  pair, and at a piece end it is read from the scaled Taylor coefficients there
  (hermite pieces next to lattice knots carry m-fold zeros).  Gauss-Jacobi
  rules put these factors into the weight (Golub & Welsch 1969) and leave a
  smooth integrand, both from one pass over their 48 nodes.  A subinterval
  or panel keeps its 32-node value when the 16-node value differs from it by
  at most its share (by length) of quad_tol times the piece's integral, the
  kept values plus the larger estimate of each panel still in play.  Each
  failing panel is cut into panels graded geometrically toward the nearest
  root of q off it, or at its midpoint when no graded cut falls inside, and
  the new panels take the same test, all in one pass per step, until none
  fails or the differences over the whole piece sum to at most a sixteenth
  of its tolerance: at the peak of a steep |q|^p the rounding of the values
  can exceed a panel's share at any depth, and the margin leaves room for
  the rounding of the coefficients, which the differences do not show.
  NumericalFailureError is raised when a step leaves more failing panels of
  one F than its first pass had subintervals, or past 48 steps; a value that
  is not finite never fails the test, and is left to the check below;
* p = inf: per F and order, the largest |q| over the piece ends, the constant
  tails and the real critical points, found by branch and bound.  The
  largest Bernstein coefficient modulus of a row, plus a rounding slack,
  bounds every value the critical-point solve can give it; the ends, tails
  and |q| at three interior probes set each bin's threshold, and only rows of
  degree >= 2 whose bound reaches it are solved, then any left-out row whose
  bound reaches the report so far, so the report is the every-row value.

One finiteness rule holds at every p: overflow is ignored during the pass, and
an F whose norms or their sum are not finite raises NumericalFailureError.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.linalg.lapack import dpbsv

from .divdiff import _expand_newton, _nearest_windows, divided_difference_rows, lagrange_polynomial
from .errors import InvalidInputError, NonintegrableError, NumericalFailureError, UnsupportedError, _check_order
from .piecewise import (
    PiecewisePolynomial,
    join,
    polynomial_derivative,
    polynomial_eval_rows,
    shift_polynomial,
)
from .samples import SampledFunction

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
#: Fractional-p quadrature raises rather than refine its failing panels more often than this.
_MAX_DEPTH = 48
#: Spline solves with a larger relative backward error raise.
_MAX_BACKWARD_ERROR = 1e-10
#: Spline pieces whose derivatives below order m jump by more than this, relative
#: to their rounding scale in unit coordinates, raise.
_MAX_JOIN_ERROR = 1e-9
#: Highest order m whose factorials up to (2m-1)! = 169! fit in a float.
MAX_ORDER = 85
#: Interior points (unit scale) where p = inf probes |q| to raise a bin's pruning threshold.
_PROBES = np.array([0.25, 0.5, 0.75])
_FLOAT = np.finfo(float)


_gauss = functools.cache(leggauss)


def _gauss_jacobi(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss rule for the weight
    (1 - x)^a (1 + x)^b on [-1, 1], with a, b >= 0.

    The nodes are the eigenvalues of the Jacobi matrix (Golub & Welsch 1969).
    Each weight is 1 / sum_k p_k(x)^2 over the orthonormal polynomials
    p_0..p_{n-1}, which keeps the small weights next to a heavy endpoint
    accurate to full relative precision.
    """
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
    return x, 1.0 / total


@functools.cache
def _jacobi_rules(a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """The 16- then the 32-node rule of :func:`_gauss_jacobi`, concatenated, the weights divided
    by (1 - x)^a (1 + x)^b with array exponents (``ndarray ** float`` has shortcuts)."""
    x, w = np.hstack([_gauss_jacobi(n, a, b) for n in (_LOW_ORDER, _HIGH_ORDER)])
    return x, w / ((1.0 - x) ** np.array([a]) * (1.0 + x) ** np.array([b]))


@dataclass(frozen=True)
class NormReport:
    """Per-derivative L^p norms of an extension F.

    ``w_norm`` is the sum of ``lp_norms``; ``l_homog`` is the top-order entry
    alone (the homogeneous seminorm).
    """

    lp_norms: tuple[float, ...]
    w_norm: float
    l_homog: float


def _degrees(C: np.ndarray, rtol: float = 0.0) -> np.ndarray:
    """Degree of each coefficient row, ignoring top coefficients of modulus at
    most ``rtol`` times the row's largest (0 for an all-zero row)."""
    big = np.abs(C) > rtol * np.abs(C).max(axis=1, keepdims=True)
    return np.where(big.any(axis=1), C.shape[1] - 1 - big[:, ::-1].argmax(axis=1), 0)


def _roots(P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(z, real): the roots of the polynomial rows of P, NaN past a row's degree, and whether each
    lies within 1e-9 relative of the real axis, from one eigenvalue solve; lower-degree companion
    matrices are padded with isolated diagonal 1e3s, dropped by value in any order (a root near 1e3
    serves no cut or grading).  Top coefficients below ``_ZERO_TAYLOR`` of the largest are dropped."""
    deg = _degrees(P, _ZERO_TAYLOR)
    sel, c = np.flatnonzero(deg > 0), np.arange(deg.max(initial=0))
    d = deg[sel, None]
    comp = np.zeros((len(sel), len(c), len(c)))
    comp[:, :1] = np.where(c < d, -P[sel[:, None], np.maximum(d - 1 - c, 0)] / P[sel, d[:, 0], None], 0.0)[:, None]
    comp[:, c[1:], c[:-1]] = c[1:] < d
    comp[:, c, c] = np.where(c < d, comp[:, c, c], 1e3)
    z, e = np.full((len(P), len(c)), np.nan, dtype=complex), np.linalg.eigvals(comp)
    z[sel] = np.where(c < d, np.take_along_axis(e, np.argsort(abs(e - 1e3) < 1, axis=1, kind="stable"), 1), np.nan)
    return z, np.abs(z.imag) <= 1e-9 * (1.0 + np.abs(z.real))


def _drop_leading(C: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Row i of C without its first k[i] coefficients, zero-padded on the right."""
    w = C.shape[1]
    idx = k[:, None] + np.arange(w)
    return np.where(idx < w, np.take_along_axis(C, np.minimum(idx, w - 1), axis=1), 0.0)


def _root_split(C: np.ndarray):
    """Cut the unit interval of each (non-zero) row of C at the real roots of its polynomial
    and at the real part of each complex pair near the real axis.  Returns flat arrays over the
    subintervals (the row, the ends a < b, the multiplicity of the zero at each end, 0 at a
    complex pair's cut) and each row's roots in s, the real ones on the axis, with its end zeros.
    A piece end takes the number of its leading scaled Taylor coefficients below
    ``_ZERO_TAYLOR`` of the row's largest; those zeros are divided out before the interior roots
    are sought, so that a multiple zero at an end does not scatter into spurious roots beside
    it.  A row with a zero at s = 1 is searched in u = s - 1, the others in s, in one solve."""
    K = len(C)
    tiny = _ZERO_TAYLOR * np.abs(C).max(axis=1, keepdims=True)
    k0 = (np.abs(C) > tiny).argmax(axis=1)
    reduced = _drop_leading(C, k0)
    # Taylor coefficients at s = 1, in u = s - 1, of the rows and of their reduced forms
    at_one = shift_polynomial(np.vstack([C, reduced]), 1.0)
    at_one, reduced_at_one = at_one[:K], at_one[K:]
    k1 = np.minimum((np.abs(at_one) > tiny).argmax(axis=1), _degrees(C) - k0)
    reduced = np.where((k1 > 0)[:, None], _drop_leading(reduced_at_one, k1), reduced)
    z, real = _roots(reduced)
    r, c = np.nonzero(real | ((z.imag > 0.0) & (z.imag <= _NEAR_REAL)))
    cut = z.real[r, c] + (k1[r] > 0)
    inside = (cut > 0.0) & (cut < 1.0)
    row = np.concatenate([np.arange(K), np.arange(K), r[inside]])
    cut = np.concatenate([np.zeros(K), np.ones(K), cut[inside]])
    zeros = np.concatenate([k0, k1, real[r, c][inside].astype(int)])
    order = np.lexsort((cut, row))
    row, cut, zeros = row[order], cut[order], zeros[order]
    same = row[1:] == row[:-1]
    # every root of each row in s, the real ones on the axis, and the end zeros
    z = np.column_stack([np.where(real, z.real, z) + (k1 > 0)[:, None], np.where(k0, 0.0, np.nan), np.where(k1, 1.0, np.nan)])
    return row[:-1][same], cut[:-1][same], cut[1:][same], zeros[:-1][same], zeros[1:][same], z


def _power_integrals(C: np.ndarray, p: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact integral of q_i(s)^p over [a_i, b_i] for each row i of C, each row summed on its own so
    that the rows batched with it cannot move it; an overflow is left to the caller's finite check."""
    n = max(1, math.ceil(((C.shape[1] - 1) * p + 1) / 2))
    nodes, weights = _gauss(n)
    half = 0.5 * (b - a)
    s = (a + half)[:, None] + half[:, None] * nodes
    return half * np.einsum("ij,j->i", polynomial_eval_rows(C, s) ** p, weights)


def _jacobi_pair(C: np.ndarray, p: float, row, a, b, left, right) -> tuple[np.ndarray, np.ndarray]:
    """16- and 32-node Gauss-Jacobi values of the integral of |q_row|^p over
    each [a, b], weight |s - a|^(p left) |s - b|^(p right): one pass over the
    nodes of both rules.  A value that is not finite is left to the caller's finite check."""
    keys, group = np.unique(left * C.shape[1] + right, return_inverse=True)
    alpha, beta = p * (keys // C.shape[1]), p * (keys % C.shape[1])
    x, w = np.reshape([_jacobi_rules(*ab) for ab in zip(beta, alpha)], (-1, 2, _LOW_ORDER + _HIGH_ORDER)).transpose(1, 0, 2)
    half, out = 0.5 * (b - a), np.empty((2, len(row)))
    for i in range(0, len(row), _CHUNK):
        s, g = slice(i, i + _CHUNK), group[i : i + _CHUNK]
        q = np.abs(polynomial_eval_rows(C[row[s]], a[s, None] + half[s, None] * (1.0 + x[g]))) ** p
        for values, cols in zip(out, (slice(_LOW_ORDER), slice(_LOW_ORDER, None))):
            values[s] = half[s] * np.einsum("ij,ij->i", q[:, cols], w[g, cols])
    return out[0], out[1]


def _fractional_integrals(C: np.ndarray, p: float, quad_tol: float, group: np.ndarray) -> np.ndarray:
    """Integral of |q_i|^p over [0, 1] for each row i of C, fractional p,
    to within quad_tol relative (see the module docstring).  The growth guard
    counts the panels of each ``group`` of rows (one F) on its own."""
    row, a, b, left, right, roots = _root_split(C)
    low, high = _jacobi_pair(C, p, row, a, b, left, right)
    total, spent, most = np.zeros(len(C)), np.zeros(len(C)), np.bincount(group[row])
    for depth in range(_MAX_DEPTH + 1):
        # the row's integral: the kept panels and the larger value of each panel in play
        tol = quad_tol * (total + np.bincount(row, np.maximum(low, high), minlength=len(C)))
        diff = np.abs(high - low)
        # a panel past its share by length fails, unless its row's differences sum to a sixteenth of its tolerance
        settled = spent + np.bincount(row, diff, minlength=len(C)) <= tol / 16
        bad = (diff > (b - a) * tol[row]) & ~settled[row]
        spent += np.bincount(row[~bad], diff[~bad], minlength=len(C))
        total += np.bincount(row[~bad], high[~bad], minlength=len(C))
        failing = np.bincount(group[row[bad]], minlength=len(most))
        if not failing.any():
            return total
        over = failing > most
        if over.any() or depth == _MAX_DEPTH:
            g = np.argmax(over if over.any() else failing)  # an F past the guard, else the most failing
            raise NumericalFailureError(
                f"the integral of |q|^{p} does not reach quad_tol = {quad_tol:g}: {failing[g]} of "
                f"{np.count_nonzero(group[row] == g)} panels fail after {depth} refinements, against limits of "
                f"{most[g]} and {_MAX_DEPTH}"
            )
        # cut each failing panel at t -+ d 2^j, d the distance to the nearest root of
        # its row off the panel and t its projection onto it, or else at its midpoint
        row, a, b, left, right = row[bad], a[bad, None], b[bad, None], left[bad], right[bad]
        z = roots[row]
        t = np.clip(z.real, a, b)
        d = np.abs(z - t)
        near = np.argmin(np.where(d > 0.0, d, np.inf), axis=1)[:, None]  # roots on the panel are its ends
        t, d = np.take_along_axis(t, near, 1), np.take_along_axis(d, near, 1)
        cuts = np.hstack([t - d * 2.0 ** np.arange(52), t + d * 2.0 ** np.arange(52)])
        inside = (cuts > a) & (cuts < b)
        cuts = np.where(inside, cuts, np.inf)
        cuts[:, 0] = np.where(inside.any(axis=1), cuts[:, 0], 0.5 * (a + b)[:, 0])
        cuts = np.sort(np.hstack([a, b, cuts]), axis=1)
        end = np.isfinite(cuts).sum(axis=1) - 2  # the last panel
        sub, k = np.nonzero(np.arange(cuts.shape[1] - 1) <= end[:, None])
        row, a, b = row[sub], cuts[sub, k], cuts[sub, k + 1]
        left, right = np.where(k == 0, left[sub], 0), np.where(k == end[sub], right[sub], 0)
        low, high = _jacobi_pair(C, p, row, a, b, left, right)


@functools.cache
def _bernstein_probes(width: int) -> np.ndarray:
    """M with C @ M the Bernstein coefficients on [0, 1] of the monomial rows C of this width
    (columns j < width, M[k, j] = comb(j, k) / comb(width - 1, k), correctly rounded, at most 1)
    and their values at the probe points ``_PROBES`` (the columns after); read-only, as it is kept."""
    n = width - 1
    bernstein = [[math.comb(j, k) / math.comb(n, k) for j in range(width)] for k in range(width)]
    M = np.hstack([bernstein, _PROBES[None, :] ** np.arange(width)[:, None]])
    M.setflags(write=False)
    return M


def _unit_sup_bounds(C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(upper, probe) for each row of C: an upper bound on every value :func:`_unit_sup` can
    compute for the row, and the largest |q| at the probe points, a value near its sup.

    The largest Bernstein coefficient modulus bounds |q| on [0, 1] (Farouki & Rajan 1987).  The
    slack covers the rounding of that product (M's entries are at most 1) and of the Horner values
    of ``_unit_sup``, 3 w eps/2 times the row's |c| sum S for width w, with a term for underflow;
    it is taken as 4 (w + 2) eps.  A row with S past half the float range, where Horner may
    overflow, is bounded by inf."""
    w = C.shape[1]
    B, S = C @ _bernstein_probes(w), np.abs(C) @ np.ones(w)
    upper = np.abs(B[:, :w]).max(axis=1) + 4.0 * (w + 2) * (_FLOAT.eps * S + _FLOAT.smallest_subnormal)
    upper[~(S < _FLOAT.max / 2)] = math.inf
    return upper, np.abs(B[:, w:]).max(axis=1)


def _unit_ends(C: np.ndarray) -> np.ndarray:
    """max(|q_i(0)|, |q_i(1)|) for each row i of C."""
    return np.maximum(np.abs(C[:, 0]), np.abs(polynomial_eval_rows(C, np.ones(len(C)))))


def _unit_sup(C: np.ndarray) -> np.ndarray:
    """max |q_i| over [0, 1] for each row i of C: the ends and the real
    critical points inside, those of a row whose derivative overflows sought
    on the row scaled by a power of two (exact, and no root moves)."""
    best = _unit_ends(C)
    D = polynomial_derivative(C)
    over = ~np.isfinite(D).all(axis=1)
    if over.any():
        D[over] = polynomial_derivative(np.ldexp(C[over], -np.frexp(np.abs(C[over]).max(axis=1))[1][:, None]))
    z, real = _roots(D)
    row, c = np.nonzero(real & (z.real > 0.0) & (z.real < 1.0))
    np.maximum.at(best, row, np.abs(polynomial_eval_rows(C[row], z.real[row, c])))
    return best


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

    The orders are integrated in one batched pass over one table: F's
    non-zero pieces and its tails, with the rows of order k the derivative
    of those of order k-1, scaled to s = t/h at once.  A table coefficient or
    norm that is not finite raises NumericalFailureError.  Its non-zero piece
    rows, each with its order's index, are integrated ``_CHUNK`` rows at a
    time and summed per order.  The tails, p and quad_tol follow the rules
    of :func:`lp_norm`; :func:`sobolev_norms` is the same pass over many F.
    """
    return sobolev_norms([F], m, p, quad_tol)[0]


@np.errstate(over="ignore", invalid="ignore")  # a non-finite value surfaces in the one check below
def sobolev_norms(Fs, m: int, p: float, quad_tol: float = 1e-10) -> list[NormReport]:
    """:func:`sobolev_norm` of every F in ``Fs``, in one pass over all their tables
    (see the module docstring); every report and refusal is the single call's."""
    _check_order(m, 0)
    if not (isinstance(p, numbers.Real) and p >= 1):
        raise InvalidInputError(f"p must be a number in [1, inf], got {p!r}")
    if not (isinstance(quad_tol, numbers.Real) and quad_tol >= 0):
        raise InvalidInputError(f"quad_tol must be a non-negative number, got {quad_tol!r}")
    tails, chunks = [], []  # a chunk: [rows, [(C, h, F index * (m+1) + order) of each F]]
    for i, F in enumerate(Fs):
        if p != math.inf and not F.has_zero_tails():
            raise NonintegrableError("finite-p norm requires identically zero tails; differentiate away "
                                     "polynomial tails first or restrict to a compactly supported function")
        # the non-zero pieces, then the two tails, differentiated in t order by
        # order and scaled to s = t/h once (h = 1 for the tails)
        # a row sum of |C| tests rows far faster than .any(axis=1) over a short last axis
        keep = ((np.abs(F.coefficients) @ np.ones(F.coefficients.shape[1])) != 0.0).nonzero()[0]
        h = np.concatenate([np.diff(F.breakpoints)[keep], [1.0, 1.0]])
        rows = np.concatenate([F.coefficients[keep], [F.left_tail, F.right_tail]])
        width = int(rows.any(axis=0).nonzero()[0].max(initial=0)) + 1
        table = np.zeros((m + 1, len(h), width))
        table[0] = rows[:, :width]
        for k in range(m):
            table[k + 1, :, : width - 1] = polynomial_derivative(table[k])[:, : width - 1]
        table *= h[:, None] ** np.arange(width)
        if not np.isfinite(table).all():
            raise NumericalFailureError("the derivatives' scaled coefficients overflow")
        tails.append(table[:, -2:])
        live = (np.abs(table[:, :-2]) @ np.ones(width)) != 0.0
        C, h, bins = table[:, :-2][live], np.broadcast_to(h[:-2], live.shape)[live], i * (m + 1) + np.nonzero(live)[0]
        if chunks and chunks[-1][0] + len(C) <= _CHUNK and chunks[-1][1][0][0].shape[1] == width:
            chunks[-1][0] += len(C)
            chunks[-1][1].append((C, h, bins))
        else:  # a chunk past _CHUNK rows takes no more
            chunks += [[min(len(C), _CHUNK + 1), [(C[lo : lo + _CHUNK], h[lo : lo + _CHUNK], bins[lo : lo + _CHUNK])]]
                       for lo in range(0, len(C), _CHUNK)]
    bins_total = len(Fs) * (m + 1)
    if p == math.inf:
        # branch and bound per bin: the constant tails and the piece ends, both part of the report,
        # then the probes, which raise only the threshold; a row of degree >= 2 is solved while its
        # upper bound reaches its bin's threshold, first of all these, then of the report so far,
        # so a row left out cannot exceed the report
        norms = np.array([np.abs(tail[:, :, 0]).max(axis=1) for tail in tails]).reshape(bins_total)
        probes, curved_rows = np.zeros(bins_total), []
        for _, parts in chunks:
            C, _, bins = map(join, zip(*parts))
            np.maximum.at(norms, bins, _unit_ends(C))
            tops = np.abs(C[:, 2:])
            curved = (tops @ np.ones(tops.shape[1])) != 0.0
            C, bins = C[curved], bins[curved]
            upper, probe = _unit_sup_bounds(C)
            np.maximum.at(probes, bins, probe)
            curved_rows.append((C, bins, upper))
        for threshold in (np.maximum(probes, norms), norms):
            for C, bins, upper in curved_rows:
                now = upper >= threshold[bins]
                if now.any():
                    np.maximum.at(norms, bins[now], _unit_sup(C[now]))
                    upper[now] = -math.inf  # solved
        norms = norms.reshape(-1, m + 1)
    else:
        q, totals = int(p), np.zeros(bins_total)
        for _, parts in chunks:
            rows, h, bins = map(join, zip(*parts))
            if p != q:
                integrals = _fractional_integrals(rows, p, quad_tol, bins // (m + 1))
            elif q % 2:  # exact where q keeps its sign
                row, a, b, *_ = _root_split(rows)
                integrals = np.bincount(row, np.abs(_power_integrals(rows[row], q, a, b)), minlength=len(rows))
            else:
                integrals = _power_integrals(rows, q, np.zeros(len(rows)), np.ones(len(rows)))
            totals += np.bincount(bins, h * integrals, minlength=bins_total)
        norms = [[float(t) ** (1.0 / p) for t in row] for row in totals.reshape(-1, m + 1)]
    reports = []
    for lp, tail in zip((tuple(float(v) for v in row) for row in norms), tails):
        if not math.isfinite(sum(lp)):  # also an lp_norm that is inf or NaN
            raise NumericalFailureError(f"the L^{p} norms of F and its derivatives, or their sum, are not finite: {lp}")
        if p == math.inf and tail[:, :, 1:].any():  # a non-constant tail is unbounded
            lp = tuple(np.where(tail[:, :, 1:].any(axis=(1, 2)), math.inf, lp).tolist())
        reports.append(NormReport(lp, sum(lp), lp[-1]))
    return reports


# --------------------------------------------------------------------------
# minimal-energy interpolating splines
#
# Both splines below come from one builder, _min_energy_spline, in the
# B-spline form of de Boor ("On 'best' interpolation", J. Approx. Theory 16,
# 1976).  Let M_i be the order-m B-splines of unit integral on the knots, and
# delta_i = D^m f[tau_i..tau_{i+m}]; by Peano, delta_i = (1/m!) int M_i F^(m).
# The minimiser has F^(m) = sum lambda_j M_j with G lambda = m! delta, G the
# Gram matrix of the M_i: symmetric positive definite, banded with m stored
# diagonals, and of a scaled condition bounded by a constant of m alone
# (Scherer & Shadrin, Constr. Approx. 15, 1999).  Its energy is lambda . m! delta.
# The anchored spline is the same problem with each edge repeated m times,
# its zero jets entering as Hermite divided differences.  Each piece is then
# recovered on its own from F^(m) and the m knots nearest it, so no error runs
# along the knots.


@functools.cache
def _perm_table(width: int) -> np.ndarray:
    """perm(d, l) = d!/(d-l)! at [l, d] for l, d < width, zero for l > d: the
    l-th derivative of s^d at s = 1, and l! on the diagonal; read-only, as it is kept."""
    table = np.array([[math.perm(d, ell) for d in range(width)] for ell in range(width)], dtype=float)
    table.setflags(write=False)
    return table


@functools.cache
def _bspline_rules(m: int) -> tuple:
    """The read-only tables of order m, pieces on the last axis: the m-node Gauss-Legendre
    rule on [0, 1]; the B-splines of order min(m, 2) at its nodes; the matrix taking F^(m)
    there, on a piece of width h, to F's coefficients m + k (rows k < m) and to the right-end
    Taylor coefficients of the piece's share of an m-fold integral of F^(m) (rows m + k),
    all over h^m in the unit coordinate; the sign at [b, u, a] of window piece u in an integral
    from window knot a to knot b; the matrix moving the first rows to the right end of a
    piece of width 1; and the pairs r <= c of B-splines on a piece."""
    x, w = _gauss(m)
    nodes, weights = (x + 1.0) / 2.0, w / 2.0
    k = np.arange(m)
    fact = np.array([math.factorial(i) for i in k], dtype=float)
    b, u, a = np.ogrid[:m, : m - 1, :m]
    rules = (
        nodes[:, None, None],
        weights,
        np.stack([1.0 - nodes, nodes], axis=1)[:, :, None] if m > 1 else np.ones((1, 1, 1)),
        np.hstack([
            np.linalg.inv(np.vander(nodes, increasing=True)).T / _perm_table(2 * m)[m, m:],
            weights[:, None] * (1.0 - nodes[:, None]) ** (m - 1 - k) / fact[::-1] / fact,
        ]).T,
        ((a <= u) & (u < b)).astype(float) - ((b <= u) & (u < a)),
        np.array([[math.comb(d, i) * math.perm(m + d, m) / math.perm(m + i, m) for d in k] for i in k], dtype=float),
    )
    for table in rules:
        table.setflags(write=False)
    return rules + (tuple(zip(*np.triu_indices(m))),)


def _gram_solve(x: np.ndarray, y: np.ndarray, m: int, anchored: bool) -> tuple[np.ndarray, float]:
    """F^(m) of the minimal interpolant, as the rows of :func:`_bspline_rules`' matrix, and
    its energy, under the caller's float error state.  A Gram matrix that is not numerically
    positive definite, or a solution that is not finite or not within 1e-10 backward, raises."""
    nodes, weights, B, to_piece, _, shift, pairs = _bspline_rules(m)
    n, h = len(x) - 1, x[1:] - x[:-1]
    # tau, the knots with each end repeated m times: piece p is [tau[p+m-1], tau[p+m]]
    # and holds B-splines p..p+m-1 on knots tau[p..p+2m-1], which the de Boor-Cox
    # recurrence evaluates at the Gauss nodes in the piece's unit coordinate
    tau = np.concatenate([x[:1]] * (m - 1) + [x] + [x[-1:]] * (m - 1))
    shifts = np.arange(2 * m)[:, None] + np.arange(n)  # [i, p]: knot or B-spline p + i
    U = (tau[shifts] - x[:-1]) / h if m > 2 else None
    for k in range(2, m):
        lo, hi = U[m - k : m], U[m : m + k]
        term = B / (hi - lo)
        B = np.concatenate([(hi - nodes) * term, np.zeros((m, 1, n))], axis=1)
        B[:, 1:] += (nodes - lo) * term
    scale = m / (tau[m:] - tau[:-m])  # to unit integrals
    S = scale[shifts[:m]]
    local = np.einsum("a,arp,acp->rcp", weights, B, B) * (S[:, None] * S * h)
    # G in LAPACK's upper band storage, G[i, j] at ab[m-1+i-j, j]
    size = n + m - 1
    ab = np.zeros((m, size))
    for r, c in pairs:
        ab[m - 1 + r - c, c : c + n] += local[r, c]
    # Hermite divided differences of order m on tau: a window within one
    # repeated end holds a zero jet (anchored) or a B-spline left out (natural)
    delta = np.concatenate([y[:1]] * (m - 1) + [y] + [y[-1:]] * (m - 1))
    for k in range(1, m + 1):
        delta = (delta[1:] - delta[:-1]) / (tau[k:] - tau[:-k])
        delta[: m - k], delta[size:] = 0.0, 0.0
    live = slice(0, size) if anchored else slice(m - 1, n)
    G, rhs = ab[:, live], math.factorial(m) * delta[live]
    _, lam, info = dpbsv(G, rhs)
    if info != 0 or not np.isfinite(lam).all():
        raise NumericalFailureError("spline system is singular or badly scaled")
    # G times 1 (its row sums bound its norm, as its entries are all >= 0) and times lambda
    V = np.array([np.ones(len(lam)), lam])
    GV = G[m - 1] * V
    for d in range(1, m):
        GV[:, :-d] += G[m - 1 - d, d:] * V[:, d:]
        GV[:, d:] += G[m - 1 - d, d:] * V[:, :-d]
    norm_g, residual = GV[0].max(), np.abs(GV[1] - rhs).max()
    backward = residual / norm_g / (np.abs(lam).max() + np.abs(rhs).max() / norm_g) if residual else 0.0
    if not backward <= _MAX_BACKWARD_ERROR:
        raise NumericalFailureError(f"spline solve has backward error {backward:.3e}, not at most {_MAX_BACKWARD_ERROR:g}")
    full = np.zeros(size)
    full[live] = lam
    scale *= full
    raw = to_piece @ (B * scale[shifts[:m]]).sum(axis=1)
    if m > 1:  # F^(m) is C^(m-2): a piece narrower than a neighbour resolves it coarser, so it takes
        # its low derivatives from a wider piece on its left and its top one from one on its right
        left = np.flatnonzero(h[:-1] > h[1:])
        raw[: m - 1, left + 1] = (shift @ raw[:m, left])[: m - 1] * (h[left + 1] / h[left]) ** np.arange(m - 1)[:, None]
        right = np.flatnonzero(h[:-1] < h[1:])
        top = raw[m - 2, right + 1] * (h[right] / h[right + 1]) ** (m - 2)
        raw[m - 1, right] = (top - raw[m - 2, right]) / shift[m - 2, m - 1]
    return raw * h**m, float(lam @ rhs)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # a non-finite value is refused below
def _min_energy_spline(x: np.ndarray, y: np.ndarray, m: int, anchored: bool) -> tuple[np.ndarray, float]:
    """Coefficients (pieces x 2m) of the minimal ∫|F^(m)|^2 interpolant of y
    on the knots x, and its energy.  The natural spline takes the B-splines of
    the simple knots; the anchored one clamps zero m-jets at x[0] and x[-1],
    where y is 0.  Besides :func:`_gram_solve`'s refusals, pieces whose derivatives below
    order m do not join to 1e-9 of their scale in unit coordinates raise
    NumericalFailureError.  Arrays hold the pieces on their last axis."""
    if m > MAX_ORDER:
        raise UnsupportedError(f"order m = {m} is above {MAX_ORDER}: (2m-1)! overflows a float")
    # a power of two brings the values near 1 and the result back, exactly, so no step runs subnormal
    e = int(np.frexp(np.abs(y).max())[1])
    y = np.ldexp(y, -e)
    raw, energy = _gram_solve(x, y, m, anchored)
    n, h, signs = len(x) - 1, x[1:] - x[:-1], _bspline_rules(m)[4]
    high, share, first = raw[:m], raw[m:], 0
    if anchored:  # F vanishes beyond the edges: m-1 zero knots on either side widen the windows
        pad, zeros = np.arange(1, m), np.zeros((m, m - 1))
        x, first = np.concatenate([x[0] - pad[::-1] * h[0], x, x[-1] + pad * h[-1]]), m - 1
        y, share = np.concatenate([zeros[0], y, zeros[0]]), np.concatenate([zeros, share, zeros], axis=1)
    # piece j's window: the m knots nearest its left end, moved right to hold its
    # right end (for m <= 2 the piece's own knots).  There F is R_j, the m-fold
    # integral of F^(m) from x_j, plus the degree m-1 interpolant of f - R_j; in
    # the unit coordinate of piece j, so both come out as F's unit coefficients
    j = np.arange(first, first + n)
    lo = np.minimum(np.maximum(_nearest_windows(x, m)[j], j + 2 - m), j) if m > 2 else j
    window = lo + np.arange(m)[:, None]
    xw = x[window]
    X, R = (xw - x[j]) / h, 0.0
    for u, end in enumerate(window[1:] - 1):  # R_j at each window knot: the signed shares of the pieces in between
        z, part = (xw - x[end + 1]) / (x[end + 1] - x[end]), share[m - 1, end]
        for k in range(m - 2, -1, -1):
            part = part * z + share[k, end]
        R = R + signs[:, u, j - lo] * part
    if m > 2:  # the window in order of distance from x_j, which keeps the Newton form's cancellations small
        at = np.argsort(np.abs(X), axis=0, kind="stable"), np.arange(n)
        X, R, window = X[at], R[at], window[at]
    rows = divided_difference_rows(X, y[window] - R, m - 1)
    unit = np.concatenate([_expand_newton(np.array([row[0] for row in rows]).T, X[: m - 1].T).T, high])
    # the joins: each piece's derivatives k < m at its right end against the next
    # piece's at its left end (against zero past an anchored edge, where the first
    # piece's left end also meets zero), in the piece's unit coordinate, against
    # the rounding of both sides; a jump beyond it means F^(m) was not resolved
    perm = _perm_table(2 * m)[:m]
    right, scale, left = perm @ unit, perm @ np.abs(unit), unit[:m] * perm.diagonal()[:, None]
    left[1:, 1:] *= np.multiply.accumulate((h[:-1] / h[1:])[None].repeat(m - 1, 0), axis=0)
    if anchored:
        right, left, scale = (np.concatenate(a, axis=1) for a in ((right, left[:, :1]), (left[:, 1:], np.zeros((m, 2))), (scale, scale[:, :1])))
    else:
        right, left, scale = right[:, :-1], left[:, 1:], scale[:, :-1]
    jump, bound = np.abs(right - left), _MAX_JOIN_ERROR * (scale + np.abs(left)) + np.finfo(float).tiny
    if not np.all(jump <= bound):  # also a coefficient that is not finite
        worst = np.nanmax(jump / bound) if np.isfinite(unit).all() else math.inf
        raise NumericalFailureError(f"spline pieces join to {worst * _MAX_JOIN_ERROR:.3e} in unit coordinates, not {_MAX_JOIN_ERROR:g}")
    unit[1:] /= np.multiply.accumulate(h[None].repeat(2 * m - 1, 0), axis=0)
    coef, energy = np.ldexp(unit.T, e), float(np.ldexp(energy, 2 * e))
    if not (np.isfinite(coef).all() and math.isfinite(energy)):
        raise NumericalFailureError("spline system is singular or badly scaled")
    return coef, energy


def natural_spline_min_energy(s: SampledFunction, m: int) -> tuple[PiecewisePolynomial, float]:
    """Interpolant minimizing ∫ |F^(m)|^2, with its exact energy.

    The minimizer is a spline of degree 2m-1 with C^{2m-2} interior joins and
    polynomial tails of degree <= m-1 (the energy density vanishes outside the
    data).  With fewer than m+1 samples the minimum is 0, attained by the
    interpolating polynomial itself; that degenerate case is returned as such.
    Otherwise the spline and its energy come from one solve of the B-spline
    Gram system, which raises NumericalFailureError on a matrix that is not
    numerically positive definite or a backward error above 1e-10.
    """
    _check_order(m, 1)
    if len(s) <= m:
        return lagrange_polynomial(s), 0.0
    pts = np.asarray(s.points)
    coef, energy = _min_energy_spline(pts, np.asarray(s.values), m, anchored=False)
    right_tail = shift_polynomial(coef[-1], float(pts[-1] - pts[-2]))[:m]
    return PiecewisePolynomial(pts, coef, coef[0][:m], right_tail), energy


def anchored_min_energy_spline(
    points, values, m: int, edge_left: float, edge_right: float
) -> PiecewisePolynomial:
    """Minimal ∫|F^(m)|^2 interpolant clamped to zero jets at two edge knots.

    The result vanishes identically outside [edge_left, edge_right]: each edge
    is a knot of multiplicity m in the B-spline basis, carrying a zero jet
    (value and derivatives up to m-1), so the Gram solve of
    :func:`natural_spline_min_energy`'s builder produces the spline.  Interior
    joins are C^{2m-2}; the edge joins are C^{m-1} against the zero tails.

    The knots come as arrays (or sequences) of coordinates and values.  A
    knot within 1e-9 relative of an edge must carry the value 0 and is
    absorbed into the edge conditions.
    """
    _check_order(m, 1)
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
    coef, _ = _min_energy_spline(knots, np.concatenate([[0.0], vals[~on_edge], [0.0]]), m, anchored=True)
    return PiecewisePolynomial(knots, coef)
