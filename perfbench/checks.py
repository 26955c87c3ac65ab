"""Output checks computed independently of sobtrace's own routines.

Piece evaluation, derivatives, joins and exact p = 2 integrals use
``numpy.polynomial`` on the spline's raw arrays; the variational functional
is re-derived by brute-force enumeration with its own divided differences;
L^p norms at any p are re-integrated with ``scipy.integrate.quad``.
None of them calls into sobtrace.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from numpy.polynomial import polynomial as P
from scipy.integrate import quad


class Problems:
    """Collects failed checks; a run is correct when none were recorded."""

    def __init__(self):
        self.messages: list[str] = []

    def require(self, ok, message: str) -> None:
        if not ok:
            self.messages.append(message)


def _rows(F, order: int):
    """(left tail, pieces, right tail) coefficient rows of F^(order)."""
    rows = np.vstack([F.left_tail, F.coefficients, F.right_tail])
    return P.polyder(rows, order, axis=1) if order else rows


def evaluate(F, x, order: int = 0) -> np.ndarray:
    """F^(order)(x): gather each point's piece, then evaluate in local coordinates."""
    bp = F.breakpoints
    rows = _rows(F, order)
    origins = np.concatenate([bp[:1], bp[:-1], bp[-1:]])
    k = np.searchsorted(bp, x, side="right")
    return P.polyval(x - origins[k], rows[k].T, tensor=False)


def join_mismatch(F, order: int) -> float:
    """Largest jump of F^(order) over all breakpoints, tails included, as a
    share of the largest |F^(order)| at a breakpoint (plus 1)."""
    rows = _rows(F, order)
    h = np.diff(F.breakpoints)
    left = np.concatenate([rows[:1, 0], P.polyval(h, rows[1:-1].T, tensor=False)])
    right = rows[1:, 0]
    scale = 1.0 + max(np.abs(left).max(), np.abs(right).max())
    return float(np.abs(left - right).max() / scale)


def check_extension(problems: Problems, tag: str, F, points, values, m: int) -> None:
    """Interpolation to 1e-9 relative, support inside the 3(m+2) window and
    C^{m-1} joins (tails included)."""
    pts = np.asarray(points)
    vals = np.asarray(values)
    residual = np.abs(evaluate(F, pts) - vals).max()
    problems.require(
        residual <= 1e-9 * (1.0 + np.abs(vals).max()),
        f"{tag}: interpolation residual {residual:.3e}",
    )
    pad = 3.0 * (m + 2)
    lo, hi = pts[0] - pad, pts[-1] + pad
    slack = 1e-9 * (1.0 + max(abs(lo), abs(hi)))
    problems.require(
        not F.left_tail.any() and not F.right_tail.any()
        and F.breakpoints[0] >= lo - slack and F.breakpoints[-1] <= hi + slack,
        f"{tag}: support [{F.breakpoints[0]!r}, {F.breakpoints[-1]!r}] not inside [{lo!r}, {hi!r}]",
    )
    for order in range(m):
        jump = join_mismatch(F, order)
        problems.require(jump <= 1e-7, f"{tag}: order-{order} join mismatch {jump:.3e}")


def exact_l2_norms(F, m: int) -> list[float]:
    """||F^(k)||_2 for k = 0..m by exact integration of the squared pieces."""
    h = np.diff(F.breakpoints)
    out = []
    for k in range(m + 1):
        c = P.polyder(F.coefficients, k, axis=1) if k else F.coefficients
        w = c.shape[1]
        square = np.zeros((c.shape[0], 2 * w - 1))
        for a in range(w):
            square[:, a : a + w] += c[:, a : a + 1] * c
        integral = P.polyval(h, P.polyint(square, axis=1).T, tensor=False)
        out.append(math.sqrt(float(integral.sum())))
    return out


def quad_lp_norms(F, m: int, p: float) -> list[float]:
    """||F^(k)||_p for k = 0..m by adaptive quadrature of |F^(k)|^p per piece."""
    h = np.diff(F.breakpoints)
    out = []
    for k in range(m + 1):
        c = P.polyder(F.coefficients, k, axis=1) if k else F.coefficients
        total = 0.0
        for row, width in zip(c, h):
            if row.any():
                value, _ = quad(
                    lambda t: abs(P.polyval(t, row)) ** p, 0.0, width,
                    epsabs=0.0, epsrel=1e-10, limit=400,
                )
                total += value
        out.append(total ** (1.0 / p))
    return out


def brute_variational(points, values, m: int, p: float) -> float:
    """Supremum over all increasing subsequences of length >= m+1 of
    sum_k sum_i min(1, gap) |D^k f|^p, weight 1 once i+m passes the end."""
    memo: dict[tuple[int, ...], float] = {}

    def difference(window: tuple[int, ...]) -> float:
        if window not in memo:
            if len(window) == 1:
                memo[window] = values[window[0]]
            else:
                memo[window] = (difference(window[1:]) - difference(window[:-1])) / (
                    points[window[-1]] - points[window[0]]
                )
        return memo[window]

    best = 0.0
    n1 = len(points)
    for size in range(m + 1, n1 + 1):
        for sub in itertools.combinations(range(n1), size):
            total = 0.0
            for k in range(m + 1):
                for i in range(size - k):
                    weight = 1.0 if i + m >= size else min(1.0, points[sub[i + m]] - points[sub[i]])
                    total += weight * abs(difference(sub[i : i + k + 1])) ** p
            best = max(best, total)
    return best ** (1.0 / p)


def close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)
