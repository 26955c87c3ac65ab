"""Compactly supported smooth extensions of scattered samples.

Pipeline: very small sets are first padded to m+1 points with zero samples;
complementary gaps wider than 4 receive lattice points at spacing between 2
and 3 (spacing exactly 2 in the two unbounded gaps, truncated to the support
window); the data is extended by zero onto the lattice; finally one of two
backends interpolates the merged data with a piecewise polynomial of degree
at most 2m-1 joining C^{m-1}:

* ``hermite`` assigns a jet to every merged knot (zero at lattice knots, the
  jet of a local interpolating polynomial at data knots) and places the
  unique two-point Hermite piece on each knot interval;
* ``natural2`` solves one sparse minimal-bending-energy system on the merged
  knots, clamped to zero jets at the window edges.

Both backends vanish identically outside the support window, reproduce the
data exactly up to solver precision, and depend linearly on the values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .divdiff import divided_difference_rows
from .errors import InvalidInputError
from .functionals import (
    pad_small_set,
    sequence_functional,
    variational_feasible,
    variational_functional,
)
from .piecewise import PiecewisePolynomial
from .samples import SampledFunction
from .splines import NormReport, anchored_min_energy_spline, sobolev_norm

#: Gaps wider than this receive lattice points.
LONG_GAP = 4.0
#: Lattice spacing in unbounded gaps.
EDGE_SPACING = 2.0


def support_pad(m: int) -> float:
    """Default half-width added beyond the data: 3(m+2)."""
    return 3.0 * (m + 2)


@dataclass(frozen=True)
class ExtensionConfig:
    """Parameters of the extension construction.

    ``window_pad`` is the half-width of the support window beyond the data
    and may not fall below 3(m+2); the construction itself never produces
    anything outside the default window, so larger pads only add zero space.
    """

    m: int
    p: float = 2.0
    backend: str = "hermite"
    window_pad: float | None = None
    smoothness_tol: float = 1e-8
    quad_tol: float = 1e-10

    def __post_init__(self) -> None:
        if self.m < 1:
            raise InvalidInputError(f"m must be a positive integer, got {self.m}")
        if self.backend not in ("hermite", "natural2"):
            raise InvalidInputError(f"unknown backend {self.backend!r}")
        pad = self.window_pad
        if pad is None:
            object.__setattr__(self, "window_pad", support_pad(self.m))
        elif pad < support_pad(self.m):
            raise InvalidInputError(
                f"window_pad must be at least 3(m+2) = {support_pad(self.m)}, got {pad}"
            )


@dataclass(frozen=True)
class GapLattice:
    """Lattice points inserted into the wide complementary gaps of a point set.

    ``gaps`` lists every complementary interval inside the support window
    (the two unbounded gaps appear truncated to the window).  ``long_gaps``
    are those wider than 4; only they carry lattice points.
    """

    gaps: tuple[tuple[float, float], ...]
    long_gaps: tuple[tuple[float, float], ...]
    lattice_points: tuple[float, ...]


def build_gap_lattice(points, cfg: ExtensionConfig) -> GapLattice:
    """Subdivide wide gaps of a finite point set.

    A bounded gap J = (a, b) with |J| > 4 receives n_J = floor(|J|/2)
    subintervals of equal width ell = |J|/n_J (always in [2, 3]); the lattice
    points are the n_J - 1 interior division points.  The two unbounded gaps
    get points at spacing exactly 2, marching outward from the data until the
    window edge.  The result keeps distance >= 2 from the data, has pairwise
    separation >= 2, and leaves no window point farther than 2 from data
    plus lattice.
    """
    pts = tuple(float(x) for x in points)
    if not pts:
        raise InvalidInputError("at least one point is required")
    if any(b - a <= 0 for a, b in zip(pts, pts[1:])):
        raise InvalidInputError("points must be strictly increasing")
    pad = cfg.window_pad
    lo, hi = pts[0] - pad, pts[-1] + pad
    gaps: list[tuple[float, float]] = [(lo, pts[0])]
    gaps.extend(zip(pts, pts[1:]))
    gaps.append((pts[-1], hi))
    long_gaps = tuple(g for g in gaps if g[1] - g[0] > LONG_GAP)
    lattice: list[float] = []
    n_left = int(math.floor(pad / EDGE_SPACING))
    lattice.extend(pts[0] - EDGE_SPACING * n for n in range(n_left, 0, -1))
    for a, b in zip(pts, pts[1:]):
        width = b - a
        if width > LONG_GAP:
            n_j = int(math.floor(width / 2.0))
            ell = width / n_j
            lattice.extend(a + ell * n for n in range(1, n_j))
    lattice.extend(pts[-1] + EDGE_SPACING * n for n in range(1, n_left + 1))
    return GapLattice(tuple(gaps), long_gaps, tuple(lattice))


def zero_extend(s: SampledFunction, lattice: GapLattice) -> SampledFunction:
    """Merge the data with the lattice, assigning the value 0 on the lattice."""
    pairs = sorted(
        list(zip(s.points, s.values)) + [(x, 0.0) for x in lattice.lattice_points]
    )
    pts = tuple(x for x, _ in pairs)
    vals = tuple(v for _, v in pairs)
    # separation >= 2 between data and lattice makes collisions impossible;
    # the constructor enforces strict monotonicity anyway
    return SampledFunction(pts, vals)


# ----------------------------------------------------------------- hermite

_HERMITE_MATRIX_CACHE: dict[int, np.ndarray] = {}


def _hermite_matrix(m: int) -> np.ndarray:
    if m not in _HERMITE_MATRIX_CACHE:
        A = np.zeros((m, m))
        for ell in range(m):
            for j in range(m):
                A[ell, j] = math.perm(m + j, ell)
        _HERMITE_MATRIX_CACHE[m] = A
    return _HERMITE_MATRIX_CACHE[m]


def _hermite_piece(h: float, jet_left, jet_right, m: int) -> np.ndarray:
    """Degree <= 2m-1 coefficients on [0, h] matching m-jets at both ends.

    Solved on the unit interval (sigma = t/h) so the local system is the same
    fixed m x m matrix for every piece regardless of how narrow it is.
    """
    q_low = np.array([h**ell * jet_left[ell] / math.factorial(ell) for ell in range(m)])
    rhs = np.empty(m)
    for ell in range(m):
        known = sum(math.perm(d, ell) * q_low[d] for d in range(ell, m))
        rhs[ell] = h**ell * jet_right[ell] - known
    q_high = np.linalg.solve(_hermite_matrix(m), rhs)
    q = np.concatenate([q_low, q_high])
    return q / h ** np.arange(2 * m)


def _local_jet(data: SampledFunction, t: float, m: int) -> list[float]:
    """Derivatives 0..m-1 at t of the interpolating polynomial through the m
    nearest data points (ties broken toward smaller coordinates)."""
    order = sorted(range(len(data)), key=lambda j: (abs(data.points[j] - t), data.points[j]))
    sel = sorted(order[:m])
    xs = [data.points[j] for j in sel]
    ys = [data.values[j] for j in sel]
    newton = [row[0] for row in divided_difference_rows(xs, ys, len(xs) - 1)]
    # expand the Newton form around t; coefficient ell gives the ell-th
    # derivative over ell!
    coeffs = [newton[-1]]
    for k in range(len(newton) - 2, -1, -1):
        new = [0.0] * (len(coeffs) + 1)
        root = xs[k] - t
        for d, c in enumerate(coeffs):
            new[d + 1] += c
            new[d] -= root * c
        new[0] += newton[k]
        coeffs = new
    return [coeffs[ell] * math.factorial(ell) if ell < len(coeffs) else 0.0 for ell in range(m)]


def _hermite_extend(data: SampledFunction, merged: SampledFunction, m: int) -> PiecewisePolynomial:
    data_set = set(data.points)
    jets = []
    for t in merged.points:
        if t in data_set:
            jets.append(_local_jet(data, t, m))
        else:
            jets.append([0.0] * m)
    pieces = []
    for i in range(len(merged) - 1):
        h = merged.points[i + 1] - merged.points[i]
        pieces.append(_hermite_piece(h, jets[i], jets[i + 1], m))
    return PiecewisePolynomial(merged.points, pieces)


# -------------------------------------------------------------------- public


def extend(s: SampledFunction, cfg: ExtensionConfig) -> PiecewisePolynomial:
    """Build the piecewise-polynomial extension of the samples.

    Sets with at most m points are padded to m+1 first; the construction then
    runs on the (possibly padded) data.  The result interpolates the original
    samples, joins C^{m-1}, has degree at most 2m-1 per piece, and vanishes
    identically outside the support window of the working set.  The whole map
    from values to extension is linear.
    """
    m = cfg.m
    work = pad_small_set(s, m) if len(s) <= m else s
    lattice = build_gap_lattice(work.points, cfg)
    merged = zero_extend(work, lattice)
    if cfg.backend == "hermite":
        return _hermite_extend(work, merged, m)
    return anchored_min_energy_spline(
        merged.points,
        merged.values,
        m,
        work.points[0] - cfg.window_pad,
        work.points[-1] + cfg.window_pad,
    )


@dataclass(frozen=True)
class NecessityReport:
    """Outcome of the explicit lower-bound inequality check."""

    functional: float
    functional_kind: str
    extension_norm: float
    bound_factor: float
    ratio: float
    passed: bool


def necessity_bound_factor(m: int, p: float) -> float:
    """Explicit constant relating the trace functional to any extension norm.

    Finite p: summing the per-order bounds (each order contributes at most
    2^p (2m+1) times the p-th power of the norm, over m+1 orders) gives
    N <= 2 ((m+1)(2m+1))^{1/p} * ||F||.  For p = inf the factor is 1.
    """
    if p == math.inf:
        return 1.0
    return 2.0 * ((m + 1) * (2 * m + 1)) ** (1.0 / p)


def verify_necessity(
    s: SampledFunction, F: PiecewisePolynomial, m: int, p: float, quad_tol: float = 1e-10
) -> NecessityReport:
    """Check the proven inequality between the trace functional of the data
    and the full norm of an interpolating extension.

    The variational functional is used while the set is within its window
    budget (:func:`variational_feasible`), the sequence functional beyond
    it.  At finite p a set of at most m points
    is first padded to m+1 points by :func:`pad_small_set`, the set that
    :func:`extend` interpolates, since the variational functional needs m+1
    points.  F must interpolate the (padded) data, checked to 1e-9 relative.
    Failure of the inequality on a valid pair indicates a bug, not an unlucky
    input.
    """
    work = pad_small_set(s, m) if p != math.inf and len(s) <= m else s
    scale = 1.0 + max(abs(v) for v in s.values)
    residual = max(abs(F(x) - v) for x, v in zip(work.points, work.values))
    if residual > 1e-9 * scale:
        data = "the samples" if work is s else f"the samples padded with zeros to {m + 1} points"
        raise InvalidInputError(
            f"F does not interpolate {data}: residual {residual:.3e} exceeds "
            f"{1e-9 * scale:.3e}"
        )
    functional = variational_functional if variational_feasible(len(work), m) else sequence_functional
    report = functional(work, m, p)
    norm: NormReport = sobolev_norm(F, m, p, quad_tol)
    factor = necessity_bound_factor(m, p)
    n_val = report.value
    w_val = norm.w_norm
    passed = n_val <= factor * w_val + 1e-12 * (1.0 + n_val)
    ratio = n_val / w_val if w_val > 0 else 0.0
    return NecessityReport(n_val, report.kind, w_val, factor, ratio, passed)
