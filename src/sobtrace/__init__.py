"""Trace-norm functionals and smooth extensions for samples on the line.

Given finitely many samples of a function on a strictly increasing point set,
this package computes the divided-difference functionals that decide whether
the data extends to a smooth function with integrable derivatives, measures
sharp maximal profiles, and constructs compactly supported piecewise
polynomial extensions that realize such an extension with a norm controlled
by those functionals.

The brute-force checks of that theory, the 1/omega' route to divided
differences, the wide-set reduction, the convex-hull lemma and the pointwise
sharp maximal value, live in the test suite's ``tests/oracles.py``.
"""

from .divdiff import divided_difference_rows, lagrange_polynomial
from .errors import (
    HypothesisViolationError,
    InvalidInputError,
    NonintegrableError,
    NumericalFailureError,
    SizeCapError,
    SobtraceError,
    UnsupportedError,
)
from .extension import (
    ExtensionConfig,
    GapLattice,
    NecessityReport,
    build_gap_lattice,
    extend,
    necessity_bound_factor,
    support_pad,
    verify_necessity,
    zero_extend,
)
from .functionals import (
    VARIATIONAL_BUDGET,
    FunctionalReport,
    effective_order,
    homogeneous_sequence_functional,
    homogeneous_variational_functional,
    pad_small_set,
    sequence_functional,
    small_set_functional,
    variational_feasible,
    variational_functional,
)
from .piecewise import PiecewisePolynomial
from .samples import SampledFunction
from .sharp import GridSpec, wmf_functional
from .splines import (
    NormReport,
    anchored_min_energy_spline,
    lp_norm,
    natural_spline_min_energy,
    sobolev_norm,
)

__version__ = "0.1.0"

__all__ = [
    "ExtensionConfig",
    "FunctionalReport",
    "GapLattice",
    "GridSpec",
    "HypothesisViolationError",
    "InvalidInputError",
    "NecessityReport",
    "NonintegrableError",
    "NormReport",
    "NumericalFailureError",
    "PiecewisePolynomial",
    "SampledFunction",
    "SizeCapError",
    "SobtraceError",
    "UnsupportedError",
    "VARIATIONAL_BUDGET",
    "anchored_min_energy_spline",
    "build_gap_lattice",
    "divided_difference_rows",
    "effective_order",
    "extend",
    "homogeneous_sequence_functional",
    "homogeneous_variational_functional",
    "lagrange_polynomial",
    "lp_norm",
    "natural_spline_min_energy",
    "necessity_bound_factor",
    "pad_small_set",
    "sequence_functional",
    "small_set_functional",
    "sobolev_norm",
    "support_pad",
    "variational_feasible",
    "variational_functional",
    "verify_necessity",
    "wmf_functional",
    "zero_extend",
]
