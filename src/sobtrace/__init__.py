"""Trace-norm functionals and smooth extensions for samples on the line.

Given finitely many samples of a function on a strictly increasing point set,
this package computes the divided-difference functionals that decide whether
the data extends to a smooth function with integrable derivatives, measures
sharp maximal profiles, and constructs compactly supported piecewise
polynomial extensions that realize such an extension with a norm controlled
by those functionals.
"""

from .divdiff import (
    DividedDifferenceTable,
    build_table,
    convex_hull_check,
    divdiff_recursive,
    divdiff_sum,
    divided_difference_rows,
    lagrange_polynomial,
    reduce_wide_difference,
)
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
from .samples import SampledFunction, extended_gap
from .sharp import ENUMERATION_CAP, GridSpec, MaximalProfile, sharp_profile, sharp_value, wmf_functional
from .splines import (
    NormReport,
    anchored_min_energy_spline,
    lp_norm,
    natural_spline_min_energy,
    sobolev_norm,
)

__version__ = "0.1.0"

__all__ = [
    "DividedDifferenceTable",
    "ENUMERATION_CAP",
    "ExtensionConfig",
    "FunctionalReport",
    "GapLattice",
    "GridSpec",
    "HypothesisViolationError",
    "InvalidInputError",
    "MaximalProfile",
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
    "build_table",
    "convex_hull_check",
    "divdiff_recursive",
    "divdiff_sum",
    "divided_difference_rows",
    "effective_order",
    "extend",
    "extended_gap",
    "homogeneous_sequence_functional",
    "homogeneous_variational_functional",
    "lagrange_polynomial",
    "lp_norm",
    "natural_spline_min_energy",
    "necessity_bound_factor",
    "pad_small_set",
    "reduce_wide_difference",
    "sequence_functional",
    "sharp_profile",
    "sharp_value",
    "small_set_functional",
    "sobolev_norm",
    "support_pad",
    "variational_feasible",
    "variational_functional",
    "verify_necessity",
    "wmf_functional",
    "zero_extend",
]
