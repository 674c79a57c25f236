"""Closed-form calculus for matrix-fractional support functions.

The library evaluates the support function of constrained quadratic graph
sets ``{(Y, -1/2 Y Y^T) : A Y = B}`` in closed form via null-space KKT
solves, and provides the surrounding convex geometry: subspace-restricted
PSD cones and their polars, the closed convex hull with explicit
convex-combination witnesses, normal cones and subdifferentials, polar and
horizon cones, and the gauge calculus of the homogeneous case.  Every
closed form has an independent brute-force counterpart in
:mod:`gmfrac.bruteforce` for verification.
"""

from .linalg import (
    DEFAULT_TOL,
    SpectralData,
    SubspaceBasis,
    ToleranceConfig,
    frobenius_inner,
    kernel_basis,
    psd_on_subspace,
    range_inclusion,
    sym_eig,
    sym_pinv,
    symmetrize,
)
from .cones import (
    in_aff_polar,
    in_cone,
    in_int_cone,
    in_polar_cone,
    in_rint_polar,
    sample_polar,
)
from .support import (
    ConstraintPair,
    DualPoint,
    InfeasiblePairError,
    PreconditionError,
    SupportResult,
    eval_support,
    in_domain,
    saddle_matrix,
)
from .hull import (
    ConvexWitness,
    PrimalPoint,
    caratheodory_witness,
    distance,
    graph_point,
    in_free_hull,
    in_hull,
    in_hull_aff,
    in_hull_horizon,
    in_hull_polar,
    in_hull_polar_horizon,
    in_hull_rint,
    pairing,
)
from .subgrad import (
    SubgradientResult,
    canonical_subgradient,
    in_normal_cone,
    in_subdifferential,
)
from .gauges import GaugeResult, eval_gauge, eval_polar_gauge, in_scaled_hull
from .bruteforce import (
    FuzzReport,
    SampleConfig,
    convexity_fuzz,
    gauge_bisection,
    sample_feasible,
    support_lower_bound,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_TOL",
    "ToleranceConfig",
    "SubspaceBasis",
    "SpectralData",
    "symmetrize",
    "frobenius_inner",
    "sym_eig",
    "sym_pinv",
    "kernel_basis",
    "range_inclusion",
    "psd_on_subspace",
    "in_cone",
    "in_int_cone",
    "in_polar_cone",
    "in_aff_polar",
    "in_rint_polar",
    "sample_polar",
    "ConstraintPair",
    "DualPoint",
    "SupportResult",
    "InfeasiblePairError",
    "PreconditionError",
    "saddle_matrix",
    "in_domain",
    "eval_support",
    "PrimalPoint",
    "ConvexWitness",
    "graph_point",
    "pairing",
    "distance",
    "in_hull",
    "in_hull_rint",
    "in_hull_aff",
    "in_free_hull",
    "in_hull_polar",
    "in_hull_horizon",
    "in_hull_polar_horizon",
    "caratheodory_witness",
    "SubgradientResult",
    "in_normal_cone",
    "canonical_subgradient",
    "in_subdifferential",
    "GaugeResult",
    "in_scaled_hull",
    "eval_gauge",
    "eval_polar_gauge",
    "SampleConfig",
    "FuzzReport",
    "sample_feasible",
    "support_lower_bound",
    "gauge_bisection",
    "convexity_fuzz",
]
