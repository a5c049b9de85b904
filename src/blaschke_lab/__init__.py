"""Numerical toolkit for finite zero sequences in the unit disk.

Pseudohyperbolic geometry, finite Blaschke products, Carleson norms,
Hardy/Bergman quadrature probes, seeded sequence generators, and a
constructive solver for clustered (multiple-point) interpolation.
"""

from .analysis import AnalysisReport, analyze_sequence, direction_agreement
from .bergman import QuadratureGrid, hp_norm, recentred_means
from .blaschke import (
    BlaschkeProduct,
    SeparationReport,
    compose_min_on_compact,
    evaluate,
    log_abs_composed,
    log_abs_evaluate,
    max_local_count,
    partition_separated,
    separation_report,
)
from .carleson import arc_carleson_constant, carleson_norm, uniform_blaschke_sup
from .disk import (
    FiniteSequence,
    InvariantViolation,
    hyperbolic_grid,
    moebius,
    psh_distance,
    psh_distance_pairwise,
)
from .generators import (
    gen_escalating_multiplicity,
    gen_perturbed,
    gen_radial_geometric,
    gen_random_carleson,
    gen_union,
)
from .geninterp import (
    ClusterPartition,
    InterpolationProblem,
    InterpolationSolution,
    class_norms,
    cluster_sequence,
    hinf_bound_estimate,
    vgh_interpolate,
    xp_norm,
)

__version__ = "0.1.0"
