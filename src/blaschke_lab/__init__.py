"""Numerical toolkit for finite zero sequences in the unit disk.

Pseudohyperbolic geometry, finite Blaschke products, Carleson norms,
Hardy/Bergman quadrature probes, seeded sequence generators, and a
constructive solver for clustered (multiple-point) interpolation.
"""

from .analysis import AnalysisReport, analyze_sequence, direction_agreement
from .bergman import (
    QuadratureGrid,
    constant_fn,
    default_grid,
    hp_norm,
    jensen_area_residual,
    kernel_mass,
    mb_lower_probe,
    reproducing_family,
    universal_divisor_ratio,
)
from .blaschke import (
    BlaschkeProduct,
    SeparationReport,
    compose_min_on_compact,
    deleted_product,
    derivative,
    evaluate,
    log_abs_composed,
    log_abs_evaluate,
    max_local_count,
    partition_separated,
    separation_report,
)
from .carleson import (
    CarlesonNormReport,
    CarlesonSquare,
    CircleArc,
    arc_carleson_constant,
    carleson_embedding_probe,
    carleson_norm,
    lp_sequence_norm,
    mu_z_measure,
    uniform_blaschke_sup,
)
from .disk import (
    DiskPoint,
    FiniteSequence,
    InvariantViolation,
    MoebiusMap,
    hyperbolic_grid,
    psh_diameter,
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
    Cluster,
    ClusterPartition,
    FactsReport,
    HermiteJet,
    InterpolationProblem,
    InterpolationSolution,
    class_norm,
    cluster_sequence,
    hinf_bound_estimate,
    poisson_angular_mean,
    verify_facts,
    vgh_interpolate,
    vgh_kernel_bound,
    xp_norm,
)

__version__ = "0.1.0"
