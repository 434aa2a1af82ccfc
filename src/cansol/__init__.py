"""Canonical soliton space-time metrics for geometric flows.

Builds the expanding/shrinking/steady space-time metrics over closed-form
flow backgrounds, tracks hypersurface flows inside them, and verifies the
approximate-soliton, Harnack-limit, and boundary-functional identities
numerically, with a chart-based tensor kernel as the single ground truth.
"""

from .geometry import (
    ChartDomainError,
    ConnectionCoeffs,
    DegenerateMetricError,
    GeometryError,
    MetricField,
    ScalarField,
    christoffel,
)
from .backgrounds import (
    GradientSolitonData,
    MCFSolution,
    RicciFlowBackground,
    gradient_soliton_residual,
    slice_stack,
    mcf_soliton_residual,
    model_background,
    model_mcf,
    ricci_flow_residual,
)
from .canonical import (
    CanonicalConfigError,
    CanonicalMetric,
    build_canonical_metric,
    christoffel_crosscheck,
    limit_riccis,
    minimal_admissible_N,
    ricci_soliton_residual,
)
from .track import (
    SpaceTimeTrack,
    TrackStack,
    build_track,
    closed_form_second_ff,
    limit_inverse_metric,
    mcf_canonical_residual,
    track_stacks,
)
from .harnack import (
    WeightedManifoldData,
    flat_ball_domain,
    limit_second_ff,
    lott_boundary_integrand,
    lott_match_defect,
    weighted_functionals,
    weighted_scalar_curvature,
)

__version__ = "0.1.0"
