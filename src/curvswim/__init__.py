"""Swimming of deformable point-mass bodies on constant-curvature surfaces.

The library computes the net rigid displacement a body gains from one
closed shape stroke, both from the conservation-law holonomy formulas and
from an independent finite-stroke integrator that enforces zero momentum
at every instant.
"""

from .body import Body, Moments, balance, moments, principal_axes
from .deformation import (
    gauge_fixed_linear_deformation,
    gauge_residuals,
    linear_deformation,
    parse_field_spec,
    project_gauge,
)
from .errors import (
    BalanceConvergenceError,
    ChartDomainError,
    ConfigError,
    CurvswimError,
    DegenerateMomentsError,
    GaugeConditionError,
    NonFiniteResultError,
    SingularGramError,
    StrokeError,
)
from .fields import VectorField, linear_field
from .geometry import (
    CurvatureTensor,
    Isometry,
    Surface,
    christoffel_at,
    exp_rigid,
    gaussian_curvature,
    geodesic_distance,
    killing_fields,
    killing_one_form,
    killing_residual,
    metric_at,
    numeric_exterior_derivative,
    strain_of,
    translation_killing_approx,
)
from .holonomy import (
    HolonomyResult,
    holonomy_general,
    holonomy_linear,
    holonomy_small_swimmer,
)
from .integrator import (
    Stroke,
    TrajectoryRecord,
    integrate_stroke,
    rectangle_stroke,
    sinusoid_stroke,
)
from .scenarios import (
    BaronCatReport,
    RingSpec,
    TriangleSpec,
    baron_cat_report,
    ring_displacement,
    ring_simulate,
    triangle_body,
    triangle_control_fields,
    triangle_optimal_mass,
    triangle_swim_coefficient,
)

__version__ = "0.1.0"
