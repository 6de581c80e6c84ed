"""foldatlas: singularity classification for 3D piecewise-smooth systems.

The package analyzes pairs Z = (X, Y) of polynomial vector fields split by
the plane {z = 0}: pointwise region/tangency classification, sliding
dynamics, full two-fold (fold-fold) stability analysis through the
first-return map, and an event-locating integrator used to cross-validate
every analytic verdict.
"""

from .algebra import Poly3, VectorField3, gradient_on_sigma, lie_derivative
from .errors import (
    DegreeCapExceededError,
    DenominatorZeroError,
    EmptyBoxError,
    IntegrationFailure,
    InputFormatError,
    MalformedDocumentError,
    NonFiniteCoefficientError,
    PreconditionError,
    ToolError,
    VerificationFailure,
)
from .foldfold import (
    FoldFoldReport,
    ModuliInfo,
    NormalParameters,
    ReturnMapAnalysis,
    StabilityVerdict,
    SurfacePointReport,
    VerdictKind,
    demelo_palis,
    foldfold_report,
    make_parameters,
    moduli_info,
    normal_parameters,
    parabolic_transversality,
    return_map_analysis,
    stability_verdict,
    surface_point_report,
    verdict_from_params,
)
from .integrator import (
    FlightStatus,
    IntegratorConfig,
    Mode,
    Trajectory,
    filippov_trajectory,
    fold_map_numeric,
    integrate_to_sigma,
    jacobian_numeric,
    return_map_numeric,
)
from .sigma import (
    FoldFoldSubtype,
    SigmaClassification,
    SigmaKind,
    TangencyType,
    classify_point,
    fold_transversality,
    tangency_curves,
    tangency_type,
)
from .sliding import (
    SlidingRegionTag,
    boundary_contact,
    foldfold_sliding_linearization,
    normalized_sliding_field,
    pseudo_equilibria,
    sliding_field,
    sliding_region_class,
)
from .system import (
    Box,
    PiecewiseSystem,
    SystemDescriptor,
    build_normal_form,
    load_system,
    serialize_system,
    validate,
)

__version__ = "0.1.0"
