"""foldatlas: singularity classification for 3D piecewise-smooth systems.

The package analyzes pairs Z = (X, Y) of polynomial vector fields split by
the plane {z = 0}: pointwise region/tangency classification, sliding
dynamics, full two-fold (fold-fold) stability analysis through the
first-return map, and an event-locating integrator used to cross-validate
every analytic verdict.
"""

from .algebra import Poly3, VectorField3, gradient_on_sigma, lie_derivative
from .errors import (
    BoxRangeError,
    DegreeCapExceededError,
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
    foldfold_sliding_linearization,
    make_parameters,
    moduli_info,
    parabolic_transversality,
    return_map_analysis,
    sliding_region_class,
    surface_point_report,
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
    tangency_curves,
    tangency_type,
)
from .sliding import SlidingRegionTag, normalized_sliding_field
from .system import (
    Box,
    PiecewiseSystem,
    build_normal_form,
    load_system,
    serialize_system,
    validate,
)

__version__ = "0.1.0"
