"""Closed-form two-fold singularity analysis: normal parameters,
first-return-map eigenanalysis, structural-stability verdicts and moduli
diagnostics.  Nothing here integrates: the numeric route lives in
``integrator`` and ``checks`` compares the two.

Every decision reduces to inequalities in the normal parameters
(alpha, beta, gamma, delta): alpha and beta are the rescaled mixed second
derivatives of the switching function along the two fields, delta is the
sign of the second derivative along X and gamma carries the sign of the one
along Y.  All verdicts are invariant under the residual rescaling
(alpha, beta, gamma) -> (e*alpha, e*beta, e^2*gamma), e > 0.  Sides within
the fixed relative band ``sliding.BOUNDARY_BAND`` of each other count as equal.
``surface_point_report`` is the one classification pass at a surface point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import PreconditionError
from .sigma import (
    FoldFoldSubtype,
    SigmaClassification,
    SigmaKind,
    TangencyInfo,
    TangencyType,
    _refine_tangency,
    classify_point,
    default_tolerance,
    subtype_from_signs,
    tangency_type,
)
from .sliding import (
    BOUNDARY_BAND,
    SlidingRegionTag,
    mirror_visible_invisible,
    near,
    normalized_sliding_field,
    parabolic_cell,
    sliding_region_class,
)

# Largest denominator of a reported tau/pi convergent.
_MAX_DENOMINATOR = 10**6


@dataclass(slots=True)
class NormalParameters:
    """Coefficients of the two-fold normal form at the singular point and the
    subtype they imply by (delta, sign gamma); validated when built and
    immutable by convention."""

    alpha: float
    beta: float
    gamma: float
    delta: float
    subtype: FoldFoldSubtype = field(init=False)

    def __post_init__(self):
        if self.delta not in (-1.0, 1.0, -1, 1):
            raise PreconditionError("delta must be -1 or +1")
        if not abs(self.gamma) > 0.0:
            raise PreconditionError("gamma must be nonzero and not NaN")
        self.subtype = subtype_from_signs(self.delta, math.copysign(1.0, self.gamma))


def make_parameters(alpha, beta, gamma, delta):
    """Normal parameters from four numbers, each converted to a float."""
    return NormalParameters(float(alpha), float(beta), float(gamma), float(delta))


def normal_parameters(system, point):
    """Extract normal parameters of a two-fold point of an arbitrary system.

    Time-rescaling each field so both second derivatives have unit size
    gives ``alpha = XYf / sqrt(|X2f| |Y2f|)``,
    ``beta = delta * YXf / sqrt(|X2f| |Y2f|)``, ``gamma = sign(Y2f)`` and
    ``delta = sign(X2f)``.  On systems built in normal coordinates with
    |gamma| = 1 this recovers the inputs exactly; otherwise it returns the
    rescaled representative, and every downstream verdict is invariant under
    that rescaling.
    """
    info = tangency_type(system, point)
    if info.ttype is not TangencyType.FOLD_FOLD:
        raise PreconditionError(
            f"not a two-fold point: tangency type is {info.ttype.value} ({info.detail})"
        )
    return _two_fold_parameters(system, point, info)


def _two_fold_parameters(system, point, info):
    """Normal parameters at a point already refined to the fold-fold ``info``."""
    x2 = system.x2f.eval_at(point)
    y2 = system.y2f.eval_at(point)
    denom = math.sqrt(abs(x2) * abs(y2))
    delta = math.copysign(1.0, x2)
    gamma = math.copysign(1.0, y2)
    alpha = system.xyf.eval_at(point) / denom
    beta = delta * system.yxf.eval_at(point) / denom
    params = NormalParameters(alpha, beta, gamma, delta)
    if params.subtype is not info.subtype:
        raise PreconditionError(
            f"tangency subtype {info.subtype.value} disagrees with "
            f"{params.subtype.value} from (delta, gamma) = ({delta:g}, {gamma:g})"
        )
    return params


def mirror_parameters(params):
    """Invisible-visible representative of a visible-invisible point."""
    if params.subtype is not FoldFoldSubtype.VISIBLE_INVISIBLE:
        raise PreconditionError("mirror applies to visible-invisible points")
    a, b, g = mirror_visible_invisible(params.alpha, params.beta, params.gamma)
    return NormalParameters(a, b, g, -1.0)


# ---------------------------------------------------------------------------
# The first-return map


class FixedPointClass(Enum):
    SADDLE = "saddle"
    NONHYPERBOLIC_COMPLEX = "nonhyperbolic-complex"
    NONHYPERBOLIC_UNIT = "nonhyperbolic-unit"  # double eigenvalue +1
    PARABOLIC_BOUNDARY = "parabolic-boundary"  # double eigenvalue -1


class EigvecLocation(Enum):
    IN_CROSSING = "crossing"
    IN_SLIDING = "sliding"
    ON_TANGENCY = "tangency"


@dataclass
class ReturnMapAnalysis:
    matrix: np.ndarray
    trace: float
    det: float
    eigenvalues: tuple  # (contracting, expanding) for a saddle; complex pair otherwise
    fixed_point_class: FixedPointClass
    tau: float | None = None
    v_contracting: np.ndarray | None = None
    v_expanding: np.ndarray | None = None
    location_contracting: EigvecLocation | None = None
    location_expanding: EigvecLocation | None = None


def _eigvec2(m00, m01, m10, m11, lam):
    """Unit eigenvector ``(x, y)`` of ``[[m00, m01], [m10, m11]]`` for its
    real eigenvalue ``lam``, taken orthogonal to the larger row of
    ``m - lam*I``; all arithmetic is on plain floats."""
    r0, r1 = m00 - lam, m01
    s0, s1 = m10, m11 - lam
    if r0 * r0 + r1 * r1 < s0 * s0 + s1 * s1:
        r0, r1 = s0, s1
    n = math.hypot(r0, r1)
    return (-r1 / n, r0 / n) if n > 0 else (1.0, 0.0)


def _locate(x, y):
    """Quadrant of the eigendirection (x, y) in the chart where the crossing
    region is {x*y < 0} and the sliding region is {x*y > 0}."""
    prod = x * y
    if abs(prod) <= BOUNDARY_BAND * (x * x + y * y):
        return EigvecLocation.ON_TANGENCY
    return EigvecLocation.IN_CROSSING if prod < 0 else EigvecLocation.IN_SLIDING


def return_map_analysis(params):
    """Spectral analysis of the first-return map at a T-singularity.

    The linearization is ``A_X @ A_Y = [[-1 + 4ab/g, -2a], [2b/g, -1]]``
    with determinant exactly 1, so the fixed point is a saddle precisely
    when |trace| > 2, equivalently when ``a*b*(a*b - g) > 0``.  The matrix
    and its eigen-data are computed on plain floats; only the returned
    matrix and eigenvectors are arrays.
    """
    if params.subtype is not FoldFoldSubtype.INVISIBLE:
        raise PreconditionError("return map analysis needs an invisible two-fold")
    a2 = 2.0 * params.alpha
    m10 = 2.0 * params.beta / params.gamma
    m00, m01, m11 = -1.0 + a2 * m10, -a2, -1.0
    m = np.array(((m00, m01), (m10, m11)))
    trace = m00 + m11
    det = m00 * m11 - m01 * m10
    if near(trace, 2.0):
        return ReturnMapAnalysis(
            m, trace, det, (complex(1.0), complex(1.0)), FixedPointClass.NONHYPERBOLIC_UNIT
        )
    if near(trace, -2.0):
        return ReturnMapAnalysis(
            m,
            trace,
            det,
            (complex(-1.0), complex(-1.0)),
            FixedPointClass.PARABOLIC_BOUNDARY,
        )
    if abs(trace) < 2.0:
        tau = math.acos(trace / 2.0)
        vals = (complex(trace / 2.0, -math.sin(tau)), complex(trace / 2.0, math.sin(tau)))
        return ReturnMapAnalysis(
            m, trace, det, vals, FixedPointClass.NONHYPERBOLIC_COMPLEX, tau=tau
        )
    # Saddle: compute the eigenvalue pair stably through the unit product.
    s = math.sqrt(trace * trace - 4.0)
    big = math.copysign((abs(trace) + s) / 2.0, trace)
    small = math.copysign(2.0 / (abs(trace) + s), trace)
    v_small = _eigvec2(m00, m01, m10, m11, small)
    v_big = _eigvec2(m00, m01, m10, m11, big)
    return ReturnMapAnalysis(
        m,
        trace,
        det,
        (complex(small), complex(big)),
        FixedPointClass.SADDLE,
        v_contracting=np.array(v_small),
        v_expanding=np.array(v_big),
        location_contracting=_locate(*v_small),
        location_expanding=_locate(*v_big),
    )


def demelo_palis(analysis):
    """Saddle moduli ratio log|contracting| / log|expanding|.

    The return map is a product of two involutions, so its determinant is 1
    and the ratio is -1 for every two-fold saddle.
    """
    if analysis.fixed_point_class is not FixedPointClass.SADDLE:
        raise PreconditionError("the invariant is defined for saddles only")
    lam, mu = analysis.eigenvalues  # |lam| < 1 < |mu|
    return math.log(abs(lam)) / math.log(abs(mu))


@dataclass
class ModuliInfo:
    """Continuous invariant of a non-hyperbolic T-singularity.

    ``tau`` is the argument of the unit-circle eigenvalues; nearby systems
    are organized in codimension-one leaves of constant ``tau``, and systems
    on different leaves are not topologically equivalent.
    """

    tau: float
    tau_over_pi: float
    convergents: list  # rational approximations (p, q) of tau/pi, q <= 1e6


def _convergents(x):
    """Continued-fraction convergents p/q of x with q <= ``_MAX_DENOMINATOR``."""
    out = []
    h_prev, h_prev2 = 1, 0
    k_prev, k_prev2 = 0, 1
    value = x
    for _ in range(64):
        a = math.floor(value)
        h = a * h_prev + h_prev2
        k = a * k_prev + k_prev2
        if k > _MAX_DENOMINATOR:
            break
        if h != 0 or k != 1:  # skip the trivial 0/1 head for x in (0, 1)
            out.append((int(h), int(k)))
        h_prev2, h_prev = h_prev, h
        k_prev2, k_prev = k_prev, k
        frac = value - a
        if frac < 1e-15:
            break
        value = 1.0 / frac
    return out


def moduli_info(analysis):
    if analysis.fixed_point_class is not FixedPointClass.NONHYPERBOLIC_COMPLEX:
        raise PreconditionError("moduli are defined for the complex-eigenvalue case")
    tau = analysis.tau
    ratio = tau / math.pi
    return ModuliInfo(tau=tau, tau_over_pi=ratio, convergents=_convergents(ratio))


# ---------------------------------------------------------------------------
# Stability verdicts


class VerdictKind(Enum):
    STABLE = "stable"
    UNSTABLE = "unstable"
    BOUNDARY_DEGENERATE = "boundary-degenerate"


class InstabilityReason(Enum):
    NON_HYPERBOLIC_RETURN_MAP = "non-hyperbolic-return-map"
    INVARIANT_MANIFOLD_IN_SLIDING = "invariant-manifold-in-sliding"
    SLIDING_BIFURCATION = "sliding-bifurcation"
    TRANSVERSALITY_FAILURE = "transversality-failure"
    MODULI_FOLIATION = "moduli-foliation"


@dataclass
class Reason:
    kind: InstabilityReason
    which: str | None = None  # failed condition for transversality failures
    detail: str = ""


@dataclass
class StabilityVerdict:
    kind: VerdictKind
    reason: Reason | None = None
    class_descriptor: tuple | None = None
    witness: str | None = None


def _sign(v):
    return int(math.copysign(1.0, v))


def _tsingularity_verdict(params, analysis):
    cls = analysis.fixed_point_class
    if cls is FixedPointClass.NONHYPERBOLIC_UNIT:
        return StabilityVerdict(
            VerdictKind.BOUNDARY_DEGENERATE,
            witness="unit-eigenvalue boundary: alpha*beta equals gamma within tolerance",
        )
    if cls is FixedPointClass.PARABOLIC_BOUNDARY:
        return StabilityVerdict(
            VerdictKind.UNSTABLE,
            reason=Reason(
                InstabilityReason.NON_HYPERBOLIC_RETURN_MAP,
                detail="double eigenvalue -1 (alpha*beta = 0 boundary)",
            ),
        )
    if cls is FixedPointClass.NONHYPERBOLIC_COMPLEX:
        return StabilityVerdict(
            VerdictKind.UNSTABLE,
            reason=Reason(
                InstabilityReason.NON_HYPERBOLIC_RETURN_MAP,
                detail="unit-circle complex eigenvalues; tau labels the moduli leaf",
            ),
        )
    c, e = analysis.location_contracting, analysis.location_expanding
    if c is EigvecLocation.IN_CROSSING and e is EigvecLocation.IN_CROSSING:
        return StabilityVerdict(
            VerdictKind.STABLE,
            class_descriptor=(
                "T-singularity",
                "saddle-with-crossing-manifolds",
                _sign(params.alpha),
                _sign(params.beta),
            ),
        )
    if c is EigvecLocation.ON_TANGENCY or e is EigvecLocation.ON_TANGENCY:
        return StabilityVerdict(
            VerdictKind.BOUNDARY_DEGENERATE,
            witness="saddle eigenvector on the tangency set",
        )
    return StabilityVerdict(
        VerdictKind.UNSTABLE,
        reason=Reason(
            InstabilityReason.INVARIANT_MANIFOLD_IN_SLIDING,
            detail="a saddle manifold meets the sliding region",
        ),
    )


def _visible_verdict(tag):
    if tag is SlidingRegionTag.BIFURCATION_BOUNDARY:
        return StabilityVerdict(
            VerdictKind.BOUNDARY_DEGENERATE,
            witness="on the sliding-node boundary (alpha*beta = gamma, alpha > 0)",
        )
    return StabilityVerdict(
        VerdictKind.STABLE, class_descriptor=("visible-two-fold", tag._value_)
    )


def _parabolic_core_verdict(params, cell):
    """Verdict from invisible-visible ``params`` and their ``parabolic_cell``."""
    if cell is None:
        return StabilityVerdict(
            VerdictKind.UNSTABLE,
            reason=Reason(
                InstabilityReason.SLIDING_BIFURCATION,
                detail="sliding dynamics outside all generic regions",
            ),
        )
    if cell is SlidingRegionTag.BIFURCATION_BOUNDARY:
        return StabilityVerdict(
            VerdictKind.BOUNDARY_DEGENERATE, witness="on a sliding-region boundary"
        )
    a, b = params.alpha, params.beta
    t_coeff = parabolic_transversality(params).T_coeff
    # The transversality conditions in reporting order; the first one that
    # fails on the boundary band names the failure.
    if near(a, 0.0):
        which, detail = "alpha", "fold image of the visible tangency line is tangent to it"
    elif near(t_coeff, 0.0):
        which, detail = "T", "sliding field tangent to the fold image curve"
    elif a > 0.0 and near(a + b, 0.0):
        which = "D"
        detail = "sliding field parallel to its fold transport on the connection region"
    else:
        return StabilityVerdict(
            VerdictKind.STABLE,
            class_descriptor=(
                "parabolic-two-fold",
                cell._value_,
                _sign(a),
                _sign(a + b),
                _sign(t_coeff),
            ),
        )
    return StabilityVerdict(
        VerdictKind.UNSTABLE,
        reason=Reason(InstabilityReason.TRANSVERSALITY_FAILURE, which, detail=detail),
    )


def _sliding_point_verdict(system, point, cls, tol):
    """Verdict at a sliding point: stable where the sliding field does not
    vanish or has a hyperbolic zero; a zero with a determinant or, at a focus,
    a trace within ``tol`` of 0 (relative to the Jacobian's size) is a
    sliding bifurcation."""
    fld = normalized_sliding_field(system)
    value = fld.eval(point[0], point[1])
    scale = 1.0 + max(fld.px.coeff_scale(), fld.py.coeff_scale())
    if math.hypot(*value) > tol * scale:
        return StabilityVerdict(
            VerdictKind.STABLE,
            class_descriptor=("regular-regular", cls.kind.value, "regular-sliding"),
        )
    xf, yf = cls.witness
    jac = fld.jacobian_at(point[0], point[1]) / (yf - xf)
    t = jac[0, 0] + jac[1, 1]
    d = jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]
    size = 1.0 + float(np.max(np.abs(jac)))
    # Comparisons with NaN are False, so a NaN Jacobian counts as hyperbolic.
    hyperbolic = not abs(d) <= tol * size * size and (
        d < 0.0 or t * t - 4.0 * d >= 0.0 or not abs(t) <= tol * size
    )
    if hyperbolic:
        return StabilityVerdict(
            VerdictKind.STABLE,
            class_descriptor=(
                "regular-regular",
                cls.kind.value,
                "hyperbolic-pseudo-equilibrium",
                _sign(d),
                _sign(t) if d > 0 else 0,
            ),
        )
    return StabilityVerdict(
        VerdictKind.UNSTABLE,
        reason=Reason(
            InstabilityReason.SLIDING_BIFURCATION,
            detail=f"non-hyperbolic pseudo-equilibrium (trace {t}, determinant {d})",
        ),
    )


# ---------------------------------------------------------------------------
# Parabolic transversality coefficients


@dataclass
class TransversalityCoefficients:
    D_coeff: float
    T_coeff: float


def parabolic_transversality(params):
    """Leading coefficients of the two parabolic transversality functions.

    ``D_coeff`` scales the determinant of the sliding field against its fold
    transport (leading order y^2); ``T_coeff`` scales the pairing of the
    sliding field with the fold image of the visible tangency line (leading
    order y).  Both must be nonzero for structural stability.
    """
    if params.subtype is FoldFoldSubtype.VISIBLE_INVISIBLE:
        params = mirror_parameters(params)
    if params.subtype is not FoldFoldSubtype.INVISIBLE_VISIBLE:
        raise PreconditionError("parabolic coefficients need a parabolic two-fold")
    a, b, g = params.alpha, params.beta, params.gamma
    return TransversalityCoefficients(
        D_coeff=-2.0 * (a + b) * (a * b - g),
        T_coeff=2.0 * a * (a + b) - g,
    )


# ---------------------------------------------------------------------------
# Aggregated report


@dataclass
class FoldFoldReport:
    params: NormalParameters
    region: SlidingRegionTag
    verdict: StabilityVerdict
    analysis: ReturnMapAnalysis | None

    @cached_property
    def moduli(self):
        """Moduli of a complex-eigenvalue T-singularity, computed when first
        read; None for every other two-fold."""
        analysis = self.analysis
        if analysis and analysis.fixed_point_class is FixedPointClass.NONHYPERBOLIC_COMPLEX:
            return moduli_info(analysis)
        return None


def report_from_params(params):
    """Two-fold report from normal parameters (validated when built,
    immutable by convention): region, verdict and, at a T-singularity, the
    return-map analysis, each computed once; moduli are computed when first
    read.  A visible-invisible point is mirrored once, for region and verdict."""
    sub = params.subtype
    analysis = None
    if sub is FoldFoldSubtype.INVISIBLE:
        region = sliding_region_class(params)
        analysis = return_map_analysis(params)
        verdict = _tsingularity_verdict(params, analysis)
    elif sub is FoldFoldSubtype.VISIBLE_VISIBLE:
        region = sliding_region_class(params)
        verdict = _visible_verdict(region)
    else:
        core = mirror_parameters(params) if sub is FoldFoldSubtype.VISIBLE_INVISIBLE else params
        cell = parabolic_cell(core.alpha, core.beta, core.gamma)
        region = cell or SlidingRegionTag.BIFURCATION_BOUNDARY
        verdict = _parabolic_core_verdict(core, cell)
    return FoldFoldReport(params, region, verdict, analysis)


def foldfold_report(system, point):
    """Full two-fold report for a surface point of a concrete system."""
    return report_from_params(normal_parameters(system, point))


@dataclass
class SurfacePointReport:
    """One classification pass at a surface point: ``tangency`` is set on the
    tangency band, ``foldfold`` at two-folds (its verdict is ``verdict``)."""

    classification: SigmaClassification
    tangency: TangencyInfo | None
    foldfold: FoldFoldReport | None
    verdict: StabilityVerdict


def surface_point_report(system, point, tol=None):
    """Classify a surface point once: sign table, tangency refinement, then
    the two-fold report or the point's verdict."""
    tol = default_tolerance(system) if tol is None else tol
    cls = classify_point(system, point, tol)
    info = report = None
    if cls.kind is SigmaKind.CROSSING:
        verdict = StabilityVerdict(
            VerdictKind.STABLE, class_descriptor=("regular-regular", "crossing")
        )
    elif cls.kind is not SigmaKind.TANGENCY:
        verdict = _sliding_point_verdict(system, point, cls, tol)
    else:
        info = _refine_tangency(system, point, cls.witness, tol)
        if info.ttype is TangencyType.FOLD_FOLD:
            report = report_from_params(_two_fold_parameters(system, point, info))
            verdict = report.verdict
        elif info.ttype is TangencyType.DEGENERATE:
            verdict = StabilityVerdict(
                VerdictKind.BOUNDARY_DEGENERATE,
                witness=f"degenerate tangency: {info.detail}",
            )
        else:
            verdict = StabilityVerdict(
                VerdictKind.STABLE, class_descriptor=("tangential", info.ttype.value)
            )
    return SurfacePointReport(cls, info, report, verdict)
