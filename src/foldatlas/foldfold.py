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
The one dispatch on the subtype is the table ``_SUBTYPES``: per subtype, a
region function and a core on plain floats (alpha, beta, gamma) that returns
(region, verdict, return-map tuple or None).  ``report_from_params`` wraps a
core's result in a report, where the tuple becomes a ``ReturnMapAnalysis``;
``sliding_region_class`` calls only the region function, and ``cli``'s sweep
calls one core per row and reads the tuple as is; the public analyses are
thin wrappers over the same float functions, and the one mirror lives here.
``surface_point_report`` is the one classification pass at a surface point,
and the one route from a point to its normal parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from .algebra import lazy
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
)
from .sliding import (
    BOUNDARY_BAND,
    SlidingRegionTag,
    classify_elliptic_region,
    classify_hyperbolic_region,
    near,
    normalized_sliding_field,
    parabolic_cell,
)

# Largest denominator of a reported tau/pi convergent.
_MAX_DENOMINATOR = 10**6


_FLOAT_RANGE_MESSAGE = ("alpha, beta and gamma exceed the closed form's float range: "
                        "need |alpha|, |beta| <= 1e150, |gamma| <= 1e300 and "
                        "alpha^2, beta^2 <= 1e150*|gamma|")


def _fits_float_range(a_max, b_max, gamma):
    """True when |alpha| <= ``a_max`` and |beta| <= ``b_max`` keep every
    intermediate of the subtype cores at this ``gamma`` finite: alpha*beta,
    2*beta/gamma, 4*alpha*beta/gamma, the saddle's trace squared, the
    mirror's alpha/sqrt(gamma) and beta/sqrt(gamma), and T."""
    m = max(a_max, b_max)
    g = abs(gamma)
    return m <= 1e150 and g <= 1e300 and m * m <= 1e150 * g


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
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise PreconditionError("alpha and beta must be finite")
        if not 0.0 < abs(self.gamma) < math.inf:
            raise PreconditionError("gamma must be finite and nonzero")
        if not _fits_float_range(abs(self.alpha), abs(self.beta), self.gamma):
            raise PreconditionError(_FLOAT_RANGE_MESSAGE)
        self.subtype = subtype_from_signs(self.delta, math.copysign(1.0, self.gamma))


def make_parameters(alpha, beta, gamma, delta):
    """Normal parameters from four numbers, each converted to a float."""
    return NormalParameters(float(alpha), float(beta), float(gamma), float(delta))


def _two_fold_parameters(system, point, info, x2, y2):
    """Normal parameters at a fold-fold ``info`` point, where (X2f, Y2f) = ``(x2, y2)``.

    Time-rescaling each field so both second derivatives have unit size
    gives ``alpha = XYf / sqrt(|X2f| |Y2f|)``,
    ``beta = delta * YXf / sqrt(|X2f| |Y2f|)``, ``gamma = sign(Y2f)`` and
    ``delta = sign(X2f)``.  On systems built in normal coordinates with
    |gamma| = 1 this recovers the inputs exactly; otherwise it returns the
    rescaled representative, and every downstream verdict is invariant under
    that rescaling.
    """
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


def _mirror(a, b, g):
    """Invisible-visible (alpha, beta, gamma) of visible-invisible ones under
    the (x, y) swap and z flip, which exchanges the roles of the two fields;
    every image has gamma = -1 (and delta = -1)."""
    r = math.sqrt(g)
    return -b / r, a / r, -1.0


def mirror_parameters(params):
    """Invisible-visible representative of a visible-invisible point."""
    if params.subtype is not FoldFoldSubtype.VISIBLE_INVISIBLE:
        raise PreconditionError("mirror applies to visible-invisible points")
    return make_parameters(*_mirror(params.alpha, params.beta, params.gamma), -1.0)


def sliding_region_class(params):
    """Parameter-space region of the sliding dynamics at a two-fold point,
    as its report states it, computed without its verdict or return map;
    the parabolic wedge that no region covers is a BIFURCATION_BOUNDARY."""
    return _SUBTYPES[params.subtype][0](params.alpha, params.beta, params.gamma)


def foldfold_sliding_linearization(params):
    """Linear part of the normalized sliding field at a two-fold point.

    In normal coordinates this is ``[[alpha, -delta*gamma], [1, -delta*beta]]``
    acting on (x, y), as row tuples.
    """
    a, b, g, d = params.alpha, params.beta, params.gamma, params.delta
    return ((a, -d * g), (1.0, -d * b))


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


# On Python 3.11 a class-attribute read of a member runs EnumType.__getattr__'s hook.
_SADDLE, _NONHYPERBOLIC_COMPLEX, _NONHYPERBOLIC_UNIT, _PARABOLIC_BOUNDARY = FixedPointClass
_IN_CROSSING, _IN_SLIDING, _ON_TANGENCY = EigvecLocation
_BOUNDARY = SlidingRegionTag.BIFURCATION_BOUNDARY


@dataclass
class ReturnMapAnalysis:
    """A ``_return_map`` tuple as reports and ``return_map_analysis`` give it."""
    rows: tuple  # ((m00, m01), (m10, m11)); serialized as "matrix"
    trace: float
    det: float
    eigenvalues: tuple  # (contracting, expanding) for a saddle; complex pair otherwise
    fixed_point_class: FixedPointClass
    tau: float | None = None
    v_contracting: tuple | None = None  # unit (x, y), saddles only
    v_expanding: tuple | None = None
    location_contracting: EigvecLocation | None = None
    location_expanding: EigvecLocation | None = None

    @property
    def matrix(self):  # ``rows`` as a numpy array; only its callers load numpy
        import numpy as np
        return np.array(self.rows)


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
    region is {x*y < 0} and the sliding region is {x*y > 0}, taken as
    (x / sqrt(gamma), y), which the normal parameters' rescaling leaves fixed."""
    prod = x * y
    if abs(prod) <= BOUNDARY_BAND * (x * x + y * y):
        return _ON_TANGENCY
    return _IN_CROSSING if prod < 0 else _IN_SLIDING


def return_map_analysis(params):
    """Spectral analysis of the first-return map at a T-singularity.

    The linearization is ``A_X @ A_Y = [[-1 + 4ab/g, -2a], [2b/g, -1]]``
    with determinant exactly 1, so the fixed point is a saddle precisely
    when |trace| > 2, equivalently when ``a*b*(a*b - g) > 0``.  The matrix
    rows, its eigenvalues and its unit eigenvectors (``(x, y)`` tuples) are
    plain floats; ``matrix`` builds the array only when asked for.  The
    analysis wraps the tuple of ``_return_map``, which the sweep reads as is.
    """
    if params.subtype is not FoldFoldSubtype.INVISIBLE:
        raise PreconditionError("return map analysis needs an invisible two-fold")
    return _analysis(_return_map(params.alpha, params.beta, params.gamma))


def _return_map(a, b, g):
    """``return_map_analysis`` on plain floats as one tuple ``(rows, trace, det,
    class, tau, small, big, v_small, v_big, loc_small, loc_big)``: tau is set
    for a complex pair, small and big for real eigenvalues (+-1.0 twice on the
    boundaries), eigenvectors and their locations for saddles only."""
    a2 = 2.0 * a
    m10 = 2.0 * b / g
    m00, m01, m11 = -1.0 + a2 * m10, -a2, -1.0
    m = ((m00, m01), (m10, m11))
    trace = m00 + m11
    det = m00 * m11 - m01 * m10
    if near(trace, 2.0):
        return m, trace, det, _NONHYPERBOLIC_UNIT, None, 1.0, 1.0, None, None, None, None
    if near(trace, -2.0):
        return m, trace, det, _PARABOLIC_BOUNDARY, None, -1.0, -1.0, None, None, None, None
    if abs(trace) < 2.0:
        tau = math.acos(trace / 2.0)
        return m, trace, det, _NONHYPERBOLIC_COMPLEX, tau, None, None, None, None, None, None
    # Saddle: compute the eigenvalue pair stably through the unit product.
    s = math.sqrt(trace * trace - 4.0)
    big = math.copysign((abs(trace) + s) / 2.0, trace)
    small = math.copysign(2.0 / (abs(trace) + s), trace)
    v_small = _eigvec2(m00, m01, m10, m11, small)
    v_big = _eigvec2(m00, m01, m10, m11, big)
    r = math.sqrt(g)  # gamma > 0 at every invisible two-fold
    return (m, trace, det, _SADDLE, None, small, big, v_small, v_big,
            _locate(v_small[0] / r, v_small[1]), _locate(v_big[0] / r, v_big[1]))


def _analysis(rm):
    """``ReturnMapAnalysis`` of a ``_return_map`` tuple."""
    m, trace, det, cls, tau, small, big, *saddle = rm
    vals = ((complex(small), complex(big)) if tau is None else
            (complex(trace / 2.0, -math.sin(tau)), complex(trace / 2.0, math.sin(tau))))
    return ReturnMapAnalysis(m, trace, det, vals, cls, tau, *saddle)


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


@dataclass(frozen=True)
class Reason:
    kind: InstabilityReason
    which: str | None = None  # failed condition for transversality failures
    detail: str = ""


@dataclass(frozen=True)
class StabilityVerdict:
    """An immutable value: every verdict whose text carries no number is
    built once, below, and shared by every point that has it."""

    kind: VerdictKind
    reason: Reason | None = None
    class_descriptor: tuple | None = None
    witness: str | None = None

    @lazy
    def _csv(self):
        """Sweep text ",kind,reason,"; no field, so ``dataclasses.asdict`` leaves it out."""
        reason = self.reason.kind._value_ if self.reason else ""
        return f",{self.kind._value_},{reason},"


def _sign(v):
    return int(math.copysign(1.0, v))


def _degenerate(witness):
    return StabilityVerdict(VerdictKind.BOUNDARY_DEGENERATE, witness=witness)


def _unstable(kind, detail):
    return StabilityVerdict(VerdictKind.UNSTABLE, reason=Reason(kind, detail=detail))


_UNIT_EIGENVALUE = _degenerate(
    "unit-eigenvalue boundary: alpha*beta equals gamma within tolerance")
_DOUBLE_MINUS_ONE = _unstable(InstabilityReason.NON_HYPERBOLIC_RETURN_MAP,
                              "double eigenvalue -1 (alpha*beta = 0 boundary)")
_COMPLEX_PAIR = _unstable(InstabilityReason.NON_HYPERBOLIC_RETURN_MAP,
                          "unit-circle complex eigenvalues; tau labels the moduli leaf")
_EIGENVECTOR_ON_TANGENCY = _degenerate("saddle eigenvector on the tangency set")
_MANIFOLD_IN_SLIDING = _unstable(InstabilityReason.INVARIANT_MANIFOLD_IN_SLIDING,
                                 "a saddle manifold meets the sliding region")
_SLIDING_NODE_BOUNDARY = _degenerate(
    "on the sliding-node boundary (alpha*beta = gamma, alpha > 0)")
_NO_GENERIC_REGION = _unstable(InstabilityReason.SLIDING_BIFURCATION,
                               "sliding dynamics outside all generic regions")
_REGION_BOUNDARY = _degenerate("on a sliding-region boundary")
# The parabolic transversality conditions in reporting order.
_TRANSVERSALITY_FAILURES = {
    which: StabilityVerdict(VerdictKind.UNSTABLE,
                            reason=Reason(InstabilityReason.TRANSVERSALITY_FAILURE, which, detail))
    for which, detail in (
        ("alpha", "fold image of the visible tangency line is tangent to it"),
        ("T", "sliding field tangent to the fold image curve"),
        ("D", "sliding field parallel to its fold transport on the connection region"),
    )
}

_SIGNS = (-1, 1)
#: Every stable verdict of a two-fold, of a crossing point and of a
#: tangential point, by its class descriptor.
_STABLE = {
    d: StabilityVerdict(VerdictKind.STABLE, class_descriptor=d)
    for d in (
        ("T-singularity", "saddle-with-crossing-manifolds", -1, -1),
        ("visible-two-fold", "RH1"),
        ("visible-two-fold", "RH2"),
        *(("parabolic-two-fold", cell, sa, sab, st) for cell in ("RP1", "RP2", "RP3", "RP4")
          for sa in _SIGNS for sab in _SIGNS for st in _SIGNS),
        ("regular-regular", "crossing"),
        *(("tangential", t.value) for t in TangencyType
          if t not in (TangencyType.FOLD_FOLD, TangencyType.DEGENERATE)),
    )
}


#: The stable parabolic verdicts of ``_STABLE`` keyed as ``_parabolic_core``
#: reads them: the cell's value and whether alpha, alpha + beta and T are
#: positive.  Where a core reaches the table, alpha and T lie outside the band
#: around 0 and alpha + beta = -0.0 would need alpha = -0.0, so these tests
#: agree with ``_sign``.
_PARABOLIC_STABLE = {
    (d[1], d[2] > 0, d[3] > 0, d[4] > 0): verdict
    for d, verdict in _STABLE.items() if d[0] == "parabolic-two-fold"
}


#: The one stable saddle verdict.  In the chart (x / sqrt(gamma), y) the
#: eigenvector of lambda has u*y of the sign of (lambda' + 1) / alpha, lambda'
#: the other eigenvalue: with trace > 2 both lie in crossing exactly when
#: alpha < 0, and then alpha*beta > gamma makes beta < 0; with trace < -2
#: they lie on opposite sides.
_CROSSING_SADDLE = _STABLE["T-singularity", "saddle-with-crossing-manifolds", -1, -1]


def _tsingularity_verdict(rm):
    cls = rm[3]
    if cls is _NONHYPERBOLIC_UNIT:
        return _UNIT_EIGENVALUE
    if cls is _PARABOLIC_BOUNDARY:
        return _DOUBLE_MINUS_ONE
    if cls is _NONHYPERBOLIC_COMPLEX:
        return _COMPLEX_PAIR
    c, e = rm[9], rm[10]
    if c is _IN_CROSSING and e is _IN_CROSSING:
        return _CROSSING_SADDLE
    if c is _ON_TANGENCY or e is _ON_TANGENCY:
        return _EIGENVECTOR_ON_TANGENCY
    return _MANIFOLD_IN_SLIDING


#: The visible-visible verdicts keyed by the region tag's value: a str
#: caches its hash, while on Python 3.11 an Enum member's runs in Python.
_VISIBLE_VERDICTS = {
    **{d[1]: verdict for d, verdict in _STABLE.items() if d[0] == "visible-two-fold"},
    _BOUNDARY._value_: _SLIDING_NODE_BOUNDARY,
}


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
    j00, j01, j10, j11 = (v / (yf - xf) for row in fld.jacobian_at(point[0], point[1])
                          for v in row)
    t = j00 + j11
    d = j00 * j11 - j01 * j10
    mags = (abs(j00), abs(j01), abs(j10), abs(j11))
    # A NaN entry, which max alone can skip, makes the size NaN and the point hyperbolic.
    size = 1.0 + (max(mags) if all(m == m for m in mags) else math.nan)
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
    return _unstable(InstabilityReason.SLIDING_BIFURCATION,
                     f"non-hyperbolic pseudo-equilibrium (trace {t}, determinant {d})")


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
    a, b, g = params.alpha, params.beta, params.gamma
    if params.subtype is FoldFoldSubtype.VISIBLE_INVISIBLE:
        a, b, g = _mirror(a, b, g)
    elif params.subtype is not FoldFoldSubtype.INVISIBLE_VISIBLE:
        raise PreconditionError("parabolic coefficients need a parabolic two-fold")
    return TransversalityCoefficients(D_coeff=-2.0 * (a + b) * (a * b - g),
                                      T_coeff=_t_coeff(a, b, g))


def _t_coeff(a, b, g):
    return 2.0 * a * (a + b) - g


# ---------------------------------------------------------------------------
# Aggregated report


@dataclass
class FoldFoldReport:
    params: NormalParameters
    region: SlidingRegionTag
    verdict: StabilityVerdict
    analysis: ReturnMapAnalysis | None

    @lazy
    def moduli(self):
        """Moduli of a complex-eigenvalue T-singularity, computed when first
        read; None for every other two-fold."""
        analysis = self.analysis
        if analysis and analysis.fixed_point_class is FixedPointClass.NONHYPERBOLIC_COMPLEX:
            return moduli_info(analysis)
        return None


def _invisible_core(a, b, g):
    rm = _return_map(a, b, g)
    return classify_elliptic_region(a, b, g), _tsingularity_verdict(rm), rm


def _visible_core(a, b, g):
    tag = classify_hyperbolic_region(a, b, g)
    return tag, _VISIBLE_VERDICTS[tag._value_], None


def _parabolic_region(a, b, g):
    return parabolic_cell(a, b, g) or _BOUNDARY


def _parabolic_core(a, b, g):
    cell = parabolic_cell(a, b, g)
    if cell is None:
        return _BOUNDARY, _NO_GENERIC_REGION, None
    if cell is _BOUNDARY:
        return cell, _REGION_BOUNDARY, None
    t_coeff = _t_coeff(a, b, g)
    # The first transversality condition that fails on the boundary band
    # names the failure.
    if near(a, 0.0):
        return cell, _TRANSVERSALITY_FAILURES["alpha"], None
    if near(t_coeff, 0.0):
        return cell, _TRANSVERSALITY_FAILURES["T"], None
    if a > 0.0 and near(a + b, 0.0):
        return cell, _TRANSVERSALITY_FAILURES["D"], None
    return cell, _PARABOLIC_STABLE[cell._value_, a > 0.0, a + b >= 0.0, t_coeff > 0.0], None


# A visible-invisible point reads its region and core off its
# invisible-visible mirror, written out in ``_mirror``'s operations.
def _visible_invisible_region(a, b, g):
    r = math.sqrt(g)
    return _parabolic_region(-b / r, a / r, -1.0)


def _visible_invisible_core(a, b, g):
    r = math.sqrt(g)
    return _parabolic_core(-b / r, a / r, -1.0)


#: The one dispatch on the subtype: each subtype's region and core on plain
#: floats (alpha, beta, gamma).  A core returns (region, verdict, return-map
#: tuple), the tuple set exactly at a T-singularity, where a report wraps it
#: in a ``ReturnMapAnalysis``; a visible-invisible point reads both off its
#: invisible-visible mirror.
_SUBTYPES = {
    FoldFoldSubtype.INVISIBLE: (classify_elliptic_region, _invisible_core),
    FoldFoldSubtype.VISIBLE_VISIBLE: (classify_hyperbolic_region, _visible_core),
    FoldFoldSubtype.INVISIBLE_VISIBLE: (_parabolic_region, _parabolic_core),
    FoldFoldSubtype.VISIBLE_INVISIBLE: (_visible_invisible_region, _visible_invisible_core),
}


def report_from_params(params):
    """Two-fold report from normal parameters (validated when built,
    immutable by convention) through its subtype's core: region, verdict
    and, at a T-singularity, the return-map analysis, each computed once;
    moduli are computed when first read."""
    region, verdict, rm = _SUBTYPES[params.subtype][1](params.alpha, params.beta, params.gamma)
    return FoldFoldReport(params, region, verdict, rm and _analysis(rm))


def foldfold_report(system, point):
    """Two-fold report of a surface point of a concrete system: the
    ``foldfold`` part of ``surface_point_report``.  Raises PreconditionError,
    naming the point's kind or tangency type, where it is no two-fold."""
    surface = surface_point_report(system, point)
    if surface.foldfold is None:
        info = surface.tangency
        what = (f"tangency type is {info.ttype.value} ({info.detail})" if info is not None
                else f"kind is {surface.classification.kind.value}")
        raise PreconditionError(f"not a two-fold point: {what}")
    return surface.foldfold


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
        verdict = _STABLE["regular-regular", "crossing"]
    elif cls.kind is not SigmaKind.TANGENCY:
        verdict = _sliding_point_verdict(system, point, cls, tol)
    else:
        info, second = _refine_tangency(system, point, cls.witness, tol)
        if info.ttype is TangencyType.FOLD_FOLD:
            report = report_from_params(_two_fold_parameters(system, point, info, *second))
            verdict = report.verdict
        elif info.ttype is TangencyType.DEGENERATE:
            verdict = _degenerate(f"degenerate tangency: {info.detail}")
        else:
            verdict = _STABLE["tangential", info.ttype._value_]
    return SurfacePointReport(cls, info, report, verdict)
