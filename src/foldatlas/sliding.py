"""Sliding dynamics on the switching plane.

Inside the sliding region the motion is governed by the convex combination
of X and Y tangent to the plane, the sliding field ``(Yf*X - Xf*Y) / (Yf -
Xf)``; the integrator writes it out inline in its sliding kernel.  Its
polynomial numerator, the normalized sliding field, shares phase portraits
with it, up to orientation on the unstable-sliding side, and is the object
the region classifications and the surface-point verdicts evaluate on.
Region boundaries are decided within the one fixed relative band
``BOUNDARY_BAND``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .algebra import Poly3
from .errors import PreconditionError
from .sigma import FoldFoldSubtype


@dataclass
class PlanarField:
    """Polynomial vector field on the plane {z = 0}."""

    px: Poly3
    py: Poly3

    def eval(self, x, y):
        return (self.px.eval(x, y, 0.0), self.py.eval(x, y, 0.0))

    def compiled(self):
        fx = self.px.compiled()
        fy = self.py.compiled()
        return lambda x, y: (fx(x, y, 0.0), fy(x, y, 0.0))

    def jacobian_at(self, x, y):
        rows = ((self.px.partial("x"), self.px.partial("y")),
                (self.py.partial("x"), self.py.partial("y")))
        return np.array([[p.eval(x, y, 0.0) for p in row] for row in rows])


def normalized_sliding_field(system):
    """Polynomial rescaling ``Yf*X - Xf*Y`` of the sliding field on {z=0}.

    Positive reparametrization of the sliding field on the stable-sliding
    region, negative on the unstable one.  The z-component ``Yf*Xf - Xf*Yf``
    cancels identically, which is exactly the statement that the field is
    tangent to the plane; only the planar pair is returned.
    """
    xf = system.xf.subs_z0()
    yf = system.yf.subs_z0()
    return PlanarField(
        px=yf * system.X.cx.subs_z0() - xf * system.Y.cx.subs_z0(),
        py=yf * system.X.cy.subs_z0() - xf * system.Y.cy.subs_z0(),
    )


def foldfold_sliding_linearization(params):
    """Linear part of the normalized sliding field at a two-fold point.

    In normal coordinates this is ``[[alpha, -delta*gamma], [1, -delta*beta]]``
    acting on (x, y).
    """
    a, b, g, d = params.alpha, params.beta, params.gamma, params.delta
    if g == 0.0 or d not in (-1, 1, -1.0, 1.0):
        raise PreconditionError("invalid normal parameters")
    return np.array([[a, -d * g], [1.0, -d * b]])


# ---------------------------------------------------------------------------
# Parameter-space regions of the sliding dynamics


class Claim(Enum):
    """Qualitative sliding behavior attached to each parameter region."""

    REACHES_POINT_ASYMPTOTIC = 1
    MISSES_POINT_EXCEPT_MANIFOLD = 2
    REVERSE_TIME_NODE = 3
    TRANSIENT = 4
    THREE_SECTOR_HYPERBOLIC = 5
    THREE_SECTOR_REACHING = 6
    THREE_SECTOR_REACHING_REVERSED = 7
    BIFURCATING = 8


class SlidingRegionTag(Enum):
    RE1 = "RE1"
    RE2 = "RE2"
    RH1 = "RH1"
    RH2 = "RH2"
    RP1 = "RP1"
    RP2 = "RP2"
    RP3 = "RP3"
    RP4 = "RP4"
    BIFURCATION_BOUNDARY = "boundary"

    @property
    def claim(self):
        return _TAG_TO_CLAIM[self]


_TAG_TO_CLAIM = {
    SlidingRegionTag.RE1: Claim.REACHES_POINT_ASYMPTOTIC,
    SlidingRegionTag.RE2: Claim.MISSES_POINT_EXCEPT_MANIFOLD,
    SlidingRegionTag.RH1: Claim.REVERSE_TIME_NODE,
    SlidingRegionTag.RH2: Claim.REVERSE_TIME_NODE,
    SlidingRegionTag.RP1: Claim.TRANSIENT,
    SlidingRegionTag.RP2: Claim.THREE_SECTOR_HYPERBOLIC,
    SlidingRegionTag.RP3: Claim.THREE_SECTOR_REACHING,
    SlidingRegionTag.RP4: Claim.THREE_SECTOR_REACHING_REVERSED,
    SlidingRegionTag.BIFURCATION_BOUNDARY: Claim.BIFURCATING,
}

#: Relative width of the band around region boundaries that is reported as
#: BIFURCATION_BOUNDARY instead of an open region.  It is the one band of
#: every region and verdict predicate; no caller can override it.
BOUNDARY_BAND = 1e-9


def near(u, v):
    """True when ``u`` and ``v`` agree within the relative ``BOUNDARY_BAND``."""
    return abs(u - v) <= BOUNDARY_BAND * (1.0 + abs(u) + abs(v))


def classify_elliptic_region(alpha, beta, gamma):
    """Region for gamma > 0: RE1 = {alpha*beta > gamma, alpha < 0, beta < 0},
    RE2 = complement of its closure."""
    ab = alpha * beta
    if near(ab, gamma):
        # Only the alpha < 0 branch of the hyperbola bounds RE1.
        return SlidingRegionTag.BIFURCATION_BOUNDARY if alpha < 0 else SlidingRegionTag.RE2
    if ab > gamma:
        return SlidingRegionTag.RE1 if alpha < 0 else SlidingRegionTag.RE2
    return SlidingRegionTag.RE2


def classify_hyperbolic_region(alpha, beta, gamma):
    """Region for gamma < 0: RH1 = {alpha*beta < gamma, alpha > 0, beta < 0},
    RH2 = complement of its closure."""
    ab = alpha * beta
    if near(ab, gamma):
        return SlidingRegionTag.BIFURCATION_BOUNDARY if alpha > 0 else SlidingRegionTag.RH2
    if ab < gamma:
        return SlidingRegionTag.RH1 if alpha > 0 else SlidingRegionTag.RH2
    return SlidingRegionTag.RH2


def parabolic_cell(alpha, beta, gamma):
    """Cell of invisible-visible parameters (gamma < 0): a region RP1-RP4,
    BIFURCATION_BOUNDARY within the band of a region boundary, or None in the
    open wedge {alpha*beta > gamma, beta - alpha > -2 sqrt(-gamma)} that no
    region covers.  Each band is tested only on the branch where it decides."""
    ab = alpha * beta
    root = 2.0 * math.sqrt(-gamma)
    if near(ab, gamma):
        return SlidingRegionTag.BIFURCATION_BOUNDARY
    w = (beta - alpha) + root  # > 0 means beta - alpha > -2 sqrt(-gamma)
    if ab < gamma:
        if w > 0.0:
            return SlidingRegionTag.RP1
        if alpha > 0.0 and not near(alpha, 0.0):
            return SlidingRegionTag.RP2
    elif ab > gamma and not near(beta - alpha, -root):
        if w > 0.0:
            return None
        return SlidingRegionTag.RP3 if alpha + beta > 0.0 else SlidingRegionTag.RP4
    return SlidingRegionTag.BIFURCATION_BOUNDARY


def mirror_visible_invisible(alpha, beta, gamma):
    """Map visible-invisible parameters (gamma > 0) to the invisible-visible
    representative obtained by swapping (x, y) and flipping z.

    The swap exchanges the roles of the two fields, so the classification of
    a visible-invisible point delegates to the mirrored triple.
    """
    if gamma <= 0.0:
        raise PreconditionError("visible-invisible parameters need gamma > 0")
    r = math.sqrt(gamma)
    return (-beta / r, alpha / r, -1.0)


def sliding_region_class(params):
    """Parameter-space region of the sliding dynamics at a two-fold point;
    the parabolic wedge that no region covers is a BIFURCATION_BOUNDARY."""
    a, b, g = params.alpha, params.beta, params.gamma
    sub = params.subtype
    if sub is FoldFoldSubtype.INVISIBLE:
        return classify_elliptic_region(a, b, g)
    if sub is FoldFoldSubtype.VISIBLE_VISIBLE:
        return classify_hyperbolic_region(a, b, g)
    if sub is FoldFoldSubtype.VISIBLE_INVISIBLE:
        a, b, g = mirror_visible_invisible(a, b, g)
    return parabolic_cell(a, b, g) or SlidingRegionTag.BIFURCATION_BOUNDARY
