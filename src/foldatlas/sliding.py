"""Sliding dynamics on the switching plane.

Inside the sliding region the motion is governed by the convex combination
of X and Y tangent to the plane, the sliding field ``(Yf*X - Xf*Y) / (Yf -
Xf)``; the integrator writes it out inline in its sliding kernel.  Its
polynomial numerator, the normalized sliding field, shares phase portraits
with it, up to orientation on the unstable-sliding side, and is the object
the region classifications and the surface-point verdicts evaluate on.

The region predicates take plain numbers (alpha, beta, gamma) of one
subtype each; choosing the predicate from a two-fold's subtype, and
mirroring a visible-invisible point first, is ``foldfold``'s.  Region
boundaries are decided within the one fixed relative band ``BOUNDARY_BAND``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .algebra import Poly3


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
        """Row tuples ``((dpx/dx, dpx/dy), (dpy/dx, dpy/dy))`` at (x, y)."""
        return tuple(tuple(p.partial(v).eval(x, y, 0.0) for v in "xy")
                     for p in (self.px, self.py))


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


# Each tag's ``claim`` is an attribute set here: reading it hashes no member.
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
for _tag, _claim in _TAG_TO_CLAIM.items():
    _tag.claim = _claim
del _tag, _claim

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
