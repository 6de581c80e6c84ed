"""Sliding dynamics on the switching plane.

Inside the sliding region the motion is governed by the convex combination
of X and Y tangent to the plane (the sliding field).  Its polynomial
rescaling ``Yf*X - Xf*Y`` (the normalized sliding field) shares phase
portraits with it, up to orientation on the unstable-sliding side, and is
the object all region classifications evaluate on.  Region boundaries are
decided within the one fixed relative band ``BOUNDARY_BAND``.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .algebra import Poly3, gradient_on_sigma
from .errors import DenominatorZeroError, PreconditionError
from .sigma import FoldFoldSubtype, TangencyType, default_tolerance, tangency_type

log = logging.getLogger(__name__)

# |Yf - Xf| at or below this counts as a vanishing sliding denominator;
# seeds per box side of the pseudo-equilibrium search.
_DENOMINATOR_FLOOR = 1e-14
_SEED_GRID = 41


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

    def jacobian_polys(self):
        return (
            (self.px.partial("x"), self.px.partial("y")),
            (self.py.partial("x"), self.py.partial("y")),
        )

    def jacobian_at(self, x, y):
        rows = self.jacobian_polys()
        return np.array([[p.eval(x, y, 0.0) for p in row] for row in rows])


@dataclass
class SlidingField:
    """Rational sliding field: numerator pair over the denominator Yf - Xf."""

    numerator: PlanarField
    denominator: Poly3

    def eval(self, x, y):
        den = self.denominator.eval(x, y, 0.0)
        if abs(den) <= _DENOMINATOR_FLOOR:
            raise DenominatorZeroError(
                f"sliding denominator vanishes at ({x:.6g}, {y:.6g})"
            )
        nx, ny = self.numerator.eval(x, y)
        return (nx / den, ny / den)


def sliding_field(system):
    """Filippov sliding field on {z = 0} as a rational planar field.

    The numerator's z-component ``Yf*Xf - Xf*Yf`` cancels identically, which
    is exactly the statement that the field is tangent to the plane; only the
    planar pair is returned.
    """
    xf = system.xf.subs_z0()
    yf = system.yf.subs_z0()
    num = PlanarField(
        px=yf * system.X.cx.subs_z0() - xf * system.Y.cx.subs_z0(),
        py=yf * system.X.cy.subs_z0() - xf * system.Y.cy.subs_z0(),
    )
    return SlidingField(numerator=num, denominator=yf - xf)


def normalized_sliding_field(system):
    """Polynomial rescaling ``Yf*X - Xf*Y`` of the sliding field on {z=0}.

    Positive reparametrization of the sliding field on the stable-sliding
    region, negative on the unstable one.
    """
    return sliding_field(system).numerator


# ---------------------------------------------------------------------------
# Closed-form 2x2 eigenanalysis


@dataclass
class EigenSystem:
    values: tuple  # pair of complex numbers
    vectors: list | None  # real eigenvectors (unit), or None when complex


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


def linear_eigensystem(matrix):
    """Eigenvalues/eigenvectors of a real 2x2 matrix in closed form."""
    (m00, m01), (m10, m11) = np.asarray(matrix, dtype=float).tolist()
    t = m00 + m11
    d = m00 * m11 - m01 * m10
    disc = t * t - 4.0 * d
    if disc < 0.0:
        im = math.sqrt(-disc) / 2.0
        return EigenSystem(values=(complex(t / 2.0, -im), complex(t / 2.0, im)),
                           vectors=None)
    s = math.sqrt(disc)
    if t >= 0.0:
        big = (t + s) / 2.0
    else:
        big = (t - s) / 2.0
    # The smaller root via the product avoids cancellation for |t| >> 1.
    small = d / big if big != 0.0 else (t - s) / 2.0
    vals = sorted((small, big))
    return EigenSystem(
        values=(complex(vals[0]), complex(vals[1])),
        vectors=[np.array(_eigvec2(m00, m01, m10, m11, lam)) for lam in vals],
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


def classify_parabolic_region(alpha, beta, gamma):
    """Regions for gamma < 0 (invisible-visible parameters)."""
    ab = alpha * beta
    root = 2.0 * math.sqrt(-gamma)
    w = (beta - alpha) + root  # > 0 means beta - alpha > -2 sqrt(-gamma)
    v = alpha + beta
    s_boundary = near(ab, gamma)
    w_boundary = near(beta - alpha, -root)
    v_boundary = near(v, 0.0)
    u_boundary = near(alpha, 0.0)
    if not s_boundary and ab < gamma:
        if not w_boundary and w > 0.0:
            return SlidingRegionTag.RP1
        if not u_boundary and alpha > 0.0:
            return SlidingRegionTag.RP2
        return SlidingRegionTag.BIFURCATION_BOUNDARY
    if not s_boundary and ab > gamma:
        if not w_boundary and w < 0.0:
            if not v_boundary and v > 0.0:
                return SlidingRegionTag.RP3
            if not v_boundary and v < 0.0:
                return SlidingRegionTag.RP4
        return SlidingRegionTag.BIFURCATION_BOUNDARY
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
    """Parameter-space region of the sliding dynamics at a two-fold point."""
    a, b, g = params.alpha, params.beta, params.gamma
    sub = params.subtype
    if sub is FoldFoldSubtype.INVISIBLE:
        return classify_elliptic_region(a, b, g)
    if sub is FoldFoldSubtype.VISIBLE_VISIBLE:
        return classify_hyperbolic_region(a, b, g)
    if sub is FoldFoldSubtype.INVISIBLE_VISIBLE:
        return classify_parabolic_region(a, b, g)
    return classify_parabolic_region(*mirror_visible_invisible(a, b, g))


# ---------------------------------------------------------------------------
# Pseudo-equilibria


@dataclass
class PseudoEquilibrium:
    point: tuple
    kind: str
    eigenvalues: tuple
    hyperbolic: bool


def _classify_equilibrium(jac, rel=1e-9):
    t = jac[0, 0] + jac[1, 1]
    d = jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]
    scale = 1.0 + float(np.max(np.abs(jac)))
    eig = linear_eigensystem(jac)
    if abs(d) <= rel * scale * scale:
        return "non-hyperbolic", eig.values, False
    if d < 0.0:
        return "saddle", eig.values, True
    disc = t * t - 4.0 * d
    if disc >= 0.0:
        kind = "stable-node" if t < 0.0 else "unstable-node"
        return kind, eig.values, True
    if abs(t) <= rel * scale:
        return "non-hyperbolic", eig.values, False
    kind = "stable-focus" if t < 0.0 else "unstable-focus"
    return kind, eig.values, True


def pseudo_equilibria(system):
    """Zeros of the normalized sliding field inside the sliding region.

    Newton search seeded on a ``_SEED_GRID`` x ``_SEED_GRID`` grid over the
    system's box; zeros on the tangency set are excluded, and
    each survivor is labeled by the linear type of the sliding field (the
    normalized field's Jacobian divided by the positive/negative
    reparametrization factor).
    """
    box = system.box
    tol = default_tolerance(system)
    fld = normalized_sliding_field(system)
    fn = fld.compiled()
    jac_rows = fld.jacobian_polys()
    jac_fns = [[p.compiled() for p in row] for row in jac_rows]
    xf_fn = system.xf.compiled()
    yf_fn = system.yf.compiled()
    scale = 1.0 + max(fld.px.coeff_scale(), fld.py.coeff_scale())

    results = []
    xs = np.linspace(box.xmin, box.xmax, _SEED_GRID)
    ys = np.linspace(box.ymin, box.ymax, _SEED_GRID)
    for x0 in xs:
        for y0 in ys:
            x, y = float(x0), float(y0)
            ok = False
            for _ in range(40):
                fx, fy = fn(x, y)
                if math.hypot(fx, fy) <= 1e-11 * scale:
                    ok = True
                    break
                J = np.array([[cell(x, y, 0.0) for cell in row] for row in jac_fns])
                det = J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0]
                if abs(det) < 1e-16 * scale * scale:
                    break
                x, y = (
                    x - (J[1, 1] * fx - J[0, 1] * fy) / det,
                    y - (-J[1, 0] * fx + J[0, 0] * fy) / det,
                )
            if not ok:
                log.debug("pseudo-equilibrium seed (%g, %g) did not converge", x0, y0)
                continue
            if not box.contains((x, y, 0.0), pad=1e-9):
                continue
            if any(math.hypot(x - p.point[0], y - p.point[1]) < 1e-7 for p in results):
                continue
            xf = xf_fn(x, y, 0.0)
            yf = yf_fn(x, y, 0.0)
            if abs(xf) <= tol or abs(yf) <= tol or xf * yf > 0.0:
                continue  # on the tangency set, or not a sliding point
            J = np.array([[cell(x, y, 0.0) for cell in row] for row in jac_fns])
            J = J / (yf - xf)  # Jacobian of the true sliding field at its zero
            kind, eig, hyp = _classify_equilibrium(J)
            results.append(
                PseudoEquilibrium(point=(x, y), kind=kind, eigenvalues=eig,
                                  hyperbolic=hyp)
            )
    results.sort(key=lambda p: p.point)
    return results


# ---------------------------------------------------------------------------
# Contact order of the sliding field with the region boundary


class ContactOrder(Enum):
    TRANSVERSE = "transverse"
    QUADRATIC = "quadratic"
    DEGENERATE = "degenerate"


@dataclass
class ContactReport:
    order: ContactOrder
    first: float
    second: float


def boundary_contact(system, point):
    """Contact order of the extended sliding field with the tangency line.

    At a fold-regular boundary point the sliding field crosses the boundary
    (transverse); at a cusp-regular point it meets it quadratically.
    """
    info = tangency_type(system, point)
    if info.ttype in (TangencyType.FOLD_REGULAR, TangencyType.CUSP_REGULAR):
        g = system.xf.subs_z0()
    elif info.ttype in (TangencyType.REGULAR_FOLD, TangencyType.REGULAR_CUSP):
        g = system.yf.subs_z0()
    else:
        raise PreconditionError(
            f"boundary contact needs a fold/cusp-regular point, got {info.ttype.value}"
        )
    fld = normalized_sliding_field(system)
    gx, gy = gradient_on_sigma(g)
    first_poly = fld.px * gx + fld.py * gy
    c1 = first_poly.eval_at(point)
    scale = 1.0 + max(fld.px.coeff_scale(), fld.py.coeff_scale(), g.coeff_scale())
    if abs(c1) > 1e-9 * scale:
        return ContactReport(ContactOrder.TRANSVERSE, c1, float("nan"))
    fx, fy = gradient_on_sigma(first_poly)
    c2 = (fld.px * fx + fld.py * fy).eval_at(point)
    if abs(c2) > 1e-9 * scale:
        return ContactReport(ContactOrder.QUADRATIC, c1, c2)
    return ContactReport(ContactOrder.DEGENERATE, c1, c2)
