"""Pointwise classification of switching-surface points.

The plane {z = 0} splits into crossing, stable-sliding and unstable-sliding
regions by the signs of the first Lie derivatives Xf and Yf, with a tolerance
band assigned to tangency.  Tangency points are refined into fold / cusp /
fold-fold types using Lie derivatives up to third order; both the cusp and
the fold-fold tests reduce to one planar 2x2 gradient determinant, whose
entries are read straight from the polynomials' terms at the point.

Tangency curves are traced from grid seeds by one predictor-corrector march,
forward along the seed's tangent, then backward unless the curve closed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .algebra import linspace
from .errors import PreconditionError

# Newton corrections per tangency-curve point before the point is given up;
# tangency-curve step as a fraction of the box's larger planar side.
_CORRECTOR_CAP = 30
_CURVE_STEP = 1e-2


class SigmaKind(Enum):
    CROSSING = "crossing"
    STABLE_SLIDING = "stable-sliding"
    UNSTABLE_SLIDING = "unstable-sliding"
    TANGENCY = "tangency"


class TangencyType(Enum):
    FOLD_REGULAR = "fold-regular"
    REGULAR_FOLD = "regular-fold"
    CUSP_REGULAR = "cusp-regular"
    REGULAR_CUSP = "regular-cusp"
    FOLD_FOLD = "fold-fold"
    DEGENERATE = "degenerate"


class FoldFoldSubtype(Enum):
    """Sign pattern of (X^2f, Y^2f): which folds are visible.

    VISIBLE_VISIBLE is the hyperbolic case, the two mixed patterns are
    parabolic, and INVISIBLE (both folds invisible) admits a first-return
    map; it is traditionally called a T-singularity.
    """

    VISIBLE_VISIBLE = "visible-visible"
    INVISIBLE_VISIBLE = "invisible-visible"
    VISIBLE_INVISIBLE = "visible-invisible"
    INVISIBLE = "invisible"


def subtype_from_signs(x2f_sign, y2f_sign):
    if x2f_sign > 0 and y2f_sign < 0:
        return FoldFoldSubtype.VISIBLE_VISIBLE
    if x2f_sign < 0 and y2f_sign < 0:
        return FoldFoldSubtype.INVISIBLE_VISIBLE
    if x2f_sign > 0 and y2f_sign > 0:
        return FoldFoldSubtype.VISIBLE_INVISIBLE
    return FoldFoldSubtype.INVISIBLE


@dataclass
class TangencyInfo:
    ttype: TangencyType
    subtype: FoldFoldSubtype | None = None
    transversal: bool | None = None
    detail: str = ""


@dataclass
class SigmaClassification:
    kind: SigmaKind
    witness: tuple  # (Xf(p), Yf(p))


def default_tolerance(system):
    """Zero band for Lie-derivative values of a system or field: 1e-9
    scaled by coefficient size."""
    return 1e-9 * (1.0 + system.coeff_scale())


def classify_point(system, point, tol=None):
    """Sign-table verdict at a surface point; |value| <= tol counts as zero."""
    tol = default_tolerance(system) if tol is None else tol
    if abs(point[2]) > tol:
        raise PreconditionError(f"point {point} is not on the switching plane")
    xf = system.xf.eval_at(point)
    yf = system.yf.eval_at(point)
    witness = (xf, yf)
    if abs(xf) <= tol or abs(yf) <= tol:
        return SigmaClassification(SigmaKind.TANGENCY, witness)
    if xf * yf > 0.0:
        return SigmaClassification(SigmaKind.CROSSING, witness)
    if xf < 0.0 < yf:
        return SigmaClassification(SigmaKind.STABLE_SLIDING, witness)
    return SigmaClassification(SigmaKind.UNSTABLE_SLIDING, witness)


def _planar_gradient(p, point):
    """(dp/dx, dp/dy) on z = 0 at the point, read from the terms with the
    bits of ``gradient_on_sigma(p)[i].eval_at(point)``: coefficient times
    exponent, then the x and y powers, z-terms skipped, each summed from 0.0
    in term order.  A power of exponent 0 is 1.0, and v * 1.0 == v exactly."""
    x, y = point[0], point[1]
    gx = gy = 0.0
    for (i, j, k), c in p.terms.items():
        if not k:
            if i:
                gx += c * i * x ** (i - 1) * y**j
            if j:
                gy += c * j * x**i * y ** (j - 1)
    return gx, gy


def _gradient_det(a, b, point):
    """2x2 determinant of the planar gradients of the polynomials ``a`` and
    ``b`` at the point, and the largest magnitude among its four entries."""
    ax, ay = _planar_gradient(a, point)
    bx, by = _planar_gradient(b, point)
    return ax * by - ay * bx, max(abs(ax), abs(ay), abs(bx), abs(by))


def _fold_or_cusp(system, point, tol, side):
    """Refine a single-field tangency into fold / cusp / degenerate."""
    if side == "X":
        first, second = system.xf, system.x2f
        fold_type, cusp_type = TangencyType.FOLD_REGULAR, TangencyType.CUSP_REGULAR
    else:
        first, second = system.yf, system.y2f
        fold_type, cusp_type = TangencyType.REGULAR_FOLD, TangencyType.REGULAR_CUSP
    s2 = second.eval_at(point)
    if abs(s2) > tol:
        return TangencyInfo(fold_type, detail=f"second derivative {s2:.6g}")
    # The third derivative is built only here, at a cusp candidate.
    s3 = (system.x3f if side == "X" else system.y3f).eval_at(point)
    if abs(s3) <= tol:
        return TangencyInfo(
            TangencyType.DEGENERATE, detail="third derivative vanishes"
        )
    # Cusp needs {df, d(Xf), d(X^2 f)} linearly independent at the point;
    # with df = (0, 0, 1) that is the planar determinant of the last two.
    det, _ = _gradient_det(first, second, point)
    if abs(det) <= default_tolerance(system):
        return TangencyInfo(
            TangencyType.DEGENERATE, detail=f"gradient independence fails ({det:.3g})"
        )
    return TangencyInfo(cusp_type, detail=f"third derivative {s3:.6g}")


def tangency_type(system, point):
    """Classify a tangency point (fold / cusp / fold-fold / degenerate)."""
    tol = default_tolerance(system)
    cls = classify_point(system, point, tol)
    if cls.kind is not SigmaKind.TANGENCY:
        raise PreconditionError("point is not in the tangency band")
    return _refine_tangency(system, point, cls.witness, tol)[0]


def _refine_tangency(system, point, witness, tol):
    """Tangency type at a point whose ``witness`` (Xf, Yf) is in the band,
    and at a fold-fold the values (X2f, Y2f) there, else None."""
    xf, yf = witness
    if abs(yf) > tol:  # only X is tangent
        return _fold_or_cusp(system, point, tol, "X"), None
    if abs(xf) > tol:  # only Y is tangent
        return _fold_or_cusp(system, point, tol, "Y"), None

    # Both fields tangent: candidate fold-fold.  Xf and Yf are the fields'
    # z-components, so the witness completes X(p) and Y(p).
    x_vec = (system.X.cx.eval_at(point), system.X.cy.eval_at(point), xf)
    y_vec = (system.Y.cx.eval_at(point), system.Y.cy.eval_at(point), yf)
    if max(abs(v) for v in x_vec) <= tol or max(abs(v) for v in y_vec) <= tol:
        return TangencyInfo(
            TangencyType.DEGENERATE, detail="a field vanishes at the point"
        ), None
    x2 = system.x2f.eval_at(point)
    y2 = system.y2f.eval_at(point)
    if abs(x2) <= tol or abs(y2) <= tol:
        return TangencyInfo(
            TangencyType.DEGENERATE, detail="a fold is degenerate (second derivative 0)"
        ), None
    det, size = _gradient_det(system.xf, system.yf, point)
    if not abs(det) > 1e-9 * (1.0 + size):  # a NaN determinant is not transversal
        return TangencyInfo(
            TangencyType.DEGENERATE,
            transversal=False,
            detail="tangency curves are not transversal",
        ), None
    return TangencyInfo(
        TangencyType.FOLD_FOLD,
        subtype=subtype_from_signs(math.copysign(1.0, x2), math.copysign(1.0, y2)),
        transversal=True,
        detail=f"X2f={x2:.6g}, Y2f={y2:.6g}",
    ), (x2, y2)


# ---------------------------------------------------------------------------
# Tangency-curve tracing


@dataclass
class Curve:
    points: tuple  # (x, y) samples on {z=0}
    closed: bool = False
    complete: bool = True


def _trace_zero_set(poly, box):
    """Predictor-corrector continuation of {poly = 0} on the box's z-slice."""
    g = poly.subs_z0()
    if g.is_zero():
        return []
    gfn, gx, gy = (p.compiled() for p in (g, g.partial("x"), g.partial("y")))
    scale = 1.0 + g.coeff_scale()
    ctol = 1e-12 * scale
    h = _CURVE_STEP * max(box.xmax - box.xmin, box.ymax - box.ymin)

    def correct(q):
        x, y = q
        for _ in range(_CORRECTOR_CAP):
            v = gfn(x, y, 0.0)
            if abs(v) <= ctol:
                return (x, y)
            dx, dy = gx(x, y, 0.0), gy(x, y, 0.0)
            n2 = dx * dx + dy * dy
            if n2 < 1e-18 * scale * scale:
                return None
            x -= v * dx / n2
            y -= v * dy / n2
        return (x, y) if abs(gfn(x, y, 0.0)) <= 10 * ctol else None

    def tangent(q):
        dx, dy = gx(q[0], q[1], 0.0), gy(q[0], q[1], 0.0)
        n = math.hypot(dx, dy)
        return None if n < 1e-14 * scale else (-dy / n, dx / n)

    # Seeds: sign changes along grid edges, then corrector polish.  Past the
    # float range a value is inf or NaN, which passes no tolerance test here.
    n_grid = 41
    xs = linspace(box.xmin, box.xmax, n_grid)
    ys = linspace(box.ymin, box.ymax, n_grid)
    vals = [[gfn(x, y, 0.0) for y in ys] for x in xs]
    seeds = []
    for i in range(n_grid):
        for j in range(n_grid):
            v0 = vals[i][j]
            if abs(v0) <= ctol:
                seeds.append((xs[i], ys[j]))
                continue
            for ii, jj in ((i + 1, j), (i, j + 1)):
                if ii < n_grid and jj < n_grid and v0 * vals[ii][jj] < 0.0:
                    t = v0 / (v0 - vals[ii][jj])
                    seeds.append((xs[i] + t * (xs[ii] - xs[i]), ys[j] + t * (ys[jj] - ys[j])))

    max_steps = int(8 * (box.scale() / h)) + 10

    def march(q0, t_prev):
        """``(points, closed, complete)`` of the march from ``q0`` towards
        the unit tangent ``t_prev``: it ends on leaving the box, on coming
        back to ``q0`` (closed) or where a tangent or corrector fails."""
        pts = [q0]
        q = q0
        for _ in range(max_steps):
            t = tangent(q)
            if t is None:
                return pts, False, False
            if t[0] * t_prev[0] + t[1] * t_prev[1] < 0.0:
                t = (-t[0], -t[1])
            q = correct((q[0] + h * t[0], q[1] + h * t[1]))
            if q is None:
                return pts, False, False
            pts.append(q)
            t_prev = t
            if not box.contains((q[0], q[1], 0.0)):
                break
            if len(pts) > 5 and math.hypot(q[0] - q0[0], q[1] - q0[1]) < 0.6 * h:
                return pts, True, True
        return pts, False, True

    curves = []
    visited = []
    for seed in seeds:
        q0 = correct(seed)
        if q0 is None or not box.contains((q0[0], q0[1], 0.0), pad=h):
            continue
        if any(math.hypot(q0[0] - p[0], q0[1] - p[1]) < 0.75 * h for p in visited):
            continue
        # Forward, then backward unless the forward march closed.  A
        # backward march that closes keeps the forward branch alone.
        t0 = tangent(q0)
        fwd, closed, complete = ([q0], False, False) if t0 is None else march(q0, t0)
        chain = fwd
        if t0 is not None and not closed:
            back, closed, back_complete = march(q0, (-t0[0], -t0[1]))
            complete = complete and back_complete
            if not closed:
                chain = back[:0:-1] + fwd
        if len(fwd) < 2 and not closed:
            # Continuation could not leave the seed (zero gradient on the
            # set): keep an incomplete single-point marker if q0 is on the set.
            if abs(gfn(q0[0], q0[1], 0.0)) > ctol:
                continue
            chain = fwd
        visited.extend(chain)
        curves.append(Curve(points=tuple(chain), closed=closed, complete=complete))
    return curves


def tangency_curves(system):
    """Sampled tangency curves of both fields on the system's box.

    Returns ``{"X": [Curve...], "Y": [Curve...]}``.  Curves that hit a
    degenerate (zero-gradient) point are returned partially with
    ``complete=False``.
    """
    return {
        "X": _trace_zero_set(system.xf, system.box),
        "Y": _trace_zero_set(system.yf, system.box),
    }
