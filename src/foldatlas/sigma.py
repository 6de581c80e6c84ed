"""Pointwise classification of switching-surface points.

The plane {z = 0} splits into crossing, stable-sliding and unstable-sliding
regions by the signs of the first Lie derivatives Xf and Yf, with a tolerance
band assigned to tangency.  Tangency points are refined into fold / cusp /
fold-fold types using Lie derivatives up to third order; both the cusp and
the fold-fold tests reduce to one planar 2x2 gradient determinant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .algebra import gradient_on_sigma
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


def _require_on_sigma(point, tol):
    if abs(point[2]) > tol:
        raise PreconditionError(f"point {point} is not on the switching plane")


def classify_point(system, point, tol=None):
    """Sign-table verdict at a surface point; |value| <= tol counts as zero."""
    tol = default_tolerance(system) if tol is None else tol
    _require_on_sigma(point, tol)
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


def _gradient_det(grad_a, grad_b, point):
    """2x2 determinant of two planar gradients (pairs of polynomials) at the
    point, and the largest magnitude among its four entries."""
    ax, ay = grad_a[0].eval_at(point), grad_a[1].eval_at(point)
    bx, by = grad_b[0].eval_at(point), grad_b[1].eval_at(point)
    return ax * by - ay * bx, max(abs(ax), abs(ay), abs(bx), abs(by))


def _fold_or_cusp(system, point, tol, side):
    """Refine a single-field tangency into fold / cusp / degenerate."""
    if side == "X":
        first, second, third = system.xf, system.x2f, system.x3f
        fold_type, cusp_type = TangencyType.FOLD_REGULAR, TangencyType.CUSP_REGULAR
    else:
        first, second, third = system.yf, system.y2f, system.y3f
        fold_type, cusp_type = TangencyType.REGULAR_FOLD, TangencyType.REGULAR_CUSP
    s2 = second.eval_at(point)
    if abs(s2) > tol:
        return TangencyInfo(fold_type, detail=f"second derivative {s2:.6g}")
    s3 = third.eval_at(point)
    if abs(s3) <= tol:
        return TangencyInfo(
            TangencyType.DEGENERATE, detail="third derivative vanishes"
        )
    # Cusp needs {df, d(Xf), d(X^2 f)} linearly independent at the point;
    # with df = (0, 0, 1) that is the planar determinant of the last two.
    det, _ = _gradient_det(gradient_on_sigma(first), gradient_on_sigma(second), point)
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
    return _refine_tangency(system, point, cls.witness, tol)


def _refine_tangency(system, point, witness, tol):
    """Tangency type at a point whose ``witness`` (Xf, Yf) is in the band."""
    xf, yf = witness
    if abs(yf) > tol:  # only X is tangent
        return _fold_or_cusp(system, point, tol, "X")
    if abs(xf) > tol:  # only Y is tangent
        return _fold_or_cusp(system, point, tol, "Y")

    # Both fields tangent: candidate fold-fold.
    x_vec = system.X.eval_at(point)
    y_vec = system.Y.eval_at(point)
    if max(abs(v) for v in x_vec) <= tol or max(abs(v) for v in y_vec) <= tol:
        return TangencyInfo(
            TangencyType.DEGENERATE, detail="a field vanishes at the point"
        )
    x2 = system.x2f.eval_at(point)
    y2 = system.y2f.eval_at(point)
    if abs(x2) <= tol or abs(y2) <= tol:
        return TangencyInfo(
            TangencyType.DEGENERATE, detail="a fold is degenerate (second derivative 0)"
        )
    if not _fold_witness(system, point).transversal:
        return TangencyInfo(
            TangencyType.DEGENERATE,
            transversal=False,
            detail="tangency curves are not transversal",
        )
    return TangencyInfo(
        TangencyType.FOLD_FOLD,
        subtype=subtype_from_signs(math.copysign(1.0, x2), math.copysign(1.0, y2)),
        transversal=True,
        detail=f"X2f={x2:.6g}, Y2f={y2:.6g}",
    )


@dataclass
class TransversalityWitness:
    transversal: bool
    determinant: float


def fold_transversality(system, point):
    """Do the tangency curves of X and Y cross transversally at the point?

    Tests linear independence of the planar gradients of Xf and Yf; the
    witness is the 2x2 determinant.
    """
    tol = default_tolerance(system)
    _require_on_sigma(point, tol)
    xf = system.xf.eval_at(point)
    yf = system.yf.eval_at(point)
    if abs(xf) > tol or abs(yf) > tol:
        raise PreconditionError("not a two-fold candidate: Xf or Yf nonzero")
    if abs(system.x2f.eval_at(point)) <= tol or abs(system.y2f.eval_at(point)) <= tol:
        raise PreconditionError("fold second derivative vanishes")
    return _fold_witness(system, point)


def _fold_witness(system, point):
    """``fold_transversality`` without its precondition checks."""
    det, size = _gradient_det(*system.fold_gradients, point)
    return TransversalityWitness(abs(det) > 1e-9 * (1.0 + size), det)


# ---------------------------------------------------------------------------
# Tangency-curve tracing


@dataclass
class Curve:
    points: np.ndarray  # (n, 2) samples on {z=0}
    closed: bool = False
    complete: bool = True


def _trace_zero_set(poly, box):
    """Predictor-corrector continuation of {poly = 0} on the box's z-slice."""
    g = poly.subs_z0()
    if g.is_zero():
        return []
    gfn = g.compiled()
    gx = g.partial("x").compiled()
    gy = g.partial("y").compiled()
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
        if n < 1e-14 * scale:
            return None
        return (-dy / n, dx / n)

    # Seeds: sign changes along grid edges, then corrector polish.
    n_grid = 41
    xs = np.linspace(box.xmin, box.xmax, n_grid)
    ys = np.linspace(box.ymin, box.ymax, n_grid)
    vals = np.array([[gfn(x, y, 0.0) for y in ys] for x in xs])
    seeds = []
    for i in range(n_grid):
        for j in range(n_grid):
            v0 = vals[i, j]
            if abs(v0) <= ctol:
                seeds.append((xs[i], ys[j]))
                continue
            for di, dj in ((1, 0), (0, 1)):
                ii, jj = i + di, j + dj
                if ii >= n_grid or jj >= n_grid:
                    continue
                v1 = vals[ii, jj]
                if v0 * v1 < 0.0:
                    t = v0 / (v0 - v1)
                    seeds.append(
                        (
                            xs[i] + t * (xs[ii] - xs[i]),
                            ys[j] + t * (ys[jj] - ys[j]),
                        )
                    )

    curves = []
    visited = []

    def near_visited(q):
        return any(math.hypot(q[0] - p[0], q[1] - p[1]) < 0.75 * h for p in visited)

    max_steps = int(8 * (box.scale() / h)) + 10
    for seed in seeds:
        q0 = correct(seed)
        if q0 is None or not box.contains((q0[0], q0[1], 0.0), pad=h):
            continue
        if near_visited(q0):
            continue
        branches = []
        closed = False
        complete = True
        for orientation in (1.0, -1.0):
            pts = [q0]
            t_prev = tangent(q0)
            if t_prev is None:
                complete = False
                break
            t_prev = (orientation * t_prev[0], orientation * t_prev[1])
            q = q0
            for _ in range(max_steps):
                t = tangent(q)
                if t is None:
                    complete = False
                    break
                if t[0] * t_prev[0] + t[1] * t_prev[1] < 0.0:
                    t = (-t[0], -t[1])
                pred = (q[0] + h * t[0], q[1] + h * t[1])
                nxt = correct(pred)
                if nxt is None:
                    complete = False
                    break
                pts.append(nxt)
                t_prev = t
                q = nxt
                if not box.contains((q[0], q[1], 0.0)):
                    break
                if len(pts) > 5 and math.hypot(q[0] - q0[0], q[1] - q0[1]) < 0.6 * h:
                    closed = True
                    break
            branches.append(pts)
            if closed:
                break
        if not branches or (len(branches[0]) < 2 and not closed):
            # Continuation could not leave the seed (zero gradient on the
            # set): keep a flagged single-point marker instead of dropping it.
            if abs(gfn(q0[0], q0[1], 0.0)) <= ctol:
                visited.append(q0)
                curves.append(
                    Curve(points=np.array([q0]), closed=False, complete=False)
                )
            continue
        if closed:
            chain = branches[0]
        else:
            back = branches[1] if len(branches) > 1 else [q0]
            chain = list(reversed(back[1:])) + branches[0]
        visited.extend(chain)
        curves.append(Curve(points=np.array(chain), closed=closed, complete=complete))
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
