import hashlib
import random

import numpy as np
import pytest

from foldatlas.algebra import Poly3, VectorField3, gradient_on_sigma
from foldatlas.errors import PreconditionError
from foldatlas.sigma import (
    FoldFoldSubtype,
    SigmaKind,
    TangencyType,
    _fold_or_cusp,
    _gradient_det,
    classify_point,
    default_tolerance,
    tangency_curves,
    tangency_type,
)
from foldatlas.system import PiecewiseSystem, build_normal_form

ELLIPTIC = build_normal_form(-1.0, -1.0, 1.0, -1.0)


def field(cx, cy, cz):
    def mk(v):
        if isinstance(v, Poly3):
            return v
        return Poly3.constant(v)

    return VectorField3(mk(cx), mk(cy), mk(cz))


Y_VAR = Poly3.variable("y")
X_VAR = Poly3.variable("x")


class TestClassifyPoint:
    def test_crossing(self):
        cls = classify_point(ELLIPTIC, (1.0, -1.0, 0.0))
        assert cls.kind is SigmaKind.CROSSING
        assert cls.witness == (1.0, 1.0)

    def test_stable_sliding(self):
        cls = classify_point(ELLIPTIC, (1.0, 1.0, 0.0))
        assert cls.kind is SigmaKind.STABLE_SLIDING
        assert cls.witness == (-1.0, 1.0)

    def test_unstable_sliding(self):
        cls = classify_point(ELLIPTIC, (-1.0, -1.0, 0.0))
        assert cls.kind is SigmaKind.UNSTABLE_SLIDING
        assert cls.witness == (1.0, -1.0)

    def test_off_surface_rejected(self):
        with pytest.raises(PreconditionError):
            classify_point(ELLIPTIC, (0.0, 0.0, 0.5))

    def test_partition(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            p = (rng.uniform(-1, 1), rng.uniform(-1, 1), 0.0)
            cls = classify_point(ELLIPTIC, p)
            xf, yf = cls.witness
            tol = 1e-9 * (1.0 + ELLIPTIC.coeff_scale())
            if abs(xf) <= tol or abs(yf) <= tol:
                assert cls.kind is SigmaKind.TANGENCY
            elif xf * yf > 0:
                assert cls.kind is SigmaKind.CROSSING
            elif xf < 0 < yf:
                assert cls.kind is SigmaKind.STABLE_SLIDING
            else:
                assert cls.kind is SigmaKind.UNSTABLE_SLIDING

    def test_swap_symmetry(self):
        swapped = PiecewiseSystem(ELLIPTIC.Y, ELLIPTIC.X, ELLIPTIC.box)
        rng = np.random.default_rng(1)
        swap = {
            SigmaKind.STABLE_SLIDING: SigmaKind.UNSTABLE_SLIDING,
            SigmaKind.UNSTABLE_SLIDING: SigmaKind.STABLE_SLIDING,
            SigmaKind.CROSSING: SigmaKind.CROSSING,
            SigmaKind.TANGENCY: SigmaKind.TANGENCY,
        }
        for _ in range(200):
            p = (rng.uniform(-1, 1), rng.uniform(-1, 1), 0.0)
            a = classify_point(ELLIPTIC, p)
            b = classify_point(swapped, p)
            assert b.kind is swap[a.kind]
            assert b.witness == (a.witness[1], a.witness[0])


class TestTangencyType:
    def test_elliptic_origin_is_t_singularity(self):
        info = tangency_type(ELLIPTIC, (0.0, 0.0, 0.0))
        assert info.ttype is TangencyType.FOLD_FOLD
        assert info.subtype is FoldFoldSubtype.INVISIBLE
        assert info.transversal

    def test_fold_regular(self):
        Z = PiecewiseSystem(
            field(0.0, 1.0, Poly3({(0, 1, 0): -1.0})), field(0.0, 0.0, 1.0)
        )
        info = tangency_type(Z, (0.0, 0.0, 0.0))
        assert info.ttype is TangencyType.FOLD_REGULAR
        # a fold builds no third derivative: only a cusp candidate reads it
        assert "x3f" not in vars(Z)

    def test_degenerate_higher_order_contact(self):
        # Xf = y^2: the second derivative vanishes on the whole line and the
        # gradient independence test fails, so no cusp verdict is possible.
        Z = PiecewiseSystem(
            field(0.0, 1.0, Poly3({(0, 2, 0): 1.0})), field(0.0, 0.0, 1.0)
        )
        info = tangency_type(Z, (0.0, 0.0, 0.0))
        assert info.ttype is TangencyType.DEGENERATE

    def test_cusp_regular(self):
        # Xf = y + x^2: fold degenerates at the origin but the third
        # derivative and the gradient independence survive.
        Z = PiecewiseSystem(
            field(1.0, 0.0, Y_VAR + X_VAR * X_VAR), field(0.0, 0.0, 1.0)
        )
        info = tangency_type(Z, (0.0, 0.0, 0.0))
        assert info.ttype is TangencyType.CUSP_REGULAR
        assert "x3f" in vars(Z)

    def test_regular_fold(self):
        Z = PiecewiseSystem(
            field(0.0, 0.0, -1.0), field(0.0, 1.0, Poly3({(0, 1, 0): -1.0}))
        )
        info = tangency_type(Z, (0.0, 0.0, 0.0))
        assert info.ttype is TangencyType.REGULAR_FOLD
        assert "y3f" not in vars(Z)

    def test_regular_cusp(self):
        # the mirror of test_cusp_regular: Yf = y + x^2 with X transverse
        Z = PiecewiseSystem(
            field(0.0, 0.0, -1.0), field(1.0, 0.0, Y_VAR + X_VAR * X_VAR)
        )
        info = tangency_type(Z, (0.0, 0.0, 0.0))
        assert info.ttype is TangencyType.REGULAR_CUSP
        assert info.detail == "third derivative 2"
        assert "y3f" in vars(Z)

    def test_third_derivative_vanishes(self):
        # Xf = -y^3: the second and third derivatives both vanish at the origin
        Z = PiecewiseSystem(
            field(0.0, 1.0, Poly3({(0, 3, 0): -1.0})), field(0.0, 0.0, 1.0)
        )
        info = tangency_type(Z, (0.0, 0.0, 0.0))
        assert info.ttype is TangencyType.DEGENERATE
        assert info.detail == "third derivative vanishes"

    def test_vanishing_field_at_two_fold(self):
        # both fields tangent, and X = (0, 0, -y) is zero at the origin
        Z = PiecewiseSystem(
            field(0.0, 0.0, Poly3({(0, 1, 0): -1.0})), field(0.0, 1.0, X_VAR)
        )
        info = tangency_type(Z, (0.0, 0.0, 0.0))
        assert info.ttype is TangencyType.DEGENERATE
        assert info.detail == "a field vanishes at the point"
        assert not info.transversal

    def test_degenerate_fold_at_two_fold(self):
        # both fields tangent, but X = (1, 0, -y) flows along its tangency
        # line, so X^2 f = 0 there
        Z = PiecewiseSystem(
            field(1.0, 0.0, Poly3({(0, 1, 0): -1.0})), field(1.0, 0.0, X_VAR)
        )
        info = tangency_type(Z, (0.0, 0.0, 0.0))
        assert info.ttype is TangencyType.DEGENERATE
        assert info.detail == "a fold is degenerate (second derivative 0)"
        assert not info.transversal

    def test_subtype_table(self):
        expected = {
            (-1.0, 1.0): FoldFoldSubtype.INVISIBLE,
            (1.0, -1.0): FoldFoldSubtype.VISIBLE_VISIBLE,
            (-1.0, -1.0): FoldFoldSubtype.INVISIBLE_VISIBLE,
            (1.0, 1.0): FoldFoldSubtype.VISIBLE_INVISIBLE,
        }
        for (delta, gamma), subtype in expected.items():
            system = build_normal_form(0.8, -0.6, gamma, delta)
            info = tangency_type(system, (0.0, 0.0, 0.0))
            assert info.ttype is TangencyType.FOLD_FOLD
            assert info.subtype is subtype


class TestFoldTransversality:
    """Transversality of the tangency lines at a fold-fold point, with the
    planar gradient determinant of Xf and Yf that decides it."""

    ORIGIN = (0.0, 0.0, 0.0)

    def _det(self, system):
        return _gradient_det(system.xf, system.yf, self.ORIGIN)[0]

    def test_elliptic_transversal(self):
        info = tangency_type(ELLIPTIC, self.ORIGIN)
        assert info.ttype is TangencyType.FOLD_FOLD
        assert info.transversal
        assert self._det(ELLIPTIC) == pytest.approx(1.0)

    def test_parallel_tangency_lines(self):
        # Yf = y + x^2 has the same tangent line direction as Xf = -y.
        Z = PiecewiseSystem(
            field(-1.0, 1.0, Poly3({(0, 1, 0): -1.0})),
            field(1.0, -1.0, Y_VAR + X_VAR * X_VAR),
        )
        info = tangency_type(Z, self.ORIGIN)
        assert info.ttype is TangencyType.DEGENERATE
        assert not info.transversal
        assert self._det(Z) == pytest.approx(0.0, abs=1e-12)

    def test_higher_order_terms_ignored_at_origin(self):
        system = build_normal_form(
            -1.0, -1.0, 1.0, -1.0, hot={"cz": [[[1, 1, 0], 1.0]]}
        )
        info = tangency_type(system, self.ORIGIN)
        assert info.ttype is TangencyType.FOLD_FOLD
        assert info.transversal
        assert self._det(system) == pytest.approx(1.0)

    def test_precondition(self):
        # the transversality test sits behind tangency_type's band check
        with pytest.raises(PreconditionError, match="not in the tangency band"):
            tangency_type(ELLIPTIC, (0.5, 0.5, 0.0))


def _gradient_polynomials_det(a, b, point):
    """Reference route for ``_gradient_det``: build each planar gradient
    with ``gradient_on_sigma`` and evaluate its entries at the point."""
    (ax, ay), (bx, by) = ([g.eval_at(point) for g in gradient_on_sigma(p)] for p in (a, b))
    return ax * by - ay * bx, max(abs(ax), abs(ay), abs(bx), abs(by))


class TestGradientDet:
    """The planar gradient determinant read from the polynomials' terms."""

    ORIGIN = (0.0, 0.0, 0.0)

    def test_bits_match_gradient_polynomials(self):
        rng = random.Random(29)
        seen = {"empty": 0, "z-term": 0, "exponent 1": 0, "exponent > 1": 0}

        def poly():
            terms = {}
            for _ in range(rng.randrange(7)):
                exps = (rng.randrange(4), rng.randrange(4), rng.choice((0, 0, 1, 2)))
                terms[exps] = rng.uniform(-2.0, 2.0)
            p = Poly3(terms)
            seen["empty"] += p.is_zero()
            seen["z-term"] += any(e[2] for e in p.terms)
            seen["exponent 1"] += any(1 in e[:2] for e in p.terms)
            seen["exponent > 1"] += any(max(e[:2]) > 1 for e in p.terms)
            return p

        for _ in range(2000):
            a, b = poly(), poly()
            point = (rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5), 0.0)
            want = _gradient_polynomials_det(a, b, point)
            got = _gradient_det(a, b, point)
            assert [v.hex() for v in got] == [v.hex() for v in want], (a, b, point)
        assert min(seen.values()) >= 100, seen

    @pytest.mark.parametrize("side", ["X", "Y"])
    def test_cusp(self, side):
        # Xf = y, X^2 f = x, X^3 f = 1: the gradients (0, 1) and (1, 0) are independent
        tangent = field(1.0, X_VAR, Y_VAR)
        Z = (PiecewiseSystem(tangent, field(0.0, 0.0, 1.0)) if side == "X"
             else PiecewiseSystem(field(0.0, 0.0, -1.0), tangent))
        info = _fold_or_cusp(Z, self.ORIGIN, default_tolerance(Z), side)
        assert info.ttype is (TangencyType.CUSP_REGULAR if side == "X"
                              else TangencyType.REGULAR_CUSP)
        assert info.detail == "third derivative 1"

    @pytest.mark.parametrize("side", ["X", "Y"])
    def test_gradient_independence_fails(self, side):
        # Xf = x^2 has a zero planar gradient at the origin, while
        # X^2 f = 2x and X^3 f = 2 pass the two derivative tests
        tangent = field(1.0, 0.0, X_VAR * X_VAR)
        Z = (PiecewiseSystem(tangent, field(0.0, 0.0, 1.0)) if side == "X"
             else PiecewiseSystem(field(0.0, 0.0, -1.0), tangent))
        info = _fold_or_cusp(Z, self.ORIGIN, default_tolerance(Z), side)
        assert info.ttype is TangencyType.DEGENERATE
        assert info.detail == "gradient independence fails (0)"


class TestTangencyCurves:
    def test_axes(self):
        curves = tangency_curves(ELLIPTIC)
        assert len(curves["X"]) == 1
        assert len(curves["Y"]) == 1
        assert np.max(np.abs(np.asarray(curves["X"][0].points)[:, 1])) <= 1e-10
        assert np.max(np.abs(np.asarray(curves["Y"][0].points)[:, 0])) <= 1e-10

    def test_parabola(self):
        system = build_normal_form(
            -1.0, -1.0, 1.0, -1.0, hot={"cz": [[[0, 2, 0], 1.0]]}
        )
        curves = tangency_curves(system)
        pts = np.asarray(curves["Y"][0].points)
        assert np.max(np.abs(pts[:, 0] + pts[:, 1] ** 2)) <= 1e-9

    def test_no_tangency(self):
        Z = PiecewiseSystem(field(0.0, 1.0, 1.0), ELLIPTIC.Y)
        assert tangency_curves(Z)["X"] == []

    def test_span(self):
        # curves are traced across the whole box, not just near the seed
        curves = tangency_curves(ELLIPTIC)
        xs = np.asarray(curves["X"][0].points)[:, 0]
        assert xs.min() < -0.9 and xs.max() > 0.9

    def test_degenerate_zero_gradient_flagged_partial(self):
        # Xf = x^2: the gradient vanishes on the zero set itself, so no
        # continuation is possible; output is flagged incomplete
        Z = PiecewiseSystem(
            field(1.0, 0.0, Poly3({(2, 0, 0): 1.0})), field(0.0, 0.0, 1.0)
        )
        curves = tangency_curves(Z)["X"]
        assert curves
        assert all(not c.complete for c in curves)


def _sides(xf, yf):
    """A system whose fold lines on {z = 0} are the zero sets of ``xf`` and
    ``yf`` on the default box."""
    return PiecewiseSystem(field(1.0, 0.0, xf), field(0.0, 1.0, yf))


def _curve_family():
    one = Poly3.constant
    circle = X_VAR * X_VAR + Y_VAR * Y_VAR - one(0.25)
    right = (X_VAR - one(0.5)) * (X_VAR - one(0.5)) + Y_VAR * Y_VAR - one(0.04)
    left = (X_VAR + one(0.5)) * (X_VAR + one(0.5)) + Y_VAR * Y_VAR - one(0.04)
    # X: a closed curve, Y: two closed components; X leaves the box, Y is a
    # singular crossing; X has a cusp, Y gives x^2 markers; X has no zero.
    family = [
        _sides(circle, right * left),
        _sides(X_VAR - one(0.3) * Y_VAR - one(0.1), X_VAR * Y_VAR),
        _sides(Y_VAR * Y_VAR - X_VAR * X_VAR * X_VAR, X_VAR * X_VAR),
        _sides(one(1.0) + X_VAR * X_VAR + Y_VAR * Y_VAR, X_VAR * Y_VAR * Y_VAR - Y_VAR + one(0.2)),
        build_normal_form(-1.0, -1.0, 1.0, -1.0, hot={"cz": [[[0, 2, 0], 1.0]]}),
    ]
    rng = np.random.default_rng(20)
    cubic = [(i, j, 0) for i in range(4) for j in range(4 - i)]
    for _ in range(12):  # 24 random cubics
        xf, yf = (Poly3(dict(zip(cubic, rng.uniform(-1.0, 1.0, len(cubic))))) for _ in range(2))
        family.append(_sides(xf, yf))
    return family


class TestTangencyCurvesPinned:
    """Every traced point, bit for bit, with each curve's ``closed`` and
    ``complete`` flags, per side and in order, over a fixed family: closed
    curves, curves that leave the box, a singular crossing, a cusp, x^2
    markers, a polynomial with no zero and 24 seeded random cubics."""

    DIGEST = "cef5b3c304ee306b9c755877db9ba5b8d22be04299b1c84765b60165a9a6b568"

    def test_digest(self):
        digest = hashlib.sha256()
        for system in _curve_family():
            for side, curves in tangency_curves(system).items():
                digest.update(side.encode())
                for curve in curves:
                    digest.update(f"{curve.closed},{curve.complete};".encode())
                    for x, y in curve.points:
                        digest.update(f"{float(x).hex()},{float(y).hex()};".encode())
        assert digest.hexdigest() == self.DIGEST

    def test_family_shapes(self):
        curves = [tangency_curves(system) for system in _curve_family()[:4]]
        assert [c.closed for c in curves[0]["X"]] == [True]
        assert [c.closed for c in curves[0]["Y"]] == [True, True]
        assert [c.closed for c in curves[1]["X"]] == [False]
        assert len(curves[1]["Y"]) == 4 and not any(c.complete for c in curves[1]["Y"][:2])
        assert all(len(c.points) == 1 and not c.complete for c in curves[2]["Y"])
        assert curves[3]["X"] == []
