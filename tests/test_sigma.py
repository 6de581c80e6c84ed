import numpy as np
import pytest

from foldatlas.algebra import Poly3, VectorField3
from foldatlas.errors import PreconditionError
from foldatlas.sigma import (
    FoldFoldSubtype,
    SigmaKind,
    TangencyType,
    classify_point,
    fold_transversality,
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

    def test_regular_fold(self):
        Z = PiecewiseSystem(
            field(0.0, 0.0, -1.0), field(0.0, 1.0, Poly3({(0, 1, 0): -1.0}))
        )
        info = tangency_type(Z, (0.0, 0.0, 0.0))
        assert info.ttype is TangencyType.REGULAR_FOLD

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
    def test_elliptic_transversal(self):
        witness = fold_transversality(ELLIPTIC, (0.0, 0.0, 0.0))
        assert witness.transversal
        assert witness.determinant == pytest.approx(1.0)

    def test_parallel_tangency_lines(self):
        # Yf = y + x^2 has the same tangent line direction as Xf = -y.
        Z = PiecewiseSystem(
            field(-1.0, 1.0, Poly3({(0, 1, 0): -1.0})),
            field(1.0, -1.0, Y_VAR + X_VAR * X_VAR),
        )
        witness = fold_transversality(Z, (0.0, 0.0, 0.0))
        assert not witness.transversal
        assert witness.determinant == pytest.approx(0.0, abs=1e-12)

    def test_higher_order_terms_ignored_at_origin(self):
        system = build_normal_form(
            -1.0, -1.0, 1.0, -1.0, hot={"cz": [[[1, 1, 0], 1.0]]}
        )
        witness = fold_transversality(system, (0.0, 0.0, 0.0))
        assert witness.transversal
        assert witness.determinant == pytest.approx(1.0)

    def test_precondition(self):
        with pytest.raises(PreconditionError):
            fold_transversality(ELLIPTIC, (0.5, 0.5, 0.0))


class TestTangencyCurves:
    def test_axes(self):
        curves = tangency_curves(ELLIPTIC)
        assert len(curves["X"]) == 1
        assert len(curves["Y"]) == 1
        assert np.max(np.abs(curves["X"][0].points[:, 1])) <= 1e-10
        assert np.max(np.abs(curves["Y"][0].points[:, 0])) <= 1e-10

    def test_parabola(self):
        system = build_normal_form(
            -1.0, -1.0, 1.0, -1.0, hot={"cz": [[[0, 2, 0], 1.0]]}
        )
        curves = tangency_curves(system)
        pts = curves["Y"][0].points
        assert np.max(np.abs(pts[:, 0] + pts[:, 1] ** 2)) <= 1e-9

    def test_no_tangency(self):
        Z = PiecewiseSystem(field(0.0, 1.0, 1.0), ELLIPTIC.Y)
        assert tangency_curves(Z)["X"] == []

    def test_span(self):
        # curves are traced across the whole box, not just near the seed
        curves = tangency_curves(ELLIPTIC)
        xs = curves["X"][0].points[:, 0]
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
