import functools
import math

import numpy as np
import pytest

from foldatlas import foldfold
from foldatlas.algebra import Poly3, VectorField3
from foldatlas.foldfold import (
    NormalParameters,
    foldfold_sliding_linearization,
    make_parameters,
    mirror_parameters,
    report_from_params,
    sliding_region_class,
)
from foldatlas.integrator import _sliding_kernel
from foldatlas.sliding import SlidingRegionTag, normalized_sliding_field, parabolic_cell
from foldatlas.sigma import FoldFoldSubtype
from foldatlas.system import PiecewiseSystem, build_normal_form

ELLIPTIC = build_normal_form(-1.0, -1.0, 1.0, -1.0)


def const_field(cx, cy, cz):
    return VectorField3(Poly3.constant(cx), Poly3.constant(cy), Poly3.constant(cz))


def _sliding_field(system):
    """The sliding kernel's evaluator ``(x, y) -> field``, read with its binding."""
    p, field = _sliding_kernel(system)[:2]
    return functools.partial(field, p)


class TestSlidingField:
    """The rational sliding field, as the sliding kernel's evaluator."""

    def test_constant_fields(self):
        Z = PiecewiseSystem(const_field(1, 0, -1), const_field(0, 1, 1))
        fld = _sliding_field(Z)
        assert fld(0.3, -0.2) == (0.5, 0.5)

    def test_elliptic_point(self):
        fld = _sliding_field(ELLIPTIC)
        assert fld(1.0, 1.0) == (0.0, 0.0)

    def test_denominator_zero(self):
        # Yf - Xf = 0 at every point: the evaluator raises rather than return
        # a non-finite field (the driver stops at the denominator event first)
        Z = PiecewiseSystem(const_field(1, 0, 1), const_field(0, 1, 1))
        fld = _sliding_field(Z)
        with pytest.raises(ZeroDivisionError):
            fld(0.0, 0.0)

    def test_tangency_identity_symbolic(self):
        # z-component of the numerator cancels identically
        rng = np.random.default_rng(5)
        for _ in range(10):
            terms = lambda: Poly3(
                {
                    (int(rng.integers(0, 3)), int(rng.integers(0, 3)), int(rng.integers(0, 2))): float(
                        rng.uniform(-2, 2)
                    )
                    for _ in range(4)
                }
            )
            Z = PiecewiseSystem(
                VectorField3(terms(), terms(), terms()),
                VectorField3(terms(), terms(), terms()),
            )
            zc = (Z.yf * Z.X.cz - Z.xf * Z.Y.cz).subs_z0()
            assert zc.is_zero()
            for _ in range(100):
                x, y = rng.uniform(-1, 1, size=2)
                xf = Z.xf.eval(x, y, 0.0)
                yf = Z.yf.eval(x, y, 0.0)
                assert abs(yf * xf - xf * yf) < 1e-12

    def test_reparametrization_sign(self):
        rng = np.random.default_rng(6)
        fld = _sliding_field(ELLIPTIC)
        nrm = normalized_sliding_field(ELLIPTIC)
        checked = 0
        while checked < 1000:
            x, y = rng.uniform(-1, 1, size=2)
            xf = ELLIPTIC.xf.eval(x, y, 0.0)
            yf = ELLIPTIC.yf.eval(x, y, 0.0)
            if abs(xf) < 1e-3 or abs(yf) < 1e-3 or xf * yf > 0:
                continue
            checked += 1
            factor = yf - xf
            fz = fld(x, y)
            fn = nrm.eval(x, y)
            assert fn[0] == pytest.approx(factor * fz[0], rel=1e-12, abs=1e-12)
            assert fn[1] == pytest.approx(factor * fz[1], rel=1e-12, abs=1e-12)
            if xf < 0 < yf:
                assert factor > 0
            else:
                assert factor < 0


class TestNormalizedField:
    def test_elliptic_linear_part(self):
        fld = normalized_sliding_field(ELLIPTIC)
        assert fld.px == Poly3({(1, 0, 0): -1.0, (0, 1, 0): 1.0})
        assert fld.py == Poly3({(1, 0, 0): 1.0, (0, 1, 0): -1.0})

    def test_constant_fields(self):
        Z = PiecewiseSystem(const_field(1, 0, -1), const_field(0, 1, 1))
        fld = normalized_sliding_field(Z)
        assert fld.eval(0.0, 0.0) == (1.0, 1.0)

    def test_hyperbolic_linear_part(self):
        system = build_normal_form(1.0, -1.0, -1.0, 1.0)
        fld = normalized_sliding_field(system)
        m = fld.jacobian_at(0.0, 0.0)
        assert np.allclose(m, [[1.0, 1.0], [1.0, 1.0]])


class TestLinearization:
    def test_degenerate_elliptic(self):
        m = foldfold_sliding_linearization(make_parameters(-1, -1, 1, -1))
        assert np.allclose(m, [[-1.0, 1.0], [1.0, -1.0]])
        assert sorted(np.linalg.eigvals(m).real) == pytest.approx([-2.0, 0.0])

    def test_stable_node(self):
        m = foldfold_sliding_linearization(make_parameters(-2, -1, 1, -1))
        assert np.allclose(m, [[-2.0, 1.0], [1.0, -1.0]])
        tr = m[0][0] + m[1][1]
        det = np.linalg.det(m)
        assert det == pytest.approx(1.0)
        assert tr == pytest.approx(-3.0)
        assert all(v.imag == 0 and v.real < 0 for v in np.linalg.eigvals(m))

    def test_unstable_case(self):
        m = foldfold_sliding_linearization(make_parameters(1, -1, -0.5, 1))
        assert np.allclose(m, [[1.0, 0.5], [1.0, 1.0]])
        assert m[0][0] + m[1][1] == pytest.approx(2.0)
        assert np.linalg.det(m) == pytest.approx(0.5)
        assert all(v.real > 0 for v in np.linalg.eigvals(m))


class TestRegionClass:
    def test_re1(self):
        tag = sliding_region_class(make_parameters(-1, -1, 0.5, -1))
        assert tag is SlidingRegionTag.RE1
        assert tag.claim.value == 1

    def test_re2(self):
        tag = sliding_region_class(make_parameters(1, 1, 1, -1))
        assert tag is SlidingRegionTag.RE2
        assert tag.claim.value == 2

    def test_rp1(self):
        tag = sliding_region_class(make_parameters(-1, 1.5, -1, -1))
        assert tag is SlidingRegionTag.RP1
        assert tag.claim.value == 4

    def test_rh_tags(self):
        assert sliding_region_class(make_parameters(1, -3, -1, 1)) is SlidingRegionTag.RH1
        assert sliding_region_class(make_parameters(-1, 3, -1, 1)) is SlidingRegionTag.RH2
        assert sliding_region_class(make_parameters(0.5, 0.5, -1, 1)) is SlidingRegionTag.RH2

    def test_rp_tags(self):
        assert sliding_region_class(make_parameters(1, -3, -1, -1)) is SlidingRegionTag.RP2
        assert sliding_region_class(make_parameters(4, -0.3, -4, -1)) is SlidingRegionTag.RP3
        assert sliding_region_class(make_parameters(-1, -3.5, -1, -1)) is SlidingRegionTag.RP4
        # open complement: above the hyperbola but inside the wedge
        assert (
            sliding_region_class(make_parameters(0.2, 0.2, -1, -1))
            is SlidingRegionTag.BIFURCATION_BOUNDARY
        )

    def test_boundary_band(self):
        tag = sliding_region_class(make_parameters(-1.0, -1.0, 1.0, -1))
        assert tag is SlidingRegionTag.BIFURCATION_BOUNDARY
        assert tag.claim.value == 8

    def test_visible_invisible_mirror(self):
        params = make_parameters(1.0, -2.0, 4.0, 1.0)
        m = mirror_parameters(params)
        assert (m.alpha, m.beta, m.gamma, m.delta) == (1.0, 0.5, -1.0, -1.0)
        assert sliding_region_class(params) is sliding_region_class(m)

    @pytest.mark.parametrize("subtype", list(FoldFoldSubtype))
    def test_region_is_the_reports_without_its_analysis(self, subtype, monkeypatch):
        # a grid plus points on, and within BOUNDARY_BAND of, every region
        # boundary: a*b = g, the parabolic wedge edges b - a = -2 sqrt(-g)
        # and a + b = -2 sqrt(g) (its mirror), a = 0, b = 0, a = b and a = -b
        d = -1.0 if subtype in (FoldFoldSubtype.INVISIBLE,
                                FoldFoldSubtype.INVISIBLE_VISIBLE) else 1.0
        sg = 1.0 if subtype in (FoldFoldSubtype.INVISIBLE,
                                FoldFoldSubtype.VISIBLE_INVISIBLE) else -1.0
        grid = [-3.0 + 0.5 * k for k in range(13)]
        points = []
        for g in (0.37 * sg, sg, 2.9 * sg):
            s = 2.0 * math.sqrt(abs(g))
            points += [(a, b, g) for a in grid for b in grid]
            for a in grid:
                for e in (0.0, 3e-10, -3e-10):
                    points += [(a, (a - s) * (1 + e), g), (a, (-a - s) * (1 + e), g),
                               (e, a, g), (a, e, g), (a, a * (1 + e), g), (a, -a * (1 + e), g)]
                    if a:
                        points.append((a, g / a * (1 + e), g))
        params = [make_parameters(a, b, g, d) for a, b, g in points]
        assert all(p.subtype is subtype for p in params)
        calls = []

        def counted(name):
            fn = getattr(foldfold, name)
            monkeypatch.setattr(foldfold, name, lambda *args: calls.append(name) or fn(*args))

        for name in ("_return_map", "_tsingularity_verdict", "_parabolic_core"):
            counted(name)
        # The visible-visible and invisible-visible cores are held by the
        # dispatch table itself: count the subtype's core there.
        region_of, core = foldfold._SUBTYPES[subtype]
        monkeypatch.setitem(foldfold._SUBTYPES, subtype,
                            (region_of, lambda *args: calls.append("core") or core(*args)))
        tags = [sliding_region_class(p) for p in params]
        assert calls == []
        assert tags == [report_from_params(p).region for p in params]
        assert calls  # the counters see the report's analysis and verdicts
        assert SlidingRegionTag.BIFURCATION_BOUNDARY in tags

    def test_region_follows_the_derived_subtype(self):
        # no subtype can be passed, so no region call sees one that
        # contradicts (delta, sign gamma)
        with pytest.raises(TypeError):
            NormalParameters(1.0, 1.0, 1.0, -1.0, FoldFoldSubtype.VISIBLE_VISIBLE)
        params = make_parameters(1.0, 1.0, 1.0, -1.0)
        assert params.subtype is FoldFoldSubtype.INVISIBLE
        assert sliding_region_class(params) is SlidingRegionTag.RE2

    def test_parabolic_cell_of_the_wedge(self):
        # the open wedge is no region: its cell is None, its class a boundary
        for a, b, g in ((0.2, 0.2, -1.0), (2.0, 1.0, -1.0)):
            assert parabolic_cell(a, b, g) is None
            tag = sliding_region_class(make_parameters(a, b, g, -1.0))
            assert tag is SlidingRegionTag.BIFURCATION_BOUNDARY
        # on its edges the cell itself is the boundary
        assert parabolic_cell(0.5, -1.5, -1.0) is SlidingRegionTag.BIFURCATION_BOUNDARY
        assert parabolic_cell(1.0, -1.0, -1.0) is SlidingRegionTag.BIFURCATION_BOUNDARY
        for x in (math.nan, math.inf, -math.inf):
            assert parabolic_cell(x, 1.3, -1.0) is SlidingRegionTag.BIFURCATION_BOUNDARY
            assert parabolic_cell(-0.7, x, -1.0) is SlidingRegionTag.BIFURCATION_BOUNDARY

    def test_rescaling_invariance(self):
        rng = np.random.default_rng(9)
        for _ in range(300):
            d = float(rng.choice((-1.0, 1.0)))
            g = float(rng.choice((-1.0, 1.0))) * rng.uniform(0.3, 2.0)
            a, b = rng.uniform(-3, 3, size=2)
            if abs(a * b - g) < 1e-4 or abs(a) < 1e-3 or abs(b) < 1e-3:
                continue
            if g < 0 and abs((b - a) + 2 * math.sqrt(-g)) < 1e-4:
                continue
            if abs(a + b) < 1e-4:
                continue
            base = sliding_region_class(make_parameters(a, b, g, d))
            for e in (0.1, 0.5, 2.0, 10.0):
                scaled = sliding_region_class(make_parameters(e * a, e * b, e * e * g, d))
                assert scaled is base
