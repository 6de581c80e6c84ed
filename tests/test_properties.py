"""Property tests: Poly3 ring and Leibniz identities, the bitwise round
trip of serialized systems, rescaling invariance of two-fold reports, the
plain-float return map and involutivity of the numeric fold map.

Ring identities use small integer coefficients, so every float operation is
exact and the identities hold with ``==`` rather than up to rounding.
"""

import math
import struct

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given = hypothesis.given

from foldatlas.algebra import Poly3, VectorField3, lie_derivative  # noqa: E402
from foldatlas.checks import _clear_of_boundaries, _verdict_signature  # noqa: E402
from foldatlas.foldfold import make_parameters, report_from_params  # noqa: E402
from foldatlas.integrator import fold_map_numeric  # noqa: E402
from foldatlas.system import (  # noqa: E402
    Box,
    PiecewiseSystem,
    build_normal_form,
    load_system,
    serialize_system,
)
from test_foldfold import check_float_core  # noqa: E402

# Total degree <= 6: triple products stay under the algebra's degree cap
# and single polynomials under the input cap of serialized systems.
_EXPONENTS = st.tuples(*[st.integers(0, 2)] * 3)


def _polys(coeffs, max_terms=6):
    return st.dictionaries(_EXPONENTS, coeffs, max_size=max_terms).map(Poly3)


int_polys = _polys(st.integers(-8, 8).map(float))
int_fields = st.builds(VectorField3, int_polys, int_polys, int_polys)

finite = st.floats(allow_nan=False, allow_infinity=False)
float_polys = _polys(finite)
float_fields = st.builds(VectorField3, float_polys, float_polys, float_polys)


class TestRing:
    @given(int_polys, int_polys)
    def test_commutative(self, p, q):
        assert p + q == q + p
        assert p * q == q * p

    @given(int_polys, int_polys, int_polys)
    def test_associative(self, p, q, r):
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)

    @given(int_polys, int_polys, int_polys)
    def test_distributive(self, p, q, r):
        assert p * (q + r) == p * q + p * r

    @given(int_polys)
    def test_identities_and_inverse(self, p):
        one = Poly3.constant(1.0)
        assert p + Poly3.zero() == p
        assert p * one == p
        assert (p - p).is_zero()
        assert (p * Poly3.zero()).is_zero()


class TestLeibniz:
    @given(int_fields, int_polys, int_polys)
    def test_product_rule(self, field, p, q):
        lhs = lie_derivative(field, p * q)
        rhs = lie_derivative(field, p) * q + p * lie_derivative(field, q)
        assert lhs == rhs

    @given(int_fields, int_polys, int_polys)
    def test_linear_in_the_function(self, field, p, q):
        assert lie_derivative(field, p + q) == lie_derivative(field, p) + lie_derivative(field, q)

    @given(int_fields, int_fields, int_polys)
    def test_linear_in_the_field(self, f, g, p):
        fg = VectorField3(f.cx + g.cx, f.cy + g.cy, f.cz + g.cz)
        assert lie_derivative(fg, p) == lie_derivative(f, p) + lie_derivative(g, p)


def _bits(poly):
    return {e: struct.pack("<d", c) for e, c in poly.terms.items()}


boxes = st.lists(
    st.floats(-1e6, 1e6, allow_nan=False), min_size=3, max_size=3
).flatmap(
    lambda lows: st.lists(
        st.floats(1e-3, 1e6, allow_nan=False), min_size=3, max_size=3
    ).map(
        lambda spans: Box(
            lows[0], lows[0] + spans[0], lows[1], lows[1] + spans[1],
            -spans[2] * 0.5, spans[2],
        )
    )
)


class TestSerializeRoundTrip:
    @given(float_fields, float_fields, boxes, st.text(max_size=12))
    def test_bitwise(self, X, Y, box, name):
        system = PiecewiseSystem(X, Y, box, name)
        text = serialize_system(system)
        again = load_system(text)
        for before, after in zip(
            X.components() + Y.components(), again.X.components() + again.Y.components()
        ):
            assert _bits(after) == _bits(before)
        assert again.box.as_tuple() == box.as_tuple()
        assert all(math.isfinite(v) for v in again.box.as_tuple())
        assert again.name == name
        assert serialize_system(again) == text


def _report_signature(params):
    report = report_from_params(params)
    analysis = report.analysis
    if analysis is not None:
        analysis = (
            analysis.fixed_point_class,
            analysis.location_contracting,
            analysis.location_expanding,
        )
    return report.region, _verdict_signature(report.verdict), analysis


class TestRescalingInvariance:
    """(a, b, g) -> (e a, e b, e^2 g) is a time and space rescaling of the
    normal form, so no report verdict may change (Jeffrey & Colombo 2009)."""

    @given(
        st.floats(-3.0, 3.0),
        st.floats(-3.0, 3.0),
        st.floats(0.2, 3.0),
        st.sampled_from([(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)]),
        st.floats(0.1, 10.0),
    )
    def test_report_verdicts(self, a, b, g_abs, signs, e):
        g, d = signs[0] * g_abs, signs[1]
        hypothesis.assume(_clear_of_boundaries(a, b, g, d))
        base = make_parameters(a, b, g, d)
        scaled = make_parameters(e * a, e * b, e * e * g, d)
        assert _report_signature(scaled) == _report_signature(base)


class TestFloatCore:
    """The closed-form return map is the plain-float formula, and its saddle
    eigenvectors are unit and satisfy their own eigenvalue equations."""

    @given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(0.2, 3.0))
    def test_return_map(self, a, b, g):
        hypothesis.assume(abs(a * b * (a * b - g)) > 1e-6)
        check_float_core(a, b, g)


_SMALL = st.floats(-0.5, 0.5)


class TestFoldMapInvolution:
    """Applied twice, the numeric fold map of an invisible fold returns to
    its start (Teixeira 1990), also with higher-order terms."""

    @hypothesis.settings(max_examples=15)
    @given(
        st.floats(-2.0, 2.0),
        st.floats(-2.0, 2.0),
        st.floats(0.3, 2.0),
        st.tuples(*[_SMALL] * 5),
        st.sampled_from(["X", "Y"]),
        st.floats(0.005, 0.1),
        st.floats(0.0, 2.0 * math.pi),
    )
    def test_twice_is_identity(self, a, b, g, hot, side, r, th):
        system = build_normal_form(a, b, g, -1.0, hot={
            "cx": [[[1, 0, 0], hot[0]], [[0, 0, 1], hot[1]]],
            "cy": [[[0, 1, 0], hot[2]]],
            "cz": [[[2, 0, 0], hot[3]], [[1, 1, 0], hot[4]]],
        })
        q = (r * math.cos(th), r * math.sin(th))
        image = fold_map_numeric(system, side, q)
        back = fold_map_numeric(system, side, image)
        assert math.hypot(back[0] - q[0], back[1] - q[1]) <= 1e-6
