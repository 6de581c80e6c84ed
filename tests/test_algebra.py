import itertools
import math
import struct

import numpy as np
import pytest

try:
    from hypothesis import given
    from hypothesis import strategies as st
except ImportError:  # the property tests at the end of this file need hypothesis
    given = None

from foldatlas.algebra import (
    MAX_TOTAL_DEGREE,
    DegreeCapError,
    Poly3,
    VectorField3,
    _shape,
    gradient_on_sigma,
    lie_derivative,
    linspace,
)
from foldatlas import integrator
from foldatlas.system import PiecewiseSystem, build_normal_form, load_system, serialize_system


def p_const(c):
    return Poly3.constant(c)


X = Poly3.variable("x")
Y = Poly3.variable("y")
Z = Poly3.variable("z")


def approx_equal(p, q, tol=1e-12):
    """Coefficientwise equality within ``tol * (1 + the larger coefficient
    scale)``."""
    scale = 1.0 + max(p.coeff_scale(), q.coeff_scale())
    return all(
        abs(p.terms.get(k, 0.0) - q.terms.get(k, 0.0)) <= tol * scale
        for k in set(p.terms) | set(q.terms)
    )


def random_poly(rng, max_degree=3, scale=2.0):
    terms = {}
    for i in range(max_degree + 1):
        for j in range(max_degree + 1 - i):
            for k in range(max_degree + 1 - i - j):
                if rng.random() < 0.35:
                    terms[(i, j, k)] = scale * rng.uniform(-1.0, 1.0)
    return Poly3(terms)


def random_field(rng, max_degree=2):
    return VectorField3(
        random_poly(rng, max_degree),
        random_poly(rng, max_degree),
        random_poly(rng, max_degree),
    )


class TestEval:
    def test_coordinate_projection(self):
        assert Z.eval_at((1.0, 2.0, 3.0)) == 3.0

    def test_direct_arithmetic(self):
        p = X * Y - Z * Z
        assert p.eval_at((2.0, 3.0, 1.0)) == 5.0

    def test_zero_polynomial(self):
        assert Poly3.zero().eval_at((4.0, -7.0, 0.3)) == 0.0

    def test_bitwise_at_special_coordinates(self):
        # eval leaves out the factors of exponent 0; against the full product,
        # the bits and any OverflowError (1e300**2) must be the same.
        def ref(p, x, y, z):
            total = 0.0
            for (i, j, k), c in p.terms.items():
                total += c * x**i * y**j * z**k
            return total

        def outcome(fn, *args):
            try:
                return _bits(fn(*args))
            except OverflowError:
                return "overflow"

        rng = np.random.default_rng(31)
        values = [0.0, -0.0, 1e300, -1e300, math.inf, -math.inf, 0.7]
        for _ in range(30):
            p = random_poly(rng, 3)
            for pt in itertools.product(values, repeat=3):
                assert outcome(p.eval, *pt) == outcome(ref, p, *pt)

    def test_compiled_power_overflows_to_inf(self):
        # Generated code writes x**8 as a product: inf past the float range,
        # where the interpreted eval's ** raises.
        p = Poly3({(8, 0, 0): 2.0})
        assert p.as_expr() == "2.0*(x*x*x*x*x*x*x*x)"
        assert p.compiled()(1e200, 0.0, 0.0) == math.inf
        field = VectorField3(p, -p, Poly3.zero()).compiled()
        assert field(-1e200, 0.0, 0.0) == (math.inf, -math.inf, 0.0)
        with pytest.raises(OverflowError):
            p.eval(1e200, 0.0, 0.0)

    def test_compiled_matches_eval(self):
        rng = np.random.default_rng(3)
        p = random_poly(rng, 4)
        fn = p.compiled()
        for _ in range(50):
            pt = rng.uniform(-2, 2, size=3)
            assert fn(*pt) == pytest.approx(p.eval(*pt), rel=1e-14, abs=1e-14)

    def test_compiled_is_memoized(self):
        rng = np.random.default_rng(4)
        p = random_poly(rng, 3)
        fn = p.compiled()
        assert p.compiled() is fn
        for _ in range(50):
            pt = tuple(rng.uniform(-2, 2, size=3))
            assert fn(*pt) == pytest.approx(p.eval_at(pt), rel=1e-14, abs=1e-14)


class TestPartial:
    def test_dz_z(self):
        assert Z.partial("z") == p_const(1.0)

    def test_dy_xy2(self):
        p = X * Y * Y
        assert p.partial("y") == Poly3({(1, 1, 0): 2.0})

    def test_dx_constant(self):
        assert p_const(5.0).partial("x").is_zero()

    def test_finite_difference(self):
        rng = np.random.default_rng(11)
        h = 1e-6
        for _ in range(20):
            p = random_poly(rng, 4)
            pt = rng.uniform(-1, 1, size=3)
            exact = p.partial("x").eval(*pt)
            fd = (p.eval(pt[0] + h, pt[1], pt[2]) - p.eval(pt[0] - h, pt[1], pt[2])) / (
                2 * h
            )
            assert fd == pytest.approx(exact, rel=1e-8, abs=1e-7)


class TestLieDerivative:
    def test_normal_form_first_derivative(self):
        # X = (-1, 1, -y): derivative of z along X is -y
        field = VectorField3(p_const(-1.0), p_const(1.0), Poly3({(0, 1, 0): -1.0}))
        assert lie_derivative(field, Z) == Poly3({(0, 1, 0): -1.0})

    def test_normal_form_second_derivative(self):
        field = VectorField3(p_const(-1.0), p_const(1.0), Poly3({(0, 1, 0): -1.0}))
        g = Poly3({(0, 1, 0): -1.0})
        assert lie_derivative(field, g) == p_const(-1.0)

    def test_simple_translation(self):
        field = VectorField3(p_const(1.0), p_const(0.0), p_const(0.0))
        assert lie_derivative(field, X * X) == Poly3({(1, 0, 0): 2.0})

    def test_leibniz(self):
        rng = np.random.default_rng(7)
        for _ in range(15):
            field = random_field(rng)
            g = random_poly(rng, 2)
            h = random_poly(rng, 2)
            lhs = lie_derivative(field, g * h)
            rhs = g * lie_derivative(field, h) + h * lie_derivative(field, g)
            assert approx_equal(lhs, rhs, tol=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(8)
        for _ in range(15):
            f1 = random_field(rng)
            f2 = random_field(rng)
            g = random_poly(rng, 3)
            h = random_poly(rng, 3)
            both = VectorField3(f1.cx + f2.cx, f1.cy + f2.cy, f1.cz + f2.cz)
            assert approx_equal(
                lie_derivative(both, g), lie_derivative(f1, g) + lie_derivative(f2, g)
            )
            assert approx_equal(
                lie_derivative(f1, g + h), lie_derivative(f1, g) + lie_derivative(f1, h)
            )

    def test_degree_cap(self):
        with pytest.raises(DegreeCapError):
            Poly3({(25, 0, 0): 1.0})
        big = Poly3({(13, 0, 0): 1.0})
        with pytest.raises(DegreeCapError):
            big * big


class TestGradientOnSigma:
    def test_linear(self):
        g = Poly3({(0, 1, 0): -1.0})
        gx, gy = gradient_on_sigma(g)
        assert gx.is_zero()
        assert gy == p_const(-1.0)

    def test_z_terms_dropped(self):
        g = X + Z * Z
        gx, gy = gradient_on_sigma(g)
        assert gx == p_const(1.0)
        assert gy.is_zero()

    def test_product(self):
        g = X * Y
        gx, gy = gradient_on_sigma(g)
        assert gx == Y
        assert gy == X


class TestHousekeeping:
    def test_zero_pruning_is_exact(self):
        p = X - X
        assert p.is_zero()
        tiny = Poly3({(1, 0, 0): 1e-300})
        assert not tiny.is_zero()

    def test_operations_return_new_objects(self):
        p = X + Y
        q = p + Z
        assert (1, 0, 0) in p.terms and (0, 0, 1) not in p.terms
        assert (0, 0, 1) in q.terms


class TestNegated:
    def test_memoized(self):
        field = random_field(np.random.default_rng(5))
        neg = field.negated()
        assert field.negated() is neg
        assert neg.compiled() is field.negated().compiled()

    def test_compiled_is_exact_negative(self):
        rng = np.random.default_rng(6)
        field = random_field(rng)
        f, g = field.compiled(), field.negated().compiled()
        for _ in range(200):
            p = tuple(rng.uniform(-2.0, 2.0, size=3))
            assert g(*p) == tuple(-v for v in f(*p))

    def test_derived_field_matches_built_one(self):
        # negated() derives its shape and scale from the parent's; a field
        # built from the negated components recomputes both
        rng = np.random.default_rng(23)
        for max_degree in (1, 3, 6):
            for _ in range(4):
                field = random_field(rng, max_degree)
                neg = field.negated()
                built = VectorField3(-field.cx, -field.cy, -field.cz)
                for p, q in zip(neg.components(), built.components()):
                    assert list(p.terms) == list(q.terms)
                    assert _bits(*p.terms.values()) == _bits(*q.terms.values())
                assert neg.shape()[0] == built.shape()[0]
                assert _bits(*neg.shape()[1]) == _bits(*built.shape()[1])
                assert neg.coeff_scale() == built.coeff_scale()
                f = built.compiled()
                steps = integrator._flight_kernel(neg)[1], integrator._flight_kernel(built)[1]
                for _ in range(1000 // 12):
                    y = tuple(float(v) for v in rng.normal(scale=0.5, size=3))
                    h = float(10.0 ** rng.uniform(-6.0, -1.0))
                    k1 = f(*y)
                    assert _step_hexes(steps[0], y, h, k1) == _step_hexes(steps[1], y, h, k1)

    def test_shape_pass_matches_items(self):
        rng = np.random.default_rng(24)
        polys = [Poly3.zero()] + [random_poly(rng, d) for d in (0, 1, 2, 4, 6, 8) for _ in range(3)]
        shapes, coeffs = _shape(polys)
        assert shapes == tuple(tuple(e for e, _ in p.items()) for p in polys)
        assert _bits(*coeffs) == _bits(*(c for p in polys for _, c in p.items()))


def _step_hexes(step, y, h, k1):
    """``float.hex`` of every number a kernel step returns."""
    y_new, k_last, err_norm = step(y, h, k1)
    return [v.hex() for v in (*y_new, *k_last, err_norm)]


class TestSharedEvaluators:
    def test_same_shape_no_crosstalk(self):
        # One shape, two coefficient sets: one factory, two evaluators.
        def field(c):
            return VectorField3(
                Poly3({(0, 0, 0): c, (1, 0, 0): -2.0 * c}),
                Poly3({(0, 1, 0): 3.0 * c}),
                Poly3({(2, 0, 1): c, (0, 0, 0): 0.5}),
            )

        f, g = field(1.0), field(-7.25)
        f_fn, g_fn = f.compiled(), g.compiled()
        assert f_fn.__code__ is g_fn.__code__
        for pt in [(0.3, -1.1, 2.0), (-4.0, 0.5, 0.25)]:
            assert f_fn(*pt) == f.eval_at(pt)
            assert g_fn(*pt) == g.eval_at(pt)
            assert f_fn(*pt) != g_fn(*pt)

    def test_poly_and_field_of_one_shape_do_not_mix(self):
        p = Poly3({(1, 0, 0): 2.0})
        field = VectorField3(p, Poly3.zero(), Poly3.zero())
        assert p.compiled()(3.0, 0.0, 0.0) == 6.0
        assert field.compiled()(3.0, 0.0, 0.0) == (6.0, 0.0, 0.0)

    def test_coeff_scale_is_memoized(self, monkeypatch):
        field = random_field(np.random.default_rng(9))
        expected = max(abs(c) for p in field.components() for c in p.terms.values())
        calls = []
        original = Poly3.coeff_scale
        monkeypatch.setattr(
            Poly3, "coeff_scale", lambda self: calls.append(self) or original(self)
        )
        assert field.coeff_scale() == expected
        assert field.coeff_scale() == expected
        assert len(calls) == 3


    def test_bitwise_on_random_polys(self):
        # Coefficients and points of like size: the summation order and the
        # powers of the literal-coefficient expression show in the bits.
        rng = np.random.default_rng(12)
        for _ in range(200):
            n = int(rng.integers(1, 13))
            exps = [tuple(int(e) for e in rng.multinomial(int(rng.integers(0, 9)), [1 / 3] * 3))
                    for _ in range(n)]
            p = Poly3({e: rng.uniform(-2.0, 2.0) for e in exps})
            field = VectorField3(p, -p, p * p)
            for pt in rng.uniform(-1.5, 1.5, size=(5, 3)):
                pt = tuple(float(v) for v in pt)
                assert _bits(p.compiled()(*pt)) == _bits(_ref_poly_fn(p)(*pt))
                assert _bits(*field.compiled()(*pt)) == _bits(*_ref_field_fn(field)(*pt))


class TestLeanConstructor:
    def test_product_past_the_cap_raises(self):
        p12 = Poly3({(6, 6, 0): 1.0, (0, 0, 1): 2.0})
        assert (p12 * p12).degree() == 24
        with pytest.raises(DegreeCapError):
            p12 * p12 * X
        with pytest.raises(DegreeCapError):
            lie_derivative(VectorField3(p12 * p12, p12, p12), X * X)


def _ref_lie(field, g):
    """The composed arithmetic that ``lie_derivative`` matches."""
    return field.cx * g.partial("x") + field.cy * g.partial("y") + field.cz * g.partial("z")


def _assert_identical(p, q):
    """Same keys in the same order, same key and value types, same bits."""
    assert list(p.terms) == list(q.terms)
    assert [type(e) for k in p.terms for e in k] == [type(e) for k in q.terms for e in k]
    assert [type(c) for c in p.terms.values()] == [type(c) for c in q.terms.values()]
    assert _bits(*p.terms.values()) == _bits(*q.terms.values())


class TestLieDerivativeOnePass:
    def _field_with_hot_terms(self, rng):
        # degree-1 parts plus higher-order terms, coefficients of like size
        return VectorField3(*(random_poly(rng, 1) + random_poly(rng, 3, 0.3) for _ in "xyz"))

    def test_seeded_pin(self):
        rng = np.random.default_rng(2026)
        pairs = []
        for _ in range(25):
            fx, fy = self._field_with_hot_terms(rng), self._field_with_hot_terms(rng)
            xf, yf = lie_derivative(fx, Z), lie_derivative(fy, Z)
            chain = [Z, xf, yf, lie_derivative(fx, xf), lie_derivative(fy, yf),
                     lie_derivative(fx, yf), lie_derivative(fy, xf)]
            pairs += [(field, g) for field in (fx, fy) for g in chain]

        def ints():
            # small integer coefficients: terms cancel in products and sums
            return Poly3({e: float(rng.integers(-2, 3)) for e in random_poly(rng, 2).terms})

        for _ in range(60):
            pairs.append((VectorField3(ints(), ints(), ints()), ints() * ints()))
        empty = Poly3.zero()
        pairs += [
            (VectorField3(Y, X, empty), X * X - Y * Y),  # cancels to zero
            (VectorField3(empty, empty, empty), X * Y * Z),
            (VectorField3(X, empty, empty), Y * Z),
            (VectorField3(X, Y, Z), empty),
        ]
        assert len(pairs) >= 200
        for field, g in pairs:
            _assert_identical(lie_derivative(field, g), _ref_lie(field, g))

    def test_exact_cancellation(self):
        assert lie_derivative(VectorField3(Y, X, Poly3.zero()), X * X - Y * Y).is_zero()

    def test_cancelled_term_reappears_last(self):
        # x and -y cancel the xyz term; z brings it back after x.
        g = X * Y * Z + X
        got = lie_derivative(VectorField3(X, -Y, Z), g)
        assert list(got.terms.items()) == [((1, 0, 0), 1.0), ((1, 1, 1), 1.0)]
        _assert_identical(got, _ref_lie(VectorField3(X, -Y, Z), g))

    def test_product_over_the_cap_raises(self):
        # Both products have degree 25 and cancel in the sum; the composed
        # arithmetic raises on the first, and so must the one pass.
        x12y12 = Poly3({(12, 12, 0): 1.0})
        field = VectorField3(x12y12, Poly3({(11, 13, 0): -1.0}), Poly3.zero())
        with pytest.raises(DegreeCapError) as ref:
            _ref_lie(field, X * Y)
        with pytest.raises(DegreeCapError) as got:
            lie_derivative(field, X * Y)
        assert str(got.value) == str(ref.value) == f"degree 25 exceeds cap {MAX_TOTAL_DEGREE}"
        # one degree lower the product is at the cap and allowed
        field = VectorField3(Poly3({(12, 11, 0): 1.0}), Z, Z)
        at_cap = lie_derivative(field, X * Y)
        assert at_cap.degree() == MAX_TOTAL_DEGREE
        _assert_identical(at_cap, _ref_lie(field, X * Y))


    def test_underflowed_product_past_the_cap_is_dropped(self):
        # 1e-200 * 6e-200 underflows to 0.0 at degree 25: pruned before the
        # cap is read, so the result is zero and nothing is raised.
        field = VectorField3(Poly3({(20, 0, 0): 1e-200}), Poly3.zero(), Poly3.zero())
        g = Poly3({(6, 0, 0): 1e-200})
        got = lie_derivative(field, g)
        assert got.is_zero()
        _assert_identical(got, _ref_lie(field, g))
        # within the cap, an underflowed one-term product is dropped too
        field = VectorField3(Poly3({(1, 0, 0): -1e-200}), Z, Poly3.zero())
        _assert_identical(lie_derivative(field, g), _ref_lie(field, g))

    def test_one_term_factors_cancel_then_reappear_last(self):
        # 2x + 3 against the one-term d/dx of xyz, then -2y cancels the xyz
        # key to exactly 0.0 and 0.5z brings it back after the yz key.
        g = X * Y * Z
        field = VectorField3(X * 2.0 + 3.0, Y * -2.0, Z * 0.5)
        got = lie_derivative(field, g)
        assert list(got.terms.items()) == [((0, 1, 1), 3.0), ((1, 1, 1), 0.5)]
        _assert_identical(got, _ref_lie(field, g))

    def test_signed_zero_nan_and_inf_products(self):
        tiny, big = Poly3({(1, 0, 0): -1e-200}), Poly3({(0, 1, 0): 1e300})
        nan, inf = Poly3({(0, 0, 1): math.nan}), Poly3({(1, 0, 0): math.inf})
        inf_y = Poly3({(0, 1, 0): math.inf})
        cases = [
            (VectorField3(tiny, tiny, tiny), Poly3({(1, 1, 1): 1e-200})),  # -0.0 products
            (VectorField3(big, big, X), Poly3({(1, 1, 0): 1e300, (2, 0, 0): 1.0})),  # inf
            (VectorField3(inf, -inf_y, Z), X * Y + Z),  # inf - inf is NaN
            (VectorField3(nan, X, nan), X * Z + Y),
            (VectorField3(nan + X, inf + Y, Z), X * X * Y - Z),
        ]
        for field, g in cases:
            _assert_identical(lie_derivative(field, g), _ref_lie(field, g))

    def test_seeded_one_term_components(self):
        rng = np.random.default_rng(34)

        def monomial(max_degree, ints):
            e = tuple(int(v) for v in rng.multinomial(int(rng.integers(0, max_degree + 1)),
                                                      [1 / 3] * 3))
            c = float(rng.integers(-2, 3) or 1) if ints else rng.uniform(-2.0, 2.0)
            return Poly3({e: c})

        for n in range(2000):
            ints = n % 2 == 0  # small integer coefficients make sums cancel
            field = VectorField3(*(monomial(3, ints) for _ in "xyz"))
            if n % 3 == 0:
                g = monomial(4, ints)
            else:
                g = Poly3({})
                for _ in range(int(rng.integers(1, 6))):
                    g = g + monomial(4, ints)
            _assert_identical(lie_derivative(field, g), _ref_lie(field, g))


class TestFirstLieDerivativesAreZComponents:
    """``PiecewiseSystem.xf`` and ``yf`` are the z-components themselves:
    f = z, so the Lie derivative along a field is its z-component, bit for
    bit."""

    # signed zeros (pruned), extremes, a subnormal, integers, plain values
    COEFFS = [0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, 5e-324, 3, -2, 0.5, -1.75]

    def _random_poly(self, rng):
        terms = {}
        for _ in range(int(rng.integers(0, 9))):
            exps = tuple(int(e) for e in rng.integers(0, 4, size=3))
            if rng.random() < 0.5:
                terms[exps] = self.COEFFS[int(rng.integers(len(self.COEFFS)))]
            else:
                terms[exps] = float(rng.normal(scale=10.0 ** rng.integers(-5, 6)))
        return Poly3(terms)

    @staticmethod
    def _assert_matches(system):
        switching = Poly3.variable("z")  # f(x, y, z) = z
        _assert_identical(system.xf, lie_derivative(system.X, switching))
        _assert_identical(system.yf, lie_derivative(system.Y, switching))

    def test_seeded_random_fields(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            fx, fy = (VectorField3(*(self._random_poly(rng) for _ in "xyz")) for _ in "XY")
            self._assert_matches(PiecewiseSystem(fx, fy))
            # arithmetic results and negated fields skip the validating constructor
            self._assert_matches(PiecewiseSystem(
                VectorField3(fx.cx, fx.cy, fx.cz * fy.cz - fx.cz), fx.negated()
            ))

    def test_field_z_component_is_cz_evaluator(self):
        # The sliding field reads Xf and Yf as component 2 of the compiled
        # X and Y, so that component must equal cz.compiled() bit for bit.
        rng = np.random.default_rng(14)
        points = [(0.0, -0.0, 0.0), (-0.0, 0.0, -0.0), (1.0, -1.0, 0.5)]
        for _ in range(300):
            field = VectorField3(*(self._random_poly(rng) for _ in "xyz"))
            for fld in (field, field.negated()):
                f, g = fld.compiled(), fld.cz.compiled()
                for pt in points + [tuple(rng.uniform(-1.5, 1.5, size=3).tolist())]:
                    assert _bits(f(*pt)[2]) == _bits(g(*pt))

    def test_normal_forms_with_higher_order_terms(self):
        hot = {"cx": [[[0, 1, 0], 0.2]], "cy": [[[1, 0, 0], -0.1]],
               "cz": [[[2, 0, 0], 0.3], [[0, 1, 1], 0.1], [[0, 0, 2], -1e-300]]}
        for alpha, beta, gamma, delta in [(-0.6, 1.2, 0.8, -1.0), (2.0, -1.5, -0.4, 1.0)]:
            for extra in (None, hot):
                system = build_normal_form(alpha, beta, gamma, delta, hot=extra)
                self._assert_matches(system)
                self._assert_matches(system.time_reversed())
                self._assert_matches(load_system(serialize_system(system)))


# -- bitwise pins and arithmetic properties (hypothesis) -------------------


def _ref_expr(p):
    """The literal-coefficient expression source of ``p``, as compiled
    before evaluators were shared per shape, with each power written out as
    a parenthesized product."""
    if not p.terms:
        return "0.0"
    pieces = []
    for (i, j, k), c in sorted(p.terms.items()):
        factors = [repr(c)]
        for var, e in zip("xyz", (i, j, k)):
            if e == 1:
                factors.append(var)
            elif e > 1:
                factors.append(f"({'*'.join([var] * e)})")
        pieces.append("*".join(factors))
    return " + ".join(pieces)


def _ref_compile(src):
    return eval(compile(src, "<ref>", "eval"), {"__builtins__": {}})


def _ref_poly_fn(p):
    return _ref_compile(f"lambda x, y, z: ({_ref_expr(p)})")


def _ref_field_fn(field):
    return _ref_compile(
        "lambda x, y, z: (({}), ({}), ({}))".format(*map(_ref_expr, field.components()))
    )


def _bits(*values):
    return [struct.pack("<d", v) for v in values]


def _assert_canonical(p):
    """``p`` is exactly what the validating constructor makes of its terms."""
    again = Poly3(p.terms)
    assert list(p.terms) == list(again.terms)
    assert _bits(*p.terms.values()) == _bits(*again.terms.values())
    for exps, c in p.terms.items():
        assert type(exps) is tuple and len(exps) == 3
        assert all(type(e) is int and e >= 0 for e in exps)
        assert type(c) is float and c != 0.0


if given is not None:
    _EXPONENTS = st.integers(0, 8).flatmap(
        lambda i: st.integers(0, 8 - i).flatmap(
            lambda j: st.tuples(st.just(i), st.just(j), st.integers(0, 8 - i - j))
        )
    )
    _COEFFS = st.one_of(
        # Terms of like size, so that a changed summation order shows.
        st.floats(-10.0, 10.0),
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from([5e-324, -5e-324, 1e-300, -2.5e-308, 1e300, -1.7976931348623157e308]),
    )
    _polys = st.one_of(
        st.just(Poly3.zero()),
        st.dictionaries(_EXPONENTS, _COEFFS, max_size=12).map(Poly3),
        st.dictionaries(_EXPONENTS, _COEFFS, min_size=4, max_size=12).map(Poly3),
    )
    _fields = st.builds(VectorField3, _polys, _polys, _polys)
    _points = st.one_of(
        st.tuples(*[st.floats(-4.0, 4.0)] * 3),
        # Wide enough for products to overflow to inf.
        st.tuples(*[st.floats(-1e30, 1e30)] * 3),
    )
    # Drawn points are often 0 or 1, where every order of summation agrees;
    # at these, terms round and a changed order shows in the last bits.
    _ROUGH = [(0.1, -0.7, 1.3), (1.0471975511965976, -1.3591409142295225, 0.3)]

    class TestCompiledBitwise:
        @given(_polys, st.lists(_points, min_size=1, max_size=4))
        def test_poly(self, p, points):
            assert p.as_expr() == _ref_expr(p)
            fn, ref = p.compiled(), _ref_poly_fn(p)
            for pt in points + _ROUGH:
                assert _bits(fn(*pt)) == _bits(ref(*pt))

        @given(_fields, st.lists(_points, min_size=1, max_size=4))
        def test_field_and_negated(self, field, points):
            for f in (field, field.negated()):
                fn, ref = f.compiled(), _ref_field_fn(f)
                for pt in points + _ROUGH:
                    assert _bits(*fn(*pt)) == _bits(*ref(*pt))

    class TestLieDerivativeMatchesArithmetic:
        @given(_fields, _polys)
        def test_one_pass(self, field, g):
            _assert_identical(lie_derivative(field, g), _ref_lie(field, g))

    class TestArithmeticIsCanonical:
        @given(_polys, _polys, _COEFFS)
        def test_ring_operations(self, p, q, c):
            for r in (p + q, p - q, -p, p * q, p + c, c - p, p.scaled(c), p * c, p.subs_z0()):
                _assert_canonical(r)

        @given(_fields, _polys)
        def test_calculus(self, field, p):
            for var in "xyz":
                _assert_canonical(p.partial(var))
            _assert_canonical(lie_derivative(field, p))
            for g in gradient_on_sigma(p):
                _assert_canonical(g)


class TestLinspace:
    """The one float grid of the sweep, the curve seeds and the zero search
    gives numpy's bits, so grids need no arrays."""

    CASES = [
        (-3.0, 3.0, 20),
        (-3.0, 3.0, 41),
        (-1.0, 1.0, 2),  # two points: start and stop only
        (3.0, -3.0, 7),  # reversed
        (0.1, 0.7, 1000),
        (0.0, 5e-324, 5),  # subnormal span: the step rounds to zero
        (-1e-310, 1e-310, 11),
        (-1e300, 1e300, 9),  # huge span
        (-1e308, 1e308, 5),  # the span overflows: nan, inf, ..., stop
        (2.0, -1e308, 3),
        (1.5, 1.5, 4),  # start == stop
        (0.0, 0.0, 3),
    ]

    @pytest.mark.parametrize("start,stop,n", CASES)
    def test_matches_numpy_bit_for_bit(self, start, stop, n):
        with np.errstate(all="ignore"):
            want = np.linspace(start, stop, n).tolist()
        assert _bits(*linspace(start, stop, n)) == _bits(*want)

    def test_random_ranges(self):
        rng = np.random.default_rng(27)
        for _ in range(500):
            start, stop = (rng.normal(size=2) * 10.0 ** rng.integers(-6, 6, size=2)).tolist()
            n = int(rng.integers(2, 60))
            assert _bits(*linspace(start, stop, n)) == _bits(*np.linspace(start, stop, n).tolist())
