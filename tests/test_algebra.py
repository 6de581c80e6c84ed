import numpy as np
import pytest

from foldatlas.algebra import (
    DegreeCapError,
    Poly3,
    VectorField3,
    gradient_on_sigma,
    lie_derivative,
    poly_eval,
    poly_partial,
)


def p_const(c):
    return Poly3.constant(c)


X = Poly3.variable("x")
Y = Poly3.variable("y")
Z = Poly3.variable("z")


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
        assert poly_eval(Z, (1.0, 2.0, 3.0)) == 3.0

    def test_direct_arithmetic(self):
        p = X * Y - Z * Z
        assert poly_eval(p, (2.0, 3.0, 1.0)) == 5.0

    def test_zero_polynomial(self):
        assert poly_eval(Poly3.zero(), (4.0, -7.0, 0.3)) == 0.0

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
        assert poly_partial(Z, "z") == p_const(1.0)

    def test_dy_xy2(self):
        p = X * Y * Y
        assert poly_partial(p, "y") == Poly3({(1, 1, 0): 2.0})

    def test_dx_constant(self):
        assert poly_partial(p_const(5.0), "x").is_zero()

    def test_finite_difference(self):
        rng = np.random.default_rng(11)
        h = 1e-6
        for _ in range(20):
            p = random_poly(rng, 4)
            pt = rng.uniform(-1, 1, size=3)
            exact = poly_partial(p, "x").eval(*pt)
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
            assert lhs.approx_equal(rhs, tol=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(8)
        for _ in range(15):
            f1 = random_field(rng)
            f2 = random_field(rng)
            g = random_poly(rng, 3)
            h = random_poly(rng, 3)
            both = VectorField3(f1.cx + f2.cx, f1.cy + f2.cy, f1.cz + f2.cz)
            assert lie_derivative(both, g).approx_equal(
                lie_derivative(f1, g) + lie_derivative(f2, g)
            )
            assert lie_derivative(f1, g + h).approx_equal(
                lie_derivative(f1, g) + lie_derivative(f1, h)
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

    def test_from_terms_merges_duplicates(self):
        p = Poly3.from_terms([((1, 0, 0), 1.0), ((1, 0, 0), 2.0)])
        assert p == Poly3({(1, 0, 0): 3.0})


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
