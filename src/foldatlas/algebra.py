"""Sparse polynomial arithmetic in (x, y, z) and Lie-derivative calculus.

All classification formulas in this package evaluate on exact polynomial
objects: the switching function is the coordinate z, the two vector fields
are polynomial, and every tangency/transversality test reduces to evaluating
iterated Lie derivatives at a point.

Hot numeric loops call compiled evaluators.  Python source is generated and
compiled once per *monomial shape* (the sorted exponent triples of each
component) into a factory that binds coefficients to an evaluator; a small
private LRU keeps the factories, so a new system whose polynomials share a
shape with an earlier one only pays for binding its coefficients.  A vector
field keeps that shape pass (``shape()``); the integrator's step kernels bind
from it too.  The evaluator computes the same terms, powers (as products,
which overflow to inf) and left-to-right sums as ``as_expr``, so it returns
bitwise the same floats as compiling that expression with literal coefficients.

``lie_derivative`` is one pass over plain dicts that gives the same bits and
term order as the composed arithmetic ``cx * g.partial("x") + cy *
g.partial("y") + cz * g.partial("z")``; later products and sums depend on
that order, so it is kept.
"""

from __future__ import annotations

import functools

VARS = ("x", "y", "z")
_VAR_INDEX = {"x": 0, "y": 1, "z": 2}

# Input systems are capped at total degree 8 (see the system module); Lie
# chains of length <= 3 on such inputs stay below 3x that, so any polynomial
# reaching this cap signals a runaway computation rather than valid use.
MAX_TOTAL_DEGREE = 24


class DegreeCapError(ValueError):
    """A polynomial exceeded the configured total-degree cap."""


def _prune(terms):
    """``terms`` without exact zeros; ``terms`` itself when it has none."""
    if 0.0 in terms.values():
        return {e: c for e, c in terms.items() if c != 0.0}
    return terms


def _degree(terms):
    return max(map(sum, terms)) if terms else 0


def _capped(terms):
    """``terms``, or DegreeCapError if their total degree exceeds the cap."""
    deg = _degree(terms)
    if deg > MAX_TOTAL_DEGREE:
        raise DegreeCapError(f"degree {deg} exceeds cap {MAX_TOTAL_DEGREE}")
    return terms


def _new(terms):
    """Poly3 holding ``terms`` as given: int-triple keys, float values, no
    zeros and a degree within the cap must already hold."""
    p = object.__new__(Poly3)
    p.terms = terms
    p._fn = None
    return p


def _poly(terms):
    """Poly3 from arithmetic results: everything but the degree cap already
    holds, so only the cap is checked."""
    return _new(_capped(terms))


def _term(coeff, exps):
    """Source of one monomial: ``coeff*x*(y*y)`` for the exponents (1, 2, 0);
    past the float range the product is inf, where ``y**2`` would raise."""
    factors = [coeff]
    for var, p in zip(VARS, exps):
        if p == 1:
            factors.append(var)
        elif p > 1:
            factors.append(f"({'*'.join([var] * p)})")
    return "*".join(factors)


def shape_source(shapes):
    """Coefficient names ``c0, ..., cn`` and one expression in x, y, z per
    component shape: the evaluator's source, for code that inlines it."""
    names = []
    exprs = []
    for shape in shapes:
        terms = []
        for exps in shape:
            terms.append(_term(f"c{len(names)}", exps))
            names.append(f"c{len(names)}")
        exprs.append(" + ".join(terms) if terms else "0.0")
    return names, exprs


@functools.lru_cache(maxsize=512)
def _factory(shapes):
    """``lambda c0, ..., cn: lambda x, y, z: ...`` for a tuple of component
    shapes: one shape gives a scalar evaluator, several give a tuple."""
    names, exprs = shape_source(shapes)
    body = f"({exprs[0]})" if len(exprs) == 1 else "({})".format(
        ", ".join(f"({e})" for e in exprs)
    )
    src = f"lambda {', '.join(names)}: lambda x, y, z: {body}"
    # the source holds generated names and operators only
    return eval(compile(src, "<poly3>", "eval"), {"__builtins__": {}})


def _shape(polys):
    """The monomial shapes of ``polys`` and their coefficients in order."""
    shapes = []
    coeffs = []
    for p in polys:
        terms = p.terms
        if len(terms) < 2:  # already in order
            shapes.append(tuple(terms))
            coeffs += terms.values()
            continue
        # the keys are distinct, so sorting them orders the terms as items()
        exps = sorted(terms)
        shapes.append(tuple(exps))
        coeffs += [terms[e] for e in exps]
    return tuple(shapes), coeffs


class Poly3:
    """Polynomial in (x, y, z) stored as ``{(i, j, k): coefficient}``.

    Zero coefficients are never stored (exact ``0.0`` pruning only; numeric
    tolerances belong to consumers).  Instances are immutable by convention:
    every operation returns a new object, so values are safe to share across
    threads.
    """

    __slots__ = ("terms", "_fn")

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for exps, coeff in terms.items():
                i, j, k = exps
                if i < 0 or j < 0 or k < 0:
                    raise ValueError(f"negative exponent in {exps}")
                c = float(coeff)
                if c != 0.0:
                    clean[(int(i), int(j), int(k))] = c
        self.terms = _capped(clean)
        self._fn = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def constant(cls, c):
        c = float(c)  # the conversion and zero pruning of __init__, without its loop
        return _new({(0, 0, 0): c} if c != 0.0 else {})

    @classmethod
    def variable(cls, name):
        idx = _VAR_INDEX[name]
        exps = [0, 0, 0]
        exps[idx] = 1
        return cls({tuple(exps): 1.0})

    # -- queries -----------------------------------------------------------

    def degree(self):
        return _degree(self.terms)

    def is_zero(self):
        return not self.terms

    def coeff_scale(self):
        if not self.terms:
            return 0.0
        return max(map(abs, self.terms.values()))

    def items(self):
        return sorted(self.terms.items())

    def eval(self, x, y, z):
        # c * x**i * y**j * z**k with the factors of exponent 0 left out:
        # v**0 == 1.0 and c * 1.0 == c exactly, so the bits do not change.
        total = 0.0
        for (i, j, k), c in self.terms.items():
            if i:
                c *= x**i
            if j:
                c *= y**j
            if k:
                c *= z**k
            total += c
        return total

    def eval_at(self, point):
        return self.eval(point[0], point[1], point[2])

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Poly3):
            other = Poly3.constant(other)
        acc = dict(self.terms)
        for e, c in other.terms.items():
            acc[e] = acc.get(e, 0.0) + c
        return _poly(_prune(acc))

    __radd__ = __add__

    def __neg__(self):
        return _poly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Poly3):
            other = Poly3.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Poly3):
            return self.scaled(other)
        acc = {}
        for (i1, j1, k1), c1 in self.terms.items():
            for (i2, j2, k2), c2 in other.terms.items():
                key = (i1 + i2, j1 + j2, k1 + k2)
                acc[key] = acc.get(key, 0.0) + c1 * c2
        return _poly(_prune(acc))

    __rmul__ = __mul__

    def scaled(self, c):
        c = float(c)
        if c == 0.0:
            return Poly3.zero()
        return _poly(_prune({e: c * v for e, v in self.terms.items()}))

    def partial(self, var):
        idx = _VAR_INDEX[var]
        acc = {}
        for exps, c in self.terms.items():
            p = exps[idx]
            if p == 0:
                continue
            new = list(exps)
            new[idx] = p - 1
            acc[tuple(new)] = acc.get(tuple(new), 0.0) + c * p
        # distinct terms differentiate to distinct terms, and c * p != 0
        return _poly(acc)

    def subs_z0(self):
        """Restrict to the switching plane: substitute z = 0."""
        return _poly({e: c for e, c in self.terms.items() if e[2] == 0})

    # -- comparison / display ---------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Poly3) and self.terms == other.terms

    def __hash__(self):
        return hash(tuple(self.items()))

    def as_expr(self):
        """Python expression string in x, y, z with literal coefficients;
        ``compiled()`` evaluates exactly this expression."""
        if not self.terms:
            return "0.0"
        return " + ".join(_term(repr(c), e) for e, c in self.items())

    def compiled(self):
        """Cached evaluator ``f(x, y, z) -> float`` for hot numeric loops."""
        if self._fn is None:
            shapes, coeffs = _shape((self,))
            self._fn = _factory(shapes)(*coeffs)
        return self._fn

    def __repr__(self):
        return f"Poly3({self.as_expr()})"


class VectorField3:
    """Polynomial vector field on R^3 with components (cx, cy, cz)."""

    __slots__ = ("cx", "cy", "cz", "_fn", "_shape", "_kernel", "_neg", "_scale")

    def __init__(self, cx, cy, cz):
        self.cx = cx
        self.cy = cy
        self.cz = cz
        self._fn = None
        self._shape = None
        self._kernel = None
        self._neg = None
        self._scale = None

    def components(self):
        return (self.cx, self.cy, self.cz)

    def eval_at(self, point):
        return (self.cx.eval_at(point), self.cy.eval_at(point), self.cz.eval_at(point))

    def coeff_scale(self):
        """Cached largest coefficient magnitude of the three components."""
        if self._scale is None:
            self._scale = max(self.cx.coeff_scale(), self.cy.coeff_scale(), self.cz.coeff_scale())
        return self._scale

    def negated(self):
        """Cached ``-field``, the time-reversed field.  It shares this field's
        shape and coefficient scale: same terms, same order, exactly negated
        coefficients."""
        if self._neg is None:
            neg = VectorField3(*(_new({e: -c for e, c in p.terms.items()})
                                 for p in self.components()))
            shapes, coeffs = self.shape()
            neg._shape = (shapes, [-c for c in coeffs])
            neg._scale = self.coeff_scale()
            self._neg = neg
        return self._neg

    def shape(self):
        """Cached ``(shapes, coefficients)``: the one pass over the components
        that the evaluator and the integrator's step kernel bind from."""
        if self._shape is None:
            self._shape = _shape(self.components())
        return self._shape

    def compiled(self):
        """Cached evaluator ``f(x, y, z) -> (fx, fy, fz)``."""
        if self._fn is None:
            shapes, coeffs = self.shape()
            self._fn = _factory(shapes)(*coeffs)
        return self._fn

    def kernel(self, factory):
        """Cached ``factory(shapes)(*coefficients)`` on ``shape()``: generated
        per-shape code, the integrator's step kernel."""
        if self._kernel is None:
            shapes, coeffs = self.shape()
            self._kernel = factory(shapes)(*coeffs)
        return self._kernel

    def __eq__(self, other):
        return (
            isinstance(other, VectorField3)
            and self.cx == other.cx
            and self.cy == other.cy
            and self.cz == other.cz
        )

    def __repr__(self):
        return f"VectorField3({self.cx!r}, {self.cy!r}, {self.cz!r})"


def lie_derivative(field, g):
    """Directional derivative of ``g`` along ``field``: field . grad(g).

    Iterating implements higher-order and mixed derivatives, e.g.
    ``lie_derivative(X, lie_derivative(X, f))`` is the second derivative of f
    along X.

    One pass with the bits, term order and DegreeCapError of
    ``field.cx * g.partial("x") + ... + field.cz * g.partial("z")``.  Where a
    component or its partial has one term, no two products share a key, so
    each nonzero product is merged into the sum without the product dict.
    """
    # The partials as ``partial`` builds them, and g's degree, in one pass:
    # distinct terms differentiate to distinct terms, so no key repeats.
    grads = gx, gy, gz = {}, {}, {}
    deg = 0
    for (i, j, k), c in g.terms.items():
        if i:
            gx[i - 1, j, k] = c * i
        if j:
            gy[i, j - 1, k] = c * j
        if k:
            gz[i, j, k - 1] = c * k
        if i + j + k > deg:
            deg = i + j + k
    # A product has degree at most deg(comp) + deg(g) - 1, so only a
    # component of degree above ``room`` can take it past the cap, and the
    # sum, whose terms all come from the products, stays within it.  No
    # component is above the cap, so for deg(g) <= 1 none is above ``room``.
    room = MAX_TOTAL_DEGREE + 1 - deg
    total = {}
    for comp, grad in zip((field.cx, field.cy, field.cz), grads):
        if not grad:
            continue
        terms = comp.terms
        over = room < MAX_TOTAL_DEGREE and _degree(terms) > room
        if (len(terms) == 1 or len(grad) == 1) and not over:
            # One-term factor: every product has its own key, so each
            # nonzero one is merged as below without the product dict.
            for (i1, j1, k1), c1 in terms.items():
                for (i2, j2, k2), c2 in grad.items():
                    c = c1 * c2
                    if c != 0.0:
                        e = (i1 + i2, j1 + j2, k1 + k2)
                        s = total.get(e, 0.0) + c
                        if s != 0.0:
                            total[e] = s
                        else:
                            del total[e]
            continue
        # comp * grad in the loop order of __mul__ ...
        prod = {}
        for (i1, j1, k1), c1 in terms.items():
            for (i2, j2, k2), c2 in grad.items():
                key = (i1 + i2, j1 + j2, k1 + k2)
                prod[key] = prod.get(key, 0.0) + c1 * c2
        # ... pruned before the cap reads it, so a product that underflowed
        # to 0.0 is dropped, not raised on ...
        prod = _prune(prod)
        if over:
            _capped(prod)
        # ... merged as __add__ merges: a key that cancels is dropped, so a
        # later product appends it at the end again.
        for e, c in prod.items():
            s = total.get(e, 0.0) + c
            if s != 0.0:
                total[e] = s
            else:
                del total[e]
    return _new(total)


def gradient_on_sigma(g):
    """Planar gradient of ``g`` restricted to the switching plane z = 0."""
    return (g.partial("x").subs_z0(), g.partial("y").subs_z0())


class lazy:
    """Method decorator: the value is computed on first read and stored in
    the instance ``__dict__``, where later reads find it first.  No lock, as
    in Python 3.12's ``functools.cached_property``: two first readers may
    both compute, and one value is kept."""

    def __init__(self, fn):
        self.fn, self.name, self.__doc__ = fn, fn.__name__, fn.__doc__

    def __get__(self, instance, owner):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.fn(instance)
        return value


def linspace(start, stop, n):
    """``n >= 2`` floats from ``start`` to ``stop``, bit for bit those of
    ``numpy.linspace``, whose formula and zero-step branch this repeats."""
    start, stop = float(start), float(stop)
    delta, div = stop - start, n - 1
    step = delta / div
    points = [(i / div * delta if step == 0.0 else i * step) + start for i in range(n)]
    points[-1] = stop
    return points
