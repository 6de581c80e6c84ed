import collections
import concurrent.futures
import dataclasses
import functools
import hashlib
import itertools
import math
import operator
import struct
import sys

import numpy as np
import pytest

from foldatlas import integrator
from foldatlas.algebra import Poly3, VectorField3, shape_source
from foldatlas.checks import _stick_slip_system
from foldatlas.errors import IntegrationFailure, PreconditionError
from foldatlas.foldfold import make_parameters, return_map_analysis
from foldatlas.integrator import (
    FlightStatus,
    IntegratorConfig,
    Mode,
    filippov_trajectory,
    fold_map_numeric,
    integrate_to_sigma,
    jacobian_numeric,
    return_map_numeric,
)
from foldatlas.system import Box, PiecewiseSystem, build_normal_form
from pinned_digests import (
    HOT, LINEAR_FOLD_PATH_DIGEST, NUMERIC_ROUTE_DIGEST, hot_normal_form, linear_fold_path_digest,
    numeric_route_digest,
)

# Reference Dormand-Prince step: the generic tableau loop the written-out
# stepper replaced, kept here to pin that stepper bit for bit.
_DP_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_DP_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_DP_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)


def _plain_sum(terms):
    # Left to right, starting with the first term: no seed, which would turn
    # a sum of -0.0 terms into +0.0 (and Python 3.12's sum() compensates,
    # which would move the last bits).
    terms = iter(terms)
    acc = next(terms)
    for t in terms:
        acc = acc + t
    return acc


def _ref_stage(y, h, ks, coeffs):
    # a zero weight's term is not added: its stage is not read
    return tuple(
        yi + h * _plain_sum(c * k[i] for c, k in zip(coeffs, ks) if c)
        for i, yi in enumerate(y)
    )


def _ref_rk_step(f, y, h, k1):
    ks = [k1]
    for row in _DP_A:
        ks.append(f(*_ref_stage(y, h, ks, row)))
    y_new = _ref_stage(y, h, ks, _DP_B)
    ks.append(f(*y_new))
    err = tuple(
        h * _plain_sum(e * k[i] for e, k in zip(_DP_E, ks) if e) for i in range(len(y))
    )
    return y_new, ks[6], err


def _call_stage(args, outs):
    return [f"{', '.join(outs)}, = f({', '.join(args)})"]


@functools.cache
def _call_step(dim):
    body = integrator._step_lines(dim, _call_stage, ())
    return integrator._compile(integrator._def("step(f, s, h, k1)", body), "step")


def _rk_step(f, y, h, k1):
    """One Dormand-Prince step of any callable field ``f`` on a 3- or
    2-component state, generated from the kernels' template: returns (y_new,
    k_last, err_norm)."""
    return _call_step(len(y))(f, y, h, k1)


def _ref_error_norm(err, y, y_new, atol, rtol):
    acc = 0.0
    for e, a, b in zip(err, y, y_new):
        scale = atol + rtol * max(abs(a), abs(b))
        r = e / scale
        acc += r * r
    return math.sqrt(acc / len(err))


def _bits(*values):
    """Bit patterns, so that equality also tells -0.0 from 0.0."""
    return struct.pack(f"<{len(values)}d", *values)


def const_field(cx, cy, cz):
    return VectorField3(Poly3.constant(cx), Poly3.constant(cy), Poly3.constant(cz))


# Coefficients of constant components: ordinary, negative, tiny and subnormal
# ones, whose weighted stage sums underflow to signed zeros.
_CONSTANTS = (1.0, -0.5, 0.3, -2.7, 1e-17, 1e-300, -5e-324)


def _constant_component_fields(rng):
    """One seeded field per mix of constant ("c"), empty ("0") and
    polynomial ("p") components with at least one constant or empty one:
    one, two and three constant components, each next to empty ones."""
    monomials = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0), (1, 1, 0), (0, 1, 1)]

    def component(kind):
        if kind == "c":
            pick = rng.random() < 0.5
            return Poly3.constant(float(rng.choice(_CONSTANTS) if pick else rng.uniform(-2.0, 2.0)))
        if kind == "0":
            return Poly3.zero()
        picks = rng.choice(len(monomials), size=2, replace=False)
        terms = {monomials[i]: float(rng.uniform(-1.5, 1.5)) for i in picks}
        if rng.random() < 0.5:
            terms[(0, 0, 0)] = float(rng.uniform(-1.0, 1.0))
        return Poly3(terms)

    return [VectorField3(*map(component, kinds))
            for kinds in itertools.product("c0p", repeat=3) if "p" * 3 != "".join(kinds)]


def _constant_components(field):
    """The components whose shape is the constant monomial alone, or empty."""
    return [i for i, shape in enumerate(field.shape()[0]) if shape in ((), ((0, 0, 0),))]


def _bound(kernel):
    """The functions of a kernel ``(p, field, step, driver)``, each read
    with its binding ``p``."""
    p, *functions = kernel
    return [functools.partial(fn, p) for fn in functions]


def _generated_source(factory, shapes):
    """The source that the kernel ``factory`` generates for ``shapes``,
    generated afresh past its cache."""
    sources = []
    real = integrator._compile

    def capture(lines, name):
        sources.append("\n".join(lines))
        return real(lines, name)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(integrator, "_compile", capture)
        factory.__wrapped__(shapes)
    (source,) = sources
    return source


# Reference driver: the Python loop that the generated drivers replaced,
# kept here to pin them bit for bit.  It steps with the production kernel
# and hands fired events to the production locator.


class _RefEvent:
    """An event of the reference loop: the attributes the locator reads,
    plus the arming threshold and state that the loop keeps."""

    __slots__ = ("name", "fn", "arm_eps", "expected_sign", "component", "armed", "last")

    def __init__(self, name, fn, arm_eps, expected_sign=0, component=None):
        self.name = name
        self.fn = fn
        self.arm_eps = arm_eps
        self.expected_sign = expected_sign
        self.component = component
        self.armed = False
        self.last = 0.0

    def observe_initial(self, y):
        self.last = v = self.fn(y)
        self.armed = abs(v) > self.arm_eps and (
            self.expected_sign == 0 or v * self.expected_sign > 0
        )


def _ref_integrate(p, f, step, y0, events, t_limit, outside=None, h0=None, collect=None,
                   hand_over=False):
    """Drive the kernel ``step`` of the field ``f``, bound by ``p``, until an event, a guard
    violation, or the horizon; ``collect`` is a pair of lists ``(times,
    states)`` or None.  The clamps keep ``min``/``max``'s NaN rule: the
    first argument wins against NaN.  With ``hand_over`` it returns a
    driver's tuple, and on a step where events fire it hands the step over
    as a driver does, for ``integrator._locate``: ``(HIT_SIGMA, t, y,
    accepted, rejected, (y, k1, y_new, k_last, h, fired, None))``, where
    ``fired`` holds only the event it found earliest itself."""
    y = tuple(map(float, y0))
    k1 = f(p, *y)
    t = 0.0
    h = h0 if h0 else min(1e-4, 0.25 * t_limit)
    err_prev = 1.0
    end_band = 1e-15 * max(1.0, t_limit)
    for ev in events:
        ev.observe_initial(y)
    if collect is not None:
        times, states = collect
        times.append(t)
        states.append(y)
    steps = rejected = 0

    def result(status, point, time, event=None, uncounted=0):
        accepted = steps - uncounted - rejected
        if hand_over:
            return status, time, point, accepted, rejected, None
        return integrator.FlightResult(status, point, time, event, accepted, rejected)

    while True:
        remaining = t_limit - t
        if remaining <= end_band:
            return result(FlightStatus.TIME_OUT, y, t)
        steps += 1
        if steps > integrator._MAX_STEPS:
            return result(FlightStatus.STEP_LIMIT, y, t, uncounted=1)
        if remaining < h:
            h = remaining
        if h < 1e-15:
            return result(FlightStatus.TIME_OUT, y, t, uncounted=1)
        y_new, k_last, err_norm = step(p, y, h, k1)
        if err_norm > 1.0:
            h *= max(0.2, 0.9 * err_norm ** -0.2)
            rejected += 1
            continue
        hit = None
        for j, ev in enumerate(events):
            i = ev.component
            v = ev.fn(y_new) if i is None else y_new[i]
            if ev.armed:
                crossed = ev.last * v <= 0.0 and (ev.last != 0.0 or v != 0.0)
            elif abs(v) > ev.arm_eps and (ev.expected_sign == 0 or v * ev.expected_sign > 0):
                ev.armed = True
                crossed = False
            else:
                crossed = v * ev.expected_sign < 0
            if crossed:
                found = integrator._refine_event(p, f, step, ev, y, k1, y_new, k_last, h, ev.last,
                                                 v, None)
                if hit is None or found[0] < hit[1]:
                    hit = (ev, found[0], found[1], (j, ev.last, v))
            ev.last = v
        if hit is not None:
            ev, dt, y_ev, fired = hit
            if hand_over:
                return (FlightStatus.HIT_SIGMA, t, y, steps - rejected, rejected,
                        (y, k1, y_new, k_last, h, (fired,), None))
            t_ev = t + dt
            if collect is not None:
                times.append(t_ev)
                states.append(y_ev)
            return result(FlightStatus.HIT_SIGMA, y_ev, t_ev, ev.name)
        if outside is not None and outside(y_new):
            if collect is not None:
                times.append(t + h)
                states.append(y_new)
            return result(FlightStatus.LEFT_BOX, y_new, t + h)
        t += h
        y = y_new
        k1 = k_last
        if collect is not None:
            times.append(t)
            states.append(y)
        if err_norm > 0:
            factor = 0.9 * err_norm ** -0.14 * err_prev ** 0.08
            h *= (factor if factor < 5.0 else 5.0) if factor > 0.2 else 0.2
        else:
            h *= 5.0
        err_prev = 1e-10 if err_norm < 1e-10 else err_norm


def _ref_cube(center, radius):
    cx, cy, cz = center

    def outside(y):
        return not (abs(y[0] - cx) <= radius and abs(y[1] - cy) <= radius
                    and abs(y[2] - cz) <= radius)

    return outside


def _cube_box(center, radius):
    """The cube of ``_ref_cube`` around a point of the plane, written as the
    box that a flight from the plane hands its driver."""
    x, y, _ = center
    return (x - radius, x + radius, y - radius, y + radius, -radius, radius)


def _ref_drive(kernel, system, *args, cube=False):
    """The run of the driver of ``kernel`` ``(p, f, step, drive)`` on the
    reference loop, which hands over each step where events fire.  The
    driver's name tells its arguments, its guard and its events: the plane,
    or the sliding events of ``system``.  With ``cube`` the flight is one
    from the plane: its box must be the cube around its start, and it runs
    under ``_ref_cube`` instead."""
    p, f, step, drive = kernel
    if drive.__name__ == "in_box":
        start, t_limit, h0, d, box, samples = args
        xmin, xmax, ymin, ymax, zmin, zmax = box
        events = [_RefEvent("sigma", operator.itemgetter(2), 1e-13, d, 2)]

        def outside(y):
            return not (xmin <= y[0] <= xmax and ymin <= y[1] <= ymax and zmin <= y[2] <= zmax)

        if cube:
            assert start[2] == 0.0 and _bits(*box) == _bits(*_cube_box(start, zmax))
            outside = _ref_cube(start, zmax)
    else:
        start, t_limit, h0, box, tol, arm, samples = args
        xmin, xmax, ymin, ymax, zmin, zmax = box
        xf, yf = system.xf.compiled(), system.yf.compiled()
        events = [_RefEvent("sx", lambda y: xf(y[0], y[1], 0.0), arm),
                  _RefEvent("sy", lambda y: yf(y[0], y[1], 0.0), arm),
                  _RefEvent("den", lambda y: yf(y[0], y[1], 0.0) - xf(y[0], y[1], 0.0) - tol, 0.0)]

        def outside(y):
            return not (xmin <= y[0] <= xmax and ymin <= y[1] <= ymax and zmin <= 0.0 <= zmax)

    collect = ([], [])
    res = _ref_integrate(p, f, step, start, events, t_limit, outside, h0, collect, True)
    samples += [(t, *y) for t, y in zip(*collect)]
    return res


def _hook_kernels(mp, wrap):
    """Fly every flight on ``wrap(kernel, system)``'s kernel in place of its
    own, through ``mp``: ``_flight_kernel(field)`` and
    ``_sliding_kernel(system)`` return it, with ``system`` None for a flight
    kernel.  A fold plan's reversed kernel is its wrapped forward kernel on
    the negated binding.  A fold map keeps the kernels of its system's plan,
    so the hook must come before the plan."""
    flight, sliding = integrator._flight_kernel, integrator._sliding_kernel
    mp.setattr(integrator, "_flight_kernel", lambda field: wrap(flight(field), None))
    mp.setattr(integrator, "_sliding_kernel", lambda system: wrap(sliding(system), system))


def dry_friction(F=1.0, v0=0.5, c=0.1):
    """The dry-friction oscillator of the sliding-tangency check and its box."""
    system = _stick_slip_system(F, v0, c)
    return system, system.box


class TestStepperBitwise:
    STEPS = [10.0 ** e for e in range(-12, 1)] + [3.7e-7, 0.013, 0.61]

    @staticmethod
    def _call(f):
        return lambda y, h, k1: _rk_step(f, y, h, k1)

    @staticmethod
    def _assert_same(step, f, y, h):
        # The step returns the norm, not the error vector, so the norm of
        # the reference error vector is what pins the error weights.
        k1 = f(*y)
        y_new, k_last, norm = step(y, h, k1)
        ry_new, rk_last, rerr = _ref_rk_step(f, y, h, k1)
        assert _bits(*y_new) == _bits(*ry_new)
        assert _bits(*k_last) == _bits(*rk_last)
        ref = _ref_error_norm(rerr, y, ry_new, integrator._ABS_TOL, integrator._REL_TOL)
        assert _bits(norm) == _bits(ref)

    def test_random_3d_states(self):
        # the evaluator called stage by stage, and the field's own kernel
        rng = np.random.default_rng(21)
        fields = [
            build_normal_form(-0.7, 1.3, 0.9, -1.0).X,
            VectorField3(
                Poly3({(2, 0, 0): 0.8, (0, 1, 1): -1.3, (0, 0, 0): 0.2}),
                Poly3({(1, 1, 0): 2.1, (0, 0, 3): -0.4}),
                Poly3({(0, 2, 0): -1.0, (1, 0, 1): 0.7, (0, 0, 0): -0.3}),
            ),
            hot_normal_form().Y,
            dry_friction()[0].X,
        ]
        for field in fields:
            f = field.compiled()
            kernel = _bound(integrator._flight_kernel(field))[1]
            for h in self.STEPS:
                for _ in range(20):
                    y = tuple(float(v) for v in rng.normal(scale=2.0, size=3))
                    self._assert_same(self._call(f), f, y, h)
                    self._assert_same(kernel, f, y, h)

    @staticmethod
    def _ref_sliding_field(system):
        # The sliding field as a closure over the evaluators of X and Y.
        x_fn, y_fn = system.X.compiled(), system.Y.compiled()

        def f2(u, v):
            xv = x_fn(u, v, 0.0)
            yv = y_fn(u, v, 0.0)
            xf, yf = xv[2], yv[2]
            den = yf - xf
            return ((yf * xv[0] - xf * yv[0]) / den, (yf * xv[1] - xf * yv[1]) / den)

        return f2

    def test_sliding_kernel_random_states(self):
        rng = np.random.default_rng(24)
        systems = [build_normal_form(-2.0, -1.0, 1.0, -1.0), hot_normal_form(), dry_friction()[0]]
        for system in systems:
            f2 = self._ref_sliding_field(system)
            field, step, _ = _bound(integrator._sliding_kernel(system))
            for h in self.STEPS:
                for _ in range(20):
                    y = tuple(float(v) for v in rng.normal(scale=2.0, size=2))
                    assert _bits(*field(*y)) == _bits(*f2(*y))
                    self._assert_same(step, f2, y, h)

    def test_polynomial_negative_zero_stage(self):
        # -1.0*x at x = 0.0 is -0.0; the kernel keeps every signed zero
        # the evaluator gives, down to k_last.
        field = VectorField3(
            Poly3({(1, 0, 0): -1.0}),
            Poly3({(0, 1, 0): -1.0, (1, 0, 0): 1.0}),
            Poly3({(0, 0, 1): -1.0, (1, 1, 0): -1.0}),
        )
        f = field.compiled()
        step = _bound(integrator._flight_kernel(field))[1]
        for y in itertools.product((0.0, -0.0), repeat=3):
            for h in self.STEPS:
                self._assert_same(step, f, y, h)
        _, k_last, _ = step((0.0, 0.0, 0.0), 1.0, f(0.0, 0.0, 0.0))
        assert _bits(*k_last) == _bits(-0.0, 0.0, -0.0)

    def test_polynomial_overflow_meets_zero_weights(self):
        # The cubic x*y*z is finite at the state and infinite from the
        # second stage on; stages 3-6 meet weights of both signs, whose
        # infinite terms add up to NaN.
        field = VectorField3(Poly3.constant(1.0), Poly3.zero(), Poly3({(1, 1, 1): 1.0}))
        f = field.compiled()
        step = _bound(integrator._flight_kernel(field))[1]
        y = (1.7, 1e154, 1e154)
        self._assert_same(step, f, y, 1.0)
        y_new, _, norm = step(y, 1.0, f(*y))
        assert math.isfinite(f(*y)[2]) and math.isnan(y_new[2]) and math.isnan(norm)

    def test_constant_components_random_states(self):
        # A constant or empty component's weighted sums are bound once per
        # coefficient binding and its inner stages are not written out; the
        # step still matches the tableau loop, in both time directions, from
        # signed zeros, where x*y*z overflows, and where an infinite
        # constant meets weights of both signs.
        rng = np.random.default_rng(25)
        overflow = VectorField3(Poly3.constant(1.0), Poly3.zero(), Poly3({(1, 1, 1): 1.0}))
        infinite = VectorField3(Poly3.constant(-math.inf), Poly3.zero(), Poly3({(1, 0, 0): 1.0}))
        for field in _constant_component_fields(rng) + [overflow, infinite]:
            const = _constant_components(field)
            source = _generated_source(integrator._flight_factory, field.shape()[0])
            for i in range(3):
                assert (f"wb_{i} = " in source) == (i in const)
                assert (f"k2{i} = " in source) == (i not in const)
            f, step, _ = _bound(integrator._flight_kernel(field))
            states = [tuple(float(v) for v in rng.normal(scale=2.0, size=3)) for _ in range(4)]
            states += [*itertools.product((0.0, -0.0), repeat=3), (1.7, 1e154, 1e154)]
            for h in self.STEPS + [-1e-6, -0.013, -0.61]:
                for y in states:
                    self._assert_same(step, f, y, h)

    def test_random_2d_states(self):
        rng = np.random.default_rng(22)

        def f2(u, v):
            return (u * v - 0.3 * u * u + 0.1, 1.1 * u - v * v * v)

        for h in self.STEPS:
            for _ in range(20):
                y = tuple(float(v) for v in rng.normal(scale=2.0, size=2))
                self._assert_same(self._call(f2), f2, y, h)

    def test_negative_zero_component(self):
        # From y = -0.0 the field keeps every component but r at -0.0, and
        # a sum of -0.0 terms stays -0.0 (a sum started from 0 would turn
        # it into +0.0); component r reads the stages' signs back through
        # copysign, so they reach the outputs.
        def field(dim, r):
            def f(*s):
                k = [-abs(v) for v in s]
                k[r] = sum(math.copysign(2.0**i, v) for i, v in enumerate(s) if i != r)
                return tuple(k)

            return f

        for dim in (3, 2):
            for r in range(dim):
                for h in self.STEPS:
                    f = field(dim, r)
                    self._assert_same(self._call(f), f, (-0.0,) * dim, h)

    def test_non_finite_stage_meets_zero_weights(self):
        # Component j of k2 alone is infinite: the field moves the state
        # along component d, and only the second stage lands in the window.
        # Only the zero weights b2 and e2 meet k2 in the new state and the
        # error, and a stage with zero weight is not read, as in the loop.
        def field(dim, j, d):
            def f(*s):
                k = [0.0] * dim
                k[d] = 1.0
                if 0.15 < s[d] < 0.25:
                    k[j] = math.inf
                return tuple(k)

            return f

        for dim in (3, 2):
            for j in range(dim):
                f = field(dim, j, (j + 1) % dim)
                y = (0.0,) * dim
                self._assert_same(self._call(f), f, y, 1.0)
                y_new, _, norm = _rk_step(f, y, 1.0, f(*y))
                assert y_new[j] == 0.0 and math.isfinite(norm)


class TestKernelCache:
    @staticmethod
    def _field(c):
        # a shape no other test compiles
        return VectorField3(
            Poly3({(5, 2, 1): c, (0, 0, 0): 0.5 * c}), Poly3({(0, 4, 3): -c}), Poly3({(3, 0, 5): c})
        )

    def test_same_shape_shares_one_factory(self, monkeypatch):
        sources = []
        real = integrator._compile

        def compile_(lines, name):
            sources.append("\n".join(lines))
            return real(lines, name)

        monkeypatch.setattr(integrator, "_compile", compile_)
        coeffs = (0.123456789, -2.718281828)
        a, b = (self._field(c) for c in coeffs)
        step_a = _bound(integrator._flight_kernel(a))[1]
        before = integrator._flight_factory.cache_info()
        step_b = _bound(integrator._flight_kernel(b))[1]
        after = integrator._flight_factory.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)
        assert len(sources) == 1
        y = (0.3, -0.2, 0.1)
        assert step_a(y, 0.01, a.compiled()(*y)) != step_b(y, 0.01, b.compiled()(*y))
        for c in coeffs:
            for v in (c, 0.5 * c, -c):
                assert repr(v) not in sources[0]

    def test_kernel_cached_on_field(self):
        field = self._field(1.25)
        assert integrator._flight_kernel(field) is integrator._flight_kernel(field)

    def test_a_flight_shape_binds_a_field_a_step_and_one_driver(self):
        kernel = integrator._flight_kernel(self._field(0.75))
        assert [fn.__name__ for fn in kernel[1:]] == ["field", "step", "in_box"]

    def test_a_binding_is_a_tuple_beside_shared_functions(self, monkeypatch):
        # Binding a second field of a shape compiles nothing and builds no
        # function: both kernels hold the same field, step and driver, and
        # differ in their binding alone, as do a field's two time directions
        # and the sliding kernels of two systems of one shape.
        a, b = self._field(0.3), self._field(-1.7)
        first = integrator._flight_kernel(a)
        first_slide = integrator._sliding_kernel(_stick_slip_system(1.0, 0.5, 0.1))
        system = PiecewiseSystem(a, b)
        compiled = []
        real = integrator._compile
        monkeypatch.setattr(integrator, "_compile",
                            lambda *args: compiled.append(args) or real(*args))
        pairs = [(integrator._flight_kernel(b), first),
                 (integrator._fold_plan(system, "X")[6], first),
                 (integrator._sliding_kernel(_stick_slip_system(1.3, 0.2, 0.25)), first_slide)]
        assert compiled == []
        for kernel, ref in pairs:
            assert all(fn is ref_fn for fn, ref_fn in zip(kernel[1:], ref[1:]))
            assert type(kernel[0]) is tuple and kernel[0] != ref[0]
        assert pairs[1][0][0] == tuple(-c for c in a.shape()[1])

    @staticmethod
    def _negated_coefficients_binding(field):
        shapes, coeffs = field.shape()
        return integrator._flight_factory(shapes)(*[-c for c in coeffs])[0]

    def test_reversed_binding_is_the_negated_coefficients_binding(self):
        # A fold plan binds its reversed kernel as the forward binding
        # negated entry by entry, 0.0 - v; bit for bit that is the binding
        # of the negated coefficients, the kernel of -field, on seeded random
        # fields with constant, empty and polynomial components and
        # coefficients from the subnormal to the overflow scale.  Four shapes
        # per component keep the shapes compiled to 64.
        rng = np.random.default_rng(45)
        shapes = [(), ((0, 0, 0),), ((1, 0, 0),), ((0, 0, 0), (0, 1, 1))]
        scales = (1.0, 1e-300, 1e300, 1.7e308)

        def coefficient():
            if rng.random() < 0.2:
                return float(rng.choice(_CONSTANTS))
            return float(rng.uniform(-2.0, 2.0) * scales[rng.integers(len(scales))])

        def component():
            return Poly3({exps: coefficient() for exps in shapes[rng.integers(len(shapes))]})

        def field():
            return VectorField3(component(), component(), component())

        checked = 0
        for _ in range(10_000):
            system = PiecewiseSystem(field(), field())
            for side in "XY":
                plan = integrator._fold_plan(system, side)
                reversed_ = self._negated_coefficients_binding(system.X if side == "X" else system.Y)
                assert [v.hex() for v in plan[6][0]] == [v.hex() for v in reversed_]
                assert plan[6][1:] == plan[5][1:]
                checked += 1
        assert checked == 20_000

    def test_reversed_binding_signs_of_underflowed_sums(self):
        # The one difference: a constant component of +5e-324 or +1e-323,
        # whose weighted sums underflow to +0.0, reverses to +0.0 sums where
        # the negated coefficients give -0.0.  The values are equal.
        differ = []
        for k in range(1, 200):
            for c in (k * 5e-324, -k * 5e-324):
                system = PiecewiseSystem(const_field(c, 0.0, 1.0), const_field(0.0, 0.0, -1.0))
                got = integrator._fold_plan(system, "X")[6][0]
                want = self._negated_coefficients_binding(system.X)
                assert got == want
                if [v.hex() for v in got] != [v.hex() for v in want]:
                    differ.append(c)
        assert differ == [5e-324, 1e-323]

    def test_field_matches_compiled_evaluator(self):
        # cubes, constant and empty components, at random points and at
        # every mix of signed zeros and ordinary coordinates
        rng = np.random.default_rng(26)

        def poly(degree):
            return Poly3({(i, j, k): float(rng.uniform(-2.0, 2.0))
                          for i in range(degree + 1) for j in range(degree + 1 - i)
                          for k in range(degree + 1 - i - j) if rng.random() < 0.4})

        fields = [VectorField3(poly(3), poly(3), poly(3)) for _ in range(6)]
        fields += [VectorField3(Poly3.zero(), poly(3), Poly3.constant(-0.7)),
                   VectorField3(poly(1), Poly3.zero(), Poly3.zero()),
                   VectorField3(Poly3.zero(), Poly3.zero(), Poly3.zero())]
        fields += _constant_component_fields(rng)
        points = [*itertools.product((0.0, -0.0, 1.5, -0.25), repeat=3)]
        points += [tuple(float(v) for v in rng.normal(scale=3.0, size=3)) for _ in range(20)]
        for field in fields:
            f = _bound(integrator._flight_kernel(field))[0]
            for p in points:
                assert _bits(*f(*p)) == _bits(*field.compiled()(*p))


class TestGeneratedSourcePinned:
    """SHA-256 of generated source: a shape with no constant component
    generates the step and drivers it did before the sums of constant
    components were bound once, apart from the plane driver's bracket,
    which a single event builds as one tuple, the plane driver's epilogue,
    which locates the event with one more step body and hands its root on
    in the bracket, the weighted sums, which add the terms of nonzero
    weights only, starting with the first, and the binding: each function
    takes the tuple ``p`` first and unpacks it on its first line, ``bind``
    returns ``p`` with the functions compiled once beside it, and the
    drivers return the status constants ``_HIT_SIGMA``, ``_LEFT_BOX``, ...
    Pinned here: the dry-friction oscillator of stick-slip runs, whose X has
    no constant component, and its sliding field, with three events; the
    flight kernel's evaluator ``field`` and the last return line are pinned
    apart from them."""

    FLIGHT = "5e3613bd2ba2ab990a378bb14df12a2d86ff0d26a53f0f6a696a2601fd992aea"
    SLIDING = "39abba308f8b3986e8c56852da7b0dbdc65dc9f483a7c991dce17fb29e42350b"

    @staticmethod
    def _sha(text):
        return hashlib.sha256(text.encode()).hexdigest()

    def test_dry_friction_kernels(self):
        system = dry_friction()[0]
        assert _constant_components(system.X) == []
        flight = _generated_source(integrator._flight_factory, system.X.shape()[0])
        head, rest = flight.split("\n    def step(", 1)
        body, tail = rest.rsplit("\n    return ", 1)
        assert head.endswith(
            "\n    def field(p, x, y, z):\n        c0, c1, c2, c3, c4, c5, c6, = p"
            "\n        return (c0 + c1*z, c2*y + c3*x, c4 + c5*z + c6*x)")
        assert tail == "bind"
        assert self._sha("    def step(" + body) == self.FLIGHT
        shapes = system.X.shape()[0] + system.Y.shape()[0]
        assert self._sha(_generated_source(integrator._sliding_factory, shapes)) == self.SLIDING


class TestNonzeroWeightsOnly:
    """Every weighted sum adds the terms of its nonzero weights only,
    starting with the first term: no generated step multiplies a zero
    weight (b2 and e2 of the tableau) or starts a sum from 0.0."""

    @staticmethod
    def _assert_unseeded(source):
        assert "0.0 *" not in source and "(0.0 +" not in source

    def test_flight_and_sliding_kernels(self):
        system = dry_friction()[0]
        fields = [
            const_field(1.0, -0.5, 0.3),  # every component constant
            VectorField3(Poly3.constant(1.0), Poly3.zero(), Poly3({(1, 1, 1): 1.0})),  # mixed
            system.X,  # no constant component
        ]
        assert [len(_constant_components(fld)) for fld in fields] == [3, 2, 0]
        for fld in fields:
            self._assert_unseeded(_generated_source(integrator._flight_factory, fld.shape()[0]))
        shapes = system.X.shape()[0] + system.Y.shape()[0]
        self._assert_unseeded(_generated_source(integrator._sliding_factory, shapes))

    def test_constant_sums(self):
        lines = integrator._constant_sums([0, 1, 2], ["c0", "0.0", "-c1"])
        assert len(lines) == 3 * len(integrator._ROWS)
        self._assert_unseeded("\n".join(lines))
        # the fifth-order row has five nonzero weights, the error row six
        assert [line.count(" * ") for line in lines if line.startswith(("wb_0", "we_0"))] == [5, 6]


class TestPowersAsProducts:
    """Generated code writes every power as a product, which overflows to
    inf where ``**`` would raise: no evaluator or step holds a power, and
    a driver's only ``**`` is the step control's, on error norms."""

    CONTROL = ["h *= max(0.2, 0.9 * err_norm ** -0.2)",
               "factor = 0.9 * err_norm ** -0.14 * err_prev ** 0.08"]

    def test_seeded_shapes(self):
        rng = np.random.default_rng(30)
        triples = [e for e in itertools.product(range(9), repeat=3) if sum(e) <= 8]
        for _ in range(20):
            shapes = tuple(
                tuple(sorted(triples[i] for i in rng.choice(
                    len(triples), size=int(rng.integers(0, 6)), replace=False)))
                for _ in range(6))
            assert not any("**" in e for e in shape_source(shapes)[1])
            for factory, parts in ((integrator._flight_factory, shapes[:3]),
                                   (integrator._sliding_factory, shapes)):
                powers = [line.strip() for line in _generated_source(factory, parts).splitlines()
                          if "**" in line]
                assert powers == self.CONTROL


class TestIntegrateToSigma:
    def test_quadratic_arc_closed_form(self):
        # X = (-1, 1, -y): from (0, -0.1, 0) the arc returns at t = 0.2
        system = build_normal_form(-1.0, -1.0, 1.0, -1.0)
        res = integrate_to_sigma(system.X, (0.0, -0.1, 0.0), +1)
        assert res.status is FlightStatus.HIT_SIGMA
        assert res.time == pytest.approx(0.2, abs=1e-9)
        assert res.point[0] == pytest.approx(-0.2, abs=1e-8)
        assert res.point[1] == pytest.approx(0.1, abs=1e-8)
        assert abs(res.point[2]) <= integrator._EVENT_TOL

    def test_wrong_direction_no_return(self):
        system = build_normal_form(-1.0, -1.0, 1.0, -1.0)
        res = integrate_to_sigma(system.X, (0.0, 0.1, 0.0), +1)
        assert res.status is FlightStatus.NO_RETURN

    def test_monotone_field_never_returns(self):
        field = const_field(0.0, 0.0, 1.0)
        res = integrate_to_sigma(field, (0.0, 0.0, 0.0), +1)
        assert res.status in (FlightStatus.LEFT_BOX, FlightStatus.TIME_OUT)

    def test_off_surface_start_rejected(self):
        with pytest.raises(PreconditionError):
            integrate_to_sigma(const_field(0, 0, 1), (0.0, 0.0, 0.5), +1)

    @pytest.mark.parametrize("direction", [0, 2, -0.5])
    def test_direction_must_be_a_sign(self, direction):
        with pytest.raises(PreconditionError):
            integrate_to_sigma(const_field(0, 0, 1), (0.0, 0.0, 0.0), direction)

    @pytest.mark.parametrize("cx", [-1.0, 1.0])
    def test_start_on_fold_line(self, cx):
        # X = (cx, 0, x - x^3) is tangent to the plane at the origin, with
        # X^2f = cx.  Invisible (cx < 0): no flight.  Visible (cx > 0): the
        # arc z = t^2/2 - t^4/4 flies up and comes back at t = sqrt(2).
        field = VectorField3(Poly3.constant(cx), Poly3.zero(),
                             Poly3({(1, 0, 0): 1.0, (3, 0, 0): -1.0}))
        res = integrate_to_sigma(field, (0.0, 0.0, 0.0), +1)
        if cx < 0.0:
            assert res.status is FlightStatus.NO_RETURN and res.time == 0.0
        else:
            assert res.status is FlightStatus.HIT_SIGMA
            assert res.time == pytest.approx(math.sqrt(2.0), abs=1e-9)
            assert res.point[0] == pytest.approx(math.sqrt(2.0), abs=1e-9)
            assert abs(res.point[2]) <= integrator._EVENT_TOL


class TestImmutableEvents:
    def test_plane_events_are_frozen(self):
        # one event serves flights from both half-spaces
        (event,) = integrator._SIGMA_EVENTS
        assert (event.name, event.component) == ("sigma", 2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            event.component = None
        with pytest.raises(dataclasses.FrozenInstanceError):
            event.last = 0.0

    def test_fold_maps_from_threads(self):
        # Every flight shares the one plane event; fold maps run
        # from two and from three threads at once give the serial results,
        # bit for bit.
        rng = np.random.default_rng(44)
        forms = [build_normal_form(*rng.uniform(-2.5, 2.5, size=2), rng.uniform(0.3, 2.0), -1.0)
                 for _ in range(4)] + [hot_normal_form()]
        jobs = [(system, side, tuple(rng.uniform(-0.2, 0.2, size=2)))
                for system in forms for side in "XY" for _ in range(60)]

        def run(jobs):
            out = []
            for system, side, q in jobs:
                try:
                    out.append(_bits(*fold_map_numeric(system, side, q)))
                except IntegrationFailure as exc:
                    out.append(exc.status)
            return out

        serial = run(jobs)
        assert sum(isinstance(r, bytes) for r in serial) > len(jobs) // 2
        orders = [jobs, jobs[::-1], jobs[1::2] + jobs[::2]]
        expected = [serial, serial[::-1], serial[1::2] + serial[::2]]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads inside flights, not between runs
        try:
            for workers in (2, 3):
                with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
                    threaded = list(pool.map(run, orders[:workers], timeout=120))
                assert threaded == expected[:workers]
        finally:
            sys.setswitchinterval(interval)


class TestEvalWithinStep:
    def test_failed_error_test_splits_the_step(self):
        # One DP5 step of the rotation x' = -y, y' = x over dt = 1 fails the
        # error test, so the step is halved until each part passes; the
        # result must match the exact (cos 1, sin 1).
        field = VectorField3(Poly3({(0, 1, 0): -1.0}), Poly3({(1, 0, 0): 1.0}), Poly3.zero())
        p, f, step, _ = integrator._flight_kernel(field)
        y0 = (1.0, 0.0, 0.0)
        assert step(p, y0, 1.0, f(p, *y0))[2] > 1.0
        calls = []

        def counted(*args):
            calls.append(args[2])
            return step(*args)

        y1 = integrator._eval_within_step(p, f, counted, y0, f(p, *y0), 1.0)
        assert len(calls) > 2 and min(calls) < 1.0
        assert y1[0] == pytest.approx(math.cos(1.0), abs=1e-9)
        assert y1[1] == pytest.approx(math.sin(1.0), abs=1e-9)

    def test_nan_norm_is_not_split(self, monkeypatch):
        # X = (x**2, 0, -1) from x = 1e150: x*x overflows, so the error norm
        # of every step, the locator's too, is NaN.  Halving such a step
        # cannot pass the test; 18 levels of it took 524,287 steps to
        # locate the one return to the plane.  That return lies at x = NaN,
        # so the trajectory ends there instead of sliding on.
        counts = _count_kernel_steps(monkeypatch, collections.Counter())
        big = Box(-1e300, 1e300, -1e300, 1e300, -1e300, 1e300)
        X = VectorField3(Poly3({(2, 0, 0): 1.0}), Poly3.zero(), Poly3.constant(-1.0))
        system = PiecewiseSystem(X, const_field(0, 0, 1), big)
        traj = filippov_trajectory(system, (1e150, 0.0, 5e-5), 1.0, IntegratorConfig(box=big))
        assert counts["kernel_steps"] <= 1000
        assert [(seg.mode, seg.terminal) for seg in traj.segments] == [
            (Mode.FLOW_PLUS, FlightStatus.LEFT_BOX)]
        assert (traj.status, repr(traj.total_time)) == ("left-box", "5.0000000000000016e-05")


class TestFoldMap:
    def test_matches_analytic_formula(self):
        system = build_normal_form(-1.0, -1.0, 1.0, -1.0)
        image = fold_map_numeric(system, "X", (0.0, -0.1))
        assert image[0] == pytest.approx(-0.2, abs=1e-7)
        assert image[1] == pytest.approx(0.1, abs=1e-7)

    def test_fixed_on_tangency_line(self):
        system = build_normal_form(-1.0, -1.0, 1.0, -1.0)
        assert fold_map_numeric(system, "X", (0.3, 0.0)) == (0.3, 0.0)

    def test_involution(self):
        system = build_normal_form(-1.0, -1.0, 1.0, -1.0)
        q = (0.05, -0.07)
        image = fold_map_numeric(system, "X", q)
        back = fold_map_numeric(system, "X", image)
        assert math.hypot(back[0] - q[0], back[1] - q[1]) <= 2e-7

    def test_involution_tight_sampled(self):
        # double application returns within 10x the event tolerance
        rng = np.random.default_rng(3)
        system = build_normal_form(-0.8, -1.2, 1.0, -1.0)
        worst = 0.0
        for _ in range(1000):
            q = (rng.uniform(-0.1, 0.1), rng.choice((-1, 1)) * rng.uniform(0.01, 0.1))
            image = fold_map_numeric(system, "X", q)
            back = fold_map_numeric(system, "X", image)
            worst = max(worst, math.hypot(back[0] - q[0], back[1] - q[1]))
        assert worst <= 10.0 * integrator._EVENT_TOL

    def test_visible_fold_fails(self):
        system = build_normal_form(0.5, 0.5, -1.0, 1.0)  # X fold visible
        with pytest.raises(IntegrationFailure):
            fold_map_numeric(system, "X", (0.0, -0.05))

    def test_failure_status_is_flight_status(self):
        system = build_normal_form(0.5, 0.5, -1.0, 1.0)  # X fold visible
        with pytest.raises(IntegrationFailure) as info:
            fold_map_numeric(system, "X", (0.0, -0.05))
        assert isinstance(info.value.status, FlightStatus)

    @pytest.mark.parametrize("side", ["Z", "x", None, ["X"]])
    def test_side_must_be_x_or_y(self, side):
        # before and after a plan is kept, an unhashable side included
        system = build_normal_form(-1.0, -1.0, 1.0, -1.0)
        for _ in range(2):
            with pytest.raises(PreconditionError, match="side must be 'X' or 'Y'"):
                fold_map_numeric(system, side, (0.0, -0.1))
            fold_map_numeric(system, "X", (0.0, -0.1))


class TestFoldMapFlight:
    """A fold map flies the flight ``integrate_to_sigma`` would fly from its
    point: forwards on the field, backwards on the field's reversed kernel,
    which binds the negated coefficients without building ``negated()``."""

    def test_same_flight_as_integrate_to_sigma(self, monkeypatch):
        legs = []  # one [p, args, driver result, located hit...] per flight
        locate = integrator._locate

        def recorded(kernel, _):
            p, f, step, drive = kernel

            def driver(p, *args):
                res = drive(p, *args)
                legs.append([p, args, res])
                return res

            return p, f, step, driver

        def located(*args):
            legs[-1].append(locate(*args))
            return legs[-1][-1]

        _hook_kernels(monkeypatch, recorded)
        monkeypatch.setattr(integrator, "_locate", located)
        system = hot_normal_form()
        # a fresh copy whose negated fields bind their own kernels
        fresh = hot_normal_form()
        r = system.box.flight_guard
        seen = set()
        for side, halfspace in (("X", 1), ("Y", -1)):
            field, ref_field = getattr(system, side), getattr(fresh, side)
            for x in (-0.15, -0.04, 0.04, 0.15):
                for y in (-0.1, -0.03, 0.03, 0.1):
                    legs.clear()
                    image = fold_map_numeric(system, side, (x, y))
                    (p, args, (status, t, point, accepted, rejected, _), *hit), = legs
                    if hit:
                        (point, t, _), = hit
                    s = field.cz.eval(x, y, 0.0)
                    forward = (s > 0.0) if side == "X" else (s < 0.0)
                    seen.add((side, forward))
                    use = ref_field if forward else ref_field.negated()
                    assert _bits(*p) == _bits(*integrator._flight_kernel(use)[0])
                    start, t_limit, h0, d, box, _ = args
                    assert (start, t_limit, d) == ((x, y, 0.0), integrator._MAX_TIME, halfspace)
                    assert _bits(*box) == _bits(x - r, x + r, y - r, y + r, -r, r)
                    ref = integrate_to_sigma(use, (x, y, 0.0), halfspace, system.box, h0)
                    assert (status, accepted, rejected) == (ref.status, ref.accepted, ref.rejected)
                    assert [v.hex() for v in (t, *point)] == [
                        v.hex() for v in (ref.time, *ref.point)]
                    assert _bits(*image) == _bits(*ref.point[:2])
        assert seen == {(side, d) for side in "XY" for d in (True, False)}

    def test_jacobian_builds_no_negated_field(self, monkeypatch, call_counts):
        binds = []
        real = integrator._flight_factory

        def factory(shapes):
            bind = real(shapes)

            def counted(*coeffs):
                binds.append((shapes, coeffs))
                return bind(*coeffs)

            return counted

        monkeypatch.setattr(integrator, "_flight_factory", factory)
        counts = call_counts(VectorField3, "negated")
        system = build_normal_form(-0.7, 1.3, 0.9, -1.0)
        jacobian_numeric(lambda q: return_map_numeric(system, q), (0.0, 0.0), 1e-3)
        assert counts["negated"] == 0
        # one bind per field; each reversed kernel is its field's binding
        # negated, bit for bit the binding of the negated coefficients
        fields = {(shapes, tuple(coeffs)) for shapes, coeffs in (system.X.shape(), system.Y.shape())}
        assert len(binds) == 2 and set(binds) == fields
        monkeypatch.undo()
        for side, fld in zip("XY", (system.X, system.Y)):
            shapes, coeffs = fld.shape()
            negated = integrator._flight_factory(shapes)(*[-c for c in coeffs])[0]
            assert _bits(*system.fold_plans[side][6][0]) == _bits(*negated)

    def test_fresh_jacobians_bind_two_kernels_each(self, monkeypatch):
        # Each fresh system binds X and Y once, onto the functions its shapes
        # compiled for the first, and flies -X and -Y on those bindings
        # negated: no other compile runs.
        binds, compiled = [], []
        real_factory, real_compile = integrator._flight_factory, integrator._compile

        def factory(shapes):
            bind = real_factory(shapes)
            return lambda *coeffs: binds.append(coeffs) or bind(*coeffs)

        def kernels(system):  # X, -X, Y, -Y, as the fold maps fly them
            return [plan[i] for plan in (system.fold_plans[side] for side in "XY") for i in (5, 6)]

        monkeypatch.setattr(integrator, "_flight_factory", factory)
        first = hot_normal_form()
        jacobian_numeric(lambda q: return_map_numeric(first, q), (0.0, 0.0), 1e-3)
        monkeypatch.setattr(integrator, "_compile",
                            lambda *args: compiled.append(args) or real_compile(*args))
        for params in [(1.1, -0.4, 1.7), (-2.2, 0.6, 0.3)]:
            binds.clear()
            system = build_normal_form(*params, -1.0, hot=HOT)
            jacobian_numeric(lambda q: return_map_numeric(system, q), (0.0, 0.0), 1e-3)
            assert len(binds) == 2 and compiled == []
            for kernel, ref in zip(kernels(system), kernels(first)):
                assert all(fn is ref_fn for fn, ref_fn in zip(kernel[1:], ref[1:]))


class TestReturnMap:
    def test_linear_prediction(self):
        system = build_normal_form(-1.0, -1.0, 1.0, -1.0)
        analysis = return_map_analysis(make_parameters(-1.0, -1.0, 1.0, -1.0))
        q = (0.01, -0.01)
        image = return_map_numeric(system, q)
        predicted = analysis.matrix @ np.array(q)
        assert math.hypot(image[0] - predicted[0], image[1] - predicted[1]) <= 1e-5

    def test_origin_fixed(self):
        system = build_normal_form(-1.0, -1.0, 1.0, -1.0)
        image = return_map_numeric(system, (0.0, 0.0))
        assert math.hypot(*image) <= 10 * integrator._EVENT_TOL

    def test_iterated_growth_rate(self):
        # saddle (-2, -1, 1): expansion per full map is 3 + 2 sqrt(2)
        system = build_normal_form(-2.0, -1.0, 1.0, -1.0)
        analysis = return_map_analysis(make_parameters(-2.0, -1.0, 1.0, -1.0))
        lam = max(abs(v) for v in analysis.eigenvalues)
        v = analysis.v_expanding
        q = (1e-3 * v[0], 1e-3 * v[1])
        radii = [math.hypot(*q)]
        for _ in range(4):
            q = return_map_numeric(system, q)
            radii.append(math.hypot(*q))
        growth = [radii[i + 1] / radii[i] for i in range(4)]
        for g in growth:
            assert g == pytest.approx(lam, rel=2e-2)


class TestJacobian:
    def test_return_map_jacobian(self):
        system = build_normal_form(-1.0, -1.0, 0.5, -1.0)
        jac = jacobian_numeric(lambda q: return_map_numeric(system, q), (0.0, 0.0), 1e-3)
        assert np.max(np.abs(jac - np.array([[7.0, 2.0], [-4.0, -1.0]]))) <= 1e-4

    def test_fold_map_jacobian(self):
        system = build_normal_form(-1.0, -1.0, 1.0, -1.0)
        jac = jacobian_numeric(lambda q: fold_map_numeric(system, "X", q), (0.0, 0.0), 1e-3)
        assert np.max(np.abs(jac - np.array([[1.0, 2.0], [0.0, -1.0]]))) <= 1e-6

    def test_identity_map(self):
        jac = jacobian_numeric(lambda q: q, (0.3, -0.4), 1e-3)
        assert np.allclose(jac, np.eye(2), atol=1e-12)

    def test_grid_against_analytic(self):
        for a in (-2.0, -0.7, 1.3):
            for b in (-1.4, 0.9):
                for g in (0.5, 2.0):
                    system = build_normal_form(a, b, g, -1.0)
                    analysis = return_map_analysis(make_parameters(a, b, g, -1.0))
                    jac = jacobian_numeric(
                        lambda q: return_map_numeric(system, q), (0.0, 0.0), 1e-3
                    )
                    assert np.max(np.abs(jac - analysis.matrix)) <= max(1e-4, 10 * 1e-6)


class TestReversibility:
    def test_fold_map_exchanges_manifolds(self):
        # the X-fold map carries the expanding tangent line onto the
        # contracting one to second order
        a, b, g = -2.0, -1.0, 1.0
        system = build_normal_form(a, b, g, -1.0)
        analysis = return_map_analysis(make_parameters(a, b, g, -1.0))
        v_u = analysis.v_expanding
        v_s = analysis.v_contracting
        for r in (0.01, 0.02, 0.04):
            q = (r * v_u[0], r * v_u[1])
            w = fold_map_numeric(system, "X", q)
            dist = abs(v_s[0] * w[1] - v_s[1] * w[0])
            assert dist <= max(5.0 * r * r, 1e-9)


class TestAppendSegment:
    """A segment's arrays hold, bit for bit, what ``np.array(samples)``
    makes of the samples: sliding rows (t, x, y) get z = 0.0, and the
    times are shifted by the segment's start."""

    # a NaN with a payload; -math.nan below has its sign bit set
    PAYLOAD_NAN = struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000123))[0]

    def _assert_same(self, samples, t_offset):
        traj = integrator.Trajectory()
        integrator._append_segment(traj, t_offset, samples, Mode.FLOW_PLUS,
                                   FlightStatus.TIME_OUT)
        (seg,) = traj.segments
        rows = np.array(samples)
        points = np.zeros((len(rows), 3))
        points[:, :rows.shape[1] - 1] = rows[:, 1:]
        assert seg.times.dtype == seg.points.dtype == np.float64
        assert seg.times.tobytes() == (t_offset + rows[:, 0]).tobytes()
        assert seg.points.tobytes() == points.tobytes()

    def test_rows_keep_every_bit(self):
        rng = np.random.default_rng(27)
        special = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, self.PAYLOAD_NAN,
                   5e-324, -1.7976931348623157e308]
        for width in (3, 4):
            for n in (1, 2, 7, 200):
                samples = [tuple(float(v) for v in rng.normal(scale=10.0, size=width))
                           for _ in range(n)]
                for t_offset in (0.0, -0.0, 2.5):
                    self._assert_same(samples, t_offset)
                    self._assert_same(
                        [tuple(rng.choice(special, size=width).tolist()) for _ in range(n)],
                        t_offset)
        # the one-row marker segment of a trajectory that stops at its start
        self._assert_same([(0.0, 0.25, -0.0, 0.0)], 3.0)


class TestTrajectory:
    def test_fall_and_slide(self):
        Z = PiecewiseSystem(const_field(1, 0, -1), const_field(0, 1, 1))
        traj = filippov_trajectory(Z, (0.0, 0.0, 0.5), 5.0)
        assert traj.segments[0].mode is Mode.FLOW_PLUS
        hit = traj.segments[0].points[-1]
        assert hit[0] == pytest.approx(0.5, abs=1e-9)
        assert abs(hit[2]) <= 1e-10
        assert traj.segments[1].mode is Mode.SLIDING
        sl = traj.segments[1]
        dt = sl.times[-1] - sl.times[0]
        assert sl.points[-1][0] - sl.points[0][0] == pytest.approx(0.5 * dt, rel=1e-9)
        assert np.max(np.abs(sl.points[:, 2])) == 0.0

    def test_crossing_alternation_matches_fold_maps(self):
        system = build_normal_form(-1.0, -1.0, 1.0, -1.0)
        q0 = (0.05, -0.04, 0.0)  # crossing: Xf = 0.04 > 0, Yf = 0.05 > 0
        traj = filippov_trajectory(system, q0, 10.0)
        hits = [seg.points[-1] for seg in traj.segments if seg.terminal is FlightStatus.MODE_SWITCH]
        phi_x = fold_map_numeric(system, "X", (q0[0], q0[1]))
        assert hits[0][0] == pytest.approx(phi_x[0], abs=1e-8)
        assert hits[0][1] == pytest.approx(phi_x[1], abs=1e-8)
        phi_yx = fold_map_numeric(system, "Y", phi_x)
        assert hits[1][0] == pytest.approx(phi_yx[0], abs=1e-8)
        assert hits[1][1] == pytest.approx(phi_yx[1], abs=1e-8)

    def test_never_hits_sigma(self):
        Z = PiecewiseSystem(const_field(0, 0, 1), const_field(0, 1, 1))
        traj = filippov_trajectory(Z, (0.0, 0.0, 0.5), 2.0)
        assert traj.segments[-1].terminal in (FlightStatus.LEFT_BOX, FlightStatus.TIME_OUT)

    def test_unstable_sliding_start_flagged(self):
        system = build_normal_form(-1.0, -1.0, 1.0, -1.0)
        traj = filippov_trajectory(system, (-0.5, -0.5, 0.0), 2.0)
        assert traj.status == FlightStatus.UNSTABLE_SLIDING.value

    def test_start_at_two_fold_reaches_tangency(self):
        system = build_normal_form(-1.0, -1.0, 1.0, -1.0)
        traj = filippov_trajectory(system, (0.0, 0.0, 0.0), 2.0)
        assert traj.status == FlightStatus.REACHED_TANGENCY.value
        assert len(traj.segments) == 1
        seg = traj.segments[0]
        assert seg.terminal is FlightStatus.REACHED_TANGENCY
        assert seg.times.tolist() == [0.0]
        assert seg.points.tolist() == [[0.0, 0.0, 0.0]]
        assert traj.total_time == 0.0

    def test_reverse_time_enters_unstable_sliding(self):
        system = build_normal_form(-1.0, -1.0, 1.0, -1.0)
        traj = filippov_trajectory(system, (-0.5, -0.5, 0.0), -1.0)
        modes = [seg.mode for seg in traj.segments]
        assert Mode.SLIDING in modes
        assert traj.total_time < 0

    def test_visible_fold_exit(self):
        X = VectorField3(Poly3.constant(0.0), Poly3.constant(-1.0), Poly3({(0, 1, 0): -1.0}))
        Z = PiecewiseSystem(X, const_field(0, 0, 1))
        traj = filippov_trajectory(Z, (0.0, 0.5, 0.0), 3.0)
        assert traj.segments[0].mode is Mode.SLIDING
        assert traj.segments[0].terminal is FlightStatus.MODE_SWITCH
        assert traj.segments[1].mode is Mode.FLOW_PLUS

    def test_mode_consistent_with_z_sign(self):
        system = build_normal_form(-2.0, -1.0, 1.0, -1.0)
        traj = filippov_trajectory(system, (0.05, -0.04, 0.0), 5.0)
        for seg in traj.segments:
            z = seg.points[:, 2]
            if seg.mode is Mode.FLOW_PLUS:
                assert np.min(z) >= -integrator._EVENT_TOL * 10
            elif seg.mode is Mode.FLOW_MINUS:
                assert np.max(z) <= integrator._EVENT_TOL * 10
            else:
                assert np.max(np.abs(z)) == 0.0

    @pytest.mark.parametrize("horizon", [0.5, -0.5])
    def test_flow_segments_end_on_the_plane(self, ci_normal_form, horizon):
        # a free flight's return to the plane, located in its driver,
        # forwards and on the time-reversed system
        traj = filippov_trajectory(ci_normal_form, (0.2, 0.1, 0.02), horizon)
        on_plane = (FlightStatus.MODE_SWITCH, FlightStatus.REACHED_TANGENCY,
                    FlightStatus.UNSTABLE_SLIDING)
        ends = [seg.points[-1] for seg in traj.segments
                if seg.mode is not Mode.SLIDING and seg.terminal in on_plane]
        assert ends and max(abs(end[2]) for end in ends) <= 1e-12

    def test_stick_slip_time_reversed(self):
        # the negated fields run through the same generated driver: the
        # samples of every segment run back in time, to the horizon
        system, _ = dry_friction()
        traj = filippov_trajectory(system, (0.2, 0.3, 0.5), -3.0)
        times = np.concatenate([seg.times for seg in traj.segments])
        assert traj.status == FlightStatus.TIME_OUT.value and len(traj.segments) >= 2
        assert np.all(np.diff(times) <= 0.0)

    def test_junction_continuity(self):
        system = build_normal_form(-2.0, -1.0, 1.0, -1.0)
        traj = filippov_trajectory(system, (0.05, -0.04, 0.0), 5.0)
        for prev, nxt in zip(traj.segments, traj.segments[1:]):
            gap = np.linalg.norm(prev.points[-1] - nxt.points[0])
            assert gap <= 10 * integrator._EVENT_TOL

    @pytest.mark.parametrize("p0,horizon", [((5.0, 0.0, 0.5), 2.0), ((0.0, 0.0, 1.5), 2.0),
                                            ((0.5, -1.5, 0.0), -2.0)])
    def test_start_outside_box_rejected(self, monkeypatch, p0, horizon):
        Z = PiecewiseSystem(const_field(1, 0, -1), const_field(0, 1, 1))
        counts = _count_kernel_steps(monkeypatch, collections.Counter())
        with pytest.raises(PreconditionError, match="outside its box"):
            filippov_trajectory(Z, p0, horizon)
        assert counts == {}

    def test_start_below_sigma(self):
        # Y = (0, 1, 1) lifts (0, 0, -0.5) to the plane at (0, 0.5, 0) in time
        # 0.5, where Xf = -1 < 0 < Yf = 1: it slides on.
        Z = PiecewiseSystem(const_field(1, 0, -1), const_field(0, 1, 1))
        traj = filippov_trajectory(Z, (0.0, 0.0, -0.5), 1.0)
        first = traj.segments[0]
        assert first.mode is Mode.FLOW_MINUS and first.terminal is FlightStatus.MODE_SWITCH
        assert np.max(first.points[:, 2]) <= integrator._EVENT_TOL
        assert first.times[-1] == pytest.approx(0.5, abs=1e-9)
        assert first.points[-1][1] == pytest.approx(0.5, abs=1e-9)
        assert traj.segments[1].mode is Mode.SLIDING

    def test_zero_horizon_is_one_time_out_marker(self):
        Z = PiecewiseSystem(const_field(1, 0, -1), const_field(0, 1, 1))
        traj = filippov_trajectory(Z, (0.1, 0.2, 0.5), 0.0)
        (seg,) = traj.segments
        assert seg.mode is Mode.FLOW_PLUS and seg.terminal is FlightStatus.TIME_OUT
        assert seg.times.tolist() == [0.0] and seg.points.tolist() == [[0.1, 0.2, 0.5]]
        assert traj.status == FlightStatus.TIME_OUT.value and traj.total_time == 0.0

    def test_segment_cap_is_step_limit(self):
        # X = (0, -1, y) and Y = (0, 1, y): parabolic arcs of time 1 from
        # y = 0.5 to y = -0.5 above the plane and back below it, crossing the
        # plane twice per period, so the horizon outlasts the segment cap.
        X = VectorField3(Poly3.zero(), Poly3.constant(-1.0), Poly3({(0, 1, 0): 1.0}))
        Y = VectorField3(Poly3.zero(), Poly3.constant(1.0), Poly3({(0, 1, 0): 1.0}))
        traj = filippov_trajectory(PiecewiseSystem(X, Y), (0.0, 0.5, 0.0), 1e4)
        assert len(traj.segments) == integrator._MAX_SEGMENTS
        assert traj.status == FlightStatus.STEP_LIMIT.value
        assert {seg.terminal for seg in traj.segments} == {FlightStatus.MODE_SWITCH}
        assert traj.total_time == pytest.approx(integrator._MAX_SEGMENTS, rel=1e-12)

    def test_start_on_box_face_accepted(self):
        Z = PiecewiseSystem(const_field(1, 0, -1), const_field(0, 1, 1))
        traj = filippov_trajectory(Z, (0.0, 0.0, 1.0), 0.5)
        assert traj.status == FlightStatus.TIME_OUT.value

    def test_sliding_into_t_singularity_terminates(self):
        # inside RE1 the sliding orbit reaches the two-fold in finite time
        system = build_normal_form(-2.0, -1.0, 1.0, -1.0)
        traj = filippov_trajectory(system, (0.3, 0.3, 0.0), 10.0)
        assert traj.segments[0].mode is Mode.SLIDING
        assert traj.segments[-1].terminal in (
            FlightStatus.REACHED_TANGENCY,
            FlightStatus.DENOMINATOR_BLOWUP,
        )
        end = traj.segments[-1].points[-1]
        assert math.hypot(end[0], end[1]) <= 1e-3

    def test_sliding_onto_a_zero_denominator_reaches_tangency(self, monkeypatch):
        # Xf = x - 1 and Yf = 1 - x: the sliding flow x' = 1 meets both fold
        # lines at x = 1, where Yf - Xf = 0.  The fold events' interpolant
        # root lands on x = 1.0 exactly, so re-integrating there divides by
        # zero; the locator must pass over that state and the den event end
        # the trajectory at the two-fold.
        raised = []
        real = integrator._eval_within_step

        def eval_within_step(*args):
            try:
                return real(*args)
            except ZeroDivisionError:
                raised.append(args[-1])
                raise

        monkeypatch.setattr(integrator, "_eval_within_step", eval_within_step)
        xf = Poly3({(1, 0, 0): 1.0, (0, 0, 0): -1.0})
        system = PiecewiseSystem(VectorField3(Poly3.constant(1.0), Poly3.zero(), xf),
                                 VectorField3(Poly3.constant(1.0), Poly3.zero(), -xf))
        traj = filippov_trajectory(system, (0.5, 0.0, 0.0), 2.0)
        assert raised
        assert traj.status == FlightStatus.REACHED_TANGENCY.value
        (seg,) = traj.segments
        assert seg.mode is Mode.SLIDING and seg.terminal is FlightStatus.REACHED_TANGENCY
        assert abs(seg.points[-1][0] - 1.0) <= 1e-8 and traj.total_time == seg.times[-1]


class TestOutputsPinned:
    """SHA-256 over ``float.hex`` of numeric return-map Jacobians and of
    Filippov trajectories, so that a change to the step control, the event
    locator or one of their constants cannot pass unnoticed."""

    DIGEST = "bdf52f338533378b0161c5b359f8018c911dc2a9cc4f3fef28474b1c727794b0"

    @staticmethod
    def _feed(digest, values):
        digest.update((",".join(float(v).hex() for v in values) + ";").encode())

    def test_jacobians_and_trajectories(self):
        digest = hashlib.sha256()
        for a in (-2.0, -0.7, 0.4, 1.3, 2.5):
            for b in (-1.4, 0.9):
                for g in (0.5, 2.0):
                    system = build_normal_form(a, b, g, -1.0)
                    jac = jacobian_numeric(
                        lambda q: return_map_numeric(system, q), (0.0, 0.0), 1e-3
                    )
                    self._feed(digest, jac.ravel().tolist())
        elliptic = build_normal_form(-2.0, -1.0, 1.0, -1.0)
        invisible = build_normal_form(-1.0, -1.0, 1.0, -1.0)
        stick_slip, box = dry_friction()
        runs = [
            filippov_trajectory(invisible, (0.05, -0.04, 0.0), 10.0),  # free flights
            filippov_trajectory(elliptic, (0.3, 0.3, 0.0), 10.0),  # sliding
            filippov_trajectory(stick_slip, (0.2, 0.3, 0.0), 12.0, IntegratorConfig(box=box)),
            filippov_trajectory(invisible, (-0.5, -0.5, 0.0), -1.0),  # negative horizon
        ]
        for traj in runs:
            for seg in traj.segments:
                digest.update(f"{seg.mode.value},{seg.terminal.value};".encode())
                self._feed(digest, seg.times.tolist())
                self._feed(digest, seg.points.ravel().tolist())
            digest.update(traj.status.encode())
            self._feed(digest, [traj.total_time])
        exits = [
            (seg.mode, nxt.mode)
            for seg, nxt in zip(runs[2].segments, runs[2].segments[1:])
        ]
        assert (Mode.SLIDING, Mode.FLOW_MINUS) in exits
        assert Mode.SLIDING in {seg.mode for seg in runs[1].segments + runs[3].segments}
        assert digest.hexdigest() == self.DIGEST


class TestNumericRoutePinned:
    """The numeric route on nonlinear fold maps, pinned by
    ``pinned_digests.numeric_route_digest``: ``TestOutputsPinned`` covers
    only normal forms without higher-order terms, whose fold maps are
    linear.  ``linear_fold_path_digest`` pins those on the interpreters
    that run ``pinned_digests`` with nothing installed."""

    def test_nonlinear_fold_maps_flights_and_names(self):
        assert numeric_route_digest() == NUMERIC_ROUTE_DIGEST

    def test_linear_fold_path(self):
        # both kernels of fields with empty components, visible X folds and
        # the return map's central differences
        assert linear_fold_path_digest() == LINEAR_FOLD_PATH_DIGEST


class TestConfig:
    def test_custom_box(self):
        cfg = IntegratorConfig(box=Box(-2, 2, -2, 2, -2, 2))
        Z = PiecewiseSystem(const_field(1, 0, -1), const_field(0, 1, 1))
        traj = filippov_trajectory(Z, (0.0, 0.0, 0.5), 50.0, cfg)
        end = traj.segments[-1].points[-1]
        assert traj.segments[-1].terminal is FlightStatus.LEFT_BOX
        assert max(abs(end[0]), abs(end[1])) > 2.0

    def test_trajectory_without_cfg_stops_at_system_box(self):
        Z = PiecewiseSystem(const_field(1, 0, -1), const_field(0, 1, 1),
                            Box(-2, 2, -2, 2, -2, 2))
        traj = filippov_trajectory(Z, (0.0, 0.0, 0.5), 50.0)
        end = traj.segments[-1].points[-1]
        assert traj.segments[-1].terminal is FlightStatus.LEFT_BOX
        assert max(abs(end[0]), abs(end[1])) > 2.0

    def test_fold_map_guard_follows_system_box(self):
        # The X arc from (0, -0.1) reaches y = 0.1; a box of side 0.02 guards
        # the flight at 0.03 from the start, so the arc leaves the guard.
        nf = build_normal_form(-1.0, -1.0, 1.0, -1.0)
        small = PiecewiseSystem(nf.X, nf.Y, Box(-0.01, 0.01, -0.01, 0.01, -0.01, 0.01))
        with pytest.raises(IntegrationFailure) as exc:
            fold_map_numeric(small, "X", (0.0, -0.1))
        assert exc.value.status is FlightStatus.LEFT_BOX


def _count_kernel_steps(monkeypatch, counts):
    """Count flights, one per driver run, in ``counts["flights"]``, and
    Dormand-Prince steps: the accepted and rejected steps that each driver
    run reports, the in-line probe a driver takes at each root of
    ``_plane_root`` strictly inside the bracketing step, whether it meets
    the goal or not, and the steps the locator takes through the kernel's
    ``step``.  A step adds 1 to
    ``counts["kernel_steps"]`` and 6 to ``counts["field_evals"]``, the
    stages it writes out; a driver run adds 1 more evaluation, the first
    stage at its start, and so does each call of the kernel's ``field``.
    Returns ``counts``."""
    plane_root = integrator._plane_root
    driving = []  # non-empty while a driver runs

    def add_steps(n):
        counts["kernel_steps"] += n
        counts["field_evals"] += 6 * n

    def counted(kernel, _):
        p, f, step, drive = kernel

        def counted_field(p, *y):
            counts["field_evals"] += 1
            return f(p, *y)

        def counted_step(p, y, h, k1):
            add_steps(1)
            return step(p, y, h, k1)

        def counted_drive(p, *args):
            driving.append(True)
            try:
                res = drive(p, *args)
            finally:
                driving.pop()
            counts["flights"] += 1
            add_steps(res[3] + res[4])  # accepted + rejected
            counts["field_evals"] += 1
            return res

        return p, counted_field, counted_step, counted_drive

    def counted_root(z0, z1, kz0, kz1, h, g0, g1):
        dt = plane_root(z0, z1, kz0, kz1, h, g0, g1)
        if driving and 0.0 < dt < h:
            add_steps(1)
        return dt

    _hook_kernels(monkeypatch, counted)
    monkeypatch.setattr(integrator, "_plane_root", counted_root)
    return counts


def _record_refinements(monkeypatch):
    """Wrap the locator: one ``(h, found, kernel_steps, event_name)`` per
    event, counting the calls of the kernel the driver hands to
    ``_refine_event``."""
    events = []
    real_refine = integrator._refine_event

    def refine(p, f, step, event, y_left, k_left, y_right, k_right, h, g_left, g_right, first):
        counts = collections.Counter()

        def counted(*args):
            counts["steps"] += 1
            return step(*args)

        found = real_refine(p, f, counted, event, y_left, k_left, y_right, k_right, h, g_left,
                            g_right, first)
        events.append((h, found, counts["steps"], event.name))
        return found

    monkeypatch.setattr(integrator, "_refine_event", refine)
    return events


class TestEventLocator:
    STRETCH = 1e-3 * integrator._EVENT_TOL

    @staticmethod
    def _hot_flight():
        # Y flight below the plane from Yf = x < 0 back to {z = 0}.
        return integrate_to_sigma(hot_normal_form().Y, (-0.15, 0.05, 0.0), -1)

    @staticmethod
    def _stick_slip_run():
        system, box = dry_friction()
        return filippov_trajectory(system, (0.2, 0.3, 0.0), 12.0, IntegratorConfig(box=box))

    @staticmethod
    def _force_fallback(monkeypatch, factor):
        # An interpolant root outside (0, h) must hand over to bisection,
        # the plane event's in the driver as well as in the locator.
        monkeypatch.setattr(integrator, "_interpolant_root", lambda *args: factor * args[5])
        monkeypatch.setattr(integrator, "_plane_root", lambda *args: factor * args[4])

    def test_invisible_fold_one_or_two_steps_per_event(self, monkeypatch):
        events = _record_refinements(monkeypatch)
        res = self._hot_flight()
        assert res.status is FlightStatus.HIT_SIGMA
        assert len(events) == 1
        h, found, steps, name = events[0]
        assert name == "sigma" and steps <= 2
        assert abs(res.point[2]) <= self.STRETCH
        assert found[1] == res.point

    @pytest.mark.parametrize("factor", [-0.5, 2.0])
    def test_invisible_fold_fallback_stays_in_bracket(self, monkeypatch, factor):
        reference = self._hot_flight()
        events = _record_refinements(monkeypatch)
        self._force_fallback(monkeypatch, factor)
        res = self._hot_flight()
        (h, (dt, state, g), steps, _), = events
        assert 0.0 < dt < h
        assert abs(res.point[2]) <= integrator._EVENT_TOL and state == res.point
        assert math.hypot(
            res.point[0] - reference.point[0], res.point[1] - reference.point[1]
        ) <= 1e-9

    def test_sliding_exit_one_or_two_steps_per_event(self, monkeypatch):
        events = _record_refinements(monkeypatch)
        traj = self._stick_slip_run()
        sliding = [e for e in events if e[3] in ("sx", "sy")]
        assert len(sliding) >= 2
        for h, (dt, _, g), steps, _ in sliding:
            assert 0.0 < dt <= h
            assert steps <= 2 and abs(g) <= self.STRETCH
        assert [seg.mode for seg in traj.segments[:2]] == [Mode.SLIDING, Mode.FLOW_MINUS]

    @pytest.mark.parametrize("factor", [-0.5, 2.0])
    def test_sliding_exit_fallback_stays_in_bracket(self, monkeypatch, factor):
        reference = self._stick_slip_run()
        events = _record_refinements(monkeypatch)
        self._force_fallback(monkeypatch, factor)
        traj = self._stick_slip_run()
        sliding = [e for e in events if e[3] in ("sx", "sy")]
        assert sliding
        for h, (dt, _, g), _, _ in sliding:
            assert 0.0 < dt < h and abs(g) <= integrator._EVENT_TOL
        exit_ref = reference.segments[0].points[-1]
        exit_new = traj.segments[0].points[-1]
        assert np.max(np.abs(exit_new - exit_ref)) <= 1e-9


def _ref_plane_root(z0, z1, kz0, kz1, h, g0, g1):
    """``integrator._plane_root`` as it was written with ``_hermite``'s
    expression, ``-s * s * r * h`` added: kept to pin the root's bits."""
    dz = z1 - z0
    a, ga, b, gb = 0.0, g0, h, g1
    t = b
    for _ in range(100):
        t = b - gb * (b - a) / (gb - ga)
        if t == a or t == b:
            break
        s = t / h
        r = 1.0 - s
        g = z0 + s * s * (3.0 - 2.0 * s) * dz + s * r * r * h * kz0 + -s * s * r * h * kz1
        if g == 0.0:
            break
        if (g > 0.0) == (gb > 0.0):
            m = 1.0 - g / gb
            ga *= m if m > 0.0 else 0.5
        else:
            a, ga = b, gb
        b, gb = t, g
    return t


class TestPlaneRootOneComponent:
    """The plane driver's interpolant root, ``_plane_root``, reads the
    z-component alone; it must equal, bit for bit, the root that the generic
    ``_interpolant_root`` finds through the plane event's ``fn`` on the full
    interpolated state."""

    @staticmethod
    def _assert_same_root(y0, k0, y1, k1, h, g0, g1):
        got = integrator._plane_root(y0[2], y1[2], k0[2], k1[2], h, g0, g1)
        (event,) = integrator._SIGMA_EVENTS
        ref = integrator._interpolant_root(event, y0, k0, y1, k1, h, g0, g1)
        assert _bits(got) == _bits(ref)
        return got

    def test_seeded_random_brackets(self):
        rng = np.random.default_rng(31)
        for _ in range(2000):
            h = float(10.0 ** rng.uniform(-8, 0)) * float(rng.choice((-1.0, 1.0)))
            y0, k0, y1, k1 = (
                tuple(float(v) for v in rng.normal(scale=10.0 ** rng.uniform(-6, 1), size=3))
                for _ in range(4)
            )
            if y0[2] * y1[2] >= 0.0:
                y1 = (y1[0], y1[1], -y1[2])
            if y0[2] * y1[2] >= 0.0:
                continue
            t = self._assert_same_root(y0, k0, y1, k1, h, y0[2], y1[2])
            assert min(0.0, h) <= t <= max(0.0, h)

    def test_same_bits_as_the_hermite_expression(self):
        # Seeded brackets whose values and slopes include signed zeros, huge
        # and tiny slopes (1e+-150, whose products overflow or underflow),
        # and ordinary floats; g0 and g1 are drawn apart from z0 and z1 so
        # that a bracket with z0 = -0.0 still iterates.
        rng = np.random.default_rng(38)
        special = [0.0, -0.0, 1e150, -1e150, 1e-150, -1e-150]

        def value(scale):
            if rng.random() < 0.4:
                return float(rng.choice(special))
            return float(rng.normal(scale=10.0 ** rng.uniform(-scale, scale)))

        for _ in range(4000):
            h = float(10.0 ** rng.uniform(-8, 1)) * float(rng.choice((-1.0, 1.0)))
            z0, z1, kz0, kz1 = (value(6) for _ in range(4))
            g0 = abs(z0) if z0 and rng.random() < 0.5 else abs(value(3)) + 1e-300
            g1 = -abs(z1) if z1 and rng.random() < 0.5 else -abs(value(3)) - 1e-300
            if rng.random() < 0.5:
                g0, g1 = -g0, -g1
            got = integrator._plane_root(z0, z1, kz0, kz1, h, g0, g1)
            assert _bits(got) == _bits(_ref_plane_root(z0, z1, kz0, kz1, h, g0, g1))

    def test_hot_normal_form_flights(self, monkeypatch):
        # every fold map's driver calls _plane_root on the bracketing step's
        # z-component, and hands the root on with each return it hands over,
        # so the locator does not call it again
        calls, handed = [], []
        real, real_refine = integrator._plane_root, integrator._refine_event

        def record(*args):
            calls.append(args)
            return real(*args)

        def refine(*args):
            handed.append(args)
            return real_refine(*args)

        monkeypatch.setattr(integrator, "_plane_root", record)
        monkeypatch.setattr(integrator, "_refine_event", refine)
        system = hot_normal_form()
        for x in (-0.2, -0.07, 0.03, 0.15):
            for y in (-0.12, -0.02, 0.05, 0.1):
                fold_map_numeric(system, "Y", (x, y))
                fold_map_numeric(system, "X", (x, y))
        monkeypatch.undo()
        assert 0 < len(handed) < 32 and len(calls) == 32
        for z0, z1, kz0, kz1, h, g0, g1 in calls:
            assert (g0, g1) == (z0, z1)
            self._assert_same_root((0.0, 0.0, z0), (0.0, 0.0, kz0), (0.0, 0.0, z1),
                                   (0.0, 0.0, kz1), h, g0, g1)


class TestWorkCounts:
    """One numeric Jacobian of the return map on a delta = -1 normal form:
    6 flights (two of the eight fold maps start on the Y tangency line),
    24 Dormand-Prince steps, each flight's in-line probe that locates its
    return included, and 150 field evaluations: 6 for each step, 1 at the
    start of each flight and the calls of the kernel's evaluator (the
    locator's Newton slopes, none here).  A flight never calls the compiled
    evaluator ``VectorField3.compiled()``.  Flights are counted where they
    are flown, at the runs of their drivers, which the fold maps and
    ``integrate_to_sigma`` call directly."""

    @pytest.mark.parametrize("params", [
        (-0.7, 1.3, 0.9), (2.5, -1.4, 0.5), (-1.0, -1.0, 1.0), (0.4, 0.9, 2.0), (-2.0, -1.4, 0.5),
    ])
    def test_return_map_jacobian(self, monkeypatch, call_counts, params):
        counts = _count_kernel_steps(monkeypatch, call_counts(VectorField3, "compiled"))
        system = build_normal_form(*params, -1.0)
        jacobian_numeric(lambda q: return_map_numeric(system, q), (0.0, 0.0), 1e-3)
        assert counts == {"flights": 6, "kernel_steps": 24, "field_evals": 150}

    def test_stick_slip_trajectory(self, monkeypatch, call_counts):
        # slide, slip below the plane, slide, slip to the horizon: 351
        # accepted steps, one step to locate each sliding exit and two for
        # the return to the plane, whose in-line probe in the driver misses
        # the goal, so that the locator, handed the probe's state, polishes
        # once
        counts = _count_kernel_steps(monkeypatch, call_counts(integrator, "_refine_event"))
        system, box = dry_friction()
        traj = filippov_trajectory(system, (0.2, 0.3, 0.0), 12.0, IntegratorConfig(box=box))
        assert (counts["kernel_steps"], counts["_refine_event"]) == (355, 3)
        assert [(seg.mode, seg.terminal, len(seg.times)) for seg in traj.segments] == [
            (Mode.SLIDING, FlightStatus.MODE_SWITCH, 20),
            (Mode.FLOW_MINUS, FlightStatus.MODE_SWITCH, 186),
            (Mode.SLIDING, FlightStatus.MODE_SWITCH, 18),
            (Mode.FLOW_MINUS, FlightStatus.TIME_OUT, 131),
        ]


class TestNonFiniteErrorNorm:
    """Flights on dx/dt = x*y from x = 1e306: x overflows, the stages turn
    infinite and the error norm NaN.  A NaN norm is accepted and grows the
    step fivefold, because the step control's clamps keep ``min``/``max``'s
    rule that the first argument wins against NaN.  Both guards end a
    flight at its first NaN state.  Step sizes, states and samples are
    pinned by SHA-256 over ``float.hex``."""

    BIG = Box(-1e308, 1e308, -1e308, 1e308, -1e308, 1e308)  # scale overflows
    FLIGHT_DIGEST = "2d52d570f49cc17ad1739482f917a8f115545c38b328cac42dd63e14d8823d1e"
    TRAJECTORY_DIGEST = "62e81d8448141a12f1cc397e2453743e4835d68e74f698f33e46a878e250a01c"

    @staticmethod
    def _field(cz):
        return VectorField3(Poly3({(1, 1, 0): 1.0}), Poly3.constant(1.0), cz)

    @staticmethod
    def _digest(values):
        return hashlib.sha256(",".join(float(v).hex() for v in values).encode()).hexdigest()

    def test_flight_grows_fivefold_to_the_horizon(self):
        field = self._field(Poly3.constant(1.0))
        kernel = integrator._flight_kernel(field)
        p, f, kernel_step, _ = kernel
        start = (1e306, 1.0, 0.0)

        def flight(outside=None):
            steps = []

            def step(p, y, h, k1):
                out = kernel_step(p, y, h, k1)
                steps.append((h, out[2]))
                return out

            event = _RefEvent("sigma", operator.itemgetter(2), 1e-13, 1, 2)
            res = _ref_integrate(p, f, step, start, [event], integrator._MAX_TIME, outside)
            return res, steps

        # dz/dt = 1 never returns and the reference loop runs with no guard,
        # so the flight runs to the time horizon
        res, steps = flight()
        assert res.status is FlightStatus.TIME_OUT and res.time == integrator._MAX_TIME
        assert math.isnan(res.point[0])
        first_nan = next(i for i, (_, err) in enumerate(steps) if math.isnan(err))
        assert (first_nan, len(steps)) == (69, 76)
        assert all(math.isnan(err) for _, err in steps[first_nan:])
        hs = [h for h, _ in steps[first_nan:]]
        assert all(b == 5.0 * a for a, b in zip(hs, hs[1:-1]))
        assert self._digest([v for h_err in steps for v in h_err] + list(res.point)) == (
            self.FLIGHT_DIGEST)
        # A generated driver always has a guard, and every guard takes NaN
        # for outside.  Under an unbounded cube the reference loop takes the
        # same first steps and leaves at the first NaN state; the driver,
        # under the same cube written as the box (-inf, inf)^3, ends there
        # too, at the same point and time.
        guarded, guarded_steps = flight(_ref_cube(start, math.inf))
        assert guarded.status is FlightStatus.LEFT_BOX and math.isnan(guarded.point[0])
        assert len(guarded_steps) < len(steps)
        assert [_bits(*hs) for hs in guarded_steps] == [
            _bits(*hs) for hs in steps[:len(guarded_steps)]]
        status, t, point, accepted, rejected, bracket = kernel[3](
            p, start, integrator._MAX_TIME, None, 1, _cube_box(start, math.inf), [])
        assert bracket is None
        assert (status, accepted + rejected) == (guarded.status, len(guarded_steps))
        assert _bits(t, *point) == _bits(guarded.time, *guarded.point)

    def test_flight_leaves_guard_at_nan(self, monkeypatch):
        # dz/dt = 2 - y returns to the plane at t = 2, after x overflowed:
        # the guard cube, unbounded for this box, ends the flight at the
        # first NaN state instead of refining an event on NaN states
        counts = _count_kernel_steps(monkeypatch, collections.Counter())
        field = self._field(Poly3({(0, 0, 0): 2.0, (0, 1, 0): -1.0}))
        res = integrate_to_sigma(field, (1e306, 1.0, 0.0), 1, self.BIG)
        assert res.status is FlightStatus.LEFT_BOX and math.isnan(res.point[0])
        assert math.isfinite(res.time) and res.time < 2.0
        assert counts["kernel_steps"] < 100

    def test_trajectory_leaves_box_at_overflow(self):
        X = self._field(Poly3({(0, 0, 0): 2.0, (0, 1, 0): -1.0}))
        system = PiecewiseSystem(X, const_field(0, 0, 1), self.BIG)
        traj = filippov_trajectory(system, (1e306, 1.0, 0.5), 5.0, IntegratorConfig(box=self.BIG))
        (seg,) = traj.segments
        assert (traj.status, seg.mode, len(seg.times)) == ("left-box", Mode.FLOW_PLUS, 71)
        assert traj.total_time == seg.times[-1]
        assert seg.points[-1][0] == math.inf and np.isfinite(seg.points[:-1]).all()
        assert self._digest(seg.times.tolist() + seg.points.ravel().tolist()) == (
            self.TRAJECTORY_DIGEST)


class TestOverflowingPower:
    """A power is generated as a product, so it overflows to inf as x*y
    does, and a flight on it ends at the guard like the flights of
    ``TestNonFiniteErrorNorm``.  dx/dt = x**2 from x = 1e150 overflows in
    the first step's stages, whose weighted sums make the new x NaN."""

    BIG = Box(-1e300, 1e300, -1e300, 1e300, -1e300, 1e300)
    SQUARE = Poly3({(2, 0, 0): 1.0})

    def _field(self, cz):
        return VectorField3(self.SQUARE, Poly3.constant(0.0), Poly3.constant(cz))

    def test_flight_leaves_guard_and_fold_map_fails(self):
        field = self._field(1.0)
        f, step, _ = _bound(integrator._flight_kernel(field))
        y_new, k_last, err_norm = step((1e150, 0.0, 0.0), 1e-4, f(1e150, 0.0, 0.0))
        assert math.isnan(y_new[0]) and math.isnan(k_last[0]) and math.isnan(err_norm)
        res = integrate_to_sigma(field, (1e150, 0.0, 0.0), 1, self.BIG)
        assert (res.status, res.accepted, res.rejected) == (FlightStatus.LEFT_BOX, 1, 0)
        assert math.isnan(res.point[0]) and res.point[1:] == (0.0, y_new[2])
        assert res.time == 1e-4
        system = PiecewiseSystem(field, self._field(1.0), self.BIG)
        with pytest.raises(IntegrationFailure) as exc:
            fold_map_numeric(system, "X", (1e150, 0.0))
        assert exc.value.status is FlightStatus.LEFT_BOX

    def test_sliding_phase_leaves_box(self):
        # Xf = -1 < 0 < 1 = Yf: stable sliding everywhere, along dx/dt = x**2
        system = PiecewiseSystem(self._field(-1.0), self._field(1.0), self.BIG)
        traj = filippov_trajectory(system, (1e150, 0.0, 0.0), 1.0)
        (seg,) = traj.segments
        assert (traj.status, seg.mode, len(seg.times)) == ("left-box", Mode.SLIDING, 2)
        assert math.isnan(seg.points[-1][0]) and seg.points[-1][1:].tolist() == [0.0, 0.0]


class TestGeneratedDriver:
    """The generated drivers against the reference loop ``_ref_integrate``,
    flight by flight: the same ``FlightResult`` (status, point, time, event
    and step counts) and the same samples, bit for bit.  A flight from the
    plane, of ``integrate_to_sigma`` or a fold map, flies the box driver
    ``in_box`` under the cube around its start written as a box; its
    reference runs under the cube guard ``_ref_cube``.

    The reference hands every step where events fire over to ``_locate``.
    The box driver locates the plane event itself when its first probe
    meets the goal, and hands it over otherwise; ``routes`` counts the
    generated run's plane events by the route they took."""

    @staticmethod
    def _flights(reference, run, max_steps=None):
        """``run()`` on the generated drivers, or on the reference loop with
        ``reference``: one ``(kind, result, samples, handed)`` per flight,
        the kind being "plane" for a flight from the plane and the driver's
        name otherwise, and ``handed`` whether the flight's step went to
        ``_locate``.  A flight from the plane starts at z = 0 under the cube
        around its start.  Each system makes its fold plans afresh for the
        run, on the recording kernels, and reads them from then on."""
        flights = []
        locate = integrator._locate
        plans = {}  # id(system): (system, its fold plans in this run)

        def recording(kernel, system):
            p, f, step, drive = kernel

            def driver(p, *args):
                start, box = args[0], args[-2]
                plane = drive.__name__ == "in_box" and start[2] == 0.0 and (
                    _bits(*box) == _bits(*_cube_box(start, box[5])))
                if reference:
                    res = _ref_drive((p, f, step, drive), system, *args, cube=plane)
                else:
                    res = drive(p, *args)
                status, t, point, accepted, rejected, _ = res
                event = "sigma" if status is FlightStatus.HIT_SIGMA else None
                flights.append(["plane" if plane else drive.__name__, integrator.FlightResult(
                    status, point, t, event, accepted, rejected), list(args[-1]), False])
                return res

            return p, f, step, driver

        def located(*args):
            hit = locate(*args)
            record = flights[-1]
            record[1].point, record[1].time, record[1].event = hit
            record[3] = True
            return hit

        with pytest.MonkeyPatch.context() as mp:
            _hook_kernels(mp, recording)
            mp.setattr(integrator, "_locate", located)
            mp.setattr(PiecewiseSystem, "fold_plans", property(
                lambda system: plans.setdefault(id(system), (system, {}))[1]))
            if max_steps is not None:
                mp.setattr(integrator, "_MAX_STEPS", max_steps)
            try:
                run()
            except IntegrationFailure:
                pass
        return [tuple(record) for record in flights]

    def _assert_same(self, run, max_steps=None):
        got = self._flights(False, run, max_steps)
        ref = self._flights(True, run, max_steps)
        assert got and len(got) == len(ref)
        for (name, res, samples, _), (ref_name, ref_res, ref_samples, _) in zip(got, ref):
            assert (name, res.status, res.event, res.accepted, res.rejected) == (
                ref_name, ref_res.status, ref_res.event, ref_res.accepted, ref_res.rejected)
            assert _bits(res.time, *res.point) == _bits(ref_res.time, *ref_res.point)
            assert [_bits(*row) for row in samples] == [_bits(*row) for row in ref_samples]
        self.routes = collections.Counter(
            "_refine_event" if handed else "driver"
            for _, res, _, handed in got if res.event == "sigma")
        return [(name, res.status, res.event) for name, res, _, _ in got]

    def test_plane_flights_both_directions(self):
        system = hot_normal_form()

        def run():
            for x in (-0.2, -0.07, 0.03, 0.15):  # fold maps pass h0
                for y in (-0.12, 0.05):
                    for side in "XY":
                        try:
                            fold_map_numeric(system, side, (x, y))
                        except IntegrationFailure:
                            pass
            integrator.integrate_to_sigma(system.X, (0.05, -0.1, 0.0), 1)
            integrator.integrate_to_sigma(system.Y, (-0.1, 0.05, 0.0), -1)

        flights = self._assert_same(run)
        assert len(flights) == 18
        assert set(flights) == {("plane", FlightStatus.HIT_SIGMA, "sigma")}
        # half the returns meet the goal on the driver's first probe
        assert self.routes == {"driver": 9, "_refine_event": 9}

    def test_first_probe_short_of_the_goal_is_handed_over(self, monkeypatch):
        # On these returns the driver's first probe lands at 1e-15 < |z| <=
        # _EVENT_TOL: inside the tolerance, but short of the goal, so the
        # locator must polish it.
        system = hot_normal_form()
        points = [(-0.2, 0.02), (-0.18, -0.04), (-0.08, 0.12), (0.16, 0.0)]
        self._assert_same(lambda: [fold_map_numeric(system, "Y", q) for q in points])
        assert self.routes == {"_refine_event": 4}
        first = []
        real = integrator._refine_event

        def refine(p, f, step, event, y0, k0, y1, k1, h, g0, g1, handed):
            dt = integrator._plane_root(y0[2], y1[2], k0[2], k1[2], h, g0, g1)
            first.append(abs(integrator._probe(p, f, step, event, y0, k0, dt)[1]))
            return real(p, f, step, event, y0, k0, y1, k1, h, g0, g1, handed)

        monkeypatch.setattr(integrator, "_refine_event", refine)
        for q in points:
            fold_map_numeric(system, "Y", q)
        assert len(first) == 4
        assert all(integrator._STRETCH_GOAL < g <= integrator._EVENT_TOL for g in first)

    def test_handed_over_root_is_taken_once(self, monkeypatch):
        # The driver hands its plane root on, with the state of its step
        # there when that step passed the error test: one _plane_root call
        # per handed-over return, and the locator's answer is, bit for bit,
        # the one it finds when it takes the root, or the step, itself.
        system = hot_normal_form()
        real_root, real_refine = integrator._plane_root, integrator._refine_event
        roots, handed = [], []

        def root(*args):
            roots.append(args)
            return real_root(*args)

        def refine(*args):
            found = real_refine(*args)
            handed.append((args, found))
            return found

        monkeypatch.setattr(integrator, "_plane_root", root)
        monkeypatch.setattr(integrator, "_refine_event", refine)
        flights = []
        for q in [(-0.2, 0.02), (-0.18, -0.04), (-0.08, 0.12), (0.16, 0.0)]:
            roots.clear()
            handed.clear()
            fold_map_numeric(system, "Y", q)
            assert len(roots) == 1 and len(handed) == 1
            flights.append((roots[0], *handed[0]))
        monkeypatch.undo()
        for root_args, (*args, first), found in flights:
            dt, state = first
            assert _bits(dt) == _bits(real_root(*root_args)) and state is not None
            for own in (None, (dt, None)):
                dt_own, state_own, g_own = real_refine(*args, own)
                assert _bits(dt_own, *state_own, g_own) == _bits(found[0], *found[1], found[2])

    def test_probe_that_fails_the_error_test_hands_the_root_alone(self):
        # dx/dt = x**2 from x = 1e150 overflows in the first step, whose
        # error norm is NaN (accepted) while z crosses the plane: the
        # driver's probe step to the root has a NaN norm too, so the
        # driver hands the root on without the probe's state, which
        # _eval_within_step would split
        field = VectorField3(Poly3({(2, 0, 0): 1.0}), Poly3.zero(), Poly3.constant(-1.0))
        p, f, step, in_box = integrator._flight_kernel(field)
        start = (1e150, 0.0, 5e-5)
        *_, bracket = in_box(p, start, 1.0, None, 1, _cube_box(start, math.inf), [])
        *_, h, ((_, g0, g1),), (dt, state) = bracket
        assert state is None and 0.0 < dt < h and g0 > 0.0 > g1
        assert math.isnan(step(p, start, dt, f(p, *start))[2])

    @pytest.mark.parametrize("direction", [1, -1])
    def test_unarmed_shallow_arc_fires_on_the_far_side(self, direction):
        # dz/dt = direction * (1e-8 - x) with dx/dt = 1: z peaks at 5e-17,
        # below the plane event's arming threshold, before it crosses
        cz = Poly3({(0, 0, 0): 1e-8 * direction, (1, 0, 0): -1.0 * direction})
        field = VectorField3(Poly3.constant(1.0), Poly3.zero(), cz)
        flights = self._assert_same(
            lambda: integrator.integrate_to_sigma(field, (0.0, 0.0, 0.0), direction))
        assert flights == [("plane", FlightStatus.HIT_SIGMA, "sigma")]

    @pytest.mark.parametrize("direction", [1, -1])
    def test_arc_past_the_arming_threshold_returns(self, direction):
        # dz/dt = direction * (c - x) with dx/dt = 1 from the plane: with
        # h0 = 2^-21 the first step ends at |z| = 5.7e-13, between the plane
        # event's arming threshold 1e-13 and 1e-12, and for this c the
        # second step ends exactly on z = 0.0, at the arc's return (t = 2c).
        # Only an armed event fires on a zero; an unarmed one would wait for
        # the far side and be located past the return.
        c, h0 = 1.4305114746093746e-06, 2.0 ** -21
        cz = Poly3({(0, 0, 0): c * direction, (1, 0, 0): -1.0 * direction})
        field = VectorField3(Poly3.constant(1.0), Poly3.zero(), cz)

        def run():
            return integrator.integrate_to_sigma(field, (0.0, 0.0, 0.0), direction, h0=h0)

        assert self._assert_same(run) == [("plane", FlightStatus.HIT_SIGMA, "sigma")]
        res = run()
        assert (res.accepted, res.rejected) == (2, 0)
        assert h0 < res.time <= 2.0 * c and res.point[2] * direction > 0.0

    def test_step_lands_on_the_plane(self):
        # dz/dt = -1 from this height: the steps 1e-4 * 5**k end exactly at
        # z = 0.0 on the sixth, where the armed event fires on a zero
        Z = PiecewiseSystem(const_field(0, 0, -1), const_field(0, 0, 1))
        located = []
        real = integrator._refine_event

        def refine(*args):
            located.append(args[10])  # g_right
            return real(*args)

        start = (0.0, 0.0, 0.39059999999999995)
        flights = self._assert_same(lambda: filippov_trajectory(Z, start, 1.0))
        assert flights[0] == ("in_box", FlightStatus.HIT_SIGMA, "sigma")
        assert self.routes == {"_refine_event": 1}  # no strict sign change
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(integrator, "_refine_event", refine)
            filippov_trajectory(Z, start, 1.0)
        assert located[0] == 0.0

    def test_left_box_through_each_guard(self):
        nf = build_normal_form(-1.0, -1.0, 1.0, -1.0)
        small = PiecewiseSystem(nf.X, nf.Y, Box(-0.01, 0.01, -0.01, 0.01, -0.01, 0.01))
        Z = PiecewiseSystem(const_field(1, 0, -1), const_field(0, 1, 1))
        cube = self._assert_same(lambda: fold_map_numeric(small, "X", (0.0, -0.1)))
        rising = PiecewiseSystem(const_field(0, 0, 1), const_field(0, 1, 1))
        box = self._assert_same(lambda: filippov_trajectory(rising, (0.0, 0.0, 0.5), 2.0))
        # falls to the plane and slides out of the default box
        flat = self._assert_same(lambda: filippov_trajectory(Z, (0.0, 0.0, 0.5), 5.0))
        assert cube[-1] == ("plane", FlightStatus.LEFT_BOX, None)
        assert box[-1] == ("in_box", FlightStatus.LEFT_BOX, None)
        assert flat == [("in_box", FlightStatus.HIT_SIGMA, "sigma"),
                        ("slide", FlightStatus.LEFT_BOX, None)]

    def test_time_out_and_step_limit(self):
        system, box = dry_friction()
        invisible = build_normal_form(-1.0, -1.0, 1.0, -1.0)

        def run():
            filippov_trajectory(system, (0.2, 0.3, 0.0), 12.0, IntegratorConfig(box=box))
            filippov_trajectory(invisible, (-0.5, -0.5, 0.0), -1.0)
            filippov_trajectory(invisible, (0.05, -0.04, 0.3), 10.0)
            integrator.integrate_to_sigma(system.X, (-1.5, 0.2, 0.0), 1)

        timed = self._assert_same(run)
        assert ("in_box", FlightStatus.TIME_OUT, None) in timed
        assert ("slide", FlightStatus.TIME_OUT, None) in timed
        limited = self._assert_same(run, max_steps=5)
        assert [(name, status) for name, status, _ in limited] == [
            ("slide", FlightStatus.STEP_LIMIT), ("slide", FlightStatus.STEP_LIMIT),
            ("in_box", FlightStatus.STEP_LIMIT), ("plane", FlightStatus.STEP_LIMIT)]

    def test_nan_overflow(self):
        big = TestNonFiniteErrorNorm.BIG
        field = TestNonFiniteErrorNorm._field(Poly3({(0, 0, 0): 2.0, (0, 1, 0): -1.0}))
        system = PiecewiseSystem(field, const_field(0, 0, 1), big)

        def run():
            integrator.integrate_to_sigma(field, (1e306, 1.0, 0.0), 1, big)
            filippov_trajectory(system, (1e306, 1.0, 0.5), 5.0, IntegratorConfig(box=big))

        assert self._assert_same(run) == [("plane", FlightStatus.LEFT_BOX, None),
                                          ("in_box", FlightStatus.LEFT_BOX, None)]

    def test_constant_components(self):
        # Fields whose constant and empty components have their sums bound
        # once: fold maps both ways on seeded normal forms (one with alpha =
        # 0, an empty component), flights and trajectories of the seeded
        # mixes, the NaN of an overflow under an infinite guard radius, and
        # a flight to the horizon under that radius.
        rng = np.random.default_rng(42)
        big = TestNonFiniteErrorNorm.BIG
        forms = [build_normal_form(*rng.uniform(-2.5, 2.5, size=2), rng.uniform(0.3, 2.0), -1.0)
                 for _ in range(3)] + [build_normal_form(0.0, -1.0, 1.0, -1.0)]
        points = [tuple(rng.uniform(-0.2, 0.2, size=2)) for _ in range(4)]
        fields = _constant_component_fields(rng)
        starts = [tuple(rng.uniform(-0.5, 0.5, size=2)) for _ in fields]
        overflow = VectorField3(Poly3.constant(1.0), Poly3.zero(), Poly3({(1, 1, 1): 1.0}))

        def run():
            for system in forms:
                for q in points:
                    for side in "XY":
                        try:
                            fold_map_numeric(system, side, q)
                        except IntegrationFailure:
                            pass
            for field, (x, y) in zip(fields, starts):
                for d in (1, -1):
                    integrator.integrate_to_sigma(field, (x, y, 0.0), d)
                system = PiecewiseSystem(field, const_field(0.3, -0.2, 1.0))
                filippov_trajectory(system, (x, y, 0.5), 3.0)
            integrator.integrate_to_sigma(
                TestNonFiniteErrorNorm._field(Poly3.constant(1.0)), (1e306, 1.0, 0.0), 1, big)
            integrator.integrate_to_sigma(const_field(1.0, 0.5, 1.0), (0.0, 0.0, 0.0), 1, big)
            filippov_trajectory(PiecewiseSystem(overflow, const_field(0, 0, 1), big),
                                (1.7, 1e154, 1e154), 5.0, IntegratorConfig(box=big))

        flights = set(self._assert_same(run))
        assert self.routes["driver"] and self.routes["_refine_event"]
        for kind in ("plane", "in_box"):
            assert (kind, FlightStatus.HIT_SIGMA, "sigma") in flights
            assert (kind, FlightStatus.LEFT_BOX, None) in flights
            assert (kind, FlightStatus.TIME_OUT, None) in flights
        limited = {(kind, status) for kind, status, _ in self._assert_same(run, max_steps=5)}
        assert {("plane", FlightStatus.STEP_LIMIT),
                ("in_box", FlightStatus.STEP_LIMIT)} <= limited

    def test_sliding_ends_on_each_event(self, monkeypatch):
        stick_slip, box = dry_friction()
        visible = PiecewiseSystem(
            VectorField3(Poly3.constant(0.0), Poly3.constant(-1.0), Poly3({(0, 1, 0): -1.0})),
            const_field(0, 0, 1))
        # Xf = x - 1 and Yf = 1.001 - x: the sliding flow x' = 1 crosses
        # Xf = 0, Yf = 0 and Yf - Xf = tol in one step, and Xf = 0 first
        xf = Poly3({(1, 0, 0): 1.0, (0, 0, 0): -1.0})
        yf = Poly3({(1, 0, 0): -1.0, (0, 0, 0): 1.001})
        both = PiecewiseSystem(VectorField3(Poly3.constant(1.0), Poly3.zero(), xf),
                               VectorField3(Poly3.constant(1.0), Poly3.zero(), yf))
        runs = {
            "sx": lambda: filippov_trajectory(visible, (0.0, 0.5, 0.0), 3.0),
            "sy": lambda: filippov_trajectory(
                stick_slip, (0.2, 0.3, 0.0), 12.0, IntegratorConfig(box=box)),
            "den": lambda: filippov_trajectory(
                build_normal_form(-2.0, -1.0, 1.0, -1.0), (0.3, 0.3, 0.0), 10.0),
            "three": lambda: filippov_trajectory(both, (0.5, 0.0, 0.0), 2.0),
        }
        ends = {key: [f for f in self._assert_same(run) if f[0] == "slide"]
                for key, run in runs.items()}
        for name in ("sx", "sy", "den"):
            assert ends[name][0] == ("slide", FlightStatus.HIT_SIGMA, name)
        assert ends["three"] == [("slide", FlightStatus.HIT_SIGMA, "sx")]
        located = _record_refinements(monkeypatch)
        runs["three"]()
        assert [name for *_, name in located] == ["sx", "sy", "den"]


class TestScipyRoute:
    """Return points against scipy's DOP853 with a terminal directional event:
    a third route, independent of this module's stepper and locator."""

    @staticmethod
    def _scipy_return(field, q, direction):
        solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
        f = field.compiled()

        def plane(t, y):
            return y[2]

        plane.terminal = True
        plane.direction = -direction
        sol = solve_ivp(
            lambda t, y: f(*y), (0.0, integrator._MAX_TIME), q,
            method="DOP853", rtol=1e-12, atol=1e-14, events=plane,
        )
        (point,) = sol.y_events[0]
        return point

    def _assert_agree(self, field, q, direction):
        res = integrate_to_sigma(field, q, direction)
        assert res.status is FlightStatus.HIT_SIGMA
        ref = self._scipy_return(field, q, direction)
        assert math.hypot(res.point[0] - ref[0], res.point[1] - ref[1]) <= 1e-8

    def test_random_invisible_folds(self):
        rng = np.random.default_rng(31)
        for _ in range(12):
            a, b, g = rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(0.3, 2.0)
            hot = {
                "cx": [[[1, 0, 0], rng.uniform(-0.5, 0.5)], [[0, 0, 1], rng.uniform(-0.5, 0.5)]],
                "cy": [[[0, 1, 0], rng.uniform(-0.5, 0.5)]],
                "cz": [[[2, 0, 0], rng.uniform(-0.5, 0.5)], [[1, 1, 0], rng.uniform(-0.5, 0.5)]],
            }
            system = build_normal_form(a, b, g, -1.0, hot=hot)
            # X: Xf = -y > 0 for y < 0; Y: Yf = x + O(2) < 0 for x < 0.
            self._assert_agree(system.X, (rng.uniform(-0.2, 0.2), -rng.uniform(0.02, 0.2), 0.0), +1)
            self._assert_agree(system.Y, (-rng.uniform(0.02, 0.2), rng.uniform(-0.2, 0.2), 0.0), -1)

    def test_stick_slip_free_flights(self):
        rng = np.random.default_rng(32)
        for _ in range(8):
            F, v0, c = rng.uniform(0.5, 1.5), rng.uniform(0.2, 1.0), rng.uniform(0.05, 0.3)
            system, _ = dry_friction(F, v0, c)
            # Slip above the plane from Xf = -x - F > 0, below from Yf = F - x < 0.
            self._assert_agree(system.X, (-F - rng.uniform(0.05, 1.0), rng.uniform(-1, 1), 0.0), +1)
            self._assert_agree(system.Y, (F + rng.uniform(0.05, 1.0), rng.uniform(-1, 1), 0.0), -1)
