"""Event-located numerical integration: the independent ground truth.

Free flights in either half-space use an explicit adaptive Dormand-Prince
5(4) pair with PI step-size control.  A surface hit is bracketed by a sign
change over an accepted step.  The event time is then found on that step's
own cubic Hermite interpolant (Hairer, Norsett & Wanner, Solving ODEs I,
II.6), at no field evaluation and to the interpolant's floating-point
resolution, and polished on re-integrated states: Newton on the rate
dz/dt = f_z for the plane, secant for the sliding events, down to
``1e-3 * _EVENT_TOL`` where possible.  A bisection from the bracket start
guarantees |g| <= ``_EVENT_TOL`` when the polish falls short.  The returned
event state is always re-integrated, never interpolated.  The step is
written out per state dimension (3 components for free flights, 2 for the
sliding field) on unpacked scalars, with the sums in tableau order, and
returns its scaled error norm rather than the error vector.  The plane event
is the z-component alone, so its interpolant root evaluates only that
component; the sliding events evaluate the whole interpolated state.

The driver loop reads the plane event as the state component ``y_new[2]``,
guards with closures over the box bounds and collects samples as parallel
lists of times and state tuples, one array conversion each per segment.
The sliding field takes Xf and Yf as the z-components of X and Y.  A
Filippov trajectory must start inside its box.

The fold maps and the first-return map realized here are compared against
their closed-form counterparts by the verification suites; nothing in this
module consults those formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .algebra import lie_derivative
from .errors import IntegrationFailure, PreconditionError
from .sigma import default_tolerance
from .system import DEFAULT_BOX

# Dormand-Prince 5(4) tableau (FSAL): stage rows A, fifth-order weights B,
# and error weights E (fifth minus fourth order).
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = (
    9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656,
)
_B1, _B2, _B3, _B4, _B5, _B6 = 35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E2, _E3, _E4, _E5, _E6, _E7 = (
    71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40,
)


# Step-size control (relative and absolute error weights), the event
# residual |g| every located event meets, the horizon of a flight to the
# plane, accepted-plus-rejected steps per flight and segments per Filippov
# trajectory.
_REL_TOL = 1e-10
_ABS_TOL = 1e-12
_EVENT_TOL = 1e-12
_MAX_TIME = 100.0
_MAX_STEPS = 50000
_MAX_SEGMENTS = 2000


@dataclass(frozen=True)
class IntegratorConfig:
    """The box that bounds a Filippov trajectory."""

    box: object = DEFAULT_BOX


class FlightStatus(Enum):
    """How a flight or a trajectory segment ended.

    HIT_SIGMA means a terminal event fired (for free flights, the return to
    the plane); the other members end a flight without an event or end a
    Filippov segment.
    """

    HIT_SIGMA = "hit-sigma"
    MODE_SWITCH = "mode-switch"
    LEFT_BOX = "left-box"
    TIME_OUT = "time-out"
    NO_RETURN = "no-return"
    STEP_LIMIT = "step-limit"
    REACHED_TANGENCY = "reached-tangency"
    DENOMINATOR_BLOWUP = "denominator-blowup"
    UNSTABLE_SLIDING = "unstable-sliding"


@dataclass
class FlightResult:
    status: FlightStatus
    point: tuple | None = None
    time: float = 0.0
    event: str | None = None  # name of the event that fired, on HIT_SIGMA

    def ok(self):
        return self.status is FlightStatus.HIT_SIGMA


# ---------------------------------------------------------------------------
# Core stepper


def _rk_step(f, y, h, k1):
    """One Dormand-Prince step: returns (y_new, k_last, err_norm).

    The stages are written out for 3-component states (free flights) and
    2-component states (the sliding field).  Every weighted sum adds its
    terms in tableau order starting from 0.0, zero weights included, so the
    step matches the generic tableau loop kept in tests/test_integrator.py
    bit for bit.  ``kSi`` is component ``i`` of stage ``S``.  ``err_norm``
    is the RMS of the error components ``ri``, each scaled by
    ``_ABS_TOL + _REL_TOL * max(|y|, |y_new|)`` and summed in order from 0.0.
    """
    if len(y) == 3:
        y0, y1, y2 = y
        k10, k11, k12 = k1
        k20, k21, k22 = f(
            y0 + h * (0.0 + _A21 * k10),
            y1 + h * (0.0 + _A21 * k11),
            y2 + h * (0.0 + _A21 * k12),
        )
        k30, k31, k32 = f(
            y0 + h * (0.0 + _A31 * k10 + _A32 * k20),
            y1 + h * (0.0 + _A31 * k11 + _A32 * k21),
            y2 + h * (0.0 + _A31 * k12 + _A32 * k22),
        )
        k40, k41, k42 = f(
            y0 + h * (0.0 + _A41 * k10 + _A42 * k20 + _A43 * k30),
            y1 + h * (0.0 + _A41 * k11 + _A42 * k21 + _A43 * k31),
            y2 + h * (0.0 + _A41 * k12 + _A42 * k22 + _A43 * k32),
        )
        k50, k51, k52 = f(
            y0 + h * (0.0 + _A51 * k10 + _A52 * k20 + _A53 * k30 + _A54 * k40),
            y1 + h * (0.0 + _A51 * k11 + _A52 * k21 + _A53 * k31 + _A54 * k41),
            y2 + h * (0.0 + _A51 * k12 + _A52 * k22 + _A53 * k32 + _A54 * k42),
        )
        k60, k61, k62 = f(
            y0 + h * (0.0 + _A61 * k10 + _A62 * k20 + _A63 * k30 + _A64 * k40
                      + _A65 * k50),
            y1 + h * (0.0 + _A61 * k11 + _A62 * k21 + _A63 * k31 + _A64 * k41
                      + _A65 * k51),
            y2 + h * (0.0 + _A61 * k12 + _A62 * k22 + _A63 * k32 + _A64 * k42
                      + _A65 * k52),
        )
        n0 = y0 + h * (0.0 + _B1 * k10 + _B2 * k20 + _B3 * k30 + _B4 * k40
                       + _B5 * k50 + _B6 * k60)
        n1 = y1 + h * (0.0 + _B1 * k11 + _B2 * k21 + _B3 * k31 + _B4 * k41
                       + _B5 * k51 + _B6 * k61)
        n2 = y2 + h * (0.0 + _B1 * k12 + _B2 * k22 + _B3 * k32 + _B4 * k42
                       + _B5 * k52 + _B6 * k62)
        k7 = f(n0, n1, n2)
        k70, k71, k72 = k7
        a0, a1, a2 = abs(y0), abs(y1), abs(y2)
        b0, b1, b2 = abs(n0), abs(n1), abs(n2)
        r0 = h * (0.0 + _E1 * k10 + _E2 * k20 + _E3 * k30 + _E4 * k40
                  + _E5 * k50 + _E6 * k60 + _E7 * k70) / (
            _ABS_TOL + _REL_TOL * (b0 if b0 > a0 else a0))
        r1 = h * (0.0 + _E1 * k11 + _E2 * k21 + _E3 * k31 + _E4 * k41
                  + _E5 * k51 + _E6 * k61 + _E7 * k71) / (
            _ABS_TOL + _REL_TOL * (b1 if b1 > a1 else a1))
        r2 = h * (0.0 + _E1 * k12 + _E2 * k22 + _E3 * k32 + _E4 * k42
                  + _E5 * k52 + _E6 * k62 + _E7 * k72) / (
            _ABS_TOL + _REL_TOL * (b2 if b2 > a2 else a2))
        return (n0, n1, n2), k7, math.sqrt((0.0 + r0 * r0 + r1 * r1 + r2 * r2) / 3)
    y0, y1 = y
    k10, k11 = k1
    k20, k21 = f(y0 + h * (0.0 + _A21 * k10), y1 + h * (0.0 + _A21 * k11))
    k30, k31 = f(
        y0 + h * (0.0 + _A31 * k10 + _A32 * k20),
        y1 + h * (0.0 + _A31 * k11 + _A32 * k21),
    )
    k40, k41 = f(
        y0 + h * (0.0 + _A41 * k10 + _A42 * k20 + _A43 * k30),
        y1 + h * (0.0 + _A41 * k11 + _A42 * k21 + _A43 * k31),
    )
    k50, k51 = f(
        y0 + h * (0.0 + _A51 * k10 + _A52 * k20 + _A53 * k30 + _A54 * k40),
        y1 + h * (0.0 + _A51 * k11 + _A52 * k21 + _A53 * k31 + _A54 * k41),
    )
    k60, k61 = f(
        y0 + h * (0.0 + _A61 * k10 + _A62 * k20 + _A63 * k30 + _A64 * k40
                  + _A65 * k50),
        y1 + h * (0.0 + _A61 * k11 + _A62 * k21 + _A63 * k31 + _A64 * k41
                  + _A65 * k51),
    )
    n0 = y0 + h * (0.0 + _B1 * k10 + _B2 * k20 + _B3 * k30 + _B4 * k40
                   + _B5 * k50 + _B6 * k60)
    n1 = y1 + h * (0.0 + _B1 * k11 + _B2 * k21 + _B3 * k31 + _B4 * k41
                   + _B5 * k51 + _B6 * k61)
    k7 = f(n0, n1)
    k70, k71 = k7
    a0, a1 = abs(y0), abs(y1)
    b0, b1 = abs(n0), abs(n1)
    r0 = h * (0.0 + _E1 * k10 + _E2 * k20 + _E3 * k30 + _E4 * k40
              + _E5 * k50 + _E6 * k60 + _E7 * k70) / (
        _ABS_TOL + _REL_TOL * (b0 if b0 > a0 else a0))
    r1 = h * (0.0 + _E1 * k11 + _E2 * k21 + _E3 * k31 + _E4 * k41
              + _E5 * k51 + _E6 * k61 + _E7 * k71) / (
        _ABS_TOL + _REL_TOL * (b1 if b1 > a1 else a1))
    return (n0, n1), k7, math.sqrt((0.0 + r0 * r0 + r1 * r1) / 2)


class _Event:
    """Terminal event g(y) = 0 detected by sign change between steps.

    Arming suppresses the trivial root at the start of a flight: the event
    only fires after |g| once exceeded ``arm_eps`` (with the sign of
    ``expected_sign`` when given).  For excursions whose peak |g| stays below
    the arming threshold, a value on the far side (opposite to
    ``expected_sign``) still fires, so unresolvably shallow arcs terminate at
    the correct crossing instead of escaping.

    ``rate``, when given, maps the field value at a state to dg/dt there;
    the locator then polishes by Newton steps instead of secant steps.
    ``component``, when set, says that g is that state component alone, so
    the interpolant root evaluates only it.
    """

    __slots__ = ("name", "fn", "arm_eps", "expected_sign", "rate", "component",
                 "armed", "last")

    def __init__(self, name, fn, arm_eps, expected_sign=0, rate=None):
        self.name = name
        self.fn = fn
        self.arm_eps = arm_eps
        self.expected_sign = expected_sign
        self.rate = rate
        self.component = None
        self.armed = False
        self.last = 0.0

    def observe_initial(self, y):
        v = self.fn(y)
        self.last = v
        self.armed = abs(v) > self.arm_eps and (
            self.expected_sign == 0 or v * self.expected_sign > 0
        )


def _sigma_event(direction):
    """Return to the plane z = 0 from the half-space of sign ``direction``."""
    ev = _Event(
        "sigma", lambda y: y[2], arm_eps=1e-13, expected_sign=direction,
        rate=lambda k: k[2],
    )
    ev.component = 2
    return ev


def _eval_within_step(f, y_left, k_left, dt, depth=0):
    """State at offset ``dt`` (of either sign) from ``y_left``, by
    error-controlled re-integration (split recursively until the embedded
    estimate passes)."""
    y_new, _, err_norm = _rk_step(f, y_left, dt, k_left)
    if depth >= 18 or abs(dt) < 1e-15 or err_norm <= 1.0:
        return y_new
    mid = _eval_within_step(f, y_left, k_left, dt / 2.0, depth + 1)
    return _eval_within_step(f, mid, f(*mid), dt / 2.0, depth + 1)


def _hermite(y0, k0, y1, k1, h, t):
    """State at offset ``t`` on the cubic Hermite interpolant of a step of
    size ``h`` from ``(y0, k0)`` to ``(y1, k1)`` (values and slopes),
    written out for 3- and 2-component states like the stepper."""
    s = t / h
    r = 1.0 - s
    w = s * s * (3.0 - 2.0 * s)
    v0 = s * r * r * h
    v1 = -s * s * r * h
    if len(y0) == 3:
        return (
            y0[0] + w * (y1[0] - y0[0]) + v0 * k0[0] + v1 * k1[0],
            y0[1] + w * (y1[1] - y0[1]) + v0 * k0[1] + v1 * k1[1],
            y0[2] + w * (y1[2] - y0[2]) + v0 * k0[2] + v1 * k1[2],
        )
    return (
        y0[0] + w * (y1[0] - y0[0]) + v0 * k0[0] + v1 * k1[0],
        y0[1] + w * (y1[1] - y0[1]) + v0 * k0[1] + v1 * k1[1],
    )


def _interpolant_root(event, y0, k0, y1, k1, h, g0, g1):
    """Root of the event along the step's cubic Hermite interpolant, where
    g(0) = ``g0`` and g(h) = ``g1`` have opposite signs.

    Regula falsi with the Anderson-Bjorck weighting (a refinement of the
    Illinois rule): when the newest point keeps the sign of the previous
    one, the value at the far bracket end is scaled down, which stops the
    one-sided stall of plain regula falsi.  It uses no field evaluation, so
    it runs to the interpolant's floating-point resolution: an exact zero,
    or a secant point that no longer moves off the bracket ends.  An event
    on one state component evaluates that component alone, in ``_hermite``'s
    operation order.
    """
    i = event.component
    if i is not None:
        c0, dc, d0, d1 = y0[i], y1[i] - y0[i], k0[i], k1[i]
    a, ga, b, gb = 0.0, g0, h, g1  # b is the newest point, a across the root
    t = b
    for _ in range(100):
        t = b - gb * (b - a) / (gb - ga)
        if t == a or t == b:
            break
        if i is None:
            g = event.fn(_hermite(y0, k0, y1, k1, h, t))
        else:
            s = t / h
            r = 1.0 - s
            g = c0 + s * s * (3.0 - 2.0 * s) * dc + s * r * r * h * d0 + -s * s * r * h * d1
        if g == 0.0:
            break
        if (g > 0.0) == (gb > 0.0):
            m = 1.0 - g / gb
            ga *= m if m > 0.0 else 0.5
        else:
            a, ga = b, gb
        b, gb = t, g
    return t


def _refine_event(f, event, y_left, k_left, y_right, k_right, h, g_right):
    """Locate the event inside the accepted step from ``(y_left, k_left)``
    to ``(y_right, k_right)``; returns ``(dt, state, g)``.

    The event time is first found on the step's cubic Hermite interpolant
    (to its floating-point resolution, at no field evaluation), and the
    state there is re-integrated from the bracket start.  While |g|
    exceeds ``1e-3 * _EVENT_TOL`` the time is corrected and the state
    re-integrated from the current candidate, inside the sign bracket:
    Newton steps when the event has a rate (the plane z = 0), secant steps
    otherwise.  If that ends above ``_EVENT_TOL``, bisection re-integrated
    from the bracket start takes over.  Every candidate is a re-integrated
    state, never an interpolated one.
    """
    lo, hi = 0.0, h
    g_lo = event.last
    if g_lo > 0.0:
        lo_sign = 1.0
    elif g_lo < 0.0:
        lo_sign = -1.0
    else:
        lo_sign = float(event.expected_sign) or -math.copysign(1.0, g_right)
    stretch_goal = 1e-3 * _EVENT_TOL
    best = None
    dt = math.nan
    if g_lo * g_right < 0.0:
        dt = _interpolant_root(event, y_left, k_left, y_right, k_right, h, g_lo, g_right)
    if 0.0 < dt < h:
        y_c = _eval_within_step(f, y_left, k_left, dt)
        v = event.fn(y_c)
        best = (dt, y_c, v)
        # The first secant partner is the bracket end across the root.
        t_prev, v_prev = (h, g_right) if v * lo_sign > 0.0 else (0.0, g_lo)
        for _ in range(8):
            if abs(v) <= stretch_goal:
                break
            if v * lo_sign > 0.0:
                lo = dt
            else:
                hi = dt
            k_c = f(*y_c)
            if event.rate is not None:
                slope = event.rate(k_c)
            else:
                slope = (v - v_prev) / (dt - t_prev)
            if slope == 0.0:
                break
            cand = dt - v / slope
            if not lo < cand < hi:
                break
            t_prev, v_prev = dt, v
            y_c = _eval_within_step(f, y_c, k_c, cand - dt)
            dt = cand
            v = event.fn(y_c)
            if abs(v) < abs(best[2]):
                best = (dt, y_c, v)
    if best is None or abs(best[2]) > _EVENT_TOL:
        for _ in range(120):
            mid = 0.5 * (lo + hi)
            y_c = _eval_within_step(f, y_left, k_left, mid)
            v = event.fn(y_c)
            if best is None or abs(v) < abs(best[2]):
                best = (mid, y_c, v)
            if abs(v) <= _EVENT_TOL or hi - lo <= 1e-16 * max(1.0, h):
                break
            if v * lo_sign > 0.0:
                lo = mid
            else:
                hi = mid
    return best


def _integrate(f, y0, events, t_limit, outside=None, h0=None, collect=None):
    """Drive the stepper until an event, a guard violation, or the horizon;
    ``collect`` is a pair of lists ``(times, states)`` or None.  The clamps
    keep ``min``/``max``'s NaN rule: the first argument wins against NaN."""
    y = tuple(float(v) for v in y0)
    k1 = f(*y)
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
    steps = 0
    while True:
        remaining = t_limit - t
        if remaining <= end_band:
            return FlightResult(FlightStatus.TIME_OUT, y, t)
        steps += 1
        if steps > _MAX_STEPS:
            return FlightResult(FlightStatus.STEP_LIMIT, y, t)
        if remaining < h:
            h = remaining
        if h < 1e-15:
            return FlightResult(FlightStatus.TIME_OUT, y, t)
        y_new, k_last, err_norm = _rk_step(f, y, h, k1)
        if err_norm > 1.0:
            h *= max(0.2, 0.9 * err_norm ** -0.2)
            continue
        # Event scan on the accepted step.
        hit = None
        for ev in events:
            i = ev.component
            v = ev.fn(y_new) if i is None else y_new[i]
            if not ev.armed:
                aligned = ev.expected_sign == 0 or v * ev.expected_sign > 0
                if abs(v) > ev.arm_eps and aligned:
                    ev.armed = True
                    ev.last = v
                elif ev.expected_sign != 0 and v * ev.expected_sign < 0 and v != 0.0:
                    # shallow arc crossed the surface without ever arming
                    found = _refine_event(f, ev, y, k1, y_new, k_last, h, v)
                    if hit is None or found[0] < hit[1]:
                        hit = (ev, found[0], found[1])
                else:
                    ev.last = v
                continue
            if ev.last * v <= 0.0 and (ev.last != 0.0 or v != 0.0):
                found = _refine_event(f, ev, y, k1, y_new, k_last, h, v)
                if hit is None or found[0] < hit[1]:
                    hit = (ev, found[0], found[1])
            ev.last = v
        if hit is not None:
            ev, dt, y_ev = hit
            t_ev = t + dt
            if collect is not None:
                times.append(t_ev)
                states.append(y_ev)
            return FlightResult(FlightStatus.HIT_SIGMA, y_ev, t_ev, ev.name)
        if outside is not None and outside(y_new):
            if collect is not None:
                times.append(t + h)
                states.append(y_new)
            return FlightResult(FlightStatus.LEFT_BOX, y_new, t + h)
        t += h
        y = y_new
        k1 = k_last
        if collect is not None:
            times.append(t)
            states.append(y)
        # PI controller on the accepted step, its factor clamped to [0.2, 5].
        if err_norm > 0:
            factor = 0.9 * err_norm ** -0.14 * err_prev ** 0.08
            h *= (factor if factor < 5.0 else 5.0) if factor > 0.2 else 0.2
        else:
            h *= 5.0
        err_prev = 1e-10 if err_norm < 1e-10 else err_norm


# ---------------------------------------------------------------------------
# Flights to the switching plane


def _guard_outside(center, radius):
    cx, cy, cz = center

    def outside(y):
        return (
            abs(y[0] - cx) > radius
            or abs(y[1] - cy) > radius
            or abs(y[2] - cz) > radius
        )

    return outside


def integrate_to_sigma(field, q0, direction, box=DEFAULT_BOX, h0=None):
    """First return of the orbit through ``q0`` (on {z=0}) to the plane.

    ``direction`` is +1 for an excursion into {z > 0}, -1 for {z < 0}.  If
    the field points into the opposite half-space at ``q0`` (judged by the
    z-component, or by its derivative along the field when that is zero) the
    flight fails with NO_RETURN.  LEFT_BOX and TIME_OUT report orbits that
    escape or stall without returning; the guard cube around ``q0`` has
    half-width 1.5 times the longest side of ``box``.
    """
    tol = default_tolerance(field)
    if abs(q0[2]) > tol:
        raise PreconditionError("flight must start on the switching plane")
    s = field.cz.eval_at(q0)
    if s * direction < -tol:
        return FlightResult(FlightStatus.NO_RETURN, time=0.0)
    if abs(s) <= tol:
        s2 = lie_derivative(field, field.cz).eval_at(q0)
        if s2 * direction < tol:
            return FlightResult(FlightStatus.NO_RETURN, time=0.0)
    f = field.compiled()
    ev = _sigma_event(direction)
    radius = 1.5 * max(box.scale(), 1e-6)
    return _integrate(
        f,
        (q0[0], q0[1], 0.0),
        [ev],
        t_limit=_MAX_TIME,
        outside=_guard_outside((q0[0], q0[1], 0.0), radius),
        h0=h0,
    )


def _fold_side(system, side):
    if side == "X":
        return system.X, system.x2f, +1
    if side == "Y":
        return system.Y, system.y2f, -1
    raise PreconditionError("side must be 'X' or 'Y'")


def fold_map_numeric(system, side, q):
    """Numeric fold involution on the plane for the chosen field.

    Points on the field's tangency line map to themselves; elsewhere the
    orbit arc through the field's half-space is integrated, forwards or
    backwards in time depending on which side of the tangency line ``q``
    lies, with a guard square sized by ``system.box``.  Failures
    (visible-fold side, escaping orbits) raise :class:`IntegrationFailure`.
    """
    field, second, halfspace = _fold_side(system, side)
    x, y = float(q[0]), float(q[1])
    point = (x, y, 0.0)
    s = field.cz.eval_at(point)
    if abs(s) <= default_tolerance(field):
        return (x, y)
    forward = (s > 0.0) if side == "X" else (s < 0.0)
    use = field if forward else field.negated()
    s2 = second.eval_at(point)
    h0 = None
    if abs(s2) > 1e-12:
        h0 = max(abs(s) / abs(s2) / 4.0, 1e-12)
    res = integrate_to_sigma(use, point, halfspace, system.box, h0=h0)
    if not res.ok():
        raise IntegrationFailure(
            res.status, f"fold map {side} failed at ({x:.6g}, {y:.6g}): {res.status}"
        )
    return (res.point[0], res.point[1])


def return_map_numeric(system, q):
    """First-return map: fold map of Y followed by fold map of X."""
    mid = fold_map_numeric(system, "Y", q)
    return fold_map_numeric(system, "X", mid)


def jacobian_numeric(map_fn, q, h=1e-3):
    """Central-difference Jacobian of a planar map at ``q``."""
    x, y = float(q[0]), float(q[1])
    fxp = map_fn((x + h, y))
    fxm = map_fn((x - h, y))
    fyp = map_fn((x, y + h))
    fym = map_fn((x, y - h))
    return np.array(
        [
            [(fxp[0] - fxm[0]) / (2 * h), (fyp[0] - fym[0]) / (2 * h)],
            [(fxp[1] - fxm[1]) / (2 * h), (fyp[1] - fym[1]) / (2 * h)],
        ]
    )


# ---------------------------------------------------------------------------
# Filippov trajectories


class Mode(Enum):
    FLOW_PLUS = "flow+"
    FLOW_MINUS = "flow-"
    SLIDING = "sliding"


@dataclass
class TrajectorySegment:
    mode: Mode
    times: np.ndarray
    points: np.ndarray  # (n, 3)
    terminal: FlightStatus


@dataclass
class Trajectory:
    segments: list = field(default_factory=list)
    status: str = ""
    total_time: float = 0.0


def _tangency_exit(system, q3, tol):
    """Continuation out of a sliding-boundary point.

    A forward sliding orbit can only leave through a fold line where the
    corresponding field's fold is visible; the exit arc is tangent to the
    plane and belongs to that field.  Anything else (cusp contact, fold-fold
    corner, invisible fold) terminates the trajectory.
    """
    xf = system.xf.eval_at(q3)
    yf = system.yf.eval_at(q3)
    if abs(xf) <= tol and abs(yf) <= tol:
        return None
    if abs(xf) <= tol:
        if system.x2f.eval_at(q3) > tol:
            return Mode.FLOW_PLUS
        return None
    if abs(yf) <= tol:
        if system.y2f.eval_at(q3) < -tol:
            return Mode.FLOW_MINUS
        return None
    return None


def _mode_on_sigma(system, q3, tol):
    """Mode that follows the point ``q3`` of the plane, as ``(mode, None)``,
    or ``(None, status)`` when the trajectory stops there."""
    xf = system.xf.eval_at(q3)
    yf = system.yf.eval_at(q3)
    if abs(xf) <= tol or abs(yf) <= tol:
        mode = _tangency_exit(system, q3, tol)
        return mode, FlightStatus.REACHED_TANGENCY if mode is None else None
    if xf > 0.0 and yf > 0.0:
        return Mode.FLOW_PLUS, None
    if xf < 0.0 and yf < 0.0:
        return Mode.FLOW_MINUS, None
    if xf < 0.0 < yf:
        return Mode.SLIDING, None
    # Unstable sliding: forward time never enters it.
    return None, FlightStatus.UNSTABLE_SLIDING


def filippov_trajectory(system, p0, horizon, cfg=None):
    """Piecewise trajectory with free flights, crossings and sliding.

    A negative ``horizon`` integrates the time-reversed system (this is the
    only way unstable sliding is ever entered, matching the forward-time
    convention that trajectories never slide on the unstable side).  It
    stops where it leaves ``cfg.box``, or ``DEFAULT_BOX`` without ``cfg``.
    """
    if horizon < 0:
        rev = filippov_trajectory(system.time_reversed(), p0, -horizon, cfg)
        for seg in rev.segments:
            seg.times = -seg.times
        rev.total_time = -rev.total_time
        return rev

    tol = default_tolerance(system)
    xmin, xmax, ymin, ymax, zmin, zmax = (cfg.box if cfg else DEFAULT_BOX).as_tuple()

    def outside_box(y):
        return not (xmin <= y[0] <= xmax and ymin <= y[1] <= ymax and zmin <= y[2] <= zmax)

    def outside_slice(y):  # a sliding state (x, y) on the plane z = 0
        return not (xmin <= y[0] <= xmax and ymin <= y[1] <= ymax and zmin <= 0.0 <= zmax)

    traj = Trajectory()
    p = (float(p0[0]), float(p0[1]), float(p0[2]))
    if outside_box(p):
        raise PreconditionError(f"trajectory start {p} lies outside its box")
    if p[2] > tol:
        mode, stop = Mode.FLOW_PLUS, None
    elif p[2] < -tol:
        mode, stop = Mode.FLOW_MINUS, None
    else:
        mode, stop = _mode_on_sigma(system, p, tol)
    if mode is None:
        marker = Mode.SLIDING if stop is FlightStatus.UNSTABLE_SLIDING else Mode.FLOW_PLUS
        _append_marker(traj, 0.0, p, marker, stop)
        traj.status = stop.value
        return traj

    t_now = 0.0
    xf_fn = system.xf.compiled()
    yf_fn = system.yf.compiled()
    x_fn = system.X.compiled()
    y_fn = system.Y.compiled()

    def f2(u, v):
        # Xf and Yf are the z-components of X and Y
        xv = x_fn(u, v, 0.0)
        yv = y_fn(u, v, 0.0)
        xf, yf = xv[2], yv[2]
        den = yf - xf
        return (
            (yf * xv[0] - xf * yv[0]) / den,
            (yf * xv[1] - xf * yv[1]) / den,
        )

    while len(traj.segments) < _MAX_SEGMENTS:
        remaining = horizon - t_now
        if remaining <= 1e-14 * max(1.0, horizon):
            _append_marker(traj, t_now, p, mode, FlightStatus.TIME_OUT)
            break
        times, states = [], []
        if mode in (Mode.FLOW_PLUS, Mode.FLOW_MINUS):
            fld = system.X if mode is Mode.FLOW_PLUS else system.Y
            side = 1 if mode is Mode.FLOW_PLUS else -1
            ev = _sigma_event(side)
            out = _integrate(
                fld.compiled(),
                p,
                [ev],
                t_limit=remaining,
                outside=outside_box,
                collect=(times, states),
            )
            seg_end, next_mode = _flight_outcome(system, out, tol)
            _append_segment(traj, t_now, times, states, mode, seg_end)
            t_now += out.time
            p = (
                out.point[0],
                out.point[1],
                0.0 if seg_end is FlightStatus.MODE_SWITCH else out.point[2],
            )
            if next_mode is None:
                break
            mode = next_mode
        else:  # sliding on {z = 0}
            arm = 10.0 * max(_EVENT_TOL, tol)
            events = [
                _Event("sx", lambda y: xf_fn(y[0], y[1], 0.0), arm_eps=arm),
                _Event("sy", lambda y: yf_fn(y[0], y[1], 0.0), arm_eps=arm),
                _Event(
                    "den",
                    lambda y: yf_fn(y[0], y[1], 0.0) - xf_fn(y[0], y[1], 0.0) - tol,
                    arm_eps=0.0,
                ),
            ]
            out = _integrate(
                f2,
                (p[0], p[1]),
                events,
                t_limit=remaining,
                outside=outside_slice,
                collect=(times, states),
            )
            q3 = (out.point[0], out.point[1], 0.0)
            seg_end, next_mode = _sliding_outcome(system, out, q3, tol)
            _append_segment(traj, t_now, times, states, Mode.SLIDING, seg_end)
            t_now += out.time
            p = q3
            if next_mode is None:
                break
            mode = next_mode
    else:
        traj.status = FlightStatus.STEP_LIMIT.value
        traj.total_time = t_now
        return traj

    traj.status = traj.segments[-1].terminal.value
    traj.total_time = t_now
    return traj


def _flight_outcome(system, out, tol):
    if out.status is not FlightStatus.HIT_SIGMA:
        return out.status, None
    mode, stop = _mode_on_sigma(system, (out.point[0], out.point[1], 0.0), tol)
    return (FlightStatus.MODE_SWITCH, mode) if stop is None else (stop, None)


def _sliding_outcome(system, out, q3, tol):
    if out.status is not FlightStatus.HIT_SIGMA:
        return out.status, None
    if out.event == "den":
        xf = system.xf.eval_at(q3)
        yf = system.yf.eval_at(q3)
        near_tangency = abs(xf) <= 10 * tol and abs(yf) <= 10 * tol
        return (
            FlightStatus.REACHED_TANGENCY if near_tangency else FlightStatus.DENOMINATOR_BLOWUP,
            None,
        )
    exit_mode = _tangency_exit(system, q3, tol)
    if exit_mode is None:
        return FlightStatus.REACHED_TANGENCY, None
    return FlightStatus.MODE_SWITCH, exit_mode


def _append_segment(traj, t_offset, times, states, mode, terminal):
    """Append one flight's samples; sliding states (x, y) get z = 0.0."""
    points = np.zeros((len(states), 3))
    points[:, :len(states[0])] = states
    traj.segments.append(TrajectorySegment(mode, t_offset + np.array(times), points, terminal))


def _append_marker(traj, t_now, p, mode, terminal):
    traj.segments.append(
        TrajectorySegment(
            mode,
            np.array([t_now]),
            np.array([list(p)]),
            terminal,
        )
    )
