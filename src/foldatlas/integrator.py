"""Event-located numerical integration: the independent ground truth.

Free flights in either half-space use an explicit adaptive Dormand-Prince
5(4) pair with PI step-size control.  A surface hit is bracketed by a sign
change over an accepted step.  The event time is then found on that step's
own cubic Hermite interpolant (Hairer, Norsett & Wanner, Solving ODEs I,
II.6), at no field evaluation and to the interpolant's floating-point
resolution, and polished on re-integrated states down to ``1e-3 *
_EVENT_TOL`` where possible.  The plane z = 0 is located in its driver, on
the interpolant's z-component alone, by one step re-run from the bracket
start; only when that misses the goal does the locator take over, from that
root and step, and polish by Newton with the field's z-component, dz/dt =
f_z, as slope.  The sliding events evaluate the whole interpolated state
and polish by secant steps.  A bisection from the bracket start guarantees
|g| <= ``_EVENT_TOL`` when the polish falls short.  The returned event state
is always re-integrated.

Every step is generated from one template over the tableau, on unpacked
scalars with the sums of the nonzero weights in tableau order, and computes
its scaled error norm rather than the error vector.  Only the stage evaluations vary; the code
writes the field out inline in each of them.  A polynomial component that
is one constant, or zero, is the same at every stage, so its weighted sums
are added up once per coefficient binding.  The loop that drives the
steps is generated around the same step body: step control, the event scan
(the plane event as the new state's z, the sliding events as the last
stage's Xf and Yf), the guard, under which a NaN state is outside (a step
whose field overflows gives one), and the sample collection run inline,
and the driver returns to Python only to stop or to hand over an event.
A polynomial field has one driver, which flies to the plane inside a box:
a trajectory's box, or for a flight from the plane the cube around its
start written as a box.  The evaluator, the step kernel
and the driver of a polynomial field, and of the sliding field (X and Y at
z = 0, with Xf and Yf their z-components), are compiled once per monomial
shape into a bounded LRU.  A binding is a tuple, of the coefficients from
the field's one shape pass and the sums of its constant components, that
these functions take first, so binding a field builds no function; event
refinement steps through the kernels and takes its slopes from their
evaluator.  The events are immutable, so flights share them.  A Filippov
trajectory must start inside its box.

``integrate_to_sigma`` and the Filippov trajectories fly through ``_fly``,
and a fold map calls its driver directly; ``_locate`` locates the events of
a step the driver hands over.  A fold map reads its system side's plan,
made once, and flies backwards on the reversed kernel: the forward kernel
on its binding negated entry by entry (``0.0 - v``), not a second binding
of the negated coefficients.  The fold maps and the first-return map
realized here are compared against their closed forms by the verification
suites; nothing in this module consults those formulas.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from operator import itemgetter

from .algebra import lie_derivative, shape_source
from .errors import IntegrationFailure, PreconditionError
from .sigma import default_tolerance
from .system import DEFAULT_BOX

# Dormand-Prince 5(4) tableau (FSAL): stage rows A, fifth-order weights B,
# and error weights E (fifth minus fourth order).
_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)


# Step-size control (relative and absolute error weights), the event
# residual |g| every located event meets and the one its polish aims at, the
# horizon of a flight to the plane, accepted-plus-rejected steps per flight
# and segments per Filippov trajectory.
_REL_TOL = 1e-10
_ABS_TOL = 1e-12
_EVENT_TOL = 1e-12
_STRETCH_GOAL = 1e-3 * _EVENT_TOL
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


@dataclass(slots=True)
class FlightResult:
    status: FlightStatus
    point: tuple | None = None
    time: float = 0.0
    event: str | None = None  # name of the event that fired, on HIT_SIGMA
    accepted: int = 0  # steps the driver took that passed the error test
    rejected: int = 0  # and those that failed it

    def ok(self):
        return self.status is FlightStatus.HIT_SIGMA


# Members the flight core reads (on 3.11 ``FlightStatus.X`` runs EnumType.__getattr__).
_HIT_SIGMA, _LEFT_BOX, _TIME_OUT, _STEP_LIMIT = (
    FlightStatus.HIT_SIGMA, FlightStatus.LEFT_BOX, FlightStatus.TIME_OUT, FlightStatus.STEP_LIMIT)


# ---------------------------------------------------------------------------
# Core stepper


# The weighted sums of a step by name: the stage rows of ``_A`` (stages 2-6),
# the fifth-order row ``_B`` and the error row ``_E``.
_ROWS = {**{f"w{n}": row for n, row in enumerate(_A, start=2)}, "wb": _B, "we": _E}


def _weighted(row, k):
    """``(w1 * k(1) + w3 * k(3) + ...)`` over the nonzero weights of ``row``,
    in tableau order, starting with the first term."""
    return "(" + " + ".join(f"{w!r} * {k(j)}" for j, w in enumerate(row, start=1) if w) + ")"


def _step_body(dim, stage, const):
    """Lines of one Dormand-Prince step on ``dim``-component states: from the
    state ``y0, y1, ...``, its magnitudes ``a0, a1, ...``, the step ``h`` and
    the first stage ``k10, k11, ...`` to the new state ``n0, n1, ...``, its
    magnitudes ``b0, b1, ...``, its stage ``k70, k71, ...`` and the scaled
    error norm ``err_norm``, with ``_LOCALS`` bound.

    ``stage(args, outs)`` gives the lines that set the names ``outs`` to the
    field at the state expressions ``args``, skipping a None name; it is the
    only part that varies between kernels.  ``kSi`` is component ``i`` of
    stage ``S``.  Every weighted sum adds the terms of its nonzero weights in
    tableau order, starting with the first term, so a step matches the
    generic tableau loop kept in tests/test_integrator.py bit for bit; a
    stage that only zero weights meet (k2 in the fifth-order and error rows)
    is not read there.  A component ``i`` in
    ``const`` has the same value at every stage, so each of its sums is the
    same float at every step: the step reads it as ``<name>_i``, bound once
    by ``_constant_sums``, and stages 2-6 leave ``kSi`` unset.  ``err_norm``
    is the RMS of the error components ``ri``, each scaled by ``_ABS_TOL +
    _REL_TOL * max(|y|, |y_new|)``, their squares summed in order.
    """
    comps = range(dim)

    def weighted(name, i):
        if i in const:
            return f"h * {name}_{i}"
        return "h * " + _weighted(_ROWS[name], lambda j: f"k{j}{i}")

    lines = []
    for n in range(2, len(_A) + 2):
        outs = [None if i in const else f"k{n}{i}" for i in comps]
        lines += stage([f"y{i} + {weighted(f'w{n}', i)}" for i in comps], outs)
    lines += [f"n{i} = y{i} + {weighted('wb', i)}" for i in comps]
    lines += stage(_names("n", dim), _names("k7", dim))
    for i in comps:
        lines += [
            f"b{i} = abs(n{i})",
            f"r{i} = {weighted('we', i)} / (abs_tol + rel_tol * (b{i} if b{i} > a{i} else a{i}))",
        ]
    squares = " + ".join(f"r{i} * r{i}" for i in comps)
    return lines + [f"err_norm = sqrt(({squares}) / {dim})"]


def _constant_sums(const, exprs):
    """Lines that bind every weighted sum of ``_step_body`` over each
    component ``i`` in ``const``, whose every stage is ``exprs[i]``: the sum
    the step would add up, in its order."""
    return [f"{name}_{i} = {_weighted(row, lambda j: exprs[i])}"
            for i in const for name, row in _ROWS.items()]


# Further names a step body reads, bound as locals once per kernel or driver call.
_LOCALS = ["sqrt = math.sqrt", "abs_tol, rel_tol = _ABS_TOL, _REL_TOL"]


def _names(prefix, dim):
    return [f"{prefix}{i}" for i in range(dim)]


def _seq(prefix, dim):
    return ", ".join(_names(prefix, dim))


def _step_lines(dim, stage, const):
    """Body of the kernel ``step(p, s, h, k1) -> (y_new, k_last, err_norm)``.
    ``k1`` must be the field at ``s``: a component in ``const`` reads its
    coefficient in place of ``k1``."""
    return [
        f"{_seq('y', dim)}, = s",
        f"{_seq('k1', dim)}, = k1",
        *_LOCALS,
        *(f"a{i} = abs(y{i})" for i in range(dim)),
        *_step_body(dim, stage, const),
        f"return ({_seq('n', dim)},), ({_seq('k7', dim)},), err_norm",
    ]


def _drive_lines(dim, stage, const, events, guard):
    """Body of a driver around ``_step_body``, past the line that unpacks
    its binding ``p``, with the constant components ``const``: from the state ``s``, the horizon
    ``t_limit`` and the first step ``h0`` (falsy for the default) it steps
    until an event fires, the state leaves its guard, the horizon passes or
    ``_MAX_STEPS`` attempts are spent, with the decisions and arithmetic of
    the reference loop in tests/test_integrator.py.  It returns ``(status,
    t, point, accepted, rejected, bracket)``; on HIT_SIGMA the bracket is the
    step ``(y, k1, y_new, k_last, h, fired, first)`` from ``(t, point)``,
    with one ``(index, g_before, g_after)`` per fired event, for
    ``_locate``.  A one-event driver's event must be a state component (the
    plane).  It re-runs the step from its start to the root of
    ``_plane_root``, if inside it; a state that passes
    ``_eval_within_step``'s test and ``_STRETCH_GOAL`` is ``_refine_event``'s
    answer, returned with no bracket.  Otherwise ``first`` hands the root on
    to ``_refine_event``, with that state if it passed the test; it is None
    where no root was taken, and for the other drivers.

    An event ``(value, arm_eps, sign)`` is the expression ``value(names)`` at
    the state ``names``, which may also read what the last ``stage`` set.  It
    arms once |g| exceeds ``arm_eps`` on the side ``sign`` (None for either),
    which suppresses the trivial root at the start; armed, it fires on a sign
    change, unarmed, on reaching the far side, so that an unresolvably
    shallow arc ends at its crossing.  ``guard`` is ``(setup, inside)``, with
    ``inside`` false for a NaN new state ``n0, n1, ...``.  Every accepted
    state, and a guard exit, is appended as ``(t, *state)`` to ``samples``.
    The clamps keep ``min``/``max``'s rule that the first argument wins
    against NaN.
    """
    y, k1, n, k7 = (_seq(p, dim) for p in ("y", "k1", "n", "k7"))
    setup, inside = guard

    def arms(g, arm_eps, sign):
        side = f" and ({sign} == 0 or {g} * {sign} > 0)" if sign else ""
        return f"abs({g}) > {arm_eps}{side}"

    def stop(status, when, state, uncounted=""):
        return [f"    return _{status}, {when}, ({state},), "
                f"steps{uncounted} - rejected, rejected, None"]

    lines = [setup, f"{y}, = s", *stage(_names("y", dim), _names("k1", dim)), *_LOCALS,
              *(f"a{i} = abs(y{i})" for i in range(dim)), "t = 0.0",
              "h = h0 if h0 else min(1e-4, 0.25 * t_limit)", "err_prev = 1.0",
              "end_band = 1e-15 * max(1.0, t_limit)"]
    for j, (value, arm_eps, sign) in enumerate(events):
        lines += [f"last{j} = {value(_names('y', dim))}",
                  f"armed{j} = {arms(f'last{j}', arm_eps, sign)}"]
    lines += ["keep = samples.append", f"keep((t, {y}))", "steps = 0", "rejected = 0",
              "while True:"]
    loop = [
        "remaining = t_limit - t",
        "if remaining <= end_band:",
        *stop("TIME_OUT", "t", y),
        "steps += 1",
        "if steps > _MAX_STEPS:",
        *stop("STEP_LIMIT", "t", y, " - 1"),
        "if remaining < h:",
        "    h = remaining",
        "if h < 1e-15:",
        *stop("TIME_OUT", "t", y, " - 1"),
        *_step_body(dim, stage, const),
        "if err_norm > 1.0:",
        "    h *= max(0.2, 0.9 * err_norm ** -0.2)",
        "    rejected += 1",
        "    continue",
    ]
    for j, (value, arm_eps, sign) in enumerate(events):
        loop += [
            f"now{j} = {value(_names('n', dim))}",
            f"if armed{j}:",
            f"    fired{j} = last{j} * now{j} <= 0.0 and (last{j} != 0.0 or now{j} != 0.0)",
            f"elif {arms(f'now{j}', arm_eps, sign)}:",
            f"    armed{j} = True",
            f"    fired{j} = False",
            "else:",
            f"    fired{j} = {f'now{j} * {sign} < 0' if sign else 'False'}",
        ]
    js = range(len(events))
    ends = f"({y},), ({k1},), ({n},), ({k7},), h, fired"
    bracket = f"({ends}, None)"
    fired = "".join(f"(fired{j}, {j}, last{j}, now{j}), " for j in js)
    hit = [f"fired = tuple((j, g0, g1) for hit, j, g0, g1 in ({fired}) if hit)"]
    if len(events) == 1:  # a state component: the event reads its names off each state's
        z0, z1, kz0, kz1 = (events[0][0](_names(p, dim)) for p in ("y", "n", "k1", "k7"))
        hit = ["fired = ((0, last0, now0),)", f"bracket = ({ends})", "first = None",
               "if last0 * now0 < 0.0:",
               f"    dt = _plane_root({z0}, {z1}, {kz0}, {kz1}, h, last0, now0)",
               "    first = (dt, None)", "    if 0.0 < dt < h:", "        h = dt",
               *("        " + line for line in _step_body(dim, stage, const)),
               "        if err_norm <= 1.0 or h < 1e-15:",
               f"            if abs({z1}) <= _STRETCH_GOAL:",
               f"                return _HIT_SIGMA, t + h, ({n},), steps - rejected, "
               "rejected, None",
               f"            first = (dt, ({n},))"]
        bracket = "bracket + (first,)"
    loop += [
        f"if {' or '.join(f'fired{j}' for j in js)}:",
        *("    " + line for line in hit),
        f"    return _HIT_SIGMA, t, ({y},), steps - rejected, rejected, {bracket}",
        *(f"last{j} = now{j}" for j in js),
        f"if not ({inside}):",
        f"    keep((t + h, {n}))",
        *stop("LEFT_BOX", "t + h", n),
        "t += h",
        f"{y} = {n}",
        f"{_seq('a', dim)} = {_seq('b', dim)}",
        f"{k1} = {k7}",
        f"keep((t, {y}))",
        # PI controller on the accepted step, its factor clamped to [0.2, 5].
        "if err_norm > 0:",
        "    factor = 0.9 * err_norm ** -0.14 * err_prev ** 0.08",
        "    h *= (factor if factor < 5.0 else 5.0) if factor > 0.2 else 0.2",
        "else:",
        "    h *= 5.0",
        "err_prev = 1e-10 if err_norm < 1e-10 else err_norm",
    ]
    return lines + ["    " + line for line in loop]


def _def(signature, body):
    return [f"def {signature}:"] + ["    " + line for line in body]


def _bind(params, sums, functions):
    """``bind(c0, ..., cn) -> (p, *functions)``.  A binding ``p`` is a tuple:
    the coefficients, then the sums that the lines ``sums`` bind on them.
    The ``functions``, ``(signature, body)`` pairs, are compiled once, with
    ``bind``; each takes ``p`` as its first argument and unpacks it on its
    first line, so a binding creates no function and no closure cell."""
    bound = "".join(f"{v}, " for v in params + [line.split(" = ", 1)[0] for line in sums])
    defs = [line for sig, body in functions for line in _def(sig, [f"{bound}= p", *body])]
    made = ", ".join(sig.split("(", 1)[0] for sig, _ in functions)
    bind = _def(f"bind({', '.join(params)})", [*sums, f"return ({bound}), {made}"])
    return _compile(_def("kernels()", [*defs, *bind, "return bind"]), "kernels")()


def _compile(lines, name):
    """The function ``name`` defined by the generated ``lines``; the source
    holds generated names and numeric constants only."""
    ns = {}
    exec(compile("\n".join(lines), "<dormand-prince>", "exec"), globals(), ns)
    return ns[name]


# The return to the plane z = 0 from the side ``d``, armed past |z| = 1e-13,
# and the guards: a box and its slice z = 0.
_PLANE = ((lambda s: s[2], "1e-13", "d"),)
_BOX = ("xmin, xmax, ymin, ymax, zmin, zmax = box",
        "xmin <= n0 <= xmax and ymin <= n1 <= ymax and zmin <= n2 <= zmax")
_SLICE = (_BOX[0], "xmin <= n0 <= xmax and ymin <= n1 <= ymax and zmin <= 0.0 <= zmax")


@functools.lru_cache(maxsize=512)
def _flight_factory(shapes):
    """``_bind``'s ``bind(c0, ..., cn) -> (p, field, step, in_box)`` for a
    polynomial field of the component ``shapes``: ``field(p, x, y, z)``
    evaluates the expressions of ``VectorField3.compiled()``, and they are
    written out inline in every stage.  A stage sets only the coordinates
    that some monomial reads.  A component whose shape is the constant
    monomial or empty is constant: ``bind`` adds up its weighted sums once
    (``_constant_sums``) into ``p``.  ``step(p, s, h, k1)`` is one step,
    from ``k1`` the field at ``s``; the driver ``in_box(p, s, t_limit, h0,
    d, box, samples)`` flies to the plane inside ``box`` as ``(xmin, xmax,
    ..., zmax)``, collecting samples.
    """
    params, exprs = shape_source(shapes)
    read = [any(e[i] for shape in shapes for e in shape) for i in range(3)]
    const = [i for i, shape in enumerate(shapes) if shape in ((), ((0, 0, 0),))]

    def stage(args, outs):
        sets = [f"{v} = {a}" for v, a, r in zip("xyz", args, read) if r]
        return sets + [f"{o} = {e}" for o, e in zip(outs, exprs) if o]

    return _bind(params, _constant_sums(const, exprs), [
        ("field(p, x, y, z)", [f"return ({', '.join(exprs)})"]),
        ("step(p, s, h, k1)", _step_lines(3, stage, const)),
        ("in_box(p, s, t_limit, h0, d, box, samples)", _drive_lines(3, stage, const, _PLANE, _BOX)),
    ])


@functools.lru_cache(maxsize=512)
def _sliding_factory(shapes):
    """``_bind``'s ``bind(c0, ..., cn) -> (p, field(p, x, y), step(p, y, h,
    k1), slide)`` for the sliding field of X and Y, whose component
    ``shapes`` come in that order: ``((Yf*X0 - Xf*Y0)/den, (Yf*X1 -
    Xf*Y1)/den)``, den = Yf - Xf, of X and Y at z = 0, written out inline.
    ``slide(p, s, t_limit, h0, box, tol, arm, samples)`` drives the sliding
    phase in the slice z = 0 of ``box``, collecting samples, to the first of
    three events read off the last stage: ``sx`` (Xf = 0) and ``sy`` (Yf =
    0), armed past ``arm``, and ``den`` (Yf - Xf - tol = 0).
    """
    params, (x0, x1, xf, y0, y1, yf) = shape_source(shapes)

    def stage(args, outs):
        u, v = outs
        return [
            f"x, y = {', '.join(args)}", f"p0 = {x0}", f"p1 = {x1}", f"pf = {xf}",
            f"q0 = {y0}", f"q1 = {y1}", f"qf = {yf}", "den = qf - pf",
            f"{u} = (qf * p0 - pf * q0) / den", f"{v} = (qf * p1 - pf * q1) / den",
        ]

    events = ((lambda s: "pf", "arm", None), (lambda s: "qf", "arm", None),
              (lambda s: "den - tol", "0.0", None))
    return _bind(params, [], [
        ("field(p, x, y)", ["z = 0.0", *stage(["x", "y"], ["u", "v"]), "return (u, v)"]),
        ("step(p, s, h, k1)", ["z = 0.0", *_step_lines(2, stage, ())]),
        ("slide(p, s, t_limit, h0, box, tol, arm, samples)",
         ["z = 0.0", *_drive_lines(2, stage, (), events, _SLICE)]),
    ])


def _flight_kernel(field):
    """``(p, field, step, in_box)`` of a polynomial field, cached on it."""
    return field.kernel(_flight_factory)


def _sliding_kernel(system):
    """``(p, field, step, slide)`` of the sliding field of ``system`` on z = 0."""
    (x_shapes, x_coeffs), (y_shapes, y_coeffs) = system.X.shape(), system.Y.shape()
    return _sliding_factory(x_shapes + y_shapes)(*x_coeffs, *y_coeffs)


@dataclass(frozen=True)
class _Event:
    """Terminal event g(y) = 0 as the locator sees it.  ``component``, when
    set, says that g is that state component alone: the locator polishes by
    Newton steps whose slope dg/dt is that component of the field.  Other
    events polish by secant steps."""

    name: str
    fn: object
    component: int | None = None


# The return to the plane z = 0, from either half-space.
_SIGMA_EVENTS = (_Event("sigma", itemgetter(2), 2),)


def _eval_within_step(p, f, step, y_left, k_left, dt, depth=0):
    """State at offset ``dt`` (of either sign) from ``y_left``, by
    error-controlled re-integration with the kernel ``step`` of the field
    ``f`` bound by ``p`` (split recursively until the estimate passes)."""
    y_new, _, err_norm = step(p, y_left, dt, k_left)
    if depth >= 18 or abs(dt) < 1e-15 or not err_norm > 1.0:  # a NaN norm does not split
        return y_new
    mid = _eval_within_step(p, f, step, y_left, k_left, dt / 2.0, depth + 1)
    return _eval_within_step(p, f, step, mid, f(p, *mid), dt / 2.0, depth + 1)


def _probe(p, f, step, event, y, k, dt):
    """Re-integrated state at offset ``dt`` from ``(y, k)`` and the event's
    g there, or ``(None, nan)`` where a stage divides by zero.  Only the
    sliding field divides, by Yf - Xf, and a stage on Yf = Xf lies at or past
    a fold line or the ``den`` event, so the locator takes it for a point
    past the root and never returns it."""
    try:
        y_c = _eval_within_step(p, f, step, y, k, dt)
    except ZeroDivisionError:
        return None, math.nan
    return y_c, event.fn(y_c)


def _hermite(y0, k0, y1, k1, h, t):
    """State at offset ``t`` on the cubic Hermite interpolant of a step of
    size ``h`` from ``(y0, k0)`` to ``(y1, k1)`` (values and slopes)."""
    s = t / h
    r = 1.0 - s
    w = s * s * (3.0 - 2.0 * s)
    v0 = s * r * r * h
    v1 = -s * s * r * h
    return tuple(a + w * (b - a) + v0 * c + v1 * d for a, b, c, d in zip(y0, y1, k0, k1))


def _plane_root(z0, z1, kz0, kz1, h, g0, g1):
    """``_interpolant_root`` of an event that is one state component, from
    its values and slopes at the step's ends, in ``_hermite``'s order."""
    dz = z1 - z0
    a, ga, b, gb = 0.0, g0, h, g1  # b is the newest point, a across the root
    t = b
    for _ in range(100):
        t = b - gb * (b - a) / (gb - ga)
        if t == a or t == b:
            break
        s = t / h
        r = 1.0 - s
        ss = s * s  # (-a) * b == -(a * b) and x + (-y) == x - y: _hermite's bits
        g = z0 + ss * (3.0 - 2.0 * s) * dz + s * r * r * h * kz0 - ss * r * h * kz1
        if g == 0.0:
            break
        if (g > 0.0) == (gb > 0.0):
            m = 1.0 - g / gb
            ga *= m if m > 0.0 else 0.5
        else:
            a, ga = b, gb
        b, gb = t, g
    return t


def _interpolant_root(event, y0, k0, y1, k1, h, g0, g1):
    """Root of the event along the step's cubic Hermite interpolant, where
    g(0) = ``g0`` and g(h) = ``g1`` have opposite signs.

    Regula falsi with the Anderson-Bjorck weighting (a refinement of the
    Illinois rule): when the newest point keeps the sign of the previous
    one, the value at the far bracket end is scaled down, which stops the
    one-sided stall of plain regula falsi.  It uses no field evaluation, so
    it runs to the interpolant's floating-point resolution: an exact zero,
    or a secant point that no longer moves off the bracket ends.  The plane
    driver hands its own root, ``_plane_root``'s, to the locator.
    """
    a, ga, b, gb = 0.0, g0, h, g1
    t = b
    for _ in range(100):
        t = b - gb * (b - a) / (gb - ga)
        if t == a or t == b:
            break
        g = event.fn(_hermite(y0, k0, y1, k1, h, t))
        if g == 0.0:
            break
        if (g > 0.0) == (gb > 0.0):
            m = 1.0 - g / gb
            ga *= m if m > 0.0 else 0.5
        else:
            a, ga = b, gb
        b, gb = t, g
    return t


def _refine_event(p, f, step, event, y_left, k_left, y_right, k_right, h, g_left, g_right, first):
    """Locate the event, with ``step`` and ``f`` bound by ``p``, inside the
    accepted step from ``(y_left, k_left)`` to ``(y_right, k_right)``, where
    g is ``g_left`` and ``g_right``; returns ``(dt, state, g)``.  ``first``
    is None, or the interpolant root that the plane driver took and its
    re-integrated state there (None when the driver's step to it failed the
    error test, which ``_eval_within_step`` would split).

    The event time is first found on the step's cubic Hermite interpolant
    (to its floating-point resolution, at no field evaluation), and the
    state there is re-integrated from the bracket start.  While |g|
    exceeds ``_STRETCH_GOAL`` the time is corrected and the state
    re-integrated from the current candidate, inside the sign bracket:
    Newton steps when the event is one state component (the plane z = 0),
    with that component of the field as slope, secant steps otherwise.  If
    that ends above ``_EVENT_TOL``, bisection re-integrated from the bracket
    start takes over.  Every candidate is a re-integrated state, never an
    interpolated one; one whose re-integration divides by zero (see
    ``_probe``) closes the bracket from above.  The plane event comes here
    only when the driver's own first probe, handed on as ``first``, missed
    the goal.
    """
    lo, hi = 0.0, h
    g_lo = g_left
    if g_lo > 0.0:
        lo_sign = 1.0
    elif g_lo < 0.0:
        lo_sign = -1.0
    else:  # fired from g = 0, so g_right lies past the root (a plane event's: on -d)
        lo_sign = -math.copysign(1.0, g_right)
    best = None
    dt, y_c = first or (math.nan, None)
    if first is None and g_lo * g_right < 0.0:
        dt = _interpolant_root(event, y_left, k_left, y_right, k_right, h, g_lo, g_right)
    if 0.0 < dt < h:
        y_c, v = (_probe(p, f, step, event, y_left, k_left, dt) if y_c is None
                  else (y_c, event.fn(y_c)))
        if y_c is not None:
            best = (dt, y_c, v)
        # The first secant partner is the bracket end across the root.
        t_prev, v_prev = (h, g_right) if v * lo_sign > 0.0 else (0.0, g_lo)
        for _ in range(8):
            if abs(v) <= _STRETCH_GOAL:
                break
            if v * lo_sign > 0.0:
                lo = dt
            else:
                hi = dt
            if y_c is None:
                break
            k_c = f(p, *y_c)
            i = event.component
            slope = (v - v_prev) / (dt - t_prev) if i is None else k_c[i]
            if slope == 0.0:
                break
            cand = dt - v / slope
            if not lo < cand < hi:
                break
            t_prev, v_prev = dt, v
            y_c, v = _probe(p, f, step, event, y_c, k_c, cand - dt)
            dt = cand
            if y_c is not None and abs(v) < abs(best[2]):
                best = (dt, y_c, v)
    if best is None or abs(best[2]) > _EVENT_TOL:
        for _ in range(120):
            mid = 0.5 * (lo + hi)
            y_c, v = _probe(p, f, step, event, y_left, k_left, mid)
            if y_c is not None and (best is None or abs(v) < abs(best[2])):
                best = (mid, y_c, v)
            if abs(v) <= _EVENT_TOL or hi - lo <= 1e-16 * max(1.0, h):
                break
            if v * lo_sign > 0.0:
                lo = mid
            else:
                hi = mid
    return best


def _fly(kernel, events, *args):
    """``drive(p, *args)`` for ``kernel`` ``(p, f, step, drive)`` as a
    ``FlightResult``, with ``_locate`` on a step the driver hands over."""
    status, t, point, accepted, rejected, bracket = kernel[3](kernel[0], *args)
    event = events[0].name if status is _HIT_SIGMA else None
    if bracket is not None:
        point, t, event = _locate(kernel, events, t, bracket)
    return FlightResult(status, point, t, event, accepted, rejected)


def _locate(kernel, events, t, bracket):
    """``(point, time, event name)`` of the hit in the step from time ``t``
    that the driver of ``kernel`` ``(p, f, step, drive)`` handed over as
    ``bracket``: every event that fired is located, and the earliest wins."""
    p, f, step, _ = kernel
    y, k1, y_new, k_last, h, fired, first = bracket
    hit = None
    for j, last, g in fired:
        ev = events[j]
        found = _refine_event(p, f, step, ev, y, k1, y_new, k_last, h, last, g, first)
        if hit is None or found[0] < hit[1]:
            hit = (ev, found[0], found[1])
    ev, dt, y_ev = hit
    return y_ev, t + dt, ev.name


# ---------------------------------------------------------------------------
# Flights to the switching plane


def integrate_to_sigma(field, q0, direction, box=DEFAULT_BOX, h0=None):
    """First return of the orbit through ``q0`` (on {z=0}) to the plane.

    ``direction`` is +1 for an excursion into {z > 0}, -1 for {z < 0}.  If
    the field points into the opposite half-space at ``q0`` (judged by the
    z-component, or by its derivative along the field when that is zero) the
    flight fails with NO_RETURN.  LEFT_BOX and TIME_OUT report orbits that
    escape or stall without returning; the guard cube around ``q0`` has
    half-width 1.5 times the longest side of ``box``, and the flight's
    samples are dropped.
    """
    if direction not in (1, -1):
        raise PreconditionError("direction must be +1 or -1")
    tol = default_tolerance(field)
    if abs(q0[2]) > tol:
        raise PreconditionError("flight must start on the switching plane")
    s = field.cz.eval(q0[0], q0[1], q0[2])
    if s * direction < -tol:
        return FlightResult(FlightStatus.NO_RETURN, time=0.0)
    if abs(s) <= tol:
        s2 = lie_derivative(field, field.cz).eval_at(q0)
        if s2 * direction < tol:
            return FlightResult(FlightStatus.NO_RETURN, time=0.0)
    x, y, r = float(q0[0]), float(q0[1]), box.flight_guard
    return _fly(_flight_kernel(field), _SIGMA_EVENTS, (x, y, 0.0), _MAX_TIME, h0, direction,
                (x - r, x + r, y - r, y + r, -r, r), [])


def _fold_plan(system, side):
    """``side``'s fold-map plan, kept in ``system.fold_plans``: the evaluators
    of Xf and X^2f (or Yf and Y^2f), the field's tolerance, its half-space,
    the guard half-width and the forward and reversed kernels.  The reversed
    kernel, that of ``-field``, is the forward one on its binding negated
    entry by entry: ``0.0 - v`` keeps an empty component's +0.0 sums, which
    ``-v`` would make -0.0.  (Only a constant component of +5e-324 or
    +1e-323, whose sums underflow to +0.0, gets +0.0 where ``-field``'s
    binding holds -0.0.)"""
    if side not in ("X", "Y"):
        raise PreconditionError("side must be 'X' or 'Y'")
    field, second, halfspace = (system.X, system.x2f, 1) if side == "X" else (
        system.Y, system.y2f, -1)
    forward = _flight_kernel(field)
    return system.fold_plans.setdefault(side, (
        field.cz.eval, second.eval, default_tolerance(field), halfspace, system.box.flight_guard,
        forward, (tuple(0.0 - v for v in forward[0]), *forward[1:])))


def fold_map_numeric(system, side, q):
    """Numeric fold involution on the plane for the chosen field.

    Points on the field's tangency line map to themselves; any other ``q`` to
    the return of ``integrate_to_sigma``'s flight through the field's half-space,
    forwards or backwards in time (on the field's reversed kernel) by its side
    of the tangency line, in a guard cube sized by ``system.box``.  Failures
    (visible-fold side, escaping orbits) raise :class:`IntegrationFailure`.
    """
    try:
        plan = system.fold_plans[side]
    except (KeyError, TypeError):  # no plan yet, or an unhashable side
        plan = _fold_plan(system, side)
    cz, second, tol, halfspace, r, forward, backward = plan
    x, y = float(q[0]), float(q[1])
    s = cz(x, y, 0.0)
    if abs(s) <= tol:
        return (x, y)
    kernel = forward if s * halfspace > 0.0 else backward
    s2 = second(x, y, 0.0)
    h0 = None
    if abs(s2) > 1e-12:
        h0 = max(abs(s) / abs(s2) / 4.0, 1e-12)
    status, t, point, _, _, bracket = kernel[3](
        kernel[0], (x, y, 0.0), _MAX_TIME, h0, halfspace, (x - r, x + r, y - r, y + r, -r, r), [])
    if bracket is not None:
        point = _locate(kernel, _SIGMA_EVENTS, t, bracket)[0]
    if status is not _HIT_SIGMA:
        raise IntegrationFailure(
            status, f"fold map {side} failed at ({x:.6g}, {y:.6g}): {status}"
        )
    return (point[0], point[1])


def return_map_numeric(system, q):
    """First-return map: fold map of Y followed by fold map of X."""
    mid = fold_map_numeric(system, "Y", q)
    return fold_map_numeric(system, "X", mid)


def jacobian_numeric(map_fn, q, h):
    """Central-difference Jacobian of a planar map at ``q``, a numpy array."""
    import numpy as np  # loaded here and for trajectories only
    x, y = float(q[0]), float(q[1])
    fxp = map_fn((x + h, y))
    fxm = map_fn((x - h, y))
    fyp = map_fn((x, y + h))
    fym = map_fn((x, y - h))
    return np.array([[(fxp[0] - fxm[0]) / (2 * h), (fyp[0] - fym[0]) / (2 * h)],
                     [(fxp[1] - fxm[1]) / (2 * h), (fyp[1] - fym[1]) / (2 * h)]])


# ---------------------------------------------------------------------------
# Filippov trajectories


class Mode(Enum):
    FLOW_PLUS = "flow+"
    FLOW_MINUS = "flow-"
    SLIDING = "sliding"


@dataclass
class TrajectorySegment:
    mode: Mode
    times: object  # numpy array (n,)
    points: object  # numpy array (n, 3)
    terminal: FlightStatus


@dataclass
class Trajectory:
    segments: list = field(default_factory=list)
    status: str = ""
    total_time: float = 0.0


def _mode_on_sigma(system, q3, tol):
    """Mode that follows the point ``q3`` of the plane, as ``(mode, None)``,
    or ``(None, status)`` when the trajectory stops there.

    On a fold line the orbit can only go on along the arc tangent to the
    plane of the field whose fold is visible there; a fold-fold corner, a
    cusp contact or an invisible fold stops it.
    """
    xf = system.xf.eval_at(q3)
    yf = system.yf.eval_at(q3)
    x_fold = abs(xf) <= tol
    y_fold = abs(yf) <= tol
    if x_fold and not y_fold and system.x2f.eval_at(q3) > tol:
        return Mode.FLOW_PLUS, None
    if y_fold and not x_fold and system.y2f.eval_at(q3) < -tol:
        return Mode.FLOW_MINUS, None
    if x_fold or y_fold:
        return None, FlightStatus.REACHED_TANGENCY
    if xf > 0.0 and yf > 0.0:
        return Mode.FLOW_PLUS, None
    if xf < 0.0 and yf < 0.0:
        return Mode.FLOW_MINUS, None
    if xf < 0.0 < yf:
        return Mode.SLIDING, None
    # Unstable sliding: forward time never enters it.
    return None, FlightStatus.UNSTABLE_SLIDING


def _segment_end(system, out, mode, tol):
    """Terminal status of a ``mode`` segment that ended with ``out``, and
    the mode that follows it (None when the trajectory stops).

    A sliding segment ends on a fold line (events ``sx``/``sy``) or where
    the sliding denominator vanishes (``den``): at a fold-fold point that is
    a tangency, elsewhere a blow-up.  An event at an overflowed state ends
    ``LEFT_BOX``, as the guard ends a flight whose state is NaN.
    """
    if out.status is not FlightStatus.HIT_SIGMA:
        return out.status, None
    x, y = out.point[0], out.point[1]
    if not (math.isfinite(x) and math.isfinite(y)):
        return FlightStatus.LEFT_BOX, None
    q3 = (x, y, 0.0)
    if mode is Mode.SLIDING:
        xf = system.xf.eval_at(q3)
        yf = system.yf.eval_at(q3)
        if out.event == "den":
            if abs(xf) <= 10 * tol and abs(yf) <= 10 * tol:
                return FlightStatus.REACHED_TANGENCY, None
            return FlightStatus.DENOMINATOR_BLOWUP, None
        if abs(xf) > tol and abs(yf) > tol:  # the fold event missed the fold line
            return FlightStatus.REACHED_TANGENCY, None
    next_mode, stop = _mode_on_sigma(system, q3, tol)
    return (FlightStatus.MODE_SWITCH, next_mode) if stop is None else (stop, None)


def filippov_trajectory(system, p0, horizon, cfg=None):
    """Piecewise trajectory with free flights, crossings and sliding.

    A negative ``horizon`` integrates the time-reversed system (this is the
    only way unstable sliding is ever entered, matching the forward-time
    convention that trajectories never slide on the unstable side).  It
    stops where it leaves ``cfg.box``, or ``system.box`` without ``cfg``.
    """
    if horizon < 0:
        rev = filippov_trajectory(system.time_reversed(), p0, -horizon, cfg)
        for seg in rev.segments:
            seg.times = -seg.times
        rev.total_time = -rev.total_time
        return rev

    tol = default_tolerance(system)
    bounds = cfg.box if cfg else system.box
    box = bounds.as_tuple()

    traj = Trajectory()
    p = (float(p0[0]), float(p0[1]), float(p0[2]))
    if not bounds.contains(p):
        raise PreconditionError(f"trajectory start {p} lies outside its box")
    if p[2] > tol:
        mode, stop = Mode.FLOW_PLUS, None
    elif p[2] < -tol:
        mode, stop = Mode.FLOW_MINUS, None
    else:
        mode, stop = _mode_on_sigma(system, p, tol)
    if mode is None:
        marker = Mode.SLIDING if stop is FlightStatus.UNSTABLE_SLIDING else Mode.FLOW_PLUS
        _append_segment(traj, 0.0, [(0.0, *p)], marker, stop)
        traj.status = stop.value
        return traj

    t_now = 0.0
    sliding = None  # the sliding kernels and events, bound on first use

    while len(traj.segments) < _MAX_SEGMENTS:
        remaining = horizon - t_now
        if remaining <= 1e-14 * max(1.0, horizon):
            _append_segment(traj, t_now, [(0.0, *p)], mode, FlightStatus.TIME_OUT)
            break
        samples = []
        if mode is Mode.SLIDING:  # on {z = 0}, with state (x, y)
            if sliding is None:  # the events as the locator evaluates them
                xf, yf = system.xf.compiled(), system.yf.compiled()
                sliding = _sliding_kernel(system), (
                    _Event("sx", lambda y: xf(y[0], y[1], 0.0)),
                    _Event("sy", lambda y: yf(y[0], y[1], 0.0)),
                    _Event("den", lambda y: yf(y[0], y[1], 0.0) - xf(y[0], y[1], 0.0) - tol))
            kernel, events = sliding
            out = _fly(kernel, events, (p[0], p[1]), remaining, None, box, tol,
                       10.0 * max(_EVENT_TOL, tol), samples)
        else:
            fld, d = (system.X, 1) if mode is Mode.FLOW_PLUS else (system.Y, -1)
            out = _fly(_flight_kernel(fld), _SIGMA_EVENTS, p, remaining, None, d, box, samples)
        if out.event is not None:
            samples.append((out.time, *out.point))
        seg_end, next_mode = _segment_end(system, out, mode, tol)
        _append_segment(traj, t_now, samples, mode, seg_end)
        t_now += out.time
        on_plane = mode is Mode.SLIDING or seg_end is FlightStatus.MODE_SWITCH
        p = (out.point[0], out.point[1], 0.0 if on_plane else out.point[2])
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


def _append_segment(traj, t_offset, samples, mode, terminal):
    """Append one flight's ``(t, *state)`` samples, rows of one width, read
    flat; sliding states (x, y) get z = 0.0."""
    import numpy as np  # loaded here and for the numeric Jacobian only
    n, width = len(samples), len(samples[0])
    rows = np.fromiter(chain.from_iterable(samples), float, n * width).reshape(n, width)
    points = np.zeros((n, 3))
    points[:, :width - 1] = rows[:, 1:]
    traj.segments.append(TrajectorySegment(mode, t_offset + rows[:, 0], points, terminal))
