import hashlib
import math
import struct

import numpy as np
import pytest

from foldatlas import integrator
from foldatlas.algebra import Poly3, VectorField3
from foldatlas.checks import _stick_slip_system
from foldatlas.errors import IntegrationFailure, PreconditionError
from foldatlas.foldfold import make_parameters, return_map_analysis
from foldatlas.integrator import (
    FlightStatus,
    IntegratorConfig,
    Mode,
    _rk_step,
    filippov_trajectory,
    fold_map_numeric,
    integrate_to_sigma,
    jacobian_numeric,
    return_map_numeric,
)
from foldatlas.system import Box, PiecewiseSystem, build_normal_form

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
    # sum() of floats up to Python 3.11: left to right, starting from 0
    # (Python 3.12 compensates, which would move the last bits).
    acc = 0
    for t in terms:
        acc = acc + t
    return acc


def _ref_stage(y, h, ks, coeffs):
    return tuple(
        yi + h * _plain_sum(c * k[i] for c, k in zip(coeffs, ks))
        for i, yi in enumerate(y)
    )


def _ref_rk_step(f, y, h, k1):
    ks = [k1]
    for row in _DP_A:
        ks.append(f(*_ref_stage(y, h, ks, row)))
    y_new = _ref_stage(y, h, ks, _DP_B)
    ks.append(f(*y_new))
    err = tuple(
        h * _plain_sum(e * k[i] for e, k in zip(_DP_E, ks)) for i in range(len(y))
    )
    return y_new, ks[6], err


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


# Normal form whose Y fold is invisible, with higher-order terms that make
# the flights non-polynomial in time (so no interpolant is exact on them).
HOT = {
    "cx": [[[1, 0, 0], 0.3], [[0, 0, 1], -0.4]],
    "cy": [[[0, 1, 0], 0.25]],
    "cz": [[[2, 0, 0], 0.45], [[1, 1, 0], -0.35], [[0, 0, 2], 0.3]],
}


def hot_normal_form():
    return build_normal_form(-0.6, 1.2, 0.8, -1.0, hot=HOT)


def dry_friction(F=1.0, v0=0.5, c=0.1):
    """The dry-friction oscillator of the sliding-tangency check and its box."""
    system = _stick_slip_system(F, v0, c)
    return system, system.box


class TestStepperBitwise:
    STEPS = [10.0 ** e for e in range(-12, 1)] + [3.7e-7, 0.013, 0.61]

    @staticmethod
    def _assert_same(f, y, h):
        # The step returns the norm, not the error vector, so the norm of
        # the reference error vector is what pins the error weights.
        k1 = f(*y)
        y_new, k_last, norm = _rk_step(f, y, h, k1)
        ry_new, rk_last, rerr = _ref_rk_step(f, y, h, k1)
        assert _bits(*y_new) == _bits(*ry_new)
        assert _bits(*k_last) == _bits(*rk_last)
        ref = _ref_error_norm(rerr, y, ry_new, integrator._ABS_TOL, integrator._REL_TOL)
        assert _bits(norm) == _bits(ref)

    def test_random_3d_states(self):
        rng = np.random.default_rng(21)
        fields = [
            build_normal_form(-0.7, 1.3, 0.9, -1.0).X.compiled(),
            VectorField3(
                Poly3({(2, 0, 0): 0.8, (0, 1, 1): -1.3, (0, 0, 0): 0.2}),
                Poly3({(1, 1, 0): 2.1, (0, 0, 3): -0.4}),
                Poly3({(0, 2, 0): -1.0, (1, 0, 1): 0.7, (0, 0, 0): -0.3}),
            ).compiled(),
        ]
        for f in fields:
            for h in self.STEPS:
                for _ in range(20):
                    y = tuple(float(v) for v in rng.normal(scale=2.0, size=3))
                    self._assert_same(f, y, h)

    def test_random_2d_states(self):
        rng = np.random.default_rng(22)

        def f2(u, v):
            return (u * v - 0.3 * u * u + 0.1, 1.1 * u - v * v * v)

        for h in self.STEPS:
            for _ in range(20):
                y = tuple(float(v) for v in rng.normal(scale=2.0, size=2))
                self._assert_same(f2, y, h)

    def test_negative_zero_component(self):
        # From y = -0.0 the field keeps every component but r at -0.0, so
        # only the sum's start from 0 makes the second stage's components
        # +0.0; component r reads their signs back through copysign, so they
        # reach the outputs.
        def field(dim, r):
            def f(*s):
                k = [-abs(v) for v in s]
                k[r] = sum(math.copysign(2.0**i, v) for i, v in enumerate(s) if i != r)
                return tuple(k)

            return f

        for dim in (3, 2):
            for r in range(dim):
                for h in self.STEPS:
                    self._assert_same(field(dim, r), (-0.0,) * dim, h)

    def test_non_finite_stage_meets_zero_weights(self):
        # Component j of k2 alone is infinite: the field moves the state
        # along component d, and only the second stage lands in the window.
        # The zero weights b2 and e2 turn it into NaN, as the loop does.
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
                self._assert_same(f, y, 1.0)
                y_new, _, norm = _rk_step(f, y, 1.0, f(*y))
                assert math.isnan(y_new[j]) and math.isnan(norm)


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
        steps = []
        monkeypatch.setattr(integrator, "_rk_step", lambda *args: steps.append(args))
        with pytest.raises(PreconditionError, match="outside its box"):
            filippov_trajectory(Z, p0, horizon)
        assert steps == []

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


class TestConfig:
    def test_custom_box(self):
        cfg = IntegratorConfig(box=Box(-2, 2, -2, 2, -2, 2))
        Z = PiecewiseSystem(const_field(1, 0, -1), const_field(0, 1, 1))
        traj = filippov_trajectory(Z, (0.0, 0.0, 0.5), 50.0, cfg)
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


def _record_refinements(monkeypatch):
    """Wrap the locator: one ``(h, found, rk_steps, event_name)`` per event,
    counting the ``_rk_step`` calls made inside ``_refine_event``."""
    events = []
    inside = []
    real_step, real_refine = integrator._rk_step, integrator._refine_event

    def step(*args):
        if inside:
            inside[-1] += 1
        return real_step(*args)

    def refine(f, event, y_left, k_left, y_right, k_right, h, g_right):
        inside.append(0)
        try:
            found = real_refine(f, event, y_left, k_left, y_right, k_right, h, g_right)
        finally:
            steps = inside.pop()
        events.append((h, found, steps, event.name))
        return found

    monkeypatch.setattr(integrator, "_rk_step", step)
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
        # An interpolant root outside (0, h) must hand over to bisection.
        monkeypatch.setattr(integrator, "_interpolant_root", lambda *args: factor * args[5])

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


class TestPlaneRootOneComponent:
    """The plane event's interpolant root reads the z-component alone; it
    must equal, bit for bit, the root found through ``event.fn`` on the full
    interpolated state."""

    @staticmethod
    def _generic_plane_event():
        # the plane event without its component: goes through _hermite
        return integrator._Event("z", lambda y: y[2], arm_eps=0.0)

    def _assert_same_root(self, event, y0, k0, y1, k1, h, g0, g1):
        assert event.component == 2
        got = integrator._interpolant_root(event, y0, k0, y1, k1, h, g0, g1)
        ref = integrator._interpolant_root(
            self._generic_plane_event(), y0, k0, y1, k1, h, g0, g1
        )
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
            event = integrator._sigma_event(1 if y0[2] > 0.0 else -1)
            t = self._assert_same_root(event, y0, k0, y1, k1, h, y0[2], y1[2])
            assert min(0.0, h) <= t <= max(0.0, h)

    def test_hot_normal_form_flights(self, monkeypatch):
        calls = []
        real = integrator._interpolant_root

        def record(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(integrator, "_interpolant_root", record)
        system = hot_normal_form()
        for x in (-0.2, -0.07, 0.03, 0.15):
            for y in (-0.12, -0.02, 0.05, 0.1):
                fold_map_numeric(system, "Y", (x, y))
                fold_map_numeric(system, "X", (x, y))
        monkeypatch.undo()
        assert len(calls) == 32
        for args in calls:
            self._assert_same_root(*args)


class TestWorkCounts:
    """One numeric Jacobian of the return map on a delta = -1 normal form:
    6 flights (two of the eight fold maps start on the Y tangency line),
    24 Dormand-Prince steps and 150 field evaluations.  Flights are counted
    at ``integrate_to_sigma``, where perfbench's tracer also counts them."""

    @pytest.mark.parametrize("params", [(-0.7, 1.3, 0.9), (2.5, -1.4, 0.5)])
    def test_return_map_jacobian(self, monkeypatch, call_counts, params):
        counts = call_counts(integrator, "integrate_to_sigma", "_rk_step")
        real_compiled = VectorField3.compiled

        def compiled(field):
            fn = real_compiled(field)

            def counted(x, y, z):
                counts["field_evals"] += 1
                return fn(x, y, z)

            return counted

        monkeypatch.setattr(VectorField3, "compiled", compiled)
        system = build_normal_form(*params, -1.0)
        jacobian_numeric(lambda q: return_map_numeric(system, q), (0.0, 0.0), 1e-3)
        assert counts == {"integrate_to_sigma": 6, "_rk_step": 24, "field_evals": 150}

    def test_stick_slip_trajectory(self, call_counts):
        # slide, slip below the plane, slide, slip to the horizon: every
        # accepted step is one sample, and the three events (two sliding
        # exits, one return to the plane) take no extra step to locate
        counts = call_counts(integrator, "_rk_step", "_refine_event")
        system, box = dry_friction()
        traj = filippov_trajectory(system, (0.2, 0.3, 0.0), 12.0, IntegratorConfig(box=box))
        assert counts == {"_rk_step": 355, "_refine_event": 3}
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
    rule that the first argument wins against NaN.  Step sizes, states and
    samples are pinned by SHA-256 over ``float.hex``."""

    BIG = Box(-1e308, 1e308, -1e308, 1e308, -1e308, 1e308)  # scale overflows
    FLIGHT_DIGEST = "2d52d570f49cc17ad1739482f917a8f115545c38b328cac42dd63e14d8823d1e"
    TRAJECTORY_DIGEST = "62e81d8448141a12f1cc397e2453743e4835d68e74f698f33e46a878e250a01c"

    @staticmethod
    def _field(cz):
        return VectorField3(Poly3({(1, 1, 0): 1.0}), Poly3.constant(1.0), cz)

    @staticmethod
    def _digest(values):
        return hashlib.sha256(",".join(float(v).hex() for v in values).encode()).hexdigest()

    def test_flight_grows_fivefold_to_the_horizon(self, monkeypatch):
        steps = []
        real = integrator._rk_step

        def step(f, y, h, k1):
            out = real(f, y, h, k1)
            steps.append((h, out[2]))
            return out

        monkeypatch.setattr(integrator, "_rk_step", step)
        # dz/dt = 1 never returns, and the guard cube of an overflowing box
        # scale is unbounded, so the flight runs to the time horizon
        res = integrate_to_sigma(self._field(Poly3.constant(1.0)), (1e306, 1.0, 0.0), 1,
                                 self.BIG)
        assert res.status is FlightStatus.TIME_OUT and res.time == integrator._MAX_TIME
        assert math.isnan(res.point[0])
        first_nan = next(i for i, (_, err) in enumerate(steps) if math.isnan(err))
        assert (first_nan, len(steps)) == (69, 76)
        assert all(math.isnan(err) for _, err in steps[first_nan:])
        hs = [h for h, _ in steps[first_nan:]]
        assert all(b == 5.0 * a for a, b in zip(hs, hs[1:-1]))
        assert self._digest([v for h_err in steps for v in h_err] + list(res.point)) == (
            self.FLIGHT_DIGEST)

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
