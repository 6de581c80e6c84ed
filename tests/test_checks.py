import dataclasses
import importlib
import inspect
import re

import numpy as np
import pytest

from foldatlas import checks, integrator
from foldatlas.algebra import Poly3, VectorField3
from foldatlas.errors import IntegrationFailure
from foldatlas.integrator import (
    FlightStatus,
    Mode,
    Trajectory,
    TrajectorySegment,
)
from foldatlas.sliding import _eigvec2
from foldatlas.system import PiecewiseSystem


def _by_name(results, name):
    (result,) = [r for r in results if r.name == name]
    return result


class TestSaddleDichotomyDraws:
    def test_block_draws_match_scalar_draws(self, monkeypatch):
        n, seed = 2000, 5
        seen = []
        make = checks.make_parameters

        def recording(a, b, g, d):
            seen.append((a, b, g))
            return make(a, b, g, d)

        monkeypatch.setattr(checks, "make_parameters", recording)
        checks.check_saddle_dichotomy(n=n, seed=seed)
        rng = np.random.default_rng(seed)
        expected = []
        while len(expected) < n:
            a = rng.uniform(-3.0, 3.0)
            b = rng.uniform(-3.0, 3.0)
            g = rng.uniform(0.2, 3.0)
            if abs(a * b * (a * b - g)) > checks._DRAW_MARGIN:
                expected.append((a, b, g))
        assert [tuple(map(float.hex, t)) for t in seen] == [
            tuple(map(float.hex, t)) for t in expected
        ]
        assert all(type(v) is float for t in seen for v in t)


class TestReturnMapGridFailures:
    def test_failed_flights_are_counted(self, monkeypatch):
        monkeypatch.setattr(integrator, "_MAX_STEPS", 1)
        results = checks.check_return_map_grid(n_alpha=2, n_beta=2, gammas=(1.0,))
        jac = _by_name(results, "return-map numeric Jacobian")
        failed = re.search(r"(\d+) grid points with a failed flight", jac.detail)
        assert int(failed.group(1)) == 4
        assert "matched 0/0" in jac.detail
        assert not jac.passed

    def test_no_failures_on_invisible_grid(self):
        results = checks.check_return_map_grid(n_alpha=2, n_beta=2, gammas=(1.0,))
        jac = _by_name(results, "return-map numeric Jacobian")
        assert "4/4, 0 grid points with a failed flight" in jac.detail


class TestDiaboloCounts:
    @staticmethod
    def _separation():
        results = checks.check_diabolo(n_draws=5, n_systems=2, seeds_per_system=10, seed=3)
        return _by_name(results, "diabolo sliding separation")

    def test_every_seed_has_one_outcome(self):
        sep = self._separation()
        m = re.search(
            r"(\d+) iterated unstable-sliding seeds: (\d+) escaped, "
            r"(\d+) stopped by a failed flight, (\d+) reached 200 iterations; "
            r"at most (\d+) iterations",
            sep.detail,
        )
        seeds, escaped, failed, exhausted, most = map(int, m.groups())
        assert seeds == 20
        assert escaped + failed + exhausted + int(sep.residual) == seeds
        assert 0 <= most <= 200
        by_status = re.search(r"\(failed flights: (.*)\)$", sep.detail)
        listed = by_status.group(1).split(", ") if by_status else []
        assert sum(int(item.rsplit(" ", 1)[1]) for item in listed) == failed

    def test_landing_in_stable_sliding_fails(self, monkeypatch):
        # the first quadrant is stable sliding of every normal form with delta = -1
        monkeypatch.setattr(checks, "return_map_numeric", lambda s, q: (0.5, 0.5))
        sep = self._separation()
        assert not sep.passed
        assert sep.residual == 20.0
        assert "20 iterated unstable-sliding seeds: 0 escaped, 0 stopped" in sep.detail

    def test_failed_flights_counted_by_status(self, monkeypatch):
        def time_out(system, q):
            raise IntegrationFailure(FlightStatus.TIME_OUT)

        monkeypatch.setattr(checks, "return_map_numeric", time_out)
        sep = self._separation()
        assert sep.passed
        assert "0 escaped, 20 stopped by a failed flight" in sep.detail
        assert sep.detail.endswith("at most 0 iterations (failed flights: time-out 20)")


class TestDiaboloCompanions:
    """The reversibility and contracting-cone rows of criterion 8 pass on
    the closed-form eigendirections and fail on wrong ones."""

    @staticmethod
    def _patch_vectors(monkeypatch, vectors):
        """Replace the closed-form (v_contracting, v_expanding) by
        ``vectors(analysis)``."""
        exact = checks.return_map_analysis

        def patched(params):
            analysis = exact(params)
            v_contracting, v_expanding = vectors(analysis)
            return dataclasses.replace(
                analysis, v_contracting=v_contracting, v_expanding=v_expanding
            )

        monkeypatch.setattr(checks, "return_map_analysis", patched)

    @staticmethod
    def _rows():
        results = checks.check_diabolo(n_draws=5, n_systems=2, seeds_per_system=10, seed=3)
        return (
            _by_name(results, "diabolo reversibility"),
            _by_name(results, "diabolo contracting cone"),
        )

    def test_closed_form_directions_pass(self):
        reversibility, cone = self._rows()
        assert reversibility.passed and reversibility.residual <= 1e-10
        assert cone.passed
        m = re.match(r"(\d+)/(\d+) seeds on the contracting line", cone.detail)
        assert int(m.group(2)) == 40  # 10 radii x 2 signs x 2 systems
        counts = re.search(r"iteration histogram \{(.*)\}", cone.detail).group(1)
        assert sum(int(c.split(": ")[1]) for c in counts.split(", ")) == 40

    def test_swapped_directions_fail_the_cone(self, monkeypatch):
        # The X-fold map swaps the two eigenlines, so the reversibility probe
        # cannot tell them apart; seeds on the expanding line leave quickly.
        self._patch_vectors(monkeypatch, lambda a: (a.v_expanding, a.v_contracting))
        reversibility, cone = self._rows()
        assert reversibility.passed
        assert not cone.passed
        assert cone.residual > cone.threshold

    def test_transposed_eigenvectors_fail_reversibility(self, monkeypatch):
        def transposed(analysis):
            (m00, m01), (m10, m11) = analysis.matrix.tolist()
            small, big = (v.real for v in analysis.eigenvalues)
            return (
                np.array(_eigvec2(m00, m10, m01, m11, small)),
                np.array(_eigvec2(m00, m10, m01, m11, big)),
            )

        self._patch_vectors(monkeypatch, transposed)
        reversibility, cone = self._rows()
        assert not reversibility.passed
        assert reversibility.residual > 1.0
        assert not cone.passed

    def test_alpha_off_by_one_percent_fails_reversibility(self, monkeypatch):
        exact = checks.return_map_analysis

        def perturbed(params):
            analysis = exact(
                checks.make_parameters(
                    1.01 * params.alpha, params.beta, params.gamma, params.delta
                )
            )
            return dataclasses.replace(exact(params), v_contracting=analysis.v_contracting,
                                       v_expanding=analysis.v_expanding)

        monkeypatch.setattr(checks, "return_map_analysis", perturbed)
        reversibility, _ = self._rows()
        assert not reversibility.passed
        assert reversibility.residual > reversibility.threshold

    def test_failed_fold_map_fails_reversibility(self, monkeypatch):
        def left_box(system, side, q):
            raise IntegrationFailure(FlightStatus.LEFT_BOX)

        monkeypatch.setattr(checks, "fold_map_numeric", left_box)
        reversibility, _ = self._rows()
        assert not reversibility.passed
        assert "2 systems with a failed fold map" in reversibility.detail


class TestSlidingMembership:
    @staticmethod
    def _fake_sliding(points):
        def fake(system, p0, horizon, cfg=None):
            pts = np.array([list(p) for p in points(system)])
            seg = TrajectorySegment(
                Mode.SLIDING, np.arange(len(pts), dtype=float), pts, FlightStatus.TIME_OUT
            )
            return Trajectory([seg], FlightStatus.TIME_OUT.value, float(horizon))

        return fake

    def test_sample_outside_sliding_region_fails(self, monkeypatch):
        # Far out on the axes the linear parts of Xf or Yf dominate, so some
        # sample has Xf > 0 or Yf < 0.
        far = [(1e6, 0.0, 0.0), (-1e6, 0.0, 0.0), (0.0, 1e6, 0.0), (0.0, -1e6, 0.0)]
        monkeypatch.setattr(checks, "filippov_trajectory", self._fake_sliding(lambda s: far))
        results = checks.check_sliding_tangency(n_sims=3, seed=0)
        member = _by_name(results, "sliding region membership")
        assert not member.passed
        assert member.residual > member.threshold
        assert _by_name(results, "sliding |z|").passed
        assert _by_name(results, "sliding normal velocity").passed

    def test_sample_inside_sliding_region_passes(self, monkeypatch):
        inside = [(0.0, 0.0, 0.0)]
        monkeypatch.setattr(checks, "filippov_trajectory", self._fake_sliding(lambda s: inside))
        results = checks.check_sliding_tangency(n_sims=3, seed=0)
        member = _by_name(results, "sliding region membership")
        assert member.passed and member.residual == 0.0


class TestSlidingExits:
    @pytest.mark.parametrize("sx, visible", [(1.0, False), (-1.0, True)])
    def test_exit_must_be_at_a_visible_fold(self, monkeypatch, sx, visible):
        # X = (sx, 0, -x): Xf = -x vanishes on x = 0, where X2f = -sx, so the
        # X fold is visible for sx < 0 and invisible for sx > 0.
        def system(rng):
            X = VectorField3(Poly3.constant(sx), Poly3.zero(), Poly3({(1, 0, 0): -1.0}))
            Y = VectorField3(Poly3.zero(), Poly3.zero(), Poly3.constant(1.0))
            return PiecewiseSystem(X, Y)

        def fake(system, p0, horizon, cfg=None):
            pts = np.array([[0.5, 0.0, 0.0], [0.0, 0.0, 0.0]])
            seg = TrajectorySegment(Mode.SLIDING, np.arange(2.0), pts, FlightStatus.MODE_SWITCH)
            return Trajectory([seg], FlightStatus.MODE_SWITCH.value, 1.0)

        monkeypatch.setattr(checks, "_random_sliding_system", system)
        monkeypatch.setattr(checks, "filippov_trajectory", fake)
        # Only the patched system: the fake exit point is no fold of the
        # stick-slip companions.
        monkeypatch.setattr(checks, "_STICK_SLIP_RUNS", 0)
        results = checks.check_sliding_tangency(n_sims=3, seed=0)
        exits = _by_name(results, "sliding exits at visible folds")
        assert exits.passed is visible
        assert exits.detail == f"{0 if visible else 3} of 3 sliding exits not at a visible fold"
        assert _by_name(results, "sliding region membership").passed

    def test_no_exit_fails(self, monkeypatch):
        fake = TestSlidingMembership._fake_sliding(lambda s: [(0.0, 0.0, 0.0)])
        monkeypatch.setattr(checks, "filippov_trajectory", fake)
        monkeypatch.setattr(checks, "_STICK_SLIP_RUNS", 0)
        results = checks.check_sliding_tangency(n_sims=3, seed=0)
        exits = _by_name(results, "sliding exits at visible folds")
        assert not exits.passed
        assert exits.detail == "0 of 0 sliding exits not at a visible fold"

    def test_stick_slip_systems_exit_at_visible_folds(self, monkeypatch):
        monkeypatch.setattr(checks, "_STICK_SLIP_RUNS", 2)
        results = checks.check_sliding_tangency(n_sims=0, seed=0)
        assert all(r.passed for r in results)
        exits = _by_name(results, "sliding exits at visible folds")
        n_exits = int(re.match(r"0 of (\d+) sliding exits", exits.detail).group(1))
        assert n_exits >= 2


class TestSettableValues:
    """Defaulted parameters of the module-level functions plus the
    ``IntegratorConfig`` fields: each is a value a caller can set.  A knob
    with one value in use is a module constant instead, so the count only
    grows when a second value is in use."""

    MODULES = ("algebra", "system", "sigma", "sliding", "foldfold", "integrator",
               "checks", "cli")

    def test_at_most_44(self):
        count = len(dataclasses.fields(integrator.IntegratorConfig))
        for short in self.MODULES:
            module = importlib.import_module(f"foldatlas.{short}")
            for fn in vars(module).values():
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    params = inspect.signature(fn).parameters.values()
                    count += sum(p.default is not inspect.Parameter.empty for p in params)
        assert count <= 44
