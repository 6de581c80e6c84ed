import dataclasses
import importlib
import inspect
import math
import re

import numpy as np
import pytest

from foldatlas import checks, foldfold, integrator
from foldatlas.algebra import Poly3, VectorField3
from foldatlas.errors import IntegrationFailure
from foldatlas.integrator import (
    FlightStatus,
    Mode,
    Trajectory,
    TrajectorySegment,
)
from foldatlas.foldfold import _eigvec2
from foldatlas.system import Box, PiecewiseSystem, build_normal_form


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
            (m00, m01), (m10, m11) = analysis.rows
            small, big = (v.real for v in analysis.eigenvalues)
            return _eigvec2(m00, m10, m01, m11, small), _eigvec2(m00, m10, m01, m11, big)

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
        # a flow segment that enters sliding at the first point, then slides
        def fake(system, p0, horizon, cfg=None):
            pts = np.array([list(p) for p in points(system)])
            flow = TrajectorySegment(
                Mode.FLOW_PLUS, np.zeros(1), pts[:1], FlightStatus.MODE_SWITCH
            )
            seg = TrajectorySegment(
                Mode.SLIDING, np.arange(len(pts), dtype=float), pts, FlightStatus.TIME_OUT
            )
            return Trajectory([flow, seg], FlightStatus.TIME_OUT.value, float(horizon))

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
        # The entry row still passes.  The field row is asserted on sliding
        # samples below: these are crossing points, where Yf - Xf cancels
        # (stick-slip has Xf, Yf ~ -1e6 and Yf - Xf = 2F), so its relative
        # error reaches ~1e-10.
        assert _by_name(results, "sliding entry |z|").passed

    def test_sample_inside_sliding_region_passes(self, monkeypatch):
        inside = [(0.0, 0.0, 0.0)]
        monkeypatch.setattr(checks, "filippov_trajectory", self._fake_sliding(lambda s: inside))
        results = checks.check_sliding_tangency(n_sims=3, seed=0)
        member = _by_name(results, "sliding region membership")
        assert member.passed and member.residual == 0.0
        assert _by_name(results, "sliding entry |z|").passed
        assert _by_name(results, "sliding field vs normalized field").passed


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


class TestSystemRows:
    """``check_system`` picks its numeric rows from the closed-form subtype:
    involution rows for invisible folds, non-return rows for visible ones
    and the return-map rows at the invisible two-fold only."""

    ROWS = {  # (gamma sign, delta): the rows that apply
        (1.0, -1.0): ["X-fold involution", "Y-fold involution", "return-map determinant",
                      "return-map trace vs normal parameters"],
        (1.0, 1.0): ["X-fold non-return", "Y-fold involution"],
        (-1.0, 1.0): ["X-fold non-return", "Y-fold non-return"],
        (-1.0, -1.0): ["X-fold involution", "Y-fold non-return"],
    }
    ALL = ["X-fold involution", "X-fold non-return", "Y-fold involution", "Y-fold non-return",
           "return-map determinant", "return-map trace vs normal parameters"]

    def test_bounds_are_pinned(self):
        results = checks.check_system(build_normal_form(0.3, 0.5, 1.0, -1.0), (0.0, 0.0, 0.0), 0)
        assert {r.name: r.threshold for r in results[1:]} == {
            "X-fold involution": 1e-6,
            "Y-fold involution": 1e-6,
            "return-map determinant": 1e-6,
            "return-map trace vs normal parameters": 1e-3,
        }

    @pytest.mark.parametrize("sign,delta", list(ROWS))
    def test_seeded_sample_of_each_subtype(self, sign, delta):
        rng = np.random.default_rng(41)
        for k in range(6):
            alpha, beta = rng.uniform(-2.0, 2.0, size=2)
            gamma = sign * rng.uniform(0.3, 2.0)
            system = build_normal_form(alpha, beta, gamma, delta)
            results = checks.check_system(system, (0.0, 0.0, 0.0), seed=k)
            assert all(r.passed for r in results), [r.row() for r in results]
            rows = self.ROWS[(sign, delta)]
            assert [r.name for r in results[1:]] == rows
            skipped = results[0].detail.split("; not applicable: ")[1].split(", ")
            assert sorted(rows + skipped) == sorted(self.ALL)

    def test_failed_flights_fail_an_involution_row(self):
        # in a box of side 0.02 some fold flights leave their guard cube and
        # the others return within the bound: the failed ones alone fail the row
        normal = build_normal_form(3.0, 0.5, 1.0, -1.0)
        system = PiecewiseSystem(normal.X, normal.Y, Box(-0.01, 0.01, -0.01, 0.01, -0.01, 0.01))
        results = checks.check_system(system, (0.0, 0.0, 0.0), 0)
        for name, failed in (("X-fold involution", 24), ("Y-fold involution", 15)):
            row = _by_name(results, name)
            assert not row.passed and row.residual <= row.threshold
            assert row.detail == f"(failed flights: left-box {failed})"

    @pytest.mark.parametrize("flip,sign,delta,failing", [
        ("X", 1.0, 1.0, "X-fold involution"),
        ("X", -1.0, 1.0, "X-fold involution"),
        ("X", -1.0, -1.0, "X-fold non-return"),
        ("Y", 1.0, 1.0, "Y-fold non-return"),
        ("Y", -1.0, -1.0, "Y-fold involution"),
    ])
    def test_wrong_visibility_fails_a_numeric_row(self, monkeypatch, flip, sign, delta,
                                                  failing):
        # the two-fold's record carries one fold's second-derivative sign
        # flipped, so the whole closed-form route reports that fold with the
        # wrong visibility, the classification agrees with itself and only
        # the numeric rows can see it
        real = foldfold._two_fold_parameters

        def wrong(*args):
            p = real(*args)
            gamma, delta = (p.gamma, -p.delta) if flip == "X" else (-p.gamma, p.delta)
            return foldfold.NormalParameters(p.alpha, p.beta, gamma, delta)

        monkeypatch.setattr(foldfold, "_two_fold_parameters", wrong)
        results = checks.check_system(build_normal_form(0.3, 0.5, sign, delta), (0.0, 0.0, 0.0), 0)
        assert results[0].passed
        assert not _by_name(results, failing).passed


def _nan_trajectory(real):
    """``filippov_trajectory`` with every sample replaced by NaN."""

    def patched(system, p0, horizon, cfg=None):
        traj = real(system, p0, horizon, cfg)
        for seg in traj.segments:
            seg.points = np.full_like(seg.points, np.nan)
        return traj

    return patched


class TestNonFiniteResiduals:
    """A numeric primitive that returns NaN fails every row that reads it:
    ``max`` drops a NaN residual, so the rows fold residuals with
    ``_worst``, a non-finite residual never passes, and a non-finite
    return-map image is a failed flight, not an escape.  A primitive that
    raises ``IntegrationFailure`` raises out of no check: it fails the same
    rows, except those where a failed flight is an outcome, and each names
    the flight's status."""

    CHECKS = {  # group -> the rows of a small run
        "involutions": lambda: checks.check_involution_ground_truth(
            n_alpha=2, n_points=2, seed=0),
        "grid": lambda: checks.check_return_map_grid(n_alpha=2, n_beta=2, gammas=(1.0,)),
        "diabolo": lambda: checks.check_diabolo(
            n_draws=5, n_systems=2, seeds_per_system=5, seed=3),
        "sliding": lambda: checks.check_sliding_tangency(n_sims=1, seed=0),
        "invisible system": lambda: checks.check_system(
            build_normal_form(0.3, 0.5, 1.0, -1.0), (0.0, 0.0, 0.0), 0),
        "visible system": lambda: checks.check_system(
            build_normal_form(0.3, 0.5, -1.0, 1.0), (0.0, 0.0, 0.0), 0),
    }
    RETURN_MAP_READERS = {
        ("grid", "return-map numeric Jacobian"),
        ("diabolo", "diabolo sliding separation"),
        ("diabolo", "diabolo contracting cone"),
        ("invisible system", "return-map determinant"),
        ("invisible system", "return-map trace vs normal parameters"),
    }
    PATCHES = {  # primitive -> (NaN replacement given the real one, rows that read it)
        "fold_map_numeric": (
            lambda real: lambda system, side, q: (math.nan, math.nan),
            RETURN_MAP_READERS | {
                ("involutions", "fold-map ground truth"),
                ("involutions", "fold-map involutivity"),
                ("diabolo", "diabolo reversibility"),
                ("invisible system", "X-fold involution"),
                ("invisible system", "Y-fold involution"),
                ("visible system", "X-fold non-return"),
                ("visible system", "Y-fold non-return"),
            },
        ),
        "return_map_numeric": (
            lambda real: lambda system, q: (math.nan, math.nan),
            RETURN_MAP_READERS,
        ),
        "jacobian_numeric": (
            lambda real: lambda map_fn, q, h: np.full((2, 2), np.nan),
            {
                ("grid", "return-map numeric Jacobian"),
                ("invisible system", "return-map determinant"),
                ("invisible system", "return-map trace vs normal parameters"),
            },
        ),
        "filippov_trajectory": (
            _nan_trajectory,
            {("sliding", name) for name in (
                "sliding entry |z|", "sliding field vs normalized field",
                "sliding region membership", "sliding exits at visible folds")},
        ),
    }

    # Rows where a failed flight is an outcome, not a failure: a seed stopped
    # by one, and a visible fold's flight that does not come back.
    FAILED_FLIGHT_IS_OUTCOME = {
        ("diabolo", "diabolo sliding separation"),
        ("visible system", "X-fold non-return"),
        ("visible system", "Y-fold non-return"),
    }

    def _rows(self):
        return {(group, r.name): r for group, run in self.CHECKS.items() for r in run()}

    def test_rows_pass_on_the_real_primitives(self):
        rows = self._rows()
        assert all(r.passed for r in rows.values()), [r.row() for r in rows.values()]

    def _failing_rows(self, monkeypatch, primitive, fake, readers):
        """The rows of every check with ``primitive`` replaced by ``fake``;
        exactly ``readers`` fail."""
        # integrator.return_map_numeric calls the fold map through its module
        for module in (checks, integrator):
            monkeypatch.setattr(module, primitive, fake)
        rows = self._rows()
        assert readers <= set(rows)
        failed = {key for key, r in rows.items() if not r.passed}
        assert failed == readers, [rows[key].row() for key in failed ^ readers]
        for r in rows.values():
            if not math.isfinite(r.residual):
                assert r.detail.startswith("non-finite residual"), r.row()
        return [rows[key] for key in failed]

    @pytest.mark.parametrize("primitive", list(PATCHES))
    def test_nan_primitive_fails_its_readers(self, monkeypatch, primitive):
        make_fake, readers = self.PATCHES[primitive]
        self._failing_rows(monkeypatch, primitive, make_fake(getattr(integrator, primitive)),
                           readers)

    # filippov_trajectory ends a failed flight with its status and never raises.
    @pytest.mark.parametrize("primitive", [p for p in PATCHES if p != "filippov_trajectory"])
    def test_raising_primitive_fails_its_readers(self, monkeypatch, primitive):
        def time_out(*args):
            raise IntegrationFailure(FlightStatus.TIME_OUT)

        readers = self.PATCHES[primitive][1] - self.FAILED_FLIGHT_IS_OUTCOME
        for r in self._failing_rows(monkeypatch, primitive, time_out, readers):
            assert "time-out" in r.detail, r.row()

    def test_nan_image_is_a_failed_flight(self, monkeypatch):
        monkeypatch.setattr(checks, "return_map_numeric", lambda s, q: (math.nan, 0.0))
        results = checks.check_diabolo(n_draws=5, n_systems=2, seeds_per_system=10, seed=3)
        sep = _by_name(results, "diabolo sliding separation")
        assert not sep.passed and sep.residual == 20.0
        assert "0 escaped, 20 stopped by a failed flight" in sep.detail
        assert sep.detail.endswith("(failed flights: non-finite image 20)")

    def test_worst_keeps_nan_in_any_place(self):
        assert checks._worst(0.0, 2.0, 1.0) == 2.0
        for values in ((math.nan, 1.0), (1.0, math.nan), (0.0, 3.0, math.nan)):
            assert math.isnan(checks._worst(*values))

    def test_non_finite_residual_fails(self):
        for residual in (math.nan, math.inf):
            result = checks.CheckResult("row", True, residual, 1.0, "3 draws")
            assert not result.passed
            assert result.detail == "non-finite residual; 3 draws"
        assert checks.CheckResult("row", True, math.nan, 1.0).detail == "non-finite residual"


class TestSuites:
    """Every ``verify`` suite runs through its ``SUITES`` entry, which
    passes every sample size and seed, and returns its rows."""

    ROWS = {
        "involutions": ["fold-map ground truth", "fold-map involutivity",
                        "return-map determinant", "return-map numeric Jacobian"],
        "regions": ["saddle dichotomy", "eigenvector location table",
                    "region spectra sign table", "rescaling invariance",
                    "saddle moduli ratio = -1", "return-map atlas", "sliding atlas",
                    "parabolic transversality coefficients"],
        "diabolo": ["diabolo eigenvectors in crossing", "diabolo sliding separation",
                    "diabolo reversibility", "diabolo contracting cone"],
        "sliding": ["sliding entry |z|", "sliding field vs normalized field",
                    "sliding region membership", "sliding exits at visible folds"],
    }

    @pytest.mark.parametrize("name", list(checks.SUITES))
    def test_suite_passes_with_its_rows(self, name):
        results = checks.run_suites([name], scale=0.01, seed=0)
        assert [r.name for r in results] == self.ROWS[name]
        assert all(r.passed for r in results), [r.row() for r in results]


class TestAtlasMissingCells:
    """An atlas that misses a cell counts it as one more bad cell."""

    def test_return_map_atlas_missing_cell(self, monkeypatch):
        monkeypatch.setattr(checks, "_return_map_cell", lambda analysis: "NH")
        monkeypatch.setattr(checks, "_analytic_return_map_cell", lambda a, b, g: "NH")
        (row,) = checks.check_return_map_atlas(10)
        assert (row.passed, row.residual) == (False, 1.0)
        assert row.detail == "10x10 cells; observed cells ['NH']"

    def test_sliding_atlas_missing_cells(self, monkeypatch):
        boundary = checks.SlidingRegionTag.BIFURCATION_BOUNDARY
        monkeypatch.setattr(checks, "_analytic_sliding_tag", lambda a, b, g, d: "boundary")
        monkeypatch.setattr(checks, "sliding_region_class", lambda params: boundary)
        (row,) = checks.check_sliding_atlas(10)
        assert (row.passed, row.residual) == (False, 3.0)
        assert row.detail.count("missing cells for gamma=") == 3


class TestAtlasBoundaryFallback:
    """At resolution 61 some grid points fall on a classification boundary,
    where the library's label and the analytic oracle may differ.  The sweep
    excuses such a cell only when ``_cell_has_boundary`` finds a boundary
    through it; at resolutions 200 and 20 no grid point needs it."""

    def test_resolution_61(self, monkeypatch):
        excused = []
        real = checks._cell_has_boundary

        def recorded(*args):
            excused.append(real(*args))
            return excused[-1]

        monkeypatch.setattr(checks, "_cell_has_boundary", recorded)
        rows = checks.check_return_map_atlas(61) + checks.check_sliding_atlas(61)
        assert all(r.passed for r in rows), [r.row() for r in rows]
        assert excused == [True] * 28


class TestParabolicAgainstLibrary:
    """Criterion 7 compares its numeric coefficients with the closed form
    ``foldfold.parabolic_transversality`` reports, so a wrong coefficient
    there fails the row."""

    @pytest.mark.parametrize("mutant", [
        lambda a, b, g: (-2.0 * (a + b) * (a * b + g), 2.0 * a * (a + b) - g),
        lambda a, b, g: (-2.0 * (a + b) * (a * b - g), 2.0 * a * (a - b) - g),
    ])
    def test_wrong_coefficient_fails(self, monkeypatch, mutant):
        def wrong(params):
            d, t = mutant(params.alpha, params.beta, params.gamma)
            return foldfold.TransversalityCoefficients(D_coeff=d, T_coeff=t)

        monkeypatch.setattr(checks, "parabolic_transversality", wrong)
        (row,) = checks.check_parabolic_coefficients(n=10, seed=70)
        assert not row.passed
        assert row.residual > 1.0

    def test_reports_the_draws_it_compared(self, monkeypatch):
        # seed 18 skips one of its 5 draws (|D| or |T| < 1e-2)
        compared = []
        real = checks.parabolic_transversality

        def recording(params):
            compared.append(params)
            return real(params)

        monkeypatch.setattr(checks, "parabolic_transversality", recording)
        (row,) = checks.check_parabolic_coefficients(n=5, seed=18)
        assert row.passed and len(compared) == 4
        assert row.detail == "4 parameter draws, radius 0.001"

    def test_no_draw_compared_fails(self):
        (row,) = checks.check_parabolic_coefficients(n=0, seed=18)
        assert not row.passed
        assert row.detail == "0 parameter draws, radius 0.001"


class TestSettableValues:
    """Defaulted parameters of the module-level functions plus the
    ``IntegratorConfig`` fields: each is a value a caller can set.  A knob
    with one value in use is a module constant instead, so the count only
    grows when a second value is in use."""

    MODULES = ("algebra", "system", "sigma", "sliding", "foldfold", "integrator",
               "checks", "cli")

    def test_at_most_11(self):
        count = len(dataclasses.fields(integrator.IntegratorConfig))
        for short in self.MODULES:
            module = importlib.import_module(f"foldatlas.{short}")
            for fn in vars(module).values():
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    params = inspect.signature(fn).parameters.values()
                    count += sum(p.default is not inspect.Parameter.empty for p in params)
        assert count <= 11
