import hashlib
import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import foldatlas
import pinned_digests
from foldatlas import checks, sigma
from foldatlas.algebra import Poly3, VectorField3
from foldatlas.cli import SweepSpec, _jsonable, main, run_sweep
from foldatlas.errors import (
    BoxRangeError, EmptyBoxError, IntegrationFailure, MalformedDocumentError,
)
from foldatlas.foldfold import (
    FixedPointClass,
    make_parameters,
    report_from_params,
    return_map_analysis,
    sliding_region_class,
    surface_point_report,
)
from foldatlas.integrator import FlightStatus, filippov_trajectory
from foldatlas.sigma import FoldFoldSubtype
from foldatlas.system import (
    Box, PiecewiseSystem, build_normal_form, load_system, serialize_system,
)


@pytest.fixture
def elliptic_file(tmp_path):
    path = tmp_path / "elliptic.json"
    path.write_text(serialize_system(build_normal_form(-2.0, -1.0, 1.0, -1.0)))
    return str(path)


@pytest.fixture
def parabolic_file(tmp_path):
    path = tmp_path / "parabolic.json"
    path.write_text(serialize_system(build_normal_form(-1.0, 1.5, -1.0, -1.0)))
    return str(path)


@pytest.fixture
def square_file(tmp_path):
    """Xf = x**2 - 1: ``Poly3.eval`` raises where x**2 passes the float range."""
    path = tmp_path / "square.json"
    path.write_text(json.dumps({
        "name": "square", "box": [-1, 1, -1, 1, -1, 1],
        "X": {"cx": [[[0, 0, 0], 1.0]], "cy": [], "cz": [[[2, 0, 0], 1.0], [[0, 0, 0], -1.0]]},
        "Y": {"cx": [[[0, 0, 0], 1.0]], "cy": [], "cz": [[[0, 0, 0], 1.0]]},
    }))
    return str(path)


@pytest.fixture
def steep_file(tmp_path):
    """Xf = 1e300 * x on a box of +-1e20 in x: inf at x = 1e200 through a
    product, not a power."""
    path = tmp_path / "steep.json"
    path.write_text(json.dumps({
        "name": "steep", "box": [-1e20, 1e20, -1, 1, -1, 1],
        "X": {"cx": [[[0, 0, 0], 1.0]], "cy": [], "cz": [[[1, 0, 0], 1e300]]},
        "Y": {"cx": [], "cy": [], "cz": [[[0, 0, 0], 1.0]]},
    }))
    return str(path)


_OVERFLOW_MESSAGE = "error: a field value at this input exceeds the float range\n"


def _classify(path, point, tmp_path):
    """``classify`` JSON report of ``point`` (text "x,y,z") on a system file,
    checked to carry ``surface_point_report``'s verdict for that point."""
    out = tmp_path / "report.json"
    assert main(["classify", path, "--point", point, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    with open(path, encoding="utf-8") as fh:
        system = load_system(fh.read())
    p = tuple(float(v) for v in point.split(","))
    verdict = report["foldfold"]["verdict"] if "foldfold" in report else report["verdict"]
    assert verdict == _jsonable(surface_point_report(system, p).verdict)
    return report


def _field(cx, cy, cz):
    return VectorField3(
        *(c if isinstance(c, Poly3) else Poly3.constant(c) for c in (cx, cy, cz))
    )


_X, _Y = Poly3.variable("x"), Poly3.variable("y")
_UNIT_Z = _field(0.0, 0.0, 1.0)

# Point kinds not covered by the fixtures above:
# name -> (system, point, classification kind, tangency type, fold-fold subtype).
VERDICT_CASES = {
    "stable-sliding": (
        build_normal_form(-2.0, -1.0, 1.0, -1.0), "1,1,0", "stable-sliding", None, None
    ),
    "unstable-sliding": (
        build_normal_form(-2.0, -1.0, 1.0, -1.0), "-1,-1,0", "unstable-sliding", None, None
    ),
    "fold-regular": (
        build_normal_form(-2.0, -1.0, 1.0, -1.0), "0.5,0,0", "tangency", "fold-regular", None
    ),
    "regular-fold": (
        build_normal_form(-2.0, -1.0, 1.0, -1.0), "0,0.5,0", "tangency", "regular-fold", None
    ),
    "cusp-regular": (
        PiecewiseSystem(_field(1.0, 0.0, _Y + _X * _X), _UNIT_Z), "0,0,0", "tangency",
        "cusp-regular", None,
    ),
    "degenerate": (
        PiecewiseSystem(_field(0.0, 1.0, _Y * _Y), _UNIT_Z), "0,0,0", "tangency",
        "degenerate", None,
    ),
    "visible-visible": (
        build_normal_form(0.8, -0.6, -1.0, 1.0), "0,0,0", "tangency", "fold-fold",
        "visible-visible",
    ),
    "visible-invisible": (
        build_normal_form(0.5, 0.3, 1.0, 1.0), "0,0,0", "tangency", "fold-fold",
        "visible-invisible",
    ),
}


class TestClassify:
    def test_t_singularity_report(self, elliptic_file, tmp_path, capsys):
        report = _classify(elliptic_file, "0,0,0", tmp_path)
        assert report["classification"]["kind"] == "tangency"
        assert report["tangency"]["subtype"] == "invisible"
        ff = report["foldfold"]
        assert ff["normal_parameters"]["alpha"] == -2.0
        assert ff["region"] == "RE1"
        assert ff["claim"] == 1
        assert ff["verdict"]["kind"] == "stable"
        assert ff["return_map"]["trace"] == pytest.approx(6.0)
        assert list(ff["return_map"])[:2] == ["matrix", "trace"]
        assert ff["return_map"]["matrix"] == [[7.0, 4.0], [-2.0, -1.0]]

    def test_parabolic_unstable(self, parabolic_file, tmp_path):
        report = _classify(parabolic_file, "0,0,0", tmp_path)
        assert report["tangency"]["subtype"] == "invisible-visible"
        ff = report["foldfold"]
        assert ff["verdict"]["kind"] == "unstable"
        assert ff["verdict"]["reason"]["which"] == "T"
        assert ff["region"] == "RP1"

    def test_complex_t_singularity_reports_each_part_once(self, tmp_path):
        # trace 0: the return map has eigenvalues +-i, so tau = pi/2
        path = tmp_path / "complex.json"
        path.write_text(serialize_system(build_normal_form(1.0, 1.0, 2.0, -1.0)))
        report = _classify(str(path), "0,0,0", tmp_path)
        ff = report["foldfold"]
        assert set(ff["verdict"]) == {"kind", "reason", "class_descriptor", "witness"}
        assert ff["return_map"]["fixed_point_class"] == "nonhyperbolic-complex"
        assert ff["moduli"]["tau"] == pytest.approx(math.pi / 2.0)
        assert json.dumps(report).count('"moduli"') == 1

    def test_tangency_curves(self, elliptic_file, tmp_path):
        # the elliptic normal form's fold lines are the axes y = 0 and x = 0
        out = tmp_path / "report.json"
        assert main(["classify", elliptic_file, "--point", "0,0,0", "--curves",
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        with open(elliptic_file, encoding="utf-8") as fh:
            expected = sigma.tangency_curves(load_system(fh.read()))
        assert set(report["tangency_curves"]) == {"X", "Y"}
        for side, axis in (("X", 1), ("Y", 0)):
            (curve,) = report["tangency_curves"][side]
            (traced,) = expected[side]
            points = [list(p) for p in traced.points]
            assert curve == {"points": points, "closed": False, "complete": True}
            assert max(abs(p[axis]) for p in curve["points"]) <= 1e-10

    def test_hot_normal_form_traces_both_fold_lines(self, ci_normal_form, tmp_path):
        path = tmp_path / "normal-form.json"
        path.write_text(serialize_system(ci_normal_form))
        out = tmp_path / "report.json"
        assert main(["classify", str(path), "--point", "0,0,0", "--curves",
                     "--out", str(out)]) == 0
        curves = json.loads(out.read_text())["tangency_curves"]
        assert set(curves) == {"X", "Y"} and all(curves.values())

    def test_regular_point_report(self, elliptic_file, tmp_path):
        report = _classify(elliptic_file, "1,-1,0", tmp_path)
        assert report["classification"]["kind"] == "crossing"
        assert "foldfold" not in report
        assert report["verdict"]["kind"] == "stable"

    @pytest.mark.parametrize("case", sorted(VERDICT_CASES))
    def test_verdict_matches_stability_verdict(self, case, tmp_path):
        system, point, kind, ttype, subtype = VERDICT_CASES[case]
        path = tmp_path / "system.json"
        path.write_text(serialize_system(system))
        report = _classify(str(path), point, tmp_path)
        assert report["classification"]["kind"] == kind
        tangency = report.get("tangency", {})
        assert (tangency.get("ttype"), tangency.get("subtype")) == (ttype, subtype)
        assert ("foldfold" in report) == (ttype == "fold-fold")

    def test_two_fold_classified_in_one_pass(self, tmp_path, call_counts, ci_normal_form):
        # ten evaluations, none repeated, as in test_foldfold's twin
        path = tmp_path / "normal-form.json"
        path.write_text(serialize_system(ci_normal_form))
        counts = call_counts(sigma, "classify_point", "_refine_tangency", "_gradient_det")
        call_counts(Poly3, "eval")
        out = tmp_path / "report.json"
        assert main(["classify", str(path), "--point", "0,0,0", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["tangency"]["ttype"] == "fold-fold"
        assert counts["classify_point"] == 1
        assert counts["_refine_tangency"] == 1
        assert counts["_gradient_det"] == 1
        assert counts["eval"] == 10

    def test_missing_file_exit_2(self, capsys):
        assert main(["classify", "/nonexistent.json", "--point", "0,0,0"]) == 2

    def test_bad_point_exit_2(self, elliptic_file):
        assert main(["classify", elliptic_file, "--point", "1,2"]) == 2

    @pytest.mark.parametrize("option,value", [("--point", "nan,0,0"), ("--point", "0,0,nan"),
                                              ("--point", "inf,0,0"), ("--tol", "nan")])
    def test_non_finite_input_exit_2(self, elliptic_file, option, value, capsys):
        args = {"--point": "0,0,0", option: value}
        assert main(["classify", elliptic_file, *(t for kv in args.items() for t in kv)]) == 2
        assert f"{option} must be finite" in capsys.readouterr().err

    def test_negative_tol_exit_2(self, elliptic_file, capsys):
        # a negative band is an input error, not a verdict on the point
        assert main(["classify", elliptic_file, "--point", "0,0,0", "--tol", "-1"]) == 2
        assert "--tol must be >= 0" in capsys.readouterr().err

    def test_off_surface_exit_3(self, elliptic_file):
        assert main(["classify", elliptic_file, "--point", "0,0,0.5"]) == 3

    def test_malformed_document_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert main(["classify", str(bad), "--point", "0,0,0"]) == 2

    @pytest.mark.parametrize("terms", [
        [[[0, 0, 0], 10**400]],  # an integer past the float range
        [[[0, 0, 0], 1e308], [[0, 0, 0], 1e308]],  # finite terms whose sum is not
    ])
    def test_coefficient_beyond_float_range_exit_2(self, tmp_path, terms, capsys):
        doc = json.loads(serialize_system(build_normal_form(-2.0, -1.0, 1.0, -1.0)))
        doc["X"]["cx"] = terms
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        assert main(["classify", str(path), "--point", "0,0,0"]) == 2
        assert capsys.readouterr() == ("", "error: X.cx: non-finite coefficient\n")

    def test_overflowing_point_exit_3(self, square_file, capsys):
        assert main(["classify", square_file, "--point", "1e200,0,0"]) == 3
        assert capsys.readouterr() == ("", _OVERFLOW_MESSAGE)

    def test_overflowing_product_exit_3(self, steep_file, capsys):
        # the same exit and message as Xf = x**2 - 1 there, and no report
        assert main(["classify", steep_file, "--point", "1e200,0,0"]) == 3
        assert capsys.readouterr() == ("", _OVERFLOW_MESSAGE)

    def test_term_spellings_classify_as_their_canonical_twin(self, ci_normal_form, tmp_path,
                                                            capsys):
        # a boolean exponent (true for 1) and an integer coefficient: the
        # same bytes at a two-fold, a fold-regular, a sliding and a crossing
        # point
        doc = json.loads(serialize_system(ci_normal_form))
        assert doc["X"]["cz"] == [[[0, 1, 0], -1.0]]
        canonical, twin = tmp_path / "canonical.json", tmp_path / "twin.json"
        canonical.write_text(json.dumps(doc))
        doc["X"]["cz"] = [[[0, True, 0], -1]]
        twin.write_text(json.dumps(doc))
        assert "[0, true, 0], -1]" in twin.read_text()
        for point in ("0,0,0", "0.3,0,0", "0.5,0.5,0", "0.5,-0.5,0"):
            outs = []
            for path in (canonical, twin):
                assert main(["classify", str(path), "--point", point]) == 0
                outs.append(capsys.readouterr().out)
            assert outs[0] == outs[1]

    def test_powers_past_the_float_range_exit_0(self, tmp_path):
        # x**8 overflows to inf on the grids of validate's zero search and of
        # the fold-line tracer: no zero and no seed there.
        x8 = Poly3({(8, 0, 0): 1.0})
        system = PiecewiseSystem(_field(1.0, x8, _Y + x8), _field(1.0, 0.0, _X),
                                 Box(-1e40, 1e40, -1e40, 1e40, -1.0, 1.0))
        path = tmp_path / "huge-box.json"
        path.write_text(serialize_system(system))
        out = tmp_path / "report.json"
        assert main(["classify", str(path), "--point", "1,1,0", "--curves",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["tangency_curves"]["Y"]

    def test_box_past_the_float_range_exit_2(self, elliptic_file, tmp_path, capsys):
        # Each side is 2e308 long, inf as a float: the fold-line tracer's
        # step would be inf and its step count NaN.  A Box built in code may
        # still be that wide; a document or a --box may not.
        box = [-1e308, 1e308, -1e308, 1e308, -1.0, 1.0]
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({
            "name": "wide", "box": box,
            "X": {"cx": [[[0, 0, 0], 1.0]], "cy": [],
                  "cz": [[[2, 0, 0], 1.0], [[0, 0, 0], -1.0]]},
            "Y": {"cx": [[[0, 0, 0], 1.0]], "cy": [], "cz": [[[0, 1, 0], 1.0]]},
        }))
        message = "error: box sides must be shorter than the float range\n"
        assert main(["classify", str(path), "--point", "1,0,0", "--curves"]) == 2
        assert capsys.readouterr() == ("", message)
        with pytest.raises(BoxRangeError):
            load_system(path.read_text())
        box_arg = ",".join(map(repr, box))
        out = tmp_path / "traj.csv"
        assert main(["simulate", elliptic_file, "--p0", "0,0,0.5", f"--box={box_arg}",
                     "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", message)
        assert not out.exists()

    @pytest.mark.parametrize("bad,message", [
        ("box", "box must be six finite numbers"),
        ("key", "X: unknown component keys ['cZ']; expected cx, cy, cz"),
    ])
    def test_null_box_entry_or_unknown_key_exit_2(self, tmp_path, bad, message, capsys):
        doc = json.loads(serialize_system(build_normal_form(-2.0, -1.0, 1.0, -1.0)))
        if bad == "box":
            doc["box"][0] = None
        else:
            doc["X"]["cZ"] = doc["X"].pop("cz")  # a typo that used to mean cz = 0
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["classify", str(path), "--point", "0,0,0"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def _pinned_systems(rng):
    """16 serialized normal forms, four per (sign gamma, delta) pair, each
    with random terms of degree <= 3 on Y that vanish to the orders
    ``build_normal_form`` requires, and four surface points per system: the
    two-fold at the origin, two random points and one on the X fold line."""
    min_order = {"cx": 1, "cy": 1, "cz": 2}
    for k in range(16):
        sign_gamma, delta = ((1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, 1.0))[k % 4]
        alpha, beta = rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)
        gamma = sign_gamma * rng.uniform(0.2, 3.0)
        hot = {}
        for key, low in min_order.items():
            hot[key] = []
            for _ in range(rng.randint(1, 3)):
                deg = rng.randint(low, 3)
                i = rng.randint(0, deg)
                j = rng.randint(0, deg - i)
                hot[key].append([[i, j, deg - i - j], rng.uniform(-0.3, 0.3)])
        text = serialize_system(build_normal_form(alpha, beta, gamma, delta, hot=hot))
        points = [(0.0, 0.0, 0.0),
                  (rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5), 0.0),
                  (rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5), 0.0),
                  (rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 0.5), 0.0, 0.0)]
        yield text, points


class TestClassifyPinned:
    def test_classify_bytes_pinned(self, tmp_path, capsys):
        # SHA-256 over the 64 classify reports of the seeded systems, in order.
        digest = hashlib.sha256()
        path = tmp_path / "system.json"
        for text, points in _pinned_systems(random.Random(34)):
            path.write_text(text)
            for point in points:
                assert main(["classify", str(path), "--point", ",".join(map(repr, point))]) == 0
                digest.update(capsys.readouterr().out.encode())
        assert digest.hexdigest() == (
            "b883798d27c4cfa573198cfeba2ef2742f9886a52da6730d9713cd33f0efb405"
        ), digest.hexdigest()


class TestVerifyPinned:
    def test_verify_bytes_pinned(self, tmp_path, capsys):
        # SHA-256 over the stdout of every suite at two seeds, then of
        # verify <file> on the normal form of each two-fold subtype.
        digest = hashlib.sha256()
        for seed in ("0", "1"):
            assert main(["verify", "--suite", "all", "--scale", "0.2", "--seed", seed]) == 0
            digest.update(capsys.readouterr().out.encode())
        path = tmp_path / "subtype.json"
        for gamma, delta in ((1.0, -1.0), (1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0)):
            path.write_text(serialize_system(build_normal_form(0.3, 0.5, gamma, delta)))
            assert main(["verify", str(path), "--suite", "none"]) == 0
            digest.update(capsys.readouterr().out.encode())
        assert digest.hexdigest() == (
            "d510f5922337487395236374e83a7eee24d8b1894ab860ebdf6b2e2be0e5d924"
        ), digest.hexdigest()


class TestSweep:
    def test_smoke_grid(self, tmp_path):
        out = tmp_path / "grid.csv"
        rc = main(
            ["sweep", "--alpha", "-1:1:2", "--beta", "-1:1:2", "--gamma", "1",
             "--delta", "-1", "--out", str(out)]
        )
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("alpha,beta,gamma")
        assert len(lines) == 1 + 4

    def test_deterministic(self, tmp_path):
        args = ["sweep", "--alpha", "-2:2:7", "--beta", "-2:2:7", "--gamma", "1",
                "--delta", "-1"]
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_text() == out2.read_text()

    def test_columns_and_codes(self, tmp_path):
        out = tmp_path / "grid.csv"
        main(["sweep", "--alpha", "-3:-2:2", "--beta", "-3:-2:2", "--gamma", "1",
              "--delta", "-1", "--out", str(out)])
        rows = [l.split(",") for l in out.read_text().strip().splitlines()[1:]]
        for row in rows:
            assert row[4] == "RE1"
            assert row[5] == "1"
            assert row[6] == "saddle"
            assert row[7] == "stable"

    def test_unwritable_out_exit_2(self, tmp_path, capsys):
        # --out names a directory, which cannot be opened for writing
        rc = main(["sweep", "--alpha", "-1:1:2", "--beta", "-1:1:2", "--gamma", "1",
                   "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {tmp_path}: ")

    def test_bad_range_exit_2(self):
        assert main(["sweep", "--alpha", "3:1:5", "--beta", "-1:1:5", "--gamma", "1"]) == 2
        assert main(["sweep", "--alpha", "-1:1:1", "--beta", "-1:1:5", "--gamma", "1"]) == 2

    @pytest.mark.parametrize("axis", ["--alpha", "--beta"])
    def test_range_wider_than_float_range_exit_2(self, axis, capsys):
        # each bound is finite, but max - min overflows to inf
        ranges = {"--alpha": "-1:1:2", "--beta": "-1:1:2", axis: "-1e308:1e308:3"}
        rc = main(["sweep", *(t for item in ranges.items() for t in item), "--gamma", "1"])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err.startswith(f"error: {axis}: ") and "max - min" in captured.err

    @pytest.mark.parametrize("axis", ["alpha", "beta"])
    @pytest.mark.parametrize("bounds", [(-1e308, 1e308), (-math.inf, 1.0), (0.0, math.nan)])
    def test_spec_rejects_a_non_finite_width(self, axis, bounds):
        ranges = {"alpha": (-1.0, 1.0, 2), "beta": (-1.0, 1.0, 2), axis: (*bounds, 3)}
        with pytest.raises(MalformedDocumentError, match=f"^{axis} range: "):
            SweepSpec(**ranges, gamma=1.0, delta=-1.0)

    def test_spec_accepts_the_widest_finite_range(self):
        spec = SweepSpec((-8e307, 8e307, 3), (-1.0, 1.0, 2), -1.0, 1.0)  # visible-visible
        alphas = [float(line.split(",")[0]) for line in run_sweep(spec).splitlines()[1::2]]
        assert alphas == [-8e307, 0.0, 8e307]

    # |gamma| = 1, where 2*beta/gamma is exact, and two non-unit sizes of each sign
    @pytest.mark.parametrize("gamma,delta", [(1, -1), (-1, 1), (-1, -1), (1, 1)] + [
        (g, d) for g in (0.37, -0.37, 2.9, -2.9) for d in (-1, 1)])
    def test_columns_match_closed_form(self, tmp_path, gamma, delta):
        out = tmp_path / "grid.csv"
        assert main(["sweep", "--alpha", "-3:3:41", "--beta", "-3:3:41", "--gamma",
                     str(gamma), "--delta", str(delta), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "alpha,beta,gamma,delta,region,claim,fixed_point_class,verdict,reason,tau"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 41 * 41 and {len(row) for row in rows} == {10}
        for row in rows:
            # rows are computed on plain floats; this record is validated afresh
            params = make_parameters(float(row[0]), float(row[1]), gamma, delta)
            assert row[4] == sliding_region_class(params).value
            fp_class, tau = "", ""
            if params.subtype is FoldFoldSubtype.INVISIBLE:
                analysis = return_map_analysis(params)
                fp_class = analysis.fixed_point_class.value
                if analysis.fixed_point_class is FixedPointClass.NONHYPERBOLIC_COMPLEX:
                    tau = repr(analysis.tau)
            assert (row[6], row[9]) == (fp_class, tau)
            # a fixed-point class exactly at invisible two-folds, tau in (0, pi)
            assert bool(row[6]) == (gamma > 0 and delta == -1), row
            assert not row[9] or 0.0 < float(row[9]) < math.pi, row
            report = report_from_params(params)
            verdict = report.verdict
            reason = verdict.reason.kind.value if verdict.reason else ""
            assert row[5] == str(report.region.claim.value)
            assert (row[7], row[8]) == (verdict.kind.value, reason)
            assert row[7] in ("stable", "unstable", "boundary-degenerate"), row

    def test_label_columns_pinned(self):
        for pairs, expected in pinned_digests.SWEEP_LABEL_DIGESTS:
            assert pinned_digests.sweep_label_digest(pairs) == expected, pairs


class TestSimulate:
    @pytest.fixture
    def const_file(self, tmp_path):
        path = tmp_path / "const.json"
        path.write_text(
            json.dumps(
                {
                    "name": "const",
                    "box": [-1, 1, -1, 1, -1, 1],
                    "X": {"cx": [[[0, 0, 0], 1.0]], "cy": [], "cz": [[[0, 0, 0], -1.0]]},
                    "Y": {"cx": [], "cy": [[[0, 0, 0], 1.0]], "cz": [[[0, 0, 0], 1.0]]},
                }
            )
        )
        return str(path)

    @pytest.mark.parametrize("system_file,p0,horizon,modes", [
        ("const_file", "0,0,0.5", "5", {"flow+", "sliding"}),  # fall, then slide
        ("elliptic_file", "0.1,0.2,0.5", "0.5", {"flow+"}),  # free flight
        ("elliptic_file", "0.3,0.3,0", "10", {"sliding"}),  # into the two-fold
        ("elliptic_file", "-0.5,-0.5,0", "-1", {"sliding"}),  # negative horizon
    ])
    def test_trajectory_csv(self, request, tmp_path, system_file, p0, horizon, modes):
        # Every numeric cell parses with float() to the bits of the sample.
        path = request.getfixturevalue(system_file)
        out = tmp_path / "traj.csv"
        assert main(["simulate", path, "--p0", p0, "--T", horizon, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "segment,mode,terminal,t,x,y,z"
        rows = [line.split(",") for line in lines[1:-1]]
        assert {row[1] for row in rows} == modes
        with open(path, encoding="utf-8") as fh:
            system = load_system(fh.read())
        traj = filippov_trajectory(
            system, tuple(float(v) for v in p0.split(",")), float(horizon)
        )
        expected = [
            [str(i), seg.mode.value, seg.terminal.value, t.hex(), *(v.hex() for v in p)]
            for i, seg in enumerate(traj.segments)
            for t, p in zip(seg.times.tolist(), seg.points.tolist())
        ]
        assert [row[:3] + [float(v).hex() for v in row[3:]] for row in rows] == expected
        assert lines[-1] == f"# status={traj.status} total_time={traj.total_time!r}"

    def test_power_past_the_float_range_leaves_box(self, tmp_path):
        # X = (x**2, 0, -1): from x = 1e150 a stage of the first step takes
        # x*x past the float range to inf, the step's weighted sums make x
        # NaN, and the flight leaves its box there with y and z finite
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps({
            "name": "overflow", "box": [-10, 10, -10, 10, -10, 10],
            "X": {"cx": [[[2, 0, 0], 1.0]], "cy": [], "cz": [[[0, 0, 0], -1.0]]},
            "Y": {"cx": [[[0, 0, 0], 1.0]], "cy": [], "cz": [[[0, 0, 0], 1.0]]},
        }))
        out = tmp_path / "traj.csv"
        box = "-1e300,1e300,-1e300,1e300,-1e300,1e300"
        args = ["simulate", str(path), "--p0", "1e150,0,1e100", "--box", box, "--out", str(out)]
        assert main(args) == 0
        lines = out.read_text().splitlines()
        assert lines[-2] == "0,flow+,left-box,0.0001,nan,0.0,1e+100"
        assert lines[-1] == "# status=left-box total_time=0.0001"

    def test_constant_fall_crosses_the_plane(self, tmp_path):
        # X = Y = (1, 0.5, -1): every weighted sum of a step is bound once and
        # no stage reads a coordinate.  The fall from z = 0.5 meets the plane
        # at t = 0.5 at (0.5, 0.25), and crosses it into flow-.
        constant = {"cx": [[[0, 0, 0], 1.0]], "cy": [[[0, 0, 0], 0.5]],
                    "cz": [[[0, 0, 0], -1.0]]}
        path = tmp_path / "constant.json"
        path.write_text(json.dumps({"name": "constant", "box": [-10, 10, -10, 10, -10, 10],
                                    "X": constant, "Y": constant}))
        out = tmp_path / "traj.csv"
        assert main(["simulate", str(path), "--p0", "0,0,0.5", "--T", "1", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[-1].startswith("# status=time-out ")
        rows = [line.split(",") for line in lines[1:-1]]
        last = max(i for i, row in enumerate(rows) if row[1] == "flow+")
        t, x, y, z = map(float, rows[last][3:])
        assert abs(t - 0.5) <= 1e-12 and abs(x - 0.5) <= 1e-12
        assert abs(y - 0.25) <= 1e-12 and abs(z) <= 1e-12
        assert rows[last + 1][1] == "flow-"

    @pytest.mark.parametrize("option,value", [("--T", "inf"), ("--T", "nan"),
                                              ("--p0", "0,nan,0.5")])
    def test_non_finite_input_exit_2(self, elliptic_file, option, value, capsys):
        args = {"--p0": "0,0,0.5", "--T": "1", option: value}
        assert main(["simulate", elliptic_file, *(t for kv in args.items() for t in kv)]) == 2
        assert f"{option} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("box,message", [
        ("1,-1,-1,1,-1,1", "box has no volume"),
        ("0,0,0,0,0,0", "box has no volume"),
        ("-1,1,-1,1,0.5,1", "box does not contain a slice of {z=0} with area"),
    ])
    def test_unusable_box_exit_2(self, const_file, tmp_path, box, message, capsys):
        # the same EmptyBoxError as the box of a system document
        out = tmp_path / "traj.csv"
        rc = main(["simulate", const_file, "--p0", "0,0,0.5", "--box", box, "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()
        with open(const_file, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["box"] = [float(v) for v in box.split(",")]
        with pytest.raises(EmptyBoxError, match=re.escape(message)):
            load_system(json.dumps(doc))

    def test_overflowing_start_exit_3(self, square_file, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        box = "-1e300,1e300,-1e300,1e300,-1e300,1e300"
        args = ["simulate", square_file, "--p0", "1e200,0,0", "--box", box, "--out", str(out)]
        assert main(args) == 3
        assert capsys.readouterr() == ("", _OVERFLOW_MESSAGE)
        assert not out.exists()

    @pytest.mark.parametrize("p0,box", [("5,0,0.5", None), ("0,0,0.5", "1,2,-1,1,-1,1")])
    def test_start_outside_box_exit_3(self, const_file, tmp_path, p0, box, capsys):
        out = tmp_path / "traj.csv"
        args = ["simulate", const_file, "--p0", p0, "--out", str(out)]
        assert main(args + (["--box", box] if box else [])) == 3
        assert "lies outside its box" in capsys.readouterr().err
        assert not out.exists()


class TestVerify:
    def test_none_suite(self, capsys):
        assert main(["verify", "--suite", "none"]) == 0

    @pytest.mark.parametrize("scale", ["nan", "inf", "0", "-1", "1e308"])
    def test_non_finite_scale_exit_2(self, scale, capsys):
        # 1e308 is finite, but 20000 * 1e308 samples is not; no suite runs
        assert main(["verify", "--suite", "regions", "--scale", scale]) == 2
        message = {
            "0": "error: --scale must be > 0\n",
            "-1": "error: --scale must be > 0\n",
            "1e308": "error: --scale 1e+308 gives non-finite sample counts\n",
        }.get(scale, "error: --scale must be finite\n")
        assert capsys.readouterr().err == message

    def test_negative_seed_exit_2(self, capsys):
        assert main(["verify", "--suite", "regions", "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert err == "error: --seed must be >= 0\n"

    def test_overflowing_point_exit_3(self, square_file, steep_file, capsys):
        # an overflowing power and an overflowing product: one exit and
        # message, as ``classify`` gives, and no rows
        for path in (square_file, steep_file):
            assert main(["verify", path, "--point", "1e200,0,0", "--suite", "none"]) == 3
            assert capsys.readouterr() == ("", _OVERFLOW_MESSAGE)

    def test_small_suite(self, capsys):
        rc = main(["verify", "--suite", "sliding", "--scale", "0.12", "--seed", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in out

    def test_failed_fold_map_fails_its_rows(self, monkeypatch, capsys):
        # a failed flight of criterion 4 is counted in both of its rows, not
        # raised out of verify
        def time_out(system, side, q):
            raise IntegrationFailure(FlightStatus.TIME_OUT)

        monkeypatch.setattr(checks, "fold_map_numeric", time_out)
        assert main(["verify", "--suite", "involutions", "--scale", "0.01"]) == 4
        rows = capsys.readouterr().out.splitlines()
        for name in ("fold-map ground truth", "fold-map involutivity"):
            (row,) = [r for r in rows if r.startswith(f"FAIL  {name}: ")]
            assert row.endswith(" (failed flights: time-out 20)")

    def test_system_mode_pass(self, elliptic_file, capsys):
        rc = main(["verify", elliptic_file, "--suite", "none"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "two-fold classification" in out

    def test_system_mode_with_suite(self, elliptic_file, capsys):
        # the system rows, then the rows of the named suite
        rc = main(["verify", elliptic_file, "--suite", "involutions", "--scale", "0.01"])
        names = [line.split(": ")[0] for line in capsys.readouterr().out.splitlines()]
        assert rc == 0
        assert names == ["PASS  " + n for n in (
            "two-fold classification", "X-fold involution", "Y-fold involution",
            "return-map determinant", "return-map trace vs normal parameters",
            "fold-map ground truth", "fold-map involutivity", "return-map determinant",
            "return-map numeric Jacobian")]

    def test_out_csv(self, elliptic_file, tmp_path, capsys):
        out = tmp_path / "verify.csv"
        assert main(["verify", elliptic_file, "--suite", "none", "--out", str(out)]) == 0
        rows = capsys.readouterr().out.splitlines()
        lines = out.read_text().splitlines()
        assert lines[0] == "name,passed,residual,threshold,detail"
        assert len(lines) == len(rows) + 1
        for row, line in zip(rows, lines[1:]):
            name, passed, residual, threshold, _ = line.split(",", 4)
            assert row.startswith(f"PASS  {name}: ") and passed == "1"
            assert math.isfinite(float(residual)) and math.isfinite(float(threshold))

    def test_system_mode_classifies_once(self, tmp_path, call_counts, ci_normal_form,
                                         capsys):
        path = tmp_path / "normal-form.json"
        path.write_text(serialize_system(ci_normal_form))
        counts = call_counts(sigma, "classify_point", "_refine_tangency")
        assert main(["verify", str(path), "--suite", "none"]) == 0
        assert "PASS  return-map trace vs normal parameters" in capsys.readouterr().out
        assert counts == {"classify_point": 1, "_refine_tangency": 1}

    @pytest.mark.parametrize("point,detail", [
        ("0.5,0.5,0", "point is not in the tangency band"),
        ("0.3,0,0", "fold-regular"),
        ("0,0,0.5", "point (0.0, 0.0, 0.5) is not on the switching plane"),
    ])
    def test_system_mode_names_a_non_two_fold(self, elliptic_file, point, detail, capsys):
        assert main(["verify", elliptic_file, "--point", point, "--suite", "none"]) == 4
        (line,) = capsys.readouterr().out.splitlines()
        assert line.startswith("FAIL  two-fold classification") and line.endswith(detail)

    # (gamma, delta) of the four two-fold subtypes of the normal form
    SUBTYPES = [(1.0, -1.0), (1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0)]

    @pytest.mark.parametrize("gamma,delta", SUBTYPES)
    def test_every_subtype_passes(self, tmp_path, gamma, delta, capsys):
        path = tmp_path / "normal-form.json"
        path.write_text(serialize_system(build_normal_form(0.3, 0.5, gamma, delta)))
        assert main(["verify", str(path), "--suite", "none"]) == 0
        assert "FAIL" not in capsys.readouterr().out

    @pytest.mark.parametrize("flip", "XY")
    @pytest.mark.parametrize("gamma,delta", SUBTYPES)
    def test_wrong_visibility_fails(self, tmp_path, monkeypatch, gamma, delta, flip, capsys):
        # the program reports one fold with the wrong visibility; the system
        # is valid, so verification must exit 4 on it
        real = sigma.subtype_from_signs
        signs = {"X": (-1.0, 1.0), "Y": (1.0, -1.0)}[flip]
        monkeypatch.setattr(sigma, "subtype_from_signs",
                            lambda x2, y2: real(signs[0] * x2, signs[1] * y2))
        path = tmp_path / "normal-form.json"
        path.write_text(serialize_system(build_normal_form(0.3, 0.5, gamma, delta)))
        assert main(["verify", str(path), "--suite", "none"]) == 4
        assert "FAIL" in capsys.readouterr().out


class TestStartUp:
    """Only ``verify`` loads ``checks``, and with it numpy; ``classify`` and
    ``sweep`` run on plain floats.  No command imports a package other than
    numpy."""

    def test_classify_and_sweep_load_no_numpy(self, elliptic_file, tmp_path):
        out = str(tmp_path / "out")
        runs = [
            ["classify", elliptic_file, "--point", p, "--out", out]
            for p in ("0,0,0", "1,1,0", "1,-1,0")
        ] + [
            ["classify", elliptic_file, "--point", "0,0,0", "--curves", "--out", out],
            ["sweep", "--alpha=-3:3:9", "--beta=-3:3:9", "--gamma", "1", "--out", out],
            ["sweep", "--alpha=-3:3:9", "--beta=-3:3:9", "--gamma=-1", "--out", out],
        ]
        script = (
            "import json, sys\n"
            "from foldatlas.cli import main\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert main(argv) == 0, argv\n"
            "loaded = {'numpy', 'foldatlas.checks'} & set(sys.modules)\n"
            "assert not loaded, loaded\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(foldatlas.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", script, json.dumps(runs)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_every_command_imports_only_numpy_past_the_standard_library(
        self, ci_normal_form, tmp_path
    ):
        # Each subcommand runs as `python -m foldatlas.cli`, which reaches the
        # module's __main__ line.  Beyond the standard library it may import
        # numpy and foldatlas, and what a bare interpreter of this
        # environment loads (site hooks of installed packages).
        path = tmp_path / "normal-form.json"
        path.write_text(serialize_system(ci_normal_form))
        system = str(path)
        runs = [
            # a two-fold, a fold-regular, a sliding and a crossing point
            ["classify", system, "--point", p]
            for p in ("0,0,0", "0.3,0,0", "0.5,0.5,0", "0.5,-0.5,0")
        ] + [
            ["classify", system, "--point", "0,0,0", "--curves"],
            ["sweep", "--alpha=-1:1:3", "--beta=-1:1:3", "--gamma", "1"],
            ["simulate", system, "--p0", "0.1,0.2,0.5", "--T", "0.5"],
            ["simulate", system, "--p0", "0.1,0.2,0.5", "--T=-0.5"],
            ["verify", system, "--suite", "none"],
            ["verify", "--suite", "all", "--scale", "0.1"],
        ]
        env = dict(os.environ, PYTHONPATH=str(Path(foldatlas.__file__).parents[1]))
        # -v reports a module once its import succeeded, not a failed attempt
        imported = re.compile(r"import '([\w.]+)' # ")

        def top_level_imports(*args):
            proc = subprocess.run([sys.executable, "-v", *args], env=env,
                                  capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, (args, proc.stderr[-2000:])
            return {m.group(1).split(".")[0]
                    for m in map(imported.match, proc.stderr.splitlines()) if m}

        allowed = (set(sys.stdlib_module_names) | {"numpy", "foldatlas"}
                   | top_level_imports("-c", "pass"))
        for argv in runs:
            loaded = top_level_imports("-m", "foldatlas.cli", *argv)
            assert "foldatlas" in loaded and not loaded - allowed, (argv, loaded - allowed)

    def test_verify_reads_its_suites_when_run(self, capsys):
        assert main(["verify", "--suite", "regions", "--scale", "0.2"]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        listed = re.search(r"--suite SUITE one of (.*?) --seed", text).group(1)
        assert listed.split(", ") == ["all", "none", *checks.SUITES]
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "bogus"])
        assert exc.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err
