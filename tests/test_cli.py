import hashlib
import json

import pytest

from foldatlas.cli import SweepSpec, main, run_sweep
from foldatlas.foldfold import FixedPointClass, make_parameters, return_map_analysis
from foldatlas.sigma import FoldFoldSubtype
from foldatlas.sliding import sliding_region_class
from foldatlas.system import build_normal_form, serialize_system


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


class TestClassify:
    def test_t_singularity_report(self, elliptic_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = main(["classify", elliptic_file, "--point", "0,0,0", "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["classification"]["kind"] == "tangency"
        ff = report["foldfold"]
        assert ff["normal_parameters"]["alpha"] == -2.0
        assert ff["region"] == "RE1"
        assert ff["claim"] == 1
        assert ff["verdict"]["kind"] == "stable"
        assert ff["return_map"]["trace"] == pytest.approx(6.0)

    def test_parabolic_unstable(self, parabolic_file, tmp_path):
        out = tmp_path / "report.json"
        rc = main(["classify", parabolic_file, "--point", "0,0,0", "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        ff = report["foldfold"]
        assert ff["verdict"]["kind"] == "unstable"
        assert ff["verdict"]["reason"]["which"] == "T"
        assert ff["region"] == "RP1"

    def test_regular_point_report(self, elliptic_file, tmp_path):
        out = tmp_path / "report.json"
        rc = main(["classify", elliptic_file, "--point", "1,-1,0", "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["classification"]["kind"] == "crossing"
        assert "foldfold" not in report
        assert report["verdict"]["kind"] == "stable"

    def test_missing_file_exit_2(self, capsys):
        assert main(["classify", "/nonexistent.json", "--point", "0,0,0"]) == 2

    def test_bad_point_exit_2(self, elliptic_file):
        assert main(["classify", elliptic_file, "--point", "1,2"]) == 2

    def test_off_surface_exit_3(self, elliptic_file):
        assert main(["classify", elliptic_file, "--point", "0,0,0.5"]) == 3

    def test_malformed_document_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert main(["classify", str(bad), "--point", "0,0,0"]) == 2


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

    def test_bad_range_exit_2(self):
        assert main(["sweep", "--alpha", "3:1:5", "--beta", "-1:1:5", "--gamma", "1"]) == 2
        assert main(["sweep", "--alpha", "-1:1:1", "--beta", "-1:1:5", "--gamma", "1"]) == 2

    @pytest.mark.parametrize("gamma,delta", [(1, -1), (-1, 1), (-1, -1), (1, 1)])
    def test_columns_match_closed_form(self, tmp_path, gamma, delta):
        out = tmp_path / "grid.csv"
        assert main(["sweep", "--alpha", "-3:3:9", "--beta", "-3:3:9", "--gamma",
                     str(gamma), "--delta", str(delta), "--out", str(out)]) == 0
        rows = [l.split(",") for l in out.read_text().strip().splitlines()[1:]]
        assert len(rows) == 81
        for row in rows:
            params = make_parameters(float(row[0]), float(row[1]), gamma, delta)
            assert row[4] == sliding_region_class(params).value
            fp_class, tau = "", ""
            if params.subtype is FoldFoldSubtype.INVISIBLE:
                analysis = return_map_analysis(params)
                fp_class = analysis.fixed_point_class.value
                if analysis.fixed_point_class is FixedPointClass.NONHYPERBOLIC_COMPLEX:
                    tau = repr(analysis.tau)
            assert (row[6], row[9]) == (fp_class, tau)


    def test_label_columns_pinned(self):
        # SHA-256 over every line, header included, of the four 101x101
        # atlases, keeping the first nine fields (all but tau, which follows
        # the last bits of the return-map trace).
        digest = hashlib.sha256()
        for gamma, delta in [(1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, 1.0)]:
            text = run_sweep(SweepSpec((-3.0, 3.0, 101), (-3.0, 3.0, 101), gamma, delta))
            for line in text.splitlines():
                digest.update((",".join(line.split(",")[:9]) + "\n").encode())
        assert digest.hexdigest() == (
            "45626ffc14b386d636e288afb47fd511f10b6418032ace0860f647a27a0032d4"
        )


class TestSimulate:
    def test_trajectory_csv(self, tmp_path):
        sys_path = tmp_path / "const.json"
        sys_path.write_text(
            json.dumps(
                {
                    "name": "const",
                    "box": [-1, 1, -1, 1, -1, 1],
                    "X": {"cx": [[[0, 0, 0], 1.0]], "cy": [], "cz": [[[0, 0, 0], -1.0]]},
                    "Y": {"cx": [], "cy": [[[0, 0, 0], 1.0]], "cz": [[[0, 0, 0], 1.0]]},
                }
            )
        )
        out = tmp_path / "traj.csv"
        rc = main(["simulate", str(sys_path), "--p0", "0,0,0.5", "--T", "5",
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "segment,mode,terminal,t,x,y,z"
        modes = {line.split(",")[1] for line in lines[1:] if not line.startswith("#")}
        assert "flow+" in modes and "sliding" in modes


class TestVerify:
    def test_none_suite(self, capsys):
        assert main(["verify", "--suite", "none"]) == 0

    def test_small_suite(self, capsys):
        rc = main(["verify", "--suite", "sliding", "--scale", "0.12", "--seed", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in out

    def test_system_mode_pass(self, elliptic_file, capsys):
        rc = main(["verify", elliptic_file, "--suite", "none"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "two-fold classification" in out

    def test_corrupted_system_fails(self, tmp_path, capsys):
        # flip the normal component of Y: its fold turns visible, the Y-fold
        # flights cannot return, and verification exits nonzero
        from foldatlas.algebra import VectorField3

        system = build_normal_form(-2.0, -1.0, 1.0, -1.0)
        bad_y = VectorField3(system.Y.cx, system.Y.cy, -system.Y.cz)
        corrupted = system.__class__(system.X, bad_y, system.box, "bad")
        path = tmp_path / "bad.json"
        path.write_text(serialize_system(corrupted))
        rc = main(["verify", str(path), "--suite", "none"])
        assert rc == 4
        assert "FAIL" in capsys.readouterr().out
