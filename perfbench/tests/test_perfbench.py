"""Self-tests of the benchmark: tiny runs, oracles that can fail, tracing.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(workload, trace, cwd=ROOT, seconds="0.5"):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", seconds, "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_reports_every_metric(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }


def test_stripped_directory_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".out"))
    proc = run_bench("atlas-sweep", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# ---------------------------------------------------------------------------
# Oracles: each accepts the real output and rejects every corruption.


def first_output(name, index=0):
    wl = WORKLOADS[name]
    inp = wl.make_inputs(np.random.default_rng(3))[index]
    out = wl.run(inp)
    assert wl.check(inp, out) is None
    return wl, inp, out


def rejected(wl, inp, bad):
    """The oracle refuses ``bad``, and the harness counts it as failed."""

    class Corrupting:
        warmup = 0

        def run(self, _):
            return bad

        def check(self, i, o):
            return wl.check(i, o)

    p = harness.Pass()
    p.run(Corrupting(), [inp], [0], problems=[])
    return wl.check(inp, bad) is not None and p.failed == 1


def test_return_map_oracle_rejects_a_wrong_jacobian():
    wl, inp, (jac, matrix) = first_output("return-map-grid")
    bad = jac.copy()
    bad[0, 1] += 1e-3
    assert rejected(wl, inp, (bad, matrix))
    assert rejected(wl, inp, (jac, matrix + 1e-6))


def _segment(traj, mode, terminal=None):
    for n, seg in enumerate(traj.segments):
        if seg.mode.value == mode and (terminal is None or seg.terminal.value == terminal):
            return n
    raise AssertionError(f"no {mode} segment")


def test_stick_slip_oracle_rejects_each_corruption():
    wl, inp, traj = first_output("stick-slip-orbits")

    def corrupt(edit):
        bad = copy.deepcopy(traj)
        edit(bad)
        return bad

    def lift_sliding_sample(t):
        t.segments[_segment(t, "sliding")].points[1, 2] = 1e-6

    def leave_sliding_region(t):
        n = _segment(t, "sliding")
        t.segments[n].points[1, 0] = inp[0] + 0.1  # x > F: Yf < 0

    def exit_off_the_fold(t):
        t.segments[_segment(t, "sliding", "mode-switch")].points[-1, 0] -= 0.05

    def cross_to_wrong_side(t):
        t.segments[_segment(t, "flow-")].points[1, 2] = 1e-6

    def stop_early(t):
        t.status = "left-box"

    for edit in (lift_sliding_sample, leave_sliding_region, exit_off_the_fold,
                 cross_to_wrong_side, stop_early):
        assert rejected(wl, inp, corrupt(edit)), edit.__name__


def test_atlas_oracle_rejects_a_wrong_tag_and_class():
    wl, inp, text = first_output("atlas-sweep", index=0)  # invisible subtype
    assert inp[1] < 0 < inp[0]
    lines = text.splitlines()
    row = lines[1].split(",")  # alpha = beta = -3: deep inside one cell
    row_tag = row.copy()
    row_tag[4] = "RE1" if row[4] != "RE1" else "RE2"
    row_class = row.copy()
    row_class[6] = "nonhyperbolic-complex" if row[6] == "saddle" else "saddle"
    for bad_row in (row_tag, row_class):
        bad = "\n".join([lines[0], ",".join(bad_row)] + lines[2:]) + "\n"
        assert rejected(wl, inp, bad)
    assert rejected(wl, inp, "\n".join(lines[:-1]) + "\n")  # a row missing


def test_classify_oracle_rejects_wrong_parameters_region_and_kind():
    wl, inp, (answers, report) = first_output("classify-systems")
    scaled = dataclasses.replace(
        report, params=dataclasses.replace(report.params, alpha=report.params.alpha * 1.01)
    )
    assert rejected(wl, inp, (answers, scaled))
    other = next(t for t in type(report.region) if t is not report.region)
    assert rejected(wl, inp, (answers, dataclasses.replace(report, region=other)))
    kind, ttype, subtype = answers[1]
    flipped = "crossing" if kind != "crossing" else "stable-sliding"
    assert rejected(wl, inp, ([answers[0], (flipped, ttype, subtype)] + answers[2:], report))


# ---------------------------------------------------------------------------
# Tracing


def test_tracer_wraps_every_binding_and_restores_them():
    import foldatlas
    from foldatlas import cli, foldfold

    original = foldfold.return_map_analysis
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.unwrapped_bindings() == []
        assert cli.return_map_analysis is foldfold.return_map_analysis
        assert foldatlas.return_map_analysis is foldfold.return_map_analysis
        assert foldfold.return_map_analysis is not original
    finally:
        tracer.uninstall()
    assert cli.return_map_analysis is original and foldatlas.return_map_analysis is original


def test_self_time_subtracts_direct_children():
    t = tracing.Tracer()
    # span 0 covers [0, 10]; children 1 [1, 3] and 2 [4, 7]; 3 [5, 6] is a grandchild.
    for start, end, parent in ((0, 10, -1), (1, 3, 0), (4, 7, 0), (5, 6, 2)):
        t.starts.append(float(start))
        t.ends.append(float(end))
        t.parents.append(parent)
    dur, self_t = t.self_times()
    assert list(dur) == [10, 2, 3, 1]
    assert list(self_t) == [5, 2, 2, 1]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_call_counts_match_items(name):
    wl = WORKLOADS[name]
    inputs = wl.make_inputs(np.random.default_rng(5))
    n = 4
    plain, traced, tracer, unwrapped = harness.traced_passes(wl, inputs, n, problems=[])
    assert unwrapped == []
    assert plain.failed == traced.failed == 0
    top = tracer.top_level_counts()
    for fn, count in wl.expected_top_calls(n).items():
        assert top.get(fn, 0) == count, fn
    assert set(tracer.items) <= set(range(n))
