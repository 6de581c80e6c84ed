"""foldatlas benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each run starts fresh interpreters
(``harness.py``) for one workload, with BLAS thread counts pinned to 1,
``TOOL_THREADS`` unset and ``src`` on ``PYTHONPATH``.  With ``--trace 0`` it
starts ``SETUP_PROBES`` set-up-only interpreters and one measuring
interpreter and prints the end-to-end metrics; with ``--trace 1`` it starts
one traced interpreter and prints the per-layer metrics.  The last line of
standard output is the JSON result; the line before it, prefixed with '# ',
holds provenance and sample counts, which are also written, with the
spans of a traced run, under ``perfbench/.out/``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import SETUP_CHUNKS, calibration_chunk, speed_of

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"
WORKLOAD_NAMES = ("return-map-grid", "stick-slip-orbits", "atlas-sweep", "classify-systems")
SETUP_PROBES = 8
CHILD_TIMEOUT_S = 150
PIN_THREADS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env.pop("TOOL_THREADS", None)
    for key in PIN_THREADS:
        env[key] = "1"
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(args, extra=()):
    cmd = [
        sys.executable, str(HERE / "harness.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    before = [calibration_chunk() for _ in range(SETUP_CHUNKS)]
    t_spawn = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd + ["--spawned-at", repr(t_spawn), *extra],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"harness timed out after {exc.timeout} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"harness exited with {proc.returncode}:\n{proc.stderr.strip()}")
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise BenchError(f"harness printed no result:\n{proc.stderr.strip()}") from exc
    # Set-up time, scaled by the machine speed just before and just after it.
    result["setup_s"] = result["setup_s_raw"] * speed_of(before + result["setup_calibration"])
    return result


def source_lines():
    return sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((SRC / "foldatlas").glob("*.py"))
    )


def git_commit():
    """Commit of the checkout from .git files, or 'unknown' outside git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args, numpy_version):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "commit": git_commit(),
        "src_lines": source_lines(),
    }


def quantile_ms(values, q):
    """Nearest-rank quantile of seconds, in milliseconds."""
    ordered = sorted(values)
    k = min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.5) - 1))
    return ordered[k] * 1e3


def end_to_end(args, problems):
    setups, raw_setups = [], []
    for _ in range(SETUP_PROBES):
        probe = spawn(args, ["--setup-only"])
        setups.append(probe["setup_s"])
        raw_setups.append(probe["setup_s_raw"])
        problems += probe["problems"]
    run = spawn(args)
    setups.append(run["setup_s"])
    raw_setups.append(run["setup_s_raw"])
    problems += run["problems"]
    lat = run["latencies"]
    if not lat:
        raise BenchError("no item completed within the run")
    raw = run["latencies_raw"]
    metrics = {
        "setup_s": statistics.median(setups),
        "items_per_s": len(lat) / sum(lat),
        "item_p50_ms": quantile_ms(lat, 0.5),
        "item_p90_ms": quantile_ms(lat, 0.9),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    units = END_TO_END_UNITS
    details = {
        "samples": {"item_latency": len(lat), "setup": len(setups)},
        "failed_frac": run["failed"] / len(lat),
        "speed": run["speed"],
        "raw": {
            "setup_s": statistics.median(raw_setups),
            "items_per_s": len(raw) / sum(raw),
            "item_p50_ms": quantile_ms(raw, 0.5),
            "item_p90_ms": quantile_ms(raw, 0.9),
        },
        "setup_samples_s": setups,
    }
    return run, metrics, units, details


def per_layer(args, problems):
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz"
    run = spawn(args, ["--spans-out", str(spans)])
    problems += run["problems"]
    if run["unwrapped_bindings"]:
        problems.append(f"unwrapped bindings: {run['unwrapped_bindings']}")
    if run["call_count_mismatches"]:
        problems.append(f"traced call counts != item counts: {run['call_count_mismatches']}")
    metrics = {k: v["value"] for k, v in run["layers"].items()}
    units = {k: v["unit"] for k, v in run["layers"].items()}
    details = {
        "samples": {"trace_items": run["trace_items"], "spans": run["spans"]},
        "speed": run["speed"],
        "failed_frac": run["failed"] / run["attempted"],
        "spans_file": str(spans.relative_to(ROOT)),
    }
    return run, metrics, units, details


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the
    # running harness before this process exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    if not (SRC / "foldatlas" / "__init__.py").is_file():
        print(f"error: no foldatlas sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    problems = []
    try:
        measure = per_layer if args.trace else end_to_end
        run, metrics, units, details = measure(args, problems)
        details["provenance"] = provenance(args, run["numpy"])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in problems:
        print(f"problem: {line}", file=sys.stderr)
    failed = run["failed"] + run["warmup_failed"]
    result = {
        "correct": failed == 0 and not problems,
        "attempted": run["attempted"],
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    details["problems"] = problems
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{tag}.json").write_text(
        json.dumps({"result": result, **details}, indent=2) + "\n", encoding="utf-8"
    )
    print("# " + json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
