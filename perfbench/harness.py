"""One workload in one fresh interpreter.

    python3 perfbench/harness.py --workload NAME --seed N --seconds S
        --trace 0|1 --spawned-at T [--setup-only] [--spans-out PATH]

``--spawned-at`` is the parent's ``time.perf_counter()`` just before it
started this process (CLOCK_MONOTONIC, shared by processes on Linux), so
``setup_s`` runs from interpreter start to the first timed item: imports,
seeded input generation and warm-up items.

Untraced (``--trace 0``): a closed loop of one client runs items for
``--seconds`` of wall time.  Item latency is the program's time for the item;
the oracle runs after it, outside the latency.

Traced (``--trace 1``): the first ``trace_rate * seconds`` items of the pool
run untraced and traced, in alternating blocks, so per-item counts repeat
exactly for a given seed and run length, and the ratio of the two passes is
the tracing overhead.

Every time is reported raw and multiplied by a speed factor from a
calibration loop timed between items, and just after set-up for the set-up
time (see README.md).

Prints one JSON object as the last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from array import array

import numpy as np

import tracing
from calibration import SETUP_CHUNKS, calibration_chunk, speed_of
from workloads import WORKLOADS


CAL_EVERY_S = 0.02  # item time between two calibration chunks
CAL_WINDOW = 5  # chunks around an item that give its local speed


class Pass:
    """Items run in one mode, with calibration chunks between them."""

    def __init__(self, calibrate=True):
        # Compact arrays, so that the latency record adds little to peak RSS
        # however many items a run completes.
        self.latencies = array("d")
        self.chunk_of_item = array("l")
        self.calibration = []
        self._since = float("inf") if calibrate else -float("inf")
        self.failed = 0

    def speed(self):
        return speed_of(self.calibration)

    def normalised_latencies(self):
        """Each latency times the speed of the chunks around that item."""
        half = CAL_WINDOW // 2
        out = []
        for lat, j in zip(self.latencies, self.chunk_of_item):
            lo = max(0, min(j - half, len(self.calibration) - CAL_WINDOW))
            out.append(lat * speed_of(self.calibration[lo:lo + CAL_WINDOW]))
        return out

    def run(self, wl, inputs, indices, problems, tracer=None):
        clock = time.perf_counter
        for i in indices:
            if self._since >= CAL_EVERY_S:
                self.calibration.append(calibration_chunk())
                self._since = 0.0
            inp = inputs[i % len(inputs)]
            if tracer is not None:
                tracer.item = i
            t0 = clock()
            try:
                out = wl.run(inp)
            except Exception as exc:  # a raising item is a counted failure
                out, problem = None, f"raised {type(exc).__name__}: {exc}"
            else:
                problem = None
            t1 = clock()
            if tracer is not None:
                tracer.item = -1
            self.latencies.append(t1 - t0)
            self.chunk_of_item.append(len(self.calibration) - 1)
            self._since += t1 - t0
            if problem is None:
                problem = wl.check(inp, out)
            if problem is not None:
                self.failed += 1
                if len(problems) < 5:
                    problems.append(f"item {i}: {problem}")


def timed_loop(wl, inputs, seconds, problems):
    """Closed loop of one client for ``seconds`` of wall time."""
    p = Pass()
    i = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        p.run(wl, inputs, [i], problems)
        i += 1
    return p


def traced_passes(wl, inputs, n, problems, blocks=4):
    """The first ``n`` items untraced and traced, alternating in blocks so
    that drift in machine speed falls on both passes alike."""
    plain, traced = Pass(), Pass()
    tracer = tracing.Tracer()
    unwrapped = []
    for b in range(blocks):
        idx = range(b * n // blocks, (b + 1) * n // blocks)
        plain.run(wl, inputs, idx, problems)
        tracer.install()
        try:
            unwrapped += tracer.unwrapped_bindings()
            traced.run(wl, inputs, idx, problems, tracer=tracer)
        finally:
            tracer.uninstall()
    return plain, traced, tracer, unwrapped


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload]
    inputs = wl.make_inputs(np.random.default_rng(args.seed))
    problems = []
    warm = Pass(calibrate=False)
    warm.run(wl, inputs, range(wl.warmup), problems)
    setup_s = time.perf_counter() - args.spawned_at
    result = {
        "setup_s_raw": setup_s,
        "setup_calibration": [calibration_chunk() for _ in range(SETUP_CHUNKS)],
        "warmup_failed": warm.failed,
        "problems": problems,
        "numpy": np.__version__,
    }

    if args.setup_only:
        pass
    elif args.trace == 0:
        p = timed_loop(wl, inputs, args.seconds, problems)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result.update(
            attempted=len(p.latencies),
            failed=p.failed,
            speed=p.speed(),
            peak_rss_mb=peak_rss_mb,
            latencies_raw=list(p.latencies),
            latencies=p.normalised_latencies(),
        )
    else:
        n = max(4, round(wl.trace_rate * args.seconds))
        plain, traced, tracer, unwrapped = traced_passes(wl, inputs, n, problems)
        top = tracer.top_level_counts()
        want = wl.expected_top_calls(n)
        mismatched = {k: (top.get(k, 0), v) for k, v in want.items() if top.get(k, 0) != v}
        speed = traced.speed()
        layers = tracer.layer_metrics(n, time_scale=speed)
        layers["trace.overhead_frac"] = (
            sum(traced.latencies) * speed / (sum(plain.latencies) * plain.speed()) - 1.0
        )
        layers = {k: {"value": v, "unit": tracing.LAYER_UNITS[k]} for k, v in layers.items()}
        if args.spans_out:
            tracer.write_spans(args.spans_out)
        result.update(
            attempted=2 * n,
            failed=plain.failed + traced.failed,
            speed=speed,
            trace_items=n,
            spans=len(tracer.names),
            unwrapped_bindings=unwrapped,
            call_count_mismatches=mismatched,
            layers=layers,
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
