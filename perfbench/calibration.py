"""Machine-speed calibration shared by ``run.py`` and ``harness.py``.

A fixed pure-Python loop is timed next to the work it calibrates.  On the
shared host this benchmark was built on, the speed of the whole machine
drifts by up to 2x over tens of seconds.  The drift slows this loop and the
program alike, so times scaled by ``speed_of`` stay steady (see README.md,
"Speed normalisation").
"""

import time

CAL_ITERS = 6000
CAL_REF_S = 1.5e-3  # the loop's time on the reference machine
SETUP_CHUNKS = 10  # chunks timed just before a spawn and just after set-up


def calibration_chunk():
    t0 = time.perf_counter()
    acc = 0.0
    slots = {}
    for i in range(CAL_ITERS):
        acc += (i * 0.5) ** 2 / (1.0 + i)
        slots[i & 255] = acc
    return time.perf_counter() - t0


def speed_of(chunks):
    """Reference seconds per measured second over these chunks."""
    return CAL_REF_S * len(chunks) / sum(chunks)
