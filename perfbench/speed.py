"""Machine-speed calibration for timings on a shared box.

On the 2-vCPU reference box the same pure-Python code runs anywhere from 1.0x
to 1.6x its best time, and the mix drifts from one minute to the next, with no
steal time visible inside the guest. A median over one run cannot remove a
drift that lasts longer than the run, so run-to-run spreads of raw rates reach
20-40%. The benchmark therefore times a fixed pure-Python loop after every
timed operation and reports times scaled to the speed at which that loop takes
``REFERENCE_S``: ``scaled = raw * REFERENCE_S / median(loop times of the
run)``. The loop is part of the benchmark, not of the package, so a change to
the package moves the scaled numbers exactly as it moves the raw ones. Raw
times are kept in the results next to the scaled ones.
"""

from __future__ import annotations

import statistics
import time

LOOPS = 150_000
# Loop time at the reference box's best speed (its fastest observed state).
REFERENCE_S = 0.0090


def loop_seconds() -> float:
    """Wall seconds of the fixed calibration loop."""
    start = time.perf_counter()
    total = 0
    for i in range(LOOPS):
        total += i * i
    return time.perf_counter() - start


class Speed:
    """Calibration samples of one run and the scale they give."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self, times: int = 3) -> None:
        self.samples.extend(loop_seconds() for _ in range(times))

    def scale(self) -> float:
        """Multiply a raw time by this to get the time at reference speed."""
        return REFERENCE_S / statistics.median(self.samples)
