"""Scale measured times to one reference speed of the machine.

On the machine this benchmark was built on, each CPU runs at one of two
speeds about 1.7x apart, switching within a second, and the share of time
it spends slow changes from one minute to the next with the load of the
host (README, "Two machine speeds").  So a raw time measures the host's
load as much as the program.

A fixed reference loop, `Fraction` arithmetic that does not touch cantorq,
is timed at short intervals in the same process and on the same CPU as the
timed work.  The mean loop time over a stretch of the run tracks the mean
slowdown of that stretch, whatever share of it was slow, so

    scaled time = measured time * REFERENCE_S / mean loop time

reads in seconds at the speed where the loop takes REFERENCE_S, which is
about the build machine's fast speed.  A change to the program moves the
scaled time as it moves the measured one; the loop does not change with it.
"""

from __future__ import annotations

import time
from fractions import Fraction

# about the loop's time at the build machine's fast speed (README)
REFERENCE_S = 0.0031
SAMPLE_EVERY_S = 0.1


def loop_s() -> float:
    """Time one run of the reference loop."""
    start = time.perf_counter()
    acc = Fraction(0)
    for k in range(1, 1200):
        acc += Fraction(1, k)
    return time.perf_counter() - start


def scaled(measured_s: float, mean_loop_s: float) -> float:
    return measured_s * REFERENCE_S / mean_loop_s


class Sampler:
    """Times the reference loop when `tick` finds SAMPLE_EVERY_S passed since
    the last sample, and always on `tick(force=True)`."""

    def __init__(self):
        self.samples: list[float] = []
        self.last = float("-inf")

    def tick(self, force: bool = False) -> None:
        if force or time.perf_counter() - self.last >= SAMPLE_EVERY_S:
            self.samples.append(loop_s())
            self.last = time.perf_counter()
