"""The host-speed reference that the end-to-end times are scaled by.

On a host shared with other tenants, the same code runs up to ~1.8x
slower for seconds to minutes at a time, and two runs of one program can
differ by more than any regression bound.  A run therefore also times a
fixed piece of work that does not depend on the program (a pure-Python
loop and a numpy sort, the two kinds of work the package does) many
times: between in-process calls, and in short bursts before and after
each fresh process and traffic slice.  Each timed sample of the program
is put on a reference host before the run takes its fastest or median
sample:

    reported = measured * NOMINAL_S / local reference

The local reference is the fastest reference time within ``WINDOW_S``
of the sample (and the nearest one on either side).  So a call made
while the host was slow is scaled down, and one made while it was fast
is left nearly as it was.  The measured figures are printed beside the
reported ones.  The benchmark's own files define the reference, so a
change to the program cannot move it.
"""

from __future__ import annotations

import bisect
import math
import time

import numpy

#: Fastest reference time on the tuning host (Intel Xeon, 2 vCPUs,
#: Python 3.11, numpy 2.4), so reported times read close to what a
#: quiet spell there measures.
NOMINAL_S = 0.0035
#: How far either side of a sample the reference is looked up.
WINDOW_S = 2.0
#: Least time between two reference samples taken between in-process
#: calls, so that sampling costs a few percent of the run.
EVERY_S = 0.1

_DATA = numpy.random.default_rng(0).random(200_000)


def reference_call() -> None:
    """The fixed work: a pure-Python loop and a numpy sort."""
    total = 0
    for value in range(60_000):
        total += value
    numpy.sort(_DATA)


class HostSpeed:
    """The reference samples of one run, in the order they were taken."""

    def __init__(self) -> None:
        #: ``perf_counter`` midpoint and duration of each sample.
        self.times: list[float] = []
        self.seconds: list[float] = []
        self._last = -math.inf

    def sample(self, count: int = 1) -> None:
        """Time the reference ``count`` times in a row."""
        for _ in range(count):
            started = time.perf_counter()
            reference_call()
            self._last = time.perf_counter()
            self.times.append((started + self._last) / 2)
            self.seconds.append(self._last - started)

    def sample_due(self) -> None:
        """Time the reference once, unless it ran less than ``EVERY_S`` ago."""
        if time.perf_counter() - self._last >= EVERY_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """The factor for a value measured between ``start`` and ``end``."""
        low = bisect.bisect_left(self.times, start - WINDOW_S)
        high = bisect.bisect_right(self.times, end + WINDOW_S)
        nearby = self.seconds[max(low - 1, 0):high + 1]
        return NOMINAL_S / min(nearby)
