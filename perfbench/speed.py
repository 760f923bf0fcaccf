"""Machine speed, sampled between instances, to report times at a reference speed.

The benchmark runs on shared virtual machines whose speed changes by a
quarter and more, within a second as well as over minutes.  A
``SpeedMeter`` times a fixed pure-Python loop (integers, tuples, dicts and
``Fraction``s, the kinds of work eoexact does) before every instance and
after the last, with the garbage collector off so that the program's heap
does not enter it.  A time t measured around moment m is reported as

    t * REFERENCE_S / c(m)

where c(m) is the mean loop time of the samples just before and just after
m: the time the work would take on a machine that runs the loop in
``REFERENCE_S``.  The speed changes within a second, so only the samples
around an instance tell its speed.  The loop does not touch eoexact, so a
change to the program moves the reported times as it moves the raw ones.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.005     # the loop's time on the reference machine
LOOP_ROUNDS = 5000


def _loop() -> int:
    table: dict[tuple[int, int], int] = {}
    acc = Fraction(0)
    for i in range(LOOP_ROUNDS):
        key = (i % 31, i % 7)
        table[key] = table.get(key, 0) + i * i
        if i % 8 == 0:
            acc += Fraction(i % 5 + 1, i % 9 + 2)
    return len(table) + acc.denominator


class SpeedMeter:
    def __init__(self):
        self.moments: list[float] = []   # perf_counter at the middle of each sample
        self.seconds: list[float] = []

    def sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            _loop()
            t1 = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.moments.append((t0 + t1) / 2)
        self.seconds.append(t1 - t0)

    def factor(self, moment: float) -> float:
        """REFERENCE_S over the loop time sampled around `moment`."""
        i = bisect.bisect(self.moments, moment)
        return REFERENCE_S / statistics.fmean(self.seconds[max(0, i - 1):i + 1])

    def scaled(self, seconds: float, start: float) -> float:
        """`seconds` measured from `start` (perf_counter), at reference speed."""
        return seconds * self.factor(start + seconds / 2)
