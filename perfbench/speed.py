"""A probe of the host's speed, so that timings do not move with it.

On a shared host the same deterministic operation can run 1.5 to 2 times
slower for seconds or minutes at a time, depending on what else the host
runs.  A fixed piece of pure-Python work, timed every few tens of
milliseconds between the benchmark's operations, slows down by the same
factor.  Each operation's time is scaled by ``REFERENCE_S`` over the
probe's median duration around it: the result is the time the operation
would take on a host where the probe takes exactly ``REFERENCE_S``.
The probe does not touch the library, so a change to the library moves
the scaled times exactly as it moves the raw ones.
"""

import bisect
import statistics
import time
from dataclasses import dataclass

REFERENCE_S = 1e-3  # the probe takes 0.6 to 1.1 ms on a 2.1 GHz Xeon
EVERY_S = 0.025
WINDOW_S = 0.25


@dataclass(frozen=True)
class _Cell:
    a: int
    b: tuple


def _work(n=400):
    # dict copies, tuple consing and frozen dataclasses, like a machine step
    d, k, x = {}, (), _Cell(0, ())
    for i in range(n):
        d = {**d, i & 31: i}
        k = (i,) + k[:20]
        x = _Cell(x.a + d.get(i & 15, 0), k)
    return x


class Speed:
    """Probe readings of one phase: when each was taken and how long it ran."""

    def __init__(self):
        self.at = []
        self.took = []
        self.last = float("-inf")

    def probe(self):
        t0 = time.perf_counter()
        _work()
        t1 = time.perf_counter()
        self.at.append((t0 + t1) / 2)
        self.took.append(t1 - t0)
        self.last = t1

    def tick(self):
        """Probe if the last reading is more than ``EVERY_S`` old."""
        if time.perf_counter() - self.last >= EVERY_S:
            self.probe()

    def scaled(self, t0, t1):
        """The interval ``[t0, t1]`` in seconds at the reference speed."""
        lo = bisect.bisect_left(self.at, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.at, t1 + WINDOW_S)
        near = self.took[lo:hi]
        if not near:
            i = min(bisect.bisect_left(self.at, t0), len(self.at) - 1)
            near = [self.took[i]]
        return (t1 - t0) * REFERENCE_S / statistics.median(near)

    def median_s(self):
        return statistics.median(self.took)
