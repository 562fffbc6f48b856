"""How fast the machine runs Python, sampled while a repetition runs.

Other work on the host slows this machine by up to 2x, in phases that last
from a second to over a minute, so raw times from two runs of the same code
differ by more than any useful bound.  A calibration slice is a fixed piece
of pure-Python work of the kind the package does (int arithmetic, gcd, dict
stores); the probe times one slice at the start of the timed loop, then one
between curves every PROBE_EVERY_NS, and one at the end.  The time between two
probes is a segment, and every time measured inside a segment is scaled by
REFERENCE_SLICE_S over the mean of its two slices: the scaled times are those
of a machine on which a slice takes REFERENCE_SLICE_S.  The set-up is scaled
the same way, by the median of SETUP_SLICES slices just before it and of as
many just after.  A slow phase slows the slices and the workload alike, so
the scaled times hold still while the raw ones swing.

A slice allocates nothing the garbage collector tracks, so the package's heap
cannot change its cost; the repetition checks that the package started no
thread, the one other way it could.  Any change to the package therefore
shows in full in the scaled times.
"""

from __future__ import annotations

import math
import statistics
import time

# A slice takes about this long on a 2-CPU x86_64 host (Python 3.11) when
# nothing else loads it; scaled times read as on that machine.
REFERENCE_SLICE_S = 0.001
SLICE_ITERATIONS = 3000
PROBE_EVERY_NS = 50_000_000
SETUP_SLICES = 5

_TABLE: dict[int, int] = {}


def slice_s() -> float:
    """Time one calibration slice."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1, SLICE_ITERATIONS):
        x = (i * 1_000_003) ** 2 % 998_244_353
        acc += math.gcd(x, i) + (x >> 3)
        _TABLE[i & 255] = acc
    return time.perf_counter() - t0


def setup_factor(before_s: float, after_s: float) -> float:
    """Scale factor for the set-up, from median_slice_s() taken just before
    and just after it."""
    return 2 * REFERENCE_SLICE_S / (before_s + after_s)


def median_slice_s() -> float:
    return statistics.median(slice_s() for _ in range(SETUP_SLICES))


class Probe:
    """Takes calibration slices during the timed loop and scales what the
    loop measured by the segment it fell in."""

    def __init__(self) -> None:
        self.slices: list[float] = []
        self.segment_ns: list[int] = []  # raw time between slice j and j+1
        self._segment_start = 0
        self._next = 0

    def start(self) -> None:
        self._take()

    def tick(self) -> None:
        """Between two curves: take a slice if PROBE_EVERY_NS have passed."""
        if time.perf_counter_ns() >= self._next:
            self._take()

    def stop(self) -> None:
        self._take()

    def _take(self) -> None:
        now = time.perf_counter_ns()
        if self.slices:
            self.segment_ns.append(now - self._segment_start)
        self.slices.append(slice_s())
        self._segment_start = time.perf_counter_ns()
        self._next = self._segment_start + PROBE_EVERY_NS

    @property
    def segment(self) -> int:
        """Index of the segment running now."""
        return len(self.slices) - 1

    def factor(self, segment: int) -> float:
        return 2 * REFERENCE_SLICE_S / (self.slices[segment] + self.slices[segment + 1])

    def loop_s(self, scaled: bool) -> float:
        """The loop's time without the slices, scaled segment by segment."""
        if not scaled:
            return sum(self.segment_ns) / 1e9
        return sum(ns * self.factor(j) for j, ns in enumerate(self.segment_ns)) / 1e9
