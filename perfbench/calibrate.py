"""Correction of measured times for the drifting speed of the machine.

On a machine whose cores are shared with other tenants, the same
computation can take 30% longer from one second to the next, and CPU
time drifts with wall time.  The benchmark therefore samples the speed
while it works: a timer signal interrupts the work about every 6 ms
and runs a fixed reference chunk, so about a fifth of the time goes to
the reference.  Times are reported in nominal seconds: the measured
seconds, without the reference chunks, divided by the slowdown, which
is the mean time of the chunks run during the same stretch over their
nominal time.  A change to patcorr moves the work and not the
reference, so it shows in full in the corrected times.
"""

from __future__ import annotations

import signal
from contextlib import contextmanager
from math import gcd
from time import perf_counter

# a reference chunk takes about this long on an idle 2 GHz Xeon core;
# it only sets the scale of a nominal second
NOMINAL_CHUNK_S = 0.0015
# seconds of work between two chunks, per second of chunk
WORK_PER_CHUNK = 4.0
# fewest chunks that correct one stretch of work
LOCAL_CHUNKS = 8


def reference_chunk() -> int:
    """Fixed pure-Python integer work in the style of the library's inner loops."""
    xs = list(range(1, 65))
    total = 0
    for k in range(128):
        ys = [3 * a - k * b for a, b in zip(xs, reversed(xs))]
        g = 0
        for y in ys:
            if y:
                g = gcd(g, y)
        total += sum(ys) // g
    return total


class SpeedSampler:
    """While entered, runs reference chunks from a timer signal between the work.

    paused_s sums the time spent in chunks, so a stretch of work is
    timed as its elapsed time minus the growth of paused_s.
    """

    def __init__(self) -> None:
        self.chunk_s: list[float] = []
        self.paused_s = 0.0
        self._armed = False
        self._previous = None

    def _arm(self, delay: float) -> None:
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, delay)

    def _disarm(self) -> None:
        self._armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)

    def _tick(self, signum, frame) -> None:
        if not self._armed:
            return
        start = perf_counter()
        try:
            reference_chunk()
            self.chunk_s.append(perf_counter() - start)
        except RecursionError:
            pass  # the signal landed at the bottom of a deep recursion: no sample
        finally:
            spent = perf_counter() - start
            self.paused_s += spent
            if self._armed:
                signal.setitimer(signal.ITIMER_REAL, spent * WORK_PER_CHUNK)

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._arm(NOMINAL_CHUNK_S * WORK_PER_CHUNK)
        return self

    def __exit__(self, *exc_info) -> None:
        self._disarm()
        signal.signal(signal.SIGALRM, self._previous)
        # a stretch too short for the timer still gets its samples
        while len(self.chunk_s) < LOCAL_CHUNKS:
            start = perf_counter()
            reference_chunk()
            self.chunk_s.append(perf_counter() - start)

    @contextmanager
    def suspended(self):
        """No chunks while worker processes do the work: they would share the cores."""
        armed = self._armed
        if armed:
            self._disarm()
        try:
            yield
        finally:
            if armed:
                self._arm(NOMINAL_CHUNK_S * WORK_PER_CHUNK)

    def slowdown(self, lo: int = 0, hi: int | None = None) -> float:
        """Mean time of chunks lo to hi over the nominal time; 2 means half speed.

        The range widens on both sides to at least LOCAL_CHUNKS chunks.
        """
        count = len(self.chunk_s)
        hi = count if hi is None else hi
        while hi - lo < LOCAL_CHUNKS and (lo > 0 or hi < count):
            lo, hi = max(0, lo - 1), min(count, hi + 1)
        window = self.chunk_s[lo:hi]
        return sum(window) / len(window) / NOMINAL_CHUNK_S
