"""Host speed: a fixed unit of interpreter work, timed while a run goes on.

The reference box is a shared 2-vCPU guest whose speed drifts by up to 2x
for a second to minutes at a time, from other tenants; user CPU time
drifts with it, so neither wall nor CPU time of the program can average the
drift away.  `probe` times a fixed piece of pure-Python work (tuple-keyed
dict BFS, list sorting, `Fraction` sums: the kinds of work qbgraph does),
and `Sampler` runs it every `INTERVAL_S` from a timer signal inside each
worker, so a run records how fast the host was throughout.  `Speed.adjust`
turns a measured interval into reference seconds: the interval, less the
time the probes themselves used, times the mean of `REFERENCE_PROBE_S` over
the probe times around it.

A reference second is a second on a host where `probe` takes
`REFERENCE_PROBE_S`; on a steady host, adjusted and raw times differ by a
constant factor.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from collections import deque
from fractions import Fraction

REFERENCE_PROBE_S = 0.0012  # probe time on the reference box under steady load
INTERVAL_S = 0.05  # the timer period of a worker's sampler
REACH_S = 1.0  # probes this far outside an interval still describe it


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _work() -> int:
    # BFS over the 120 permutations of 5 under adjacent swaps
    start = (0, 1, 2, 3, 4)
    dist = {start: 0}
    queue = deque([start])
    while queue:
        p = queue.popleft()
        for i in range(4):
            q = p[:i] + (p[i + 1], p[i]) + p[i + 2:]
            if q not in dist:
                dist[q] = dist[p] + 1
                queue.append(q)
    keys = sorted(dist, key=lambda p: (dist[p], p), reverse=True)
    total = sum((Fraction(dist[p] + 1, i + 2) for i, p in enumerate(keys[:24])), Fraction(0))
    return len(keys) + total.numerator % 7


def probe() -> float:
    """Seconds taken by one fixed unit of work."""
    t0 = now()
    for _ in range(2):
        _work()
    return now() - t0


class Sampler:
    """Probes the host every INTERVAL_S from SIGALRM while a worker runs.

    `paused` is the time spent inside probes so far; a worker subtracts its
    change across a timed interval from that interval.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, probe seconds)
        self.paused = 0.0

    def _tick(self, _signum, _frame) -> None:
        t0 = now()
        self.samples.append((t0, probe()))
        self.paused += now() - t0

    def start(self) -> "Sampler":
        # one sample at once, so that even a short worker has one; the
        # unrecorded first run warms the probe's code up
        t0 = now()
        _work()
        self.paused += now() - t0
        self._tick(signal.SIGALRM, None)
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


class Speed:
    """All probe samples of a run, and the adjustment they imply."""

    def __init__(self, samples: list[tuple[float, float]]):
        samples = sorted(samples)
        self.times = [t for t, _ in samples]
        self.rates = [REFERENCE_PROBE_S / d for _, d in samples]

    def factor(self, a: float, b: float) -> float:
        """Mean of REFERENCE_PROBE_S / probe time over the probes in [a, b]
        widened by REACH_S on each side, or the nearest probe if none is in
        there.  Probes are evenly spaced in time, so this is the mean host
        speed over the interval, in reference units.  Without any probe the
        factor is 1."""
        if not self.times:
            return 1.0
        lo = bisect.bisect_left(self.times, a - REACH_S)
        hi = bisect.bisect_right(self.times, b + REACH_S)
        if lo == hi:
            mid = (a + b) / 2
            lo = min(range(max(lo - 1, 0), min(lo + 1, len(self.times))),
                     key=lambda i: abs(self.times[i] - mid))
            hi = lo + 1
        return statistics.fmean(self.rates[lo:hi])

    def adjust(self, a: float, b: float, paused: float = 0.0) -> float:
        """Reference seconds for the interval [a, b] minus `paused` probe time."""
        return (b - a - paused) * self.factor(a, b)
