"""Machine-speed reference for the benchmark's timings.

A shared host runs this benchmark at a speed that drifts by a third or more
over seconds to minutes, and the drift shows in CPU time as much as in wall
time, so neither clock alone can tell a slower program from a slower moment.
``Speedometer`` samples the speed with a fixed pure-Python kernel (Dijkstra
on a seeded graph: dicts, lists, tuples and a heap, the same kind of work as
the solvers) before, during and after every timed call, and scales the call's
time by ``REFERENCE_S`` over the kernel's median time in that window.  The
result is the call's time in *reference seconds*: seconds on a machine that
runs the kernel in ``REFERENCE_S``.

The kernel does not touch the package, so any change to the program shows
in full; only the machine's speed cancels.  During a call a ``SIGALRM``
timer samples every ``interval`` seconds, and the time spent in those
samples is taken out of the call's time.
"""

from __future__ import annotations

import heapq
import random
import signal
import statistics
import time
from typing import Callable, TypeVar

T = TypeVar("T")

# Median time of one kernel run on the machine that set the benchmark up
# (2-vCPU Intel Xeon VM at 2.1 GHz, Python 3.11).  Only a scale: it makes
# reference seconds read about like seconds there.
REFERENCE_S = 0.0025
# a call's window reaches back over earlier samples until it holds this many
WINDOW = 7
# a call starts with a fresh sample unless the latest is younger than this
FRESH_S = 0.05

_NODES = 300
_rng = random.Random("speed-kernel")
_ADJACENCY: list[list[tuple[int, int]]] = [[] for _ in range(_NODES)]
for _ in range(1500):
    _u, _v, _c = _rng.randrange(_NODES), _rng.randrange(_NODES), _rng.randint(1, 10)
    _ADJACENCY[_u].append((_v, _c))
    _ADJACENCY[_v].append((_u, _c))
_SOURCES = (0, 75, 150)


def kernel() -> int:
    """Shortest-path sums from a few fixed sources; the unit of machine speed."""
    total = 0
    for source in _SOURCES:
        dist = {source: 0}
        heap = [(0, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v, c in _ADJACENCY[u]:
                nd = d + c
                if nd < dist.get(v, 1 << 60):
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        total += sum(dist.values())
    return total


_KERNEL_TOTAL = kernel()


class Speedometer:
    """Times calls in reference seconds; a context manager that owns ``SIGALRM``.

    ``interval=None`` samples only before and after each call (no timer).
    """

    def __init__(self, interval: float | None = 0.2) -> None:
        self.interval = interval
        self.samples: list[float] = []  # kernel seconds, in the order taken
        self.spent = 0.0  # seconds spent sampling inside timed calls
        self.last = (0.0, 0.0)  # (wall, reference) seconds of the latest call
        self._sampled_at = float("-inf")  # when the latest sample ended
        self._timing = False
        self._sampling = False
        self._previous_handler = None

    def __enter__(self) -> Speedometer:
        if self.interval:
            self._previous_handler = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        if self.interval:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous_handler)

    def _on_alarm(self, signum, frame) -> None:
        if self._timing and not self._sampling:
            self.spent += self._sample()

    def _sample(self) -> float:
        self._sampling = True
        try:
            start = time.perf_counter()
            total = kernel()
            self._sampled_at = time.perf_counter()
            seconds = self._sampled_at - start
        finally:
            self._sampling = False
        if total != _KERNEL_TOTAL:
            raise RuntimeError("speed kernel gave a different result")
        self.samples.append(seconds)
        return seconds

    def timed(self, call: Callable[[], T]) -> tuple[T, float, float]:
        """``(result, wall seconds, reference seconds)`` of one call.

        Wall seconds exclude the samples taken during the call.  The speed is
        the median of the samples before, during and after the call, reaching
        back to at least ``WINDOW`` samples, so that a short call does not
        rest on two noisy readings.  A call that raises still sets ``last``;
        its exception propagates.
        """
        if time.perf_counter() - self._sampled_at > FRESH_S:
            self._sample()
        first = len(self.samples) - 1  # the sample just before the call
        spent = self.spent
        self._timing = True
        start = time.perf_counter()
        try:
            result = call()
        finally:
            end = time.perf_counter()
            self._timing = False
            wall = end - start - (self.spent - spent)
            self._sample()
            window = self.samples[max(0, min(first, len(self.samples) - WINDOW)) :]
            self.last = (wall, wall * REFERENCE_S / statistics.median(window))
        return (result, *self.last)
