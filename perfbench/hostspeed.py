"""How fast the host runs Python right now, and times scaled to a
reference speed.

The benchmark runs on a share of a larger machine.  Its single-thread
speed swings by up to 1.5x over spells of seconds to minutes, whatever
the benchmark does, and a run of under a minute cannot average that
out.  So the harness times a fixed pure-Python loop (``probe``) every
``PROBE_EVERY_S`` of measured query time and scales each query's wall
time to the speed at which that loop takes ``REFERENCE_S``: a query
timed while the loop ran 1.3x slower than that counts 1/1.3 of its wall
time.  The engine's own speed is left in the numbers; only the host's
swings are taken out.

The probe is made of no container objects, so the garbage collector
never runs inside it, and the size of the engine's heap does not change
its time.  It shares the process, and so the core, with the queries.
"""

from __future__ import annotations

import bisect
import statistics
import time

REFERENCE_S = 0.001  # probe time that defines the reference speed
PROBE_EVERY_S = 0.1  # measured query time between two probes
WINDOW = 5  # probes each side of a query that set its scale
ROUNDS = 8000  # loop length; about REFERENCE_S on a 2-core x86 VM, Python 3.11

_TABLE = {i: (i * 7919) & 0xFFF for i in range(509)}


def probe() -> float:
    """Seconds one fixed pure-Python loop takes now."""
    table = _TABLE
    acc = 0
    start = time.perf_counter()
    for i in range(ROUNDS):
        acc = (acc * 31 + table[i % 509]) & 0xFFFFF
    return time.perf_counter() - start


def median_probe(n: int) -> float:
    return statistics.median(probe() for _ in range(n))


class Track:
    """Probe times along a run, keyed by the measured query time at
    which each was taken."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []

    def maybe_probe(self, measured: float) -> None:
        if not self.at or measured - self.at[-1] >= PROBE_EVERY_S:
            self.at.append(measured)
            self.took.append(probe())

    def scale(self, at: float) -> float:
        """REFERENCE_S over the median of the probes around ``at``."""
        i = bisect.bisect_right(self.at, at)
        near = self.took[max(0, i - WINDOW): i + WINDOW]
        return REFERENCE_S / statistics.median(near) if near else 1.0

    def median_ms(self) -> float:
        return statistics.median(self.took) * 1000 if self.took else 0.0
