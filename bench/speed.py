"""Machine-speed probe for host-time metrics on a shared, noisy machine.

The host's speed drifts by tens of percent over tens of seconds, and the
drift reaches CPU time as well as wall time, so medians within a run
cannot remove it. Each timed interval is therefore bracketed by a fixed
pure-Python probe, and its duration is rescaled to what it would have
taken at the reference speed, the speed at which the probe takes
REFERENCE_PROBE_S:

    seconds at reference speed = seconds * REFERENCE_PROBE_S / probe seconds

The probe runs none of tsnsim's code, so a change to the simulator moves
the rescaled figures exactly as it moves the raw ones.
"""

from __future__ import annotations

import csv
import gc
import heapq
import io
import random
import time
from fractions import Fraction

#: median probe time on the 2-core Xeon VM with Python 3.11.7 that the
#: baseline in README.md was measured on
REFERENCE_PROBE_S = 0.045


def probe_seconds(n: int = 6000) -> float:
    """Time a fixed mix of the simulator's kinds of work, with gc off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        rng = random.Random(7)
        heap: list = []
        acc = Fraction(0)
        counts: dict = {}
        out = csv.writer(io.StringIO())
        for i in range(n):
            heapq.heappush(heap, (rng.randint(0, 1 << 30), i, lambda k=i: k))
            if i & 1:
                _, k, fn = heapq.heappop(heap)
                counts[k & 63] = counts.get(k & 63, 0) + fn()
            if i % 4 == 0:
                acc += Fraction(rng.randint(1, 99), 7) * (i + 1) / 1_000_000
            if i % 3 == 0:
                out.writerow((i, rng.gauss(0, 5), "", i * 7))
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    """Probes between consecutive timed intervals; each probe serves both neighbours."""

    def __init__(self):
        self.last = probe_seconds()
        self.factors: list[float] = []

    def scale(self) -> float:
        """Reference-speed factor for the interval since the previous probe."""
        now = probe_seconds()
        factor = REFERENCE_PROBE_S / ((self.last + now) / 2)
        self.last = now
        self.factors.append(factor)
        return factor
