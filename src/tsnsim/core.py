"""Discrete-event engine, deterministic RNG streams, clock models, jitter distributions.

All simulation time is integer nanoseconds since the simulation epoch.
Clock arithmetic is exact integer arithmetic: a drift of p/q ppm over dt
nanoseconds adds p*dt / (q*10**6) nanoseconds, truncated toward zero, so
two runs with the same seed are bit-identical.
"""

from __future__ import annotations

import hashlib
import heapq
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Optional

SimTime = int

PPM = 10 ** 6

#: identifier recorded in run metadata so outputs are self-describing
RNG_ALGORITHM = "mt19937/sha256-labeled-stream"


class PastTimeError(Exception):
    """Raised when an event is scheduled before the engine's current time."""


class ScheduleError(Exception):
    """A malformed cyclic schedule, or a lookup before its base time."""


class BeforeBaseTimeError(ScheduleError):
    pass


def rng_fork(seed: int, stream_label: str) -> random.Random:
    """Return an independent deterministic RNG stream for (seed, label).

    The stream is keyed by hashing the seed together with the label, so
    adding or removing streams never perturbs the samples of the others.
    """
    key = hashlib.sha256(f"{seed}|{stream_label}".encode()).digest()
    return random.Random(key)


@dataclass(frozen=True)
class JitterDist:
    """A nanosecond-valued jitter distribution.

    kinds: constant, uniform(min,max), normal(mean,std) truncated at
    4 sigma (and optionally at a lower bound), empirical weighted points.
    """

    kind: str
    value_ns: int = 0
    min_ns: Optional[int] = None
    max_ns: Optional[int] = None
    mean_ns: float = 0.0
    std_ns: float = 0.0
    points: tuple = ()  # ((value_ns, weight), ...)

    def __post_init__(self):
        if self.kind == "empirical":
            # cumulative weights make rng.choices draw exactly as with weights=
            object.__setattr__(self, "_values", [v for v, _ in self.points])
            object.__setattr__(self, "_cum_weights",
                               list(accumulate(w for _, w in self.points)))

    @classmethod
    def constant(cls, value_ns: int) -> "JitterDist":
        return cls(kind="constant", value_ns=value_ns)

    @classmethod
    def uniform(cls, min_ns: int, max_ns: int) -> "JitterDist":
        if min_ns > max_ns:
            raise ValueError("uniform: min_ns > max_ns")
        return cls(kind="uniform", min_ns=min_ns, max_ns=max_ns)

    @classmethod
    def normal(cls, mean_ns: float, std_ns: float,
               min_ns: Optional[int] = None) -> "JitterDist":
        if std_ns < 0:
            raise ValueError("normal: std_ns < 0")
        return cls(kind="normal", mean_ns=mean_ns, std_ns=std_ns, min_ns=min_ns)

    @classmethod
    def empirical(cls, points) -> "JitterDist":
        pts = tuple((int(v), float(w)) for v, w in points)
        if not pts or any(w <= 0 for _, w in pts):
            raise ValueError("empirical: needs points with positive weights")
        return cls(kind="empirical", points=pts)

    @classmethod
    def from_config(cls, cfg: dict) -> "JitterDist":
        kind = cfg.get("kind")
        if kind == "constant":
            return cls.constant(int(cfg["value_ns"]))
        if kind == "uniform":
            return cls.uniform(int(cfg["min_ns"]), int(cfg["max_ns"]))
        if kind == "normal":
            lo = cfg.get("min_ns")
            return cls.normal(float(cfg["mean_ns"]), float(cfg["std_ns"]),
                              None if lo is None else int(lo))
        if kind == "empirical":
            return cls.empirical(cfg["points"])
        raise ValueError(f"unknown jitter kind: {kind!r}")

    def to_config(self) -> dict:
        if self.kind == "constant":
            return {"kind": "constant", "value_ns": self.value_ns}
        if self.kind == "uniform":
            return {"kind": "uniform", "min_ns": self.min_ns, "max_ns": self.max_ns}
        if self.kind == "normal":
            out = {"kind": "normal", "mean_ns": self.mean_ns, "std_ns": self.std_ns}
            if self.min_ns is not None:
                out["min_ns"] = self.min_ns
            return out
        return {"kind": "empirical", "points": [list(p) for p in self.points]}

    def sample(self, rng: random.Random) -> int:
        if self.kind == "constant":
            return self.value_ns
        if self.kind == "uniform":
            return rng.randint(self.min_ns, self.max_ns)
        if self.kind == "normal":
            v = rng.gauss(self.mean_ns, self.std_ns)
            lo = self.mean_ns - 4 * self.std_ns
            hi = self.mean_ns + 4 * self.std_ns
            v = min(max(v, lo), hi)
            v = round(v)
            if self.min_ns is not None and v < self.min_ns:
                v = self.min_ns
            return int(v)
        # empirical
        return rng.choices(self._values, cum_weights=self._cum_weights)[0]


CONSTANT_ZERO = JitterDist.constant(0)


def _as_ppm_fraction(drift_ppm) -> Fraction:
    if isinstance(drift_ppm, Fraction):
        return drift_ppm
    if isinstance(drift_ppm, int):
        return Fraction(drift_ppm)
    # floats from JSON: go through the decimal string for reproducibility
    return Fraction(str(drift_ppm))


@dataclass
class ClockModel:
    """Per-node clock with static offset, linear drift, and periodic resync.

    With drift_ppm = p/q in lowest terms and dt = t - last_sync_true_time,

        read(t) = t + offset_ns + trunc(p * dt / (q * 10**6))

    in integer arithmetic, where trunc rounds toward zero for negative dt
    too, exactly as int() of the Fraction does. drift_ppm must exceed
    -10**6 so that read keeps increasing; it is fixed at construction.
    """

    offset_ns: int = 0
    drift_ppm: Fraction = Fraction(0)
    sync_interval_ns: Optional[int] = None
    sync_residual: JitterDist = CONSTANT_ZERO
    last_sync_true_time: SimTime = 0

    def __post_init__(self):
        self.drift_ppm = _as_ppm_fraction(self.drift_ppm)
        if self.drift_ppm <= -PPM:
            raise ValueError(f"drift_ppm must be > {-PPM}, got {self.drift_ppm}")
        self._drift_num = self.drift_ppm.numerator
        self._drift_den = self.drift_ppm.denominator * PPM
        # when_reading divides by the rate (q*PPM + p) / (q*PPM), which the
        # bound above keeps positive
        self._rate_den = self._drift_den + self._drift_num

    def read(self, true_time: SimTime) -> SimTime:
        num = self._drift_num
        if not num:
            return true_time + self.offset_ns
        x = num * (true_time - self.last_sync_true_time)
        den = self._drift_den
        return true_time + self.offset_ns + (x // den if x >= 0 else -(-x // den))

    def when_reading(self, reading: SimTime) -> SimTime:
        """Smallest true time t with read(t) >= reading (read is monotone)."""
        if not self._drift_num:
            return reading - self.offset_ns
        ls = self.last_sync_true_time
        # invert the linear model, truncating toward zero, then fix up
        x = (reading - self.offset_ns - ls) * self._drift_den
        den = self._rate_den
        t = ls + (x // den if x >= 0 else -(-x // den))
        while self.read(t) < reading:
            t += 1
        while t > ls and self.read(t - 1) >= reading:
            t -= 1
        return t

    def apply_sync(self, true_time: SimTime, rng: random.Random) -> None:
        """Instant resync: offset becomes a fresh residual sample."""
        self.offset_ns = self.sync_residual.sample(rng)
        self.last_sync_true_time = true_time

    @classmethod
    def identity(cls) -> "ClockModel":
        return cls()


class Engine:
    """Single-threaded event loop over integer-nanosecond time.

    Events with equal fire times run in insertion order.
    """

    def __init__(self):
        self._heap: list = []
        self._seq = 0
        self.now: SimTime = 0
        self.executed = 0

    def schedule(self, fire_time: SimTime, action: Callable[[], None]) -> int:
        if fire_time < self.now:
            raise PastTimeError(f"fire_time {fire_time} < now {self.now}")
        self._seq += 1
        heapq.heappush(self._heap, (fire_time, self._seq, action))
        return self._seq

    def run_until(self, t_end: SimTime) -> int:
        count = 0
        heap = self._heap
        while heap and heap[0][0] <= t_end:
            fire_time, _, action = heapq.heappop(heap)
            self.now = fire_time
            action()
            count += 1
        self.now = t_end
        self.executed += count
        return count

    def run_all(self) -> int:
        count = 0
        heap = self._heap
        while heap:
            fire_time, _, action = heapq.heappop(heap)
            self.now = fire_time
            action()
            count += 1
        self.executed += count
        return count


class CyclicSchedule:
    """Entries whose durations partition a cycle repeating from base_time.

    Entries cover half-open intervals [start, end) of the cycle phase, so
    an instant on a boundary belongs to the entry starting there.
    """

    def __init__(self, base_time: SimTime, cycle_time_ns: int, entries: list):
        if not entries:
            raise ScheduleError("schedule needs at least one entry")
        if any(e.duration_ns <= 0 for e in entries):
            raise ScheduleError("every entry duration must be > 0")
        if sum(e.duration_ns for e in entries) != cycle_time_ns:
            raise ScheduleError("entry durations must sum to cycle_time_ns")
        self.base_time = base_time
        self.cycle_time_ns = cycle_time_ns
        self.entries = list(entries)
        self._starts = []
        acc = 0
        for e in entries:
            self._starts.append(acc)
            acc += e.duration_ns

    def _locate(self, t: SimTime) -> tuple[int, int, int]:
        """(cycle index, entry index, phase within cycle) for time t."""
        if t < self.base_time:
            raise BeforeBaseTimeError(f"t={t} < base_time={self.base_time}")
        cycle, phase = divmod(t - self.base_time, self.cycle_time_ns)
        return cycle, bisect_right(self._starts, phase) - 1, phase
