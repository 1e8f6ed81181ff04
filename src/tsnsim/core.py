"""Discrete-event engine, deterministic RNG streams, clock models, jitter distributions.

All simulation time is integer nanoseconds since the simulation epoch.
Clock arithmetic is exact integer arithmetic: a drift of p/q ppm over dt
nanoseconds adds p*dt / (q*10**6) nanoseconds, truncated toward zero, so
two runs with the same seed are bit-identical.
"""

from __future__ import annotations

import hashlib
import math
import random
from bisect import bisect_right
from fractions import Fraction
from functools import partial
from heapq import heappop, heappush
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


def rng_fork(seed: int, stream_label: str) -> random.Random:
    """Return an independent deterministic RNG stream for (seed, label).

    The stream is keyed by hashing the seed together with the label, so
    adding or removing streams never perturbs the samples of the others.
    """
    key = hashlib.sha256(f"{seed}|{stream_label}".encode()).digest()
    return random.Random(key)


class Record:
    """Base of the value records. A subclass declares its fields in order as class
    annotations, a default as the class value. One built per frame or holding derived state
    names them in _fields and all its attributes in __slots__, and sets them in its own
    __init__ (through Record.__init__ when frozen). Records of one type with equal fields
    are equal; repr lists the fields, iteration yields them. With frozen=True a record is
    read-only and hashable."""

    __slots__ = _fields = ()
    _defaults = {}

    def __init_subclass__(cls, frozen: bool = False):
        if "_fields" not in vars(cls):
            cls._fields = tuple(cls.__annotations__)  # the class's own, from Python 3.10
            cls._defaults = {f: vars(cls)[f] for f in cls._fields if f in vars(cls)}
        if frozen:
            cls.__setattr__ = cls.__delattr__ = Record._read_only
            cls.__hash__ = lambda self: hash(tuple(self))
            cls.__reduce__ = lambda self: (type(self), tuple(self))

    def __init__(self, *args, **kwargs):
        """Each field from args in order, else from kwargs, else its default."""
        fields, given = self._fields, dict(zip(self._fields, args))
        values = {**self._defaults, **given, **kwargs}
        if len(args) > len(fields) or given.keys() & kwargs.keys() or values.keys() != set(fields):
            raise TypeError(f"{type(self).__name__} takes each of {fields} once, all but "
                            f"{tuple(self._defaults)} required: got {args} and {kwargs}")
        for field in fields:
            object.__setattr__(self, field, values[field])

    def _read_only(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is read-only: cannot change {name!r}")

    def __iter__(self):
        return map(self.__getattribute__, self._fields)

    def __eq__(self, other):
        return tuple(self) == tuple(other) if type(other) is type(self) else NotImplemented

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(map('{}={!r}'.format, self._fields, self))})"


class JitterDist(Record, frozen=True):
    """A nanosecond-valued jitter distribution.

    kinds: constant, uniform(min,max), normal(mean,std) truncated at
    4 sigma (and optionally at a lower bound), empirical weighted points.
    """

    _fields = ("kind", "value_ns", "min_ns", "max_ns", "mean_ns", "std_ns", "points")
    __slots__ = (*_fields, "_span", "_bits", "_lo", "_hi", "_values", "_cum_weights", "_total",
                 "_last")

    def __init__(self, kind: str, value_ns: int = 0, min_ns: Optional[int] = None,
                 max_ns: Optional[int] = None, mean_ns: float = 0.0, std_ns: float = 0.0,
                 points: tuple = ()):  # ((value_ns, weight), ...)
        super().__init__(kind, value_ns, min_ns, max_ns, mean_ns, std_ns, points)
        bind = partial(object.__setattr__, self)
        if self.kind == "uniform":
            # sample draws as rng.randint does, via _randbelow_with_getrandbits
            bind("_span", self.max_ns - self.min_ns + 1)
            bind("_bits", self._span.bit_length())
        elif self.kind == "normal":
            bind("_lo", self.mean_ns - 4 * self.std_ns)
            bind("_hi", self.mean_ns + 4 * self.std_ns)
        elif self.kind == "empirical":
            # sample bisects these exactly as rng.choices(..., cum_weights=)
            # does, without its per-call checks, which empirical() makes once
            cum = list(accumulate(w for _, w in self.points))
            bind("_values", [v for v, _ in self.points])
            bind("_cum_weights", cum)
            bind("_total", cum[-1] + 0.0)
            bind("_last", len(cum) - 1)

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
        if not (math.isfinite(mean_ns - 4 * std_ns) and math.isfinite(mean_ns + 4 * std_ns)):
            raise ValueError(f"normal: mean_ns +- 4 * std_ns must be finite, got mean_ns "
                             f"{mean_ns}, std_ns {std_ns}")
        return cls(kind="normal", mean_ns=mean_ns, std_ns=std_ns, min_ns=min_ns)

    @classmethod
    def empirical(cls, points) -> "JitterDist":
        pts = tuple((int(v), float(w)) for v, w in points)
        if not pts or any(w <= 0 for _, w in pts):
            raise ValueError("empirical: needs points with positive weights")
        # a finite sum also rules out an infinite or NaN weight
        if not math.isfinite(sum(w for _, w in pts)):
            raise ValueError("empirical: total of weights must be finite")
        return cls(kind="empirical", points=pts)

    @property
    def lowest(self) -> int:
        """The smallest value sample can return."""
        if self.kind == "normal":
            return round(self._lo) if self.min_ns is None else max(round(self._lo), self.min_ns)
        if self.kind == "empirical":
            return min(self._values)
        return self.value_ns if self.kind == "constant" else self.min_ns

    def sample(self, rng: random.Random) -> int:
        if self.kind == "constant":
            return self.value_ns
        if self.kind == "uniform":
            r = rng.getrandbits(self._bits)
            while r >= self._span:
                r = rng.getrandbits(self._bits)
            return self.min_ns + r
        if self.kind == "normal":
            v = rng.gauss(self.mean_ns, self.std_ns)
            if v < self._lo:
                v = self._lo
            elif v > self._hi:
                v = self._hi
            v = round(v)
            if self.min_ns is not None and v < self.min_ns:
                v = self.min_ns
            return int(v)
        # empirical
        return self._values[bisect_right(self._cum_weights, rng.random() * self._total,
                                         0, self._last)]


CONSTANT_ZERO = JitterDist.constant(0)


def _as_ppm_fraction(drift_ppm) -> Fraction:
    if isinstance(drift_ppm, Fraction):
        return drift_ppm
    if isinstance(drift_ppm, int):
        return Fraction(drift_ppm)
    # floats from JSON: go through the decimal string for reproducibility
    return Fraction(str(drift_ppm))


class ClockModel(Record):
    """Per-node clock with static offset, linear drift and periodic resync,
    read as a pure function of true time.

    A copy made by resynced(rng, horizon) resyncs at s_k = k * interval for
    1 <= k <= K = max(1, horizon // interval); true time t lies in segment
    k = min(t // interval, K), so a resync applies to every reading at or
    after its nanosecond. Segment 0 (s_0 = 0) has offset o_0 = offset_ns;
    o_k is the k-th sync_residual draw from rng, drawn in order of k. With
    drift_ppm = p/q in lowest terms,

        read(t) = t + o_k + trunc(p * (t - s_k) / (q * 10**6))

    in integer arithmetic, truncated toward zero as int() of the Fraction
    is. drift_ppm must exceed -10**6 so that read increases within a
    segment; it is fixed at construction.
    """

    _fields = ("offset_ns", "drift_ppm", "sync_interval_ns", "sync_residual")
    __slots__ = (*_fields, "_drift_num", "_drift_den", "_rate_den", "_syncs", "_offsets", "_rng",
                 "_start", "_offset", "_hi")

    def __init__(self, offset_ns: int = 0, drift_ppm: Fraction = Fraction(0),
                 sync_interval_ns: Optional[int] = None, sync_residual: JitterDist = CONSTANT_ZERO):
        self.offset_ns, self.sync_interval_ns = offset_ns, sync_interval_ns
        self.sync_residual, self.drift_ppm = sync_residual, _as_ppm_fraction(drift_ppm)
        if self.drift_ppm <= -PPM:
            raise ValueError(f"drift_ppm must be > {-PPM}, got {self.drift_ppm}")
        self._drift_num = self.drift_ppm.numerator
        self._drift_den = self.drift_ppm.denominator * PPM
        # when_reading divides by the rate (q*PPM + p) / (q*PPM), which the
        # bound above keeps positive
        self._rate_den = self._drift_den + self._drift_num
        #: K, the number of resyncs, and o_k at index k as drawn so far
        self._syncs, self._offsets = 0, [self.offset_ns]
        self._rng: Optional[random.Random] = None
        #: s_k and o_k of the segment k last entered, which holds [_start, _hi)
        self._start, self._offset = 0, self.offset_ns

    def resynced(self, rng: random.Random, horizon: SimTime) -> "ClockModel":
        """A fresh copy that resyncs up to horizon, its residuals drawn from rng."""
        clock = ClockModel(self.offset_ns, self.drift_ppm, self.sync_interval_ns,
                           self.sync_residual)
        if self.sync_interval_ns:
            clock._syncs, clock._rng = max(1, horizon // self.sync_interval_ns), rng
            clock._enter(0)
        return clock

    def _enter(self, t: SimTime) -> None:
        """Make the segment k that holds true time t the one last entered."""
        k = min(max(t // self.sync_interval_ns, 0), self._syncs)
        while len(self._offsets) <= k:
            self._offsets.append(self.sync_residual.sample(self._rng))
        self._start = k * self.sync_interval_ns
        self._offset = self._offsets[k]
        self._hi = self._start + self.sync_interval_ns if k < self._syncs else math.inf

    def read(self, true_time: SimTime) -> SimTime:
        if self._syncs and not self._start <= true_time < self._hi:
            self._enter(true_time)
        num = self._drift_num
        if not num:
            return true_time + self._offset
        x = num * (true_time - self._start)
        den = self._drift_den
        return true_time + self._offset + (x // den if x >= 0 else -(-x // den))

    def when_reading(self, reading: SimTime, now: SimTime) -> SimTime:
        """Smallest true time t with read(t) >= reading, in closed form, on
        the segment (start s, offset o) that holds now.

        With y = reading - o - s, D = q*10**6 and drift p/q ppm,
        read(s + u) - s - o is u + trunc(p*u / D): floor(u*(D + p) / D)
        when p*u >= 0, else ceil(u*(D + p) / D). The smallest u > 0
        reaching y > 0 is thus ceil(y*D / (D + p)) for p > 0 and
        floor((y - 1)*D / (D + p)) + 1 for p < 0.

        A reading the segment reaches only before s (y < 0) gets
        ceil(y*D / (D + p)), the linear inverse truncated toward zero:
        exact for p < 0, and for p > 0 possibly 1 ns later than the
        smallest such t. Callers take the later of this and now. Later
        resyncs are ignored: the answer is exact only within now's segment.
        """
        if self._syncs and not self._start <= now < self._hi:
            self._enter(now)
        if not self._drift_num:
            return reading - self._offset
        y = reading - self._offset - self._start
        x = y * self._drift_den
        rate = self._rate_den
        if y > 0 and self._drift_num < 0:
            u = (x - self._drift_den) // rate + 1
        else:
            u = -(-x // rate)
        return self._start + u


class Engine:
    """Single-threaded event loop over integer-nanosecond time: a heap of
    (fire_time, seq, action, args), where each event runs action(*args), so
    callers pass a bound method and its arguments instead of building a
    closure or partial per event. Events with equal fire times run first in,
    first out: in the order schedule took their seq, not that of their causes.
    """

    def __init__(self):
        self._heap: list = []
        self._seq = 0
        self.now: SimTime = 0
        self.executed = 0

    def schedule(self, fire_time: SimTime, action: Callable[..., None], *args) -> int:
        if fire_time < self.now:
            raise PastTimeError(f"fire_time {fire_time} < now {self.now}")
        seq = self._seq = self._seq + 1
        heappush(self._heap, (fire_time, seq, action, args))
        return seq

    def run_all(self) -> int:
        count = 0
        heap = self._heap
        while heap:
            self.now, _, action, args = heappop(heap)
            action(*args)
            count += 1
        self.executed += count
        return count


class CyclicSchedule(Record, frozen=True):
    """Entries whose durations partition a cycle repeating from base_time: a
    GCL's GclEntry tuple or a stream gate's StreamGateEntry windows. It holds
    no run state; the TaprioPort or StreamGate that runs it compiles its tables.

    Entries cover half-open intervals [start, end) of the cycle phase, so
    an instant on a boundary belongs to the entry starting there.
    """

    _fields = ("base_time", "cycle_time_ns", "entries")
    __slots__ = (*_fields, "_starts", "_ends")

    def __init__(self, base_time: SimTime, cycle_time_ns: int, entries):
        super().__init__(base_time, cycle_time_ns, entries := tuple(entries))
        if not entries:
            raise ScheduleError("schedule needs at least one entry")
        if any(e.duration_ns <= 0 for e in entries):
            raise ScheduleError("every entry duration must be > 0")
        ends = list(accumulate(e.duration_ns for e in entries))
        if ends[-1] != cycle_time_ns:
            raise ScheduleError(f"durations sum to {ends[-1]}, not cycle_time_ns "
                                f"{cycle_time_ns}")
        object.__setattr__(self, "_ends", ends)
        object.__setattr__(self, "_starts", [0, *ends[:-1]])
