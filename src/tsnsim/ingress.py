"""Per-stream filtering and policing: ingress stream gates with schedules,
internal-priority reassignment, and per-window octet budgets."""

from __future__ import annotations

from bisect import bisect_right
from typing import Optional

from .core import CyclicSchedule, Record, SimTime
from .traffic import Frame

PASS = "pass"
DROP_CLOSED_GATE = "drop_closed_gate"
DROP_OCTET_BUDGET = "drop_octet_budget"
DROP_NO_STREAM = "drop_no_stream"


class PsfpDecision(Record, frozen=True):
    outcome: str


#: every gate returns these shared decisions, which are immutable
_CLOSED = PsfpDecision(DROP_CLOSED_GATE)
_OVER_BUDGET = PsfpDecision(DROP_OCTET_BUDGET)
_PASS = PsfpDecision(PASS)


class StreamGateEntry(Record, frozen=True):
    """One window of a stream gate's cycle: open or closed for duration_ns,
    with the IPV a passing frame gets and the window's octet budget."""

    __slots__ = _fields = ("open", "duration_ns", "ipv", "max_octets")

    def __init__(self, open: bool, duration_ns: int, ipv: Optional[int] = None,
                 max_octets: Optional[int] = None):
        if ipv is not None and not 0 <= ipv <= 7:
            raise ValueError(f"ipv {ipv} out of range")
        super().__init__(open, duration_ns, ipv, max_octets)


class StreamGate:
    """Single-stream ingress gate running a CyclicSchedule of StreamGateEntry
    windows. A gate counts its window's octets, so each bridge on each path
    runs its own StreamGate of the scenario's schedule.

    The octet budget, when configured, applies per window occurrence and
    resets at each window start. Frames arriving exactly on a boundary
    belong to the window starting there (half-open intervals). Before
    base_time the gate is closed, as every gate of a GCL is.
    """

    def __init__(self, schedule: CyclicSchedule):
        self.base_time, self.cycle_time_ns = schedule.base_time, schedule.cycle_time_ns
        self._starts = schedule._starts
        #: per entry: (open, max_octets, the IPV a passing frame gets)
        self._table = [(e.open, e.max_octets, e.ipv) for e in schedule.entries]
        self.running_octets = 0
        self._window_start = None  # true time at which the counted window began

    def process(self, frame: Frame, t: SimTime) -> PsfpDecision:
        if t < self.base_time:
            return _CLOSED
        phase = (t - self.base_time) % self.cycle_time_ns
        i = bisect_right(self._starts, phase) - 1
        start = t - phase + self._starts[i]
        if start != self._window_start:
            self._window_start = start
            self.running_octets = 0
        is_open, max_octets, ipv = self._table[i]
        if not is_open:
            return _CLOSED
        if max_octets is not None:
            if self.running_octets + frame.size_bytes > max_octets:
                # a frame exceeding the budget does not consume any of it
                return _OVER_BUDGET
            self.running_octets += frame.size_bytes
        if ipv is not None:
            frame.ipv = ipv
        return _PASS
