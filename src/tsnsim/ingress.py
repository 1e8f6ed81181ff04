"""Per-stream filtering and policing: ingress stream gates with schedules,
internal-priority reassignment, and per-window octet budgets."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import CyclicSchedule, SimTime
from .traffic import Frame

PASS = "pass"
DROP_CLOSED_GATE = "drop_closed_gate"
DROP_OCTET_BUDGET = "drop_octet_budget"
DROP_NO_STREAM = "drop_no_stream"


@dataclass(frozen=True)
class PsfpDecision:
    outcome: str
    ipv: Optional[int] = None


@dataclass(frozen=True)
class StreamGateEntry:
    open: bool
    duration_ns: int
    ipv: Optional[int] = None
    max_octets: Optional[int] = None


class StreamGate(CyclicSchedule):
    """Single-stream ingress gate with a cyclic open/close schedule.

    The octet budget, when configured, applies per window occurrence and
    resets at each window start. Frames arriving exactly on a boundary
    belong to the window starting there (half-open intervals). Before
    base_time the gate is closed, as every gate of a GateControlList is.
    """

    def __init__(self, base_time: SimTime, cycle_time_ns: int,
                 entries: list[StreamGateEntry]):
        super().__init__(base_time, cycle_time_ns, entries)
        self.running_octets = 0
        self._window_key = None

    def process(self, frame: Frame, t: SimTime) -> PsfpDecision:
        if t < self.base_time:
            return PsfpDecision(DROP_CLOSED_GATE)
        cycle, i, _ = self._locate(t)
        entry = self.entries[i]
        window = (cycle, i)
        if window != self._window_key:
            self._window_key = window
            self.running_octets = 0
        if not entry.open:
            return PsfpDecision(DROP_CLOSED_GATE)
        if entry.max_octets is not None:
            if self.running_octets + frame.size_bytes > entry.max_octets:
                # a frame exceeding the budget does not consume any of it
                return PsfpDecision(DROP_OCTET_BUDGET)
            self.running_octets += frame.size_bytes
        if entry.ipv is not None:
            assign_ipv(frame, entry.ipv)
        return PsfpDecision(PASS, ipv=entry.ipv)


def assign_ipv(frame: Frame, ipv: int) -> Frame:
    """Attach an internal priority value; metadata only, bytes untouched."""
    if not 0 <= ipv <= 7:
        raise ValueError(f"ipv {ipv} out of range")
    frame.ipv = ipv
    return frame
