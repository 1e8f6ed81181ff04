"""Egress-side port mechanisms: gate-control scheduling, launch-time queuing,
and frame preemption at the MAC merge layer."""

from __future__ import annotations

import heapq
from collections import Counter, deque
from dataclasses import dataclass
from typing import Callable, Optional

from .core import CONSTANT_ZERO, ClockModel, CyclicSchedule, Engine, JitterDist, SimTime
# the schedule errors keep their egress names
from .core import BeforeBaseTimeError, ScheduleError as GclError  # noqa: F401
from .traffic import Frame, transmission_time

NS_PER_SEC = 10 ** 9


class MissingTxtimeError(Exception):
    pass


class NotPreemptableError(Exception):
    pass


@dataclass(frozen=True)
class GclEntry:
    gate_mask: int  # bit i == 1 -> traffic class i open
    duration_ns: int


class GateControlList(CyclicSchedule):
    """Cyclic (gate mask, duration) schedule of an egress port."""

    def state(self, t: SimTime) -> tuple[int, int]:
        """(open mask, time until the next entry boundary) at time t."""
        _, i, phase = self._locate(t)
        end = self._starts[i] + self.entries[i].duration_ns
        return self.entries[i].gate_mask, end - phase

    def next_change(self, t: SimTime) -> SimTime:
        _, remaining = self.state(t)
        return t + remaining

    def time_until_close(self, tc: int, t: SimTime) -> Optional[int]:
        """Time until class tc's gate closes, or None if it never does.

        Only meaningful when the gate is open at t.
        """
        bit = 1 << tc
        _, i, phase = self._locate(t)
        n = len(self.entries)
        total = self._starts[i] + self.entries[i].duration_ns - phase
        for k in range(1, n + 1):
            e = self.entries[(i + k) % n]
            if not e.gate_mask & bit:
                return total
            total += e.duration_ns
        return None  # open for a whole cycle => open forever

    def max_open_run(self, tc: int) -> Optional[int]:
        """Longest contiguous open stretch for class tc (None = always open)."""
        bit = 1 << tc
        if all(e.gate_mask & bit for e in self.entries):
            return None
        best = run = 0
        # two concatenated cycles to capture wraparound runs
        for e in self.entries * 2:
            if e.gate_mask & bit:
                run += e.duration_ns
                best = max(best, run)
            else:
                run = 0
        return min(best, self.cycle_time_ns)


# ---------------------------------------------------------------------------
# taprio (802.1Qbv) port state


class TaprioPort:
    """Per-class FIFO queues drained according to a gate control list.

    guard_mode "fit": a frame is only eligible if its whole transmission
    fits before its gate closes. A frame that can never fit any open
    window of its class is dropped after waiting one full cycle.
    """

    QUEUED = "queued"
    DROPPED_FULL = "dropped_full"

    def __init__(self, gcl: Optional[GateControlList] = None, num_classes: int = 8,
                 capacity: int = 64, guard_mode: str = "fit",
                 link_rate_bps: int = 10 ** 9, overhead_bytes: int = 0):
        if guard_mode not in ("fit", "none"):
            raise ValueError(f"guard_mode {guard_mode!r}")
        self.gcl = gcl
        self.capacity = capacity
        self.guard_mode = guard_mode
        self.link_rate_bps = link_rate_bps
        self.overhead_bytes = overhead_bytes
        self.queues: list[deque] = [deque() for _ in range(num_classes)]
        self.drops: Counter = Counter()
        #: gcl.max_open_run of each class, scanned once
        self.max_open_runs = (None if gcl is None else
                              [gcl.max_open_run(tc) for tc in range(num_classes)])

    def _tt(self, frame: Frame) -> int:
        return transmission_time(frame.size_bytes, self.link_rate_bps,
                                 self.overhead_bytes)

    def enqueue(self, frame: Frame, t: SimTime) -> str:
        q = self.queues[frame.egress_class]
        if len(q) >= self.capacity:
            self.drops["taprio_full"] += 1
            return self.DROPPED_FULL
        q.append((frame, t))
        return self.QUEUED

    def select(self, t: SimTime, classes=None) -> Optional[Frame]:
        """Pop the frame to transmit at t, highest open class first."""
        if self.gcl is not None and t < self.gcl.base_time:
            return None
        mask = 0xFF if self.gcl is None else self.gcl.state(t)[0]
        order = range(len(self.queues) - 1, -1, -1)
        for tc in order:
            if classes is not None and tc not in classes:
                continue
            q = self.queues[tc]
            while q:
                frame, enq_t = q[0]
                if self.gcl is not None and self.guard_mode == "fit":
                    # a frame that fits no open window of its class is
                    # dropped after waiting one full cycle
                    max_run = self.max_open_runs[tc]
                    if (max_run is not None and self._tt(frame) > max_run
                            and t - enq_t >= self.gcl.cycle_time_ns):
                        q.popleft()
                        self.drops["taprio_oversize"] += 1
                        continue
                if not mask & (1 << tc):
                    break
                if self.guard_mode == "none" or self.gcl is None:
                    q.popleft()
                    return frame
                ttc = self.gcl.time_until_close(tc, t)
                if ttc is None or self._tt(frame) <= ttc:
                    q.popleft()
                    return frame
                break
        return None

    def pending(self) -> int:
        return sum(len(q) for q in self.queues)

    def next_event_time(self, t: SimTime) -> Optional[SimTime]:
        if self.pending() == 0:
            return None
        if self.gcl is None:
            return None
        if t < self.gcl.base_time:
            return self.gcl.base_time
        return self.gcl.next_change(t)


# ---------------------------------------------------------------------------
# ETF (SO_TXTIME) queue


class EtfQueue:
    """Launch-time queue ordered by txtime (ties broken by frame id)."""

    QUEUED = "queued"
    DROPPED_PAST_TXTIME = "dropped_past_txtime"

    def __init__(self, delta_ns: int = 0, offload: bool = True):
        self.delta_ns = delta_ns
        self.offload = offload
        self._heap: list = []
        self.drops: Counter = Counter()

    def enqueue(self, frame: Frame, now: SimTime) -> str:
        if frame.txtime is None:
            raise MissingTxtimeError(f"frame {frame.id} has no txtime")
        if frame.txtime < now + self.delta_ns:
            self.drops["etf_past_txtime"] += 1
            return self.DROPPED_PAST_TXTIME
        heapq.heappush(self._heap, (frame.txtime, frame.id, frame))
        return self.QUEUED

    def peek(self) -> Optional[Frame]:
        return self._heap[0][2] if self._heap else None

    def pop(self) -> Frame:
        return heapq.heappop(self._heap)[2]

    def __len__(self):
        return len(self._heap)


# ---------------------------------------------------------------------------
# frame preemption (802.1Qbu / 802.3br)


@dataclass(frozen=True)
class PreemptionConfig:
    enabled: bool = False
    express_classes: frozenset = frozenset()
    min_fragment_bytes: int = 64

    def is_express(self, tc: int) -> bool:
        return tc in self.express_classes


@dataclass(frozen=True)
class PreemptionPlan:
    """Resolved timing of an express frame against an ongoing preemptable one."""

    preempts: bool
    preempt_at_byte: int      # pMAC bytes on wire when the express starts
    express_start: SimTime
    express_end: SimTime
    pframe_complete: SimTime


def bytes_on_wire(start: SimTime, t: SimTime, rate_bps: int) -> int:
    """Whole bytes transmitted by time t of a transmission started at start."""
    return ((t - start) * rate_bps) // (8 * NS_PER_SEC)


def _preemption_point(sent: int, total: int, frag: int) -> Optional[int]:
    """The fragment boundary at which an express frame may interrupt.

    The smallest multiple of frag strictly greater than the bytes already
    sent (at least one minimum fragment), or None if less than one
    minimum fragment would remain after it.
    """
    point = max(frag, frag * (sent // frag + 1))
    return None if point > total - frag else point


def plan_preemption(pcfg: PreemptionConfig, pframe_size: int, pframe_start: SimTime,
                    express_size: int, t: SimTime, rate_bps: int) -> PreemptionPlan:
    """Plan the fragment boundary at which an express frame interrupts.

    Without a legal boundary (see _preemption_point) the express frame
    waits for the frame to end.
    """
    if not pcfg.enabled:
        raise NotPreemptableError("preemption disabled on this port")
    point = _preemption_point(bytes_on_wire(pframe_start, t, rate_bps), pframe_size,
                              pcfg.min_fragment_bytes)
    pframe_end = pframe_start + transmission_time(pframe_size, rate_bps)
    if point is None:
        # cannot split legally: express waits for frame completion
        express_start = pframe_end
        express_end = express_start + transmission_time(express_size, rate_bps)
        return PreemptionPlan(False, pframe_size, express_start, express_end,
                              pframe_end)
    express_start = pframe_start + transmission_time(point, rate_bps)
    express_end = express_start + transmission_time(express_size, rate_bps)
    pframe_complete = express_end + transmission_time(pframe_size - point, rate_bps)
    return PreemptionPlan(True, point, express_start, express_end, pframe_complete)


# ---------------------------------------------------------------------------
# runtime egress port driven by the event engine


@dataclass
class _TxState:
    frame: Frame
    total_bytes: int
    bytes_done: int
    segment_start: SimTime
    wire_start: SimTime
    preemptable: bool
    token: int
    preempt_pending: bool = False


class EgressPort:
    """One egress port: shaper queue + MAC + wire, driven by the engine.

    deliver(frame, wire_start, wire_end) is called in true time when the
    last bit leaves the port; the caller adds propagation delay.
    """

    def __init__(self, engine: Engine, rate_bps: int, *,
                 overhead_bytes: int = 0,
                 phc: Optional[ClockModel] = None,
                 scheme: str = "taprio",
                 taprio: Optional[TaprioPort] = None,
                 etf: Optional[EtfQueue] = None,
                 release_clock: Optional[ClockModel] = None,
                 preemption: Optional[PreemptionConfig] = None,
                 hw_precision: JitterDist = CONSTANT_ZERO,
                 rng=None,
                 deliver: Optional[Callable] = None):
        if scheme not in ("taprio", "etf"):
            raise ValueError(f"scheme {scheme!r}")
        self.engine = engine
        self.rate_bps = rate_bps
        self.overhead_bytes = overhead_bytes
        self.phc = phc
        self.scheme = scheme
        self.taprio = taprio if taprio is not None else TaprioPort(
            link_rate_bps=rate_bps, overhead_bytes=overhead_bytes)
        self.etf = etf
        self.release_clock = release_clock
        self.preemption = preemption or PreemptionConfig()
        self.hw_precision = hw_precision
        self.rng = rng
        self.deliver = deliver
        self._current: Optional[_TxState] = None
        self._suspended: Optional[_TxState] = None
        self._token = 0
        self._kick_scheduled_at: Optional[SimTime] = None

    # -- helpers

    def _eff_bytes(self, frame: Frame) -> int:
        return frame.size_bytes + self.overhead_bytes

    def _tt_bytes(self, nbytes: int) -> int:
        return transmission_time(nbytes, self.rate_bps)

    def _etf_eligible_time(self, frame: Frame) -> SimTime:
        if self.etf.offload:
            clock = self.phc or ClockModel.identity()
            return clock.when_reading(frame.txtime)
        clock = self.release_clock or ClockModel.identity()
        return clock.when_reading(frame.txtime - self.etf.delta_ns)

    # -- submission

    def submit(self, frame: Frame, t: SimTime) -> str:
        if self.scheme == "etf":
            result = self.etf.enqueue(frame, t)
            if result == EtfQueue.QUEUED:
                self._kick()
            return result
        # express frames may interrupt an ongoing preemptable transmission
        if (self.preemption.enabled
                and self.preemption.is_express(frame.egress_class)
                and self._current is not None
                and self._current.preemptable
                and self._suspended is None):
            self._do_preempt(frame, t)
            return TaprioPort.QUEUED
        result = self.taprio.enqueue(frame, t)
        if result == TaprioPort.QUEUED:
            self._kick()
        return result

    # -- scheduling

    def _schedule_kick(self, at: SimTime):
        if self._kick_scheduled_at is not None and self._kick_scheduled_at <= at:
            return
        self._kick_scheduled_at = at
        self.engine.schedule(at, self._kick_event)

    def _kick_event(self):
        self._kick_scheduled_at = None
        self._kick()

    def _kick(self):
        if self._current is not None:
            return
        t = self.engine.now
        if self.scheme == "etf":
            head = self.etf.peek()
            if head is None:
                return
            eligible = self._etf_eligible_time(head)
            if eligible > t:
                self._schedule_kick(eligible)
                return
            frame = self.etf.pop()
            start = t
            if self.etf.offload:
                start += self.hw_precision.sample(self.rng) if self.rng else 0
            self._begin(frame, max(start, t), preemptable=False)
            return
        classes = None
        if self._suspended is not None:
            classes = self.preemption.express_classes
        frame = self.taprio.select(t, classes=classes)
        if frame is None:
            if self._suspended is not None:
                self._resume_suspended()
                return
            nt = self.taprio.next_event_time(t)
            if nt is not None and nt > t:
                self._schedule_kick(nt)
            return
        preemptable = (self.preemption.enabled
                       and not self.preemption.is_express(frame.egress_class))
        self._begin(frame, t, preemptable=preemptable)

    def _next_token(self) -> int:
        self._token += 1
        return self._token

    def _begin(self, frame: Frame, start: SimTime, preemptable: bool):
        state = _TxState(frame=frame, total_bytes=self._eff_bytes(frame),
                         bytes_done=0, segment_start=start, wire_start=start,
                         preemptable=preemptable, token=self._next_token())
        self._current = state
        if start > self.engine.now:
            tok = state.token
            self.engine.schedule(start, lambda: self._wire_start(state, tok))
        else:
            self._wire_start(state, state.token)

    def _wire_start(self, state: _TxState, tok: int):
        if tok != state.token or self._current is not state:
            return
        t = self.engine.now
        state.segment_start = t
        state.wire_start = t
        if self.phc is not None:
            state.frame.trace.hw_tx = self.phc.read(t)
        end = t + self._tt_bytes(state.total_bytes)
        self.engine.schedule(end, lambda: self._complete(state, end, tok))

    def _complete(self, state: _TxState, end: SimTime, tok: int):
        if tok != state.token or self._current is not state:
            return
        self._current = None
        if self.deliver is not None:
            self.deliver(state.frame, state.wire_start, end)
        self._kick()

    def _resume_suspended(self):
        state = self._suspended
        self._suspended = None
        t = self.engine.now
        state.token = self._next_token()
        state.segment_start = t
        self._current = state
        remaining = state.total_bytes - state.bytes_done
        end = t + self._tt_bytes(remaining)
        tok = state.token
        self.engine.schedule(end, lambda: self._complete(state, end, tok))

    def _do_preempt(self, express: Frame, t: SimTime):
        cur = self._current
        if cur.preempt_pending:
            self.taprio.enqueue(express, t)
            return
        sent_total = cur.bytes_done + bytes_on_wire(cur.segment_start, t,
                                                    self.rate_bps)
        point = _preemption_point(sent_total, cur.total_bytes,
                                  self.preemption.min_fragment_bytes)
        if point is None:
            # no legal split: express waits its turn in the queue
            self.taprio.enqueue(express, t)
            return
        # cancel the pMAC completion; the wire stays busy until the boundary
        cur.token = self._next_token()
        cur.preempt_pending = True
        boundary = cur.segment_start + self._tt_bytes(point - cur.bytes_done)

        def at_boundary():
            cur.preempt_pending = False
            cur.bytes_done = point
            self._suspended = cur
            state = _TxState(frame=express, total_bytes=self._eff_bytes(express),
                             bytes_done=0, segment_start=self.engine.now,
                             wire_start=self.engine.now, preemptable=False,
                             token=self._next_token())
            self._current = state
            self._wire_start(state, state.token)

        self.engine.schedule(max(boundary, t), at_boundary)
