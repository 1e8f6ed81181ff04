"""Egress-side port mechanisms: gate-control scheduling, launch-time queuing,
and frame preemption at the MAC merge layer."""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from collections import Counter, deque
from functools import reduce
from operator import and_
from typing import Callable, Optional

from .core import ClockModel, CyclicSchedule, Engine, JitterDist, Record, SimTime
from .traffic import NS_PER_SEC, Frame, transmission_time

NUM_CLASSES = 8  # a gate mask has one bit per traffic class


class MissingTxtimeError(Exception):
    pass


class GclEntry(Record, frozen=True):
    gate_mask: int  # bit i == 1 -> traffic class i open
    duration_ns: int


class WireTimes(dict):
    """A link's transmission_time by frame size, overhead added, computed once per size."""

    def __init__(self, rate_bps: int, overhead_bytes: int = 0):
        self.rate_bps, self.overhead_bytes = rate_bps, overhead_bytes

    def __missing__(self, nbytes: int) -> int:
        tt = self[nbytes] = transmission_time(nbytes, self.rate_bps, self.overhead_bytes)
        return tt


#: each class's open time after an entry, or its oversize limit, where no gate closes
_NEVER_CLOSES = (math.inf,) * NUM_CLASSES


# ---------------------------------------------------------------------------
# taprio (802.1Qbv) port state


class TaprioPort:
    """Per-class FIFO queues drained according to a gate control list.

    guard_mode "fit": a frame is only eligible if its whole transmission
    fits before its gate closes. A frame that can never fit any open
    window of its class is dropped after waiting one full cycle, as is,
    under guard_mode "none", a frame of a class that no entry opens.

    The GCL, a CyclicSchedule of GclEntry, is compiled here into tables: per
    entry, its gate mask, end phase and, under "fit" only, each class's open
    time after it; per class, the oversize limit. enqueue fixes each frame's
    wire time, so select makes one entry lookup per call, a bisection of
    t's phase, and compares wire times, from wire (a 1 Gb/s link's by default).
    """

    def __init__(self, gcl: Optional[CyclicSchedule] = None, capacity: int = 64,
                 guard_mode: str = "fit", wire: Optional[WireTimes] = None):
        if guard_mode not in ("fit", "none"):
            raise ValueError(f"guard_mode {guard_mode!r}")
        if capacity < 1:
            raise ValueError(f"capacity {capacity} < 1")
        self.gcl, self.can_bypass = gcl, gcl is None
        self.capacity = capacity
        self.guard_mode = guard_mode
        self.queues: list[deque] = [deque() for _ in range(NUM_CLASSES)]
        #: frames queued, and bit tc set while queues[tc] is non-empty; only
        #: enqueue and select append and popleft, and they keep both up to date
        self.count = 0
        self._occupied = 0
        self.drops: Counter = Counter()
        #: per entry: (gate mask, end phase, open time after it);
        #: per class, the oversize limit: its longest open run, where select
        #: may drop it (any class under fit, one no entry opens under none)
        self._entries, self._limits = None, _NEVER_CLOSES
        if gcl is not None:
            fit, entries, n = guard_mode == "fit", gcl.entries, len(gcl.entries)
            always_open = reduce(and_, [e.gate_mask for e in entries])
            # one backward pass over two cycles: run[tc] is class tc's open
            # time from the end of entry j % n, inf if no entry closes it
            run = [math.inf if always_open >> tc & 1 else 0 for tc in range(NUM_CLASSES)]
            self._entries, runs = [None] * n, []
            for j in range(2 * n - 1, -1, -1):
                mask, d = entries[j % n].gate_mask, entries[j % n].duration_ns
                if j < n:
                    self._entries[j] = (mask, gcl._ends[j], tuple(run) if fit else _NEVER_CLOSES)
                run = [r + d if mask >> tc & 1 else 0 for tc, r in enumerate(run)]
                runs.append(run)  # from the start of entry j % n
            self._limits = tuple([r if fit or not r else math.inf for r in map(max, *runs)])
        #: wire time by frame size, overhead included; an empty table is falsy
        self._tt = WireTimes(10 ** 9) if wire is None else wire
        #: the next gate change as the last select found it
        self.wake_time = math.inf

    def enqueue(self, frame: Frame, t: SimTime) -> Optional[str]:
        """Queue the frame and return None, or return the drop key counted."""
        tc = frame.ipv if frame.ipv is not None else frame.priority  # frame.egress_class
        q = self.queues[tc]
        if len(q) >= self.capacity:
            self.drops["taprio_full"] += 1
            return "taprio_full"
        q.append((frame, t, self._tt[frame.size_bytes]))
        self.count += 1
        self._occupied |= 1 << tc
        return None

    def select(self, t: SimTime, classes=None) -> Optional[Frame]:
        """Pop the frame to transmit at t, highest open class first."""
        occupied, gcl = self._occupied, self.gcl
        if not occupied:
            return None
        if gcl is None:
            mask, left, after = 0xFF, 0, _NEVER_CLOSES
        elif t < gcl.base_time:
            self.wake_time = gcl.base_time
            return None
        else:  # the entry that holds t's phase
            phase = (t - gcl.base_time) % gcl.cycle_time_ns
            mask, end, after = self._entries[bisect_right(gcl._starts, phase) - 1]
            left = end - phase
            self.wake_time = t + left
        # visit the non-empty classes only, highest first
        while occupied:
            tc = occupied.bit_length() - 1
            bit = 1 << tc
            occupied ^= bit
            if classes is not None and tc not in classes:
                continue
            q = self.queues[tc]
            while q:
                frame, enq_t, tt = q[0]
                if tt > self._limits[tc] and t - enq_t >= gcl.cycle_time_ns:
                    # a frame that fits no open window of its class is
                    # dropped after waiting one full cycle
                    q.popleft()
                    self.count -= 1
                    if not q:
                        self._occupied ^= bit
                    self.drops["taprio_oversize"] += 1
                    continue
                if not mask & bit or tt > left + after[tc]:
                    break
                q.popleft()
                self.count -= 1
                if not q:
                    self._occupied ^= bit
                return frame
        return None


# ---------------------------------------------------------------------------
# ETF (SO_TXTIME) queue


class EtfQueue:
    """Launch-time queue ordered by txtime (ties broken by frame id), as tc-etf.

    A frame whose txtime is less than delta_ns after its enqueue time is
    dropped. With offload, the head frame falls due when clock, the NIC's
    PHC, reads its txtime. In software mode, clock is the system clock and
    the kernel releases the frame when it reads txtime - delta_ns. Without
    a clock, the identity clock is used.
    """

    can_bypass = False  # a frame waits for its launch time, even on an idle port

    def __init__(self, delta_ns: int = 0, offload: bool = True,
                 clock: Optional[ClockModel] = None):
        self.delta_ns = delta_ns
        self.offload = offload
        self.clock = clock or ClockModel()
        self._heap: list = []
        self.count = 0  # frames queued
        #: when the head frame falls due, as the last select found it
        self.wake_time: SimTime = math.inf
        self.drops: Counter = Counter()

    def enqueue(self, frame: Frame, now: SimTime) -> Optional[str]:
        """Queue the frame and return None, or return the drop key counted."""
        if frame.txtime is None:
            raise MissingTxtimeError(f"frame {frame.id} has no txtime")
        if frame.txtime < now + self.delta_ns:
            self.drops["etf_past_txtime"] += 1
            return "etf_past_txtime"
        heapq.heappush(self._heap, (frame.txtime, frame.id, frame))
        self.count += 1
        return None

    def select(self, t: SimTime, classes=None) -> Optional[Frame]:
        """Pop the head frame if it is due at t and, given classes, of one of them."""
        if not self._heap:
            return None
        txtime, _, head = self._heap[0]
        if classes is not None and head.egress_class not in classes:
            return None
        due = self.wake_time = self.clock.when_reading(
            txtime if self.offload else txtime - self.delta_ns, t)
        return None if due > t else self.pop()

    def pop(self) -> Frame:
        frame = heapq.heappop(self._heap)[2]
        self.count -= 1
        return frame


# ---------------------------------------------------------------------------
# frame preemption (802.1Qbu / 802.3br)


class PreemptionConfig(Record, frozen=True):
    enabled: bool = False
    express_classes: frozenset = frozenset()
    min_fragment_bytes: int = 64


NO_PREEMPTION = PreemptionConfig()


def _preemption_point(done: int, start: SimTime, t: SimTime, rate_bps: int, total: int,
                      frag: int) -> Optional[int]:
    """The fragment boundary at which an express frame may interrupt, at t, a
    transmission of total bytes that sent done bytes before its segment began
    at start, at rate_bps.

    The smallest multiple of frag strictly greater than the whole bytes sent
    by t (at least one minimum fragment), or None if less than one minimum
    fragment would remain after it.
    """
    sent = done + (t - start) * rate_bps // (8 * NS_PER_SEC)
    point = max(frag, frag * (sent // frag + 1))
    return None if point > total - frag else point


# ---------------------------------------------------------------------------
# runtime egress port driven by the event engine


class EgressPort:
    """One egress port: a queue discipline, the MAC and the wire, driven by
    the engine.

    submit(frame) hands a frame over at engine.now, and carries no time.
    wire, the link's WireTimes, gives the rate and overhead. The port drives
    queue only through the queue contract of README.md, as a netdev its qdisc.
    hw_precision, when given, is added to each wire start: the launch
    precision of a NIC that times launches itself, as with offloaded ETF.
    A transmission is one step: its start stamps hw_tx on phc (the
    identity clock by default), unless it resumes a preempted frame, and
    commits it, calling deliver(frame, arrival) in true time, with arrival
    = wire end + propagation_ns; the receiver acts at arrival, not at
    engine.now, but its events take their seq at the commit, which orders
    them in a tie. The wire is busy before the end of the transmission on
    it, and free from that instant, as a GCL entry holds [start, end): a
    frame handed over at the end finds it free. Only a preemptable
    transmission also holds the wire until its finish, at its end, has run
    and delivered it, unless a preemption moves the hold to the switch at
    the fragment boundary; any other has an event at its end, a kick, only
    if a frame waits.
    """

    def __init__(self, engine: Engine, wire: WireTimes, *, queue: TaprioPort | EtfQueue,
                 propagation_ns: int = 0, phc: Optional[ClockModel] = None,
                 preemption: Optional[PreemptionConfig] = None,
                 hw_precision: Optional[JitterDist] = None, rng=None, deliver: Callable):
        self.engine = engine
        self._tt = wire  # wire time by frame size, overhead included
        self.propagation_ns = propagation_ns
        self.phc = phc or ClockModel()
        self.queue = queue
        self.preemption = preemption or NO_PREEMPTION
        self.hw_precision = hw_precision
        self.rng = rng
        self.deliver = deliver
        #: a transmission an express frame may still preempt, as (frame,
        #: segment start, bytes sent before the segment), else None
        self._cuttable: Optional[tuple] = None
        #: a preempted frame as (frame, bytes_done)
        self._suspended: Optional[tuple] = None
        #: the time from which the wire is free; _held while a finish or a
        #: switch due at _free has yet to run; whether an event (a finish, a
        #: switch or a kick) is scheduled at _free; and when a kick is scheduled
        self._free, self._held, self._kick_when_free, self._kick_scheduled_at = (
            0, False, False, math.inf)
        self._bypass = queue.can_bypass
        self._preemptive = self.preemption.enabled
        self._express = self.preemption.express_classes

    # -- submission

    def submit(self, frame: Frame):
        """Send, queue or preempt with frame, or drop it into the queue's drops."""
        t = self.engine.now
        if self._cuttable is not None:
            if frame.egress_class in self._express:
                # an express frame may interrupt a preemptable transmission
                self._do_preempt(frame, t)
                return
        elif (self._bypass and not self.queue.count and self._suspended is None
                and t >= self._free and not self._held):
            self._start(frame)
            return
        if self.queue.enqueue(frame, t) is None:
            self._kick()

    # -- scheduling

    def _kick(self, scheduled: bool = False):
        engine = self.engine
        if scheduled:  # the kick at a gate change or ETF launch time, scheduled below
            self._kick_scheduled_at = math.inf
        t = engine.now
        if t < self._free or self._held:
            # busy: look again when the wire frees, unless an event there will
            if not self._kick_when_free:
                self._kick_when_free = True
                engine.schedule(self._free, self._kick)
            return
        suspended = self._suspended
        frame = self.queue.select(t, None if suspended is None else self._express)
        if frame is not None:
            self._start(frame)
        elif suspended is not None:
            self._suspended = None
            self._start(*suspended, t)
        else:
            nt = self.queue.wake_time
            if t < nt < self._kick_scheduled_at and self.queue.count:
                self._kick_scheduled_at = nt
                engine.schedule(nt, self._kick, True)

    # -- transmission

    def _start(self, frame: Frame, bytes_done: int = 0, start: Optional[SimTime] = None):
        """Put frame on the wire bytes_done bytes in, from start (by default
        now, after the NIC's launch precision); a resumed frame, never cut
        before min_fragment_bytes, keeps its first hw_tx."""
        if start is None:
            start = self.engine.now
            if self.hw_precision is not None:
                start = max(start, start + self.hw_precision.sample(self.rng))
        if not bytes_done:
            frame.hw_tx = self.phc.read(start)
        end = start + self._tt[frame.size_bytes - bytes_done]
        self._free = end
        if self._preemptive and frame.egress_class not in self._express:
            self._cuttable = (frame, start, bytes_done)
            self._held = self._kick_when_free = True
            self.engine.schedule(end, self._finish, frame, end)
            return
        self._cuttable, self._held, self._kick_when_free = None, False, False
        if self._suspended is not None or self.queue.count:
            self._kick()
        self.deliver(frame, end + self.propagation_ns)

    def _finish(self, frame: Frame, end: SimTime):
        if self._cuttable is None or self._free != end:
            return  # preempted: a resumed frame always ends after its first end
        self._cuttable, self._held = None, False
        self.deliver(frame, end + self.propagation_ns)
        if self._suspended is not None or self.queue.count:
            self._kick()

    def _do_preempt(self, express: Frame, t: SimTime):
        frame, seg_start, done = self._cuttable
        wire = self._tt
        point = _preemption_point(done, seg_start, t, wire.rate_bps,
                                  frame.size_bytes + wire.overhead_bytes,
                                  self.preemption.min_fragment_bytes)
        if point is None:
            # no legal split: express waits its turn in the queue
            self.queue.enqueue(express, t)
            return
        # hold the wire to the boundary instead of the pMAC finish, which
        # thereby cancels itself; until then later express frames queue
        self._cuttable = None
        # point and done count overhead bytes; the cache adds them itself
        boundary = seg_start + wire[point - done - wire.overhead_bytes]
        self._free = max(boundary, t)
        self.engine.schedule(self._free, self._switch, express, (frame, point))

    def _switch(self, express: Frame, suspended: tuple):
        """At the fragment boundary: suspend the preempted frame and send express."""
        self._suspended = suspended
        self._start(express, start=self.engine.now)
