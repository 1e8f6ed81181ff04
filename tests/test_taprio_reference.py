"""A deliberately naive model of one taprio (802.1Qbv) port, checked
against EgressPort over generated gate control lists and arrivals.

The model re-scans the GCL entries for every gate question and keeps one
FIFO per traffic class, served highest class first. It uses the "fit"
guard band, with preemption off: a frame starts only if its whole
transmission ends before its class's gate closes, and a frame that fits
no open window of its class is dropped once it has waited a full cycle.
"""

from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from tsnsim.core import CyclicSchedule, Engine
from tsnsim.egress import EgressPort, GclEntry, TaprioPort, WireTimes
from tsnsim.traffic import Frame, transmission_time

RATE = 10 ** 9  # a 64 B frame is 512 ns on the wire, a 1,522 B one 12,176 ns
INF = float("inf")


class NaiveGcl:
    """Gate questions answered by scanning the (mask, duration) entries."""

    def __init__(self, base_time, entries):
        self.base_time = base_time
        self.entries = entries
        self.cycle = sum(d for _, d in entries)

    def entry_at(self, t):
        """(index, time left) of the entry that holds t >= base_time."""
        phase = (t - self.base_time) % self.cycle
        end = 0
        for i, (_, d) in enumerate(self.entries):
            end += d
            if phase < end:
                return i, end - phase

    def is_open(self, tc, t):
        return t >= self.base_time and self.entries[self.entry_at(t)[0]][0] >> tc & 1

    def until_close(self, tc, t):
        """Time until tc's open gate closes; None if it never does."""
        i, total = self.entry_at(t)
        n = len(self.entries)
        for k in range(1, n + 1):
            mask, d = self.entries[(i + k) % n]
            if not mask >> tc & 1:
                return total
            total += d
        return None

    def longest_open(self, tc):
        """Longest open stretch of tc over two cycles; None if it never closes."""
        if all(m >> tc & 1 for m, _ in self.entries):
            return None
        best = run = 0
        for m, d in self.entries * 2:
            run = run + d if m >> tc & 1 else 0
            best = max(best, run)
        return best

    def next_change(self, t):
        return self.base_time if t < self.base_time else t + self.entry_at(t)[1]


def reference(base_time, entries, arrivals):
    """The wire (frame id, start, end) of every frame sent, and the number
    of frames dropped as oversize; arrivals are (t, size, priority) in time
    order, and frame k is arrivals[k].

    The port tries to start a frame when one arrives at an idle wire, when
    the wire falls idle, and at every gate change while frames wait. At one
    instant, arrivals come first, in order.
    """
    gcl = NaiveGcl(base_time, entries)
    fifos = [deque() for _ in range(8)]
    wire, dropped = [], 0
    on_wire = None  # (frame id, start, end)
    wake = INF  # the next gate change, once a try found nothing to send

    def try_start(t):
        nonlocal on_wire, wake, dropped
        if t >= base_time:
            for tc in range(7, -1, -1):
                q = fifos[tc]
                while q:
                    fid, size, enq_t = q[0]
                    tt = transmission_time(size, RATE)
                    longest = gcl.longest_open(tc)
                    if longest is not None and tt > longest and t - enq_t >= gcl.cycle:
                        q.popleft()
                        dropped += 1
                        continue
                    if not gcl.is_open(tc, t):
                        break
                    ttc = gcl.until_close(tc, t)
                    if ttc is not None and tt > ttc:
                        break
                    q.popleft()
                    on_wire = (fid, t, t + tt)
                    return
        if any(fifos):
            wake = min(wake, gcl.next_change(t))

    k = 0
    while True:
        t = min(arrivals[k][0] if k < len(arrivals) else INF,
                on_wire[2] if on_wire else INF, wake)
        if t == INF:
            return wire, dropped
        while k < len(arrivals) and arrivals[k][0] == t:
            _, size, priority = arrivals[k]
            fifos[priority].append((k, size, t))
            k += 1
            if on_wire is None:
                try_start(t)
        if on_wire is not None and on_wire[2] == t:
            wire.append(on_wire)
            on_wire = None
            try_start(t)
        if wake == t:
            wake = INF
            if on_wire is None:
                try_start(t)


def egress_port(base_time, entries, arrivals):
    eng = Engine()
    wire = []
    gcl = CyclicSchedule(base_time, sum(d for _, d in entries),
                         [GclEntry(m, d) for m, d in entries])
    link = WireTimes(RATE)
    taprio = TaprioPort(gcl=gcl, capacity=len(arrivals), wire=link)
    port = EgressPort(eng, link, queue=taprio,
                      deliver=lambda f, end: wire.append((f.id, f.hw_tx, end)))
    for fid, (t, size, priority) in enumerate(arrivals):
        eng.schedule(t, port.submit, Frame(id=fid, size_bytes=size, priority=priority))
    eng.run_all()
    return wire, taprio.drops


@st.composite
def port_inputs(draw):
    entries = draw(st.lists(st.tuples(st.integers(0, 255),
                                      st.integers(1, 24).map(lambda k: 500 * k)),
                            min_size=1, max_size=6))
    base_time = draw(st.integers(0, 20_000))
    gaps = draw(st.lists(st.tuples(st.integers(0, 15_000), st.integers(64, 1522),
                                   st.integers(0, 7)), min_size=1, max_size=30))
    t, arrivals = 0, []
    for gap, size, priority in gaps:
        t += gap
        arrivals.append((t, size, priority))
    return base_time, entries, arrivals


@settings(max_examples=300, deadline=None)
@given(port_inputs())
def test_wire_starts_match_naive_reference(inputs):
    base_time, entries, arrivals = inputs
    wire, dropped = reference(base_time, entries, arrivals)
    port_wire, port_drops = egress_port(base_time, entries, arrivals)
    assert port_wire == wire
    assert port_drops == ({"taprio_oversize": dropped} if dropped else {})
    assert len(wire) + dropped == len(arrivals)
