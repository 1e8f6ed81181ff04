"""Gate-control-list semantics checked against a 1 ns time-stepped oracle."""

import math
import random
from bisect import bisect_right
from collections import Counter
from functools import reduce
from operator import and_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsnsim.core import CyclicSchedule, Engine, JitterDist, ScheduleError
from tsnsim.egress import EgressPort, GclEntry, PreemptionConfig, TaprioPort
from tsnsim.traffic import Frame, transmission_time

from conftest import CappedEngine
from helpers import BeforeBaseTimeError, gcl_state, max_open_run, run_until, time_until_close

US = 1000
MS = 1000 * US


def mask_table(gcl: CyclicSchedule) -> list:
    """Independent oracle: per-nanosecond open mask over one cycle."""
    table = []
    for e in gcl.entries:
        table.extend([e.gate_mask] * e.duration_ns)
    assert len(table) == gcl.cycle_time_ns
    return table


def max_open_run_oracle(table: list, tc: int):
    """Longest open stretch of class tc over the per-nanosecond table."""
    bit = 1 << tc
    if all(m & bit for m in table):
        return None
    best = run = 0
    for m in table * 2:  # wraparound runs span the cycle boundary
        run = run + 1 if m & bit else 0
        best = max(best, run)
    return best


def open_time_oracle(table: list, tc: int) -> list:
    """Per-nanosecond time until class tc's gate closes, from each phase of
    the cycle (0 where it is closed), or None everywhere if it never closes."""
    bit = 1 << tc
    n = len(table)
    if all(m & bit for m in table):
        return [None] * n
    until = [0] * (2 * n + 1)
    for p in range(2 * n - 1, -1, -1):  # two cycles: runs that wrap the cycle end
        until[p] = until[p + 1] + 1 if table[p % n] & bit else 0
    return until[:n]


def remaining_oracle(gcl: CyclicSchedule) -> list:
    """Per-nanosecond time left in the entry that holds each phase."""
    return [e.duration_ns - k for e in gcl.entries for k in range(e.duration_ns)]


class TestGclState:
    def test_single_entry_always_open(self):
        gcl = CyclicSchedule(0, MS, [GclEntry(0xFF, MS)])
        for t in (0, 1, 999, MS, 5 * MS + 123):
            assert gcl_state(gcl, t)[0] == 0xFF

    def test_two_entry_example(self):
        gcl = CyclicSchedule(0, 500 * US, [GclEntry(0x01, 250 * US),
                                           GclEntry(0x02, 250 * US)])
        mask, remaining = gcl_state(gcl, 300 * US)
        assert mask == 0x02 and remaining == 200 * US

    def test_cycle_boundary_uses_first_entry(self):
        gcl = CyclicSchedule(0, 500 * US, [GclEntry(0x01, 250 * US),
                                           GclEntry(0x02, 250 * US)])
        for k in range(4):
            mask, remaining = gcl_state(gcl, k * 500 * US)
            assert mask == 0x01 and remaining == 250 * US

    def test_before_base_time_rejected(self):
        gcl = CyclicSchedule(1000, MS, [GclEntry(0xFF, MS)])
        with pytest.raises(BeforeBaseTimeError):
            gcl_state(gcl, 999)

    def test_durations_must_sum_to_cycle(self):
        with pytest.raises(ScheduleError):
            CyclicSchedule(0, MS, [GclEntry(0xFF, MS - 1)])
        with pytest.raises(ScheduleError):
            CyclicSchedule(0, MS, [])
        with pytest.raises(ScheduleError):
            CyclicSchedule(0, MS, [GclEntry(0xFF, MS), GclEntry(0, 0)])

    def test_matches_time_stepped_oracle(self):
        rng = random.Random(101)
        for _ in range(10):
            gcl = random_gcl(rng)
            table = mask_table(gcl)
            for _ in range(500):
                t = gcl.base_time + rng.randrange(0, 3 * gcl.cycle_time_ns)
                mask, remaining = gcl_state(gcl, t)
                phase = (t - gcl.base_time) % gcl.cycle_time_ns
                assert mask == table[phase]
                # remaining time: the mask entry stays the same until then
                assert all(table[(phase + d) % gcl.cycle_time_ns] == table[phase]
                           for d in range(min(remaining, 64)))
            # the per-class runs a port stores equal a fresh scan
            port = TaprioPort(gcl=gcl)
            for tc in range(8):
                expected = max_open_run_oracle(table, tc)
                assert max_open_run(gcl, tc) == expected
                assert port._limits[tc] == (math.inf if expected is None else expected)

    def test_time_until_close_matches_oracle(self):
        # TaprioPort.select reads the same table directly, so only these
        # tests reach time_until_close
        rng = random.Random(303)
        checked = 0
        for _ in range(10):
            gcl = random_gcl(rng)
            table = mask_table(gcl)
            until = [open_time_oracle(table, tc) for tc in range(8)]
            for _ in range(300):
                t = gcl.base_time + rng.randrange(0, 3 * gcl.cycle_time_ns)
                phase = (t - gcl.base_time) % gcl.cycle_time_ns
                for tc in range(8):
                    if table[phase] >> tc & 1:
                        assert time_until_close(gcl, tc, t) == until[tc][phase]
                        checked += 1
        assert checked > 1000

    def test_totality_fuzz(self):
        # every time at or after base_time maps to exactly one entry
        rng = random.Random(7)
        gcl = random_gcl(rng)
        for _ in range(10 ** 6):
            t = gcl.base_time + rng.randrange(0, 10 ** 12)
            mask, remaining = gcl_state(gcl, t)
            assert 0 < remaining <= gcl.cycle_time_ns


class TestGclTables:
    """gcl_state, time_until_close and max_open_run read the per-entry and
    per-class tables a TaprioPort compiles from its GCL; every phase of small
    generated GCLs is checked against the per-nanosecond oracles."""

    @staticmethod
    def check_every_phase(gcl):
        table, left = mask_table(gcl), remaining_oracle(gcl)
        until = [open_time_oracle(table, tc) for tc in range(8)]
        for tc in range(8):
            assert max_open_run(gcl, tc) == max_open_run_oracle(table, tc)
        for cycle in (0, 3):
            for phase, mask in enumerate(table):
                t = gcl.base_time + cycle * gcl.cycle_time_ns + phase
                assert gcl_state(gcl, t) == (mask, left[phase])
                for tc in range(8):
                    if mask >> tc & 1:
                        assert time_until_close(gcl, tc, t) == until[tc][phase]

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.one_of(st.just(0), st.just(0xFF), st.integers(0, 255)),
                              st.integers(1, 40)), min_size=1, max_size=8),
           st.integers(0, 1000))
    def test_every_phase_matches_oracle(self, spec, base_time):
        entries = [GclEntry(m, d) for m, d in spec]
        self.check_every_phase(CyclicSchedule(base_time, sum(d for _, d in spec), entries))

    def test_single_entry(self):
        for mask in (0, 0x5A, 0xFF):
            gcl = CyclicSchedule(7, 50, [GclEntry(mask, 50)])
            self.check_every_phase(gcl)
            assert [max_open_run(gcl, tc) for tc in (0, 1)] == {
                0: [0, 0], 0x5A: [0, None], 0xFF: [None, None]}[mask]

    def test_never_open_class(self):
        gcl = CyclicSchedule(0, 30, [GclEntry(0x01, 10), GclEntry(0x03, 20)])
        self.check_every_phase(gcl)
        assert [max_open_run(gcl, tc) for tc in (0, 1, 2)] == [None, 20, 0]

    def test_run_wrapping_the_cycle_end(self):
        # class 2 is open in the last two entries and the first: 6 + 4 + 5
        gcl = CyclicSchedule(100, 30, [GclEntry(0x04, 5), GclEntry(0x01, 15),
                                       GclEntry(0x05, 6), GclEntry(0x04, 4)])
        self.check_every_phase(gcl)
        assert max_open_run(gcl, 2) == 15
        assert time_until_close(gcl, 2, 100 + 21) == 5 + 4 + 5
        assert time_until_close(gcl, 2, 100 + 30 + 2) == 3


def random_gcl(rng: random.Random, max_cycle_ns: int = 10 * US) -> CyclicSchedule:
    n = rng.randint(2, 8)
    cuts = sorted(rng.sample(range(1, max_cycle_ns), n - 1))
    durations = [b - a for a, b in zip([0] + cuts, cuts + [max_cycle_ns])]
    entries = [GclEntry(rng.randrange(0, 256), d) for d in durations]
    return CyclicSchedule(0, max_cycle_ns, entries)


class TestTaprioQueueing:
    def test_enqueue_empty(self):
        port = TaprioPort(capacity=8)
        f = Frame(id=1, size_bytes=64, priority=0)
        assert port.enqueue(f, 0) is None

    def test_enqueue_full_drops_newest(self):
        port = TaprioPort(capacity=8)
        for i in range(8):
            assert port.enqueue(Frame(id=i, size_bytes=64, priority=0), 0) is None
        assert port.enqueue(Frame(id=9, size_bytes=64, priority=0), 0) \
            == "taprio_full"
        assert port.drops["taprio_full"] == 1

    @pytest.mark.parametrize("capacity", [0, -1])
    def test_capacity_below_one_rejected(self, capacity):
        # an idle ungated port sends a frame that finds its queue empty
        # without enqueue, which a queue that holds nothing would drop
        with pytest.raises(ValueError, match="capacity"):
            TaprioPort(capacity=capacity)

    def test_fifo_within_class(self):
        port = TaprioPort()
        a = Frame(id=1, size_bytes=64, priority=0)
        b = Frame(id=2, size_bytes=64, priority=0)
        port.enqueue(a, 0)
        port.enqueue(b, 0)
        assert port.select(0) is a
        assert port.select(0) is b

    def test_higher_class_wins(self):
        gcl = CyclicSchedule(0, MS, [GclEntry(0xFF, MS)])
        port = TaprioPort(gcl=gcl)
        lo = Frame(id=1, size_bytes=64, priority=2)
        hi = Frame(id=2, size_bytes=64, priority=5)
        port.enqueue(lo, 0)
        port.enqueue(hi, 0)
        assert port.select(0) is hi

    def test_guard_fit_defers_to_next_window(self):
        # 1500 B @ 100 Mbps = 120 us does not fit 100 us remaining
        gcl = CyclicSchedule(0, 400 * US, [GclEntry(0x01, 200 * US),
                                           GclEntry(0x02, 200 * US)])
        port = TaprioPort(gcl=gcl, link_rate_bps=100_000_000)
        f = Frame(id=1, size_bytes=1500, priority=0)
        port.enqueue(f, 0)
        assert port.select(100 * US) is None
        assert port.select(400 * US) is f  # next window start

    def test_guard_none_transmits_regardless_of_fit(self):
        gcl = CyclicSchedule(0, 400 * US, [GclEntry(0x01, 200 * US),
                                           GclEntry(0x02, 200 * US)])
        port = TaprioPort(gcl=gcl, link_rate_bps=100_000_000, guard_mode="none")
        f = Frame(id=1, size_bytes=1500, priority=0)
        port.enqueue(f, 0)
        assert port.select(100 * US) is f

    def test_guard_none_drops_a_class_no_entry_opens_after_a_cycle(self):
        gcl = CyclicSchedule(0, 400 * US, [GclEntry(0x02, 400 * US)])
        port = TaprioPort(gcl=gcl, guard_mode="none")
        never = Frame(id=1, size_bytes=64, priority=0)
        opens = Frame(id=2, size_bytes=64, priority=1)
        port.enqueue(never, 0)
        assert port.select(399 * US) is None and port.count == 1
        port.enqueue(opens, 399 * US)
        assert port.select(400 * US) is opens
        assert port.select(400 * US) is None
        assert port.count == 0 and port.drops == {"taprio_oversize": 1}

    def test_closed_gate_blocks(self):
        gcl = CyclicSchedule(0, 400 * US, [GclEntry(0x01, 200 * US),
                                           GclEntry(0x02, 200 * US)])
        port = TaprioPort(gcl=gcl)
        f = Frame(id=1, size_bytes=64, priority=1)
        port.enqueue(f, 0)
        assert port.select(0) is None       # class 1 closed in entry 0
        assert port.select(200 * US) is f

    def test_oversize_frame_dropped_after_one_cycle(self):
        # 9000 B @ 100 Mbps = 720 us fits no 200 us window
        gcl = CyclicSchedule(0, 400 * US, [GclEntry(0x01, 200 * US),
                                           GclEntry(0x02, 200 * US)])
        port = TaprioPort(gcl=gcl, link_rate_bps=100_000_000)
        f = Frame(id=1, size_bytes=9000, priority=0)
        port.enqueue(f, 0)
        assert port.select(0) is None
        assert port.select(200 * US) is None
        assert port.select(400 * US) is None
        assert port.drops["taprio_oversize"] == 1
        assert port.count == 0

    def test_next_event_before_base_time_is_base_time(self):
        port = TaprioPort(gcl=CyclicSchedule(5 * US, MS, [GclEntry(0xFF, MS)]))
        port.enqueue(Frame(id=1, size_bytes=64, priority=0), 0)
        assert port.select(US) is None
        assert port.wake_time == 5 * US

    def test_ipv_overrides_class_queue(self):
        port = TaprioPort()
        f = Frame(id=1, size_bytes=64, priority=0, ipv=6)
        port.enqueue(f, 0)
        assert len(port.queues[6]) == 1


def wake(port):
    """When an EgressPort would kick port again, as it reads wake_time: only
    while frames are queued, and once a select has found a gate change."""
    return port.wake_time if port.count and port.wake_time != math.inf else None


class TestSelectAtAGateChange:
    """An EgressPort selects again at the wake_time the last select found, the
    gate change where the next entry starts. A select there must agree with a
    twin port whose last wake_time is cleared, and set wake_time to t plus the
    time left in the entry that holds t, as gcl_state finds it."""

    def test_matches_a_port_with_no_known_gate_change(self):
        rng = random.Random(1919)
        at_gate_changes = 0
        for n in range(150):
            gcl = random_gcl(rng)
            if n % 2:
                gcl = CyclicSchedule(rng.randrange(1, 3 * gcl.cycle_time_ns),
                                     gcl.cycle_time_ns, gcl.entries)
            guard = rng.choice(["fit", "none"])
            port, twin = (TaprioPort(gcl=gcl, capacity=3, guard_mode=guard)
                          for _ in range(2))
            t, fid = 0, 0
            for _ in range(80):
                for _ in range(rng.randrange(3)):
                    # 64-1500 B at 1 Gbps: 0.5-12 us against a 10 us cycle
                    f = Frame(id=fid, size_bytes=rng.choice([64, 300, 900, 1500]),
                              priority=rng.randrange(8))
                    assert port.enqueue(f, t) == twin.enqueue(f, t)
                    fid += 1
                nt = wake(port)
                if nt is not None and rng.random() < 0.7:
                    t = nt
                else:
                    t += rng.randrange(0, gcl.cycle_time_ns)
                at_gate_changes += port.count > 0 and t == port.wake_time
                twin.wake_time = math.inf  # the twin knows no gate change
                frame = port.select(t)
                assert frame is twin.select(t)
                assert port.drops == twin.drops and port.count == twin.count
                if not port.count:
                    assert wake(port) is None
                elif t < gcl.base_time:
                    assert frame is None and wake(port) == gcl.base_time
                else:
                    mask, left = gcl_state(gcl, t)
                    assert wake(port) == t + left
                    assert frame is None or mask >> frame.egress_class & 1
        assert at_gate_changes > 1000


class FormerTaprioPort(TaprioPort):
    """TaprioPort.enqueue and select as they were before the per-entry tables
    and the wire time fixed at enqueue: the reference of TestTableDrivenQueue.
    Queued items are (frame, enqueue time); the wire time is looked up at
    each select, and the class limits are an oversize mask and the runs.
    The GCL tables are compiled as the former GateControlList did: masks,
    and per entry each class's open time after it, None if it never closes."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        gcl = self.gcl
        if gcl is None:
            self.max_open_runs = None
        else:
            masks = self._masks = [e.gate_mask for e in gcl.entries]
            n, never_closed = len(masks), reduce(and_, masks)
            run, self._after = [0] * 8, [None] * n
            for j in range(2 * n - 1, -1, -1):
                if j < n:
                    self._after[j] = tuple(None if never_closed >> tc & 1 else r
                                           for tc, r in enumerate(run))
                d, m = gcl.entries[j % n].duration_ns, masks[j % n]
                run = [r + d if m >> tc & 1 else 0 for tc, r in enumerate(run)]
            self.max_open_runs = [
                None if self._after[0][tc] is None else max(
                    (e.duration_ns + a[tc] for e, a in zip(gcl.entries, self._after)
                     if e.gate_mask >> tc & 1), default=0)
                for tc in range(8)]
        self._fit = self.guard_mode == "fit"
        self._oversize = 0xFF if self._fit else sum(
            1 << tc for tc, run in enumerate(self.max_open_runs or ()) if run == 0)
        self._next, self._next_entry = None, 0

    def enqueue(self, frame, t):
        tc = frame.egress_class
        q = self.queues[tc]
        if len(q) >= self.capacity:
            self.drops["taprio_full"] += 1
            return "taprio_full"
        q.append((frame, t))
        self.count += 1
        self._occupied |= 1 << tc
        return None

    def select(self, t, classes=None):
        occupied, gcl = self._occupied, self.gcl
        if not occupied:
            return None
        if gcl is None:
            mask, fit, oversize = 0xFF, False, 0
        elif t < gcl.base_time:
            self._next, self._next_entry = gcl.base_time, 0
            return None
        else:
            if t == self._next:
                i, phase = self._next_entry, gcl._starts[self._next_entry]
            else:
                phase = (t - gcl.base_time) % gcl.cycle_time_ns
                i = bisect_right(gcl._starts, phase) - 1
            mask, left, after = self._masks[i], gcl._ends[i] - phase, self._after[i]
            self._next, self._next_entry = t + left, (
                i + 1 if gcl._ends[i] < gcl.cycle_time_ns else 0)
            fit, oversize = self._fit, self._oversize
        while occupied:
            tc = occupied.bit_length() - 1
            bit = 1 << tc
            occupied ^= bit
            if classes is not None and tc not in classes:
                continue
            q = self.queues[tc]
            while q:
                frame, enq_t = q[0]
                if oversize & bit:
                    tt, max_run = self._tt[frame.size_bytes], self.max_open_runs[tc]
                    if (max_run is not None and tt > max_run
                            and t - enq_t >= gcl.cycle_time_ns):
                        q.popleft()
                        self.count -= 1
                        if not q:
                            self._occupied ^= bit
                        self.drops["taprio_oversize"] += 1
                        continue
                if not mask & bit:
                    break
                if fit and after[tc] is not None and tt > left + after[tc]:
                    break
                q.popleft()
                self.count -= 1
                if not q:
                    self._occupied ^= bit
                return frame
        return None

    def next_event_time(self, t):
        return self._next if self.count else None


class TestTableDrivenQueue:
    """The per-entry tables and the wire time fixed at enqueue must give the
    frames, drops, counts and wake times of the former queue. At 8 Gbps a
    byte is a nanosecond on the wire, so 1-40 B frames against 60 ns cycles
    often end exactly at a gate close, and often fit no window of their class."""

    RATE = 8 * 10 ** 9

    def test_matches_the_former_queue(self):
        rng = random.Random(2323)
        seen = Counter()
        for n in range(400):
            gcl = random_gcl(rng, max_cycle_ns=60)
            if n % 3 == 0:  # one class that no entry opens
                shut = ~(1 << rng.randrange(8))
                gcl = CyclicSchedule(0, 60, [GclEntry(e.gate_mask & shut, e.duration_ns)
                                            for e in gcl.entries])
            if n % 2:
                gcl = CyclicSchedule(rng.randrange(1, 180), 60, gcl.entries)
            kwargs = dict(gcl=None if n % 25 == 0 else gcl, capacity=rng.randint(1, 3),
                          guard_mode=("fit", "none")[n // 2 % 2],
                          link_rate_bps=self.RATE, overhead_bytes=rng.choice([0, 2]))
            port, former = TaprioPort(**kwargs), FormerTaprioPort(**kwargs)
            t = 0
            for fid in range(150):
                if rng.random() < 0.5:
                    f = Frame(id=fid, size_bytes=rng.randint(1, 40),
                              priority=rng.randrange(8),
                              ipv=rng.choice([None, None, rng.randrange(8)]))
                    result = port.enqueue(f, t)
                    assert result == former.enqueue(f, t)
                    seen[result] += 1
                else:
                    classes = rng.choice([None, None, {7}, {0, 1, 2, 3}])
                    frame = port.select(t, classes)
                    assert frame is former.select(t, classes)
                    seen["sent" if frame else "idle", classes is None] += 1
                assert port.drops == former.drops and port.count == former.count
                nt = wake(port)
                assert nt == former.next_event_time(t)
                t = nt if nt is not None and rng.random() < 0.3 else t + rng.randrange(4)
            seen.update(port.drops)
        assert all(seen[k] for k in (None, "taprio_full", "taprio_oversize",
                                     ("sent", True), ("sent", False), ("idle", False)))


class TestGateConformance:
    """Fuzzed 802.1Qbv runs: no wire interval overlaps a closed window."""

    @staticmethod
    def run_port(gcl, frames, rate=10 ** 9, until=20 * MS):
        eng = Engine()
        wires = []
        taprio = TaprioPort(gcl=gcl, link_rate_bps=rate)
        port = EgressPort(eng, rate, queue=taprio,
                          deliver=lambda f, e: wires.append((f, f.hw_tx, e)))
        for t, f in frames:
            eng.schedule(t, port.submit, f)
        run_until(eng, until)
        return wires

    def test_fuzzed_gate_conformance(self):
        rng = random.Random(2024)
        checked_frames = 0
        for scenario in range(100):
            gcl = random_gcl(rng)
            table = mask_table(gcl)
            rate = 10 ** 9
            frames = []
            for i in range(rng.randint(3, 12)):
                f = Frame(id=i, size_bytes=rng.randint(64, 500),
                          priority=rng.randrange(8))
                frames.append((rng.randrange(0, 4 * gcl.cycle_time_ns), f))
            wires = self.run_port(gcl, frames)
            for f, start, end in wires:
                bit = 1 << f.egress_class
                for t in range(start, end):
                    phase = t % gcl.cycle_time_ns
                    assert table[phase] & bit, \
                        f"scenario {scenario}: frame {f.id} on wire in closed window"
                checked_frames += 1
        assert checked_frames > 100


class CountedTaprioPort(TaprioPort):
    """A TaprioPort that checks its running count and occupied classes after
    every enqueue and select, and counts its enqueue calls."""

    enqueues = 0

    def check(self):
        assert self.count == sum(len(q) for q in self.queues)
        assert self._occupied == sum(1 << tc for tc, q in enumerate(self.queues) if q)

    def enqueue(self, frame, t):
        self.enqueues += 1
        result = super().enqueue(frame, t)
        self.check()
        return result

    def select(self, t, classes=None):
        frame = super().select(t, classes)
        self.check()
        return frame


class TestPendingCount:
    def test_count_matches_queues_over_generated_gcls(self):
        # 1 Gbps frames of up to 1500 B outlast many 10 us GCL windows, so
        # oversize drops happen; capacity 3 forces queue-full drops
        rng = random.Random(404)
        seen = Counter()
        for _ in range(100):
            port = CountedTaprioPort(gcl=random_gcl(rng), capacity=3)
            t = 0
            for i in range(60):
                t += rng.randrange(0, 4 * US)
                if rng.random() < 0.6:
                    f = Frame(id=i, size_bytes=rng.choice([64, 200, 1500]),
                              priority=rng.randrange(8))
                    seen["enqueue", port.enqueue(f, t)] += 1
                else:
                    classes = rng.choice([None, {7}, {0, 1, 2, 3}])
                    frame = port.select(t, classes)
                    if frame is None and classes is None and port.count:
                        # the next gate change, as select found it
                        assert port.wake_time == t + gcl_state(port.gcl, t)[1]
                    seen["sent" if frame else "idle"] += 1
            seen.update(port.drops)
        assert all(seen[k] for k in (("enqueue", None), ("enqueue", "taprio_full"),
                                     "taprio_full", "taprio_oversize", "sent", "idle"))

    def test_count_matches_queues_through_preempting_port(self):
        # express frames that find no legal fragment boundary, or a split
        # already pending, go back through enqueue in _do_preempt
        rng = random.Random(77)
        rate = 100_000_000
        pcfg = PreemptionConfig(enabled=True, express_classes=frozenset({7}))
        requeued = 0
        for _ in range(30):
            eng = Engine()
            taprio = CountedTaprioPort(link_rate_bps=rate, capacity=4)
            port = EgressPort(eng, rate, queue=taprio,
                              preemption=pcfg, deliver=lambda f, e: None)
            do_preempt = port._do_preempt

            def counting_preempt(express, t, do_preempt=do_preempt, q=taprio.queues[7]):
                nonlocal requeued
                before = len(q)
                do_preempt(express, t)
                requeued += len(q) - before

            port._do_preempt = counting_preempt
            for i in range(25):
                f = Frame(id=i, size_bytes=rng.choice([64, 300, 1500]),
                          priority=rng.choice([0, 3, 7]))
                eng.schedule(rng.randrange(0, 500 * US), port.submit, f)
            eng.run_all()
            taprio.check()
            assert taprio.count == 0
        assert requeued


class TestIdleBypass:
    """An idle port sends a frame that finds its ungated queue empty straight
    to the wire; a port whose queue has an always-open GCL never does, and
    must give the same wire times and drops."""

    RATE = 100_000_000  # a 1,500 B frame is 120 us on the wire

    def run_port(self, arrivals, gcl, capacity, preemption, precision):
        eng = Engine()
        wires = []
        taprio = CountedTaprioPort(gcl=gcl, capacity=capacity, link_rate_bps=self.RATE)

        def deliver(frame, end):
            wires.append((frame.id, frame.hw_tx, end))
            echo = arrivals[frame.id][3] if frame.id < len(arrivals) else None
            if echo is not None:
                # deliver is called when the transmission commits; the echo
                # runs at its end, after its finish would, so it finds the
                # wire free or taken by a frame that waited behind it
                eng.schedule(end, port.submit, Frame(id=frame.id + len(arrivals),
                                                     size_bytes=frame.size_bytes,
                                                     priority=echo))

        port = EgressPort(eng, self.RATE, queue=taprio, preemption=preemption,
                          hw_precision=precision, rng=random.Random(5), deliver=deliver)
        t = 0
        for i, (gap, size, priority, _) in enumerate(arrivals):
            t += gap
            eng.schedule(t, port.submit, Frame(id=i, size_bytes=size, priority=priority))
        eng.run_all()
        return wires, taprio.drops, taprio.enqueues

    def run_wire_end(self, gated, classes, preemption=None):
        """(id, hw_tx, end) of frame 0 at 0 and frames 1 and 2, of the given
        classes, handed over at frame 0's end. They are scheduled before frame
        0 starts, so at that instant they run before any event of frame 0's."""
        eng = Engine()
        wires = []
        gcl = CyclicSchedule(0, MS, [GclEntry(0xFF, MS)]) if gated else None
        port = EgressPort(eng, self.RATE, queue=TaprioPort(gcl=gcl, link_rate_bps=self.RATE),
                          preemption=preemption,
                          deliver=lambda f, e: wires.append((f.id, f.hw_tx, e)))
        end = transmission_time(1500, self.RATE)
        for fid, t, priority in [(0, 0, 0), (1, end, classes[0]), (2, end, classes[1])]:
            eng.schedule(t, port.submit, Frame(id=fid, size_bytes=1500, priority=priority))
        eng.run_all()
        return wires, end

    @pytest.mark.parametrize("gated", [False, True], ids=["ungated", "always_open"])
    def test_arrivals_at_the_wire_end_find_it_free(self, gated):
        # frame 0 has no event at its end: frame 1 (class 1) finds the wire
        # free and starts, and frame 2 (class 6) queues behind it
        wires, end = self.run_wire_end(gated, (1, 6))
        assert [w[:2] for w in wires] == [(0, 0), (1, end), (2, 2 * end)]

    @pytest.mark.parametrize("gated", [False, True], ids=["ungated", "always_open"])
    def test_arrivals_at_a_preemptable_end_wait_for_its_finish(self, gated):
        # preemptable frame 0 holds the wire until its finish has run: frame 1
        # (class 0) queues, express frame 2 (class 6) cannot cut a frame with
        # nothing left to send and queues too, and the higher class goes first
        wires, end = self.run_wire_end(
            gated, (0, 6), PreemptionConfig(enabled=True, express_classes=frozenset({6})))
        assert wires == [(0, 0, end), (2, end, 2 * end), (1, 2 * end, 3 * end)]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 200 * US), st.integers(64, 1522),
                              st.integers(0, 7), st.sampled_from([None, 0, 7])),
                    min_size=1, max_size=30),
           st.integers(1, 4), st.booleans(), st.booleans())
    def test_matches_port_through_enqueue_and_select(self, arrivals, capacity,
                                                     preempt, precise):
        preemption = PreemptionConfig(enabled=preempt, express_classes=frozenset({7}))
        precision = JitterDist.uniform(0, 3 * US) if precise else None
        always_open = CyclicSchedule(0, MS, [GclEntry(0xFF, MS)])
        ungated = self.run_port(arrivals, None, capacity, preemption, precision)
        gated = self.run_port(arrivals, always_open, capacity, preemption, precision)
        assert ungated[:2] == gated[:2]
        # the first frame finds the port idle, and only the ungated port
        # sends it without enqueue
        assert ungated[2] < gated[2]


class TestTiedHandOvers:
    """A seeded single-port fuzz with ties made likely: at 100 Mb/s, frames of
    64 to 1,472 B in 64 B steps, so each wire time is a multiple of 5,120 ns,
    are handed over on a 5,120 ns grid to an ungated, always-open or gated
    port. Frames handed over at a wire end then meet its end, finish or switch."""

    RATE = 100_000_000
    GRID = transmission_time(64, RATE)
    SEEDS = 2_000

    def run_seed(self, seed, preempt):
        """(frames handed over, {id: (size, hw_tx, end)} of each delivery,
        frames dropped, whether a frame was handed over at a wire end)."""
        rng = random.Random(seed)
        gcl = rng.choice([None, CyclicSchedule(0, MS, [GclEntry(0xFF, MS)]), CyclicSchedule(
            0, 3 * 30 * self.GRID, [GclEntry(rng.randrange(1, 256), 30 * self.GRID)
                                    for _ in range(3)])])
        taprio = TaprioPort(gcl=gcl, capacity=rng.randint(1, 4), link_rate_bps=self.RATE)
        eng = CappedEngine()
        delivered = {}

        def deliver(frame, end):
            assert frame.id not in delivered, (seed, frame.id)
            delivered[frame.id] = (frame.size_bytes, frame.hw_tx, end)

        port = EgressPort(eng, self.RATE, queue=taprio, deliver=deliver, preemption=
                          PreemptionConfig(enabled=preempt, express_classes=frozenset({6})))
        times = [rng.randrange(16) * self.GRID for _ in range(rng.randint(2, 16))]
        for fid, t in enumerate(times):
            eng.schedule(t, port.submit, Frame(id=fid, size_bytes=64 * rng.randint(1, 23),
                                               priority=rng.choice([0, 1, 6])))
        eng.run_all()
        ends = {end for _, _, end in delivered.values()}
        return len(times), delivered, sum(taprio.drops.values()), not ends.isdisjoint(times)

    @pytest.mark.parametrize("preempt", [False, True], ids=["plain", "preemptive"])
    def test_each_frame_leaves_once_and_unpreempted_frames_never_overlap(self, preempt):
        tied = 0
        for seed in range(self.SEEDS):
            count, delivered, dropped, at_an_end = self.run_seed(seed, preempt)
            tied += at_an_end
            assert len(delivered) + dropped == count, seed
            # a preempted frame spans the express frames that cut it
            whole = sorted((start, end) for size, start, end in delivered.values()
                           if end - start == transmission_time(size, self.RATE))
            assert all(a[1] <= b[0] for a, b in zip(whole, whole[1:])), seed
        assert tied > self.SEEDS // 5, tied
