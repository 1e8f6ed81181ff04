"""Gate-control-list semantics checked against a 1 ns time-stepped oracle."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsnsim.core import Engine
from tsnsim.egress import (BeforeBaseTimeError, EgressPort, GateControlList,
                           GclEntry, GclError, TaprioPort)
from tsnsim.traffic import Frame, transmission_time

US = 1000
MS = 1000 * US


def mask_table(gcl: GateControlList) -> list:
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


class TestGclState:
    def test_single_entry_always_open(self):
        gcl = GateControlList(0, MS, [GclEntry(0xFF, MS)])
        for t in (0, 1, 999, MS, 5 * MS + 123):
            assert gcl.state(t)[0] == 0xFF

    def test_two_entry_example(self):
        gcl = GateControlList(0, 500 * US, [GclEntry(0x01, 250 * US),
                                            GclEntry(0x02, 250 * US)])
        mask, remaining = gcl.state(300 * US)
        assert mask == 0x02 and remaining == 200 * US

    def test_cycle_boundary_uses_first_entry(self):
        gcl = GateControlList(0, 500 * US, [GclEntry(0x01, 250 * US),
                                            GclEntry(0x02, 250 * US)])
        for k in range(4):
            mask, remaining = gcl.state(k * 500 * US)
            assert mask == 0x01 and remaining == 250 * US

    def test_before_base_time_rejected(self):
        gcl = GateControlList(1000, MS, [GclEntry(0xFF, MS)])
        with pytest.raises(BeforeBaseTimeError):
            gcl.state(999)

    def test_durations_must_sum_to_cycle(self):
        with pytest.raises(GclError):
            GateControlList(0, MS, [GclEntry(0xFF, MS - 1)])
        with pytest.raises(GclError):
            GateControlList(0, MS, [])
        with pytest.raises(GclError):
            GateControlList(0, MS, [GclEntry(0xFF, MS), GclEntry(0, 0)])

    def test_matches_time_stepped_oracle(self):
        rng = random.Random(101)
        for _ in range(10):
            gcl = random_gcl(rng)
            table = mask_table(gcl)
            for _ in range(500):
                t = gcl.base_time + rng.randrange(0, 3 * gcl.cycle_time_ns)
                mask, remaining = gcl.state(t)
                phase = (t - gcl.base_time) % gcl.cycle_time_ns
                assert mask == table[phase]
                # remaining time: the mask entry stays the same until then
                assert all(table[(phase + d) % gcl.cycle_time_ns] == table[phase]
                           for d in range(min(remaining, 64)))
            # the per-class runs a port stores equal a fresh scan
            port = TaprioPort(gcl=gcl)
            for tc in range(8):
                expected = max_open_run_oracle(table, tc)
                assert gcl.max_open_run(tc) == expected
                assert port.max_open_runs[tc] == expected

    def test_totality_fuzz(self):
        # every time at or after base_time maps to exactly one entry
        rng = random.Random(7)
        gcl = random_gcl(rng)
        for _ in range(10 ** 6):
            t = gcl.base_time + rng.randrange(0, 10 ** 12)
            mask, remaining = gcl.state(t)
            assert 0 < remaining <= gcl.cycle_time_ns


def random_gcl(rng: random.Random, max_cycle_ns: int = 10 * US) -> GateControlList:
    n = rng.randint(2, 8)
    cuts = sorted(rng.sample(range(1, max_cycle_ns), n - 1))
    durations = [b - a for a, b in zip([0] + cuts, cuts + [max_cycle_ns])]
    entries = [GclEntry(rng.randrange(0, 256), d) for d in durations]
    return GateControlList(0, max_cycle_ns, entries)


class TestTaprioQueueing:
    def test_enqueue_empty(self):
        port = TaprioPort(capacity=8)
        f = Frame(id=1, size_bytes=64, priority=0)
        assert port.enqueue(f, 0) == TaprioPort.QUEUED

    def test_enqueue_full_drops_newest(self):
        port = TaprioPort(capacity=8)
        for i in range(8):
            assert port.enqueue(Frame(id=i, size_bytes=64, priority=0), 0) \
                == TaprioPort.QUEUED
        assert port.enqueue(Frame(id=9, size_bytes=64, priority=0), 0) \
            == TaprioPort.DROPPED_FULL
        assert port.drops["taprio_full"] == 1

    def test_fifo_within_class(self):
        port = TaprioPort()
        a = Frame(id=1, size_bytes=64, priority=0)
        b = Frame(id=2, size_bytes=64, priority=0)
        port.enqueue(a, 0)
        port.enqueue(b, 0)
        assert port.select(0) is a
        assert port.select(0) is b

    def test_higher_class_wins(self):
        gcl = GateControlList(0, MS, [GclEntry(0xFF, MS)])
        port = TaprioPort(gcl=gcl)
        lo = Frame(id=1, size_bytes=64, priority=2)
        hi = Frame(id=2, size_bytes=64, priority=5)
        port.enqueue(lo, 0)
        port.enqueue(hi, 0)
        assert port.select(0) is hi

    def test_guard_fit_defers_to_next_window(self):
        # 1500 B @ 100 Mbps = 120 us does not fit 100 us remaining
        gcl = GateControlList(0, 400 * US, [GclEntry(0x01, 200 * US),
                                            GclEntry(0x02, 200 * US)])
        port = TaprioPort(gcl=gcl, link_rate_bps=100_000_000)
        f = Frame(id=1, size_bytes=1500, priority=0)
        port.enqueue(f, 0)
        assert port.select(100 * US) is None
        assert port.select(400 * US) is f  # next window start

    def test_guard_none_transmits_regardless_of_fit(self):
        gcl = GateControlList(0, 400 * US, [GclEntry(0x01, 200 * US),
                                            GclEntry(0x02, 200 * US)])
        port = TaprioPort(gcl=gcl, link_rate_bps=100_000_000, guard_mode="none")
        f = Frame(id=1, size_bytes=1500, priority=0)
        port.enqueue(f, 0)
        assert port.select(100 * US) is f

    def test_closed_gate_blocks(self):
        gcl = GateControlList(0, 400 * US, [GclEntry(0x01, 200 * US),
                                            GclEntry(0x02, 200 * US)])
        port = TaprioPort(gcl=gcl)
        f = Frame(id=1, size_bytes=64, priority=1)
        port.enqueue(f, 0)
        assert port.select(0) is None       # class 1 closed in entry 0
        assert port.select(200 * US) is f

    def test_oversize_frame_dropped_after_one_cycle(self):
        # 9000 B @ 100 Mbps = 720 us fits no 200 us window
        gcl = GateControlList(0, 400 * US, [GclEntry(0x01, 200 * US),
                                            GclEntry(0x02, 200 * US)])
        port = TaprioPort(gcl=gcl, link_rate_bps=100_000_000)
        f = Frame(id=1, size_bytes=9000, priority=0)
        port.enqueue(f, 0)
        assert port.select(0) is None
        assert port.select(200 * US) is None
        assert port.select(400 * US) is None
        assert port.drops["taprio_oversize"] == 1
        assert port.pending() == 0

    def test_ipv_overrides_class_queue(self):
        port = TaprioPort()
        f = Frame(id=1, size_bytes=64, priority=0, ipv=6)
        port.enqueue(f, 0)
        assert len(port.queues[6]) == 1


class TestGateConformance:
    """Fuzzed 802.1Qbv runs: no wire interval overlaps a closed window."""

    @staticmethod
    def run_port(gcl, frames, rate=10 ** 9, until=20 * MS):
        eng = Engine()
        wires = []
        taprio = TaprioPort(gcl=gcl, link_rate_bps=rate)
        port = EgressPort(eng, rate, scheme="taprio", taprio=taprio,
                          deliver=lambda f, s, e: wires.append((f, s, e)))
        for t, f in frames:
            eng.schedule(t, lambda f=f: port.submit(f, eng.now))
        eng.run_until(until)
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
