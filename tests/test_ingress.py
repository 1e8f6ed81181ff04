"""Per-stream filtering and policing, cross-checked by a 1 ns oracle."""

import random

import pytest

from tsnsim.core import CyclicSchedule, Engine, ScheduleError
from tsnsim.egress import EgressPort, TaprioPort, WireTimes
from tsnsim.ingress import (DROP_CLOSED_GATE, DROP_OCTET_BUDGET, PASS,
                            StreamGate, StreamGateEntry)
from tsnsim.network import BridgeNode
from tsnsim.traffic import Frame

US = 1000
MS = 1000 * US


def frame(size=1000, fid=1, priority=0):
    return Frame(id=fid, size_bytes=size, priority=priority)


def open_close_gate(cycle=MS, open_ns=500 * US, **kw):
    return StreamGate(CyclicSchedule(0, cycle, [
        StreamGateEntry(open=True, duration_ns=open_ns, **kw),
        StreamGateEntry(open=False, duration_ns=cycle - open_ns)]))


def bridge_drops(gate, arrivals):
    """BridgeNode.drops once frames of (size, t) reach a bridge with gate."""
    eng = Engine()
    wire = WireTimes(10 ** 9)
    port = EgressPort(eng, wire, queue=TaprioPort(wire=wire),
                      deliver=lambda f, arrival: None)
    br = BridgeNode(eng, "br", port, gates={None: gate})
    for size, t in arrivals:
        br.receive(frame(size), t)
    return br.drops


class TestSchedule:
    def test_open_window_passes(self):
        g = open_close_gate()
        assert g.process(frame(), 100 * US).outcome == PASS

    def test_closed_window_drops(self):
        g = open_close_gate()
        assert g.process(frame(), 700 * US).outcome == DROP_CLOSED_GATE
        assert bridge_drops(open_close_gate(), [(1000, 700 * US)])[DROP_CLOSED_GATE] == 1

    def test_boundary_belongs_to_next_window(self):
        g = open_close_gate()
        assert g.process(frame(), 500 * US).outcome == DROP_CLOSED_GATE
        assert g.process(frame(), MS).outcome == PASS

    def test_closed_before_base_time(self):
        g = StreamGate(CyclicSchedule(1000, MS, [StreamGateEntry(True, MS)]))
        assert g.process(frame(), 999).outcome == DROP_CLOSED_GATE
        assert g.process(frame(), 1000).outcome == PASS
        gate = StreamGate(CyclicSchedule(1000, MS, [StreamGateEntry(True, MS)]))
        assert bridge_drops(gate, [(1000, 0), (1000, 999)]) == {DROP_CLOSED_GATE: 2}

    def test_bad_schedules_rejected(self):
        with pytest.raises(ScheduleError):
            StreamGate(CyclicSchedule(0, MS, []))
        with pytest.raises(ScheduleError):
            StreamGate(CyclicSchedule(0, MS, [StreamGateEntry(True, MS - 1)]))
        with pytest.raises(ScheduleError):
            StreamGate(CyclicSchedule(0, MS, [StreamGateEntry(True, MS),
                                              StreamGateEntry(False, 0)]))


class TestOctetBudget:
    def test_budget_example_third_frame_dropped(self):
        # 2000 B budget, three 1000 B frames in one window
        g = open_close_gate(max_octets=2000)
        outcomes = [g.process(frame(1000), t).outcome
                    for t in (10 * US, 20 * US, 30 * US)]
        assert outcomes == [PASS, PASS, DROP_OCTET_BUDGET]
        drops = bridge_drops(open_close_gate(max_octets=2000),
                             [(1000, t) for t in (10 * US, 20 * US, 30 * US)])
        assert drops[DROP_OCTET_BUDGET] == 1

    def test_drop_does_not_consume_budget(self):
        g = open_close_gate(max_octets=2000)
        g.process(frame(1500), 10 * US)
        assert g.process(frame(1500), 20 * US).outcome == DROP_OCTET_BUDGET
        # 500 B still available to a smaller frame
        assert g.process(frame(500), 30 * US).outcome == PASS

    def test_budget_resets_per_window_occurrence(self):
        g = open_close_gate(max_octets=1000)
        assert g.process(frame(1000), 0).outcome == PASS
        assert g.process(frame(1000), 1).outcome == DROP_OCTET_BUDGET
        # next cycle's open window gets a fresh budget
        assert g.process(frame(1000), MS).outcome == PASS

    def test_closed_gate_checked_before_budget(self):
        g = open_close_gate(max_octets=0)
        assert g.process(frame(), 700 * US).outcome == DROP_CLOSED_GATE


class TestIpv:
    def test_ipv_assigned_on_pass(self):
        g = open_close_gate(ipv=5)
        f = frame(priority=2)
        d = g.process(f, 0)
        assert d.outcome == PASS and f.ipv == 5
        assert f.egress_class == 5

    def test_ipv_is_metadata_only(self):
        f = frame(priority=2)
        assert open_close_gate(ipv=6).process(f, 0).outcome == PASS
        assert f.ipv == 6
        assert f.size_bytes == 1000
        assert f.priority == 2

    @pytest.mark.parametrize("ipv", [-1, 8])
    def test_entry_ipv_out_of_range_rejected_at_construction(self, ipv):
        # process then sets frame.ipv without checking it again
        with pytest.raises(ValueError, match="ipv"):
            StreamGateEntry(open=True, duration_ns=MS, ipv=ipv)

    def test_no_ipv_leaves_frame_untouched(self):
        g = open_close_gate()
        f = frame(priority=3)
        assert g.process(f, 0).outcome == PASS
        assert f.ipv is None and f.egress_class == 3

    def test_decisions_are_shared(self):
        # decisions are frozen, so every gate returns the same instances
        a, b = open_close_gate(ipv=5), open_close_gate(ipv=5)
        assert a.process(frame(), 0) is b.process(frame(), 100 * US)
        assert a.process(frame(), 600 * US) is b.process(frame(), 700 * US)


def random_windows(rng):
    cycle = rng.choice([10 * US, 40 * US, 100 * US])
    n = rng.randint(2, 5)
    cuts = sorted(rng.sample(range(1, cycle), n - 1))
    durations = [b - a for a, b in zip([0] + cuts, cuts + [cycle])]
    entries = [StreamGateEntry(open=rng.random() < 0.6, duration_ns=d,
                               max_octets=rng.choice([None, 1500, 4000]))
               for d in durations]
    return CyclicSchedule(0, cycle, entries)


def oracle_open_table(windows):
    """Per-nanosecond (open, entry index) table over one cycle."""
    table = []
    for i, e in enumerate(windows.entries):
        table.extend([(e.open, i)] * e.duration_ns)
    return table


class TestOracleFuzz:
    def test_closed_gate_decisions_match_table(self):
        rng = random.Random(404)
        for _ in range(30):
            windows = random_windows(rng)
            gate, table = StreamGate(windows), oracle_open_table(windows)
            budgets = {}
            times = sorted(rng.randrange(0, 5 * gate.cycle_time_ns)
                           for _ in range(400))
            for k, t in enumerate(times):
                size = rng.randint(64, 1500)
                is_open, idx = table[t % gate.cycle_time_ns]
                window = (t // gate.cycle_time_ns, idx)
                d = gate.process(frame(size, fid=k), t)
                if not is_open:
                    assert d.outcome == DROP_CLOSED_GATE
                    continue
                cap = windows.entries[idx].max_octets
                used = budgets.get(window, 0)
                if cap is not None and used + size > cap:
                    assert d.outcome == DROP_OCTET_BUDGET
                else:
                    assert d.outcome == PASS
                    budgets[window] = used + size
