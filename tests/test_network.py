"""Links, bridges, and cyclic queuing/forwarding (CQF)."""

import random

import pytest

from tsnsim.core import CONSTANT_ZERO, Engine
from tsnsim.egress import EgressPort, TaprioPort, WireTimes
from tsnsim.ingress import DROP_NO_STREAM, StreamGate
from tsnsim.network import (FORWARDING_PRESETS, BridgeNode, CqfConfig,
                            ZeroHopsError, cqf_compose, cqf_latency_bound)
from tsnsim.harness import compute_offsets, run_scenario
from tsnsim.scenario import ConfigError, parse_scenario
from tsnsim.traffic import Frame, StreamKey

from helpers import make_stream_rules

US = 1000
MS = 1000 * US
KEY = StreamKey(dest_mac=1, vlan_id=1, pcp=0)


def parse_link(**link):
    return parse_scenario({
        "nodes": [{"name": "t", "role": "talker"}, {"name": "l", "role": "listener"}],
        "links": [{"from": "t", "to": "l", **link}],
        "traffic": {}, "run": {}})


class TestLink:
    def test_fields(self):
        link = parse_link(rate_bps=10 ** 9, propagation_ns=500).path[0].link
        assert link.rate_bps == 10 ** 9 and link.propagation_ns == 500

    def test_zero_rate_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_link(rate_bps=0)
        assert err.value.problems == ["links[0].rate_bps: must be >= 1, got 0"]


class TestForwardingPresets:
    def test_presets_exist(self):
        assert {"zero", "xdp", "af_xdp", "linux_bridge"} <= \
            set(FORWARDING_PRESETS)

    def test_zero_preset_is_zero(self):
        assert FORWARDING_PRESETS["zero"].sample(None) == 0

    def test_median_ordering(self):
        rng = random.Random(1)
        medians = {}
        for name in ("xdp", "af_xdp", "linux_bridge"):
            samples = sorted(FORWARDING_PRESETS[name].sample(rng)
                             for _ in range(4001))
            medians[name] = samples[2000]
        assert medians["xdp"] < medians["af_xdp"] < medians["linux_bridge"]


def make_bridge(engine, out, *, gates=None, rules=None,
                forwarding=CONSTANT_ZERO, rng=None, gcl=None):
    wire = WireTimes(10 ** 9)
    port = EgressPort(engine, wire, queue=TaprioPort(gcl=gcl, wire=wire),
                      deliver=lambda f, e: out.append((f, f.hw_tx, e)))
    return BridgeNode(engine, "br", port, stream_rules=rules, gates=gates,
                      forwarding_latency=forwarding, rng=rng)


class TestBridgeForwarding:
    def test_zero_latency_forward(self):
        eng = Engine()
        out = []
        br = make_bridge(eng, out)
        br.receive(Frame(id=1, size_bytes=64, priority=0), 100)
        eng.run_all()
        assert out[0][1:] == (100, 100 + 512)

    def test_constant_forwarding_delay(self):
        from tsnsim.core import JitterDist
        eng = Engine()
        out = []
        br = make_bridge(eng, out, forwarding=JitterDist.constant(250))
        br.receive(Frame(id=1, size_bytes=64, priority=0), 100)
        eng.run_all()
        assert out[0][1] == 350

    def test_unidentified_stream_dropped(self):
        eng = Engine()
        out = []
        rules = make_stream_rules([{"vlan_id": 99, "handle": "s0"}])
        br = make_bridge(eng, out, rules=rules)
        br.receive(Frame(id=1, size_bytes=64, priority=0, stream=KEY), 0)
        eng.run_all()
        assert out == [] and br.drops[DROP_NO_STREAM] == 1

    def test_fifo_preserved(self):
        eng = Engine()
        out = []
        br = make_bridge(eng, out)
        for i in range(5):
            br.receive(Frame(id=i, size_bytes=64, priority=0), 100 + i)
        eng.run_all()
        assert [f.id for f, _, _ in out] == [0, 1, 2, 3, 4]

    def test_a_frame_never_overtakes_the_one_before(self):
        # fire_k = max(t_k + d_k, fire_{k-1}): frame 1 draws no delay but
        # waits for frame 0's hand-over; frame 2 comes after both
        class Draws:
            def __init__(self, *values):
                self.values = iter(values)

            def sample(self, rng):
                return next(self.values)

        eng = Engine()
        out = []
        br = make_bridge(eng, out, forwarding=Draws(5_000, 0, 100))
        for i, t in enumerate((100, 600, 20_000)):
            eng.schedule(t, br.receive, Frame(id=i, size_bytes=64, priority=0), t)
        eng.run_all()
        assert [(f.id, hw_tx) for f, hw_tx, _ in out] == [(0, 5_100), (1, 5_100 + 512),
                                                         (2, 20_100)]

    def test_zero_jitter_presets_equivalent_timing(self):
        # with the preset replaced by its own constant median, the three
        # software paths differ only by that constant
        from tsnsim.core import JitterDist
        ends = {}
        for name, delay in (("xdp", 1500), ("af_xdp", 2000),
                            ("linux_bridge", 3000)):
            eng = Engine()
            out = []
            br = make_bridge(eng, out, forwarding=JitterDist.constant(delay))
            br.receive(Frame(id=1, size_bytes=64, priority=0), 0)
            eng.run_all()
            ends[name] = out[0][2]
        assert ends["af_xdp"] - ends["xdp"] == 500
        assert ends["linux_bridge"] - ends["xdp"] == 1500


class TestCqfCompose:
    CFG = CqfConfig(cycle_time_ns=100 * US, ipv_even=5, ipv_odd=6)

    def test_ingress_alternates_ipvs(self):
        ingress, _ = cqf_compose(self.CFG)
        assert ingress.cycle_time_ns == 200 * US
        assert [e.open for e in ingress.entries] == [True, True]
        assert [e.ipv for e in ingress.entries] == [5, 6]

    def test_egress_masks_collecting_ipv(self):
        _, egress = cqf_compose(self.CFG)
        assert egress.cycle_time_ns == 200 * US
        first, second = egress.entries
        assert not first.gate_mask & (1 << 5)
        assert first.gate_mask & (1 << 6)
        assert not second.gate_mask & (1 << 6)
        assert second.gate_mask & (1 << 5)
        # best-effort classes stay open in both entries
        for cls in range(8):
            if cls in (5, 6):
                continue
            assert first.gate_mask & (1 << cls)
            assert second.gate_mask & (1 << cls)

    def test_same_ipvs_rejected(self):
        with pytest.raises(ValueError):
            cqf_compose(CqfConfig(cycle_time_ns=100 * US, ipv_even=5, ipv_odd=5))


class TestCqfBound:
    def test_bound_formula(self):
        assert cqf_latency_bound(1, 100 * US) == 200 * US
        assert cqf_latency_bound(3, 500 * US) == 2 * MS

    def test_zero_hops_rejected(self):
        with pytest.raises(ZeroHopsError):
            cqf_latency_bound(0, 100 * US)


def run_cqf_chain(hops, cycle, inject_at):
    """Push one frame through `hops` CQF bridges; return delivery end time."""
    eng = Engine()
    cfg = CqfConfig(cycle_time_ns=cycle, ipv_even=5, ipv_odd=6)
    rules = make_stream_rules([{"handle": "s0"}])
    done = []
    bridges = []
    deliver_next = lambda f, e: done.append(e)
    for _ in range(hops):
        ingress, gcl = cqf_compose(cfg)
        out_sink = deliver_next
        wire = WireTimes(10 ** 9)
        port = EgressPort(eng, wire, queue=TaprioPort(gcl=gcl, wire=wire),
                          deliver=out_sink)
        br = BridgeNode(eng, "br", port, stream_rules=rules,
                        gates={"s0": StreamGate(ingress)})
        bridges.append(br)
        deliver_next = br.receive
    first = bridges[-1]  # chain was built back to front
    f = Frame(id=1, size_bytes=64, priority=0, stream=KEY)
    eng.schedule(inject_at, lambda: first.receive(f, eng.now))
    eng.run_all()
    assert len(done) == 1
    return done[0]


class TestCqfEventTrace:
    def test_even_cycle_frame_sent_in_next_cycle(self):
        cycle = 100 * US
        out_end = run_cqf_chain(1, cycle, inject_at=30 * US)
        # collected during cycle 0, drained at the start of cycle 1
        assert cycle <= out_end < 2 * cycle
        assert out_end == cycle + 512

    def test_odd_cycle_frame_sent_in_following_cycle(self):
        cycle = 100 * US
        out_end = run_cqf_chain(1, cycle, inject_at=130 * US)
        assert out_end == 2 * cycle + 512

    def test_phase_sweep_respects_hop_bound(self):
        """1 us phase grid for hops in {1,2,3} and three cycle times: delivery
        never exceeds (hops+1) * cycle after injection, and a (hops) * cycle
        budget is genuinely violated somewhere (the +1 term is needed)."""
        for cycle in (100 * US, 500 * US, MS):
            for hops in (1, 2, 3):
                bound = cqf_latency_bound(hops, cycle)
                saw_above_smaller_bound = False
                for phase in range(0, 2 * cycle, US):
                    end = run_cqf_chain(hops, cycle, inject_at=phase)
                    latency = end - phase
                    assert latency <= bound, (cycle, hops, phase)
                    if latency > hops * cycle:
                        saw_above_smaller_bound = True
                assert saw_above_smaller_bound


def ipv_chain(sw0_tags: bool) -> dict:
    """talker -> sw0 -> sw1 -> listener at 1 Gb/s, one 64 B priority-0 frame per
    500 us cycle. sw1's GCL closes class 5 for the first 200 us of each cycle;
    sw0's gate, when sw0_tags, is always open and assigns IPV 5."""
    names = ["talker", "sw0", "sw1", "listener"]
    tag = {"rules": [{"handle": "s0"}], "gates": {"s0": {"cycle_time_ns": 500_000, "entries": [
        {"open": True, "duration_ns": 500_000, "ipv": 5}]}}}
    return {"nodes": [{"name": n, "role": "bridge" if n.startswith("sw") else n} for n in names],
            "links": [{"from": a, "to": b, "rate_bps": 10 ** 9} for a, b in zip(names, names[1:])],
            "shapers": {"sw1": {"gcl": {"cycle_time_ns": 500_000, "entries": [
                {"gate_mask": 0xFF & ~(1 << 5), "duration_ns": 200_000},
                {"gate_mask": 0xFF, "duration_ns": 300_000}]}}},
            "filters": {"sw0": tag} if sw0_tags else {},
            "traffic": {"period_ns": 500_000, "count": 20, "priority": 0,
                        "stream": {"dest_mac": 1, "vlan_id": 1, "pcp": 0}},
            "run": {"seed": 1}}


def test_ipv_applies_only_inside_the_bridge_that_assigns_it():
    # under 802.1Qci the next bridge queues by the frame's priority, 0 here,
    # which sw1 never closes: three 512 ns wire times, with or without sw0's tag
    for sw0_tags in (False, True):
        result = run_scenario(parse_scenario(ipv_chain(sw0_tags)))
        assert compute_offsets(result.records, "hw_rx") == [1_536] * 20, sw0_tags
