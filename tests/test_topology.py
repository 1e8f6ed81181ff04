"""End-to-end forwarding paths through run_scenario: bridge chains, CQF,
FRER member paths and drop accounting."""

from pathlib import Path

import pytest

import tsnsim
from tsnsim import harness
from tsnsim.core import ClockModel, Engine
from tsnsim.harness import compute_offsets, run_scenario
from tsnsim.network import FORWARDING_PRESETS
from tsnsim.scenario import load_scenario, parse_scenario
from tsnsim.traffic import transmission_time

US = 1000
GBPS = 10 ** 9
FRAME = 64
WIRE = transmission_time(FRAME, GBPS)


def chain_scenario(bridges, *, count, period_ns=500 * US, traffic=None, **sections):
    """talker -> bridges -> listener with identity clocks and zero jitter.

    bridges is a list of (name, forwarding preset).
    """
    names = ["talker", *(name for name, _ in bridges), "listener"]
    nodes = ([{"name": "talker", "role": "talker"}]
             + [{"name": name, "role": "bridge", "forwarding": {"preset": preset}}
                for name, preset in bridges]
             + [{"name": "listener", "role": "listener"}])
    doc = {"nodes": nodes,
           "links": [{"from": a, "to": b, "rate_bps": GBPS}
                     for a, b in zip(names, names[1:])],
           "traffic": {"period_ns": period_ns, "count": count,
                       "frame_size_bytes": FRAME, **(traffic or {})},
           "run": {"seed": 3}}
    doc.update(sections)
    return parse_scenario(doc)


def test_cqf_chain_without_stream_key_holds_the_cycle_bound():
    cycle = 100 * US
    bridges = [("sw0", "zero"), ("sw1", "zero")]
    # a period that is no multiple of the cycle sweeps the arrival phase
    cfg = chain_scenario(bridges, count=200, period_ns=130 * US,
                         cqf={"enabled": True, "cycle_time_ns": cycle})
    assert cfg.traffic.stream is None
    res = run_scenario(cfg)
    assert res.drops == {}
    assert [r.seq for r in res.records] == list(range(200))
    latencies = []
    for r in res.records:
        assert r.sw_tx == r.intended_tx  # the talker sends on the grid
        first_bridge_arrival = r.sw_tx + WIRE
        latencies.append(r.hw_rx - first_bridge_arrival)
    assert max(latencies) <= (len(bridges) + 1) * cycle
    # every frame waited for a cycle boundary, so the CQF gate was applied
    assert min(latencies) >= cycle


def test_frer_member_paths_traverse_the_bridges():
    bridges = [("sw0", "linux_bridge"), ("sw1", "xdp")]
    cfg = chain_scenario(bridges, count=100, frer={"enabled": True, "paths": 2})
    res = run_scenario(cfg)
    assert [r.seq for r in res.records] == list(range(100))
    assert res.drops == {"frer_discard_duplicate": 100}
    min_forwarding = sum(min(v for v, _ in FORWARDING_PRESETS[p].points)
                         for _, p in bridges)
    floor = min_forwarding + 3 * WIRE
    for r in res.records:
        assert r.hw_rx - r.sw_tx >= floor, r


QBV_STARVED = {"sw0": {"queue_capacity": 1, "gcl": {
    "cycle_time_ns": 10_000 * US,
    "entries": [{"gate_mask": 1, "duration_ns": 100 * US},
                {"gate_mask": 0, "duration_ns": 9_900 * US}]}}}
ETF_TOO_LATE = {"talker": {"scheme": "etf", "etf": {"delta_ns": 300 * US}}}


@pytest.mark.parametrize("bridges,shapers,traffic", [
    ([("sw0", "zero")], QBV_STARVED, None),
    ([], ETF_TOO_LATE, {"mode": "txtime", "txtime_lead_ns": 100 * US}),
], ids=["queue_full", "past_txtime"])
def test_each_frame_is_delivered_or_dropped_once(bridges, shapers, traffic):
    count = 400
    cfg = chain_scenario(bridges, count=count, traffic=traffic, shapers=shapers)
    res = run_scenario(cfg)
    assert sum(res.drops.values()) > 0
    assert len(res.records) + sum(res.drops.values()) == count


def test_software_etf_releases_on_the_system_clock():
    # the talker's system clock and PHC disagree, so releasing on the wrong
    # one, or without delta, moves the wire start
    system = {"offset_ns": 3_000, "drift_ppm": 40}
    phc = {"offset_ns": -700, "drift_ppm": -15}
    cfg = chain_scenario([], count=50, traffic={"mode": "txtime"},
                         shapers={"talker": {"scheme": "etf",
                                             "etf": {"offload": False}}},
                         clocks={"talker": {"system": system, "phc": phc}})
    res = run_scenario(cfg)
    assert [r.seq for r in res.records] == list(range(50))
    sys_clock, phc_clock = ClockModel(**system), ClockModel(**phc)
    for r in res.records:
        # neither clock resyncs, so the time of the lookup does not matter
        wire_start = sys_clock.when_reading(r.intended_tx - 50 * US, 0)
        assert r.hw_tx == phc_clock.read(wire_start)
        assert r.hw_rx == wire_start + WIRE


def test_sleep_mode_talker_ignores_hw_precision():
    # only an offloaded ETF port times the launch itself
    traffic = {"wake_jitter": {"kind": "uniform", "min_ns": 0, "max_ns": 900}}
    plain = run_scenario(chain_scenario([], count=100, traffic=traffic))
    jittered = run_scenario(chain_scenario([], count=100, traffic={
        **traffic, "hw_precision": {"kind": "uniform", "min_ns": 5, "max_ns": 50}}))
    assert len(plain.records) == 100
    assert [r.hw_tx for r in jittered.records] == [r.sw_tx for r in plain.records]
    assert jittered.records == plain.records


def test_frer_member_paths_police_with_gates_of_their_own():
    # a budget of one frame per window passes one copy per path only if
    # each path's bridge counts its own octets
    stream = {"dest_mac": 1, "vlan_id": 1, "pcp": 0}
    gate = {"cycle_time_ns": 500 * US,
            "entries": [{"open": True, "duration_ns": 500 * US, "max_octets": FRAME}]}
    cfg = chain_scenario([("sw0", "zero")], count=50, traffic={"stream": stream},
                         frer={"enabled": True, "paths": 2},
                         filters={"sw0": {"rules": [{**stream, "handle": "s0"}],
                                          "gates": {"s0": gate}}})
    res = run_scenario(cfg)
    assert [r.seq for r in res.records] == list(range(50))
    assert res.drops == {"frer_discard_duplicate": 50}


def test_talker_resync_on_a_plan_applies_before_it():
    # the talker's system clock resyncs on every 16th plan; each plan that
    # shares the resync's nanosecond must sleep on the resynced clock
    clock = {"drift_ppm": 30, "sync_interval_ns": 8_000_000,
             "sync_residual": {"kind": "constant", "value_ns": 0}}
    cfg = chain_scenario([], count=100, clocks={"talker": {"system": clock}})
    res = run_scenario(cfg)
    assert compute_offsets(res.records, "sw_tx") == [0] * 100


def inversions(records) -> int:
    """Adjacent pairs of frames, in seq order, that reached the listener in
    the other order (hw_rx is the arrival on identity clocks)."""
    return sum(a.hw_rx > b.hw_rx for a, b in zip(records, records[1:]))


@pytest.mark.parametrize("bridges,traffic", [
    ([("sw0", "linux_bridge")], None),
    ([], {"stack_latency": {"kind": "uniform", "min_ns": 0, "max_ns": 5_000}})],
    ids=["linux_bridge", "talker_stack"])
def test_a_flow_reaches_the_listener_in_order(bridges, traffic):
    # 64 B frames every 2 us: a forwarding or stack latency that varies by
    # more than a period would let a frame overtake the one before it
    res = run_scenario(chain_scenario(bridges, count=2_000, period_ns=2 * US, traffic=traffic))
    assert len(res.records) == 2_000 and res.drops == {}
    assert inversions(res.records) == 0


def test_a_talker_slower_than_its_period_sends_back_to_back():
    # each send takes 5 us, stack 3 us and driver 2 us, every 2 us period:
    # frame k's stack step starts at frame k - 1's hand-over, not at its wake
    cfg = chain_scenario([], count=50, period_ns=2 * US, traffic={
        "stack_latency": {"kind": "constant", "value_ns": 3 * US},
        "driver_latency": {"kind": "constant", "value_ns": 2 * US}})
    res = run_scenario(cfg)
    assert [r.sw_tx for r in res.records] == [5 * US * (k + 1) for k in range(50)]
    assert [r.hw_tx for r in res.records] == [5 * US * (k + 1) + 2 * US for k in range(50)]


def test_talker_queues_one_plan_at_a_time(monkeypatch):
    peaks = []

    class PeakEngine(Engine):
        def schedule(self, fire_time, action, *args):
            seq = super().schedule(fire_time, action, *args)
            if seq == 1:
                peaks.append(0)
            peaks[-1] = max(peaks[-1], len(self._heap))
            return seq

    monkeypatch.setattr(harness, "Engine", PeakEngine)
    cfg = load_scenario(Path(tsnsim.__file__).parent / "scenarios" / "paper_fig1.json")
    for count in (200, 2_000):
        cfg.run.count = count
        assert len(run_scenario(cfg).records) == count
    assert peaks[0] == peaks[1]
