"""Byte-identical outputs: every golden-checked run must match bench/golden.json,
and a few small scenarios over paths the golden set leaves out must keep
their recorded digests."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from tsnsim.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parent.parent
GBPS = 10 ** 9

# a scenario run that never ends fails at the event cap instead
pytestmark = pytest.mark.usefixtures("event_cap")


def test_golden_digests_unchanged():
    # the check takes seconds; a run that never ends fails at the timeout
    done = subprocess.run([sys.executable, "bench/run.py", "--check"], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stdout + done.stderr


def _drifting(offset_ns, drift_ppm, std_ns):
    return {"offset_ns": offset_ns, "drift_ppm": drift_ppm,
            "sync_interval_ns": 5_000_000,
            "sync_residual": {"kind": "normal", "mean_ns": 0, "std_ns": std_ns}}


def _chain(bridges, *, traffic, seed, **sections):
    """talker -> bridges -> listener; bridges is a list of (name, preset)."""
    names = ["talker", *(name for name, _ in bridges), "listener"]
    return {"nodes": ([{"name": "talker", "role": "talker"}]
                      + [{"name": n, "role": "bridge", "forwarding": {"preset": p}}
                         for n, p in bridges]
                      + [{"name": "listener", "role": "listener",
                          "rx_latency": {"kind": "uniform", "min_ns": 300,
                                         "max_ns": 2_500}}]),
            "links": [{"from": a, "to": b, "rate_bps": GBPS, "propagation_ns": 120,
                       "overhead_bytes": 20} for a, b in zip(names, names[1:])],
            "traffic": {"frame_size_bytes": 200, **traffic},
            "run": {"seed": seed}, **sections}


SLEEP_JITTER = {"wake_jitter": {"kind": "uniform", "min_ns": 0, "max_ns": 3_000},
                "stack_latency": {"kind": "normal", "mean_ns": 4_000, "std_ns": 800,
                                  "min_ns": 1_000},
                "driver_latency": {"kind": "constant", "value_ns": 700}}

#: name -> (scenario, recorded sha256 of its records.csv and stats.json)
PINNED = {
    # two or three frames per CQF cycle overflow sw0's two-frame queues
    "cqf_drifting_two_bridges": (_chain(
        [("sw0", "xdp"), ("sw1", "linux_bridge")],
        traffic={"period_ns": 40_000, "count": 300, **SLEEP_JITTER}, seed=5,
        clocks={"talker": {"system": _drifting(150, 12.5, 30)},
                "sw0": {"phc": _drifting(-220, -8.0, 50)},
                "sw1": {"system": _drifting(90, 20.0, 40),
                        "phc": _drifting(300, 3.25, 60)},
                "listener": {"system": _drifting(-40, -15.0, 20),
                             "phc": _drifting(60, 7.0, 35)}},
        shapers={"sw0": {"queue_capacity": 2, "guard_mode": "none"},
                 "sw1": {"queue_capacity": 3}},
        cqf={"enabled": True, "cycle_time_ns": 100_000}), {
        "records.csv": "98f5e56a00438e31e0abd20596d4734d0c72367bcf70b93d0ecdc80668986d81",
        "stats.json": "fe330d69b1d75cc37e9e1605e9e16383d2b972b579f1f652880b9ecd546bbcfb"}),
    # wake jitter pushes some frames into each gate's closed window
    "frer_psfp_two_bridges": (_chain(
        [("sw0", "af_xdp"), ("sw1", "xdp")],
        traffic={"period_ns": 500_000, "count": 300, "priority": 2,
                 "stream": {"dest_mac": 1, "vlan_id": 100, "pcp": 2},
                 **SLEEP_JITTER,
                 "wake_jitter": {"kind": "uniform", "min_ns": 0, "max_ns": 60_000}},
        seed=11,
        filters={"sw0": {"rules": [{"vlan_id": 200, "handle": "other"},
                                   {"vlan_id": 100, "handle": "s0"}],
                         "gates": {"s0": {"cycle_time_ns": 500_000, "entries": [
                             {"open": False, "duration_ns": 5_000},
                             {"open": True, "duration_ns": 50_000, "ipv": 4,
                              "max_octets": 256},
                             {"open": False, "duration_ns": 445_000}]}}},
                 "sw1": {"rules": [{"dest_mac": 1, "handle": "s0"}],
                         "gates": {"s0": {"cycle_time_ns": 500_000, "entries": [
                             {"open": True, "duration_ns": 62_000,
                              "max_octets": 200},
                             {"open": False, "duration_ns": 438_000}]}}}},
        frer={"enabled": True, "paths": 2, "window_size": 16,
              "loss_per_path": 0.1}), {
        "records.csv": "646481802eccdf56d5a6b7c8b8f3d55b158b841ecd5f0b891c13decbed83b304",
        "stats.json": "7fa23dc60892c66d71ee16099bf4905acb42ee53e8bb1b26e578200960e29bf9"}),
    # sw0's class-5 window wraps the GCL cycle end over three open entries;
    # wake jitter makes some frames miss sw0's window by the guard band;
    # frames the stream gate tags IPV 3 never fit class 3's 1 us window,
    # and the window budget passes two frames of three. sw1 queues by the
    # frame's priority 2, which its GCL opens outside class 5's window: an
    # IPV applies only in the bridge that assigns it
    "qbv_psfp_wrapping_window": (_chain(
        [("sw0", "xdp"), ("sw1", "zero")],
        traffic={"period_ns": 50_000, "count": 400, "priority": 2,
                 "stream": {"dest_mac": 1, "vlan_id": 100, "pcp": 2},
                 **SLEEP_JITTER,
                 "wake_jitter": {"kind": "uniform", "min_ns": 0, "max_ns": 20_000}},
        seed=13,
        filters={"sw0": {"rules": [{"dest_mac": 9, "handle": "other"},
                                   {"vlan_id": 100, "handle": "s0"}],
                         "gates": {"s0": {"cycle_time_ns": 200_000, "entries": [
                             {"open": True, "duration_ns": 110_000, "ipv": 5,
                              "max_octets": 400},
                             {"open": True, "duration_ns": 40_000, "ipv": 3},
                             {"open": False, "duration_ns": 50_000}]}}}},
        shapers={"sw0": {"guard_mode": "fit", "gcl": {
                     "cycle_time_ns": 100_000, "entries": [
                         {"gate_mask": 0x21, "duration_ns": 16_000},
                         {"gate_mask": 0x01, "duration_ns": 32_000},
                         {"gate_mask": 0x08, "duration_ns": 1_000},
                         {"gate_mask": 0x01, "duration_ns": 38_000},
                         {"gate_mask": 0x20, "duration_ns": 2_500},
                         {"gate_mask": 0x21, "duration_ns": 10_500}]}},
                 "sw1": {"guard_mode": "fit", "queue_capacity": 2, "gcl": {
                     "cycle_time_ns": 50_000, "entries": [
                         {"gate_mask": 0xDF, "duration_ns": 30_000},
                         {"gate_mask": 0x20, "duration_ns": 2_000},
                         {"gate_mask": 0x21, "duration_ns": 2_000},
                         {"gate_mask": 0xDF, "duration_ns": 16_000}]}}}), {
        "records.csv": "3a8b19d35778a9ac3bab5260aada1c8829ce6728064a745349c5ee4ac5b390ab",
        "stats.json": "fc32953c6d03e0cf35282f4b2aceab71a0cb95aa9b950ec9187ad2a3e11a74be"}),
    # the talker hands frames over a lead early; sw0 launches them
    "software_etf_bridge": (_chain(
        [("sw0", "linux_bridge")],
        traffic={"period_ns": 250_000, "count": 300, "mode": "txtime",
                 "txtime_lead_ns": 200_000},
        seed=2,
        clocks={"sw0": {"system": _drifting(500, -25.0, 45),
                        "phc": _drifting(-80, 10.0, 25)}},
        shapers={"sw0": {"scheme": "etf",
                         "etf": {"offload": False, "delta_ns": 40_000}}}), {
        "records.csv": "ec94f780a7a9d7d92c8e0ba397250d889779de94eaaa14685ed1c04566449500",
        "stats.json": "47cfbf207f6a4ca6c886cc96b7993edd9345a734512b1c23b4ce3528690bb626"}),
    # the three copies of a frame launch at once, each after its own NIC
    # precision, so they reach recovery out of path order
    "frer_offloaded_etf_three_paths": ({
        "nodes": [{"name": "talker", "role": "talker"},
                  {"name": "listener", "role": "listener",
                   "rx_latency": {"kind": "uniform", "min_ns": 100, "max_ns": 900}}],
        "links": [{"from": "talker", "to": "listener", "rate_bps": GBPS,
                   "propagation_ns": 300}],
        "shapers": {"talker": {"scheme": "etf", "etf": {"delta_ns": 0, "offload": True}}},
        "traffic": {"period_ns": 100_000, "count": 2_000, "frame_size_bytes": 128,
                    "mode": "txtime",
                    "hw_precision": {"kind": "uniform", "min_ns": 2, "max_ns": 60}},
        "frer": {"enabled": True, "paths": 3, "loss_per_path": 0.05},
        "run": {"seed": 3}}, {
        "records.csv": "25f76f9685471d59a2a24710407a9c35a45b2291fdb089c76897550a0901b928",
        "stats.json": "1efd4025752ff9ca016d92855dc5ac83463bf64a9801d735c255d0ae82e90b25"}),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_outputs_off_the_golden_set_unchanged(name, tmp_path):
    doc, expected = PINNED[name]
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["run", str(scenario), "--out", str(out)]) == EXIT_OK
    assert {f: hashlib.sha256((out / f).read_bytes()).hexdigest()
            for f in expected} == expected
