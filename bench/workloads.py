"""Workload definitions: which scenarios each benchmark workload runs.

A workload is a list of samples; a sample is a list of (scenario path,
seed) runs that are timed together. All inputs are derived from the
workload seed, so the same seed always gives the same scenarios.
The two generated scenarios are written as JSON files so that
`tsnsim validate` and `tsnsim run` can be pointed at them too.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

DEFAULT_SEED = 1
PERIOD_NS = 500_000
GBPS = 1_000_000_000

#: receive-path latency of the shipped paper scenarios
RX_LATENCY = {"kind": "empirical",
              "points": [[500, 55], [1500, 20], [2500, 10],
                         [4000, 9], [6500, 4], [9000, 2]]}

CALIBRATION_SEEDS = 6
BRIDGED_COUNT = 4_000
FRER_COUNT = 10_000


def _drifting_clock(rng: random.Random) -> dict:
    # Offsets, drift between resyncs and the resync residual stay well
    # under one 148-byte wire time, so every frame still lands in the
    # ingress gate window it was scheduled for.
    return {"offset_ns": rng.randint(-300, 300),
            "drift_ppm": round(rng.uniform(-20.0, 20.0), 3),
            "sync_interval_ns": 8_000_000,
            "sync_residual": {"kind": "normal", "mean_ns": 0,
                              "std_ns": rng.randint(20, 80)}}


def bridged_qbv_psfp_doc(seed: int) -> dict:
    """ETF talker -> three PSFP/Qbv bridges -> listener, drifting clocks."""
    rng = random.Random(f"bridged_qbv_psfp:{seed}")
    frame = 128
    stream = {"dest_mac": 0x01005E000001, "vlan_id": 100, "pcp": 0}
    ipv = 5
    bridges = [("sw0", "xdp"), ("sw1", "af_xdp"), ("sw2", "linux_bridge")]
    nodes = ([{"name": "talker", "role": "talker"}]
             + [{"name": n, "role": "bridge", "forwarding": {"preset": p}}
                for n, p in bridges]
             + [{"name": "listener", "role": "listener", "rx_latency": RX_LATENCY}])
    names = [n["name"] for n in nodes]
    links = [{"from": a, "to": b, "rate_bps": GBPS,
              "propagation_ns": rng.randint(50, 500), "overhead_bytes": 20}
             for a, b in zip(names, names[1:])]
    shapers = {"talker": {"scheme": "etf", "etf": {"delta_ns": 0, "offload": True}}}
    filters = {}
    window = 60_000
    for hop, (name, _) in enumerate(bridges):
        # each hop's window opens after the latest arrival from the hop before
        start = 10_000 + 20_000 * hop
        shapers[name] = {"scheme": "taprio", "guard_mode": "fit", "gcl": {
            "cycle_time_ns": PERIOD_NS,
            "entries": [{"gate_mask": 0xFF & ~(1 << ipv), "duration_ns": start},
                        {"gate_mask": 1 << ipv, "duration_ns": window},
                        {"gate_mask": 0xFF & ~(1 << ipv),
                         "duration_ns": PERIOD_NS - start - window}]}}
        filters[name] = {
            "rules": [{"dest_mac": 0x01005E0000FF, "handle": "other"},
                      {"vlan_id": 200, "handle": "other_vlan"},
                      {**stream, "handle": "s0"}],
            "gates": {"s0": {"cycle_time_ns": PERIOD_NS, "entries": [
                {"open": True, "duration_ns": 100_000, "ipv": ipv,
                 "max_octets": frame},
                {"open": False, "duration_ns": PERIOD_NS - 100_000}]}}}
    return {"nodes": nodes, "links": links,
            "clocks": {n: {"system": _drifting_clock(rng),
                           "phc": _drifting_clock(rng)} for n in names},
            "shapers": shapers, "filters": filters,
            "traffic": {"period_ns": PERIOD_NS, "count": BRIDGED_COUNT,
                        "frame_size_bytes": frame, "mode": "txtime",
                        "priority": 0, "stream": stream,
                        "hw_precision": {"kind": "uniform", "min_ns": 2, "max_ns": 6}},
            "run": {"seed": seed, "histogram_bin_ns": 100}}


def frer_replicated_doc(seed: int) -> dict:
    """Sleep-mode talker replicating onto three lossy FRER member paths."""
    rng = random.Random(f"frer_replicated:{seed}")
    return {"nodes": [{"name": "talker", "role": "talker"},
                      {"name": "listener", "role": "listener",
                       "rx_latency": RX_LATENCY}],
            "links": [{"from": "talker", "to": "listener", "rate_bps": GBPS,
                       "propagation_ns": rng.randint(100, 1000)}],
            "frer": {"enabled": True, "paths": 3, "window_size": 64,
                     "loss_per_path": round(rng.uniform(0.02, 0.04), 4)},
            "traffic": {"period_ns": PERIOD_NS, "count": FRER_COUNT,
                        "frame_size_bytes": rng.choice([128, 256, 512]),
                        "mode": "sleep", "priority": 0,
                        "wake_jitter": {"kind": "normal", "mean_ns": 400,
                                        "std_ns": 600, "min_ns": 0},
                        "stack_latency": {"kind": "uniform", "min_ns": 80,
                                          "max_ns": 160},
                        "driver_latency": {"kind": "uniform", "min_ns": 30,
                                           "max_ns": 90}},
            "run": {"seed": seed, "histogram_bin_ns": 100}}


WORKLOADS = ("calibration_sweep", "bridged_qbv_psfp", "frer_replicated")

_GENERATED = {"bridged_qbv_psfp": bridged_qbv_psfp_doc,
              "frer_replicated": frer_replicated_doc}


def samples(workload: str, seed: int, root: Path,
            work: Path) -> list[list[tuple[Path, int]]]:
    """The workload's samples, writing any generated scenario into work.

    calibration_sweep runs the shipped files unchanged.
    """
    if workload == "calibration_sweep":
        shipped = root / "src" / "tsnsim" / "scenarios"
        return [[(shipped / "paper_fig1.json", s), (shipped / "paper_fig2.json", s)]
                for s in range(seed, seed + CALIBRATION_SEEDS)]
    doc = _GENERATED[workload](seed)
    path = work / f"{workload}_{seed}.json"
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return [[(path, seed)]]
