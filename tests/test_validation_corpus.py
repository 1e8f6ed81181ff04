"""Validation corpus: a one-value change to a valid scenario never crashes
parse_scenario.

Every value in four valid documents, leaf or not, is replaced by each of
BAD_VALUES and is deleted, and every object gets an unknown key. Each case
must parse or raise ConfigError, and one sha256 over every case's outcome
pins each message and each accepted case.
"""

import hashlib
import json

from tsnsim.scenario import ConfigError, ScenarioConfig, parse_scenario

from test_scenario import MINIMAL, SCENARIOS

BAD_VALUES = (None, "x", -1, 1.5, True, {}, [], 2 ** 70)

UNIFORM = {"kind": "uniform", "min_ns": 100, "max_ns": 900}
STREAM = {"dest_mac": 1, "vlan_id": 100, "pcp": 3}


def _path(names, **sections):
    """talker -> names -> listener, one link per hop."""
    hops = ["talker", *names, "listener"]
    return {"nodes": ([{"name": "talker", "role": "talker"}]
                      + [{"name": n, "role": "bridge"} for n in names]
                      + [{"name": "listener", "role": "listener", "rx_latency": UNIFORM}]),
            "links": [{"from": a, "to": b, "rate_bps": 10 ** 9, "propagation_ns": 100,
                       "overhead_bytes": 20} for a, b in zip(hops, hops[1:])],
            **sections}


BRIDGED = _path(
    ["sw0", "sw1"],
    clocks={"talker": {"system": {"offset_ns": 100, "drift_ppm": 2.5,
                                  "sync_interval_ns": 1_000_000,
                                  "sync_residual": {"kind": "normal", "mean_ns": 0,
                                                    "std_ns": 20, "min_ns": -50}}},
            "sw0": {"phc": {"offset_ns": -40, "drift_ppm": -3}},
            "listener": {"system": {"sync_interval_ns": None}, "phc": {}}},
    cqf={"enabled": True, "cycle_time_ns": 100_000, "ipv_even": 2, "ipv_odd": 3,
         "base_time": 0},
    shapers={"sw0": {"scheme": "taprio", "guard_mode": "none", "queue_capacity": 8,
                     "preemption": {"enabled": True, "express_classes": [2, 3],
                                    "min_fragment_bytes": 64}},
             "sw1": {"preemption": None}},
    frer={"enabled": True, "paths": 2, "window_size": 32, "loss_per_path": 0.1},
    traffic={"period_ns": 500_000, "count": 20, "frame_size_bytes": 128,
             "mode": "sleep", "priority": 1, "stream": STREAM,
             "wake_jitter": UNIFORM, "stack_latency": {"kind": "constant", "value_ns": 5},
             "driver_latency": {"kind": "empirical", "points": [[100, 3], [200, 1]]}},
    run={"seed": 3, "count": None, "histogram_bin_ns": 50})
BRIDGED["nodes"][1]["forwarding"] = {"preset": "xdp"}
BRIDGED["nodes"][2]["forwarding"] = UNIFORM

PSFP_ETF = _path(
    ["sw0", "sw1"],
    shapers={"talker": {"scheme": "etf", "etf": {"delta_ns": 20_000, "offload": False}},
             "sw0": {"gcl": {"base_time": 1_000, "cycle_time_ns": 500_000, "entries": [
                 {"gate_mask": 1, "duration_ns": 100_000},
                 {"gate_mask": 254, "duration_ns": 400_000}]}},
             "sw1": {"scheme": "etf", "etf": None}},
    filters={"sw0": {"rules": [{**STREAM, "handle": "s0"},
                               {"dest_mac": None, "vlan_id": 200, "handle": "s1"}],
                     "gates": {"s0": {"base_time": 0, "cycle_time_ns": 500_000, "entries": [
                         {"open": True, "duration_ns": 200_000, "ipv": 4,
                          "max_octets": 1_000},
                         {"open": False, "duration_ns": 300_000, "ipv": None}]}}}},
    traffic={"period_ns": 500_000, "count": 20, "mode": "txtime",
             "txtime_lead_ns": 50_000, "stream": STREAM,
             "hw_precision": {"kind": "uniform", "min_ns": 2, "max_ns": 6}},
    run={"seed": 1, "count": 10})

DOCS = {"minimal": MINIMAL, "bridged": BRIDGED, "psfp_etf": PSFP_ETF,
        "bridge_xdp": json.loads((SCENARIOS / "bridge_xdp.json").read_text())}

#: sha256 over every case's outcome; only a declared change to a validation
#: message, or to which documents are accepted, records it again
CORPUS_DIGEST = "349b3f7d4943684852847e60b6c7a616bc71c9ba10634efc89f14130d49b6664"


def _edits(node, path=()):
    """(path, value) for every change: value is (v,) to set v, () to delete."""
    if isinstance(node, dict):
        yield path + ("unknown_key",), (1,)
        items = node.items()
    else:
        items = enumerate(node)
    for key, child in items:
        for v in BAD_VALUES:
            yield path + (key,), (v,)
        yield path + (key,), ()
        if isinstance(child, (dict, list)):
            yield from _edits(child, path + (key,))


def _edited(node, path, value):
    """A copy of node with path set to value[0], or deleted when value is ()."""
    copy = list(node) if isinstance(node, list) else dict(node)
    key = path[0]
    if len(path) > 1:
        copy[key] = _edited(node[key], path[1:], value)
    elif value:
        copy[key] = value[0]
    else:
        del copy[key]
    return copy


def _outcomes():
    for name, doc in DOCS.items():
        for path, value in _edits(doc):
            case = f"{name}:{'.'.join(map(str, path))}=" + (repr(value[0]) if value
                                                           else "<deleted>")
            try:
                result = parse_scenario(_edited(doc, path, value))
            except ConfigError as exc:
                yield case, exc.problems
            except Exception as exc:
                raise AssertionError(f"{case} crashed validation") from exc
            else:
                assert isinstance(result, ScenarioConfig), case
                yield case, "ok"


def test_every_document_is_valid():
    for doc in DOCS.values():
        parse_scenario(doc)


def test_every_one_value_change_parses_or_is_a_config_error():
    outcomes = list(_outcomes())
    assert len(outcomes) > 1000
    digest = hashlib.sha256(json.dumps(outcomes).encode()).hexdigest()
    assert digest == CORPUS_DIGEST
