"""Validation corpus: a one-value change to a valid scenario never crashes
parse_scenario, and every case it accepts runs to the end.

Every value in four valid documents, leaf or not, is replaced by each of
BAD_VALUES and is deleted, and every object gets an unknown key. Each case
must parse or raise ConfigError, and one sha256 over every case's outcome,
with one over each document's cases, pins each message and each accepted
case. Each accepted case, cut to
RUN_COUNT frames, must finish within RUN_TIMEOUT_S and account for every
frame it sent; one sha256 pins every run's records and drops.
"""

import hashlib
import json
import signal

import pytest

from tsnsim.harness import run_scenario
from tsnsim.scenario import (MAX_FRER_PATHS, ConfigError, ScenarioConfig,
                             parse_scenario)

from test_scenario import MINIMAL, SCENARIOS, problems_of

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
CORPUS_DIGEST = "f09c4c3935135af2f7f214d7c7d7cfe062eba0ce4c72a7bdf55645c9eeb736b5"
#: the same over each document's cases, so that a change names its document
DOC_DIGESTS = {
    "minimal": "c2a2fb17e189e09c601212c27be88c9bdc0bbf14033e476e706c07f5ecb5c5a8",
    "bridged": "6724100c53be50e37be44927abd118fbf689d705ef6282fd04cbbb62b9f6c43a",
    "psfp_etf": "8fc97928c003a9be05e1c162979409cf1b32b047fb330f85f356ed2df4ea4153",
    "bridge_xdp": "d51d39608944cc5656203987212b52e8e58c77328bdb593c55161de530e85b17",
}

#: frames each accepted case runs, and the seconds it may take
RUN_COUNT = 30
RUN_TIMEOUT_S = 2

#: sha256 over every accepted case's records and sorted drops; only a
#: declared change to the records, the drops or the accepted cases
#: records it again
RUN_DIGEST = "a48a143664a723983900e89526cf6f4d79c367fde7a43faa3091d0977b776b7a"


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


def _cases():
    """(case name, edited document) for every case of the corpus."""
    for name, doc in DOCS.items():
        for path, value in _edits(doc):
            case = f"{name}:{'.'.join(map(str, path))}=" + (repr(value[0]) if value
                                                           else "<deleted>")
            yield case, _edited(doc, path, value)


def _outcomes():
    for case, doc in _cases():
        try:
            result = parse_scenario(doc)
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


def test_frer_paths_bounded():
    frer = BRIDGED["frer"]
    parse_scenario(dict(BRIDGED, frer=dict(frer, paths=MAX_FRER_PATHS)))
    assert problems_of(dict(BRIDGED, frer=dict(frer, paths=MAX_FRER_PATHS + 1))) == [
        "frer.paths: must be <= 16, got 17"]


def test_clock_resyncing_more_than_a_million_times_in_a_run_rejected():
    # 20 frames span (20 + 101) periods; the talker's system clock resyncs
    # every 1,000,000 ns, and may do so 10**6 times
    def traffic(period_ns):
        return dict(BRIDGED, traffic=dict(BRIDGED["traffic"], period_ns=period_ns))

    parse_scenario(traffic(8_264_462_809))  # 999,999,999,889 ns
    assert problems_of(traffic(8_264_462_810)) == [
        "clocks.talker.system.sync_interval_ns: must be >= 1000001 to resync at most "
        "1000000 times in the run's 1000000000010 ns, got 1000000"]
    assert problems_of(traffic(2 ** 70)) == [
        "clocks.talker.system.sync_interval_ns: must be >= 142851586106806768 to resync "
        "at most 1000000 times in the run's 142851586106806767714304 ns, got 1000000"]


def test_every_one_value_change_parses_or_is_a_config_error():
    outcomes = list(_outcomes())
    assert len(outcomes) > 1000
    assert DOC_DIGESTS.keys() == DOCS.keys()
    for name, expected in DOC_DIGESTS.items():
        mine = [(case, out) for case, out in outcomes if case.startswith(f"{name}:")]
        assert hashlib.sha256(json.dumps(mine).encode()).hexdigest() == expected, name
    digest = hashlib.sha256(json.dumps(outcomes).encode()).hexdigest()
    assert digest == CORPUS_DIGEST


class _Timeout(Exception):
    pass


def _timeout(signum, frame):
    raise _Timeout


def test_every_accepted_case_runs_and_accounts_for_every_frame():
    digest = hashlib.sha256()
    runs = 0
    previous = signal.signal(signal.SIGALRM, _timeout)
    try:
        for case, doc in _cases():
            try:
                cfg = parse_scenario(doc)
            except ConfigError:
                continue
            cfg.run.count = count = min(cfg.run.count or cfg.traffic.count, RUN_COUNT)
            signal.setitimer(signal.ITIMER_REAL, RUN_TIMEOUT_S)
            try:
                result = run_scenario(cfg)
            except _Timeout:
                pytest.fail(f"{case} still running after {RUN_TIMEOUT_S} s")
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            # each FRER member path carries a copy of every frame
            copies = count * (cfg.frer.paths if cfg.frer.enabled else 1)
            assert len(result.records) + sum(result.drops.values()) == copies, case
            digest.update(json.dumps([case, list(map(tuple, result.records)),
                                      sorted(result.drops.items())]).encode())
            runs += 1
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert runs > 300
    assert digest.hexdigest() == RUN_DIGEST
