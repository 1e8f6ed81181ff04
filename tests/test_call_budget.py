"""Budgets of Python calls into tsnsim per delivered frame: on a gated chain,
and on the sleep-mode talker's path to an idle port.

The count is exact, whatever the machine's speed: sys.setprofile sees every call
event, and only calls whose code lies in the tsnsim package are counted, so
the test's own code and the engine's event cap are not. A change that adds
a call per frame on the gated bridge hop (egress qdiscs, PSFP gates, the
bridge, the port) fails here, however fast the machine.
"""

import sys
from pathlib import Path

import pytest

import tsnsim
from tsnsim.harness import run_scenario
from tsnsim.scenario import load_scenario, parse_scenario
from test_golden import _chain, _drifting

pytestmark = pytest.mark.usefixtures("event_cap")

PACKAGE = str(Path(tsnsim.__file__).resolve().parent)
PERIOD_NS = 500_000
IPV = 5

#: calls into tsnsim per delivered frame, set-up included, on the chain below:
#: 70.335 since each taprio queue fixes a frame's wire time at enqueue (81.085 before),
#: 69.895 since each taprio queue compiles its GCL in one pass, with no max_open_run,
#: 68.895 since the txtime talker's event sends its frame itself, 64.895 since a
#: transmission takes no engine seq for its end
CALLS_PER_FRAME = 64.895
#: the same on paper_fig1, a sleep-mode talker to an idle port: 18.028 with a plan
#: and a hand-over event per frame, 16.029 since one event sends and draws the next,
#: 16.028 since the send before the run draws frame 0, with no event of its own,
#: 15.028 since a transmission takes no engine seq for its end
CALLS_PER_SLEEP_FRAME = 15.028


def gated_psfp_chain(count: int) -> dict:
    """ETF talker -> three bridges with Qbv GCLs and PSFP gates -> listener,
    drifting clocks: the gated bridge hop of the paper's bridging runs."""
    bridges = [("sw0", "xdp"), ("sw1", "af_xdp"), ("sw2", "linux_bridge")]
    names = ["talker", *(n for n, _ in bridges), "listener"]
    stream = {"dest_mac": 1, "vlan_id": 100, "pcp": 0}
    shapers = {"talker": {"scheme": "etf", "etf": {"delta_ns": 0, "offload": True}}}
    filters = {}
    for hop, (name, _) in enumerate(bridges):
        start, window = 10_000 + 20_000 * hop, 60_000  # opens after the hop before
        shapers[name] = {"scheme": "taprio", "guard_mode": "fit", "gcl": {
            "cycle_time_ns": PERIOD_NS, "entries": [
                {"gate_mask": 0xFF & ~(1 << IPV), "duration_ns": start},
                {"gate_mask": 1 << IPV, "duration_ns": window},
                {"gate_mask": 0xFF & ~(1 << IPV), "duration_ns": PERIOD_NS - start - window}]}}
        filters[name] = {
            "rules": [{"vlan_id": 200, "handle": "other"}, {**stream, "handle": "s0"}],
            "gates": {"s0": {"cycle_time_ns": PERIOD_NS, "entries": [
                {"open": True, "duration_ns": 100_000, "ipv": IPV, "max_octets": 128},
                {"open": False, "duration_ns": PERIOD_NS - 100_000}]}}}
    return _chain(bridges, seed=3,
                  traffic={"period_ns": PERIOD_NS, "count": count, "frame_size_bytes": 128,
                           "mode": "txtime", "priority": 0, "stream": stream,
                           "hw_precision": {"kind": "uniform", "min_ns": 2, "max_ns": 6}},
                  clocks={n: {"system": _drifting(17 * k - 40, 3.5 * k - 8, 40),
                              "phc": _drifting(40 - 11 * k, 6 - 2.25 * k, 40)}
                          for k, n in enumerate(names)},
                  shapers=shapers, filters=filters)


def count_calls(fn, *args):
    """fn(*args), and the number of Python calls into tsnsim it made."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(PACKAGE):
            calls += 1

    sys.setprofile(profile)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(None)
    return result, calls


def test_calls_per_delivered_frame_within_budget():
    cfg = parse_scenario(gated_psfp_chain(400))
    result, calls = count_calls(run_scenario, cfg, 3)
    # every frame passes each gate and window: the budget covers the whole hop
    assert len(result.records) == 400 and not result.drops
    assert calls / len(result.records) <= CALLS_PER_FRAME


def test_calls_per_frame_of_a_sleep_mode_talker_within_budget():
    cfg = load_scenario(Path(PACKAGE) / "scenarios" / "paper_fig1.json")
    cfg.run.count = 2_000
    result, calls = count_calls(run_scenario, cfg)
    assert len(result.records) == 2_000 and not result.drops
    assert calls / len(result.records) <= CALLS_PER_SLEEP_FRAME
