"""Generated-scenario corpus: seeded random scenarios over every mechanism.

generate(seed) builds a scenario document from random.Random(seed): 0-3
bridges; taprio under fit and none, with base times and preemption; PSFP
gates with IPVs and octet budgets; offloaded and software ETF; FRER over
1-3 lossy paths; CQF; resyncing, drifting clocks. Every latency it draws
is non-negative. For each of SEEDS scenarios: one that validates finishes
run_scenario under the event cap, accounts for every frame it sent, and
gives the same records and drops when run again; its talker and bridges
hand frames on in the order they got them; under identity clocks its
stamps are in causal order, and a CQF scenario that meets the bound's
preconditions keeps it. One sha256 over every scenario's outcome,
records.csv and sorted drops pins them all.
"""

import hashlib
import json
import random
from collections import Counter, defaultdict, namedtuple

import pytest

from tsnsim import harness
from tsnsim.egress import EgressPort
from tsnsim.harness import export_records, run_scenario
from tsnsim.network import BridgeNode, CqfConfig, cqf_compose, cqf_latency_bound
from tsnsim.scenario import ConfigError, EtfCfg, parse_scenario
from tsnsim.traffic import transmission_time

from conftest import CappedEngine

pytestmark = pytest.mark.usefixtures("event_cap")

SEEDS = range(300)

#: sha256 over every seed's outcome, records.csv and sorted drops; only a
#: declared change to the records, the drops or the generator records it again
CORPUS_RUN_DIGEST = "f5b164e2f973f9f028c38751398bcc199679c59870a7e344781b9d83771b6314"

DROP_KEYS = {"taprio_full", "taprio_oversize", "etf_past_txtime", "drop_closed_gate",
             "drop_octet_budget", "drop_no_stream", "path_loss",
             "frer_discard_duplicate", "frer_discard_stale"}

STREAM = {"dest_mac": 1, "vlan_id": 100, "pcp": 2}
#: the traffic classes a frame may be sent in or tagged with, and those
#: that may be express: a gate that tags both kinds makes preemptions
CLASSES = (0, 1, 2, 5)
EXPRESS = (2, 5)


def _latency(r: random.Random, scale: int) -> dict:
    """A jitter distribution that never draws below 0."""
    kind = r.choice(("constant", "uniform", "normal", "empirical"))
    if kind == "constant":
        return {"kind": kind, "value_ns": r.randrange(scale)}
    if kind == "uniform":
        lo = r.randrange(scale)
        return {"kind": kind, "min_ns": lo, "max_ns": lo + r.randrange(scale)}
    if kind == "normal":
        return {"kind": kind, "mean_ns": r.randrange(scale), "std_ns": r.randrange(scale),
                "min_ns": 0}
    return {"kind": kind, "points": [[r.randrange(scale), r.randint(1, 9)]
                                     for _ in range(r.randint(1, 4))]}


def _clock(r: random.Random) -> dict:
    clock = {"offset_ns": r.randint(-5_000, 5_000), "drift_ppm": r.choice((0, -12.5, 3, 40))}
    if r.random() < 0.6:
        clock["sync_interval_ns"] = r.choice((100_000, 1_000_000))
        clock["sync_residual"] = {"kind": "normal", "mean_ns": 0, "std_ns": r.randint(0, 200)}
    return clock


def _durations(r: random.Random, cycle: int, n: int) -> list:
    cuts = sorted(r.sample(range(1, cycle), n - 1))
    return [b - a for a, b in zip([0, *cuts], [*cuts, cycle])]


def _gcl(r: random.Random, period: int) -> dict:
    cycle = r.choice((period // 2, period, 2 * period))
    masks = (0xFF, 0x00, *(1 << tc for tc in CLASSES), *(0xFF ^ 1 << tc for tc in CLASSES))
    gcl = {"cycle_time_ns": cycle,
           "entries": [{"gate_mask": r.choice(masks), "duration_ns": d}
                       for d in _durations(r, cycle, r.randint(1, 4))]}
    if r.random() < 0.5:
        gcl["base_time"] = r.randrange(3 * period)
    return gcl


def _taprio(r: random.Random, period: int, gated: bool) -> dict:
    shaper = {"scheme": "taprio", "guard_mode": r.choice(("fit", "none")),
              "queue_capacity": r.choice((1, 2, 4, 64))}
    if gated:
        shaper["gcl"] = _gcl(r, period)
    if r.random() < 0.5:
        shaper["preemption"] = {"enabled": True, "min_fragment_bytes": r.choice((64, 128)),
                                "express_classes": r.sample(EXPRESS, r.randint(1, 2))}
    return shaper


def _etf(r: random.Random) -> dict:
    offload = r.random() < 0.5
    return {"scheme": "etf", "etf": {"offload": offload,
                                     "delta_ns": r.choice((0, 5_000, 40_000))}}


def _filter(r: random.Random, period: int) -> dict:
    rules = [{"vlan_id": 200, "handle": "other"}]
    if r.random() < 0.15:  # the stream matches no rule
        return {"rules": rules}
    rules.append({**r.choice(({"dest_mac": 1}, {"vlan_id": 100}, STREAM)), "handle": "s0"})
    r.shuffle(rules)
    cycle = r.choice((period, 2 * period))
    entries = [{"open": r.random() < 0.8, "duration_ns": d,
                "ipv": r.choice((None, *CLASSES)),
                "max_octets": r.choice((None, None, 64, 300, 2_000))}
               for d in _durations(r, cycle, r.randint(1, 3))]
    gate = {"cycle_time_ns": cycle, "entries": entries}
    if r.random() < 0.3:
        gate["base_time"] = r.randrange(period)
    return {"rules": rules, "gates": {"s0": gate} if r.random() < 0.8 else {}}


def generate(seed: int) -> dict:
    """A scenario document drawn from random.Random(seed)."""
    r = random.Random(seed)
    bridges = [f"sw{i}" for i in range(r.randint(0, 3))]
    hops = ["talker", *bridges, "listener"]
    period = r.choice((20_000, 50_000, 100_000, 250_000))
    mode = "txtime" if r.random() < 0.35 else "sleep"
    nodes = [{"name": "talker", "role": "talker"}]
    for b in bridges:
        node = {"name": b, "role": "bridge"}
        if r.random() < 0.4:
            node["forwarding"] = {"preset": r.choice(("zero", "xdp", "af_xdp", "linux_bridge"))}
        elif r.random() < 0.7:
            node["forwarding"] = _latency(r, r.choice((2_000, 30_000, 4 * period, 4 * period)))
        nodes.append(node)
    nodes.append({"name": "listener", "role": "listener", "rx_latency": _latency(r, 3_000)})
    links = [{"from": a, "to": b, "rate_bps": r.choice((100_000_000, 10 ** 9)),
              "propagation_ns": r.randrange(500), "overhead_bytes": r.choice((0, 20))}
             for a, b in zip(hops, hops[1:])]
    doc = {"nodes": nodes, "links": links}

    cqf = bool(bridges) and r.random() < 0.15
    if cqf:
        doc["cqf"] = {"enabled": True, "cycle_time_ns": r.choice((period // 2, period)),
                      "ipv_even": 5, "ipv_odd": r.choice((1, 2)),
                      "base_time": r.randrange(period)}
    shapers, filters = {}, {}
    etf_nodes = {n for n in hops[:-1] if r.random() < 0.3}
    if mode == "txtime" and not etf_nodes:
        etf_nodes = {r.choice(hops[:-1])}
    for node in hops[:-1]:
        bridge_in_cqf = cqf and node != "talker"
        if mode == "txtime" and node in etf_nodes and not bridge_in_cqf:
            shapers[node] = _etf(r)
        elif r.random() < 0.6:
            shapers[node] = _taprio(r, period, gated=not bridge_in_cqf and r.random() < 0.7)
        if node != "talker" and not cqf and r.random() < 0.5:
            filters[node] = _filter(r, period)
    if mode == "txtime" and not any(s["scheme"] == "etf" for s in shapers.values()):
        shapers["talker"] = _etf(r)
    if shapers:
        doc["shapers"] = shapers
    if filters:
        doc["filters"] = filters

    clocks = {}
    for node in hops:
        which = {w: _clock(r) for w in ("system", "phc") if r.random() < 0.3}
        if which:
            clocks[node] = which
    if clocks:
        doc["clocks"] = clocks
    if r.random() < 0.35:
        doc["frer"] = {"enabled": True, "paths": r.randint(1, 3),
                       "window_size": r.choice((1, 1, 2, 64)),
                       "loss_per_path": r.choice((0.0, 0.05, 0.3))}

    traffic = {"period_ns": period, "count": r.randint(6, 24),
               "frame_size_bytes": r.choice((64, 200, 800, 1500)), "mode": mode,
               "priority": r.choice(CLASSES),
               "wake_jitter": _latency(r, r.choice((500, 5_000, period))),
               "stack_latency": _latency(r, 5_000), "driver_latency": _latency(r, 2_000),
               "hw_precision": _latency(r, 100)}
    if r.random() < 0.8:
        traffic["stream"] = STREAM
    if mode == "txtime":
        traffic["txtime_lead_ns"] = r.choice((None, 1_000, period // 4, period))
    doc["traffic"] = traffic
    doc["run"] = {"seed": r.randrange(1_000), "histogram_bin_ns": 100}
    return doc


def _outcome(seed: int, out_dir):
    """(accepted, the digest input of the seed's scenario, its drops, its
    config and records); the input of a scenario that fails validation is
    its problems."""
    try:
        cfg = parse_scenario(generate(seed))
    except ConfigError as exc:
        return False, json.dumps([seed, exc.problems]).encode(), {}, None
    result = run_scenario(cfg)
    copies = (cfg.run.count or cfg.traffic.count) * (cfg.frer.paths if cfg.frer.enabled else 1)
    assert len(result.records) + sum(result.drops.values()) == copies, seed
    path = out_dir / "records.csv"
    export_records(result.records, path)
    drops = sorted(result.drops.items())
    return (True, path.read_bytes() + json.dumps([seed, drops]).encode(), result.drops,
            (cfg, result.records))


def _out_of_order(handed: dict, got: dict) -> list:
    """The nodes that handed frames to an egress port out of the order they
    got them: a talker must hand its port frames in id order, and a bridge
    must hand its egress port those it passes in the order it received them.
    handed maps each port to the frame ids its submit took, in turn; got maps
    a bridge's egress port to the bridge's name and the ids it received."""
    nodes = []
    for port, ids in handed.items():
        name, received = got.get(port, ("talker", sorted(ids)))
        passed = set(ids)
        if ids != [i for i in received if i in passed]:
            nodes.append(name)
    return nodes


#: per seed, the outcome; the true time at which each frame copy, keyed
#: (node, frame id, route), reached each bridge and the listener; and the
#: nodes that handed frames on out of order. Over the whole corpus, the
#: preemptions made, the ports that took two frames or more, counted by
#: the name of the node that fed them, and the seeds of the frames handed
#: over at the instant their port's wire frees
Corpus = namedtuple("Corpus", "outcomes times out_of_order preemptions ports wire_ends")


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("corpus")
    switches, times, outcomes, arrivals, disorder = [], {}, [], [], []
    handed, got, ports, wire_ends = defaultdict(list), {}, [], []
    switch, submit, bridge_receive, listener_receive = (
        EgressPort._switch, EgressPort.submit, BridgeNode.receive, harness.Listener.receive)

    def reached(node, receive):
        def hook(self, frame, t):
            times[node or self.name, frame.id, frame.route] = t
            if node is None:
                got.setdefault(self.egress, (self.name, []))[1].append(frame.id)
            return receive(self, frame, t)
        return hook

    def taken(port, frame):
        handed[port].append(frame.id)
        if port.engine.now == port._free > 0:
            wire_ends.append(seed)
        return submit(port, frame)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "Engine", CappedEngine)
        mp.setattr(EgressPort, "_switch",
                   lambda port, *args: (switches.append(1), switch(port, *args))[1])
        mp.setattr(EgressPort, "submit", taken)
        mp.setattr(BridgeNode, "receive", reached(None, bridge_receive))
        mp.setattr(harness.Listener, "receive", reached("listener", listener_receive))
        for seed in SEEDS:
            times.clear()
            handed.clear()
            got.clear()
            outcomes.append(_outcome(seed, out_dir))
            arrivals.append(dict(times))
            disorder.append(_out_of_order(handed, got))
            ports += [got.get(port, ("talker",))[0] for port, ids in handed.items()
                      if len(ids) > 1]
    return Corpus(outcomes, arrivals, disorder, len(switches), Counter(ports),
                  Counter(wire_ends))


def test_generated_scenarios_validate_run_and_conserve_frames(corpus):
    # the generator draws valid scenarios; each one ran and conserved frames
    rejected = [seed for seed, (ok, *_) in zip(SEEDS, corpus.outcomes) if not ok]
    assert rejected == []


def test_corpus_reaches_every_drop_key_and_preempts(corpus):
    seen = set()
    for _, _, drops, _ in corpus.outcomes:
        seen.update(drops)
    assert seen == DROP_KEYS
    assert corpus.preemptions > 0


def test_corpus_hands_frames_over_at_a_wire_end(corpus):
    # such a frame finds the wire free, unless a preemptable frame's finish
    # or a preemption's switch there has yet to run
    assert corpus.wire_ends, "no frame was handed over at a wire end"


def test_talkers_and_bridges_hand_frames_on_in_the_order_they_got_them(corpus):
    # a Linux talker is one thread, and a software bridge forwards an RX
    # queue's frames in one NAPI poll: neither lets a frame overtake another
    assert [(seed, nodes) for seed, nodes in zip(SEEDS, corpus.out_of_order) if nodes] == []
    # the check saw many talker and bridge ports that took two frames or more
    talkers = corpus.ports["talker"]
    assert talkers > 350 and sum(corpus.ports.values()) - talkers > 250


def test_same_seed_gives_same_outputs(corpus, tmp_path):
    outcomes = corpus.outcomes
    for seed in SEEDS:
        assert generate(seed) == generate(seed)
        assert _outcome(seed, tmp_path)[1] == outcomes[seed][1], seed


def _runs(corpus, keep):
    """(seed, config, records, arrival times) of each accepted seed whose
    config passes keep."""
    return [(seed, run[0], run[1], times)
            for seed, (*_, run), times in zip(SEEDS, corpus.outcomes, corpus.times)
            if run is not None and keep(run[0])]


def _identity_clocks(cfg) -> bool:
    return all(c.offset_ns == 0 and not c.drift_ppm and not c.sync_interval_ns
               for node in cfg.clocks.values() for c in node.values())


def _software_etf(cfg) -> bool:
    return any(isinstance(hop.shaper, EtfCfg) and not hop.shaper.offload for hop in cfg.path)


def _acausal(cfg, records) -> list:
    """The records whose stamps are out of causal order, as bench/checks.py
    states it: a launch-time sender hands the frame over no later than
    intended_tx and the hardware sends it no earlier; any other sender hands
    it over no earlier; and hw_tx < hw_rx <= sw_rx."""
    launch = cfg.traffic.mode == "txtime"
    return [r for r in records if not (
        (r.sw_tx <= r.intended_tx <= r.hw_tx if launch else r.intended_tx <= r.sw_tx <= r.hw_tx)
        and r.hw_tx < r.hw_rx <= r.sw_rx)]


def test_stamps_in_causal_order_under_identity_clocks(corpus):
    # software ETF is left to the test below: it launches delta_ns early
    runs = _runs(corpus, lambda cfg: _identity_clocks(cfg) and not _software_etf(cfg))
    assert [(seed, _acausal(cfg, records)[0]) for seed, cfg, records, _ in runs
            if _acausal(cfg, records)] == []
    assert sum(len(records) for _, _, records, _ in runs) > 150


@pytest.mark.xfail(strict=True, reason="FOUND: software ETF launches a frame at txtime - "
                   "delta_ns, before intended_tx, as no kernel-to-NIC time is modelled")
def test_software_etf_stamps_in_causal_order_under_identity_clocks(corpus):
    runs = _runs(corpus, lambda cfg: _identity_clocks(cfg) and _software_etf(cfg))
    assert runs and [seed for seed, cfg, records, _ in runs if _acausal(cfg, records)] == []


def _largest(dist) -> int:
    """The largest value dist.sample can return."""
    if dist.kind == "constant":
        return dist.value_ns
    if dist.kind == "uniform":
        return dist.max_ns
    if dist.kind == "normal":
        return round(dist.mean_ns + 4 * dist.std_ns)
    return max(v for v, _ in dist.points)


def test_cqf_latency_within_bound(corpus):
    """cqf_latency_bound(hops, cycle) = (hops + 1) * cycle, measured as
    test_acceptance.py's criterion 5 measures it: from a frame's reception at
    the first bridge to its last bridge's wire end. It holds when each bridge
    sends every frame in the cycle after the one it arrived in, and the next
    bridge receives it in that cycle too. So each scenario checked meets
    these preconditions, and one that does not is skipped:
    - every bridge's taprio runs under guard fit and without preemption,
      which could stretch a transmission past the end of its window;
    - at every bridge, the largest forwarding delay plus the wire time and
      propagation of its link out is at most one cycle;
    - the first bridge receives at most one frame copy per path in each
      cycle, so that no frame waits behind another."""
    checked = 0
    for seed, cfg, _, times in _runs(corpus, lambda cfg: True):
        cqf = generate(seed).get("cqf")
        if cqf is None:
            continue
        cycle, base = cqf["cycle_time_ns"], cqf["base_time"]
        bridges = cfg.path[1:]
        first, last = bridges[0].node.name, bridges[-1].link
        received = Counter((route, (t - base) // cycle)
                           for (node, _, route), t in times.items() if node == first)
        if (any(hop.shaper.guard_mode != "fit" or hop.shaper.preemption.enabled
                for hop in bridges)
                or any(_largest(hop.node.forwarding) + hop.link.propagation_ns
                       + transmission_time(cfg.traffic.frame_size_bytes, hop.link.rate_bps,
                                           hop.link.overhead_bytes) > cycle
                       for hop in bridges)
                or any(n > 1 for n in received.values())):
            continue
        bound = cqf_latency_bound(len(bridges), cycle)
        for (node, fid, route), t in times.items():
            if node == "listener":
                assert t - last.propagation_ns - times[first, fid, route] <= bound, (seed, fid)
                checked += 1
    assert checked > 40


def test_compiled_path_is_the_generated_chain(corpus):
    checked = 0
    for seed, cfg, _, _ in _runs(corpus, lambda cfg: True):
        doc = generate(seed)
        names = [hop.node.name for hop in cfg.path] + [cfg.listener.name]
        assert names == [link["from"] for link in doc["links"]] + ["listener"], seed
        # each hop's link leaves its node for the next hop's, the last for the listener
        assert [(hop.link.src, hop.link.dst) for hop in cfg.path] == list(
            zip(names, names[1:])), seed
        if "cqf" in doc:
            gate, gcl = cqf_compose(CqfConfig(**doc["cqf"]))
            for hop in cfg.path[1:]:
                assert hop.filter.rules == () and [h for h, _ in hop.filter.gates] == [None], seed
                assert (hop.filter.gates[0][1], hop.shaper.gcl) == (gate, gcl), seed
                checked += 1
    assert checked > 60  # 69 bridge hops of 32 CQF seeds


def test_corpus_digest_unchanged(corpus):
    digest = hashlib.sha256()
    for _, data, _, _ in corpus.outcomes:
        digest.update(hashlib.sha256(data).digest())
    assert digest.hexdigest() == CORPUS_RUN_DIGEST
