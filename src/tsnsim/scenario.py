"""Declarative scenario files: schema, validation, and typed access.

A scenario is a JSON document with top-level sections nodes, links,
clocks, shapers, filters, frer, cqf, traffic, run. Validation rejects
unknown keys and reports every problem with its dotted path. An enabled
cqf section is compiled into the stream gate and GCL of each bridge on
the talker-to-listener path.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Optional

from .core import CONSTANT_ZERO, PPM, ClockModel, JitterDist, ScheduleError
from .egress import GateControlList, GclEntry, PreemptionConfig
from .ingress import StreamGate, StreamGateEntry
from .network import FORWARDING_PRESETS, CqfConfig, cqf_compose
from .traffic import (MAX_FRAME_BYTES, MIN_FRAME_BYTES, DuplicateExactRuleError,
                      StreamKey, StreamRuleSet, make_stream_rules)

VALID_TOP_KEYS = {"nodes", "links", "clocks", "shapers", "filters",
                  "frer", "cqf", "traffic", "run"}

#: shaper keys that configure only one scheme's queue
_SCHEME_KEYS = {"taprio": {"gcl", "guard_mode", "queue_capacity", "preemption"},
                "etf": {"etf"}}

#: largest value of each StreamKey field
_STREAM_FIELDS = {"dest_mac": 2 ** 48 - 1, "vlan_id": 4095, "pcp": 7}

_DIST_KEYS = {
    "constant": {"kind", "value_ns"},
    "uniform": {"kind", "min_ns", "max_ns"},
    "normal": {"kind", "mean_ns", "std_ns", "min_ns"},
    "empirical": {"kind", "points"},
}


class ConfigError(Exception):
    """Scenario validation failure with field-level diagnostics."""

    def __init__(self, problems: list[str]):
        self.problems = problems
        super().__init__("invalid scenario:\n" + "\n".join(f"  - {p}" for p in problems))


class _Checker:
    def __init__(self):
        self.problems: list[str] = []

    def fail(self, path: str, msg: str):
        self.problems.append(f"{path}: {msg}")

    def dict(self, obj, path, allowed, required=()):
        if not isinstance(obj, dict):
            self.fail(path, f"expected an object, got {type(obj).__name__}")
            return False
        for k in obj:
            if k not in allowed:
                self.fail(f"{path}.{k}", "unknown key")
        for k in required:
            if k not in obj:
                self.fail(f"{path}.{k}", "missing required key")
        return True

    def int_in(self, obj, key, path, lo=None, hi=None, default=None, required=False):
        if key not in obj:
            if required:
                self.fail(f"{path}.{key}", "missing required key")
            return default
        v = obj[key]
        if isinstance(v, bool) or not isinstance(v, int):
            self.fail(f"{path}.{key}", f"expected an integer, got {v!r}")
            return default
        if lo is not None and v < lo:
            self.fail(f"{path}.{key}", f"must be >= {lo}, got {v}")
        if hi is not None and v > hi:
            self.fail(f"{path}.{key}", f"must be <= {hi}, got {v}")
        return v

    def bool_in(self, obj, key, path, default):
        v = obj.get(key, default)
        if not isinstance(v, bool):
            self.fail(f"{path}.{key}", "expected a boolean")
            return default
        return v

    def dist(self, obj, key, path, default=None):
        if key not in obj or obj[key] is None:
            return default
        cfg = obj[key]
        p = f"{path}.{key}"
        if not isinstance(cfg, dict):
            self.fail(p, "expected a distribution object")
            return default
        kind = cfg.get("kind")
        if kind not in _DIST_KEYS:
            self.fail(f"{p}.kind", f"unknown distribution kind {kind!r}")
            return default
        self.dict(cfg, p, _DIST_KEYS[kind])
        try:
            return JitterDist.from_config(cfg)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            self.fail(p, f"bad distribution: {exc}")
            return default


@dataclass
class NodeCfg:
    name: str
    role: str
    forwarding: JitterDist = JitterDist.constant(0)
    rx_latency: JitterDist = JitterDist.constant(0)


@dataclass
class LinkCfg:
    src: str
    dst: str
    rate_bps: int
    propagation_ns: int = 0
    overhead_bytes: int = 0


@dataclass(frozen=True)
class TaprioCfg:
    gcl: Optional[GateControlList] = None
    guard_mode: str = "fit"
    queue_capacity: int = 64
    preemption: PreemptionConfig = PreemptionConfig()


@dataclass(frozen=True)
class EtfCfg:
    offload: bool = True
    delta_ns: int = 0  # 50 us by default without offload


@dataclass
class FilterCfg:
    rules: Optional[StreamRuleSet] = None  # None: every frame has handle None
    #: handle -> StreamGate template; a gate counts its window's octets,
    #: so each bridge on each path runs its own copy
    gates: dict = field(default_factory=dict)


@dataclass
class FrerCfg:
    enabled: bool = False
    paths: int = 2
    window_size: int = 64
    loss_per_path: float = 0.0


@dataclass
class TrafficCfg:
    period_ns: int = 500_000
    count: int = 10_000
    frame_size_bytes: int = 64
    mode: str = "sleep"             # sleep | txtime
    priority: int = 0
    stream: Optional[StreamKey] = None
    wake_jitter: JitterDist = JitterDist.constant(0)
    stack_latency: JitterDist = JitterDist.constant(0)
    driver_latency: JitterDist = JitterDist.constant(0)
    hw_precision: JitterDist = JitterDist.constant(0)
    txtime_lead_ns: Optional[int] = None


@dataclass
class RunCfg:
    seed: int = 1
    count: Optional[int] = None     # overrides traffic.count when set
    histogram_bin_ns: int = 100


@dataclass
class ScenarioConfig:
    nodes: list[NodeCfg]
    links: list[LinkCfg]
    #: node -> {"system" | "phc": ClockModel template}; a run resyncs
    #: copies of its own
    clocks: dict[str, dict[str, ClockModel]]
    shapers: dict[str, TaprioCfg | EtfCfg]
    filters: dict[str, FilterCfg]
    frer: FrerCfg
    traffic: TrafficCfg
    run: RunCfg

    @property
    def talker(self) -> NodeCfg:
        return next(n for n in self.nodes if n.role == "talker")

    @property
    def listener(self) -> NodeCfg:
        return next(n for n in self.nodes if n.role == "listener")


def chain_links(links: list[LinkCfg], talker: str, listener: str) -> list[LinkCfg]:
    """The links from talker to listener, taking each node's first link out.

    Raises ValueError when that walk ends or loops before the listener.
    """
    succ = {}
    for l in links:
        succ.setdefault(l.src, l)
    chain = []
    node = talker
    while node != listener:
        link = succ.get(node)
        # a walk longer than the number of nodes with a link out repeats one
        if link is None or len(chain) >= len(succ):
            raise ValueError(f"no forwarding path from {node} to {listener}")
        chain.append(link)
        node = link.dst
    return chain


def _parse_clock(c: _Checker, obj, path) -> ClockModel:
    if not c.dict(obj, path, {"offset_ns", "drift_ppm", "sync_interval_ns",
                              "sync_residual"}):
        return ClockModel()
    drift = obj.get("drift_ppm", 0)
    if isinstance(drift, bool) or not isinstance(drift, (int, float)):
        c.fail(f"{path}.drift_ppm", f"expected a number, got {drift!r}")
        drift = 0
    elif (isinstance(drift, float) and not math.isfinite(drift)) or drift <= -PPM:
        # at -10**6 ppm the clock stops; below, it runs backwards
        c.fail(f"{path}.drift_ppm", f"must be finite and > {-PPM}, got {drift!r}")
        drift = 0
    si = obj.get("sync_interval_ns")
    return ClockModel(offset_ns=c.int_in(obj, "offset_ns", path, default=0),
                      drift_ppm=drift,
                      sync_interval_ns=None if si is None else c.int_in(
                          obj, "sync_interval_ns", path, lo=1),
                      sync_residual=c.dist(obj, "sync_residual", path,
                                           default=CONSTANT_ZERO))


def _parse_schedule(c: _Checker, obj, path, schedule, required, optional, make_entry):
    """Build schedule(base_time, cycle_time_ns, entries), or None on a problem.

    Each entry has duration_ns, the keys required and any of optional.
    make_entry(entry, entry_path, duration_ns) checks an entry's other
    keys and builds it; the schedule checks the entries' sum.
    """
    if not c.dict(obj, path, {"base_time", "cycle_time_ns", "entries"},
                  required=("cycle_time_ns", "entries")):
        return None
    before = len(c.problems)
    base = c.int_in(obj, "base_time", path, lo=0, default=0)
    cycle = c.int_in(obj, "cycle_time_ns", path, lo=1, required=True)
    entries = obj.get("entries")
    if not isinstance(entries, list) or not entries:
        c.fail(f"{path}.entries", "expected a non-empty list")
        return None
    built = []
    for i, e in enumerate(entries):
        ep = f"{path}.entries[{i}]"
        if c.dict(e, ep, {"duration_ns", *required, *optional},
                  required=("duration_ns", *required)):
            built.append(make_entry(e, ep, c.int_in(e, "duration_ns", ep, lo=1)))
    if len(c.problems) > before:
        return None
    try:
        return schedule(base, cycle, built)
    except ScheduleError as exc:
        c.fail(f"{path}.entries", str(exc))
        return None


def _parse_gcl(c: _Checker, obj, path) -> Optional[GateControlList]:
    def entry(e, ep, duration):
        return GclEntry(c.int_in(e, "gate_mask", ep, lo=0, hi=0xFF), duration)
    return _parse_schedule(c, obj, path, GateControlList, ("gate_mask",), (), entry)


def _parse_stream_gate(c: _Checker, obj, path) -> Optional[StreamGate]:
    def entry(e, ep, duration):
        # a null ipv or max_octets is the same as none
        return StreamGateEntry(c.bool_in(e, "open", ep, None), duration, **{
            k: c.int_in(e, k, ep, lo=0, hi=hi)
            for k, hi in (("ipv", 7), ("max_octets", None)) if e.get(k) is not None})
    return _parse_schedule(c, obj, path, StreamGate, ("open",), ("ipv", "max_octets"),
                           entry)


def _parse_taprio(c: _Checker, spec, p) -> TaprioCfg:
    gcl = None
    if spec.get("gcl") is not None:
        gcl = _parse_gcl(c, spec["gcl"], f"{p}.gcl")
    gm = spec.get("guard_mode", "fit")
    if gm not in ("fit", "none"):
        c.fail(f"{p}.guard_mode", f"must be fit|none, got {gm!r}")
    preemption = PreemptionConfig()
    pre = spec.get("preemption")
    pp = f"{p}.preemption"
    if pre is not None and c.dict(pre, pp, {"enabled", "express_classes",
                                            "min_fragment_bytes"}):
        ec = pre.get("express_classes", [])
        if (not isinstance(ec, list)
                or any(not isinstance(x, int) or not 0 <= x <= 7 for x in ec)):
            c.fail(f"{pp}.express_classes", "expected a list of classes 0-7")
            ec = []
        preemption = PreemptionConfig(
            enabled=c.bool_in(pre, "enabled", pp, False), express_classes=frozenset(ec),
            min_fragment_bytes=c.int_in(pre, "min_fragment_bytes", pp, lo=1, default=64))
    return TaprioCfg(gcl=gcl, guard_mode=gm, preemption=preemption,
                     queue_capacity=c.int_in(spec, "queue_capacity", p, lo=1, default=64))


def _parse_etf(c: _Checker, spec, p) -> EtfCfg:
    etf = spec.get("etf")
    if etf is None or not c.dict(etf, f"{p}.etf", {"delta_ns", "offload"}):
        return EtfCfg()
    offload = c.bool_in(etf, "offload", f"{p}.etf", True)
    # without offload the kernel needs time to hand the frame to the NIC
    return EtfCfg(offload=offload,
                  delta_ns=c.int_in(etf, "delta_ns", f"{p}.etf", lo=0,
                                    default=0 if offload else 50_000))


def parse_scenario(doc: dict) -> ScenarioConfig:
    """Validate a scenario document; raises ConfigError on any problem."""
    c = _Checker()
    if not isinstance(doc, dict):
        raise ConfigError(["top level: expected a JSON object"])
    for k in doc:
        if k not in VALID_TOP_KEYS:
            c.fail(k, "unknown top-level section")

    nodes: list[NodeCfg] = []
    raw_nodes = doc.get("nodes")
    if not isinstance(raw_nodes, list) or not raw_nodes:
        c.fail("nodes", "expected a non-empty list")
        raw_nodes = []
    names = set()
    for i, n in enumerate(raw_nodes):
        p = f"nodes[{i}]"
        if not c.dict(n, p, {"name", "role", "forwarding", "rx_latency"},
                      required=("name", "role")):
            continue
        name = n.get("name")
        role = n.get("role")
        if not isinstance(name, str) or not name:
            c.fail(f"{p}.name", "expected a non-empty string")
            continue
        if name in names:
            c.fail(f"{p}.name", f"duplicate node name {name!r}")
        names.add(name)
        if role not in ("talker", "bridge", "listener"):
            c.fail(f"{p}.role", f"must be talker|bridge|listener, got {role!r}")
            continue
        node = NodeCfg(name=name, role=role)
        fwd = n.get("forwarding")
        if fwd is not None:
            if isinstance(fwd, dict) and set(fwd) == {"preset"}:
                preset = fwd["preset"]
                if preset not in FORWARDING_PRESETS:
                    c.fail(f"{p}.forwarding.preset", f"unknown preset {preset!r}")
                else:
                    node.forwarding = FORWARDING_PRESETS[preset]
            else:
                node.forwarding = c.dist(n, "forwarding", p,
                                         default=JitterDist.constant(0))
        node.rx_latency = c.dist(n, "rx_latency", p, default=JitterDist.constant(0))
        nodes.append(node)

    roles = [n.role for n in nodes]
    if not c.problems:
        if roles.count("talker") != 1:
            c.fail("nodes", "exactly one talker required")
        if roles.count("listener") != 1:
            c.fail("nodes", "exactly one listener required")

    links: list[LinkCfg] = []
    raw_links = doc.get("links")
    if not isinstance(raw_links, list) or not raw_links:
        c.fail("links", "expected a non-empty list")
        raw_links = []
    for i, l in enumerate(raw_links):
        p = f"links[{i}]"
        if not c.dict(l, p, {"from", "to", "rate_bps", "propagation_ns",
                             "overhead_bytes"}, required=("from", "to", "rate_bps")):
            continue
        src, dst = l.get("from"), l.get("to")
        for end, key in ((src, "from"), (dst, "to")):
            if end not in names:
                c.fail(f"{p}.{key}", f"unknown node {end!r}")
        rate = c.int_in(l, "rate_bps", p, lo=1, required=True)
        links.append(LinkCfg(src=src, dst=dst, rate_bps=rate or 1,
                             propagation_ns=c.int_in(l, "propagation_ns", p, lo=0, default=0),
                             overhead_bytes=c.int_in(l, "overhead_bytes", p, lo=0, default=0)))
    chain = []
    if not c.problems:
        ends = {n.role: n.name for n in nodes}
        try:
            chain = chain_links(links, ends["talker"], ends["listener"])
        except ValueError as exc:
            c.fail("links", str(exc))

    clocks: dict = {}
    raw_clocks = doc.get("clocks", {})
    if c.dict(raw_clocks, "clocks", names or set(raw_clocks)):
        for node, spec in raw_clocks.items():
            p = f"clocks.{node}"
            if not c.dict(spec, p, {"system", "phc"}):
                continue
            clocks[node] = {}
            for which in ("system", "phc"):
                if which in spec:
                    clocks[node][which] = _parse_clock(c, spec[which], f"{p}.{which}")

    shapers: dict = {}
    raw_shapers = doc.get("shapers", {})
    if c.dict(raw_shapers, "shapers", names or set(raw_shapers)):
        for node, spec in raw_shapers.items():
            p = f"shapers.{node}"
            if not c.dict(spec, p, {"scheme", *_SCHEME_KEYS["taprio"],
                                    *_SCHEME_KEYS["etf"]}):
                continue
            scheme = spec.get("scheme", "taprio")
            if scheme not in _SCHEME_KEYS:
                c.fail(f"{p}.scheme", f"must be taprio|etf, got {scheme!r}")
                continue
            other = "etf" if scheme == "taprio" else "taprio"
            for k in sorted(_SCHEME_KEYS[other] & spec.keys()):
                c.fail(f"{p}.{k}", f"applies only to scheme {other}, not {scheme}")
            shapers[node] = (_parse_etf if scheme == "etf" else _parse_taprio)(c, spec, p)

    filters: dict = {}
    raw_filters = doc.get("filters", {})
    if c.dict(raw_filters, "filters", names or set(raw_filters)):
        for node, spec in raw_filters.items():
            p = f"filters.{node}"
            if not c.dict(spec, p, {"rules", "gates"}):
                continue
            fc = FilterCfg()
            rules = spec.get("rules", [])
            if not isinstance(rules, list):
                c.fail(f"{p}.rules", "expected a list")
                rules = []
            before = len(c.problems)
            for i, r in enumerate(rules):
                rp = f"{p}.rules[{i}]"
                if c.dict(r, rp, {"handle", *_STREAM_FIELDS},
                          required=("handle",)):
                    if not isinstance(r.get("handle"), str):
                        c.fail(f"{rp}.handle", "expected a string")
                    for k, hi in _STREAM_FIELDS.items():
                        if r.get(k) is not None:  # absent or null matches any
                            c.int_in(r, k, rp, lo=0, hi=hi)
            # the bridges share this rule set, so it is built only when valid
            if rules and len(c.problems) == before:
                try:
                    fc.rules = make_stream_rules(rules)
                except DuplicateExactRuleError as exc:
                    c.fail(f"{p}.rules", str(exc))
            gates = spec.get("gates", {})
            if not isinstance(gates, dict):
                c.fail(f"{p}.gates", "expected an object")
                gates = {}
            fc.gates = {handle: _parse_stream_gate(c, g, f"{p}.gates.{handle}")
                        for handle, g in gates.items()}
            filters[node] = fc

    frer = FrerCfg()
    raw_frer = doc.get("frer")
    if raw_frer is not None and c.dict(raw_frer, "frer",
                                       {"enabled", "paths", "window_size",
                                        "loss_per_path"}):
        frer.enabled = c.bool_in(raw_frer, "enabled", "frer", False)
        frer.paths = c.int_in(raw_frer, "paths", "frer", lo=1, default=2)
        frer.window_size = c.int_in(raw_frer, "window_size", "frer", lo=1, default=64)
        loss = raw_frer.get("loss_per_path", 0.0)
        if isinstance(loss, bool) or not isinstance(loss, (int, float)) \
                or not 0.0 <= loss < 1.0:
            c.fail("frer.loss_per_path", f"expected a number in [0,1), got {loss!r}")
        else:
            frer.loss_per_path = float(loss)

    cqf = None
    raw_cqf = doc.get("cqf")
    if raw_cqf is not None and c.dict(raw_cqf, "cqf",
                                      {"enabled", "cycle_time_ns", "ipv_even",
                                       "ipv_odd", "base_time"}):
        before = len(c.problems)
        enabled = c.bool_in(raw_cqf, "enabled", "cqf", False)
        fields = {"cycle_time_ns": c.int_in(raw_cqf, "cycle_time_ns", "cqf", lo=1,
                                            default=500_000),
                  "ipv_even": c.int_in(raw_cqf, "ipv_even", "cqf", lo=0, hi=7, default=2),
                  "ipv_odd": c.int_in(raw_cqf, "ipv_odd", "cqf", lo=0, hi=7, default=3),
                  "base_time": c.int_in(raw_cqf, "base_time", "cqf", lo=0, default=0)}
        if enabled and len(c.problems) == before:
            try:
                cqf = CqfConfig(**fields)
            except ValueError as exc:  # the only check left: distinct IPVs
                c.fail("cqf.ipv_odd", str(exc))

    traffic = TrafficCfg()
    raw_traffic = doc.get("traffic")
    if raw_traffic is None:
        c.fail("traffic", "missing required section")
    elif c.dict(raw_traffic, "traffic",
                {"period_ns", "count", "frame_size_bytes", "mode", "priority",
                 "stream", "wake_jitter", "stack_latency", "driver_latency",
                 "hw_precision", "txtime_lead_ns"}):
        traffic.period_ns = c.int_in(raw_traffic, "period_ns", "traffic", lo=1,
                                     default=500_000)
        traffic.count = c.int_in(raw_traffic, "count", "traffic", lo=1,
                                 default=10_000)
        traffic.frame_size_bytes = c.int_in(
            raw_traffic, "frame_size_bytes", "traffic", lo=MIN_FRAME_BYTES,
            hi=MAX_FRAME_BYTES, default=MIN_FRAME_BYTES)
        mode = raw_traffic.get("mode", "sleep")
        if mode not in ("sleep", "txtime"):
            c.fail("traffic.mode", f"must be sleep|txtime, got {mode!r}")
        traffic.mode = mode
        traffic.priority = c.int_in(raw_traffic, "priority", "traffic", lo=0,
                                    hi=7, default=0)
        stream = raw_traffic.get("stream")
        if stream is not None and c.dict(stream, "traffic.stream", _STREAM_FIELDS,
                                         required=_STREAM_FIELDS):
            traffic.stream = StreamKey(**{
                k: c.int_in(stream, k, "traffic.stream", lo=0, hi=hi)
                for k, hi in _STREAM_FIELDS.items()})
        for dist_key in ("wake_jitter", "stack_latency", "driver_latency",
                         "hw_precision"):
            setattr(traffic, dist_key,
                    c.dist(raw_traffic, dist_key, "traffic",
                           default=JitterDist.constant(0)))
        lead = raw_traffic.get("txtime_lead_ns")
        if lead is not None:
            traffic.txtime_lead_ns = c.int_in(raw_traffic, "txtime_lead_ns",
                                              "traffic", lo=0)

    run = RunCfg()
    raw_run = doc.get("run")
    if raw_run is None:
        c.fail("run", "missing required section")
    elif c.dict(raw_run, "run", {"seed", "count", "histogram_bin_ns"}):
        run.seed = c.int_in(raw_run, "seed", "run", lo=0, default=1)
        if raw_run.get("count") is not None:
            run.count = c.int_in(raw_run, "count", "run", lo=1)
        run.histogram_bin_ns = c.int_in(raw_run, "histogram_bin_ns", "run",
                                        lo=1, default=100)

    # checked, like the path, once every section is valid on its own
    if not c.problems:
        bridges = [link.src for link in chain[1:]]
        # the runner builds egress ports and bridges only on the path
        for section, by_node, users, who in (
                ("shapers", shapers, {link.src for link in chain}, "the talker and bridges"),
                ("filters", filters, set(bridges), "bridges")):
            for node in sorted(by_node.keys() - users):
                c.fail(f"{section}.{node}",
                       f"applies only to {who} on the talker-to-listener path")
        # a bridge looks its gate up by the handle of the rule a frame matches
        for b in sorted(filters.keys() & set(bridges)):
            fc = filters[b]
            named = {r.handle for r in fc.rules.rules} if fc.rules else set()
            for handle in sorted(fc.gates.keys() - named):
                c.fail(f"filters.{b}.gates.{handle}",
                       f"no rule in filters.{b}.rules names this handle")
        if cqf is not None:
            if not bridges:
                c.fail("cqf.enabled", "no bridge on the talker-to-listener path")
            gate, gcl = cqf_compose(cqf)
            for b in bridges:
                shaper = shapers.get(b, TaprioCfg())
                if b in filters:
                    c.fail(f"filters.{b}", "cqf sets the stream gate of this bridge")
                if isinstance(shaper, EtfCfg):
                    c.fail(f"shapers.{b}.scheme", "cqf needs taprio on this bridge")
                elif shaper.gcl is not None:
                    c.fail(f"shapers.{b}.gcl", "cqf sets the gcl of this bridge")
                else:
                    shapers[b] = replace(shaper, gcl=gcl)
                filters[b] = FilterCfg(gates={None: gate})
        etf = [link.src for link in chain if isinstance(shapers.get(link.src), EtfCfg)]
        if traffic.mode == "sleep":
            for node in etf:
                c.fail(f"shapers.{node}.scheme",
                       "etf needs traffic.mode txtime: a sleep-mode talker sets no txtime")
        elif not etf:
            c.fail("traffic.mode", "txtime needs an etf shaper on the talker-to-listener "
                                   "path: no other queue reads the launch time")

    if c.problems:
        raise ConfigError(sorted(set(c.problems)))
    return ScenarioConfig(nodes=nodes, links=links, clocks=clocks,
                          shapers=shapers, filters=filters, frer=frer,
                          traffic=traffic, run=run)


def load_scenario(path) -> ScenarioConfig:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError([f"not valid JSON: {exc}"])
    return parse_scenario(doc)
