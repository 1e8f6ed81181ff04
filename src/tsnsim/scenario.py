"""Declarative scenario files: schema, validation, and typed access.

A scenario is a JSON document with top-level sections nodes, links,
clocks, shapers, filters, frer, cqf, traffic, run. Validation rejects
unknown keys and reports every problem with its dotted path.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Optional

from .core import PPM, JitterDist

VALID_TOP_KEYS = {"nodes", "links", "clocks", "shapers", "filters",
                  "frer", "cqf", "traffic", "run"}

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
        for k in cfg:
            if k not in _DIST_KEYS[kind]:
                self.fail(f"{p}.{k}", "unknown key")
        try:
            return JitterDist.from_config(cfg)
        except (KeyError, TypeError, ValueError) as exc:
            self.fail(p, f"bad distribution: {exc}")
            return default


@dataclass
class ClockCfg:
    offset_ns: int = 0
    drift_ppm: Any = 0
    sync_interval_ns: Optional[int] = None
    sync_residual: JitterDist = JitterDist.constant(0)


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


@dataclass
class ShaperCfg:
    scheme: str = "taprio"          # taprio | etf
    gcl: Optional[dict] = None      # raw {base_time, cycle_time_ns, entries}
    guard_mode: str = "fit"
    queue_capacity: int = 64
    etf_delta_ns: Optional[int] = None
    etf_offload: bool = True
    preemption_enabled: bool = False
    express_classes: tuple = ()
    min_fragment_bytes: int = 64


@dataclass
class FilterCfg:
    rules: list = field(default_factory=list)
    gates: dict = field(default_factory=dict)  # handle -> raw gate config


@dataclass
class FrerCfg:
    enabled: bool = False
    paths: int = 2
    window_size: int = 64
    loss_per_path: float = 0.0


@dataclass
class CqfCfg:
    enabled: bool = False
    cycle_time_ns: int = 500_000
    ipv_even: int = 2
    ipv_odd: int = 3
    base_time: int = 0


@dataclass
class TrafficCfg:
    period_ns: int = 500_000
    count: int = 10_000
    frame_size_bytes: int = 64
    mode: str = "sleep"             # sleep | txtime
    priority: int = 0
    stream: Optional[dict] = None
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
    clocks: dict[str, dict[str, ClockCfg]]
    shapers: dict[str, ShaperCfg]
    filters: dict[str, FilterCfg]
    frer: FrerCfg
    cqf: CqfCfg
    traffic: TrafficCfg
    run: RunCfg

    @property
    def talker(self) -> NodeCfg:
        return next(n for n in self.nodes if n.role == "talker")

    @property
    def listener(self) -> NodeCfg:
        return next(n for n in self.nodes if n.role == "listener")

    def clock_for(self, node: str, which: str) -> ClockCfg:
        return self.clocks.get(node, {}).get(which, ClockCfg())


def _parse_clock(c: _Checker, obj, path) -> ClockCfg:
    c.dict(obj, path, {"offset_ns", "drift_ppm", "sync_interval_ns", "sync_residual"})
    cfg = ClockCfg()
    cfg.offset_ns = c.int_in(obj, "offset_ns", path, default=0)
    drift = obj.get("drift_ppm", 0)
    if isinstance(drift, bool) or not isinstance(drift, (int, float)):
        c.fail(f"{path}.drift_ppm", f"expected a number, got {drift!r}")
    elif (isinstance(drift, float) and not math.isfinite(drift)) or drift <= -PPM:
        # at -10**6 ppm the clock stops; below, it runs backwards
        c.fail(f"{path}.drift_ppm", f"must be finite and > {-PPM}, got {drift!r}")
    else:
        cfg.drift_ppm = drift
    si = obj.get("sync_interval_ns")
    if si is not None:
        cfg.sync_interval_ns = c.int_in(obj, "sync_interval_ns", path, lo=1)
    cfg.sync_residual = c.dist(obj, "sync_residual", path,
                               default=JitterDist.constant(0))
    return cfg


def _parse_gcl_raw(c: _Checker, obj, path):
    if not c.dict(obj, path, {"base_time", "cycle_time_ns", "entries"},
                  required=("cycle_time_ns", "entries")):
        return None
    c.int_in(obj, "base_time", path, lo=0, default=0)
    c.int_in(obj, "cycle_time_ns", path, lo=1, required=True)
    entries = obj.get("entries")
    if not isinstance(entries, list) or not entries:
        c.fail(f"{path}.entries", "expected a non-empty list")
        return obj
    for i, e in enumerate(entries):
        ep = f"{path}.entries[{i}]"
        if c.dict(e, ep, {"gate_mask", "duration_ns"}, required=("gate_mask", "duration_ns")):
            c.int_in(e, "gate_mask", ep, lo=0, hi=0xFF)
            c.int_in(e, "duration_ns", ep, lo=1)
    return obj


def _parse_stream_gate_raw(c: _Checker, obj, path):
    if not c.dict(obj, path, {"base_time", "cycle_time_ns", "entries"},
                  required=("cycle_time_ns", "entries")):
        return None
    c.int_in(obj, "base_time", path, lo=0, default=0)
    c.int_in(obj, "cycle_time_ns", path, lo=1, required=True)
    entries = obj.get("entries")
    if not isinstance(entries, list) or not entries:
        c.fail(f"{path}.entries", "expected a non-empty list")
        return obj
    for i, e in enumerate(entries):
        ep = f"{path}.entries[{i}]"
        if c.dict(e, ep, {"open", "duration_ns", "ipv", "max_octets"},
                  required=("open", "duration_ns")):
            if not isinstance(e.get("open"), bool):
                c.fail(f"{ep}.open", "expected a boolean")
            c.int_in(e, "duration_ns", ep, lo=1)
            if e.get("ipv") is not None:
                c.int_in(e, "ipv", ep, lo=0, hi=7)
            if e.get("max_octets") is not None:
                c.int_in(e, "max_octets", ep, lo=0)
    return obj


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
                from .network import FORWARDING_PRESETS
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
            if not c.dict(spec, p, {"scheme", "gcl", "guard_mode", "queue_capacity",
                                    "etf", "preemption"}):
                continue
            sh = ShaperCfg()
            scheme = spec.get("scheme", "taprio")
            if scheme not in ("taprio", "etf"):
                c.fail(f"{p}.scheme", f"must be taprio|etf, got {scheme!r}")
            sh.scheme = scheme
            if spec.get("gcl") is not None:
                sh.gcl = _parse_gcl_raw(c, spec["gcl"], f"{p}.gcl")
            gm = spec.get("guard_mode", "fit")
            if gm not in ("fit", "none"):
                c.fail(f"{p}.guard_mode", f"must be fit|none, got {gm!r}")
            sh.guard_mode = gm
            sh.queue_capacity = c.int_in(spec, "queue_capacity", p, lo=1, default=64)
            etf = spec.get("etf")
            if etf is not None and c.dict(etf, f"{p}.etf", {"delta_ns", "offload"}):
                sh.etf_delta_ns = c.int_in(etf, "delta_ns", f"{p}.etf", lo=0)
                off = etf.get("offload", True)
                if not isinstance(off, bool):
                    c.fail(f"{p}.etf.offload", "expected a boolean")
                else:
                    sh.etf_offload = off
            pre = spec.get("preemption")
            if pre is not None and c.dict(pre, f"{p}.preemption",
                                          {"enabled", "express_classes",
                                           "min_fragment_bytes"}):
                en = pre.get("enabled", False)
                if not isinstance(en, bool):
                    c.fail(f"{p}.preemption.enabled", "expected a boolean")
                else:
                    sh.preemption_enabled = en
                ec = pre.get("express_classes", [])
                if (not isinstance(ec, list)
                        or any(not isinstance(x, int) or not 0 <= x <= 7 for x in ec)):
                    c.fail(f"{p}.preemption.express_classes",
                           "expected a list of classes 0-7")
                else:
                    sh.express_classes = tuple(ec)
                sh.min_fragment_bytes = c.int_in(pre, "min_fragment_bytes",
                                                 f"{p}.preemption", lo=1, default=64)
            shapers[node] = sh

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
            for i, r in enumerate(rules):
                rp = f"{p}.rules[{i}]"
                if c.dict(r, rp, {"dest_mac", "vlan_id", "pcp", "handle"},
                          required=("handle",)):
                    if not isinstance(r.get("handle"), str):
                        c.fail(f"{rp}.handle", "expected a string")
            fc.rules = rules
            gates = spec.get("gates", {})
            if not isinstance(gates, dict):
                c.fail(f"{p}.gates", "expected an object")
                gates = {}
            for handle, g in gates.items():
                _parse_stream_gate_raw(c, g, f"{p}.gates.{handle}")
            fc.gates = gates
            filters[node] = fc

    frer = FrerCfg()
    raw_frer = doc.get("frer")
    if raw_frer is not None and c.dict(raw_frer, "frer",
                                       {"enabled", "paths", "window_size",
                                        "loss_per_path"}):
        en = raw_frer.get("enabled", False)
        if not isinstance(en, bool):
            c.fail("frer.enabled", "expected a boolean")
        else:
            frer.enabled = en
        frer.paths = c.int_in(raw_frer, "paths", "frer", lo=1, default=2)
        frer.window_size = c.int_in(raw_frer, "window_size", "frer", lo=1, default=64)
        loss = raw_frer.get("loss_per_path", 0.0)
        if isinstance(loss, bool) or not isinstance(loss, (int, float)) \
                or not 0.0 <= loss < 1.0:
            c.fail("frer.loss_per_path", f"expected a number in [0,1), got {loss!r}")
        else:
            frer.loss_per_path = float(loss)

    cqf = CqfCfg()
    raw_cqf = doc.get("cqf")
    if raw_cqf is not None and c.dict(raw_cqf, "cqf",
                                      {"enabled", "cycle_time_ns", "ipv_even",
                                       "ipv_odd", "base_time"}):
        en = raw_cqf.get("enabled", False)
        if not isinstance(en, bool):
            c.fail("cqf.enabled", "expected a boolean")
        else:
            cqf.enabled = en
        cqf.cycle_time_ns = c.int_in(raw_cqf, "cycle_time_ns", "cqf", lo=1,
                                     default=500_000)
        cqf.ipv_even = c.int_in(raw_cqf, "ipv_even", "cqf", lo=0, hi=7, default=2)
        cqf.ipv_odd = c.int_in(raw_cqf, "ipv_odd", "cqf", lo=0, hi=7, default=3)
        cqf.base_time = c.int_in(raw_cqf, "base_time", "cqf", lo=0, default=0)
        if cqf.enabled and cqf.ipv_even == cqf.ipv_odd:
            c.fail("cqf.ipv_odd", "must differ from ipv_even")

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
        traffic.frame_size_bytes = c.int_in(raw_traffic, "frame_size_bytes",
                                            "traffic", lo=64, hi=9000, default=64)
        mode = raw_traffic.get("mode", "sleep")
        if mode not in ("sleep", "txtime"):
            c.fail("traffic.mode", f"must be sleep|txtime, got {mode!r}")
        traffic.mode = mode
        traffic.priority = c.int_in(raw_traffic, "priority", "traffic", lo=0,
                                    hi=7, default=0)
        stream = raw_traffic.get("stream")
        if stream is not None and c.dict(stream, "traffic.stream",
                                         {"dest_mac", "vlan_id", "pcp"},
                                         required=("dest_mac", "vlan_id", "pcp")):
            traffic.stream = stream
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

    if c.problems:
        raise ConfigError(sorted(set(c.problems)))
    return ScenarioConfig(nodes=nodes, links=links, clocks=clocks,
                          shapers=shapers, filters=filters, frer=frer,
                          cqf=cqf, traffic=traffic, run=run)


def load_scenario(path) -> ScenarioConfig:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError([f"not valid JSON: {exc}"])
    return parse_scenario(doc)
