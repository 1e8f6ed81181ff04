"""Declarative scenario files: schema, validation, and typed access.

A scenario is a JSON document with top-level sections nodes, links,
clocks, shapers, filters, frer, cqf, traffic, run. Each object is read
by one field reader into a value record, so a parsed scenario holds no
run state. Validation rejects unknown keys and reports every problem with
its dotted path. The links must make one path from the talker through the
bridges to the listener, which parse_scenario compiles into hops, each with
its node, link out, shaper and filter; a node or link off it is rejected.
An enabled cqf section sets the stream gate windows and GCL of each bridge hop.
"""

from __future__ import annotations

import json
import math
from functools import partial
from typing import Optional

from .core import CONSTANT_ZERO, PPM, ClockModel, CyclicSchedule, JitterDist, Record, ScheduleError
from .egress import NO_PREEMPTION, GclEntry, PreemptionConfig
from .ingress import StreamGateEntry
from .network import FORWARDING_PRESETS, CqfConfig, cqf_compose
from .traffic import (MAX_FRAME_BYTES, MIN_FRAME_BYTES, DuplicateExactRuleError,
                      StreamKey, StreamRule, StreamRuleSet)

VALID_TOP_KEYS = {"nodes", "links", "clocks", "shapers", "filters",
                  "frer", "cqf", "traffic", "run"}

#: most FRER member paths: each is a full copy of the bridge chain
MAX_FRER_PATHS = 16

#: most resyncs of one clock in a run: each draws a residual, in order
MAX_RESYNCS = 10 ** 6

#: largest value of each StreamKey field
_STREAM_FIELDS = {"dest_mac": 2 ** 48 - 1, "vlan_id": 4095, "pcp": 7}


class ConfigError(Exception):
    """Scenario validation failure with field-level diagnostics."""

    def __init__(self, problems: list[str]):
        self.problems = problems
        super().__init__("invalid scenario:\n" + "\n".join(f"  - {p}" for p in problems))


class _Checker:
    """Collects problems. read makes each scenario object a record, one reader per
    field; readers take (obj, key, path) and return obj[key], or default when it
    is absent or bad (choice returns None when it is bad)."""

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

    def nonempty(self, obj, path) -> list:
        if isinstance(obj, list) and obj:
            return obj
        self.fail(path, "expected a non-empty list")
        return []

    def read(self, obj, path, cls, fields, required=()):
        """cls(**values) from the object at path, each key present read by
        fields[key]: one absent or read as None keeps cls's default. None when
        obj is not an object or a value is missing or bad."""
        if not self.dict(obj, path, fields, required):
            return None
        before = len(self.problems)
        values = {k: read(self, obj, k, path) for k, read in fields.items() if k in obj}
        if len(self.problems) > before or not obj.keys() >= set(required):
            return None
        return cls(**{k: v for k, v in values.items() if v is not None})

    def int_in(self, obj, key, path, lo=None, hi=None, default=None, nullable=False):
        if key not in obj or nullable and obj[key] is None:
            return default
        v = obj[key]
        if isinstance(v, bool) or not isinstance(v, int):
            self.fail(f"{path}.{key}", f"expected an integer, got {v!r}")
        elif lo is not None and v < lo:
            self.fail(f"{path}.{key}", f"must be >= {lo}, got {v}")
        elif hi is not None and v > hi:
            self.fail(f"{path}.{key}", f"must be <= {hi}, got {v}")
        else:
            return v
        return default

    def bool_in(self, obj, key, path, default=None):
        v = obj.get(key, default)
        if not isinstance(v, bool):
            self.fail(f"{path}.{key}", "expected a boolean")
            return default
        return v

    def choice(self, obj, key, path, choices, default=None, unknown=None):
        """One of the strings in choices, default when absent; None when bad.
        The string test comes first: a list or an object cannot be hashed."""
        v = obj.get(key, default)
        if isinstance(v, str) and v in choices:
            return v
        self.fail(f"{path}.{key}", f"unknown {unknown} {v!r}" if unknown
                  else f"must be {'|'.join(choices)}, got {v!r}")
        return None


class NodeCfg(Record, frozen=True):
    name: str
    role: str
    forwarding: JitterDist = CONSTANT_ZERO
    rx_latency: JitterDist = CONSTANT_ZERO


class LinkCfg(Record, frozen=True):
    src: str
    dst: str
    rate_bps: int
    propagation_ns: int = 0
    overhead_bytes: int = 0


class TaprioCfg(Record, frozen=True):
    gcl: Optional[CyclicSchedule] = None  # of GclEntry
    guard_mode: str = "fit"
    queue_capacity: int = 64
    preemption: PreemptionConfig = NO_PREEMPTION


class EtfCfg(Record, frozen=True):
    offload: bool = True
    delta_ns: int = 0  # 50 us by default without offload


class FilterCfg(Record, frozen=True):
    """A bridge's stream rules, first match wins (none: every frame has handle
    None), and its (handle, CyclicSchedule of StreamGateEntry) pairs. Each bridge
    on each path builds a StreamRuleSet and StreamGates of its own from them."""

    rules: tuple[StreamRule, ...] = ()
    gates: tuple[tuple[Optional[str], CyclicSchedule], ...] = ()


class FrerCfg(Record, frozen=True):
    enabled: bool = False
    paths: int = 2
    window_size: int = 64
    loss_per_path: float = 0.0


class TrafficCfg(Record, frozen=True):
    period_ns: int = 500_000
    count: int = 10_000
    frame_size_bytes: int = MIN_FRAME_BYTES
    mode: str = "sleep"             # sleep | txtime
    priority: int = 0
    stream: Optional[StreamKey] = None
    wake_jitter: JitterDist = CONSTANT_ZERO
    stack_latency: JitterDist = CONSTANT_ZERO
    driver_latency: JitterDist = CONSTANT_ZERO
    hw_precision: JitterDist = CONSTANT_ZERO
    txtime_lead_ns: Optional[int] = None


#: the configs of a port with no shaper and of a bridge with no filter
NO_SHAPER, NO_FILTER = TaprioCfg(), FilterCfg()


class Hop(Record, frozen=True):
    """A node on the talker-to-listener path with its link out, the shaper of
    its egress port and, on a bridge, its filter."""

    node: NodeCfg
    link: LinkCfg
    shaper: TaprioCfg | EtfCfg = NO_SHAPER
    filter: FilterCfg = NO_FILTER


class RunCfg(Record):
    """The run section: the seed, a frame count that overrides the traffic
    section's when set, and the width of the offset histograms' bins."""

    seed: int = 1
    count: Optional[int] = None
    histogram_bin_ns: int = 100


class ScenarioConfig(Record, frozen=True):
    #: the talker's hop, then each bridge's in order; the last link ends at listener
    path: tuple[Hop, ...]
    listener: NodeCfg
    #: node -> {"system" | "phc": ClockModel template}; a run resyncs
    #: copies of its own
    clocks: dict[str, dict[str, ClockModel]]
    frer: FrerCfg
    traffic: TrafficCfg
    run: RunCfg


def run_horizon(traffic: TrafficCfg, run: RunCfg) -> int:
    """The true time up to which a run resyncs its clocks: 101 periods past
    the last intended transmission, at count * period_ns."""
    return ((run.count or traffic.count) + 101) * traffic.period_ns


def _parse_schedule(c: _Checker, obj, path, cls, fields, required):
    """A CyclicSchedule(base_time, cycle_time_ns, entries) of cls entries, each
    read by fields with the keys required, or None on a problem; the schedule
    checks the entries' sum."""
    if not c.dict(obj, path, {"base_time", "cycle_time_ns", "entries"},
                  required=("cycle_time_ns", "entries")):
        return None
    before = len(c.problems)
    base = c.int_in(obj, "base_time", path, lo=0, default=0)
    cycle = c.int_in(obj, "cycle_time_ns", path, lo=1)
    entries = [c.read(e, f"{path}.entries[{i}]", cls, fields, required)
               for i, e in enumerate(c.nonempty(obj.get("entries"), f"{path}.entries"))]
    if len(c.problems) > before or cycle is None:  # dict reported a missing cycle
        return None
    try:
        return CyclicSchedule(base, cycle, entries)
    except ScheduleError as exc:
        c.fail(f"{path}.entries", str(exc))
        return None


# Field readers for _Checker.read: reader(checker, obj, key, path) returns
# obj[key] as its field's value, or None when it is bad.

def _int(**bounds):
    return partial(_Checker.int_in, **bounds)


def _choice(*choices):
    return partial(_Checker.choice, choices=choices)


def _object(parse, *args):
    """The reader of a nested object by parse(c, obj, path, *args); null is absent."""
    return lambda c, obj, key, path: (None if obj[key] is None
                                      else parse(c, obj[key], f"{path}.{key}", *args))


def _number(c: _Checker, obj, key, path):
    """A number, integral or not; a string or a boolean is bad."""
    if isinstance(v := obj[key], (int, float)) and not isinstance(v, bool):
        return v
    c.fail(f"{path}.{key}", f"expected a number, got {v!r}")
    return None


def _drift(c: _Checker, obj, key, path):
    drift = _number(c, obj, key, path)
    if drift is not None and (isinstance(drift, float) and not math.isfinite(drift)
                              or drift <= -PPM):
        # at -10**6 ppm the clock stops; below, it runs backwards
        c.fail(f"{path}.{key}", f"must be finite and > {-PPM}, got {drift!r}")
        return None
    return drift


def _loss(c: _Checker, obj, key, path):
    loss = obj[key]
    if isinstance(loss, bool) or not isinstance(loss, (int, float)) or not 0 <= loss < 1:
        c.fail(f"{path}.{key}", f"expected a number in [0,1), got {loss!r}")
        return None
    return float(loss)


def _text(c: _Checker, obj, key, path, empty=True):
    """A string, and not "" unless empty; absent, it is bad."""
    v = obj.get(key)
    if isinstance(v, str) and (empty or v):
        return v
    c.fail(f"{path}.{key}", f"expected a {'' if empty else 'non-empty '}string")
    return None


def _forwarding(c: _Checker, obj, key, path):
    """A {"preset": name} of FORWARDING_PRESETS, or a latency."""
    fwd = obj[key]
    if isinstance(fwd, dict) and set(fwd) == {"preset"}:
        return FORWARDING_PRESETS.get(c.choice(fwd, "preset", f"{path}.{key}",
                                               FORWARDING_PRESETS, unknown="preset"))
    return _latency(c, obj, key, path)


def _link(**values) -> LinkCfg:
    """The LinkCfg of a links entry, whose ends are its from and to."""
    return LinkCfg(values.pop("from"), values.pop("to"), **values)


def _classes(c: _Checker, obj, key, path):
    ec = obj[key]
    if (not isinstance(ec, list)
            or any(isinstance(x, bool) or not isinstance(x, int) or not 0 <= x <= 7
                   for x in ec)):
        c.fail(f"{path}.{key}", "expected a list of classes 0-7")
        return None
    return frozenset(ec)


def _points(c: _Checker, obj, key, path):
    """An empirical distribution's [value_ns, weight] pairs, each read by _POINT."""
    pts = obj[key]
    if isinstance(pts, list) and all(isinstance(p, list) and len(p) == 2 for p in pts):
        pairs = [c.read(dict(zip(_POINT, p)), f"{path}.{key}[{i}]", lambda **v: tuple(v.values()),
                        _POINT) for i, p in enumerate(pts)]
        return None if None in pairs else pairs
    c.fail(f"{path}.{key}", "expected a list of [value_ns, weight] pairs")
    return None


_POINT = {"value_ns": _int(), "weight": _number}
#: per distribution kind, the arguments of JitterDist.<kind>, each with its reader
_DISTS = {
    "constant": {"value_ns": _int()},
    "uniform": {"min_ns": _int(), "max_ns": _int()},
    "normal": {"mean_ns": _number, "std_ns": _number, "min_ns": _int(nullable=True)},
    "empirical": {"points": _points},
}


def _parse_dist(c: _Checker, obj, path, latency=False) -> Optional[JitterDist]:
    """A JitterDist.<kind> of its other keys, read by _DISTS[kind] and all required
    but normal's min_ns; a latency, which delays an event, never draws below 0."""
    if not isinstance(obj, dict):
        c.fail(path, "expected a distribution object")
        return None
    if (kind := c.choice(obj, "kind", path, _DISTS, unknown="distribution kind")) is None:
        return None
    try:
        dist = c.read({k: v for k, v in obj.items() if k != "kind"}, path,
                      getattr(JitterDist, kind), _DISTS[kind],
                      [k for k in _DISTS[kind] if (kind, k) != ("normal", "min_ns")])
    except (ValueError, OverflowError) as exc:
        c.fail(path, f"bad distribution: {exc}")
        return None
    if dist is not None and latency and dist.lowest < 0:
        c.fail(path, f"a latency must not draw below 0, but can draw {dist.lowest}")
        return None
    return dist


_dist, _latency = _object(_parse_dist), _object(_parse_dist, True)

_NODE = {"name": partial(_text, empty=False), "role": _choice("talker", "bridge", "listener"),
         "forwarding": _forwarding, "rx_latency": _dist}
# a link's from and to are read against the document's node names
_LINK = {"rate_bps": _int(lo=1), "propagation_ns": _int(lo=0), "overhead_bytes": _int(lo=0)}

_CLOCK = {"offset_ns": _int(), "drift_ppm": _drift,
          "sync_interval_ns": _int(lo=1, nullable=True), "sync_residual": _dist}
_PREEMPTION = {"enabled": _Checker.bool_in, "express_classes": _classes,
               "min_fragment_bytes": _int(lo=1)}
# a schedule entry's keys are all required but a stream gate's ipv and
# max_octets, where null is the same as absent
_GCL_ENTRY = {"gate_mask": _int(lo=0, hi=0xFF), "duration_ns": _int(lo=1)}
_GATE_ENTRY = {"open": _Checker.bool_in, "duration_ns": _int(lo=1),
               "ipv": _int(lo=0, hi=7, nullable=True), "max_octets": _int(lo=0, nullable=True)}
_TAPRIO = {"gcl": _object(_parse_schedule, GclEntry, _GCL_ENTRY, tuple(_GCL_ENTRY)),
           "guard_mode": _choice("fit", "none"), "queue_capacity": _int(lo=1),
           "preemption": _object(_Checker.read, PreemptionConfig, _PREEMPTION)}
_ETF = {"offload": _Checker.bool_in, "delta_ns": _int(lo=0)}
_FRER = {"enabled": _Checker.bool_in, "paths": _int(lo=1, hi=MAX_FRER_PATHS),
         "window_size": _int(lo=1), "loss_per_path": _loss}
_STREAM_KEY = {k: _int(lo=0, hi=hi) for k, hi in _STREAM_FIELDS.items()}
# a stream rule's absent or null key field matches any value
_RULE = {**{k: _int(lo=0, hi=hi, nullable=True) for k, hi in _STREAM_FIELDS.items()},
         "handle": _text}
_TRAFFIC = {"period_ns": _int(lo=1), "count": _int(lo=1),
            "frame_size_bytes": _int(lo=MIN_FRAME_BYTES, hi=MAX_FRAME_BYTES),
            "mode": _choice("sleep", "txtime"), "priority": _int(lo=0, hi=7),
            "stream": _object(_Checker.read, StreamKey, _STREAM_KEY, tuple(_STREAM_FIELDS)),
            "wake_jitter": _dist, "stack_latency": _latency, "driver_latency": _latency,
            "hw_precision": _dist, "txtime_lead_ns": _int(lo=0, nullable=True)}
_RUN = {"seed": _int(lo=0), "count": _int(lo=1, nullable=True),
        "histogram_bin_ns": _int(lo=1)}
_CQF = {"enabled": _Checker.bool_in, "cycle_time_ns": _int(lo=1),
        "ipv_even": _int(lo=0, hi=7), "ipv_odd": _int(lo=0, hi=7), "base_time": _int(lo=0)}

#: shaper keys that configure only one scheme's queue
_SCHEME_KEYS = {"taprio": _TAPRIO.keys(), "etf": {"etf"}}


def _parse_section(c: _Checker, doc, key, cls, fields, required=False):
    """cls read from a top-level section; an absent or null one is cls(), and
    one that is not an object or has a bad value is None."""
    if doc.get(key) is None:
        if required:
            c.fail(key, "missing required section")
        return cls()
    return c.read(doc[key], key, cls, fields)


def _parse_nodes(c: _Checker, raw) -> tuple[list[NodeCfg], set]:
    """The nodes, and every valid name, also that of a node with a bad value."""
    nodes, names = [], set()
    for i, n in enumerate(c.nonempty(raw, "nodes")):
        nodes.append(c.read(n, f"nodes[{i}]", NodeCfg, _NODE, ("name", "role")))
        if isinstance(n, dict) and isinstance(name := n.get("name"), str) and name:
            if name in names:
                c.fail(f"nodes[{i}].name", f"duplicate node name {name!r}")
            names.add(name)
    if not c.problems:
        for role in ("talker", "listener"):
            if [n.role for n in nodes].count(role) != 1:
                c.fail("nodes", f"exactly one {role} required")
    return nodes, names


def _parse_links(c: _Checker, raw, nodes, names) -> list[LinkCfg]:
    """The links from talker to listener, each node's link out in turn, once
    every node and link is valid; [] on a problem, or with any off that path."""
    end = partial(_Checker.choice, choices=names, unknown="node")
    links = [c.read(l, f"links[{i}]", _link, {"from": end, "to": end, **_LINK},
                    ("from", "to", "rate_bps")) for i, l in enumerate(c.nonempty(raw, "links"))]
    if c.problems:
        return []
    ends = {n.role: n.name for n in nodes}
    listener, node, walk, out = ends["listener"], ends["talker"], [], {}
    for i, link in enumerate(links):
        out.setdefault(link.src, i)
    while node != listener:
        # a walk longer than the number of nodes with a link out repeats one
        if node not in out or len(walk) >= len(out):
            c.fail("links", f"no forwarding path from {node} to {listener}")
            return []
        walk.append(out[node])
        node = links[out[node]].dst
    for i in sorted(set(range(len(links))) - set(walk)):
        c.fail(f"links[{i}]", "not on the talker-to-listener path")
    on_path = {listener, *(links[i].src for i in walk)}
    for i, n in enumerate(nodes):
        if n.name not in on_path:
            c.fail(f"nodes[{i}]", "not on the talker-to-listener path")
    return [links[i] for i in walk]


def _parse_by_node(c: _Checker, doc, section, names, keys, parse) -> dict:
    """node -> parse(checker, spec, path) for each node's object of keys in
    section; a node whose parse returns None is left out."""
    raw = doc.get(section, {})
    by_node = {}
    # with no valid node name, every node is let through to its own checks
    if c.dict(raw, section, names or raw):
        for node, spec in raw.items():
            p = f"{section}.{node}"
            if c.dict(spec, p, keys) and (cfg := parse(c, spec, p)) is not None:
                by_node[node] = cfg
    return by_node


def _parse_clocks(c: _Checker, spec, path) -> dict:
    return {which: c.read(spec[which], f"{path}.{which}", ClockModel, _CLOCK)
            for which in ("system", "phc") if which in spec}


def _parse_shaper(c: _Checker, spec, path) -> Optional[TaprioCfg | EtfCfg]:
    scheme = c.choice(spec, "scheme", path, ("taprio", "etf"), "taprio")
    if scheme is None:
        return None
    other = "etf" if scheme == "taprio" else "taprio"
    for k in sorted(_SCHEME_KEYS[other] & spec.keys()):
        c.fail(f"{path}.{k}", f"applies only to scheme {other}, not {scheme}")
    if scheme == "taprio":
        # the shaper's keys were checked with the etf ones: read only taprio's
        return c.read({k: spec[k] for k in spec if k in _TAPRIO}, path, TaprioCfg, _TAPRIO)
    etf = spec.get("etf")
    cfg = EtfCfg() if etf is None else c.read(etf, f"{path}.etf", EtfCfg, _ETF)
    # without offload the kernel needs time to hand the frame to the NIC
    if cfg is not None and not cfg.offload and "delta_ns" not in etf:
        return EtfCfg(offload=False, delta_ns=50_000)
    return cfg


def _parse_filter(c: _Checker, spec, path) -> FilterCfg:
    rules = spec.get("rules", [])
    if not isinstance(rules, list):
        c.fail(f"{path}.rules", "expected a list")
        rules = []
    rules = tuple(c.read(r, f"{path}.rules[{i}]", StreamRule, _RULE, ("handle",))
                  for i, r in enumerate(rules))
    if None not in rules:
        try:  # each bridge builds a rule set of its own; this one checks the patterns
            StreamRuleSet(rules)
        except DuplicateExactRuleError as exc:
            c.fail(f"{path}.rules", str(exc))
    gates = spec.get("gates", {})
    if not isinstance(gates, dict):
        c.fail(f"{path}.gates", "expected an object")
        gates = {}
    return FilterCfg(rules, tuple((h, _parse_schedule(c, g, f"{path}.gates.{h}", StreamGateEntry,
                                                      _GATE_ENTRY, ("open", "duration_ns")))
                                  for h, g in gates.items()))


def _parse_cqf(c: _Checker, doc) -> Optional[tuple[CyclicSchedule, CyclicSchedule]]:
    """The stream gate windows and GCL of an enabled and valid cqf section, else None."""
    cqf = _parse_section(c, doc, "cqf", CqfConfig, _CQF)
    if cqf is not None and cqf.enabled:
        try:
            return cqf_compose(cqf)
        except ValueError as exc:  # the only check left: distinct IPVs
            c.fail("cqf.ipv_odd", str(exc))
    return None


def _check_path(c: _Checker, by_name, chain, shapers, filters, cqf, mode) -> tuple[Hop, ...]:
    """The hop of each link of chain, made once each section is valid on its own,
    with the checks across sections; cqf, the schedules of an enabled cqf
    section, sets each bridge's gate windows and GCL."""
    names = [link.src for link in chain]  # the talker, then each bridge
    # the runner builds egress ports and bridges only on the path
    for section, by_node, users, who in (
            ("shapers", shapers, names, "the talker and bridges"),
            ("filters", filters, names[1:], "bridges")):
        for node in sorted(by_node.keys() - set(users)):
            c.fail(f"{section}.{node}",
                   f"applies only to {who} on the talker-to-listener path")
    if cqf is not None and len(chain) == 1:
        c.fail("cqf.enabled", "no bridge on the talker-to-listener path")
    path = []
    for name, link in zip(names, chain):
        shaper, fc = shapers.get(name, NO_SHAPER), filters.get(name, NO_FILTER)
        # past the talker, a bridge looks its gate up by the handle of the rule a frame matches
        if path:
            for handle in sorted({h for h, _ in fc.gates} - {r.handle for r in fc.rules}):
                c.fail(f"filters.{name}.gates.{handle}",
                       f"no rule in filters.{name}.rules names this handle")
        if path and cqf is not None:
            if name in filters:
                c.fail(f"filters.{name}", "cqf sets the stream gate of this bridge")
            if isinstance(shaper, EtfCfg):
                c.fail(f"shapers.{name}.scheme", "cqf needs taprio on this bridge")
            elif shaper.gcl is not None:
                c.fail(f"shapers.{name}.gcl", "cqf sets the gcl of this bridge")
            else:
                shaper = TaprioCfg(cqf[1], shaper.guard_mode, shaper.queue_capacity,
                                   shaper.preemption)
            fc = FilterCfg(gates=((None, cqf[0]),))
        if isinstance(shaper, EtfCfg) and mode == "sleep":
            c.fail(f"shapers.{name}.scheme",
                   "etf needs traffic.mode txtime: a sleep-mode talker sets no txtime")
        path.append(Hop(by_name[name], link, shaper, fc))
    if mode == "txtime" and not any(isinstance(hop.shaper, EtfCfg) for hop in path):
        c.fail("traffic.mode", "txtime needs an etf shaper on the talker-to-listener "
                               "path: no other queue reads the launch time")
    return tuple(path)


def _check_resyncs(c: _Checker, clocks, horizon):
    """Each resyncing clock resyncs at most MAX_RESYNCS times up to horizon."""
    least = -(-horizon // MAX_RESYNCS)
    for node, by_which in clocks.items():
        for which, clock in by_which.items():
            if clock.sync_interval_ns and clock.sync_interval_ns < least:
                c.fail(f"clocks.{node}.{which}.sync_interval_ns",
                       f"must be >= {least} to resync at most {MAX_RESYNCS} times in "
                       f"the run's {horizon} ns, got {clock.sync_interval_ns}")


def parse_scenario(doc: dict) -> ScenarioConfig:
    """Validate a scenario document; raises ConfigError on any problem."""
    if not isinstance(doc, dict):
        raise ConfigError(["top level: expected a JSON object"])
    c = _Checker()
    for k in doc:
        if k not in VALID_TOP_KEYS:
            c.fail(k, "unknown top-level section")
    nodes, names = _parse_nodes(c, doc.get("nodes"))
    chain = _parse_links(c, doc.get("links"), nodes, names)
    clocks = _parse_by_node(c, doc, "clocks", names, {"system", "phc"}, _parse_clocks)
    shapers = _parse_by_node(c, doc, "shapers", names, {"scheme", *_TAPRIO, "etf"},
                             _parse_shaper)
    filters = _parse_by_node(c, doc, "filters", names, {"rules", "gates"}, _parse_filter)
    frer = _parse_section(c, doc, "frer", FrerCfg, _FRER)
    cqf = _parse_cqf(c, doc)
    traffic = _parse_section(c, doc, "traffic", TrafficCfg, _TRAFFIC, required=True)
    run = _parse_section(c, doc, "run", RunCfg, _RUN, required=True)
    if not c.problems:
        by_name = {n.name: n for n in nodes}
        path = _check_path(c, by_name, chain, shapers, filters, cqf, traffic.mode)
        _check_resyncs(c, clocks, run_horizon(traffic, run))
    if c.problems:
        raise ConfigError(sorted(set(c.problems)))
    return ScenarioConfig(path, by_name[chain[-1].dst], clocks, frer, traffic, run)


def load_document(path):
    """The JSON document in the file at path; ConfigError when the file
    cannot be read, is not UTF-8 text, or is not JSON."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"not valid JSON: {exc}"])
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError([f"cannot read {path}: {exc}"])


def load_scenario(path) -> ScenarioConfig:
    return parse_scenario(load_document(path))
