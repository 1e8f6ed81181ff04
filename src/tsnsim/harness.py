"""Cyclic talker/listener measurement harness.

Runs a scenario end to end, records the four per-packet timestamps
(software tx, hardware tx, hardware rx, software rx) against the intended
transmission grid, and produces offset statistics and histograms.
"""

from __future__ import annotations

import csv
import math
import statistics
from collections import Counter
from dataclasses import dataclass
from typing import Optional

from .core import (CONSTANT_ZERO, ClockModel, Engine, RNG_ALGORITHM,
                   SimTime, rng_fork)
from .egress import (EgressPort, EtfQueue, GateControlList, GclEntry,
                     PreemptionConfig, TaprioPort)
from .frer import ACCEPT, RecoveryState, SequenceGenerator, replicate
from .ingress import StreamGate, StreamGateEntry
from .network import BridgeNode, CqfConfig, cqf_compose
from .scenario import LinkCfg, ScenarioConfig, ShaperCfg
from .traffic import Frame, StreamKey, make_stream_rules

TIMESTAMP_KINDS = ("sw_tx", "hw_tx", "hw_rx", "sw_rx")


class EmptyError(Exception):
    pass


class MissingTimestampError(Exception):
    pass


class MalformedRowError(Exception):
    def __init__(self, line_no: int, reason: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {reason}")


@dataclass
class PacketRecord:
    seq: int
    intended_tx: SimTime
    sw_tx: Optional[SimTime] = None
    hw_tx: Optional[SimTime] = None
    hw_rx: Optional[SimTime] = None
    sw_rx: Optional[SimTime] = None


@dataclass
class OffsetStats:
    min_ns: int
    mean_ns: float
    median_ns: float
    p80_radius_ns: int
    max_ns: int
    bin_width_ns: int
    histogram: list  # [[bin_start_ns, count], ...]

    def to_dict(self) -> dict:
        return {"min_ns": self.min_ns, "mean_ns": self.mean_ns,
                "median_ns": self.median_ns,
                "p80_radius_ns": self.p80_radius_ns, "max_ns": self.max_ns,
                "bin_width_ns": self.bin_width_ns,
                "histogram": self.histogram}


@dataclass
class RunResult:
    records: list[PacketRecord]
    drops: dict
    metadata: dict


# ---------------------------------------------------------------------------
# offset analysis


def compute_offsets(records: list[PacketRecord], period: int, kind: str) -> list[int]:
    """Signed deviations of one timestamp kind from the intended cadence."""
    if not records:
        raise EmptyError("no records")
    if kind not in TIMESTAMP_KINDS:
        raise ValueError(f"unknown timestamp kind {kind!r}")
    first = records[0]
    base = first.intended_tx - first.seq * period
    offsets = []
    for r in records:
        reading = getattr(r, kind)
        if reading is None:
            raise MissingTimestampError(f"record seq={r.seq} has no {kind}")
        offsets.append(reading - (base + r.seq * period))
    return offsets


def stats(offsets: list[int], bin_width_ns: int = 100) -> OffsetStats:
    """Exact order statistics plus a fixed-width histogram.

    The p80 value is a radius: the smallest magnitude containing at least
    80 percent of the absolute offsets.
    """
    if not offsets:
        raise EmptyError("no offsets")
    n = len(offsets)
    radii = sorted(abs(v) for v in offsets)
    p80 = radii[math.ceil(0.8 * n) - 1]
    bins: Counter = Counter()
    for v in offsets:
        bins[(v // bin_width_ns) * bin_width_ns] += 1
    return OffsetStats(min_ns=min(offsets),
                       mean_ns=statistics.fmean(offsets),
                       median_ns=statistics.median(offsets),
                       p80_radius_ns=p80,
                       max_ns=max(offsets),
                       bin_width_ns=bin_width_ns,
                       histogram=[[k, bins[k]] for k in sorted(bins)])


def infer_period(records: list[PacketRecord]) -> int:
    """Recover the intended cadence from the intended-tx grid.

    records are in CSV order, so record i is on line i + 2. Every row
    must lie on the grid the first and last rows define.
    """
    if len(records) < 2:
        return 1
    first, last = records[0], records[-1]
    span = last.intended_tx - first.intended_tx
    steps = last.seq - first.seq
    if steps <= 0 or span % steps:
        raise MalformedRowError(0, "intended_tx values are not on a uniform grid")
    period = span // steps
    for line_no, r in enumerate(records, start=2):
        expected = first.intended_tx + (r.seq - first.seq) * period
        if r.intended_tx != expected:
            raise MalformedRowError(
                line_no, f"intended_tx {r.intended_tx} of seq {r.seq} is off the "
                         f"{period} ns grid (expected {expected})")
    return period


def stats_payload(records: list[PacketRecord], period: int, bin_width_ns: int,
                  drops: Optional[dict] = None,
                  metadata: Optional[dict] = None) -> dict:
    kinds = {}
    for kind in TIMESTAMP_KINDS:
        # a run that delivered nothing still reports its drops
        if not records or any(getattr(r, kind) is None for r in records):
            continue
        kinds[kind] = stats(compute_offsets(records, period, kind),
                            bin_width_ns).to_dict()
    return {"kinds": kinds,
            "records": len(records),
            "period_ns": period,
            "drops": dict(sorted((drops or {}).items())),
            "metadata": metadata or {}}


# ---------------------------------------------------------------------------
# CSV export / import

CSV_COLUMNS = ["seq", "intended_tx_ns", "sw_tx_ns", "hw_tx_ns", "hw_rx_ns",
               "sw_rx_ns"]


def export_records(records: list[PacketRecord], path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(CSV_COLUMNS)
        for r in records:
            w.writerow([r.seq, r.intended_tx,
                        "" if r.sw_tx is None else r.sw_tx,
                        "" if r.hw_tx is None else r.hw_tx,
                        "" if r.hw_rx is None else r.hw_rx,
                        "" if r.sw_rx is None else r.sw_rx])


def load_records(path) -> list[PacketRecord]:
    records = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CSV_COLUMNS:
            raise MalformedRowError(1, f"bad header {header!r}")
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(CSV_COLUMNS):
                raise MalformedRowError(line_no,
                                        f"expected {len(CSV_COLUMNS)} fields, got {len(row)}")
            try:
                seq = int(row[0])
                intended = int(row[1])
                opt = [None if v == "" else int(v) for v in row[2:]]
            except ValueError as exc:
                raise MalformedRowError(line_no, str(exc))
            records.append(PacketRecord(seq, intended, *opt))
    return records


def report(records_path, bin_width_ns: int = 100) -> dict:
    """Recompute offset statistics from an exported CSV."""
    records = load_records(records_path)
    if not records:
        raise EmptyError(f"{records_path} holds no records")
    return stats_payload(records, infer_period(records), bin_width_ns)


# ---------------------------------------------------------------------------
# scenario execution


def _build_clock(cfg) -> ClockModel:
    return ClockModel(offset_ns=cfg.offset_ns, drift_ppm=cfg.drift_ppm,
                      sync_interval_ns=cfg.sync_interval_ns,
                      sync_residual=cfg.sync_residual)


def _schedule_syncs(engine: Engine, clock: ClockModel, rng, horizon: SimTime):
    interval = clock.sync_interval_ns
    if not interval:
        return

    def do_sync():
        clock.apply_sync(engine.now, rng)
        nxt = engine.now + interval
        if nxt <= horizon:
            engine.schedule(nxt, do_sync)

    engine.schedule(interval, do_sync)


def _build_gcl(raw) -> GateControlList:
    return GateControlList(raw.get("base_time", 0), raw["cycle_time_ns"],
                           [GclEntry(e["gate_mask"], e["duration_ns"])
                            for e in raw["entries"]])


def _build_stream_gate(raw) -> StreamGate:
    return StreamGate(raw.get("base_time", 0), raw["cycle_time_ns"],
                      [StreamGateEntry(open=e["open"], duration_ns=e["duration_ns"],
                                       ipv=e.get("ipv"),
                                       max_octets=e.get("max_octets"))
                       for e in raw["entries"]])


def _bridge_ingress(cfg: ScenarioConfig, name: str):
    """(stream rules, gates by handle, CQF egress GCL or None) of one bridge.

    CQF replaces the bridge's filters with one gate for every frame.
    """
    if cfg.cqf.enabled:
        gate, gcl = cqf_compose(CqfConfig(
            cycle_time_ns=cfg.cqf.cycle_time_ns,
            ipv_even=cfg.cqf.ipv_even, ipv_odd=cfg.cqf.ipv_odd,
            base_time=cfg.cqf.base_time))
        return None, {None: gate}, gcl
    fcfg = cfg.filters.get(name)
    if fcfg is None:
        return None, {}, None
    rules = make_stream_rules(fcfg.rules) if fcfg.rules else None
    return rules, {h: _build_stream_gate(g) for h, g in fcfg.gates.items()}, None


def _build_port(engine, link: LinkCfg, shaper: Optional[ShaperCfg], *, phc, system,
                hw_precision, rng, receive,
                gcl: Optional[GateControlList] = None) -> EgressPort:
    """An egress port onto link whose frames reach receive(frame, t).

    gcl, when given, replaces the shaper's own gate control list.
    """
    shaper = shaper or ShaperCfg()

    def deliver(frame, wire_start, wire_end):
        receive(frame, wire_end + link.propagation_ns)

    preemption = PreemptionConfig(enabled=shaper.preemption_enabled,
                                  express_classes=frozenset(shaper.express_classes),
                                  min_fragment_bytes=shaper.min_fragment_bytes)
    if shaper.scheme == "etf":
        delta = shaper.etf_delta_ns
        if delta is None:
            delta = 0 if shaper.etf_offload else 50_000
        etf = EtfQueue(delta_ns=delta, offload=shaper.etf_offload)
        return EgressPort(engine, link.rate_bps, overhead_bytes=link.overhead_bytes,
                          phc=phc, scheme="etf", etf=etf, release_clock=system,
                          hw_precision=hw_precision, rng=rng, deliver=deliver)
    if gcl is None and shaper.gcl:
        gcl = _build_gcl(shaper.gcl)
    taprio = TaprioPort(gcl=gcl, capacity=shaper.queue_capacity,
                        guard_mode=shaper.guard_mode,
                        link_rate_bps=link.rate_bps,
                        overhead_bytes=link.overhead_bytes)
    return EgressPort(engine, link.rate_bps, overhead_bytes=link.overhead_bytes,
                      phc=phc, scheme="taprio", taprio=taprio,
                      preemption=preemption, hw_precision=hw_precision,
                      rng=rng, deliver=deliver)


def _chain_links(cfg: ScenarioConfig) -> list[LinkCfg]:
    """The links from talker to listener, taking each node's first link out."""
    succ = {}
    for l in cfg.links:
        succ.setdefault(l.src, l)
    chain = []
    node, listener = cfg.talker.name, cfg.listener.name
    while node != listener:
        link = succ.get(node)
        if link is None or len(chain) >= len(cfg.nodes):
            raise ValueError(f"no forwarding path from {node} to {listener}")
        chain.append(link)
        node = link.dst
    return chain


def run_scenario(cfg: ScenarioConfig, seed: Optional[int] = None) -> RunResult:
    """Execute one scenario deterministically and collect packet records."""
    seed = cfg.run.seed if seed is None else seed
    traffic = cfg.traffic
    count = cfg.run.count or traffic.count
    period = traffic.period_ns
    base = period  # first intended transmission one period into the run

    engine = Engine()
    drops: Counter = Counter()

    clocks = {}
    for node in cfg.nodes:
        clocks[node.name] = {
            "system": _build_clock(cfg.clock_for(node.name, "system")),
            "phc": _build_clock(cfg.clock_for(node.name, "phc")),
        }

    horizon = base + count * period + 100 * period
    for node in cfg.nodes:
        for which in ("system", "phc"):
            _schedule_syncs(engine, clocks[node.name][which],
                            rng_fork(seed, f"sync:{node.name}:{which}"), horizon)

    talker = cfg.talker
    listener = cfg.listener
    tal_sys = clocks[talker.name]["system"]
    tal_phc = clocks[talker.name]["phc"]
    lis_sys = clocks[listener.name]["system"]
    lis_phc = clocks[listener.name]["phc"]

    stream_key = None
    if traffic.stream:
        stream_key = StreamKey(dest_mac=traffic.stream["dest_mac"],
                               vlan_id=traffic.stream["vlan_id"],
                               pcp=traffic.stream["pcp"])

    rx_rng = rng_fork(seed, "rx")
    records: list[PacketRecord] = []
    recovery = RecoveryState("s0", cfg.frer.window_size) if cfg.frer.enabled else None

    def listener_receive(frame: Frame, t: SimTime):
        if recovery is not None:
            outcome = recovery.recover(frame)
            if outcome != ACCEPT:
                drops[f"frer_{outcome}"] += 1
                return
        frame.trace.hw_rx = lis_phc.read(t)
        rx_delay = listener.rx_latency.sample(rx_rng)

        def finish():
            frame.trace.sw_rx = lis_sys.read(engine.now)
            tr = frame.trace
            records.append(PacketRecord(seq=frame.id, intended_tx=tr.intended_tx,
                                        sw_tx=tr.sw_tx, hw_tx=tr.hw_tx,
                                        hw_rx=tr.hw_rx, sw_rx=tr.sw_rx))

        engine.schedule(t + rx_delay, finish)

    # --- wire up the forwarding chain, once or once per FRER member path

    nodes = {n.name: n for n in cfg.nodes}
    chain = _chain_links(cfg)
    ports: list[EgressPort] = []
    bridges: list[BridgeNode] = []

    def build_path(suffix: str, receive) -> EgressPort:
        """Build the bridges back to front and return the talker's port.

        receive is the last hop's; suffix keeps the RNG streams of FRER
        member paths apart.
        """
        for link in reversed(chain[1:]):
            name = link.src
            rules, gates, cqf_gcl = _bridge_ingress(cfg, name)
            port = _build_port(engine, link, cfg.shapers.get(name),
                               phc=clocks[name]["phc"],
                               system=clocks[name]["system"],
                               hw_precision=CONSTANT_ZERO,
                               rng=rng_fork(seed, f"hwprec:{name}{suffix}"),
                               receive=receive, gcl=cqf_gcl)
            bridge = BridgeNode(engine, name, port, stream_rules=rules,
                                gates=gates,
                                forwarding_latency=nodes[name].forwarding,
                                rng=rng_fork(seed, f"fwd:{name}{suffix}"))
            ports.append(port)
            bridges.append(bridge)
            receive = bridge.receive
        port = _build_port(engine, chain[0], cfg.shapers.get(talker.name),
                           phc=tal_phc, system=tal_sys,
                           hw_precision=traffic.hw_precision,
                           rng=rng_fork(seed, f"hwprec{suffix}"), receive=receive)
        ports.append(port)
        return port

    if cfg.frer.enabled:
        loss = cfg.frer.loss_per_path
        path_labels = [f"path{i}" for i in range(cfg.frer.paths)]

        def make_lossy(loss_rng):
            def receive(frame, t):
                if loss and loss_rng.random() < loss:
                    drops["path_loss"] += 1
                    return
                listener_receive(frame, t)
            return receive

        talker_ports = [build_path(f":{label}",
                                   make_lossy(rng_fork(seed, f"loss:{label}")))
                        for label in path_labels]
        seqgen = SequenceGenerator("s0")

        def submit_to_wire(frame, t):
            seqgen.stamp(frame)
            for port, copy in zip(talker_ports, replicate(frame, path_labels)):
                port.submit(copy, t)
    else:
        submit_to_wire = build_path("", listener_receive).submit

    # --- talker traffic generation

    wake_rng = rng_fork(seed, "wake")
    stack_rng = rng_fork(seed, "stack")
    driver_rng = rng_fork(seed, "driver")

    def make_frame(k: int, intended: SimTime) -> Frame:
        frame = Frame(id=k, size_bytes=traffic.frame_size_bytes,
                      priority=traffic.priority, stream=stream_key)
        frame.trace.intended_tx = intended
        return frame

    if traffic.mode == "sleep":
        for k in range(count):
            intended = base + k * period
            wake = traffic.wake_jitter.sample(wake_rng)
            stack = traffic.stack_latency.sample(stack_rng)
            driver = traffic.driver_latency.sample(driver_rng)

            def make_plan(k, intended, wake, stack, driver):
                def plan():
                    wake_true = max(engine.now,
                                    tal_sys.when_reading(intended) + wake)
                    sw_tx_event = wake_true + stack

                    def at_driver():
                        frame = make_frame(k, intended)
                        frame.trace.sw_tx = tal_sys.read(engine.now)
                        engine.schedule(engine.now + driver,
                                        lambda: submit_to_wire(frame, engine.now))

                    engine.schedule(sw_tx_event, at_driver)
                return plan

            engine.schedule(max(0, intended - period), make_plan(
                k, intended, wake, stack, driver))
    else:  # txtime
        lead = traffic.txtime_lead_ns
        if lead is None:
            lead = period // 2
        for k in range(count):
            intended = base + k * period

            def make_plan(k, intended):
                def plan():
                    frame = make_frame(k, intended)
                    frame.txtime = intended
                    frame.trace.sw_tx = tal_sys.read(engine.now)
                    submit_to_wire(frame, engine.now)
                return plan

            engine.schedule(max(0, intended - lead), make_plan(k, intended))

    engine.run_all()

    # --- collect drop counters

    for port in ports:
        drops.update(port.taprio.drops)
        if port.etf is not None:
            drops.update(port.etf.drops)
    for bridge in bridges:
        drops.update(bridge.drops)

    records.sort(key=lambda r: r.seq)
    metadata = {"seed": seed, "rng": RNG_ALGORITHM, "period_ns": period,
                "count": count, "mode": traffic.mode,
                "histogram_bin_ns": cfg.run.histogram_bin_ns}
    return RunResult(records=records, drops=dict(drops), metadata=metadata)
