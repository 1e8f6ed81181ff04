"""Cyclic talker/listener measurement harness.

Runs a scenario end to end, records the four per-packet timestamps
(software tx, hardware tx, hardware rx, software rx) against the intended
transmission grid, and produces offset statistics and histograms.
"""

from __future__ import annotations

import csv
import itertools
import math
import statistics
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter, UserList
from functools import cached_property
from heapq import heappop, heappush
from operator import attrgetter, eq, gt, itemgetter, sub
from typing import Optional

from .core import ClockModel, Engine, RNG_ALGORITHM, Record, SimTime, rng_fork
from .egress import EgressPort, EtfQueue, TaprioPort, WireTimes
from .frer import ACCEPT, DISCARD_DUPLICATE, DISCARD_STALE, RecoveryState, Replicator
from .ingress import StreamGate
from .network import BridgeNode
from .scenario import (EtfCfg, LinkCfg, NodeCfg, ScenarioConfig, TaprioCfg, TrafficCfg,
                       run_horizon)
from .traffic import Frame, PacketRecord, StreamRuleSet

RECORD_FIELDS = PacketRecord._fields
TIMESTAMP_KINDS = RECORD_FIELDS[2:]  # the four stamps, after seq and intended_tx
FRER_DROP_KEYS = {outcome: f"frer_{outcome}" for outcome in (DISCARD_DUPLICATE, DISCARD_STALE)}


class EmptyError(Exception):
    pass


class MissingTimestampError(Exception):
    pass


class MalformedRowError(Exception):
    def __init__(self, line_no: int, reason: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {reason}")


class Records(UserList):
    """Delivered records, row-major: six values per row, in RECORD_FIELDS order.

    The storage is an array('q'), or a list where a value is None or needs
    more than 64 bits; Records(records) shares it. List operations other than
    len, iteration, == and columns first make UserList's data, a list of
    PacketRecord rows, which is read from then on.
    """

    def __init__(self, rows=(), flat=None):
        self._flat = getattr(rows, "_flat", None) if flat is None else flat
        if self._flat is None:
            self._flat = list(itertools.chain.from_iterable(map(attrgetter(*RECORD_FIELDS), rows)))

    columns = property(lambda r: tuple(f[i::6] for f in [Records(r)._flat] for i in range(6)))
    __copy__ = UserList.copy  # UserList's own reads data from __dict__

    @cached_property
    def data(self) -> list:
        rows, self._flat = list(self), None
        return rows

    def __len__(self):
        return len(self.data) if self._flat is None else len(self._flat) // 6

    def __iter__(self):
        flat = self._flat
        return iter(self.data) if flat is None else map(PacketRecord, *[iter(flat)] * 6)

    def __eq__(self, other):
        if not isinstance(other, (list, UserList)):
            return NotImplemented
        a, b = self._flat, getattr(other, "_flat", None)  # None once rows are made
        a, b = (self, other) if a is None or b is None else (a, b)
        return len(a) == len(b) and all(map(eq, a, b))  # an array never equals a list


class RunResult(Record, frozen=True):
    """A run's records in seq order, its drops by reason, and its metadata."""

    records: Records
    drops: dict
    metadata: dict


# ---------------------------------------------------------------------------
# offset analysis


def compute_offsets(records, kind: str) -> list[int]:
    """Signed deviations of one timestamp kind from each record's intended_tx."""
    if not records:
        raise EmptyError("no records")
    if kind not in TIMESTAMP_KINDS:
        raise ValueError(f"unknown timestamp kind {kind!r}")
    flat = Records(records)._flat
    readings = flat[RECORD_FIELDS.index(kind)::6]
    if isinstance(readings, list) and None in readings:  # an array holds no None
        raise MissingTimestampError(f"record seq={flat[6 * readings.index(None)]} has no {kind}")
    return list(map(sub, readings, flat[1::6]))


def stats(offsets: list[int], bin_width_ns: int = 100) -> dict:
    """Exact order statistics plus a fixed-width histogram, from one sort, as
    the dict stats.json holds for one timestamp kind; histogram is
    [[bin_start_ns, count], ...].

    The p80 value is a radius: the smallest magnitude containing at least
    80 percent of the absolute offsets.
    """
    if not offsets:
        raise EmptyError("no offsets")
    ordered = sorted(offsets)
    n = len(ordered)
    i = n // 2
    # statistics.median's rule, on the list sorted once
    median = ordered[i] if n % 2 else (ordered[i - 1] + ordered[i]) / 2
    # the least r with ceil(0.8 n) offsets in [-r, r]: the count steps only at a magnitude
    need, lo, hi = math.ceil(0.8 * n), 0, max(-ordered[0], ordered[-1])
    while lo < hi:
        r = (lo + hi) // 2
        if bisect_right(ordered, r) - bisect_left(ordered, -r) >= need:
            hi = r
        else:
            lo = r + 1
    # bin k ends before (k + 1) * width, or after k * width if width < 0: starts ascend
    edge, shift = (bisect_left, 1) if bin_width_ns > 0 else (bisect_right, 0)
    histogram, i = [], 0
    while i < n:
        k = ordered[i] // bin_width_ns
        j = edge(ordered, (k + shift) * bin_width_ns, i)
        histogram.append([k * bin_width_ns, j - i])
        i = j
    return {"min_ns": ordered[0], "mean_ns": statistics.fmean(offsets), "median_ns": median,
            "p80_radius_ns": lo, "max_ns": ordered[-1], "bin_width_ns": bin_width_ns,
            "histogram": histogram}


def infer_period(records) -> Optional[int]:
    """Recover the intended cadence from the intended-tx grid.

    records are in CSV order, so record i is on line i + 2. Every row
    must lie on the grid the first and last rows define. Fewer than two
    rows define no grid, and give None.
    """
    if len(records) < 2:
        return None
    flat = Records(records)._flat
    seqs, intended = flat[0::6], flat[1::6]
    span = intended[-1] - intended[0]
    steps = seqs[-1] - seqs[0]
    if steps <= 0 or span % steps:
        raise MalformedRowError(len(records) + 1, "intended_tx values are not on a uniform grid")
    period = span // steps
    base = intended[0] - seqs[0] * period  # the grid's time at seq 0
    for seq, tx in zip(seqs, intended):
        if tx != base + seq * period:
            # the first row off the grid: an earlier one equal to it would be too
            line_no = list(zip(seqs, intended)).index((seq, tx)) + 2
            raise MalformedRowError(line_no, f"intended_tx {tx} of seq {seq} is off the "
                                             f"{period} ns grid (expected {base + seq * period})")
    return period


def stats_payload(records, bin_width_ns: int, drops: Optional[dict] = None,
                  metadata: Optional[dict] = None) -> dict:
    """Offset statistics per timestamp kind, with drops and run metadata.

    period_ns is the period the records' intended_tx grid defines: None
    for fewer than two records.
    """
    kinds = {}
    for kind in TIMESTAMP_KINDS:
        try:
            kinds[kind] = stats(compute_offsets(records, kind), bin_width_ns)
        except (EmptyError, MissingTimestampError):  # an empty run still reports its drops
            pass
    return {"kinds": kinds,
            "records": len(records),
            "period_ns": infer_period(records),
            "drops": dict(sorted((drops or {}).items())),
            "metadata": metadata or {}}


# ---------------------------------------------------------------------------
# CSV export / import

CSV_COLUMNS = ["seq", "intended_tx_ns", "sw_tx_ns", "hw_tx_ns", "hw_rx_ns",
               "sw_rx_ns"]
EXPORT_CHUNK_ROWS = 256


def export_records(records, path) -> None:
    """Write records as CSV, byte for byte as csv.writer would.

    Every cell is an int or None, which csv.writer writes unquoted, and
    None as an empty cell. Each EXPORT_CHUNK_ROWS rows are one % format.
    """
    flat, step = Records(records)._flat, 6 * EXPORT_CHUNK_ROWS
    with open(path, "w", newline="") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for i in range(0, len(flat), step):
            chunk = flat[i:i + step]
            text = "%s,%s,%s,%s,%s,%s\n" * (len(chunk) // 6) % tuple(chunk)
            # an int's decimal form never holds "None"; an array holds no None
            fh.write(text.replace("None", "") if isinstance(flat, list) else text)


def load_records(path) -> Records:
    stamps = array("q")
    keep = stamps.fromlist  # appends a whole row, or on error nothing
    # an undecodable byte stays in its cell, where int() rejects it on its line
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header != CSV_COLUMNS:
                raise MalformedRowError(1, f"bad header {header!r}")
            for row in reader:
                if len(row) != len(CSV_COLUMNS):
                    raise MalformedRowError(
                        reader.line_num, f"expected {len(CSV_COLUMNS)} fields, got {len(row)}")
                try:
                    values = [int(row[0]), int(row[1])]
                    values += [None if v == "" else int(v) for v in row[2:]]
                except ValueError as exc:
                    raise MalformedRowError(reader.line_num, str(exc))
                try:
                    keep(values)
                except (OverflowError, TypeError):  # 2**63 or more, or an empty cell
                    stamps = stamps.tolist() + values
                    keep = stamps.extend
        except csv.Error as exc:  # e.g. a cell over the field size limit
            raise MalformedRowError(reader.line_num, str(exc))
    return Records(flat=stamps)


def report(records_path, bin_width_ns: int = 100) -> dict:
    """Recompute offset statistics from an exported CSV, as the run did."""
    return stats_payload(load_records(records_path), bin_width_ns)


# ---------------------------------------------------------------------------
# scenario execution


def _build_port(engine, link: LinkCfg, shaper: TaprioCfg | EtfCfg, clocks: dict,
                receive, hw_precision=None, rng=None) -> EgressPort:
    """An egress port onto link whose frames reach receive(frame, arrival).

    hw_precision applies only to offloaded ETF: only there does the NIC
    time the launch itself.
    """
    launch_precision = preemption = None
    wire = WireTimes(link.rate_bps, link.overhead_bytes)
    if isinstance(shaper, EtfCfg):
        queue = EtfQueue(delta_ns=shaper.delta_ns, offload=shaper.offload,
                         clock=clocks["phc" if shaper.offload else "system"])
        if shaper.offload:
            launch_precision = hw_precision
    else:
        queue = TaprioPort(gcl=shaper.gcl, capacity=shaper.queue_capacity,
                           guard_mode=shaper.guard_mode, wire=wire)
        preemption = shaper.preemption
    return EgressPort(engine, wire, queue=queue,
                      propagation_ns=link.propagation_ns, phc=clocks["phc"],
                      preemption=preemption, hw_precision=launch_precision,
                      rng=rng, deliver=receive)


class Talker:
    """The cyclic talker as a stream source, one engine event per frame.

    Both modes are a Linux talker's send loop, one thread that waits, calls
    sendmsg and loops; only the wait differs. Frame k is intended for I_k =
    (k + 1) * period. send at t = engine.now draws frame k + 1 and schedules
    its hand-over, then hands frame k (None at the first call, before the
    run) to submit(frame). In sleep mode (lead None) frame k, planned at P_k
    = k * period, reaches the driver, where sw_tx is read, at max(P_k, R_k,
    clock.when_reading(I_k, P_k) + wake_k) + stack_k, R_k being the time of
    the send that draws it, so frames leave in order; its hand-over follows
    driver_k later. In txtime mode frame k is handed over, and sw_tx read,
    at max(0, I_k - lead), lead being txtime_lead_ns (half a period by
    default), with launch time (SO_TXTIME) I_k.
    """

    def __init__(self, engine: Engine, traffic: TrafficCfg, count: int,
                 clock: ClockModel, seed: int, submit):
        self.engine, self.count, self.submit = engine, count, submit
        self.clock = clock  # the talker's system clock
        # the fields each step reads, bound once: one attribute read each, not two
        self.size, self.priority, self.stream = (traffic.frame_size_bytes, traffic.priority,
                                                 traffic.stream)
        self.wake_jitter, self.stack_latency, self.driver_latency = (
            traffic.wake_jitter, traffic.stack_latency, traffic.driver_latency)
        self.wake_rng = rng_fork(seed, "wake")
        self.stack_rng = rng_fork(seed, "stack")
        self.driver_rng = rng_fork(seed, "driver")
        self.period, lead = traffic.period_ns, traffic.txtime_lead_ns
        self.lead = None if traffic.mode == "sleep" else self.period // 2 if lead is None else lead

    def send(self, frame: Optional[Frame] = None):
        """The send loop at engine.now, as sendmsg hands frame (None at first) to the port."""
        k = 0 if frame is None else frame.id + 1
        if k < self.count:
            intended = (k + 1) * self.period
            if self.lead is None:
                plan = intended - self.period
                wake = self.wake_jitter.sample(self.wake_rng)
                stack = self.stack_latency.sample(self.stack_rng)
                at_driver = max(plan, self.engine.now,
                                self.clock.when_reading(intended, plan) + wake) + stack
                fire, txtime = at_driver + self.driver_latency.sample(self.driver_rng), None
            else:
                at_driver = fire = max(0, intended - self.lead)
                txtime = intended
            # each step builds its frame in one positional call, in field order
            self.engine.schedule(fire, self.send, Frame(
                k, self.size, self.priority, self.stream, None, None, txtime, None, intended,
                self.clock.read(at_driver)))
        if frame is not None:
            self.submit(frame)


class Listener:
    """The listener as a stream sink.

    receive(frame, t) takes a frame whose last bit arrives at t, stamps
    hw_rx and sw_rx, and keeps its record, with the frame's id as seq;
    close() puts the records kept in records.
    With a RecoveryState, each FRER member path ends in receive_copy
    instead, which loses the copy with probability loss, drawn from the
    loss:<label> stream of frame.route. Other copies reach recovery in
    order of arrival, ties in commit order, once the engine reaches their
    arrival (a copy commits before it arrives, so none still to commit can
    arrive earlier); close() takes those left.
    """

    def __init__(self, engine: Engine, node: NodeCfg, clocks: dict, seed: int,
                 recovery: Optional[RecoveryState] = None, loss: float = 0.0, labels=()):
        self.engine, self.rx_latency = engine, node.rx_latency
        self.system, self.phc = clocks["system"], clocks["phc"]
        self.rx_rng = rng_fork(seed, "rx")
        self._stamps = array("q")  # each kept record's six values in turn
        self._keep = self._stamps.fromlist  # appends a whole row, or on error nothing
        self.records = Records()  # filled by close()
        self.drops: Counter = Counter()
        self.recovery, self.loss = recovery, loss
        self.loss_rngs = {label: rng_fork(seed, f"loss:{label}") for label in labels}
        self._arrivals: list = []  # copies held as (arrival, commit order, frame)
        self._commits = itertools.count()

    def receive(self, frame: Frame, t: SimTime):
        row = [frame.id, frame.intended_tx, frame.sw_tx, frame.hw_tx, self.phc.read(t),
               self.system.read(t + self.rx_latency.sample(self.rx_rng))]
        try:
            self._keep(row)
        except (OverflowError, TypeError):  # a stamp of 2**63 or more, or None: a list from now
            self._stamps = self._stamps.tolist() + row
            self._keep = self._stamps.extend

    def receive_copy(self, frame: Frame, t: SimTime):
        if self.loss and self.loss_rngs[frame.route].random() < self.loss:
            self.drops["path_loss"] += 1
            return
        heappush(self._arrivals, (t, next(self._commits), frame))
        self._recover_until(self.engine.now)

    def close(self):
        self._recover_until(math.inf)
        self.records = Records(flat=self._stamps)

    def _recover_until(self, until: SimTime):
        arrivals = self._arrivals
        while arrivals and arrivals[0][0] <= until:
            t, _, frame = heappop(arrivals)
            outcome = self.recovery.recover(frame)
            if outcome == ACCEPT:
                self.receive(frame, t)
            else:
                self.drops[FRER_DROP_KEYS[outcome]] += 1


def build_path(engine: Engine, cfg: ScenarioConfig, clocks: dict, seed: int, receive,
               suffix: str = "") -> tuple[EgressPort, list[BridgeNode]]:
    """Build cfg.path back to front, each port calling the next node's
    receive, the last receive(frame, arrival); return the talker's port and
    the bridges. suffix keeps the RNG streams of FRER member paths apart."""
    talker, *hops = cfg.path
    bridges = []
    for hop in reversed(hops):
        name, fcfg = hop.node.name, hop.filter
        port = _build_port(engine, hop.link, hop.shaper, clocks[name], receive)
        rules = StreamRuleSet(fcfg.rules) if fcfg.rules else None  # a fresh identify memo
        bridge = BridgeNode(engine, name, port, stream_rules=rules,
                            gates={h: StreamGate(s) for h, s in fcfg.gates},
                            forwarding_latency=hop.node.forwarding,
                            rng=rng_fork(seed, f"fwd:{name}{suffix}"))
        bridges.append(bridge)
        receive = bridge.receive
    port = _build_port(engine, talker.link, talker.shaper, clocks[talker.node.name], receive,
                       cfg.traffic.hw_precision, rng_fork(seed, f"hwprec{suffix}"))
    return port, bridges


def run_scenario(cfg: ScenarioConfig, seed: Optional[int] = None) -> RunResult:
    """Execute one scenario deterministically and collect packet records."""
    seed = cfg.run.seed if seed is None else seed
    traffic = cfg.traffic
    count = cfg.run.count or traffic.count
    engine = Engine()
    # each run resyncs its own copies of the scenario's clocks
    horizon = run_horizon(traffic, cfg.run)
    talker, listener, frer = cfg.path[0].node, cfg.listener, cfg.frer
    clocks = {n.name: {which: cfg.clocks.get(n.name, {}).get(which, ClockModel()).resynced(
        rng_fork(seed, f"sync:{n.name}:{which}"), horizon) for which in ("system", "phc")}
        for n in [*(hop.node for hop in cfg.path), listener]}
    if frer.enabled:
        labels = [f"path{i}" for i in range(frer.paths)]
        sink = Listener(engine, listener, clocks[listener.name], seed,
                        RecoveryState(frer.window_size), frer.loss_per_path, labels)
        paths = {label: build_path(engine, cfg, clocks, seed, sink.receive_copy, f":{label}")
                 for label in labels}
        source = Replicator({label: port for label, (port, _) in paths.items()})
    else:
        sink = Listener(engine, listener, clocks[listener.name], seed)
        paths = {"": build_path(engine, cfg, clocks, seed, sink.receive)}
        source = paths[""][0]
    Talker(engine, traffic, count, clocks[talker.name]["system"], seed, source.submit).send()
    engine.run_all()
    sink.close()
    drops = sink.drops
    for port, bridges in paths.values():
        drops.update(port.queue.drops)
        for bridge in bridges:
            drops.update(bridge.egress.queue.drops)
            drops.update(bridge.drops)
    flat = sink.records._flat
    seqs = flat[0::6]
    # talkers and bridges keep order: FRER, or a gate's IPVs (other classes), reorder
    if any(map(gt, seqs, itertools.islice(seqs, 1, None))):
        rows = sorted(zip(*[iter(flat)] * 6), key=itemgetter(0))  # a stable sort
        flat = flat[:0]
        flat.extend(itertools.chain.from_iterable(rows))
    metadata = {"seed": seed, "rng": RNG_ALGORITHM, "period_ns": traffic.period_ns,
                "count": count, "mode": traffic.mode,
                "histogram_bin_ns": cfg.run.histogram_bin_ns}
    return RunResult(records=Records(flat=flat), drops=dict(drops), metadata=metadata)
