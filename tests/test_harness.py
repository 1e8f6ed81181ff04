"""Measurement harness: offset analysis, CSV round-trips, scenario runs."""

import copy
import csv
import gc
import io
import json
import math
import random
import statistics
import tracemalloc
from array import array
from collections import Counter
from operator import attrgetter
from pathlib import Path

import pytest

import tsnsim
from tsnsim import harness
from tsnsim.core import ClockModel, Engine, JitterDist, rng_fork
from tsnsim.frer import RecoveryState
from tsnsim.harness import (CSV_COLUMNS, Listener, MalformedRowError,
                            MissingTimestampError, PacketRecord, Records,
                            Talker, build_path, compute_offsets, export_records, infer_period,
                            load_records, report, run_scenario, stats, stats_payload)
from tsnsim.scenario import NodeCfg, load_scenario, parse_scenario
from tsnsim.traffic import Frame

from helpers import run_until

SCENARIOS = Path(tsnsim.__file__).parent / "scenarios"

# a scenario run that never ends fails at the event cap instead
pytestmark = pytest.mark.usefixtures("event_cap")


def rec(seq, intended, **kw):
    return PacketRecord(seq=seq, intended_tx=intended, **kw)


class TestComputeOffsets:
    def test_on_grid_is_zero(self):
        records = [rec(k, 1000 + k * 500, sw_tx=1000 + k * 500)
                   for k in range(5)]
        assert compute_offsets(records, "sw_tx") == [0] * 5

    def test_signed_deviations(self):
        records = [rec(0, 1000, hw_rx=1010), rec(1, 1500, hw_rx=1493)]
        assert compute_offsets(records, "hw_rx") == [10, -7]

    def test_base_anchored_to_first_record(self):
        # records starting mid-stream still measure against the same grid
        records = [rec(3, 2500, sw_tx=2510), rec(4, 3000, sw_tx=3000)]
        assert compute_offsets(records, "sw_tx") == [10, 0]

    def test_missing_timestamp_raises(self):
        with pytest.raises(MissingTimestampError):
            compute_offsets([rec(0, 0)], "sw_tx")
        records = [rec(0, 0, sw_tx=0), rec(1, 500), rec(2, 1000)]
        with pytest.raises(MissingTimestampError, match="seq=1 has no sw_tx"):
            compute_offsets(records, "sw_tx")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            compute_offsets([rec(0, 0, sw_tx=0)], "wall")


class TestStats:
    def test_order_statistics(self):
        s = stats(list(range(1, 11)))
        assert s["min_ns"] == 1 and s["max_ns"] == 10
        assert s["mean_ns"] == 5.5 and s["median_ns"] == 5.5
        assert s["p80_radius_ns"] == 8

    def test_p80_radius_uses_magnitudes(self):
        s = stats([-9, -9, 1, 1, 1])
        assert s["p80_radius_ns"] == 9

    def test_small_sample(self):
        s = stats([5, 5, 11])
        assert s["mean_ns"] == 7 and s["max_ns"] == 11 and s["p80_radius_ns"] == 11

    def test_histogram_bins(self):
        s = stats([0, 50, 99, 100, 250], bin_width_ns=100)
        assert s["histogram"] == [[0, 3], [100, 1], [200, 1]]

    def test_negative_offsets_bin_below_zero(self):
        s = stats([-1, 1], bin_width_ns=100)
        assert s["histogram"] == [[-100, 1], [0, 1]]


def former_stats(offsets, bin_width_ns=100):
    """stats() as it was before the single sort: the reference."""
    n = len(offsets)
    radii = sorted(abs(v) for v in offsets)
    bins = Counter()
    for v in offsets:
        bins[(v // bin_width_ns) * bin_width_ns] += 1
    return dict(min_ns=min(offsets), mean_ns=statistics.fmean(offsets),
                median_ns=statistics.median(offsets),
                p80_radius_ns=radii[math.ceil(0.8 * n) - 1],
                max_ns=max(offsets), bin_width_ns=bin_width_ns,
                histogram=[[k, bins[k]] for k in sorted(bins)])


class TestStatsMatchesFormer:
    @pytest.mark.parametrize("bin_width", [1, 7, 100, -100])
    @pytest.mark.parametrize("n", [1, 2, 3, 10, 11, 500, 501])
    @pytest.mark.parametrize("lo,hi", [(-5_000, 5_000), (-90_000, -1), (-3, 3)])
    def test_same_payload_and_types(self, bin_width, n, lo, hi):
        for seed in range(5):
            rng = random.Random(seed)
            offsets = [rng.randint(lo, hi) for _ in range(n)]
            got = stats(offsets, bin_width)
            want = former_stats(offsets, bin_width)
            # repr tells 5 from 5.0, so the median's type is compared too
            assert repr(got) == repr(want)



def former_compute_offsets(records, kind):
    """compute_offsets() as it was before column-at-a-time: the reference."""
    if not records:
        raise harness.EmptyError("no records")
    if kind not in harness.TIMESTAMP_KINDS:
        raise ValueError(f"unknown timestamp kind {kind!r}")
    readings = [getattr(r, kind) for r in records]
    if None in readings:
        missing = records[readings.index(None)]
        raise MissingTimestampError(f"record seq={missing.seq} has no {kind}")
    return [reading - r.intended_tx for reading, r in zip(readings, records)]


def former_infer_period(records):
    """infer_period() as it was before column-at-a-time: the reference."""
    if len(records) < 2:
        return None
    first, last = records[0], records[-1]
    span = last.intended_tx - first.intended_tx
    steps = last.seq - first.seq
    if steps <= 0 or span % steps:
        raise MalformedRowError(len(records) + 1, "intended_tx values are not on a uniform grid")
    period = span // steps
    for line_no, r in enumerate(records, start=2):
        expected = first.intended_tx + (r.seq - first.seq) * period
        if r.intended_tx != expected:
            raise MalformedRowError(
                line_no, f"intended_tx {r.intended_tx} of seq {r.seq} is off the "
                         f"{period} ns grid (expected {expected})")
    return period


def former_stats_payload(records, bin_width_ns, drops=None, metadata=None):
    """stats_payload() as it was before column-at-a-time, over the reference
    stats, offsets and period."""
    kinds = {}
    for kind in harness.TIMESTAMP_KINDS:
        if not records or None in (getattr(r, kind) for r in records):
            continue
        kinds[kind] = former_stats(former_compute_offsets(records, kind), bin_width_ns)
    return {"kinds": kinds, "records": len(records),
            "period_ns": former_infer_period(records),
            "drops": dict(sorted((drops or {}).items())), "metadata": metadata or {}}


def generated_records(rng, n, spread):
    """n records on a grid with gaps in seq, each kind a signed offset within
    spread of intended_tx, and None in about half the kinds, at random rows."""
    period, base, seq = rng.randint(1, 10 ** 6), rng.randint(-10 ** 9, 10 ** 9), 0
    gappy = [kind for kind in harness.TIMESTAMP_KINDS if rng.random() < 0.5]
    records = []
    for _ in range(n):
        seq += rng.choice((1, 1, 1, 2, 7))
        intended = base + seq * period
        stamps = {kind: None if kind in gappy and rng.random() < 0.01
                  else intended + rng.randint(-spread, spread // 3)
                  for kind in harness.TIMESTAMP_KINDS}
        records.append(rec(seq, intended, **stamps))
    return records


def former_export_records(records, path):
    """export_records() as it was before chunked writes: the reference."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        fh.writelines(f"{seq},{intended},{sw_tx},{hw_tx},{hw_rx},{sw_rx}\n".replace("None", "")
                      for seq, intended, sw_tx, hw_tx, hw_rx, sw_rx
                      in map(attrgetter(*harness.RECORD_FIELDS), records))


def raised(f, *args):
    """(type, message, line number) of what f(*args) raises, or its result."""
    try:
        return f(*args)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "line_no", None)


class TestOutputStageMatchesFormer:
    @pytest.mark.parametrize("bin_width", [1, 7, 100, -100])
    @pytest.mark.parametrize("n", [0, 1, 2, 5_000])
    def test_same_stats_json(self, bin_width, n):
        for seed in range(3):
            rng = random.Random(seed)
            records = generated_records(rng, n, rng.choice((3, 900, 90_000)))
            drops = {"path_loss": seed, "frer_discard_duplicate": n}
            got = stats_payload(records, bin_width, drops, {"seed": seed})
            want = former_stats_payload(records, bin_width, drops, {"seed": seed})
            assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
            for kind in (*harness.TIMESTAMP_KINDS, "wall"):
                assert raised(compute_offsets, records, kind) == \
                    raised(former_compute_offsets, records, kind)

    @pytest.mark.parametrize("n", [2, 3, 5_000])
    def test_off_grid_row_raises_on_the_same_line(self, n):
        for seed in range(5):
            rng = random.Random(seed)
            records = generated_records(rng, n, 100)
            row = rng.randrange(n)
            records[row].intended_tx += rng.choice((-1, 1, 10 ** 6))
            got = raised(infer_period, records)
            assert got == raised(former_infer_period, records)
            # the ends define the grid, so an inner row is named off it
            if 0 < row < n - 1:
                assert (got[0], got[2]) == (MalformedRowError, row + 2)

    CHUNK = harness.EXPORT_CHUNK_ROWS

    @pytest.mark.parametrize("n", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5])
    def test_same_csv_bytes(self, tmp_path, n):
        rng = random.Random(n)
        rows = [rec(k, 1000 * k, sw_tx=1000 * k + rng.randint(-50, 50), hw_tx=rng.randint(0, 10),
                    hw_rx=10 ** 15 + k, sw_rx=-k) for k in range(n)]
        flat = array("q", [v for r in rows for v in tuple(r)])
        # list storage: an empty cell ends the first chunk, a stamp over 64 bits starts the next
        for k, kind, value in ((self.CHUNK - 1, "hw_tx", None), (self.CHUNK, "sw_rx", 2 ** 70)):
            if k < n:
                rows[k] = copy.copy(rows[k])
                setattr(rows[k], kind, value)
        fits = n < self.CHUNK  # rows has no empty cell and no stamp over 64 bits
        # array storage, list storage, and rows
        for records, fitted in ((Records(flat=flat), True), (Records(rows), fits), (rows, fits)):
            got, want = tmp_path / "got.csv", tmp_path / "want.csv"
            export_records(records, got)
            former_export_records(records, want)
            assert got.read_bytes() == want.read_bytes()
            # the read-back is an array unless a value does not fit
            loaded = load_records(got)
            assert isinstance(loaded.columns[0], array) == fitted
            export_records(loaded, got)
            assert got.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("name,bin_width,offsets", [
        ("dense", 1, random.Random(1).sample(range(-5_000, 5_000), 10_000)),
        ("sparse", 100, [random.Random(2).randint(-10 ** 12, 10 ** 12) for _ in range(3_000)]),
        ("negative width", -7, [random.Random(3).randint(-900, 300) for _ in range(2_001)]),
        ("negative width, sparse", -100, [-10 ** 9, -5, 0, 0, 99, 100, 10 ** 9]),
        ("2**63 and more", 1_000, [2 ** 63, 2 ** 63 + 999, 2 ** 64, -2 ** 63 - 1, -2 ** 70, 0]),
        ("all equal", 100, [-250] * 1_000),
        ("single value", 7, [13]),
    ])
    def test_same_stats_on_edge_inputs(self, name, bin_width, offsets):
        got, want = stats(offsets, bin_width), former_stats(offsets, bin_width)
        assert repr(got) == repr(want)


class TestInferPeriod:
    def test_uniform_grid(self):
        records = [rec(k, 700 + 500 * k, sw_tx=0) for k in range(4)]
        assert infer_period(records) == 500

    def test_gaps_in_seq_tolerated(self):
        records = [rec(0, 700, sw_tx=0), rec(5, 700 + 5 * 400, sw_tx=0)]
        assert infer_period(records) == 400

    def test_non_uniform_rejected(self):
        records = [rec(0, 0, sw_tx=0), rec(3, 1000, sw_tx=0)]
        with pytest.raises(MalformedRowError):
            infer_period(records)


class TestCsvRoundTrip:
    RECORDS = [rec(0, 500, sw_tx=510, hw_tx=520, hw_rx=530, sw_rx=560),
               rec(1, 1000, sw_tx=1011, hw_tx=1021, hw_rx=1033, sw_rx=1066),
               rec(2, 1500, sw_tx=1500, hw_tx=None, hw_rx=None, sw_rx=1555)]

    def test_round_trip_bit_exact(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        export_records(self.RECORDS, a)
        loaded = load_records(a)
        assert loaded == self.RECORDS
        export_records(loaded, b)
        assert a.read_bytes() == b.read_bytes()

    def test_header_row(self, tmp_path):
        p = tmp_path / "r.csv"
        export_records(self.RECORDS, p)
        assert p.read_text().splitlines()[0] == \
            "seq,intended_tx_ns,sw_tx_ns,hw_tx_ns,hw_rx_ns,sw_rx_ns"

    def test_malformed_row_reports_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("seq,intended_tx_ns,sw_tx_ns,hw_tx_ns,hw_rx_ns,sw_rx_ns\n"
                     "0,500,510,520,530,560\n"
                     "1,oops,510,520,530,560\n")
        with pytest.raises(MalformedRowError) as err:
            load_records(p)
        assert err.value.line_no == 3

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b\n1,2\n")
        with pytest.raises(MalformedRowError):
            load_records(p)

    def test_bytes_match_csv_writer(self, tmp_path):
        def writer_bytes(records):
            out = io.StringIO(newline="")
            w = csv.writer(out, lineterminator="\n")
            w.writerow(CSV_COLUMNS)
            for r in records:
                w.writerow([r.seq, r.intended_tx, r.sw_tx, r.hw_tx, r.hw_rx, r.sw_rx])
            return out.getvalue().encode()

        stamps = ("sw_tx", "hw_tx", "hw_rx", "sw_rx")
        full = dict(zip(stamps, (-510, 520, 10 ** 15, 0)))
        records = [rec(0, 500, **full), rec(1, 1000)]
        for k, missing in enumerate(stamps, start=2):
            records.append(rec(k, 500 * (k + 1), **dict(full, **{missing: None})))
        p = tmp_path / "r.csv"
        export_records(records, p)
        assert p.read_bytes() == writer_bytes(records)
        assert load_records(p) == records
        export_records([], p)
        assert p.read_bytes() == writer_bytes([])

    def test_report_recomputes_stats(self, tmp_path):
        p = tmp_path / "r.csv"
        export_records(self.RECORDS[:2], p)
        payload = report(p)
        assert payload["period_ns"] == 500
        assert payload["kinds"]["sw_tx"]["max_ns"] == 11
        # hw_tx has a missing value in the full set, but not in this slice
        assert payload["records"] == 2


def small_scenario(name, count=300):
    cfg = load_scenario(SCENARIOS / name)
    cfg.run.count = count
    return cfg


@pytest.fixture
def engines(monkeypatch):
    """The engines run_scenario builds, counted as bench/run.py counts them: a
    subclass put in place of harness.Engine records each one for its executed
    count."""
    built = []

    class CountingEngine(harness.Engine):
        def __init__(self):
            super().__init__()
            built.append(self)

    monkeypatch.setattr(harness, "Engine", CountingEngine)
    return built


class TestRunScenario:
    def test_direct_zero_all_offsets_zero(self):
        cfg = small_scenario("direct_zero.json")
        res = run_scenario(cfg)
        assert len(res.records) == 300
        for kind in ("sw_tx", "hw_tx", "hw_rx", "sw_rx"):
            assert compute_offsets(res.records, kind) == [0] * 300

    def test_deterministic_same_seed(self):
        cfg = small_scenario("paper_fig1.json")
        a = run_scenario(cfg, seed=7)
        b = run_scenario(cfg, seed=7)
        assert a.records == b.records
        assert a.drops == b.drops

    def test_seed_changes_output(self):
        cfg = small_scenario("paper_fig1.json")
        a = run_scenario(cfg, seed=7)
        b = run_scenario(cfg, seed=8)
        assert a.records != b.records

    def test_txtime_precision_shifts_hw_tx_exactly(self):
        doc = json.loads((SCENARIOS / "paper_fig2.json").read_text())
        doc["traffic"]["hw_precision"] = {"kind": "constant", "value_ns": 7}
        cfg = parse_scenario(doc)
        cfg.run.count = 200
        res = run_scenario(cfg)
        offs = compute_offsets(res.records, "hw_tx")
        assert offs == [7] * 200

    def test_bridge_chain_delivers_everything(self):
        cfg = small_scenario("bridge_xdp.json", count=200)
        res = run_scenario(cfg)
        assert len(res.records) == 200
        assert [r.seq for r in res.records] == list(range(200))

    def test_a_stream_gate_that_alternates_ipvs_reorders_frames_without_frer(self):
        # odd frames get IPV 2 and pass sw0 at once; even ones get IPV 5, whose
        # class the GCL holds for 150 us of each 200 us cycle, so each odd
        # frame overtakes the even one sent before it
        doc = {
            "nodes": [{"name": "talker", "role": "talker"},
                      {"name": "sw0", "role": "bridge"},
                      {"name": "listener", "role": "listener"}],
            "links": [{"from": a, "to": b, "rate_bps": 10 ** 9}
                      for a, b in (("talker", "sw0"), ("sw0", "listener"))],
            "shapers": {"sw0": {"gcl": {"cycle_time_ns": 200_000, "entries": [
                {"gate_mask": 0xFF & ~(1 << 5), "duration_ns": 150_000},
                {"gate_mask": 0xFF, "duration_ns": 50_000}]}}},
            "filters": {"sw0": {"rules": [{"handle": "s0"}], "gates": {"s0": {
                "cycle_time_ns": 200_000, "entries": [
                    {"open": True, "duration_ns": 100_000, "ipv": 5},
                    {"open": True, "duration_ns": 100_000, "ipv": 2}]}}}},
            "traffic": {"period_ns": 100_000, "count": 6,
                        "stream": {"dest_mac": 1, "vlan_id": 100, "pcp": 0}},
            "run": {"seed": 1}}
        res = run_scenario(parse_scenario(doc))
        assert res.drops == {}
        assert [r.seq for r in res.records] == list(range(6))
        hw_rx = [r.hw_rx for r in res.records]
        assert hw_rx == [101_024, 350_512, 301_024, 550_512, 501_024, 750_512]
        assert any(b < a for a, b in zip(hw_rx, hw_rx[1:]))

    def test_stats_payload_skips_missing_kinds(self):
        records = [rec(0, 500, sw_tx=501), rec(1, 1000, sw_tx=1002)]
        payload = stats_payload(records, 100)
        assert set(payload["kinds"]) == {"sw_tx"}

    def test_metadata_records_seed_and_mode(self):
        cfg = small_scenario("direct_zero.json", count=10)
        res = run_scenario(cfg, seed=42)
        assert res.metadata["seed"] == 42
        assert res.metadata["mode"] == "sleep"

    @pytest.mark.parametrize("name,frer", [
        ("paper_fig1", None), ("bridge_xdp", None),
        ("bridge_xdp", {"enabled": True, "paths": 3, "loss_per_path": 0.1})],
        ids=["paper_fig1", "bridge_xdp", "bridge_xdp_frer"])
    def test_a_dropped_result_frees_the_run_without_the_cyclic_gc(self, name, frer):
        doc = json.loads((SCENARIOS / f"{name}.json").read_text())
        if frer:
            doc["frer"] = frer
        cfg = parse_scenario(doc)
        cfg.run.count = 300
        gc.collect()
        gc.disable()
        try:
            result = run_scenario(cfg)
            assert len(result.records) > 200
            del result
            # nothing of the run (talker, ports, clocks, engine, records)
            # is left for the cyclic GC: reference counting freed it all
            assert gc.collect() == 0
        finally:
            gc.enable()

    # paper_fig1 is sleep mode through an idle port; paper_fig2 is txtime
    # with offloaded ETF, whose hw_precision starts each frame after its kick
    @pytest.mark.parametrize("scenario,events,rechecks",
                             [("paper_fig1", 200, 0), ("paper_fig2", 2 * 200, 28)],
                             ids=["paper_fig1", "paper_fig2"])
    def test_resyncs_add_no_engine_events(self, engines, scenario, events, rechecks):
        doc = json.loads((SCENARIOS / f"{scenario}.json").read_text())
        doc["traffic"]["count"] = 200
        plain = run_scenario(parse_scenario(doc))
        clock = {"offset_ns": 900, "drift_ppm": 25, "sync_interval_ns": 1_200_000,
                 "sync_residual": {"kind": "uniform", "min_ns": -40, "max_ns": 40}}
        doc["clocks"] = {node: {"system": clock, "phc": clock}
                         for node in ("talker", "listener")}
        synced = run_scenario(parse_scenario(doc))
        assert len(plain.records) == len(synced.records) == 200
        assert plain.records != synced.records
        # sleep mode: one event per frame, its hand-over to the port, which
        # also draws the next frame; frame 0 is drawn by the send that
        # run_scenario calls before the run, which is no event. txtime: per
        # frame, the talker's event, which sends it, and the ETF launch
        # time. No event only resyncs a clock, takes a stamp, starts the
        # wire or ends a transmission that nothing preempts and no frame
        # waits behind. On the talker's resynced PHC, a resync between an ETF
        # kick and the launch it computed moves the launch, and the port
        # checks again: rechecks more kicks, while when_reading inverts only
        # the segment of its now
        assert [e.executed for e in engines] == [events, events + rechecks]

    @pytest.mark.parametrize("frer", [None, {"enabled": True, "paths": 3, "loss_per_path": 0.1}],
                             ids=["one_path", "frer"])
    @pytest.mark.parametrize("count", [1, 2, 300])
    @pytest.mark.parametrize("scenario,traffic", [
        ("paper_fig1", {}), ("paper_fig2", {"txtime_lead_ns": 0})], ids=["sleep", "txtime"])
    def test_a_run_executes_count_events(self, engines, scenario, traffic, count, frer):
        # a direct link with an idle port, and in txtime mode an ETF launch
        # due at the hand-over: the send before the run draws frame 0, and
        # each frame's hand-over draws the next; the port sends each copy at
        # once and delivers it as it commits, with no event of its own
        doc = json.loads((SCENARIOS / f"{scenario}.json").read_text())
        doc["traffic"].update(traffic, count=count)
        if frer:
            doc["frer"] = frer
        result = run_scenario(parse_scenario(doc))
        assert len(result.records) + sum(result.drops.values()) == count * (3 if frer else 1)
        assert [e.executed for e in engines] == [count]

    def test_gated_bridge_path_events_and_schedule_calls(self, monkeypatch):
        # an ETF talker through three PSFP/Qbv bridges to the listener, with
        # drifting, resynced clocks on every node; both counts are pinned as
        # the engine of the parent change gave them
        engines, schedules = [], Counter()

        class CountingEngine(harness.Engine):
            def __init__(self):
                super().__init__()
                engines.append(self)

            def schedule(self, fire_time, action, *args):
                schedules[self] += 1
                return super().schedule(fire_time, action, *args)

        monkeypatch.setattr(harness, "Engine", CountingEngine)
        period, ipv, bridges = 500_000, 5, ("sw0", "sw1", "sw2")
        names = ("talker", *bridges, "listener")
        stream = {"dest_mac": 0x01005E000001, "vlan_id": 100, "pcp": 0}
        others = 0xFF & ~(1 << ipv)

        def clock(offset, drift):
            return {"offset_ns": offset, "drift_ppm": drift, "sync_interval_ns": 8_000_000,
                    "sync_residual": {"kind": "normal", "mean_ns": 0, "std_ns": 50}}

        doc = {
            "nodes": [{"name": "talker", "role": "talker"},
                      *({"name": b, "role": "bridge", "forwarding": {"preset": p}}
                        for b, p in zip(bridges, ("xdp", "af_xdp", "linux_bridge"))),
                      {"name": "listener", "role": "listener",
                       "rx_latency": {"kind": "uniform", "min_ns": 500, "max_ns": 9000}}],
            "links": [{"from": a, "to": b, "rate_bps": 10 ** 9, "propagation_ns": 100 + 97 * i,
                       "overhead_bytes": 20} for i, (a, b) in enumerate(zip(names, names[1:]))],
            "clocks": {n: {"system": clock(-150 + 41 * i, 12.5 - 5 * i),
                           "phc": clock(200 - 37 * i, -7.25 + 4 * i)}
                       for i, n in enumerate(names)},
            "shapers": {"talker": {"scheme": "etf", "etf": {"delta_ns": 0, "offload": True}},
                        **{b: {"scheme": "taprio", "guard_mode": "fit", "gcl": {
                            "cycle_time_ns": period, "entries": [
                                {"gate_mask": others, "duration_ns": 10_000 + 20_000 * hop},
                                {"gate_mask": 1 << ipv, "duration_ns": 60_000},
                                {"gate_mask": others,
                                 "duration_ns": period - 70_000 - 20_000 * hop}]}}
                           for hop, b in enumerate(bridges)}},
            "filters": {b: {"rules": [{"vlan_id": 200, "handle": "other"},
                                      {**stream, "handle": "s0"}],
                            "gates": {"s0": {"cycle_time_ns": period, "entries": [
                                {"open": True, "duration_ns": 100_000, "ipv": ipv,
                                 "max_octets": 128},
                                {"open": False, "duration_ns": period - 100_000}]}}}
                        for b in bridges},
            "traffic": {"period_ns": period, "count": 200, "frame_size_bytes": 128,
                        "mode": "txtime", "priority": 0, "stream": stream,
                        "hw_precision": {"kind": "uniform", "min_ns": 2, "max_ns": 6}},
            "run": {"seed": 11}}
        result = run_scenario(parse_scenario(doc))
        assert len(result.records) == 200 and result.drops == {}
        [engine] = engines
        assert (engine.executed, schedules[engine]) == (1602, 1602)


class LoggingRecovery(RecoveryState):
    """A RecoveryState that logs the frame ids it is asked about."""

    def __init__(self):
        super().__init__()
        self.log = []

    def recover(self, frame):
        self.log.append(frame.id)
        return super().recover(frame)


def identity_clocks():
    return {"system": ClockModel(), "phc": ClockModel()}


def copy_of(fid, route="a"):
    return Frame(id=fid, size_bytes=64, priority=0, seq=fid, route=route)


class TestListener:
    RX = JitterDist.uniform(0, 999)

    def frer_sink(self, engine, loss=0.0, labels=("a", "b")):
        node = NodeCfg("listener", "listener", rx_latency=self.RX)
        return Listener(engine, node, identity_clocks(), 5, LoggingRecovery(), loss, labels)

    def test_copies_reach_recovery_and_rx_in_arrival_then_commit_order(self):
        engine = Engine()
        sink = self.frer_sink(engine)
        # at t=0 the copies commit as 1, 2, 3, but arrive as 2 and 3 (a
        # tie, kept in commit order) before 1; at t=300, 4 commits
        for fid, arrival in ((1, 500), (2, 300), (3, 300)):
            engine.schedule(0, sink.receive_copy, copy_of(fid), arrival)
        engine.schedule(300, sink.receive_copy, copy_of(4, "b"), 1000)
        run_until(engine, 299)
        assert sink.recovery.log == [] and sink.records == []
        engine.run_all()
        assert sink.recovery.log == [2, 3]
        sink.close()
        assert sink.recovery.log == [2, 3, 1, 4]
        rx = rng_fork(5, "rx")
        assert [(r.seq, r.hw_rx, r.sw_rx) for r in sink.records] == [
            (fid, t, t + self.RX.sample(rx))
            for fid, t in ((2, 300), (3, 300), (1, 500), (4, 1000))]

    def test_close_takes_the_copies_still_held(self):
        engine = Engine()
        sink = self.frer_sink(engine)
        copies = [copy_of(1), copy_of(1, "b"), copy_of(2)]
        for c, arrival in zip(copies, (900, 800, 700)):
            engine.schedule(100, sink.receive_copy, c, arrival)
        engine.run_all()
        assert sink.recovery.log == [] and sink.drops == {}
        sink.close()
        assert sink.recovery.log == [2, 1, 1]
        assert [r.seq for r in sink.records] == [2, 1]
        assert sink.records[1].hw_rx == 800  # copies[1]'s
        assert sink.drops == {"frer_discard_duplicate": 1}
        sink.close()
        assert len(sink.records) == 2

    def test_loss_draws_come_from_the_stream_of_the_copy_route(self):
        engine = Engine()
        sink = self.frer_sink(engine, loss=0.5)
        for fid in range(40):
            sink.receive_copy(copy_of(fid, "b"), 10)
        sink.close()
        b = rng_fork(5, "loss:b")
        kept = [fid for fid in range(40) if not b.random() < 0.5]
        assert 0 < len(kept) < 40
        assert [r.seq for r in sink.records] == kept
        assert sink.drops == {"path_loss": 40 - len(kept)}
        # path a's stream is untouched
        assert sink.loss_rngs["a"].random() == rng_fork(5, "loss:a").random()

    def test_two_talkers_on_their_own_paths_feed_one_listener(self):
        listener = {"name": "listener", "role": "listener",
                    "rx_latency": {"kind": "constant", "value_ns": 700}}
        bridged = parse_scenario({
            "nodes": [{"name": "talker", "role": "talker"}, listener,
                      {"name": "sw0", "role": "bridge", "forwarding": {"preset": "xdp"}}],
            "links": [{"from": a, "to": b, "rate_bps": 10 ** 9, "propagation_ns": 50}
                      for a, b in (("talker", "sw0"), ("sw0", "listener"))],
            "traffic": {"period_ns": 500_000, "count": 40,
                        "wake_jitter": {"kind": "uniform", "min_ns": 0, "max_ns": 900}},
            "run": {"seed": 1}})
        direct = parse_scenario({
            "nodes": [{"name": "talker", "role": "talker"}, listener],
            "links": [{"from": "talker", "to": "listener", "rate_bps": 10 ** 8}],
            "traffic": {"period_ns": 300_000, "count": 60, "priority": 5,
                        "frame_size_bytes": 1000,
                        "wake_jitter": {"kind": "uniform", "min_ns": 0, "max_ns": 400}},
            "run": {"seed": 2}})
        engine = Engine()
        clocks = {name: identity_clocks() for name in ("talker", "sw0", "listener")}
        sink = Listener(engine, bridged.listener, clocks["listener"], 9)
        for cfg, seed in ((bridged, 1), (direct, 2)):
            port, _ = build_path(engine, cfg, clocks, seed, sink.receive)
            Talker(engine, cfg.traffic, cfg.traffic.count, clocks["talker"]["system"], seed,
                   port.submit).send()
        engine.run_all()
        sink.close()
        # each stream gets what it gets alone
        alone = run_scenario(bridged, seed=1).records + run_scenario(direct, seed=2).records
        assert sorted(map(tuple, sink.records)) == sorted(map(tuple, alone))
        assert len(sink.records) == 100 and sink.drops == {}


class TestRecords:
    """A run's records are row-major int64 storage; rows are made only for list operations."""

    @staticmethod
    def columnar(records):
        return all(isinstance(column, array) for column in records.columns)

    def test_len_and_iteration_keep_the_columns(self):
        records = run_scenario(small_scenario("paper_fig1.json", count=50)).records
        rows = list(records)
        assert len(records) == len(rows) == 50 and records
        assert all(type(r) is PacketRecord for r in rows)
        assert [r.seq for r in rows] == list(range(50))
        assert [list(c) for c in records.columns] == [
            [getattr(r, name) for r in rows] for name in harness.RECORD_FIELDS]
        assert self.columnar(records)

    def test_equality_with_a_list_of_rows(self):
        records = run_scenario(small_scenario("paper_fig1.json", count=10)).records
        rows = list(records)
        assert records == rows and rows == records and records != rows[:-1]
        assert records == copy.deepcopy(records) and records != list(reversed(rows))
        assert Records() == [] and not Records() and tsnsim.Records is Records
        # Records(rows) keeps a list, which holds the same values as the run's array
        assert records == Records(rows) and Records(rows) == records != Records(rows[1:])
        assert records != 5 and not records == None  # noqa: E711
        assert self.columnar(records)

    def test_indexing_acts_on_a_list_of_rows(self):
        records = run_scenario(small_scenario("paper_fig1.json", count=10)).records
        rows = list(records)
        assert records[-1] == rows[-1] and records[2:4] == rows[2:4]
        assert not self.columnar(records)
        assert list(records.columns[0]) == list(range(10))

    def test_deepcopy_and_the_bench_self_test_edits(self):
        result = run_scenario(small_scenario("paper_fig1.json", count=10))
        rows = list(result.records)
        lost = copy.deepcopy(result)
        assert self.columnar(lost.records) and lost.records == rows
        del lost.records[3]
        assert [r.seq for r in lost.records] == [0, 1, 2, 4, 5, 6, 7, 8, 9]
        assert len(lost.records) == 9 and list(lost.records.columns[0]) == [
            0, 1, 2, 4, 5, 6, 7, 8, 9]
        swapped = copy.deepcopy(result)
        swapped.records[1], swapped.records[2] = swapped.records[2], swapped.records[1]
        assert [r.seq for r in swapped.records][:4] == [0, 2, 1, 3]
        written = copy.deepcopy(result)
        written.records[0].hw_rx = written.records[0].hw_tx
        assert list(written.records)[0].hw_rx == rows[0].hw_tx
        assert written.records.columns[4][0] == rows[0].hw_tx
        # the copies left the run's records as they were
        assert copy.copy(result.records) == rows and self.columnar(result.records)
        assert result.records == rows

    def test_frer_records_are_a_stable_sort_of_the_delivery_order(self, monkeypatch):
        doc = json.loads((SCENARIOS / "bridge_xdp.json").read_text())
        # forwarding jitter of four periods, so a copy can overtake an earlier frame's
        doc["nodes"][1]["forwarding"] = {"kind": "uniform", "min_ns": 0, "max_ns": 20_000}
        doc["traffic"]["period_ns"] = 5_000
        doc["frer"] = {"enabled": True, "paths": 3, "loss_per_path": 0.3}
        cfg = parse_scenario(doc)
        cfg.run.count = 300
        delivered = []
        close = Listener.close

        def keep_delivery_order(sink):
            close(sink)
            delivered.append(list(sink.records))

        monkeypatch.setattr(Listener, "close", keep_delivery_order)
        records = run_scenario(cfg).records
        [rows] = delivered
        seqs = [r.seq for r in rows]
        assert sum(b < a for a, b in zip(seqs, seqs[1:])) > 10
        assert list(records) == sorted(rows, key=attrgetter("seq"))
        assert self.columnar(records)

    def test_a_csv_with_an_empty_cell_loads_and_report_skips_its_kind(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text(",".join(CSV_COLUMNS) + "\n0,500,510,520,530,560\n1,1000,1010,,1030,1060\n")
        records = load_records(p)
        assert records == [rec(0, 500, sw_tx=510, hw_tx=520, hw_rx=530, sw_rx=560),
                           rec(1, 1000, sw_tx=1010, hw_tx=None, hw_rx=1030, sw_rx=1060)]
        assert None in records.columns[3]
        assert set(report(p)["kinds"]) == {"sw_tx", "hw_rx", "sw_rx"}

    def test_a_stamp_beyond_64_bits_round_trips(self, tmp_path):
        engine = Engine()
        sink = Listener(engine, NodeCfg("listener", "listener"), identity_clocks(), 5)
        for fid, sw_tx in ((0, 10), (1, 2 ** 70), (2, 30)):
            sink.receive(Frame(id=fid, size_bytes=64, priority=0, intended_tx=fid,
                               sw_tx=sw_tx, hw_tx=fid), 100 * fid)
        sink.close()
        expected = [rec(0, 0, sw_tx=10, hw_tx=0, hw_rx=0, sw_rx=0),
                    rec(1, 1, sw_tx=2 ** 70, hw_tx=1, hw_rx=100, sw_rx=100),
                    rec(2, 2, sw_tx=30, hw_tx=2, hw_rx=200, sw_rx=200)]
        assert sink.records == expected
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        export_records(sink.records, a)
        loaded = load_records(a)
        assert loaded == expected and loaded.columns[2][1] == 2 ** 70
        export_records(loaded, b)
        assert a.read_bytes() == b.read_bytes()
        assert report(a)["kinds"]["sw_tx"]["max_ns"] == 2 ** 70 - 1

    @staticmethod
    def traced(f):
        """f()'s result, and the traced bytes it retained and peaked at above
        the baseline before it."""
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = f()
            gc.collect()
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, retained - before, peak - before

    @staticmethod
    def warm_paper_fig1(count):
        cfg = small_scenario("paper_fig1.json", count=100)
        run_scenario(cfg)  # first-run allocations (caches, interned values) stay out
        cfg.run.count = count
        return cfg

    def test_a_run_keeps_at_most_60_bytes_per_record(self):
        cfg = self.warm_paper_fig1(20_000)
        result, retained, _ = self.traced(lambda: run_scenario(cfg))
        assert len(result.records) == 20_000
        per_record = retained / 20_000
        assert per_record <= 60, f"{per_record:.0f} B retained per record"

    def test_a_run_peaks_at_most_64_bytes_per_record(self):
        cfg = self.warm_paper_fig1(20_000)
        result, _, peak = self.traced(lambda: run_scenario(cfg))
        assert len(result.records) == 20_000
        per_record = peak / 20_000
        assert per_record <= 64, f"{per_record:.0f} B per record at peak"

    def test_equality_of_two_long_runs_keeps_both_row_major(self):
        cfg = self.warm_paper_fig1(20_000)

        def compare():
            a, b = run_scenario(cfg).records, run_scenario(cfg).records
            assert a == b and not a != b and len(a) == 20_000
            return a, b

        (a, b), retained, _ = self.traced(compare)
        assert "data" not in vars(a) and "data" not in vars(b)
        per_record = retained / 40_000
        assert per_record <= 60, f"{per_record:.0f} B retained per record"
