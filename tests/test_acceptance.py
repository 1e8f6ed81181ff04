"""End-to-end acceptance suite.

Each test covers one release criterion and prints a single PASS/FAIL line
with the measured values, so the full gate can be read off the test log.
"""

import random
import time
from pathlib import Path

import pytest

import tsnsim
from tsnsim.cli import main as cli_main
from tsnsim.core import ClockModel, CyclicSchedule, Engine, JitterDist, rng_fork
from tsnsim.egress import EgressPort, EtfQueue, GclEntry, TaprioPort
from tsnsim.frer import ACCEPT, RecoveryState
from tsnsim.harness import (compute_offsets, load_records, report,
                            run_scenario, stats, stats_payload)
from tsnsim.ingress import PASS, StreamGate, StreamGateEntry
from tsnsim.network import (BridgeNode, CqfConfig, cqf_compose,
                            cqf_latency_bound)
from tsnsim.scenario import load_scenario
from tsnsim.traffic import Frame, StreamKey, transmission_time

from helpers import gcl_state, make_stream_rules, run_until
from test_preemption import preempt_on_port

US = 1000
MS = 1000 * US
SCENARIOS = Path(tsnsim.__file__).parent / "scenarios"
SHIPPED = ["direct_zero", "paper_fig1", "paper_fig2", "bridge_xdp"]


def verdict(num, desc, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def load(name):
    return load_scenario(SCENARIOS / f"{name}.json")


# --- 1. determinism + runtime --------------------------------------------


def test_criterion_01_determinism_and_runtime(tmp_path):
    worst = 0.0
    identical = True
    for name in SHIPPED:
        t0 = time.perf_counter()
        a = tmp_path / name / "a"
        assert cli_main(["run", name, "--out", str(a)]) == 0
        worst = max(worst, time.perf_counter() - t0)
        b = tmp_path / name / "b"
        assert cli_main(["run", name, "--out", str(b)]) == 0
        for f in ("records.csv", "stats.json"):
            if (a / f).read_bytes() != (b / f).read_bytes():
                identical = False
    verdict(1, "equal seeds give byte-identical outputs, runtime < 10 s",
            identical and worst < 10.0,
            f"slowest scenario {worst:.2f} s")


# --- 2. zero-jitter identity ----------------------------------------------


def test_criterion_02_zero_jitter_identity():
    cfg = load("direct_zero")
    res = run_scenario(cfg)
    nonzero = sum(1 for kind in ("sw_tx", "hw_tx", "hw_rx", "sw_rx")
                  for v in compute_offsets(res.records, kind) if v)
    verdict(2, "direct_zero yields offset 0 for all kinds on all packets",
            len(res.records) == 10_000 and nonzero == 0,
            f"{len(res.records)} packets, {nonzero} nonzero offsets")


# --- 3. gate conformance (Qbv) --------------------------------------------


def random_gcl(rng, max_cycle_ns=10 * US):
    n = rng.randint(2, 8)
    cuts = sorted(rng.sample(range(1, max_cycle_ns), n - 1))
    durations = [b - a for a, b in zip([0] + cuts, cuts + [max_cycle_ns])]
    return CyclicSchedule(0, max_cycle_ns,
                          [GclEntry(rng.randrange(0, 256), d)
                           for d in durations])


def mask_table(gcl):
    table = []
    for e in gcl.entries:
        table.extend([e.gate_mask] * e.duration_ns)
    return table


def run_taprio(gcl, frames, rate=10 ** 9, until=20 * MS):
    eng = Engine()
    wires = []
    port = EgressPort(eng, rate, queue=TaprioPort(gcl=gcl, link_rate_bps=rate),
                      deliver=lambda f, e: wires.append((f, f.hw_tx, e)))
    for t, f in frames:
        eng.schedule(t, port.submit, f)
    run_until(eng, until)
    return wires


def test_criterion_03_gate_conformance():
    rng = random.Random(31337)
    violations = 0
    oracle_checked = 0
    for scenario in range(120):
        gcl = random_gcl(rng)
        table = mask_table(gcl)
        frames = [(rng.randrange(0, 4 * gcl.cycle_time_ns),
                   Frame(id=i, size_bytes=rng.randint(64, 500),
                         priority=rng.randrange(8)))
                  for i in range(rng.randint(3, 12))]
        wires = run_taprio(gcl, frames)
        for f, start, end in wires:
            bit = 1 << f.egress_class
            if any(not table[t % gcl.cycle_time_ns] & bit
                   for t in range(start, end)):
                violations += 1
        if scenario < 12:
            # full oracle equivalence: gate state at every queried instant
            for _ in range(300):
                t = rng.randrange(0, 3 * gcl.cycle_time_ns)
                mask, _ = gcl_state(gcl, t)
                assert mask == table[t % gcl.cycle_time_ns]
            oracle_checked += 1
    verdict(3, "no wire interval overlaps a closed window over 120 fuzzed GCLs",
            violations == 0 and oracle_checked >= 10,
            f"{violations} violations, oracle equivalence on {oracle_checked}")


# --- 4. PSFP budget -------------------------------------------------------


def test_criterion_04_psfp_budget():
    rng = random.Random(88)
    budget_violations = 0
    closed_passes = 0
    windows = 0
    for _ in range(40):
        cycle = rng.choice([10 * US, 50 * US])
        n = rng.randint(2, 5)
        cuts = sorted(rng.sample(range(1, cycle), n - 1))
        durations = [b - a for a, b in zip([0] + cuts, cuts + [cycle])]
        entries = [StreamGateEntry(open=rng.random() < 0.6, duration_ns=d,
                                   max_octets=rng.choice([1000, 3000, None]))
                   for d in durations]
        gate = StreamGate(CyclicSchedule(0, cycle, entries))
        table = []
        for i, e in enumerate(entries):
            table.extend([i] * e.duration_ns)
        passed = {}
        for t in sorted(rng.randrange(0, 4 * cycle) for _ in range(500)):
            size = rng.randint(64, 1500)
            idx = table[t % cycle]
            window = (t // cycle, idx)
            d = gate.process(Frame(id=0, size_bytes=size, priority=0), t)
            if d.outcome == PASS:
                if not entries[idx].open:
                    closed_passes += 1
                passed[window] = passed.get(window, 0) + size
        for (cyc, idx), octets in passed.items():
            windows += 1
            cap = entries[idx].max_octets
            if cap is not None and octets > cap:
                budget_violations += 1
    verdict(4, "per-window passed octets within budget, no closed-gate passes",
            budget_violations == 0 and closed_passes == 0,
            f"{windows} windows, {budget_violations} over budget, "
            f"{closed_passes} closed-gate passes")


# --- 5. CQF bound ---------------------------------------------------------


def run_cqf_chain(hops, cycle, inject_at):
    eng = Engine()
    cfg = CqfConfig(cycle_time_ns=cycle, ipv_even=5, ipv_odd=6)
    rules = make_stream_rules([{"handle": "s0"}])
    done = []
    deliver_next = lambda f, e: done.append(e)
    bridges = []
    for _ in range(hops):
        ingress, gcl = cqf_compose(cfg)
        port = EgressPort(eng, 10 ** 9, queue=TaprioPort(gcl=gcl, link_rate_bps=10 ** 9),
                          deliver=deliver_next)
        br = BridgeNode(eng, "br", port, stream_rules=rules,
                        gates={"s0": StreamGate(ingress)})
        bridges.append(br)
        deliver_next = br.receive
    first = bridges[-1]
    f = Frame(id=1, size_bytes=64, priority=0,
              stream=StreamKey(dest_mac=1, vlan_id=1, pcp=0))
    eng.schedule(inject_at, lambda: first.receive(f, eng.now))
    eng.run_all()
    assert len(done) == 1
    return done[0]


def test_criterion_05_cqf_bound():
    ok = True
    details = []
    for cycle in (100 * US, 500 * US, MS):
        for hops in (1, 2, 3):
            worst = 0
            for phase in range(0, 2 * cycle, US):
                latency = run_cqf_chain(hops, cycle, phase) - phase
                worst = max(worst, latency)
            # the sweep itself must establish the (hops+1) factor: the
            # observed worst case exceeds hops*cycle and fits (hops+1)*cycle
            if not hops * cycle < worst <= (hops + 1) * cycle:
                ok = False
            if cqf_latency_bound(hops, cycle) != (hops + 1) * cycle:
                ok = False
            details.append(f"h{hops}/c{cycle // US}us:{worst}")
    verdict(5, "phase sweep confirms the (hops+1)*cycle latency bound", ok,
            "; ".join(details[:3]) + "; ...")


# --- 6. FRER exactly-once -------------------------------------------------


def test_criterion_06_frer_exactly_once():
    rng = random.Random(606)
    arrivals = []
    survivors = set()
    for i in range(10_000):
        f = Frame(id=i, size_bytes=64, priority=0, seq=i)
        for copy in (f.clone(route="a"), f.clone(route="b")):
            if rng.random() < 0.3:
                continue
            survivors.add(copy.seq)
            arrivals.append((i * 10 + rng.randrange(0, 320), copy))
    arrivals.sort(key=lambda p: p[0])
    state = RecoveryState(window_size=64)
    accepted = [c.seq for _, c in arrivals if state.recover(c) == ACCEPT]
    exactly_once = (sorted(accepted) == sorted(survivors)
                    and len(accepted) == len(set(accepted)))
    wrap = RecoveryState()
    wrap_ok = (wrap.recover(Frame(id=0, size_bytes=64, priority=0,
                                  seq=65_535)) == ACCEPT
               and wrap.recover(Frame(id=1, size_bytes=64, priority=0,
                                      seq=0)) == ACCEPT
               and wrap.recover(Frame(id=2, size_bytes=64, priority=0,
                                      seq=65_535)) != ACCEPT)
    verdict(6, "surviving seqs delivered exactly once incl. 65535->0 wrap",
            exactly_once and wrap_ok,
            f"{len(survivors)} survivors, {len(accepted)} accepted")


# --- 7. preemption --------------------------------------------------------


def test_criterion_07_preemption():
    # express class 7 on a 100 Mbps EgressPort
    rate = 100_000_000
    trace_ok = preempt_on_port(1500, 64, 10_000) == (10_240, 15_360, 125_120)
    bound = transmission_time(127, rate)
    rng = random.Random(707)
    bound_ok = True
    conserved = True
    for _ in range(10_000):
        psize = rng.randint(192, 9000)
        esize = rng.randint(64, 1500)
        arrival = rng.randrange(0, transmission_time(psize, rate))
        start, end, complete = preempt_on_port(psize, esize, arrival, rate)
        sent = (arrival * rate) // (8 * 10 ** 9)
        if psize - sent >= 128 and start - arrival > bound:
            bound_ok = False
        if start < complete:
            if complete - (end - start) != transmission_time(psize, rate):
                conserved = False
    verdict(7, "derived trace exact; express bound and byte conservation hold",
            trace_ok and bound_ok and conserved,
            f"trace {trace_ok}, bound {bound_ok}, conservation {conserved}")


# --- 8/9. calibration -----------------------------------------------------


def seeds_passing(name, check, n_seeds=100):
    cfg = load(name)
    passing = 0
    for seed in range(1, n_seeds + 1):
        res = run_scenario(cfg, seed=seed)
        if check(res.records):
            passing += 1
    return passing


def test_criterion_08_calibration_fig1():
    def check(records):
        sw_tx = stats(compute_offsets(records, "sw_tx"))
        sw_rx = stats(compute_offsets(records, "sw_rx"))
        return (sw_tx["p80_radius_ns"] <= 1_500 and sw_tx["max_ns"] <= 3_500
                and sw_rx["p80_radius_ns"] <= 5_000 and sw_rx["max_ns"] <= 15_000)

    passing = seeds_passing("paper_fig1", check)
    verdict(8, "paper_fig1 sw-tx/sw-rx radii within calibration targets",
            passing >= 95, f"{passing}/100 seeds passing")


def test_criterion_09_calibration_fig2():
    def check(records):
        s = stats(compute_offsets(records, "hw_rx"))
        return 3.0 <= s["mean_ns"] <= 7.0 and s["max_ns"] <= 11

    passing = seeds_passing("paper_fig2", check)
    verdict(9, "paper_fig2 hw-rx mean 5 ns +/- 2 ns, max <= 11 ns",
            passing >= 95, f"{passing}/100 seeds passing")


# --- 10. ETF semantics ----------------------------------------------------


def test_criterion_10_etf_semantics():
    q = EtfQueue(delta_ns=0)
    dropped = q.enqueue(Frame(id=1, size_bytes=64, priority=0, txtime=10),
                        now=100) == "etf_past_txtime"

    rng = random.Random(1010)
    q = EtfQueue()
    for i in range(10 ** 6):
        q.enqueue(Frame(id=i, size_bytes=64, priority=0,
                        txtime=rng.randrange(0, 10 ** 12)), now=0)
    prev = -1
    sorted_ok = True
    while q.count:
        t = q.pop().txtime
        if t < prev:
            sorted_ok = False
            break
        prev = t

    eng = Engine()
    wires = []
    port = EgressPort(eng, 10 ** 9, phc=ClockModel(), queue=EtfQueue(),
                      deliver=lambda f, e: wires.append(f.hw_tx))
    port.submit(Frame(id=1, size_bytes=64, priority=0, txtime=5 * US))
    eng.run_all()
    offload_ok = wires == [5 * US]
    verdict(10, "past-txtime drop, sorted dequeue over 1e6, offload wire-out",
            dropped and sorted_ok and offload_ok,
            f"drop {dropped}, sorted {sorted_ok}, offload {offload_ok}")


# --- 11. clock model ------------------------------------------------------


def test_criterion_11_clock_model():
    drifting = ClockModel(drift_ppm=10)
    exact = all(drifting.read(k * 10 ** 9) - k * 10 ** 9 == k * 10_000
                for k in range(1, 11))

    # 10 simulated seconds, resynced every 125 ms
    synced = ClockModel(drift_ppm=10, sync_interval_ns=125 * MS,
                        sync_residual=JitterDist.constant(0)).resynced(
        rng_fork(1, "sync"), 10_000 * MS)
    bounded = True
    t = 0
    for _ in range(80):
        for probe in (0, 40 * MS, 124 * MS):
            off = synced.read(t + probe) - (t + probe)
            if abs(off) > 1_250:
                bounded = False
        t += 125 * MS
    verdict(11, "10 ppm drift grows 10 us/s exactly; sync bounds it to 1.25 us",
            exact and bounded, f"exact {exact}, bounded {bounded}")


# --- 12. CSV/stats round-trip ---------------------------------------------


def test_criterion_12_csv_roundtrip(tmp_path):
    out = tmp_path / "out"
    assert cli_main(["run", "paper_fig1", "--out", str(out)]) == 0
    cfg = load("paper_fig1")
    res = run_scenario(cfg)
    in_memory = stats_payload(res.records, cfg.run.histogram_bin_ns)
    reported = report(out / "records.csv", cfg.run.histogram_bin_ns)
    stats_match = reported["kinds"] == in_memory["kinds"]

    bad = tmp_path / "bad.csv"
    bad.write_text("seq,intended_tx_ns,sw_tx_ns,hw_tx_ns,hw_rx_ns,sw_rx_ns\n"
                   "0,500,1,2,3,4\n"
                   "1,bogus,1,2,3,4\n")
    from tsnsim.harness import MalformedRowError
    try:
        load_records(bad)
        line_ok = False
    except MalformedRowError as exc:
        line_ok = exc.line_no == 3
    verdict(12, "report reproduces stats bit-exactly; bad rows cite lines",
            stats_match and line_ok,
            f"stats match {stats_match}, line number {line_ok}")
