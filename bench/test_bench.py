"""Self-tests of the benchmark: tracing must observe without changing anything.

Run from the repository root:  python3 -m pytest bench -q
"""

from __future__ import annotations

import copy
import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run as bench_run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(params=["bridged_qbv_psfp", "frer_replicated"])
def bench(request, monkeypatch):
    monkeypatch.setattr(workloads, "BRIDGED_COUNT", 300)
    monkeypatch.setattr(workloads, "FRER_COUNT", 300)
    work = bench_run.ROOT / ".bench_work" / f"test-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    b = bench_run.Bench(work, checks.load_golden(), request.param, seed=5)
    b.set_up()
    yield b
    bench_run.remove_work_dir(work)


def traced_sample(b):
    t = tracer.Tracer()
    t.install(b.pkg)
    try:
        result = b.run_sample(b.samples[0], traced=t)
    finally:
        t.uninstall()
    return t, result


def test_traced_run_gives_untraced_outputs_and_restores_everything(bench):
    pkg = bench.pkg
    originals = {name: getattr(pkg.harness, name) for name in vars(pkg.harness)}
    assert bench.run_sample(bench.samples[0]) is not None
    t, result = traced_sample(bench)
    # run_sample fails the run if the traced digests differ from the untraced ones
    assert result is not None and bench.failed == 0
    # names imported by other modules were traced where they are used
    assert t.calls["traffic.transmission_time"] > 0
    assert t.calls["core.rng_fork"] > 0
    assert tracer.leftover_wrappers() == []
    assert {name: getattr(pkg.harness, name) for name in vars(pkg.harness)} == originals
    assert pkg.egress.transmission_time is pkg.traffic.transmission_time
    assert pkg.JitterDist.sample is vars(pkg.core.JitterDist)["sample"]


def test_traced_counts_repeat_exactly(bench):
    first, _ = traced_sample(bench)
    second, _ = traced_sample(bench)
    assert first.calls == second.calls and first.extra == second.extra
    assert first.extra["engine_events"] > 0


def test_invariants_catch_broken_results(bench):
    path, seed = bench.samples[0][0]
    cfg = bench.cfgs[path]
    result = bench.pkg.harness.run_scenario(cfg, seed=seed)
    bench.engines.clear()
    assert checks.invariant_problems(result, cfg) == []

    lost = copy.deepcopy(result)
    del lost.records[3]
    assert any("conservation" in p for p in checks.invariant_problems(lost, cfg))

    unsorted = copy.deepcopy(result)
    unsorted.records[1], unsorted.records[2] = unsorted.records[2], unsorted.records[1]
    assert any("sorted" in p for p in checks.invariant_problems(unsorted, cfg))

    if bench.workload == "frer_replicated":  # identity clocks
        acausal = copy.deepcopy(result)
        acausal.records[0].hw_rx = acausal.records[0].hw_tx
        assert any("causal" in p for p in checks.invariant_problems(acausal, cfg))
