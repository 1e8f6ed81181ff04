#!/usr/bin/env python3
"""tsnsim benchmark.

Measure one workload (run from the repository root):

    python3 bench/run.py --workload calibration_sweep --seed 1 --seconds 25 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
of a traced run plus the tracing overhead. The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

Golden outputs:

    python3 bench/run.py --check        # compare against bench/golden.json
    python3 bench/run.py --regenerate   # rewrite bench/golden.json

Only a change that alters simulation outputs on purpose may regenerate
the golden digests, and it must say so. See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from speed import SpeedProbe  # noqa: E402

SETUP_REPEATS = 25
SHIPPED_SEEDS = (1, 2, 3)


class SourceMissing(Exception):
    pass


def import_tsnsim():
    """Import tsnsim afresh from this checkout's src/, never from elsewhere."""
    if not (SRC / "tsnsim" / "__init__.py").is_file():
        raise SourceMissing(f"no tsnsim sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "tsnsim" or n.startswith("tsnsim.")]:
        del sys.modules[name]
    pkg = importlib.import_module("tsnsim")
    importlib.import_module("tsnsim.cli")
    if Path(pkg.__file__).resolve().parent != (SRC / "tsnsim").resolve():
        raise SourceMissing(f"imported tsnsim from {pkg.__file__}, not {SRC}")
    return pkg


def git_revision() -> str:
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


class Bench:
    """One benchmark process: set-up, timed samples and their checks."""

    def __init__(self, work: Path, golden: dict, workload: str | None = None,
                 seed: int | None = None):
        self.work = work
        self.workload = workload
        self.seed = seed
        self.samples = ([] if workload is None else
                        workloads.samples(workload, seed, ROOT, work))
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, dict] = {}
        self.golden = golden
        self.pkg = None
        self.cfgs: dict = {}
        self.engines: list = []

    # -- set-up

    def set_up(self) -> tuple[float, float]:
        """Import tsnsim and load every scenario.

        Returns the median set-up time at reference speed and as measured.
        """
        paths = sorted({p for sample in self.samples for p, _ in sample})
        pkg = import_tsnsim()  # warms the bytecode and file caches
        speed = SpeedProbe()
        raw, scaled = [], []
        for _ in range(SETUP_REPEATS):
            gc.collect()
            t0 = time.perf_counter()
            pkg = import_tsnsim()
            cfgs = {p: pkg.scenario.load_scenario(p) for p in paths}
            raw.append(time.perf_counter() - t0)
            scaled.append(raw[-1] * speed.scale())
        self.pkg, self.cfgs = pkg, cfgs
        engines = self.engines

        class CountingEngine(pkg.core.Engine):
            """Records each engine so Engine.executed can be read after the run."""

            def __init__(self):
                super().__init__()
                engines.append(self)

        pkg.harness.Engine = CountingEngine
        return statistics.median(scaled), statistics.median(raw)

    # -- runs

    def _fail(self, label: str, problems: list[str]) -> None:
        self.failed += 1
        for p in problems:
            print(f"FAIL {label}: {p}", file=sys.stderr)

    def _check_digest(self, label: str, got: dict, expected: dict | None) -> list[str]:
        problems = []
        if expected is not None and got != expected:
            problems.append(f"digest {got} != golden {expected}")
        first = self.digests.setdefault(label, got)
        if first != got:
            problems.append(f"digest {got} differs from an earlier run {first}")
        return problems

    def run_sample(self, sample, traced: tracer.Tracer | None = None):
        """Time one sample; returns (delivered, seconds, events) or None on failure."""
        gc.collect()
        delivered = events = 0
        seconds = 0.0
        ok = True
        for path, seed in sample:
            label = f"{path.stem}@{seed}"
            self.attempted += 1
            cfg = self.cfgs[path]
            out = self.work / "out"
            try:
                t0 = time.perf_counter()
                result = self.pkg.harness.run_scenario(cfg, seed=seed)
                self.pkg.cli._write_outputs(result, out, cfg.run.histogram_bin_ns)
                seconds += time.perf_counter() - t0
                (engine,) = self.engines
                self.engines.clear()
                events += engine.executed
                delivered += len(result.records)
                if traced is not None:
                    traced.extra["engine_events"] += engine.executed
                problems = checks.invariant_problems(result, cfg)
                problems += checks.readback_problems(self.pkg, out, cfg.run.histogram_bin_ns)
                got = checks.digests(out)
                if label not in self.digests and self.seed != workloads.DEFAULT_SEED:
                    print(f"digest {self.workload} {label} "
                          + " ".join(f"{k}={v}" for k, v in got.items()))
                expected = None
                if self.seed == workloads.DEFAULT_SEED:
                    expected = self.golden.get(self.workload, {}).get(label)
                    if expected is None:
                        problems.append("no golden digest stored")
                problems += self._check_digest(label, got, expected)
            except Exception:
                self.engines.clear()
                problems = [traceback.format_exc()]
            if problems:
                self._fail(label + (" (traced)" if traced else ""), problems)
                ok = False
        return (delivered, seconds, events) if ok else None

    def cli_run(self, path: Path, seed: int) -> dict:
        """`tsnsim run` on a scenario file; returns its output digests."""
        out = self.work / "cli"
        shutil.rmtree(out, ignore_errors=True)
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.pkg.cli.main(["run", str(path), "--out", str(out),
                                      "--seed", str(seed)])
        self.engines.clear()
        if code != 0:
            raise RuntimeError(f"tsnsim run exited {code}")
        return checks.digests(out)

    def golden_runs(self, shipped_labels, workload_list):
        """(group, label, path, seed) of every golden-checked run.

        The group is "shipped" or the workload's name, as in golden.json.
        """
        shipped = SRC / "tsnsim" / "scenarios"
        for label in shipped_labels:
            stem, _, seed = label.partition("@")
            yield "shipped", label, shipped / f"{stem}.json", int(seed)
        for wl in workload_list:
            for sample in workloads.samples(wl, workloads.DEFAULT_SEED, ROOT, self.work):
                for path, seed in sample:
                    yield wl, f"{path.stem}@{seed}", path, seed

    def check_golden(self, shipped_labels, workload_list, regenerate=False) -> dict:
        """Compare (or regenerate) `tsnsim run` digests; returns the new table."""
        table: dict = {}
        for group, label, path, seed in self.golden_runs(shipped_labels, workload_list):
            self.attempted += 1
            try:
                got = self.cli_run(path, seed)
            except Exception:
                self._fail(label, [traceback.format_exc()])
                continue
            table.setdefault(group, {})[label] = got
            stored = self.golden.get(group, {}).get(label)
            if not regenerate and got != stored:
                self._fail(label, [f"tsnsim run digest {got} != golden {stored}"])
        return table


def make_work_dir() -> Path:
    """A per-process scratch directory inside the checkout."""
    work = ROOT / ".bench_work" / str(os.getpid())
    work.mkdir(parents=True)
    return work


def remove_work_dir(work: Path) -> None:
    shutil.rmtree(work, ignore_errors=True)
    with contextlib.suppress(OSError):  # other benchmark processes still use it
        work.parent.rmdir()


def shipped_labels() -> list[str]:
    """Every shipped scenario at seeds 1-3."""
    names = sorted(p.stem for p in (SRC / "tsnsim" / "scenarios").glob("*.json"))
    return [f"{n}@{s}" for n in names for s in SHIPPED_SEEDS]


class Rates:
    """Delivered packets per second of each sample, raw and at reference speed."""

    def __init__(self):
        self.raw: list[float] = []
        self.scaled: list[float] = []

    def add(self, result, factor: float) -> None:
        if result is not None:
            delivered, seconds, _ = result
            self.raw.append(delivered / seconds)
            self.scaled.append(delivered / (seconds * factor))

    def median(self, which="scaled") -> float:
        values = getattr(self, which)
        return statistics.median(values) if values else 0.0


def measure(bench: Bench, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics, and the raw figures behind them."""
    samples = bench.samples
    speed = SpeedProbe()
    rates = Rates()
    events = delivered = 0
    i = 0
    deadline = time.perf_counter() + seconds
    while i < len(samples) or time.perf_counter() < deadline:
        r = bench.run_sample(samples[i % len(samples)])
        rates.add(r, speed.scale())
        if r is not None and i < len(samples):
            delivered += r[0]
            events += r[2]
        i += 1
    metrics = {"packets_per_s": (rates.median(), "packets/s"),
               "events_per_packet": (events / delivered if delivered else 0.0, "events")}
    info = {"timed_samples": len(rates.raw),
            "packets_per_s_unscaled": rates.median("raw"),
            "speed_factor": statistics.median(speed.factors)}
    return metrics, info


def measure_traced(bench: Bench, seconds: float) -> tuple[dict, dict]:
    """Alternate untraced and traced samples; per-layer metrics from the traced ones."""
    pkg, samples = bench.pkg, bench.samples
    parse = tracer.Tracer()
    parse.install(pkg)
    try:
        for path in bench.cfgs:
            pkg.scenario.load_scenario(path)
    finally:
        parse.uninstall()
    times, counts = tracer.Tracer(), tracer.Tracer()
    times.absorb(parse)
    first_counts: dict[int, tuple] = {}
    speed = SpeedProbe()
    plain, traced = Rates(), Rates()
    packets = 0
    i = 0
    deadline = time.perf_counter() + seconds
    while i < len(samples) or time.perf_counter() < deadline:
        k = i % len(samples)
        plain.add(bench.run_sample(samples[k]), speed.scale())
        t = tracer.Tracer()
        t.install(pkg)
        try:
            r = bench.run_sample(samples[k], traced=t)
        finally:
            t.uninstall()
        traced.add(r, speed.scale())
        leftovers = tracer.leftover_wrappers()
        if leftovers:
            bench._fail(f"sample {k}", [f"wrappers left installed: {leftovers}"])
        snapshot = (dict(t.calls), dict(t.extra))
        if first_counts.setdefault(k, snapshot) != snapshot:
            bench._fail(f"sample {k}", ["traced counts differ from the first traced pass"])
        if r is not None:
            times.absorb(t)
            if i < len(samples):
                counts.absorb(t)
                packets += r[0]
        i += 1
    metrics = tracer.layer_metrics(counts, times, packets)
    overhead = 1 - traced.median() / plain.median() if traced.scaled and plain.scaled else 0.0
    metrics["trace_overhead"] = (overhead, "ratio")
    info = {"traced_samples": len(traced.raw), "untraced_samples": len(plain.raw),
            "speed_factor": statistics.median(speed.factors)}
    return metrics, info


def run_workload(args) -> int:
    work = make_work_dir()
    try:
        bench = Bench(work, checks.load_golden(), args.workload, args.seed)
        try:
            setup_s, setup_unscaled = bench.set_up()
        except SourceMissing as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.trace:
            metrics, info = measure_traced(bench, args.seconds)
        else:
            metrics, info = measure(bench, args.seconds)
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
            metrics["setup_s"] = (setup_s, "s")
            info["setup_s_unscaled"] = setup_unscaled
        # the stored shipped digests, so that a new shipped scenario does
        # not fail every run; --check also demands digests for new ones
        bench.check_golden(sorted(bench.golden["shipped"]), [])
    finally:
        remove_work_dir(work)
    print("provenance " + json.dumps({"git_revision": git_revision(),
                                      "python": platform.python_version(),
                                      "cpu_count": os.cpu_count(),
                                      "workload": args.workload, "seed": args.seed,
                                      "seconds": args.seconds, "trace": args.trace}))
    print("measured " + json.dumps(info))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"failed_ratio {bench.failed / bench.attempted:.6g} "
          f"({bench.failed} of {bench.attempted} runs)")
    print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                      "failed": bench.failed,
                      "metrics": {n: {"value": v, "unit": u}
                                  for n, (v, u) in metrics.items()}}))
    return 0 if bench.failed == 0 else 1


def run_golden(regenerate: bool) -> int:
    work = make_work_dir()
    try:
        bench = Bench(work, {} if regenerate else checks.load_golden())
        bench.pkg = import_tsnsim()
        table = bench.check_golden(shipped_labels(), workloads.WORKLOADS,
                                   regenerate=regenerate)
    except SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        remove_work_dir(work)
    if regenerate and bench.failed == 0:
        checks.GOLDEN_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
        print(f"wrote {checks.GOLDEN_PATH}")
    print(f"failed_ratio {bench.failed / bench.attempted:.6g} "
          f"({bench.failed} of {bench.attempted} runs)")
    return 0 if bench.failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=workloads.WORKLOADS)
    mode.add_argument("--check", action="store_true",
                      help="compare `tsnsim run` digests with bench/golden.json")
    mode.add_argument("--regenerate", action="store_true",
                      help="rewrite bench/golden.json from this checkout")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload:
        return run_workload(args)
    return run_golden(args.regenerate)


if __name__ == "__main__":
    sys.exit(main())
