"""Per-layer tracing installed from outside the program.

Tracer.install() wraps every public function and method defined in the
tsnsim layer modules. A function that other modules import by name
(egress imports transmission_time, harness imports rng_fork, the package
re-exports almost everything) is replaced in every namespace that binds
it, so calls are seen wherever they are made. uninstall() puts every
original back. Nothing under src/ is modified.

Each wrapped call records its count, its inclusive time and its self
time: the inclusive time minus the time of wrapped calls made inside it,
where a wrapped call's time includes its wrapper's own bookkeeping.
"""

from __future__ import annotations

import inspect
import sys
import time
import types
from collections import Counter

LAYERS = ("core", "traffic", "egress", "ingress", "frer", "network",
          "harness", "scenario")

_clock = time.perf_counter_ns

#: calls whose arguments or results feed a metric, see Tracer._hook
_HOOKED = frozenset({"core.JitterDist.sample", "core.Engine.schedule",
                     "ingress.StreamGate.process", "frer.RecoveryState.recover",
                     "harness.export_records", "harness.load_records"})


def _tsnsim_namespaces() -> list[types.ModuleType]:
    return [m for name, m in sorted(sys.modules.items())
            if name == "tsnsim" or name.startswith("tsnsim.")]


def _public_definitions(module):
    """(key, owner, attribute, original) for every public callable defined in module."""
    layer = module.__name__.rpartition(".")[2]
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{layer}.{name}", None, name, obj
        elif inspect.isclass(obj) and not issubclass(obj, BaseException):
            for attr, raw in vars(obj).items():
                if attr.startswith("_"):
                    continue
                if isinstance(raw, (types.FunctionType, classmethod, staticmethod)):
                    yield f"{layer}.{name}.{attr}", obj, attr, raw


class Tracer:
    """Counts and self time of every wrapped call while installed."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.total_ns: Counter = Counter()
        #: tallies kept by _hook (outcomes, rows), plus "engine_events",
        #: which the runner adds from Engine.executed
        self.extra: Counter = Counter()
        self._stack: list[list] = []  # [key, child_ns] of open calls
        self._patches: list[tuple] = []  # (owner, attribute, original)

    def _hook(self, key: str, args, result) -> str:
        if key == "core.JitterDist.sample":
            return f"{key}.{args[0].kind}"
        if key == "core.Engine.schedule":
            if not any(k == "core.Engine.run_all" for k, _ in self._stack):
                self.extra["prescheduled"] += 1
        elif key == "ingress.StreamGate.process":
            self.extra["gate_pass"] += result.outcome == "pass"
        elif key == "frer.RecoveryState.recover":
            self.extra["frer_accept"] += result == "accept"
        elif key == "harness.export_records":
            self.extra["export_rows"] += len(args[0])
        elif key == "harness.load_records":
            self.extra["load_rows"] += len(result)
        return key

    def _wrap(self, key: str, fn):
        stack = self._stack
        hooked = key in _HOOKED
        calls, self_ns, total_ns = self.calls, self.self_ns, self.total_ns

        def wrapper(*args, **kwargs):
            entered = _clock()
            frame = [key, 0]
            stack.append(frame)
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = _clock() - t0
                stack.pop()
            name = self._hook(key, args, result) if hooked else key
            calls[name] += 1
            total_ns[name] += dt
            self_ns[name] += dt - frame[1]
            if stack:
                # charge the caller for this whole wrapper, bookkeeping
                # included, so its self time holds only its own code
                stack[-1][1] += _clock() - entered
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.bench_traced = True
        return wrapper

    def _patch(self, owner, attribute, value):
        self._patches.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, value)

    def install(self, package) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        namespaces = _tsnsim_namespaces()
        for layer in LAYERS:
            module = getattr(package, layer)
            for key, cls, attribute, raw in _public_definitions(module):
                if cls is not None:
                    if isinstance(raw, (classmethod, staticmethod)):
                        wrapped = type(raw)(self._wrap(key, raw.__func__))
                    else:
                        wrapped = self._wrap(key, raw)
                    self._patch(cls, attribute, wrapped)
                    continue
                wrapped = self._wrap(key, raw)
                for ns in namespaces:
                    for name, value in list(vars(ns).items()):
                        if value is raw:
                            self._patch(ns, name, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def absorb(self, other: "Tracer") -> None:
        """Add another tracer's tallies to this one."""
        for mine, theirs in ((self.calls, other.calls), (self.self_ns, other.self_ns),
                             (self.total_ns, other.total_ns), (self.extra, other.extra)):
            mine.update(theirs)


def leftover_wrappers() -> list[str]:
    """Names in any tsnsim namespace or class that still hold a wrapper."""
    found = []
    for ns in _tsnsim_namespaces():
        for name, value in vars(ns).items():
            if getattr(value, "bench_traced", False):
                found.append(f"{ns.__name__}.{name}")
            if inspect.isclass(value) and value.__module__ == ns.__name__:
                for attr, raw in vars(value).items():
                    fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                    if getattr(fn, "bench_traced", False):
                        found.append(f"{ns.__name__}.{name}.{attr}")
    return found


def _per(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(counts: "Tracer", times: "Tracer", packets: int) -> dict:
    """Per-layer metrics: counts from one pass, times from every traced sample.

    `*_ns` metrics are self time per call (per event or row where named),
    `*_s` metrics are inclusive time per call.
    """
    c, x = counts.calls, counts.extra
    tc, self_ns, total_ns = times.calls, times.self_ns, times.total_ns

    def self_per_call(*keys):
        return _per(sum(self_ns[k] for k in keys), sum(tc[k] for k in keys))

    def seconds_per_call(key):
        return _per(total_ns[key], tc[key]) / 1e9

    gcl = ("egress.GateControlList.state", "egress.GateControlList.time_until_close",
           "egress.GateControlList.max_open_run")
    kinds = ("constant", "uniform", "normal", "empirical")
    m = {
        "core.engine.events": (x["engine_events"], "count"),
        "core.engine.schedule_calls": (c["core.Engine.schedule"], "count"),
        "core.engine.prescheduled": (x["prescheduled"], "count"),
        "core.engine.self_ns_per_event": (
            _per(self_ns["core.Engine.run_all"], times.extra["engine_events"]),
            "ns/event"),
        "core.engine.schedule_ns": (self_per_call("core.Engine.schedule"), "ns"),
    }
    for kind in kinds:
        m[f"core.jitter.sample_ns.{kind}"] = (
            self_per_call(f"core.JitterDist.sample.{kind}"), "ns")
    m.update({
        "core.jitter.sample_calls": (
            sum(c[f"core.JitterDist.sample.{k}"] for k in kinds), "count"),
        "core.clock.read_ns": (self_per_call("core.ClockModel.read"), "ns"),
        "core.clock.read_calls": (c["core.ClockModel.read"], "count"),
        "core.clock.when_reading_ns": (self_per_call("core.ClockModel.when_reading"), "ns"),
        "core.clock.when_reading_calls": (c["core.ClockModel.when_reading"], "count"),
        "core.rng_fork_calls": (c["core.rng_fork"], "count"),
        "traffic.transmission_time_calls": (c["traffic.transmission_time"], "count"),
        "traffic.identify_ns": (self_per_call("traffic.StreamRuleSet.identify"), "ns"),
        "traffic.clone_calls": (c["traffic.Frame.clone"], "count"),
        "egress.port.submit_ns": (self_per_call("egress.EgressPort.submit"), "ns"),
        "egress.taprio.select_ns": (self_per_call("egress.TaprioPort.select"), "ns"),
        "egress.taprio.select_calls_per_packet": (
            _per(c["egress.TaprioPort.select"], packets), "calls/packet"),
        "egress.gcl.lookup_calls": (sum(c[k] for k in gcl), "count"),
        "egress.gcl.max_open_run_calls": (c["egress.GateControlList.max_open_run"], "count"),
        "egress.gcl.lookup_ns": (self_per_call(*gcl), "ns"),
        "egress.etf.enqueue_ns": (self_per_call("egress.EtfQueue.enqueue"), "ns"),
        "egress.etf.pop_ns": (self_per_call("egress.EtfQueue.pop"), "ns"),
        "ingress.gate.process_ns": (self_per_call("ingress.StreamGate.process"), "ns"),
        "ingress.gate.process_calls": (c["ingress.StreamGate.process"], "count"),
        "ingress.gate.pass_ratio": (
            _per(x["gate_pass"], c["ingress.StreamGate.process"]), "ratio"),
        "network.bridge.receive_ns": (self_per_call("network.BridgeNode.receive"), "ns"),
        "network.bridge.receive_calls": (c["network.BridgeNode.receive"], "count"),
        "frer.recover_ns": (self_per_call("frer.RecoveryState.recover"), "ns"),
        "frer.recover_calls": (c["frer.RecoveryState.recover"], "count"),
        "frer.accept_ratio": (
            _per(x["frer_accept"], c["frer.RecoveryState.recover"]), "ratio"),
        "frer.replicate_ns": (self_per_call("frer.replicate"), "ns"),
        "harness.run_scenario_s": (seconds_per_call("harness.run_scenario"), "s"),
        "harness.stats_payload_s": (seconds_per_call("harness.stats_payload"), "s"),
        "harness.export_ns_per_row": (
            _per(self_ns["harness.export_records"], times.extra["export_rows"]), "ns/row"),
        "harness.load_ns_per_row": (
            _per(self_ns["harness.load_records"], times.extra["load_rows"]), "ns/row"),
        "scenario.parse_s": (seconds_per_call("scenario.parse_scenario"), "s"),
    })
    return m
