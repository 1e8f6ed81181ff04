"""Store-and-forward bridges, and the cyclic queuing/forwarding composer."""

from __future__ import annotations

from collections import Counter
from typing import Optional

from .core import CONSTANT_ZERO, CyclicSchedule, Engine, JitterDist, Record, SimTime
from .egress import EgressPort, GclEntry
from .ingress import DROP_NO_STREAM, PASS, StreamGateEntry
from .traffic import Frame, StreamRuleSet


class ZeroHopsError(Exception):
    pass


# Default software-switching latency models. These are editable presets
# calibrated only to a qualitative ordering (XDP fastest by median,
# AF_XDP and the plain bridge sharing the worst-case tail), not to any
# measured distribution.
FORWARDING_PRESETS = {
    "zero": CONSTANT_ZERO,
    "xdp": JitterDist.empirical([(1500, 70), (2500, 20), (4000, 9), (8000, 1)]),
    "af_xdp": JitterDist.empirical([(2000, 60), (2600, 25), (5000, 10), (12000, 5)]),
    "linux_bridge": JitterDist.empirical([(3000, 55), (5000, 25), (8000, 15),
                                          (12000, 5)]),
}


class BridgeNode:
    """Store-and-forward bridge: ingress PSFP, forwarding delay, one egress port.

    receive(frame, t) is keyed to end-of-frame reception at t, the instant
    the PSFP decision uses. It clears the frame's IPV first: an IPV applies
    only inside the bridge that assigns it (802.1Qci). gates maps stream
    handles to StreamGates; without stream rules every frame has handle None,
    so a gate stored under None (as for CQF) applies to all frames. A frame
    that passes goes to the egress port in arrival order, as one NAPI poll
    forwards an RX queue: egress.submit(frame) runs at fire_k = max(t_k + d_k,
    fire_{k-1}), d_k its forwarding latency.
    """

    def __init__(self, engine: Engine, name: str, egress: EgressPort, *,
                 stream_rules: Optional[StreamRuleSet] = None,
                 gates: Optional[dict] = None,
                 forwarding_latency: JitterDist = CONSTANT_ZERO,
                 rng=None):
        self.engine = engine
        self.name = name
        self.egress = egress
        self._submit = egress.submit
        self.stream_rules = stream_rules
        self.gates = gates or {}
        self.forwarding_latency = forwarding_latency
        self.rng = rng
        self.drops: Counter = Counter()
        self._last = 0  # the last hand-over to the egress port

    def receive(self, frame: Frame, t: SimTime):
        frame.ipv = None
        handle = None
        if self.stream_rules is not None:
            handle = self.stream_rules.identify(frame.stream)
            if handle is None:
                self.drops[DROP_NO_STREAM] += 1
                return
        gate = self.gates.get(handle)
        outcome = PASS if gate is None else gate.process(frame, t).outcome
        if outcome != PASS:
            self.drops[outcome] += 1
            return
        fire = t + self.forwarding_latency.sample(self.rng)
        fire = self._last = fire if fire > self._last else self._last
        self.engine.schedule(fire, self._submit, frame)


class CqfConfig(Record, frozen=True):
    """Cyclic queuing and forwarding, a scenario's cqf section: the cycle, and
    the IPVs that collect frames in even and odd cycles; cqf_compose turns it
    into schedules."""

    enabled: bool = False
    cycle_time_ns: int = 500_000
    ipv_even: int = 2
    ipv_odd: int = 3
    base_time: SimTime = 0


def cqf_compose(cfg: CqfConfig) -> tuple[CyclicSchedule, CyclicSchedule]:
    """Derive the coordinated ingress gate windows and egress GCL of a bridge.

    The ingress gate is always open but tags frames with alternating IPVs
    per cycle; the egress schedule keeps the collecting IPV's gate closed
    during its cycle and drains it in the next one. Best-effort classes
    stay open throughout. Raises ValueError when the two IPVs are equal,
    and ScheduleError when the cycle is not positive.
    """
    if cfg.ipv_even == cfg.ipv_odd:
        raise ValueError("ipv_even and ipv_odd must differ")
    c = cfg.cycle_time_ns
    ingress = CyclicSchedule(cfg.base_time, 2 * c, [
        StreamGateEntry(open=True, duration_ns=c, ipv=cfg.ipv_even),
        StreamGateEntry(open=True, duration_ns=c, ipv=cfg.ipv_odd),
    ])
    egress = CyclicSchedule(cfg.base_time, 2 * c, [
        GclEntry(gate_mask=0xFF & ~(1 << cfg.ipv_even), duration_ns=c),
        GclEntry(gate_mask=0xFF & ~(1 << cfg.ipv_odd), duration_ns=c),
    ])
    return ingress, egress


def cqf_latency_bound(hops: int, cycle_time_ns: int) -> int:
    """Worst-case end-to-end delay of a CQF path with the given hop count."""
    if hops < 1:
        raise ZeroHopsError(f"hops={hops}")
    return (hops + 1) * cycle_time_ns
