"""Deterministic discrete-event simulator of TSN data paths."""

from .core import ClockModel, CyclicSchedule, Engine, JitterDist, PastTimeError, SimTime, rng_fork
from .traffic import Frame, StreamKey, transmission_time
from .egress import EgressPort, EtfQueue, GclEntry, PreemptionConfig, TaprioPort, WireTimes
from .ingress import PsfpDecision, StreamGate, StreamGateEntry
from .frer import RecoveryState, Replicator
from .network import (BridgeNode, CqfConfig, cqf_compose, cqf_latency_bound)
from .harness import (PacketRecord, Records, RunResult, compute_offsets, export_records,
                      load_records, report, run_scenario, stats)
from .scenario import ConfigError, ScenarioConfig, load_scenario, parse_scenario

__version__ = "0.1.0"
