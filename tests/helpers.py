"""Lookups and drivers that only tests use.

The simulator reads its compiled gate tables inline and runs each scenario
to the end with Engine.run_all; these give tests a schedule's state at any
instant, read from the tables a TaprioPort compiles from a GCL, an engine
run up to a time, and a stream rule set from config entries.
"""

import math
from bisect import bisect_right
from functools import lru_cache
from heapq import heappop

from tsnsim.core import ScheduleError
from tsnsim.egress import TaprioPort
from tsnsim.traffic import StreamRule, StreamRuleSet


class BeforeBaseTimeError(ScheduleError):
    pass


def locate(schedule, t: int) -> tuple[int, int]:
    """(entry index, phase within the cycle) of a CyclicSchedule at time t."""
    if t < schedule.base_time:
        raise BeforeBaseTimeError(f"t={t} < base_time={schedule.base_time}")
    phase = (t - schedule.base_time) % schedule.cycle_time_ns
    return bisect_right(schedule._starts, phase) - 1, phase


@lru_cache(maxsize=64)
def compiled(gcl) -> TaprioPort:
    """A guard-fit TaprioPort of the GCL, whose tables the lookups below read."""
    return TaprioPort(gcl=gcl)


def gcl_state(gcl, t: int) -> tuple[int, int]:
    """(open mask, time until the next entry boundary) of a GCL at time t."""
    i, phase = locate(gcl, t)
    return compiled(gcl)._entries[i][0], gcl._ends[i] - phase


def time_until_close(gcl, tc: int, t: int):
    """Time until class tc's gate closes, or None if it never does; only
    meaningful when the gate is open at t."""
    i, phase = locate(gcl, t)
    after = compiled(gcl)._entries[i][2][tc]
    return None if after == math.inf else gcl._ends[i] - phase + after


def max_open_run(gcl, tc: int):
    """Longest contiguous open stretch of class tc (None = always open): the
    oversize limit of a guard-fit TaprioPort."""
    run = compiled(gcl)._limits[tc]
    return None if run == math.inf else run


def run_until(engine, t_end: int) -> int:
    """Run every event due by t_end, then set the engine's time to t_end;
    return the number of events run."""
    count = 0
    heap = engine._heap
    while heap and heap[0][0] <= t_end:
        engine.now, _, action, args = heappop(heap)
        action(*args)
        count += 1
    engine.now = t_end
    engine.executed += count
    return count


def make_stream_rules(config: list[dict]) -> StreamRuleSet:
    """A rule set from config entries of {dest_mac?, vlan_id?, pcp?, handle}."""
    return StreamRuleSet([StreamRule(**entry) for entry in config])
