"""The slotted records built on core.Record: equality, hashing, copies and mutability."""

import copy
import random
from pathlib import Path

import pytest

import tsnsim
from tsnsim.core import ClockModel, JitterDist, Record
from tsnsim.harness import PacketRecord, run_scenario
from tsnsim.ingress import StreamGateEntry
from tsnsim.network import CqfConfig
from tsnsim.scenario import RunCfg, load_scenario
from tsnsim.traffic import Frame

SCENARIOS = Path(tsnsim.__file__).parent / "scenarios"
FROZEN = (JitterDist.uniform(-3, 9), StreamGateEntry(open=True, duration_ns=10, ipv=2),
          CqfConfig(cycle_time_ns=500, ipv_even=2, ipv_odd=3))
MUTABLE = (ClockModel(offset_ns=5, drift_ppm=2), RunCfg(seed=4), Frame(1, 64, 3),
           PacketRecord(7, 700, sw_tx=701))


def test_jitter_dist_equal_and_hashed_by_value():
    a, b = JitterDist.empirical([(5, 1), (9, 3)]), JitterDist.empirical([(5, 1), (9, 3)])
    assert a == b and a is not b and hash(a) == hash(b)
    assert len({a, b, JitterDist.constant(5)}) == 2
    assert a != JitterDist.empirical([(5, 1), (9, 2)])


@pytest.mark.parametrize("record", FROZEN, ids=lambda r: type(r).__name__)
def test_frozen_records_are_read_only_and_hashable(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert hash(record) == hash(copy.copy(record))
    # a copy is made by the constructor, so derived state is rebuilt too
    clone = copy.deepcopy(record)
    assert clone == record and clone is not record and type(clone) is type(record)


def test_jitter_dist_copy_samples_alike():
    dist = JitterDist.uniform(-3, 9)
    clone = copy.deepcopy(dist)
    assert ([clone.sample(random.Random(1)) for _ in range(20)]
            == [dist.sample(random.Random(1)) for _ in range(20)])


@pytest.mark.parametrize("record", FROZEN + MUTABLE, ids=lambda r: type(r).__name__)
def test_records_differ_from_a_tuple_of_their_fields(record):
    values = tuple(record)
    assert len(values) == len(record._fields) > 0
    assert record != values and values != record
    assert record == copy.copy(record)
    assert repr(record) == (f"{type(record).__name__}("
                            + ", ".join(f"{n}={getattr(record, n)!r}" for n in record._fields)
                            + ")")


def test_records_of_other_types_are_unequal():
    # the same field values under another type are a different record
    class Other(Record):
        __slots__ = _fields = ("seq", "intended_tx", "sw_tx", "hw_tx", "hw_rx", "sw_rx")

        def __init__(self, *values):
            self._set(*values)

    record = PacketRecord(1, 2, 3, 4, 5, 6)
    assert tuple(Other(*record)) == tuple(record) and Other(*record) != record


@pytest.mark.parametrize("record", MUTABLE, ids=lambda r: type(r).__name__)
def test_mutable_records_are_unhashable(record):
    with pytest.raises(TypeError):
        hash(record)


def test_frames_and_records_mutable_by_value_without_dict():
    frame, record = Frame(1, 64, 3), PacketRecord(7, 700)
    for obj, name, value in ((frame, "ipv", 5), (record, "hw_rx", 9)):
        twin = copy.copy(obj)
        assert twin == obj and twin is not obj
        setattr(obj, name, value)
        assert getattr(obj, name) == value and twin != obj
        setattr(twin, name, value)
        assert twin == obj
        assert not hasattr(obj, "__dict__")
        with pytest.raises(AttributeError):
            obj.colour = "red"
    assert frame.traffic_class == 3 and Frame(1, 64, 3, traffic_class=0).traffic_class == 0


def test_run_cfg_and_clock_are_mutable():
    run = RunCfg()
    run.count = 12
    assert run == RunCfg(count=12) and run != RunCfg()
    clock = ClockModel(offset_ns=5)
    clock.offset_ns = 6
    assert clock == ClockModel(offset_ns=6)


def test_deepcopy_of_a_run_result_gives_equal_records():
    result = run_scenario(load_scenario(SCENARIOS / "paper_fig1.json"), seed=3)
    clone = copy.deepcopy(result)
    assert clone.records == result.records and len(clone.records) > 0
    assert list(clone.records) == list(result.records)
    assert clone == result
