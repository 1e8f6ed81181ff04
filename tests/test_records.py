"""The value records built on core.Record: equality, hashing, construction,
copies and mutability, for every Record subclass in tsnsim; and every
accepted scenario parsed into plain values only."""

import copy
import json
import pickle
import random
from fractions import Fraction
from pathlib import Path

import pytest

import tsnsim
from tsnsim.core import ClockModel, CyclicSchedule, JitterDist, Record
from tsnsim.egress import GclEntry, PreemptionConfig
from tsnsim.harness import PacketRecord, Records, RunResult, run_scenario
from tsnsim.ingress import PsfpDecision, StreamGateEntry
from tsnsim.network import CqfConfig
from tsnsim.scenario import (ConfigError, EtfCfg, FilterCfg, FrerCfg, Hop, LinkCfg, NodeCfg,
                             RunCfg, ScenarioConfig, TaprioCfg, TrafficCfg, load_scenario,
                             parse_scenario)
from tsnsim.traffic import Frame, StreamKey, StreamRule

from test_call_budget import gated_psfp_chain
from test_generated_corpus import SEEDS, generate
from test_validation_corpus import _cases

SCENARIOS = Path(tsnsim.__file__).parent / "scenarios"
#: read-only records whose fields all hash
FROZEN = (JitterDist.uniform(-3, 9), StreamGateEntry(open=True, duration_ns=10, ipv=2),
          CqfConfig(cycle_time_ns=500, ipv_even=2, ipv_odd=3), GclEntry(0x21, 700),
          PreemptionConfig(enabled=True, express_classes=frozenset({5})),
          PsfpDecision("pass"), StreamRule(1, None, 2, "s0"),
          NodeCfg("sw0", "bridge", forwarding=JitterDist.constant(5)),
          LinkCfg("a", "b", 10 ** 9, propagation_ns=50), TaprioCfg(guard_mode="none"),
          EtfCfg(offload=False, delta_ns=50_000), FrerCfg(enabled=True, paths=3),
          TrafficCfg(count=7, stream=StreamKey(1, 100, 2)),
          CyclicSchedule(5, 30, [GclEntry(0x01, 10), GclEntry(0x03, 20)]),
          FilterCfg((StreamRule(vlan_id=7, handle="s0"),),
                    (("s0", CyclicSchedule(0, 10, [StreamGateEntry(True, 10)])),)),
          Hop(NodeCfg("talker", "talker"), LinkCfg("talker", "sw0", 10 ** 9)))
#: read-only records with a field that does not hash: a dict or a list
UNHASHABLE = (RunResult(Records(), {"path_loss": 1}, {"seed": 1}),
              parse_scenario(gated_psfp_chain(5)))
MUTABLE = (ClockModel(offset_ns=5, drift_ppm=2), RunCfg(seed=4), Frame(1, 64, 3),
           PacketRecord(7, 700, sw_tx=701))
RECORDS = FROZEN + UNHASHABLE + MUTABLE
#: the records whose fields come from their class annotations
DECLARED = [r for r in RECORDS if vars(type(r)).get("__annotations__")]


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_record_type_is_covered():
    made_here = {cls for cls in _subclasses(Record) if cls.__module__.startswith("tsnsim.")}
    assert made_here == {type(r) for r in RECORDS}
    assert len(made_here) == len(RECORDS) == 22 and len(DECLARED) == 16


def test_jitter_dist_equal_and_hashed_by_value():
    a, b = JitterDist.empirical([(5, 1), (9, 3)]), JitterDist.empirical([(5, 1), (9, 3)])
    assert a == b and a is not b and hash(a) == hash(b)
    assert len({a, b, JitterDist.constant(5)}) == 2
    assert a != JitterDist.empirical([(5, 1), (9, 2)])


def _assert_read_only(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)


@pytest.mark.parametrize("record", FROZEN, ids=lambda r: type(r).__name__)
def test_frozen_records_are_read_only_and_hashable(record):
    _assert_read_only(record)
    assert hash(record) == hash(copy.copy(record))
    assert len({record, copy.copy(record)}) == 1
    # a copy is made by the constructor, so derived state is rebuilt too
    clone = copy.deepcopy(record)
    assert clone == record and clone is not record and type(clone) is type(record)
    assert hash(clone) == hash(record)


@pytest.mark.parametrize("record", UNHASHABLE, ids=lambda r: type(r).__name__)
def test_records_with_an_unhashable_field_are_read_only(record):
    _assert_read_only(record)
    assert type(copy.copy(record)) is type(record)
    with pytest.raises(TypeError):
        hash(record)


def test_jitter_dist_copy_samples_alike():
    dist = JitterDist.uniform(-3, 9)
    clone = copy.deepcopy(dist)
    assert ([clone.sample(random.Random(1)) for _ in range(20)]
            == [dist.sample(random.Random(1)) for _ in range(20)])


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
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
    for record in RECORDS:
        other = type("Other", (Record,), {"__annotations__": dict.fromkeys(record._fields)})
        twin = other(*record)
        assert tuple(twin) == tuple(record) and twin != record and record != twin
        assert record != list(record) and record != dict(zip(record._fields, record))


@pytest.mark.parametrize("record", DECLARED, ids=lambda r: type(r).__name__)
def test_declared_records_build_by_keyword_and_position(record):
    cls = type(record)
    assert cls(**dict(zip(cls._fields, record))) == record == cls(*record)
    # a field left out takes its default, the class value of its annotation
    required = {f: v for f, v in zip(cls._fields, record) if f not in cls._defaults}
    bare = cls(**required)
    assert {f: getattr(bare, f) for f in cls._defaults} == cls._defaults
    assert all(getattr(cls, f) is v for f, v in cls._defaults.items())
    for missing in required:
        with pytest.raises(TypeError):
            cls(**{f: v for f, v in required.items() if f != missing})
    with pytest.raises(TypeError):
        cls(**required, colour="red")
    with pytest.raises(TypeError):
        cls(*record, None)
    with pytest.raises(TypeError):
        cls(*record, **{cls._fields[0]: record._fields[0]})


def test_records_lost_the_tuple_interface():
    traffic = TrafficCfg(count=7)
    assert traffic.count == 7
    for name in ("_replace", "_asdict", "index", "__len__", "__getitem__"):
        assert not hasattr(traffic, name), name
    with pytest.raises(TypeError):
        traffic[0]
    with pytest.raises(TypeError):
        len(traffic)
    # iteration yields the fields, so unpacking still works
    period, count, *_ = traffic
    assert (period, count) == (500_000, 7)


def test_config_defaults_are_shared_and_read_only():
    # each default is built once, at class creation, and read-only
    assert TaprioCfg().preemption is TaprioCfg().preemption
    assert NodeCfg("a", "talker").forwarding is NodeCfg("b", "bridge").rx_latency
    with pytest.raises(AttributeError):
        TaprioCfg().preemption.enabled = True


def test_stream_key_is_a_tuple_with_named_fields():
    key = StreamKey(dest_mac=5, vlan_id=100, pcp=2)
    assert type(key) is StreamKey and isinstance(key, tuple)
    assert key == (5, 100, 2) and hash(key) == hash((5, 100, 2)) and key < (5, 100, 3)
    assert (key.dest_mac, key.vlan_id, key.pcp) == tuple(key)
    assert repr(key) == "StreamKey(dest_mac=5, vlan_id=100, pcp=2)"
    for clone in (copy.copy(key), copy.deepcopy(key)):
        assert clone == key and type(clone) is StreamKey
    assert not hasattr(key, "__dict__")
    with pytest.raises(TypeError):
        StreamKey(5, 100)


def test_deepcopy_of_a_parsed_scenario_runs_alike():
    cfg = parse_scenario(gated_psfp_chain(30))
    clone = copy.deepcopy(cfg)
    assert type(clone) is ScenarioConfig and clone is not cfg
    for name in ("path", "listener", "clocks", "frer", "traffic", "run"):
        assert getattr(clone, name) == getattr(cfg, name), name
    assert clone.traffic.stream == (1, 100, 0) and type(clone.traffic.stream) is StreamKey
    assert clone.path[1].shaper.gcl is not cfg.path[1].shaper.gcl
    first, second = run_scenario(cfg), run_scenario(clone)
    assert first == second and len(first.records) == 30


def _accepted_configs():
    """(document, config) of each shipped scenario, generated seed and
    validation-corpus case that parse_scenario accepts."""
    docs = [*(json.loads(p.read_text()) for p in sorted(SCENARIOS.glob("*.json"))),
            *map(generate, SEEDS), *(doc for _, doc in _cases())]
    for doc in docs:
        try:
            yield doc, parse_scenario(doc)
        except ConfigError:
            pass


@pytest.fixture(scope="module")
def accepted():
    configs = list(_accepted_configs())
    assert len(configs) > 600
    return configs


def test_a_parsed_scenario_equals_its_reparse_copy_and_pickle(accepted):
    for doc, cfg in accepted:
        assert parse_scenario(doc) == cfg
        assert copy.deepcopy(cfg) == cfg
        assert pickle.loads(pickle.dumps(cfg)) == cfg
        hash(cfg.path)


#: the types of the plain values a config may hold besides records
PLAIN = (int, float, str, bool, type(None), Fraction)


def test_a_parsed_scenario_holds_no_run_state(accepted):
    # every object reachable from a config's fields is a record, a plain value,
    # a tuple or frozenset of them, or one of the clocks dicts
    for _, cfg in accepted:
        clocks = [cfg.clocks, *cfg.clocks.values()]
        todo = [cfg]
        while todo:
            obj = todo.pop()
            if isinstance(obj, Record) or type(obj) in (StreamKey, tuple, frozenset):
                todo.extend(obj)
            elif any(obj is d for d in clocks):
                todo.extend(obj.values())
            else:
                assert type(obj) in PLAIN, type(obj).__name__


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
    assert frame.priority == 3 and Frame(1, 64, 3).egress_class == 3  # the priority is the class


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
