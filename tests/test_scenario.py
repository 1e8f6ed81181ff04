"""Scenario schema validation: strict keys, dotted-path diagnostics."""

import copy
import inspect
import json
from pathlib import Path

import pytest

import tsnsim
from tsnsim import scenario
from tsnsim.core import ClockModel, CyclicSchedule, JitterDist
from tsnsim.egress import GclEntry, PreemptionConfig
from tsnsim.ingress import StreamGateEntry
from tsnsim.network import CqfConfig, cqf_compose
from tsnsim.scenario import (NO_FILTER, NO_SHAPER, ConfigError, EtfCfg, FilterCfg, FrerCfg,
                             LinkCfg, NodeCfg, RunCfg, TaprioCfg, TrafficCfg, load_scenario,
                             parse_scenario)
from tsnsim.traffic import StreamKey, StreamRule, StreamRuleSet

from helpers import gcl_state

SCENARIOS = Path(tsnsim.__file__).parent / "scenarios"

MINIMAL = {
    "nodes": [{"name": "talker", "role": "talker"},
              {"name": "listener", "role": "listener"}],
    "links": [{"from": "talker", "to": "listener", "rate_bps": 10 ** 9}],
    "traffic": {"period_ns": 500_000, "count": 100},
    "run": {"seed": 1},
}


def variant(**overrides):
    """MINIMAL with overrides, both copied: editing the result never edits them."""
    doc = copy.deepcopy(MINIMAL)
    doc.update(copy.deepcopy(overrides))
    return doc


def bridged(**overrides):
    """MINIMAL with a bridge sw0 between the talker and the listener."""
    return variant(nodes=MINIMAL["nodes"] + [{"name": "sw0", "role": "bridge"}],
                   links=[{"from": a, "to": b, "rate_bps": 10 ** 9}
                          for a, b in (("talker", "sw0"), ("sw0", "listener"))],
                   **overrides)


CQF = {"enabled": True, "cycle_time_ns": 100_000}
CLOSED_GCL = {"cycle_time_ns": 500_000,
              "entries": [{"gate_mask": 0, "duration_ns": 500_000}]}
CLOSED_GATE = {"cycle_time_ns": 500_000,
               "entries": [{"open": False, "duration_ns": 500_000}]}
INF, NAN = float("inf"), float("nan")
TXTIME = dict(MINIMAL["traffic"], mode="txtime")


def problems_of(doc):
    with pytest.raises(ConfigError) as err:
        parse_scenario(doc)
    return err.value.problems


class TestValidDocuments:
    def test_minimal_accepted(self):
        cfg = parse_scenario(MINIMAL)
        assert [hop.node.name for hop in cfg.path] == ["talker"]
        assert cfg.path[0].link.dst == cfg.listener.name == "listener"
        assert cfg.traffic.count == 100

    @pytest.mark.parametrize("name", ["direct_zero.json", "paper_fig1.json",
                                      "paper_fig2.json", "bridge_xdp.json"])
    def test_shipped_scenarios_valid(self, name):
        cfg = load_scenario(SCENARIOS / name)
        assert cfg.run.seed >= 0

    def test_defaults_filled(self):
        cfg = parse_scenario(MINIMAL)
        assert cfg.run.histogram_bin_ns == 100
        assert cfg.traffic.mode == "sleep"
        # CQF is off: a bridge gets no stream gate and no GCL
        plain = parse_scenario(bridged())
        assert not cfg.frer.enabled
        assert [(hop.shaper, hop.filter) for hop in plain.path] == [(NO_SHAPER, NO_FILTER)] * 2

    def test_builders_copy_what_they_are_given(self):
        # bridged() passes MINIMAL's own node dicts to variant(), which copies them
        before = copy.deepcopy(MINIMAL)
        doc = bridged()
        doc["nodes"][1]["rx_latency"] = {"kind": "constant", "value_ns": 7}
        doc["nodes"][0]["name"] = "renamed"
        assert MINIMAL == before


class TestRejections:
    def test_unknown_top_level_section(self):
        assert any(p.startswith("frobnicate:")
                   for p in problems_of(variant(frobnicate={})))

    def test_unknown_nested_key_has_dotted_path(self):
        doc = variant(traffic={"period_ns": 500_000, "cadence": 3})
        assert any(p.startswith("traffic.cadence:") for p in problems_of(doc))

    def test_missing_traffic_section(self):
        doc = copy.deepcopy(MINIMAL)
        del doc["traffic"]
        assert any(p.startswith("traffic:") for p in problems_of(doc))

    def test_missing_run_section(self):
        doc = copy.deepcopy(MINIMAL)
        del doc["run"]
        assert any(p.startswith("run:") for p in problems_of(doc))

    def test_link_to_unknown_node(self):
        doc = variant(links=[{"from": "talker", "to": "ghost",
                              "rate_bps": 10 ** 9}])
        assert any(p.startswith("links[0].to:") for p in problems_of(doc))

    def test_two_talkers_rejected(self):
        doc = variant(nodes=[{"name": "a", "role": "talker"},
                             {"name": "b", "role": "talker"},
                             {"name": "listener", "role": "listener"}],
                      links=[{"from": "a", "to": "listener",
                              "rate_bps": 10 ** 9}])
        assert any("exactly one" in p for p in problems_of(doc))

    def test_bad_distribution_kind(self):
        doc = variant(traffic={"period_ns": 500_000,
                               "wake_jitter": {"kind": "pareto"}})
        assert any(p.startswith("traffic.wake_jitter.kind:")
                   for p in problems_of(doc))

    def test_bad_gcl_mask_range(self):
        doc = variant(shapers={"talker": {"gcl": {
            "cycle_time_ns": 1000,
            "entries": [{"gate_mask": 256, "duration_ns": 1000}]}}})
        assert any("gate_mask" in p for p in problems_of(doc))

    def test_gcl_durations_must_sum_to_cycle(self):
        doc = variant(shapers={"talker": {"gcl": {
            "cycle_time_ns": 1000,
            "entries": [{"gate_mask": 1, "duration_ns": 400},
                        {"gate_mask": 2, "duration_ns": 500}]}}})
        assert problems_of(doc) == [
            "shapers.talker.gcl.entries: durations sum to 900, not cycle_time_ns 1000"]

    def test_stream_gate_durations_must_sum_to_cycle(self):
        doc = bridged(filters={"sw0": {"gates": {"s0": {
            "cycle_time_ns": 1000,
            "entries": [{"open": True, "duration_ns": 1500}]}}}})
        assert problems_of(doc) == [
            "filters.sw0.gates.s0.entries: durations sum to 1500, "
            "not cycle_time_ns 1000"]

    def test_bad_duration_is_not_also_reported_as_a_bad_sum(self):
        doc = variant(shapers={"talker": {"gcl": {
            "cycle_time_ns": 1000,
            "entries": [{"gate_mask": 1, "duration_ns": 0},
                        {"gate_mask": 2, "duration_ns": 1000}]}}})
        assert problems_of(doc) == [
            "shapers.talker.gcl.entries[0].duration_ns: must be >= 1, got 0"]

    def test_all_problems_reported_at_once(self):
        doc = variant(frobnicate={}, run={"seed": -1, "bogus": 1})
        probs = problems_of(doc)
        assert len(probs) >= 3

    def test_invalid_json_file(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError):
            load_scenario(p)

    def test_cqf_same_ipvs_rejected(self):
        doc = variant(cqf={"enabled": True, "ipv_even": 3, "ipv_odd": 3})
        assert any(p.startswith("cqf.ipv_odd:") for p in problems_of(doc))

    def test_frer_loss_out_of_range(self):
        doc = variant(frer={"enabled": True, "loss_per_path": 1.5})
        assert any(p.startswith("frer.loss_per_path:")
                   for p in problems_of(doc))

    @pytest.mark.parametrize("drift", [-1_000_000, float("nan"), -2_000_000])
    def test_drift_that_stops_or_reverses_the_clock_rejected(self, drift):
        doc = variant(clocks={"listener": {"phc": {"drift_ppm": drift}}})
        assert any(p.startswith("clocks.listener.phc.drift_ppm:")
                   for p in problems_of(doc))

    def test_clock_that_is_not_an_object_rejected(self):
        doc = variant(clocks={"talker": {"system": 5}})
        assert problems_of(doc) == ["clocks.talker.system: expected an object, got int"]

    @pytest.mark.parametrize("shaper,key", [
        ({"scheme": "etf", "gcl": {"cycle_time_ns": 1000, "entries": [
            {"gate_mask": 0, "duration_ns": 1000}]}}, "gcl"),
        ({"scheme": "etf", "guard_mode": "none"}, "guard_mode"),
        ({"scheme": "etf", "queue_capacity": 4}, "queue_capacity"),
        ({"scheme": "etf", "preemption": {"enabled": True}}, "preemption"),
        ({"scheme": "taprio", "etf": {"delta_ns": 0}}, "etf"),
        ({"etf": {"offload": False}}, "etf"),
    ])
    def test_other_schemes_shaper_key_rejected(self, shaper, key):
        doc = variant(shapers={"talker": shaper})
        other = "taprio" if key != "etf" else "etf"
        scheme = shaper.get("scheme", "taprio")
        assert problems_of(doc) == [
            f"shapers.talker.{key}: applies only to scheme {other}, not {scheme}"]

    def test_duplicate_filter_rules_rejected(self):
        rule = {"dest_mac": 1, "vlan_id": 100, "pcp": 3}
        doc = bridged(filters={"sw0": {"rules": [{**rule, "handle": "a"},
                                                 {**rule, "handle": "b"}]}})
        assert problems_of(doc) == [
            "filters.sw0.rules: duplicate pattern (1, 100, 3)"]

    @pytest.mark.parametrize("key,value", [
        ("dest_mac", "zz"), ("dest_mac", -1), ("dest_mac", 2 ** 48),
        ("vlan_id", 4096), ("vlan_id", 1.5), ("pcp", 8), ("pcp", True)])
    def test_bad_stream_key_field_rejected(self, key, value):
        doc = bridged(filters={"sw0": {"rules": [{key: value, "handle": "s0"}]}})
        assert [p.partition(":")[0] for p in problems_of(doc)] == [
            f"filters.sw0.rules[0].{key}"]
        stream = {"dest_mac": 1, "vlan_id": 1, "pcp": 0, key: value}
        doc = variant(traffic={"period_ns": 500_000, "stream": stream})
        assert [p.partition(":")[0] for p in problems_of(doc)] == [
            f"traffic.stream.{key}"]

    def test_filter_rules_built_once(self):
        doc = bridged(filters={"sw0": {"rules": [
            {"vlan_id": 100, "handle": "s0"}, {"dest_mac": None, "handle": "any"}]}})
        rules = parse_scenario(doc).path[1].filter.rules
        assert rules == (StreamRule(vlan_id=100, handle="s0"), StreamRule(handle="any"))
        rule_set = StreamRuleSet(rules)
        assert rule_set.identify(StreamKey(dest_mac=5, vlan_id=100, pcp=0)) == "s0"
        assert rule_set.identify(StreamKey(dest_mac=5, vlan_id=7, pcp=0)) == "any"
        assert parse_scenario(bridged(filters={"sw0": {}})).path[1].filter.rules == ()

    @pytest.mark.parametrize("links,stuck", [
        ([("listener", "talker")], "talker"),
        ([("talker", "b1"), ("b1", "b2"), ("b2", "b1"), ("listener", "talker")], "b2"),
    ], ids=["dead_end", "loop"])
    def test_links_without_forwarding_path_rejected(self, links, stuck):
        doc = variant(nodes=MINIMAL["nodes"] + [{"name": "b1", "role": "bridge"},
                                                {"name": "b2", "role": "bridge"}],
                      links=[{"from": a, "to": b, "rate_bps": 10 ** 9}
                             for a, b in links])
        assert problems_of(doc) == [
            f"links: no forwarding path from {stuck} to listener"]

    @pytest.mark.parametrize("section,path", [
        ({"shapers": {"listener": {}}}, "shapers.listener"),
        ({"filters": {"talker": {}}}, "filters.talker"),
        ({"filters": {"listener": {}}}, "filters.listener"),
    ])
    def test_config_on_a_node_that_cannot_use_it_rejected(self, section, path):
        assert [p.partition(":")[0] for p in problems_of(bridged(**section))] == [path]

    @pytest.mark.parametrize("node", ["talker", "sw0"])
    def test_etf_on_a_sleep_mode_path_rejected(self, node):
        shapers = {node: {"scheme": "etf"}}
        assert problems_of(bridged(shapers=shapers)) == [
            f"shapers.{node}.scheme: etf needs traffic.mode txtime: "
            "a sleep-mode talker sets no txtime"]
        parse_scenario(bridged(shapers=shapers, traffic=dict(MINIMAL["traffic"],
                                                             mode="txtime")))

    # each of these ran, and the config named at path had no effect
    @pytest.mark.parametrize("doc,path", [
        (bridged(cqf=CQF, filters={"sw0": {"rules": [{"vlan_id": 7, "handle": "s0"}]}}),
         "filters.sw0"),
        (bridged(cqf=CQF, shapers={"sw0": {"gcl": CLOSED_GCL}}), "shapers.sw0.gcl"),
        (bridged(cqf=CQF, traffic=TXTIME, shapers={"sw0": {"scheme": "etf"}}),
         "shapers.sw0.scheme"),
        (variant(cqf=CQF), "cqf.enabled"),
        (bridged(traffic=TXTIME), "traffic.mode"),
        (bridged(filters={"sw0": {"gates": {"s0": CLOSED_GATE}}}), "filters.sw0.gates.s0"),
        (bridged(filters={"sw0": {"rules": [{"vlan_id": 7, "handle": "s1"}],
                                  "gates": {"s0": CLOSED_GATE, "s1": CLOSED_GATE}}}),
         "filters.sw0.gates.s0"),
    ], ids=["cqf_filters", "cqf_gcl", "cqf_etf", "cqf_no_bridge", "txtime_no_etf",
            "gate_without_rules", "gate_no_rule_names"])
    def test_config_run_would_ignore_rejected(self, doc, path):
        assert [p.partition(":")[0] for p in problems_of(doc)] == [path]

    # a run builds only the path, so a link or node off it would have no effect
    @pytest.mark.parametrize("nodes,links,sections,off", [
        # every FRER member path went through a; b's slow links were never used
        (["a", "b"], [("talker", "a"), ("a", "listener"), ("talker", "b"), ("b", "listener")],
         {"frer": {"enabled": True, "paths": 2}}, ["links[2]", "links[3]", "nodes[3]"]),
        (["sw0", "sw9"], [("talker", "sw0"), ("sw0", "listener"), ("sw9", "listener")],
         {"shapers": {"sw9": {"gcl": CLOSED_GCL}}}, ["links[2]", "nodes[3]"]),
        (["sw0", "sw9"], [("talker", "sw0"), ("sw0", "listener"), ("sw9", "listener")],
         {"filters": {"sw9": {"rules": [{"vlan_id": 7, "handle": "s0"}]}}},
         ["links[2]", "nodes[3]"]),
        (["sw0"], [("talker", "sw0"), ("sw0", "listener"), ("listener", "talker")], {},
         ["links[2]"]),
        (["sw0"], [("talker", "sw0"), ("sw0", "listener"), ("talker", "listener")], {},
         ["links[2]"]),
        (["sw0", "sw9"], [("talker", "sw0"), ("sw0", "listener")],
         {"clocks": {"sw9": {"phc": {"drift_ppm": 5}}}}, ["nodes[3]"]),
    ], ids=["second_path", "off_path_shaper", "off_path_filters", "listener_to_talker",
            "second_link_out", "clocks_on_unlinked_node"])
    def test_links_and_nodes_off_the_path_rejected(self, nodes, links, sections, off):
        doc = variant(nodes=MINIMAL["nodes"] + [{"name": n, "role": "bridge"} for n in nodes],
                      links=[{"from": a, "to": b, "rate_bps": 10 ** 9} for a, b in links],
                      **sections)
        assert problems_of(doc) == [f"{p}: not on the talker-to-listener path" for p in off]

    # the runner cannot sample any of these; an infinite value is no integer
    @pytest.mark.parametrize("node,traffic,problem", [
        ({"rx_latency": {"kind": "empirical", "points": [[500, INF], [900, 1]]}}, {},
         "nodes[1].rx_latency: bad distribution"),
        ({"rx_latency": {"kind": "empirical", "points": [[500, NAN], [900, 1]]}}, {},
         "nodes[1].rx_latency: bad distribution"),
        ({"rx_latency": {"kind": "empirical", "points": [[500, 1e308], [900, 1e308]]}},
         {}, "nodes[1].rx_latency: bad distribution"),
        ({"rx_latency": {"kind": "empirical", "points": [[INF, 1]]}}, {},
         "nodes[1].rx_latency.points[0].value_ns: expected an integer, got inf"),
        ({}, {"wake_jitter": {"kind": "normal", "mean_ns": 400, "std_ns": INF}},
         "traffic.wake_jitter: bad distribution"),
        ({}, {"wake_jitter": {"kind": "normal", "mean_ns": NAN, "std_ns": 600}},
         "traffic.wake_jitter: bad distribution"),
        ({}, {"wake_jitter": {"kind": "normal", "mean_ns": 400, "std_ns": 1e308}},
         "traffic.wake_jitter: bad distribution"),
        ({}, {"stack_latency": {"kind": "constant", "value_ns": INF}},
         "traffic.stack_latency.value_ns: expected an integer, got inf"),
    ], ids=["empirical_inf_weight", "empirical_nan_weight", "empirical_inf_total",
            "empirical_inf_value", "normal_inf_std", "normal_nan_mean",
            "normal_inf_bound", "constant_inf"])
    def test_jitter_run_cannot_sample_rejected(self, node, traffic, problem):
        doc = variant(nodes=[MINIMAL["nodes"][0], {**MINIMAL["nodes"][1], **node}],
                      traffic={**MINIMAL["traffic"], **traffic})
        problems = problems_of(doc)
        assert len(problems) == 1 and problems[0].startswith(problem), problems

    @pytest.mark.parametrize("dist,lowest", [
        ({"kind": "constant", "value_ns": -1}, -1),
        ({"kind": "uniform", "min_ns": -5, "max_ns": 900}, -5),
        ({"kind": "normal", "mean_ns": 228, "std_ns": 408}, -1404),
        ({"kind": "normal", "mean_ns": 100, "std_ns": 30, "min_ns": -3}, -3),
        ({"kind": "empirical", "points": [[700, 1], [-20, 5]]}, -20),
    ], ids=["constant", "uniform", "normal", "normal_min", "empirical"])
    @pytest.mark.parametrize("path", ["nodes[2].forwarding", "traffic.stack_latency",
                                      "traffic.driver_latency"])
    def test_latency_that_can_draw_below_zero_rejected(self, dist, lowest, path):
        doc = copy.deepcopy(bridged())
        section, key = path.split(".")
        (doc["nodes"][2] if section == "nodes[2]" else doc["traffic"])[key] = dist
        assert problems_of(doc) == [
            f"{path}: a latency must not draw below 0, but can draw {lowest}"]

    @pytest.mark.parametrize("dist", [
        {"kind": "constant", "value_ns": 0}, {"kind": "uniform", "min_ns": 0, "max_ns": 9},
        {"kind": "normal", "mean_ns": 400, "std_ns": 100},
        {"kind": "normal", "mean_ns": 0, "std_ns": 500, "min_ns": 0},
        {"kind": "empirical", "points": [[0, 1], [50, 2]]}],
        ids=["constant", "uniform", "normal", "normal_min", "empirical"])
    def test_latency_whose_lowest_draw_is_zero_or_more_accepted(self, dist):
        doc = copy.deepcopy(bridged(traffic=dict(MINIMAL["traffic"], stack_latency=dist,
                                                 driver_latency=dist)))
        doc["nodes"][2]["forwarding"] = dist
        parse_scenario(doc)

    def test_jitter_that_may_draw_below_zero_still_accepted(self):
        # wake_jitter and hw_precision are clamped where they are used;
        # rx_latency and a sync residual shift a reading, not an event
        below = {"kind": "uniform", "min_ns": -50, "max_ns": 50}
        doc = bridged(traffic=dict(MINIMAL["traffic"], wake_jitter=below, hw_precision=below),
                      clocks={"sw0": {"phc": {"sync_interval_ns": 100_000,
                                              "sync_residual": below}}})
        doc["nodes"][1] = dict(doc["nodes"][1], rx_latency=below)
        parse_scenario(doc)

    # a value that cannot be hashed used to crash the lookup of a name or kind
    @pytest.mark.parametrize("doc,problem", [
        (variant(traffic={**MINIMAL["traffic"], "wake_jitter": {"kind": []}}),
         "traffic.wake_jitter.kind: unknown distribution kind []"),
        (variant(nodes=[MINIMAL["nodes"][0], {**MINIMAL["nodes"][1],
                                              "rx_latency": {"kind": {}}}]),
         "nodes[1].rx_latency.kind: unknown distribution kind {}"),
        (variant(clocks={"talker": {"system": {"sync_residual": {"kind": []}}}}),
         "clocks.talker.system.sync_residual.kind: unknown distribution kind []"),
        (variant(nodes=[{**MINIMAL["nodes"][0], "forwarding": {"kind": []}},
                        MINIMAL["nodes"][1]]),
         "nodes[0].forwarding.kind: unknown distribution kind []"),
        (variant(nodes=[{**MINIMAL["nodes"][0], "forwarding": {"preset": []}},
                        MINIMAL["nodes"][1]]),
         "nodes[0].forwarding.preset: unknown preset []"),
        (variant(links=[{"from": [], "to": "listener", "rate_bps": 10 ** 9}]),
         "links[0].from: unknown node []"),
        (variant(links=[{"from": "talker", "to": {}, "rate_bps": 10 ** 9}]),
         "links[0].to: unknown node {}"),
        (variant(shapers={"talker": {"scheme": []}}),
         "shapers.talker.scheme: must be taprio|etf, got []"),
    ], ids=["traffic_dist_kind", "rx_latency_kind", "sync_residual_kind",
            "forwarding_kind", "forwarding_preset", "link_from", "link_to",
            "shaper_scheme"])
    def test_unhashable_value_rejected(self, doc, problem):
        assert problems_of(doc) == [problem]

    @pytest.mark.parametrize("ipv,problem", [
        (8, "must be <= 7, got 8"), (-1, "must be >= 0, got -1"),
        (2 ** 70, f"must be <= 7, got {2 ** 70}")])
    def test_stream_gate_ipv_out_of_range_rejected(self, ipv, problem):
        gate = {"cycle_time_ns": 1000,
                "entries": [{"open": True, "duration_ns": 1000, "ipv": ipv}]}
        doc = bridged(filters={"sw0": {"rules": [{"handle": "s0"}],
                                       "gates": {"s0": gate}}})
        assert problems_of(doc) == [f"filters.sw0.gates.s0.entries[0].ipv: {problem}"]

    def test_boolean_express_class_rejected(self):
        doc = variant(shapers={"talker": {"preemption": {"enabled": True,
                                                         "express_classes": [True]}}})
        assert problems_of(doc) == [
            "shapers.talker.preemption.express_classes: expected a list of classes 0-7"]

    # the one-value corpus cannot see two faults at once
    @pytest.mark.parametrize("doc,problems", [
        (bridged(cqf={"enabled": True, "ipv_even": 3, "ipv_odd": 3}, run={"seed": -1}),
         ["cqf.ipv_odd: ipv_even and ipv_odd must differ", "run.seed: must be >= 0, got -1"]),
        (bridged(cqf={"enabled": True, "ipv_even": 3, "ipv_odd": 3, "colour": 1}),
         ["cqf.colour: unknown key", "cqf.ipv_odd: ipv_even and ipv_odd must differ"]),
        # the default ipv_even, 2, is not compared with ipv_odd
        (bridged(cqf={"enabled": True, "ipv_even": "x", "ipv_odd": 2}),
         ["cqf.ipv_even: expected an integer, got 'x'"]),
        (bridged(cqf={"enabled": False, "cycle_time_ns": 0}),
         ["cqf.cycle_time_ns: must be >= 1, got 0"]),
        (bridged(cqf="x", shapers={"talker": {"scheme": "etf", "etf": "x"}}),
         ["cqf: expected an object, got str",
          "shapers.talker.etf: expected an object, got str"]),
        # a node is read whole: one with no name still has its role checked,
        # and each missing key is reported once
        (variant(nodes=[{}, MINIMAL["nodes"][1]]),
         ["links[0].from: unknown node 'talker'", "nodes[0].name: missing required key",
          "nodes[0].role: missing required key"]),
    ], ids=["equal_ipvs_and_bad_seed", "equal_ipvs_and_unknown_key", "bad_ipv_even",
            "disabled_bad_cycle", "cqf_and_etf_not_objects", "empty_node"])
    def test_every_problem_of_several_reported(self, doc, problems):
        assert problems_of(doc) == problems


class TestBuiltObjects:
    def test_value_records_are_read_only(self):
        # a FilterCfg's rules and gates are tuples: every FilterCfg() shares them unchanged
        assert FilterCfg().gates is FilterCfg().gates == ()
        with pytest.raises(TypeError):
            FilterCfg().gates["s0"] = None
        cfg = parse_scenario(MINIMAL)
        for record, field in ((cfg, "traffic"), (cfg.traffic, "period_ns"),
                              (cfg.path[0], "shaper"), (cfg.path[0].node, "role")):
            with pytest.raises(AttributeError):
                setattr(record, field, None)

    def test_schedules_and_configs_built_once(self):
        gcl = {"cycle_time_ns": 1000, "entries": [{"gate_mask": 1, "duration_ns": 1000}]}
        gate = {"base_time": 5, "cycle_time_ns": 1000, "entries": [
            {"open": True, "duration_ns": 1000, "ipv": None, "max_octets": 128}]}
        cfg = parse_scenario(bridged(
            shapers={"talker": {"scheme": "etf", "etf": {"offload": False}},
                     "sw0": {"gcl": gcl, "preemption": {"enabled": True,
                                                        "express_classes": [3]}}},
            filters={"sw0": {"rules": [{"dest_mac": 1, "vlan_id": 2, "pcp": 3,
                                        "handle": "s0"}],
                             "gates": {"s0": gate}}},
            traffic={"mode": "txtime",
                     "stream": {"dest_mac": 1, "vlan_id": 2, "pcp": 3}}))
        # redundant now that a record equals only its own type, each == keeps its type check
        talker, sw0 = cfg.path
        assert talker.shaper == EtfCfg(offload=False, delta_ns=50_000)
        assert type(talker.shaper) is EtfCfg
        taprio = sw0.shaper
        assert isinstance(taprio.gcl, CyclicSchedule)
        assert gcl_state(taprio.gcl, 0) == (1, 1000)
        assert taprio.preemption == PreemptionConfig(enabled=True,
                                                     express_classes=frozenset({3}))
        assert type(taprio.preemption) is PreemptionConfig
        [(handle, sg)] = sw0.filter.gates
        assert handle == "s0" and isinstance(sg, CyclicSchedule) and sg.base_time == 5
        assert sg.entries == (StreamGateEntry(open=True, duration_ns=1000,
                                              max_octets=128),)
        assert [type(e) for e in sg.entries] == [StreamGateEntry]
        assert cfg.traffic.stream == StreamKey(dest_mac=1, vlan_id=2, pcp=3)
        assert type(cfg.traffic.stream) is StreamKey

    def test_cqf_compiled_into_each_bridge_on_the_path(self):
        preemption = {"enabled": True, "express_classes": [5]}
        cfg = parse_scenario(variant(
            nodes=MINIMAL["nodes"] + [{"name": b, "role": "bridge"}
                                      for b in ("sw0", "sw1")],
            links=[{"from": a, "to": b, "rate_bps": 10 ** 9}
                   for a, b in (("talker", "sw0"), ("sw0", "sw1"), ("sw1", "listener"))],
            shapers={"sw0": {"queue_capacity": 2, "guard_mode": "none",
                             "preemption": preemption}},
            cqf={"enabled": True, "cycle_time_ns": 2000}))
        gate, gcl = cqf_compose(CqfConfig(cycle_time_ns=2000, ipv_even=2, ipv_odd=3))
        talker, sw0, sw1 = cfg.path
        for hop in (sw0, sw1):
            fc = hop.filter
            assert fc.rules == () and [h for h, _ in fc.gates] == [None]
            sg = fc.gates[0][1]
            assert type(sg) is CyclicSchedule and sg == gate
            compiled = hop.shaper.gcl
            assert type(compiled) is CyclicSchedule and compiled == gcl
            assert {type(e) for e in sg.entries} == {StreamGateEntry}
            assert {type(e) for e in compiled.entries} == {GclEntry}
        assert sw0.shaper == TaprioCfg(
            gcl=sw0.shaper.gcl, guard_mode="none", queue_capacity=2,
            preemption=PreemptionConfig(enabled=True, express_classes=frozenset({5})))
        assert type(sw0.shaper.preemption) is PreemptionConfig
        assert sw1.shaper == TaprioCfg(gcl=sw1.shaper.gcl)
        assert type(sw0.shaper) is type(sw1.shaper) is TaprioCfg
        assert talker.shaper is NO_SHAPER and talker.filter is NO_FILTER


@pytest.mark.parametrize("fields,names", [
    (scenario._CLOCK, ClockModel._fields), (scenario._PREEMPTION, PreemptionConfig._fields),
    (scenario._TAPRIO, TaprioCfg._fields), (scenario._FRER, FrerCfg._fields),
    (scenario._TRAFFIC, TrafficCfg._fields), (scenario._RUN, RunCfg._fields),
    (scenario._CQF, CqfConfig._fields), (scenario._ETF, EtfCfg._fields),
    (scenario._GCL_ENTRY, GclEntry._fields), (scenario._GATE_ENTRY, StreamGateEntry._fields),
    (scenario._STREAM_KEY, tuple(scenario._STREAM_FIELDS)),
    (scenario._NODE, NodeCfg._fields), (("src", "dst", *scenario._LINK), LinkCfg._fields),
    (scenario._RULE, StreamRule._fields),
], ids=["clock", "preemption", "taprio", "frer", "traffic", "run", "cqf", "etf",
        "gcl_entry", "gate_entry", "stream_key", "node", "link", "rule"])
def test_each_reader_table_reads_its_records_fields(fields, names):
    # a key that is not a field reaches cls(**values) and raises TypeError,
    # a crash of validate where a scenario should be rejected
    assert tuple(fields) == names


@pytest.mark.parametrize("cfg,dist", [
    ({"kind": "constant", "value_ns": 5}, JitterDist.constant(5)),
    ({"kind": "uniform", "min_ns": 1, "max_ns": 2}, JitterDist.uniform(1, 2)),
    ({"kind": "normal", "mean_ns": 3.0, "std_ns": 1.5, "min_ns": 0},
     JitterDist.normal(3.0, 1.5, min_ns=0)),
    ({"kind": "empirical", "points": [[1, 2.0], [3, 4.0]]},
     JitterDist.empirical([(1, 2.0), (3, 4.0)])),
    ({"kind": "normal", "mean_ns": 3.0, "std_ns": 1.5}, JitterDist.normal(3.0, 1.5)),
    ({"kind": "normal", "mean_ns": 3.0, "std_ns": 1.5, "min_ns": None},
     JitterDist.normal(3.0, 1.5)),
], ids=["constant", "uniform", "normal", "empirical", "normal_no_min", "normal_null_min"])
def test_distribution_config_round_trip(cfg, dist):
    read = parse_scenario(variant(traffic={**MINIMAL["traffic"], "wake_jitter": cfg}))
    assert read.traffic.wake_jitter == dist
    assert type(read.traffic.wake_jitter) is JitterDist


def test_only_normal_min_may_be_null():
    doc = variant(traffic={**MINIMAL["traffic"],
                           "wake_jitter": {"kind": "uniform", "min_ns": None, "max_ns": 2}})
    assert problems_of(doc) == ["traffic.wake_jitter.min_ns: expected an integer, got None"]


@pytest.mark.parametrize("dist,problems", [
    ({"kind": "constant", "value_ns": "5"}, ["value_ns: expected an integer, got '5'"]),
    ({"kind": "constant", "value_ns": True}, ["value_ns: expected an integer, got True"]),
    ({"kind": "constant", "value_ns": 1.5}, ["value_ns: expected an integer, got 1.5"]),
    ({"kind": "uniform", "min_ns": "1", "max_ns": 2}, ["min_ns: expected an integer, got '1'"]),
    ({"kind": "normal", "mean_ns": "400", "std_ns": 1.5},
     ["mean_ns: expected a number, got '400'"]),
    ({"kind": "normal", "mean_ns": 400, "std_ns": False}, ["std_ns: expected a number, got False"]),
    ({"kind": "empirical", "points": [["500", "55"], [1.5, True]]},
     ["points[0].value_ns: expected an integer, got '500'",
      "points[0].weight: expected a number, got '55'",
      "points[1].value_ns: expected an integer, got 1.5",
      "points[1].weight: expected a number, got True"]),
    ({"kind": "empirical", "points": [[500, 1, 2]]},
     ["points: expected a list of [value_ns, weight] pairs"]),
    ({"kind": "constant"}, ["value_ns: missing required key"]),
    ({"kind": "uniform"}, ["max_ns: missing required key", "min_ns: missing required key"]),
    ({"kind": "normal", "min_ns": 0}, ["mean_ns: missing required key",
                                       "std_ns: missing required key"]),
], ids=["string", "boolean", "fraction", "uniform_string", "normal_string", "normal_boolean",
        "empirical_points", "empirical_triple", "constant_missing", "uniform_missing",
        "normal_missing"])
def test_distribution_keys_read_as_strictly_as_every_other_field(dist, problems):
    # each bad value at its key's dotted path, each missing key once
    doc = variant(traffic={**MINIMAL["traffic"], "wake_jitter": dist})
    assert problems_of(doc) == [f"traffic.wake_jitter.{p}" for p in problems]


@pytest.mark.parametrize("kind", sorted(scenario._DISTS))
def test_each_distribution_kind_reads_its_arguments_in_order(kind):
    # _parse_dist passes each key by name to JitterDist.<kind>: the keys are its arguments
    params = inspect.signature(getattr(JitterDist, kind)).parameters
    assert list(scenario._DISTS[kind]) == list(params)
