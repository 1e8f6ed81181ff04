"""Scenario schema validation: strict keys, dotted-path diagnostics."""

import copy
import json
from pathlib import Path

import pytest

import tsnsim
from tsnsim.scenario import ConfigError, load_scenario, parse_scenario

SCENARIOS = Path(tsnsim.__file__).parent / "scenarios"

MINIMAL = {
    "nodes": [{"name": "talker", "role": "talker"},
              {"name": "listener", "role": "listener"}],
    "links": [{"from": "talker", "to": "listener", "rate_bps": 10 ** 9}],
    "traffic": {"period_ns": 500_000, "count": 100},
    "run": {"seed": 1},
}


def variant(**overrides):
    doc = copy.deepcopy(MINIMAL)
    doc.update(overrides)
    return doc


def problems_of(doc):
    with pytest.raises(ConfigError) as err:
        parse_scenario(doc)
    return err.value.problems


class TestValidDocuments:
    def test_minimal_accepted(self):
        cfg = parse_scenario(MINIMAL)
        assert cfg.talker.name == "talker"
        assert cfg.listener.name == "listener"
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
        assert not cfg.frer.enabled and not cfg.cqf.enabled


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
