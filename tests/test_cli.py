"""CLI subcommands and exit codes."""

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

import tsnsim
from tsnsim.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main
from tsnsim.harness import report, run_scenario
from tsnsim.scenario import load_scenario

GOOD = {
    "nodes": [{"name": "talker", "role": "talker"},
              {"name": "listener", "role": "listener"}],
    "links": [{"from": "talker", "to": "listener", "rate_bps": 10 ** 9}],
    "traffic": {"period_ns": 500_000, "count": 50},
    "run": {"seed": 1},
}

#: GOOD with a bridge sw0 between the talker and the listener
BRIDGED = dict(GOOD, nodes=GOOD["nodes"] + [{"name": "sw0", "role": "bridge"}],
               links=[{"from": a, "to": b, "rate_bps": 10 ** 9}
                      for a, b in (("talker", "sw0"), ("sw0", "listener"))])
CQF = {"enabled": True, "cycle_time_ns": 100_000}
CLOSED_GCL = {"cycle_time_ns": 500_000,
              "entries": [{"gate_mask": 0, "duration_ns": 500_000}]}
CLOSED_GATE = {"cycle_time_ns": 500_000,
               "entries": [{"open": False, "duration_ns": 500_000}]}
TXTIME = dict(GOOD["traffic"], mode="txtime")


def off_path_error(paths) -> str:
    """What validate and run print for a document whose only problems are the
    links and nodes at paths, off the talker-to-listener path."""
    return "invalid scenario:\n" + "".join(
        f"  - {path}: not on the talker-to-listener path\n" for path in paths)


def test_import_loads_no_dataclasses():
    # every command starts with this import: it generates no class code
    code = "import sys, tsnsim, tsnsim.cli; print('dataclasses' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, cwd=Path(tsnsim.__file__).resolve().parents[1])
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_import_creates_no_named_tuple_class():
    # typing.NamedTuple compiles its fields at class creation; every record
    # in tsnsim is a core.Record, and StreamKey a plain tuple subclass
    code = ("import sys, tsnsim, tsnsim.cli\n"
            "print(sorted(f'{m.__name__}.{n}' for m in list(sys.modules.values())\n"
            "             if m.__name__.startswith('tsnsim') for n, v in vars(m).items()\n"
            "             if isinstance(v, type) and hasattr(v, '_field_defaults')))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, cwd=Path(tsnsim.__file__).resolve().parents[1])
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


@pytest.fixture
def good_scenario(tmp_path):
    p = tmp_path / "scn.json"
    p.write_text(json.dumps(GOOD))
    return p


class TestRun:
    def test_run_writes_outputs(self, good_scenario, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", str(good_scenario), "--out", str(out)]) == EXIT_OK
        assert (out / "records.csv").exists()
        stats = json.loads((out / "stats.json").read_text())
        assert stats["records"] == 50
        assert (out / "histogram_sw_tx.tsv").exists()
        assert "50 records" in capsys.readouterr().out

    def test_shipped_scenario_by_name(self, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "direct_zero", "--out", str(out)]) == EXIT_OK

    def test_missing_scenario_is_config_error(self, tmp_path, capsys):
        rc = main(["run", "nope", "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        assert "nope" in capsys.readouterr().err

    def test_invalid_scenario_is_config_error(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"nodes": []}))
        assert main(["run", str(p), "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_seed_override_changes_records(self, good_scenario, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        doc = dict(GOOD, traffic=dict(
            GOOD["traffic"],
            wake_jitter={"kind": "uniform", "min_ns": 0, "max_ns": 2000}))
        p = tmp_path / "jitter.json"
        p.write_text(json.dumps(doc))
        main(["run", str(p), "--out", str(a), "--seed", "1"])
        main(["run", str(p), "--out", str(b), "--seed", "2"])
        assert (a / "records.csv").read_bytes() != (b / "records.csv").read_bytes()

    @pytest.mark.parametrize("drift", [-1_000_000, float("nan"), -2_000_000])
    def test_bad_drift_is_config_error_before_run(self, tmp_path, capsys, drift):
        doc = dict(GOOD, clocks={"talker": {"system": {"drift_ppm": drift}}})
        p = tmp_path / "scn.json"
        p.write_text(json.dumps(doc))  # NaN is written as the literal NaN
        assert main(["validate", str(p)]) == EXIT_CONFIG
        assert main(["run", str(p), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert "clocks.talker.system.drift_ppm" in capsys.readouterr().err

    # json.dumps writes these as the literals Infinity and NaN, which
    # json.load accepts
    @pytest.mark.parametrize("listener,traffic,path", [
        ({"rx_latency": {"kind": "empirical", "points": [[500, float("inf")]]}}, {},
         "nodes[1].rx_latency"),
        ({"rx_latency": {"kind": "empirical", "points": [[500, float("nan")]]}}, {},
         "nodes[1].rx_latency"),
        ({}, {"wake_jitter": {"kind": "normal", "mean_ns": 400, "std_ns": float("inf")}},
         "traffic.wake_jitter"),
        ({}, {"wake_jitter": {"kind": "normal", "mean_ns": float("nan"), "std_ns": 600}},
         "traffic.wake_jitter"),
    ], ids=["empirical_inf_weight", "empirical_nan_weight", "normal_inf_std",
            "normal_nan_mean"])
    def test_non_finite_jitter_is_config_error_before_run(self, tmp_path, capsys,
                                                          listener, traffic, path):
        doc = dict(GOOD, nodes=[GOOD["nodes"][0], {**GOOD["nodes"][1], **listener}],
                   traffic={**GOOD["traffic"], **traffic})
        p = tmp_path / "scn.json"
        p.write_text(json.dumps(doc))
        assert main(["validate", str(p)]) == EXIT_CONFIG
        assert main(["run", str(p), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert f"{path}: bad distribution" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_negative_stack_latency_is_config_error_before_run(self, tmp_path, capsys):
        # it scheduled the driver hand-over in the past: PastTimeError, exit 3
        doc = json.loads((Path(tsnsim.__file__).parent / "scenarios" / "paper_fig1.json")
                         .read_text())
        doc["traffic"]["stack_latency"] = {"kind": "constant", "value_ns": -600_000}
        p = tmp_path / "scn.json"
        p.write_text(json.dumps(doc))
        assert main(["validate", str(p)]) == EXIT_CONFIG
        assert main(["run", str(p), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert ("traffic.stack_latency: a latency must not draw below 0, but can draw -600000"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_forwarding_that_can_draw_below_zero_is_config_error(self, tmp_path, capsys):
        # round(228 - 4 * 408) = -1404: BridgeNode.receive scheduled the
        # forwarded frame in the past
        normal = {"kind": "normal", "mean_ns": 228, "std_ns": 408}
        doc = copy.deepcopy(BRIDGED)
        doc["nodes"][2]["forwarding"] = normal
        p = tmp_path / "scn.json"
        p.write_text(json.dumps(doc))
        assert main(["validate", str(p)]) == EXIT_CONFIG
        assert main(["run", str(p), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert ("nodes[2].forwarding: a latency must not draw below 0, but can draw -1404"
                in capsys.readouterr().err)
        doc["nodes"][2]["forwarding"] = dict(normal, min_ns=0)
        p.write_text(json.dumps(doc))
        assert main(["run", str(p), "--out", str(tmp_path / "out")]) == EXIT_OK

    def test_unhashable_value_is_config_error_before_run(self, tmp_path, capsys):
        doc = dict(GOOD, traffic=dict(GOOD["traffic"], wake_jitter={"kind": []}))
        p = tmp_path / "scn.json"
        p.write_text(json.dumps(doc))
        assert main(["validate", str(p)]) == EXIT_CONFIG
        assert main(["run", str(p), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert ("traffic.wake_jitter.kind: unknown distribution kind []"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_run_delivering_nothing_reports_drops(self, tmp_path):
        doc = dict(GOOD, traffic={"period_ns": 500_000, "count": 5},
                   frer={"enabled": True, "paths": 2, "loss_per_path": 0.9999})
        p = tmp_path / "scn.json"
        p.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["run", str(p), "--out", str(out)]) == EXIT_OK
        payload = json.loads((out / "stats.json").read_text())
        assert payload["kinds"] == {} and payload["records"] == 0
        assert payload["drops"] == {"path_loss": 10}
        assert (out / "records.csv").read_text().count("\n") == 1

    @pytest.mark.parametrize("section,dropped", [
        ({"traffic": {"period_ns": 500_000, "count": 250,
                      "stream": {"dest_mac": 1, "vlan_id": 7, "pcp": 0}},
          "filters": {"sw0": {"rules": [{"vlan_id": 7, "handle": "s0"}],
                              "gates": {"s0": {"base_time": 100_000_000,
                                               "cycle_time_ns": 500_000,
                                               "entries": [{"open": True,
                                                            "duration_ns": 500_000}]}}}}},
         199),
        ({"cqf": dict(CQF, base_time=10_000_000)}, 19),
    ], ids=["psfp_gate", "cqf"])
    def test_stream_gate_is_closed_before_its_base_time(self, tmp_path, section,
                                                        dropped):
        # every frame that reaches sw0 before the gate's base time is dropped
        p = tmp_path / "scn.json"
        p.write_text(json.dumps(dict(BRIDGED, **section)))
        assert main(["validate", str(p)]) == EXIT_OK
        out = tmp_path / "out"
        assert main(["run", str(p), "--out", str(out)]) == EXIT_OK
        payload = json.loads((out / "stats.json").read_text())
        count = json.loads(p.read_text())["traffic"]["count"]
        assert payload["drops"] == {"drop_closed_gate": dropped}
        assert payload["records"] == count - dropped

    def test_class_no_entry_opens_is_dropped_under_guard_none(self, tmp_path):
        # sw0's only entry opens class 1: the priority-0 frame can never
        # leave, so it is dropped after waiting one cycle and the run ends
        p = tmp_path / "scn.json"
        p.write_text(json.dumps(dict(
            BRIDGED, traffic=dict(BRIDGED["traffic"], count=1),
            shapers={"sw0": {"guard_mode": "none", "gcl": {
                "cycle_time_ns": 100_000,
                "entries": [{"gate_mask": 2, "duration_ns": 100_000}]}}})))
        assert main(["validate", str(p)]) == EXIT_OK
        result = run_scenario(load_scenario(p))
        assert result.drops == {"taprio_oversize": 1}
        assert result.records == []


    @pytest.mark.parametrize("section", [
        {"shapers": {"talker": {"gcl": {
            "cycle_time_ns": 500_000,
            "entries": [{"gate_mask": 255, "duration_ns": 400_000}]}}}},
        {"filters": {"sw0": {"gates": {"s0": {
            "cycle_time_ns": 500_000,
            "entries": [{"open": True, "duration_ns": 250_000},
                        {"open": False, "duration_ns": 300_000}]}}}}},
    ])
    def test_schedule_not_filling_its_cycle_is_config_error(self, tmp_path, capsys,
                                                             section):
        p = tmp_path / "scn.json"
        p.write_text(json.dumps(dict(BRIDGED, **section)))
        assert main(["validate", str(p)]) == EXIT_CONFIG
        assert main(["run", str(p), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert ("shapers.talker.gcl.entries:" in err
                or "filters.sw0.gates.s0.entries:" in err)
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize("section,path", [
        ({"shapers": {"talker": {"scheme": "etf", "gcl": {
            "cycle_time_ns": 500_000,
            "entries": [{"gate_mask": 0, "duration_ns": 500_000}]}}}},
         "shapers.talker.gcl"),
        ({"shapers": {"talker": {"scheme": "etf", "guard_mode": "none"}}},
         "shapers.talker.guard_mode"),
        ({"shapers": {"talker": {"scheme": "etf", "queue_capacity": 1}}},
         "shapers.talker.queue_capacity"),
        ({"shapers": {"talker": {"scheme": "etf",
                                 "preemption": {"enabled": True}}}},
         "shapers.talker.preemption"),
        ({"shapers": {"talker": {"etf": {"delta_ns": 0}}}}, "shapers.talker.etf"),
        ({"filters": {"sw0": {"rules": [{"vlan_id": 1, "handle": "a"},
                                        {"vlan_id": 1, "handle": "b"}]}}},
         "filters.sw0.rules"),
        ({"filters": {"sw0": {"rules": [{"dest_mac": "zz", "handle": "s0"}]}}},
         "filters.sw0.rules[0].dest_mac"),
        ({"links": [{"from": "listener", "to": "talker", "rate_bps": 10 ** 9}]},
         "links"),
    ], ids=["etf_gcl", "etf_guard_mode", "etf_queue_capacity", "etf_preemption",
            "taprio_etf", "duplicate_rules", "string_dest_mac", "no_path"])
    def test_config_run_would_ignore_or_refuse_is_config_error(self, tmp_path, capsys,
                                                               section, path):
        p = tmp_path / "scn.json"
        p.write_text(json.dumps(dict(BRIDGED, traffic=dict(GOOD["traffic"], mode="txtime"),
                                     **section)))
        assert main(["validate", str(p)]) == EXIT_CONFIG
        assert main(["run", str(p), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert f"{path}:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section,path", [
        ({"shapers": {"talker": {"scheme": "etf"}}}, "shapers.talker.scheme"),
        ({"shapers": {"sw0": {"scheme": "etf"}}}, "shapers.sw0.scheme"),
        ({"shapers": {"listener": {}}}, "shapers.listener"),
        ({"filters": {"talker": {}}}, "filters.talker"),
        ({"filters": {"listener": {"rules": [{"vlan_id": 1, "handle": "s0"}]}}},
         "filters.listener"),
    ], ids=["etf_talker_sleep", "etf_bridge_sleep", "listener_shaper",
            "talker_filters", "listener_filters"])
    def test_config_a_sleep_path_cannot_use_is_config_error(self, tmp_path, capsys,
                                                           section, path):
        p = tmp_path / "scn.json"
        p.write_text(json.dumps(dict(BRIDGED, **section)))
        assert main(["validate", str(p)]) == EXIT_CONFIG
        assert main(["run", str(p), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert f"{path}:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section,path", [
        ({"cqf": CQF, "filters": {"sw0": {"rules": [{"vlan_id": 7, "handle": "s0"}]}}},
         "filters.sw0"),
        ({"cqf": CQF, "shapers": {"sw0": {"gcl": CLOSED_GCL}}}, "shapers.sw0.gcl"),
        ({"cqf": CQF, "traffic": TXTIME, "shapers": {"sw0": {"scheme": "etf"}}},
         "shapers.sw0.scheme"),
        ({"cqf": CQF, "nodes": GOOD["nodes"], "links": GOOD["links"]}, "cqf.enabled"),
        ({"traffic": TXTIME}, "traffic.mode"),
        ({"filters": {"sw0": {"gates": {"s0": CLOSED_GATE}}}}, "filters.sw0.gates.s0"),
    ], ids=["cqf_filters", "cqf_gcl", "cqf_etf", "cqf_no_bridge", "txtime_no_etf",
            "gate_no_rule_names"])
    def test_config_run_would_ignore_is_config_error(self, tmp_path, capsys, section,
                                                    path):
        doc = dict(BRIDGED, **section)
        p = tmp_path / "scn.json"
        p.write_text(json.dumps(doc))
        assert main(["validate", str(p)]) == EXIT_CONFIG
        assert main(["run", str(p), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert f"{path}:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("nodes,links,section,off", [
        (["sw9"], [("sw9", "listener")], {"shapers": {"sw9": {"gcl": CLOSED_GCL}}},
         ["links[2]", "nodes[3]"]),
        (["sw9"], [("sw9", "listener")],
         {"filters": {"sw9": {"rules": [{"vlan_id": 7, "handle": "s0"}]}}},
         ["links[2]", "nodes[3]"]),
        ([], [("listener", "talker")], {}, ["links[2]"]),
        (["sw9"], [], {"clocks": {"sw9": {"system": {"offset_ns": 5}}}}, ["nodes[3]"]),
    ], ids=["off_path_shaper", "off_path_filters", "listener_to_talker", "off_path_clocks"])
    def test_link_or_node_off_the_path_is_config_error(self, tmp_path, capsys, nodes, links,
                                                       section, off):
        doc = dict(BRIDGED, nodes=BRIDGED["nodes"] + [{"name": n, "role": "bridge"}
                                                      for n in nodes],
                   links=BRIDGED["links"] + [{"from": a, "to": b, "rate_bps": 10 ** 9}
                                             for a, b in links], **section)
        p = tmp_path / "scn.json"
        p.write_text(json.dumps(doc))
        assert main(["validate", str(p)]) == EXIT_CONFIG
        assert main(["run", str(p), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert capsys.readouterr().err == off_path_error(off) * 2
        assert not (tmp_path / "out").exists()

    def test_second_frer_path_is_config_error(self, tmp_path, capsys):
        # it ran both member paths through a, and the slow path through b never
        fast, slow = 10 ** 9, 10 ** 6
        doc = dict(GOOD, nodes=[{"name": "t", "role": "talker"}, {"name": "a", "role": "bridge"},
                                {"name": "b", "role": "bridge"},
                                {"name": "l", "role": "listener"}],
                   links=[{"from": x, "to": y, "rate_bps": rate}
                          for x, y, rate in (("t", "a", fast), ("a", "l", fast),
                                             ("t", "b", slow), ("b", "l", slow))],
                   frer={"enabled": True, "paths": 2})
        p = tmp_path / "scn.json"
        p.write_text(json.dumps(doc))
        assert main(["validate", str(p)]) == EXIT_CONFIG
        assert main(["run", str(p), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        off = off_path_error(["links[2]", "links[3]", "nodes[2]"])
        assert capsys.readouterr().err == off * 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("seed", ["-7", "-1"])
    def test_negative_seed_is_config_error_before_run(self, good_scenario, tmp_path, capsys,
                                                      seed):
        out = tmp_path / "out"
        assert main(["run", str(good_scenario), "--out", str(out), "--seed", seed]) == (
            EXIT_CONFIG)
        assert f"--seed: must be >= 0, got {seed}" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_override_wins_over_the_file(self, good_scenario, tmp_path):
        doc = dict(GOOD, traffic=dict(
            GOOD["traffic"], wake_jitter={"kind": "uniform", "min_ns": 0, "max_ns": 2000}),
            run={"seed": 9})
        p = tmp_path / "jitter.json"
        p.write_text(json.dumps(doc))
        overridden, again, direct = tmp_path / "o", tmp_path / "a", tmp_path / "d"
        assert main(["run", str(p), "--out", str(overridden), "--seed", "0"]) == EXIT_OK
        assert main(["run", str(p), "--out", str(again), "--seed", "0"]) == EXIT_OK
        p.write_text(json.dumps(dict(doc, run={"seed": 0})))
        assert main(["run", str(p), "--out", str(direct)]) == EXIT_OK
        for name in ("records.csv", "stats.json"):
            assert ((overridden / name).read_bytes() == (again / name).read_bytes()
                    == (direct / name).read_bytes())
        assert json.loads((overridden / "stats.json").read_text())["metadata"]["seed"] == 0


class TestReport:
    @pytest.mark.parametrize("delivered", [0, 1, 2, 50])
    def test_report_round_trip(self, tmp_path, capsys, delivered):
        # two FRER paths that lose nearly every copy deliver none of 5 frames
        doc = (dict(GOOD, traffic={"period_ns": 500_000, "count": delivered}) if delivered
               else dict(GOOD, traffic={"period_ns": 500_000, "count": 5},
                         frer={"enabled": True, "paths": 2, "loss_per_path": 0.9999}))
        p = tmp_path / "scn.json"
        p.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["run", str(p), "--out", str(out)]) == EXIT_OK
        rc = main(["report", str(out / "records.csv"),
                   "--out", str(tmp_path / "rep")])
        assert rc == EXIT_OK
        reported = json.loads((tmp_path / "rep" / "stats.json").read_text())
        original = json.loads((out / "stats.json").read_text())
        assert original["records"] == delivered
        # the records define a period only from two on; the scenario's stays
        assert original["period_ns"] == (500_000 if delivered >= 2 else None)
        assert original["metadata"]["period_ns"] == 500_000
        for key in ("kinds", "records", "period_ns"):
            assert reported[key] == original[key]

    def test_undecodable_csv_is_runtime_error(self, tmp_path, capsys):
        p = tmp_path / "latin1.csv"
        p.write_bytes(b"seq,intended_tx_ns,sw_tx_ns,hw_tx_ns,hw_rx_ns,sw_rx_ns\n"
                      b"0,1000,1010,,,\n"
                      b"1,2000,2030,,,\xe9\n")
        assert main(["report", str(p), "--out", str(tmp_path / "rep")]) == EXIT_RUNTIME
        assert capsys.readouterr().err.startswith("malformed CSV: line 3: ")
        assert not (tmp_path / "rep").exists()

    def test_cell_over_the_csv_field_limit_is_runtime_error(self, tmp_path, capsys):
        p = tmp_path / "long.csv"
        p.write_text("seq,intended_tx_ns,sw_tx_ns,hw_tx_ns,hw_rx_ns,sw_rx_ns\n"
                     f"0,1000,{'1' * 200_000},,,\n")
        assert main(["report", str(p), "--out", str(tmp_path / "rep")]) == EXIT_RUNTIME
        assert capsys.readouterr().err.startswith("malformed CSV: line 2: ")
        assert not (tmp_path / "rep").exists()

    def test_error_names_the_physical_line_after_a_multiline_cell(self, tmp_path, capsys):
        # a quoted cell may hold a newline that int() accepts; line 4 is the bad row
        p = tmp_path / "multiline.csv"
        p.write_text('seq,intended_tx_ns,sw_tx_ns,hw_tx_ns,hw_rx_ns,sw_rx_ns\n'
                     '0,1000,"1010\n",,,\n'
                     '1,2000,x,,,\n')
        assert main(["report", str(p)]) == EXIT_RUNTIME
        assert capsys.readouterr().err.startswith("malformed CSV: line 4: ")

    def test_malformed_csv_is_runtime_error(self, tmp_path, capsys):
        p = tmp_path / "bad.csv"
        p.write_text("seq,intended_tx_ns,sw_tx_ns,hw_tx_ns,hw_rx_ns,sw_rx_ns\n"
                     "x,y,z,a,b,c\n")
        assert main(["report", str(p)]) == EXIT_RUNTIME

    def test_row_off_the_grid_is_runtime_error(self, tmp_path, capsys):
        # first and last rows give a 1000 ns grid; seq 1 sits 500 ns off it
        p = tmp_path / "off.csv"
        p.write_text("seq,intended_tx_ns,sw_tx_ns,hw_tx_ns,hw_rx_ns,sw_rx_ns\n"
                     "0,1000,1000,,,\n"
                     "1,2500,2500,,,\n"
                     "2,3000,3000,,,\n")
        assert main(["report", str(p)]) == EXIT_RUNTIME
        assert "line 3" in capsys.readouterr().err

    def test_ends_on_no_grid_name_the_last_row(self, tmp_path, capsys):
        # seqs 0 and 2 lie 11 ns apart: no integral period, named at the last row
        p = tmp_path / "gridless.csv"
        p.write_text("seq,intended_tx_ns,sw_tx_ns,hw_tx_ns,hw_rx_ns,sw_rx_ns\n"
                     "0,10,10,,,\n"
                     "1,15,15,,,\n"
                     "2,21,21,,,\n")
        assert main(["report", str(p)]) == EXIT_RUNTIME
        assert capsys.readouterr().err == ("malformed CSV: line 4: intended_tx values are "
                                           "not on a uniform grid\n")

    def test_run_delivering_nothing_reports_no_period(self, tmp_path, capsys):
        doc = dict(GOOD, traffic={"period_ns": 500_000, "count": 5},
                   frer={"enabled": True, "paths": 2, "loss_per_path": 0.9999})
        p = tmp_path / "scn.json"
        p.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["run", str(p), "--out", str(out)]) == EXIT_OK
        csv = out / "records.csv"
        assert main(["report", str(csv), "--out", str(tmp_path / "rep")]) == EXIT_OK
        reported = json.loads((tmp_path / "rep" / "stats.json").read_text())
        assert reported == json.loads(json.dumps(report(csv)))
        assert reported["records"] == 0 and reported["kinds"] == {}
        assert reported["period_ns"] is None

    def test_one_row_reports_offsets_but_no_period(self, tmp_path, capsys):
        p = tmp_path / "one.csv"
        p.write_text("seq,intended_tx_ns,sw_tx_ns,hw_tx_ns,hw_rx_ns,sw_rx_ns\n"
                     "7,3500,3510,3520,4000,4100\n")
        assert main(["report", str(p), "--out", str(tmp_path / "rep")]) == EXIT_OK
        reported = json.loads((tmp_path / "rep" / "stats.json").read_text())
        assert reported == json.loads(json.dumps(report(p)))
        assert reported["records"] == 1 and reported["period_ns"] is None
        assert reported["kinds"]["sw_tx"]["max_ns"] == 10
        assert reported["kinds"]["sw_rx"]["max_ns"] == 600

    def test_missing_csv_is_config_error(self, tmp_path):
        assert main(["report", str(tmp_path / "none.csv")]) == EXIT_CONFIG

    @pytest.mark.parametrize("width", ["0", "-100"])
    def test_bin_width_below_one_is_config_error(self, tmp_path, capsys, width):
        p = tmp_path / "ok.csv"
        p.write_text("seq,intended_tx_ns,sw_tx_ns,hw_tx_ns,hw_rx_ns,sw_rx_ns\n"
                     "0,1000,1010,,,\n"
                     "1,2000,2030,,,\n")
        rc = main(["report", str(p), "--bin-width", width,
                   "--out", str(tmp_path / "rep")])
        assert rc == EXIT_CONFIG
        assert "--bin-width" in capsys.readouterr().err
        assert not (tmp_path / "rep").exists()

    def test_csv_path_that_is_a_directory_is_config_error(self, tmp_path, capsys):
        rc = main(["report", str(tmp_path), "--out", str(tmp_path / "rep")])
        assert rc == EXIT_CONFIG
        assert str(tmp_path) in capsys.readouterr().err
        assert not (tmp_path / "rep").exists()

    def test_out_that_is_an_existing_file_is_runtime_error(self, tmp_path, capsys):
        p = tmp_path / "ok.csv"
        text = ("seq,intended_tx_ns,sw_tx_ns,hw_tx_ns,hw_rx_ns,sw_rx_ns\n"
                "0,1000,1010,,,\n"
                "1,2000,2030,,,\n")
        p.write_text(text)
        assert main(["report", str(p), "--out", str(p)]) == EXIT_RUNTIME
        assert str(p) in capsys.readouterr().err
        assert p.read_text() == text


class TestValidate:
    def test_ok(self, good_scenario, capsys):
        assert main(["validate", str(good_scenario)]) == EXIT_OK
        assert "ok" in capsys.readouterr().out

    def test_bad(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(dict(GOOD, bogus=1)))
        assert main(["validate", str(p)]) == EXIT_CONFIG
        assert "bogus" in capsys.readouterr().err


class TestUnreadableScenario:
    @pytest.fixture(params=["directory", "latin1", "not_json"])
    def unreadable(self, request, tmp_path):
        """A scenario path that cannot be read as JSON, and what is said of it."""
        if request.param == "directory":
            return tmp_path, f"cannot read {tmp_path}: "
        p = tmp_path / "scn.json"
        if request.param == "latin1":
            p.write_bytes(b'{"run": "\xe9"}')
            return p, f"cannot read {p}: 'utf-8' codec can't decode byte 0xe9"
        p.write_text("{not json")
        return p, "not valid JSON: Expecting property name"

    @pytest.mark.parametrize("command", [
        ["validate"], ["run", "--out", "OUT"],
        ["sweep", "--param", "run.seed", "--values", "1", "--out", "OUT"]])
    def test_is_config_error(self, unreadable, tmp_path, capsys, command):
        path, said = unreadable
        out = tmp_path / "out"
        argv = [command[0], str(path), *(str(out) if a == "OUT" else a for a in command[1:])]
        assert main(argv) == EXIT_CONFIG
        assert said in capsys.readouterr().err
        assert not out.exists()


class TestSweep:
    def test_sweep_over_seeds(self, good_scenario, tmp_path, capsys):
        out = tmp_path / "sweep"
        rc = main(["sweep", str(good_scenario), "--param", "run.seed",
                   "--values", "1,2", "--out", str(out)])
        assert rc == EXIT_OK
        assert (out / "run.seed=1" / "records.csv").exists()
        assert (out / "run.seed=2" / "records.csv").exists()

    def test_sweep_invalid_value_is_config_error(self, good_scenario, tmp_path):
        rc = main(["sweep", str(good_scenario), "--param", "traffic.mode",
                   "--values", "warp", "--out", str(tmp_path / "s")])
        assert rc == EXIT_CONFIG

    def test_out_that_is_a_file_is_runtime_error(self, good_scenario, tmp_path, capsys):
        out = tmp_path / "file"
        out.write_text("")
        assert main(["run", str(good_scenario), "--out", str(out)]) == EXIT_RUNTIME
        assert capsys.readouterr().err.startswith("runtime error: ")
        rc = main(["sweep", str(good_scenario), "--param", "run.seed", "--values", "1,2",
                   "--out", str(out)])
        assert rc == EXIT_RUNTIME
        assert capsys.readouterr().err.startswith("runtime error at run.seed=1: ")

    def test_every_value_is_checked_before_the_first_run(self, good_scenario, tmp_path,
                                                          capsys):
        out = tmp_path / "s"
        rc = main(["sweep", str(good_scenario), "--param", "traffic.mode",
                   "--values", "sleep,warp", "--out", str(out)])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("traffic.mode=warp: invalid scenario:\n")
        assert "traffic.mode: must be sleep|txtime, got 'warp'" in err
        assert not out.exists()

    def test_negative_seed_is_config_error_before_any_run(self, good_scenario, tmp_path,
                                                          capsys):
        out = tmp_path / "s"
        rc = main(["sweep", str(good_scenario), "--param", "run.seed", "--values", "1,2",
                   "--out", str(out), "--seed", "-7"])
        assert rc == EXIT_CONFIG
        assert "--seed: must be >= 0, got -7" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_override_wins_over_a_swept_seed(self, good_scenario, tmp_path):
        doc = dict(GOOD, traffic=dict(
            GOOD["traffic"], wake_jitter={"kind": "uniform", "min_ns": 0, "max_ns": 2000}))
        p = tmp_path / "jitter.json"
        p.write_text(json.dumps(doc))
        out = tmp_path / "s"
        assert main(["sweep", str(p), "--param", "run.seed", "--values", "1,2",
                     "--out", str(out), "--seed", "5"]) == EXIT_OK
        assert main(["run", str(p), "--out", str(tmp_path / "r"), "--seed", "5"]) == EXIT_OK
        for value in ("1", "2"):
            assert ((out / f"run.seed={value}" / "records.csv").read_bytes()
                    == (tmp_path / "r" / "records.csv").read_bytes())

    @pytest.mark.parametrize("param", ["nodes.1.rx_latency", "run.seed.x"])
    def test_param_through_a_non_object_is_config_error(self, good_scenario,
                                                        tmp_path, capsys, param):
        rc = main(["sweep", str(good_scenario), "--param", param,
                   "--values", "5", "--out", str(tmp_path / "s")])
        assert rc == EXIT_CONFIG
        assert param in capsys.readouterr().err
        assert not (tmp_path / "s").exists()
