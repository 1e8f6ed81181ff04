"""CLI subcommands and exit codes."""

import json

import pytest

from tsnsim.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main

GOOD = {
    "nodes": [{"name": "talker", "role": "talker"},
              {"name": "listener", "role": "listener"}],
    "links": [{"from": "talker", "to": "listener", "rate_bps": 10 ** 9}],
    "traffic": {"period_ns": 500_000, "count": 50},
    "run": {"seed": 1},
}


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


class TestReport:
    def test_report_round_trip(self, good_scenario, tmp_path, capsys):
        out = tmp_path / "out"
        main(["run", str(good_scenario), "--out", str(out)])
        rc = main(["report", str(out / "records.csv"),
                   "--out", str(tmp_path / "rep")])
        assert rc == EXIT_OK
        reported = json.loads((tmp_path / "rep" / "stats.json").read_text())
        original = json.loads((out / "stats.json").read_text())
        assert reported["kinds"] == original["kinds"]

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

    def test_missing_csv_is_config_error(self, tmp_path):
        assert main(["report", str(tmp_path / "none.csv")]) == EXIT_CONFIG


class TestValidate:
    def test_ok(self, good_scenario, capsys):
        assert main(["validate", str(good_scenario)]) == EXIT_OK
        assert "ok" in capsys.readouterr().out

    def test_bad(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(dict(GOOD, bogus=1)))
        assert main(["validate", str(p)]) == EXIT_CONFIG
        assert "bogus" in capsys.readouterr().err


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
