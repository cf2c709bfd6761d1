"""Command-line behavior: subcommands, exit codes, and written artifacts."""

import json

import pytest

from antwsn.cli import main
from antwsn.config import ConfigError, SimConfig, config_from_mapping
from antwsn.simulation import Simulation

FAST = ["--nodes", "9", "--layout", "grid", "--duration", "8", "--seed", "3"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRun:
    def test_default_report(self, capsys):
        code, out, err = run_cli(capsys, "run", "--protocol", "babr", *FAST)
        assert code == 0
        assert "protocol=babr nodes=9 scenario=static seed=3" in out
        assert "success_rate=" in out
        assert "kbit/J" in out
        assert err == ""

    def test_json_report(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--protocol", "fp", "--json", *FAST)
        assert code == 0
        data = json.loads(out)
        assert data["protocol"] == "fp"
        assert data["generated"] >= data["delivered"] > 0
        assert len(data["trace_sha256"]) == 64
        assert 0 < data["latency_p50_s"] <= data["latency_p95_s"] <= data["latency_max_s"]

    def test_out_writes_single_row_csv(self, capsys, tmp_path):
        out_dir = tmp_path / "one"
        code, out, _ = run_cli(capsys, "run", "--protocol", "sc", *FAST,
                               "--out", str(out_dir))
        assert code == 0
        lines = (out_dir / "run.csv").read_text().splitlines()
        assert lines[0].startswith("run_id,protocol,")
        assert lines[1].startswith("sc-9-static-r1,sc,9,static,1,")
        assert f"wrote {out_dir / 'run.csv'}" in out

    def test_config_file_with_flag_overrides(self, capsys, tmp_path):
        conf = tmp_path / "scenario.conf"
        conf.write_text("protocol = eeabr\nnodes = 9\nlayout = grid\n"
                        "duration = 8\nseed = 3\n")
        code, out, _ = run_cli(capsys, "run", "--config", str(conf),
                               "--protocol", "babr")
        assert code == 0
        assert "protocol=babr nodes=9" in out   # flag beats file

    def test_flags_override_file_keys_before_validation(self, capsys, tmp_path):
        # 12 nodes cannot form a grid; the flag's 16 replaces them first.
        conf = tmp_path / "scenario.conf"
        conf.write_text("nodes = 12\nlayout = grid\nduration = 2\n")
        code, out, err = run_cli(capsys, "run", "--config", str(conf),
                                 "--protocol", "babr", "--nodes", "16")
        assert code == 0, err
        assert "protocol=babr nodes=16" in out

    def test_name_flags_are_case_insensitive(self, capsys):
        # The same run as with lower-case names, down to the last digit.
        code, out, err = run_cli(capsys, "run", "--protocol", "BABR", "--scenario", "STATIC",
                                 *FAST[:2], "--layout", "Grid", *FAST[4:])
        assert code == 0, err
        assert out == run_cli(capsys, "run", "--protocol", "babr", "--scenario", "static",
                              *FAST)[1]

    def test_missing_config_file(self, capsys):
        code, _, err = run_cli(capsys, "run", "--config", "/no/such/file.conf")
        assert code == 1
        assert "config error" in err

    def test_out_is_checked_before_the_run(self, capsys, tmp_path, monkeypatch):
        def no_run(sim):
            raise AssertionError("ran despite an unusable --out")
        monkeypatch.setattr("antwsn.cli.Simulation.run", no_run)
        taken = tmp_path / "taken"
        taken.write_text("a file, not a directory\n")
        code, out, err = run_cli(capsys, "run", "--protocol", "babr", *FAST,
                                 "--out", str(taken))
        assert code == 1
        assert "config error" in err and "Traceback" not in err
        assert out == ""

    def test_json_with_out_keeps_stdout_pure_json(self, capsys, tmp_path):
        out_dir = tmp_path / "one"
        code, out, err = run_cli(capsys, "run", "--protocol", "babr", "--json",
                                 *FAST, "--out", str(out_dir))
        assert code == 0
        assert json.loads(out)["protocol"] == "babr"
        assert f"wrote {out_dir / 'run.csv'}" in err
        assert (out_dir / "run.csv").exists()

    def test_unknown_config_key(self, capsys, tmp_path):
        conf = tmp_path / "bad.conf"
        conf.write_text("protcol = babr\n")
        code, _, err = run_cli(capsys, "run", "--config", str(conf))
        assert code == 1
        assert "unknown config key" in err

    def test_bad_protocol_name(self, capsys):
        code, _, err = run_cli(capsys, "run", "--protocol", "dsdv", *FAST)
        assert code == 1
        assert "config error" in err

    @pytest.mark.parametrize("line", [
        "p_transmit = 0", "tx_radius = 0", "rx_threshold = -1", "bitrate = 0",
        "cw_init = 0", "max_retries = -1", "e_tx_per_bit = -1",
        "e_rx_per_bit = -1", "e_idle_per_s = -1", "ff_delay_max = -1",
        "ant_frame_bytes = 0", "data_frame_bytes = 0",
        "max_topology_retries = 0", "duration = nan", "bitrate = inf",
        "sigma_alpha = nan", "data_ttl_factor = -1", "grid_spacing = 0",
        "sink_radius_frac = -0.1", "dtau_max = -1",
    ])
    def test_out_of_range_value_is_a_config_error(self, capsys, tmp_path, line):
        conf = tmp_path / "bad.conf"
        conf.write_text(line + "\n")
        code, _, err = run_cli(capsys, "run", "--config", str(conf))
        assert code == 1
        assert "config error" in err

    def test_overflowing_sc_beta_is_a_config_error(self, capsys, tmp_path):
        conf = tmp_path / "sc.conf"
        conf.write_text("protocol = sc\nnodes = 9\nsc_beta = 710\n")
        code, _, err = run_cli(capsys, "run", "--config", str(conf))
        assert code == 1
        assert "config error" in err and "sc_beta" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("lines", [
        "beta = 250",                                    # visibility^beta overflows
        "phi = 1e-300\nalpha = 2",                       # tau^alpha overflows
        "beta = 100\ninitial_energy = 0.05",
        "beta = -300\ninitial_energy = 1e6",
        "alpha = -1\ninitial_energy = 0.05\nant_interval = 0.5",   # 0.0 ** -1
    ])
    def test_crashing_pheromone_exponents_are_config_errors(self, capsys, tmp_path, lines):
        conf = tmp_path / "ieeabr.conf"
        conf.write_text(f"protocol = ieeabr\nnodes = 25\nduration = 20\n{lines}\n")
        code, _, err = run_cli(capsys, "run", "--config", str(conf))
        assert code == 1
        assert "config error" in err and "Traceback" not in err

    def test_zero_sink_update_period_rejected(self):
        # Checked without a run: a dynamic run with this period never returns.
        with pytest.raises(ConfigError, match="sink_update_period"):
            config_from_mapping({"scenario": "dynamic", "sink_update_period": "0"})

    def test_disconnected_grid_is_a_simulation_failure(self, capsys, tmp_path):
        conf = tmp_path / "sparse.conf"
        conf.write_text("nodes = 9\nlayout = grid\ngrid_spacing = 40\n")
        code, _, err = run_cli(capsys, "run", "--config", str(conf))
        assert code == 2
        assert "simulation failure" in err

    def test_internal_error_prints_traceback(self, capsys, monkeypatch):
        def broken(sim):
            raise RuntimeError("broken invariant")
        monkeypatch.setattr("antwsn.cli.Simulation.run", broken)
        code, _, err = run_cli(capsys, "run", *FAST)
        assert code == 2
        assert err.startswith("Traceback")
        assert "RuntimeError: broken invariant" in err


def _directory(tmp_path):
    return tmp_path


def _not_utf8(tmp_path):
    path = tmp_path / "not-utf8.conf"
    path.write_bytes(b"\xffnodes = 9\n")
    return path


@pytest.mark.parametrize("make_input", [_directory, _not_utf8], ids=["dir", "not-utf8"])
class TestUnreadableInputFile:
    """A config or plan file that cannot be read or decoded is a config
    error naming the file, found before anything runs or is written."""

    def test_config(self, capsys, tmp_path, make_input):
        path = make_input(tmp_path)
        code, out, err = run_cli(capsys, "run", "--config", str(path))
        assert code == 1
        assert f"config error: cannot read {path}" in err
        assert "Traceback" not in err
        assert out == ""

    def test_plan(self, capsys, tmp_path, make_input):
        path = make_input(tmp_path)
        out_dir = tmp_path / "sweepout"
        code, out, err = run_cli(capsys, "sweep", "--plan", str(path),
                                 "--out", str(out_dir))
        assert code == 1
        assert f"config error: cannot read {path}" in err
        assert "Traceback" not in err
        assert out == ""
        assert not out_dir.exists()


class TestUsageErrors:
    def test_missing_subcommand(self, capsys):
        assert run_cli(capsys, )[0] == 1

    def test_unknown_flag(self, capsys):
        assert run_cli(capsys, "run", "--nodess", "9")[0] == 1

    def test_non_integer_nodes(self, capsys):
        assert run_cli(capsys, "run", "--nodes", "many")[0] == 1

    def test_help_exits_clean(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0


class TestSweep:
    def test_plan_execution_writes_artifacts(self, capsys, tmp_path):
        plan = tmp_path / "tiny.plan"
        plan.write_text("protocols = babr\nnodes = 9\nreplicates = 2\n"
                        "seed = 5\nduration = 8\nlayout = grid\n")
        out_dir = tmp_path / "sweepout"
        code, out, _ = run_cli(capsys, "sweep", "--plan", str(plan),
                               "--out", str(out_dir))
        assert code == 0
        assert (out_dir / "results.csv").exists()
        assert (out_dir / "results.json").exists()
        assert (out_dir / "plotdata" / "static-latency_babr.dat").exists()
        assert out.count("wrote ") >= 2
        rows = (out_dir / "results.csv").read_text().splitlines()
        assert len(rows) == 1 + 2 + 1   # header, replicates, aggregate

    def test_bad_override_fails_before_any_cell_runs(self, capsys, tmp_path):
        plan = tmp_path / "bad.plan"
        plan.write_text("protocols = babr\nnodes = 9\nreplicates = 1\n"
                        "duration = 8\nlayout = grid\nbitrate = 0\n")
        out_dir = tmp_path / "sweepout"
        code, _, err = run_cli(capsys, "sweep", "--plan", str(plan),
                               "--out", str(out_dir))
        assert code == 1
        assert "config error" in err
        assert not (out_dir / "results.csv").exists()

    @pytest.mark.parametrize("axes", [
        "protocols = babr\nnodes = 9, 9\n",
        "protocols = ,\nnodes = 9\n",
        "protocols = babr\nnodes = 9\nscenarios = static, STATIC\n",
    ])
    def test_repeated_or_empty_axis_fails_before_any_cell_runs(self, capsys, tmp_path, axes):
        plan = tmp_path / "bad.plan"
        plan.write_text(axes + "replicates = 2\nduration = 2\nlayout = grid\n")
        out_dir = tmp_path / "sweepout"
        code, out, err = run_cli(capsys, "sweep", "--plan", str(plan),
                                 "--out", str(out_dir))
        assert code == 1
        assert "config error" in err
        assert out == ""
        assert not out_dir.exists()

    def test_negative_parallel_is_a_config_error(self, capsys, tmp_path):
        plan = tmp_path / "tiny.plan"
        plan.write_text("protocols = babr\nnodes = 9\nreplicates = 1\n"
                        "duration = 2\nlayout = grid\n")
        out_dir = tmp_path / "sweepout"
        code, out, err = run_cli(capsys, "sweep", "--plan", str(plan),
                                 "--out", str(out_dir), "--parallel", "-3")
        assert code == 1
        assert "config error: --parallel must be >= 0" in err
        assert out == ""
        assert not out_dir.exists()

    def test_missing_plan_file(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--plan", "/no/plan",
                               "--out", "/tmp/unused-sweep-out")
        assert code == 1
        assert "config error" in err

    def test_out_is_checked_before_any_cell_runs(self, capsys, tmp_path, monkeypatch):
        def no_cells(plan, parallel=0):
            raise AssertionError("ran cells despite an unusable --out")
        monkeypatch.setattr("antwsn.cli.run_experiment", no_cells)
        plan = tmp_path / "tiny.plan"
        plan.write_text("protocols = babr\nnodes = 9\nreplicates = 1\n"
                        "duration = 2\nlayout = grid\n")
        taken = tmp_path / "taken"
        taken.write_text("a file, not a directory\n")
        code, out, err = run_cli(capsys, "sweep", "--plan", str(plan),
                                 "--out", str(taken))
        assert code == 1
        assert "config error" in err and "Traceback" not in err
        assert out == ""

    def test_bad_plan_contents(self, capsys, tmp_path):
        plan = tmp_path / "bad.plan"
        plan.write_text("protocols = babr\nreplicates = none\n")
        code, _, err = run_cli(capsys, "sweep", "--plan", str(plan),
                               "--out", str(tmp_path / "o"))
        assert code == 1
        assert "config error" in err


class TestDumpTable:
    def test_prints_routing_rows(self, capsys):
        code, out, _ = run_cli(capsys, "dump-table", "--protocol", "ieeabr",
                               "--node", "4", *FAST)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "neighbor,destination,value"
        assert len(lines) > 1
        neighbor, dest, value = lines[1].split(",")
        assert dest == "sink"
        assert float(value) >= 0.0

    def test_sink_node_prints_its_fresh_column(self, capsys):
        sim = Simulation(SimConfig(protocol="babr", nodes=9, layout="grid",
                                   duration=8, seed=3))
        neighbors = sim.topology.neighbors[sim.sink_node]
        code, out, _ = run_cli(capsys, "dump-table", "--protocol", "babr",
                               "--node", str(sim.sink_node), *FAST)
        assert code == 0
        assert out.splitlines()[1:] == [f"{n},sink,{1.0 / len(neighbors)!r}"
                                        for n in neighbors]

    def test_node_out_of_range(self, capsys):
        code, _, err = run_cli(capsys, "dump-table", "--node", "200",
                               "--protocol", "babr", *FAST)
        assert code == 1
        assert "config error" in err
