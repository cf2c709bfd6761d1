"""Experiment grids: per-cell seeding, table assembly, exports, plan files,
and serial/parallel equivalence."""

import concurrent.futures
import json
import statistics

import pytest

from antwsn.config import ConfigError
from antwsn.harness import (CSV_COLUMNS, ExperimentPlan, ResultTable,
                            cell_seed, load_plan, parse_plan_text,
                            run_experiment)

SMALL = dict(protocols=("babr", "ieeabr"), node_counts=(9,),
             scenarios=("static",), replicates=2, base_seed=5,
             overrides={"duration": 8.0, "layout": "grid"})


@pytest.fixture(scope="module")
def small_table():
    return run_experiment(ExperimentPlan(**SMALL))


class TestCellSeeds:
    def test_deterministic_and_distinct(self):
        a = cell_seed(1, "babr", 49, "static", 1)
        assert a == cell_seed(1, "babr", 49, "static", 1)
        variants = {
            cell_seed(1, "babr", 49, "static", 2),
            cell_seed(1, "sc", 49, "static", 1),
            cell_seed(1, "babr", 64, "static", 1),
            cell_seed(1, "babr", 49, "dynamic", 1),
            cell_seed(2, "babr", 49, "static", 1),
        }
        assert a not in variants
        assert len(variants) == 5

    def test_seed_fits_the_config(self):
        s = cell_seed(123, "fp", 100, "dynamic", 10)
        assert 0 <= s < 2 ** 64


class TestPlanValidation:
    def test_defaults(self):
        plan = ExperimentPlan()
        assert plan.protocols == ("babr", "sc", "ff", "fp", "eeabr", "ieeabr")
        assert plan.replicates == 10

    def test_case_folding(self):
        plan = ExperimentPlan(protocols=("BABR",), scenarios=("STATIC",))
        assert plan.protocols == ("babr",)
        assert plan.scenarios == ("static",)

    @pytest.mark.parametrize("bad", [
        dict(protocols=("babr", "aodv")),
        dict(scenarios=("static", "mobile")),
        dict(replicates=0),
        dict(overrides={"protocol": "sc"}),
        dict(overrides={"nodes": 9}),
        dict(overrides={"scenario": "static"}),
        dict(overrides={"seed": 3}),
        dict(protocols=()),
        dict(node_counts=()),
        dict(scenarios=()),
        dict(overrides={"durationn": 60}),
        dict(overrides={"bitrate": "fast"}),
        dict(node_counts=(9, 12), overrides={"layout": "grid"}),
    ])
    def test_rejected(self, bad):
        with pytest.raises(ConfigError):
            ExperimentPlan(**bad)

    @pytest.mark.parametrize("axis, entries, repeated", [
        ("protocols", ("babr", "sc", "babr"), "'babr'"),
        ("protocols", ("babr", "BABR"), "'babr'"),
        ("node_counts", (9, 16, 9), "9"),
        ("scenarios", ("static", "dynamic", "Static"), "'static'"),
    ])
    def test_repeated_axis_entry_rejected(self, axis, entries, repeated):
        with pytest.raises(ConfigError, match=rf"plan {axis} list \[{repeated}\] more than once"):
            ExperimentPlan(**{axis: entries})

    def test_cells_enumerate_in_sorted_order(self):
        plan = ExperimentPlan(protocols=("sc", "babr"), node_counts=(16, 9),
                              scenarios=("static",), replicates=2)
        assert plan.cells() == [
            ("babr", 9, "static", 1), ("babr", 9, "static", 2),
            ("babr", 16, "static", 1), ("babr", 16, "static", 2),
            ("sc", 9, "static", 1), ("sc", 9, "static", 2),
            ("sc", 16, "static", 1), ("sc", 16, "static", 2),
        ]

    def test_cell_config_carries_overrides(self):
        plan = ExperimentPlan(**SMALL)
        cfg = plan.cell_config("babr", 9, "static", 1)
        assert cfg.duration == 8.0
        assert cfg.layout == "grid"
        assert cfg.seed == cell_seed(5, "babr", 9, "static", 1)


class TestResultTable:
    def test_row_grid_shape(self, small_table):
        assert len(small_table.rows) == 4          # 2 protocols x 2 replicates
        assert len(small_table.aggregates) == 2    # one per cell
        ids = [r["run_id"] for r in small_table.rows]
        assert ids == ["babr-9-static-r1", "babr-9-static-r2",
                       "ieeabr-9-static-r1", "ieeabr-9-static-r2"]

    def test_aggregate_format(self, small_table):
        agg = small_table.aggregates[0]
        assert agg["run_id"] == "babr-9-static-agg"
        assert agg["replicate"] == "agg"
        rows = [r for r in small_table.rows if r["protocol"] == "babr"]
        values = [r["energy_J"] for r in rows]
        mean, spread = statistics.fmean(values), statistics.stdev(values)
        assert agg["energy_J"] == f"{mean:.6g}±{spread:.6g}"

    def test_cell_mean(self, small_table):
        rows = [r for r in small_table.rows if r["protocol"] == "ieeabr"]
        want = statistics.fmean(r["success_rate_pct"] for r in rows)
        got = small_table.cell_mean("ieeabr", 9, "static", "success_rate_pct")
        assert got == pytest.approx(want)

    def test_csv_layout(self, small_table):
        lines = small_table.to_csv().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + 4 + 2
        first = lines[1].split(",")
        assert first[0] == "babr-9-static-r1"
        # floats are written with repr so a reread is bit-exact
        assert float(first[6]) == small_table.rows[0]["success_rate_pct"]

    def test_csv_empty_cell_for_absent_latency(self):
        plan = ExperimentPlan(protocols=("babr",), node_counts=(9,),
                              replicates=1, base_seed=5,
                              overrides={"duration": 8.0, "layout": "grid",
                                         "traffic_rate": 1e-9})
        table = run_experiment(plan)
        row = table.rows[0]
        assert row["latency_s"] is None
        line = table.to_csv().splitlines()[1]
        assert line.split(",")[5] == ""

    def test_json_round_trip(self, small_table):
        data = json.loads(small_table.to_json())
        assert data[0]["run_id"] == "babr-9-static-r1"
        assert data[-1]["replicate"] == "agg"
        assert len(data) == 6

    def test_write_produces_all_artifacts(self, small_table, tmp_path):
        written = small_table.write(tmp_path)
        names = {p.name for p in written}
        assert "results.csv" in names
        assert "results.json" in names
        dat = sorted(p.name for p in written if p.suffix == ".dat")
        assert dat == sorted(
            f"static-{panel}_{proto}.dat"
            for panel in ("latency", "success", "energy", "efficiency")
            for proto in ("babr", "ieeabr"))
        body = (tmp_path / "plotdata" / "static-energy_babr.dat").read_text()
        nodes, value = body.split()
        assert nodes == "9"
        mean = small_table.cell_mean("babr", 9, "static", "energy_J")
        assert value == f"{mean:.6g}"


class TestParallelEquivalence:
    def test_pool_matches_serial_byte_for_byte(self, small_table):
        pooled = run_experiment(ExperimentPlan(**SMALL), parallel=2)
        assert pooled.to_csv() == small_table.to_csv()
        assert pooled.to_json() == small_table.to_json()

    def test_repeat_serial_run_is_identical(self, small_table):
        again = run_experiment(ExperimentPlan(**SMALL))
        assert again.to_csv() == small_table.to_csv()


class TestPoolSize:
    """The pool is sized by a stand-in executor that records its worker
    count and maps in this process, so no test here starts a process."""

    TINY = dict(protocols=("babr",), node_counts=(9,), scenarios=("static",),
                base_seed=5, overrides={"duration": 2.0, "layout": "grid"})

    @pytest.fixture
    def requested(self, monkeypatch):
        requested = []

        class InProcessPool:
            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        return requested

    def test_pool_is_capped_at_the_cell_count(self, requested):
        plan = ExperimentPlan(replicates=2, **self.TINY)
        pooled = run_experiment(plan, parallel=64)
        assert requested == [2]
        assert pooled.to_csv() == run_experiment(plan).to_csv()

    def test_one_cell_runs_serially(self, requested):
        run_experiment(ExperimentPlan(replicates=1, **self.TINY), parallel=2)
        assert requested == []


class TestPlanFiles:
    def test_full_plan_parse(self):
        plan = parse_plan_text("""
            # comparison sweep
            protocols = babr, ieeabr
            nodes = 9, 49
            scenarios = static, dynamic
            replicates = 3
            seed = 42
            duration = 60
            traffic_rate = 0.25
        """)
        assert plan.protocols == ("babr", "ieeabr")
        assert plan.node_counts == (9, 49)
        assert plan.scenarios == ("static", "dynamic")
        assert plan.replicates == 3
        assert plan.base_seed == 42
        assert plan.overrides == {"duration": 60.0, "traffic_rate": 0.25}

    def test_override_values_arrive_typed(self):
        plan = parse_plan_text("protocols = fp\ncw_init = 64\n")
        assert plan.overrides["cw_init"] == 64
        assert isinstance(plan.overrides["cw_init"], int)

    def test_bad_nodes_list(self):
        with pytest.raises(ConfigError, match="integers"):
            parse_plan_text("nodes = 9, many")

    def test_bad_replicates(self):
        with pytest.raises(ConfigError, match="integer"):
            parse_plan_text("replicates = few")

    def test_unknown_override_key_fails_at_parse(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_plan_text("durationn = 60")

    def test_bad_override_value_fails_at_parse(self):
        with pytest.raises(ConfigError, match="number"):
            parse_plan_text("duration = long")

    def test_reserved_override_rejected(self):
        with pytest.raises(ConfigError):
            parse_plan_text("protocol = babr")   # singular: a config key

    def test_load_plan(self, tmp_path):
        p = tmp_path / "sweep.plan"
        p.write_text("protocols = sc\nnodes = 9\nreplicates = 1\n")
        assert load_plan(str(p)).protocols == ("sc",)
