"""The benchmark's workloads. Each builds its inputs from one seed and runs
them as whole rounds: the same operations, in the same order, every round.

- pressure: babr and ieeabr on a 49-node static field under a unicast ant
  storm (ant_interval 0.08 s, traffic 0.1/s, 100 s). Radio MAC and collision
  work, AntCache expiry, eeabr selection and the ieeabr live-ant cap.
- flood: ff (ant_interval 2 s) and fp (the static-scale settings) on a
  100-node static field, 50 s. Broadcast fan-out, rebroadcast timers with
  cancellation and flood-dedup sets; AntCache is never used.
- sweep: one serial `run_experiment` plan, six protocols x static/dynamic x
  9 and 100 nodes at default rates over 10 s, written to a temporary
  directory and read back.

Cell seeds are derived from the workload seed with the harness's own
`cell_seed`, as one replicate of a plan would be.
"""

import csv
import json
import tempfile
from pathlib import Path

import antwsn.harness
from antwsn import ExperimentPlan, SimConfig, Simulation, cell_seed
from antwsn.config import PROTOCOL_NAMES

PRESSURE = {"ant_interval": 0.08, "traffic_rate": 0.1, "duration": 100.0}
FLOOD_FF = {"ant_interval": 2.0, "traffic_rate": 0.1, "duration": 50.0}
FLOOD_FP = {"ant_interval": 20.0, "traffic_rate": 0.1, "phi": 0.2, "alpha": 2.0,
            "duration": 50.0}
SWEEP = {"duration": 10.0}


def static_cell(seed: int, protocol: str, nodes: int, **overrides) -> SimConfig:
    return SimConfig(protocol=protocol, nodes=nodes, scenario="static",
                     seed=cell_seed(seed, protocol, nodes, "static", 1), **overrides)


class CellsWorkload:
    """A fixed list of cells, each built and run directly."""

    def __init__(self, configs, round_s: float):
        self.configs = configs
        self.round_s = round_s
        self.n_cells = len(configs)
        self.extra_ops = 0
        self.ops_per_round = self.n_cells

    def run_round(self, scratch: Path) -> list:
        for cfg in self.configs:
            Simulation(cfg).run()
        return []


class SweepWorkload:
    """One serial plan through the harness plus its export; the export and
    read-back count as one more operation per round."""

    def __init__(self, plan: ExperimentPlan, round_s: float):
        self.plan = plan
        self.round_s = round_s
        self.n_cells = len(plan.cells())
        self.extra_ops = 1
        self.ops_per_round = self.n_cells + 1

    def run_round(self, scratch: Path) -> list:
        table = antwsn.harness.run_experiment(self.plan)
        scratch.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as outdir:
            table.write(outdir)
            return check_export(table, Path(outdir))


def check_export(table, outdir: Path) -> list:
    """The written files hold every row of the table, in both formats."""
    fails = []
    n_rows = len(table.rows) + len(table.aggregates)
    text = (outdir / "results.csv").read_text(encoding="utf-8")
    if text != table.to_csv():
        fails.append("results.csv differs from the table")
    if len(list(csv.reader(text.splitlines()))) != n_rows + 1:
        fails.append("results.csv row count is wrong")
    rows = json.loads((outdir / "results.json").read_text(encoding="utf-8"))
    if [r["run_id"] for r in rows] != [r["run_id"] for r in table.rows + table.aggregates]:
        fails.append("results.json rows differ from the table")
    if not list((outdir / "plotdata").glob("*.dat")):
        fails.append("no plot data written")
    return fails


def build(name: str, seed: int):
    """The named workload for one seed. `round_s`, near a round's cost on
    the reference host, fixes how many rounds a run makes; sweep's is set
    high so that a full set of runs fits its time budget in a slow spell."""
    if name == "pressure":
        return CellsWorkload([static_cell(seed, p, 49, **PRESSURE)
                              for p in ("babr", "ieeabr")], round_s=12.0)
    if name == "flood":
        return CellsWorkload([static_cell(seed, "ff", 100, **FLOOD_FF),
                              static_cell(seed, "fp", 100, **FLOOD_FP)], round_s=12.0)
    if name == "sweep":
        return SweepWorkload(ExperimentPlan(
            protocols=PROTOCOL_NAMES, node_counts=(9, 100),
            scenarios=("static", "dynamic"), replicates=1, base_seed=seed,
            overrides=dict(SWEEP)), round_s=10.0)
    raise ValueError(f"unknown workload {name!r}")
