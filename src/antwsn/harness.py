"""Experiment orchestration: seeded replicate grids over protocols, node
counts, and scenario kinds, with CSV/JSON/plot-data export.

Every cell's seed is derived from the base seed by hashing the cell key, so
a plan is reproducible run-to-run and identical whether cells execute
serially or in a process pool.
"""

import csv
import hashlib
import io
import itertools
import json
import statistics
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from .config import (ConfigError, PROTOCOL_NAMES, SimConfig, _convert, check_type,
                     config_from_mapping, parse_kv_text, read_text)
from .simulation import run_single

CSV_COLUMNS = ("run_id", "protocol", "nodes", "scenario", "replicate",
               "latency_s", "success_rate_pct", "energy_J",
               "efficiency_kbit_per_J")

METRIC_KEYS = ("latency_s", "success_rate_pct", "energy_J", "efficiency_kbit_per_J")

# Short panel names used in plot-data file names.
_PANELS = {"latency_s": "latency", "success_rate_pct": "success",
           "energy_J": "energy", "efficiency_kbit_per_J": "efficiency"}


@dataclass
class ExperimentPlan:
    protocols: tuple = PROTOCOL_NAMES
    node_counts: tuple = (9, 16, 36, 49, 64, 100)
    scenarios: tuple = ("static",)
    replicates: int = 10
    base_seed: int = 1
    overrides: dict = field(default_factory=dict)  # extra SimConfig knobs

    def __post_init__(self):
        # Each axis: a non-empty sequence (not a bare string) of its field's type.
        for name, key, kind in (("protocols", "protocol", str), ("node_counts", "nodes", int),
                                ("scenarios", "scenario", str)):
            axis = getattr(self, name)
            if not isinstance(axis, Sequence) or isinstance(axis, (str, bytes)) or not axis:
                raise ConfigError(f"plan {name} must be a non-empty sequence, not a string; "
                                  f"got {axis!r}")
            for x in axis:
                check_type(key, x, kind)
            axis = tuple(x.lower() for x in axis) if kind is str else tuple(axis)
            repeated = sorted({x for x in axis if axis.count(x) > 1})
            if repeated:
                raise ConfigError(f"plan {name} list {repeated} more than once")
            setattr(self, name, axis)
        check_type("replicates", self.replicates, int)
        check_type("base_seed", self.base_seed, int)
        if self.replicates < 1:
            raise ConfigError("replicates must be >= 1")
        overrides = self.overrides
        if not (isinstance(overrides, Mapping) and all(isinstance(k, str) for k in overrides)):
            raise ConfigError(f"plan overrides must be a mapping with str keys, got {overrides!r}")
        bad = {"protocol", "nodes", "scenario", "seed"} & set(overrides)
        if bad:
            raise ConfigError(f"plan overrides may not set {sorted(bad)}; "
                              "use the plan fields instead")
        self.overrides = {k: _convert(k, v) if isinstance(v, str) else v
                          for k, v in overrides.items()}
        # Every cell config is checked before any cell runs; replicates differ
        # only in their seed.
        for p, n, s in itertools.product(self.protocols, self.node_counts, self.scenarios):
            self.cell_config(p, n, s, 1)

    def cells(self) -> list:
        """(protocol, nodes, scenario, replicate) tuples in output order."""
        return [(p, n, s, r)
                for p in sorted(self.protocols)
                for n in sorted(self.node_counts)
                for s in sorted(self.scenarios)
                for r in range(1, self.replicates + 1)]

    def cell_config(self, protocol: str, nodes: int, scenario: str,
                    replicate: int) -> SimConfig:
        seed = cell_seed(self.base_seed, protocol, nodes, scenario, replicate)
        return config_from_mapping({**self.overrides, "protocol": protocol,
                                    "nodes": nodes, "scenario": scenario,
                                    "seed": seed})


def cell_seed(base_seed: int, protocol: str, nodes: int, scenario: str,
              replicate: int) -> int:
    key = f"{base_seed}:{protocol}:{nodes}:{scenario}:{replicate}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big")


class ResultTable:
    """Replicate rows plus one aggregate row per cell, in deterministic order."""

    def __init__(self, plan: ExperimentPlan, results: dict):
        self.plan = plan
        self.results = results          # cell tuple -> RunResult
        self.rows = [result_row(results[cell], replicate=cell[3])
                     for cell in plan.cells()]
        self._stats = self._cell_stats()
        self.aggregates = self._aggregate()

    def _cell_stats(self) -> dict:
        """(protocol, nodes, scenario) -> {metric: (mean, spread) or None},
        each taken once over the cell's non-None values in row order."""
        groups = {}
        for row in self.rows:
            key = (row["protocol"], row["nodes"], row["scenario"])
            groups.setdefault(key, []).append(row)
        stats = {}
        for cell, rows in groups.items():
            stats[cell] = per_key = {}
            for key in METRIC_KEYS:
                values = [r[key] for r in rows if r[key] is not None]
                per_key[key] = None if not values else (
                    statistics.fmean(values),
                    statistics.stdev(values) if len(values) > 1 else 0.0)
        return stats

    def _aggregate(self) -> list:
        out = []
        for (protocol, nodes, scenario), per_key in sorted(self._stats.items()):
            agg = {
                "run_id": f"{protocol}-{nodes}-{scenario}-agg",
                "protocol": protocol,
                "nodes": nodes,
                "scenario": scenario,
                "replicate": "agg",
            }
            for key, stat in per_key.items():
                agg[key] = None if stat is None else f"{stat[0]:.6g}±{stat[1]:.6g}"
            out.append(agg)
        return out

    def cell_mean(self, protocol: str, nodes: int, scenario: str, key: str):
        """Mean of one metric over a cell's replicates (None-aware)."""
        stat = self._stats.get((protocol, nodes, scenario), {}).get(key)
        return None if stat is None else stat[0]

    # -- export --------------------------------------------------------------

    def to_csv(self) -> str:
        return csv_text(self.rows + self.aggregates)

    def to_json(self) -> str:
        return json.dumps(self.rows + self.aggregates, indent=2) + "\n"

    def write(self, outdir) -> list:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        written = []
        for name, text in (("results.csv", self.to_csv()),
                           ("results.json", self.to_json())):
            path = outdir / name
            path.write_text(text, encoding="utf-8")
            written.append(path)
        written.extend(self.write_plotdata(outdir / "plotdata"))
        return written

    def write_plotdata(self, outdir) -> list:
        """Two-column (nodes, metric mean) series, one file per panel per
        protocol, for external plotting."""
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        written = []
        for scenario in sorted(self.plan.scenarios):
            for key, panel in _PANELS.items():
                for protocol in sorted(self.plan.protocols):
                    lines = []
                    for nodes in sorted(self.plan.node_counts):
                        mean = self.cell_mean(protocol, nodes, scenario, key)
                        if mean is not None:
                            lines.append(f"{nodes} {mean:.6g}\n")
                    if not lines:
                        continue
                    path = outdir / f"{scenario}-{panel}_{protocol}.dat"
                    path.write_text("".join(lines), encoding="utf-8")
                    written.append(path)
        return written


def result_row(res, replicate) -> dict:
    """One run's export row; the run id and cell columns come from the
    result itself."""
    return {
        "run_id": f"{res.protocol}-{res.nodes}-{res.scenario}-r{replicate}",
        "protocol": res.protocol,
        "nodes": res.nodes,
        "scenario": res.scenario,
        "replicate": replicate,
        "latency_s": res.latency_s,
        "success_rate_pct": res.success_rate_pct,
        "energy_J": res.energy_j,
        "efficiency_kbit_per_J": res.efficiency_kbit_per_j,
    }


def csv_text(rows) -> str:
    """The CSV_COLUMNS header and one line per row."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([_csv_value(row[c]) for c in CSV_COLUMNS])
    return buf.getvalue()


def _csv_value(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return value


def run_experiment(plan: ExperimentPlan, parallel: int = 0) -> ResultTable:
    """Execute every cell of the plan; `parallel` > 1 uses a process pool of
    at most one worker per cell, and a pool of one runs serially.

    Output is byte-identical regardless of worker count: cells are keyed and
    re-assembled in plan order after completion.
    """
    cells = plan.cells()
    configs = [plan.cell_config(*cell) for cell in cells]
    # A forked pool starts all its workers at the first submit, so more
    # workers than cells would only be processes that never get work.
    workers = min(parallel, len(cells))
    if workers > 1:
        # Imported here: the pool's import costs every `import antwsn` ~20 ms.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = dict(zip(cells, pool.map(run_single, configs)))
    else:
        results = dict(zip(cells, map(run_single, configs)))
    return ResultTable(plan, results)


_PLAN_INT_KEYS = {"replicates", "seed"}


def parse_plan_text(text: str) -> ExperimentPlan:
    """Plan files are flat key = value, like scenario configs.

    Recognized keys: protocols, nodes, scenarios (comma lists), replicates,
    seed. Every other key is passed through as a SimConfig override;
    ExperimentPlan checks all of them.
    """
    mapping = parse_kv_text(text)
    kwargs = {}
    overrides = {}
    for key, raw in mapping.items():
        if key in ("protocols", "scenarios"):
            kwargs[key] = tuple(x.strip() for x in raw.split(",") if x.strip())
        elif key == "nodes":
            try:
                kwargs["node_counts"] = tuple(int(x) for x in raw.split(","))
            except ValueError:
                raise ConfigError(f"nodes expects integers, got {raw!r}") from None
        elif key in _PLAN_INT_KEYS:
            try:
                kwargs["base_seed" if key == "seed" else key] = int(raw)
            except ValueError:
                raise ConfigError(f"{key} expects an integer, got {raw!r}") from None
        else:
            overrides[key] = raw
    return ExperimentPlan(overrides=overrides, **kwargs)


def load_plan(path) -> ExperimentPlan:
    return parse_plan_text(read_text(path))
