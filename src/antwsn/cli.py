"""Command-line front end.

Subcommands: `run` simulates one scenario, `sweep` executes a plan file of
seeded replicate grids, `dump-table` prints a node's routing table after a
run. Exit codes: 0 success, 1 configuration problem, 2 simulation failure
(a topology that cannot be built, or an internal error with its traceback).
"""

import argparse
import dataclasses
import json
import sys
import traceback
from pathlib import Path

from .config import ConfigError, SimConfig, config_from_mapping, parse_kv_text
from .harness import csv_text, load_plan, result_row, run_experiment
from .scenario import TopologyError
from .simulation import Simulation


def _add_scenario_flags(p):
    p.add_argument("--config", help="key = value scenario config file")
    p.add_argument("--protocol", help="babr | sc | ff | fp | eeabr | ieeabr")
    p.add_argument("--nodes", type=int)
    p.add_argument("--scenario", help="static | dynamic")
    p.add_argument("--layout", help="grid | random-square")
    p.add_argument("--seed", type=int)
    p.add_argument("--duration", type=float, help="seconds of virtual time")


def _build_config(args) -> SimConfig:
    """The config file's keys with the flags laid over them, validated once."""
    text = Path(args.config).read_text(encoding="utf-8") if args.config else ""
    mapping = parse_kv_text(text)
    mapping.update({k: getattr(args, k) for k in
                    ("protocol", "nodes", "scenario", "layout", "seed", "duration")
                    if getattr(args, k) is not None})
    return config_from_mapping(mapping)


def _cmd_run(args) -> int:
    cfg = _build_config(args)
    result = Simulation(cfg).run()
    if args.json:
        print(json.dumps(dataclasses.asdict(result), indent=2))
    else:
        latency = "n/a" if result.latency_s is None else f"{result.latency_s:.4f} s"
        print(f"protocol={result.protocol} nodes={result.nodes} "
              f"scenario={result.scenario} seed={result.seed}")
        print(f"generated={result.generated} delivered={result.delivered} "
              f"success_rate={result.success_rate_pct:.2f}%")
        print(f"latency={latency} energy={result.energy_j:.4f} J "
              f"efficiency={result.efficiency_kbit_per_j:.4f} kbit/J")
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        path = outdir / "run.csv"
        path.write_text(csv_text([result_row(result, replicate=1)]), encoding="utf-8")
        print(f"wrote {path}")
    return 0


def _cmd_sweep(args) -> int:
    if args.parallel < 0:
        raise ConfigError(f"--parallel must be >= 0, got {args.parallel}")
    plan = load_plan(args.plan)
    table = run_experiment(plan, parallel=args.parallel)
    written = table.write(args.out)
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_dump_table(args) -> int:
    cfg = _build_config(args)
    sim = Simulation(cfg)
    if not (0 <= args.node < sim.topology.n):
        raise ConfigError(f"node {args.node} outside 0..{sim.topology.n - 1}")
    sim.run()
    print("neighbor,destination,value")
    for neighbor, dest, value in sim.protocol.tables[args.node].rows():
        print(f"{neighbor},{dest},{value!r}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="antwsn",
        description="Ant-colony routing simulator for wireless sensor networks")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one scenario")
    _add_scenario_flags(p_run)
    p_run.add_argument("--out", help="directory for run.csv")
    p_run.add_argument("--json", action="store_true",
                       help="print the full result as JSON")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="execute an experiment plan file")
    p_sweep.add_argument("--plan", required=True, help="plan file (key = value)")
    p_sweep.add_argument("--out", required=True, help="output directory")
    p_sweep.add_argument("--parallel", type=int, default=0,
                         help="worker processes, >= 0 (>1 enables the pool; "
                              "capped at the plan's cell count)")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_dump = sub.add_parser("dump-table",
                            help="print one node's routing table after a run")
    _add_scenario_flags(p_dump)
    p_dump.add_argument("--node", type=int, required=True)
    p_dump.set_defaults(func=_cmd_dump_table)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; that is a config problem here.
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (TopologyError, OSError) as exc:
        print(f"simulation failure: {exc}", file=sys.stderr)
        return 2
    except Exception:  # input is checked up front, so anything else is a bug
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
