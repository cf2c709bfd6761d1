"""Benchmark of the antwsn simulator: runs one workload and prints its metrics.

    python3 bench/run.py --workload pressure --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the simulator is imported from its
`src/` directory. The last line on stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Progress and any check
failures go to stderr. A full report, with every cell's event count, trace
hash and figures, is written under `bench/out/`.

With `--trace 0` the workload runs as whole rounds of the same cells, as
many as `--seconds` buys at the workload's nominal round cost, and the
metrics are the end-to-end ones (run_s, events_per_s, setup_s, peak_rss_mb).
With `--trace 1` it runs one plain round and then one traced round, checks
that every cell's trace hash is the same in both, and reports the per-layer
metrics and the tracing overhead. See README.md for what each metric means.
"""

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("pressure", "flood", "sweep"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_simulator():
    src = ROOT / "src"
    if not (src / "antwsn" / "__init__.py").is_file():
        raise SystemExit(f"bench: no simulator source at {src}")
    sys.path.insert(0, str(src))


def run_round(workload, recorder, reference=None):
    """One round of the workload; returns (its cell records, failed ops).

    `reference` holds the records of an earlier round of the same inputs;
    each cell's trace hash must equal its reference hash.
    """
    start = len(recorder.records)
    try:
        problems = workload.run_round(OUT_DIR)
    except Exception:
        traceback.print_exc()
        problems = ["round raised"]
    records = recorder.records[start:]
    for rec, ref in zip(records, reference or ()):
        if rec.trace_sha256 != ref.trace_sha256:
            rec.failures.append(f"trace {rec.trace_sha256[:16]} differs from "
                                f"{ref.trace_sha256[:16]} in the reference round")
    for rec in records:
        for failure in rec.failures:
            print(f"bench: FAIL {rec.label}: {failure}", file=sys.stderr)
    for problem in problems:
        print(f"bench: FAIL {problem}", file=sys.stderr)
    passed = sum(not rec.failures for rec in records)
    if not problems:
        passed += workload.extra_ops
    return records, workload.ops_per_round - passed


def metric(value, unit):
    return {"value": value, "unit": unit}


def timed(workload, args, import_cpu_s, cells):
    n_rounds = max(1, int(args.seconds // workload.round_s))
    recorder = cells.Recorder(timed=True)
    complete, failed = [], 0
    with recorder.installed():
        for r in range(n_rounds):
            t0 = time.perf_counter()
            records, round_failed = run_round(workload, recorder,
                                              complete[0] if complete else None)
            failed += round_failed
            if len(records) == workload.n_cells:
                complete.append(records)
            print(f"bench: {args.workload} round {r + 1}/{n_rounds} "
                  f"{time.perf_counter() - t0:.2f} s", file=sys.stderr)
    if not complete:
        raise SystemExit(f"bench: no round of {args.workload} completed")
    first = recorder.records[:workload.n_cells]
    run_s = statistics.median(sum(rec.run_s for rec in records) for records in complete)
    events = sum(rec.events for rec in complete[0])
    metrics = {
        "run_s": metric(run_s, "s"),
        "events_per_s": metric(events / run_s, "events/s"),
        "setup_s": metric(recorder.speed.at_reference(
            import_cpu_s + sum(rec.setup_cpu_s for rec in first)), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    report = {"workload": args.workload, "seed": args.seed, "rounds": n_rounds,
              "import_cpu_s": import_cpu_s, "metrics": metrics,
              "calibration_pass_s": statistics.quantiles(recorder.speed.passes_s, n=4),
              "cells": [cell_report(rec) for rec in first],
              "round_run_s": [sum(rec.run_s for rec in records) for records in complete],
              "round_run_wall_s": [sum(rec.run_wall_s for rec in records)
                                   for records in complete]}
    write_json(OUT_DIR / f"{args.workload}-seed{args.seed}.json", report)
    return n_rounds * workload.ops_per_round, failed, metrics


def traced(workload, args, cells):
    import layers

    plain = cells.Recorder(timed=True)
    with plain.installed():
        reference, failed = run_round(workload, plain)
    spans = layers.Spans()
    recorder = cells.Recorder(timed=False)
    with recorder.installed(), spans.installed():
        records, traced_failed = run_round(workload, recorder, reference)
    failed += traced_failed
    plain_s = sum(rec.run_wall_s for rec in reference)
    traced_s = sum(rec.run_wall_s for rec in records)
    overhead = traced_s - plain_s
    print(f"tracing overhead: {overhead:.3f} s (traced run_s {traced_s:.3f} s, "
          f"untraced run_s {plain_s:.3f} s, +{100 * overhead / plain_s:.0f}%)")
    per_layer = {name: metric(v, unit)
                 for name, (v, unit) in layers.layer_metrics(spans, records).items()}
    report = {"workload": args.workload, "seed": args.seed,
              "untraced_run_s": plain_s, "traced_run_s": traced_s,
              "overhead_s": overhead, "metrics": per_layer,
              "span_total_s": dict(spans.total_s), "span_calls": dict(spans.calls),
              "cells": [dict(cell_report(rec), untraced_sha256=ref.trace_sha256)
                        for rec, ref in zip(records, reference)]}
    write_json(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json", report)
    return 2 * workload.ops_per_round, failed, per_layer


def cell_report(rec) -> dict:
    return {"cell": rec.label, "events": rec.events, "trace_sha256": rec.trace_sha256,
            "setup_cpu_s": rec.setup_cpu_s, "run_wall_s": rec.run_wall_s,
            "figures": rec.figures, "failures": rec.failures}


def write_json(path: Path, obj):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=1) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    args = parse_args(argv)
    import_simulator()
    import cells
    import workloads

    import_cpu_s = time.process_time()     # CPU time since the process started
    workload = workloads.build(args.workload, args.seed)
    if args.trace:
        attempted, failed, metrics = traced(workload, args, cells)
    else:
        attempted, failed, metrics = timed(workload, args, import_cpu_s, cells)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
