"""Repeatability helper: runs one workload N times, one seed after another,
and prints each metric's median, quartiles and spread.

    python3 bench/repeat.py --workload pressure --runs 10 --first-seed 1 --seconds 30
    python3 bench/repeat.py --workload pressure --runs 10 --first-seed 1 \
        --seconds 30 --against bench/out/repeat-pressure-1.json

Runs are serial, each in its own process, from the root of the checkout.
The spread of a metric is (q3 - q1) / median over the runs, with quartiles
as `statistics.quantiles(values, n=4)` gives them. The summary is written to
`bench/out/repeat-<workload>-<first seed>.json`; `--against` compares its
medians with an earlier summary's, as two sets of runs of one commit.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 600


def run_once(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(runs: list) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": median,
                     "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0,
                     "min": min(values), "max": max(values), "values": values}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--against", type=Path, help="earlier summary to compare medians with")
    args = p.parse_args(argv)
    if args.runs < 2:
        p.error("--runs must be at least 2 for quartiles")

    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        res = run_once(args.workload, seed, args.seconds)
        runs.append(res)
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}", file=sys.stderr, flush=True)
    summary = {"workload": args.workload, "first_seed": args.first_seed,
               "runs": args.runs, "seconds": args.seconds,
               "failed_share": sorted({r["failed"] / r["attempted"] for r in runs}),
               "all_correct": all(r["correct"] for r in runs),
               "metrics": summarize(runs)}
    earlier = json.loads(args.against.read_text()) if args.against else None

    print(f"{args.workload}: {args.runs} runs, seeds {args.first_seed}.."
          f"{args.first_seed + args.runs - 1}, failed share {summary['failed_share']}, "
          f"all correct {summary['all_correct']}")
    print(f"{'metric':<16}{'unit':<10}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>8}"
          + ("  median drift vs earlier" if earlier else ""))
    for name, m in summary["metrics"].items():
        line = (f"{name:<16}{m['unit']:<10}{m['median']:>14.6g}{m['q1']:>14.6g}"
                f"{m['q3']:>14.6g}{m['spread']:>8.3f}")
        if earlier and name in earlier["metrics"]:
            before = earlier["metrics"][name]["median"]
            line += f"  {(m['median'] - before) / before:+.3f}"
        print(line)

    out = BENCH_DIR / "out" / f"repeat-{args.workload}-{args.first_seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
