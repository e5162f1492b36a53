"""Steadiness report: run the benchmark several times per workload and
summarise each metric.

    python3 perfbench/report.py                      # 10 seeds x 4 workloads
    python3 perfbench/report.py --workloads solve_f64 --seed-base 11
    python3 perfbench/report.py --write perfbench/baseline.json

For every end-to-end metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the number of runs,
and the spread (q3 - q1) / median against a third of the metric's
bound, flagging every metric whose spread is wider.  It then makes two
traced runs on one seed, checks that every count metric repeats
exactly, and prints the per-layer metrics with the tracing overhead.
Runs are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import END_TO_END, LAYERS
from run import use_checkout_source

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

RUNS = 10        # seeds per workload
TRACED_RUNS = 2  # traced runs on the first seed, to check that counts repeat


def bench_config():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload, seed, seconds, trace):
    cmd = bench_config()["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    t0 = time.monotonic()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.monotonic() - t0
    return result


def summarise(values, bound=None):
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else float("inf")
    row = {"median": median, "q1": q1, "q3": q3, "runs": len(values), "spread": spread}
    if bound is not None:
        row["bound"] = bound
        row["steady"] = spread < bound / 3
    return row


def report_workload(workload, seed_base, seconds):
    name = workload.name
    results = [run_once(name, seed_base + i, seconds, 0) for i in range(RUNS)]
    out = {
        "why": workload.why,
        "mix": workload.mix,
        "seeds": [seed_base + i for i in range(RUNS)],
        "correct": all(r["correct"] for r in results),
        "attempted_median": statistics.median(r["attempted"] for r in results),
        "failed_median": statistics.median(r["failed"] for r in results),
        "wall_s_max": max(r["wall_s"] for r in results),
        "end_to_end": {},
    }
    print(f"\n== {name}: {RUNS} runs, seeds {seed_base}..{seed_base + RUNS - 1}, "
          f"correct={out['correct']}, ops/run ~{out['attempted_median']:.0f}, "
          f"failed/run ~{out['failed_median']:.0f}, slowest run {out['wall_s_max']:.1f} s")
    print(f"{'metric':24s} {'unit':7s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound/3':>8s}")
    for metric in END_TO_END:
        values = [r["metrics"][metric.name]["value"] for r in results]
        row = summarise(values, metric.bound)
        out["end_to_end"][metric.name] = row
        flag = "" if row["steady"] else "  <-- spread too wide"
        print(f"{metric.name:24s} {metric.unit:7s} {row['median']:12.6g} {row['q1']:12.6g} "
              f"{row['q3']:12.6g} {row['spread']:8.4f} {metric.bound / 3:8.4f}{flag}")

    traced = [run_once(name, seed_base, seconds, 1) for _ in range(TRACED_RUNS)]
    layers = {}
    repeat_failures = []
    for layer in LAYERS:
        values = [r["metrics"][layer.name]["value"] for r in traced]
        if layer.unit in ("count", "bits") and len(set(values)) > 1:
            repeat_failures.append(layer.name)
        layers[layer.name] = {"values": values, "unit": layer.unit}
    out["per_layer"] = layers
    out["counts_repeat_exactly"] = not repeat_failures
    ratios = layers["trace.overhead_ratio"]["values"]
    print(f"-- traced x{TRACED_RUNS} on seed {seed_base}: counts repeat exactly: "
          f"{not repeat_failures} {repeat_failures or ''}; overhead ratio "
          + ", ".join(f"{v:.3f}" for v in ratios))
    for layer in LAYERS:
        values = layers[layer.name]["values"]
        if any(values):
            print(f"   {layer.name:40s} {layer.unit:6s} " + "  ".join(f"{v:.6g}" for v in values))
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="solve_int,solve_frac,solve_f64,cli_sparse")
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--write", type=Path, default=None,
                        help="write the report as JSON to this file")
    args = parser.parse_args(argv)
    use_checkout_source()
    from workloads import WORKLOADS

    seconds = bench_config()["run_seconds"]
    report = {
        "machine": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
        },
        "run_seconds": seconds,
        "workloads": {},
    }
    for name in args.workloads.split(","):
        report["workloads"][name] = report_workload(
            WORKLOADS[name], args.seed_base, seconds)
    if args.write:
        args.write.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
