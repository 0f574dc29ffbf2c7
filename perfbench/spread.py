#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, against BENCHMARK.json's bounds.

    python3 perfbench/spread.py --workload noisy-eval --seeds 1 2 3 4 5

Runs the benchmark once per seed, one run at a time, at BENCHMARK.json's
run_seconds. For every end-to-end metric it prints the median of the runs
and the distance between their first and third quartiles
(statistics.quantiles, n=4) as a share of that median, next to the bound.
A spread at or above a third of the bound is marked; setup_s has no spread
limit. Per-run values go to .perfbench/spread-<workload>.json.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    runs = []
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True,
        )
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
        if result is None or not result["correct"]:
            print(f"seed {seed}: run failed (exit {done.returncode})\n{done.stdout}{done.stderr}")
            return 1
        runs.append({"seed": seed, **{k: v["value"] for k, v in result["metrics"].items()}})
        print(f"seed {seed}: done", flush=True)

    out = ROOT / ".perfbench" / f"spread-{args.workload}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(runs, indent=2), encoding="utf-8")
    print(f"{'metric':26} {'median':>12} {'spread':>8} {'bound':>6}")
    steady = True
    for metric in spec["end_to_end"]:
        values = [run[metric["name"]] for run in runs]
        mid = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (mid, mid, mid)
        spread = (q3 - q1) / mid
        wide = metric["name"] != "setup_s" and spread >= metric["bound"] / 3
        steady &= not wide
        print(f"{metric['name']:26} {mid:12.6g} {spread:8.4f} {metric['bound']:6.3f}"
              + ("  <- spread >= bound/3" if wide else ""))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
