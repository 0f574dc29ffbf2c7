#!/usr/bin/env python3
"""Smoke test of the benchmark itself, in well under a minute.

    python3 perfbench/smoke.py

Runs every workload on tiny corpora, untraced and traced, and checks that
each run passes its output checks and prints exactly the metrics that
BENCHMARK.json names, each with its unit. Then checks that, in a directory
holding only BENCHMARK.json and perfbench/, the benchmark exits nonzero
without printing a result.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            done = run(ROOT, workload, trace)
            where = f"{workload} trace {trace}"
            try:
                result = json.loads(done.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                problems.append(f"{where}: no result line (exit {done.returncode})\n{done.stderr}")
                continue
            if done.returncode != 0 or not result["correct"] or result["failed"]:
                problems.append(f"{where}: exit {done.returncode}, result {result}\n{done.stdout}")
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            if printed != wanted[trace]:
                problems.append(
                    f"{where}: metrics differ from BENCHMARK.json: missing "
                    f"{sorted(set(wanted[trace]) - set(printed))}, extra "
                    f"{sorted(set(printed) - set(wanted[trace]))}, units "
                    f"{sorted(n for n in printed if wanted[trace].get(n, printed[n]) != printed[n])}"
                )
            shown = {
                line.split(" = ")[0].strip(): line.split(" = ", 1)[1].split()
                for line in done.stdout.splitlines()
                if line.startswith("  ") and " = " in line
            }
            for name, unit in printed.items():
                if shown.get(name, [None, None])[1:2] != [unit]:
                    problems.append(f"{where}: {name} not printed with its unit {unit}")
            print(f"{where}: checked", flush=True)

    bare = ROOT / ".perfbench" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = run(bare, spec["workloads"][0]["name"], 0)
        if done.returncode == 0 or '"metrics"' in done.stdout:
            problems.append(f"without the package: exit {done.returncode}, stdout {done.stdout!r}")
        print("without the package: exit", done.returncode)
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print("FAIL:", problem)
    print("smoke test", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
