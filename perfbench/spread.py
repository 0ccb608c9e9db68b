"""Run the benchmark on several seeds and report each end-to-end metric's spread.

    python3 perfbench/spread.py --workload xy5-local --runs 10 [--first-seed 1]

For each metric it prints the ten values, their median and the distance
between the first and third quartiles (statistics.quantiles, n=4) as a
share of the median, next to the bound BENCHMARK.json fixes.  A benchmark
is steady when every spread except setup_s's stays well inside its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        command = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", "0",
        ]
        proc = subprocess.run(command, capture_output=True, text=True, timeout=180)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(result)
        values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']} {values}", flush=True)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        bound = bounds[name]
        print(
            f"{name:<16} median {median:.6g}  IQR/median {spread:.4f}  "
            f"bound {bound}, spread/bound {spread / bound:.2f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
