#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

Usage (from the repository root)::

    python3 portalbench/spread.py --workload churn_asof --seeds 1-10

Runs ``portalbench/run.py`` once per seed, one run at a time, and prints
for every metric the median, the quartiles (``statistics.quantiles``,
n=4) and the spread: the distance between the quartiles as a share of
the median.  ``--out`` also writes every run's result as JSON lines.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds_from(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default="28")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    results = []
    for seed in seeds_from(args.seeds):
        command = [
            sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
            "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace,
        ]
        done = subprocess.run(command, capture_output=True, text=True, timeout=600)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}")
            return 1
        result = json.loads(lines[-1])
        result["seed"] = seed
        results.append(result)
        reference = next((l for l in lines if l.startswith("machine reference")), "")
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} | {reference}", flush=True)
        if args.out:
            with open(args.out, "a", encoding="utf-8") as out:
                out.write(json.dumps(result) + "\n")
    names = list(results[0]["metrics"])
    print(f"{'metric':36} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _q2, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        print(f"{name:36} {median:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.3f}")
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"failed share per run: {sorted(shares)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
