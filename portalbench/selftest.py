#!/usr/bin/env python3
"""Quick self-test of the benchmark (about a minute).

Usage (from the repository root)::

    python3 portalbench/selftest.py

Runs every workload at reduced size (``--quick``) for a fixed number of
rounds: once untraced and twice traced.  It fails unless every run

* exits 0 with a result line,
* fails no operation and passes every correctness check,

and unless the two traced runs of each workload report the same
operation counts and the same per-layer counts (the ``count/...`` and
``ratio`` metrics).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("pool_replay", "churn_asof")
ROUNDS = "2"


def run(workload: str, trace: str) -> dict:
    command = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", "5", "--rounds", ROUNDS, "--quick", "--trace", trace,
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=300)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise AssertionError(
            f"{workload} trace={trace}: exit {done.returncode}\n{done.stderr[-3000:]}"
        )
    return json.loads(lines[-1])


def counts(result: dict) -> dict:
    return {
        name: metric["value"]
        for name, metric in result["metrics"].items()
        if metric["unit"].startswith("count") or metric["unit"] == "ratio"
    }


def main() -> int:
    problems = []
    for workload in WORKLOADS:
        results = {
            "untraced": run(workload, "0"),
            "traced-1": run(workload, "1"),
            "traced-2": run(workload, "1"),
        }
        for label, result in results.items():
            if result["failed"]:
                problems.append(f"{workload} {label}: {result['failed']} operations failed")
            if not result["correct"]:
                problems.append(f"{workload} {label}: a correctness check failed")
        first, second = results["traced-1"], results["traced-2"]
        if first["attempted"] != second["attempted"]:
            problems.append(
                f"{workload}: traced runs attempted {first['attempted']} "
                f"and {second['attempted']} operations"
            )
        differing = {
            name: (value, counts(second).get(name))
            for name, value in counts(first).items()
            if counts(second).get(name) != value
        }
        if differing:
            problems.append(f"{workload}: per-layer counts differ: {differing}")
        print(f"{workload}: attempted {first['attempted']}, "
              f"{len(counts(first))} per-layer counts compared", flush=True)
    for problem in problems:
        print("FAIL " + problem)
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
