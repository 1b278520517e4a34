"""Run every workload once, each in a fresh process, and print its metrics.

    python3 perfbench/summary.py

Each run uses seed 1 and BENCHMARK.json's run_seconds. Prints, per workload,
every end-to-end metric with its unit, plus fail_frac (failed tasks / tasks
attempted, from the run's `failed` and `attempted`). Exits 1 if any run fails
or reports an incorrect output.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 1


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        proc = subprocess.run(
            [*spec["command"], "--workload", workload, "--seed", str(SEED),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: run failed (exit {proc.returncode})\n{proc.stderr}")
            status = 1
            continue
        result = json.loads(lines[-1])
        for name, m in result["metrics"].items():
            print(f"{workload:8s} {name:14s} {m['value']:12.6g} {m['unit']}")
        frac = result["failed"] / result["attempted"]
        print(f"{workload:8s} {'fail_frac':14s} {frac:12.6g} ratio"
              f"  ({result['failed']} of {result['attempted']} tasks)")
        if not result["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
