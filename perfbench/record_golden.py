"""Record golden.json: exit code and report SHA-256 for every task any seed
can draw (workloads.universe). Run from the root of a checkout, on the commit
whose reports are the reference:

    python3 perfbench/record_golden.py

Reports are meant to stay byte-identical, so golden.json is only re-recorded
when a change of report bytes is intended.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
import workloads


def record(workload):
    shutil.rmtree(run.workdir_for(workload), ignore_errors=True)
    runner = run.Runner({})
    entries = {}
    for group in workloads.universe(workload, run.workdir_for(workload)):
        for task in group:
            if task.id in entries:
                continue
            _, text, rc, error = runner.call(task)
            if error is not None:
                raise SystemExit(f"{task.id}: {error}")
            problem = task.check(text, rc) if task.check is not None else None
            if problem is not None:
                raise SystemExit(f"{task.id}: known answer violated: {problem}")
            entries[task.id] = [rc, run.digest(text)]
    return entries


def main():
    os.chdir(run.ROOT)
    sys.path.insert(0, str(run.ROOT / "src"))
    import skewalg.cli  # noqa: F401  (Runner calls it through sys.modules)
    golden = {}
    for workload in workloads.WORKLOADS:
        golden[workload] = record(workload)
        print(f"{workload}: {len(golden[workload])} reports", flush=True)
    (run.HERE / "golden.json").write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
