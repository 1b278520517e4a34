"""Every report the benchmark can ask for is byte-identical to the recorded
one: each task of `workloads.universe` runs through `skewalg.cli.main`, and
its exit code and report SHA-256 must match `perfbench/golden.json`, with
the workload's known answers checked too."""

import json
import sys
from pathlib import Path

import pytest

import skewalg.cli  # noqa: F401  (the runner calls main through sys.modules)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import run  # noqa: E402
import workloads  # noqa: E402

GOLDEN = json.loads((PERFBENCH / "golden.json").read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_drawable_report_matches_golden(workload, tmp_path, monkeypatch):
    # reports echo input paths, which run.workdir_for keeps relative
    monkeypatch.chdir(tmp_path)
    runner = run.Runner(GOLDEN[workload])
    problems = {}
    seen = 0
    for group in workloads.universe(workload, run.workdir_for(workload)):
        for task in group:
            seen += 1
            _, problem = runner.run(task)
            if problem is not None:
                problems[task.id] = problem
    assert problems == {}
    assert seen >= len(GOLDEN[workload])
