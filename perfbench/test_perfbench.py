"""Tests for the benchmark itself:  python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
GOLDEN = json.loads((HERE / "golden.json").read_text())


def _snapshot(workload, seed, where, monkeypatch):
    where.mkdir()
    monkeypatch.chdir(where)
    groups = workloads.generate(workload, seed, Path("inputs"))
    files = {
        p.as_posix(): p.read_bytes() for p in sorted(Path("inputs").rglob("*")) if p.is_file()
    }
    return [(t.id, t.argv) for group in groups for t in group], files


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload, tmp_path, monkeypatch):
    first = _snapshot(workload, 11, tmp_path / "a", monkeypatch)
    again = _snapshot(workload, 11, tmp_path / "b", monkeypatch)
    other = _snapshot(workload, 12, tmp_path / "c", monkeypatch)
    assert first == again
    assert first[0] != other[0]
    assert len(first[0]) == len(other[0])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_golden_covers_every_drawable_task(workload, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    every = {t.id for g in workloads.universe(workload, Path("inputs")) for t in g}
    assert every == set(GOLDEN[workload])
    drawn = {t.id for g in workloads.generate(workload, 7, Path("inputs")) for t in g}
    assert drawn <= every


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_has_no_failures(workload):
    result = _result(_run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0"))
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for spec in SPEC["end_to_end"]:
        got = result["metrics"][spec["name"]]
        assert got["unit"] == spec["unit"] and got["value"] > 0


def test_traced_runs_repeat_their_counts():
    runs = [
        _result(_run("--workload", "free", "--seed", "5", "--seconds", "1", "--trace", "1"))
        for _ in range(2)
    ]
    names = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for result in runs:
        assert result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    counts = [
        {k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count"} for r in runs
    ]
    assert counts[0] == counts[1]
    assert counts[0]["freealg.canonicalize.calls"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    dest = tmp_path / "perfbench"
    dest.mkdir()
    for name in ("run.py", "workloads.py", "tracer.py", "golden.json"):
        shutil.copy(HERE / name, dest)
    proc = _run("--workload", "members", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
