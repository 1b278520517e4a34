"""skewalg benchmark: CLI tasks run in-process through `skewalg.cli.main`.

    python3 perfbench/run.py --workload {members,free,spaces} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from its `src/`.
One process and one thread per run, a closed loop: each task starts when the
previous one has been checked. The run re-executes itself with string-hash
randomization off (HASH_SEED), so that every run hashes alike.

A run is a series of passes. Each pass starts with a timed set-up, which
imports skewalg afresh and writes the seed's input files under
perfbench/work/ (`setup_s` is the median over the run's set-ups), and then
runs every task of the seed once, in a new seeded order. A run makes at
least three passes and stops before a pass that would end further past
`--seconds` than it would start before it. A short fixed piece of work,
speed_probe, runs between tasks; a task's wall time divided by the probe's
slowdown around it, against its time on a quiet machine (REF_PROBE_S), is
the task's scaled time. Each task is timed by its median scaled time over
the passes: tasks_per_s is the pass's task count over the sum of those
times, task_p50_ms their median, and task_tail_ms the one with ten tasks of
the pass above it; the same figures from unscaled wall times are printed as
information. Whole passes keep the task mix identical across runs of one
seed and close across seeds (see workloads.py).

Every task is checked: its exit code and the SHA-256 of its report must
match golden.json (recorded by record_golden.py when the benchmark was
defined), and known answers are checked where they exist (Witt and
anticommutative dims, the w/v dims 75/76, memberships, the moufang
conclusion, decompose/construct round trips, the conjecture verdict). An
exception escaping `main()` is caught and counted as a failed task.

--trace 0 reports the end-to-end metrics; --trace 1 runs one untraced pass,
then the same pass under tracer.Recorder, and reports the per-layer metrics
and the tracing overhead. The last stdout line is the JSON result; a
machine-readable record with the Python version and CPU count goes to
perfbench/out/. The in-program --stats channel and relation-row counts (rows
generated and deduplicated) are not measured here.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

TAIL_BEYOND = 10  # tasks of a pass above the reported tail percentile
MIN_PASSES = 3  # samples of each task's time, for their median
HARD_STOP_S = 150  # no pass starts after this, so a run ends within 180 s
# String hashing is randomized per process by default, and the hash order
# changes the cost of some tasks: invariants on a dim-12 random algebra of
# density 0.2 took 95 ms under one hash seed and 155 ms under another, on the
# same machine state. Every run therefore uses "0", which turns the randomization off.
HASH_SEED = "0"
# speed_probe: PROBE_STEPS steps take about REF_PROBE_S on a quiet 2-core VM
# (Python 3.11), the machine the benchmark was defined on, so scaled times
# read as wall times there.
PROBE_STEPS = 750
REF_PROBE_S = 0.005
PROBE_EVERY_S = 0.2
MODULES = (
    "linalg", "algebra", "identities", "construction", "formats", "catalog",
    "reports", "freealg", "moufang", "cli",
)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _purge_skewalg():
    for name in list(sys.modules):
        if name == "skewalg" or name.startswith("skewalg."):
            del sys.modules[name]


def workdir_for(workload: str) -> Path:
    """Input directory, relative to the checkout root (reports echo it)."""
    return Path(HERE.name) / "work" / workload


def setup(workload: str, seed: int):
    """Import skewalg afresh and write the inputs; return (seconds, groups)."""
    workdir = workdir_for(workload)
    shutil.rmtree(workdir, ignore_errors=True)
    _purge_skewalg()
    t0 = perf_counter()
    for mod in MODULES:
        importlib.import_module(f"skewalg.{mod}")
    groups = workloads.generate(workload, seed, workdir)
    return perf_counter() - t0, groups


class Runner:
    """Runs one task through `skewalg.cli.main` and checks its report."""

    def __init__(self, golden, recorder=None):
        self.golden = golden
        self.recorder = recorder

    def call(self, task):
        """(seconds, report, exit code or None, exception text or None)."""
        main = sys.modules["skewalg.cli"].main
        out = io.StringIO()
        rec = self.recorder
        if rec is not None:
            rec.begin_task(task.id, task.kind)
        error = None
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                rc = main(list(task.argv))
        except Exception as exc:  # a traceback the CLI let through: count it
            rc = None
            error = f"{type(exc).__name__}: {exc}"
        dt = perf_counter() - t0
        if rec is not None:
            rec.end_task()
        text = out.getvalue()
        if task.save_to is not None:
            task.save_to.write_text(text)
        return dt, text, rc, error

    def run(self, task):
        """(seconds, problem text or None)."""
        dt, text, rc, error = self.call(task)
        if error is not None:
            return dt, f"exception escaped main(): {error}"
        want = self.golden.get(task.id)
        if want is None:
            return dt, "no recorded digest for this task"
        if rc != want[0]:
            return dt, f"exit {rc}, recorded {want[0]}"
        if digest(text) != want[1]:
            return dt, "report differs from the recorded digest"
        if task.check is not None:
            return dt, task.check(text, rc)
        return dt, None


def ordered(groups, rng):
    return [task for group in rng.sample(groups, len(groups)) for task in group]


def order_rng(workload, seed):
    return random.Random(f"order-{workload}-{seed}")


def speed_probe():
    """Seconds taken by a fixed piece of pure-Python work in the program's
    style: Fraction arithmetic, summed in a dict keyed by tuples."""
    t0 = perf_counter()
    acc, x = {}, Fraction(1, 3)
    for i in range(PROBE_STEPS):
        x = x * Fraction(i % 7 + 1, i % 5 + 2) + Fraction(1, i % 11 + 1)
        if x.denominator > 10**6:
            x = Fraction(x.numerator % 97 + 1, x.denominator % 89 + 1)
        key = (i % 13, i % 17)
        acc[key] = acc.get(key, 0) + x
    return perf_counter() - t0


def run_pass(runner, tasks, times, failures):
    """Run tasks in order; append (wall time, slowdown) to times[task.id].

    speed_probe runs before the first task, after each PROBE_EVERY_S of task
    time and after the last task. A task's slowdown is the median of the
    probe before it, the one before that and the one after it, over
    REF_PROBE_S. Returns the median slowdown of the pass."""
    probes, walls, since = [], [], PROBE_EVERY_S
    for task in tasks:
        if since >= PROBE_EVERY_S:
            probes.append(speed_probe())
            since = 0.0
        dt, problem = runner.run(task)
        since += dt
        walls.append((task.id, dt, len(probes) - 1))
        if problem is not None:
            failures.append({"task": task.id, "problem": problem})
    probes.append(speed_probe())
    for tid, dt, j in walls:
        slowdown = statistics.median(probes[max(j - 1, 0):j + 2]) / REF_PROBE_S
        times.setdefault(tid, []).append((dt, slowdown))
    return statistics.median(probes) / REF_PROBE_S


def timed_phase(workload, seed, golden, seconds):
    """At least MIN_PASSES passes, each after its own set-up; then stop
    before a pass that would end further past `seconds` than it would start
    before it. Returns each task's (wall time, slowdown) pairs, one per pass,
    the failures, the set-up times, the passes' slowdowns and the phase's
    wall time."""
    runner = Runner(golden)
    rng = order_rng(workload, seed)
    times, failures, setups, slowdowns = {}, [], [], []
    start = perf_counter()
    while True:
        setup_s, groups = setup(workload, seed)
        setups.append(setup_s)
        slowdowns.append(run_pass(runner, ordered(groups, rng), times, failures))
        elapsed = perf_counter() - start
        if len(slowdowns) >= MIN_PASSES and elapsed + 0.5 * elapsed / len(slowdowns) >= seconds:
            break
        if elapsed >= HARD_STOP_S:
            break
    return times, failures, setups, slowdowns, perf_counter() - start


def task_stats(per_task):
    """(tasks_per_s, p50 s, tail s, tail task id, tail rank) from one time per task."""
    order = sorted(per_task, key=per_task.get)
    typical = [per_task[tid] for tid in order]
    tail_rank = max(len(typical) - TAIL_BEYOND, 1)
    return (
        len(typical) / sum(typical), statistics.median(typical),
        typical[tail_rank - 1], order[tail_rank - 1], tail_rank,
    )


def end_to_end(workload, seed, golden, seconds):
    """Each task is timed by its median scaled time over the run's passes:
    its wall time in a pass divided by its slowdown there. Contention from
    other tenants only adds time, and on a shared 2-core machine it came both
    in stretches of minutes and in switches within a second: the same
    members pass took 4.7 s to 5.8 s in one stretch and 7.5 s to 9.1 s in
    another, while a Fraction loop like speed_probe took 10 ms in the first
    and 16 ms to 21 ms in the second. Over six runs of each workload, the
    spread of every metric between runs was smaller with the median of the
    scaled times than with their minimum or with unscaled times. Set-ups are
    scaled by the median slowdown of the pass they start."""
    times, failures, setups, slowdowns, wall = timed_phase(workload, seed, golden, seconds)
    scaled = {tid: statistics.median(t / s for t, s in runs) for tid, runs in times.items()}
    per_s, p50, tail, tail_task, tail_rank = task_stats(scaled)
    wall_per_s, wall_p50, wall_tail, _, _ = task_stats(
        {tid: statistics.median(t for t, _ in runs) for tid, runs in times.items()})
    attempted = sum(len(ts) for ts in times.values())
    metrics = {
        "setup_s": (statistics.median(s / d for s, d in zip(setups, slowdowns)), "s"),
        "tasks_per_s": (per_s, "1/s"),
        "task_p50_ms": (p50 * 1e3, "ms"),
        "task_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    info = {
        "passes": len(setups),
        "slowdowns": slowdowns,
        "setups_s": setups,
        "tasks_per_pass": len(scaled),
        "task_samples": attempted,
        "tail_percentile": round(100 * tail_rank / len(scaled), 2),
        "tail_task": tail_task,
        "unscaled_tasks_per_s": wall_per_s,
        "unscaled_task_p50_ms": wall_p50 * 1e3,
        "unscaled_task_tail_ms": wall_tail * 1e3,
        "timed_wall_s": wall,
        "wall_tasks_per_s": attempted / wall,
        "fail_frac": len(failures) / attempted,
    }
    return attempted, failures, metrics, info


def traced(workload, seed, golden):
    """One untraced pass, then the same pass traced, each after a set-up."""
    import tracer

    times, failures = {}, []
    _, groups = setup(workload, seed)
    tasks = ordered(groups, order_rng(workload, seed))
    t0 = perf_counter()
    run_pass(Runner(golden), tasks, times, failures)
    plain = perf_counter() - t0
    _, groups = setup(workload, seed)
    tasks = ordered(groups, order_rng(workload, seed))
    rec = tracer.Recorder()
    rec.install()
    try:
        t0 = perf_counter()
        run_pass(Runner(golden, rec), tasks, times, failures)
        with_trace = perf_counter() - t0
    finally:
        rec.uninstall()
    metrics = rec.metrics()
    metrics["trace.overhead_frac"] = (with_trace / plain - 1, "ratio")
    spans_path = HERE / "out" / f"spans_{workload}_seed{seed}.jsonl"
    rec.write_spans(spans_path)
    info = {
        "tasks_per_pass": len(tasks),
        "untraced_pass_s": plain,
        "traced_pass_s": with_trace,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "fail_frac": len(failures) / (2 * len(tasks)),
    }
    return 2 * len(tasks), failures, metrics, info


def environment():
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": usable,
        "cpu_count": os.cpu_count(),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "skewalg" / "cli.py").is_file():
        print(f"error: no skewalg sources under {src}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(src))
    golden = json.loads((HERE / "golden.json").read_text())[args.workload]
    if args.trace:
        attempted, failures, metrics, info = traced(args.workload, args.seed, golden)
    else:
        attempted, failures, metrics, info = end_to_end(args.workload, args.seed, golden, args.seconds)
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    for key, value in info.items():
        print(f"# {key}: {value}")
    for f in failures[:20]:
        print(f"# FAILED {f['task']}: {f['problem']}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "info": info,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    out = HERE / "out" / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable, __file__, *sys.argv[1:]],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    sys.exit(main())
