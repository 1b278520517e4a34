"""Traced-run recorder: spans and counters around skewalg's public functions.

`Recorder.install()` rebinds each traced function in every skewalg module that
refers to it (and traced methods on their classes), so the program's own
calls go through the recorder; nothing under src/ changes. Three kinds of
wrapper:

* span: one record per call (name, start, end, parent, task), for functions
  called a few thousand times per task at most;
* hot: a call counter plus total time, for functions called millions of
  times (`Algebra.mul_sparse`, `Algebra.mul_coords`); their time is charged
  to the enclosing span as covered child time;
* count: a call counter only (`canonicalize`, which recurses, and
  `Component.evaluate_on_basis`, whose time is mostly `mul_sparse`).

Each task is a root span `task.<kind>`; every span records the id of the
task it ran in. Spans stay in memory; `write_spans` writes them out when the
run ends.
A layer's self time is the duration of its spans minus the part their
child spans and hot calls cover, plus the total time of its hot calls.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

SPANS = {
    "cli": ["main"],
    "formats": [
        "parse_algebra_file", "emit_algebra", "emit_construction",
        "parse_construction_file", "parse_identities_file", "parse_assignments",
    ],
    "identities": ["classify", "check_identity", "polarize", "parse_identity"],
    "algebra": [
        "center", "product_space", "lie_center", "jacobian_ideal",
        "derived_series", "lower_central_series", "subalgebra_generated",
        "ideal_generated", "restrict", "Subspace.from_vectors",
    ],
    "linalg": ["rref_rows", "null_space", "invert_rows", "span_membership"],
    "freealg": [
        "build_free_quotient", "FreeQuotient.self_check", "evaluate_word",
        "expand_evaluate", "relation_combination", "conjecture_certificate",
    ],
    "construction": [
        "decompose", "build_from_construction", "derivations", "inner_derivations",
    ],
    "moufang": ["moufang_check", "render_moufang", "run_conjecture"],
}
HOT = {"algebra": ["Algebra.mul_sparse", "Algebra.mul_coords"]}
COUNT = {"freealg": ["canonicalize"], "identities": ["Component.evaluate_on_basis"]}

# layers with a `<layer>.self_s` metric; the cli layer's is cli.main.self_s
LAYERS = ("formats", "identities", "algebra", "linalg", "freealg", "construction", "moufang")

# span / counter names that per-layer metrics read
_SHORT = {
    "Subspace.from_vectors": "subspace",
    "FreeQuotient.self_check": "self_check",
    "build_free_quotient": "build",
    "Algebra.mul_sparse": "mul_sparse",
    "Algebra.mul_coords": "mul_coords",
    "Component.evaluate_on_basis": "evals",
}


class _Span:
    __slots__ = ("id", "parent", "task", "name", "start", "end", "covered")

    def __init__(self, sid, parent, task, name, start):
        self.id, self.parent, self.task, self.name = sid, parent, task, name
        self.start, self.end, self.covered = start, None, 0.0


class Recorder:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = defaultdict(int)
        self.hot_time = defaultdict(float)
        self.task = None
        self.required_evals = 0
        self.rows_in = 0
        self.rank = 0
        self.free_rank = 0
        self.free_dim = 0
        self._undo = []

    # --- wrappers ----------------------------------------------------------

    def _span(self, name, fn):
        stack, spans = self.stack, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            rec = _Span(len(spans), parent.id if parent else None, self.task, name, perf_counter())
            spans.append(rec)
            stack.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.end = perf_counter()
                stack.pop()
                if parent is not None:
                    parent.covered += rec.end - rec.start

        return wrapper

    def _hot(self, name, fn):
        stack, counts, hot_time = self.stack, self.counts, self.hot_time

        @functools.wraps(fn)
        def wrapper(*args):
            t0 = perf_counter()
            try:
                return fn(*args)
            finally:
                dt = perf_counter() - t0
                counts[name] += 1
                hot_time[name] += dt
                if stack:
                    stack[-1].covered += dt

        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _observe(self, name, fn, after):
        """Span wrapper that also passes (args, result) to `after`."""

        def inner(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(args, result)
            return result

        return self._span(name, functools.wraps(fn)(inner))

    def _after_rref(self, args, result):
        self.rows_in += len(args[0])
        self.rank += len(result[1])

    def _after_build(self, args, F):
        self.free_rank += sum(len(rows) for rows in F.relations_rref)
        self.free_dim += sum(F.dims())

    def _check_identity(self, name, fn, polarize, count_evaluations):
        """check_identity span that also sums the evaluations it must do, as
        the program counts them."""

        def inner(A, idf, *args, **kwargs):
            self.required_evals += count_evaluations(A, polarize(idf))
            return fn(A, idf, *args, **kwargs)

        return self._span(name, functools.wraps(fn)(inner))

    # --- installation ------------------------------------------------------

    def install(self):
        """Rebind the traced functions in every loaded skewalg module."""
        mods = {
            name.split(".")[1]: mod
            for name, mod in sys.modules.items()
            if name.startswith("skewalg.") and mod is not None
        }
        ids = mods["identities"]
        # taken before polarize is rebound, so the count records no span
        polarize, count = ids.polarize, ids._count_evaluations
        special = {
            "rref_rows": lambda n, f: self._observe(n, f, self._after_rref),
            "build_free_quotient": lambda n, f: self._observe(n, f, self._after_build),
            "check_identity": lambda n, f: self._check_identity(n, f, polarize, count),
        }
        for table, make in ((SPANS, self._span), (HOT, self._hot), (COUNT, self._count)):
            for layer, names in table.items():
                for qual in names:
                    name = f"{layer}.{_SHORT.get(qual, qual)}"
                    self._rebind(mods, layer, qual, name, special.get(qual, make))

    def _rebind(self, mods, layer, qual, name, make):
        home = mods[layer]
        if "." in qual:
            cls_name, attr = qual.split(".")
            cls = getattr(home, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(make(name, raw.__func__))
            else:
                new = make(name, raw)
            self._undo.append((cls, attr, raw))
            setattr(cls, attr, new)
            return
        orig = getattr(home, qual)
        new = make(name, orig)
        for mod in mods.values():
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._undo.append((mod, key, orig))
                    setattr(mod, key, new)

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # --- tasks -------------------------------------------------------------

    def begin_task(self, tid, kind):
        """Open the root span `task.<kind>`; spans until end_task carry tid."""
        self.task = tid
        rec = _Span(len(self.spans), None, tid, f"task.{kind}", perf_counter())
        self.spans.append(rec)
        self.stack.append(rec)

    def end_task(self):
        self.stack.pop().end = perf_counter()
        self.task = None

    # --- results -----------------------------------------------------------

    def busy(self, *names):
        return sum(s.end - s.start for s in self.spans if s.name in names)

    def metrics(self):
        """Every per-layer metric, keyed by name: (value, unit)."""
        counts, hot = self.counts, self.hot_time
        calls = defaultdict(int)
        self_time = defaultdict(float)
        for s in self.spans:
            calls[s.name] += 1
            self_time[s.name.split(".")[0]] += (s.end - s.start) - s.covered
        for name, t in hot.items():
            self_time[name.split(".")[0]] += t
        check_busy = self.busy("identities.check_identity")
        evals = counts["identities.evals"]
        moufang_tasks = {s.task for s in self.spans if s.name == "task.moufang"}
        moufang_time = self.busy("task.moufang")
        moufang_classify = sum(
            s.end - s.start for s in self.spans
            if s.name == "identities.classify" and s.task in moufang_tasks
        )
        m = {
            "identities.check_identity.calls": (calls["identities.check_identity"], "count"),
            "identities.check_identity.busy_s": (check_busy, "s"),
            "identities.classify.busy_s": (self.busy("identities.classify"), "s"),
            "identities.evals": (evals, "count"),
            "identities.evals_per_s": (evals / check_busy if check_busy else 0.0, "1/s"),
            "identities.evals_done_ratio": (
                evals / self.required_evals if self.required_evals else 0.0, "ratio"),
            "identities.polarize.calls": (calls["identities.polarize"], "count"),
            "algebra.mul_sparse.calls": (counts["algebra.mul_sparse"], "count"),
            "algebra.mul_sparse.busy_s": (hot["algebra.mul_sparse"], "s"),
            "algebra.mul_coords.calls": (counts["algebra.mul_coords"], "count"),
            "algebra.mul_coords.busy_s": (hot["algebra.mul_coords"], "s"),
            "algebra.subspace.calls": (calls["algebra.subspace"], "count"),
            "algebra.lie_center.busy_s": (self.busy("algebra.lie_center"), "s"),
            "algebra.jacobian_ideal.busy_s": (self.busy("algebra.jacobian_ideal"), "s"),
            "algebra.series.busy_s": (
                self.busy("algebra.derived_series", "algebra.lower_central_series"), "s"),
            "linalg.rref_rows.calls": (calls["linalg.rref_rows"], "count"),
            "linalg.rref_rows.busy_s": (self.busy("linalg.rref_rows"), "s"),
            "linalg.rref_rows.rows_in": (self.rows_in, "count"),
            "linalg.rref_rows.rank_ratio": (self.rank / self.rows_in if self.rows_in else 0.0, "ratio"),
            "linalg.null_space.calls": (calls["linalg.null_space"], "count"),
            "freealg.build.busy_s": (
                self.busy("freealg.build") - self.busy("freealg.self_check"), "s"),
            "freealg.self_check.busy_s": (self.busy("freealg.self_check"), "s"),
            "freealg.canonicalize.calls": (counts["freealg.canonicalize"], "count"),
            "freealg.rank": (self.free_rank, "count"),
            "freealg.quotient_dim": (self.free_dim, "count"),
            "freealg.evaluate_word.busy_s": (self.busy("freealg.evaluate_word"), "s"),
            "freealg.relation_combination.busy_s": (self.busy("freealg.relation_combination"), "s"),
            "construction.decompose.busy_s": (self.busy("construction.decompose"), "s"),
            "construction.build_from_construction.busy_s": (
                self.busy("construction.build_from_construction"), "s"),
            "moufang.moufang_check.busy_s": (self.busy("moufang.moufang_check"), "s"),
            "moufang.run_conjecture.busy_s": (self.busy("moufang.run_conjecture"), "s"),
            "moufang.classify_share": (
                moufang_classify / moufang_time if moufang_time else 0.0, "ratio"),
            "formats.parse_algebra_file.busy_s": (self.busy("formats.parse_algebra_file"), "s"),
            "formats.emit.busy_s": (
                self.busy("formats.emit_algebra", "formats.emit_construction"), "s"),
            "cli.main.self_s": (
                sum((s.end - s.start) - s.covered for s in self.spans if s.name == "cli.main"), "s"),
            "trace.spans": (len(self.spans), "count"),
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = (self_time[layer], "s")
        return m

    def write_spans(self, path):
        """One JSON object per line: id, parent, task, name, start, end (s)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "parent": s.parent, "task": s.task, "name": s.name,
                    "start": s.start, "end": s.end,
                }) + "\n")
