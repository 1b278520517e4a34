"""Seeded input generator and task lists for the three benchmark workloads.

Each workload is described once, as a list of task groups. A group is a list
of slots, and a slot a list of alternatives, each a list of tasks that run in
order (decompose before construct). `generate(workload, seed, workdir)` writes
the input files and picks one alternative per slot with the seed: that is the
seed's pass. `universe(workload, workdir)` takes every alternative, so that
`record_golden.py` can store the exit code and SHA-256 digest of every report
a seed can ask for. The program under test sees only the written files,
through `skewalg.cli.main`.

Slots hold alternatives only where the draw barely moves the cost of a pass:
the conjecture form, --eval words on the costlier free cells, which of three
tasks of equal cost leads a member's group (classify, or moufang on one of
two triples) and small random algebras. Passes of two seeds then do about
the same work, so metrics from runs on different seeds are comparable.

skewalg is imported inside the functions, never at module level: `run.py`
re-imports the package for every timed set-up.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

WORKLOADS = ("members", "free", "spaces")


@dataclass
class Task:
    """One CLI call: `main(argv)`, checked against the recorded report digest.

    `check(stdout, rc)` returns an error text when a known answer is violated.
    `save_to` receives the report, for a later task of the same group.
    """

    id: str
    argv: list
    kind: str
    check: Callable[[str, int], str | None] | None = None
    save_to: Path | None = None


def fixed(*tasks):
    """A slot with one alternative: all the tasks, in order."""
    return [list(tasks)]


def choice(*tasks):
    """A slot whose alternatives are single tasks."""
    return [[task] for task in tasks]


def _write(path: Path, text: str) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


def _expect_rc(want):
    def check(out, rc):
        return None if rc == want else f"exit {rc}, expected {want}"

    return check


def _expect_lines(rc_want, *needles):
    def check(out, rc):
        if rc != rc_want:
            return f"exit {rc}, expected {rc_want}"
        lines = out.splitlines()
        for needle in needles:
            if needle not in lines:
                return f"missing line {needle!r}"
        return None

    return check


# --- members: the seeded random_w_algebra suite over the Lie catalog ---------

# Members s = 0..20 of the criterion 3/4/5 suite (random_w_algebra over
# lie_catalog()[s % 7] with p_dim 1 + s % 3): every Lie base with every p_dim.
# Every pass runs all of them: classify costs 0.3 s to 1.3 s between members
# of one shape, so drawing members by seed made tasks_per_s differ by up to
# 25% between seeds.
MEMBERS = range(21)
TRIPLES_PER_MEMBER = 2
CHECK_VARIETIES = ("w", "v", "binary-lie")


def _member(s):
    from skewalg.catalog import lie_catalog
    from skewalg.construction import random_w_algebra

    entries = lie_catalog()
    L = entries[s % len(entries)].algebra
    return random_w_algebra(L, p_dim=1 + s % 3, seed=s)


def _triple_texts(B, s):
    from skewalg.moufang import sample_null_triples

    triples = sample_null_triples(B, random.Random(1000 + s), TRIPLES_PER_MEMBER)
    return ["; ".join(f"{k} = {x}" for k, x in zip(("x1", "x2", "x3"), t)) for t in triples]


def _construct_check(B):
    """The construct report reproduces B's structure constants exactly."""
    from skewalg.formats import parse_algebra_file

    def check(out, rc):
        if rc != 0:
            return f"exit {rc}, expected 0"
        try:
            rebuilt = parse_algebra_file(out)
            cols = [B.basis_names.index(nm) for nm in rebuilt.basis_names]
        except ValueError as exc:
            return f"unreadable construct output: {exc}"
        if rebuilt.dim != B.dim:
            return "construct changed the dimension"
        n = B.dim
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(n):
                    if rebuilt.c(i, j, k) != B.c(cols[i], cols[j], cols[k]):
                        return "construct does not reproduce the structure constants"
        return None

    return check


_MEMBER_CLASSIFY = _expect_lines(0, "w: holds", "v: holds", "binary-lie: holds")
_MEMBER_MOUFANG = _expect_lines(0, "holds: yes", "Jacobi on generated subalgebra: holds")


def _member_group(workdir, s, B):
    """Member s: classify or moufang on one of its triples (moufang runs a
    full classify, so the leads cost about the same), then check on every
    variety, invariants, decompose and construct. The checks are not drawn:
    they cost 5 ms to 10 ms, where task_p50_ms falls, and a drawn variety
    moved the median between seeds."""
    from skewalg.formats import emit_algebra

    f = _write(workdir / f"m{s:03d}.alg", emit_algebra(B)).as_posix()
    tag = f"members/m{s:03d}"
    cons = workdir / f"m{s:03d}.cons"
    lead = [Task(f"{tag}/classify", ["classify", f], "classify", _MEMBER_CLASSIFY)]
    for t, el in enumerate(_triple_texts(B, s)):
        lead.append(Task(
            f"{tag}/moufang/t{t}", ["moufang", f, "--elements", el], "moufang",
            _MEMBER_MOUFANG,
        ))
    checks = [
        Task(
            f"{tag}/check/{v}", ["check", f, "--variety", v], "check",
            _expect_lines(0, "x*x = 0: holds"),
        )
        for v in CHECK_VARIETIES
    ]
    return [
        choice(*lead),
        fixed(
            *checks,
            Task(f"{tag}/invariants", ["invariants", f], "invariants", _expect_rc(0)),
            Task(f"{tag}/decompose", ["decompose", f], "decompose", _expect_rc(0), save_to=cons),
            Task(f"{tag}/construct", ["construct", cons.as_posix()], "construct", _construct_check(B)),
        ),
    ]


def _catalog_group(workdir, idx, entry):
    """classify, invariants and check w on a catalog entry; answers recorded."""
    from skewalg.formats import emit_algebra

    path = _write(workdir / f"c{idx:02d}.alg", emit_algebra(entry.algebra, pairs=entry.display_pairs))
    f = path.as_posix()
    tag = f"members/c{idx:02d}"
    return [fixed(
        Task(f"{tag}/classify", ["classify", f], "classify"),
        Task(f"{tag}/invariants", ["invariants", f], "invariants", _expect_rc(0)),
        Task(f"{tag}/check/w", ["check", f, "--variety", "w"], "check"),
    )]


def _members(workdir):
    from skewalg.catalog import iter_catalog

    groups = [_catalog_group(workdir, idx, e) for idx, e in enumerate(iter_catalog())]
    return groups + [_member_group(workdir, s, _member(s)) for s in MEMBERS]


# --- free: truncated free algebras ------------------------------------------

ANTI = "anti"  # the identities file "x*x = 0", not a builtin variety
FREE_VARIETIES = ("lie", "malcev", "binary-lie", "w", "v", "lam", "alam", ANTI)

# Cells (variety, generators, degree); every pass runs the same cells, so two
# seeds' passes cost about the same (drawing whole cells by seed made
# tasks_per_s and the tail differ by 10-20% between seeds). Cheap cells
# (under 0.25 s each when the benchmark was defined, build plus self-check)
# take their --eval word and --extra-relation in turn, the same for every
# seed: task_p50_ms falls among them, where tasks are sparse, and drawing
# them moved the median by up to half between seeds. The costlier cells
# (0.3 s to 0.8 s) run with a seeded --eval word; there are enough of them that
# the ten costliest tasks of a pass, and the one that sets task_tail_ms, are
# all costly cells or conjecture, never a cheap cell. w and v at 4 5 carry the
# 75 against 76 degree-4 dims. The other cells at 3 6, 4 5, 3 7 and 4 6 (0.6 s
# to 10 s each) stay out, so that a pass stays near 8 s.
FREE_CHEAP = [(v, g, d) for v in FREE_VARIETIES for g, d in ((2, 6), (2, 7), (3, 5))]
FREE_COSTLY = [
    ("lie", 3, 6), ("w", 3, 6), ("v", 3, 6), ("lam", 3, 6), ("binary-lie", 3, 6),
    ("lie", 4, 5), ("w", 4, 5), ("v", 4, 5), ("lam", 4, 5), ("malcev", 4, 5),
    (ANTI, 3, 7), (ANTI, 4, 6),
]


def _eval_words(g, d):
    if g == 2:
        words = ["J(a,b,a*b)", "(a*b)*((a*b)*a)"]
    else:
        words = ["J(a,b,a*c)", "J(a,b,c)*a"]
    if g >= 3 and d >= 6:
        words[1] = "J(a,b,(a*b)*(a*c))"
    return words


def _extra_relation(g):
    return "J(a,b,a*b)" if g == 2 else "J(a,b,c)"


def _witt(g, d):
    def mobius(n):
        result, p = 1, 2
        while p * p <= n:
            if n % p == 0:
                n //= p
                if n % p == 0:
                    return 0
                result = -result
            p += 1
        return -result if n > 1 else result

    return sum(mobius(e) * g ** (d // e) for e in range(1, d + 1) if d % e == 0) // d


def _anticommutative_dims(g, max_degree):
    dims = [g]
    for d in range(2, max_degree + 1):
        total = 0
        for i in range(1, d // 2 + 1):
            j = d - i
            a = dims[i - 1]
            total += a * dims[j - 1] if i < j else a * (a - 1) // 2
        dims.append(total)
    return dims


# dims of the free v-algebra on 3 generators, degrees 1 to 8
V3_DIMS = [3, 3, 9, 21, 54, 126, 327, 831]


def _free_dims_check(variety, g, d, extra):
    """Known dims: Witt for lie, the anticommutative count, w/v at g=4 deg 4."""
    want = {}
    if extra is None:
        if variety == "lie":
            want = {k: _witt(g, k) for k in range(1, d + 1)}
        elif variety == ANTI:
            want = dict(enumerate(_anticommutative_dims(g, d), start=1))
        elif variety == "v" and g == 3:
            want = dict(enumerate(V3_DIMS[:d], start=1))
        if g == 4 and variety in ("w", "v") and d >= 4:
            want[4] = 75 if variety == "w" else 76

    def check(out, rc):
        if rc != 0:
            return f"exit {rc}, expected 0"
        dims_line = next((ln for ln in out.splitlines() if ln.startswith("dims: ")), None)
        if dims_line is None:
            return "no dims line"
        if want:
            got = dict(p.split(": ") for p in dims_line[len("dims: "):].split(", "))
            for k, n in want.items():
                if got.get(str(k)) != str(n):
                    return f"dim {k} is {got.get(str(k))}, expected {n}"
        return None

    return check


def _free_task(workdir, variety, g, d, word, extra):
    if variety == ANTI:
        ids = workdir / "anti.txt"
        if not ids.exists():
            _write(ids, "x*x = 0\n")
        argv = ["free", "--identities", ids.as_posix()]
    else:
        argv = ["free", "--variety", variety]
    argv += ["--generators", str(g), "--max-degree", str(d)]
    if extra is not None:
        argv += ["--extra-relation", extra]
    if word is not None:
        argv += ["--eval", word]
    tid = f"free/{variety}/{g}/{d}/eval={word or '-'}/extra={extra or '-'}"
    return Task(tid, argv, "free", _free_dims_check(variety, g, d, extra))


_CONJECTURE = _expect_lines(0, "verdict: zero", "routes agree: yes")


_CONJECTURE_TASKS = (
    Task("free/conjecture", ["conjecture"], "conjecture", _CONJECTURE),
    Task(
        "free/conjecture/variant", ["conjecture", "--variant-generators"],
        "conjecture", _CONJECTURE,
    ),
)


def _free(workdir):
    # the two conjecture forms cost the same (about 1.1 s)
    groups = [[choice(*_CONJECTURE_TASKS)]]
    for i, (v, g, d) in enumerate(FREE_CHEAP):
        words = [None] + _eval_words(g, d)
        variants = [(word, extra) for extra in (None, _extra_relation(g)) for word in words]
        groups.append([fixed(_free_task(workdir, v, g, d, *variants[i % len(variants)]))])
    for v, g, d in FREE_COSTLY:
        groups.append([choice(*(
            _free_task(workdir, v, g, d, word, None) for word in [None] + _eval_words(g, d)
        ))])
    return groups


# --- spaces: sparse free quotients and dense random rational algebras -------

# (variety, generators, degree, J holds): exported dims 14, 15, 19, 23, 23,
# 36. On two generators v agrees with Lie through degree 6 (Witt dims 2, 1, 2,
# 3, 6, 9), so J holds there; the anticommutative quotients and v on three
# generators (degree-3 dim 9 against Witt's 8) fail it.
QUOTIENTS = [
    ("lie", 2, 5, True), (ANTI, 3, 3, False), (ANTI, 2, 5, False),
    ("lie", 2, 6, True), ("v", 2, 6, True), ("v", 3, 4, False),
]
# Random rational algebras (dim, density, variant). The large ones (dim 12 to
# 16) are fixed: their invariants cost varies two- to threefold between
# variants (Fraction growth depends on the entries), which no single seed's
# draw averages out. For each density, each of RANDOM_DRAWS slots draws one
# dim-8 variant out of its own RANDOM_VARIANTS // RANDOM_DRAWS; densities stay
# at 0.3 and above there, where classify fails early (below, its cost varies
# twentyfold between variants). With the quotients, the fixed algebras give
# the eleven costliest tasks of a pass, each above every drawn task. The
# task that sets task_tail_ms is then, for every seed, invariants on the
# dim-12, density-0.4 algebra or the J check on the lie 2 6 quotient, which
# cost about the same, and the twelfth costs half as much. invariants on a
# dim-12, density-0.2 algebra was tried there and left out: its cost moved
# by up to a third with the tasks run before it in the same process. A pass
# takes 4 s to 7 s, so that a 30 s run times each task four to seven times.
RANDOM_FIXED = [(12, "0.4", 0), (12, "0.5", 0), (14, "0.3", 0), (14, "0.5", 0), (16, "0.2", 0)]
RANDOM_DENSITIES = ("0.3", "0.4", "0.5")
RANDOM_VARIANTS = 8
RANDOM_DRAWS = 2
J_IDENTITY = "J(x,y,z) = 0"


def quotient_algebra(variety, g, d):
    """The truncated free quotient as a concrete algebra, basis by degree."""
    from skewalg.algebra import Algebra
    from skewalg.freealg import build_free_quotient
    from skewalg.identities import get_variety

    ids = ["x*x = 0"] if variety == ANTI else get_variety(variety)
    F = build_free_quotient(ids, g, d)
    flat = [(deg, m) for deg in range(1, d + 1) for m in F.basis[deg]]
    names = [F.generators[m] if deg == 1 else f"e{i}" for i, (deg, m) in enumerate(flat)]
    index = {m: i for i, (_, m) in enumerate(flat)}
    products = {}
    for i, (di, mi) in enumerate(flat):
        for j in range(i + 1, len(flat)):
            dj, mj = flat[j]
            _, coords = F.product(di, {mi: 1}, dj, {mj: 1})
            if coords:
                products[(i, j)] = {index[m]: c for m, c in coords.items()}
    return Algebra(f"free-{variety}-{g}-{d}", names, products)


def random_algebra(n, density, variant):
    """Seeded random rational algebra: each pair i<j has a product with
    probability `density`, with up to three rational coefficients."""
    from skewalg.algebra import Algebra

    rng = random.Random(f"rand-{n}-{density}-{variant}")
    p = float(density)
    products = {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                row = {}
                for _ in range(rng.randint(1, 3)):
                    row[rng.randrange(n)] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                row = {k: c for k, c in row.items() if c}
                if row:
                    products[(i, j)] = row
    return Algebra(f"rand-{n}-{density}-{variant}", [f"e{k}" for k in range(n)], products)


def _quotient_group(workdir, variety, g, d, j_holds):
    from skewalg.formats import emit_algebra

    A = quotient_algebra(variety, g, d)
    path = _write(workdir / f"q-{variety}-{g}-{d}.alg", emit_algebra(A))
    f = path.as_posix()
    tag = f"spaces/q-{variety}-{g}-{d}"
    j_rc = 0 if j_holds else 1
    return [fixed(
        Task(f"{tag}/invariants", ["invariants", f], "invariants", _expect_lines(0, f"dim: {A.dim}")),
        Task(f"{tag}/check-J", ["check", f, "--identity", J_IDENTITY], "check", _expect_rc(j_rc)),
    )]


def _random_tasks(workdir, n, density, variant):
    from skewalg.formats import emit_algebra

    A = random_algebra(n, density, variant)
    path = _write(workdir / f"r-{n}-{density}-v{variant}.alg", emit_algebra(A))
    f = path.as_posix()
    tag = f"spaces/r-{n}-{density}-v{variant}"
    return [
        Task(f"{tag}/invariants", ["invariants", f], "invariants", _expect_lines(0, f"dim: {n}")),
        Task(f"{tag}/classify", ["classify", f], "classify", _expect_rc(0)),
    ]


def _spaces(workdir):
    groups = [_quotient_group(workdir, *q) for q in QUOTIENTS]
    groups += [[fixed(*_random_tasks(workdir, *r))] for r in RANDOM_FIXED]
    per_slot = RANDOM_VARIANTS // RANDOM_DRAWS
    for density in RANDOM_DENSITIES:
        for k in range(RANDOM_DRAWS):
            variants = range(k * per_slot, (k + 1) * per_slot)
            groups.append([[_random_tasks(workdir, 8, density, v) for v in variants]])
    return groups


_DESCRIBE = {"members": _members, "free": _free, "spaces": _spaces}


def generate(workload: str, seed: int, workdir: Path):
    """Write the workload's inputs under workdir; return the seed's pass as
    task groups, one alternative picked per slot.

    Task argv name files by workdir-based paths, and reports echo them, so
    workdir must be the same relative path in every run (run.workdir_for).
    """
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}-{seed}")
    return [
        [task for slot in group for task in rng.choice(slot)]
        for group in _DESCRIBE[workload](workdir)
    ]


def universe(workload: str, workdir: Path):
    """Every task any seed can draw, with its inputs written under workdir."""
    workdir.mkdir(parents=True, exist_ok=True)
    return [
        [task for slot in group for alt in slot for task in alt]
        for group in _DESCRIBE[workload](workdir)
    ]
