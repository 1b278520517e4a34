"""Fast routes against the direct implementations they replaced.

* The canonical-form identity checker against the raw-term exhaustive
  oracle: every sorted index tuple of every polarized variable group, in
  lexicographic order, evaluated on the raw polarized terms with no symmetry
  pruning and no shared results. The checker must reach the same verdict and
  report the same witness.
* The sparse echelon engine behind `rref_rows`, `null_space`, `invert_rows`
  and `span_membership` against dense `Fraction` Gauss-Jordan elimination:
  the same rows, pivots, kernels, inverses and coefficients.
* The Jacobian table `Algebra.jacobians()`, the one place that decides
  Jacobi on a basis, against `jacobian` on basis `Element`s, and
  `Algebra.iter_jacobians()`, its blocks in key order, on random sparse
  rational tables. `J(x,y,z) = 0`, which `check_identity` reads off the
  table's first key, against the search over every tuple and the raw-term
  exhaustive oracle: the same failing triple, value and witness.
* The invariants built on the Jacobian table and the engine (`center`,
  `lie_center`, `jacobian_ideal`, the series, `product_space`,
  `subalgebra_generated`) against their `Element`-based definitions over the
  dense elimination: the same canonical subspaces.
* `classify`, which records every identity after `lie` as holding once A
  is Lie, against the full search of each identity on Lie algebras and
  against itself after a change of basis. The fact behind the shortcut,
  that every builtin identity vanishes on all Lie algebras, is checked in
  the truncated free Lie algebra `build_free_quotient` builds.
* Scale invariance, the fact behind `Algebra.integral_twin`: for c != 0 the
  algebra c*A, A with its product scaled by c, has the same invariant
  subspaces and generated subalgebras as A, and an identity in k variables
  fails on c*A at the same basis tuples as on A, with c^(k-1) times the
  value, so `classify` gives the same verdicts and witness assignments.
* `derivations` and `solve_null_triples`, which solve sparse integer rows
  over the integral twin, against their dense `Fraction` reference routes
  (`tests/oracles.py`): the same derivation bases and null spaces on the
  catalog at several scales, on the benchmark's seeded `random_w_algebra`
  members and on random rational algebras.
* The support joins (`Algebra.support`) against the unjoined routes in
  `tests/oracles.py`: the identity search that skips tuples against the one
  that evaluates every tuple (the same failing tuple and value, or None),
  the series against the products of every pair of rows, and the sparse
  algebra-file reader against the dense `parse_element` route (the same
  algebra, and the same message on malformed lines), on the benchmark's
  own algebras and files and on random sparse tables. The Jacobian table
  is held against every triple, key order included, on the spaces
  quotients too.
"""

import random
import sys
from fractions import Fraction
from functools import cache
from itertools import combinations, combinations_with_replacement, product
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from skewalg import algebra, cli
from skewalg.algebra import (
    Algebra,
    Subspace,
    center,
    derived_series,
    jacobian,
    jacobian_ideal,
    lie_center,
    lower_central_series,
    product_space,
    subalgebra_generated,
)
from skewalg.catalog import get_catalog, iter_catalog, lie_catalog
from skewalg.construction import derivations, random_w_algebra
from skewalg.formats import emit_algebra, parse_algebra_file
from skewalg.freealg import build_free_quotient, evaluate_word
from skewalg.identities import (
    CheckResult,
    Component,
    Witness,
    _compiled,
    _first_failure,
    builtin_varieties,
    check_identity,
    classify,
    get_variety,
    parse_identity,
    polarize,
)
from skewalg.linalg import (
    Echelon,
    _scale_to_int,
    add_scaled,
    invert_rows,
    null_space,
    rref_rows,
    span_membership,
    sparse_rref,
)
from skewalg.moufang import solve_null_triples

from oracles import (
    change_basis,
    component_evaluate,
    evaluate_term,
    first_failure_over_all_tuples,
    jacobians_over_all_triples,
    lhs_minus_rhs,
    member,
    parse_algebra_dense,
    products_over_all_pairs,
    raw_polarized_terms,
    reference_derivations,
    reference_null_triples,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402

CUSTOM = (
    "x = 0",
    "2*x = x + x",
    "J(x,y,z)*x = 0",
    "J(x,y,x*y) = 0",
    "(x*y)*(z*t) = 0",
    "(x*y)*z = 0",
    "((x*y)*z)*y = 0",
    "((x*y)*x)*x = 0",
    "(x*y)*(x*y) = 0",
    "J(x,y,z)*(x*y) = 0",
    "1/2*J(x,y,z*t) = (x*y)*(z*t)",
    "J(x,y,z*t) = 0",
)
TEXTS = tuple(
    dict.fromkeys(
        [i.text for idfs in builtin_varieties().values() for i in idfs] + list(CUSTOM)
    )
)
IDENTITIES = tuple(parse_identity(t) for t in TEXTS)

NONZERO = st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-3, 2)])


def exhaustive_check(A, idf):
    """Verdict and witness from the raw polarized terms on every sorted tuple.

    A collapsed witness (each group of copies on one basis vector) is
    evaluated on the unpolarized identity, independently of the checker.
    """
    comp, raw = polarize(idf), raw_polarized_terms(idf)
    pools = [
        list(combinations_with_replacement(range(A.dim), len(g))) for g in comp.groups
    ]
    for combo in product(*pools):
        vectors = [A.basis_element(i).coords for picks in combo for i in picks]
        value = component_evaluate(raw, A, vectors)
        if any(value):
            collapsed = all(len(set(picks)) == 1 for picks in combo)
            if collapsed:
                assignment = tuple(
                    (v, A.basis_element(picks[0]))
                    for v, picks in zip(comp.origin_vars, combo)
                )
                env = {v: e.coords for v, e in assignment}
                value = evaluate_term(lhs_minus_rhs(idf), env, A)
            else:
                assignment = tuple(
                    (label, A.basis_element(i))
                    for g, picks in zip(comp.groups, combo)
                    for label, i in zip(g, picks)
                )
            return CheckResult(False, idf, Witness(assignment, A.element(value), collapsed))
    return CheckResult(True, idf, None)


def summary(res):
    w = res.witness
    return res.holds, None if w is None else (w.describe(), w.collapsed)


@st.composite
def algebras(draw):
    n = draw(st.integers(1, 5))
    prods = {}
    for i in range(n):
        for j in range(i + 1, n):
            row = draw(st.dictionaries(st.integers(0, n - 1), NONZERO, max_size=2))
            if row:
                prods[(i, j)] = row
    return Algebra("rnd", [f"e{i}" for i in range(n)], prods)


def assert_agrees(A):
    for idf in IDENTITIES:
        assert summary(check_identity(A, idf)) == summary(exhaustive_check(A, idf)), idf.text
    for verdict in classify(A).verdicts:
        want = (True, None, None)
        for idf in builtin_varieties()[verdict.variety]:
            res = check_identity(A, idf)
            if not res.holds:
                want = (False, idf.text, res.witness.describe())
                break
        witness = None if verdict.witness is None else verdict.witness.describe()
        assert (verdict.member, verdict.failed_identity, witness) == want


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(algebras())
def test_checker_matches_exhaustive_oracle(A):
    assert_agrees(A)


def test_checker_matches_exhaustive_oracle_on_catalog_and_w_members():
    for name in ("paper-L", "B(0,0,1)", "heisenberg3", "sl2", "affine2", "free-anti-2-3"):
        assert_agrees(get_catalog(name).algebra)
    # seed 2 gives a dim-6 Lie algebra, seed 14 a member of w that is not Lie
    entries = lie_catalog()
    for s in (2, 14):
        L = entries[s % len(entries)].algebra
        assert_agrees(random_w_algebra(L, p_dim=1 + s % 3, seed=s))


# --- the echelon engine against dense elimination ---------------------------


def dense_rref_rows(rows, cols=None):
    """Dense Gauss-Jordan rref: columns left to right, first nonzero row."""
    work = [list(r) for r in rows]
    if work:
        cols = len(work[0])
    elif cols is None:
        cols = 0
    pivots = []
    row = 0
    for col in range(cols):
        pick = None
        for i in range(row, len(work)):
            if work[i][col] != 0:
                pick = i
                break
        if pick is None:
            continue
        work[row], work[pick] = work[pick], work[row]
        piv = work[row][col]
        if piv != 1:
            inv = Fraction(1, 1) / piv
            work[row] = [inv * v for v in work[row]]
        cur = work[row]
        for i in range(len(work)):
            if i != row:
                f = work[i][col]
                if f != 0:
                    work[i] = [a - f * b for a, b in zip(work[i], cur)]
        pivots.append(col)
        row += 1
        if row == len(work):
            break
    return work[:row], pivots


def dense_null_space(rows, cols):
    reduced, pivots = dense_rref_rows(rows, cols)
    basis = []
    for free in range(cols):
        if free in pivots:
            continue
        v = [Fraction(0)] * cols
        v[free] = Fraction(1)
        for i, c in enumerate(pivots):
            v[c] = -Fraction(reduced[i][free])
        basis.append(tuple(v))
    return basis


def dense_invert_rows(rows):
    n = len(rows)
    aug = [list(r) + [1 if i == j else 0 for j in range(n)] for i, r in enumerate(rows)]
    reduced, pivots = dense_rref_rows(aug, 2 * n)
    if pivots[:n] != list(range(n)) or len(pivots) < n:
        return None
    return [row[n:] for row in reduced]


def dense_span_membership(basis, v):
    n = len(v)
    if not basis:
        return [] if all(x == 0 for x in v) else None
    aug = [[basis[j][i] for j in range(len(basis))] + [v[i]] for i in range(n)]
    reduced, pivots = dense_rref_rows(aug, len(basis) + 1)
    if len(basis) in pivots:
        return None
    coeffs = [Fraction(0)] * len(basis)
    for i, c in enumerate(pivots):
        coeffs[c] = Fraction(reduced[i][-1])
    return coeffs


SCALARS = st.one_of(
    st.integers(-3, 3), st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
)


@st.composite
def matrices(draw):
    """Rows of mixed int/Fraction entries: random rows, zero rows, and
    combinations of earlier rows (rank deficiency); often more rows than
    columns, so that full rank is reached before the last row."""
    cols = draw(st.integers(0, 6))
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["random", "random", "zero", "combination"]))
        if kind == "zero" or (kind == "combination" and not rows):
            rows.append([0] * cols)
        elif kind == "random":
            rows.append([draw(SCALARS) for _ in range(cols)])
        else:
            coefs = [draw(SCALARS) for _ in rows]
            rows.append([sum(c * r[k] for c, r in zip(coefs, rows)) for k in range(cols)])
    return rows, cols


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(matrices(), st.lists(SCALARS, min_size=8, max_size=8), st.lists(SCALARS, min_size=6, max_size=6))
def test_engine_matches_dense_elimination(case, coefs, outside):
    rows, cols = case
    assert rref_rows(rows, cols) == dense_rref_rows(rows, cols)
    assert rref_rows(iter(rows), cols) == dense_rref_rows(rows, cols)
    assert null_space(rows, cols) == dense_null_space(rows, cols)
    k = min(len(rows), cols)
    square = [r[:k] for r in rows[:k]]
    assert invert_rows(square) == dense_invert_rows(square)
    inside = [sum(c * r[j] for c, r in zip(coefs, rows)) for j in range(cols)]
    for v in (inside, outside[:cols]):
        assert span_membership(rows, v) == dense_span_membership(rows, v)


def test_engine_edge_cases():
    assert rref_rows([], 3) == ([], [])
    assert rref_rows([]) == ([], [])
    assert null_space([], 2) == dense_null_space([], 2)
    assert rref_rows([[0, 0], [0, 0]]) == ([], [])
    rows = [[2, 1], [Fraction(1, 3), 1], [5, Fraction(-7, 2)]]
    assert rref_rows(rows) == dense_rref_rows(rows) == ([[1, 0], [0, 1]], [0, 1])

    def full_after_two():
        yield {0: 2, 1: 1}
        yield {0: Fraction(1, 3), 1: 1}
        raise AssertionError("rows read past full rank")

    assert sparse_rref(full_after_two(), 2) == ([{0: 1}, {1: 1}], [0, 1])
    assert invert_rows([[0, 1], [1, 0]]) == [[0, 1], [1, 0]]
    assert invert_rows([[1, 2], [2, 4]]) is None


# --- invariants against their Element-based definitions ---------------------


class DenseSpace(NamedTuple):
    """A subspace as the oracle's own canonical rref: (rows, pivots)."""

    rows: tuple
    pivots: tuple

    @property
    def dim(self):
        return len(self.rows)


def dense_space(A, vectors):
    rows, pivots = dense_rref_rows(list(vectors), A.dim)
    return DenseSpace(tuple(map(tuple, rows)), tuple(pivots))


def canonical(A, S):
    """A `Subspace` of A as its canonical rref, to compare with a
    `DenseSpace` of A."""
    assert S.algebra is A
    return DenseSpace(S.rows, S.pivots)


def dense_closure(A, start, expand):
    span = dense_space(A, start)
    while True:
        grown = dense_space(A, list(span.rows) + expand(span.rows))
        if grown.dim == span.dim:
            return span
        span = grown


def oracle_center(A):
    rows = [[A.c(j, i, k) for j in range(A.dim)] for i in range(A.dim) for k in range(A.dim)]
    return dense_space(A, dense_null_space(rows, A.dim))


def oracle_lie_center(A):
    n = A.dim
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            ei, ej = A.basis_element(i), A.basis_element(j)
            jess = [jacobian(A.basis_element(m), ei, ej).coords for m in range(n)]
            for k in range(n):
                rows.append([jess[m][k] for m in range(n)])
    if not rows:
        return dense_space(A, [A.basis_element(i).coords for i in range(n)])
    return dense_space(A, dense_null_space(rows, n))


def oracle_jacobian_ideal(A):
    n = A.dim
    gens = [
        jacobian(A.basis_element(i), A.basis_element(j), A.basis_element(k)).coords
        for i in range(n)
        for j in range(i + 1, n)
        for k in range(j + 1, n)
    ]
    units = [A.basis_element(u).coords for u in range(n)]
    return dense_closure(
        A, gens, lambda rows: [A.mul_coords(r, u) for r in rows for u in units]
    )


def oracle_subalgebra(A, gens):
    return dense_closure(
        A,
        gens,
        lambda rows: [A.mul_coords(r, s) for i, r in enumerate(rows) for s in rows[i + 1 :]],
    )


def oracle_derived_series(A):
    series = [dense_space(A, [A.basis_element(i).coords for i in range(A.dim)])]
    while True:
        cur = series[-1]
        vecs = [A.mul_coords(r, s) for i, r in enumerate(cur.rows) for s in cur.rows[i + 1 :]]
        nxt = dense_space(A, vecs)
        if nxt.dim == cur.dim:
            return series
        series.append(nxt)
        if nxt.dim == 0:
            return series


def oracle_lower_central_series(A):
    series = [dense_space(A, [A.basis_element(i).coords for i in range(A.dim)])]
    while True:
        n = len(series)
        vecs = [
            A.mul_coords(r, s)
            for i in range(1, n + 1)
            for r in series[i - 1].rows
            for s in series[n - i].rows
        ]
        nxt = dense_space(A, vecs)
        if nxt.dim == series[-1].dim:
            return series
        series.append(nxt)
        if nxt.dim == 0:
            return series


def free_quotient_algebra(identities, g, d):
    """A truncated free quotient as a concrete algebra, basis by degree."""
    F = build_free_quotient(identities, g, d)
    flat = [(deg, m) for deg in range(1, d + 1) for m in F.basis[deg]]
    index = {m: i for i, (_, m) in enumerate(flat)}
    products = {}
    for i, (di, mi) in enumerate(flat):
        for j in range(i + 1, len(flat)):
            dj, mj = flat[j]
            _, coords = F.product(di, {mi: 1}, dj, {mj: 1})
            if coords:
                products[(i, j)] = {index[m]: c for m, c in coords.items()}
    return Algebra(f"free-{g}-{d}", [f"e{i}" for i in range(len(flat))], products)


def seeded_rational_algebra(seed):
    rng = random.Random(f"differential-{seed}")
    n = 5 + seed % 6
    density = (0.2, 0.4, 0.6)[seed % 3]
    products = {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                row = {rng.randrange(n): Fraction(rng.randint(-5, 5), rng.randint(1, 4))}
                row[rng.randrange(n)] = rng.randint(-2, 2)
                row = {k: c for k, c in row.items() if c}
                if row:
                    products[(i, j)] = row
    return Algebra(f"rational-{seed}", [f"e{k}" for k in range(n)], products)


def rebased(A, seed):
    """A in a seeded random integer basis, so that its distinguished
    subspaces are not spanned by basis vectors."""
    rng = random.Random(f"rebase-{seed}")
    while True:
        rows = [[rng.randint(-2, 2) for _ in range(A.dim)] for _ in range(A.dim)]
        if dense_invert_rows(rows) is not None:
            return change_basis(A, rows, [f"f{i}" for i in range(A.dim)], name=f"{A.name}|rebased")


def invariant_algebras():
    out = [e.algebra for e in iter_catalog()]
    entries = lie_catalog()
    for s in range(21):
        L = entries[s % len(entries)].algebra
        out.append(random_w_algebra(L, p_dim=1 + s % 3, seed=s))
    out += [seeded_rational_algebra(s) for s in range(18)]
    out.append(free_quotient_algebra(get_variety("lie"), 2, 5))
    out += [rebased(A, s) for s, A in enumerate(out) if 2 < A.dim <= 6]
    return out


@cache
def spaces_quotients():
    """The six free quotients of the spaces workload, dims 14 to 36."""
    return tuple(workloads.quotient_algebra(*q[:3]) for q in workloads.QUOTIENTS)


def test_jacobian_table_matches_element_jacobians():
    algebras = invariant_algebras() + list(spaces_quotients())
    # rational structure constants with growing denominators
    algebras += [scaled(e.algebra, c) for e in iter_catalog() for c in RESCALES]
    for A in algebras:
        want = jacobians_over_all_triples(A)
        assert A.jacobians() == want, A.name
        # the table runs in lexicographic order: construct names its first key
        assert list(A.jacobians()) == sorted(want), A.name
    lie = set()
    for s, A in enumerate(algebras):
        if 2 < A.dim <= 6:
            assert (not rebased(A, s).jacobians()) == (not A.jacobians()), A.name
            lie.add(not A.jacobians())
    assert lie == {True, False}


def test_invariants_match_element_definitions():
    verdicts = set()
    for A in invariant_algebras():
        units = [A.basis_element(i).coords for i in range(A.dim)]
        assert canonical(A, center(A)) == oracle_center(A), A.name
        LC = lie_center(A)
        assert canonical(A, LC) == oracle_lie_center(A), A.name
        assert canonical(A, jacobian_ideal(A)) == oracle_jacobian_ideal(A), A.name
        assert [canonical(A, S) for S in derived_series(A)] == oracle_derived_series(A), A.name
        assert [canonical(A, S) for S in lower_central_series(A)] == oracle_lower_central_series(A), A.name
        PS = product_space(A)
        assert canonical(A, PS) == dense_space(A, [A.mul_coords(r, s) for r in units for s in units]), A.name
        gens = units[: min(2, A.dim)]
        got = subalgebra_generated([A.element(g) for g in gens])
        assert canonical(A, got) == oracle_subalgebra(A, gens), A.name
        # structure theorem: w holds iff the product space lies in the Lie center
        in_w = all(check_identity(A, idf).holds for idf in get_variety("w"))
        assert in_w == all(LC.contains(r) for r in PS.rows), A.name
        verdicts.add(in_w)
    assert verdicts == {True, False}


# --- classify's Lie shortcut: the free Lie algebra, full searches, bases ---


def free_lie_value(comp):
    """The polarized polynomial at the generators of the truncated free Lie
    algebra on as many generators as it has variables: {basis monomial: c}."""
    k = len(comp.variables)
    F = build_free_quotient(get_variety("lie"), k, k)

    def word(m):
        if isinstance(m, int):
            return ("var", F.generators[m])
        return ("prod", word(m[0]), word(m[1]))

    total = {}
    for m, c in comp.poly.items():
        add_scaled(total, evaluate_word(F, word(m)).coords, c)
    return total


def test_every_builtin_identity_vanishes_on_the_free_lie_algebra():
    """Every builtin variety contains the Lie algebras: the multilinear
    polarized form vanishes on all Lie algebras exactly when it is zero at
    the generators of the free one. Two identities that fail on Lie algebras
    show that the route sees a non-zero value."""
    for idfs in builtin_varieties().values():
        for idf in idfs:
            assert free_lie_value(_compiled(idf)) == {}, idf.text
    for text in ("x*y = 0", "(x*y)*z = 0"):
        assert free_lie_value(_compiled(parse_identity(text))) != {}, text


SMALL_LIE = tuple(e.algebra for e in lie_catalog() if e.algebra.dim <= 4)


@st.composite
def lie_algebras(draw):
    """Lie algebras of dim <= 5: seeded random_w_algebra members over small
    catalog Lie algebras (p_dim 0 gives the catalog algebra) that are Lie."""
    L = draw(st.sampled_from(SMALL_LIE))
    A = random_w_algebra(
        L, p_dim=draw(st.integers(0, 5 - L.dim)), seed=draw(st.integers(0, 999))
    )
    assume(not A.jacobians())
    return A


def classify_flags(A):
    return [(v.variety, v.member, v.failed_identity) for v in classify(A).verdicts]


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(lie_algebras(), st.integers(0, 999))
def test_classify_lie_algebra_is_basis_free(A, seed):
    assert all(
        check_identity(A, idf).holds for idfs in builtin_varieties().values() for idf in idfs
    )
    assert all(member for _, member, _ in classify_flags(A))
    assert classify_flags(rebased(A, seed)) == classify_flags(A)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(algebras(), st.integers(0, 999))
def test_classify_is_basis_free(A, seed):
    assert classify_flags(rebased(A, seed)) == classify_flags(A)


# --- scale invariance: the fact behind the integral twin --------------------


SCALES = (2, Fraction(-1, 3), Fraction(7, 4))
RESCALES = SCALES[1:]  # the rational ones


def scaled(A, c):
    """c*A: A with every structure constant multiplied by c."""
    return Algebra(
        f"{A.name}*{c}",
        A.basis_names,
        {key: {k: c * v for k, v in row.items()} for key, row in A.table_pairs()},
    )


def invariant_rows(A):
    """The canonical rows of A's invariant subspaces, series and the
    subalgebra generated by two rational vectors."""
    gens = [
        A.element(Fraction(1 + i % 3, 2 + i % 2) if i % 2 else 0 for i in range(A.dim)),
        A.element(Fraction(-i, 3) if i % 3 else 1 for i in range(A.dim)),
    ]
    return (
        [f(A).rows for f in (center, product_space, lie_center, jacobian_ideal)],
        [S.rows for S in derived_series(A)],
        [S.rows for S in lower_central_series(A)],
        subalgebra_generated(gens).rows,
    )


def scale_algebras():
    out = [seeded_rational_algebra(s) for s in range(12)]
    out += [rebased(get_catalog(name).algebra, s) for s, name in enumerate(("sl2", "heisenberg3"))]
    entries = lie_catalog()
    for s in (2, 14):
        out.append(random_w_algebra(entries[s % len(entries)].algebra, p_dim=1 + s % 3, seed=s))
    return out


def test_scaled_algebra_has_the_same_invariants_and_verdicts():
    members, integral = set(), set()
    for A in scale_algebras():
        rows = invariant_rows(A)
        verdicts = classify(A).verdicts
        integral.add(A.denominator == 1)
        for c in SCALES:
            B = scaled(A, c)
            assert invariant_rows(B) == rows, (A.name, c)
            for va, vb in zip(verdicts, classify(B).verdicts):
                assert (vb.variety, vb.member, vb.failed_identity) == (
                    va.variety, va.member, va.failed_identity,
                ), (A.name, c)
                members.add(va.member)
                if va.witness is None:
                    assert vb.witness is None
                    continue
                wa, wb = va.witness, vb.witness
                assert [(n, e.coords) for n, e in wb.assignment] == [
                    (n, e.coords) for n, e in wa.assignment
                ]
                assert wb.collapsed == wa.collapsed
                k = len(_compiled(parse_identity(va.failed_identity)).variables)
                assert wb.value.coords == tuple(c ** (k - 1) * x for x in wa.value.coords)
    assert members == {True, False}
    assert integral == {True, False}


# --- derivations and null triples against the dense reference routes --------


def product_rule_holds(A, M):
    """D(e_i e_j) = D(e_i) e_j + e_i D(e_j) on every basis pair, with
    `Element` products; D has matrix M (row j = image of e_j)."""

    def apply(x):
        return A.element(
            sum(x.coords[m] * M[m][k] for m in range(A.dim)) for k in range(A.dim)
        )

    e = [A.basis_element(i) for i in range(A.dim)]
    return all(
        apply(e[i] * e[j]) == apply(e[i]) * e[j] + e[i] * apply(e[j])
        for i in range(A.dim)
        for j in range(i + 1, A.dim)
    )


def assert_routes_agree(A, seed):
    """Same derivation basis, and the same null space of J(x1, x2, .) for an
    integer and a rational pair drawn with the seed."""
    assert derivations(A) == reference_derivations(A), A.name
    rng = random.Random(seed)
    for draw in (
        lambda: rng.randint(-3, 3),
        lambda: Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
    ):
        x1, x2 = (A.element(draw() for _ in range(A.dim)) for _ in range(2))
        want = reference_null_triples(A, x1, x2)
        assert solve_null_triples(A, x1, x2) == want, A.name


def test_construction_routes_match_the_reference_on_the_scaled_catalog():
    for s, entry in enumerate(iter_catalog()):
        for c in (1, Fraction(-1, 3), Fraction(7, 4)):
            assert_routes_agree(scaled(entry.algebra, c), s)


def test_construction_routes_match_the_reference_on_benchmark_members():
    entries = lie_catalog()
    for s in range(21):
        B = random_w_algebra(entries[s % len(entries)].algebra, 1 + s % 3, s)
        assert_routes_agree(B, 1000 + s)


COORDS = st.lists(st.integers(-3, 3), min_size=5, max_size=5)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(algebras(), COORDS, COORDS)
def test_derivations_and_null_triples_match_the_reference(A, c1, c2):
    ders = derivations(A)
    assert ders == reference_derivations(A)
    assert all(product_rule_holds(A, M) for M in ders)
    x1, x2 = A.element(c1[: A.dim]), A.element(c2[: A.dim])
    assert solve_null_triples(A, x1, x2) == reference_null_triples(A, x1, x2)


# --- the support joins against the unjoined routes ---------------------------


def assert_search_unjoined(A, texts):
    """The joined search finds the same failing tuple and value as the
    search over every tuple, once per distinct compiled polynomial."""
    done = set()
    for text in texts:
        comp = _compiled(parse_identity(text))
        if comp.key not in done:
            done.add(comp.key)
            assert _first_failure(A, comp) == first_failure_over_all_tuples(A, comp), (A.name, text)


BUILTIN_TEXTS = tuple(dict.fromkeys(i.text for idfs in builtin_varieties().values() for i in idfs))


def test_joined_search_matches_all_tuples_on_spaces_quotients():
    for A in spaces_quotients():
        assert_search_unjoined(A, BUILTIN_TEXTS)


def test_joined_search_matches_all_tuples_on_members_catalog_and_rational():
    algebras = [workloads._member(s) for s in workloads.MEMBERS]
    algebras += [e.algebra for e in iter_catalog()]
    # non-integral: the search runs on the twin
    algebras += [workloads.random_algebra(8, "0.4", 0), seeded_rational_algebra(4)]
    assert {A.denominator == 1 for A in algebras} == {True, False}
    for A in algebras:
        assert_search_unjoined(A, TEXTS)


@st.composite
def sparse_tables(draw, max_dim=7):
    """Algebras of dim <= max_dim in which most basis products are zero."""
    n = draw(st.integers(1, max_dim))
    prods = {}
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.integers(0, 3)) == 0:
                row = draw(st.dictionaries(st.integers(0, n - 1), NONZERO, min_size=1, max_size=2))
                prods[(i, j)] = row
    return Algebra("sparse", [f"e{i}" for i in range(n)], prods)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(sparse_tables())
def test_joined_search_matches_all_tuples_on_random_sparse_tables(A):
    assert_search_unjoined(A, TEXTS)


def test_j_check_evaluates_only_tuples_with_a_nonzero_product(monkeypatch):
    """On the free lie 2 6 quotient the search for 2*J(x,y,z) = 0, which
    has the join rules of J, evaluates exactly the triples a < b < c with a
    nonzero product among e_a, e_b, e_c, in order. J(x,y,z) = 0 itself, and
    `classify`, read the Jacobian table: no evaluation and no product."""
    A = free_quotient_algebra(get_variety("lie"), 2, 6)
    evaluated, products = [], []
    real = Component.evaluate_on_basis
    real_mul = Algebra.mul_sparse

    def spy(self, B, idx, memo):
        evaluated.append(idx)
        return real(self, B, idx, memo)

    def spy_mul(self, xs, ys):
        products.append((xs, ys))
        return real_mul(self, xs, ys)

    monkeypatch.setattr(Component, "evaluate_on_basis", spy)
    monkeypatch.setattr(Algebra, "mul_sparse", spy_mul)
    assert check_identity(A, parse_identity("2*J(x,y,z) = 0")).holds

    def nonzero(i, j):
        return any(A.c(i, j, k) for k in range(A.dim))

    want = [
        t for t in combinations(range(A.dim), 3)
        if any(nonzero(i, j) for i, j in combinations(t, 2))
    ]
    assert evaluated == want
    assert len(want) < len(list(combinations(range(A.dim), 3)))

    evaluated.clear()
    products.clear()
    assert check_identity(A, parse_identity("J(x,y,z) = 0")).holds
    assert member(classify(A), "lie")
    assert (evaluated, products) == ([], [])


def test_j_check_from_the_table_matches_the_search_over_all_tuples():
    """On the catalog, the benchmark's members and spaces quotients, and its
    fixed random algebras at three scales."""
    algebras = [e.algebra for e in iter_catalog()]
    algebras += [workloads._member(s) for s in workloads.MEMBERS]
    algebras += spaces_quotients()
    for A in (workloads.random_algebra(*r) for r in workloads.RANDOM_FIXED):
        algebras += [A] + [scaled(A, c) for c in RESCALES]
    idf = parse_identity("J(x,y,z) = 0")
    comp = _compiled(idf)
    for A in algebras:
        assert _first_failure(A, comp) == first_failure_over_all_tuples(A, comp), A.name
        assert summary(check_identity(A, idf)) == summary(exhaustive_check(A, idf)), A.name
    # both verdicts, and witnesses on non-integral algebras
    assert {check_identity(A, idf).holds for A in algebras} == {True, False}
    assert any(A.denominator > 1 and not check_identity(A, idf).holds for A in algebras)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(sparse_tables(10))
def test_iter_jacobians_matches_element_jacobians_on_random_sparse_tables(A):
    want = jacobians_over_all_triples(A)
    assert list(A.iter_jacobians()) == list(want.items())
    assert A.jacobians() == dict(A.iter_jacobians())


def test_series_match_products_over_all_pairs(monkeypatch):
    """On the spaces algebras; `test_invariants_match_element_definitions`
    holds the series of the smaller ones against dense definitions."""
    algebras = list(spaces_quotients())
    algebras += [workloads.random_algebra(n, d, v) for n, d, v in workloads.RANDOM_FIXED]
    got = [(derived_series(A), lower_central_series(A)) for A in algebras]
    monkeypatch.setattr(algebra, "_products", products_over_all_pairs)
    want = [(derived_series(A), lower_central_series(A)) for A in algebras]
    assert got == want
    # the series do not stop at once: some reach a nonzero proper term
    assert any(1 < len(lcs) and lcs[-1].dim for _, lcs in got)


@st.composite
def sparse_vector_lists(draw):
    """(n, sparse rational vectors over range(n)), zero vectors included."""
    n = draw(st.integers(1, 8))
    entries = st.dictionaries(st.integers(0, n - 1), NONZERO | st.integers(-4, 4).filter(bool), max_size=n)
    return n, draw(st.lists(entries, max_size=10))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(sparse_vector_lists())
def test_lazy_subspace_equals_from_vectors(case):
    """A subspace formed lazily from an echelon, directly or through
    `_span` (and so `Subspace.from_vectors`), has the canonical rref that
    dense elimination forms on the same vectors, and reading `dim` or
    `int_rows` does not form its rref."""
    n, vectors = case
    A = Algebra("abelian", [f"e{i}" for i in range(n)], {})
    dense = [[v.get(k, 0) for k in range(n)] for v in vectors]
    formed = []
    real = Echelon.rref

    def spy(self):
        formed.append(self)
        return real(self)

    Echelon.rref = spy
    try:
        ech = Echelon()
        for v in vectors:
            if v:
                ech.insert(_scale_to_int(v))
        lazy = [Subspace(A, ech), algebra._span(A, vectors), Subspace.from_vectors(A, dense)]
        dims = [S.dim for S in lazy]
        spanning = [S.int_rows() for S in lazy]
        assert formed == []
    finally:
        Echelon.rref = real
    rows, pivots = dense_rref_rows(dense, n)
    want = DenseSpace(tuple(map(tuple, rows)), tuple(pivots))
    assert dims == [want.dim] * 3
    for S, rows in zip(lazy, spanning):
        assert all(type(x) is int for r in rows for x in r.values())
        respan = algebra._span(A, rows)
        assert canonical(A, respan) == want
        assert S == respan and hash(S) == hash(respan)
        assert canonical(A, S) == want
        assert S.dim == want.dim


def test_invariants_span_the_product_space_once(tmp_path, capsys, monkeypatch):
    """One `invariants` call on the free lie 2 6 quotient spans A*A once,
    for its own line and as the second term of both series, and forms the
    rref of no series term: the series read only their terms' dims."""
    A = free_quotient_algebra(get_variety("lie"), 2, 6)
    path = tmp_path / "lie26.alg"
    path.write_text(emit_algebra(A))
    table = []
    spans = []
    real_span = algebra._span

    def spy_span(B, vectors, max_rank=None):
        vectors = list(vectors)
        if not table:
            table.extend(row for _, row in B.integral_twin().table_pairs())
        spans.append(vectors == table)
        return real_span(B, vectors, max_rank)

    in_series = []
    formed = []
    real_rref = Echelon.rref

    def spy_rref(self):
        formed.append(bool(in_series))
        return real_rref(self)

    def inside(series):
        def wrapped(B):
            in_series.append(series)
            try:
                return series(B)
            finally:
                in_series.pop()

        return wrapped

    monkeypatch.setattr(algebra, "_span", spy_span)
    monkeypatch.setattr(Echelon, "rref", spy_rref)
    monkeypatch.setattr(cli, "derived_series", inside(derived_series))
    monkeypatch.setattr(cli, "lower_central_series", inside(lower_central_series))
    assert cli.main(["invariants", str(path)]) == 0
    out = capsys.readouterr().out
    assert "derived: 23, 21, 6, 0\nlower central: 23, 21, 20, 18, 15, 9, 0\n" in out
    assert spans.count(True) == 1
    assert formed and not any(formed)


def same_algebra(A, B):
    """Same name, basis and table, with every value of the same type."""
    def typed(X):
        return [(key, [(k, v, type(v)) for k, v in row.items()]) for key, row in X.table_pairs()]

    return (
        (A.name, A.basis_names, A.denominator, typed(A))
        == (B.name, B.basis_names, B.denominator, typed(B))
    )


def test_sparse_reader_matches_dense_route_on_every_benchmark_file(tmp_path):
    seen = 0
    for w in ("spaces", "members"):
        workloads.universe(w, tmp_path / w)
        for path in sorted((tmp_path / w).glob("*.alg")):
            text = path.read_text()
            A = parse_algebra_file(text)
            assert same_algebra(A, parse_algebra_dense(text)), path.name
            seen += 1
    assert seen >= 40


HEADER = "name: t\ndim: 4\nbasis: a b c d\n"
PRODUCT_LINES = (
    "a*b = 2*",
    "a*b = 2 c",
    "a*b = c d",
    "a*b = 1/0*c",
    "a*b = 3/*c",
    "a*b = zz",
    "a*b = ",
    "a*b = -",
    "a*b = 0 + c",
    "a*b = c + 0",
    "a*b = c +",
    "a*b = 0*c",
    "a*b = 0",
    "a*b = c - c",
    "a*b = 3/4*c + 2*d - c",
    "a*b = 4/2*c",
    "a * b = - 2 * c+d",
    "a*a = b",
    "a*q = b",
    "a = b",
    "a*b*c = d",
    "a*b = c\nb*a = d",
    "b*a = 1/3*c - 1/6*d",
)


def test_sparse_reader_matches_dense_route_on_malformed_lines():
    outcomes = set()
    for line in PRODUCT_LINES:
        text = HEADER + line + "\n"
        try:
            want = parse_algebra_dense(text)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                parse_algebra_file(text)
            assert str(got.value) == str(exc), line
            outcomes.add("error")
        else:
            assert same_algebra(parse_algebra_file(text), want), line
            outcomes.add("ok")
    assert outcomes == {"error", "ok"}
