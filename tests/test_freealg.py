import gc
import random
import tracemalloc
from fractions import Fraction
from itertools import permutations
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewalg import freealg
from skewalg.freealg import (
    CONJECTURE_WORD,
    RelationBudgetExceeded,
    _assignments,
    _degree_rows,
    _dedupe_key,
    _describe,
    _generator_symmetry,
    _monomial_count,
    _row_count,
    build_free_quotient,
    canonicalize,
    evaluate_word,
    expand_evaluate,
    mono_label,
    monomials_of_degree,
    parse_word,
    relation_combination,
)
from skewalg.catalog import get_catalog
from skewalg.identities import (
    _compiled,
    _flatten,
    builtin_varieties,
    check_identity,
    get_variety,
    parse_identity,
    sort_key,
)
from skewalg.linalg import Echelon, _scale_to_int

from oracles import (
    certificate_over_all_rows,
    orbit_least_codes,
    raw_polarized_terms,
    reference_free_quotient,
)


# --- oracles ---------------------------------------------------------------


def enumerate_monomials(g, max_degree):
    """Canonical monomials per degree, index d holding degree d, as a free
    quotient enumerates them degree by degree."""
    by = [[], list(range(g))]
    for d in range(2, max_degree + 1):
        by.append(monomials_of_degree(by, d))
    return by


def brute_monomials(g, d):
    """All canonical monomials of degree d by exhausting unordered trees."""

    def all_trees(n):
        if n == 1:
            for i in range(g):
                yield i
            return
        for e in range(1, n):
            for left in all_trees(e):
                for right in all_trees(n - e):
                    yield (left, right)

    out = set()
    for t in all_trees(d):
        c = canonicalize(t)
        if c is not None:
            out.add(c[1])
    return out


def mobius(n):
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    if n > 1:
        result = -result
    return result


def witt(g, d):
    total = 0
    e = 1
    while e <= d:
        if d % e == 0:
            total += mobius(e) * g ** (d // e)
        e += 1
    return total // d


# --- canonical form ---------------------------------------------------------


def test_canonicalize_fixtures():
    assert canonicalize((1, 0)) == (-1, (0, 1))
    assert canonicalize((0, 0)) is None
    assert canonicalize(((0, 2), (0, 1))) == (-1, ((0, 1), (0, 2)))
    assert canonicalize(((1, 0), (2, 0))) == (1, ((0, 1), (0, 2)))
    assert canonicalize(((0, 1), (0, 1))) is None


def test_canonicalize_idempotent_on_canonical():
    for d in range(1, 5):
        for m in enumerate_monomials(3, 4)[d]:
            assert canonicalize(m) == (1, m)


def test_enumeration_matches_brute_force():
    for g in [1, 2, 3]:
        by_degree = enumerate_monomials(g, 6)
        for d in range(1, 7):
            expected = brute_monomials(g, d)
            assert set(by_degree[d]) == expected
            assert len(by_degree[d]) == len(expected)


def test_enumeration_counts():
    by_degree = enumerate_monomials(3, 6)
    assert [len(by_degree[d]) for d in range(1, 7)] == [3, 3, 9, 30, 117, 477]
    assert len(enumerate_monomials(1, 2)[2]) == 0
    by2 = enumerate_monomials(2, 5)
    assert [len(by2[d]) for d in range(1, 6)] == [2, 1, 2, 4, 10]


def test_monomial_count_matches_enumeration():
    for g in (1, 2, 3, 4):
        by_degree = enumerate_monomials(g, 7)
        sizes = [len(lst) for lst in by_degree]
        for d in range(2, 8):
            assert _monomial_count(sizes[:d], d) == sizes[d]


@pytest.mark.parametrize("cap", [8, 12])
def test_budget_abort_enumerates_no_degree_it_does_not_reach(monkeypatch, cap):
    """The budget is charged before a degree's monomials are enumerated, so
    an abort at degree 6 enumerates degrees 2 to 5 only, whatever the cap."""
    enumerated = []
    monomials_of_degree = freealg.monomials_of_degree

    def spy(by, d):
        enumerated.append(d)
        return monomials_of_degree(by, d)

    monkeypatch.setattr(freealg, "monomials_of_degree", spy)
    with pytest.raises(RelationBudgetExceeded) as info:
        build_free_quotient(get_variety("lie"), 3, cap, budget=1000)
    assert str(info.value) == "relation budget of 1000 rows exceeded at degree 6"
    assert enumerated == [2, 3, 4, 5]


def test_enumeration_sorted_strictly():
    by_degree = enumerate_monomials(3, 5)
    for d in range(1, 6):
        keys = [sort_key(m) for m in by_degree[d]]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


def test_mono_label():
    names = ("a", "b", "c")
    assert mono_label(0, names) == "a"
    assert mono_label((0, 1), names) == "(a*b)"
    assert mono_label(((0, 1), (0, 2)), names) == "((a*b)*(a*c))"


# --- quotient construction ---------------------------------------------------


def test_anticommutative_build_keeps_all_monomials():
    F = build_free_quotient(["x*x = 0"], 3, 4)
    assert F.dims() == [3, 3, 9, 30]
    for d in range(1, 5):
        for m in F.monomials[d]:
            assert F.rewrite[m] == {m: 1}


def test_free_lie_dims_match_witt():
    F = build_free_quotient(get_variety("lie"), 2, 5)
    assert F.dims() == [witt(2, d) for d in range(1, 6)]
    assert F.dims() == [2, 1, 2, 3, 6]
    G = build_free_quotient(get_variety("lie"), 3, 4)
    assert G.dims() == [witt(3, d) for d in range(1, 5)]
    assert G.dims() == [3, 3, 8, 18]


def test_v_variety_no_low_degree_consequences():
    F = build_free_quotient(get_variety("v"), 3, 2)
    assert F.dims() == [3, 3]


def test_variety_containments_are_monotone():
    free = build_free_quotient(["x*x = 0"], 3, 4).dims()
    w = build_free_quotient(get_variety("w"), 3, 4).dims()
    v = build_free_quotient(get_variety("v"), 3, 4).dims()
    bl = build_free_quotient(get_variety("binary-lie"), 3, 4).dims()
    lie = build_free_quotient(get_variety("lie"), 3, 4).dims()
    for d in range(4):
        assert w[d] <= v[d] <= bl[d] <= free[d]
        assert lie[d] <= w[d]


def test_identity_order_does_not_change_dims():
    idents = get_variety("lie")
    F = build_free_quotient(idents, 2, 4)
    G = build_free_quotient(list(reversed(idents)), 2, 4)
    assert F.dims() == G.dims()


def test_build_deterministic():
    F = build_free_quotient(get_variety("v"), 3, 4)
    G = build_free_quotient(get_variety("v"), 3, 4)
    assert F.dims() == G.dims()
    assert F.basis == G.basis
    assert F.rewrite == G.rewrite


# --- generator symmetry --------------------------------------------------------


def _symmetry(identities, g, d, extra):
    F = build_free_quotient(identities, g, d, extra_relations=extra)
    words = [_scale_to_int(F.word_poly(tree)) for _deg, _text, tree in F.extra]
    sym = _generator_symmetry(F, [row for row in words if row])
    return None if sym is None else (sorted(sym.perms), sym.free)


def test_generator_symmetry_keeps_the_permutations_that_fix_the_words():
    """Identities alone keep every permutation; an adjoined word keeps those
    that map the set of words to itself up to a scalar; a trivial group, and
    a build without relation rows, track no types."""
    assert _symmetry(get_variety("lie"), 3, 3, ()) == ([(0, 1, 2)], [0, 1, 2])
    assert _symmetry(["x*x = 0"], 3, 3, ()) is None
    assert _symmetry(get_variety("lie"), 1, 3, ()) is None
    assert _symmetry(["x*x = 0"], 3, 3, ("J(a,b,c)",)) == (
        sorted(permutations(range(3))), []
    )
    assert _symmetry(["x*x = 0"], 2, 4, ("J(a,b,a*b)",)) == ([(0, 1), (1, 0)], [])
    assert _symmetry(get_variety("lie"), 2, 3, ("a*(a*b)",)) is None
    assert _symmetry(["x*x = 0"], 3, 3, ("(a*b)*c",)) == ([(0, 1, 2), (1, 0, 2)], [])
    assert _symmetry(["x*x = 0"], 4, 3, ("(a*b)*c",)) == ([(0, 1, 2, 3), (1, 0, 2, 3)], [3])
    assert _symmetry(get_variety("w"), 4, 3, ("a*(a*b)",)) == ([(0, 1, 2, 3)], [2, 3])
    # two words swapped by b <-> c, neither fixed by it
    assert _symmetry(["x*x = 0"], 3, 3, ("(a*b)*a", "(a*c)*a")) == (
        [(0, 1, 2), (0, 2, 1)], []
    )
    # past six letters a word's letters stay fixed (a*b -> b*a would fix it)
    F = freealg.FreeQuotient([], "abcdefghi", 7)
    word = _scale_to_int(F.word_poly(parse_word("((a*b)*(c*d))*((e*f)*g)")))
    sym = _generator_symmetry(F, [word])
    assert (sym.perms, sym.free) == ([tuple(range(9))], [7, 8])


SYMMETRY_CASES = [
    (name, g, d, ())
    for name in [*builtin_varieties(), "x*x = 0"]
    for g, d in [(2, 7), (3, 6), (4, 5)]
] + [
    ("x*x = 0", 3, 6, ("J(a,b,c)",)),
    ("v", 3, 6, ("J(a,b,c)",)),
    ("x*x = 0", 2, 7, ("J(a,b,a*b)",)),
    ("malcev", 2, 7, ("J(a,b,a*b)",)),
    ("lie", 2, 7, ("a*(a*b)",)),
    ("w", 4, 5, ("a*(a*b)",)),
    ("x*x = 0", 3, 6, ("(a*b)*c",)),
    ("v", 3, 6, ("(a*b)*c",)),
]


@pytest.mark.parametrize(
    "source, g, d, extra",
    SYMMETRY_CASES,
    ids=[f"{s}-{g}-{d}-{'+'.join(e) or 'no-word'}" for s, g, d, e in SYMMETRY_CASES],
)
def test_symmetric_build_matches_the_reference_route(source, g, d, extra):
    """Relabelling the representative types' rows gives the quotient that
    eliminating every row gives: the same basis, rewrites and reduced
    relations, and every defining relation vanishes."""
    identities = get_variety(source) if source in builtin_varieties() else [source]
    F = build_free_quotient(identities, g, d, extra_relations=extra)
    R = reference_free_quotient(identities, g, d, extra_relations=extra)
    assert F.basis == R.basis
    assert F.rewrite == R.rewrite
    assert F.relations_rref == R.relations_rref
    F.self_check()


def test_split_keeps_the_least_code_of_each_orbit():
    """`_Symmetry.split` against the whole group applied to every type: its
    representatives are exactly the least codes of the orbits, and each
    moved type's perm carries its representative's multiplicities onto it.
    The type codes it splits are read off each monomial's leaves."""
    checked = 0
    for source, g, d, extra in SYMMETRY_CASES:
        identities = get_variety(source) if source in builtin_varieties() else [source]
        F = build_free_quotient(identities, g, d, extra_relations=extra)
        words = [_scale_to_int(F.word_poly(tree)) for _deg, _text, tree in F.extra]
        sym = _generator_symmetry(F, [row for row in words if row])
        if sym is None:
            continue
        types = freealg._Types(F)
        for e in range(1, d + 1):
            types.add(F, e)
            assert types.codes[e] == [
                sum(types.base**leaf for leaf in freealg._leaves(m)) for m in F.monomials[e]
            ]
            least = orbit_least_codes(sym, types, e)
            reps, moved = sym.split(types, e)
            assert reps == {code for code, rep in least.items() if rep == code}
            assert {code: rep for code, (rep, _perm) in moved.items()} == {
                code: rep for code, rep in least.items() if rep != code
            }
            powers = types.codes[1]
            for code, (rep, perm) in moved.items():
                t = [rep // p % types.base for p in powers]
                assert sum(t[i] * powers[perm[i]] for i in range(g)) == code
            checked += 1
    assert checked >= 100


def _relabelled_word(word, perm):
    return "".join(chr(ord("a") + perm[ord(ch) - ord("a")]) if ch.islower() else ch for ch in word)


@st.composite
def adjoined_words(draw, g, degree):
    """A word of the given degree on the first g letters: a product tree,
    plus a multiple of the same letters in another tree or order."""
    letters = [chr(ord("a") + draw(st.integers(0, g - 1))) for _ in range(degree)]

    def tree(leaves):
        if len(leaves) == 1:
            return leaves[0]
        cut = draw(st.integers(1, len(leaves) - 1))
        return f"({tree(leaves[:cut])}*{tree(leaves[cut:])})"

    word = tree(letters)
    if draw(st.booleans()):
        plus = draw(st.sampled_from(["+ ", "+ 2*", "- ", "- 1/2*"]))
        word = f"{word} {plus}{tree(draw(st.permutations(letters)))}"
    return word


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_dims_do_not_change_when_an_adjoined_word_is_relabelled(data):
    """The quotient by a word and by the word with its generators renamed
    are isomorphic, so their dims agree whichever permutations the build
    finds to fix the word."""
    source = data.draw(st.sampled_from(["lie", "w", "x*x = 0"]))
    g = data.draw(st.sampled_from([2, 3]))
    cap = 6 if g == 2 else 5
    word = data.draw(adjoined_words(g, data.draw(st.integers(2, 4))))
    perm = data.draw(st.permutations(range(g)))
    identities = get_variety(source) if source != "x*x = 0" else [source]
    F = build_free_quotient(identities, g, cap, extra_relations=[word])
    G = build_free_quotient(identities, g, cap, extra_relations=[_relabelled_word(word, perm)])
    assert F.dims() == G.dims()


def test_one_sided_word_keeps_its_own_dims():
    """a*(a*b) is fixed by no permutation; a build that relabelled its type
    as if it were would impose b*(b*a) too."""
    F = build_free_quotient(get_variety("lie"), 2, 5, extra_relations=["a*(a*b)"])
    assert F.dims() == [2, 1, 1, 1, 2]


def test_relation_budget():
    with pytest.raises(RelationBudgetExceeded) as info:
        build_free_quotient(get_variety("lie"), 2, 3, budget=3)
    assert info.value.degree == 2
    assert str(info.value) == "relation budget of 3 rows exceeded at degree 2"


def test_rewrite_coefficients_are_int_when_integral():
    """Integral rewrite coefficients are ints; a non-integral one stays a
    Fraction. The adjoined word below has lead coefficient 2, so its lead
    monomial a*(b*c) rewrites to -1/2 c*(a*b); among the builtin varieties,
    alam on 4 generators at degree 4 has such coefficients too."""
    F = build_free_quotient(get_variety("v"), 3, 5)
    assert all(type(c) is int for r in F.rewrite.values() for c in r.values())
    G = build_free_quotient(
        ["x*x = 0"], 3, 3, extra_relations=["(a*b)*c + 2*(b*c)*a"]
    )
    assert G.rewrite[(0, (1, 2))] == {(2, (0, 1)): Fraction(-1, 2)}
    assert type(G.rewrite[(0, (1, 2))][(2, (0, 1))]) is Fraction


# --- evaluation --------------------------------------------------------------


def test_evaluate_plain_product():
    F = build_free_quotient(["x*x = 0"], 3, 2)
    val = evaluate_word(F, "a*b")
    assert val.degree == 2
    assert val.coords == {(0, 1): 1}
    anti = evaluate_word(F, "b*a")
    assert anti.coords == {(0, 1): -1}


def test_evaluate_known_zero_in_v():
    F = build_free_quotient(get_variety("v"), 3, 4)
    val = evaluate_word(F, "J(a,b,a*c)")
    assert val.degree == 4
    assert val.coords == {}


def test_evaluate_forced_zero_in_w():
    F = build_free_quotient(get_variety("w"), 3, 4)
    val = evaluate_word(F, "J(a,b,a*b)")
    assert val.coords == {}


def test_evaluate_degree_overflow():
    F = build_free_quotient(["x*x = 0"], 3, 2)
    with pytest.raises(ValueError, match="degree"):
        evaluate_word(F, "(a*b)*c")


def test_evaluate_unknown_generator():
    F = build_free_quotient(["x*x = 0"], 3, 2)
    with pytest.raises(ValueError, match="generator"):
        evaluate_word(F, "a*z")


def test_routes_agree_on_random_words():
    rng = random.Random(20260819)
    F = build_free_quotient(get_variety("v"), 3, 5)

    def random_tree(d):
        if d == 1:
            return ("var", "abc"[rng.randrange(3)])
        e = rng.randint(1, d - 1)
        return ("prod", random_tree(e), random_tree(d - e))

    for _ in range(200):
        t = random_tree(rng.randint(1, 5))
        a = evaluate_word(F, t)
        b = expand_evaluate(F, t)
        assert a.degree == b.degree and a.coords == b.coords


def test_quotient_product_antisymmetry():
    F = build_free_quotient(get_variety("v"), 3, 4)
    for m1 in F.basis[1]:
        for m2 in F.basis[3][:4]:
            d1, v1 = F.product(1, {m1: Fraction(1)}, 3, {m2: Fraction(1)})
            d2, v2 = F.product(3, {m2: Fraction(1)}, 1, {m1: Fraction(1)})
            assert d1 == d2 == 4
            assert v1 == {k: -v for k, v in v2.items()}


def test_quotient_product_truncates_past_max_degree():
    F = build_free_quotient(["x*x = 0"], 3, 3)
    d, v = F.product(2, {(0, 1): Fraction(1)}, 2, {(0, 2): Fraction(1)})
    assert d == 4 and v == {}


# --- adjoined relations ------------------------------------------------------


def test_extra_relation_enters_ideal():
    F = build_free_quotient(get_variety("w"), 3, 4, extra_relations=["J(a,b,c)"])
    base = build_free_quotient(get_variety("w"), 3, 4)
    assert evaluate_word(F, "J(a,b,c)").coords == {}
    assert evaluate_word(F, "J(a,b,c)*a").coords == {}
    assert F.dims()[2] == base.dims()[2] - 1


def test_extra_relation_is_not_substituted():
    # adjoined words generate a plain ideal: the substitution c -> b*c of
    # J(a,b,c) need not vanish, only multiples of the word itself do
    F = build_free_quotient(["x*x = 0"], 3, 4, extra_relations=["J(a,b,c)"])
    assert evaluate_word(F, "J(a,b,c)").coords == {}
    assert evaluate_word(F, "J(a,b,b*c)").coords != {}


# --- certificates ------------------------------------------------------------


def test_relation_combination_reproduces_zero_word():
    F = build_free_quotient(get_variety("v"), 3, 4)
    cert = relation_combination(F, "J(a,b,a*c)")
    assert cert
    total = {}
    for coef, _desc, row in cert:
        for col, val in row.items():
            total[col] = total.get(col, 0) + coef * val
    total = {k: v for k, v in total.items() if v}
    expansion = {}
    for mono, coef in F.word_poly(parse_word("J(a,b,a*c)")).items():
        expansion[mono] = expansion.get(mono, 0) + coef
    expansion = {k: v for k, v in expansion.items() if v}
    assert total == expansion


@pytest.mark.parametrize(
    "source, g, d, extra, word",
    [
        ("v", 3, 4, (), "J(a,b,a*c)"),
        ("malcev", 2, 5, (), "J(a,b,a*b)*a"),
        ("lie", 3, 5, (), "J(a*b,c,a)*b"),
        ("w", 3, 5, ("J(a,b,c)",), "J(a,b,c)*a*b"),
    ],
)
def test_relation_combination_uses_only_its_words_type(source, g, d, extra, word):
    """Rows of other types share no column with the word, so the
    certificate from its type's rows is the one from every row."""
    F = build_free_quotient(get_variety(source), g, d, extra_relations=extra)
    got = [(c, text) for c, text, _row in relation_combination(F, word)]
    assert got
    assert got == certificate_over_all_rows(F, word)


def test_relation_combination_rejects_nonzero_word():
    F = build_free_quotient(get_variety("v"), 3, 2)
    with pytest.raises(ValueError, match="nonzero"):
        relation_combination(F, "a*b")


def test_self_check_runs_clean():
    F = build_free_quotient(get_variety("v"), 3, 4)
    F.self_check()


@pytest.mark.parametrize(
    "identities, g, d, extra, message",
    [
        (["x*x = 0", "J(x,y,z) = 0"], 3, 3, (), "J(x,y,z) = 0 [x = a, y = b, z = c]"),
        (["x*x = 0"], 3, 3, ("J(a,b,c)",), "adjoined: J(a,b,c)"),
        (["x*x = 0"], 3, 4, ("J(a,b,c)",), "R3[0] * a"),
        (
            get_variety("v"), 3, 4, (),
            "J(x,y,x*z) = 0 [x1 = a, x2 = a, y = b, z = b]",
        ),
        # a rewrite map with denominators (lcm 6) at the failing degree
        (get_variety("binary-lie"), 3, 6, (), "R5[0] * a"),
    ],
)
def test_self_check_reports_the_failing_row(identities, g, d, extra, message):
    F = build_free_quotient(identities, g, d, extra_relations=extra)
    m = next(m for m in F.monomials[d] if F.rewrite[m] != {m: 1})
    F.rewrite[m] = {m: 1}
    with pytest.raises(ValueError) as info:
        F.self_check()
    assert str(info.value) == f"self-check failed at degree {d}: {message}"


# --- relation rows against the raw-term oracle --------------------------------


def _subst(tree, env):
    if tree[0] == "var":
        return env[tree[1]]
    return (_subst(tree[1], env), _subst(tree[2], env))


def oracle_rows(F, d, types=None, keep=None):
    """(text, row) pairs of degree d: every raw polarized term substituted
    and canonicalized from its leaves, rows described as they are printed.
    Every type's rows are made; `types` and `keep` are accepted and ignored."""
    for idf in F.identities:
        variables, terms = raw_polarized_terms(idf)
        k = len(variables)
        if k > d:
            continue
        for combo in _assignments(F.monomials, k, d):
            env = dict(zip(variables, combo))
            frow = {}
            for coef, tree in terms:
                res = canonicalize(_subst(tree, env))
                if res is None:
                    continue
                c = F.col[d][res[1]]
                frow[c] = frow.get(c, 0) + coef * res[0]
            assign = ", ".join(
                f"{v} = {F.label(m)}" for v, m in zip(variables, combo)
            )
            yield f"{idf.text} [{assign}]", _int_row(frow)
    for e in range(1, d):
        for idx, r in enumerate(F.relations_rref[e]):
            for m in F.monomials[d - e]:
                row = {}
                for c, v in r.items():
                    res = canonicalize((F.monomials[e][c], m))
                    if res is not None:
                        c2 = F.col[d][res[1]]
                        row[c2] = row.get(c2, 0) + v * res[0]
                yield f"R{e}[{idx}] * {F.label(m)}", {
                    c: v for c, v in row.items() if v
                }
    generator = {name: i for i, name in enumerate(F.generators)}
    for deg, text, tree in F.extra:
        if deg == d:
            frow = {}
            for coef, term in _flatten(tree):
                res = canonicalize(_subst(term, generator))
                if res is not None:
                    c = F.col[d][res[1]]
                    frow[c] = frow.get(c, 0) + coef * res[0]
            yield f"adjoined: {text}", _int_row(frow)


def _int_row(frow):
    """A rational row without its zeros, times the lcm of its denominators."""
    frow = {c: v for c, v in frow.items() if v}
    denom = 1
    for v in frow.values():
        denom = denom * v.denominator // gcd(denom, v.denominator)
    return {c: int(v * denom) for c, v in frow.items()}


ROW_CASES = [
    (name, g, d, ())
    for name in builtin_varieties()
    for g, d in [(2, 5), (3, 4), (4, 4)]
] + [
    ("1/2*J(x,y,z) = 0", 3, 4, ()),
    ("J(x,y,x*z) = 0", 3, 4, ()),
    ("(x*y)*(x*z) = 0", 3, 5, ()),
    ("2*J(x,y,z)*x = 1/3*(x*y)*(x*z)", 3, 5, ()),
    ("x = 0", 2, 3, ()),
    ("w", 3, 5, ("J(a,b,c)",)),
    ("x*x = 0", 3, 4, ("J(a,b,c)", "(a*b)*c + 2*(b*c)*a")),
]


def _first_occurrences(stream):
    """The nonzero (text, row) pairs whose row is the first of its key."""
    seen = set()
    out = []
    for text, row in stream:
        key = _dedupe_key(row)
        if row and key not in seen:
            seen.add(key)
            out.append((text, row))
    return out


def test_square_identity_yields_no_rows_but_is_charged():
    """x*x = 0 compiles to the empty polynomial, so its instances make no
    relation rows; `_row_count` still charges every ordered pair of
    monomials of total degree d, so budget aborts do not move."""
    F = build_free_quotient(["x*x = 0"], 3, 4)
    for d in range(1, 5):
        assert list(_degree_rows(F, d)) == []
        sizes = [len(F.monomials[e]) for e in range(d + 1)]
        assert _row_count(F, d) == sum(sizes[e] * sizes[d - e] for e in range(1, d))


@pytest.mark.parametrize("source, g, d, extra", ROW_CASES)
def test_degree_rows_match_raw_term_oracle(source, g, d, extra):
    """The orbit-pruned rows are a subsequence of the unpruned oracle rows,
    every row first occurs at the same place, and the budget counts the
    oracle's rows."""
    identities = (
        get_variety(source) if source in builtin_varieties() else [source]
    )
    F = build_free_quotient(identities, g, d, extra_relations=extra)
    for deg in range(1, d + 1):
        got = [(_describe(F, src), row) for src, row in _degree_rows(F, deg)]
        want = list(oracle_rows(F, deg))
        rest = iter(want)
        assert all(pair in rest for pair in got)
        assert _first_occurrences(got) == _first_occurrences(want)
        assert _row_count(F, deg) == len(want)
        assert all(type(v) is int for _, row in got for v in row.values())


def _rank_bounds_hold(ranks, lower):
    return all(
        ranks[q] >= (ranks[p][0], ranks[p][1] + s)
        for q, bounds in enumerate(lower)
        for p, s in bounds
    )


ASSIGNMENT_BOUNDS = [
    ((),),
    ((), ((0, 1),)),
    ((), ((0, 0),)),
    ((), ((0, 1),), ((0, 1), (1, 1))),
    ((), ((0, 0),), ((1, 0),)),
    ((), ((0, 0),), ((1, 0),), ((2, 0),)),
    ((), ((0, 1),), (), ((2, 1),)),
    ((), ((0, 0),), (), ((2, 1),)),
    ((), (), ((1, 1),), ((1, 1), (2, 1))),
    ((), (), (), ()),
] + sorted(
    {
        _compiled(idf).lower
        for idfs in builtin_varieties().values()
        for idf in idfs
    }
)


@pytest.mark.parametrize("lower", ASSIGNMENT_BOUNDS)
def test_pruned_assignments_filter_the_full_enumeration(lower):
    k = len(lower)
    for g in (1, 2, 3):
        monomials = enumerate_monomials(g, 6)
        rank = {m: (e, i) for e, lst in enumerate(monomials) for i, m in enumerate(lst)}
        for d in range(0, 7):
            full = list(_assignments(monomials, k, d))
            assert len(full) == len(set(full))
            want = [
                combo for combo in full
                if _rank_bounds_hold([rank[m] for m in combo], lower)
            ]
            assert list(_assignments(monomials, k, d, lower)) == want
    assert list(_assignments(enumerate_monomials(2, 3), 0, 0)) == [()]
    assert list(_assignments(enumerate_monomials(2, 3), 0, 2)) == []


def test_identity_without_variables_adds_no_rows():
    F = build_free_quotient(["0 = 0"], 2, 4)
    assert F.dims() == [2, 1, 2, 4]
    assert all(_row_count(F, d) == 0 for d in range(1, 5))


@pytest.mark.parametrize("name", list(builtin_varieties()))
def test_budget_abort_matches_the_unpruned_row_count(name):
    """A budget aborts at the degree of the row that exceeds it, counting
    every unpruned row, with the same message as a row-by-row count.  With
    one generator every degree from 2 on is empty, yet a k-variable
    identity still charges a row at degree k, `x = 0` an R_1 multiple at
    degree 2, and an adjoined word one at its degree."""
    idfs = get_variety(name)
    for ids, g, cap, extra in [
        (idfs, 3, 5, ()),
        (idfs, 1, 6, ()),
        ([*idfs, "x = 0"], 1, 6, ()),
        (idfs, 1, 6, ("((a*a)*a)*a",)),
    ]:
        F = build_free_quotient(ids, g, cap, extra_relations=extra)
        degrees = [d for d in range(1, cap + 1) for _ in oracle_rows(F, d)]
        cumulative = [degrees.count(d) for d in range(1, cap + 1)]
        for d in range(1, cap + 1):
            total = sum(cumulative[:d])
            for budget in (total, total - 1):
                over = max(budget, 0)
                if over >= len(degrees):
                    G = build_free_quotient(ids, g, cap, extra_relations=extra, budget=budget)
                    assert G.dims() == F.dims()
                    continue
                with pytest.raises(RelationBudgetExceeded) as info:
                    build_free_quotient(ids, g, cap, extra_relations=extra, budget=budget)
                assert info.value.degree == degrees[over]
                assert str(info.value) == (
                    f"relation budget of {budget} rows exceeded at degree {degrees[over]}"
                )


@pytest.mark.parametrize(
    "identities, extra, reach",
    [
        (get_variety("lie"), (), 3),
        (["x = 0"], (), 2),
        (["((x*y)*z)*u = 0"], ("(((a*a)*a)*a)*a",), 5),
    ],
    ids=["lie", "x=0", "adjoined-word"],
)
def test_one_generator_build_stops_where_no_row_reaches(monkeypatch, identities, extra, reach):
    """With one generator, degrees past every identity's variable count,
    every adjoined word's degree and degree 2 are neither enumerated nor
    counted, whatever the cap; their dims read 0."""
    counted, enumerated = [], []
    row_count, mons = freealg._row_count, freealg.monomials_of_degree

    def count_spy(F, d):
        counted.append(d)
        return row_count(F, d)

    def mons_spy(by, d):
        enumerated.append(d)
        return mons(by, d)

    monkeypatch.setattr(freealg, "_row_count", count_spy)
    monkeypatch.setattr(freealg, "monomials_of_degree", mons_spy)
    F = build_free_quotient(identities, 1, 60, extra_relations=extra)
    assert counted == list(range(1, reach + 1))
    assert enumerated == list(range(2, reach + 1))
    assert F.dims()[1:] == [0] * 59
    assert len(F.monomials) == len(F.basis) == len(F.relations_rref) == 61
    F.self_check()


@pytest.mark.parametrize("last", [False, True])
@pytest.mark.parametrize(
    "identities, g, d, extra",
    [
        (get_variety("v"), 3, 5, ()),
        (get_variety("lie"), 3, 5, ()),
        (get_variety("malcev"), 2, 6, ()),
        (["x*x = 0"], 3, 4, ("J(a,b,c)",)),
    ],
)
def test_build_self_check_reports_what_self_check_reports(
    monkeypatch, identities, g, d, extra, last
):
    """With a fault in the elimination (an entry dropped from the first or
    the last reduced row that has two), the build's check of its own rows
    fails with the text that regenerating every row gives."""
    reduce_full = Echelon.reduce_full

    def faulty(self):
        reduce_full(self)
        for p in sorted(self.rows, reverse=last):
            if len(self.rows[p]) > 1:
                del self.rows[p][max(self.rows[p])]
                return

    monkeypatch.setattr(Echelon, "reduce_full", faulty)
    with monkeypatch.context() as unchecked:
        unchecked.setattr(freealg, "_check_rows", lambda F, d, rows: None)
        F = build_free_quotient(identities, g, d, extra_relations=extra)
    with pytest.raises(ValueError) as regenerated:
        F.self_check()
    with pytest.raises(ValueError) as inline:
        build_free_quotient(identities, g, d, extra_relations=extra)
    assert str(inline.value) == str(regenerated.value)
    assert str(inline.value).startswith("self-check failed at degree ")


def _kept_after_build(identities, g, d, top_dim):
    """Bytes that skewalg's own code still holds after a build is freed;
    the identities' compiled forms are cached by a smaller build first."""
    build_free_quotient(identities, g, 3)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        F = build_free_quotient(identities, g, d)
        assert F.dims()[-1] == top_dim
        del F
        gc.collect()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    src = str(Path(freealg.__file__).parent)
    return sum(
        stat.size_diff
        for stat in after.compare_to(before, "filename")
        if stat.traceback[0].filename.startswith(src)
    )


def test_freed_build_leaves_no_skewalg_memory():
    """Nothing of a build outlives it; with relation rows and nontrivial
    orbits (malcev 4 5, v 3 6), neither do the type codes nor the
    per-permutation monomial images."""
    for identities, g, d, top_dim in [
        (["x*x = 0"], 3, 7, 2052),
        (get_variety("malcev"), 4, 5, 268),
        (get_variety("v"), 3, 6, 126),
    ]:
        assert _kept_after_build(identities, g, d, top_dim) < 64 * 1024


def test_builds_and_checks_leave_no_reference_cycles():
    """A build with generator symmetry, a relation combination and an
    identity check on a fresh identity free everything they make by
    reference counting: the collector finds nothing after them."""
    A = get_catalog("sl2").algebra
    gc.collect()
    gc.disable()
    try:
        F = build_free_quotient(get_variety("v"), 3, 6)
        assert _generator_symmetry(F, []) is not None
        assert relation_combination(F, CONJECTURE_WORD)
        assert not check_identity(A, parse_identity("(x*y)*(z*(t*u)) = 0")).holds
        del F
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_relation_combination_matches_oracle_rows(monkeypatch):
    F = build_free_quotient(get_variety("v"), 3, 6)
    got = [(c, text) for c, text, _row in relation_combination(F, CONJECTURE_WORD)]
    monkeypatch.setattr(freealg, "_degree_rows", oracle_rows)
    monkeypatch.setattr(freealg, "_describe", lambda F, text: text)
    want = [(c, text) for c, text, _row in relation_combination(F, CONJECTURE_WORD)]
    assert got == want
    assert len(got) == 3
