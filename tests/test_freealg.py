import gc
import random
import tracemalloc
import weakref
from collections import Counter
from fractions import Fraction
from itertools import permutations, product
from math import gcd
from pathlib import Path
from string import ascii_lowercase

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewalg import freealg, identities
from skewalg.freealg import (
    RelationBudgetExceeded,
    _assignments,
    _degree_rows,
    _describe,
    _generator_symmetry,
    _row_count,
    build_free_quotient,
    canonicalize,
    conjecture_certificate,
    evaluate_word,
    expand_evaluate,
    mono_label,
    monomials_of_degree,
    parse_word,
    relation_combination,
)
from skewalg.catalog import get_catalog
from skewalg.cli import main
from skewalg.identities import (
    Component,
    _compiled,
    _flatten,
    builtin_varieties,
    check_identity,
    get_variety,
    parse_identity,
    sort_key,
)
from skewalg.linalg import Echelon, _scale_to_int
from skewalg.moufang import CONJECTURE_WORD, value_text

from oracles import (
    _dedupe_key,
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


def nested(F, coords):
    """Coordinates keyed by monomial id, keyed by the nested monomials."""
    return {F.nested(m): c for m, c in coords.items()}


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


@pytest.mark.parametrize(
    "identities, g, cap, index",
    [
        (get_variety("v"), 3, 6, "type"),
        (get_variety("lie"), 2, 7, "type"),
        (get_variety("malcev"), 4, 5, "type"),
        (["x*x = 0"], 4, 6, "whole"),
        (["x*x = 0"], 2, 7, "whole"),
    ],
    ids=["v-3-6-type", "lie-2-7-type", "malcev-4-5-type", "square-4-6-whole", "square-2-7-whole"],
)
def test_key_sizes_before_enumeration_match_it(monkeypatch, identities, g, cap, index):
    """The degree-d sizes that `_row_count` derives when it is called,
    before degree d is enumerated, equal the enumerated ones: by degree,
    `len(F.monomials[d])`; by type code, the monomials of each type, on the
    type index of a build with generator symmetry and on the `whole` index
    (codes are degrees) of a build without."""
    derived = {}
    row_count = freealg._row_count

    def spy(F, d, keep=None):
        base = F.max_degree + 1
        every = freealg._downset({sum(cap * base**i for i in range(g))}, base, g)
        degree, by_key = freealg._key_sizes(F, d, every)
        by_type = {c: n for c, n in by_key.items() if degree[c] == d and n}
        derived[d] = len(F.monomials), freealg._key_sizes(F, d)[1][d], by_type
        return row_count(F, d, keep)

    monkeypatch.setattr(freealg, "_row_count", spy)
    F = build_free_quotient(identities, g, cap)
    assert sorted(derived) == list(range(1, cap + 1))
    for d, (enumerated, by_degree, by_type) in derived.items():
        assert enumerated == max(d, 2)
        assert by_degree == len(F.monomials[d])
        if index == "whole":
            want = {d: len(F.monomials[d])} if F.monomials[d] else {}
        else:
            want = Counter(
                sum((cap + 1) ** i for i in freealg._leaves(F.nested(m))) for m in F.monomials[d]
            )
        assert by_type == want


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


# --- rows from the lower quotient bases ------------------------------------------


def _jacobi_word(g):
    return "J(a,b,a*b)" if g == 2 else "J(a,b,c)"


BASIS_ROW_CASES = [
    (name, g, d, extra)
    for name in [*builtin_varieties(), "x*x = 0"]
    for g, d in [(2, 6), (3, 5), (4, 5)]
    for extra in [(), (_jacobi_word(g),)]
]


@pytest.mark.parametrize(
    "name, g, d, extra",
    BASIS_ROW_CASES,
    ids=[f"{n}-{g}-{d}-{'+'.join(e) or 'no-word'}" for n, g, d, e in BASIS_ROW_CASES],
)
def test_rows_from_the_lower_bases_certify_the_whole_ideal(name, g, d, extra):
    """A build draws substitution values, and a multiple's smaller factor,
    from the lower quotient bases; `self_check` regenerates every row, from
    every monomial, and each vanishes under the rewrite map."""
    identities = get_variety(name) if name in builtin_varieties() else [name]
    build_free_quotient(identities, g, d, extra_relations=extra).self_check()


def test_rows_from_the_lower_bases_certify_a_restricted_build():
    """The same holds for a word-restricted build, which draws its values
    from the made blocks of its types; `self_check` completes it first."""
    word = "J(c,b,(c*b)*(c*a))*b"
    F = build_free_quotient(
        get_variety("v"), 3, 7, extra_relations=["J(a,b,c)"], restrict_to=[word]
    )
    assert evaluate_word(F, word).is_zero()
    F.self_check()


def _inserts(monkeypatch, build):
    """How many rows `build()` hands to elimination, with the quotient."""
    count = [0]
    insert = Echelon.insert

    def spy(self, row, tags=None):
        count[0] += 1
        return insert(self, row, tags)

    with monkeypatch.context() as patched:
        patched.setattr(Echelon, "insert", spy)
        F = build()
    return count[0], F


def test_rows_from_the_lower_bases_are_fewer(monkeypatch):
    """malcev 3 7 with J(a,b,c) eliminates fewer rows than a build from
    every monomial's rows, and gives the same quotient."""
    ids, extra = get_variety("malcev"), ["J(a,b,c)"]
    fewer, F = _inserts(monkeypatch, lambda: build_free_quotient(ids, 3, 7, extra_relations=extra))
    dims, relations = F.dims(), F.relations_rref
    degree_rows = freealg._degree_rows

    def every_row(F, d, keep=None, basis=False):
        return degree_rows(F, d, keep)

    monkeypatch.setattr(freealg, "_degree_rows", every_row)
    every, R = _inserts(monkeypatch, lambda: build_free_quotient(ids, 3, 7, extra_relations=extra))
    assert fewer < every
    assert dims == R.dims() == [witt(3, d) for d in range(1, 8)]
    assert relations == R.relations_rref


WITT_VARIETIES = ["lie", "w", "v", "lam", "alam", "malcev"]


@pytest.mark.parametrize("name", WITT_VARIETIES)
def test_jacobi_on_three_generators_gives_the_witt_dims(name):
    """With J(a,b,c) adjoined, each of these varieties' free quotient on
    a, b, c has the free Lie algebra's dims through degree 8: Witt's
    necklace numbers, from the Moebius formula."""
    F = build_free_quotient(get_variety(name), 3, 8, extra_relations=["J(a,b,c)"])
    assert F.dims() == [witt(3, d) for d in range(1, 9)] == [3, 3, 8, 18, 48, 116, 312, 810]


def test_jacobi_on_three_generators_leaves_binary_lie_above_witt():
    """binary-lie with J(a,b,c) is not Lie at degree 4: 21 against Witt's 18."""
    F = build_free_quotient(get_variety("binary-lie"), 3, 4, extra_relations=["J(a,b,c)"])
    assert F.dims() == [3, 3, 8, 21]
    assert witt(3, 4) == 18


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
            assert [types.code[m] for m in F.monomials[e]] == [
                sum(types.base**leaf for leaf in freealg._leaves(F.nested(m)))
                for m in F.monomials[e]
            ]
            least = orbit_least_codes(sym, types, e)
            reps, moved = sym.split(types, e)
            assert reps == {code for code, rep in least.items() if rep == code}
            assert {code: rep for code, (rep, _perm) in moved.items()} == {
                code: rep for code, rep in least.items() if rep != code
            }
            powers = types.code[:g]
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
    rewrite = {G.nested(m): nested(G, image) for m, image in G.rewrite.items()}
    assert rewrite[(0, (1, 2))] == {(2, (0, 1)): Fraction(-1, 2)}
    assert type(rewrite[(0, (1, 2))][(2, (0, 1))]) is Fraction


# --- evaluation --------------------------------------------------------------


def test_evaluate_plain_product():
    F = build_free_quotient(["x*x = 0"], 3, 2)
    val = evaluate_word(F, "a*b")
    assert val.degree == 2
    assert nested(F, val.coords) == {(0, 1): 1}
    anti = evaluate_word(F, "b*a")
    assert nested(F, anti.coords) == {(0, 1): -1}


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
    ab, ac = (evaluate_word(F, word).coords for word in ("a*b", "a*c"))
    assert ab and ac
    d, v = F.product(2, ab, 2, ac)
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


def oracle_rows(F, d, keep=None, basis=False):
    """(text, row) pairs of degree d: every raw polarized term substituted
    and canonicalized from its leaves, rows described as they are printed.
    Every type's rows are made; `keep` and `basis` are accepted and
    ignored."""
    ids = {F.nested(m): m for m in F.monomials[d]}
    for idf in F.identities:
        variables, terms = raw_polarized_terms(idf)
        k = len(variables)
        if k > d:
            continue
        for combo in _assignments(F.monomials, k, d):
            env = {v: F.nested(m) for v, m in zip(variables, combo)}
            frow = {}
            for coef, tree in terms:
                res = canonicalize(_subst(tree, env))
                if res is None:
                    continue
                c = ids[res[1]]
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
                    res = canonicalize((F.nested(c), F.nested(m)))
                    if res is not None:
                        c2 = ids[res[1]]
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
                    c = ids[res[1]]
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


def _bounds_hold(combo, lower):
    return all(combo[q] >= combo[p] + s for q, bounds in enumerate(lower) for p, s in bounds)


def _id_ranges(by):
    """Per degree, the ids a quotient gives the monomials `by[d]`: ranks in
    the order of degree, then position."""
    out, start = [], 0
    for mons in by:
        out.append(range(start, start + len(mons)))
        start += len(mons)
    return out


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
        monomials = _id_ranges(enumerate_monomials(g, 6))
        for d in range(0, 7):
            full = list(_assignments(monomials, k, d))
            assert len(full) == len(set(full))
            want = [combo for combo in full if _bounds_hold(combo, lower)]
            assert list(_assignments(monomials, k, d, lower)) == want
    assert list(_assignments(_id_ranges(enumerate_monomials(2, 3)), 0, 0)) == [()]
    assert list(_assignments(_id_ranges(enumerate_monomials(2, 3)), 0, 2)) == []


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

    def count_spy(F, d, keep=None):
        counted.append(d)
        return row_count(F, d, keep)

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


def test_conjecture_certificate_of_a_nonzero_word():
    """Under anticommutativity alone the conjecture's word survives: the
    routes agree on its nonzero value and there is no combination."""
    F = build_free_quotient(["x*x = 0"], 3, 6)
    value, routes_agree, combination = conjecture_certificate(F, CONJECTURE_WORD)
    assert not value.is_zero() and value.degree == 6
    assert value == evaluate_word(F, CONJECTURE_WORD)
    assert routes_agree
    assert combination is None


def test_conjecture_certificate_of_a_zero_word():
    """J(a,b,c) vanishes in free lie: the certificate's combination is the
    word's relation combination and sums to the word's expansion."""
    F = build_free_quotient(get_variety("lie"), 3, 3)
    value, routes_agree, combination = conjecture_certificate(F, "J(a,b,c)")
    assert value.is_zero() and value.degree == 3
    assert routes_agree
    assert combination == relation_combination(F, "J(a,b,c)")
    total = Counter()
    for coef, _desc, row in combination:
        for mono, c in row.items():
            total[mono] += coef * c
    want = F.word_poly(parse_word("J(a,b,c)"))
    assert {m: c for m, c in total.items() if c} == {m: c for m, c in want.items() if c}
    assert want


# --- rank-pattern tables ---------------------------------------------------------


def _rank_patterns(k):
    """Every rank pattern of length k, in lexicographic order."""
    return [p for p in product(range(k), repeat=k) if set(p) == set(range(max(p) + 1))]


def _rank_pattern(combo):
    distinct = sorted(set(combo))
    return tuple(map(distinct.index, combo))


def _kept_patterns(table):
    """The rank patterns a pattern table keeps, read off its slot paths:
    slot 2j puts a new distinct value at position j among those before
    it, slot 2j + 1 repeats the one at position j."""
    out = []

    def walk(node, path):
        assert node and list(node) == sorted(node)
        for slot, child in node.items():
            if child is None:
                out.append(path + (slot,))
            else:
                walk(child, path + (slot,))

    walk(table, ())
    patterns = []
    for path in out:
        order, picks = [], []
        for slot in path:
            if slot & 1:
                picks.append(order[slot >> 1])
            else:
                order.insert(slot >> 1, len(picks))
                picks.append(len(picks))
        patterns.append(tuple(map(order.index, picks)))
    return patterns


def _specialized(idf, pattern):
    """idf's raw polarized terms with variable q set to the free generator
    pattern[q], canonicalized and collected, zeros dropped."""
    variables, terms = raw_polarized_terms(idf)
    env = dict(zip(variables, pattern))
    out = {}
    for coef, tree in terms:
        res = canonicalize(_subst(tree, env))
        if res is not None:
            out[res[1]] = out.get(res[1], 0) + Fraction(coef) * res[0]
    return {m: c for m, c in out.items() if c}


def _up_to_scalar(row):
    lead = row[min(row, key=sort_key)]
    return frozenset((m, c / lead) for m, c in row.items())


def _check_pattern_table(idf):
    """The table of idf keeps, of every rank pattern, exactly the least
    member of each class of patterns whose specializations on distinct
    free generators are nonzero rational multiples of each other; a
    pattern with a zero specialization is never kept, and `lower` admits
    every kept one."""
    comp = _compiled(idf)
    assert comp.variables == raw_polarized_terms(idf)[0]
    kept = _kept_patterns(comp.pattern_table()) if comp.poly else []
    classes = {}
    for pattern in _rank_patterns(len(comp.variables)):
        row = _specialized(idf, pattern)
        if row:
            classes.setdefault(_up_to_scalar(row), []).append(pattern)
        else:
            assert pattern not in kept
    # members in lexicographic order: a dropped one follows its class's kept one
    assert sorted(kept) == sorted(members[0] for members in classes.values())
    assert all(_bounds_hold(pattern, comp.lower) for pattern in kept)


PATTERN_TEXTS = list(dict.fromkeys(
    [idf.text for idfs in builtin_varieties().values() for idf in idfs]
    + [source for source, _g, _d, _e in ROW_CASES if source not in builtin_varieties()]
))


@pytest.mark.parametrize("text", PATTERN_TEXTS)
def test_pattern_table_keeps_the_least_pattern_of_each_class(text):
    _check_pattern_table(parse_identity(text))


@st.composite
def identity_texts(draw):
    """A homogeneous identity of one to five letter occurrences: up to
    three terms, each a bracketing of an arrangement of the same letters."""
    letters = draw(st.lists(st.sampled_from("xyzt"), min_size=1, max_size=5))

    def bracketed(leaves):
        if len(leaves) == 1:
            return leaves[0]
        i = draw(st.integers(1, len(leaves) - 1))
        return f"({bracketed(leaves[:i])}*{bracketed(leaves[i:])})"

    terms = []
    for i in range(draw(st.integers(1, 3))):
        sign = draw(st.sampled_from(["+", "-"]))
        coef = draw(st.sampled_from(["", "2*", "1/2*", "3*"]))
        leaves = draw(st.permutations(letters))
        terms.append(f"{sign if i else sign.strip('+')} {coef}{bracketed(leaves)}")
    return " ".join(terms) + " = 0"


@settings(max_examples=60, deadline=None)
@given(identity_texts())
def test_pattern_table_keeps_the_least_pattern_of_random_identities(text):
    _check_pattern_table(parse_identity(text))


@pytest.mark.parametrize("text", PATTERN_TEXTS)
def test_pattern_table_filters_the_lower_enumeration(text):
    """`_assignments` with the table yields, in the same order, the tuples
    of the `lower`-pruned enumeration whose rank pattern the table keeps:
    of every type or of a kept set of types, from every monomial or from a
    thinned increasing subset of each degree."""
    comp = _compiled(parse_identity(text))
    k, table = len(comp.variables), comp.pattern_table()
    kept = set(_kept_patterns(table)) if comp.poly else set()
    F = freealg.FreeQuotient([], "abc", 6)
    for _ in range(5):
        F.add_degree()
    # per id, its type code (base 7, the cap plus one)
    code = [sum(7**leaf for leaf in freealg._leaves(F.nested(m))) for m in range(F.monomials[-1].stop)]
    for values in (F.monomials, [r[::2] if e % 2 else r for e, r in enumerate(F.monomials)]):
        groups = [freealg._grouped(v, code) for v in values]
        for d in range(k, 7):
            for keep in (None, set(sorted({code[m] for m in F.monomials[d]})[::2])):
                args = (values, k, d, comp.lower, code, groups, keep)
                want = [c for c in _assignments(*args) if _rank_pattern(c) in kept]
                assert list(_assignments(*args, table)) == want


def test_identities_past_six_variables_keep_lower_pruning():
    """An identity of seven polarized variables builds no table, and its
    `lower`-pruned rows first occur where the raw-term oracle's do; one of
    six builds a table."""
    assert _compiled(parse_identity("((x*y)*(z*u))*(v*w) = 0")).pattern_table() is not None
    idf = parse_identity("((x*y)*(z*u))*((v*w)*s) = 0")
    assert _compiled(idf).pattern_table() is None
    F = build_free_quotient([idf], 2, 7)
    for d in range(1, 8):
        got = [(_describe(F, src), row) for src, row in _degree_rows(F, d)]
        assert _first_occurrences(got) == _first_occurrences(oracle_rows(F, d))
    F.self_check()


def _instance_and_dependent_counts(monkeypatch, build):
    """(instance rows generated, dependent inserts) of `build()` and its
    dims, with the quotient."""
    counts = Counter()
    degree_rows, insert = freealg._degree_rows, Echelon.insert

    def rows(F, d, *args, **kwargs):
        for source, row in degree_rows(F, d, *args, **kwargs):
            counts["instance"] += len(source) == 3 and not isinstance(source[0], int)
            yield source, row

    def dependent(self, row, tags=None):
        hit = insert(self, row, tags)
        counts["dependent"] += hit is None
        return hit

    with monkeypatch.context() as spied:
        spied.setattr(freealg, "_degree_rows", rows)
        spied.setattr(Echelon, "insert", dependent)
        F = build()
        F.dims()
    return (counts["instance"], counts["dependent"]), F


@pytest.mark.parametrize(
    "name, table, lower_only",
    [
        ("v", (191, 130), (337, 247)),
        ("binary-lie", (58, 9), (191, 124)),
        ("lie", (57, 9), (57, 9)),
        ("w", (111, 48), (111, 48)),
    ],
)
def test_pattern_table_prunes_instance_rows(monkeypatch, name, table, lower_only):
    """A 3 6 build generates fewer instance rows and hands elimination
    fewer dependent rows with the table than with `lower` alone, except
    where the table keeps every admitted pattern (lie, w); its dims and
    relations rref are those of a reference built from every `lower`-pruned
    row."""
    ids = get_variety(name)
    counts, F = _instance_and_dependent_counts(monkeypatch, lambda: build_free_quotient(ids, 3, 6))
    assert counts == table
    with monkeypatch.context() as untabled:
        untabled.setattr(Component, "pattern_table", lambda comp: None)
        assert _instance_and_dependent_counts(
            monkeypatch, lambda: build_free_quotient(ids, 3, 6)
        )[0] == lower_only
        R = reference_free_quotient(ids, 3, 6)
    assert F.dims() == [len(b) for b in R.basis[1:]]
    assert F.relations_rref == R.relations_rref


def test_pattern_table_is_built_once_per_compiled_identity(monkeypatch):
    """Two builds build the table of each identity that makes rows once;
    compiling and checking identities build none."""
    built = []
    pattern_table = identities._pattern_table
    monkeypatch.setattr(identities, "_COMPILED", {})
    monkeypatch.setattr(
        identities, "_pattern_table", lambda comp: built.append(comp) or pattern_table(comp)
    )
    A = get_catalog("sl2").algebra
    for idfs in builtin_varieties().values():
        for idf in idfs:
            check_identity(A, idf)
    assert built == []
    for _ in range(2):
        build_free_quotient(get_variety("v"), 3, 5).self_check()
    assert built == [_compiled(get_variety("v")[1])]


# --- pending types -------------------------------------------------------------


def _relabel_spy(monkeypatch):
    """The (degree, type codes) of every batch of moved types relabelled
    for elimination, in order."""
    seen = []
    relabelled = freealg._relabelled

    def spy(F, d, moved):
        seen.append((d, sorted(moved)))
        return relabelled(F, d, moved)

    monkeypatch.setattr(freealg, "_relabelled", spy)
    return seen


def _column_types(F, d):
    """{monomial id: its type code}, for the monomials of degree d."""
    return {
        m: sum((F.max_degree + 1) ** leaf for leaf in freealg._leaves(F.nested(m)))
        for m in F.monomials[d]
    }


def _type_code(word, g, cap):
    """The type code (base cap + 1) of a homogeneous word on g letters."""
    F = freealg.FreeQuotient([], ascii_lowercase[:g], cap)
    leaves = freealg._leaves(next(iter(F.word_poly(parse_word(word)))))
    return sum((cap + 1) ** leaf for leaf in leaves)


def test_free_without_eval_eliminates_no_top_degree_type(monkeypatch, capsys):
    """`free` prints dims only, so the moved types of the top degree are
    never relabelled; every lower degree's are, for the next degree's rows."""
    seen = _relabel_spy(monkeypatch)
    assert main(["free", "--variety", "w", "--generators", "4", "--max-degree", "5"]) == 0
    R = reference_free_quotient(get_variety("w"), 4, 5)
    dims = ", ".join(f"{d}: {len(R.basis[d])}" for d in range(1, 6))
    assert f"dims: {dims}\n" in capsys.readouterr().out
    assert [d for d, _codes in seen] == [1, 2, 3, 4]


PENDING_DIMS_CASES = [
    (name, g, d, extra)
    for name in builtin_varieties()
    for g, d in [(3, 6), (4, 5)]
    for extra in [(), ("J(a,b,c)",)]
]


@pytest.mark.parametrize(
    "name, g, d, extra",
    PENDING_DIMS_CASES,
    ids=[f"{n}-{g}-{d}-{'+'.join(e) or 'no-word'}" for n, g, d, e in PENDING_DIMS_CASES],
)
def test_dims_read_first_match_the_reference(monkeypatch, name, g, d, extra):
    """Read before anything else, `dims` counts each moved type at its
    representative's rank without eliminating it, and gives the dims that
    eliminating every row gives."""
    seen = _relabel_spy(monkeypatch)
    F = build_free_quotient(get_variety(name), g, d, extra_relations=extra)
    dims = F.dims()
    assert all(deg < d for deg, _codes in seen)
    R = reference_free_quotient(get_variety(name), g, d, extra_relations=extra)
    assert dims == R.dims()


def _eval_on_w_4_5(monkeypatch, capsys, word):
    """The top-degree batches relabelled by `free --eval word` on w 4 5,
    after checking that it prints the reference's value."""
    seen = _relabel_spy(monkeypatch)
    argv = ["free", "--variety", "w", "--generators", "4", "--max-degree", "5", "--eval", word]
    assert main(argv) == 0
    R = reference_free_quotient(get_variety("w"), 4, 5)
    value = value_text(R, evaluate_word(R, word))
    assert f"value: {value}\n" in capsys.readouterr().out
    return [codes for deg, codes in seen if deg == 5]


def test_eval_on_a_representative_type_leaves_the_degree_pending(monkeypatch, capsys):
    """A degree-5 word whose type (a2 b c d) is its orbit's representative
    reads only checked rewrites, so no pending type is eliminated."""
    assert _eval_on_w_4_5(monkeypatch, capsys, "J(a,b,a*c)*d") == []


def test_eval_on_a_moved_type_makes_only_its_block(monkeypatch, capsys):
    """A degree-5 word of a moved type (b c2 d2) makes its own block at its
    first read: that type alone is relabelled, and the degree's other 46
    moved types keep waiting."""
    word = "J(b,c,d)*(c*d)"
    assert _eval_on_w_4_5(monkeypatch, capsys, word) == [[_type_code(word, 4, 5)]]


def test_words_on_pending_types_match_the_reference():
    """Words read through products and through full expansion, the first
    of them read while the top degree is pending, agree with the reference
    quotient, and so do the quotient's basis, rewrites and relations."""
    rng = random.Random(20261019)
    F = build_free_quotient(get_variety("malcev"), 3, 6, extra_relations=["J(a,b,c)"])
    R = reference_free_quotient(get_variety("malcev"), 3, 6, extra_relations=["J(a,b,c)"])

    def random_tree(d):
        if d == 1:
            return ("var", "abc"[rng.randrange(3)])
        e = rng.randint(1, d - 1)
        return ("prod", random_tree(e), random_tree(d - e))

    for _ in range(40):
        tree = random_tree(rng.randint(4, 6))
        assert evaluate_word(F, tree) == evaluate_word(R, tree)
        assert expand_evaluate(F, tree) == expand_evaluate(R, tree)
    assert F.relations_rref == R.relations_rref
    assert F.basis == R.basis
    assert F.rewrite == R.rewrite


def test_failing_pending_type_reports_what_self_check_reports(monkeypatch):
    """A fault in the elimination of a pending type fails the word that
    reads it with the text that `self_check` then gives: the first failing
    row of the whole degree. Every later read raises it again, also of a
    rewrite that the failed elimination wrote and of a product read before
    the fault, and so it does after `self_check` meets the fault. (The fault
    is one dropped entry of the first reduced row of the word's type,
    whichever elimination makes it.)"""
    word = "J(b,c,d)*(c*d)"
    F = build_free_quotient(get_variety("w"), 4, 5)
    codes, target = _column_types(F, 5), _type_code(word, 4, 5)
    reduce_full = Echelon.reduce_full

    def a_times_b():
        return F.product(1, {0: 1}, 1, {1: 1})

    assert a_times_b() == (2, {F.monomials[2][0]: 1})

    def faulty(self):
        reduce_full(self)
        for p in sorted(self.rows):
            if codes.get(p) == target and len(self.rows[p]) > 1:
                del self.rows[p][max(self.rows[p])]
                return

    monkeypatch.setattr(Echelon, "reduce_full", faulty)
    with pytest.raises(ValueError) as inline:
        evaluate_word(F, word)
    assert str(inline.value).startswith("self-check failed at degree 5: ")
    monkeypatch.undo()
    for read in [
        lambda: evaluate_word(F, word),
        lambda: expand_evaluate(F, word),
        a_times_b,
        lambda: F.basis,
        lambda: F.rewrite,
        F.self_check,
    ]:
        with pytest.raises(ValueError) as again:
            read()
        assert str(again.value) == str(inline.value)
    R = build_free_quotient(get_variety("w"), 4, 5)
    assert R.monomials[5] == F.monomials[5]
    with monkeypatch.context() as patched:
        patched.setattr(Echelon, "reduce_full", faulty)
        with pytest.raises(ValueError) as regenerated:
            R.self_check()
    assert str(regenerated.value) == str(inline.value)
    with pytest.raises(ValueError) as again:
        evaluate_word(R, word)
    assert str(again.value) == str(inline.value)


@pytest.mark.parametrize("read", ["nothing", "a word", "basis", "restricted"])
def test_built_quotient_is_freed_without_the_collector(read):
    """A quotient with pending types, or completed by a word or by
    `basis`, or word-restricted and read, holds no reference cycle: with
    the collector off it dies with its last name."""
    gc.collect()
    gc.disable()
    try:
        restrict = ["J(b,c,d)*(c*d)"] if read == "restricted" else None
        F = build_free_quotient(
            get_variety("w"), 4, 5, extra_relations=["J(a,b,c)"], restrict_to=restrict
        )
        if read in ("a word", "restricted"):
            evaluate_word(F, "J(b,c,d)*(c*d)")
        elif read == "basis":
            assert F.basis
        ref = weakref.ref(F)
        del F
        assert ref() is None
    finally:
        gc.enable()


# --- word-restricted builds ----------------------------------------------------


def _leaf_counts(m):
    return {leaf: freealg._leaves(m).count(leaf) for leaf in set(freealg._leaves(m))}


def _within(m, counts):
    """Whether the monomial's letters are at most `counts`, letter by letter."""
    return all(n <= counts.get(leaf, 0) for leaf, n in _leaf_counts(m).items())


RESTRICTED_CASES = [
    (name, g, d, word, extra)
    for name, g, d, word in [
        ("v", 3, 7, "J(c,b,(c*b)*(c*a))*b"),
        ("malcev", 4, 5, "J(d,b,c)*(d*a)"),
        ("binary-lie", 3, 6, CONJECTURE_WORD),
    ]
    for extra in [(), ("J(a,b,c)",)]
] + [("lie", 2, 6, "(((a*b)*b)*b)*(a*b)", ("a*(a*b)",))]


@pytest.mark.parametrize(
    "name, g, d, word, extra",
    RESTRICTED_CASES,
    ids=[f"{n}-{g}-{d}-{'+'.join(e) or 'no-word'}" for n, g, d, _w, e in RESTRICTED_CASES],
)
def test_restricted_build_equals_the_full_build_on_its_types(name, g, d, word, extra):
    """A word-restricted build gives the full build's rewrite of every
    monomial whose letters are at most its word's, at every degree, and the
    word's value; a monomial past them was never made, so reading it
    raises. (lie with a*(a*b) has no generator symmetry.)"""
    F = build_free_quotient(get_variety(name), g, d, extra_relations=extra, restrict_to=[word])
    R = build_free_quotient(get_variety(name), g, d, extra_relations=extra)
    assert evaluate_word(F, word) == evaluate_word(R, word)
    counts = {i: word.count(letter) for i, letter in enumerate(ascii_lowercase[:g])}
    outside = []
    for e in range(1, d + 1):
        for m in R.monomials[e]:
            if _within(R.nested(m), counts):
                assert expand_evaluate(F, F.label(m)).coords == R.rewrite[m]
            else:
                outside.append(m)
    with pytest.raises(ValueError, match="is outside a word-restricted quotient"):
        expand_evaluate(F, F.label(outside[-1]))


def test_read_outside_a_restricted_quotient_raises():
    """The free w contrast quotient is restricted to the conjecture word's
    types (a3 b2 c1 and below): a word with two c's raises, through either
    route, at the top degree and below. Reading the relations makes every
    block, after which the quotient is the full one."""
    F = build_free_quotient(get_variety("w"), 3, 6, restrict_to=[CONJECTURE_WORD])
    assert evaluate_word(F, CONJECTURE_WORD).is_zero()
    for word in ["J(a,b,c)*(c*b)", "c*(c*b)"]:
        for read in (evaluate_word, expand_evaluate):
            with pytest.raises(ValueError, match="outside a word-restricted quotient"):
                read(F, word)
    R = build_free_quotient(get_variety("w"), 3, 6)
    assert F.relations_rref == R.relations_rref
    assert F.dims() == R.dims()
    assert evaluate_word(F, "J(a,b,c)*(c*b)") == evaluate_word(R, "J(a,b,c)*(c*b)")


@pytest.mark.parametrize(
    "name, g, cap, extra",
    [
        ("v", 3, 5, ()),
        ("w", 3, 5, ("J(a,b,c)",)),
        ("binary-lie", 2, 6, ()),
        ("v", 3, 5, ("a*a", "J(a,b,c)")),
        ("w", 3, 5, ("(a*b)*(a*b)",)),
    ],
)
def test_restricted_build_covering_every_type_charges_the_full_count(name, g, cap, extra):
    """Restricted to one word of every top-degree type, a build makes every
    block of every degree, so its per-block charges add up, degree by
    degree, to the full build's `_row_count`: both abort at the same degree
    for every budget just short of a degree's cumulative count.  An
    adjoined word whose row is empty (a*a, (ab)(ab)) is charged by its
    letters' type."""
    F = build_free_quotient(get_variety(name), g, cap, extra_relations=extra)
    words = [F.label(ms[0]) for ms in _types_of(F, F.monomials[cap]).values()]
    total = 0
    for d in range(1, cap + 1):
        total += _row_count(F, d)
        if not _row_count(F, d):
            continue  # a degree without rows never aborts
        for restrict in (None, words):
            with pytest.raises(RelationBudgetExceeded) as info:
                build_free_quotient(
                    get_variety(name), g, cap, extra_relations=extra, budget=total - 1,
                    restrict_to=restrict,
                )
            assert info.value.degree == d
    G = build_free_quotient(
        get_variety(name), g, cap, extra_relations=extra, budget=total, restrict_to=words
    )
    assert G.dims() == F.dims()


def _types_of(F, mons):
    """{sorted leaves: the monomial ids of that type}, in order."""
    out = {}
    for m in mons:
        out.setdefault(tuple(sorted(freealg._leaves(F.nested(m)))), []).append(m)
    return out


def test_restricted_build_charges_only_its_blocks():
    """The free w contrast quotient charges far fewer rows than the full
    build, so it passes a budget that the full build exceeds."""
    F = build_free_quotient(get_variety("w"), 3, 6)
    full = sum(_row_count(F, d) for d in range(1, 7))
    G = build_free_quotient(get_variety("w"), 3, 6, budget=full // 3, restrict_to=[CONJECTURE_WORD])
    assert evaluate_word(G, CONJECTURE_WORD) == evaluate_word(F, CONJECTURE_WORD)
    with pytest.raises(RelationBudgetExceeded):
        build_free_quotient(get_variety("w"), 3, 6, budget=full // 3)


_WHOLE_READS = {
    "dims": lambda F: F.dims(),
    "basis": lambda F: F.basis,
    "rewrite": lambda F: F.rewrite,
    "relations_rref": lambda F: F.relations_rref,
    "self_check": lambda F: F.self_check(),
    "certificate": lambda F: relation_combination(F, CONJECTURE_WORD),
}


def test_relations_rref_hands_out_copies():
    """Clearing the rows a `relations_rref` read returns changes nothing in
    the quotient: the certificate, which reads the lower degrees' relation
    rows for its multiples, and the next read are those of a fresh build."""
    F, G = (build_free_quotient(get_variety("v"), 3, 6) for _ in range(2))
    for rows in F.relations_rref:
        for row in rows:
            row.clear()
    combination = relation_combination(F, CONJECTURE_WORD)
    assert len(combination) == 3
    assert combination == relation_combination(G, CONJECTURE_WORD)
    assert F.relations_rref == G.relations_rref


def _row_store_cases():
    """(variety, generators, cap, adjoined words, restriction) for
    `test_relation_rows_are_the_rewrites`."""
    jacobian = {2: "J(a,b,a*b)", 3: "J(a,b,c)"}
    for name in ("lie", "w", "v", "malcev"):
        for g, cap in ((2, 6), (3, 5), (3, 6)):
            yield pytest.param(name, g, cap, [], None, id=f"{name}-{g}-{cap}")
            yield pytest.param(name, g, cap, [jacobian[g]], None, id=f"{name}-{g}-{cap}-J")
    for extra, tag in (([], ""), (["J(a,b,c)"], "-J")):  # leads above 1
        yield pytest.param("binary-lie", 3, 6, extra, None, id=f"binary-lie-3-6{tag}")
    yield pytest.param("w", 3, 6, [], [CONJECTURE_WORD], id="w-3-6-restricted")


@pytest.mark.parametrize("name, g, cap, extra, restrict", _row_store_cases())
def test_relation_rows_are_the_rewrites(name, g, cap, extra, restrict):
    """Read through public names only, each relation row of a degree is
    primitive with a positive lead, its lead's rewrite is minus the row over
    its lead, off the lead, and the leads increase, take no other row's
    entries and, with the basis, part the degree's monomials. A
    word-restricted quotient is completed by the `relations_rref` read.
    Only binary-lie's rows here have leads above 1, so a rewrite's
    denominators matter."""
    F = build_free_quotient(get_variety(name), g, cap, extra_relations=extra, restrict_to=restrict)
    rows = F.relations_rref
    rewrite, basis, dims = F.rewrite, F.basis, F.dims()
    assert len(rows) == cap + 1 and rows[0] == []
    for d in range(1, cap + 1):
        leads = [min(row) for row in rows[d]]
        assert leads == sorted(set(leads))
        assert sorted([*leads, *basis[d]]) == list(F.monomials[d])
        assert len(rows[d]) == len(F.monomials[d]) - dims[d - 1]
        for lead, row in zip(leads, rows[d]):
            assert all(type(v) is int for v in row.values())
            assert row[lead] > 0 and gcd(*row.values()) == 1
            assert not set(leads) & row.keys() - {lead}
            assert rewrite[lead] == {m: Fraction(-v, row[lead]) for m, v in row.items() if m != lead}
    assert any(row[min(row)] > 1 for part in rows for row in part) == (name == "binary-lie")


def _restricted_charge(monkeypatch, words):
    """The rows a word-restricted w 3 6 build charges, degree by degree:
    its `_row_count`s."""
    charged = []
    row_count = freealg._row_count

    def spy(F, d, keep=None):
        charged.append(row_count(F, d, keep))
        return charged[-1]

    with monkeypatch.context() as patched:
        patched.setattr(freealg, "_row_count", spy)
        build_free_quotient(get_variety("w"), 3, 6, restrict_to=words)
    return charged


def test_restricted_abort_enumerates_nothing_of_its_degree(monkeypatch):
    """A word-restricted build charges a degree before it enumerates it: an
    abort at degree d has enumerated degrees 2 to d - 1 only."""
    charged = _restricted_charge(monkeypatch, [CONJECTURE_WORD])
    enumerated = []
    mons = freealg.monomials_of_degree

    def spy(by, d):
        enumerated.append(d)
        return mons(by, d)

    monkeypatch.setattr(freealg, "monomials_of_degree", spy)
    for d in range(3, 7):
        assert charged[d - 1]
        enumerated.clear()
        with pytest.raises(RelationBudgetExceeded) as info:
            build_free_quotient(
                get_variety("w"), 3, 6, budget=sum(charged[:d - 1]), restrict_to=[CONJECTURE_WORD]
            )
        assert info.value.degree == d
        assert enumerated == list(range(2, d))


@pytest.mark.parametrize("read", list(_WHOLE_READS))
def test_completing_a_restricted_quotient_charges_the_budget(monkeypatch, read):
    """A whole-quotient read of a word-restricted quotient makes the blocks
    the build left out and charges their rows: past a budget that only the
    restricted build fits it aborts, and so does every later such read,
    while the words of the restriction still read; build and reads charge
    the full build's count, no more (the reads give what the full build
    gives) and no less (one row short, completing aborts)."""
    F = build_free_quotient(get_variety("w"), 3, 6)
    full = sum(_row_count(F, d) for d in range(1, 7))
    kept = sum(_restricted_charge(monkeypatch, [CONJECTURE_WORD]))
    assert kept < full
    G = build_free_quotient(get_variety("w"), 3, 6, budget=kept, restrict_to=[CONJECTURE_WORD])
    with pytest.raises(RelationBudgetExceeded) as info:
        _WHOLE_READS[read](G)
    for again in (read, "dims", "basis"):
        with pytest.raises(RelationBudgetExceeded) as later:
            _WHOLE_READS[again](G)
        assert later.value.degree == info.value.degree
    assert evaluate_word(G, CONJECTURE_WORD) == evaluate_word(F, CONJECTURE_WORD)
    H = build_free_quotient(get_variety("w"), 3, 6, budget=full, restrict_to=[CONJECTURE_WORD])
    assert _WHOLE_READS[read](H) == _WHOLE_READS[read](F)
    assert H.dims() == F.dims()
    K = build_free_quotient(get_variety("w"), 3, 6, budget=full - 1, restrict_to=[CONJECTURE_WORD])
    with pytest.raises(RelationBudgetExceeded):
        K.dims()


def test_failure_is_kept_when_naming_its_row_exceeds_the_budget(monkeypatch):
    """A failing check on a restricted quotient makes the rest of the degree
    to name the first failing row; past the budget that aborts, and every
    later read of the failed block raises the failed check."""
    words = [CONJECTURE_WORD, "J(b,a,(b*a)*(b*c))"]  # the second's type waits
    kept = sum(_restricted_charge(monkeypatch, words))
    F = build_free_quotient(get_variety("w"), 3, 6, budget=kept, restrict_to=words)
    codes, target = _column_types(F, 6), _type_code(words[1], 3, 6)
    seen = _relabel_spy(monkeypatch)
    reduce_full = Echelon.reduce_full

    def faulty(self):
        reduce_full(self)
        for p in sorted(self.rows):
            if codes.get(p) == target and len(self.rows[p]) > 1:
                del self.rows[p][max(self.rows[p])]
                return

    with monkeypatch.context() as patched:
        patched.setattr(Echelon, "reduce_full", faulty)
        with pytest.raises(RelationBudgetExceeded):
            evaluate_word(F, words[1])
    assert seen == [(6, [target])]
    for _ in range(2):
        with pytest.raises(ValueError, match="self-check failed at degree 6: "):
            evaluate_word(F, words[1])


def test_relation_combination_relabels_no_top_degree_type(monkeypatch):
    """On a fresh v 3 6 quotient the certificate reads its word's type and
    the lower degrees only: no top-degree type is relabelled, and the
    quotient still gives the reference's dims."""
    seen = _relabel_spy(monkeypatch)
    F = build_free_quotient(get_variety("v"), 3, 6)
    assert len(relation_combination(F, CONJECTURE_WORD)) == 3
    assert seen and all(d < 6 for d, _codes in seen)
    assert F.dims() == reference_free_quotient(get_variety("v"), 3, 6).dims()
