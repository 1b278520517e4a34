import gc
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewalg import cli, identities
from skewalg.algebra import Algebra, jacobian
from skewalg.catalog import get_catalog, lie_catalog
from skewalg.construction import random_w_algebra
from skewalg.formats import emit_algebra, parse_algebra_file
from skewalg.freealg import FreeQuotient, parse_word
from skewalg.identities import (
    BudgetExceeded,
    IdentityParseError,
    _flatten,
    builtin_varieties,
    canonicalize,
    check_identity,
    classify,
    get_variety,
    parse_identity,
    polarize,
)

from oracles import component_evaluate, evaluate_term, lhs_minus_rhs, member, raw_polarized_terms

F = Fraction


def make_L():
    return Algebra("L4", ["a", "b", "c", "d"], {(1, 2): {3: 1}, (3, 0): {3: 1}})


def make_B001():
    return Algebra("B001", ["t", "a", "b", "c"], {(1, 2): {3: 1}, (3, 0): {3: 1}})


def make_heisenberg():
    return Algebra("heis", ["x", "y", "z"], {(0, 1): {2: 1}})


def random_anticommutative(rng, n):
    prods = {}
    for i in range(n):
        for j in range(i + 1, n):
            row = {k: v for k in range(n) if (v := rng.randint(-2, 2))}
            if row:
                prods[(i, j)] = row
    return Algebra("rnd", [f"e{i}" for i in range(n)], prods)


def rand_elt(rng, A):
    return A.element([F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(A.dim)])


# ---------- parsing ----------


def test_parse_w_identity():
    idf = parse_identity("J(x,y,z*u) = 0")
    assert idf.variables == ("x", "y", "z", "u")
    assert idf.profile == {"x": 1, "y": 1, "z": 1, "u": 1}


def test_parse_square():
    idf = parse_identity("x*x = 0")
    assert idf.variables == ("x",)
    assert idf.profile == {"x": 2}


def test_parse_malcev():
    idf = parse_identity("J(x,y,x*z) = J(x,y,z)*x")
    assert idf.variables == ("x", "y", "z")
    assert idf.profile == {"x": 2, "y": 1, "z": 1}


def test_parse_coefficients_and_parens():
    idf = parse_identity("1/2*(x*y) - 3*y*x = 2*x*y")
    # semantics: x*y/2 + 3*x*y - 2*x*y = 3/2*x*y; check by evaluation
    A = make_heisenberg()
    x, y = A.basis_element(0), A.basis_element(1)
    val = evaluate_term(lhs_minus_rhs(idf), {"x": x.coords, "y": y.coords}, A)
    assert tuple(val) == tuple((F(3, 2) * (x * y)).coords)


def test_parse_errors_report_position():
    for text, pos in [("x* = 0", 3), ("J(x,y) = 0", 5), ("x@y = 0", 1), ("= 0", 0)]:
        with pytest.raises(IdentityParseError) as e:
            parse_identity(text)
        assert e.value.position == pos


def test_parse_caps_the_height_of_a_term_tree():
    """A term tree has at most 100 levels, so that parsing it and every
    recursive walk of it stay inside the recursion limit. Past the cap the
    parse stops with a position: in a product chain, under parentheses,
    and where groups and chains alternate, whose levels add up."""
    parse_identity("*".join(["x"] * 99) + " = 0")
    with pytest.raises(IdentityParseError) as e:
        parse_identity("*".join(["x"] * 1500) + " = 0")
    assert e.value.position == 201
    parse_identity("(" * 97 + "x*y" + ")" * 97 + " = 0")
    with pytest.raises(IdentityParseError) as e:
        parse_identity("(" * 400 + "x*y" + ")" * 400 + " = 0")
    assert e.value.position == 100
    nested = "x"
    for _ in range(50):
        nested = f"({nested})" + "*y" * 50
    with pytest.raises(IdentityParseError) as e:
        parse_identity(f"{nested} = 0")
    assert "nests more than 100 levels" in str(e.value)


def test_parse_rejects_trailing_garbage():
    with pytest.raises(IdentityParseError):
        parse_identity("x*y = 0 extra")


def test_parse_rejects_missing_star():
    with pytest.raises(IdentityParseError):
        parse_identity("2x = 0")


def test_parse_rejects_nonhomogeneous():
    for text in ["x*y = z", "x*x = x", "x*y + x = 0"]:
        with pytest.raises(IdentityParseError):
            parse_identity(text)


# ---------- polarization ----------


def test_polarize_multilinear_identity_unchanged():
    idf = parse_identity("J(x,y,z*u) = 0")
    comp = polarize(idf)
    assert comp.groups == (("x",), ("y",), ("z",), ("u",))
    assert comp.variables == ("x", "y", "z", "u")
    rng = random.Random(3)
    A = random_anticommutative(rng, 4)
    xs = [rand_elt(rng, A) for _ in range(4)]
    got = component_evaluate(raw_polarized_terms(idf), A, [x.coords for x in xs])
    want = jacobian(xs[0], xs[1], xs[2] * xs[3])
    assert tuple(got) == want.coords


def test_polarize_square():
    idf = parse_identity("x*x = 0")
    comp = polarize(idf)
    assert comp.variables == ("x1", "x2")
    rng = random.Random(4)
    A = random_anticommutative(rng, 4)
    u, v = rand_elt(rng, A), rand_elt(rng, A)
    got = component_evaluate(raw_polarized_terms(idf), A, [u.coords, v.coords])
    want = u * v + v * u
    assert tuple(got) == want.coords


def test_polarize_malcev_component():
    idf = parse_identity("J(x,y,x*z) = J(x,y,z)*x")
    comp = polarize(idf)
    assert comp.variables == ("x1", "x2", "y", "z")
    rng = random.Random(5)
    A = random_anticommutative(rng, 5)
    u1, u2, w, s = (rand_elt(rng, A) for _ in range(4))
    got = component_evaluate(
        raw_polarized_terms(idf), A, [u1.coords, u2.coords, w.coords, s.coords]
    )
    want = (
        jacobian(u1, w, u2 * s)
        + jacobian(u2, w, u1 * s)
        - jacobian(u1, w, s) * u2
        - jacobian(u2, w, s) * u1
    )
    assert tuple(got) == want.coords


def test_polarized_component_is_multilinear():
    idf = parse_identity("J(x,y,x*y) = 0")
    comp, raw = polarize(idf), raw_polarized_terms(idf)
    rng = random.Random(6)
    A = random_anticommutative(rng, 4)
    for slot in range(len(comp.variables)):
        args = [rand_elt(rng, A).coords for _ in comp.variables]
        u, v = rand_elt(rng, A), rand_elt(rng, A)
        al, be = F(2, 3), F(-3)
        args_u = list(args)
        args_u[slot] = u.coords
        args_v = list(args)
        args_v[slot] = v.coords
        args_mix = list(args)
        args_mix[slot] = tuple(al * a + be * b for a, b in zip(u.coords, v.coords))
        lhs = component_evaluate(raw, A, args_mix)
        rhs = [
            al * a + be * b
            for a, b in zip(
                component_evaluate(raw, A, args_u), component_evaluate(raw, A, args_v)
            )
        ]
        assert list(lhs) == rhs


# ---------- checking ----------


def test_check_w_holds_on_L():
    L = make_L()
    for idf in get_variety("w"):
        assert check_identity(L, idf).holds


def test_check_malcev_fails_on_L_with_witness():
    L = make_L()
    res = check_identity(L, parse_identity("J(x,y,x*z) = J(x,y,z)*x"))
    assert not res.holds
    w = res.witness
    assert w.collapsed
    names = [n for n, _ in w.assignment]
    vals = [e for _, e in w.assignment]
    assert names == ["x", "y", "z"]
    assert [v.coords for v in vals] == [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)]
    # J(a,b,ac) - J(a,b,c)a = -d under the left-to-right product convention
    assert w.value.coords == (0, 0, 0, -1)


def test_check_malcev_fails_on_B001_with_witness():
    B = make_B001()
    res = check_identity(B, parse_identity("J(x,y,x*z) = J(x,y,z)*x"))
    assert not res.holds
    w = res.witness
    assert w.collapsed
    assert [e.coords for _, e in w.assignment] == [
        (1, 0, 0, 0),
        (0, 1, 0, 0),
        (0, 0, 1, 0),
    ]
    assert w.value.coords == (0, 0, 0, -1)


def test_check_jacobi_on_lie_algebra():
    assert check_identity(make_heisenberg(), parse_identity("J(x,y,z) = 0")).holds


def test_check_budget_guard():
    L = make_L()
    with pytest.raises(BudgetExceeded):
        check_identity(L, parse_identity("J(x,y,z*u) = 0"), budget=10)


# ---------- varieties and classification ----------


def test_builtin_varieties_names_and_shapes():
    vs = builtin_varieties()
    assert list(vs) == ["lie", "malcev", "binary-lie", "w", "v", "lam", "alam"]
    assert [i.text for i in vs["w"]] == ["x*x = 0", "J(x,y,z*u) = 0"]
    assert [i.text for i in vs["binary-lie"]] == ["x*x = 0", "J(x,y,x*y) = 0"]
    assert [i.text for i in vs["lie"]] == ["x*x = 0", "J(x,y,z) = 0"]
    assert len(vs["lam"]) == 3 and len(vs["alam"]) == 3


def test_get_variety_unknown():
    with pytest.raises(ValueError):
        get_variety("nope")


def test_classify_L():
    got = {v.variety: v.member for v in classify(make_L()).verdicts}
    assert got["w"] and got["v"] and got["binary-lie"]
    assert not got["malcev"] and not got["lie"]


def test_classify_B001():
    cls = classify(make_B001())
    got = {v.variety: v.member for v in cls.verdicts}
    assert got["w"] and not got["malcev"]


def test_classify_zero_algebra():
    Z = Algebra("zero", ["e0", "e1"], {})
    assert all(v.member for v in classify(Z).verdicts)


def test_classify_lie_algebra_everything_holds():
    cls = classify(make_heisenberg())
    assert all(v.member for v in cls.verdicts)


def test_containment_chains_on_fixtures():
    for A in [make_L(), make_B001(), make_heisenberg(), Algebra("z", ["u"], {})]:
        got = {v.variety: v.member for v in classify(A).verdicts}
        if got["w"]:
            assert got["v"]
        if got["v"]:
            assert got["binary-lie"]
        if got["lie"]:
            assert got["malcev"]
        if got["malcev"]:
            assert got["binary-lie"]


SEARCH_ORDER = (
    "J(x,y,z) = 0",
    "J(x,y,x*z) = J(x,y,z)*x",
    "J(x,y,x*y) = 0",
    "J(x,y,z*u) = 0",
    "J(x,y,x*z) = 0",
    "J(x,y,z)*t = 0",
    "J(x,y,z)*x = 0",
)


def spy_searches(monkeypatch):
    """Texts of the polynomials `_first_failure` searches, in call order.
    x*x = 0 compiles to the empty polynomial, which is no search."""
    names = {}
    for idfs in builtin_varieties().values():
        for idf in idfs:
            names.setdefault(compiled(idf.text).key, idf.text)
    searched = []
    search = identities._first_failure

    def spy(A, comp):
        if comp.poly:
            searched.append(names[comp.key])
        return search(A, comp)

    monkeypatch.setattr(identities, "_first_failure", spy)
    return searched


def seeded_w_member(s):
    entries = lie_catalog()
    return random_w_algebra(entries[s % len(entries)].algebra, p_dim=1 + s % 3, seed=s)


def test_classify_searches_only_jacobi_on_lie_algebras(monkeypatch, tmp_path, capsys):
    searched = spy_searches(monkeypatch)
    for A in (get_catalog("sl2").algebra, seeded_w_member(2)):
        assert not A.jacobians()
        searched.clear()
        assert all(v.member for v in classify(A).verdicts)
        assert searched == ["J(x,y,z) = 0"]
    # the moufang report classifies its ambient algebra the same way
    path = tmp_path / "sl2.alg"
    path.write_text(emit_algebra(get_catalog("sl2").algebra))
    searched.clear()
    assert cli.main(["moufang", str(path), "--elements", "x1 = e; x2 = f; x3 = h"]) == 0
    assert searched == ["J(x,y,z) = 0"]
    # seed 14 is in w but not Lie: every distinct polynomial is searched
    searched.clear()
    cls = classify(seeded_w_member(14))
    assert not member(cls, "lie") and member(cls, "w")
    assert searched == list(SEARCH_ORDER)
    # check decides each identity on its own, with no J search to lean on
    searched.clear()
    assert cli.main(["check", str(path), "--variety", "v"]) == 0
    assert searched == ["J(x,y,x*z) = 0"]
    capsys.readouterr()


def test_lie_shortcut_keeps_the_budget_guard():
    """On sl2 (dim 3) J(x,y,z*u) needs 3**4 = 81 evaluations: the budget
    aborts it although the Lie shortcut would skip its search."""
    sl2 = get_catalog("sl2").algebra
    with pytest.raises(BudgetExceeded) as exc:
        classify(sl2, budget=80)
    assert (exc.value.required, exc.value.budget) == (81, 80)
    assert all(v.member for v in classify(sl2, budget=81).verdicts)


def test_collapsed_witness_value_is_the_identitys_own():
    """Each polarized group on one basis vector: the witness names the
    identity's variables and gives its value, int where integral."""
    A = make_L()
    w = check_identity(A, parse_identity("J(x,y,x*z) = J(x,y,z)*x")).witness
    assert w.collapsed
    assert [name for name, _ in w.assignment] == ["x", "y", "z"]
    assert w.value.coords == (0, 0, 0, -1)
    assert all(type(c) is int for c in w.value.coords)
    idf = parse_identity("1/3*((x*y)*x)*x = 0")
    w = check_identity(A, idf).witness
    assert w.collapsed and w.describe() == "x = a, y = d gives -1/3*d"
    env = {name: e.coords for name, e in w.assignment}
    assert list(w.value.coords) == evaluate_term(lhs_minus_rhs(idf), env, A)


# ---------- compiled canonical form ----------


def compiled(text):
    comp = polarize(parse_identity(text))
    comp.compile()
    return comp


def skew_pairs(comp):
    return {
        (comp.variables[p], comp.variables[q])
        for q, bounds in enumerate(comp.lower)
        for p, d in bounds
        if d == 1
    }


def test_skew_pairs_detected():
    assert skew_pairs(compiled("J(x,y,z) = 0")) == {("x", "y"), ("x", "z"), ("y", "z")}
    assert skew_pairs(compiled("J(x,y,z*u) = 0")) == {("x", "y"), ("z", "u")}
    assert skew_pairs(compiled("J(x,y,z)*t = 0")) == {("x", "y"), ("x", "z"), ("y", "z")}
    assert skew_pairs(compiled("J(x,y,z)*x = 0")) == {("y", "z")}
    assert skew_pairs(compiled("(x*y)*z = 0")) == {("x", "y")}


def test_polarized_copies_stay_sorted():
    comp = compiled("J(x,y,z)*x = 0")
    assert comp.variables == ("x1", "x2", "y", "z")
    assert comp.lower[1] == ((0, 0),)


def test_square_compiles_to_zero():
    comp = compiled("x*x = 0")
    assert comp.poly == {}
    calls = []

    class Counting(Algebra):
        __slots__ = ()

        def mul_sparse(self, xs, ys):
            calls.append(1)
            return super().mul_sparse(xs, ys)

    A = Counting("rnd", ["a", "b", "c"], {(0, 1): {2: 1}, (1, 2): {0: 1}})
    assert check_identity(A, parse_identity("x*x = 0")).holds
    assert calls == []


def test_malcev_and_binary_lie_have_eight_canonical_terms():
    for text in ("J(x,y,x*z) = J(x,y,z)*x", "J(x,y,x*y) = 0"):
        comp = compiled(text)
        assert len(raw_polarized_terms(parse_identity(text))[1]) == 12
        assert len(comp.poly) == 8


def test_renamed_identities_share_one_key():
    w = compiled("J(x,y,z*u) = 0")
    lam = compiled("J(x,y,z*t) = 0")
    assert w.key == lam.key
    assert w.key != compiled("J(x,y,z)*t = 0").key
    assert compiled("J(x,y,x*z) = 0").key != compiled("J(x,y,z*u) = 0").key


# ---------- the one polynomial form ----------

COEFS = ("", "2*", "1/2*", "3/4*", "0*")


@st.composite
def term_texts(draw, leaves, sums=1):
    """A term over the letters `leaves`, each occurrence used once: products
    and J(...) split them in order; a parenthesized sum (at most `sums` deep)
    adds a second term over a reordering of the same letters."""
    if len(leaves) == 1:
        return leaves[0]
    kinds = ["prod"] + ["J"] * (len(leaves) >= 3) + ["sum"] * (sums > 0)
    kind = draw(st.sampled_from(kinds))
    if kind == "sum":
        a = draw(term_texts(leaves, sums - 1))
        b = draw(term_texts(draw(st.permutations(leaves)), sums - 1))
        return f"({a} {draw(st.sampled_from('+-'))} {draw(st.sampled_from(COEFS))}({b}))"
    if kind == "prod":
        k = draw(st.integers(1, len(leaves) - 1))
        return f"({draw(term_texts(leaves[:k], sums))})*({draw(term_texts(leaves[k:], sums))})"
    i = draw(st.integers(1, len(leaves) - 2))
    j = draw(st.integers(i + 1, len(leaves) - 1))
    args = (leaves[:i], leaves[i:j], leaves[j:])
    return "J(" + ",".join(draw(term_texts(part, sums)) for part in args) + ")"


@st.composite
def sum_texts(draw, leaves):
    """A sum of one to three terms, each over a reordering of `leaves`."""
    parts = [
        f"{draw(st.sampled_from('+-'))} {draw(st.sampled_from(COEFS))}"
        f"{draw(term_texts(draw(st.permutations(leaves))))}"
        for _ in range(draw(st.integers(1, 3)))
    ]
    return " ".join(parts)


@st.composite
def identity_texts(draw):
    """Homogeneous identities with repeated variables, rational coefficients,
    sums and J(...) on both sides."""
    leaves = draw(st.lists(st.sampled_from("xyz"), min_size=1, max_size=5))
    rhs = draw(st.one_of(st.just("0"), sum_texts(leaves)))
    return f"{draw(sum_texts(leaves))} = {rhs}"


def _collect(pairs):
    """{canonical monomial: coefficient} from (coef, tree) pairs, first
    occurrences first, a cancelled monomial dropped."""
    out = {}
    for coef, tree in pairs:
        res = canonicalize(tree)
        if res is None:
            continue
        v = out.get(res[1], 0) + res[0] * coef
        if v:
            out[res[1]] = v
        else:
            out.pop(res[1], None)
    return out


def _leaves_at(tree, index):
    if tree[0] == "var":
        return index[tree[1]]
    return (_leaves_at(tree[1], index), _leaves_at(tree[2], index))


@settings(max_examples=80, deadline=None)
@given(identity_texts())
def test_polarized_poly_is_the_raw_terms_collected(text):
    """`polarize` collects as it goes: the same monomials, coefficients and
    order as the raw polarized terms (`oracles.raw_polarized_terms`) put on
    variable positions and collected afterwards."""
    idf = parse_identity(text)
    comp = polarize(idf)
    variables, terms = raw_polarized_terms(idf)
    assert comp.variables == variables
    index = {v: i for i, v in enumerate(variables)}
    want = _collect((c, _leaves_at(t, index)) for c, t in terms)
    assert list(comp.poly.items()) == list(want.items())


@settings(max_examples=80, deadline=None)
@given(st.lists(st.sampled_from("abc"), min_size=1, max_size=6).flatmap(sum_texts))
def test_word_poly_is_the_flattened_word_collected(text):
    """`FreeQuotient.word_poly` against `_flatten` and `canonicalize` over
    the generator indices, collected here."""
    F = FreeQuotient((), "abc", 1)
    tree = parse_word(text)
    want = _collect((c, _leaves_at(t, {"a": 0, "b": 1, "c": 2})) for c, t in _flatten(tree))
    assert list(F.word_poly(tree).items()) == list(want.items())


def test_word_poly_names_an_unknown_generator():
    with pytest.raises(ValueError, match="^unknown generator 'c'$"):
        FreeQuotient((), "ab", 1).word_poly(parse_word("(a*b)*c"))


def test_compiled_form_keeps_no_raw_terms(monkeypatch):
    """Compiling a product of seven copies of x (7! = 5,040 placements)
    keeps only the collected polynomial: under 1 MB stays allocated, where
    the 5,040 raw polarized terms took about 4 MB."""
    monkeypatch.setattr(identities, "_COMPILED", {})
    idf = parse_identity("*".join(["x"] * 7) + " = 0")
    gc.collect()
    tracemalloc.start()
    try:
        identities._compiled(idf)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < 1_000_000


def test_parsed_algebra_stores_integral_constants_as_int():
    A = parse_algebra_file("name: t\ndim: 3\nbasis: a b c\na*b = 2*c - 1/2*a\n")
    assert type(A.c(0, 1, 2)) is int and A.c(0, 1, 2) == 2
    assert type(A.c(1, 0, 2)) is int and A.c(1, 0, 2) == -2
    assert A.c(0, 1, 0) == F(-1, 2) and type(A.c(0, 1, 0)) is F


def test_polarization_agrees_with_direct_evaluation():
    rng = random.Random(20260819)
    fixtures = [make_L(), make_B001(), make_heisenberg()]
    fixtures += [random_anticommutative(rng, 4) for _ in range(3)]
    idfs = [
        parse_identity("x*x = 0"),
        parse_identity("J(x,y,x*z) = J(x,y,z)*x"),
        parse_identity("J(x,y,x*z) = 0"),
        parse_identity("J(x,y,x*y) = 0"),
    ]
    for A in fixtures:
        for idf in idfs:
            verdict = check_identity(A, idf).holds
            diff = lhs_minus_rhs(idf)
            seen_nonzero = False
            for _ in range(200):
                env = {v: rand_elt(rng, A).coords for v in idf.variables}
                val = evaluate_term(diff, env, A)
                if any(x != 0 for x in val):
                    seen_nonzero = True
                    break
            assert verdict == (not seen_nonzero)
