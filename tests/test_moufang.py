import random
from collections import Counter
from fractions import Fraction

import pytest

from skewalg import freealg, moufang
from skewalg.algebra import jacobian, subalgebra_generated
from skewalg.catalog import get_catalog
from skewalg.construction import random_w_algebra
from skewalg.freealg import (
    RelationBudgetExceeded,
    build_free_quotient,
    evaluate_word,
)
from skewalg.identities import classify, get_variety
from skewalg.moufang import (
    CONJECTURE_WORD,
    SANITY_WORD,
    moufang_check,
    render_moufang,
    run_conjecture,
    sample_null_triples,
    solve_null_triples,
)

from oracles import jacobi_on_quotient_basis, member


def _els(A):
    return [A.basis_element(i) for i in range(A.dim)]


def _rand_element(A, rng):
    return A.element([Fraction(rng.randint(-3, 3)) for _ in range(A.dim)])


def test_hypothesis_fails_on_paper_L():
    A = get_catalog("paper-L").algebra
    a, b, c, d = _els(A)
    rep = moufang_check(A, a, b, c)
    assert rep.j_value == d
    assert not rep.hypothesis_holds
    assert rep.generated is None
    assert rep.restricted is None
    assert rep.conclusion_holds is None


def test_repeated_argument_holds_trivially():
    A = get_catalog("paper-L").algebra
    a, b, c, d = _els(A)
    x = a + 2 * d
    y = b + c
    rep = moufang_check(A, x, y, y)
    assert rep.hypothesis_holds
    assert rep.generated == subalgebra_generated([x, y])
    assert rep.restricted.dim == rep.generated.dim
    assert rep.conclusion_holds is True


def test_solve_null_triples_lie_whole_space():
    A = get_catalog("sl2").algebra
    e0, e1, e2 = _els(A)
    assert solve_null_triples(A, e0, e1).dim == A.dim
    assert solve_null_triples(A, e0 + 2 * e2, e1 - e0).dim == A.dim


def test_solve_null_triples_paper_L_excludes_c():
    A = get_catalog("paper-L").algebra
    a, b, c, d = _els(A)
    S = solve_null_triples(A, a, b)
    assert S.dim == 3
    assert S.contains(a) and S.contains(b) and S.contains(d)
    assert not S.contains(c)


def test_solve_null_triples_B001_includes_generators():
    A = get_catalog("B(0,0,1)").algebra
    t, a, b, c = _els(A)
    S = solve_null_triples(A, a, b)
    assert S.contains(a) and S.contains(b) and S.contains(c)
    assert not S.contains(t)
    assert S.dim == 3


def test_null_space_members_satisfy_hypothesis():
    rng = random.Random(20260819)
    for name in ["paper-L", "B(0,0,1)", "sl2", "heisenberg3"]:
        A = get_catalog(name).algebra
        for _ in range(5):
            x1, x2 = _rand_element(A, rng), _rand_element(A, rng)
            S = solve_null_triples(A, x1, x2)
            combo = A.zero()
            for v in S.basis_elements():
                assert jacobian(x1, x2, v).is_zero()
                combo = combo + rng.randint(-3, 3) * v
            assert moufang_check(A, x1, x2, combo).hypothesis_holds


def test_sample_null_triples_deterministic_and_valid():
    L = get_catalog("heisenberg3").algebra
    A = random_w_algebra(L, 2, 7)
    t1 = sample_null_triples(A, random.Random(5), 6)
    t2 = sample_null_triples(A, random.Random(5), 6)
    assert [[e.coords for e in t] for t in t1] == [[e.coords for e in t] for t in t2]
    for x1, x2, x3 in t1:
        rep = moufang_check(A, x1, x2, x3)
        assert rep.hypothesis_holds
        assert rep.conclusion_holds is True


def test_conclusion_holds_across_random_w_algebras():
    for li, base in enumerate(["heisenberg3", "abelian3", "affine2"]):
        L = get_catalog(base).algebra
        A = random_w_algebra(L, 2, 100 + li)
        pre = classify(A)
        assert member(pre, "w")
        for x1, x2, x3 in sample_null_triples(A, random.Random(li), 4):
            rep = moufang_check(A, x1, x2, x3)
            assert rep.conclusion_holds is True


def test_render_moufang_is_deterministic():
    A = get_catalog("paper-L").algebra
    a, b, c, d = _els(A)
    rep = moufang_check(A, a, b, c)
    text = render_moufang(rep, classify(A), "moufang demo").render()
    again = render_moufang(moufang_check(A, a, b, c), classify(A), "moufang demo")
    assert text == again.render()
    assert text.startswith("command: moufang demo\n")
    assert "[hypothesis]" in text
    assert "J(x1,x2,x3): d" in text
    assert "holds: no" in text
    assert "not evaluated" in text
    assert "w: holds" in text
    assert "malcev: FAILS" in text


def test_render_moufang_conclusion_section():
    A = get_catalog("B(0,0,1)").algebra
    t, a, b, c = _els(A)
    rep = moufang_check(A, a, b, c)
    text = render_moufang(rep, classify(A), "moufang demo").render()
    assert rep.hypothesis_holds
    assert "holds: yes" in text
    assert "Jacobi on generated subalgebra: holds" in text


def test_jacobi_on_quotient_basis_lie_vs_plain():
    F_lie = build_free_quotient(get_variety("lie"), 2, 4)
    assert jacobi_on_quotient_basis(F_lie) == []
    F_anti = build_free_quotient(["x*x = 0"], 2, 4)
    assert jacobi_on_quotient_basis(F_anti) != []


def test_jacobi_on_quotient_basis_free_w_with_adjoined_relation():
    F = build_free_quotient(get_variety("w"), 3, 4, extra_relations=["J(a,b,c)"])
    assert jacobi_on_quotient_basis(F) == []


def test_conjecture_word_is_nonzero_without_variety_relations():
    # guards the verdict: under anticommutativity alone the word survives
    F0 = build_free_quotient(["x*x = 0"], 3, 6)
    assert not evaluate_word(F0, CONJECTURE_WORD).is_zero()


def test_run_conjecture_report_shape():
    rep = run_conjecture()
    text = rep.render()
    assert text.startswith("command: conjecture\n")
    assert "[free algebra]" in text
    assert "variety: v" in text
    assert "max degree: 6" in text
    assert "dims: 1: 3, 2: 3, 3: 9," in text
    assert "J(a,b,a*c): 0" in text
    assert "J(a,b,(a*b)*(a*c)) in free w: 0" in text
    assert "routes agree: yes" in text
    assert "verdict: " in text
    if "verdict: zero" in text:
        assert "[certificate]" in text and "rows: " in text
        assert "[contrast]" in text and "skipped" in text
    else:
        assert "verdict: nonzero" in text
        assert "[contrast]" in text and "FAILS" in text


def test_run_conjecture_is_byte_deterministic():
    assert run_conjecture().render() == run_conjecture().render()


def test_run_conjecture_parses_each_word_once(monkeypatch):
    parsed = []
    parse = freealg.parse_word

    def spy(text):
        parsed.append(text)
        return parse(text)

    monkeypatch.setattr(freealg, "parse_word", spy)
    monkeypatch.setattr(moufang, "parse_word", spy)
    run_conjecture(variant_generators=True)
    assert Counter(parsed) == {CONJECTURE_WORD: 1, SANITY_WORD: 1}


def test_run_conjecture_variant_mode():
    text = run_conjecture(variant_generators=True).render()
    assert text.startswith("command: conjecture --variant-generators\n")
    assert "[variant a, b, a*c]" in text
    assert "word over atoms: J(x1,x2,(x1*x2)*x3)" in text
    assert "agrees with primary framing: yes" in text


def test_run_conjecture_budget_propagates():
    with pytest.raises(RelationBudgetExceeded):
        run_conjecture(budget=100)
