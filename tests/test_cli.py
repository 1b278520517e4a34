"""End-to-end tests for the command-line interface."""

import random
import re
import subprocess
import sys
from fractions import Fraction
from itertools import chain, combinations
from math import comb
from pathlib import Path
from time import perf_counter

import pytest

from skewalg.algebra import Algebra, jacobian, jacobian_ideal, lie_center
from skewalg.catalog import get_catalog
from skewalg.cli import main
from skewalg.construction import build_from_construction, decompose
from skewalg.formats import emit_algebra, emit_construction, parse_algebra_file

from oracles import change_basis


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.fixture
def paper_file(tmp_path, capsys):
    rc, out, _ = run(capsys, "catalog", "paper-L")
    assert rc == 0
    path = tmp_path / "L.alg"
    path.write_text(out)
    return str(path)


def test_catalog_paper_algebra(capsys):
    rc, out, err = run(capsys, "catalog", "paper-L")
    assert rc == 0
    assert err == ""
    assert out == "name: paper-L\ndim: 4\nbasis: a b c d\nb*c = d\nd*a = d\n"
    A = parse_algebra_file(out)
    B = get_catalog("paper-L").algebra
    n = B.dim
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert A.c(i, j, k) == B.c(i, j, k)


def test_catalog_unknown_name_lists_options(capsys):
    rc, out, err = run(capsys, "catalog", "nope")
    assert rc == 2
    assert out == ""
    assert "unknown catalog algebra" in err
    assert "paper-L" in err and "sl2" in err


def test_catalog_parametric(capsys):
    rc, out, _ = run(capsys, "catalog", "B(1/2,-2,3)")
    assert rc == 0
    A = parse_algebra_file(out)
    assert A.dim == 4


def test_classify_report(paper_file, capsys):
    rc, out, err = run(capsys, "classify", paper_file)
    assert rc == 0
    assert err == ""
    assert f"command: classify {paper_file}\n" in out
    assert "name: paper-L" in out
    assert "w: holds" in out
    assert "v: holds" in out
    assert "binary-lie: holds" in out
    assert (
        "malcev: FAILS (J(x,y,x*z) = J(x,y,z)*x; "
        "witness x = a, y = b, z = c gives -d)" in out
    )


def test_invariants_report(paper_file, capsys):
    rc, out, err = run(capsys, "invariants", paper_file)
    assert rc == 0
    assert err == ""
    assert out == (
        f"command: invariants {paper_file}\n"
        "\n[algebra]\n"
        "name: paper-L\n"
        "dim: 4\n"
        "\n[spaces]\n"
        "center: dim 0\n"
        "product space: dim 1, basis: d\n"
        "lie center: dim 1, basis: d\n"
        "jacobian ideal: dim 1, basis: d\n"
        "\n[series]\n"
        "derived: 4, 1, 0\n"
        "lower central: 4, 1\n"
        "\n[flags]\n"
        "solvable: yes\n"
        "nilpotent: no\n"
    )


def test_invariants_and_classify_multiply_on_the_integral_twin(tmp_path, capsys, monkeypatch):
    """On an algebra with non-integral constants (lcm of denominators 12),
    `invariants` and `classify` read only its integral twin: every product,
    every direct table read and every product index read sees an all-int
    table, and every product int operands. The algebra's own Jacobian table
    keeps the unscaled values."""
    half, third = Fraction(1, 2), Fraction(1, 3)
    A = Algebra(
        "halves",
        ["a", "b", "c", "d", "e", "f"],
        {
            (0, 1): {2: half}, (0, 2): {3: Fraction(-5, 4), 4: 1}, (1, 2): {4: 2 * third},
            (0, 3): {5: half * third}, (1, 4): {5: 3}, (2, 4): {5: -half},
        },
    )
    path = tmp_path / "halves.alg"
    path.write_text(emit_algebra(A))
    reads = []
    mul, pairs, index = Algebra.mul_sparse, Algebra.table_pairs, Algebra.product_index

    def int_table(A):
        return all(type(v) is int for _, row in pairs(A) for v in row.values())

    def spy_mul(self, xs, ys):
        operands = chain(xs.values(), ys.values())
        reads.append(int_table(self) and all(type(v) is int for v in operands))
        return mul(self, xs, ys)

    def spy_pairs(self):
        reads.append(int_table(self))
        return pairs(self)

    def spy_index(self):
        reads.append(int_table(self))
        return index(self)

    monkeypatch.setattr(Algebra, "mul_sparse", spy_mul)
    monkeypatch.setattr(Algebra, "table_pairs", spy_pairs)
    monkeypatch.setattr(Algebra, "product_index", spy_index)
    for command in ("invariants", "classify"):
        reads.clear()
        rc, out, _ = run(capsys, command, str(path))
        assert rc == 0, command
        assert reads and all(reads), command
    assert "lie: FAILS (J(x,y,z) = 0; witness x = a, y = b, z = c gives 3*f)" in out
    B = parse_algebra_file(path.read_text())
    lie_center(B), jacobian_ideal(B)
    assert all(reads)
    monkeypatch.undo()
    want = {}
    for triple in combinations(range(B.dim), 3):
        value = jacobian(*(B.basis_element(i) for i in triple))
        if not value.is_zero():
            want[triple] = {k: x for k, x in enumerate(value.coords) if x}
    assert B.denominator == 12
    assert B.jacobians() == want
    assert B.integral_twin().jacobians() == {
        t: {k: 144 * x for k, x in jac.items()} for t, jac in want.items()
    }


def test_check_variety_holds(paper_file, capsys):
    rc, out, _ = run(capsys, "check", paper_file, "--variety", "w")
    assert rc == 0
    assert "x*x = 0: holds" in out
    assert "J(x,y,z*u) = 0: holds" in out


def test_check_variety_fails(paper_file, capsys):
    rc, out, _ = run(capsys, "check", paper_file, "--variety", "malcev")
    assert rc == 1
    assert "FAILS (witness x = a, y = b, z = c gives -d)" in out


def test_check_single_identity(paper_file, capsys):
    rc, out, _ = run(capsys, "check", paper_file, "--identity", "J(x,y,x*z) = 0")
    assert rc == 0
    assert "J(x,y,x*z) = 0: holds" in out


def test_check_unknown_variety(paper_file, capsys):
    rc, out, err = run(capsys, "check", paper_file, "--variety", "zorp")
    assert rc == 2
    assert "available" in err


def test_check_requires_exactly_one_mode(paper_file, capsys):
    rc, _, _ = run(capsys, "check", paper_file)
    assert rc == 2
    rc, _, _ = run(
        capsys, "check", paper_file, "--variety", "w", "--identity", "x*x = 0"
    )
    assert rc == 2


def test_check_bad_identity_text(paper_file, capsys):
    rc, _, err = run(capsys, "check", paper_file, "--identity", "x* = 0")
    assert rc == 2
    assert "error:" in err


def test_file_parse_error_carries_line_number(tmp_path, capsys):
    path = tmp_path / "bad.alg"
    path.write_text("name: X\ndim: 2\nbasis: a b\na*b = 2b\n")
    rc, out, err = run(capsys, "classify", str(path))
    assert rc == 2
    assert out == ""
    assert "line 4" in err


def test_missing_file(capsys):
    rc, _, err = run(capsys, "classify", "/nonexistent/z.alg")
    assert rc == 2
    assert "cannot read" in err


def test_moufang_conclusion_holds(paper_file, capsys):
    rc, out, _ = run(
        capsys, "moufang", paper_file, "--elements", "x1 = a; x2 = b; x3 = b"
    )
    assert rc == 0
    assert "holds: yes" in out
    assert "Jacobi on generated subalgebra: holds" in out


def test_moufang_hypothesis_fails(paper_file, capsys):
    rc, out, _ = run(
        capsys, "moufang", paper_file, "--elements", "x1 = a; x2 = b; x3 = c"
    )
    assert rc == 0
    assert "J(x1,x2,x3): d" in out
    assert "status: not evaluated (hypothesis fails)" in out


def test_moufang_conclusion_fails_is_exit_one(tmp_path, capsys):
    rc, out, _ = run(capsys, "catalog", "free-anti-2-4")
    path = tmp_path / "F.alg"
    path.write_text(out)
    rc, out, _ = run(
        capsys, "moufang", str(path), "--elements", "x1 = x; x2 = y; x3 = p"
    )
    assert rc == 1
    assert "holds: yes" in out
    assert "Jacobi on generated subalgebra: FAILS" in out


def test_moufang_requires_three_elements(paper_file, capsys):
    rc, _, err = run(capsys, "moufang", paper_file, "--elements", "x1 = a; x2 = b")
    assert rc == 2
    assert "x1, x2, x3" in err
    rc, _, err = run(
        capsys, "moufang", paper_file, "--elements", "x1 = a; x2 = b; x3 = zz"
    )
    assert rc == 2
    assert "unknown basis name" in err


def test_construct_decompose_round_trip(tmp_path, capsys):
    B = get_catalog("B(0,0,1)").algebra
    alg_path = tmp_path / "B.alg"
    alg_path.write_text(emit_algebra(B))
    rc, out, err = run(capsys, "decompose", str(alg_path))
    assert rc == 0
    assert err == ""
    assert out == emit_construction(decompose(B))
    cons_path = tmp_path / "B.cons"
    cons_path.write_text(out)
    rc, out2, _ = run(capsys, "construct", str(cons_path))
    assert rc == 0
    assert out2 == emit_algebra(build_from_construction(decompose(B)))
    rebuilt = parse_algebra_file(out2)
    for i in range(B.dim):
        for j in range(B.dim):
            for k in range(B.dim):
                assert rebuilt.c(i, j, k) == B.c(i, j, k)


# a member of w whose Lie center has a non-unit row, in a basis named like
# the v{idx} that `restrict` falls back to for such rows
FALLBACK_NAMED = """name: rb
dim: 4
basis: v0 v1 v2 v3
v0*v1 = -3*v1 + 3*v2 + 3*v3
v0*v2 = -2*v1 + 2*v2 + 2*v3
v0*v3 = -3*v1 + 3*v2 + 3*v3
v1*v3 = 4*v1 - 4*v2 - 4*v3
v2*v3 = 2*v1 - 2*v2 - 2*v3
"""


def test_decompose_output_constructs_when_basis_names_look_like_fallbacks(tmp_path, capsys):
    alg_path = tmp_path / "rb.alg"
    alg_path.write_text(FALLBACK_NAMED)
    rc, out, err = run(capsys, "decompose", str(alg_path))
    assert (rc, err) == (0, "")
    assert "[L]\nname: rb|L\ndim: 1\nbasis: v0_1\n" in out
    cons_path = tmp_path / "rb.cons"
    cons_path.write_text(out)
    rc, out, err = run(capsys, "construct", str(cons_path))
    assert (rc, err) == (0, "")
    B = parse_algebra_file(FALLBACK_NAMED)
    rebuilt = parse_algebra_file(out)
    assert rebuilt.basis_names == ("v0", "v2", "v3", "v0_1")
    rebased = change_basis(B, list(decompose(B).ambient_basis), list(rebuilt.basis_names))
    for i in range(B.dim):
        for j in range(B.dim):
            for k in range(B.dim):
                assert rebased.c(i, j, k) == rebuilt.c(i, j, k)


def test_decompose_rejects_non_member(tmp_path, capsys):
    rc, out, _ = run(capsys, "catalog", "free-anti-2-4")
    path = tmp_path / "F.alg"
    path.write_text(out)
    rc, out, err = run(capsys, "decompose", str(path))
    assert rc == 1
    assert out == ""
    assert "not in w" in err


def test_construct_semantic_error_is_exit_one(tmp_path, capsys):
    path = tmp_path / "bad.cons"
    path.write_text(
        "[P]\nbasis: p\n"
        "[L]\nname: k2\ndim: 2\nbasis: a b\na*b = a\n"
        "[psi p]\na -> b\n"
        "[lambda]\n[L0]\n"
    )
    rc, out, err = run(capsys, "construct", str(path))
    assert rc == 1
    assert out == ""
    assert "derivation" in err


def test_construct_names_first_failing_triple_of_non_lie_base(tmp_path, capsys):
    # J(a,b,d) = a and J(b,c,d) = c; every other basis triple has J = 0
    path = tmp_path / "nonlie.cons"
    path.write_text(
        "[P]\nbasis: p\n"
        "[L]\nname: nl\ndim: 4\nbasis: a b c d\na*b = c\nc*d = a\n"
        "[psi p]\n"
        "[lambda]\n[L0]\n"
    )
    rc, out, err = run(capsys, "construct", str(path))
    assert rc == 1
    assert out == ""
    assert err == "error: base algebra is not Lie: J(a,b,d) != 0\n"


def test_construct_parse_error_is_exit_two(tmp_path, capsys):
    path = tmp_path / "bad.cons"
    path.write_text("basis: p\n")
    rc, _, err = run(capsys, "construct", str(path))
    assert rc == 2
    assert "line 1" in err


ERROR_INPUTS = {
    "bad.alg": "name: X\ndim: 2\nbasis: a b\na*b = 2b\n",
    "bad.cons": "basis: p\n",
    "bad.ids": "x*x = 0\nJ(x,y = 0\n",
    "nonlie.cons": (
        "[P]\nbasis: p\n[L]\nname: nl\ndim: 4\nbasis: a b c d\na*b = c\nc*d = a\n"
        "[psi p]\n[lambda]\n[L0]\n"
    ),
    "deep.ids": "x*x = 0\n" + "(" * 400 + "x*y" + ")" * 400 + " = 0\n",
    "chain.ids": "*".join(["x"] * 1500) + " = 0\n",
}
FREE_3_2 = ["--generators", "3", "--max-degree", "2"]
UNKNOWN_VARIETY = "unknown variety 'zorp'; available: lie, malcev, binary-lie, w, v, lam, alam"
NESTING = "term nests more than 100 levels deep"

# one input per error route: argv ({dir} is the folder of the inputs), the
# exit status and stderr; stdout stays empty
ERROR_CASES = {
    "missing-file": (
        ["classify", "{dir}/missing.alg"], 2,
        "cannot read {dir}/missing.alg: No such file or directory",
    ),
    "algebra-parse": (
        ["classify", "{dir}/bad.alg"], 2,
        "{dir}/bad.alg: line 4: col 2: expected '*' between coefficient and basis name",
    ),
    "check-variety": (["check", "{dir}/L.alg", "--variety", "zorp"], 2, UNKNOWN_VARIETY),
    "check-identity": (
        ["check", "{dir}/L.alg", "--identity", "x* = 0"], 2,
        "expected a variable, 'J(', or '(' (at position 3)",
    ),
    "moufang-elements": (
        ["moufang", "{dir}/L.alg", "--elements", "x1 = a; x2 = b; x3 = zz"], 2,
        "col 2: unknown basis name 'zz'",
    ),
    "construct-parse": (
        ["construct", "{dir}/bad.cons"], 2, "{dir}/bad.cons: line 1: expected a section header",
    ),
    "free-identities": (
        ["free", "--identities", "{dir}/bad.ids", *FREE_3_2], 2,
        "{dir}/bad.ids: line 2: expected ',' (at position 6)",
    ),
    "free-variety": (["free", "--variety", "zorp", *FREE_3_2], 2, UNKNOWN_VARIETY),
    "free-build": (
        ["free", "--variety", "lie", "--generators", "27", "--max-degree", "2"], 2,
        "generator count must be between 1 and 26",
    ),
    "free-degree-cap": (
        ["free", "--variety", "lie", "--generators", "3", "--max-degree", "0"], 2,
        "need g >= 1 and max_degree >= 1",
    ),
    "free-extra-relation-degree": (
        ["free", "--variety", "lie", *FREE_3_2, "--extra-relation", "J(a,b,c)*a"], 2,
        "adjoined relation has degree 4 above the cap 2",
    ),
    "free-eval": (
        ["free", "--variety", "v", *FREE_3_2, "--eval", "J(a,b,a*c)"], 2,
        "degree overflow: word degree 4 exceeds max degree 2",
    ),
    "catalog": (
        ["catalog", "nope"], 2,
        "unknown catalog algebra 'nope'; available: paper-L, B(0,0,1), abelian1, "
        "abelian2, abelian3, affine2, heisenberg3, sl2, free-anti-2-3, free-anti-2-4, "
        "or B(r1,r2,r3) with rational parameters",
    ),
    "decompose-non-member": (
        ["decompose", "{dir}/F.alg"], 1,
        "algebra is not in w: J(x,y,z*u) = 0 fails (x = x, y = y, z = x, u = y gives -s + t)",
    ),
    "construct-non-lie": (
        ["construct", "{dir}/nonlie.cons"], 1, "base algebra is not Lie: J(a,b,d) != 0",
    ),
    "check-nested-identity": (
        ["check", "{dir}/L.alg", "--identity", "(" * 400 + "x*y" + ")" * 400 + " = 0"], 2,
        f"{NESTING} (at position 100)",
    ),
    "free-eval-product-chain": (
        ["free", "--variety", "lie", *FREE_3_2, "--eval", "*".join(["a"] * 1500)], 2,
        f"{NESTING} (at position 201)",
    ),
    # a word is parsed as a word: no '=' is expected and positions are the word's
    "free-eval-two-words": (
        ["free", "--variety", "lie", *FREE_3_2, "--eval", "a b"], 2,
        "unexpected trailing input (at position 2)",
    ),
    "free-eval-unopened-parenthesis": (
        ["free", "--variety", "lie", *FREE_3_2, "--eval", "a)"], 2,
        "unexpected trailing input (at position 1)",
    ),
    "free-eval-open-product": (
        ["free", "--variety", "lie", *FREE_3_2, "--eval", "a*"], 2,
        "expected a variable, 'J(', or '(' (at position 2)",
    ),
    "free-eval-non-homogeneous": (
        ["free", "--variety", "lie", *FREE_3_2, "--eval", "a+b*a"], 2,
        "non-homogeneous word: term degrees {'b': 1, 'a': 1} vs {'a': 1} (at position 0)",
    ),
    "free-extra-relation-open-product": (
        ["free", "--variety", "lie", *FREE_3_2, "--extra-relation", "a*"], 2,
        "expected a variable, 'J(', or '(' (at position 2)",
    ),
    "free-identities-nested": (
        ["free", "--identities", "{dir}/deep.ids", *FREE_3_2], 2,
        f"{{dir}}/deep.ids: line 2: {NESTING} (at position 100)",
    ),
    "free-identities-product-chain": (
        ["free", "--identities", "{dir}/chain.ids", *FREE_3_2], 2,
        f"{{dir}}/chain.ids: line 1: {NESTING} (at position 201)",
    ),
}


@pytest.mark.parametrize("case", list(ERROR_CASES))
def test_error_text_is_exact(case, tmp_path, capsys):
    """Every error route prints its exact message on stderr, nothing on
    stdout, and exits 2 (usage or parse error) or 1 (a failed check)."""
    for name, text in ERROR_INPUTS.items():
        (tmp_path / name).write_text(text)
    for name, catalog_name in (("L.alg", "paper-L"), ("F.alg", "free-anti-2-4")):
        (tmp_path / name).write_text(emit_algebra(get_catalog(catalog_name).algebra))
    argv, rc, message = ERROR_CASES[case]
    argv = [arg.replace("{dir}", str(tmp_path)) for arg in argv]
    expected = (rc, "", f"error: {message}\n".replace("{dir}", str(tmp_path)))
    assert run(capsys, *argv) == expected


def test_free_low_degree_dims(capsys):
    rc, out, _ = run(
        capsys, "free", "--variety", "v", "--generators", "3", "--max-degree", "2"
    )
    assert rc == 0
    assert "variety: v\n" in out
    assert "generators: a, b, c\n" in out
    assert "dims: 1: 3, 2: 3\n" in out


def test_free_eval_word(capsys):
    rc, out, _ = run(
        capsys,
        "free", "--variety", "v", "--generators", "3", "--max-degree", "4",
        "--eval", "J(a,b,a*c)",
    )
    assert rc == 0
    assert "word: J(a,b,a*c)\n" in out
    assert "degree: 4\n" in out
    assert "value: 0\n" in out


def test_free_eval_degree_overflow(capsys):
    rc, _, err = run(
        capsys,
        "free", "--variety", "v", "--generators", "3", "--max-degree", "2",
        "--eval", "J(a,b,a*c)",
    )
    assert rc == 2
    assert "degree overflow" in err


def test_free_identities_file(tmp_path, capsys):
    path = tmp_path / "ids.txt"
    path.write_text("x*x = 0\nJ(x,y,x*z) = 0\n")
    rc, out, _ = run(
        capsys, "free", "--identities", str(path), "--generators", "3",
        "--max-degree", "2",
    )
    assert rc == 0
    assert "identities: x*x = 0; J(x,y,x*z) = 0\n" in out
    assert "dims: 1: 3, 2: 3\n" in out


def test_free_extra_relation(capsys):
    rc, out, _ = run(
        capsys,
        "free", "--variety", "w", "--generators", "3", "--max-degree", "3",
        "--extra-relation", "J(a,b,c)",
    )
    assert rc == 0
    assert "extra relations: J(a,b,c)\n" in out
    assert "dims: 1: 3, 2: 3, 3: 8\n" in out


@pytest.mark.parametrize("flag", ["--eval", "--extra-relation"])
def test_free_zero_word_has_no_terms(capsys, flag):
    rc, out, err = run(
        capsys,
        "free", "--variety", "lie", "--generators", "2", "--max-degree", "3",
        flag, "0",
    )
    assert rc == 2
    assert out == ""
    assert err == "error: word has no terms\n"


def test_free_requires_identity_source(capsys):
    rc, _, _ = run(capsys, "free", "--generators", "3", "--max-degree", "2")
    assert rc == 2


def test_conjecture_deterministic_output(capsys):
    rc1, out1, err1 = run(capsys, "conjecture")
    rc2, out2, _ = run(capsys, "conjecture")
    assert rc1 == rc2 == 0
    assert err1 == ""
    assert out1 == out2
    assert "command: conjecture\n" in out1
    assert "verdict: " in out1
    assert "routes agree: yes" in out1


def test_relation_budget_env(paper_file, capsys, monkeypatch):
    monkeypatch.setenv("SKEWALG_RELATION_BUDGET", "100")
    rc, _, err = run(
        capsys, "free", "--variety", "v", "--generators", "3", "--max-degree", "4"
    )
    assert rc == 1
    assert err == "error: relation budget of 100 rows exceeded at degree 4\n"
    monkeypatch.setenv("SKEWALG_RELATION_BUDGET", "zap")
    rc, _, err = run(
        capsys, "free", "--variety", "v", "--generators", "3", "--max-degree", "2"
    )
    assert rc == 2
    assert "SKEWALG_RELATION_BUDGET" in err


def test_identity_budget_exceeded(tmp_path, capsys):
    names = " ".join(f"e{i}" for i in range(60))
    path = tmp_path / "big.alg"
    path.write_text(f"name: big\ndim: 60\nbasis: {names}\ne0*e1 = e2\n")
    rc, out, err = run(capsys, "check", str(path), "--identity", "J(x,y,z*t) = 0")
    assert rc == 1
    assert out == ""
    assert err == "error: identity check needs 12960000 evaluations, budget is 10000000\n"


def test_identity_budget_trips_before_polarizing(tmp_path, capsys):
    """A ten-copy product on the dim-36 v 3 4 quotient needs C(45,10)
    evaluations; the count is read off the identity's profile, so the check
    ends in the budget message before any of the 10! polarized terms is
    built."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    import workloads

    A = workloads.quotient_algebra("v", 3, 4)
    assert A.dim == 36
    path = tmp_path / "v34.alg"
    path.write_text(emit_algebra(A))
    start = perf_counter()
    rc, out, err = run(capsys, "check", str(path), "--identity", "x*x*x*x*x*x*x*x*x*x = 0")
    assert perf_counter() - start < 1
    assert (rc, out) == (1, "")
    assert err == f"error: identity check needs {comb(45, 10)} evaluations, budget is 10000000\n"


def test_usage_errors(capsys):
    assert run(capsys, )[0] == 2
    assert run(capsys, "classify")[0] == 2
    assert run(capsys, "frobnicate")[0] == 2


def test_parser_reuse_after_usage_error(capsys):
    """main builds its parser once per process: a call after a usage error
    prints what a fresh process prints."""
    rc, out, err = run(capsys, "check", "x.alg", "--identity", "x*x = 0", "--variety", "v")
    assert rc == 2
    assert out == "" and "not allowed with argument" in err
    argv = [
        "free", "--variety", "w", "--generators", "3", "--max-degree", "3",
        "--extra-relation", "J(a,b,c)", "--extra-relation", "J(a,b,c)",
        "--eval", "J(a,b,c)",
    ]
    rc, out, err = run(capsys, *argv)
    fresh = subprocess.run(
        [sys.executable, "-m", "skewalg.cli", *argv], capture_output=True, text=True
    )
    assert (rc, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert rc == 0 and "extra relations: J(a,b,c); J(a,b,c)\n" in out


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "skewalg.cli", "catalog", "paper-L"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("name: paper-L\n")


# --- rational literals and malformed input -----------------------------------


def test_zero_denominator_in_algebra_file_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "z.alg"
    path.write_text("name: t\ndim: 2\nbasis: a b\na*b = 1/0*b\n")
    rc, out, err = run(capsys, "classify", str(path))
    assert (rc, out) == (2, "")
    assert err == f"error: {path}: line 4: col 1: zero denominator: '1/0'\n"


def test_zero_denominator_in_elements_is_a_parse_error(paper_file, capsys):
    rc, out, err = run(
        capsys, "moufang", paper_file, "--elements", "x1 = 1/0*a; x2 = b; x3 = c"
    )
    assert (rc, out) == (2, "")
    assert err == "error: col 2: zero denominator: '1/0'\n"


def test_zero_denominator_in_construction_file_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "z.cons"
    path.write_text(
        "[P]\nbasis: p\n"
        "[L]\nname: k2\ndim: 2\nbasis: a b\n"
        "[psi p]\na -> 3/0*b\n"
        "[lambda]\n[L0]\n"
    )
    rc, out, err = run(capsys, "construct", str(path))
    assert (rc, out) == (2, "")
    assert err == f"error: {path}: line 8: col 1: zero denominator: '3/0'\n"


FUZZ_ALGEBRA = "name: t\ndim: 4\nbasis: a b c d\nb*c = 1/2*d - a\nd*a = 2*d\n"
FUZZ_IDENTITIES = "x*x = 0\nJ(x,y,x*z) = 1/2*J(x,y,z)*x\n"
FUZZ_TOKEN = re.compile(r"\d+(?:/\d+)?|\w+|\s+|.")
FUZZ_LITERALS = ("0", "7", "1/3", "1/0", "0/0", "3/00")
FUZZ_TOKENS = ("a", "b", "x", "y", "*", "+", "-", "=", ":", "#", ";", ",", "(", ")",
               "J(", "[", " ", "\n")


def mutated(rng, text):
    """text with one or two of its tokens replaced, deleted or preceded by
    another; a number is replaced by a rational literal, zero denominators
    among them."""
    tokens = FUZZ_TOKEN.findall(text)
    for _ in range(rng.randint(1, 2)):
        i = rng.randrange(len(tokens))
        op = rng.choice(("replace", "replace", "delete", "insert"))
        if op == "delete":
            del tokens[i]
        elif op == "insert":
            tokens.insert(i, rng.choice(FUZZ_TOKENS))
        else:
            tokens[i] = rng.choice(FUZZ_LITERALS if tokens[i][0].isdigit() else FUZZ_TOKENS)
    return "".join(tokens)


def _fuzz_argv(rng, tmp_path):
    """One CLI call with one mutated input: a file or an argument."""
    alg, cons, ids = tmp_path / "m.alg", tmp_path / "m.cons", tmp_path / "m.ids"
    alg.write_text(FUZZ_ALGEBRA)
    kind = rng.choice(
        ("classify", "invariants", "decompose", "check", "moufang",
         "construct", "eval", "extra", "identities")
    )
    free = ["--generators", "3", "--max-degree", "4"]
    if kind in ("classify", "invariants", "decompose"):
        alg.write_text(mutated(rng, FUZZ_ALGEBRA))
        return [kind, str(alg)]
    if kind == "check":
        return ["check", str(alg), "--identity", mutated(rng, "J(x,y,x*z) = 1/2*J(x,y,z)*x")]
    if kind == "moufang":
        elements = mutated(rng, "x1 = a + 1/2*b; x2 = b; x3 = 2*c")
        return ["moufang", str(alg), "--elements", elements]
    if kind == "construct":
        B = get_catalog("B(1/2,0,1)").algebra
        cons.write_text(mutated(rng, emit_construction(decompose(B))))
        return ["construct", str(cons)]
    if kind == "eval":
        return ["free", "--variety", "v", *free, "--eval", mutated(rng, "J(a,b,a*c)")]
    if kind == "extra":
        word = mutated(rng, "J(a,b,c) - 1/2*J(a,c,b)")
        return ["free", "--variety", "w", *free, "--extra-relation", word]
    ids.write_text(mutated(rng, FUZZ_IDENTITIES))
    return ["free", "--identities", str(ids), *free]


def _nested_j(depth, letters="xyz"):
    """J nested depth deep in its first argument: 3^depth flattened terms."""
    x, y, z = letters
    tree = x
    for _ in range(depth):
        tree = f"J({tree},{y},{z})"
    return tree


def _expansion_argvs(tmp_path):
    """(argv, exit status, error) for J nested twelve deep and a product of
    ten copies of one variable, each through check --identity, free --eval
    and an --identities file. A word is not polarized, so the ten-copy
    word ends in the quotient's degree check."""
    alg = tmp_path / "x.alg"
    alg.write_text(FUZZ_ALGEBRA)
    nested, copies = _nested_j(12), "*".join("x" * 10)
    terms = "error: identity expands to 531441 terms, cap is 50000\n"
    placed = "error: polarized identity expands to 3628800 terms, cap is 50000\n"
    free = ["--generators", "3", "--max-degree", "4"]
    cases = [
        (["check", str(alg), "--identity", f"{nested} = 0"], 1, terms),
        (["check", str(alg), "--identity", f"{copies} = 0"], 1, placed),
        (["free", "--variety", "v", *free, "--eval", _nested_j(12, "abc")], 1,
         "error: word expands to 531441 terms, cap is 50000\n"),
        (["free", "--variety", "v", *free, "--eval", copies.replace("x", "a")], 2,
         "error: degree overflow: word degree 10 exceeds max degree 4\n"),
    ]
    for n, (text, err) in enumerate(((nested, terms), (copies, placed))):
        path = tmp_path / f"x{n}.ids"
        path.write_text(f"x*x = 0\n{text} = 0\n")
        cases.append((["free", "--identities", str(path), *free], 1, err))
    return cases


def test_expansion_cap_ends_in_its_message_within_a_second(tmp_path, capsys):
    """Texts past MAX_EXPANSION end in the cap's message and exit 1, in
    under a second: the count is taken before any term is made (parsing
    J nested twelve deep once made its 531,441 terms, and ten copies once
    listed all 10! placements)."""
    for argv, status, message in _expansion_argvs(tmp_path):
        start = perf_counter()
        rc, out, err = run(capsys, *argv)
        assert perf_counter() - start < 1, argv
        assert (rc, out, err) == (status, "", message), argv


def test_no_input_ends_in_a_traceback(tmp_path, capsys):
    """Mutated files and arguments, drawn from fixed seeds, and texts that
    expand past the cap end in exit status 0, 1 or 2, never in an
    exception."""

    def status(tag, argv):
        try:
            rc = main(argv)
        except Exception as exc:  # noqa: BLE001 -- the property under test
            pytest.fail(f"{tag}: {argv!r} raised {exc!r}")
        capsys.readouterr()
        assert rc in (0, 1, 2), (tag, argv)
        return rc

    outcomes = set()
    for seed in range(1000):
        outcomes.add(status(f"seed {seed}", _fuzz_argv(random.Random(seed), tmp_path)))
    assert outcomes == {0, 1, 2}
    for argv, _, _ in _expansion_argvs(tmp_path):
        assert status("expansion", argv) in (1, 2)
