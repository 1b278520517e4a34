import string
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewalg.algebra import Algebra
from skewalg.catalog import get_catalog
from skewalg.construction import ConstructionData, build_from_construction, decompose
from skewalg.formats import (
    emit_algebra,
    emit_construction,
    parse_algebra_file,
    parse_assignments,
    parse_construction_file,
    parse_element,
    parse_identities_file,
    _parse_terms,
)

NAMES = ("a", "b", "c", "d")
F = Fraction


def test_parse_element_combinations():
    assert parse_element("a + 2*b - 1/2*d", NAMES) == (1, 2, 0, Fraction(-1, 2))
    assert parse_element("0", NAMES) == (0, 0, 0, 0)
    assert parse_element("-0", NAMES) == (0, 0, 0, 0)
    assert parse_element("-b", NAMES) == (0, -1, 0, 0)
    assert parse_element("3/4*c", NAMES) == (0, 0, Fraction(3, 4), 0)
    assert parse_element("a + a", NAMES) == (2, 0, 0, 0)
    assert parse_element("  c - 2*c ", NAMES) == (0, 0, -1, 0)


def test_parse_element_requires_star():
    with pytest.raises(ValueError, match="\\*"):
        parse_element("2b", NAMES)


def test_parse_element_errors():
    with pytest.raises(ValueError, match="unknown basis name"):
        parse_element("q", NAMES)
    with pytest.raises(ValueError, match="empty"):
        parse_element("   ", NAMES)
    with pytest.raises(ValueError):
        parse_element("a ++ b", NAMES)
    with pytest.raises(ValueError):
        parse_element("a + 0", NAMES)
    with pytest.raises(ValueError):
        parse_element("a b", NAMES)


STAR = "expected '*' between coefficient and basis name"


@pytest.mark.parametrize(
    "text, want",
    [
        ("", "empty element expression"),
        (" \t  ", "empty element expression"),
        ("a b", "col 3: expected '+' or '-'"),
        ("a\t\tb", "col 4: expected '+' or '-'"),
        ("a ++ b", "col 4: expected a basis name"),
        ("1/0*a", "col 1: zero denominator: '1/0'"),
        ("a -  2/0 * b", "col 6: zero denominator: '2/0'"),
        ("2b", f"col 2: {STAR}"),
        ("2 \t b", f"col 5: {STAR}"),
        ("1/a", f"col 2: {STAR}"),
        ("2 ", f"col 3: {STAR}"),
        ("a + 0", f"col 6: {STAR}"),
        ("0 a", f"col 3: {STAR}"),
        ("*a", "col 1: expected a basis name"),
        ("a +", "col 4: expected a basis name"),
        ("a -\t 3 *\t", "col 10: expected a basis name"),
        ("-  -a", "col 4: expected a basis name"),
        ("q", "col 1: unknown basis name 'q'"),
        ("a \t+  q2", "col 7: unknown basis name 'q2'"),
        ("2*\tzz", "col 4: unknown basis name 'zz'"),
        ("0", {}),
        ("-0", {}),
        (" +0\t", {}),
        ("0/3", {}),
        ("0*a", {}),
        ("a - a", {}),
        ("\ta\t+  2 *\tb", {0: 1, 1: 2}),
        ("-  3/4 *c", {2: F(-3, 4)}),
        ("2/2*d", {3: F(1)}),
        ("  -b\t-\t\tb ", {1: -2}),
        ("a+b-c", {0: 1, 1: 1, 2: -1}),
    ],
)
def test_parse_terms_exact(text, want):
    """Exact rows (int unless written with '/') and exact error texts."""
    index = {n: i for i, n in enumerate(NAMES)}
    if isinstance(want, str):
        with pytest.raises(ValueError) as err:
            _parse_terms(text, index)
        assert str(err.value) == want
    else:
        row = _parse_terms(text, index)
        assert row == want
        assert [type(v) for v in row.values()] == [type(v) for v in want.values()]


def test_emit_algebra_paper_L_display_pairs():
    entry = get_catalog("paper-L")
    text = emit_algebra(entry.algebra, pairs=entry.display_pairs)
    assert text == (
        "name: paper-L\n"
        "dim: 4\n"
        "basis: a b c d\n"
        "b*c = d\n"
        "d*a = d\n"
    )


def test_algebra_file_round_trip():
    for name in ["paper-L", "B(0,0,1)", "B(1/2,-2,3)", "sl2", "free-anti-2-4"]:
        A = get_catalog(name).algebra
        B = parse_algebra_file(emit_algebra(A))
        assert B.name == A.name
        assert B.basis_names == A.basis_names
        for i in range(A.dim):
            for j in range(A.dim):
                for k in range(A.dim):
                    assert B.c(i, j, k) == A.c(i, j, k)


SCALARS = st.fractions(min_value=-9, max_value=9, max_denominator=6).filter(bool)


@st.composite
def algebras_with_pairs(draw):
    """A random algebra with a printing order for its products: every
    nonzero pair once, in either orientation, some zero pairs among them."""
    names = draw(st.lists(
        st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,4}", fullmatch=True),
        min_size=1, max_size=5, unique=True,
    ))
    n = len(names)
    products = {}
    for i in range(n):
        for j in range(i + 1, n):
            row = draw(st.dictionaries(st.integers(0, n - 1), SCALARS, max_size=3))
            if row:
                products[(i, j)] = row
    name = draw(st.text(string.ascii_letters + string.digits + "_-()|,/", min_size=1, max_size=12))
    A = Algebra(name, names, products)
    shown = [ij for ij in ((i, j) for i in range(n) for j in range(i + 1, n))
             if ij in products or draw(st.booleans())]
    pairs = [(j, i) if draw(st.booleans()) else (i, j) for i, j in draw(st.permutations(shown))]
    return A, pairs


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(algebras_with_pairs(), st.booleans())
def test_algebra_file_round_trip_property(case, with_pairs):
    """emit_algebra then parse_algebra_file gives back the name, the basis
    and every structure constant, whichever orientations are printed."""
    A, pairs = case
    B = parse_algebra_file(emit_algebra(A, pairs=pairs if with_pairs else None))
    assert B.name == A.name
    assert B.basis_names == A.basis_names
    assert B.dim == A.dim
    n = A.dim
    assert all(
        B.c(i, j, k) == A.c(i, j, k) for i in range(n) for j in range(n) for k in range(n)
    )


def test_algebra_file_reversed_orientation():
    A = parse_algebra_file("name: X\ndim: 2\nbasis: a b\nb*a = -b\n")
    assert A.c(0, 1, 1) == 1


def test_algebra_file_unspecified_products_are_zero():
    A = parse_algebra_file("name: X\ndim: 3\nbasis: a b c\n")
    assert all(
        A.c(i, j, k) == 0 for i in range(3) for j in range(3) for k in range(3)
    )


def test_algebra_file_comments_and_blanks():
    A = parse_algebra_file(
        "# fixture\nname: X\n\ndim: 2\nbasis: a b\n# product\na*b = b\n"
    )
    assert A.c(0, 1, 1) == 1


def test_algebra_file_errors_carry_line_numbers():
    with pytest.raises(ValueError, match="line 2"):
        parse_algebra_file("name: X\nbasis: a b\n")
    with pytest.raises(ValueError, match="line 3"):
        parse_algebra_file("name: X\ndim: 3\nbasis: a b\n")
    with pytest.raises(ValueError, match="line 4.*unknown basis name"):
        parse_algebra_file("name: X\ndim: 2\nbasis: a b\nq*a = b\n")
    with pytest.raises(ValueError, match="line 5.*duplicate"):
        parse_algebra_file("name: X\ndim: 2\nbasis: a b\na*b = b\nb*a = -b\n")
    with pytest.raises(ValueError, match="line 4.*itself"):
        parse_algebra_file("name: X\ndim: 2\nbasis: a b\na*a = b\n")
    with pytest.raises(ValueError, match="line 4"):
        parse_algebra_file("name: X\ndim: 2\nbasis: a b\na*b = 2b\n")
    with pytest.raises(ValueError, match="line 3.*duplicate basis name"):
        parse_algebra_file("name: X\ndim: 2\nbasis: a a\n")


def test_construction_file_round_trip():
    B = get_catalog("B(0,0,1)").algebra
    data = decompose(B)
    text = emit_construction(data)
    back = parse_construction_file(text)
    assert back.p_names == data.p_names
    assert back.psi == data.psi
    assert back.lam == data.lam
    assert back.L0 == data.L0
    assert back.L.basis_names == data.L.basis_names
    assert back.L.name == data.L.name
    assert emit_construction(back) == text
    rebuilt = build_from_construction(back)
    direct = build_from_construction(data)
    assert rebuilt.basis_names == direct.basis_names
    n = direct.dim
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert rebuilt.c(i, j, k) == direct.c(i, j, k)


def test_construction_file_shape():
    data = decompose(get_catalog("B(0,0,1)").algebra)
    text = emit_construction(data)
    assert "[P]\nbasis: t a b\n" in text
    assert "[psi t]\nc -> c\n" in text
    assert "[psi a]\nc -> 0\n" in text
    assert "[lambda]\na*b = c\n" in text
    assert text.rstrip("\n").endswith("[L0]")


def test_construction_file_L0_lines():
    data = ConstructionData(
        L=get_catalog("affine2").algebra,
        p_names=("p",),
        psi=(((0, 1), (0, 0)),),
        lam={},
        L0=((1, 0), (0, 1)),
    )
    text = emit_construction(data)
    assert "[L0]\ne1\ne2\n" in text
    back = parse_construction_file(text)
    assert back.L0 == data.L0
    build_from_construction(back)


def test_construction_file_errors():
    with pytest.raises(ValueError, match="line 1"):
        parse_construction_file("basis: t\n")
    with pytest.raises(ValueError, match="unknown P name"):
        parse_construction_file(
            "[P]\nbasis: p\n[L]\nname: k\ndim: 1\nbasis: c\n[psi q]\nc -> 0\n"
        )
    with pytest.raises(ValueError, match="duplicate"):
        parse_construction_file(
            "[P]\nbasis: p\n[L]\nname: k\ndim: 1\nbasis: c\n[P]\nbasis: q\n"
        )
    with pytest.raises(ValueError, match="\\[L\\]"):
        parse_construction_file("[P]\nbasis: p\n[lambda]\n")
    with pytest.raises(ValueError, match="unknown P name"):
        parse_construction_file(
            "[P]\nbasis: p\n[L]\nname: k\ndim: 1\nbasis: c\n[lambda]\np*q = c\n"
        )


def test_identities_file():
    idfs = parse_identities_file("x*x = 0\n\n# comment\nJ(x,y,x*z) = 0\n")
    assert [i.text for i in idfs] == ["x*x = 0", "J(x,y,x*z) = 0"]
    with pytest.raises(ValueError, match="line 2"):
        parse_identities_file("x*x = 0\nx* = 0\n")


def test_parse_assignments():
    got = parse_assignments("x1 = a; x2 = b + c; x3 = 1/2*d", NAMES)
    assert got == {
        "x1": (1, 0, 0, 0),
        "x2": (0, 1, 1, 0),
        "x3": (0, 0, 0, Fraction(1, 2)),
    }
    with pytest.raises(ValueError, match="duplicate"):
        parse_assignments("x1 = a; x1 = b", NAMES)
    with pytest.raises(ValueError, match="assignment"):
        parse_assignments("x1", NAMES)
