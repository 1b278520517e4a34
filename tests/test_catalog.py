from fractions import Fraction
from itertools import combinations

import pytest

from skewalg.algebra import jacobian, lie_center, product_space
from skewalg.catalog import catalog_names, get_catalog, iter_catalog, lie_catalog
from skewalg.identities import classify

from oracles import member


def test_names_present():
    names = catalog_names()
    for expected in [
        "paper-L",
        "B(0,0,1)",
        "abelian1",
        "abelian2",
        "abelian3",
        "affine2",
        "heisenberg3",
        "sl2",
        "free-anti-2-3",
        "free-anti-2-4",
    ]:
        assert expected in names


def test_paper_L_table():
    A = get_catalog("paper-L").algebra
    assert A.basis_names == ("a", "b", "c", "d")
    assert A.c(1, 2, 3) == 1  # bc = d
    assert A.c(3, 0, 3) == 1  # da = d
    nonzero = {(i, j) for (i, j), _ in A.table_pairs()}
    assert nonzero == {(1, 2), (0, 3)}


def test_B_family_parsing():
    A = get_catalog("B(0,0,1)").algebra
    assert A.basis_names == ("t", "a", "b", "c")
    assert A.c(1, 2, 3) == 1  # ab = c
    assert A.c(3, 0, 3) == 1  # ct = c
    assert A.c(0, 1, 3) == 0 and A.c(0, 2, 3) == 0
    B = get_catalog("B(1/2,-2,3)").algebra
    assert B.c(0, 1, 3) == Fraction(1, 2)
    assert B.c(0, 2, 3) == -2
    assert B.c(1, 2, 3) == 3
    assert B.c(3, 0, 3) == 1


def test_unknown_name_lists_options():
    with pytest.raises(ValueError) as e:
        get_catalog("nope")
    assert "paper-L" in str(e.value)


def test_bad_B_parameters():
    with pytest.raises(ValueError):
        get_catalog("B(1,2)")
    with pytest.raises(ValueError):
        get_catalog("B(1,2,x)")


def test_lie_catalog_entries_are_lie():
    for entry in lie_catalog():
        A = entry.algebra
        n = A.dim
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    assert jacobian(
                        A.basis_element(i), A.basis_element(j), A.basis_element(k)
                    ).is_zero()


def test_lie_catalog_is_every_lie_entry_in_catalog_order():
    assert [e.name for e in lie_catalog()] == [
        "abelian1", "abelian2", "abelian3", "affine2", "heisenberg3", "sl2",
        "free-anti-2-3",
    ]
    lie = {e.name for e in lie_catalog()}
    for entry in iter_catalog():
        if entry.name not in lie:
            A = entry.algebra
            assert any(
                not jacobian(*(A.basis_element(i) for i in triple)).is_zero()
                for triple in combinations(range(A.dim), 3)
            ), entry.name


def test_entries_have_provenance():
    for entry in iter_catalog():
        assert entry.provenance


def test_free_anti_truncations():
    A3 = get_catalog("free-anti-2-3").algebra
    assert A3.dim == 5
    cls = classify(A3)
    assert member(cls, "lie")  # degree-4 products vanish, so Jacobi holds
    A4 = get_catalog("free-anti-2-4").algebra
    assert A4.dim == 9
    cls4 = classify(A4)
    assert not member(cls4, "binary-lie")
    assert not member(cls4, "w") and not member(cls4, "v")


def test_characterization_on_catalog():
    # membership in w coincides with products landing in the Lie center
    for entry in iter_catalog():
        A = entry.algebra
        in_w = member(classify(A), "w")
        ps = product_space(A)
        lc = lie_center(A)
        contained = all(lc.contains(v) for v in ps.basis_elements())
        assert in_w == contained
