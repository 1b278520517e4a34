import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from skewalg.algebra import (
    Algebra,
    center,
    derived_series,
    ideal_generated,
    jacobian,
    jacobian_ideal,
    lie_center,
    lower_central_series,
    product_space,
    restrict,
    subalgebra_generated,
)
from skewalg.linalg import Echelon

from oracles import change_basis

F = Fraction


# 4-dim fixture: a,b,c,d with bc=d, da=d, everything else zero.
def make_L():
    return Algebra(
        "L4",
        ["a", "b", "c", "d"],
        {(1, 2): {3: 1}, (3, 0): {3: 1}},
    )


# 4-dim fixture on basis t,a,b,c: ab=c, ct=c.
def make_B001():
    return Algebra(
        "B001",
        ["t", "a", "b", "c"],
        {(1, 2): {3: 1}, (3, 0): {3: 1}},
    )


def make_abelian(n):
    return Algebra(f"ab{n}", [f"e{i}" for i in range(n)], {})


def make_heisenberg():
    return Algebra("heis", ["x", "y", "z"], {(0, 1): {2: 1}})


def random_algebra(rng, n):
    prods = {}
    for i in range(n):
        for j in range(i + 1, n):
            row = {k: rng.randint(-2, 2) for k in range(n)}
            row = {k: v for k, v in row.items() if v}
            if row:
                prods[(i, j)] = row
    return Algebra("rnd", [f"e{i}" for i in range(n)], prods)


def test_multiply_fixture_products():
    L = make_L()
    a, b, c, d = (L.basis_element(i) for i in range(4))
    assert (b * c).coords == (0, 0, 0, 1)
    assert (d * a).coords == (0, 0, 0, 1)
    assert (c * b).coords == (0, 0, 0, -1)
    assert (a * b).is_zero()
    assert (a * L.zero()).is_zero()


def test_multiply_rejects_foreign_elements():
    L = make_L()
    B = make_B001()
    with pytest.raises(ValueError):
        L.basis_element(0) * B.basis_element(0)


def test_algebra_rejects_diagonal_and_duplicates():
    with pytest.raises(ValueError):
        Algebra("bad", ["a", "b"], {(0, 0): {1: 1}})
    with pytest.raises(ValueError):
        Algebra("bad", ["a", "b"], {(0, 1): {1: 1}, (1, 0): {1: 1}})


def test_anticommutativity_on_random_algebras():
    rng = random.Random(314)
    for _ in range(10):
        A = random_algebra(rng, rng.randint(2, 5))
        for _ in range(10):
            x = A.element([rng.randint(-3, 3) for _ in range(A.dim)])
            y = A.element([rng.randint(-3, 3) for _ in range(A.dim)])
            assert (x * x).is_zero()
            assert (x * y + y * x).is_zero()


def test_jacobian_fixture_values():
    L = make_L()
    a, b, c, d = (L.basis_element(i) for i in range(4))
    assert jacobian(a, b, c).coords == (0, 0, 0, 1)
    B = make_B001()
    t, a2, b2, c2 = (B.basis_element(i) for i in range(4))
    # (ta)b + (ab)t + (bt)a = 0 + ct + 0 = c
    assert jacobian(t, a2, b2).coords == (0, 0, 0, 1)


def test_jacobian_alternating():
    rng = random.Random(2718)
    for _ in range(10):
        A = random_algebra(rng, 4)
        x = A.element([rng.randint(-3, 3) for _ in range(4)])
        y = A.element([rng.randint(-3, 3) for _ in range(4)])
        z = A.element([rng.randint(-3, 3) for _ in range(4)])
        assert jacobian(x, y, y).is_zero()
        assert jacobian(x, x, z).is_zero()
        assert (jacobian(x, y, z) + jacobian(y, x, z)).is_zero()
        assert (jacobian(x, y, z) - jacobian(y, z, x)).is_zero()


def test_subalgebra_generated_closure():
    L = make_L()
    a, b, c, d = (L.basis_element(i) for i in range(4))
    assert subalgebra_generated([a, b, c]).dim == 4
    S = subalgebra_generated([d])
    assert S.dim == 1 and S.contains(d)
    B = make_B001()
    t, a2, b2, c2 = (B.basis_element(i) for i in range(4))
    S2 = subalgebra_generated([a2, b2])
    assert S2.dim == 3
    assert S2.contains(c2) and not S2.contains(t)
    with pytest.raises(ValueError):
        subalgebra_generated([])


def test_ideal_generated_closure():
    L = make_L()
    d = L.basis_element(3)
    S = ideal_generated([d])
    assert S.dim == 1 and S.contains(d)
    assert ideal_generated([L.zero()]).dim == 0
    B = make_B001()
    c = B.basis_element(3)
    assert ideal_generated([c]).dim == 1
    with pytest.raises(ValueError):
        ideal_generated([])


def test_product_space():
    L = make_L()
    PS = product_space(L)
    assert PS.dim == 1 and PS.contains(L.basis_element(3))
    assert product_space(make_abelian(3)).dim == 0
    B = make_B001()
    PS2 = product_space(B)
    assert PS2.dim == 1 and PS2.contains(B.basis_element(3))


def test_center():
    assert center(make_abelian(3)).dim == 3
    assert center(make_L()).dim == 0
    one = Algebra("kc", ["c"], {})
    assert center(one).dim == 1


def test_lie_center():
    L = make_L()
    LC = lie_center(L)
    assert LC.dim == 1 and LC.contains(L.basis_element(3))
    assert lie_center(make_heisenberg()).dim == 3
    B = make_B001()
    LC2 = lie_center(B)
    assert LC2.dim == 1 and LC2.contains(B.basis_element(3))


def test_jacobian_ideal():
    L = make_L()
    JI = jacobian_ideal(L)
    assert JI.dim == 1 and JI.contains(L.basis_element(3))
    assert jacobian_ideal(make_heisenberg()).dim == 0
    B = make_B001()
    JI2 = jacobian_ideal(B)
    assert JI2.dim == 1 and JI2.contains(B.basis_element(3))


def test_fixture_L_equalities():
    # product space, Lie center and Jacobian ideal all coincide here
    L = make_L()
    assert product_space(L) == lie_center(L) == jacobian_ideal(L)


def test_series_and_flags():
    L = make_L()
    assert derived_series(L)[-1].dim == 0
    assert lower_central_series(L)[-1].dim != 0
    ds = derived_series(L)
    assert [s.dim for s in ds] == [4, 1, 0]
    lcs = lower_central_series(L)
    # stabilizes at span{d} since da=d
    assert lcs[-1].dim == 1 and lcs[-1].contains(L.basis_element(3))
    ab = make_abelian(2)
    assert derived_series(ab)[-1].dim == 0 and lower_central_series(ab)[-1].dim == 0
    assert lower_central_series(make_heisenberg())[-1].dim == 0


def test_restrict():
    L = make_L()
    d_span = subalgebra_generated([L.basis_element(3)])
    R = restrict(L, d_span)
    assert R.dim == 1 and all(
        R.c(i, j, k) == 0 for i in range(1) for j in range(1) for k in range(1)
    )
    B = make_B001()
    S = subalgebra_generated([B.basis_element(1), B.basis_element(2)])
    R2 = restrict(B, S)
    assert R2.dim == 3
    # basis comes out in echelon order a,b,c; only surviving product is ab=c
    assert R2.c(0, 1, 2) == 1
    assert all(
        R2.c(i, j, k) == 0
        for i in range(3)
        for j in range(3)
        for k in range(3)
        if (i, j, k) not in [(0, 1, 2), (1, 0, 2)]
    )


def test_restrict_full_space_is_identity():
    L = make_L()
    S = subalgebra_generated([L.basis_element(i) for i in range(4)])
    R = restrict(L, S)
    for i in range(4):
        for j in range(4):
            for k in range(4):
                assert R.c(i, j, k) == L.c(i, j, k)


def test_restrict_rejects_non_closed():
    from skewalg.algebra import Subspace

    L = make_L()
    S = Subspace.from_vectors(L, [(0, 1, 0, 0), (0, 0, 1, 0)])  # bc=d escapes
    with pytest.raises(ValueError):
        restrict(L, S)


def test_product_space_inside_ideal_of_its_spanning_set():
    rng = random.Random(11)
    for _ in range(10):
        A = random_algebra(rng, 4)
        PS = product_space(A)
        ideal = ideal_generated(PS.basis_elements()) if PS.dim else PS
        for v in PS.basis_elements():
            assert ideal.contains(v)


def test_lie_center_full_iff_jacobi():
    rng = random.Random(77)
    cases = [make_heisenberg(), make_abelian(3), make_L(), make_B001()]
    cases += [random_algebra(rng, 4) for _ in range(8)]
    for A in cases:
        n = A.dim
        jacobi = all(
            jacobian(A.basis_element(i), A.basis_element(j), A.basis_element(k)).is_zero()
            for i in range(n)
            for j in range(i + 1, n)
            for k in range(j + 1, n)
        )
        assert (lie_center(A).dim == n) == jacobi


def test_change_basis_round_trip():
    rng = random.Random(5)
    L = make_L()
    # random unimodular-ish basis change and back
    for _ in range(5):
        rows = None
        while rows is None:
            cand = [[rng.randint(-2, 2) for _ in range(4)] for _ in range(4)]
            from skewalg.linalg import rref_rows

            if len(rref_rows(cand)[1]) == 4:
                rows = cand
        A2 = change_basis(L, rows, ["p", "q", "r", "s"])
        # products transported correctly: spot-check via elements
        for _ in range(5):
            xi = [rng.randint(-2, 2) for _ in range(4)]
            yi = [rng.randint(-2, 2) for _ in range(4)]
            x_old = L.element(
                [sum(F(xi[r]) * rows[r][c] for r in range(4)) for c in range(4)]
            )
            y_old = L.element(
                [sum(F(yi[r]) * rows[r][c] for r in range(4)) for c in range(4)]
            )
            prod_new = A2.element(xi) * A2.element(yi)
            prod_old = x_old * y_old
            back = [
                sum(F(prod_new.coords[r]) * rows[r][c] for r in range(4))
                for c in range(4)
            ]
            assert tuple(back) == prod_old.coords


def test_element_rendering():
    L = make_L()
    assert str(L.zero()) == "0"
    assert str(L.basis_element(3)) == "d"
    assert str(-1 * L.basis_element(3)) == "-d"
    e = L.element([1, 2, 0, F(-1, 2)])
    assert str(e) == "a + 2*b - 1/2*d"


def _insert_ranks(monkeypatch):
    """The rank of the engine before each `Echelon.insert` call."""
    ranks = []
    insert = Echelon.insert

    def spy(self, row, tags=None):
        ranks.append(len(self.rows))
        return insert(self, row, tags)

    monkeypatch.setattr(Echelon, "insert", spy)
    return ranks


def test_closures_insert_nothing_at_full_rank(monkeypatch):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    import workloads

    # the input of the spaces task r-14-0.5-v0: its 221 Jacobian values span
    # the algebra after 14 of them
    A = workloads.random_algebra(14, "0.5", 0)
    assert len(A.integral_twin().jacobians()) == 221
    ranks = _insert_ranks(monkeypatch)
    assert jacobian_ideal(A).dim == 14
    assert ranks and max(ranks) < 14
    # generators that span the algebra before the last one is read
    gens = [A.basis_element(i) for i in range(14)] + [A.basis_element(0) + A.basis_element(1)]
    for closure in (ideal_generated, subalgebra_generated):
        ranks.clear()
        assert closure(gens).dim == 14
        assert ranks == list(range(14))
