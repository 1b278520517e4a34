import random
from fractions import Fraction
from itertools import chain

import pytest

from skewalg import construction
from skewalg.algebra import Algebra, center, jacobian
from skewalg.catalog import get_catalog, lie_catalog
from skewalg.construction import (
    ConstructionData,
    build_from_construction,
    decompose,
    derivations,
    inner_derivations,
    random_w_algebra,
)
from skewalg.formats import emit_construction, parse_construction_file
from skewalg.identities import classify
from skewalg.linalg import Echelon, invert_rows, rref_rows
from skewalg.moufang import sample_null_triples

from oracles import change_basis, member, verify_isomorphism


def one_dim():
    return Algebra("kc", ["c"], {})


def abelian(n):
    return Algebra(f"ab{n}", [f"e{i}" for i in range(n)], {})


def affine2():
    return Algebra("affine2", ["e1", "e2"], {(0, 1): {1: 1}})


def heisenberg():
    return Algebra("h3", ["x", "y", "z"], {(0, 1): {2: 1}})


def example_data(a1, a2, a3):
    """Three p-vectors over a one-dimensional Lie algebra, lambda in its center."""
    return ConstructionData(
        L=one_dim(),
        p_names=("t", "a", "b"),
        psi=(((1,),), ((0,),), ((0,),)),
        lam={(0, 1): (a1,), (0, 2): (a2,), (1, 2): (a3,)},
        L0=(),
    )


def apply_matrix(M, v):
    n = len(v)
    return [sum(v[j] * M[j][k] for j in range(n)) for k in range(n)]


def is_derivation(L, M):
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            ei = [Fraction(int(k == i)) for k in range(L.dim)]
            ej = [Fraction(int(k == j)) for k in range(L.dim)]
            lhs = apply_matrix(M, L.mul_coords(ei, ej))
            rhs = [
                p + q
                for p, q in zip(
                    L.mul_coords(list(M[i]), ej), L.mul_coords(ei, list(M[j]))
                )
            ]
            if lhs != rhs:
                return False
    return True


# --- derivations ---------------------------------------------------------


def test_derivations_one_dim():
    ders = derivations(one_dim())
    assert len(ders) == 1
    assert ders[0] == ((1,),)


def test_derivations_abelian():
    assert len(derivations(abelian(2))) == 4
    assert len(derivations(abelian(3))) == 9


def test_derivations_affine2():
    # product rule on e1*e2 = e2 forces D(e2) = a*e2 and kills the e1 part
    ders = derivations(affine2())
    assert len(ders) == 2
    for M in ders:
        assert M[1][0] == 0
        assert is_derivation(affine2(), M)


def test_derivations_satisfy_product_rule():
    rng = random.Random(20260819)
    for entry in lie_catalog():
        L = entry.algebra
        ders = derivations(L)
        for _ in range(5):
            coeffs = [rng.randint(-3, 3) for _ in ders]
            combo = [
                [
                    sum(c * M[row][col] for c, M in zip(coeffs, ders))
                    for col in range(L.dim)
                ]
                for row in range(L.dim)
            ]
            assert is_derivation(L, combo)


# --- inner derivations ----------------------------------------------------


def test_inner_derivations_dimensions():
    assert inner_derivations(abelian(2)) == []
    assert len(inner_derivations(heisenberg())) == 2
    assert len(inner_derivations(get_catalog("sl2").algebra)) == 3
    for entry in lie_catalog():
        L = entry.algebra
        assert len(inner_derivations(L)) == L.dim - center(L).dim


def test_inner_derivations_are_derivations():
    for entry in lie_catalog():
        L = entry.algebra
        for M in inner_derivations(L):
            assert is_derivation(L, M)


def test_inner_derivations_need_jacobi():
    with pytest.raises(ValueError):
        inner_derivations(get_catalog("paper-L").algebra)


def test_inner_span_inside_derivation_span():
    for entry in lie_catalog():
        L = entry.algebra
        flat_der = [tuple(x for row in M for x in row) for M in derivations(L)]
        rows, pivots = rref_rows(flat_der, L.dim * L.dim)
        der_span = (tuple(rows), tuple(pivots))
        for M in inner_derivations(L):
            flat = tuple(x for row in M for x in row)
            combined, _ = rref_rows(flat_der + [flat], L.dim * L.dim)
            assert (tuple(combined), tuple(pivots)) == der_span


# --- building -------------------------------------------------------------


def test_build_reference_table():
    B = build_from_construction(example_data(0, 0, 1))
    assert B.basis_names == ("t", "a", "b", "c")
    assert B.c(0, 1, 3) == 0 and B.c(0, 2, 3) == 0  # ta = tb = 0
    assert B.c(1, 2, 3) == 1  # ab = c
    assert B.c(1, 3, 3) == 0 and B.c(2, 3, 3) == 0  # ac = bc = 0
    assert B.c(3, 0, 3) == 1  # ct = c
    assert member(classify(B), "w")


def test_build_general_parameters():
    B = build_from_construction(example_data(2, Fraction(-1, 3), 5))
    assert B.c(0, 1, 3) == 2
    assert B.c(0, 2, 3) == Fraction(-1, 3)
    assert B.c(1, 2, 3) == 5
    assert B.c(3, 0, 3) == 1


def test_inner_parts_over_a_rational_base_and_complement():
    """Over sl2 with its product scaled by -1/3 (denominator 3) and a
    complement L0 of rational vectors, the inner part x of each P-product
    has ad(x) = [psi_i, psi_j], both formed with `Element` products; a
    seeded member over that base is in w and rebuilds from its
    decomposition."""
    sl2 = get_catalog("sl2").algebra
    third = Fraction(-1, 3)
    L = Algebra(
        "sl2/-3",
        sl2.basis_names,
        {key: {k: third * v for k, v in row.items()} for key, row in sl2.table_pairs()},
    )
    assert L.denominator == 3
    ders, n = derivations(L), L.dim
    psi = [
        [[sum(c * D[r][k] for c, D in zip(cs, ders)) for k in range(n)] for r in range(n)]
        for cs in ((1, 2, 0), (0, -1, 1), (2, 0, -1))
    ]
    L0 = ((Fraction(1, 2), 0, 0), (1, Fraction(2, 3), 0), (0, 1, Fraction(-3, 4)))
    data = ConstructionData(L=L, p_names=("p", "q", "r"), psi=psi, lam={}, L0=L0)
    parts = data.validate()
    assert list(parts) == [(0, 1), (0, 2), (1, 2)]
    for (i, j), x in parts.items():
        Mi, Mj = psi[i], psi[j]
        comm = [
            [sum(Mj[r][m] * Mi[m][k] - Mi[r][m] * Mj[m][k] for m in range(n))
             for k in range(n)]
            for r in range(n)
        ]
        ad = [list((L.element(x) * L.basis_element(k)).coords) for k in range(n)]
        assert ad == comm
    assert member(classify(build_from_construction(data)), "w")
    B = random_w_algebra(L, p_dim=2, seed=3)
    assert member(classify(B), "w")
    assert build_from_construction(decompose(B)).dim == B.dim


def test_build_rejects_non_lie_base():
    data = ConstructionData(
        L=get_catalog("paper-L").algebra, p_names=(), psi=(), lam={}, L0=()
    )
    with pytest.raises(ValueError, match="Lie"):
        build_from_construction(data)


def test_build_rejects_non_derivation():
    data = ConstructionData(
        L=affine2(),
        p_names=("p",),
        psi=(((1, 0), (0, 0)),),
        lam={},
        L0=((1, 0),),
    )
    with pytest.raises(ValueError, match="derivation"):
        build_from_construction(data)


def test_build_rejects_lambda_outside_center():
    data = ConstructionData(
        L=affine2(),
        p_names=("p", "q"),
        psi=(((0, 0), (0, 0)), ((0, 0), (0, 0))),
        lam={(0, 1): (0, 1)},
        L0=((1, 0), (0, 1)),
    )
    with pytest.raises(ValueError, match="center"):
        build_from_construction(data)


def test_build_rejects_bad_complement():
    data = ConstructionData(
        L=one_dim(), p_names=("p",), psi=(((0,),),), lam={}, L0=((1,),)
    )
    with pytest.raises(ValueError, match="complement"):
        build_from_construction(data)


def test_build_rejects_non_inner_commutator():
    data = ConstructionData(
        L=abelian(2),
        p_names=("p", "q"),
        psi=(((0, 1), (0, 0)), ((0, 0), (1, 0))),
        lam={},
        L0=(),
    )
    with pytest.raises(ValueError, match="inner"):
        build_from_construction(data)


def test_build_reports_non_inner_commutator_before_name_collision():
    data = ConstructionData(
        L=abelian(2),
        p_names=("p", "e0"),
        psi=(((0, 1), (0, 0)), ((0, 0), (1, 0))),
        lam={},
        L0=(),
    )
    with pytest.raises(ValueError, match=r"\[psi\[0\], psi\[1\]\] is not an inner"):
        build_from_construction(data)


@pytest.mark.parametrize("L0", [((0, 0, 1), (1, 0, 0)), ((1, 0, 0), (1, 0, 0))])
def test_build_rejects_dependent_complement(L0):
    # heisenberg's center is span(z): (z, x) has the right count but does not
    # span L with it, (x, x) spans too little
    data = ConstructionData(L=heisenberg(), p_names=(), psi=(), lam={}, L0=L0)
    with pytest.raises(ValueError, match="L0 is not a complement"):
        build_from_construction(data)


def spy_inner_part_solves(monkeypatch):
    """Record each commutator `_inner_parts` expresses over ad(L0)."""
    calls = []
    express = Echelon.express

    def spy(self, v):
        calls.append(v)
        return express(self, v)

    monkeypatch.setattr(Echelon, "express", spy)
    return calls


def test_build_solves_each_pair_once(monkeypatch):
    calls = spy_inner_part_solves(monkeypatch)
    B = build_from_construction(example_data(2, Fraction(-1, 3), 5))
    assert len(calls) == 3  # pairs (0,1), (0,2), (1,2)
    assert B.c(1, 2, 3) == 5


@pytest.mark.parametrize(
    "L, p_dim, solves, fallback",
    [(get_catalog("sl2").algebra, 3, 3, False), (abelian(2), 2, 5 + 1, True)],
    ids=["sl2-accepted", "abelian-fallback"],
)
def test_random_w_algebra_solves_each_pair_once_per_attempt(
    monkeypatch, L, p_dim, solves, fallback
):
    """Every derivation of sl2 is inner, so its first draw is accepted; on
    the abelian plane (seed 1) all five draws are rejected and the inner
    derivations are drawn instead. Each attempt solves each pair once, up to
    the first pair that fails (here the only pair), and the build reuses the
    accepted draw's solves: 3 for sl2, 5 rejections + 1 for the plane."""
    fallbacks = []
    inner = construction.inner_derivations
    monkeypatch.setattr(
        construction, "inner_derivations", lambda A: fallbacks.append(A) or inner(A)
    )
    calls = spy_inner_part_solves(monkeypatch)
    random_w_algebra(L, p_dim=p_dim, seed=1)
    assert len(calls) == solves
    assert len(fallbacks) == fallback


def test_members_and_null_triples_are_built_on_sparse_int_rows(monkeypatch):
    """`random_w_algebra` and `sample_null_triples` on sl2 form no dense
    product (`Algebra.mul_coords`, behind every `Element` product), and every
    sparse product they form multiplies int vectors."""
    dense, operands = [], []
    mul_coords, mul_sparse = Algebra.mul_coords, Algebra.mul_sparse

    def spy_coords(self, xc, yc):
        dense.append((xc, yc))
        return mul_coords(self, xc, yc)

    def spy_sparse(self, xs, ys):
        operands.extend(chain(xs.values(), ys.values()))
        return mul_sparse(self, xs, ys)

    monkeypatch.setattr(Algebra, "mul_coords", spy_coords)
    monkeypatch.setattr(Algebra, "mul_sparse", spy_sparse)
    B = random_w_algebra(get_catalog("sl2").algebra, p_dim=3, seed=1)
    triples = sample_null_triples(B, random.Random(5), 4)
    assert dense == []
    assert operands and all(type(v) is int for v in operands)
    monkeypatch.undo()
    assert member(classify(B), "w")
    for x1, x2, x3 in triples:
        assert jacobian(x1, x2, x3).is_zero()


def test_build_rejects_name_collision():
    data = ConstructionData(
        L=one_dim(), p_names=("c",), psi=(((0,),),), lam={}, L0=()
    )
    with pytest.raises(ValueError, match="name"):
        build_from_construction(data)


# --- decomposition --------------------------------------------------------


def test_decompose_reference_example():
    B = get_catalog("B(0,0,1)").algebra
    data = decompose(B)
    assert data.p_names == ("t", "a", "b")
    assert data.L.basis_names == ("c",)
    assert data.psi == (((1,),), ((0,),), ((0,),))
    assert data.lam == {(1, 2): (1,)}
    assert data.L0 == ()


def test_decompose_paper_L():
    A = get_catalog("paper-L").algebra
    data = decompose(A)
    assert data.p_names == ("a", "b", "c")
    assert data.L.basis_names == ("d",)
    assert data.psi == (((1,),), ((0,),), ((0,),))
    assert data.lam == {(1, 2): (1,)}


def test_decompose_abelian_has_no_p_part():
    data = decompose(abelian(3))
    assert data.p_names == ()
    assert data.L.dim == 3


def test_decompose_rejects_outside_w():
    with pytest.raises(ValueError, match="w"):
        decompose(get_catalog("free-anti-2-4").algebra)


def test_decompose_build_round_trip():
    for name in ["B(0,0,1)", "B(1,2,3)", "paper-L", "heisenberg3"]:
        B = get_catalog(name).algebra
        data = decompose(B)
        rebuilt = build_from_construction(data)
        rebased = change_basis(
            B, list(data.ambient_basis), list(rebuilt.basis_names)
        )
        assert rebased.basis_names == rebuilt.basis_names
        for i in range(B.dim):
            for j in range(i + 1, B.dim):
                for k in range(B.dim):
                    assert rebased.c(i, j, k) == rebuilt.c(i, j, k)


def test_decompose_construct_round_trip_on_members_named_like_fallbacks():
    """Members of w in a seeded random integer basis named v0, v1, ...,
    the names `restrict` falls back to for a non-unit row: a basis name of
    L that is also one of the member's names is a unit row, and the
    construction file that decompose's data emits parses and constructs the
    algebra back."""
    entries = lie_catalog()
    members = [
        random_w_algebra(entries[s % len(entries)].algebra, p_dim=1 + s % 3, seed=s)
        for s in range(21)
    ]
    members.append(get_catalog("paper-L").algebra)
    # at seeds 80 and 102 a bare v{idx} fallback is also a name in P
    for seed in range(110):
        A = members[seed % len(members)]
        rng = random.Random(f"fallback-names-{seed}")
        while True:
            rows = [[rng.randint(-2, 2) for _ in range(A.dim)] for _ in range(A.dim)]
            if invert_rows(rows) is not None:
                break
        B = change_basis(A, rows, [f"v{i}" for i in range(A.dim)])
        data = decompose(B)
        # a name L shares with B names the same vector of B
        n_p = len(data.p_names)
        for name, row in zip(data.L.basis_names, data.ambient_basis[n_p:]):
            if name in B.basis_names:
                k = B.basis_names.index(name)
                assert row == tuple(int(m == k) for m in range(B.dim)), (seed, name)
        rebuilt = build_from_construction(parse_construction_file(emit_construction(data)))
        rebased = change_basis(B, list(data.ambient_basis), list(rebuilt.basis_names))
        for i in range(B.dim):
            for j in range(i + 1, B.dim):
                for k in range(B.dim):
                    assert rebased.c(i, j, k) == rebuilt.c(i, j, k), (seed, B.name)


# --- isomorphism checking --------------------------------------------------


def test_verify_isomorphism_identity_map():
    A = get_catalog("paper-L").algebra
    eye = [[int(i == j) for j in range(4)] for i in range(4)]
    assert verify_isomorphism(A, A, eye)


def test_verify_isomorphism_B_to_normal_form():
    B001 = get_catalog("B(0,0,1)").algebra
    for a1, a2, a3 in [(0, 0, 1), (1, 2, 3), (Fraction(1, 2), -1, 4)]:
        Ba = get_catalog(f"B({a1},{a2},{a3})").algebra
        M = [
            [1, Fraction(-a2, 1) / a3, Fraction(a1, 1) / a3, 0],
            [0, 1, 0, 0],
            [0, 0, 1, 0],
            [0, 0, 0, a3],
        ]
        assert verify_isomorphism(B001, Ba, M)


def test_verify_isomorphism_rejects_non_multiplicative():
    A = get_catalog("paper-L").algebra
    swap = [
        [0, 1, 0, 0],
        [1, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 1],
    ]
    assert not verify_isomorphism(A, A, swap)


def test_verify_isomorphism_errors():
    A = get_catalog("paper-L").algebra
    with pytest.raises(ValueError):
        verify_isomorphism(A, A, [[0] * 4 for _ in range(4)])
    with pytest.raises(ValueError):
        verify_isomorphism(A, abelian(2), [[1, 0], [0, 1]])


# --- randomized construction -----------------------------------------------


def test_random_w_algebra_deterministic():
    L = heisenberg()
    B1 = random_w_algebra(L, p_dim=2, seed=7)
    B2 = random_w_algebra(L, p_dim=2, seed=7)
    assert B1.basis_names == B2.basis_names
    assert list(B1.table_pairs()) == list(B2.table_pairs())


def test_random_w_algebra_members_and_round_trip():
    rng_seeds = [1, 2, 3, 4, 5]
    entries = lie_catalog()
    for s in rng_seeds:
        L = entries[s % len(entries)].algebra
        B = random_w_algebra(L, p_dim=1 + s % 3, seed=s)
        assert member(classify(B), "w")
        data = decompose(B)
        rebuilt = build_from_construction(data)
        rebased = change_basis(
            B, list(data.ambient_basis), list(rebuilt.basis_names)
        )
        for i in range(B.dim):
            for j in range(i + 1, B.dim):
                for k in range(B.dim):
                    assert rebased.c(i, j, k) == rebuilt.c(i, j, k)


def test_random_w_algebra_zero_p_is_base():
    L = heisenberg()
    B = random_w_algebra(L, p_dim=0, seed=1)
    assert B.dim == 3
    assert B.c(0, 1, 2) == 1
