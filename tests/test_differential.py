"""The canonical-form identity checker against the raw-term exhaustive oracle.

The oracle is the direct reading of the definition: every sorted index tuple
of every polarized variable group, in lexicographic order, evaluated on the
raw polarized terms with no symmetry pruning and no shared results. The
checker must reach the same verdict and report the same witness.
"""

from fractions import Fraction
from itertools import combinations_with_replacement, product

from hypothesis import given, settings
from hypothesis import strategies as st

from skewalg.algebra import Algebra
from skewalg.catalog import get_catalog, lie_catalog
from skewalg.construction import random_w_algebra
from skewalg.identities import (
    CheckResult,
    _build_witness,
    builtin_varieties,
    check_identity,
    classify,
    parse_identity,
    polarize,
)

CUSTOM = (
    "x = 0",
    "2*x = x + x",
    "J(x,y,z)*x = 0",
    "J(x,y,x*y) = 0",
    "(x*y)*(z*t) = 0",
    "(x*y)*z = 0",
    "((x*y)*z)*y = 0",
    "((x*y)*x)*x = 0",
    "(x*y)*(x*y) = 0",
    "J(x,y,z)*(x*y) = 0",
    "1/2*J(x,y,z*t) = (x*y)*(z*t)",
    "J(x,y,z*t) = 0",
)
TEXTS = tuple(
    dict.fromkeys(
        [i.text for idfs in builtin_varieties().values() for i in idfs] + list(CUSTOM)
    )
)
IDENTITIES = tuple(parse_identity(t) for t in TEXTS)

NONZERO = st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-3, 2)])


def exhaustive_check(A, idf):
    system = polarize(idf)
    for comp in system.components:
        pools = [
            list(combinations_with_replacement(range(A.dim), len(g))) for g in comp.groups
        ]
        for combo in product(*pools):
            vectors = [A.basis_element(i).coords for picks in combo for i in picks]
            value = comp.evaluate(A, vectors)
            if any(value):
                sparse = {k: x for k, x in enumerate(value) if x}
                return CheckResult(False, idf, _build_witness(A, idf, comp, combo, sparse))
    return CheckResult(True, idf, None)


def summary(res):
    return res.holds, None if res.witness is None else res.witness.describe()


@st.composite
def algebras(draw):
    n = draw(st.integers(1, 5))
    prods = {}
    for i in range(n):
        for j in range(i + 1, n):
            row = draw(st.dictionaries(st.integers(0, n - 1), NONZERO, max_size=2))
            if row:
                prods[(i, j)] = row
    return Algebra("rnd", [f"e{i}" for i in range(n)], prods)


def assert_agrees(A):
    for idf in IDENTITIES:
        assert summary(check_identity(A, idf)) == summary(exhaustive_check(A, idf)), idf.text
    for verdict in classify(A).verdicts:
        want = (True, None, None)
        for idf in builtin_varieties()[verdict.variety]:
            res = check_identity(A, idf)
            if not res.holds:
                want = (False, idf.text, res.witness.describe())
                break
        witness = None if verdict.witness is None else verdict.witness.describe()
        assert (verdict.member, verdict.failed_identity, witness) == want


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(algebras())
def test_checker_matches_exhaustive_oracle(A):
    assert_agrees(A)


def test_checker_matches_exhaustive_oracle_on_catalog_and_w_members():
    for name in ("paper-L", "B(0,0,1)", "heisenberg3", "sl2", "affine2", "free-anti-2-3"):
        assert_agrees(get_catalog(name).algebra)
    # seed 2 gives a dim-6 Lie algebra, seed 14 a member of w that is not Lie
    entries = lie_catalog()
    for s in (2, 14):
        L = entries[s % len(entries)].algebra
        assert_agrees(random_w_algebra(L, p_dim=1 + s % 3, seed=s))
