import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from skewalg.linalg import (
    Echelon,
    format_scalar,
    null_space,
    parse_scalar,
    render_terms,
    rref_rows,
    span_membership,
)

from oracles import echelon_one_step_at_a_time

F = Fraction


# Independent oracle: naive Gaussian elimination with last-nonzero pivoting,
# deliberately a different pivot rule than the library's.
def oracle_echelon(rows):
    work = [list(r) for r in rows]
    if not work:
        return []
    cols = len(work[0])
    out = []
    row = 0
    for col in range(cols):
        pick = None
        for i in range(len(work) - 1, row - 1, -1):
            if work[i][col] != 0:
                pick = i
        if pick is None:
            continue
        work[row], work[pick] = work[pick], work[row]
        inv = F(1) / F(work[row][col])
        work[row] = [inv * F(v) for v in work[row]]
        for i in range(len(work)):
            if i != row and work[i][col] != 0:
                f = F(work[i][col])
                work[i] = [F(a) - f * b for a, b in zip(work[i], work[row])]
        row += 1
        if row == len(work):
            break
    for r in work:
        if any(v != 0 for v in r):
            out.append(r)
    return out


def oracle_rank(rows):
    return len(oracle_echelon(rows))


def oracle_in_row_space(rows, v):
    base = oracle_rank(rows)
    return oracle_rank(list(rows) + [list(v)]) == base


def random_matrix(rng, nrows, ncols, span=9):
    return [
        [F(rng.randint(-span, span), rng.randint(1, 4)) for _ in range(ncols)]
        for _ in range(nrows)
    ]


def test_rref_identity_fixed():
    m = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    r, pivots = rref_rows(m)
    assert r == m
    assert pivots == [0, 1, 2]


def test_rref_rank_one_fixed():
    r, pivots = rref_rows([[2, 4], [1, 2]])
    assert r == [[1, 2]]
    assert pivots == [0]


def test_rref_matches_oracle_on_random_matrices():
    rng = random.Random(20260819)
    for _ in range(40):
        m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        r, pivots = rref_rows(m)
        assert len(pivots) == oracle_rank(m)
        # both row spaces contained in each other
        for row in r:
            if any(v != 0 for v in row):
                assert oracle_in_row_space(m, row)
        for row in m:
            assert oracle_in_row_space(r, row)


def test_rref_idempotent():
    rng = random.Random(7)
    for _ in range(25):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        r, p = rref_rows(m)
        r2, p2 = rref_rows(r, len(m[0]))
        assert r2 == r
        assert p2 == p


def test_rref_pivot_entries_are_unit_columns():
    rng = random.Random(11)
    for _ in range(20):
        m = random_matrix(rng, 4, 5)
        r, pivots = rref_rows(m)
        for i, c in enumerate(pivots):
            col = [r[k][c] for k in range(len(r))]
            assert col[i] == 1
            assert all(v == 0 for k, v in enumerate(col) if k != i)


def test_null_space_zero_matrix():
    basis = null_space([[0, 0, 0], [0, 0, 0]], 3)
    assert len(basis) == 3


def test_null_space_identity():
    assert null_space([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3) == []


def test_null_space_single_row():
    m = [[1, 1, 0]]
    basis = null_space(m, 3)
    assert len(basis) == 2
    for v in basis:
        assert all(sum(row[j] * v[j] for j in range(3)) == 0 for row in m)


def test_rank_nullity_on_random_matrices():
    rng = random.Random(99)
    for _ in range(30):
        cols = rng.randint(1, 6)
        m = random_matrix(rng, rng.randint(1, 6), cols)
        _, pivots = rref_rows(m)
        assert len(pivots) + len(null_space(m, cols)) == cols


def test_null_space_vectors_annihilate():
    rng = random.Random(123)
    for _ in range(30):
        cols = rng.randint(1, 6)
        m = random_matrix(rng, rng.randint(1, 5), cols)
        for v in null_space(m, cols):
            for row in m:
                assert sum(row[j] * v[j] for j in range(cols)) == 0


def test_echelon_tags_and_express_stay_exact_on_int_input():
    ech = Echelon()
    assert ech.insert({0: 2, 1: 6}, {"r": 1}) == 0
    assert ech.rows[0] == {0: 1, 1: 3}
    tags = ech.tags[0]
    assert tags == {"r": F(1, 2)} and type(tags["r"]) is F
    assert ech.insert({1: 4}, {"s": 2}) == 1
    acc = ech.express({0: 1, 1: 3})
    assert acc == {"r": F(1, 2)} and type(acc["r"]) is F
    acc = ech.express({0: 3, 1: 1})
    assert acc == {"r": F(3, 2), "s": F(-4)}
    assert all(type(v) is F for v in acc.values())
    assert ech.express({2: 1}) is None


def test_span_membership_trivial_cases():
    e1 = (1, 0)
    e2 = (0, 1)
    assert span_membership([e1], (3, 0)) == [3]
    assert span_membership([e1], e2) is None


def test_span_membership_two_dim():
    # hand solve: v = 1*(e1+e2) + (-1)*e2
    assert span_membership([(1, 1), (0, 1)], (1, 0)) == [1, -1]


def test_span_membership_dimension_mismatch():
    with pytest.raises(ValueError):
        span_membership([(1, 0)], (1, 0, 0))


def test_span_membership_reproduces_vector():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(2, 5)
        basis = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(rng.randint(1, n))]
        coeffs = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in basis]
        v = tuple(sum(c * b[j] for c, b in zip(coeffs, basis)) for j in range(n))
        sol = span_membership(basis, v)
        assert sol is not None
        assert tuple(sum(c * b[j] for c, b in zip(sol, basis)) for j in range(n)) == v


def test_scalar_field_axioms_random():
    rng = random.Random(42)
    for _ in range(200):
        a = F(rng.randint(-20, 20), rng.randint(1, 12))
        b = F(rng.randint(-20, 20), rng.randint(1, 12))
        c = F(rng.randint(-20, 20), rng.randint(1, 12))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if c != 0:
            assert (a / c) * c == a


def test_scalar_text_round_trip():
    for text in ["0", "5", "-5", "3/2", "-3/2", "22/7"]:
        assert format_scalar(parse_scalar(text)) == text
    assert parse_scalar("4/2") == 2
    assert format_scalar(F(4, 2)) == "2"


@given(
    st.lists(st.tuples(st.sampled_from("abcd"), st.integers(-(10**30), 10**30)), max_size=8),
    st.integers(),
)
def test_int_scalars_print_as_their_fractions(terms, n):
    assert render_terms(terms) == render_terms((label, F(v)) for label, v in terms)
    assert format_scalar(n) == format_scalar(F(n)) == str(n)


def test_parse_scalar_rejects_junk():
    for bad in ["", " 1", "1 ", "1/ 2", "1//2", "a", "1/0", "2/-3", "+-1"]:
        with pytest.raises(ValueError):
            parse_scalar(bad)


@given(
    st.lists(
        st.dictionaries(st.integers(0, 9), st.integers(-30, 30).filter(bool), min_size=1, max_size=7),
        max_size=12,
    )
)
def test_in_place_elimination_matches_the_step_by_step_loops(rows):
    """`Echelon.insert` subtracting in place leaves the rows a fresh row per
    step leaves, and `reduce_full` in one pass per row gives the rows that
    clearing one pivot column at a time gives."""
    ech = Echelon()
    for row in rows:
        ech.insert(row)
    inserted, reduced = echelon_one_step_at_a_time(rows)
    assert ech.rows == inserted
    ech.reduce_full()
    assert ech.rows == reduced
