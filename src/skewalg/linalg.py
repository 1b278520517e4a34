"""Exact linear algebra over the rationals.

Scalars are `fractions.Fraction`; plain ints are accepted anywhere a scalar
is and mix freely. A sparse vector is a dict `{key: scalar}` without zero
entries; `add_scaled` is its accumulator, and `render_terms` prints one as
a linear combination; it and `format_scalar` print an `int` scalar
directly and make a `Fraction` only of any other scalar. There is one
elimination engine, `Echelon`: sparse rows (`{column: int}`) in
fraction-free integer echelon form, each row divided by the gcd of its
entries and signed so that its leading (lowest) column is positive.
Rows may carry provenance tags, `{tag: coefficient}`, which follow every
elimination step, so that a reduction can say which inserted rows it used.

`Echelon.extend` is the one bounded insert loop: it scales each rational
row to integers (`_scale_to_int`), skips zero rows, and reads rows only
until the rank reaches its bound. Every span, rank and kernel of `algebra`
(every `Subspace`) and `construction` is built through it; tagged rows and
the free quotients' relation rows go in one at a time (`insert`).

`Echelon.rref` fully reduces the engine and divides each row by its pivot:
the canonical reduced row echelon form of the row space (pivots are the
leading columns, left to right), which doubles as a normal form.
`sparse_rref` is `extend` then `rref` on a fresh engine, and
`sparse_kernel` reduces its rows the same way and reads a kernel basis
off the result. The dense functions `rref_rows(rows, cols)`,
`null_space(rows, cols)`, `invert_rows(rows)` and `span_membership(basis,
v)` are thin adapters that convert lists of equal-length rows to and from
sparse rows around them; no other module calls them. No floats, no pivot
heuristics.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm

_SCALAR_RE = re.compile(r"-?\d+(/\d+)?\Z")


def parse_scalar(text: str) -> Fraction:
    """Parse "p" or "p/q" (optional leading minus, no whitespace)."""
    if not _SCALAR_RE.match(text):
        raise ValueError(f"bad rational literal: {text!r}")
    num, _, den = text.partition("/")
    if den:
        d = int(den)
        if d == 0:
            raise ValueError(f"zero denominator: {text!r}")
        return Fraction(int(num), d)
    return Fraction(int(num))


def format_scalar(x) -> str:
    """The scalar as "p" or "p/q" in lowest terms; an int prints as it is."""
    if type(x) is not int:
        x = Fraction(x)
        if x.denominator != 1:
            return f"{x.numerator}/{x.denominator}"
        x = x.numerator
    return str(x)


def render_terms(terms):
    """(label, coefficient) pairs as text: "a + 2*b - 1/2*d". Zero
    coefficients are skipped; no term left reads "0"."""
    parts = []
    for label, v in terms:
        if v == 0:
            continue
        if type(v) is not int:
            v = Fraction(v)
        mag = abs(v)
        body = label if mag == 1 else f"{format_scalar(mag)}*{label}"
        if not parts:
            parts.append(body if v > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if v > 0 else f"- {body}")
    return " ".join(parts) if parts else "0"


def add_scaled(out, row, f=1):
    """out += f * row on sparse vectors, in place; returns out."""
    for k, v in row.items():
        nv = out.get(k, 0) + f * v
        if nv:
            out[k] = nv
        elif k in out:
            del out[k]
    return out


# --- the elimination engine ---------------------------------------------------


def _scale_to_int(row):
    """A sparse rational row times the lcm of its denominators."""
    if all(type(v) is int for v in row.values()):
        return row
    denom = lcm(*(v.denominator for v in row.values()))
    return {c: v.numerator * (denom // v.denominator) for c, v in row.items()}


def _content(row, lead):
    """gcd of an integer row's entries, negated when row[lead] < 0."""
    g = 0
    for v in row.values():
        g = gcd(g, v)
    return -g if row[lead] < 0 else g


def _row_normalize(row):
    """An integer row divided by the gcd of its entries, leading entry > 0."""
    if not row:
        return row
    g = _content(row, min(row))
    if g != 1:
        row = {c: v // g for c, v in row.items()}
    return row


def _combine(row, fb, other, fa):
    """fb * row - fa * other, sparse."""
    return add_scaled({c: v * fb for c, v in row.items()}, other, -fa)


class Echelon:
    """Sparse fraction-free row echelon form over the integers.

    `rows` maps each pivot (leading) column to its normalized integer row.
    Rows inserted with tags keep, in `tags` under the same pivot, the
    combination `{tag: coefficient}` of inserted rows that they equal.
    """

    def __init__(self):
        self.rows = {}
        self.tags = {}

    def insert(self, row, tags=None):
        """Add an integer row; return its new pivot, or None if dependent."""
        row = dict(row)
        while row:
            lead = min(row)
            piv = self.rows.get(lead)
            if piv is None:
                g = _content(row, lead)
                if g != 1:
                    row = {c: v // g for c, v in row.items()}
                    if tags is not None:
                        tags = {t: Fraction(v, g) for t, v in tags.items()}
                self.rows[lead] = row
                if tags is not None:
                    self.tags[lead] = tags
                return lead
            a, b = row[lead], piv[lead]
            g = gcd(a, b)
            fb, fa = b // g, a // g
            if fb != 1:
                for c in row:
                    row[c] *= fb
            add_scaled(row, piv, -fa)
            if tags is not None:
                tags = _combine(tags, fb, self.tags[lead], fa)
        return None

    def extend(self, rows, bound):
        """Insert sparse rational rows, each scaled to integers, until the
        rank reaches bound; return the scaled rows that raised it. Zero rows
        are skipped and no row is read at the bound, so `rows` may be lazy."""
        raised = []
        if len(self.rows) < bound:
            for row in map(_scale_to_int, rows):
                if row and self.insert(row) is not None:
                    raised.append(row)
                    if len(self.rows) == bound:
                        break
        return raised

    def reduce_full(self):
        """Clear pivot columns from every other row, one pass per row.

        Rows are reduced in descending pivot order, so the rows a row is
        cleared against are reduced already: each has no pivot column but
        its own, and clearing one hit leaves the row's other hits alone.
        With L the least integer that makes every multiplier integral, the
        row becomes L * row minus (L * row[c] / piv_c[c]) * piv_c for each
        hit c, then is normalized."""
        rows = self.rows
        for p in sorted(rows, reverse=True):
            row = rows[p]
            hits = [c for c in row if c != p and c in rows]
            if not hits:
                continue
            scale = 1
            for c in hits:
                b = rows[c][c]
                scale = lcm(scale, b // gcd(row[c], b))
            out = {c: v * scale for c, v in row.items()}
            for c in hits:
                piv = rows[c]
                add_scaled(out, piv, -(scale * row[c] // piv[c]))
            rows[p] = _row_normalize(out)

    def rref(self):
        """Canonical rref of the row space: (rows with pivot entry 1 in pivot
        order, pivot columns); entries are int where integral."""
        self.reduce_full()
        pivots = sorted(self.rows)
        reduced = []
        for p in pivots:
            row = self.rows[p]
            lv = row[p]
            reduced.append(
                row if lv == 1
                else {c: v // lv if v % lv == 0 else Fraction(v, lv) for c, v in row.items()}
            )
        return reduced, pivots

    def express(self, v):
        """The tag combination equal to the rational row v, or None if v lies
        outside the row space."""
        v = dict(v)
        acc = {}
        while v:
            lead = min(v)
            prow = self.rows.get(lead)
            if prow is None:
                return None
            f = Fraction(v[lead], prow[lead])
            add_scaled(v, prow, -f)
            add_scaled(acc, self.tags[lead], f)
        return acc


def sparse_rref(rows, max_rank):
    """Canonical rref (`Echelon.rref`) of sparse rational rows ({column:
    scalar}), read through `Echelon.extend` up to rank max_rank (the column
    count, or any bound known to hold)."""
    ech = Echelon()
    ech.extend(rows, max_rank)
    return ech.rref()


def sparse_kernel(rows, cols):
    """Right-kernel basis of sparse rational rows over range(cols), one
    vector per non-pivot column of their rref: 1 there and minus that
    column at the pivots."""
    reduced, pivots = sparse_rref(rows, cols)
    pivot_set = set(pivots)
    basis = []
    for free in range(cols):
        if free in pivot_set:
            continue
        v = {free: 1}
        for row, p in zip(reduced, pivots):
            x = row.get(free)
            if x:
                v[p] = -x
        basis.append(v)
    return basis


def _sparse(row):
    return {c: v for c, v in enumerate(row) if v}


def rref_rows(rows, cols: int | None = None):
    """Reduced row echelon form of a list of row vectors.

    Pivots are the leading columns, left to right. Returns (reduced nonzero
    rows, pivot column indices); the result is the canonical rref of the row
    space, so it doubles as a normal form. `cols` is the row length, read
    from the first row when there is one.
    """
    rows = list(rows)
    if rows:
        cols = len(rows[0])
    elif cols is None:
        cols = 0
    reduced, pivots = sparse_rref(map(_sparse, rows), cols)
    return [[row.get(c, 0) for c in range(cols)] for row in reduced], pivots


def null_space(rows, cols):
    """Basis of the right kernel of the rows (each of length cols), one
    vector per non-pivot column."""
    return [
        tuple(Fraction(v.get(c, 0)) for c in range(cols))
        for v in sparse_kernel(map(_sparse, rows), cols)
    ]


def invert_rows(rows):
    """Inverse of a square matrix given as rows, or None if singular."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    aug = [list(r) + [1 if i == j else 0 for j in range(n)] for i, r in enumerate(rows)]
    reduced, pivots = rref_rows(aug, 2 * n)
    if pivots[:n] != list(range(n)) or len(pivots) < n:
        return None
    return [row[n:] for row in reduced]


def span_membership(basis, v):
    """Coefficients expressing v in the given spanning vectors, or None.

    The coefficient vector returned is the one with zeros in the positions
    rref marks as free, which makes it reproducible.
    """
    n = len(v)
    if any(len(b) != n for b in basis):
        raise ValueError("basis/vector length mismatch")
    if not basis:
        return [] if all(x == 0 for x in v) else None
    # solve B^T c = v via an augmented rref
    aug = [[basis[j][i] for j in range(len(basis))] + [v[i]] for i in range(n)]
    reduced, pivots = rref_rows(aug, len(basis) + 1)
    if len(basis) in pivots:
        return None
    coeffs = [Fraction(0)] * len(basis)
    for i, c in enumerate(pivots):
        coeffs[c] = Fraction(reduced[i][-1])
    return coeffs
