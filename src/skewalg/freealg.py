"""Degree-truncated free algebras of identity-defined varieties.

Monomials are binary trees over generator indices kept in a canonical form
that realizes anticommutativity: at every node the left subtree strictly
precedes the right in the degree-then-structure order, one sign per swap,
equal children collapsing to zero.  A FreeQuotient ranks its monomials in
that order (`FreeQuotient.rank`) and records, degree by degree up to a cap,
the surviving monomial basis and a rewrite map sending every canonical
monomial into it.  Relations come from substitution instances of the
polarized defining identities plus monomial multiples of lower-degree
relations; adjoined words enter the ideal without the substitution step.

Substitution instances are generated once per orbit of the identity's
symmetries: copies of a polarized variable take sorted values and a skew
pair of variables strictly increasing ones (`Component.lower`).  Every
other instance is +1 or -1 times the lexicographically first member of its
orbit, which comes earlier in the same stream, or zero, so the pruning
changes neither the row space nor the first occurrence of any row.  The
relation budget still counts every instance (`_row_count`).
"""

from dataclasses import dataclass
from fractions import Fraction
from string import ascii_lowercase

from .identities import (  # noqa: F401  (canonicalize: re-exported)
    _compiled,
    _flatten,
    canonicalize,
    get_variety,
    parse_identity,
)
from .linalg import Echelon, _row_normalize, _scale_to_int, add_scaled

DEFAULT_RELATION_BUDGET = 5_000_000

CONJECTURE_WORD = "J(a,b,(a*b)*(a*c))"
SANITY_WORD = "J(a,b,a*c)"


class RelationBudgetExceeded(RuntimeError):
    def __init__(self, budget, degree):
        super().__init__(
            f"relation budget of {budget} rows exceeded at degree {degree}"
        )
        self.budget = budget
        self.degree = degree


# --- canonical monomials ----------------------------------------------------
# `sort_key` and `canonicalize` live in identities, which compiles identities
# into the same form; a quotient orders its own monomials by `rank`, their
# position in that order.


def _cmul(rank, a, b):
    """(sign, canonical a*b) for canonical monomials a and b ranked by
    `rank`; None when a == b."""
    ra, rb = rank[a], rank[b]
    if ra == rb:
        return None
    if ra > rb:
        return -1, (b, a)
    return 1, (a, b)


def mono_label(m, names) -> str:
    if isinstance(m, int):
        return names[m]
    return f"({mono_label(m[0], names)}*{mono_label(m[1], names)})"


def monomials_of_degree(by, d):
    """Canonical monomials of degree d >= 2 in the canonical order
    (`sort_key`), from the lists `by[e]` of the lower degrees e.

    The products come out already ordered: by left factor, each degree's
    block after the lower ones, then by right factor.
    """
    out = []
    for e in range(1, d // 2 + 1):
        f = d - e
        if e < f:
            out.extend((l, r) for l in by[e] for r in by[f])
        else:
            half = by[e]
            out.extend(
                (half[i], half[j])
                for i in range(len(half))
                for j in range(i + 1, len(half))
            )
    return out


def _monomial_count(sizes, d):
    """len(monomials_of_degree(by, d)) from sizes[e] = len(by[e]), e < d,
    so that the budget can be charged before degree d is enumerated."""
    return sum(
        sizes[e] * sizes[d - e] if 2 * e < d else sizes[e] * (sizes[e] - 1) // 2
        for e in range(1, d // 2 + 1)
    )


def _dedupe_key(row):
    return tuple(sorted(_row_normalize(dict(row)).items()))


# --- the quotient ------------------------------------------------------------


@dataclass(frozen=True)
class WordValue:
    """Homogeneous element of a FreeQuotient: degree plus monomial coordinates."""

    degree: int
    coords: dict

    def is_zero(self):
        return not self.coords


class FreeQuotient:
    """Degree-truncated free algebra of a variety; built by build_free_quotient.

    The build adds degree d (its monomials, by `add_degree`, then its
    relation rows, basis and rewrites) only after charging the relation
    budget for it, so an abort enumerates nothing of the degree it stops at.
    """

    def __init__(self, identities, generators, max_degree):
        if not generators or max_degree < 1:
            raise ValueError("need g >= 1 and max_degree >= 1")
        self.identities = tuple(identities)
        self.generators = tuple(generators)
        self.max_degree = max_degree
        self.components = tuple(_compiled(i) for i in self.identities)
        self.monomials = [[]]
        self.col = [{}]
        self.rank = {}
        self.basis = [()]
        self.rewrite = {}
        self.relations_rref = [[]]
        self.extra = []
        self._pair_cache = {}
        self.add_degree()

    def add_degree(self):
        """Enumerate, index and rank the monomials of the next degree."""
        d = len(self.monomials)
        if d == 1:
            mons = list(range(len(self.generators)))
        else:
            mons = monomials_of_degree(self.monomials, d)
        self.monomials.append(mons)
        self.col.append({m: i for i, m in enumerate(mons)})
        start = len(self.rank)
        self.rank.update((m, start + i) for i, m in enumerate(mons))

    def dims(self):
        return [len(self.basis[d]) for d in range(1, self.max_degree + 1)]

    def label(self, m):
        return mono_label(m, self.generators)

    def _pair_product(self, m1, m2):
        """Rewrite image of the product of two canonical monomials."""
        cached = self._pair_cache.get((m1, m2))
        if cached is None:
            res = _cmul(self.rank, m1, m2)
            if res is None:
                cached = {}
            else:
                sign, mono = res
                cached = {
                    bm: sign * bc for bm, bc in self.rewrite[mono].items()
                }
            self._pair_cache[(m1, m2)] = cached
        return cached

    def product(self, d1, v1, d2, v2):
        """Multiply homogeneous coordinate dicts; degrees past the cap give 0."""
        d = d1 + d2
        if d > self.max_degree:
            return d, {}
        out = {}
        for m1, c1 in v1.items():
            for m2, c2 in v2.items():
                f = c1 * c2
                # inline, not add_scaled: runs per pair of monomials
                for bm, bc in self._pair_product(m1, m2).items():
                    nv = out.get(bm, 0) + f * bc
                    if nv:
                        out[bm] = nv
                    elif bm in out:
                        del out[bm]
        return d, out

    def expand_to_monomials(self, tree):
        """Distribute a word AST into (coefficient, canonical monomial) pairs."""
        out = []
        leaves = self.monomials[1]
        for coef, prod_tree in _flatten(tree):
            res = _substitute(self._to_leaf_tree(prod_tree), leaves, self.rank)
            if res is not None:
                out.append((coef * res[0], res[1]))
        return out

    def expand_to_row(self, tree, d):
        """A degree-d word's full expansion as a sparse row over the
        columns of `monomials[d]`."""
        col = self.col[d]
        row = {}
        for coef, mono in self.expand_to_monomials(tree):
            add_scaled(row, {col[mono]: coef})
        return row

    def _to_leaf_tree(self, tree):
        if tree[0] == "var":
            label = tree[1]
            try:
                return self.generators.index(label)
            except ValueError:
                raise ValueError(f"unknown generator {label!r}") from None
        return (self._to_leaf_tree(tree[1]), self._to_leaf_tree(tree[2]))

    def self_check(self):
        """Regenerate every defining relation and verify that it vanishes
        under the rewrite map (the build checks the rows it used)."""
        for d in range(2, self.max_degree + 1):
            _check_rows(self, d, _degree_rows(self, d))


def _ast_degree(tree):
    if tree[0] == "var":
        return 1
    if tree[0] == "prod":
        return _ast_degree(tree[1]) + _ast_degree(tree[2])
    degs = {_ast_degree(t) for _, t in tree[1]}
    if len(degs) != 1:
        raise ValueError("word is not homogeneous")
    return degs.pop()


def parse_word(text: str):
    """Parse a nonassociative word (identity grammar, no equation part)."""
    if "=" in text:
        raise ValueError("expected a word, not an identity")
    return parse_identity(f"{text} = 0").lhs


def _assignments(monomials, k, d, lower=None):
    """k-tuples of monomials of total degree d in lexicographic rank order,
    rank = (degree, index in monomials[degree]).

    With `lower` (a component's `Component.lower`), only the tuples with
    rank[q] >= rank[p] + (0, s) for every (p, s) in lower[q] are yielded:
    sorted copies of a polarized variable (s = 0), strictly increasing
    values on a skew pair (s = 1).  This is exact for relation rows.  A
    tuple that breaks a bound becomes lexicographically smaller when the
    pair is swapped, and its row is the same (copies), minus the same (skew
    pair) or zero (equal values on a skew pair).  So each orbit's
    lexicographically first tuple is kept, and every dropped row is +1 or
    -1 times a row yielded before it, or zero.
    """
    if k == 0:
        if d == 0:
            yield ()
        return
    bounds = lower or ((),) * k
    top = len(monomials) - 1
    rank = [None] * k
    combo = [None] * k

    def fill(q, left):
        lo_e, lo_i = max(
            ((rank[p][0], rank[p][1] + s) for p, s in bounds[q]), default=(1, 0)
        )
        last = q == k - 1
        hi = min(left - (k - 1 - q), top)
        for e in range(max(left if last else 1, lo_e), hi + 1):
            mons = monomials[e]
            for i in range(lo_i if e == lo_e else 0, len(mons)):
                rank[q] = (e, i)
                combo[q] = mons[i]
                if last:
                    yield tuple(combo)
                else:
                    yield from fill(q + 1, left - e)

    yield from fill(0, d)


def _substitute(m, combo, rank):
    """(sign, canonical monomial) of a monomial over variable positions with
    position q replaced by the canonical monomial combo[q]; None if zero."""
    if isinstance(m, int):
        return 1, combo[m]
    left = _substitute(m[0], combo, rank)
    if left is None:
        return None
    right = _substitute(m[1], combo, rank)
    if right is None:
        return None
    res = _cmul(rank, left[1], right[1])
    if res is None:
        return None
    return left[0] * right[0] * res[0], res[1]


def _row_count(F, d):
    """How many rows `_degree_rows(F, d)` would yield without the orbit
    pruning: every k-tuple of total degree d for each identity with k
    variables, each R_e row times each monomial of degree d - e, and
    the adjoined words of degree d."""
    sizes = [len(F.monomials[e]) for e in range(d)]
    sizes.append(len(F.monomials[d]) if d < len(F.monomials) else _monomial_count(sizes, d))
    count = 0
    # tuples[t]: k-tuples of monomials of total degree t, for k = 0, 1, ...
    tuples = [1] + [0] * d
    ks = [len(comp.variables) for comp in F.components]
    for k in range(max(ks, default=0) + 1):
        count += tuples[d] * ks.count(k)
        tuples = [
            sum(tuples[t - e] * sizes[e] for e in range(1, t + 1))
            for t in range(d + 1)
        ]
    count += sum(len(F.relations_rref[e]) * sizes[d - e] for e in range(1, d))
    count += sum(1 for deg, _text, _tree in F.extra if deg == d)
    return count


def _degree_rows(F, d):
    """Relation rows of degree d in a fixed deterministic order.

    Yields (source, row) pairs; `source` is (identity, component, assignment),
    (e, index, monomial) for R_e[index] * monomial, or (text,) for an
    adjoined word, and `_describe` renders it. Substitution instances come
    from the compiled canonical polynomial, which is exact because the free
    quotient is anticommutative, one per orbit of its symmetries
    (`_assignments`).
    """
    col = F.col[d]
    rank = F.rank
    for idf, comp in zip(F.identities, F.components):
        k = len(comp.variables)
        if k > d:
            continue
        for combo in _assignments(F.monomials, k, d, comp.lower):
            row = {}
            # inline, not add_scaled: runs per term of every relation row
            for m, coef in comp.poly.items():
                res = _substitute(m, combo, rank)
                if res is None:
                    continue
                c = col[res[1]]
                nv = row.get(c, 0) + coef * res[0]
                if nv:
                    row[c] = nv
                elif c in row:
                    del row[c]
            yield (idf, comp, combo), _scale_to_int(row)
    for e in range(1, d):
        lower = F.monomials[e]
        for idx, r in enumerate(F.relations_rref[e]):
            for m in F.monomials[d - e]:
                row = {}
                # inline, not add_scaled: runs per entry of every multiple
                for c, v in r.items():
                    res = _cmul(rank, lower[c], m)
                    if res is None:
                        continue
                    c2 = col[res[1]]
                    nv = row.get(c2, 0) + v * res[0]
                    if nv:
                        row[c2] = nv
                    elif c2 in row:
                        del row[c2]
                yield (e, idx, m), row
    for deg, text, tree in F.extra:
        if deg == d:
            yield (text,), _scale_to_int(F.expand_to_row(tree, d))


def _check_rows(F, d, rows):
    """Raise if a (source, row) pair of degree d does not vanish under the
    rewrite map; the message names the first such row's source."""
    rewrite = [F.rewrite[m] for m in F.monomials[d]]
    for source, row in rows:
        image = {}
        # inline, not add_scaled: runs per entry of every checked row
        for c, v in row.items():
            for bm, bc in rewrite[c].items():
                nv = image.get(bm, 0) + v * bc
                if nv:
                    image[bm] = nv
                elif bm in image:
                    del image[bm]
        if image:
            raise ValueError(f"self-check failed at degree {d}: {_describe(F, source)}")


def _describe(F, source):
    """The printed text of a relation row's source (see `_degree_rows`)."""
    if len(source) == 1:
        return f"adjoined: {source[0]}"
    if isinstance(source[0], int):
        e, idx, m = source
        return f"R{e}[{idx}] * {F.label(m)}"
    idf, comp, combo = source
    assign = ", ".join(
        f"{v} = {F.label(m)}" for v, m in zip(comp.variables, combo)
    )
    return f"{idf.text} [{assign}]"


def build_free_quotient(
    identities,
    generators,
    max_degree,
    extra_relations=(),
    budget=DEFAULT_RELATION_BUDGET,
) -> FreeQuotient:
    """Construct the truncated free algebra of the given variety, degreewise.

    Before a degree's monomials are enumerated and its rows generated, the
    relation budget is charged with their unpruned count (`_row_count`).
    Each degree's distinct relation rows are checked against its final
    rewrite map; a duplicate or pruned row is a multiple of one of them.
    """
    idfs = tuple(
        parse_identity(t) if isinstance(t, str) else t for t in identities
    )
    if not 1 <= generators <= 26:
        raise ValueError("generator count must be between 1 and 26")
    F = FreeQuotient(idfs, ascii_lowercase[:generators], max_degree)
    for word in extra_relations:
        tree = parse_word(word) if isinstance(word, str) else word
        deg = _ast_degree(tree)
        if deg > max_degree:
            raise ValueError(
                f"adjoined relation has degree {deg} above the cap {max_degree}"
            )
        for _coef, prod_tree in _flatten(tree):
            F._to_leaf_tree(prod_tree)  # names an unknown generator now
        F.extra.append((deg, word if isinstance(word, str) else "<word>", tree))
    # with one generator every degree from 2 on has no monomials; rows reach
    # them only from a k-variable identity (degree k), R_1 multiples (degree 2)
    # and adjoined words (their degree), so past those the degrees stay empty
    reach = max([2, *(len(c.variables) for c in F.components), *(e for e, _, _ in F.extra)])
    count = 0
    for d in range(1, max_degree + 1):
        if d > reach and not F.monomials[d - 1]:
            F.monomials.append([])
            F.col.append({})
            F.relations_rref.append([])
            F.basis.append(())
            continue
        generated = _row_count(F, d)
        count += generated
        # as if counted row by row: a degree without rows never aborts
        if generated and count > budget:
            raise RelationBudgetExceeded(budget, d)
        if d > 1:
            F.add_degree()
        ech = Echelon()
        kept = {}
        for source, row in _degree_rows(F, d):
            if not row:
                continue
            key = _dedupe_key(row)
            if key not in kept:
                kept[key] = source, row
                ech.insert(row)
        ech.reduce_full()
        rows = ech.sorted_rows()
        F.relations_rref.append(rows)
        pivots = set(ech.rows)
        F.basis.append(tuple(
            m for i, m in enumerate(F.monomials[d]) if i not in pivots
        ))
        for m in F.basis[d]:
            F.rewrite[m] = {m: 1}
        for row in rows:
            lead = min(row)
            lv = row[lead]
            F.rewrite[F.monomials[d][lead]] = {
                F.monomials[d][c]: -v // lv if v % lv == 0 else Fraction(-v, lv)
                for c, v in row.items()
                if c != lead
            }
        if d > 1:
            _check_rows(F, d, kept.values())
    return F


# --- evaluation ---------------------------------------------------------------


def _eval_ast(F, tree):
    if tree[0] == "var":
        return 1, dict(F.rewrite[F._to_leaf_tree(tree)])
    if tree[0] == "prod":
        dl, vl = _eval_ast(F, tree[1])
        dr, vr = _eval_ast(F, tree[2])
        return F.product(dl, vl, dr, vr)
    out = {}
    deg = None
    for coef, term in tree[1]:
        dt, vt = _eval_ast(F, term)
        deg = dt if deg is None else deg
        add_scaled(out, vt, coef)
    return deg, out


def _word(F, word):
    """(AST, degree) of a word (text or AST) within the quotient's cap."""
    tree = parse_word(word) if isinstance(word, str) else word
    d = _ast_degree(tree)
    if d > F.max_degree:
        raise ValueError(
            f"degree overflow: word degree {d} exceeds max degree {F.max_degree}"
        )
    return tree, d


def evaluate_word(F: FreeQuotient, word) -> WordValue:
    """Value of a word in the quotient, computed bottom-up through products."""
    deg, coords = _eval_ast(F, _word(F, word)[0])
    return WordValue(deg, coords)


def expand_evaluate(F: FreeQuotient, word) -> WordValue:
    """Value of a word by full distribution first, one rewrite at the top."""
    tree, d = _word(F, word)
    out = {}
    for coef, mono in F.expand_to_monomials(tree):
        add_scaled(out, F.rewrite[mono], coef)
    return WordValue(d, out)


# --- certificates --------------------------------------------------------------


def relation_combination(F: FreeQuotient, word):
    """Express a vanishing word over the degree's relation rows.

    Returns a list of (coefficient, description, row) with rows keyed by
    monomial; the linear combination reproduces the word's expansion.
    """
    tree = parse_word(word) if isinstance(word, str) else word
    value = evaluate_word(F, tree)
    if value.coords:
        raise ValueError("word is nonzero in the quotient")
    d = value.degree
    originals = []
    ech = Echelon()
    for source, row in _degree_rows(F, d):
        if row:
            ech.insert(row, {len(originals): 1})
            originals.append((source, row))
    v = F.expand_to_row(tree, d)
    acc = ech.express(v)
    if acc is None:
        raise ValueError("reduction failed to close; quotient is inconsistent")
    check = {}
    for t, coef in acc.items():
        add_scaled(check, originals[t][1], coef)
    if check != v:
        raise ValueError("relation combination does not reproduce the word")
    return [
        (
            acc[t],
            _describe(F, originals[t][0]),
            {F.monomials[d][c]: val for c, val in originals[t][1].items()},
        )
        for t in sorted(acc)
    ]


@dataclass
class ConjectureCertificate:
    """CONJECTURE_WORD's value in `quotient`, with SANITY_WORD's value."""

    value: WordValue
    sanity: WordValue
    verdict: str
    routes_agree: bool
    zero_combination: list | None
    quotient: FreeQuotient


def conjecture_certificate(budget=DEFAULT_RELATION_BUDGET) -> ConjectureCertificate:
    """Evaluate the degree-6 test word in the truncated free algebra of v on
    the generators a, b, c.

    The verdict reports what the computation found; neither outcome is
    asserted as ground truth.
    """
    F = build_free_quotient(get_variety("v"), 3, 6, budget=budget)
    via_products = evaluate_word(F, CONJECTURE_WORD)
    via_expansion = expand_evaluate(F, CONJECTURE_WORD)
    verdict = "zero" if via_products.is_zero() else "nonzero"
    combination = (
        relation_combination(F, CONJECTURE_WORD) if verdict == "zero" else None
    )
    return ConjectureCertificate(
        value=via_products,
        sanity=evaluate_word(F, SANITY_WORD),
        verdict=verdict,
        routes_agree=via_products == via_expansion,
        zero_combination=combination,
        quotient=F,
    )
