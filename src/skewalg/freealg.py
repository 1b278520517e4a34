"""Degree-truncated free algebras of identity-defined varieties.

Monomials are binary trees over generator indices kept in a canonical form
that realizes anticommutativity: at every node the left subtree strictly
precedes the right in the degree-then-structure order, one sign per swap,
equal children collapsing to zero.  A FreeQuotient keys each monomial by its
rank in that order, an int id: the generators keep their indices, and a
product's id is read from one table keyed by its two factors' ids.  Rows,
rewrites, bases and word values are keyed by id; the nested tuples are made
only for labels (`FreeQuotient.nested`) and read only where a word's
expansion (`FreeQuotient.word_poly`) enters the quotient.  Degree by degree
up to a cap, the quotient records the surviving monomial basis and a
rewrite map sending every monomial into it.  Relations come from
substitution instances of the polarized defining identities plus monomial
multiples of lower-degree relations; adjoined words enter the ideal without
the substitution step.  Identities and words reach the quotient in the one
canonical polynomial form of `identities`: a compiled `Component` per
identity, and `word_poly` for a word, which the adjoined rows, the symmetry
test on the words, `expand_evaluate` and `relation_combination` all read.
`conjecture_certificate` certifies any word in any quotient with both
evaluation routes and, for a zero value, its relation combination.

Substitution instances are generated once per class of tuples of the same
values whose rows agree up to a scalar.  `Component.lower` bounds the
orbits of the identity's symmetries: copies of a polarized variable take
sorted values and a skew pair of variables strictly increasing ones.  The
identity's rank-pattern table (`Component.pattern_table`, for at most six
polarized variables) keeps, of the ways the values of a tuple can
coincide, only those whose specialization is nonzero and no rational
multiple of a lexicographically smaller one's.  Every other instance is
zero or a multiple of an instance at the same values that comes earlier in
the same stream, so the pruning changes neither the row space nor the
first occurrence of any row.

A build generates fewer rows still, from the lower quotient bases (as in
Albert's practice): a substitution value of degree e < d is a basis monomial
of degree e, and a multiple R_e * m with e > d - e takes m from the basis of
degree d - e.  The rows still span the ideal.  A monomial m off the basis is
rw(m) plus an element of the lower ideal, so an instance at m is one at
rw(m)'s basis monomials plus lower multiples; and R_e * m is R_e * rw(m)
plus R_e times lower relations, which the multiples R_{d-e} * (every
monomial of degree e) give.  The build inserts every nonzero row it
generates into elimination and checks it, duplicates too;
`FreeQuotient.self_check` and `relation_combination` read every row.  The
relation budget still counts every unpruned instance and multiple
(`_row_count`).

Every relation row has one type, its multidegree in the generators, so each
degree's echelon is block-diagonal by type.  A quotient keeps one table of
the blocks it has not made, keyed by (degree, type code), and makes a block
(its rows, then its rewrites) when something first reads it.  A pivot's
rewrite is the one copy of its reduced row, which `relations_rref` and the
multiples derive where they read it (`_relation_row`).  Rows are generated,
eliminated and checked only for one representative type per orbit of the
generator permutations that map the relation set to itself (`_Symmetry`):
every permutation for identities, and with adjoined words those that map
the set of words to itself up to scalars.  The representative is the
orbit's least type code.  Each other type gets the relabelled images of its
representative's independent generated rows.  The final elimination
returns the unique rref, so the quotient is the same as from every row.

A full build makes every representative block degree by degree, and each
degree in full before the next degree's multiples read it, so only the top
degree's moved types wait; `dims` counts each at its representative's rank.
A word read (`FreeQuotient.product`, `evaluate_word`, `expand_evaluate`)
makes the block of each monomial it reads; `basis`, `rewrite`,
`relations_rref` and `self_check` make every block.  A word-restricted build
makes only the types at most its words' types, and a word read outside them
raises ValueError.  A failing check names the first failing row of its
degree's whole stream, as `FreeQuotient.self_check` does, and every later
read of the quotient's rewrites raises it again.
"""

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import islice, permutations, product
from math import gcd, lcm
from operator import mul
from string import ascii_lowercase

from .identities import (  # noqa: F401  (canonicalize, parse_word: re-exported)
    _canonical_poly,
    _compiled,
    _flatten,
    _leaf_tree,
    canonicalize,
    parse_identity,
    parse_word,
    sort_key,
    term_poly,
)
from .linalg import Echelon, _content, _scale_to_int, add_scaled

DEFAULT_RELATION_BUDGET = 5_000_000


class RelationBudgetExceeded(RuntimeError):
    def __init__(self, budget, degree):
        super().__init__(
            f"relation budget of {budget} rows exceeded at degree {degree}"
        )
        self.budget = budget
        self.degree = degree


# --- canonical monomials ----------------------------------------------------
# `sort_key` and `canonicalize` live in identities, which compiles identities
# into the same form; a quotient keys its own monomials by their rank in that
# order, and `times[a][b]` is the id of the canonical product of ids a < b.


def _cmul(times, a, b):
    """(sign, id of canonical a*b) for monomial ids a and b, from a
    quotient's product table `times`; None when a == b."""
    if a < b:
        return 1, times[a][b]
    if a > b:
        return -1, times[b][a]
    return None


def mono_label(m, names) -> str:
    if isinstance(m, int):
        return names[m]
    return f"({mono_label(m[0], names)}*{mono_label(m[1], names)})"


def monomials_of_degree(by, d):
    """Canonical monomials of degree d >= 2 in the canonical order
    (`sort_key`), from the lists `by[e]` of the lower degrees e: nested
    pairs of them, or of their ids when `by[e]` holds ids.

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


# --- the quotient ------------------------------------------------------------


@dataclass(frozen=True)
class WordValue:
    """Homogeneous element of a FreeQuotient: degree plus coordinates keyed
    by monomial id."""

    degree: int
    coords: dict

    def is_zero(self):
        return not self.coords


class FreeQuotient:
    """Degree-truncated free algebra of a variety; built by build_free_quotient.

    Every build, full or word-restricted, adds degree d (its monomials, by
    `add_degree`, then its relation rows, basis and rewrites) only after
    charging the relation budget for it, so an abort enumerates nothing of
    the degree it stops at.  Its blocks wait in one table until read (module
    docstring).
    """

    def __init__(self, identities, generators, max_degree, budget=DEFAULT_RELATION_BUDGET):
        if not generators or max_degree < 1:
            raise ValueError("need g >= 1 and max_degree >= 1")
        self.identities = tuple(identities)
        self.generators = tuple(generators)
        self.max_degree = max_degree
        self.components = tuple(_compiled(i) for i in self.identities)
        self.monomials = [range(0)]  # per degree, the range of its ids
        # per id, its factors' ids (a generator: its index), and for each id
        # that can be a left factor, {right factor's id: the product's id}
        self._factors, self._times = [], []
        self._rewrite = {}  # made blocks' rewrites, their relation rows' one copy
        # per degree: made blocks' pivots, the basis once every block is made,
        # representatives' independent generated rows by type
        self._made, self._basis, self._independent = [set()], [()], [{}]
        self._basis_groups = {}  # per degree whose basis is closed, it by type
        # (degree, type) -> None (generates its rows) or (representative, perm)
        self._table = {}
        self._types = _Types(self)
        self._sym = self._keep = None  # a restriction's {type code: degree}
        self._memos = {}  # per permutation, the images of monomials
        self._failure = None
        self._budget, self._charged = budget, 0  # the relation budget, rows charged
        self._partial = {}  # degree -> its rows a restricted build charged
        self.extra = []
        self._word_rows = []
        self.add_degree()

    @property
    def basis(self):
        """Per degree, the ids of the monomials that survive, in order."""
        self._complete()
        return self._basis

    @property
    def rewrite(self):
        """{monomial id: its image over the basis}, every degree."""
        self._complete()
        return self._rewrite

    @property
    def relations_rref(self):
        """Per degree, the reduced relation rows (primitive integer rows
        keyed by monomial id) in pivot order, a copy made on each read."""
        self._complete()
        return [[_relation_row(self, p) for p in sorted(made)] for made in self._made]

    def add_degree(self, empty=False):
        """Enumerate, number and type the monomials of the next degree (none
        when `empty`) and open its per-degree records."""
        d = len(self.monomials)
        if d == 1:
            pairs = range(len(self.generators))
        else:
            pairs = [] if empty else monomials_of_degree(self.monomials, d)
        start = len(self._factors)
        mons = range(start, start + len(pairs))
        self.monomials.append(mons)
        self._factors.extend(pairs)
        if d > 1:
            times = self._times
            for m, (l, r) in zip(mons, pairs):
                times[l][r] = m
        if 2 * d <= self.max_degree:  # a left factor has at most half the cap
            self._times.extend({} for _ in mons)
        self._made.append(set())
        self._basis.append(None)
        self._independent.append({})
        self._types.add(self, d)

    def adjoin(self, word):
        """Add a word, given as text, to the relations as a row of its
        degree, and return the row: `word_poly` scaled to integers."""
        tree = parse_word(word)
        deg = _ast_degree(tree)
        if deg > self.max_degree:
            raise ValueError(
                f"adjoined relation has degree {deg} above the cap {self.max_degree}"
            )
        row = _scale_to_int(self.word_poly(tree))  # names an unknown generator now
        self.extra.append((deg, word, tree))
        self._word_rows.append(row)
        return row

    def dims(self):
        """Per degree, the dimension; a moved type that waits counts at its
        representative's rank. A word-restricted quotient is completed first."""
        if self._keep is not None:
            self._complete()
        ranks = [len(made) for made in self._made]
        for (d, _code), (rep, _perm) in self._table.items():
            ranks[d] += len(self._independent[d].get(rep, ()))
        return [len(self.monomials[d]) - ranks[d] for d in range(1, self.max_degree + 1)]

    def label(self, m):
        return mono_label(self.nested(m), self.generators)

    def nested(self, m):
        """The canonical monomial of id m as nested pairs of generator indices."""
        f = self._factors[m]
        return f if isinstance(f, int) else (self.nested(f[0]), self.nested(f[1]))

    def _id(self, m):
        """The id of a canonical monomial given as nested pairs (`nested`)."""
        return m if isinstance(m, int) else self._times[self._id(m[0])][self._id(m[1])]

    def _rewritten(self, m):
        """The rewrite entry of a monomial id, its block made first when it
        waits; outside a word-restricted quotient's types, raise."""
        image = self._rewrite.get(m)
        if image is None or self._failure is not None:
            code = self._types.code[m]
            if self._failure is None and self._keep is not None and code not in self._keep:
                raise ValueError(f"{self.label(m)} is outside a word-restricted quotient")
            self._settle(bisect_right([r.stop for r in self.monomials], m), [code])
            image = self._rewrite[m]
        return image

    def _settle(self, d, codes=None):
        """Make and check the blocks of degree d of the types `codes` (every
        type by default); a failing check is named by `_check_degree`.  Once
        a check of the quotient has failed, raise that failure instead."""
        rows = _fill(self, d, codes) if self._failure is None else ()
        failure = d > 1 and _check_rows(self, d, rows)
        if failure:
            self._check_degree(d, failure)
        if self._failure is not None:
            raise ValueError(self._failure)

    def _check_degree(self, d, failure=None):
        """Check degree d's whole row stream, every block through d made
        first, unchecked (its rows are among those checked), and raise the
        failure naming its first failing row, kept so that every later read
        raises it again.  `failure`, a block's failed check, is kept when
        there is none or making the rest exceeds the budget.  A failure
        kept before is raised again instead, by `_complete` of the degrees
        below d."""
        try:
            for e in range(1, d + 1):
                _fill(self, e)
            self._complete(d - 1)
            failure = _check_rows(self, d, _degree_rows(self, d)) or failure
        finally:
            self._failure = failure or self._failure
        if failure:
            raise ValueError(failure)

    def _charge(self, generated, d):
        """Add degree d's `generated` rows to the row count, or abort past the
        budget (as if counted row by row: a degree without rows never aborts)."""
        if generated and self._charged + generated > self._budget:
            raise RelationBudgetExceeded(self._budget, d)
        self._charged += generated

    def _complete(self, top=None):
        """`_settle` every degree through `top` (the cap by default)."""
        if self._table or self._partial or self._failure is not None:
            for d in range(1, (self.max_degree if top is None else top) + 1):
                self._settle(d)

    def product(self, d1, v1, d2, v2):
        """Multiply homogeneous coordinate dicts; degrees past the cap give 0.
        Each pair of monomials reads the rewrite of its canonical product."""
        d = d1 + d2
        if d > self.max_degree:
            return d, {}
        out = {}
        for m1, c1 in v1.items():
            for m2, c2 in v2.items():
                res = _cmul(self._times, m1, m2)
                if res is None:
                    continue
                f = c1 * c2 * res[0]
                # inline, not add_scaled: runs per pair of monomials
                for bm, bc in self._rewritten(res[1]).items():
                    nv = out.get(bm, 0) + f * bc
                    if nv:
                        out[bm] = nv
                    elif bm in out:
                        del out[bm]
        return d, out

    def word_poly(self, tree):
        """A word AST's full expansion as {canonical monomial: coefficient},
        monomials as nested pairs of generator indices (`identities.term_poly`)."""
        return term_poly(tree, self._index)

    def _index(self, label):
        try:
            return self.generators.index(label)
        except ValueError:
            raise ValueError(f"unknown generator {label!r}") from None

    def self_check(self):
        """Regenerate every defining relation and verify that it vanishes
        under the rewrite map, degree by degree (`_check_degree`)."""
        for d in range(2, self.max_degree + 1):
            self._check_degree(d)


def _ast_degree(tree):
    if tree[0] == "var":
        return 1
    if tree[0] == "prod":
        return _ast_degree(tree[1]) + _ast_degree(tree[2])
    if not tree[1]:
        raise ValueError("word has no terms")
    degs = {_ast_degree(t) for _, t in tree[1]}
    if len(degs) != 1:
        raise ValueError("word is not homogeneous")
    return degs.pop()


def _assignments(values, k, d, lower=None, code=None, groups=None, keep=None, table=None):
    """k-tuples of monomial ids of total degree d in lexicographic order,
    the values of degree e drawn in order from `values[e]`, an increasing
    sequence of ids (every monomial of degree e, or a basis).

    With `lower` (a component's `Component.lower`), only the tuples with
    combo[q] >= combo[p] + s for every (p, s) in lower[q] are yielded:
    sorted copies of a polarized variable (s = 0), strictly increasing
    values on a skew pair (s = 1).  This is exact for relation rows.  A
    tuple that breaks a bound becomes lexicographically smaller when the
    pair is swapped, and its row is the same (copies), minus the same (skew
    pair) or zero (equal values on a skew pair).  So each orbit's
    lexicographically first tuple is kept, and every dropped row is +1 or
    -1 times a row yielded before it, or zero.

    With `table`, the component's rank-pattern table
    (`Component.pattern_table`, whose patterns `lower` admits), each value
    takes only the slots the table keeps after the rank pattern of the
    values before it, so every tuple whose row is zero or a multiple of an
    earlier tuple's with the same values is dropped too, and a prefix with
    no kept completion is never formed.

    With `keep`, a set of type codes, `code` (per id, its type code) and
    `groups` (per degree, {type code: the ids of `values` of that type}),
    only the tuples whose types add up to a code in `keep` are yielded: the
    last value is drawn from the values of the types that complete the
    others into `keep`. The tuples of each type keep their order.

    The last position is filled in its parent's loop, from lists
    (`_slot_pieces`), so a prefix costs no generator of its own.
    """
    if k == 0:
        if d == 0:
            yield ()
        return
    # the last position's spans of each (degree, type code before it) are kept
    state = (values, lower or ((),) * k, code, groups, keep, [None] * k, {})
    if k == 1:
        for _slot, piece in _slot_pieces(state, 0, _last_spans(state, d, 0), table, ()):
            yield from ((m,) for m in piece)
    else:
        yield from _fill_assignments(state, 0, d, 0, table, ())


def _fill_assignments(state, q, left, part, node, u):
    """`_assignments` from position q < k - 1 on, with `left` degree still
    to place, `part` the type code of the values before q, `node` the
    pattern table's node for their rank pattern (None: `lower` alone) and
    `u` their distinct values, in order."""
    values, _bounds, code, _groups, keep, combo, _memo = state
    parent = q == len(combo) - 2
    hi = min(left - (len(combo) - 1 - q), len(values) - 1)
    for e in range(1, hi + 1):
        for slot, piece in _slot_pieces(state, q, (values[e],), node, u):
            child = node and node[slot]
            # in a gap (an even slot), m is a new distinct value, at u[j]
            j = None if node is None or slot & 1 else slot >> 1
            for m in piece:
                combo[q] = m
                sub = part if keep is None else part + code[m]
                if not parent:
                    v = u if j is None else u[:j] + (m,) + u[j:]
                    yield from _fill_assignments(state, q + 1, left - e, sub, child, v)
                    continue
                spans = _last_spans(state, left - e, sub)
                if not spans:
                    continue
                v = u if j is None else u[:j] + (m,) + u[j:]
                for _slot, lasts in _slot_pieces(state, -1, spans, child, v):
                    for last in lasts:
                        combo[-1] = last
                        yield tuple(combo)


def _last_spans(state, e, part):
    """The increasing sequences the last value is drawn from, in order:
    the values of degree e, or with `keep` those of each type that
    completes `part` into `keep`; kept per (e, part)."""
    values, _bounds, _code, groups, keep, _combo, memo = state
    spans = memo.get((e, part))
    if spans is None:
        if e >= len(values):
            spans = []
        elif keep is None:
            spans = [values[e]]
        else:
            group = groups[e]
            spans = [group[t - part] for t in keep if t - part in group]
        memo[e, part] = spans
    return spans


def _slot_pieces(state, q, spans, node, u):
    """(slot, values) for the values of the increasing sequences `spans`
    that position q may take, in order.  With a pattern-table `node`, the
    slots are its keys (`identities._pattern_table`) among the distinct
    values `u` before q; without one, every value at least the bounds of
    `lower` makes one piece."""
    if node is None:
        _values, bounds, _code, _groups, _keep, combo, _memo = state
        lo = max([combo[p] + s for p, s in bounds[q]], default=0)
        return [(None, vals[bisect_left(vals, lo):]) for vals in spans]
    out = []
    for vals in spans:
        if not vals:
            continue
        ja, jb = bisect_left(u, vals[0]), bisect_right(u, vals[-1])
        if ja == jb:  # every value falls between u[ja - 1] and u[ja]
            if 2 * ja in node:
                out.append((2 * ja, vals))
            continue
        for slot in node:
            j = slot >> 1
            if j < ja or j > jb:
                continue
            if slot & 1:  # the value u[j] itself
                a = bisect_left(vals, u[j])
                if a < len(vals) and vals[a] == u[j]:
                    out.append((slot, (u[j],)))
            else:  # the values strictly between u[j - 1] and u[j]
                a = bisect_right(vals, u[j - 1]) if j else 0
                b = bisect_left(vals, u[j]) if j < len(u) else len(vals)
                if a < b:
                    out.append((slot, vals[a:b]))
    return out


def _row_count(F, d, keep=None):
    """How many rows `_degree_rows(F, d)` would yield without pruning any
    instance (`_assignments`), of every type or of the types a restriction `keep` keeps, with
    monomials or not: every k-tuple of total degree d for each identity
    with k variables, each R_e row times each monomial of degree d - e, and
    the adjoined words of degree d.  The lower degrees' rows are made, and
    degree d need not be enumerated; every type is counted by degree, with
    no loop per type or row (`_key_sizes`)."""
    deg, size = _key_sizes(F, d, keep)
    if keep is None:
        made = {e: len(F._made[e]) for e in range(1, d)}
    else:
        made = Counter(F._types.code[p] for e in range(1, d) for p in F._made[e])
    tops = [c for c, e in deg.items() if e == d]
    ks = [len(comp.variables) for comp in F.components]
    parts = [(c, deg[c], n) for c, n in size.items() if n]
    count, tuples = 0, {0: 1}  # k-tuples by the sum of their keys
    for k in range(max(ks, default=0) + 1):
        count += ks.count(k) * sum(tuples.get(c, 0) for c in tops)
        grown = {}
        for c, n in tuples.items():
            left = d - deg.get(c, 0)
            for c2, e, n2 in parts:
                if e <= left and c + c2 in deg:
                    grown[c + c2] = grown.get(c + c2, 0) + n * n2
        tuples = grown
    count += sum(n * size.get(c - t, 0) for t, n in made.items() for c in tops)
    # an adjoined word is charged by its letters' type, also when its row is empty
    for e, _text, tree in F.extra:
        if e == d:
            count += keep is None or _term_code(F, _flatten(tree)[0][1]) in tops
    return count


def _key_sizes(F, d, keep=None):
    """({key: its degree}, {key: how many monomials of degree <= d have
    it}), keyed by degree or, with a restriction `keep` ({type code: its
    degree}), by the kept type codes of degree at most d.  Both keys add
    under products; a kept type's factors have kept types, and bounding a
    sum's degree by d < base stops carries.  Degree d's sizes come from the
    products `monomials_of_degree` makes, each pair of distinct lower
    monomials whose degrees add up to d once, so it need not be enumerated;
    degree 1 is enumerated with the quotient."""
    below = range(1, max(d, 2))
    if keep is None:
        deg = {e: e for e in range(1, d + 1)}
        size = {e: len(F.monomials[e]) for e in below}
    else:
        deg = {c: e for c, e in keep.items() if 0 < e <= d}
        size = {c: len(ix) for e in below for c, ix in F._types.groups[e].items() if c in deg}
    lower = dict(size)
    for c in [c for c, e in deg.items() if e == d]:
        for c1, n1 in lower.items():
            c2 = c - c1
            if c1 <= c2 and c2 in lower and deg[c1] + deg[c2] == d:
                size[c] = size.get(c, 0) + (n1 * lower[c2] if c1 < c2 else n1 * (n1 - 1) // 2)
    return deg, size


def _term_code(F, term):
    """The type code of a ("var"/"prod") term of a word."""
    return sum(F._types.base**i for i in _leaves(_leaf_tree(term, F._index)))


def _degree_rows(F, d, keep=None, basis=False):
    """Relation rows of degree d, keyed by monomial id, in a fixed
    deterministic order.

    Yields (source, row) pairs; `source` is (identity, component, assignment),
    (e, index, monomial) for R_e[index] * monomial, or (text,) for an
    adjoined word, and `_describe` renders it. Substitution instances come
    from the compiled canonical polynomial (`Component.substitute`), which
    is exact because the free quotient is anticommutative, one per class of
    tuples whose rows agree up to a scalar that `Component.lower` and the
    rank-pattern table tell apart (`_assignments`). An identity whose polynomial is empty (x*x = 0)
    yields none; `_row_count` still charges its instances.

    With `basis`, the rows are those a build generates (module docstring):
    substitution values of degree e < d are the monomials of degree e
    outside the made blocks' pivots (the basis once the degree is made),
    and so is m in R_e[index] * m when e > d - e.

    With `keep`, a set of type codes, only the rows of those types are
    made: an instance's type (`F._types`) is the sum of its values' types,
    a multiple's the sum of its factors'.  The multiples read the lower
    degrees' made rows, derived in pivot order (`_relation_row`); R_e[index]
    indexes the whole rref of degree e once every block of it is made,
    which a caller that names rows by it does first.
    """
    times = F._times
    values = F.monomials[:d + 1]
    if basis:
        values[1:d] = [_outside_pivots(F, e) for e in range(1, d)]
    code = groups = full = None
    if keep is not None:
        code, full = F._types.code, F._types.groups
        groups = full if not basis else [*(_basis_groups(F, e) for e in range(d)), full[d]]
    for idf, comp in zip(F.identities, F.components):
        k = len(comp.variables)
        if k > d or not comp.poly:
            continue
        table = comp.pattern_table()
        for combo in _assignments(values, k, d, comp.lower, code, groups, keep, table):
            yield (idf, comp, combo), _scale_to_int(comp.substitute(combo, times))
    for e in range(1, d):
        f = d - e
        upper, by_type = (values[f], groups) if e > f else (F.monomials[f], full)
        for idx, p in enumerate(sorted(F._made[e])):
            mons = upper
            if keep is not None:
                mons = [m for c in keep for m in by_type[f].get(c - code[p], ())]
            if not mons:
                continue
            r = _relation_row(F, p)
            # distinct monomials of r give distinct products with m, so the
            # row's entries are r's, signed: R_e's monomials precede degree
            # f's when e < f and follow them when e > f
            for m in mons:
                if e < f:
                    row = {times[c][m]: v for c, v in r.items()}
                elif e > f:
                    tm = times[m]
                    row = {tm[c]: -v for c, v in r.items()}
                else:
                    row = {}
                    for c, v in r.items():
                        if c < m:
                            row[times[c][m]] = v
                        elif c > m:
                            row[times[m][c]] = -v
                yield (e, idx, m), row
    for (deg, text, _tree), poly in zip(F.extra, F._word_rows):
        if deg == d:
            row = {F._id(m): c for m, c in poly.items()}
            if keep is None or row and F._types.code[next(iter(row))] in keep:
                yield (text,), row


def _outside_pivots(F, e):
    """The ids of degree e that no made block's pivot takes, in order: the
    basis, once every block of degree e is made."""
    if F._basis[e] is not None:
        return F._basis[e]
    made = F._made[e]
    return [m for m in F.monomials[e] if m not in made]


def _basis_groups(F, e):
    """`_outside_pivots(F, e)` by type, {type code: ids}; kept on the
    quotient once degree e's basis is closed, since it no longer changes."""
    groups = F._basis_groups.get(e)
    if groups is None:
        groups = _grouped(_outside_pivots(F, e), F._types.code)
        if F._basis[e] is not None:
            F._basis_groups[e] = groups
    return groups


def _grouped(ids, code):
    """{type code: the ids of that code, in order}."""
    groups = {}
    for m in ids:
        groups.setdefault(code[m], []).append(m)
    return groups


def _scaled(image):
    """(D, D times a rewrite `image`), D the lcm of its entries' denominators."""
    den = lcm(*(x.denominator for x in image.values()))
    return den, {m: x.numerator * (den // x.denominator) for m, x in image.items()}


def _relation_row(F, lead):
    """The reduced relation row of pivot `lead`, primitive with a positive
    lead, from its rewrite: a primitive row r with lead entry l rewrites
    `lead` to -r/l off the lead, whose denominators' lcm is exactly l."""
    den, image = _scaled(F._rewrite[lead])
    return {lead: den, **{m: -v for m, v in image.items()}}


def _check_rows(F, d, rows):
    """The failure message naming the first (source, row) pair of degree d
    that does not vanish under the rewrite map, or None.

    The check stays in integers, keyed by monomial id. Each monomial's
    rewrite is read once, as D_c times it, D_c the lcm of its denominators,
    and a row is summed as L times its image, L a multiple of the D_c of
    its monomials, which grows when a monomial needs it: the row vanishes
    under one exactly when it vanishes under the other."""
    rewrite = F._rewrite
    scaled = {}  # monomial -> (D_c, D_c times its rewrite)
    for source, row in rows:
        image = {}
        scale = 1
        # inline, not add_scaled: runs per entry of every checked row
        for c, v in row.items():
            den, r = scaled.get(c) or scaled.setdefault(c, _scaled(rewrite[c]))
            if scale % den:
                grow = den // gcd(scale, den)
                scale *= grow
                for b in image:
                    image[b] *= grow
            f = v * (scale // den)
            for b, bc in r.items():
                nv = image.get(b, 0) + f * bc
                if nv:
                    image[b] = nv
                elif b in image:
                    del image[b]
        if image:
            return f"self-check failed at degree {d}: {_describe(F, source)}"
    return None


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


# --- generator symmetry ---------------------------------------------------------
# A type is coded as the int sum of base**i over a monomial's leaves i, with
# base = max_degree + 1, so that codes add under products.


class _Types:
    """The type codes of a quotient's monomials, added degree by degree:
    `code[m]` is the code of the monomial of id m, and `groups[e]` maps each
    code to the increasing ids of the degree-e monomials of that type.
    Codes are read off the monomials' factors, so only `monomials_of_degree`
    orders them.  A `whole` index codes every monomial by its degree alone,
    which also adds under products, so that each degree is one block."""

    def __init__(self, F, whole=False):
        self.base = F.max_degree + 1
        self.whole = whole
        self.code = []
        self.groups = [{}]

    def add(self, F, d):
        """Index degree d, after every lower degree."""
        mons, code = F.monomials[d], self.code
        if self.whole:
            code.extend([d] * len(mons))
            self.groups.append({d: mons} if mons else {})
            return
        if d == 1:
            code.extend(self.base**i for i in mons)
        else:
            factors = F._factors
            code.extend(code[factors[m][0]] + code[factors[m][1]] for m in mons)
        self.groups.append(_grouped(mons, code))


def _relabel(F, m, perm, memo):
    """(sign, id) of the monomial of id m with each generator i renamed
    perm[i]; `memo` keeps the images of products under perm."""
    f = F._factors[m]
    if isinstance(f, int):
        return 1, perm[f]
    hit = memo.get(m)
    if hit is None:
        sl, left = _relabel(F, f[0], perm, memo)
        sr, right = _relabel(F, f[1], perm, memo)
        sign, mono = _cmul(F._times, left, right)
        hit = memo[m] = sl * sr * sign, mono
    return hit


def _word_key(row):
    """A nonzero integer word row up to a scalar."""
    g = _content(row, min(row, key=sort_key))
    return frozenset((m, c // g) for m, c in row.items())


# permutations of the adjoined words' letters are tried only up to this many
# letters (720 permutations); past it those letters stay fixed
_MAX_WORD_LETTERS = 6


class _Symmetry:
    """A group of generator permutations that maps the relation set to itself.

    It is `perms` times every permutation of the letters `free`: `perms` are
    the permutations of the adjoined words' letters (fixing the rest) that
    map the set of adjoined words to itself up to scalars, and `free` are the
    letters no adjoined word uses. Identity instances are invariant under
    every permutation. A permutation `perm` renames generator i to perm[i].

    The factors move disjoint letters, so a type's least image fills the
    free letters in order of decreasing count and takes the element of
    `perms` that gives the least code. `perms` is a group, so `split` forms
    the renaming back from the representative onto the type directly.
    """

    def __init__(self, perms, free):
        self.perms = perms
        self.free = free

    def split(self, types, d):
        """The types of degree d (a `_Types` index) by orbit: the set of
        representatives (each orbit's least code), and {type:
        (representative, perm)} for every other type, perm mapping the
        representative's monomials onto the type's."""
        base, powers, free = types.base, types.code[:len(self.perms[0])], self.free
        reps, moved = set(), {}
        for code in sorted(types.groups[d]):
            t = [code // p % base for p in powers]
            # back[j]: the letter of t, by decreasing count, that fills the free
            # letter j of the representative (stably: a least t fills j with j)
            back = list(range(len(t)))
            for j, i in zip(free, sorted(free, key=t.__getitem__, reverse=True)):
                back[j] = i
            rep, perm = min(
                (sum(map(mul, map(t.__getitem__, p), powers)), p)
                for p in (tuple(map(back.__getitem__, h)) for h in self.perms)
            )
            if rep == code:
                reps.add(code)
            else:
                moved[code] = rep, perm
        return reps, moved


def _generator_symmetry(F, words):
    """The `_Symmetry` of F's relation set, given the nonzero rows of its
    adjoined words (`FreeQuotient.word_poly` scaled to integers); None when
    it is trivial or the relations make no rows (x*x = 0 alone), so that
    every type is its own representative."""
    if not words and not any(comp.poly for comp in F.components):
        return None
    g = len(F.generators)
    letters = sorted({leaf for row in words for leaf in _leaves(next(iter(row)))})
    free = [i for i in range(g) if i not in letters]
    perms = [tuple(range(g))]
    if len(letters) <= _MAX_WORD_LETTERS:
        keys = {_word_key(row) for row in words}
        # the first permutation of the sorted letters is the identity
        for image in islice(permutations(letters), 1, None):
            perm = list(range(g))
            for i, j in zip(letters, image):
                perm[i] = j
            if all(_word_key(_renamed_row(row, perm)) in keys for row in words):
                perms.append(tuple(perm))
    if len(perms) == 1 and len(free) < 2:
        return None
    return _Symmetry(perms, free)


def _leaves(m):
    if isinstance(m, int):
        return (m,)
    return _leaves(m[0]) + _leaves(m[1])


def _renamed(m, perm):
    if isinstance(m, int):
        return perm[m]
    return _renamed(m[0], perm), _renamed(m[1], perm)


def _renamed_row(row, perm):
    """A word row with each generator i renamed perm[i], canonicalized."""
    return _canonical_poly((c, _renamed(m, perm)) for m, c in row.items())


def build_free_quotient(
    identities,
    generators,
    max_degree,
    extra_relations=(),
    budget=DEFAULT_RELATION_BUDGET,
    restrict_to=None,
) -> FreeQuotient:
    """Construct the truncated free algebra of the given variety, degreewise.

    Every build charges the relation budget for a degree before it
    enumerates the degree's monomials and generates its rows, with their
    unpruned count (`_row_count`), from every monomial.  The rows it
    generates come from the lower quotient bases; every nonzero one, and
    every relabelled row of a moved type, is inserted into elimination and
    checked against the rewrite map when its block is made (module
    docstring).

    With `restrict_to`, a list of words (texts or ASTs), the build is
    word-restricted: it makes only the blocks whose types are at most a
    term of a word, letter by letter, and charges the budget for those
    types alone.  A later read that makes the other blocks of a degree
    charges their rows then.
    """
    idfs = tuple(
        parse_identity(t) if isinstance(t, str) else t for t in identities
    )
    if not 1 <= generators <= 26:
        raise ValueError("generator count must be between 1 and 26")
    F = FreeQuotient(idfs, ascii_lowercase[:generators], max_degree, budget)
    words = [row for row in map(F.adjoin, extra_relations) if row]
    # with one generator every degree from 2 on has no monomials; rows reach
    # them only from a k-variable identity (degree k), R_1 multiples (degree 2)
    # and adjoined words (their degree), so past those the degrees stay empty
    reach = max([2, *(len(c.variables) for c in F.components), *(e for e, _, _ in F.extra)])
    F._sym = _generator_symmetry(F, words)
    if F._sym is None and restrict_to is None:
        F._types = _Types(F, whole=True)  # every type is its own representative
        F._types.add(F, 1)
    if restrict_to is not None:
        terms = (t for word in restrict_to for _c, t in _flatten(_word(F, word)[0]))
        F._keep = _downset({_term_code(F, t) for t in terms}, F._types.base, generators)
    for d in range(1, max_degree + 1):
        if d > reach and not F.monomials[d - 1]:
            F.add_degree(empty=True)
            _open(F, d)
            continue
        if d > 1:
            F._settle(d - 1, F._keep)  # the multiples of degree d read it
        count = _row_count(F, d, F._keep)
        if F._keep is not None:
            F._partial[d] = count
        F._charge(count, d)
        if d > 1:
            F.add_degree()
        reps = _open(F, d)
        F._settle(d, reps if F._keep is None else F._keep.keys() & reps)
    return F


def _open(F, d):
    """Put the blocks of degree d in the table and return the types that
    generate their rows: each orbit's least code, and a kept type whose
    representative a restriction leaves out; every other type relabels."""
    moved = F._sym.split(F._types, d)[1] if F._sym else {}
    keep = F._keep
    for code in F._types.groups[d]:
        how = moved.get(code)
        if how and keep is not None and code in keep and how[0] not in keep:
            how = None
        F._table[d, code] = how
    if not F._types.groups[d]:
        _record(F, d, Echelon())  # a degree without monomials is made at once
    return [code for code in F._types.groups[d] if F._table[d, code] is None]


def _fill(F, d, codes=None):
    """Make the waiting blocks of degree d of the types `codes` (every type
    by default) and of their representatives, unchecked, from one echelon
    of all their rows; return those rows to check, in stream order: every
    nonzero generated row, then the relabelled ones."""
    table, types = F._table, F._types
    if codes is None and d in F._partial:
        # every block of a degree that a restricted build charged in part,
        # every lower degree made: charge the rest of the full count
        F._charge(_row_count(F, d) - F._partial[d], d)
        del F._partial[d]
    codes = [c for c in (types.groups[d] if codes is None else codes) if (d, c) in table]
    moved = {c: table[d, c] for c in codes if table[d, c]}
    reps = {c for c in codes if not table[d, c]}
    reps.update(rep for rep, _perm in moved.values() if (d, rep) in table)
    if not reps and not moved:
        return []
    rows, ech, independent = [], Echelon(), F._independent[d]
    if reps:
        # every type at once is made unfiltered
        keep = None if len(reps) == len(types.groups[d]) else reps
        for source, row in _degree_rows(F, d, keep, basis=True):
            if row:
                rows.append((source, row))
                if ech.insert(row) is not None and F._sym:  # kept to relabel
                    code = types.code[next(iter(row))]
                    independent.setdefault(code, []).append((source, row))
    if moved:
        for source, row in _relabelled(F, d, moved):
            rows.append((source, row))
            ech.insert(row)
    _record(F, d, ech, reps | moved.keys())
    return rows


def _relabelled(F, d, moved):
    """(source, row) for the rows of every type in `moved` ({type:
    (representative, perm)}): the images under perm of the representative's
    independent rows (`F._independent[d]`), `source` naming the row
    relabelled.  `F._memos` keeps per permutation the images of monomials."""
    for rep, perm in moved.values():
        memo = F._memos.setdefault(perm, {})
        for source, row in F._independent[d].get(rep, ()):
            image = {}
            for m, v in row.items():
                sign, m = memo.get(m) or _relabel(F, m, perm, memo)
                image[m] = sign * v
            yield source, image


def _record(F, d, ech, codes=None):
    """Make the blocks of degree d of the types `codes` (every type by
    default) from the echelon of all their rows: write their rewrites, from
    its rref, and pivots, and take them off the table.  The degree's last
    block closes its basis."""
    groups, rewrite, made = F._types.groups[d], F._rewrite, F._made[d]
    reduced, pivots = ech.rref()
    for code in groups if codes is None else codes:
        rewrite.update((m, {m: 1}) for m in groups[code] if m not in ech.rows)
        F._table.pop((d, code), None)
    for lead, row in zip(pivots, reduced):
        rewrite[lead] = {c: -v for c, v in row.items() if c != lead}
    made.update(pivots)
    if not any((d, code) in F._table for code in groups):
        F._basis[d] = tuple(m for m in F.monomials[d] if m not in made)
        F._independent[d] = {}


def _downset(codes, base, g):
    """{type code: its degree} for every code at most one of `codes` letter
    by letter: the types that a word of one of those types reads."""
    return {
        sum(x * base**i for i, x in enumerate(xs)): sum(xs)
        for t in codes
        for xs in product(*(range(t // base**i % base + 1) for i in range(g)))
    }


# --- evaluation ---------------------------------------------------------------


def _eval_ast(F, tree):
    if tree[0] == "var":
        return 1, dict(F._rewritten(F._index(tree[1])))
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
    for mono, coef in F.word_poly(tree).items():
        add_scaled(out, F._rewritten(F._id(mono)), coef)
    return WordValue(d, out)


# --- certificates --------------------------------------------------------------


def relation_combination(F: FreeQuotient, word):
    """Express a vanishing word over the degree's relation rows of its type.

    Returns a list of (coefficient, description, row) with rows keyed by
    nested monomial (`FreeQuotient.nested`); the linear combination
    reproduces the word's expansion (`FreeQuotient.word_poly`).
    """
    tree = parse_word(word) if isinstance(word, str) else word
    value = evaluate_word(F, tree)
    if value.coords:
        raise ValueError("word is nonzero in the quotient")
    d = value.degree
    F._complete(d - 1)  # R_e[index] names a row of the whole rref of degree e
    v = {F._id(m): c for m, c in F.word_poly(tree).items()}
    # only rows of the word's type are made (and kept): a row of another type
    # shares no monomial with the word, so it never meets the pivots that express it
    want = {F._types.code[next(iter(v))]} if v else None
    originals = []
    ech = Echelon()
    for source, row in _degree_rows(F, d, want) if v else ():
        if row:
            ech.insert(row, {len(originals): 1})
            originals.append((source, row))
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
            {F.nested(m): val for m, val in originals[t][1].items()},
        )
        for t in sorted(acc)
    ]


def conjecture_certificate(F: FreeQuotient, word):
    """Certify a word's value in F: (value, routes_agree, combination).

    `value` is the word's value through products (`evaluate_word`),
    `routes_agree` whether full expansion (`expand_evaluate`) gives the same,
    and `combination` the word over F's relation rows
    (`relation_combination`) when the value is zero, else None.
    """
    value = evaluate_word(F, word)
    agree = value == expand_evaluate(F, word)
    return value, agree, relation_combination(F, word) if value.is_zero() else None
