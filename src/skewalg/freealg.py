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
Identities and words reach the quotient in the one canonical polynomial
form of `identities`: a compiled `Component` per identity, and
`FreeQuotient.word_poly` for a word, which the adjoined rows, the symmetry
test on the words, `expand_evaluate` and `relation_combination` all read.

Substitution instances are generated once per orbit of the identity's
symmetries: copies of a polarized variable take sorted values and a skew
pair of variables strictly increasing ones (`Component.lower`).  Every
other instance is +1 or -1 times the lexicographically first member of its
orbit, which comes earlier in the same stream, or zero, so the pruning
changes neither the row space nor the first occurrence of any row.  The
relation budget still counts every instance (`_row_count`).

Every relation row has one type, its multidegree in the generators, so each
degree's echelon is block-diagonal by type.  A build generates, dedupes and
eliminates rows only for one representative type per orbit of the generator
permutations that map the relation set to itself (`_Symmetry`): every
permutation for identities, and with adjoined words those that map the set
of words to itself up to scalars.  The representative is the orbit's least
type code.  Each other type gets the relabelled images of its
representative's independent generated rows.  The final elimination returns
the unique rref, so the quotient is the same as from every row.
"""

from dataclasses import dataclass
from itertools import islice, permutations
from math import lcm
from operator import mul
from string import ascii_lowercase

from .identities import (  # noqa: F401  (canonicalize, parse_word: re-exported)
    _canonical_poly,
    _compiled,
    canonicalize,
    get_variety,
    parse_identity,
    parse_word,
    sort_key,
    term_poly,
)
from .linalg import Echelon, _content, _row_normalize, _scale_to_int, add_scaled

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

    def word_poly(self, tree):
        """A word AST's full expansion as {canonical monomial: coefficient}
        over the generator indices (`identities.term_poly`)."""
        return term_poly(tree, self._index)

    def _index(self, label):
        try:
            return self.generators.index(label)
        except ValueError:
            raise ValueError(f"unknown generator {label!r}") from None

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
    if not tree[1]:
        raise ValueError("word has no terms")
    degs = {_ast_degree(t) for _, t in tree[1]}
    if len(degs) != 1:
        raise ValueError("word is not homogeneous")
    return degs.pop()


def _assignments(monomials, k, d, lower=None, types=None, keep=None):
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

    With `types` (a `_Types`) and `keep`, a set of type codes, only the
    tuples whose types add up to a code in `keep` are yielded: the last
    value is drawn from the monomials of the types that complete the others
    into `keep`. The tuples of each type keep their order.
    """
    if k == 0:
        if d == 0:
            yield ()
        return
    state = (monomials, lower or ((),) * k, types, keep, [None] * k, [None] * k)
    yield from _fill_assignments(state, 0, d, 0)


def _fill_assignments(state, q, left, part):
    """`_assignments` from position q on, with `left` degree still to place
    and `part` the type code of the values before q."""
    monomials, bounds, types, keep, rank, combo = state
    k = len(rank)
    lo_e, lo_i = 1, 0
    for p, s in bounds[q]:
        e, i = rank[p]
        if e > lo_e or e == lo_e and i + s > lo_i:
            lo_e, lo_i = e, i + s
    last = q == k - 1
    hi = min(left - (k - 1 - q), len(monomials) - 1)
    for e in range(max(left if last else 1, lo_e), hi + 1):
        mons = monomials[e]
        lo = lo_i if e == lo_e else 0
        if last and keep is not None:
            groups = types.groups[e]
            span = [i for t in keep for i in groups.get(t - part, ()) if i >= lo]
        else:
            span = range(lo, len(mons))
        codes = types.codes[e] if keep is not None else None
        for i in span:
            rank[q] = (e, i)
            combo[q] = mons[i]
            if last:
                yield tuple(combo)
            else:
                yield from _fill_assignments(
                    state, q + 1, left - e, part if codes is None else part + codes[i]
                )


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
    top = max(ks, default=0)
    for k in range(top + 1):
        count += tuples[d] * ks.count(k)
        if k < top:
            tuples = [0] + [
                sum(map(mul, tuples[t - 1::-1], sizes[1:t + 1])) for t in range(1, d + 1)
            ]
    count += sum(len(F.relations_rref[e]) * sizes[d - e] for e in range(1, d))
    count += sum(1 for deg, _text, _tree in F.extra if deg == d)
    return count


def _degree_rows(F, d, types=None, keep=None):
    """Relation rows of degree d in a fixed deterministic order.

    Yields (source, row) pairs; `source` is (identity, component, assignment),
    (e, index, monomial) for R_e[index] * monomial, or (text,) for an
    adjoined word, and `_describe` renders it. Substitution instances come
    from the compiled canonical polynomial, which is exact because the free
    quotient is anticommutative, one per orbit of its symmetries
    (`_assignments`). An identity whose polynomial is empty (x*x = 0)
    yields none; `_row_count` still charges its instances.

    With `types` (a `_Types`) and `keep`, a set of type codes, only the rows
    of those types are made: an instance's type is the sum of its values'
    types, a multiple's the sum of its factors'.
    """
    col = F.col[d]
    rank = F.rank
    for idf, comp in zip(F.identities, F.components):
        k = len(comp.variables)
        if k > d or not comp.poly:
            continue
        for combo in _assignments(F.monomials, k, d, comp.lower, types, keep):
            # the compiled straight-line program (`Component.compile`): each
            # proper subproduct once, as (sign, monomial) or None
            vals = [(1, m) for m in combo]
            for l, r, _leaves in comp._nodes:
                a, b = vals[l], vals[r]
                res = a and b and _cmul(rank, a[1], b[1])
                vals.append(res and (a[0] * b[0] * res[0], res[1]))
            row = {}
            # inline, not add_scaled: runs per term of every relation row
            for l, r, coef in comp._roots:
                a = vals[l]
                if r is not None and a:
                    b = vals[r]
                    res = b and _cmul(rank, a[1], b[1])
                    a = res and (a[0] * b[0] * res[0], res[1])
                if not a:
                    continue
                c = col[a[1]]
                nv = row.get(c, 0) + coef * a[0]
                if nv:
                    row[c] = nv
                elif c in row:
                    del row[c]
            yield (idf, comp, combo), _scale_to_int(row)
    for e in range(1, d):
        lower, upper = F.monomials[e], F.monomials[d - e]
        for idx, r in enumerate(F.relations_rref[e]):
            mons = upper
            if keep is not None:
                code = types.codes[e][next(iter(r))]
                groups = types.groups[d - e]
                mons = [upper[i] for t in keep for i in groups.get(t - code, ())]
            for m in mons:
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
            row = _scale_to_int({col[m]: c for m, c in F.word_poly(tree).items()})
            if keep is None or row and types.codes[d][next(iter(row))] in keep:
                yield (text,), row


def _check_rows(F, d, rows):
    """Raise if a (source, row) pair of degree d does not vanish under the
    rewrite map; the message names the first such row's source.

    When the rewrite map has denominators at degree d, the check runs on L
    times it, L their lcm, keyed by column index, so it stays in integers:
    a row vanishes under one exactly when it vanishes under the other."""
    rewrite = [F.rewrite[m] for m in F.monomials[d]]
    scale = lcm(*{v.denominator for r in rewrite for v in r.values()})
    if scale != 1:
        col = F.col[d]
        rewrite = [
            {col[m]: v.numerator * (scale // v.denominator) for m, v in r.items()}
            for r in rewrite
        ]
    for source, row in rows:
        image = {}
        # inline, not add_scaled: runs per entry of every checked row
        for c, v in row.items():
            for b, bc in rewrite[c].items():
                nv = image.get(b, 0) + v * bc
                if nv:
                    image[b] = nv
                elif b in image:
                    del image[b]
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


# --- generator symmetry ---------------------------------------------------------
# A type is coded as the int sum of base**i over a monomial's leaves i, with
# base = max_degree + 1, so that codes add under products.


class _Types:
    """The type codes of a quotient's monomials, added degree by degree:
    `codes[e][i]` is the code of monomials[e][i], and `groups[e]` maps each
    code to the increasing indices of the degree-e monomials of that type.
    Codes are read off the monomials, so only `monomials_of_degree` orders them."""

    def __init__(self, F):
        self.base = F.max_degree + 1
        self.codes = [[]]
        self.groups = [{}]
        self._code = {}  # monomial -> type code, for the lower degrees

    def add(self, F, d):
        """Index degree d, after every lower degree."""
        mons, of = F.monomials[d], self._code
        if d == 1:
            codes = [self.base**i for i in mons]
        else:
            codes = [of[l] + of[r] for l, r in mons]
        of.update(zip(mons, codes))
        groups = {}
        for i, code in enumerate(codes):
            groups.setdefault(code, []).append(i)
        self.codes.append(codes)
        self.groups.append(groups)


def _relabel(m, perm, memo, rank):
    """(sign, canonical monomial) of m with each generator i renamed perm[i]."""
    if isinstance(m, int):
        return 1, perm[m]
    hit = memo.get(m)
    if hit is None:
        sl, left = _relabel(m[0], perm, memo, rank)
        sr, right = _relabel(m[1], perm, memo, rank)
        sign, mono = _cmul(rank, left, right)
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
        base, powers, free = types.base, types.codes[1], self.free
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
    it is trivial or the relations make no rows (x*x = 0 alone), so that no
    type is tracked."""
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
) -> FreeQuotient:
    """Construct the truncated free algebra of the given variety, degreewise.

    Before a degree's monomials are enumerated and its rows generated, the
    relation budget is charged with their unpruned count (`_row_count`).
    Each degree's distinct generated rows and relabelled rows (see the module
    docstring) are checked against its final rewrite map; every other row of
    the degree is a combination of them.  When one fails, the message names
    the first failing row of the whole stream, as `FreeQuotient.self_check`
    does.
    """
    idfs = tuple(
        parse_identity(t) if isinstance(t, str) else t for t in identities
    )
    if not 1 <= generators <= 26:
        raise ValueError("generator count must be between 1 and 26")
    F = FreeQuotient(idfs, ascii_lowercase[:generators], max_degree)
    words = []
    for word in extra_relations:
        tree = parse_word(word) if isinstance(word, str) else word
        deg = _ast_degree(tree)
        if deg > max_degree:
            raise ValueError(
                f"adjoined relation has degree {deg} above the cap {max_degree}"
            )
        row = _scale_to_int(F.word_poly(tree))  # names an unknown generator now
        # a word given as a tree is not parsed, so its type is checked here
        if len({tuple(sorted(_leaves(m))) for m in row}) > 1:
            raise ValueError("word is not homogeneous")
        F.extra.append((deg, word if isinstance(word, str) else "<word>", tree))
        if row:
            words.append(row)
    # with one generator every degree from 2 on has no monomials; rows reach
    # them only from a k-variable identity (degree k), R_1 multiples (degree 2)
    # and adjoined words (their degree), so past those the degrees stay empty
    reach = max([2, *(len(c.variables) for c in F.components), *(e for e, _, _ in F.extra)])
    sym = _generator_symmetry(F, words)
    types = None if sym is None else _Types(F)
    memos = {}  # per permutation, the images of monomials
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
        reps = moved = None
        if sym is not None:
            types.add(F, d)
            reps, moved = sym.split(types, d)
        ech = Echelon()
        kept = {}
        independent = {}
        for source, row in _degree_rows(F, d, types, reps):
            if not row:
                continue
            key = _dedupe_key(row)
            if key not in kept:
                kept[key] = source, row
                if ech.insert(row) is not None and moved:
                    code = types.codes[d][next(iter(row))]
                    independent.setdefault(code, []).append((source, row))
        checked = list(kept.values())
        for source, image in _relabelled(F, d, moved, independent, memos):
            ech.insert(image)
            checked.append((source, image))
        _record_degree(F, d, ech)
        if d > 1 and checked:
            try:
                _check_rows(F, d, checked)
            except ValueError:
                # name the first failing row of the whole stream, as self_check
                _check_rows(F, d, _degree_rows(F, d))
                raise
    return F


def _relabelled(F, d, moved, independent, memos):
    """(source, row) for the rows of every type in `moved` ({type:
    (representative, perm)}): the images under perm of the representative's
    rows in `independent`, `source` naming the row relabelled. `memos` keeps
    per permutation the images of monomials."""
    mons, col, rank = F.monomials[d], F.col[d], F.rank
    for rep, perm in (moved or {}).values():
        memo = memos.setdefault(perm, {})
        for source, row in independent.get(rep, ()):
            image = {}
            for c, v in row.items():
                m = mons[c]
                sign, m = memo.get(m) or _relabel(m, perm, memo, rank)
                image[col[m]] = sign * v
            yield source, image


def _record_degree(F, d, ech):
    """Read degree d's relations rref, basis and rewrites off the echelon of
    its relation rows."""
    reduced, pivots = ech.rref()
    mons = F.monomials[d]
    F.relations_rref.append([ech.rows[p] for p in pivots])
    basis = tuple(m for i, m in enumerate(mons) if i not in ech.rows) if pivots else tuple(mons)
    F.basis.append(basis)
    rewrite = F.rewrite
    rewrite.update((m, {m: 1}) for m in basis)
    for lead, row in zip(pivots, reduced):
        rewrite[mons[lead]] = {mons[c]: -v for c, v in row.items() if c != lead}


# --- evaluation ---------------------------------------------------------------


def _eval_ast(F, tree):
    if tree[0] == "var":
        return 1, dict(F.rewrite[F._index(tree[1])])
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
        add_scaled(out, F.rewrite[mono], coef)
    return WordValue(d, out)


# --- certificates --------------------------------------------------------------


def relation_combination(F: FreeQuotient, word):
    """Express a vanishing word over the degree's relation rows of its type.

    Returns a list of (coefficient, description, row) with rows keyed by
    monomial; the linear combination reproduces the word's expansion.
    """
    tree = parse_word(word) if isinstance(word, str) else word
    value = evaluate_word(F, tree)
    if value.coords:
        raise ValueError("word is nonzero in the quotient")
    d = value.degree
    col = F.col[d]
    v = {col[m]: c for m, c in F.word_poly(tree).items()}
    # only rows of the word's type are made (and kept): a row of another type
    # shares no column with the word, so it never meets the pivots that express it
    types = _Types(F)
    for e in range(1, d + 1):
        types.add(F, e)
    codes = types.codes[d]
    want = codes[next(iter(v))] if v else None
    originals = []
    ech = Echelon()
    for source, row in _degree_rows(F, d, types, {want}) if v else ():
        if row and codes[next(iter(row))] == want:
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
            {F.monomials[d][c]: val for c, val in originals[t][1].items()},
        )
        for t in sorted(acc)
    ]


@dataclass
class ConjectureCertificate:
    """CONJECTURE_WORD's value in `quotient`, with SANITY_WORD's value;
    `word` is CONJECTURE_WORD as parsed once, for other quotients to read."""

    value: WordValue
    sanity: WordValue
    verdict: str
    routes_agree: bool
    zero_combination: list | None
    quotient: FreeQuotient
    word: tuple


def conjecture_certificate(budget=DEFAULT_RELATION_BUDGET) -> ConjectureCertificate:
    """Evaluate the degree-6 test word in the truncated free algebra of v on
    the generators a, b, c.

    The verdict reports what the computation found; neither outcome is
    asserted as ground truth.
    """
    F = build_free_quotient(get_variety("v"), 3, 6, budget=budget)
    word = parse_word(CONJECTURE_WORD)
    via_products = evaluate_word(F, word)
    via_expansion = expand_evaluate(F, word)
    verdict = "zero" if via_products.is_zero() else "nonzero"
    combination = relation_combination(F, word) if verdict == "zero" else None
    return ConjectureCertificate(
        value=via_products,
        sanity=evaluate_word(F, SANITY_WORD),
        verdict=verdict,
        routes_agree=via_products == via_expansion,
        zero_combination=combination,
        quotient=F,
        word=word,
    )
