"""Nonassociative polynomial identities: parsing, polarization, checking.

Grammar for identity text:

    identity   := expr '=' expr
    expr       := ['+'|'-'] term (('+'|'-') term)*
    term       := [rational '*'] factor ('*' factor)*   |   rational
    factor     := variable | 'J(' expr ',' expr ',' expr ')' | '(' expr ')'
    variable   := single lowercase letter
    rational   := digits ['/' digits]

`J(t1,t2,t3)` expands to (t1*t2)*t3 + (t2*t3)*t1 + (t3*t1)*t2 at parse time.
A bare rational term is only allowed when it is 0. Identities must be
homogeneous in every variable, and so must words (`parse_word`: one `expr`,
no equation part).

Every identity and every word becomes one canonical polynomial, {canonical
monomial: coefficient}, through one collector (`_canonical_poly`), which is
exact on anticommutative algebras. `polarize` fully polarizes an identity,
which is equivalent over Q: each flattened term of lhs - rhs, once per
placement of its occurrences on the copies of its variables, goes into the
collector as a tree over variable positions, so no raw polarized term is
kept. `term_poly` does the same for a word over any leaf numbering; `freealg`
reads words through it (`FreeQuotient.word_poly`). The compiled `Component`
is the only form an identity is evaluated in.

No text expands past MAX_EXPANSION terms. The parser counts the terms
`_flatten` will make, bottom-up (a product multiplies its factors' counts,
a sum adds its terms', and J(t1,t2,t3) is three products), and
`parse_identity` and `parse_word` check that count before distributing;
`polarize` checks its placements (the flattened terms times the product of
m! over the variables) before making one. Past the cap they raise
`ExpansionExceeded`, which the CLI reports, with the count and the cap, in
exit status 1, as it does the evaluation budget.

A failing check reports the lexicographically first failing basis tuple.
When every polarized group of copies sits on one basis vector (a collapsed
witness), the assignment names the identity's own variables and the value is
the identity's: the compiled value at that tuple divided by the product of
m_i! over the groups, since polarization sums m! copies of each term and at
such a tuple all of them are equal. Otherwise the assignment names the
copies and the value is the compiled value itself. The search itself runs on
the algebra's integral twin (`Algebra.integral_twin`), in int arithmetic, and
the value found there is scaled back to the algebra. It multiplies basis
indices through the twin's signed product table (`Algebra.product_index`;
its keys, the support, let the search skip zero products), adds each
root product of an evaluation straight into its sum, and forms the
subproducts that do not involve the last variable once per prefix
(`Component.prefix_values`), not once per tuple.

Two identities are decided by a theorem instead, matched by compiled key,
so that any renaming of their variables is decided the same way, and each
returns what the search would. J(x,y,z) = 0 is read off the twin's Jacobian
table (`Algebra.iter_jacobians`), whose keys a < b < c run in lexicographic
order, so its first entry is the lexicographically first failing tuple.
J(x,y,z*u) = 0, which w and (as J(x,y,z*t) = 0) lam share, holds exactly
when the product space lies in the Lie center, which
`algebra.products_in_lie_center` decides block by block off the table; the
search runs only to name the witness where it fails. The budget is checked
before either route.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import count, islice, permutations, product
from math import comb, factorial, prod
from operator import itemgetter

from .algebra import Algebra, Element, add_basis_product, products_in_lie_center
from .linalg import _row_normalize, _scale_to_int, add_scaled, parse_scalar

DEFAULT_EVAL_BUDGET = 10_000_000
# the most terms an identity or a word may expand to, counted before any is
# made: the flattened terms of its text, and for an identity its polarized
# placements. 8! = 40,320 placements, eight copies of one variable, fit;
# nine copies (9! = 362,880) and J nested ten deep (3^10 = 59,049 flattened
# terms) do not.
MAX_EXPANSION = 50_000


class IdentityParseError(ValueError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ExpansionExceeded(RuntimeError):
    def __init__(self, what):
        super().__init__(f"{what}, cap is {MAX_EXPANSION}")


class BudgetExceeded(RuntimeError):
    def __init__(self, required, budget):
        super().__init__(
            f"identity check needs {required} evaluations, budget is {budget}"
        )
        self.required = required
        self.budget = budget


# term nodes: ("var", label) | ("prod", l, r) | ("sum", ((coef, node), ...))


# --- canonical monomials ----------------------------------------------------
# Binary trees over int leaves (generator indices in freealg, variable
# positions here), in the one canonical form both modules share.


def sort_key(m):
    """Total order token: degree first, then (left, right) recursively."""
    if isinstance(m, int):
        return (1, 0, m)
    kl = sort_key(m[0])
    kr = sort_key(m[1])
    return (kl[0] + kr[0], 1, kl, kr)


def canonicalize(tree):
    """(sign, canonical monomial), or None when the tree is identically zero."""
    if isinstance(tree, int):
        return 1, tree
    cl = canonicalize(tree[0])
    if cl is None:
        return None
    cr = canonicalize(tree[1])
    if cr is None:
        return None
    sign = cl[0] * cr[0]
    left, right = cl[1], cr[1]
    if left == right:
        return None
    if sort_key(left) > sort_key(right):
        left, right, sign = right, left, -sign
    return sign, (left, right)


def _jac(t1, t2, t3):
    return (
        "sum",
        (
            (1, ("prod", ("prod", t1, t2), t3)),
            (1, ("prod", ("prod", t2, t3), t1)),
            (1, ("prod", ("prod", t3, t1), t2)),
        ),
    )


# most levels in a term tree: parsing and every walk of it recurse per level
_MAX_HEIGHT = 100


class _Parser:
    def __init__(self, text):
        self.text = text
        self.i = 0
        self.depth = 0  # groups, '(' or 'J(', open at the cursor
        self.height = 0  # levels of the tree parsed last
        self.terms = 0  # terms `_flatten` makes of the tree parsed last
        self.variables = {}  # the variables read so far, in order, as keys

    def fits(self, height):
        """Record the last tree's height; raise if it and the open groups pass the cap."""
        if self.depth + height > _MAX_HEIGHT:
            self.error(f"term nests more than {_MAX_HEIGHT} levels deep")
        self.height = height

    def error(self, message, pos=None):
        raise IdentityParseError(message, self.i if pos is None else pos)

    def ws(self):
        while self.i < len(self.text) and self.text[self.i].isspace():
            self.i += 1

    def peek(self):
        return self.text[self.i] if self.i < len(self.text) else ""

    def expect(self, ch):
        self.ws()
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.i += 1

    def number(self):
        start = self.i
        while self.peek().isdigit():
            self.i += 1
        if self.peek() == "/":
            self.i += 1
            dstart = self.i
            while self.peek().isdigit():
                self.i += 1
            if dstart == self.i:
                self.error("expected digits after '/'")
        try:
            return parse_scalar(self.text[start : self.i])
        except ValueError:
            self.error("zero denominator", start)

    def factor(self):
        self.ws()
        ch = self.peek()
        if ch in ("(", "J"):
            self.i += 1
            if ch == "J":
                self.expect("(")
            self.depth += 1
            self.fits(1)  # a run of '(' ends here, before it recurses deeper
            # J(t1,t2,t3) is a sum of three products of its arguments
            args, height, terms = [], 0, 1 if ch == "(" else 3
            for sep in ")" if ch == "(" else ",,)":
                args.append(self.expr())
                height = max(height, self.height)
                terms *= self.terms
                self.expect(sep)
            self.depth -= 1
            if ch == "(":
                return args[0]
            self.fits(height + 3)
            self.terms = terms
            return _jac(*args)
        if ch.isalpha() and ch.islower():
            self.i += 1
            self.fits(1)
            self.terms = 1
            self.variables[ch] = None
            return ("var", ch)
        self.error("expected a variable, 'J(', or '('")

    def term(self):
        self.ws()
        coef = 1  # a literal coefficient is a Fraction (`parse_scalar`)
        if self.peek().isdigit():
            pos = self.i
            coef = self.number()
            self.ws()
            if self.peek() == "*":
                self.i += 1
            else:
                if coef != 0:
                    self.error("constant terms are not allowed", pos)
                return coef, None
        tree = self.factor()
        terms = self.terms
        self.ws()
        while self.peek() == "*":
            self.i += 1
            left = self.height
            tree = ("prod", tree, self.factor())
            terms *= self.terms
            self.fits(max(left, self.height) + 1)
            self.ws()
        self.terms = terms
        return coef, tree

    def expr(self):
        items, height, terms, first = [], 0, 0, True
        while True:
            self.ws()
            sign = 1
            if self.peek() in ("+", "-"):
                sign = 1 if self.peek() == "+" else -1
                self.i += 1
            elif not first:
                break
            first = False
            coef, tree = self.term()
            if tree is not None:
                items.append((sign * coef, tree))
                height = max(height, self.height)
                terms += self.terms
        self.fits(height + 1)
        self.terms = terms
        return ("sum", tuple(items))

    def identity(self):
        lhs = self.expr()
        terms = self.terms
        self.expect("=")
        rhs = self.expr()
        self.end()
        self.terms += terms
        return lhs, rhs

    def end(self):
        self.ws()
        if self.i != len(self.text):
            self.error("unexpected trailing input")

    def bounded(self, kind):
        """Raise ExpansionExceeded when the text parsed expands to more than
        MAX_EXPANSION terms, before any of them is made."""
        if self.terms > MAX_EXPANSION:
            raise ExpansionExceeded(f"{kind} expands to {self.terms} terms")


def _flatten(tree):
    """Distribute sums: list of (coef, tree-with-only-prod/var-nodes)."""
    kind = tree[0]
    if kind == "var":
        return [(1, tree)]
    if kind == "prod":
        out = []
        for cl, tl in _flatten(tree[1]):
            for cr, tr in _flatten(tree[2]):
                out.append((cl * cr, ("prod", tl, tr)))
        return out
    out = []
    for c, t in tree[1]:
        for c2, t2 in _flatten(t):
            out.append((c * c2, t2))
    return out


def _term_profile(tree, acc):
    if tree[0] == "var":
        acc[tree[1]] = acc.get(tree[1], 0) + 1
    else:
        _term_profile(tree[1], acc)
        _term_profile(tree[2], acc)


@dataclass(frozen=True)
class IdentityDef:
    text: str
    variables: tuple
    lhs: tuple
    rhs: tuple
    profile: dict

    def __repr__(self):
        return f"IdentityDef({self.text!r})"


def _homogeneous_profile(terms, kind):
    """The variable degrees every flattened term shares; raise if two differ."""
    profile = None
    for _, t in terms:
        acc = {}
        _term_profile(t, acc)
        if profile is None:
            profile = acc
        elif acc != profile:
            raise IdentityParseError(
                f"non-homogeneous {kind}: term degrees {acc} vs {profile}", 0
            )
    return {} if profile is None else profile


def parse_identity(text: str) -> IdentityDef:
    """The identity a text states, its variables in the order they are
    first read."""
    p = _Parser(text)
    lhs, rhs = p.identity()
    p.bounded("identity")
    profile = _homogeneous_profile(_flatten(lhs) + _flatten(rhs), "identity")
    return IdentityDef(text, tuple(p.variables), lhs, rhs, profile)


def parse_word(text: str):
    """Parse a nonassociative word: one `expr` of the identity grammar,
    homogeneous in every letter, as a ("sum", ...) term tree."""
    if "=" in text:
        raise ValueError("expected a word, not an identity")
    p = _Parser(text)
    tree = p.expr()
    p.end()
    p.bounded("word")
    _homogeneous_profile(_flatten(tree), "word")
    return tree


class Component:
    """The polarized form of an identity: one multilinear polynomial.

    `poly` maps canonical monomials over variable positions (see
    `canonicalize`) to coefficients, which is exact because every Algebra is
    anticommutative. `compile()` derives from it what checking reads: `key`
    names the polynomial up to the variables' labels; `lower[q]` lists the
    (p, d) with p < q for which only basis tuples with idx[q] >= idx[p] + d
    are enumerated (d = 0 between copies of one polarized variable, d = 1
    for a skew pair); and the straight-line program `evaluate_on_basis` and
    `substitute` run.

    Free builds also read `pattern_table()`, which prunes substitution
    instances by every way the values of a tuple can coincide; it is built
    on first use and kept with the component, never by `compile()` or an
    identity check.
    """

    __slots__ = (
        "variables", "groups", "origin_vars",
        "poly", "key", "lower", "_nodes", "_roots", "_prefix", "_join", "_patterns",
    )

    def __init__(self, variables, groups, origin_vars, poly):
        self.variables = tuple(variables)
        self.groups = tuple(tuple(g) for g in groups)
        self.origin_vars = tuple(origin_vars)
        self.poly = poly
        self._patterns = None  # (pattern_table(),) once built

    def compile(self):
        sizes = tuple(len(g) for g in self.groups)
        ordered = sorted(self.poly.items(), key=lambda mc: sort_key(mc[0]))
        self.key = (sizes, tuple(ordered))
        self.lower = _lower_bounds(sizes, self.poly)
        # straight-line program: proper subproducts get a slot after the k
        # variable slots and a memo keyed by their leaves' indices; each
        # monomial is one root product (l, r, coef, shape) over those slots,
        # or (variable, None, coef, None) in a degree-1 identity. The
        # subproducts that avoid the last variable take the first slots: a
        # search forms them once per prefix (`prefix_values`)
        k = len(self.variables)
        slots, nodes = {}, []
        roots = [
            (m, None, c)
            if isinstance(m, int)
            else (_slot(m[0], k, slots, nodes)[0], _slot(m[1], k, slots, nodes)[0], c)
            for m, c in self.poly.items()
        ]
        order = sorted(range(len(nodes)), key=lambda t: k - 1 in nodes[t][2])
        moved = list(range(k)) + [0] * len(nodes)
        for at, t in enumerate(order, k):
            moved[k + t] = at
        self._nodes = tuple(
            (moved[l], moved[r], (l >= k) + (r >= k), itemgetter(*leaves))
            for l, r, leaves in map(nodes.__getitem__, order)
        )
        self._roots = tuple(
            (l, None, c, None) if r is None else (moved[l], moved[r], c, (l >= k) + (r >= k))
            for l, r, c in roots
        )
        self._prefix = sum(k - 1 not in leaves for _, _, leaves in nodes)
        self._join = _join_rules(self.poly, k - 1)

    def prefix_values(self, A, idx, memo):
        """The values of the slots that do not involve the last variable,
        with variable q set to basis vector idx[q] (idx is a prefix or a
        whole tuple; its last variable is not read): a basis index per
        variable and a sparse vector per subproduct, with None for the last
        variable. A search forms them once per prefix and hands them to
        `evaluate_on_basis` for every last value; `memo` is that of
        `evaluate_on_basis`."""
        vals = [*idx[: len(self.variables) - 1], None]
        _subproducts(A.product_index(), self._nodes[: self._prefix], memo, idx, vals)
        return vals

    def evaluate_on_basis(self, A: Algebra, idx, memo, vals):
        """Sparse value of `poly` with variable q set to basis vector idx[q].

        `memo` holds one dict per subproduct slot, kept across the tuples of
        one search, so a subproduct is multiplied once per leaf assignment.
        `vals` is `prefix_values(A, idx, memo)`, formed once for every tuple
        that shares the prefix; the slots the last variable fills are
        written over. Products are read off the product index
        (`Algebra.product_index`), and each root product goes straight into
        the sum, whose zeros are dropped once at the end.
        """
        index = A.product_index()
        p = self._prefix
        k = len(self.variables)
        vals[k - 1] = idx[-1]
        del vals[k + p :]
        _subproducts(index, self._nodes[p:], memo[p:], idx, vals)
        out = {}
        for a, b, f, shape in self._roots:
            if shape == _VAR_SUB:
                # inline, not _add_product: the commonest root, per evaluation
                b = vals[b]
                if b:
                    add_basis_product(out, f, index[vals[a]], b)
            else:
                _add_product(out, index, f, vals[a], None if b is None else vals[b], shape)
        return {m: c for m, c in out.items() if c}

    def substitute(self, values, times):
        """`poly` with variable q set to the monomial of id values[q], in a
        free anticommutative algebra whose product table `times` gives the
        id times[a][b] of the canonical product of ids a < b: {monomial id:
        coefficient}, each proper subproduct multiplied once."""
        # products inline: runs per product of every relation row
        ids, signs = list(values), [1] * len(values)  # a zero product's id is None
        for l, r, _shape, _leaves in self._nodes:
            a, b = ids[l], ids[r]
            if a is None or b is None or a == b:
                ids.append(None)
                signs.append(0)
            elif a < b:
                ids.append(times[a][b])
                signs.append(signs[l] * signs[r])
            else:
                ids.append(times[b][a])
                signs.append(-signs[l] * signs[r])
        row = {}
        # inline, not add_scaled: runs per term of every relation row
        for l, r, coef, _shape in self._roots:
            c = ids[l]
            if c is None:
                continue
            f = coef * signs[l]
            if r is not None:
                b = ids[r]
                if b is None or b == c:
                    continue
                f *= signs[r]
                if c < b:
                    c = times[c][b]
                else:
                    c, f = times[b][c], -f
            nv = row.get(c, 0) + f
            if nv:
                row[c] = nv
            elif c in row:
                del row[c]
        return row

    def pattern_table(self):
        """The rank-pattern table of free builds (`_pattern_table`), built
        on first use; None past `_MAX_PATTERN_VARIABLES` variables."""
        if self._patterns is None:
            k = len(self.variables)
            self._patterns = (_pattern_table(self) if k <= _MAX_PATTERN_VARIABLES else None,)
        return self._patterns[0]


# rank-pattern tables are built only up to this many polarized variables
# (4,683 patterns); past it an identity's instances keep `lower` pruning alone
_MAX_PATTERN_VARIABLES = 6


def _pattern_table(comp):
    """The rank patterns of a compiled component's instances that free
    builds generate, as a trie of slots.

    The rank pattern of a k-tuple lists each value's rank among the
    tuple's distinct values: (a, b, a, c) has (0, 1, 0, 2).  A pattern
    stands for `poly` specialized with variable q set to the symbol
    pattern[q]; the instance at any values with that pattern is the
    specialization at their distinct values u_0 < u_1 < ....  Of the
    patterns `lower` admits, in lexicographic order, one is kept when its
    specialization is nonzero and no rational multiple of an earlier kept
    one's.  A dropped pattern's tuple gives zero or a multiple of the row
    of the tuple with the same values in a kept pattern, which is
    lexicographically smaller, of the same type and drawn from the same
    value sets, so it comes earlier in every stream that yields both.

    Position q's value lies in slot 2j when it falls between u_{j-1} and
    u_j, the distinct values before q in order (j = len(u): above them
    all), and in slot 2j + 1 when it equals u_j.  The trie maps the slot of
    position 0 to a node for position 1, and so on; the last position's
    slots map to None.  Every node lists its slots in increasing order and
    has a kept pattern below it.
    """
    k = len(comp.variables)
    # every canonical product of the symbols gets the next id, past the symbols'
    times = defaultdict(partial(defaultdict, count(k).__next__))
    seen, paths = set(), []
    for pattern in _basis_tuples(k, comp.lower):
        if len(set(pattern)) <= max(pattern):
            continue  # not a rank pattern: a rank below its greatest is missing
        row = comp.substitute(pattern, times)
        if not row:
            continue
        key = frozenset(_row_normalize(_scale_to_int(row)).items())
        if key not in seen:
            seen.add(key)
            paths.append(_slot_path(pattern))
    trie = {}
    for path in sorted(paths):
        node = trie
        for slot in path[:-1]:
            node = node.setdefault(slot, {})
        node[path[-1]] = None
    return trie


def _slot_path(pattern):
    """The slot of each position of a rank pattern (`_pattern_table`)."""
    path, u = [], []
    for x in pattern:
        j = bisect_left(u, x)
        if j < len(u) and u[j] == x:
            path.append(2 * j + 1)
        else:
            path.append(2 * j)
            u.insert(j, x)
    return tuple(path)


def _slot(m, k, slots, nodes):
    """(slot, leaves) of the subproduct m in Component's straight-line
    program, appending the nodes (l, r, leaves) it needs."""
    if isinstance(m, int):
        return m, (m,)
    hit = slots.get(m)
    if hit is None:
        (l, ll), (r, lr) = _slot(m[0], k, slots, nodes), _slot(m[1], k, slots, nodes)
        hit = slots[m] = (k + len(nodes), ll + lr)
        nodes.append((l, r, hit[1]))
    return hit


def _subproducts(index, nodes, memo, idx, vals):
    """Append to vals the value of each node of Component's straight-line
    program at the basis tuple idx, from its memo or, once per leaf
    assignment, as a product of earlier slots."""
    for (a, b, shape, leaves), cache in zip(nodes, memo):
        key = leaves(idx)
        v = cache.get(key)
        if v is None:
            v = cache[key] = _product(index, vals[a], vals[b], shape)
        vals.append(v)


# the shape of a product a*b in Component's straight-line program, its count
# of subproduct factors: a and b variables (basis indices), a a variable and
# b a subproduct (a sparse vector), or both subproducts. A canonical monomial
# puts the factor of lower degree on the left (`sort_key`), so no subproduct
# is multiplied by a variable on its right. A lone variable has shape None.
_VAR_VAR, _VAR_SUB, _SUB_SUB = range(3)


def _add_product(out, index, f, a, b, shape):
    """out += f * a*b for the values a, b of two slots whose product has
    `shape` (f * e_a for a lone variable), read off the product index.
    Entries that cancel stay in out as zeros."""
    if shape == _VAR_SUB:
        if b:
            add_basis_product(out, f, index[a], b)
    elif shape == _SUB_SUB:
        if b:
            for i, x in a.items():
                add_basis_product(out, f * x, index[i], b)
    elif shape == _VAR_VAR:
        row = index[a].get(b)
        if row:
            add_scaled(out, row, f)
    else:
        out[a] = out.get(a, 0) + f


def _product(index, a, b, shape):
    """a*b for the values a, b of two slots, with no zero entry; for two
    variables, the product index's own row, to be read only."""
    if shape == _VAR_VAR:
        return index[a].get(b, {})
    out = {}
    _add_product(out, index, 1, a, b, shape)
    return {m: c for m, c in out.items() if c}


def _join_rules(poly, last):
    """Component._join: what the value of the variable `last` must meet for
    some monomial of poly to be nonzero; None when any value can.

    Otherwise (pairs, rules). `pairs` lists the two-leaf subproducts (p, q)
    that avoid `last`. A rule (need, partner) stands for the monomials whose
    such pairs are those at the indices `need` and in which `last` is
    multiplied by the leaf `partner` (None: by a larger subproduct). Such a
    monomial can be nonzero only when its pairs are nonzero and, if it has a
    partner, e_last lies in the support of e_partner.
    """
    pairs, rules = {}, {}
    for m in poly:
        found, partner = [], None
        stack = [m]
        while stack:
            t = stack.pop()
            if isinstance(t, int):
                continue
            l, r = t
            if isinstance(l, int) and isinstance(r, int):
                if last in t:
                    partner = r if l == last else l
                else:
                    found.append(pairs.setdefault(t, len(pairs)))
            else:
                stack += t
        rules[(tuple(sorted(set(found))), partner)] = None
    if ((), None) in rules:
        return None
    # the rules with no partner first: each one that holds ends the search
    return tuple(pairs), tuple(sorted(rules, key=lambda rule: rule[1] is not None))


def _lower_bounds(sizes, poly):
    """Component.lower: sorted copies in each polarized group, and strictly
    increasing indices for every pair of single-copy variables whose swap
    negates the polynomial."""
    lower = [[] for _ in range(sum(sizes))]
    single = []
    start = 0
    for size in sizes:
        if size == 1:
            single.append(start)
        for q in range(start + 1, start + size):
            lower[q].append((q - 1, 0))
        start += size
    negated = {m: -c for m, c in poly.items()}
    for i, p in enumerate(single):
        for q in single[i + 1 :]:
            swapped = _canonical_poly((c, _swap_leaves(m, p, q)) for m, c in poly.items())
            if swapped == negated:
                lower[q].append((p, 1))
    return tuple(tuple(c) for c in lower)


def _swap_leaves(m, p, q):
    if isinstance(m, int):
        return q if m == p else p if m == q else m
    return (_swap_leaves(m[0], p, q), _swap_leaves(m[1], p, q))


def _canonical_poly(pairs):
    """Collect (coef, tree) pairs as {canonical monomial: coefficient}."""
    poly = {}
    for coef, tree in pairs:
        res = canonicalize(tree)
        if res is None:
            continue
        sign, mono = res
        add_scaled(poly, {mono: coef}, sign)
    return {m: c.numerator if c.denominator == 1 else c for m, c in poly.items()}


def _leaf_tree(tree, leaf):
    """A ("var"/"prod") term as a binary tree over the ints leaf(label),
    read at the leaves from left to right."""
    if tree[0] == "var":
        return leaf(tree[1])
    return (_leaf_tree(tree[1], leaf), _leaf_tree(tree[2], leaf))


def term_poly(tree, leaf):
    """A term tree distributed and collected as {canonical monomial:
    coefficient}, each variable v read as the int leaf(v)."""
    return _canonical_poly((c, _leaf_tree(t, leaf)) for c, t in _flatten(tree))


def polarize(idf: IdentityDef) -> Component:
    """The fully polarized form of idf, one multilinear Component (uncompiled).

    A variable of degree m > 1 becomes m copies. Each flattened term of
    lhs - rhs, once for each way of placing its occurrences on the copies of
    every variable (the per-variable orders taken as `product` over their
    `permutations`), goes as a tree over variable positions straight into
    `_canonical_poly`, so only the collected polynomial is kept. Those
    placements, the flattened terms times the product of m! over the
    variables, are counted first and charged against MAX_EXPANSION.
    """
    groups = [
        (v,) if m <= 1 else tuple(f"{v}{i}" for i in range(1, m + 1))
        for v, m in ((v, idf.profile.get(v, 0)) for v in idf.variables)
    ]
    terms = _flatten(idf.lhs) + [(-c, t) for c, t in _flatten(idf.rhs)]
    placements = len(terms) * prod(factorial(len(g)) for g in groups)
    if placements > MAX_EXPANSION:
        raise ExpansionExceeded(f"polarized identity expands to {placements} terms")
    orders, start = [], 0
    for g in groups:
        orders.append(list(permutations(range(start, start + len(g)))))
        start += len(g)
    variables = [c for g in groups for c in g]

    def placed():
        for coef, tree in terms:
            for order in product(*orders):
                at = dict(zip(idf.variables, map(iter, order)))
                yield coef, _leaf_tree(tree, lambda v: next(at[v]))

    return Component(variables, groups, idf.variables, _canonical_poly(placed()))


@dataclass(frozen=True)
class Witness:
    assignment: tuple
    value: Element
    collapsed: bool

    def describe(self):
        pairs = ", ".join(f"{n} = {e}" for n, e in self.assignment)
        return f"{pairs} gives {self.value}"


@dataclass(frozen=True)
class CheckResult:
    holds: bool
    identity: IdentityDef
    witness: Witness | None


def _sorted_tuples(n, sizes):
    """The product over the group sizes m of the sorted m-tuples over n
    basis indices, C(n + m - 1, m)."""
    total = 1
    for m in sizes:
        total *= comb(n + m - 1, m)
    return total


def _count_evaluations(A, comp):
    """The evaluations the search of a compiled identity on A may make."""
    return _sorted_tuples(A.dim, map(len, comp.groups))


_COMPILED = {}


def _compiled(idf):
    """polarize(idf), compiled, once per identity text."""
    comp = _COMPILED.get(idf.text)
    if comp is None:
        comp = _COMPILED[idf.text] = polarize(idf)
        comp.compile()
    return comp


def _basis_tuples(n, lower):
    """Index tuples over range(n) in lexicographic order, obeying `lower`."""
    k = len(lower)
    if k == 0:
        yield ()
        return
    idx = [0] * k
    q = 0
    while True:
        if idx[q] >= n:
            # position q is spent: move the one before it on
            if q == 0:
                return
            q -= 1
            idx[q] += 1
        elif q == k - 1:
            yield tuple(idx)
            idx[q] += 1
        else:
            q += 1
            idx[q] = max((idx[p] + d for p, d in lower[q]), default=0)


def _joined_prefixes(nbr, n, comp):
    """(prefix, lasts) for the tuples of `_basis_tuples(n, comp.lower)` in
    the same order, each prefix + (i,) for i in lasts, less those on which
    every monomial of `comp.poly` has a zero two-leaf subproduct, read off
    the support map nbr, the keys of `Algebra.product_index()`. A prefix
    with no last value is not yielded.

    The prefixes (all variables but the last) run as in `_basis_tuples`;
    the last variable runs over the union, for the monomials whose two-leaf
    subproducts that avoid it are nonzero, of the support of its leaf
    partner (`_join_rules`), or over every index when such a monomial gives
    it no partner.
    """
    lower = comp.lower
    bounds = lower[-1]
    join = comp._join
    for prefix in _basis_tuples(n, lower[:-1]):
        lo = max((prefix[p] + d for p, d in bounds), default=0)
        if join is None:
            lasts = range(lo, n)
        else:
            pairs, rules = join
            live = [prefix[q] in nbr[prefix[p]] for p, q in pairs]
            reach = set()
            for need, partner in rules:
                if all(live[i] for i in need):
                    if partner is None:
                        reach = None
                        break
                    reach.update(nbr[prefix[partner]])
            lasts = range(lo, n) if reach is None else sorted(i for i in reach if i >= lo)
        if lasts:
            yield prefix, lasts


def _search(T, comp, prefixes=None):
    """The tuple search: (per-group index picks, sparse value) of the first
    failing tuple on the integral twin T, or None, evaluating in order every
    tuple of `prefixes` (default: all that `_joined_prefixes` yields)."""
    if prefixes is None:
        prefixes = _joined_prefixes(T.product_index(), T.dim, comp)
    memo = [{} for _ in comp._nodes]
    for prefix, lasts in prefixes:
        vals = comp.prefix_values(T, prefix, memo)
        for i in lasts:
            idx = prefix + (i,)
            val = comp.evaluate_on_basis(T, idx, memo, vals)
            if val:
                combo, start = [], 0
                for g in comp.groups:
                    combo.append(idx[start : start + len(g)])
                    start += len(g)
                return tuple(combo), val
    return None


def _jacobi_failure(T, comp):
    """J(x,y,z) = 0 on the twin T, read off the first entry of its Jacobian
    table, whose keys a < b < c run in lexicographic order: the
    lexicographically first failing triple of the search."""
    first = next(T.iter_jacobians(), None)
    if first is None:
        return None
    (a, b, c), val = first
    return ((a,), (b,), (c,)), val


def _jacobi_of_products_failure(T, comp):
    """J(x,y,z*u) = 0 on the twin T. It holds exactly when the product
    space lies in the Lie center (`products_in_lie_center`), so the search
    runs only to name the witness where it fails. The search's first prefix
    runs before the theorem, since where the identity fails it often holds
    the witness already; the rest runs only if the theorem says it fails."""
    prefixes = _joined_prefixes(T.product_index(), T.dim, comp)
    found = _search(T, comp, islice(prefixes, 1))
    if found is None and not products_in_lie_center(T):
        found = _search(T, comp, prefixes)
    return found


_DECIDERS = {}


def _deciders():
    """{compiled key: decider} of the identities decided by a theorem, not
    by the search, compiled on first use. Keyed by compiled key, so any
    renaming of one's variables, J(x,y,z*t) = 0 of lam included, is decided
    the same way."""
    if not _DECIDERS:
        for text, decide in (
            ("J(x,y,z) = 0", _jacobi_failure),
            ("J(x,y,z*u) = 0", _jacobi_of_products_failure),
        ):
            _DECIDERS[_compiled(parse_identity(text)).key] = decide
    return _DECIDERS


def _first_failure(A, comp):
    """(per-group index picks, sparse value) of the first failing tuple, or None.

    The decision runs on A's integral twin D*A (`Algebra.integral_twin`): a
    multilinear form in k variables takes D^(k-1) times its value on A
    there, so it fails on the same tuples. The value returned is the twin's;
    `_build_witness` divides it back. An identity of `_deciders()` is
    decided by its theorem, which returns what the search would, and any
    other by `_search`, which evaluates only the tuples `_joined_prefixes`
    yields: every other one gives zero, so the first failing tuple is the
    same as over all of `_basis_tuples`.
    """
    if not comp.poly:
        return None
    return _deciders().get(comp.key, _search)(A.integral_twin(), comp)


def check_identity(
    A: Algebra, idf: IdentityDef, budget=DEFAULT_EVAL_BUDGET, shared=None
) -> CheckResult:
    """Decide idf on A by evaluating its canonical polarized form on basis
    tuples, or by its theorem when `_first_failure` has one for it.

    Copies of a polarized variable range over sorted index tuples (the form
    is symmetric in them) and a skew pair of variables over strictly
    increasing ones (swapping them negates the form; equal indices give 0).
    Any failing tuple that breaks these orders maps to a lexicographically
    smaller failing one, so the reported witness is the lexicographically
    first failing assignment. The budget bounds the count of sorted tuples
    before the skew pruning (`_count_evaluations`); it is checked before
    any route runs, the theorems included, so the inputs that abort do not
    depend on the route.

    `shared` maps canonical keys to search results on this algebra; classify
    passes one dict per call, so a polynomial several identities share is
    evaluated once.
    """
    comp = _within_budget(A, idf, budget)
    shared = {} if shared is None else shared
    if comp.key not in shared:
        shared[comp.key] = _first_failure(A, comp)
    found = shared[comp.key]
    if found is None:
        return CheckResult(True, idf, None)
    return CheckResult(False, idf, _build_witness(A, comp, *found))


def _within_budget(A, idf, budget):
    """The compiled idf, once its search on A is known to fit the budget.
    The count is read off idf's profile (a group of max(1, m) copies per
    variable of degree m, as `polarize` makes them), so an identity over
    the budget is never polarized."""
    sizes = (max(1, idf.profile.get(v, 0)) for v in idf.variables)
    required = _sorted_tuples(A.dim, sizes)
    if required > budget:
        raise BudgetExceeded(required, budget)
    return _compiled(idf)


def _build_witness(A, comp, combo, sparse_value):
    """The witness for a failing tuple from the value `_first_failure` found
    on A's integral twin; see the module docstring."""
    divisor = A.denominator ** (len(comp.variables) - 1)
    collapsed = all(len(set(picks)) == 1 for picks in combo)
    if collapsed:
        assignment = tuple(
            (v, A.basis_element(picks[0]))
            for v, picks in zip(comp.origin_vars, combo)
        )
        divisor *= prod(factorial(len(g)) for g in comp.groups)
    else:
        assignment = tuple(
            (label, A.basis_element(i))
            for g, picks in zip(comp.groups, combo)
            for label, i in zip(g, picks)
        )
    if divisor != 1:
        sparse_value = {
            k: x // divisor if x % divisor == 0 else Fraction(x, divisor)
            for k, x in sparse_value.items()
        }
    value = A.element(sparse_value.get(k, 0) for k in range(A.dim))
    return Witness(assignment, value, collapsed)


_VARIETY_TEXTS = {
    "lie": ("x*x = 0", "J(x,y,z) = 0"),
    "malcev": ("x*x = 0", "J(x,y,x*z) = J(x,y,z)*x"),
    "binary-lie": ("x*x = 0", "J(x,y,x*y) = 0"),
    "w": ("x*x = 0", "J(x,y,z*u) = 0"),
    "v": ("x*x = 0", "J(x,y,x*z) = 0"),
    "lam": ("x*x = 0", "J(x,y,z*t) = 0", "J(x,y,z)*t = 0"),
    "alam": ("x*x = 0", "J(x,y,x*z) = 0", "J(x,y,z)*x = 0"),
}

_BUILTINS = None


def builtin_varieties():
    """The named identity systems, in fixed report order."""
    global _BUILTINS
    if _BUILTINS is None:
        _BUILTINS = {
            name: tuple(parse_identity(t) for t in texts)
            for name, texts in _VARIETY_TEXTS.items()
        }
    return _BUILTINS


def get_variety(name):
    vs = builtin_varieties()
    if name not in vs:
        raise ValueError(f"unknown variety {name!r}; available: {', '.join(vs)}")
    return vs[name]


@dataclass(frozen=True)
class VarietyVerdict:
    variety: str
    member: bool
    failed_identity: str | None
    witness: Witness | None


@dataclass(frozen=True)
class Classification:
    algebra_name: str
    verdicts: tuple


def classify(A: Algebra, budget=DEFAULT_EVAL_BUDGET) -> Classification:
    """Membership of A in every builtin variety, with the first failing
    identity of each. Every builtin variety contains the Lie algebras and
    `lie` comes first, so once A is Lie each later identity holds without a
    search; it still passes the budget guard, so aborts do not move."""
    verdicts = []
    shared = {}
    is_lie = False
    for name, idfs in builtin_varieties().items():
        entry = VarietyVerdict(name, True, None, None)
        for idf in idfs:
            if is_lie:
                _within_budget(A, idf, budget)
                continue
            res = check_identity(A, idf, budget, shared)
            if not res.holds:
                entry = VarietyVerdict(name, False, idf.text, res.witness)
                break
        verdicts.append(entry)
        if name == "lie":
            is_lie = entry.member
    return Classification(A.name, tuple(verdicts))
