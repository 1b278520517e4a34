"""Finite-dimensional anticommutative algebras given by structure constants.

An algebra is specified by the products e_i*e_j for i != j; the diagonal is
forced to zero and e_j*e_i = -e_i*e_j is filled in automatically, so x*x = 0
holds structurally for every element (we are over Q). Integral structure
constants are stored as int and the rest as `Fraction`.

Every algebra A has an integral twin (`Algebra.integral_twin`): D*A, the
same space with the product scaled by D, the lcm of the denominators of A's
structure constants, so that products on int vectors stay int. An integral
algebra is its own twin. Scaling the product by D != 0 changes no subspace
defined by products, so `center`, `product_space`, `lie_center`,
`jacobian_ideal`, the derived and lower central series and the closures
behind `subalgebra_generated` and `ideal_generated` multiply on the twin,
with subspace rows scaled to integers first, and return subspaces of A.
`Algebra.jacobians()`, `mul_coords` and `restrict` stay on A.

`Algebra.support()` maps each basis index i to the j with e_i*e_j != 0;
the twin has the same support. The Jacobian table, the series and the
identity searches (`identities`) use it to skip, in their own order, every
triple, pair or tuple whose products are all zero.
"""

from __future__ import annotations

from itertools import chain
from math import lcm

from .linalg import (
    Echelon,
    _scale_to_int,
    _sparse,
    add_scaled,
    render_terms,
    rref_rows,
    sparse_kernel,
    sparse_rref,
)


class Algebra:
    """Structure-constant algebra; products stored sparsely per (i<j) pair."""

    __slots__ = (
        "name", "dim", "basis_names", "denominator", "_rows", "_jacobians", "_twin", "_support",
    )

    def __init__(self, name, basis_names, products):
        self.name = name
        self.basis_names = tuple(basis_names)
        self.dim = len(self.basis_names)
        rows = {}
        seen = set()
        denominator = 1
        for (i, j), combo in products.items():
            if not (0 <= i < self.dim and 0 <= j < self.dim):
                raise ValueError(f"basis index out of range in pair ({i},{j})")
            if i == j:
                raise ValueError(f"diagonal product e{i}*e{i} must be zero")
            key = (i, j) if i < j else (j, i)
            if key in seen:
                raise ValueError(f"duplicate product pair for basis ({key[0]},{key[1]})")
            seen.add(key)
            sign = 1 if i < j else -1
            row = {}
            for k, v in combo.items():
                if not 0 <= k < self.dim:
                    raise ValueError(f"coefficient index {k} out of range")
                if v:
                    row[k] = sign * (v.numerator if v.denominator == 1 else v)
                    denominator = lcm(denominator, v.denominator)
            if row:
                rows[key] = row
        self._rows = rows
        self._jacobians = None
        # the lcm of the structure constants' denominators
        self.denominator = denominator
        self._twin = None
        self._support = None

    def integral_twin(self):
        """D*A for D = self.denominator: the product scaled by D, every
        structure constant an int. Built once and cached; an integral
        algebra is its own twin."""
        if self.denominator == 1:
            return self
        if self._twin is None:
            D = self.denominator
            self._twin = Algebra(
                self.name,
                self.basis_names,
                {key: {k: v * D for k, v in row.items()} for key, row in self._rows.items()},
            )
        return self._twin

    def support(self):
        """nbr[i] = {j : e_i*e_j != 0} for every basis index i, as a tuple
        of frozensets; built once and cached."""
        if self._support is None:
            nbr = [set() for _ in range(self.dim)]
            for i, j in self._rows:
                nbr[i].add(j)
                nbr[j].add(i)
            self._support = tuple(map(frozenset, nbr))
        return self._support

    def c(self, i, j, k):
        """Structure constant: coefficient of e_k in e_i * e_j."""
        if i == j:
            return 0
        key, sign = ((i, j), 1) if i < j else ((j, i), -1)
        row = self._rows.get(key)
        if not row:
            return 0
        return sign * row.get(k, 0)

    def table_pairs(self):
        """Iterate ((i, j), {k: c}) over the stored i<j pairs with nonzero rows."""
        return self._rows.items()

    def element(self, coords):
        coords = tuple(coords)
        if len(coords) != self.dim:
            raise ValueError("coordinate length mismatch")
        return Element(self, coords)

    def basis_element(self, i):
        return Element(self, tuple(1 if k == i else 0 for k in range(self.dim)))

    def zero(self):
        return Element(self, (0,) * self.dim)

    def mul_coords(self, xc, yc):
        """Product on dense coordinate sequences, through `mul_sparse`."""
        prod = self.mul_sparse(_sparse(xc), _sparse(yc))
        return tuple(prod.get(k, 0) for k in range(self.dim))

    def mul_sparse(self, xs, ys):
        """Product on sparse {index: coeff} vectors; much faster near the basis."""
        out = {}
        rows = self._rows
        for i, xi in xs.items():
            for j, yj in ys.items():
                if i == j:
                    continue
                key, f = ((i, j), xi * yj) if i < j else ((j, i), -(xi * yj))
                row = rows.get(key)
                if row:
                    # inline, not add_scaled: the innermost loop of every product
                    for k, ck in row.items():
                        v = out.get(k, 0) + f * ck
                        if v:
                            out[k] = v
                        elif k in out:
                            del out[k]
        return out

    def jacobians(self):
        """Nonzero J(e_a, e_b, e_c) for a < b < c, as {(a, b, c): {k: coeff}}.

        J is alternating on an anticommutative algebra, so these values fix
        it on every basis triple. Each is (e_a e_b) e_c + (e_b e_c) e_a -
        (e_a e_c) e_b; the table is computed once and shared, not copied.
        When e_a e_b = 0, c runs only over the support of e_a and e_b: on
        any other c all three products are zero. The keys stay in
        lexicographic order.
        """
        if self._jacobians is not None:
            return self._jacobians
        rows = self._rows
        nbr = self.support()
        n = self.dim
        table = {}
        for a in range(n):
            for b in range(a + 1, n):
                ab = rows.get((a, b))
                if ab:
                    cs = range(b + 1, n)
                else:
                    cs = sorted(c for c in nbr[a] | nbr[b] if c > b)
                for c in cs:
                    bc, ac = rows.get((b, c)), rows.get((a, c))
                    jac = {}
                    for prod, unit in ((ab, {c: 1}), (bc, {a: 1}), (ac, {b: -1})):
                        if prod:
                            add_scaled(jac, self.mul_sparse(prod, unit))
                    if jac:
                        table[(a, b, c)] = jac
        self._jacobians = table
        return table

    def __repr__(self):
        return f"Algebra({self.name!r}, dim={self.dim})"


class Element:
    """Algebra element: a coordinate vector tied to its algebra."""

    __slots__ = ("algebra", "coords")

    def __init__(self, algebra, coords):
        self.algebra = algebra
        self.coords = tuple(coords)

    def _check(self, other):
        if self.algebra is not other.algebra:
            raise ValueError("elements belong to different algebras")

    def __add__(self, other):
        self._check(other)
        return Element(self.algebra, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        self._check(other)
        return Element(self.algebra, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return Element(self.algebra, tuple(-a for a in self.coords))

    def __rmul__(self, scalar):
        return Element(self.algebra, tuple(scalar * a for a in self.coords))

    def __mul__(self, other):
        if not isinstance(other, Element):
            return Element(self.algebra, tuple(a * other for a in self.coords))
        self._check(other)
        return Element(self.algebra, self.algebra.mul_coords(self.coords, other.coords))

    def __eq__(self, other):
        return (
            isinstance(other, Element)
            and self.algebra is other.algebra
            and all(a == b for a, b in zip(self.coords, other.coords))
        )

    def __hash__(self):
        return hash(self.coords)

    def is_zero(self):
        return all(v == 0 for v in self.coords)

    def __str__(self):
        return render_coords(self.coords, self.algebra.basis_names)

    __repr__ = __str__


def render_coords(coords, names):
    """Linear combination as text: "a + 2*b - 1/2*d", zero as "0"."""
    return render_terms(zip(names, coords))


def jacobian(x: Element, y: Element, z: Element) -> Element:
    """J(x,y,z) = (xy)z + (yz)x + (zx)y."""
    return (x * y) * z + (y * z) * x + (z * x) * y


class Subspace:
    """Subspace of an algebra, kept in canonical reduced echelon form."""

    __slots__ = ("algebra", "rows", "pivots")

    def __init__(self, algebra, rows, pivots):
        self.algebra = algebra
        self.rows = tuple(tuple(r) for r in rows)
        self.pivots = tuple(pivots)

    @classmethod
    def from_vectors(cls, algebra, vectors):
        rows, pivots = rref_rows(list(vectors), algebra.dim)
        return cls(algebra, rows, pivots)

    @property
    def dim(self):
        return len(self.rows)

    def coords_of(self, x):
        """Coefficients over the echelon basis, or None if x is outside."""
        v = list(x.coords if isinstance(x, Element) else x)
        coeffs = []
        for row, p in zip(self.rows, self.pivots):
            c = v[p]
            coeffs.append(c)
            if c:
                for k, rv in enumerate(row):
                    if rv:
                        v[k] -= c * rv
        if any(val != 0 for val in v):
            return None
        return coeffs

    def contains(self, x):
        return self.coords_of(x) is not None

    def basis_elements(self):
        return [Element(self.algebra, r) for r in self.rows]

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.algebra is other.algebra
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"Subspace(dim={self.dim} of {self.algebra.name})"


def _subspace(A, reduced, pivots):
    """Subspace from a sparse rref (`linalg.sparse_rref`)."""
    n = A.dim
    return Subspace(A, [tuple(r.get(k, 0) for k in range(n)) for r in reduced], pivots)


def _span(A, vectors, max_rank=None):
    """Subspace spanned by sparse vectors, read lazily until the rank reaches
    max_rank (default A.dim; pass a smaller bound only when it must hold)."""
    return _subspace(A, *sparse_rref(vectors, A.dim if max_rank is None else max_rank))


def _whole(A):
    n = A.dim
    return Subspace(A, [tuple(int(k == i) for k in range(n)) for i in range(n)], range(n))


def _closure(A, vectors, expand):
    """Smallest subspace holding the sparse vectors and closed under expand.

    expand(new, old) yields the products that grow the span; `new` are the
    vectors, scaled to integers, that raised the rank in the previous round
    and `old` those before, so every product is formed once.
    """
    ech = Echelon()
    old, new = [], []
    for v in map(_scale_to_int, vectors):
        if v and ech.insert(v) is not None:
            new.append(v)
    while new and len(ech.rows) < A.dim:
        grown = []
        for v in map(_scale_to_int, expand(new, old)):
            if v and ech.insert(v) is not None:
                grown.append(v)
                if len(ech.rows) == A.dim:
                    break
        old += new
        new = grown
    return _subspace(A, *ech.rref())


def _subalgebra_products(A):
    def expand(new, old):
        for i, v in enumerate(new):
            for w in old:
                yield A.mul_sparse(v, w)
            for w in new[i + 1 :]:
                yield A.mul_sparse(v, w)

    return expand


def _ideal_products(A):
    units = [{u: 1} for u in range(A.dim)]

    def expand(new, old):
        for v in new:
            for u in units:
                yield A.mul_sparse(v, u)

    return expand


def subalgebra_generated(gens) -> Subspace:
    if not gens:
        raise ValueError("need at least one generator")
    A = gens[0].algebra
    return _closure(A, [_sparse(g.coords) for g in gens], _subalgebra_products(A.integral_twin()))


def ideal_generated(gens) -> Subspace:
    if not gens:
        raise ValueError("need at least one generator")
    A = gens[0].algebra
    return _closure(A, [_sparse(g.coords) for g in gens], _ideal_products(A.integral_twin()))


def product_space(A: Algebra) -> Subspace:
    return _span(A, [row for _, row in A.integral_twin().table_pairs()])


def _kernel_space(A, constraints):
    """Subspace of x with sum_j x_j * row[j] = 0 for every sparse row."""
    reduced, pivots = sparse_rref(constraints, A.dim)
    return _span(A, sparse_kernel(reduced, pivots, A.dim))


def center(A: Algebra) -> Subspace:
    # one constraint per (i, k): the e_k coordinate of x * e_i
    cons = {}
    for (a, b), row in A.integral_twin().table_pairs():
        for k, v in row.items():
            cons.setdefault((b, k), {})[a] = v
            cons.setdefault((a, k), {})[b] = -v
    return _kernel_space(A, cons.values())


def lie_center(A: Algebra) -> Subspace:
    # one constraint per (i < j, k): the e_k coordinate of J(x, e_i, e_j)
    cons = {}
    for (a, b, c), jac in A.integral_twin().jacobians().items():
        for k, v in jac.items():
            cons.setdefault((b, c, k), {})[a] = v
            cons.setdefault((a, c, k), {})[b] = -v
            cons.setdefault((a, b, k), {})[c] = v
    return _kernel_space(A, cons.values())


def jacobian_ideal(A: Algebra) -> Subspace:
    T = A.integral_twin()
    return _closure(A, T.jacobians().values(), _ideal_products(T))


def _products(A, S, T):
    """Products on A's integral twin spanning S*T (= T*S), from the rows
    scaled to integers: each pair once when S is T, and only the pairs
    whose supports meet a nonzero basis product (the others multiply to
    zero)."""
    twin = A.integral_twin()
    mul, nbr = twin.mul_sparse, twin.support()
    rs = [_scale_to_int(_sparse(r)) for r in S.rows]
    # reach[i]: the basis indices some coordinate of rs[i] multiplies to nonzero
    reach = [frozenset().union(*(nbr[k] for k in r)) for r in rs]
    if S is T:
        return (
            mul(r, s)
            for i, (r, near) in enumerate(zip(rs, reach))
            for s in rs[i + 1 :]
            if not near.isdisjoint(s)
        )
    ts = [_scale_to_int(_sparse(t)) for t in T.rows]
    return (mul(r, t) for r, near in zip(rs, reach) for t in ts if not near.isdisjoint(t))


def derived_series(A: Algebra):
    # every term lies in the one before, so a term of full rank ends the series
    series = [_whole(A)]
    while True:
        cur = series[-1]
        nxt = _span(A, _products(A, cur, cur), cur.dim)
        if nxt.dim == cur.dim:
            return series
        series.append(nxt)
        if nxt.dim == 0:
            return series


def lower_central_series(A: Algebra):
    # C_{n+1} = sum of C_i * C_{n+1-i} (1-based); it lies in C_n, and
    # C_i * C_j = C_j * C_i, so each unordered pair of terms is taken once
    series = [_whole(A)]
    while True:
        n = len(series)
        vecs = chain.from_iterable(
            _products(A, series[i - 1], series[n - i])
            for i in range(1, (n + 1) // 2 + 1)
        )
        nxt = _span(A, vecs, series[-1].dim)
        if nxt.dim == series[-1].dim:
            return series
        series.append(nxt)
        if nxt.dim == 0:
            return series


def restrict(A: Algebra, S: Subspace, name=None) -> Algebra:
    """Re-express a product-closed subspace as a standalone algebra."""
    rows = S.rows
    products = {}
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            prod = A.mul_coords(rows[i], rows[j])
            coeffs = S.coords_of(prod)
            if coeffs is None:
                raise ValueError("subspace is not closed under multiplication")
            combo = {k: v for k, v in enumerate(coeffs) if v}
            if combo:
                products[(i, j)] = combo
    names = []
    for idx, r in enumerate(rows):
        hot = [k for k, v in enumerate(r) if v != 0]
        if len(hot) == 1 and r[hot[0]] == 1:
            names.append(A.basis_names[hot[0]])
        else:
            names.append(f"v{idx}")
    return Algebra(name or f"{A.name}|sub", names, products)
