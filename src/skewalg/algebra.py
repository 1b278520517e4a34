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

An algebra keeps its products in one signed table, built with it
(`Algebra.product_index`): index[i][j] = {k: c} is e_i*e_j itself, so
index[j][i] is its negation, and a zero product has no entry. The i < j
entries (`table_pairs`), the structure constants (`c`) and the twin are
read off it, and its keys are the support: the j with e_i*e_j != 0 for each
i, the same on the twin. `add_basis_product`, which adds f * e_i*y to a
sum, is the one product kernel: `mul_sparse` runs it once per term of its
left factor, and the identity searches (`identities`) run it on basis
indices and add every root product of an evaluation straight into its sum.
The Jacobian table (`Algebra.iter_jacobians`, collected by
`Algebra.jacobians`) reads the table and is summed over the nonzero
structure constants only, one block of triples with least index a at a
time (`Algebra.iter_jacobian_blocks`), in lexicographic key order; the Lie
checks and the identity J(x,y,z) = 0 (`identities`) read it and stop at its
first entry. `products_in_lie_center`, which decides J(x,y,z*u) = 0, reads
it block by block and stops at the first block that puts a product outside
the Lie center, so where that identity fails the rest is never formed. `center`
reads the table, and the series and the identity searches use its keys to
skip, in their own order, every pair or tuple whose products are all zero.

Every `Subspace` is an `Echelon`: `_span` and `_closure` fill one through
`Echelon.extend`, the one bounded insert loop, and the subspace keeps the
engine's integer rows and forms its canonical rref only when it is read.
A kernel (`center`, `lie_center`) is the span of `linalg.sparse_kernel`'s
basis. `product_space` is spanned once per algebra and cached; both series
(`_series`) start from it and multiply their terms' integer rows, reading
only their dims. A span or closure reads its vectors only until the rank
reaches its bound (A.dim for a closure), so the dependent rest is never
read.
"""

from __future__ import annotations

from itertools import chain
from math import lcm

from .linalg import Echelon, _sparse, add_scaled, render_terms, sparse_kernel


class Algebra:
    """Structure-constant algebra; products stored sparsely, one signed row
    per ordered pair with a nonzero product."""

    __slots__ = (
        "name", "dim", "basis_names", "denominator",
        "_index", "_jacobians", "_twin", "_product_space",
    )

    def __init__(self, name, basis_names, products):
        self.name = name
        self.basis_names = tuple(basis_names)
        self.dim = len(self.basis_names)
        index = tuple({} for _ in range(self.dim))
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
            row, neg = {}, {}
            for k, v in combo.items():
                if not 0 <= k < self.dim:
                    raise ValueError(f"coefficient index {k} out of range")
                if v:
                    if v.denominator == 1:
                        v = v.numerator
                    else:
                        denominator = lcm(denominator, v.denominator)
                    row[k] = v
                    neg[k] = -v
            if row:
                index[i][j] = row
                index[j][i] = neg
        self._index = index
        self._jacobians = None
        # the lcm of the structure constants' denominators
        self.denominator = denominator
        self._twin = None
        self._product_space = None

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
                {
                    (i, j): {k: v.numerator * (D // v.denominator) for k, v in row.items()}
                    for i, near in enumerate(self._index)
                    for j, row in near.items()
                    if i < j
                },
            )
        return self._twin

    def product_index(self):
        """The product table: index[i][j] = {k: c} is e_i*e_j for every
        ordered pair with a nonzero product, so index[j][i] is its negation
        and the keys of index[i] are the j with e_i*e_j != 0. Shared, not
        copied: read it, never write it."""
        return self._index

    def c(self, i, j, k):
        """Structure constant: coefficient of e_k in e_i * e_j."""
        row = self._index[i].get(j)
        return row.get(k, 0) if row else 0

    def table_pairs(self):
        """Iterate ((i, j), {k: c}) over the pairs i < j with a nonzero
        product, read off the product index."""
        return (
            ((i, j), row) for i, near in enumerate(self._index) for j, row in near.items() if i < j
        )

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
        """Product on sparse {index: coeff} vectors; much faster near the
        basis. Zeros are dropped once, after the last term."""
        out = {}
        index = self.product_index()
        for i, x in xs.items():
            add_basis_product(out, x, index[i], ys)
        return {k: v for k, v in out.items() if v}

    def iter_jacobian_blocks(self):
        """Yield, for a = 0, ..., dim - 1, block a of the Jacobian table: an
        iterator over the nonzero ((a, b, c), {k: coeff}), a < b < c, of
        `jacobians()` with least index a, in key order (empty when there
        are none).

        J(e_a, e_b, e_c) = (e_a e_b) e_c + (e_b e_c) e_a + (e_c e_a) e_b,
        and every term is read off the nonzero structure constants, so a
        zero product costs nothing. Block a takes the terms (e_a e_y) e_z
        for every nonzero e_a e_y, y > a: into J(a, y, z) when z > y and as
        -J(a, z, y) when a < z < y; and the terms (e_b e_c) e_a for every
        e_k in the support of e_a and every nonzero e_b e_c, a < b < c, with
        an e_k term. Every term of J(e_a, e_b, e_c) lands in the
        block of its least index, so a block is complete when it is yielded,
        and no later block is formed before it is asked for.
        """
        n = self.dim
        index = self.product_index()
        # holding[k]: the pairs (b, c), b < c, whose product has an e_k term
        holding = [[] for _ in range(n)]
        for (b, c), row in self.table_pairs():
            for k, v in row.items():
                holding[k].append((b, c, v))
        for a in range(n):
            block = {}
            for y, ay in index[a].items():
                if y < a:
                    continue
                for k, v in ay.items():
                    for z, kz in index[k].items():
                        if z > y:
                            key, f = (a, y, z), v
                        elif a < z < y:
                            key, f = (a, z, y), -v
                        else:
                            continue
                        jac = block.get(key)
                        if jac is None:
                            jac = block[key] = {}
                        for m, w in kz.items():
                            jac[m] = jac.get(m, 0) + f * w
            for k, ak in index[a].items():
                for b, c, v in holding[k]:
                    if b > a:
                        jac = block.get((a, b, c))
                        if jac is None:
                            jac = block[(a, b, c)] = {}
                        # the term v * (e_k e_a) = -v * (e_a e_k)
                        for m, w in ak.items():
                            jac[m] = jac.get(m, 0) - v * w
            yield _nonzero_entries(block)

    def iter_jacobians(self):
        """Iterate the nonzero ((a, b, c), {k: coeff}), a < b < c, of
        `jacobians()` in lexicographic key order, one block of
        `iter_jacobian_blocks()` at a time."""
        return chain.from_iterable(self.iter_jacobian_blocks())

    def jacobians(self):
        """Nonzero J(e_a, e_b, e_c) for a < b < c, as {(a, b, c): {k: coeff}}
        in lexicographic key order: `iter_jacobians()`, collected once and
        shared, not copied.

        J is alternating on an anticommutative algebra, so these values fix
        it on every basis triple.
        """
        if self._jacobians is None:
            self._jacobians = dict(self.iter_jacobians())
        return self._jacobians

    def __repr__(self):
        return f"Algebra({self.name!r}, dim={self.dim})"


def _nonzero_entries(block):
    """The entries of a summed Jacobian block, {key: {k: coeff}}, in key
    order, without zero coefficients or zero values."""
    for key in sorted(block):
        jac = {m: w for m, w in block[key].items() if w}
        if jac:
            yield key, jac


def add_basis_product(out, f, near, ys):
    """out += f * (e_i * ys) for a sparse vector ys, where near = index[i]
    of `Algebra.product_index`: the one product kernel. Entries that cancel
    stay in out as zeros, for the caller to drop once."""
    for j, y in ys.items():
        row = near.get(j)
        if row:
            g = f * y
            for k, c in row.items():
                out[k] = out.get(k, 0) + g * c


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
    """Subspace of an algebra: the row space of an `Echelon` over its
    coordinates, which the subspace takes over. `_span` is the way to build
    one from vectors.

    The canonical reduced echelon form, `rows` (dense, pivot entry 1) and
    `pivots`, is formed the first time one of them is read, `==`, `hash`,
    `coords_of`, `contains` and `basis_elements` included, and then kept.
    Until then the subspace holds the engine's primitive integer rows:
    `dim` counts them and `int_rows` hands them to the products of the
    series, so a space nobody reads never forms its rref.
    """

    __slots__ = ("algebra", "_echelon", "_rows", "_pivots")

    def __init__(self, algebra, ech):
        self.algebra = algebra
        self._echelon = ech
        self._rows = self._pivots = None

    @classmethod
    def from_vectors(cls, algebra, vectors):
        """The span of dense coordinate vectors."""
        return _span(algebra, map(_sparse, vectors))

    def _canonical(self):
        if self._rows is None:
            n = self.algebra.dim
            reduced, pivots = self._echelon.rref()
            self._rows = tuple(tuple(r.get(k, 0) for k in range(n)) for r in reduced)
            self._pivots = tuple(pivots)
        return self._rows

    @property
    def rows(self):
        return self._canonical()

    @property
    def pivots(self):
        self._canonical()
        return self._pivots

    @property
    def dim(self):
        return len(self._echelon.rows)

    def int_rows(self):
        """Sparse integer rows spanning the subspace: the engine's rows."""
        return list(self._echelon.rows.values())

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


def _span(A, vectors, max_rank=None):
    """Subspace spanned by sparse vectors, read lazily until the rank reaches
    max_rank (default A.dim; pass a smaller bound only when it must hold).
    Zero vectors are skipped; the rref waits until the subspace is read."""
    ech = Echelon()
    ech.extend(vectors, A.dim if max_rank is None else max_rank)
    return Subspace(A, ech)


def _closure(A, vectors, expand):
    """Smallest subspace holding the sparse vectors and closed under expand.

    expand(new, old) yields the products that grow the span; `new` are the
    vectors, scaled to integers, that raised the rank in the previous round
    and `old` those before, so every product is formed once. The rank is at
    most A.dim: once it gets there, no further seed vector or product is
    read, so a closure that spans the whole algebra stops at that vector.
    """
    ech = Echelon()
    old, new = [], ech.extend(vectors, A.dim)
    while new:
        new, old = ech.extend(expand(new, old), A.dim), old + new
    return Subspace(A, ech)


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


def _generated(gens, products):
    """The closure of the generators under products(twin), the expand of
    `_closure` on their algebra's integral twin."""
    if not gens:
        raise ValueError("need at least one generator")
    A = gens[0].algebra
    return _closure(A, [_sparse(g.coords) for g in gens], products(A.integral_twin()))


def subalgebra_generated(gens) -> Subspace:
    return _generated(gens, _subalgebra_products)


def ideal_generated(gens) -> Subspace:
    return _generated(gens, _ideal_products)


def product_space(A: Algebra) -> Subspace:
    """A*A, spanned once per algebra and cached."""
    if A._product_space is None:
        A._product_space = _span(A, [row for _, row in A.integral_twin().table_pairs()])
    return A._product_space


def _kernel_space(A, constraints):
    """Subspace of x with sum_j x_j * row[j] = 0 for every sparse row."""
    return _span(A, sparse_kernel(constraints, A.dim))


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


def products_in_lie_center(A: Algebra) -> bool:
    """Whether A*A lies in the Lie center: J(p, e_b, e_c) = 0 for every
    nonzero basis product p and every pair b < c. By the structure theorem
    this decides J(x,y,z*u) = 0 (`identities`).

    J(p, e_b, e_c) = sum_k p_k J(e_k, e_b, e_c), and J(e_k, e_b, e_c) lies
    in block min(k, b) <= b of the twin's table (`iter_jacobian_blocks`),
    so the pairs (b, c) are complete, and are checked, once block b has
    been read. A nonzero value ends the read there: no later block is
    formed."""
    T = A.integral_twin()
    n = T.dim
    # holders[k]: (r, p_k) for the r-th nonzero basis product p with an e_k term
    holders = [[] for _ in range(n)]
    for r, (_, row) in enumerate(T.table_pairs()):
        for k, v in row.items():
            holders[k].append((r, v))
    # terms[b][c]: the (k, s, jac) with J(e_k, e_b, e_c) = s * jac, for the
    # k some product has a term in
    terms = [{} for _ in range(n)]
    for b, block in enumerate(T.iter_jacobian_blocks()):
        for (a, y, z), jac in block:
            # J is alternating: J(e_a, e_y, e_z) = -J(e_y, e_a, e_z) = J(e_z, e_a, e_y)
            for k, p, q, s in ((a, y, z, 1), (y, a, z, -1), (z, a, y, 1)):
                if holders[k]:
                    terms[p].setdefault(q, []).append((k, s, jac))
        for pair_terms in terms[b].values():
            values = {}
            for k, s, jac in pair_terms:
                for r, v in holders[k]:
                    add_scaled(values.setdefault(r, {}), jac, s * v)
            if any(values.values()):
                return False
        terms[b] = None
    return True


def jacobian_ideal(A: Algebra) -> Subspace:
    T = A.integral_twin()
    return _closure(A, T.jacobians().values(), _ideal_products(T))


def _products(A, S, T):
    """Products on A's integral twin spanning S*T (= T*S), from the integer
    rows of each (`Subspace.int_rows`): each pair once when S is T, and only
    the pairs whose supports meet a nonzero basis product (the others
    multiply to zero)."""
    twin = A.integral_twin()
    mul, nbr = twin.mul_sparse, twin.product_index()
    rs = S.int_rows()
    # reach[i]: the basis indices some coordinate of rs[i] multiplies to nonzero
    reach = [frozenset().union(*(nbr[k] for k in r)) for r in rs]
    if S is T:
        return (
            mul(r, s)
            for i, (r, near) in enumerate(zip(rs, reach))
            for s in rs[i + 1 :]
            if not near.isdisjoint(s)
        )
    ts = T.int_rows()
    return (mul(r, t) for r, near in zip(rs, reach) for t in ts if not near.isdisjoint(t))


def _series(A, products):
    """[A, A*A, ...] with each next term spanned by products(series so far).
    Every term lies in the one before, so a term of full rank ends the
    series, and so does the zero term; the second term, A*A, is the
    product space."""
    series = [_span(A, ({i: 1} for i in range(A.dim)))]
    nxt = product_space(A)
    while nxt.dim < series[-1].dim:
        series.append(nxt)
        if nxt.dim == 0:
            break
        nxt = _span(A, products(series), nxt.dim)
    return series


def derived_series(A: Algebra):
    return _series(A, lambda series: _products(A, series[-1], series[-1]))


def lower_central_series(A: Algebra):
    # C_{n+1} = sum of C_i * C_{n+1-i} (1-based), and C_i * C_j = C_j * C_i,
    # so each unordered pair of terms is taken once
    def products(series):
        n = len(series)
        return chain.from_iterable(
            _products(A, series[i - 1], series[n - i])
            for i in range(1, (n + 1) // 2 + 1)
        )

    return _series(A, products)


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
    # a unit row keeps its basis name; any other row is named v{idx}, or
    # v{idx}_1, v{idx}_2, ... when A's basis already has that name
    taken = set(A.basis_names)
    names = []
    for idx, r in enumerate(rows):
        hot = [k for k, v in enumerate(r) if v != 0]
        if len(hot) == 1 and r[hot[0]] == 1:
            names.append(A.basis_names[hot[0]])
        else:
            label, m = f"v{idx}", 0
            while label in taken:
                m += 1
                label = f"v{idx}_{m}"
            names.append(label)
    return Algebra(name or f"{A.name}|sub", names, products)
