"""Two-step extensions of Lie algebras and their recovery.

Members of the variety cut out by x*x = 0 and J(x,y,z*u) = 0 split, over a
basis adapted to the Lie center L, into a complement P acting on L by
right-multiplication derivations.  The multiplication is recorded as
ConstructionData: the derivations psi(p), central values lambda(p_i, p_j),
and a complement L0 of the center of L used to pin down the inner part of
the P-products.  build_from_construction and decompose are mutually inverse
up to the basis adaptation.

Derivations, their product rule and inner parts are solved on sparse rows
in `int` arithmetic over the base algebra's integral twin (see
`Algebra.integral_twin`), with one echelon engine, `linalg.Echelon`.
"""

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from math import lcm

from .algebra import Algebra, center, lie_center, restrict
from .identities import check_identity, get_variety
from .linalg import Echelon, _sparse, add_scaled, sparse_kernel, sparse_rref


def _unit(k, n):
    """The k-th unit vector of length n (int entries)."""
    return [int(m == k) for m in range(n)]


def _complement(Z, n):
    """Unit vectors off the pivots of the subspace Z: a complement of Z in k^n."""
    pivots = set(Z.pivots)
    return tuple(tuple(_unit(c, n)) for c in range(n) if c not in pivots)


def _flat(rows, n):
    """Sparse rows of an n x n matrix as one sparse vector, entry (r, c) at
    index r*n + c."""
    return {r * n + c: v for r, row in enumerate(rows) for c, v in row.items()}


def _matrix(v, n):
    """The n x n matrix (tuple of rows) of a flat sparse vector."""
    return tuple(tuple(v.get(r * n + c, 0) for c in range(n)) for r in range(n))


def _commutator(Mi, Mj):
    """Sparse rows of psi_i . psi_j - psi_j . psi_i, from the sparse rows of
    psi_i and psi_j; under the row convention that is Mj Mi - Mi Mj."""
    out = []
    for ri, rj in zip(Mi, Mj):
        row = {}
        for m, v in rj.items():
            add_scaled(row, Mi[m], v)
        for m, v in ri.items():
            add_scaled(row, Mj[m], -v)
        out.append(row)
    return out


def _ad_rows(A, x):
    """Left multiplication by the sparse vector x, one sparse row per basis
    vector."""
    return [A.mul_sparse(x, {k: 1}) for k in range(A.dim)]


def _inner_parts(L, L0, psi):
    """{(i, j): x} for the pairs i < j in order, with x in span(L0) and
    ad(x) = [psi_i, psi_j], up to the first pair without one, which maps to
    None. When L0 complements the center, ad(L0) is a basis of Inn(L) and x
    is unique.

    ad(L0) is reduced once, on the integral twin: the row inserted for L0[t]
    is ad(s*L0[t]) there, s clearing L0[t]'s denominators, so it is D*s times
    ad(L0[t]) on L and carries the tag {t: D*s}; each commutator is then read
    off as a combination of the ad(L0[t])."""
    n = L.dim
    T = L.integral_twin()
    ech = Echelon()
    for t, v in enumerate(L0):
        s = lcm(*(x.denominator for x in v))
        ad = _ad_rows(T, {k: int(x * s) for k, x in enumerate(v) if x})
        ech.insert(_flat(ad, n), {t: L.denominator * s})
    rows = [[_sparse(r) for r in M] for M in psi]
    parts = {}
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            coeffs = ech.express(_flat(_commutator(rows[i], rows[j]), n))
            if coeffs is None:
                parts[(i, j)] = None
                return parts
            x = {}
            for t, c in coeffs.items():
                add_scaled(x, _sparse(L0[t]), c)
            parts[(i, j)] = [x.get(k, 0) for k in range(n)]
    return parts


def _is_derivation(L, M):
    """Whether D(e_i e_j) = D(e_i) e_j + e_i D(e_j) on every basis pair, for
    D with matrix M (row j = image of e_j). Both sides are linear in the
    product and in D, so the rule is checked on the integral twin with M
    scaled to integers."""
    index = L.integral_twin().product_index()
    s = lcm(*(x.denominator for row in M for x in row))
    rows = [{c: int(x * s) for c, x in enumerate(row) if x} for row in M]
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            lhs, rhs = {}, {}
            for m, c in index[i].get(j, {}).items():
                add_scaled(lhs, rows[m], c)
            for m, x in rows[i].items():
                add_scaled(rhs, index[m].get(j, {}), x)
            for m, x in rows[j].items():
                add_scaled(rhs, index[i].get(m, {}), x)
            if lhs != rhs:
                return False
    return True


def _check_lie(A):
    # the table's keys run in lexicographic order: name the first failing triple
    first = next(A.iter_jacobians(), None)
    if first is not None:
        i, j, k = (A.basis_names[t] for t in first[0])
        raise ValueError(f"base algebra is not Lie: J({i},{j},{k}) != 0")


def derivations(A: Algebra) -> list:
    """Basis of the derivation algebra, as matrices (row j = image of e_j).

    One sparse constraint per (i < j, k): the e_k coordinate of
    D(e_i e_j) - D(e_i) e_j - e_i D(e_j), with D's entry (r, c) at column
    r*n + c. The constraints are read off the integral twin's table: scaling
    the product scales each of them and leaves the derivations alone.
    """
    n = A.dim
    index = A.integral_twin().product_index()
    cons = []
    for i in range(n):
        for j in range(i + 1, n):
            rows = [{} for _ in range(n)]
            for m, v in index[i].get(j, {}).items():
                for k in range(n):
                    rows[k][m * n + k] = v
            # D(e_i) e_j and e_i D(e_j), over the supports of e_j and e_i
            for m, row in index[j].items():
                for k, v in row.items():
                    add_scaled(rows[k], {i * n + m: v})
            for m, row in index[i].items():
                for k, v in row.items():
                    add_scaled(rows[k], {j * n + m: -v})
            cons.extend(rows)
    basis = []
    for v in sparse_kernel(cons, n * n):
        M = _matrix(v, n)
        if not _is_derivation(A, M):
            raise ValueError("derivation solver produced a non-derivation")
        basis.append(M)
    return basis


def inner_derivations(A: Algebra) -> list:
    """Basis of the span of the left multiplications; requires a Lie algebra.
    The span is read on the integral twin, whose ad(e_i) are D times A's."""
    _check_lie(A)
    n = A.dim
    T = A.integral_twin()
    reduced, _ = sparse_rref((_flat(_ad_rows(T, {i: 1}), n) for i in range(n)), n * n)
    return [_matrix(v, n) for v in reduced]


@dataclass
class ConstructionData:
    """Input data for a two-step extension of the Lie algebra L.

    psi holds one derivation matrix per p-vector, lam the central values
    lambda(p_i, p_j) keyed by i < j, and L0 a complement of the center of L.
    decompose additionally records the adapted basis of the source algebra.
    """

    L: Algebra
    p_names: tuple
    psi: tuple
    lam: dict
    L0: tuple
    ambient_basis: tuple | None = field(default=None)

    def __post_init__(self):
        self.p_names = tuple(self.p_names)
        self.psi = tuple(
            tuple(tuple(Fraction(x) for x in row) for row in M) for M in self.psi
        )
        lam = {}
        for key, value in self.lam.items():
            vec = tuple(Fraction(x) for x in value)
            if any(vec):
                lam[tuple(key)] = vec
        self.lam = lam
        self.L0 = tuple(tuple(Fraction(x) for x in v) for v in self.L0)
        if self.ambient_basis is not None:
            self.ambient_basis = tuple(
                tuple(Fraction(x) for x in v) for v in self.ambient_basis
            )

    def validate(self):
        """Raise ValueError on inconsistent data; else return {(i, j): x},
        the inner part x in span(L0) of each P-product (ad(x) = [psi_i, psi_j])."""
        L = self.L
        n = L.dim
        _check_lie(L)
        if len(self.psi) != len(self.p_names):
            raise ValueError("psi count does not match p_names")
        for idx, M in enumerate(self.psi):
            if len(M) != n or any(len(row) != n for row in M):
                raise ValueError(f"psi[{idx}] has the wrong shape")
            if not _is_derivation(L, M):
                raise ValueError(f"psi[{idx}] is not a derivation of the base algebra")
        Z = center(L)
        for (i, j), vec in self.lam.items():
            if not (0 <= i < j < len(self.p_names)):
                raise ValueError(f"lambda key ({i},{j}) is not an i < j pair")
            if len(vec) != n:
                raise ValueError(f"lambda value for ({i},{j}) has the wrong length")
            if not Z.contains(list(vec)):
                raise ValueError(
                    f"lambda value for ({i},{j}) is not in the center of the base algebra"
                )
        for v in self.L0:
            if len(v) != n:
                raise ValueError("L0 vector has the wrong length")
        # n - dim Z vectors that span L together with Z are independent
        ech = Echelon()
        ech.extend(chain(Z.int_rows(), map(_sparse, self.L0)), n)
        if len(ech.rows) != n or len(self.L0) != n - Z.dim:
            raise ValueError("L0 is not a complement of the center of the base algebra")
        parts = _inner_parts(L, self.L0, self.psi)
        for (i, j), x in parts.items():
            if x is None:
                raise ValueError(f"[psi[{i}], psi[{j}]] is not an inner derivation")
        return parts


def build_from_construction(data: ConstructionData, name=None) -> Algebra:
    """Assemble the algebra P + L described by the construction data."""
    return _assemble(data, data.validate(), name)


def _assemble(data, parts, name):
    """The algebra P + L of valid data, given the inner part of each
    P-product as `ConstructionData.validate` returns them."""
    L = data.L
    n_p = len(data.p_names)
    n_l = L.dim
    names = list(data.p_names) + list(L.basis_names)
    if len(set(names)) != len(names):
        raise ValueError("p_names collide with base algebra basis names")
    products = {}
    for pair, inner in parts.items():
        lam = data.lam.get(pair, (0,) * n_l)
        combo = {n_p + k: x + z for k, (x, z) in enumerate(zip(inner, lam)) if x + z}
        if combo:
            products[pair] = combo
    for i in range(n_p):
        for j in range(n_l):
            combo = {n_p + k: -v for k, v in enumerate(data.psi[i][j]) if v}
            if combo:
                products[(i, n_p + j)] = combo
    for (i, j), row in L.table_pairs():
        products[(n_p + i, n_p + j)] = {n_p + k: v for k, v in row.items()}
    return Algebra(name or f"ext({L.name})", names, products)


def decompose(B: Algebra) -> ConstructionData:
    """Recover construction data from a member of the x*x, J(x,y,z*u) variety."""
    for idf in get_variety("w"):
        res = check_identity(B, idf)
        if not res.holds:
            raise ValueError(
                f"algebra is not in w: {idf.text} fails ({res.witness.describe()})"
            )
    LC = lie_center(B)
    pivot_set = set(LC.pivots)
    p_cols = [c for c in range(B.dim) if c not in pivot_set]
    p_names = tuple(B.basis_names[c] for c in p_cols)
    L = restrict(B, LC, name=f"{B.name}|L")
    n_l = L.dim
    units = [_unit(pc, B.dim) for pc in p_cols]
    psi = []
    for unit in units:
        rows = []
        for j in range(n_l):
            coeffs = LC.coords_of(B.mul_coords(LC.rows[j], unit))
            if coeffs is None:
                raise ValueError("Lie center is not stable under multiplication")
            rows.append(tuple(coeffs))
        psi.append(tuple(rows))
    Z = center(L)
    psi_rows = [[_sparse(r) for r in M] for M in psi]
    lam = {}
    for a in range(len(p_cols)):
        for b in range(a + 1, len(p_cols)):
            v = LC.coords_of(B.mul_coords(units[a], units[b]))
            if v is None:
                raise ValueError("products of complement vectors leave the Lie center")
            # L0's unit vectors vanish at Z's pivots: there v is its center part
            z_part = tuple(
                sum(v[p] * r[k] for p, r in zip(Z.pivots, Z.rows)) for k in range(n_l)
            )
            l0_part = [x - z for x, z in zip(v, z_part)]
            if _ad_rows(L, _sparse(l0_part)) != _commutator(psi_rows[a], psi_rows[b]):
                raise ValueError(
                    "inner part of a P-product does not match [psi, psi]"
                )
            if any(z_part):
                lam[(a, b)] = z_part
    ambient = tuple(map(tuple, units)) + tuple(LC.rows)
    return ConstructionData(
        L=L, p_names=p_names, psi=tuple(psi), lam=lam, L0=_complement(Z, n_l),
        ambient_basis=ambient,
    )


def random_w_algebra(L: Algebra, p_dim: int, seed: int) -> Algebra:
    """Seeded random member of the variety built over the Lie algebra L.

    Draws p_dim derivations of L; if after a few attempts their pairwise
    commutators do not all land in the inner derivations, falls back to
    combinations of inner derivations, which always close up.
    """
    _check_lie(L)
    if p_dim == 0:
        return L
    rng = random.Random(seed)
    ders = derivations(L)
    n = L.dim
    Z = center(L)
    L0 = _complement(Z, n)

    def draw(basis):
        coeffs = [rng.randint(-2, 2) for _ in basis]
        return tuple(
            tuple(sum(c * M[r][k] for c, M in zip(coeffs, basis)) for k in range(n))
            for r in range(n)
        )

    for _ in range(5):
        chosen = [draw(ders) for _ in range(p_dim)]
        parts = _inner_parts(L, L0, chosen)
        if None not in parts.values():
            break
    else:
        inn = inner_derivations(L)
        chosen = [draw(inn) for _ in range(p_dim)]
        parts = _inner_parts(L, L0, chosen)
    lam = {}
    for i in range(p_dim):
        for j in range(i + 1, p_dim):
            coeffs = [rng.randint(-2, 2) for _ in range(Z.dim)]
            vec = tuple(
                sum(c * r[k] for c, r in zip(coeffs, Z.rows)) for k in range(n)
            )
            if any(vec):
                lam[(i, j)] = vec
    data = ConstructionData(
        L=L,
        p_names=tuple(f"p{i}" for i in range(p_dim)),
        psi=tuple(chosen),
        lam=lam,
        L0=L0,
    )
    # the draw is valid by construction and its inner parts are solved
    return _assemble(data, parts, f"w[{L.name};p{p_dim};s{seed}]")
