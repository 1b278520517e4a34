"""Two-step extensions of Lie algebras and their recovery.

Members of the variety cut out by x*x = 0 and J(x,y,z*u) = 0 split, over a
basis adapted to the Lie center L, into a complement P acting on L by
right-multiplication derivations.  The multiplication is recorded as
ConstructionData: the derivations psi(p), central values lambda(p_i, p_j),
and a complement L0 of the center of L used to pin down the inner part of
the P-products.  build_from_construction and decompose are mutually inverse
up to the basis adaptation.
"""

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import Algebra, center, lie_center, restrict
from .identities import check_identity, get_variety
from .linalg import null_space, rref_rows, span_membership


def _mat_mul(A, B):
    n = len(A)
    return tuple(
        tuple(sum(A[r][m] * B[m][c] for m in range(n)) for c in range(n))
        for r in range(n)
    )


def _commutator(Mi, Mj):
    """Matrix of psi_i . psi_j - psi_j . psi_i under the row convention."""
    n = len(Mi)
    comp_ij = _mat_mul(Mj, Mi)
    comp_ji = _mat_mul(Mi, Mj)
    return tuple(
        tuple(comp_ij[r][c] - comp_ji[r][c] for c in range(n)) for r in range(n)
    )


def _flatten(M):
    return tuple(x for row in M for x in row)


def _apply(M, v):
    n = len(v)
    return [sum(v[j] * M[j][k] for j in range(n)) for k in range(n)]


def _unit(k, n):
    """The k-th unit vector of length n (int entries)."""
    return [int(m == k) for m in range(n)]


def _complement(Z, n):
    """Unit vectors off the pivots of the subspace Z: a complement of Z in k^n."""
    pivots = set(Z.pivots)
    return tuple(tuple(_unit(c, n)) for c in range(n) if c not in pivots)


def _ad_matrix(L, x):
    """Left multiplication by x as a matrix, one row per basis vector."""
    return tuple(L.mul_coords(x, _unit(k, L.dim)) for k in range(L.dim))


def _inner_parts(L, L0, psi):
    """Yield ((i, j), x) for each pair i < j: x in span(L0) with
    ad(x) = [psi_i, psi_j], or None if there is none.  When L0 complements
    the center, ad(L0) is a basis of Inn(L) and x is unique."""
    flat_ads = [list(_flatten(_ad_matrix(L, v))) for v in L0]
    for i in range(len(psi)):
        for j in range(i + 1, len(psi)):
            comm = _flatten(_commutator(psi[i], psi[j]))
            coeffs = span_membership(flat_ads, list(comm))
            yield (i, j), None if coeffs is None else [
                sum(c * v[k] for c, v in zip(coeffs, L0)) for k in range(L.dim)
            ]


def _is_derivation(L, M):
    n = L.dim
    for i in range(n):
        for j in range(i + 1, n):
            ei, ej = _unit(i, n), _unit(j, n)
            lhs = _apply(M, L.mul_coords(ei, ej))
            left = L.mul_coords(list(M[i]), ej)
            right = L.mul_coords(ei, list(M[j]))
            if any(a != b + c for a, b, c in zip(lhs, left, right)):
                return False
    return True


def _check_lie(A):
    # the table's keys run in lexicographic order: name the first failing triple
    for triple in A.jacobians():
        i, j, k = (A.basis_names[t] for t in triple)
        raise ValueError(f"base algebra is not Lie: J({i},{j},{k}) != 0")


def derivations(A: Algebra) -> list:
    """Basis of the derivation algebra, as matrices (row j = image of e_j)."""
    n = A.dim
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                row = [Fraction(0)] * (n * n)
                for m in range(n):
                    row[m * n + k] += A.c(i, j, m)
                    row[i * n + m] -= A.c(m, j, k)
                    row[j * n + m] -= A.c(i, m, k)
                rows.append(row)
    basis = []
    for v in null_space(rows, n * n):
        M = tuple(tuple(v[r * n + c] for c in range(n)) for r in range(n))
        if not _is_derivation(A, M):
            raise ValueError("derivation solver produced a non-derivation")
        basis.append(M)
    return basis


def inner_derivations(A: Algebra) -> list:
    """Basis of the span of the left multiplications; requires a Lie algebra."""
    _check_lie(A)
    n = A.dim
    flats = [list(_flatten(_ad_matrix(A, _unit(i, n)))) for i in range(n)]
    reduced, _ = rref_rows(flats, n * n)
    return [tuple(tuple(v[r * n + c] for c in range(n)) for r in range(n)) for v in reduced]


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
        stacked = [list(r) for r in Z.rows] + [list(v) for v in self.L0]
        reduced, _ = rref_rows(stacked, n)
        # n - dim Z vectors that span L together with Z are independent
        if len(reduced) != n or len(self.L0) != n - Z.dim:
            raise ValueError("L0 is not a complement of the center of the base algebra")
        parts = {}
        for (i, j), x in _inner_parts(L, self.L0, self.psi):
            if x is None:
                raise ValueError(f"[psi[{i}], psi[{j}]] is not an inner derivation")
            parts[(i, j)] = x
        return parts


def build_from_construction(data: ConstructionData, name=None) -> Algebra:
    """Assemble the algebra P + L described by the construction data."""
    parts = data.validate()
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
            if _ad_matrix(L, l0_part) != _commutator(psi[a], psi[b]):
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
        if all(x is not None for _, x in _inner_parts(L, L0, chosen)):
            break
    else:
        inn = inner_derivations(L)
        chosen = [draw(inn) for _ in range(p_dim)]
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
    return build_from_construction(data, name=f"w[{L.name};p{p_dim};s{seed}]")
