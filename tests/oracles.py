"""Reference routes that only tests use.

Direct, unoptimized definitions that the fast routes in `skewalg` are held
equal to:

* `verify_isomorphism`: a linear map is multiplicative on every basis pair,
  and `change_basis`, an algebra re-expressed in a new ordered basis;
* `evaluate_term`: any identity term tree evaluated directly, product by
  product, and `lhs_minus_rhs`, an identity as one such tree;
* `component_evaluate`: a polarized component evaluated on its raw terms;
* `jacobi_on_quotient_basis`: every basis triple of a free quotient with
  nonzero Jacobian, multiplied inside the quotient;
* `reference_free_quotient`: a free quotient built without generator
  symmetry, every relation row of every degree generated and eliminated,
  and `certificate_over_all_rows`, a zero word's relation combination
  over every row of its degree, not only its type's;
* `reference_derivations`: the derivation algebra from dense `Fraction`
  product-rule rows over A's own table, and `reference_null_triples`, the
  x3 with J(x1,x2,x3) = 0 from `jacobian` on `Element`s;
* the routes before the support joins: `first_failure_over_all_tuples`, an
  identity search that evaluates every tuple of `_basis_tuples`,
  `products_over_all_pairs`, the series' products from every pair of
  rows, and `parse_algebra_dense`, the algebra file format read through
  `parse_element`'s dense coordinate tuples.
"""

from fractions import Fraction

from skewalg.algebra import Algebra, Subspace, jacobian
from skewalg.formats import (
    _header_line,
    _meaningful_lines,
    _parse_basis_names,
    parse_element,
)
from skewalg.freealg import (
    FreeQuotient,
    _ast_degree,
    _dedupe_key,
    _degree_rows,
    _describe,
    _record_degree,
    parse_word,
)
from skewalg.identities import IdentityDef, _basis_tuples, parse_identity
from skewalg.linalg import Echelon, _scale_to_int, _sparse, add_scaled, invert_rows, null_space


def verify_isomorphism(A: Algebra, B: Algebra, rows) -> bool:
    """Check that the linear map sending e_i to rows[i] is multiplicative."""
    if A.dim != B.dim:
        raise ValueError("dimension mismatch")
    if len(rows) != A.dim or any(len(r) != A.dim for r in rows):
        raise ValueError("map must be a square matrix over the common dimension")
    if invert_rows([list(r) for r in rows]) is None:
        raise ValueError("map is singular")
    n = A.dim
    for i in range(n):
        for j in range(i + 1, n):
            lhs = B.mul_coords(list(rows[i]), list(rows[j]))
            rhs = [Fraction(0)] * n
            for k in range(n):
                ck = A.c(i, j, k)
                if ck:
                    for m in range(n):
                        rhs[m] += ck * rows[k][m]
            if any(a != b for a, b in zip(lhs, rhs)):
                return False
    return True


def change_basis(A: Algebra, new_basis_rows, names, name=None) -> Algebra:
    """Same algebra in a new ordered basis (rows = new vectors in old coords)."""
    n = A.dim
    if len(new_basis_rows) != n:
        raise ValueError("need exactly dim basis vectors")
    inv = invert_rows(new_basis_rows)
    if inv is None:
        raise ValueError("basis change matrix is singular")
    products = {}
    for i in range(n):
        for j in range(i + 1, n):
            prod_old = A.mul_coords(new_basis_rows[i], new_basis_rows[j])
            new_coords = [
                sum(prod_old[c] * inv[c][k] for c in range(n)) for k in range(n)
            ]
            combo = {k: v for k, v in enumerate(new_coords) if v}
            if combo:
                products[(i, j)] = combo
    return Algebra(name or f"{A.name}|rebased", names, products)


def lhs_minus_rhs(idf: IdentityDef):
    """The identity as one term tree whose value must vanish."""
    items = list(idf.lhs[1]) + [(-c, t) for c, t in idf.rhs[1]]
    return ("sum", tuple(items))


def _eval_sparse(A, tree, env):
    if tree[0] == "var":
        return env[tree[1]]
    if tree[0] == "prod":
        return A.mul_sparse(_eval_sparse(A, tree[1], env), _eval_sparse(A, tree[2], env))
    out = {}
    for c, t in tree[1]:
        add_scaled(out, _eval_sparse(A, t, env), c)
    return out


def evaluate_term(tree, env, A: Algebra):
    """Evaluate any term tree on dense coordinate vectors; returns a list."""
    sparse_env = {v: {i: c for i, c in enumerate(vec) if c} for v, vec in env.items()}
    val = _eval_sparse(A, tree, sparse_env)
    out = [0] * A.dim
    for k, x in val.items():
        out[k] = x
    return out


def component_evaluate(comp, A: Algebra, vectors):
    """Dense evaluation of the raw terms: vectors aligned with comp.variables."""
    env = {
        v: {i: c for i, c in enumerate(vec) if c}
        for v, vec in zip(comp.variables, vectors)
    }
    out = [0] * A.dim
    for coef, tree in comp.terms:
        val = _eval_sparse(A, tree, env)
        for k, x in val.items():
            out[k] += coef * x
    return out


def _quotient_jacobian(F: FreeQuotient, t1, t2, t3):
    """J over homogeneous coordinate dicts, multiplied inside the quotient."""
    out = {}
    for (da, va), (db, vb), (dc, vc) in ((t1, t2, t3), (t2, t3, t1), (t3, t1, t2)):
        dp, vp = F.product(da, va, db, vb)
        _, vq = F.product(dp, vp, dc, vc)
        for m, v in vq.items():
            nv = out.get(m, 0) + v
            if nv:
                out[m] = nv
            elif m in out:
                del out[m]
    return t1[0] + t2[0] + t3[0], out


def jacobi_on_quotient_basis(F: FreeQuotient):
    """Basis monomial triples of a free quotient with nonzero Jacobian."""
    flat = [(d, m) for d in range(1, F.max_degree + 1) for m in F.basis[d]]
    witnesses = []
    for i in range(len(flat)):
        for j in range(i + 1, len(flat)):
            for k in range(j + 1, len(flat)):
                packs = [(flat[p][0], {flat[p][1]: Fraction(1)}) for p in (i, j, k)]
                _, coords = _quotient_jacobian(F, *packs)
                if coords:
                    witnesses.append(tuple(F.label(flat[p][1]) for p in (i, j, k)))
    return witnesses


def reference_free_quotient(identities, generators, max_degree, extra_relations=()):
    """The truncated free algebra, degree by degree, from all relation rows:
    every type's rows are generated, deduplicated and eliminated together,
    with no budget and no generator symmetry."""
    idfs = [parse_identity(t) if isinstance(t, str) else t for t in identities]
    F = FreeQuotient(idfs, "abcdefghijklmnopqrstuvwxyz"[:generators], max_degree)
    for word in extra_relations:
        tree = parse_word(word)
        F.extra.append((_ast_degree(tree), word, tree))
    for d in range(1, max_degree + 1):
        if d > 1:
            F.add_degree()
        ech = Echelon()
        seen = set()
        for _source, row in _degree_rows(F, d):
            key = _dedupe_key(row)
            if row and key not in seen:
                seen.add(key)
                ech.insert(row)
        _record_degree(F, d, ech)
    return F


def certificate_over_all_rows(F, word):
    """(coefficient, description) pairs expressing a zero word over the
    first independent rows of its degree, taken from every type."""
    tree = parse_word(word)
    d = _ast_degree(tree)
    sources = []
    ech = Echelon()
    for source, row in _degree_rows(F, d):
        if row:
            ech.insert(row, {len(sources): 1})
            sources.append(source)
    acc = ech.express(F.expand_to_row(tree, d))
    return [(acc[t], _describe(F, sources[t])) for t in sorted(acc)]


def reference_derivations(A: Algebra) -> list:
    """Basis of the derivation algebra, as matrices (row j = image of e_j):
    the kernel of one dense row per (i < j, k), the e_k coordinate of
    D(e_i e_j) - D(e_i) e_j - e_i D(e_j) with D's entry (r, c) at r*n + c."""
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
    return [
        tuple(tuple(v[r * n + c] for c in range(n)) for r in range(n))
        for v in null_space(rows, n * n)
    ]


def reference_null_triples(A: Algebra, x1, x2) -> Subspace:
    """All x3 with J(x1,x2,x3) = 0, from J(x1, x2, e_k) for every k."""
    columns = [jacobian(x1, x2, A.basis_element(k)).coords for k in range(A.dim)]
    rows = [[col[m] for col in columns] for m in range(A.dim)]
    return Subspace.from_vectors(A, null_space(rows, A.dim))


def first_failure_over_all_tuples(A: Algebra, comp):
    """`identities._first_failure` evaluating every tuple of `_basis_tuples`:
    (per-group index picks, value on the integral twin), or None."""
    if not comp.poly:
        return None
    T = A.integral_twin()
    memo = [{} for _ in comp._nodes]
    for idx in _basis_tuples(A.dim, comp.lower):
        val = comp.evaluate_on_basis(T, idx, memo)
        if val:
            combo, start = [], 0
            for g in comp.groups:
                combo.append(idx[start : start + len(g)])
                start += len(g)
            return tuple(combo), val
    return None


def products_over_all_pairs(A: Algebra, S, T):
    """`algebra._products` forming every pair of rows: each pair once when
    S is T."""
    mul = A.integral_twin().mul_sparse
    rs = [_scale_to_int(_sparse(r)) for r in S.rows]
    if S is T:
        return (mul(r, s) for i, r in enumerate(rs) for s in rs[i + 1 :])
    ts = [_scale_to_int(_sparse(t)) for t in T.rows]
    return (mul(r, t) for r in rs for t in ts)


def parse_algebra_dense(text) -> Algebra:
    """`parse_algebra_file` with every product line read by `parse_element`
    into a dense `Fraction` tuple."""
    lines = list(_meaningful_lines(text))
    name = _header_line(lines, 0, "name")
    dim_text = _header_line(lines, 1, "dim")
    try:
        dim = int(dim_text)
    except ValueError:
        raise ValueError(f"line {lines[1][0]}: dim must be an integer") from None
    basis_text = _header_line(lines, 2, "basis")
    bnum = lines[2][0]
    names = _parse_basis_names(bnum, basis_text)
    if len(names) != dim:
        raise ValueError(f"line {bnum}: basis lists {len(names)} names, dim says {dim}")
    index = {nm: i for i, nm in enumerate(names)}
    products = {}
    seen = set()
    for num, line in lines[3:]:
        lhs, eq, rhs = line.partition("=")
        if not eq:
            raise ValueError(f"line {num}: expected 'bi*bj = combination'")
        parts = [p.strip() for p in lhs.split("*")]
        if len(parts) != 2 or not all(parts):
            raise ValueError(f"line {num}: left side must be a product of two basis names")
        for p in parts:
            if p not in index:
                raise ValueError(f"line {num}: unknown basis name {p!r}")
        i, j = index[parts[0]], index[parts[1]]
        if i == j:
            raise ValueError(f"line {num}: a basis element multiplied by itself is zero")
        key = (min(i, j), max(i, j))
        if key in seen:
            raise ValueError(f"line {num}: duplicate product pair {parts[0]}*{parts[1]}")
        seen.add(key)
        try:
            vec = parse_element(rhs.strip(), names)
        except ValueError as e:
            raise ValueError(f"line {num}: {e}") from None
        combo = {k: v for k, v in enumerate(vec) if v}
        if combo:
            products[(i, j)] = combo
    return Algebra(name, names, products)
