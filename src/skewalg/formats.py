"""Line-based file formats: algebra tables, construction data, expressions.

Parse errors carry the 1-based line number of the offending line; blank
lines and lines starting with '#' are skipped everywhere.
"""

import re
from fractions import Fraction

from .algebra import Algebra, render_coords
from .construction import ConstructionData
from .identities import parse_identity
from .linalg import parse_scalar

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# one term of an element expression: sign, coefficient, '*', basis name, each
# optional and each followed by optional whitespace, so that every match
# succeeds and a missing part shows as a group that did not match
_TERM_RE = re.compile(
    r"\s*([+-]?)\s*(?:(\d+(?:/\d+)?)\s*(\*\s*)?)?([A-Za-z_][A-Za-z0-9_]*)?\s*"
)


def parse_element(text, names):
    """Parse "a + 2*b - 1/2*d" into a coordinate tuple over the basis."""
    row = _parse_terms(text, {n: i for i, n in enumerate(names)})
    return tuple(Fraction(row.get(k, 0)) for k in range(len(names)))


def _parse_terms(text, index):
    """Parse "a + 2*b - 1/2*d" into a sparse {basis index: int | Fraction}
    row, index mapping basis names to indices; zero coefficients are
    dropped, and "0" alone is the zero row. Coefficients are int unless
    written with a '/'. Errors name the 1-based column."""
    if not text or text.isspace():
        raise ValueError("empty element expression")
    row = {}
    pos, end = 0, len(text)
    while pos < end:
        m = _TERM_RE.match(text, pos)
        sign, num, star, name = m.groups()
        # every term after the first starts past a basis name, at pos > 0
        if not sign and pos:
            raise ValueError(f"col {pos + 1}: expected '+' or '-'")
        coef = 1
        if num:
            try:
                coef = parse_scalar(num) if "/" in num else int(num)
            except ValueError as exc:
                raise ValueError(f"col {m.start(2) + 1}: {exc}") from None
            if not star:
                at = m.start(4) if name else m.end()
                if coef == 0 and not pos and at == end:
                    return {}
                raise ValueError(
                    f"col {at + 1}: expected '*' between coefficient and basis name"
                )
        if not name:
            raise ValueError(f"col {m.end() + 1}: expected a basis name")
        k = index.get(name)
        if k is None:
            raise ValueError(f"col {m.start(4) + 1}: unknown basis name {name!r}")
        if sign == "-":
            coef = -coef
        row[k] = row[k] + coef if k in row else coef
        pos = m.end()
    return {k: v for k, v in row.items() if v}


def _meaningful_lines(text):
    for num, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield num, line


def _header_value(num, line, key):
    if not line.startswith(key + ":"):
        raise ValueError(f"line {num}: expected '{key}:'")
    return line[len(key) + 1 :].strip()


def _parse_basis_names(num, text):
    names = tuple(text.split())
    for nm in names:
        if not _NAME_RE.fullmatch(nm):
            raise ValueError(f"line {num}: invalid basis name {nm!r}")
    if len(set(names)) != len(names):
        raise ValueError(f"line {num}: duplicate basis name")
    return names


def _header_line(lines, pos, key):
    if pos >= len(lines):
        after = lines[-1][0] + 1 if lines else 1
        raise ValueError(f"line {after}: expected '{key}:'")
    return _header_value(lines[pos][0], lines[pos][1], key)


def _parse_algebra_lines(lines):
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
        raise ValueError(
            f"line {bnum}: basis lists {len(names)} names, dim says {dim}"
        )
    index = {nm: i for i, nm in enumerate(names)}
    products = {}
    seen = set()
    for num, line in lines[3:]:
        lhs, eq, rhs = line.partition("=")
        if not eq:
            raise ValueError(f"line {num}: expected 'bi*bj = combination'")
        parts = [p.strip() for p in lhs.split("*")]
        if len(parts) != 2 or not all(parts):
            raise ValueError(
                f"line {num}: left side must be a product of two basis names"
            )
        for p in parts:
            if p not in index:
                raise ValueError(f"line {num}: unknown basis name {p!r}")
        i, j = index[parts[0]], index[parts[1]]
        if i == j:
            raise ValueError(
                f"line {num}: a basis element multiplied by itself is zero"
            )
        key = (min(i, j), max(i, j))
        if key in seen:
            raise ValueError(
                f"line {num}: duplicate product pair {parts[0]}*{parts[1]}"
            )
        seen.add(key)
        try:
            combo = _parse_terms(rhs.strip(), index)
        except ValueError as e:
            raise ValueError(f"line {num}: {e}") from None
        if combo:
            products[(i, j)] = combo
    return Algebra(name, names, products)


def parse_algebra_file(text) -> Algebra:
    """Parse the algebra table format: name/dim/basis headers, product lines."""
    return _parse_algebra_lines(list(_meaningful_lines(text)))


def emit_algebra(A: Algebra, pairs=None) -> str:
    """Algebra table as text; pairs picks product orientations to print."""
    out = [f"name: {A.name}", f"dim: {A.dim}", f"basis: {' '.join(A.basis_names)}"]
    if pairs is None:
        pairs = sorted(ij for ij, _ in A.table_pairs())
    for i, j in pairs:
        vec = tuple(A.c(i, j, k) for k in range(A.dim))
        out.append(
            f"{A.basis_names[i]}*{A.basis_names[j]} = "
            f"{render_coords(vec, A.basis_names)}"
        )
    return "\n".join(out) + "\n"


def _split_sections(text):
    sections = []
    seen = set()
    current = None
    for num, line in _meaningful_lines(text):
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name in seen:
                raise ValueError(f"line {num}: duplicate section [{name}]")
            seen.add(name)
            current = (name, num, [])
            sections.append(current)
        elif current is None:
            raise ValueError(f"line {num}: expected a section header")
        else:
            current[2].append((num, line))
    return sections


def parse_construction_file(text) -> ConstructionData:
    """Parse the sectioned construction format: P, L, psi, lambda, L0."""
    sections = _split_sections(text)
    by_name = {name: (num, lines) for name, num, lines in sections}
    if "P" not in by_name:
        raise ValueError("line 1: missing [P] section")
    pnum, plines = by_name["P"]
    if len(plines) != 1:
        raise ValueError(f"line {pnum}: [P] needs exactly one 'basis:' line")
    p_names = _parse_basis_names(
        plines[0][0], _header_value(plines[0][0], plines[0][1], "basis")
    )
    if "L" not in by_name:
        raise ValueError("line 1: missing [L] section")
    L = _parse_algebra_lines(by_name["L"][1])
    p_index = {nm: i for i, nm in enumerate(p_names)}
    l_index = {nm: i for i, nm in enumerate(L.basis_names)}
    zero_row = tuple(Fraction(0) for _ in range(L.dim))
    psi = [[list(zero_row) for _ in range(L.dim)] for _ in p_names]
    lam = {}
    L0 = []
    for name, num, lines in sections:
        if name in ("P", "L"):
            continue
        if name.startswith("psi"):
            pname = name[3:].strip()
            if pname not in p_index:
                raise ValueError(f"line {num}: unknown P name {pname!r}")
            rows_seen = set()
            for lnum, line in lines:
                lhs, arrow, rhs = line.partition("->")
                lhs = lhs.strip()
                if not arrow:
                    raise ValueError(f"line {lnum}: expected 'basis -> combination'")
                if lhs not in l_index:
                    raise ValueError(f"line {lnum}: unknown basis name {lhs!r}")
                if lhs in rows_seen:
                    raise ValueError(f"line {lnum}: duplicate row for {lhs!r}")
                rows_seen.add(lhs)
                try:
                    vec = parse_element(rhs.strip(), L.basis_names)
                except ValueError as e:
                    raise ValueError(f"line {lnum}: {e}") from None
                psi[p_index[pname]][l_index[lhs]] = list(vec)
        elif name == "lambda":
            for lnum, line in lines:
                lhs, eq, rhs = line.partition("=")
                if not eq:
                    raise ValueError(f"line {lnum}: expected 'pi*pj = combination'")
                parts = [p.strip() for p in lhs.split("*")]
                if len(parts) != 2 or not all(parts):
                    raise ValueError(
                        f"line {lnum}: left side must be a product of two P names"
                    )
                for p in parts:
                    if p not in p_index:
                        raise ValueError(f"line {lnum}: unknown P name {p!r}")
                i, j = p_index[parts[0]], p_index[parts[1]]
                if i == j:
                    raise ValueError(f"line {lnum}: lambda of a pair with itself")
                key = (min(i, j), max(i, j))
                if key in lam:
                    raise ValueError(
                        f"line {lnum}: duplicate lambda pair {parts[0]}*{parts[1]}"
                    )
                try:
                    vec = parse_element(rhs.strip(), L.basis_names)
                except ValueError as e:
                    raise ValueError(f"line {lnum}: {e}") from None
                if i > j:
                    vec = tuple(-x for x in vec)
                lam[key] = vec
        elif name == "L0":
            for lnum, line in lines:
                try:
                    L0.append(parse_element(line, L.basis_names))
                except ValueError as e:
                    raise ValueError(f"line {lnum}: {e}") from None
        else:
            raise ValueError(f"line {num}: unknown section [{name}]")
    return ConstructionData(L=L, p_names=p_names, psi=psi, lam=lam, L0=L0)


def emit_construction(data: ConstructionData) -> str:
    """Construction data as sectioned text; inverse of parse_construction_file."""
    L = data.L
    out = ["[P]", f"basis: {' '.join(data.p_names)}", "[L]"]
    out.extend(emit_algebra(L).splitlines())
    for pname, M in zip(data.p_names, data.psi):
        out.append(f"[psi {pname}]")
        for bj, row in zip(L.basis_names, M):
            out.append(f"{bj} -> {render_coords(row, L.basis_names)}")
    out.append("[lambda]")
    for i, j in sorted(data.lam):
        out.append(
            f"{data.p_names[i]}*{data.p_names[j]} = "
            f"{render_coords(data.lam[(i, j)], L.basis_names)}"
        )
    out.append("[L0]")
    for v in data.L0:
        out.append(render_coords(v, L.basis_names))
    return "\n".join(out) + "\n"


def parse_identities_file(text):
    """One identity per line, in the identity grammar."""
    out = []
    for num, line in _meaningful_lines(text):
        try:
            out.append(parse_identity(line))
        except ValueError as e:
            raise ValueError(f"line {num}: {e}") from None
    return out


def parse_assignments(text, names):
    """Parse "x1 = a; x2 = b + c" into an ordered {key: coords} mapping."""
    out = {}
    for part in text.split(";"):
        if not part.strip():
            continue
        key, eq, expr = part.partition("=")
        key = key.strip()
        if not eq or not key:
            raise ValueError(
                f"expected 'name = expression' assignment, got {part.strip()!r}"
            )
        if key in out:
            raise ValueError(f"duplicate assignment for {key!r}")
        out[key] = parse_element(expr, names)
    return out
