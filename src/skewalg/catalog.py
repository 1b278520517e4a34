"""Built-in example algebras, each with a short note on what it exercises."""

import re
from dataclasses import dataclass

from .algebra import Algebra
from .construction import ConstructionData, build_from_construction
from .linalg import format_scalar, parse_scalar


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    algebra: Algebra
    provenance: str
    # preferred product orientations for file output; None means stored order
    display_pairs: tuple | None = None


def _paper_L():
    A = Algebra("paper-L", ["a", "b", "c", "d"], {(1, 2): {3: 1}, (3, 0): {3: 1}})
    return CatalogEntry(
        "paper-L",
        A,
        "solvable dim-4 member of w with product space = Lie center = span{d}; "
        "fails the Malcev identity",
        display_pairs=((1, 2), (3, 0)),
    )


def _B(a1, a2, a3):
    name = f"B({format_scalar(a1)},{format_scalar(a2)},{format_scalar(a3)})"
    data = ConstructionData(
        L=Algebra("kc", ["c"], {}),
        p_names=("t", "a", "b"),
        psi=(((1,),), ((0,),), ((0,),)),
        lam={(0, 1): (a1,), (0, 2): (a2,), (1, 2): (a3,)},
        L0=(),
    )
    return CatalogEntry(
        name,
        build_from_construction(data, name=name),
        "dim-4 extension of a one-dimensional Lie algebra; the parameters are "
        "the central values of t*a, t*b, a*b",
    )


def _abelian(n):
    A = Algebra(f"abelian{n}", [f"e{i + 1}" for i in range(n)], {})
    return CatalogEntry(f"abelian{n}", A, f"abelian Lie algebra of dimension {n}")


def _affine2():
    A = Algebra("affine2", ["e1", "e2"], {(0, 1): {1: 1}})
    return CatalogEntry(
        "affine2", A, "nonabelian two-dimensional Lie algebra, e1*e2 = e2"
    )


def _heisenberg3():
    A = Algebra("heisenberg3", ["x", "y", "z"], {(0, 1): {2: 1}})
    return CatalogEntry(
        "heisenberg3", A, "three-dimensional Heisenberg Lie algebra, x*y = z"
    )


def _sl2():
    A = Algebra(
        "sl2", ["h", "e", "f"], {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}}
    )
    return CatalogEntry("sl2", A, "split simple three-dimensional Lie algebra")


def _free_anti_2_3():
    A = Algebra(
        "free-anti-2-3",
        ["x", "y", "u", "p", "q"],
        {(0, 1): {2: 1}, (0, 2): {3: 1}, (1, 2): {4: 1}},
    )
    return CatalogEntry(
        "free-anti-2-3",
        A,
        "free anticommutative algebra on x, y truncated above degree 3; "
        "small enough to be Lie",
    )


def _free_anti_2_4():
    A = Algebra(
        "free-anti-2-4",
        ["x", "y", "u", "p", "q", "r", "s", "t", "w"],
        {
            (0, 1): {2: 1},
            (0, 2): {3: 1},
            (1, 2): {4: 1},
            (0, 3): {5: 1},
            (0, 4): {6: 1},
            (1, 3): {7: 1},
            (1, 4): {8: 1},
        },
    )
    return CatalogEntry(
        "free-anti-2-4",
        A,
        "free anticommutative algebra on x, y truncated above degree 4; "
        "fails the binary-Lie identity at J(x,y,x*y)",
    )


_BUILDERS = {
    "paper-L": _paper_L,
    "B(0,0,1)": lambda: _B(0, 0, 1),
    "abelian1": lambda: _abelian(1),
    "abelian2": lambda: _abelian(2),
    "abelian3": lambda: _abelian(3),
    "affine2": _affine2,
    "heisenberg3": _heisenberg3,
    "sl2": _sl2,
    "free-anti-2-3": _free_anti_2_3,
    "free-anti-2-4": _free_anti_2_4,
}

_B_PATTERN = re.compile(r"B\((.*)\)\Z")

_cache = {}


def catalog_names() -> list:
    return list(_BUILDERS)


def get_catalog(name: str) -> CatalogEntry:
    """Look up a catalog algebra; B(r1,r2,r3) accepts rational parameters."""
    if name in _cache:
        return _cache[name]
    if name in _BUILDERS:
        entry = _BUILDERS[name]()
    else:
        m = _B_PATTERN.match(name)
        if m is None:
            raise ValueError(
                f"unknown catalog algebra {name!r}; available: "
                f"{', '.join(catalog_names())}, or B(r1,r2,r3) "
                "with rational parameters"
            )
        parts = m.group(1).split(",")
        if len(parts) != 3:
            raise ValueError("B(...) takes exactly three rational parameters")
        try:
            a1, a2, a3 = (parse_scalar(p) for p in parts)
        except ValueError as e:
            raise ValueError(f"bad B(...) parameter: {e}") from None
        entry = _B(a1, a2, a3)
    _cache[name] = entry
    return entry


def iter_catalog() -> list:
    return [get_catalog(n) for n in _BUILDERS]


def lie_catalog() -> list:
    """The catalog entries that are Lie algebras, in catalog order."""
    return [e for e in iter_catalog() if next(e.algebra.iter_jacobians(), None) is None]
