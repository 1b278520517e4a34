"""Static checks on src/skewalg: the runtime is stdlib-only (every module
imports only the standard library and skewalg itself), it defines no
function that only tests call, only `linalg` names its dense adapters,
only `freealg` names a free quotient's table of waiting blocks or its
storage, and only `moufang` names the conjecture's words."""

import ast
import sys
from collections import Counter
from itertools import chain
from pathlib import Path

import skewalg

SRC = Path(skewalg.__file__).parent
PERFBENCH = SRC.parent.parent / "perfbench"
TESTS = Path(__file__).resolve().parent


def _imported_roots(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            yield "skewalg" if node.level else node.module.split(".")[0]


def test_runtime_imports_only_the_standard_library():
    files = sorted(SRC.glob("*.py"))
    assert len(files) > 5
    for path in files:
        for root in _imported_roots(path):
            assert root in sys.stdlib_module_names or root == "skewalg", (path.name, root)


def _names(tree, strings=False):
    """The names a syntax tree uses: variables and attributes, and with
    `strings` the dotted parts of string constants (the benchmark tracer
    names what it wraps by strings)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield from node.value.split(".")


def _imported_names(tree):
    """The names that the import statements of a syntax tree bring in."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.name


def test_every_function_has_a_caller_outside_tests():
    """Each non-dunder function or method under src/skewalg is named in
    src/ outside its own definition, or in perfbench/."""
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))]
    used = Counter(name for tree in trees for name in _names(tree))
    bench = {
        name
        for path in PERFBENCH.glob("*.py")
        for name in _names(ast.parse(path.read_text()), strings=True)
    }
    unused = []
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = node.name
                if name.startswith("__") and name.endswith("__") or name in bench:
                    continue
                if used[name] - Counter(_names(node))[name] <= 0:
                    unused.append(name)
    assert unused == []


DENSE_ADAPTERS = {"rref_rows", "null_space", "invert_rows", "span_membership"}


def test_only_linalg_names_the_dense_adapters():
    """The dense adapters are shims for the benchmark tracer and the tests;
    every other module reaches the echelon engine through `Echelon`."""
    for path in sorted(SRC.glob("*.py")):
        if path.name == "linalg.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        assert DENSE_ADAPTERS.isdisjoint(chain(_names(tree), _imported_names(tree))), path.name


def test_only_moufang_names_the_conjecture_words():
    """The conjecture preset's words are fixed in one module; `freealg`
    certifies whatever word it is handed."""
    for path in sorted(SRC.glob("*.py")):
        if path.name == "moufang.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        names = set(chain(_names(tree, strings=True), _imported_names(tree)))
        assert names.isdisjoint({"CONJECTURE_WORD", "SANITY_WORD"}), path.name


def _quotient_internals():
    """The private attributes `FreeQuotient.__init__` sets, also in tuple
    assignments: the table of waiting blocks and the storage behind
    `basis`, `rewrite` and `relations_rref`."""
    tree = ast.parse((SRC / "freealg.py").read_text())
    cls = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "FreeQuotient")
    init = next(n for n in cls.body if isinstance(n, ast.FunctionDef) and n.name == "__init__")
    return {
        target.attr
        for node in ast.walk(init)
        if isinstance(node, ast.Assign)
        for assigned in node.targets
        for target in ast.walk(assigned)
        if isinstance(target, ast.Attribute) and target.attr.startswith("_")
    }


def test_only_freealg_names_the_quotients_pending_state():
    """Every other module, the benchmark and the tests read a quotient
    through its public names, which make the blocks they read; only
    `freealg` reaches past them."""
    internals = _quotient_internals()
    assert {"_table", "_made", "_rewrite", "_basis", "_independent", "_keep"} <= internals
    paths = [
        *(path for path in SRC.glob("*.py") if path.name != "freealg.py"),
        *PERFBENCH.glob("*.py"),
        *(path for path in TESTS.glob("*.py") if path.name != Path(__file__).name),
    ]
    assert len(paths) > 20
    for path in sorted(paths):
        tree = ast.parse(path.read_text(), filename=str(path))
        assert internals.isdisjoint(_names(tree, strings=True)), path.name
