"""Static checks on src/skewalg: the runtime is stdlib-only (every module
imports only the standard library and skewalg itself), it defines no
function that only tests call, and only `linalg` names its dense
adapters."""

import ast
import sys
from collections import Counter
from itertools import chain
from pathlib import Path

import skewalg

SRC = Path(skewalg.__file__).parent
PERFBENCH = SRC.parent.parent / "perfbench"


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
        imported = (
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        )
        assert DENSE_ADAPTERS.isdisjoint(chain(_names(tree), imported)), path.name
