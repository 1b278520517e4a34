"""The runtime is stdlib-only: every module under src/skewalg imports only
the standard library and skewalg itself."""

import ast
import sys
from pathlib import Path

import skewalg

SRC = Path(skewalg.__file__).parent


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
