"""Source checks that need no linter: every name a module imports is used,
and every absolute import is of the standard library."""

import ast
import sys
from pathlib import Path

import pytest

import mindstream

MODULES = sorted(
    p for p in Path(mindstream.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def unused_imports(source: str) -> list:
    """Names bound by the module's imports that nothing in it reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    annotations = [
        n.returns if isinstance(n, ast.FunctionDef) else n.annotation
        for n in ast.walk(tree)
        if isinstance(n, (ast.FunctionDef, ast.arg, ast.AnnAssign))
    ]
    # A quoted annotation such as "MindMap" names its types in a string.
    quoted = [
        ast.parse(n.value, mode="eval")
        for a in annotations
        if a is not None
        for n in ast.walk(a)
        if isinstance(n, ast.Constant) and isinstance(n.value, str)
    ]
    used = {n.id for root in [tree, *quoted] for n in ast.walk(root) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def non_stdlib_imports(source: str) -> list:
    """Top-level packages the module imports absolutely that are not in the
    standard library."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [
            (node.lineno, top)
            for top in (name.split(".")[0] for name in names)
            if top not in sys.stdlib_module_names
        ]
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_only_the_standard_library(path):
    assert non_stdlib_imports(path.read_text(encoding="utf-8")) == []


def test_non_stdlib_import_is_found():
    source = "import os, numpy.linalg\nfrom . import model\nfrom yaml import load\n"
    assert non_stdlib_imports(source) == [(1, "numpy"), (3, "yaml")]


def test_unused_import_is_found():
    source = (
        "from os import path, sep\nimport json\nimport re\n"
        "def f(x: 're.Pattern') -> None:\n    print(sep, 'json')\n"
    )
    assert unused_imports(source) == [(1, "path"), (2, "json")]
