"""The library depends on numpy alone: no module under src/porcupine
imports scipy or hypothesis (hypothesis is a test dependency only)."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "porcupine").glob("*.py"))
FORBIDDEN = {"scipy", "hypothesis"}


def imported_packages(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node.lineno, node.module.split(".")[0]


def test_sources_found():
    assert any(path.name == "lines.py" for path in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_forbidden_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    hits = [(line, name) for line, name in imported_packages(tree) if name in FORBIDDEN]
    assert hits == [], "%s imports %s" % (path.name, hits)


@pytest.mark.parametrize("source", [
    "import scipy", "import scipy.linalg as sl", "from scipy import special",
    "from hypothesis import given", "import numpy, hypothesis.strategies",
])
def test_guard_sees_forbidden_imports(source):
    found = {name for _, name in imported_packages(ast.parse(source))}
    assert found & FORBIDDEN


def unused_imports(tree):
    """``(line, name)`` of each name the module imports and never reads;
    imports from ``__future__`` are directives, not names."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


# __init__.py imports names to re-export them.
MODULES = [path for path in SOURCES if path.name != "__init__.py"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert unused_imports(tree) == [], "%s never uses %s" % (path.name, unused_imports(tree))


@pytest.mark.parametrize("source, unused", [
    ("import math", [(1, "math")]),
    ("import numpy as np\nx = np.pi", []),
    ("import os.path\nos.sep", []),
    ("from .errors import A, B as C\nraise C", [(1, "A")]),
    ("from __future__ import annotations", []),
    ("from .lines import LineSet\ndef f(a: LineSet): pass", []),
])
def test_guard_sees_unused_imports(source, unused):
    assert unused_imports(ast.parse(source)) == unused
