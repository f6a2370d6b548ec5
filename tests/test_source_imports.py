"""Source guards: the library depends on numpy alone (no module under
src/porcupine imports scipy or hypothesis, a test dependency only), imports
no name it does not use, builds every root seed through the seed rule of
``_checks``, and trains only in ``trainer._seeded_run``."""

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


def called_name(node):
    """The name a call calls, by bare name or attribute (None otherwise)."""
    if isinstance(node, ast.Call):
        return getattr(node.func, "attr", getattr(node.func, "id", None))
    return None


def seed_sequence_calls(tree):
    """Lines that call ``SeedSequence(...)``, by bare name or attribute."""
    return [node.lineno for node in ast.walk(tree) if called_name(node) == "SeedSequence"]


@pytest.mark.parametrize("path", [path for path in SOURCES if path.name != "_checks.py"],
                         ids=lambda path: path.name)
def test_seeds_go_through_the_seed_rule(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert seed_sequence_calls(tree) == [], "%s builds a SeedSequence unchecked" % path.name


@pytest.mark.parametrize("source, lines", [
    ("np.random.SeedSequence(3)", [1]),
    ("import numpy\nseq = numpy.random.SeedSequence((1, 2)).spawn(2)", [2]),
    ("from numpy.random import SeedSequence\nSeedSequence(0)", [2]),
    ("isinstance(s, np.random.SeedSequence)", []),
    ("seed_sequence((1, 2), 'seed').spawn(2)", []),
])
def test_guard_sees_seed_sequence_calls(source, lines):
    assert seed_sequence_calls(ast.parse(source)) == lines


def sgd_train_calls(tree, owner=None):
    """``(line, function)`` of each ``sgd_train(...)`` call, with the
    innermost function around it (None at module level)."""
    calls = []
    for node in ast.iter_child_nodes(tree):
        if called_name(node) == "sgd_train":
            calls.append((node.lineno, owner))
        inner = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner
        calls += sgd_train_calls(node, inner)
    return sorted(calls)


def test_experiments_train_only_in_the_seeded_run():
    # One run function, so a pool over runs has one place to hook.
    calls = [(path.name, owner) for path in SOURCES
             for _, owner in sgd_train_calls(ast.parse(path.read_text(encoding="utf-8")))]
    assert calls == [("trainer.py", "_seeded_run")]


@pytest.mark.parametrize("source, calls", [
    ("def _seeded_run():\n    return sgd_train(d, i, c)", [(2, "_seeded_run")]),
    ("def _seeded_run():\n    sgd_train(d, i, c)\ndef other():\n    trainer.sgd_train(d, i, c)",
     [(2, "_seeded_run"), (4, "other")]),
    ("def f():\n    def g():\n        sgd_train(d)\n    return g", [(3, "g")]),
    ("sgd_train(d, i, c)", [(1, None)]),
    ("train = sgd_train\ndef sgd_train(data): pass", []),
])
def test_guard_sees_sgd_train_calls(source, calls):
    assert sgd_train_calls(ast.parse(source)) == calls


def _sliced(node, pattern):
    """Whether ``node`` is ``name[...]`` with a slice tuple of ``pattern``:
    ``:`` for a full slice, ``None`` for a new axis."""
    if not isinstance(node, ast.Subscript) or not isinstance(node.slice, ast.Tuple):
        return False
    kinds = [":" if isinstance(e, ast.Slice) and e.lower is e.upper is e.step is None
             else None if isinstance(e, ast.Constant) and e.value is None else "?"
             for e in node.slice.elts]
    return kinds == pattern


def row_norm_sites(tree, owner=None):
    """``(line, function)`` of each per-row dot-product norm,
    ``x[:, None, :] @ x[:, :, None]`` or ``np.matmul`` of the same, with the
    innermost function around it (None at module level)."""
    sites = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            pair = (node.left, node.right)
        else:
            pair = tuple(node.args) if called_name(node) == "matmul" else ()
        if (len(pair) == 2 and _sliced(pair[0], [":", None, ":"])
                and _sliced(pair[1], [":", ":", None])
                and ast.dump(pair[0].value) == ast.dump(pair[1].value)):
            sites.append((node.lineno, owner))
        inner = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner
        sites += row_norm_sites(node, inner)
    return sorted(sites)


def test_rows_are_normed_in_one_function():
    # One routine normalises and orients vectors; a second norm rule drifts.
    sites = [(path.name, owner) for path in SOURCES
             for _, owner in row_norm_sites(ast.parse(path.read_text(encoding="utf-8")))]
    assert sites == [("lines.py", "_oriented_rows")]


@pytest.mark.parametrize("source, sites", [
    # The two sites of the earlier code: lines._canonical_rows, minimax.nearest_net_approx.
    ("def _canonical_rows(block):\n"
     "    norms = np.sqrt(np.matmul(block[:, None, :], block[:, :, None])[:, 0, 0])",
     [(2, "_canonical_rows")]),
    ("def nearest_net_approx(w_star, net):\n"
     "    norms = np.sqrt(cols[:, None, :] @ cols[:, :, None]).ravel()",
     [(2, "nearest_net_approx")]),
    ("matmul(x[:, None, :], x[:, :, None])", [(1, None)]),
    ("def f():\n    def g(a):\n        return a.b[:, None, :] @ a.b[:, :, None]", [(3, "g")]),
    ("x[:, None, :] @ y[:, :, None]", []),
    ("x[:, None] @ x[None, :]", []),
    ("x[:, None, :] @ x[:, None, :]", []),
    ("np.matmul(a, b)", []),
])
def test_guard_sees_row_norms(source, sites):
    assert row_norm_sites(ast.parse(source)) == sites
