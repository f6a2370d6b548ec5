"""Source guards: the library depends on numpy alone (no module under
src/porcupine imports scipy or hypothesis, a test dependency only), imports
no name it does not use, builds every root seed through the seed rule of
``_checks``, trains and labels runs only in ``trainer._seeded_run``, writes
CSV only in ``cli.main``, builds its one thread pool in ``risk._ordered_map``,
factorizes matrices only in ``kernel``, by its eigen-solves alone, applies
the inverse factor only by the row blocks of ``_PseudoInverse._times_factor``,
multiplies two line sets' unit vectors only in ``lines.cross_gram`` and reads
a ``PNNWeights`` as a matrix only in ``lines._weight_matrix``."""

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


def call_sites(tree, name, owner=None):
    """``(line, function)`` of each call of ``name``, by bare name or
    attribute, with the innermost function around it (None at module level)."""
    calls = []
    for node in ast.iter_child_nodes(tree):
        if called_name(node) == name:
            calls.append((node.lineno, owner))
        inner = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner
        calls += call_sites(node, name, inner)
    return sorted(calls)


def source_call_sites(name):
    """``(module, function)`` of each call of ``name`` under src/porcupine."""
    return [(path.name, owner) for path in SOURCES
            for _, owner in call_sites(ast.parse(path.read_text(encoding="utf-8")), name)]


def test_experiments_train_only_in_the_seeded_run():
    # One run function, so a pool over runs has one place to hook.
    assert source_call_sites("sgd_train") == [("trainer.py", "_seeded_run")]


def test_runs_are_labelled_only_in_the_seeded_run():
    # Both experiments take their runs' labels from one place.
    assert source_call_sites("classify_outcome") == [("trainer.py", "_seeded_run")]


@pytest.mark.parametrize("source, calls", [
    ("def _seeded_run():\n    return sgd_train(d, i, c)", [(2, "_seeded_run")]),
    ("def _seeded_run():\n    sgd_train(d, i, c)\ndef other():\n    trainer.sgd_train(d, i, c)",
     [(2, "_seeded_run"), (4, "other")]),
    ("def f():\n    def g():\n        sgd_train(d)\n    return g", [(3, "g")]),
    ("sgd_train(d, i, c)", [(1, None)]),
    ("train = sgd_train\ndef sgd_train(data): pass", []),
])
def test_guard_sees_sgd_train_calls(source, calls):
    assert call_sites(ast.parse(source), "sgd_train") == calls


def test_csv_is_written_only_in_main():
    # Commands return their rows; one writer builds every spec line.
    assert source_call_sites("_write_csv") == [("cli.py", "main")]


# The earlier CLI: each of its six commands wrote its own CSV.
EARLIER_WRITES = "".join(
    "def _cmd_%s(args) -> None:\n    _write_csv(args, %r, spec, columns, rows)\n" % (cmd, cmd)
    for cmd in ("risk", "landscape", "schur_sweep", "asymptotic", "train", "minimax"))


@pytest.mark.parametrize("source, calls", [
    (EARLIER_WRITES, [(2, "_cmd_risk"), (4, "_cmd_landscape"), (6, "_cmd_schur_sweep"),
                      (8, "_cmd_asymptotic"), (10, "_cmd_train"), (12, "_cmd_minimax")]),
    ("def main(argv=None):\n    if argv:\n        _write_csv(args, *args.func(args))",
     [(3, "main")]),
    ("cli._write_csv(args, columns, rows)", [(1, None)]),
    ("write = _write_csv", []),
])
def test_guard_sees_csv_writes(source, calls):
    assert call_sites(ast.parse(source), "_write_csv") == calls


def test_threads_fan_out_through_one_pool():
    # One fan-out, so every --threads path keeps item order the same way.
    assert source_call_sites("ThreadPoolExecutor") == [("risk.py", "_ordered_map")]


@pytest.mark.parametrize("source, calls", [
    # The two pools of the earlier code: risk.monte_carlo_risk, cli._cmd_schur_sweep.
    ("def monte_carlo_risk(weights, weights_star, threads=1):\n"
     "    def run_chunk(index):\n"
     "        return index\n"
     "    if threads > 1:\n"
     "        with ThreadPoolExecutor(max_workers=threads) as pool:\n"
     "            results = list(pool.map(run_chunk, range(4)))",
     [(5, "monte_carlo_risk")]),
    ("def _cmd_schur_sweep(args):\n"
     "    if args.threads > 1:\n"
     "        with ThreadPoolExecutor(max_workers=args.threads) as pool:\n"
     "            rows = list(pool.map(run, jobs))",
     [(3, "_cmd_schur_sweep")]),
    ("concurrent.futures.ThreadPoolExecutor(2).map(f, items)", [(1, None)]),
    ("from concurrent.futures import ThreadPoolExecutor", []),
])
def test_guard_sees_thread_pools(source, calls):
    assert call_sites(ast.parse(source), "ThreadPoolExecutor") == calls


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


FACTORIZATIONS = {"solve", "cholesky", "eigh", "eigvalsh", "inv", "pinv", "lstsq", "svd",
                  "matrix_rank"}


def factorization_sites(tree, owner=None):
    """``(line, function)`` of each call of a ``linalg`` factorization
    (``np.linalg.solve``, ``linalg.eigh``, ...) and of each import of one
    by name, with the innermost function around it (None at module level)."""
    sites = []
    for node in ast.iter_child_nodes(tree):
        func = node.func if isinstance(node, ast.Call) else None
        if (isinstance(func, ast.Attribute) and func.attr in FACTORIZATIONS
                and getattr(func.value, "attr", getattr(func.value, "id", None)) == "linalg"):
            sites.append((node.lineno, owner))
        if (isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg"
                and any(alias.name in FACTORIZATIONS for alias in node.names)):
            sites.append((node.lineno, owner))
        inner = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner
        sites += factorization_sites(node, inner)
    return sorted(sites)


@pytest.mark.parametrize("path", [path for path in SOURCES if path.name != "kernel.py"],
                         ids=lambda path: path.name)
def test_matrices_are_factorized_only_in_kernel(path):
    # One pseudo-inverse convention, so every caller applies the same cutoff.
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert factorization_sites(tree) == [], "%s factorizes a matrix" % path.name


def test_kernel_factorizes_only_by_eigen_solves():
    # The inverse factor is built from products, so eigh and eigvalsh in
    # these two functions are the package's only factorizations.
    kernel = next(path for path in SOURCES if path.name == "kernel.py")
    tree = ast.parse(kernel.read_text(encoding="utf-8"))
    owners = {owner for _, owner in factorization_sites(tree)}
    assert owners == {"_inverted_spectrum", "_norm_and_min"}


@pytest.mark.parametrize("source, sites", [
    # The sites of the earlier code: schur.schur_complement, schur.add_line_update,
    # landscape.bad_region_stationary and landscape.scalar_hessian.
    ("def schur_complement(bundle):\n"
     "    block = _require_symmetric(bundle.psi_lines)\n"
     "    if _cutoff_keeps_all(block):\n"
     "        schur = bundle.psi_star - bundle.psi_cross.T @ np.linalg.solve(block, C)",
     [(4, "schur_complement")]),
    ("def add_line_update(report, bundle, new_line):\n"
     "    solved = np.linalg.solve(D11, zeta1)", [(2, "add_line_update")]),
    ("def bad_region_stationary(bundle, q_star, line_signs, w0=None):\n"
     "    if _cutoff_keeps_all(system):\n"
     "        q = np.linalg.solve(system, rhs)\n"
     "    else:\n"
     "        q = symmetric_pseudo_inverse(system) @ rhs",
     [(3, "bad_region_stationary")]),
    ("def scalar_hessian(signs):\n"
     "    return H, int(np.linalg.matrix_rank(H))", [(2, "scalar_hessian")]),
    ("from numpy import linalg\nlinalg.eigvalsh(m)", [(2, None)]),
    ("from numpy.linalg import svd, norm", [(1, None)]),
    ("numpy.linalg.lstsq(a, b)\nscipy.linalg.cholesky(a)", [(1, None), (2, None)]),
    ("np.linalg.norm(x)\npinv.solve(rhs)\nfrom numpy.linalg import norm", []),
    # The leaf of the earlier kernel._inverse_factor.
    ("def _inverse_factor(sym, out=None):\n"
     "    if n <= _FACTOR_BLOCK:\n"
     "        out[...] = np.tril(np.linalg.inv(np.linalg.cholesky(sym)))",
     [(3, "_inverse_factor"), (3, "_inverse_factor")]),
])
def test_guard_sees_factorizations(source, sites):
    assert factorization_sites(ast.parse(source)) == sites


def _reads(node, name: str) -> bool:
    """Whether the expression ``node`` reads ``name``, as an attribute or a
    bare name."""
    return any(getattr(n, "attr", getattr(n, "id", None)) == name for n in ast.walk(node)
               if isinstance(n, (ast.Attribute, ast.Name)))


def product_sites(tree, hit, owner=None):
    """``(line, function)`` of each product, ``@`` or a call of ``matmul`` or
    ``dot``, whose two operands make ``hit(operands)`` true, with the innermost
    function around it (None at module level)."""
    sites = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            operands = [node.left, node.right]
        else:
            operands = node.args[:2] if called_name(node) in ("matmul", "dot") else []
        if operands and hit(operands):
            sites.append((node.lineno, owner))
        inner = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner
        sites += product_sites(node, hit, inner)
    return sorted(sites)


def factor_product_sites(tree):
    """Products with an operand that reads ``_factor`` (the inverse factor of
    ``kernel._PseudoInverse``)."""
    return product_sites(tree, lambda operands: any(_reads(o, "_factor") for o in operands))


def test_inverse_factor_is_applied_only_by_row_blocks():
    # A full Li @ B multiplies the zero triangle of the factor too.
    owners = {(path.name, owner) for path in SOURCES
              for _, owner in factor_product_sites(ast.parse(path.read_text(encoding="utf-8")))}
    assert owners == {("kernel.py", "_times_factor")}


@pytest.mark.parametrize("source, sites", [
    # The two sites of the earlier code: _PseudoInverse.solve and .quadratic.
    ("def solve(self, rhs):\n"
     "    if self._vecs is None:\n"
     "        return self._factor.T @ (self._factor @ rhs)",
     [(3, "solve"), (3, "solve")]),
    ("def quadratic(self, B):\n"
     "    if self._vecs is None:\n"
     "        m = self._factor @ B\n"
     "        return m.T @ m",
     [(3, "quadratic")]),
    ("np.matmul(self._factor[i:e, :e], B[:e], out=out[i:e])", [(1, None)]),
    ("np.dot(B.T, pinv._factor)", [(1, None)]),
    ("self._factor = factor\nm.T @ m\nfloat(np.vdot(factor, factor))", []),
])
def test_guard_sees_factor_products(source, sites):
    assert factor_product_sites(ast.parse(source)) == sites


def test_pinv_callers_use_the_one_routine():
    # The guard decision lives in kernel._PseudoInverse alone.
    helpers = {"_cutoff_keeps_all", "_cutoff_drops_any", "_guarded_factor", "_inverse_factor",
               "_inverted_spectrum",
               "_require_symmetric", "symmetric_pseudo_inverse"}
    for path in SOURCES:
        if path.name in ("schur.py", "landscape.py"):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                     for alias in node.names}
            assert names & helpers == set(), path.name
            assert "_PseudoInverse" in names, path.name


def line_pair_sites(tree):
    """Products whose two operands both read ``unit_vectors``: the cosines
    between two line families."""
    return product_sites(tree, lambda operands: all(_reads(o, "unit_vectors") for o in operands))


def test_two_line_sets_meet_only_in_cross_gram():
    # One product, so every pair of line sets gets its dimension check and clip.
    owners = [(path.name, owner) for path in SOURCES
              for _, owner in line_pair_sites(ast.parse(path.read_text(encoding="utf-8")))]
    assert owners == [("lines.py", "cross_gram")]


@pytest.mark.parametrize("source, sites", [
    # The site of the earlier schur.nearest_line_subset, and cross_gram's earlier form.
    ("def nearest_line_subset(lines, targets):\n"
     "    affinity = np.abs(lines.unit_vectors.T @ targets.unit_vectors)",
     [(2, "nearest_line_subset")]),
    ("np.clip(a.unit_vectors.T @ b.unit_vectors, -1.0, 1.0)", [(1, None)]),
    ("np.dot(a.unit_vectors.T, b.unit_vectors)\n"
     "np.matmul(a.unit_vectors.T, b.unit_vectors, out=c)", [(1, None), (2, None)]),
    ("units.T @ units\nweights.line_set.unit_vectors.T @ gap\n"
     "np.linalg.norm(lines.unit_vectors - targets.unit_vectors)", []),
])
def test_guard_sees_line_pair_products(source, sites):
    assert line_pair_sites(ast.parse(source)) == sites


def weight_branch_sites(tree, owner=None):
    """``(line, function)`` of each ``isinstance`` test against
    ``PNNWeights``, with the innermost function around it."""
    sites = []
    for node in ast.iter_child_nodes(tree):
        if called_name(node) == "isinstance" and _reads(node.args[-1], "PNNWeights"):
            sites.append((node.lineno, owner))
        inner = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner
        sites += weight_branch_sites(node, inner)
    return sorted(sites)


def test_weights_are_read_only_by_the_weight_rule():
    # One intake, so an array and a PNNWeights are checked alike everywhere.
    owners = [(path.name, owner) for path in SOURCES
              for _, owner in weight_branch_sites(ast.parse(path.read_text(encoding="utf-8")))]
    assert owners == [("lines.py", "_weight_matrix")]


@pytest.mark.parametrize("source, sites", [
    # The two sites of the earlier code: risk._as_matrix and trainer.generate_dataset.
    ("def _as_matrix(weights):\n"
     "    if isinstance(weights, PNNWeights):\n"
     "        return weights.matrix", [(2, "_as_matrix")]),
    ("def generate_dataset(w_star, n, seed):\n"
     "    n = count(n, 'n')\n"
     "    if isinstance(w_star, PNNWeights):\n"
     "        W = w_star.matrix", [(3, "generate_dataset")]),
    ("isinstance(w, (lines.PNNWeights, np.ndarray))", [(1, None)]),
    ("isinstance(w, LineSet)\nPNNWeights(matrix, line_set, neuron_map)", []),
])
def test_guard_sees_weight_branches(source, sites):
    assert weight_branch_sites(ast.parse(source)) == sites
