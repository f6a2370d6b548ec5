"""Numerical tolerances are module constants, not per-call arguments or literals."""

import ast
import inspect
import pathlib

import pytest

import porcupine as p
from porcupine.kernel import (
    _cutoff_keeps_all,
    _inverted_spectrum,
    _PseudoInverse,
    _require_symmetric,
)
from porcupine.lines import _collinear, _first_collision

# Every parameter the functions below take; ``tol`` of global_optimum_check
# and stationarity_check is an experiment's decision threshold, not a
# numerical tolerance.
SIGNATURES = [
    (p.canonicalize_vector, ["v"]),
    (p.build_line_set, ["raw_vectors"]),
    (p.random_line_set, ["d", "r", "seed", "max_draws"]),
    (p.weights_from_columns, ["matrix"]),
    (p.load_line_set, ["path"]),
    (p.min_eigenvalue, ["matrix"]),
    (p.spectral_norm, ["matrix"]),
    (p.symmetric_pseudo_inverse, ["matrix"]),
    (p.schur_complement, ["bundle"]),
    (p.bad_region_stationary, ["bundle", "q_star", "line_signs", "w0"]),
    (p.bad_region_loss, ["bundle", "q_star"]),
    (p.global_optimum_check, ["weights", "weights_star", "tol"]),
    (p.stationarity_check, ["weights", "weights_star", "tol"]),
    (p.matched_risk, ["weights", "weights_star"]),
    (p.mismatched_risk, ["weights", "weights_star"]),
    (p.truncated_covariance, ["w1", "w2"]),
    (p.greedy_angular_net, ["d", "delta", "seed", "max_probes", "probe_budget"]),
    # Block and tile sizes are private constants, not parameters.
    (p.psi, ["x"]),
    (p.cross_gram, ["a", "b"]),
    (p.kernel_bundle, ["lines", "star"]),
    (p.coverage_gap, ["net", "n_probes", "seed"]),
    (_require_symmetric, ["matrix"]),
    (_inverted_spectrum, ["matrix", "vectors"]),
    (_cutoff_keeps_all, ["sym"]),
    (_PseudoInverse, ["matrix"]),
    (_collinear, ["cosines"]),
    (_first_collision, ["cosines"]),
]


@pytest.mark.parametrize("fn, params", SIGNATURES, ids=[fn.__name__ for fn, _ in SIGNATURES])
def test_no_tolerance_parameters(fn, params):
    assert list(inspect.signature(fn).parameters) == params



SOURCE = pathlib.Path(p.__file__).parent


def tolerance_literals(tree):
    """Line numbers of float literals of tolerance size (at most 1e-8) other
    than the value of a module-level constant or a parameter default."""
    allowed = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            allowed.update(id(n) for n in ast.walk(node.value))
    for node in ast.walk(tree):
        if isinstance(node, ast.arguments):
            for default in node.defaults + node.kw_defaults:
                if default is not None:
                    allowed.update(id(n) for n in ast.walk(default))
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, float)
        and 0.0 < abs(node.value) <= 1e-8 and id(node) not in allowed
    )


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda path: path.name)
def test_no_unnamed_tolerance_literals(path):
    assert tolerance_literals(ast.parse(path.read_text())) == []


def test_named_tolerances_keep_their_values():
    assert p.lines.UNIT_NORM_TOL == 1e-12
    assert p.schur.PIVOT_TOL == 1e-12
    assert p.schur.PERTURBATION_SLACK == 1e-9
    assert p.minimax.RELU_GAP_SLACK == 1e-12
