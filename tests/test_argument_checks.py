"""Argument checks: the three shared rules of ``porcupine._checks``, every
count and real argument of the public entry points probed with NaN, the
infinities, a fraction, zero and a negative value wherever the value is
invalid, and a small CLI table that must end in exit code 0, 2 or 3."""

import math

import numpy as np
import pytest

import porcupine as p
from porcupine import cli
from porcupine._checks import count, finite_array, real
from porcupine.errors import DimensionMismatch, DomainError, ParameterOutOfRange, PorcupineError

NAN = float("nan")
INF = float("inf")


@pytest.mark.parametrize("value, error", [
    (NAN, DomainError), (INF, DomainError), (-INF, DomainError), (np.float64(NAN), DomainError),
    (2.5, ParameterOutOfRange), (2.0, ParameterOutOfRange), (0, ParameterOutOfRange),
    (-1, ParameterOutOfRange), (True, ParameterOutOfRange), ("2", ParameterOutOfRange),
    (None, ParameterOutOfRange),
])
def test_count_rule(value, error):
    with pytest.raises(error):
        count(value, "n")


def test_count_rule_accepts_integers_at_the_minimum():
    assert count(np.int64(3), "n") == 3 and type(count(np.int64(3), "n")) is int
    assert count(2, "r", 2) == 2
    with pytest.raises(ParameterOutOfRange):
        count(1, "r", 2)


@pytest.mark.parametrize("value, kwargs, error", [
    (NAN, {}, DomainError),
    (-INF, {}, DomainError),
    (INF, {"error": ParameterOutOfRange}, ParameterOutOfRange),
    (-1.0, {"low": 0.0}, ParameterOutOfRange),
    (0.0, {"low": 0.0, "open_low": True}, ParameterOutOfRange),
    (2.0, {"low": 0.0, "high": 1.0, "error": DomainError}, DomainError),
    ("1", {}, ParameterOutOfRange),
    (None, {}, ParameterOutOfRange),
])
def test_real_rule(value, kwargs, error):
    with pytest.raises(error):
        real(value, "x", **kwargs)


def test_real_rule_accepts_the_closed_bounds():
    assert real(0, "tol", 0.0) == 0.0
    assert real(math.pi / 2, "delta", 0.0, math.pi / 2, open_low=True) == math.pi / 2


@pytest.mark.parametrize("values, shape, error", [
    ([1.0, 2.0], (3,), DimensionMismatch), ([[1.0, 2.0]], (None,), DimensionMismatch),
    ([[1.0], [2.0, 3.0]], (None,), DimensionMismatch), ("abc", (None,), DimensionMismatch),
    ([1.0, NAN], (2,), DomainError), ([[INF]], (None, None), DomainError),
])
def test_finite_array_rule(values, shape, error):
    with pytest.raises(error):
        finite_array(values, "a", shape)


def test_finite_array_rule_matches_any_size_at_none():
    assert finite_array([[1, 2, 3]], "a", (1, None)).dtype == float


# Small fixtures for the entry points that need a network, a net or a run.
LINES = p.random_line_set(3, 3, 0)
MAP = p.NeuronLineMap(3, (0, 1, 2))
W = p.weights_from_masses(LINES, MAP, [1.0, -0.5, 2.0])
NET = p.greedy_angular_net(2, 0.5, seed=0)
CONFIG = p.TrainConfig(batch_size=10, epochs=1, learning_rate=1e-3)
_TRUTH = p.weights_from_masses(p.build_line_set([[1.0]]), p.NeuronLineMap(2, (0, 0)), [2.0, 3.0])
RESULT = p.sgd_train(p.generate_dataset(_TRUTH, 20, 0), _TRUTH, CONFIG)

COUNT = (NAN, INF, -INF, 2.5, 0, -1)  # an integer of at least 1 (or 2)
ANGLE = COUNT  # delta in (0, pi/2]: 2.5 > pi/2 lies outside
POSITIVE = (NAN, INF, -INF, 0, -1)  # a finite real above 0 (or above 1)
NON_NEGATIVE = (NAN, INF, -INF, -1)  # a decision threshold
FINITE = (NAN, INF, -INF)

ARGUMENTS = [
    ("equiangular_2d.r", lambda v: p.equiangular_2d(v), COUNT),
    ("axes_line_set.d", lambda v: p.axes_line_set(v), COUNT),
    ("random_line_set.d", lambda v: p.random_line_set(v, 2, 0), COUNT),
    ("random_line_set.r", lambda v: p.random_line_set(3, v, 0), COUNT),
    ("random_line_set.max_draws", lambda v: p.random_line_set(3, 2, 0, max_draws=v), COUNT),
    ("NeuronLineMap.num_neurons", lambda v: p.NeuronLineMap(v, (0,)), COUNT),
    ("good_region_probability.r", lambda v: p.good_region_probability(v, 2, 2), COUNT),
    ("good_region_probability.d", lambda v: p.good_region_probability(5, v, 2), COUNT),
    ("good_region_probability.neurons_per_line",
     lambda v: p.good_region_probability(5, 2, v), COUNT),
    ("global_optimum_check.tol", lambda v: p.global_optimum_check(W, W, v), NON_NEGATIVE),
    ("stationarity_check.tol", lambda v: p.stationarity_check(W, W, v), NON_NEGATIVE),
    ("region_condition.d", lambda v: p.region_condition(RESULT.final_signature, v), COUNT),
    ("monte_carlo_risk.n_samples", lambda v: p.monte_carlo_risk(W, W, n_samples=v), COUNT),
    ("monte_carlo_risk.threads",
     lambda v: p.monte_carlo_risk(W, W, n_samples=100, threads=v), COUNT),
    ("asymptotic_reference.d", lambda v: p.asymptotic_reference(v, 4, 4), COUNT),
    ("asymptotic_reference.r", lambda v: p.asymptotic_reference(4, v, 4), COUNT),
    ("asymptotic_reference.r_star", lambda v: p.asymptotic_reference(4, 4, v), COUNT),
    ("normalized_loss_bound.r", lambda v: p.normalized_loss_bound(v, 4), COUNT),
    ("normalized_loss_bound.r_star", lambda v: p.normalized_loss_bound(4, v), COUNT),
    ("bad_local_asymptotic_bound.gamma",
     lambda v: p.bad_local_asymptotic_bound(v, 10, 5, 2.0), POSITIVE),
    ("bad_local_asymptotic_bound.r",
     lambda v: p.bad_local_asymptotic_bound(2.0, v, 5, 2.0), COUNT),
    ("bad_local_asymptotic_bound.r_star",
     lambda v: p.bad_local_asymptotic_bound(2.0, 10, v, 2.0), COUNT),
    ("bad_local_asymptotic_bound.mu",
     lambda v: p.bad_local_asymptotic_bound(2.0, 10, 5, v), POSITIVE),
    ("structured_inverse.alpha", lambda v: p.structured_inverse(v, 1.0, 3), FINITE),
    ("structured_inverse.beta", lambda v: p.structured_inverse(1.0, v, 3), FINITE),
    ("structured_inverse.n", lambda v: p.structured_inverse(1.0, 1.0, v), COUNT),
    ("perturbation_bound.delta", lambda v: p.perturbation_bound(LINES, LINES, v), POSITIVE),
    ("net_size_bound.n", lambda v: p.net_size_bound(v, 0.3), COUNT),
    ("net_size_bound.delta", lambda v: p.net_size_bound(3, v), ANGLE),
    ("sparse_net_size.d", lambda v: p.sparse_net_size(v, 2, 0.3), COUNT),
    ("sparse_net_size.s", lambda v: p.sparse_net_size(4, v, 0.3), COUNT),
    ("sparse_net_size.delta", lambda v: p.sparse_net_size(4, 2, v), ANGLE),
    ("sparse_net_size.k", lambda v: p.sparse_net_size(4, 2, 0.3, k=v), COUNT),
    ("greedy_angular_net.d", lambda v: p.greedy_angular_net(v, 0.5), COUNT),
    ("greedy_angular_net.delta", lambda v: p.greedy_angular_net(2, v), ANGLE),
    ("greedy_angular_net.max_probes",
     lambda v: p.greedy_angular_net(2, 0.5, max_probes=v, probe_budget=1000), COUNT),
    ("greedy_angular_net.probe_budget",
     lambda v: p.greedy_angular_net(2, 0.5, probe_budget=v), COUNT),
    ("coverage_gap.n_probes", lambda v: p.coverage_gap(NET, n_probes=v), COUNT),
    ("minimax_risk_bound.k", lambda v: p.minimax_risk_bound(v, 1.0, 3, 0.3), COUNT),
    ("minimax_risk_bound.M", lambda v: p.minimax_risk_bound(2, v, 3, 0.3), POSITIVE),
    ("minimax_risk_bound.d", lambda v: p.minimax_risk_bound(2, 1.0, v, 0.3), COUNT),
    ("minimax_risk_bound.delta", lambda v: p.minimax_risk_bound(2, 1.0, 3, v), ANGLE),
    ("generate_dataset.n", lambda v: p.generate_dataset(W, v, 0), COUNT),
    ("init_random_pnn.d", lambda v: p.init_random_pnn(v, 2, 0), COUNT),
    ("init_random_pnn.r", lambda v: p.init_random_pnn(3, v, 0), COUNT),
    ("classify_outcome.tol", lambda v: p.classify_outcome(RESULT, _TRUTH, tol=v), NON_NEGATIVE),
    ("classify_outcome.stationarity_tol",
     lambda v: p.classify_outcome(RESULT, _TRUTH, stationarity_tol=v), NON_NEGATIVE),
    ("degree_one_map.d", lambda v: p.degree_one_map(v, 4), COUNT),
    ("degree_one_map.k", lambda v: p.degree_one_map(2, v), COUNT),
    ("experiment_matched_degree_one.trials",
     lambda v: p.experiment_matched_degree_one(2, 2, v, CONFIG, 20, 20), COUNT),
    ("experiment_matched_degree_one.n_train",
     lambda v: p.experiment_matched_degree_one(2, 2, 1, CONFIG, v, 20), COUNT),
    ("experiment_matched_degree_one.n_test",
     lambda v: p.experiment_matched_degree_one(2, 2, 1, CONFIG, 20, v), COUNT),
    ("experiment_mismatched_random.d",
     lambda v: p.experiment_mismatched_random(v, 2, [2], 1, CONFIG, 1, 20, 20), COUNT),
    ("experiment_mismatched_random.k_star",
     lambda v: p.experiment_mismatched_random(2, v, [2], 1, CONFIG, 1, 20, 20), COUNT),
    ("experiment_mismatched_random.k_list",
     lambda v: p.experiment_mismatched_random(2, 2, [v], 1, CONFIG, 1, 20, 20), COUNT),
    ("experiment_mismatched_random.trials",
     lambda v: p.experiment_mismatched_random(2, 2, [2], v, CONFIG, 1, 20, 20), COUNT),
    ("experiment_mismatched_random.inits_per_trial",
     lambda v: p.experiment_mismatched_random(2, 2, [2], 1, CONFIG, v, 20, 20), COUNT),
    ("experiment_mismatched_random.n_train",
     lambda v: p.experiment_mismatched_random(2, 2, [2], 1, CONFIG, 1, v, 20), COUNT),
    ("experiment_mismatched_random.n_test",
     lambda v: p.experiment_mismatched_random(2, 2, [2], 1, CONFIG, 1, 20, v), COUNT),
]

PROBES = [pytest.param(call, value, id="%s=%r" % (name, value))
          for name, call, values in ARGUMENTS for value in values]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("call, value", PROBES)
def test_bad_argument_raises_a_porcupine_error(call, value):
    with pytest.raises(PorcupineError):
        call(value)


CLI_CASES = [
    ["risk", "--demo", "scalar", "--mc-samples", "100", "--threads", "2"],
    ["risk", "--matched", "--d", "3", "--r", "2", "--k", "3", "--mc-samples", "100"],
    ["risk", "--demo", "scalar", "--mc-samples", "10", "--seed", "-1"],
    ["risk", "--mismatched", "--d", "2", "--r", "0", "--k", "2"],
    ["landscape", "classify", "--scalar", "--w-star", "1,nan"],
    ["schur-sweep", "--d", "3", "--r-star", "2", "--r", "2,3", "--trials", "1", "--threads", "2"],
    ["schur-sweep", "--d", "3", "--r-star", "2", "--r", "2", "--trials", "1", "--seed", "-1"],
    ["asymptotic", "--d", "4", "--r", "0", "--r-star", "4"],
    ["asymptotic", "--d", "4", "--r", "2.5", "--r-star", "4"],
    ["train", "matched", "--d", "2", "--k", "2", "--trials", "1", "--epochs", "1",
     "--samples", "20", "--seed", "-1"],
    ["train", "mismatched", "--d", "2", "--k", "2", "--k-star", "2", "--trials", "1",
     "--inits", "1", "--epochs", "1", "--samples", "20"],
    ["minimax", "bound", "--d", "3", "--delta", "nan"],
    ["minimax", "bound", "--d", "3", "--delta", "-inf"],
    ["minimax", "bound", "--d", "0", "--delta", "0.3"],
    ["minimax", "bound", "--d", "4", "--s", "0", "--delta", "0.3", "--k", "2"],
    ["minimax", "bound", "--d", "3", "--delta", "0.3", "--k", "2", "--M", "inf"],
    ["minimax", "net", "--d", "2", "--delta", "0.5", "--probes", "100", "--seed", "-1"],
    ["minimax", "net", "--d", "7", "--delta", "0.5", "--probes", "100"],
]


@pytest.mark.parametrize("argv", CLI_CASES, ids=[" ".join(argv) for argv in CLI_CASES])
def test_cli_exits_zero_two_or_three_without_a_traceback(argv, tmp_path, capsys):
    code = cli.main(argv + ["--out", str(tmp_path / "out.csv")])
    assert code in (0, 2, 3)
    assert "Traceback" not in capsys.readouterr().err
