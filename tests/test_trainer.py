"""Data generation, SGD on line scalars, outcome classification, experiments."""

import dataclasses
import re

import numpy as np
import pytest

import porcupine as p
from porcupine import trainer
from porcupine.errors import (
    ConfigError,
    DimensionMismatch,
    Diverged,
    DomainError,
    InfeasibleWeights,
    ParameterOutOfRange,
)


def scalar_setup(w_star_values):
    line_set = p.build_line_set([[1.0]])
    neuron_map = p.NeuronLineMap(len(w_star_values), (0,) * len(w_star_values))
    truth = p.weights_from_masses(line_set, neuron_map, w_star_values)
    return line_set, neuron_map, truth


class TestTrainConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            p.TrainConfig(batch_size=0)
        with pytest.raises(ConfigError):
            p.TrainConfig(momentum=1.0)
        with pytest.raises(ConfigError):
            p.TrainConfig(learning_rate=0.0)
        with pytest.raises(ConfigError):
            p.TrainConfig(early_stop_threshold=-1.0)

    @pytest.mark.parametrize(
        "field", ["learning_rate", "momentum", "decay_rate", "early_stop_threshold"]
    )
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_floats(self, field, bad):
        with pytest.raises(ConfigError, match="finite"):
            p.TrainConfig(**{field: bad})


class TestGenerateDataset:
    def test_zero_network(self):
        X, y = p.generate_dataset(np.zeros((3, 2)), 100, seed=0)
        assert X.shape == (100, 3)
        np.testing.assert_array_equal(y, np.zeros(100))

    def test_output_mean_matches_gaussian_law(self):
        # E[relu(w'x)] = |w| / sqrt(2 pi) for standard Gaussian inputs.
        rng = np.random.default_rng(1)
        W = rng.standard_normal((4, 3))
        X, y = p.generate_dataset(W, 400_000, seed=2)
        expected = np.linalg.norm(W, axis=0).sum() / np.sqrt(2 * np.pi)
        stderr = y.std() / np.sqrt(y.size)
        assert abs(y.mean() - expected) <= 4.0 * stderr

    def test_deterministic(self):
        W = np.ones((2, 2))
        X1, y1 = p.generate_dataset(W, 50, seed=3)
        X2, y2 = p.generate_dataset(W, 50, seed=3)
        np.testing.assert_array_equal(X1, X2)
        np.testing.assert_array_equal(y1, y2)


class TestInitRandomPnn:
    def test_structure(self):
        line_set, neuron_map, weights = p.init_random_pnn(5, 4, seed=4)
        assert neuron_map.num_neurons == 8
        assert line_set.num_lines == 4
        _, signature = p.decompose_weights(weights)
        assert signature.mixed == (True,) * 4
        assert np.all(np.linalg.norm(weights.matrix, axis=0) <= 1.0 + 1e-12)

    def test_deterministic(self):
        _, _, a = p.init_random_pnn(4, 3, seed=5)
        _, _, b = p.init_random_pnn(4, 3, seed=5)
        np.testing.assert_array_equal(a.matrix, b.matrix)


# (training data, test data) of every malformed shape, from a good (X, y).
def with_entry(arr, value):
    arr = arr.copy()
    arr.flat[3] = value
    return arr


BAD_DATA = {
    "short_y": lambda X, y: ((X, y[:50]), None),
    "long_y": lambda X, y: ((X, np.concatenate([y, y])), None),
    "wrong_columns": lambda X, y: ((np.hstack([X, X]), y), None),
    "one_d_x": lambda X, y: ((X.ravel(), y), None),
    "two_d_y": lambda X, y: ((X, y[:, None]), None),
    "short_test_y": lambda X, y: ((X, y), (X, y[:5])),
    "test_wrong_columns": lambda X, y: ((X, y), (np.hstack([X, X]), y)),
    "not_a_pair": lambda X, y: ((X, y, y), None),
    "x_alone": lambda X, y: (X, None),
    "test_not_a_pair": lambda X, y: ((X, y), (X,)),
}

NON_FINITE_DATA = {
    "nan_x": lambda X, y: ((with_entry(X, np.nan), y), None),
    "inf_x": lambda X, y: ((with_entry(X, np.inf), y), None),
    "neg_inf_y": lambda X, y: ((X, with_entry(y, -np.inf)), None),
    "test_nan_x": lambda X, y: ((X, y), (with_entry(X, np.nan), y)),
    "test_inf_y": lambda X, y: ((X, y), (X, with_entry(y, np.inf))),
}


class TestSgdTrain:
    def test_early_stop_at_optimum(self):
        line_set, neuron_map, truth = scalar_setup([2.0, 3.0])
        X, y = p.generate_dataset(truth, 1000, seed=6)
        config = p.TrainConfig(
            batch_size=100, epochs=50, learning_rate=0.01,
            early_stop_window=10, early_stop_threshold=1e-5, seed=0,
        )
        result = p.sgd_train((X, y), truth, config)
        assert result.epochs_run <= config.early_stop_window
        assert result.final_train_loss < 1e-5

    def test_scalar_trapped_region_reaches_eight(self):
        line_set, neuron_map, truth = scalar_setup([6.0, -4.0])
        X, y = p.generate_dataset(truth, 2000, seed=7)
        init = p.weights_from_masses(line_set, neuron_map, [3.5, 2.5])
        config = p.TrainConfig(
            batch_size=100, epochs=120, learning_rate=0.01, momentum=0.9,
            decay_rate=0.95, decay_every_steps=390, seed=8,
        )
        result = p.sgd_train((X, y), init, config)
        population = p.scalar_risk(result.final_matrix.ravel(), [6.0, -4.0]).total
        assert population == pytest.approx(8.0, rel=0.01)
        assert result.final_signature.all_plus == (True,)

    def test_projection_keeps_columns_on_lines(self):
        seq = np.random.SeedSequence(9).spawn(3)
        _, _, truth = p.init_random_pnn(4, 3, seq[0])
        X, y = p.generate_dataset(truth, 2000, seq[1])
        _, _, init = p.init_random_pnn(4, 5, seq[2])
        config = p.TrainConfig(batch_size=100, epochs=20, learning_rate=0.01, seed=10)
        result = p.sgd_train((X, y), init, config)
        assert result.line_feasibility_ok
        assert result.max_line_deviation <= 1e-6
        units = init.line_set.unit_vectors[:, list(init.neuron_map.assignment)]
        residual = result.final_matrix - units * np.einsum(
            "dk,dk->k", units, result.final_matrix
        )
        assert np.max(np.linalg.norm(residual, axis=0)) <= 1e-6

    def test_slightly_unprojected_run_is_classified(self):
        # A hand-built result whose columns sit about 2e-7 off their lines:
        # far outside FEASIBILITY_TOL, so the result is not feasible and
        # classify_outcome labels it without building its weights.
        seq = np.random.SeedSequence(99).spawn(4)
        _, _, truth = p.init_random_pnn(4, 3, seq[0])
        X, y = p.generate_dataset(truth, 2000, seq[1])
        _, _, init = p.init_random_pnn(4, 5, seq[2])
        config = p.TrainConfig(batch_size=100, epochs=1, learning_rate=1e-8, seed=10)
        trained = p.sgd_train((X, y), init, config)
        units = init.line_set.unit_vectors[:, list(init.neuron_map.assignment)]
        off = np.random.default_rng(seq[3]).standard_normal(units.shape)
        off -= units * np.einsum("dk,dk->k", units, off)
        off *= 2e-7 / np.linalg.norm(off, axis=0)
        result = dataclasses.replace(
            trained,
            final_matrix=trained.final_matrix + off,
            line_feasibility_ok=False,
            max_line_deviation=2e-7,
        )
        with pytest.raises(InfeasibleWeights):
            result.final_weights()
        report = p.classify_outcome(result, truth)
        assert report.outcome == p.NOT_CONVERGED
        assert report.stationary is None

    def test_deterministic(self):
        line_set, neuron_map, truth = scalar_setup([1.0, 2.0])
        X, y = p.generate_dataset(truth, 500, seed=11)
        init = p.weights_from_masses(line_set, neuron_map, [0.5, -0.5])
        config = p.TrainConfig(batch_size=50, epochs=10, learning_rate=0.01, seed=12)
        a = p.sgd_train((X, y), init, config)
        b = p.sgd_train((X, y), init, config)
        np.testing.assert_array_equal(a.final_matrix, b.final_matrix)
        assert a.trajectory == b.trajectory

    def test_divergence_detected(self):
        line_set, neuron_map, truth = scalar_setup([5.0, 5.0])
        X, y = p.generate_dataset(truth, 500, seed=13)
        init = p.weights_from_masses(line_set, neuron_map, [30.0, 30.0])
        config = p.TrainConfig(batch_size=50, epochs=200, learning_rate=5.0, seed=14)
        with np.errstate(over="ignore"), pytest.raises(Diverged):
            p.sgd_train((X, y), init, config)

    def test_divergence_caught_at_the_step(self):
        # One epoch of 2000 batches that overflows within its first 200.
        line_set, neuron_map, truth = scalar_setup([5.0, 5.0])
        X, y = p.generate_dataset(truth, 20_000, seed=13)
        init = p.weights_from_masses(line_set, neuron_map, [30.0, 30.0])
        config = p.TrainConfig(batch_size=10, epochs=1, learning_rate=5.0, seed=14)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            Diverged, match=r"epoch 0, step \d+"
        ) as info:
            p.sgd_train((X, y), init, config)
        step = int(re.search(r"step (\d+)", str(info.value)).group(1))
        assert step < 2000 - 1

    def test_overflow_on_the_last_step_is_caught(self):
        # The one step's loss is finite; the update overflows the scalars.
        line_set, neuron_map, truth = scalar_setup([5.0, 5.0])
        X, y = p.generate_dataset(truth, 100, 1)
        init = p.weights_from_masses(line_set, neuron_map, [30.0, 30.0])
        config = p.TrainConfig(batch_size=100, epochs=1, learning_rate=1e308)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            Diverged, match=r"scalars became non-finite at epoch 0, step 0"
        ):
            p.sgd_train((X, y), init, config)

    @pytest.mark.parametrize("case", sorted(BAD_DATA) + sorted(NON_FINITE_DATA))
    def test_bad_data_shapes_rejected(self, case):
        # Shapes and pairs raise DimensionMismatch, non-finite entries
        # DomainError, both before anything is trained.
        line_set, neuron_map, truth = scalar_setup([1.0, 2.0])
        X, y = p.generate_dataset(truth, 100, seed=15)
        error = DimensionMismatch if case in BAD_DATA else DomainError
        train, test = {**BAD_DATA, **NON_FINITE_DATA}[case](X, y)
        config = p.TrainConfig(batch_size=10, epochs=1, learning_rate=0.01)
        with pytest.raises(error):
            p.sgd_train(train, truth, config, test_data=test)

    def test_batch_size_validated(self):
        line_set, neuron_map, truth = scalar_setup([1.0])
        X, y = p.generate_dataset(truth, 10, seed=15)
        config = p.TrainConfig(batch_size=50, epochs=1, learning_rate=0.01)
        with pytest.raises(ConfigError):
            p.sgd_train((X, y), truth, config)


def projected_reference(data, init_weights, config):
    """Projected SGD stepping the full d x k matrix: the whole gradient,
    then its component along each neuron's line.  Returns the final matrix
    and the per-epoch mean losses."""
    X, y = data
    n = X.shape[0]
    W = init_weights.matrix.copy()
    velocity = np.zeros_like(W)
    units = init_weights.line_set.unit_vectors[:, list(init_weights.neuron_map.assignment)]
    lr = config.learning_rate
    rng = np.random.default_rng(config.seed)
    step = 0
    trajectory = []
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        loss_sum = 0.0
        batches = 0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            Xb = X[idx]
            preact = Xb @ W
            residual = np.maximum(preact, 0.0).sum(axis=1) - y[idx]
            loss_sum += float(residual @ residual) / len(idx)
            batches += 1
            grad = (2.0 / len(idx)) * (Xb.T @ ((preact > 0.0) * residual[:, None]))
            grad = units * np.einsum("dk,dk->k", units, grad)[None, :]
            velocity = config.momentum * velocity + grad
            W = W - lr * velocity
            step += 1
            if config.decay_every_steps and step % config.decay_every_steps == 0:
                lr *= config.decay_rate
        trajectory.append(loss_sum / batches)
        if (
            config.early_stop_threshold is not None
            and len(trajectory) >= config.early_stop_window
            and float(np.mean(trajectory[-config.early_stop_window :]))
            < config.early_stop_threshold
        ):
            break
    return W, trajectory


def _random_lines_case(d, r, assignment, masses, truth_masses, n, seed):
    seq = np.random.SeedSequence(seed).spawn(3)
    line_set = p.random_line_set(d, r, seq[0])
    neuron_map = p.NeuronLineMap(len(assignment), tuple(assignment))
    truth = p.weights_from_masses(line_set, neuron_map, truth_masses)
    X, y = p.generate_dataset(truth, n, seq[1])
    return (X, y), p.weights_from_masses(line_set, neuron_map, masses)


def _trainer_case(name):
    """(data, init, config) of one named comparison case."""
    base = dict(batch_size=100, epochs=6, learning_rate=0.01, momentum=0.9, seed=40)
    if name == "matched_axes":
        rng = np.random.default_rng(41)
        line_set, neuron_map = p.axes_line_set(5), p.degree_one_map(5, 10)
        truth = p.weights_from_masses(line_set, neuron_map, rng.standard_normal(10))
        init = p.weights_from_masses(line_set, neuron_map, rng.standard_normal(10))
        return p.generate_dataset(truth, 1000, 42), init, p.TrainConfig(**base)
    if name == "two_per_line":
        seq = np.random.SeedSequence(43).spawn(3)
        _, _, truth = p.init_random_pnn(4, 3, seq[0])
        _, _, init = p.init_random_pnn(4, 5, seq[1])
        return p.generate_dataset(truth, 1000, seq[2]), init, p.TrainConfig(**base)
    if name == "three_and_one":
        data, init = _random_lines_case(
            3, 2, (0, 1, 0, 0), [0.4, -0.7, -0.2, 0.9], [1.0, 0.5, -1.5, 0.3], 1000, 44
        )
        return data, init, p.TrainConfig(**base)
    if name == "zero_mass":
        data, init = _random_lines_case(
            3, 3, (0, 0, 1, 1, 2, 2), [0.5, -0.5, 0.0, 0.3, -0.2, 0.6],
            [1.0, -1.0, 0.5, -0.5, 1.5, 0.2], 1000, 45,
        )
        return data, init, p.TrainConfig(**base)
    if name == "sign_change":
        line_set, neuron_map, truth = scalar_setup([1.0, 2.0])
        init = p.weights_from_masses(line_set, neuron_map, [0.5, -0.5])
        config = p.TrainConfig(**{**base, "learning_rate": 0.05, "epochs": 8})
        return p.generate_dataset(truth, 1000, 46), init, config
    if name == "ragged_batches":
        data, init = _random_lines_case(
            4, 3, (0, 1, 2, 0, 1, 2), [0.3, 0.2, -0.4, -0.3, 0.6, 0.1],
            [1.0, -0.8, 0.4, 0.7, -0.2, 0.9], 1050, 51,
        )
        return data, init, p.TrainConfig(**base)
    if name == "decay_and_early_stop":
        line_set, neuron_map, truth = scalar_setup([2.0, 3.0])
        init = p.weights_from_masses(line_set, neuron_map, [1.0, 1.5])
        config = p.TrainConfig(
            batch_size=100, epochs=60, learning_rate=0.01, momentum=0.9,
            decay_rate=0.9, decay_every_steps=50, early_stop_window=5,
            early_stop_threshold=1e-3, seed=48,
        )
        return p.generate_dataset(truth, 1000, 49), init, config
    raise KeyError(name)


TRAINER_CASES = [
    "matched_axes", "two_per_line", "three_and_one", "zero_mass",
    "sign_change", "ragged_batches", "decay_and_early_stop",
]


class TestLineCoordinateTrainer:
    @pytest.mark.parametrize("name", TRAINER_CASES)
    def test_matches_projected_matrix_loop(self, name):
        data, init, config = _trainer_case(name)
        got = p.sgd_train(data, init, config)
        want_matrix, want_trajectory = projected_reference(data, init, config)
        np.testing.assert_allclose(got.final_matrix, want_matrix, rtol=1e-12, atol=0)
        np.testing.assert_allclose(got.trajectory, want_trajectory, rtol=1e-12, atol=0)
        assert got.epochs_run == len(want_trajectory)
        assert got.final_signature == p.decompose_weights(got.final_weights())[1]
        assert got.line_feasibility_ok
        assert got.max_line_deviation <= 1e-12

    @pytest.mark.parametrize("name", TRAINER_CASES)
    def test_feasible_exactly_when_final_weights_construct(self, name):
        data, init, config = _trainer_case(name)
        result = p.sgd_train(data, init, config)
        try:
            result.final_weights()
            constructs = True
        except InfeasibleWeights:
            constructs = False
        assert result.line_feasibility_ok == constructs
        assert constructs

    def test_cases_cover_their_features(self):
        data, init, config = _trainer_case("zero_mass")
        result = p.sgd_train(data, init, config)
        assert not result.final_matrix[:, 2].any()
        assert result.final_signature.nonzero[1] == (False, True)

        data, init, config = _trainer_case("sign_change")
        final = p.sgd_train(data, init, config).final_matrix.ravel()
        assert init.matrix[0, 1] < 0.0 < final[1]

        data, init, config = _trainer_case("ragged_batches")
        assert data[0].shape[0] % config.batch_size != 0

        data, init, config = _trainer_case("decay_and_early_stop")
        result = p.sgd_train(data, init, config)
        assert result.epochs_run < config.epochs
        assert result.epochs_run * 10 > config.decay_every_steps

        data, init, config = _trainer_case("three_and_one")
        assert init.neuron_map.neurons_on_line(0) == (0, 2, 3)


class TestClassifyOutcome:
    def test_small_loss_is_global(self):
        line_set, neuron_map, truth = scalar_setup([2.0, 3.0])
        X, y = p.generate_dataset(truth, 1000, seed=16)
        config = p.TrainConfig(
            batch_size=100, epochs=60, learning_rate=0.01, momentum=0.9,
            early_stop_window=10, early_stop_threshold=1e-7, seed=17,
        )
        init = p.weights_from_masses(line_set, neuron_map, [1.0, 1.0])
        result = p.sgd_train((X, y), init, config)
        report = p.classify_outcome(result, truth, tol=1e-5)
        assert report.outcome == p.GLOBAL

    @staticmethod
    def _trapped_run():
        line_set, neuron_map, truth = scalar_setup([6.0, -4.0])
        X, y = p.generate_dataset(truth, 2000, seed=18)
        init = p.weights_from_masses(line_set, neuron_map, [3.0, 3.0])
        config = p.TrainConfig(
            batch_size=100, epochs=150, learning_rate=0.01, momentum=0.9,
            decay_rate=0.9, decay_every_steps=200, seed=19,
        )
        return p.sgd_train((X, y), init, config), truth

    def test_trapped_run_is_bad_local(self):
        result, truth = self._trapped_run()
        report = p.classify_outcome(result, truth, tol=1e-5, stationarity_tol=0.05)
        assert report.outcome == p.BAD_LOCAL
        assert report.violated_lines >= 1
        assert not report.region_condition_ok

    def test_bad_local_label_does_not_call_the_gradient_oracle(self, monkeypatch):
        # The label reads the line-coordinate gradient; the d-space
        # analytic_gradient is an oracle for tests and benchmarks only.
        def oracle_only(*args):
            raise AssertionError("analytic_gradient is an oracle")

        monkeypatch.setattr(p.landscape, "analytic_gradient", oracle_only)
        result, truth = self._trapped_run()
        report = p.classify_outcome(result, truth, tol=1e-5, stationarity_tol=0.05)
        assert report.outcome == p.BAD_LOCAL

    @staticmethod
    def _scalar_run(init_scales, epochs):
        # Target 6, -4 on one line; 3, 3 starts on a bad stationary point.
        line_set, neuron_map, truth = scalar_setup([6.0, -4.0])
        X, y = p.generate_dataset(truth, 2000, seed=18)
        init = p.weights_from_masses(line_set, neuron_map, init_scales)
        config = p.TrainConfig(
            batch_size=100, epochs=epochs, learning_rate=0.01, momentum=0.9, seed=19,
        )
        return p.sgd_train((X, y), init, config), truth

    @pytest.mark.parametrize("init_scales, epochs, outcome, stationary", [
        ([7.0, -5.0], 20, p.GLOBAL, None),
        ([3.0, 3.0], 1, p.BAD_LOCAL, True),
        # One epoch from near the optimum: feasible, no zero scalar, still moving.
        ([7.0, -5.0], 1, p.NOT_CONVERGED, False),
        # A zero scalar stays zero, so no line gradient is checked.
        ([3.0, 0.0], 1, p.NOT_CONVERGED, None),
    ], ids=["global", "bad_local", "moving", "zero_scalar"])
    def test_outcome_and_stationary_pairs(self, init_scales, epochs, outcome, stationary):
        result, truth = self._scalar_run(init_scales, epochs)
        report = p.classify_outcome(result, truth, tol=1e-5, stationarity_tol=0.05)
        assert (report.outcome, report.stationary) == (outcome, stationary)

    def test_run_within_tol_skips_the_stationarity_check(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return p.stationarity_check(*args, **kwargs)

        monkeypatch.setattr(trainer, "stationarity_check", counted)
        result, truth = self._scalar_run([7.0, -5.0], 20)
        assert p.classify_outcome(result, truth, tol=1e-5).outcome == p.GLOBAL
        assert calls == []
        result, truth = self._scalar_run([3.0, 3.0], 1)
        assert p.classify_outcome(result, truth, tol=1e-5).outcome == p.BAD_LOCAL
        assert len(calls) == 1

    @pytest.mark.parametrize("value, error", [
        (float("nan"), DomainError), (float("inf"), DomainError),
        (-1.0, ParameterOutOfRange),
    ])
    @pytest.mark.parametrize("name", ["tol", "stationarity_tol"])
    def test_bad_thresholds_rejected(self, name, value, error):
        line_set, neuron_map, truth = scalar_setup([2.0, 3.0])
        X, y = p.generate_dataset(truth, 200, seed=20)
        init = p.weights_from_masses(line_set, neuron_map, [1.0, 1.0])
        config = p.TrainConfig(batch_size=100, epochs=1, learning_rate=0.01, seed=21)
        result = p.sgd_train((X, y), init, config)
        with pytest.raises(error):
            p.classify_outcome(result, truth, **{name: value})


class TestMatchedExperiment:
    def test_more_neurons_help_and_outcomes_consistent(self):
        config = p.TrainConfig(
            batch_size=100, epochs=100, learning_rate=0.01, momentum=0.9,
            decay_rate=0.95, decay_every_steps=390,
            early_stop_window=10, early_stop_threshold=1e-6, seed=42,
        )
        narrow = p.experiment_matched_degree_one(5, 10, 12, config, n_train=1500)
        wide = p.experiment_matched_degree_one(5, 50, 12, config, n_train=1500)
        assert wide.fraction_global > narrow.fraction_global
        for summary in (narrow, wide):
            for trial in summary.trials:
                if trial.outcome == p.GLOBAL:
                    assert trial.final_train_loss <= 1e-5
                else:
                    # matched bad locals violate the mixed-orientation rule
                    assert trial.violated_lines >= 1 or trial.outcome == p.NOT_CONVERGED

    def test_deterministic_summary(self):
        config = p.TrainConfig(
            batch_size=100, epochs=10, learning_rate=0.01, momentum=0.9, seed=7,
        )
        a = p.experiment_matched_degree_one(3, 6, 3, config, n_train=600)
        b = p.experiment_matched_degree_one(3, 6, 3, config, n_train=600)
        assert a == b

    def test_requires_divisible_width(self):
        with pytest.raises(ConfigError):
            p.degree_one_map(4, 6)

    @pytest.mark.parametrize("trials", [0, -1])
    def test_no_trials_rejected_before_data_is_drawn(self, trials, monkeypatch):
        calls = []
        monkeypatch.setattr(trainer, "generate_dataset", lambda *a: calls.append(a))
        config = p.TrainConfig(batch_size=10, epochs=1, learning_rate=1e-3)
        with pytest.raises(ParameterOutOfRange):
            p.experiment_matched_degree_one(2, 4, trials, config)
        assert calls == []

    @pytest.mark.parametrize("d, k", [(0, 3), (0, 0), (-2, 4), (3, -3)])
    def test_degree_one_map_needs_positive_sizes(self, d, k):
        with pytest.raises(ParameterOutOfRange):
            p.degree_one_map(d, k)


class TestMismatchedExperiment:
    def test_runs_and_reports(self):
        config = p.TrainConfig(
            batch_size=100, epochs=15, learning_rate=1e-3, seed=3,
        )
        summary = p.experiment_mismatched_random(
            6, 8, [4, 8], trials=2, config=config, inits_per_trial=2,
            n_train=1200, n_test=1200,
        )
        assert len(summary.runs) == 8
        for run in summary.runs:
            assert run.feasibility_ok
            assert run.normalized_test_mse >= 0.0
        medians = summary.per_k()
        assert set(medians) == {4, 8}

    def test_deterministic_summary(self):
        # A mismatched run has no gap (None, not NaN), so equal runs compare equal.
        config = p.TrainConfig(batch_size=50, epochs=3, learning_rate=1e-3, seed=5)
        a, b = (p.experiment_mismatched_random(3, 4, [2, 4], 2, config, 2, 200, 200)
                for _ in range(2))
        assert a == b
        assert all(run.gap_frobenius_sq is None for run in a.runs)

    def test_outcome_is_the_region_condition(self):
        config = p.TrainConfig(batch_size=50, epochs=3, learning_rate=1e-3, seed=5)
        summary = p.experiment_mismatched_random(3, 4, [2, 4, 8], 2, config, 3, 200, 200)
        outcomes = {run.outcome for run in summary.runs}
        assert outcomes == {p.GOOD_REGION, p.MAY_HAVE_BAD_LOCAL}
        for run in summary.runs:
            assert (run.outcome == p.GOOD_REGION) == run.region_condition_ok

    @pytest.mark.parametrize("k_list, trials, inits", [
        ([4], 0, 1), ([4], -1, 1), ([4], 1, 0), ([4], 1, -2), ([], 1, 1),
    ], ids=["no-trials", "negative-trials", "no-inits", "negative-inits", "no-k"])
    def test_no_runs_rejected_before_data_is_drawn(self, k_list, trials, inits, monkeypatch):
        calls = []
        monkeypatch.setattr(trainer, "generate_dataset", lambda *a: calls.append(a))
        config = p.TrainConfig(batch_size=10, epochs=1, learning_rate=1e-3)
        with pytest.raises(ParameterOutOfRange):
            p.experiment_mismatched_random(3, 4, k_list, trials, config, inits, 100, 100)
        assert calls == []

    def test_rejects_odd_widths(self):
        config = p.TrainConfig(batch_size=10, epochs=1, learning_rate=1e-3)
        with pytest.raises(ConfigError):
            p.experiment_mismatched_random(3, 4, [3], 1, config, 1, 100, 100)
