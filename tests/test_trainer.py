"""Data generation, projected SGD, outcome classification, experiments."""

import numpy as np
import pytest

import porcupine as p
from porcupine.errors import ConfigError, Diverged


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
        result = p.sgd_train((X, y), init, config, projection=True)
        assert result.line_feasibility_ok
        assert result.max_line_deviation <= 1e-6
        units = init.line_set.unit_vectors[:, list(init.neuron_map.assignment)]
        residual = result.final_matrix - units * np.einsum(
            "dk,dk->k", units, result.final_matrix
        )
        assert np.max(np.linalg.norm(residual, axis=0)) <= 1e-6

    def test_unprojected_run_leaves_lines(self):
        seq = np.random.SeedSequence(99).spawn(3)
        _, _, truth = p.init_random_pnn(4, 3, seq[0])
        X, y = p.generate_dataset(truth, 2000, seq[1])
        _, _, init = p.init_random_pnn(4, 5, seq[2])
        config = p.TrainConfig(batch_size=100, epochs=20, learning_rate=0.01, seed=10)
        result = p.sgd_train((X, y), init, config, projection=False)
        assert not result.line_feasibility_ok

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

    def test_batch_size_validated(self):
        line_set, neuron_map, truth = scalar_setup([1.0])
        X, y = p.generate_dataset(truth, 10, seed=15)
        config = p.TrainConfig(batch_size=50, epochs=1, learning_rate=0.01)
        with pytest.raises(ConfigError):
            p.sgd_train((X, y), truth, config)


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

    def test_trapped_run_is_bad_local(self):
        line_set, neuron_map, truth = scalar_setup([6.0, -4.0])
        X, y = p.generate_dataset(truth, 2000, seed=18)
        init = p.weights_from_masses(line_set, neuron_map, [3.0, 3.0])
        config = p.TrainConfig(
            batch_size=100, epochs=150, learning_rate=0.01, momentum=0.9,
            decay_rate=0.9, decay_every_steps=200, seed=19,
        )
        result = p.sgd_train((X, y), init, config)
        report = p.classify_outcome(result, truth, tol=1e-5, stationarity_tol=0.05)
        assert report.outcome == p.BAD_LOCAL
        assert report.violated_lines >= 1
        assert not report.region_condition_ok


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

    def test_rejects_odd_widths(self):
        config = p.TrainConfig(batch_size=10, epochs=1, learning_rate=1e-3)
        with pytest.raises(ConfigError):
            p.experiment_mismatched_random(3, 4, [3], 1, config, 1, 100, 100)
