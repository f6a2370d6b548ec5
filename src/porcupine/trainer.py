"""Synthetic data generation, SGD training of porcupine networks, experiments.

Training minimizes the empirical squared error of a two-layer relu
porcupine network on data generated by a ground-truth network.  Every
neuron stays on its assigned line throughout: its gradient is projected
onto the line before the update, so a run trains the neurons' signed
scalars along their lines, one number per neuron.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from ._checks import count, finite_array, real
from ._seeds import as_seed_sequence
from .errors import ConfigError, DimensionMismatch, Diverged
from .landscape import region_condition, stationarity_check
from .lines import (
    LineSet,
    NeuronLineMap,
    PNNWeights,
    RegionSignature,
    _line_coordinates,
    _off_line,
    _signature,
    axes_line_set,
    random_line_set,
    weights_from_masses,
)
from .risk import network_output

GLOBAL = "Global"
BAD_LOCAL = "BadLocal"
NOT_CONVERGED = "NotConverged"


@dataclass(frozen=True)
class TrainConfig:
    """Mini-batch SGD hyperparameters.

    ``decay_every_steps`` counts optimizer steps (mini-batches), not
    epochs; 0 disables decay.  Early stopping fires when the mean epoch
    loss over the trailing ``early_stop_window`` epochs drops below
    ``early_stop_threshold`` (None disables it).
    """

    batch_size: int = 100
    epochs: int = 100
    learning_rate: float = 0.01
    momentum: float = 0.0
    decay_rate: float = 1.0
    decay_every_steps: int = 0
    early_stop_window: int = 10
    early_stop_threshold: float | None = None
    seed: int = 0

    def __post_init__(self):
        # Every ordered comparison below is False for NaN: check finiteness first.
        for field in fields(self):
            value = getattr(self, field.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError("%s must be finite, got %r" % (field.name, value))
        if self.batch_size < 1 or self.epochs < 1:
            raise ConfigError("batch_size and epochs must be positive")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError("momentum must lie in [0, 1)")
        if self.decay_rate <= 0:
            raise ConfigError("decay_rate must be positive")
        if self.decay_every_steps < 0:
            raise ConfigError("decay_every_steps must be >= 0")
        if self.early_stop_window < 1:
            raise ConfigError("early_stop_window must be positive")
        if self.early_stop_threshold is not None and self.early_stop_threshold <= 0:
            raise ConfigError("early_stop_threshold must be positive when set")


def desk_matched_config(seed: int = 0) -> TrainConfig:
    """Desk-scale defaults for matched runs (shrunk from the full protocol)."""
    return TrainConfig(
        batch_size=100,
        epochs=200,
        learning_rate=0.01,
        momentum=0.9,
        decay_rate=0.95,
        decay_every_steps=390,
        early_stop_window=10,
        early_stop_threshold=1e-5,
        seed=seed,
    )


def desk_mismatched_config(seed: int = 0) -> TrainConfig:
    """Defaults for mismatched runs, desk and full scale alike (the full
    protocol pairs them with 10000-sample datasets)."""
    return TrainConfig(
        batch_size=100,
        epochs=100,
        learning_rate=1e-3,
        momentum=0.0,
        decay_rate=0.95,
        decay_every_steps=390,
        early_stop_window=10,
        early_stop_threshold=None,
        seed=seed,
    )


@dataclass(frozen=True, eq=False)
class TrainResult:
    """Final state and per-epoch mean losses (``trajectory``) of one run.

    ``final_matrix`` is the trained scalars times their lines' unit
    vectors.  ``max_line_deviation`` is the largest distance of a final
    column from its assigned line, measured once on ``final_matrix``;
    ``line_feasibility_ok`` says every column passes the PNNWeights rule,
    so ``final_weights()`` constructs exactly when it is True.  Trained
    runs keep their columns on their lines; a hand-built result need not.
    """

    final_train_loss: float
    final_test_loss_normalized: float
    epochs_run: int
    final_signature: RegionSignature
    line_feasibility_ok: bool
    max_line_deviation: float
    trajectory: tuple
    final_matrix: np.ndarray
    line_set: LineSet
    neuron_map: NeuronLineMap

    def final_weights(self) -> PNNWeights:
        """Final matrix as a porcupine network (requires feasibility)."""
        return PNNWeights(
            matrix=self.final_matrix,
            line_set=self.line_set,
            neuron_map=self.neuron_map,
        )


def generate_dataset(w_star, n: int, seed):
    """``n`` pairs ``(x, h(x; W*))`` with standard Gaussian inputs."""
    n = count(n, "n")
    if isinstance(w_star, PNNWeights):
        W = w_star.matrix
    else:
        W = finite_array(w_star, "target weights", (None, None))
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, W.shape[0]))
    return X, network_output(X, W)


def init_random_pnn(d: int, r: int, seed):
    """Random porcupine initialization with two neurons per line.

    Draws ``r`` uniform lines; on each line one neuron gets a Uniform(0,1)
    scale and the other a Uniform(-1,0) scale, so every line starts with
    both orientations present.
    """
    seq = as_seed_sequence(seed).spawn(2)
    line_set = random_line_set(d, r, seq[0])
    rng = np.random.default_rng(seq[1])
    assignment = tuple(np.repeat(np.arange(r), 2))
    neuron_map = NeuronLineMap(num_neurons=2 * r, assignment=assignment)
    scales = np.empty(2 * r)
    scales[0::2] = rng.uniform(0.0, 1.0, size=r)
    scales[1::2] = rng.uniform(-1.0, 0.0, size=r)
    return line_set, neuron_map, weights_from_masses(line_set, neuron_map, scales)


def _checked_data(data, dim: int, name: str):
    """``(X, y)`` as finite float arrays of shapes ``(n, dim)`` and ``(n,)``."""
    try:
        X, y = data
    except (TypeError, ValueError):
        raise DimensionMismatch("%s data must be an (X, y) pair" % name) from None
    X = finite_array(X, name + " inputs", (None, dim))
    return X, finite_array(y, name + " targets", (X.shape[0],))


def _train_line_coordinates(X, y, init_weights: PNNWeights, config: TrainConfig):
    """SGD on the signed scalars ``c`` of ``W = units diag(c)``.

    With ``z = X u`` for a line ``u``, ``relu(c z) = max(c, 0) relu(z) +
    min(c, 0) min(z, 0)``.  One table ``Q = [relu(X U), min(X U, 0)]``
    (n x 2r, U the line set's unit vectors) therefore serves every step:
    a batch's output is ``Q[idx] @ mass``, where ``mass`` sums the signed
    scalars of the neurons on each line and half (column ``line`` for
    c >= 0, ``line + r`` for c < 0), and neuron ``j``'s gradient is the
    residual's product with its column, zero when ``c_j = 0``.  This is
    the d-space gradient projected on the neuron's line.

    Returns the final scalars and the per-epoch mean losses.  Raises
    Diverged as soon as the running loss of an epoch stops being finite,
    and when the last step leaves a scalar non-finite.
    """
    U = init_weights.line_set.unit_vectors
    n, r = X.shape[0], U.shape[1]
    Q = np.empty((n, 2 * r))
    np.matmul(X, U, out=Q[:, :r])
    np.minimum(Q[:, :r], 0.0, out=Q[:, r:])
    np.maximum(Q[:, :r], 0.0, out=Q[:, :r])
    line = np.asarray(init_weights.neuron_map.assignment)
    shifted = line + r
    c = init_weights.scales
    velocity = np.zeros_like(c)
    momentum = config.momentum
    lr = config.learning_rate
    rng = np.random.default_rng(config.seed)
    steps = 0
    trajectory: list[float] = []
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        loss_sum = 0.0
        batches = 0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            Qb = Q.take(idx, axis=0)
            col = np.where(c < 0.0, shifted, line)
            mass = np.bincount(col, weights=c, minlength=2 * r)
            residual = Qb @ mass - y[idx]
            grad = (2.0 / len(idx)) * (residual @ Qb)[col] * (c != 0.0)
            velocity = momentum * velocity + grad
            c = c - lr * velocity
            loss_sum += float(residual @ residual) / len(idx)
            batches += 1
            if not math.isfinite(loss_sum):
                raise Diverged(
                    "training loss became non-finite at epoch %d, step %d"
                    % (epoch, steps)
                )
            steps += 1
            if config.decay_every_steps and steps % config.decay_every_steps == 0:
                lr *= config.decay_rate
        trajectory.append(loss_sum / batches)
        if (
            config.early_stop_threshold is not None
            and len(trajectory) >= config.early_stop_window
            and float(np.mean(trajectory[-config.early_stop_window :]))
            < config.early_stop_threshold
        ):
            break
    if not np.isfinite(c).all():
        raise Diverged(
            "training scalars became non-finite at epoch %d, step %d"
            % (epoch, steps - 1)
        )
    return c, trajectory


def sgd_train(
    data,
    init_weights: PNNWeights,
    config: TrainConfig,
    test_data=None,
) -> TrainResult:
    """Mini-batch SGD with momentum on the empirical squared error of a
    porcupine network.

    Each neuron's gradient is its d-space gradient projected on the
    neuron's line, so the run trains the neurons' signed scalars on their
    lines (the start point is the init's scalars).  The relu subgradient at
    exactly zero is taken to be zero.  ``data`` and ``test_data`` are
    ``(X, y)`` pairs with X of shape ``(n, d)`` and y of shape ``(n,)``;
    other shapes raise DimensionMismatch.  Returns the last state (no
    best-iterate selection), with per-epoch mean losses recorded.  Raises
    Diverged after the first batch whose loss makes the epoch's running
    loss non-finite, or when the final scalars are non-finite.  The final
    matrix is read on its lines once: each neuron's orientation is the
    sign of its scalar there, and ``max_line_deviation`` and
    ``line_feasibility_ok`` come from the residuals.
    """
    dim = init_weights.line_set.dim
    X, y = _checked_data(data, dim, "training")
    if test_data is not None:
        X_test, y_test = _checked_data(test_data, dim, "test")
    n = X.shape[0]
    if n == 0:
        raise ConfigError("training data is empty")
    if config.batch_size > n:
        raise ConfigError("batch_size %d exceeds n=%d" % (config.batch_size, n))
    c, trajectory = _train_line_coordinates(X, y, init_weights, config)
    units = init_weights.line_set.unit_vectors[:, list(init_weights.neuron_map.assignment)]
    W = units * c[None, :]
    scales, norms, residuals = _line_coordinates(W, units)

    if test_data is not None:
        errors = network_output(X_test, W) - y_test
        denom = float(y_test @ y_test)
        normalized = float(errors @ errors) / denom if denom > 0 else float("nan")
    else:
        normalized = float("nan")

    return TrainResult(
        final_train_loss=trajectory[-1],
        final_test_loss_normalized=normalized,
        epochs_run=len(trajectory),
        final_signature=_signature(scales, norms, init_weights.neuron_map),
        line_feasibility_ok=not _off_line(norms, residuals).any(),
        max_line_deviation=float(np.max(residuals)),
        trajectory=tuple(trajectory),
        final_matrix=W,
        line_set=init_weights.line_set,
        neuron_map=init_weights.neuron_map,
    )


@dataclass(frozen=True)
class OutcomeReport:
    outcome: str
    region_condition_ok: bool
    stationary: bool | None
    violated_lines: int


def classify_outcome(
    result: TrainResult,
    w_star: PNNWeights,
    tol: float = 1e-5,
    stationarity_tol: float = 1e-2,
) -> OutcomeReport:
    """Label a matched run as Global, BadLocal, or NotConverged.

    Global when the final training loss is within ``tol`` of zero;
    BadLocal when the population risk's gradient along every neuron's
    line vanishes (within ``stationarity_tol``) at a loss above ``tol``;
    NotConverged otherwise.  The report also flags whether the final
    signature satisfies the mixed-orientation condition and counts the
    single-orientation lines.  A non-finite threshold raises DomainError,
    a negative one ParameterOutOfRange.
    """
    tol = real(tol, "tol", 0.0)
    stationarity_tol = real(stationarity_tol, "stationarity_tol", 0.0)
    signature = result.final_signature
    condition = region_condition(signature, result.line_set.dim)
    violated = signature.single_orientation_count
    if result.final_train_loss <= tol:
        return OutcomeReport(
            outcome=GLOBAL,
            region_condition_ok=condition,
            stationary=None,
            violated_lines=violated,
        )
    stationary = None
    if result.line_feasibility_ok and all(map(all, signature.nonzero)):
        stationary = stationarity_check(
            result.final_weights(), w_star, tol=stationarity_tol
        )
    if stationary:
        return OutcomeReport(
            outcome=BAD_LOCAL,
            region_condition_ok=condition,
            stationary=True,
            violated_lines=violated,
        )
    return OutcomeReport(
        outcome=NOT_CONVERGED,
        region_condition_ok=condition,
        stationary=stationary,
        violated_lines=violated,
    )


def degree_one_map(d: int, k: int) -> NeuronLineMap:
    """Assign ``k`` neurons evenly to ``d`` axes (k divisible by d)."""
    d, k = count(d, "d"), count(k, "k")
    if k % d != 0:
        raise ConfigError("k=%d is not divisible by d=%d" % (k, d))
    per = k // d
    return NeuronLineMap(num_neurons=k, assignment=tuple(np.repeat(np.arange(d), per)))


@dataclass(frozen=True)
class MatchedTrial:
    trial: int
    seed: int
    outcome: str
    final_train_loss: float
    normalized_test_mse: float
    gap_frobenius_sq: float
    epochs_run: int
    region_condition_ok: bool
    violated_lines: int


@dataclass(frozen=True)
class MatchedSummary:
    d: int
    k: int
    fraction_global: float
    trials: tuple


def experiment_matched_degree_one(
    d: int,
    k: int,
    trials: int,
    config: TrainConfig,
    n_train: int = 2000,
    n_test: int = 1000,
) -> MatchedSummary:
    """Matched runs on a degree-one network: learn the architecture that
    generated the data, report how often training reaches a global optimum
    and the per-trial gap between learned and true weights."""
    trials = count(trials, "trials")
    n_train, n_test = count(n_train, "n_train"), count(n_test, "n_test")
    line_set = axes_line_set(d)
    neuron_map = degree_one_map(d, k)
    rows = []
    global_count = 0
    for trial in range(trials):
        seq = np.random.SeedSequence((config.seed, trial))
        s_data, s_truth, s_init, s_train = seq.spawn(4)
        truth_scales = np.random.default_rng(s_truth).standard_normal(k)
        truth = weights_from_masses(line_set, neuron_map, truth_scales)
        X, y = generate_dataset(truth, n_train + n_test, s_data)
        init_scales = np.random.default_rng(s_init).standard_normal(k)
        init = weights_from_masses(line_set, neuron_map, init_scales)
        trial_config = replace(
            config, seed=int(np.random.default_rng(s_train).integers(2**31))
        )
        result = sgd_train(
            (X[:n_train], y[:n_train]),
            init,
            trial_config,
            test_data=(X[n_train:], y[n_train:]),
        )
        report = classify_outcome(result, truth)
        if report.outcome == GLOBAL:
            global_count += 1
        gap = float(np.linalg.norm(result.final_matrix - truth.matrix) ** 2)
        rows.append(
            MatchedTrial(
                trial=trial,
                seed=trial_config.seed,
                outcome=report.outcome,
                final_train_loss=result.final_train_loss,
                normalized_test_mse=result.final_test_loss_normalized,
                gap_frobenius_sq=gap,
                epochs_run=result.epochs_run,
                region_condition_ok=report.region_condition_ok,
                violated_lines=report.violated_lines,
            )
        )
    return MatchedSummary(
        d=d, k=k, fraction_global=global_count / trials, trials=tuple(rows)
    )


@dataclass(frozen=True)
class MismatchedRun:
    k: int
    trial: int
    init: int
    seed: int
    epochs_run: int
    final_train_loss: float
    normalized_test_mse: float
    feasibility_ok: bool
    region_condition_ok: bool
    violated_lines: int


@dataclass(frozen=True)
class MismatchedSummary:
    d: int
    k_star: int
    runs: tuple

    def per_k(self) -> dict:
        """Median held-out normalized error per width ``k``."""
        values: dict[int, list[float]] = {}
        for run in self.runs:
            values.setdefault(run.k, []).append(run.normalized_test_mse)
        return {k: float(np.median(v)) for k, v in sorted(values.items())}


def experiment_mismatched_random(
    d: int,
    k_star: int,
    k_list,
    trials: int,
    config: TrainConfig,
    inits_per_trial: int = 10,
    n_train: int = 4000,
    n_test: int = 4000,
) -> MismatchedSummary:
    """Approximate an unconstrained network with random porcupine networks.

    Per trial, data comes from an unconstrained two-layer network with
    ``k_star`` neurons (columns i.i.d. Gaussian with variance 1/d); for
    every ``k`` in ``k_list`` and every initialization, a fresh random
    porcupine network with ``k/2`` lines and two neurons per line is
    trained with SGD on its line scalars, and the held-out normalized squared error
    is recorded.
    """
    d, k_star, trials = count(d, "d"), count(k_star, "k_star"), count(trials, "trials")
    inits_per_trial = count(inits_per_trial, "inits_per_trial")
    n_train, n_test = count(n_train, "n_train"), count(n_test, "n_test")
    k_list = [count(k, "k") for k in k_list]
    count(len(k_list), "number of k values")
    if any(k % 2 for k in k_list):
        raise ConfigError("k values must be even (two neurons per line)")
    runs = []
    for trial in range(trials):
        seq = np.random.SeedSequence((config.seed, trial)).spawn(3)
        rng = np.random.default_rng(seq[0])
        truth_matrix = rng.standard_normal((d, k_star)) / np.sqrt(d)
        X, y = generate_dataset(truth_matrix, n_train + n_test, seq[1])
        train = (X[:n_train], y[:n_train])
        test = (X[n_train:], y[n_train:])
        for k in k_list:
            for init_index in range(inits_per_trial):
                init_seq = np.random.SeedSequence(
                    (config.seed, trial, k, init_index)
                )
                init_seed, train_seed = init_seq.spawn(2)
                _, _, init = init_random_pnn(d, k // 2, init_seed)
                run_seed = int(np.random.default_rng(train_seed).integers(2**31))
                run_config = replace(config, seed=run_seed)
                result = sgd_train(train, init, run_config, test_data=test)
                signature = result.final_signature
                runs.append(
                    MismatchedRun(
                        k=k,
                        trial=trial,
                        init=init_index,
                        seed=run_seed,
                        epochs_run=result.epochs_run,
                        final_train_loss=result.final_train_loss,
                        normalized_test_mse=result.final_test_loss_normalized,
                        feasibility_ok=result.line_feasibility_ok,
                        region_condition_ok=region_condition(signature, d),
                        violated_lines=signature.single_orientation_count,
                    )
                )
    return MismatchedSummary(d=d, k_star=k_star, runs=tuple(runs))
