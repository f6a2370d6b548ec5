"""Synthetic data generation, SGD training of porcupine networks, experiments.

Training minimizes the empirical squared error of a two-layer relu
porcupine network on data generated by a ground-truth network.  Every
neuron stays on its assigned line throughout: its gradient is projected
onto the line before the update, so a run trains the neurons' signed
scalars along their lines, one number per neuron.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._checks import count, finite_array, real, seed_sequence
from .errors import ConfigError, DimensionMismatch, Diverged
from .landscape import GOOD_REGION, classify_region, region_condition, stationarity_check
from .lines import (
    LineSet,
    NeuronLineMap,
    PNNWeights,
    RegionSignature,
    _signature,
    _weight_matrix,
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
        # Checked, not converted: the frozen fields keep the values given.
        for name in ("batch_size", "epochs", "early_stop_window"):
            count(getattr(self, name), name, error=ConfigError)
        count(self.decay_every_steps, "decay_every_steps", 0, error=ConfigError)
        count(self.seed, "seed", 0, error=ConfigError)
        for name in ("learning_rate", "decay_rate"):
            real(getattr(self, name), name, 0.0, open_low=True, error=ConfigError)
        if self.early_stop_threshold is not None:
            real(self.early_stop_threshold, "early_stop_threshold", 0.0, open_low=True,
                 error=ConfigError)
        if real(self.momentum, "momentum", 0.0, error=ConfigError) >= 1.0:
            raise ConfigError("momentum must lie in [0, 1), got %r" % self.momentum)


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

    The trained scalars ``final_scalars`` are the result: ``final_matrix``,
    ``final_weights()`` and ``final_signature`` derive from them, so a
    result off its lines cannot be represented.  The normalized test loss
    is NaN without test data and when every test target is zero.
    ``line_feasibility_ok`` is True for every result sgd_train returns and
    nothing under ``src/`` reads it; the benchmark's feasibility watch
    does, and it goes with the benchmark's next change (ROADMAP item 1).
    """

    final_train_loss: float
    final_test_loss_normalized: float
    epochs_run: int
    final_signature: RegionSignature
    trajectory: tuple
    final_scalars: np.ndarray
    line_set: LineSet
    neuron_map: NeuronLineMap
    line_feasibility_ok: bool = True

    @property
    def final_matrix(self) -> np.ndarray:
        """The trained scalars times their lines' unit vectors."""
        return self.line_set.unit_vectors[:, list(self.neuron_map.assignment)] * self.final_scalars

    def final_weights(self) -> PNNWeights:
        """The final network as a porcupine network."""
        return weights_from_masses(self.line_set, self.neuron_map, self.final_scalars)


def generate_dataset(w_star, n: int, seed):
    """``n`` pairs ``(x, h(x; W*))`` with standard Gaussian inputs."""
    n = count(n, "n")
    W = _weight_matrix(w_star, "target weights")
    rng = np.random.default_rng(seed_sequence(seed, "seed"))
    X = rng.standard_normal((n, W.shape[0]))
    return X, network_output(X, W)


def init_random_pnn(d: int, r: int, seed) -> PNNWeights:
    """Random porcupine network with two neurons per line.

    Draws ``r`` uniform lines; on each line one neuron gets a Uniform(0,1)
    scale and the other a Uniform(-1,0) scale, so every line starts with
    both orientations present.
    """
    seq = seed_sequence(seed, "seed").spawn(2)
    line_set = random_line_set(d, r, seq[0])
    rng = np.random.default_rng(seq[1])
    assignment = tuple(np.repeat(np.arange(r), 2))
    neuron_map = NeuronLineMap(num_neurons=2 * r, assignment=assignment)
    scales = np.empty(2 * r)
    scales[0::2] = rng.uniform(0.0, 1.0, size=r)
    scales[1::2] = rng.uniform(-1.0, 0.0, size=r)
    return weights_from_masses(line_set, neuron_map, scales)


def _checked_data(data, dim: int, name: str):
    """``(X, y)`` as finite float arrays of shapes ``(n, dim)`` and ``(n,)``, n > 0."""
    try:
        X, y = data
    except (TypeError, ValueError):
        raise DimensionMismatch("%s data must be an (X, y) pair" % name) from None
    X = finite_array(X, name + " inputs", (None, dim))
    y = finite_array(y, name + " targets", (X.shape[0],))
    if X.shape[0] == 0:
        raise ConfigError("%s data is empty" % name)
    return X, y


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
    other shapes raise DimensionMismatch, and no rows ConfigError.  Returns
    the last scalars (no best-iterate selection), with per-epoch mean
    losses recorded; each neuron's orientation is the sign of its scalar.
    Raises Diverged after the first batch whose loss makes the epoch's
    running loss non-finite, or when the final scalars are non-finite.
    """
    dim = init_weights.line_set.dim
    X, y = _checked_data(data, dim, "training")
    if test_data is not None:
        X_test, y_test = _checked_data(test_data, dim, "test")
    if config.batch_size > X.shape[0]:
        raise ConfigError("batch_size %d exceeds n=%d" % (config.batch_size, X.shape[0]))
    c, trajectory = _train_line_coordinates(X, y, init_weights, config)
    normalized = float("nan")
    if test_data is not None:
        W = init_weights.line_set.unit_vectors[:, list(init_weights.neuron_map.assignment)] * c
        errors = network_output(X_test, W) - y_test
        denom = float(y_test @ y_test)
        if denom > 0:
            normalized = float(errors @ errors) / denom
    return TrainResult(
        final_train_loss=trajectory[-1],
        final_test_loss_normalized=normalized,
        epochs_run=len(trajectory),
        final_signature=_signature(c, np.abs(c), init_weights.neuron_map),
        trajectory=tuple(trajectory),
        final_scalars=c,
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
    NotConverged otherwise.  The gradient is read at the final scalars and
    only when none is zero; a run with a zero scalar is NotConverged with
    ``stationary`` None.  The report also flags whether the final
    signature satisfies the mixed-orientation condition and counts the
    single-orientation lines.  A non-finite threshold raises DomainError,
    a negative one ParameterOutOfRange.
    """
    tol = real(tol, "tol", 0.0)
    stationarity_tol = real(stationarity_tol, "stationarity_tol", 0.0)
    signature = result.final_signature
    stationary = None
    if result.final_train_loss <= tol:
        outcome = GLOBAL
    else:
        if all(map(all, signature.nonzero)):
            stationary = stationarity_check(result.final_weights(), w_star, tol=stationarity_tol)
        outcome = BAD_LOCAL if stationary else NOT_CONVERGED
    return OutcomeReport(
        outcome=outcome,
        region_condition_ok=region_condition(signature, result.line_set.dim),
        stationary=stationary,
        violated_lines=signature.single_orientation_count,
    )


@dataclass(frozen=True)
class TrainRun:
    """One experiment run: its width ``k``, trial, initialization index
    (0 for a matched run) and training seed, its label, losses and final
    region, read off its final scalars.  A matched run's ``outcome`` comes
    from classify_outcome and ``gap_frobenius_sq`` is its squared distance
    from the target; a mismatched run's target is no porcupine network, so
    its ``outcome`` is GoodRegion or MayHaveBadLocal and its gap is None."""

    k: int
    trial: int
    init: int
    seed: int
    outcome: str
    final_train_loss: float
    normalized_test_mse: float
    gap_frobenius_sq: float | None
    epochs_run: int
    region_condition_ok: bool
    violated_lines: int


def _seeded_run(data, n_train: int, init: PNNWeights, config: TrainConfig, seed,
                trial: int, init_index: int = 0, truth: PNNWeights | None = None) -> TrainRun:
    """One experiment run: SGD from ``init`` with its seed drawn from
    ``seed``, trained on the first ``n_train`` samples of ``data`` and
    tested on the rest (both views of ``data``), then its final region
    read and the run labelled.  ``truth``, the porcupine network behind a
    matched run's data, makes it a matched run.  The only place an
    experiment trains or labels a run."""
    X, y = data
    run_seed = int(np.random.default_rng(seed).integers(2**31))
    result = sgd_train((X[:n_train], y[:n_train]), init, replace(config, seed=run_seed),
                       test_data=(X[n_train:], y[n_train:]))
    if truth is None:
        signature, gap = result.final_signature, None
        outcome = classify_region(signature, init.line_set.dim).label
        region_ok, violated = outcome == GOOD_REGION, signature.single_orientation_count
    else:
        report = classify_outcome(result, truth)
        outcome, region_ok, violated = (report.outcome, report.region_condition_ok,
                                        report.violated_lines)
        gap = float(np.linalg.norm(result.final_matrix - truth.matrix) ** 2)
    return TrainRun(k=init.neuron_map.num_neurons, trial=trial, init=init_index, seed=run_seed,
                    outcome=outcome, final_train_loss=result.final_train_loss,
                    normalized_test_mse=result.final_test_loss_normalized, gap_frobenius_sq=gap,
                    epochs_run=result.epochs_run, region_condition_ok=region_ok,
                    violated_lines=violated)


def degree_one_map(d: int, k: int) -> NeuronLineMap:
    """Assign ``k`` neurons evenly to ``d`` axes (k divisible by d)."""
    d, k = count(d, "d"), count(k, "k")
    if k % d != 0:
        raise ConfigError("k=%d is not divisible by d=%d" % (k, d))
    per = k // d
    return NeuronLineMap(num_neurons=k, assignment=tuple(np.repeat(np.arange(d), per)))


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
    runs = []
    for trial in range(trials):
        s_data, s_truth, s_init, s_train = seed_sequence((config.seed, trial), "seed").spawn(4)
        truth_scales = np.random.default_rng(s_truth).standard_normal(k)
        truth = weights_from_masses(line_set, neuron_map, truth_scales)
        data = generate_dataset(truth, n_train + n_test, s_data)
        init_scales = np.random.default_rng(s_init).standard_normal(k)
        init = weights_from_masses(line_set, neuron_map, init_scales)
        runs.append(_seeded_run(data, n_train, init, config, s_train, trial, truth=truth))
    fraction_global = sum(run.outcome == GLOBAL for run in runs) / trials
    return MatchedSummary(d=d, k=k, fraction_global=fraction_global, trials=tuple(runs))


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
        s_truth, s_data = seed_sequence((config.seed, trial), "seed").spawn(2)
        truth_matrix = np.random.default_rng(s_truth).standard_normal((d, k_star)) / np.sqrt(d)
        data = generate_dataset(truth_matrix, n_train + n_test, s_data)
        for k in k_list:
            for init_index in range(inits_per_trial):
                init_seed, train_seed = seed_sequence(
                    (config.seed, trial, k, init_index), "seed"
                ).spawn(2)
                init = init_random_pnn(d, k // 2, init_seed)
                runs.append(_seeded_run(data, n_train, init, config, train_seed,
                                        trial, init_index))
    return MismatchedSummary(d=d, k_star=k_star, runs=tuple(runs))
