"""Closed-form population risks and their Monte Carlo oracles.

All risks are for two-layer relu networks ``h(x; W) = sum_i relu(w_i' x)``
with standard Gaussian inputs and squared-error loss against the output
of a second network.  The closed forms decompose into a term driven by
the column sums and a quadratic form in per-line masses through the
entrywise kernel of the line Gram matrices.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._checks import count, finite_array, float_array, seed_sequence
from .errors import ConfigMismatch, ParameterOutOfRange, ZeroVector
from .kernel import _column_angles, kernel_bundle, psi
from .lines import NeuronLineMap, PNNWeights, ZERO_TOL, _line_masses, _weight_matrix, axes_line_set

_MC_CHUNK_PAIRS = 1 << 16
# Pairs per block within a chunk: the block's (block x k) products stay in
# cache.  The chunk's normal stream and its reductions do not depend on it.
_MC_BLOCK_PAIRS = 1 << 11


@dataclass(frozen=True)
class RiskBreakdown:
    """Population risk split into its column-sum and mass-kernel parts."""

    linear_term: float
    kernel_term: float

    @property
    def total(self) -> float:
        return self.linear_term + self.kernel_term


def network_output(x, weight_matrix):
    """``sum_i relu(w_i' x)`` for a single input or a batch of rows, both read
    finite (DomainError) and of one ``d`` (DimensionMismatch)."""
    W = _weight_matrix(weight_matrix)
    x = float_array(x, "inputs")
    x = finite_array(x, "inputs", (None,) * (x.ndim - 1) + (W.shape[0],))
    out = np.maximum(x @ W, 0.0).sum(axis=-1)
    return float(out) if x.ndim == 1 else out


def _ordered_map(fn, items, threads: int) -> list:
    """``[fn(item) for item in items]``, run on a pool of ``threads`` threads
    when ``threads > 1``; the results keep item order either way.  The one
    fan-out behind every ``threads`` argument."""
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def monte_carlo_risk(weights, weights_star, n_samples: int = 2_000_000,
                     seed=0, threads: int = 1):
    """Monte Carlo estimate of ``E[(h(x;W) - h(x;W*))^2]``.

    Uses antithetic pairs ``(x, -x)`` to cut variance; ``n_samples`` is
    rounded up to an even number of samples.  The gap at ``-x`` costs no
    second relu pass: ``relu(z) - relu(-z) = z`` makes it the gap at ``x``
    minus ``x' (sum_i w_i - sum_i w*_i)``.  Returns ``(estimate,
    standard_error)`` where the standard error is that of the mean of
    the per-pair averages.  Deterministic given the seed: work is split
    into fixed-size chunks with seeds derived per chunk, and the
    reduction runs in chunk order regardless of ``threads``.  A chunk is
    drawn and multiplied in cache-sized blocks of rows; its pair means
    are summed over the whole chunk, so the blocks change no bit of the
    result.  Non-finite weights raise DomainError.
    """
    A = _weight_matrix(weights)
    B = _weight_matrix(weights_star, "target weights", A.shape[0])
    pairs = (count(n_samples, "n_samples") + 1) // 2
    threads = count(threads, "threads")
    d = A.shape[0]
    sum_gap = A.sum(axis=1) - B.sum(axis=1)
    n_chunks = (pairs + _MC_CHUNK_PAIRS - 1) // _MC_CHUNK_PAIRS
    seeds = seed_sequence(seed, "seed").spawn(n_chunks)

    def run_chunk(index: int):
        chunk_pairs = min(_MC_CHUNK_PAIRS, pairs - index * _MC_CHUNK_PAIRS)
        rng = np.random.default_rng(seeds[index])
        # Buffers belong to one chunk call: with threads > 1 chunks run at once.
        block = min(_MC_BLOCK_PAIRS, chunk_pairs)
        X = np.empty((block, d))
        ZA = np.empty((block, A.shape[1]))
        ZB = np.empty((block, B.shape[1]))
        forward = np.empty(chunk_pairs)
        backward = np.empty(chunk_pairs)
        for start in range(0, chunk_pairs, block):
            rows = slice(start, min(start + block, chunk_pairs))
            n = rows.stop - start
            x, za, zb = X[:n], ZA[:n], ZB[:n]
            rng.standard_normal(out=x)
            np.matmul(x, A, out=za)
            np.matmul(x, B, out=zb)
            np.subtract(np.maximum(za, 0.0, out=za).sum(axis=1),
                        np.maximum(zb, 0.0, out=zb).sum(axis=1), out=forward[rows])
            np.subtract(forward[rows], x @ sum_gap, out=backward[rows])
        pair_mean = 0.5 * (forward * forward + backward * backward)
        return float(pair_mean.sum()), float((pair_mean * pair_mean).sum())

    results = _ordered_map(run_chunk, range(n_chunks), threads)
    total = sum(r[0] for r in results)
    total_sq = sum(r[1] for r in results)
    mean = total / pairs
    if pairs > 1:
        var = max((total_sq - pairs * mean * mean) / (pairs - 1), 0.0)
    else:
        var = 0.0
    return mean, float(np.sqrt(var / pairs))


def scalar_risk(w, w_star) -> RiskBreakdown:
    """Single-input closed form: quarter squares of the sum gap and the
    absolute-sum gap.  Each side is a non-empty finite 1-D vector:
    DimensionMismatch, ParameterOutOfRange and DomainError otherwise."""
    w, w_star = finite_array(w, "w", (None,)), finite_array(w_star, "w_star", (None,))
    if min(w.size, w_star.size) < 1:
        raise ParameterOutOfRange("scalar risk needs at least one weight per side")
    linear = 0.25 * float(w.sum() - w_star.sum()) ** 2
    kernel = 0.25 * float(np.abs(w).sum() - np.abs(w_star).sum()) ** 2
    return RiskBreakdown(linear_term=linear, kernel_term=kernel)


def degree_one_risk(W, W_star, neuron_map: NeuronLineMap) -> RiskBreakdown:
    """Closed form when every neuron is wired to a single input.

    This is the matched risk on the standard axes, whose kernel matrix
    ``psi(I)`` is exactly 1 on the diagonal and 2/pi everywhere else.
    Columns off their axes raise InfeasibleWeights, non-finite entries
    DomainError.
    """
    A = _weight_matrix(W)
    B = _weight_matrix(W_star, "target weights", A.shape[0])
    axes = axes_line_set(A.shape[0])
    return matched_risk(PNNWeights(A, axes, neuron_map), PNNWeights(B, axes, neuron_map))


def _line_terms(weights: PNNWeights, weights_star: PNNWeights):
    """``(gap, q, q*)``: the column-sum gap ``sum w - sum w*`` and both
    networks' per-line masses, the pieces of the risk's quadratic."""
    B = _weight_matrix(weights_star, "target weights", weights.dim)
    gap = weights.column_sum() - B.sum(axis=1)
    return gap, _line_masses(weights), _line_masses(weights_star)


def _line_risk(bundle, gap, q, q_star) -> RiskBreakdown:
    """``|gap|^2 / 4`` plus a quarter of the mass quadratic
    ``q' psi_lines q + q*' psi_star q* - 2 q' psi_cross q*``."""
    kernel = (
        0.25 * float(q @ bundle.psi_lines @ q)
        + 0.25 * float(q_star @ bundle.psi_star @ q_star)
        - 0.5 * float(q @ bundle.psi_cross @ q_star)
    )
    return RiskBreakdown(linear_term=0.25 * float(gap @ gap), kernel_term=kernel)


def matched_risk(weights: PNNWeights, weights_star: PNNWeights) -> RiskBreakdown:
    """Closed form when both networks share one line configuration: the
    mass quadratic collapses to ``dq' psi(G) dq`` with ``dq = q - q*``."""
    if not weights.same_config(weights_star):
        raise ConfigMismatch("matched risk needs identical (lines, map) on both sides")
    gap, q, q_star = _line_terms(weights, weights_star)
    dq = q - q_star
    return RiskBreakdown(
        linear_term=0.25 * float(gap @ gap),
        kernel_term=0.25 * float(dq @ psi(weights.line_set.gram) @ dq),
    )


def mismatched_risk(weights: PNNWeights, weights_star: PNNWeights) -> RiskBreakdown:
    """Closed form when the two networks use different line sets."""
    gap, q, q_star = _line_terms(weights, weights_star)
    return _line_risk(kernel_bundle(weights.line_set, weights_star.line_set), gap, q, q_star)


def truncated_covariance(w1, w2) -> np.ndarray:
    """``E[1{w1'x > 0, w2'x > 0} x x']`` for standard Gaussian ``x``.

    An independent oracle that the package's own code does not call: it
    builds the full d x d matrix with its own arctan2 angle convention.
    Tests check it against Monte Carlo, and check the contracted gradient
    of ``landscape.analytic_gradient`` against it.  Depends only on the
    directions of the two vectors; non-finite entries raise DomainError.
    The aligned (theta -> 0) and opposite (theta -> pi) limits are exact:
    the formula below carries no divided differences, every term is scaled
    by sin or sin^2 of the angle.
    """
    w1 = finite_array(w1, "w1", (None,))
    w2 = finite_array(w2, "w2", w1.shape)
    n1 = float(np.linalg.norm(w1))
    n2 = float(np.linalg.norm(w2))
    if n1 <= ZERO_TOL or n2 <= ZERO_TOL:
        raise ZeroVector("truncated covariance needs non-zero vectors")
    u1 = w1 / n1
    u2 = w2 / n2
    c = float(np.clip(u1 @ u2, -1.0, 1.0))
    perp = u2 - c * u1
    s = float(np.linalg.norm(perp))
    theta = float(np.arctan2(s, c))
    cov = ((np.pi - theta) / (2.0 * np.pi)) * np.eye(w1.shape[0])
    if s > 0.0:
        unit_perp = perp / s
        cov += (
            c * s * (np.outer(u1, u1) - np.outer(unit_perp, unit_perp))
            + s * s * (np.outer(u1, unit_perp) + np.outer(unit_perp, u1))
        ) / (2.0 * np.pi)
    return cov


def _pairwise_correlations(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Matrix of ``E[relu(a_i'x) relu(b_j'x)]`` over columns of A and B."""
    na, nb, G, theta = _column_angles(A, B)
    scale = np.outer(na, nb)
    return scale * (np.sin(theta) + (np.pi - theta) * G) / (2.0 * np.pi)


def pairwise_population_risk(weights, weights_star) -> float:
    """``E[(h(x;W) - h(x;W*))^2]`` for arbitrary weight matrices.

    General closed form assembled column pair by column pair.  An
    independent oracle for the line-based closed forms: it needs no line
    bookkeeping.  Zero columns contribute nothing.  Non-finite weights
    raise DomainError.
    """
    A = _weight_matrix(weights)
    B = _weight_matrix(weights_star, "target weights", A.shape[0])
    value = (
        _pairwise_correlations(A, A).sum()
        + _pairwise_correlations(B, B).sum()
        - 2.0 * _pairwise_correlations(A, B).sum()
    )
    return float(value)
