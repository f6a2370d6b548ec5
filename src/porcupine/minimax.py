"""Angular nets on the sphere and the nearest-direction approximation bound.

An angular delta-net is a family of unit vectors such that every
direction is within angle delta of the family or its negation.  Snapping
each weight column of a network to its nearest net direction (preserving
the norm) costs at most ``k M sqrt(2 d (1 - cos delta))`` in expected
absolute output error.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._checks import count, finite_array, real, seed_sequence
from .errors import CoverageNotReached, DomainError, ParameterOutOfRange
from .lines import _oriented_rows, _unit_columns, _weight_matrix
from .lines import load_vectors_csv, save_vectors_csv

# Probes drawn and screened against the net per matmul.
_PROBE_BLOCK = 1024

# Net-by-probe cosines that coverage_gap holds at once, in blocks of a
# multiple of _GAP_ALIGN probes (a multiple of BLAS kernels' tile widths).
_GAP_BUDGET = 1 << 17
_GAP_ALIGN = 64

_MAX_DIM = 6  # the greedy construction is desk-scale: coverage checks blow up with d

# Probes join the net farther than _MARGIN * delta from it.  The headroom
# lets the probabilistic stopping rule certify coverage at the nominal
# delta: a streak of S covered probes only bounds the uncovered mass by
# about 3/S, and an uncovered pocket of that mass can reach ~sqrt(6/S)
# radians past the construction radius.
_MARGIN = 0.9

# Rounding allowed on top of relu_gap's Lipschitz bound.
RELU_GAP_SLACK = 1e-12


@dataclass(frozen=True, eq=False)
class AngularNet:
    """Unit vectors on a hemisphere with implicit sign closure.

    Coverage means: every unit vector is within angle ``delta`` of some
    net vector or its negation.  The property is certified empirically by
    ``coverage_gap`` rather than proved.  Vectors that are not canonical
    or whose norm is not 1 within ``lines.UNIT_NORM_TOL`` raise DomainError.
    """

    dim: int
    delta: float
    vectors: np.ndarray

    def __post_init__(self):
        if not _unit_columns(self.vectors):
            raise DomainError("net vectors must be unit norm")
        if not np.all(_oriented_rows(np.asarray(self.vectors, dtype=float).T)[1] == 1.0):
            raise DomainError("net vectors must be canonically oriented")

    @property
    def size(self) -> int:
        return self.vectors.shape[1]

    def save(self, path) -> None:
        save_vectors_csv(path, self.vectors)


def load_angular_net(path, delta: float) -> AngularNet:
    """Read a net written by ``AngularNet.save``, checking ``delta``, unit
    norm and orientation too."""
    delta = _check_delta(delta)
    vectors = load_vectors_csv(path)
    return AngularNet(dim=vectors.shape[0], delta=delta, vectors=vectors)


def _check_delta(delta: float) -> float:
    """An angle in (0, pi/2]: DomainError otherwise, NaN and infinities too."""
    return real(delta, "delta", 0.0, np.pi / 2, open_low=True, error=DomainError)


def _nets_times_size(nets: int, delta: float, n: int) -> float:
    """``(nets/2) (1 + sqrt(2)/sqrt(1 - cos delta))^n``, or ``math.inf``
    when that leaves the float range.  ``sqrt(2)/sqrt(1 - cos delta)`` is
    read as ``1/sin(delta/2)``, which does not cancel at small ``delta``."""
    try:
        return 0.5 * nets * (1.0 + 1.0 / math.sin(delta / 2.0)) ** n
    except (OverflowError, ZeroDivisionError):  # the smallest subnormal halves to 0
        return math.inf


def net_size_bound(n: int, delta: float) -> float:
    """Size of an angular delta-net guaranteed to exist in n dimensions:
    ``(1/2) (1 + sqrt(2)/sqrt(1 - cos delta))^n``, or ``math.inf`` when
    the bound exceeds the largest float (``n = 10**4, delta = 0.3``)."""
    delta, n = _check_delta(delta), count(n, "n")
    return _nets_times_size(1, delta, n)


def sparse_net_size(d: int, s: int, delta: float, k: int | None = None) -> float:
    """Net size bound for s-sparse weight vectors in d dimensions.

    Counts one net per support: ``(1/2) C(d, s)`` supports in general, or
    ``k/2`` when the sparsity patterns of the ``k`` neurons are known.
    Returns ``math.inf`` when the bound exceeds the largest float.
    """
    delta, d, s = _check_delta(delta), count(d, "d"), count(s, "s")
    if s > d:
        raise DomainError("need s <= d, got s=%d d=%d" % (s, d))
    nets = math.comb(d, s) if k is None else count(k, "k")
    return _nets_times_size(nets, delta, s)


def _angles_to_net(vectors: np.ndarray, probes: np.ndarray) -> np.ndarray:
    """Per probe, the smallest angle to the net or its negation."""
    cosines = np.clip(np.abs(vectors.T @ probes), 0.0, 1.0)
    return np.arccos(cosines.max(axis=0))


def greedy_angular_net(d: int, delta: float, seed=0, max_probes: int = 10_000,
                       probe_budget: int = 2_000_000) -> AngularNet:
    """Construct an angular delta-net greedily from random probes.

    Uniform hemisphere probes are added whenever they sit farther than
    ``_MARGIN * delta`` (modulo sign) from the current net; construction
    stops once ``max_probes`` consecutive probes were already covered.
    Dimensions above ``_MAX_DIM`` raise ParameterOutOfRange.

    Probes are drawn and screened against the net in blocks, then walked
    in draw order.  Adding a net vector only raises a probe's best
    ``|cos|``, so a probe covered at the start of its block stays covered,
    and later probes of the block need checking only against the vectors
    the walk adds.  Every block is oriented in one pass, so a probe that
    joins the net is its canonical unit vector already.  The decisions, the
    stopping rule and the ``probe_budget`` count are those of a
    one-probe-at-a-time loop.
    """
    delta, d = _check_delta(delta), count(d, "d")
    max_probes, probe_budget = count(max_probes, "max_probes"), count(probe_budget, "probe_budget")
    if d > _MAX_DIM:
        raise ParameterOutOfRange(
            "greedy construction is desk-scale only (d <= %d)" % _MAX_DIM
        )
    rng = np.random.default_rng(seed_sequence(seed, "seed"))
    threshold = math.cos(_MARGIN * delta)
    net = np.empty((d, 0))
    covered_streak = 0
    drawn = 0
    while drawn < probe_budget:
        # An (m, d) draw is the stream of m successive standard_normal(d) calls.
        probes = rng.standard_normal((min(_PROBE_BLOCK, probe_budget - drawn), d))
        drawn += probes.shape[0]
        units, _, norms = _oriented_rows(probes)
        # A zero probe (probability zero) is skipped but counts against the budget.
        units = units[norms > 0.0]
        best = np.abs(units @ net).max(axis=1, initial=-np.inf)
        start = 0
        while True:
            uncovered = np.flatnonzero(best[start:] < threshold)
            stop = start + int(uncovered[0]) if uncovered.size else len(units)
            covered_streak += stop - start
            if stop > start and covered_streak >= max_probes:
                return AngularNet(dim=d, delta=delta, vectors=net)
            if stop == len(units):
                break
            added = units[stop]
            net = np.column_stack([net, added])
            covered_streak = 0
            start = stop + 1
            best[start:] = np.maximum(best[start:], np.abs(units[start:] @ added))
    raise CoverageNotReached(
        "no %d consecutive covered probes within a budget of %d"
        % (max_probes, probe_budget)
    )


def coverage_gap(net: AngularNet, n_probes: int = 100_000, seed=0) -> float:
    """Largest angle from a fresh uniform probe to the net (modulo sign)."""
    n_probes = count(n_probes, "n_probes")
    if net.size < 1:
        raise ParameterOutOfRange("the net is empty")
    rng = np.random.default_rng(seed_sequence(seed, "seed"))
    probes = rng.standard_normal((net.dim, n_probes))
    probes /= np.linalg.norm(probes, axis=0, keepdims=True)
    # Blocks of about _GAP_BUDGET cosines keep the temporaries cache-sized.
    # They start at multiples of _GAP_ALIGN probes and the remainder joins
    # the last block, so every probe but the last n_probes mod (BLAS tile
    # width) gets the bits that one product over all probes gives it.
    step = max(_GAP_ALIGN, _GAP_BUDGET // net.size // _GAP_ALIGN * _GAP_ALIGN)
    starts = range(0, max(n_probes // step, 1) * step, step)
    ends = [*starts[1:], n_probes]
    return max(float(_angles_to_net(net.vectors, probes[:, start:end]).max())
               for start, end in zip(starts, ends))


def nearest_net_approx(w_star, net: AngularNet):
    """Snap every column to its nearest net direction, preserving norms.

    Returns ``(w_tilde, max_angle)``.  Each column is replaced by the
    closest vector of the net or its negation, rescaled to the original
    norm, so ``|w - w_tilde|^2 = 2 |w|^2 (1 - cos angle)`` per column.
    ``w_star`` is a PNNWeights or a ``d x k`` array.  Zero columns stay
    zero; non-finite entries raise DomainError.
    """
    W = _weight_matrix(w_star, "weights", net.dim)
    if net.size < 1:
        raise ParameterOutOfRange("the net is empty")
    norms = _oriented_rows(W.T)[2]  # true norms, also where the squares overflow
    live = np.flatnonzero(norms != 0.0)
    scores = net.vectors.T @ (W[:, live] / norms[live])
    best = np.argmax(np.abs(scores), axis=0)
    top = scores[best, np.arange(len(live))]
    W_tilde = np.zeros_like(W)
    W_tilde[:, live] = norms[live] * (net.vectors[:, best] * np.where(top >= 0, 1.0, -1.0))
    angles = np.arccos(np.clip(np.abs(top), 0.0, 1.0))
    return W_tilde, float(np.max(angles, initial=0.0))


def minimax_risk_bound(k: int, M: float, d: int, delta: float) -> float:
    """``k M sqrt(2 d (1 - cos delta))`` on expected absolute output error,
    or ``math.inf`` (still a true bound) when ``k`` or ``d`` exceeds the
    largest float."""
    delta, k, d = _check_delta(delta), count(k, "k"), count(d, "d")
    M = real(M, "M", 0.0, open_low=True, error=ParameterOutOfRange)
    try:
        # sqrt(2 (1 - cos delta)) = 2 sin(delta/2), or delta where delta/2 is 0;
        # a product that underflows to 0 is bounded by the smallest float.
        bound = k * M * math.sqrt(d) * (2.0 * math.sin(delta / 2.0) or delta)
        return bound or math.ulp(0.0)
    except OverflowError:
        return math.inf


class ReluGap(NamedTuple):
    gap: float
    bound: float
    within_bound: bool


def relu_gap(w1, w2, x) -> ReluGap:
    """``|relu(w1'x) - relu(w2'x)|`` and its Lipschitz bound ``|w1-w2||x|``."""
    w1 = finite_array(w1, "w1", (None,))
    w2, x = finite_array(w2, "w2", w1.shape), finite_array(x, "x", w1.shape)
    gap = abs(max(float(w1 @ x), 0.0) - max(float(w2 @ x), 0.0))
    bound = float(np.linalg.norm(w1 - w2) * np.linalg.norm(x))
    return ReluGap(gap=gap, bound=bound, within_bound=gap <= bound + RELU_GAP_SLACK)
