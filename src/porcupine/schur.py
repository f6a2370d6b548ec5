"""Generalized Schur complements of kernel matrices and approximation bounds.

The spectral norm of the Schur complement of the model-line block inside
the joint kernel matrix bounds how well a network on the model lines can
approximate a network on the target lines.  This module computes the
complement, updates it under line additions, compares against the
nearest-line baseline, and evaluates the high-dimensional limits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import (
    DimensionMismatch,
    DomainError,
    DuplicateLine,
    NegativeMass,
    ParameterOutOfRange,
    PorcupineError,
    PreconditionViolated,
    SingularKernel,
    SingularStructure,
)
from .kernel import (
    KernelBundle,
    _cutoff_drops_any,
    _cutoff_keeps_all,
    _inverted_spectrum,
    _norm_and_min,
    _require_symmetric,
    kernel_bundle,
    min_eigenvalue,
    psi,
)
from .lines import LineSet, _collinear, canonicalize_vector

# The pivot 1 - zeta' D11^{-1} zeta of an added line must exceed this.
PIVOT_TOL = 1e-12
# Rounding allowed on top of perturbation_bound before it counts as violated.
PERTURBATION_SLACK = 1e-9


@dataclass(frozen=True, eq=False)
class SchurReport:
    """Schur complement of the model-line kernel block, with its spectrum.

    The health of the pseudo-inverse of the model-line block is computed
    on first read, so a caller that never reads it (the CLI, a sweep)
    never pays for it: ``kept_rank`` counts the eigenvalues kept,
    ``dropped_eigenvalues`` those the cutoff zeroed, and ``condition`` is
    the largest kept |eigenvalue| over the smallest kept one (inf when
    none is kept).  When ``schur_complement`` took its eigendecomposition
    route they are read off the eigenvalues it inverted; after the solve
    route the report keeps a reference to the read-only block and the
    first read makes one ``eigvalsh`` of it, under the same cutoff rule.
    ``add_line_update`` solves instead of decomposing, so its reports
    give None for all three.
    """

    schur: np.ndarray
    spectral_norm: float
    min_eigenvalue: float
    # Zero-argument function giving the inverted eigenvalues of the model
    # block (``_inverted_spectrum``'s ``inv``), or None when they are unknown.
    _inverted: Callable[[], np.ndarray] | None = field(default=None, repr=False)

    @cached_property
    def _health(self):
        if self._inverted is None:
            return None, None, None
        inv = self._inverted()
        kept = np.abs(inv[inv != 0.0])
        # max |lam| / min |lam| over the kept eigenvalues, read off 1/lam
        condition = float(kept.max() / kept.min()) if kept.size else float("inf")
        return int(kept.size), int(inv.size - kept.size), condition

    @property
    def kept_rank(self) -> int | None:
        return self._health[0]

    @property
    def dropped_eigenvalues(self) -> int | None:
        return self._health[1]

    @property
    def condition(self) -> float | None:
        return self._health[2]

    def loss_at_good_local(self, q_star) -> float:
        """Risk attained at good-region optima for target masses ``q_star``."""
        q = np.asarray(q_star, dtype=float).ravel()
        return 0.25 * float(q @ self.schur @ q)


def _report_from_matrix(schur: np.ndarray, inverted=None) -> SchurReport:
    schur = (schur + schur.T) / 2.0
    schur.flags.writeable = False
    norm, min_eig = _norm_and_min(schur)
    return SchurReport(schur=schur, spectral_norm=norm, min_eigenvalue=min_eig,
                       _inverted=inverted)


def schur_complement(bundle: KernelBundle) -> SchurReport:
    """``psi_star - psi_cross' pinv(psi_lines) psi_cross`` with spectrum.

    When the model-line block is positive definite with every eigenvalue
    above PINV_CUTOFF times the largest, the pseudo-inverse is the inverse
    and the complement is ``psi_star - C' solve(psi_lines, C)`` with
    ``C = psi_cross``.  One Cholesky factorization of the block shifted
    down by the cutoff times its largest absolute row sum proves that
    (``kernel._cutoff_keeps_all``); it holds for random line sets in
    general position.  Otherwise, e.g. for many lines in few dimensions,
    one eigendecomposition ``psi_lines = V diag(lam) V'`` gives the
    pseudo-inverse in factored form: with ``M = V' C`` the complement is
    ``psi_star - M' diag(1/lam) M``, so no r x r inverse is formed.
    Either way one ``eigvalsh`` of the symmetrised result gives its
    spectral norm and smallest eigenvalue; the block's health is computed
    when first read (see ``SchurReport``).
    """
    block = _require_symmetric(bundle.psi_lines)
    if _cutoff_keeps_all(block):
        schur = bundle.psi_star - bundle.psi_cross.T @ np.linalg.solve(block, bundle.psi_cross)
        return _report_from_matrix(
            schur, lambda: _inverted_spectrum(block, vectors=False)[1])
    vecs, inv = _inverted_spectrum(block)
    m = vecs.T @ bundle.psi_cross
    schur = bundle.psi_star - (m.T * inv) @ m
    return _report_from_matrix(schur, lambda: inv)


def good_local_loss(report: SchurReport, q_star):
    """Exact good-region loss and its spectral-norm upper bound."""
    q = np.asarray(q_star, dtype=float).ravel()
    if q.size != report.schur.shape[0]:
        raise DimensionMismatch("need one target mass per target line")
    if not np.isfinite(q).all():
        raise DomainError("per-line masses must be finite")
    if np.any(q < 0):
        raise NegativeMass("per-line masses must be non-negative")
    exact = report.loss_at_good_local(q)
    upper = 0.25 * float(q @ q) * report.spectral_norm
    return exact, upper


def add_line_update(report: SchurReport, bundle: KernelBundle, new_line):
    """Rank-one downdate of the Schur complement after adding one line.

    ``new_line`` must span a line distinct from every current model line,
    and the model-line kernel block must be invertible.  Returns
    ``(new_report, alpha, v)`` with ``new_schur = schur - alpha * v v'``
    and ``alpha >= 0``, so the spectral norm never increases.  The new
    report's ``kept_rank``, ``dropped_eigenvalues`` and ``condition`` are
    None: the update solves with the model-line block instead of
    decomposing it.
    """
    unit, _ = canonicalize_vector(np.asarray(new_line, dtype=float))
    z1 = np.clip(bundle.lines.unit_vectors.T @ unit, -1.0, 1.0)
    z2 = np.clip(bundle.star.unit_vectors.T @ unit, -1.0, 1.0)
    if _collinear(z1).any():
        raise DuplicateLine("the added line coincides with an existing model line")
    D11 = bundle.psi_lines
    if _cutoff_drops_any(D11):
        raise SingularKernel("model-line kernel block is numerically singular")
    zeta1 = psi(z1)
    zeta2 = psi(z2)
    solved = np.linalg.solve(D11, zeta1)
    denom = 1.0 - float(zeta1 @ solved)
    if denom <= PIVOT_TOL:
        raise SingularKernel("extended kernel block would be singular")
    alpha = 1.0 / denom
    v = zeta2 - bundle.psi_cross.T @ solved
    new_schur = report.schur - alpha * np.outer(v, v)
    return _report_from_matrix(new_schur), float(alpha), v


@dataclass(frozen=True, eq=False)
class NearestSubset:
    """Nearest-line baseline: chosen subset plus bookkeeping.

    ``indices[i]`` is the model line matched to target line ``i``;
    ``conflicts`` lists target indices whose closest line was already
    taken, so the greedy pass fell back to the nearest free one.
    """

    line_set: LineSet
    indices: tuple
    conflicts: tuple


def nearest_line_subset(lines: LineSet, targets: LineSet) -> NearestSubset:
    """For each target line pick the closest model line (orientation-free).

    Distance between lines compares both orientations, i.e. the chosen
    model line maximizes ``|cos|`` against the target.  Duplicate winners
    are resolved greedily in target order, excluding lines already taken.
    """
    if lines.num_lines < targets.num_lines:
        raise ParameterOutOfRange(
            "need at least as many model lines (%d) as targets (%d)"
            % (lines.num_lines, targets.num_lines)
        )
    affinity = np.abs(lines.unit_vectors.T @ targets.unit_vectors)
    winners = np.argmax(affinity, axis=0).tolist()
    taken = np.zeros(lines.num_lines, dtype=bool)
    chosen: list[int] = []
    conflicts: list[int] = []
    for i, best in enumerate(winners):
        if taken[best]:
            conflicts.append(i)
            # Closest line still free; affinities are >= 0, taken ones drop to -1.
            best = int(np.argmax(np.where(taken, -1.0, affinity[:, i])))
        taken[best] = True
        chosen.append(best)
    return NearestSubset(
        line_set=lines.subset(chosen), indices=tuple(chosen), conflicts=tuple(conflicts)
    )


@dataclass(frozen=True, eq=False)
class AsymptoticReference:
    """High-dimensional reference for the model-line kernel matrix.

    ``matrix`` is the ``r x r`` rank-one-plus-identity limit the kernel
    matrix of ``r`` uniformly random lines in ``d`` dimensions
    concentrates around, built on first read; ``eigenvalues`` lists
    (value, multiplicity) pairs; ``limit`` is the limiting spectral norm
    of the Schur complement when both line counts grow with dimension.
    """

    d: int
    r: int
    limit: float
    eigenvalues: tuple

    @cached_property
    def matrix(self) -> np.ndarray:
        beta = 2.0 / np.pi + 1.0 / (np.pi * self.d)
        matrix = beta * np.ones((self.r, self.r)) + (1.0 - 2.0 / np.pi) * np.eye(self.r)
        matrix.flags.writeable = False
        return matrix


def asymptotic_reference(d: int, r: int, r_star: int) -> AsymptoticReference:
    """Reference matrix, its spectrum, and the limiting Schur norm."""
    if d < 1 or r < 1 or r_star < 1:
        raise ParameterOutOfRange("need d, r, r_star >= 1")
    alpha = 1.0 - 2.0 / np.pi
    gamma = r / d
    top = 2.0 / np.pi * r + 1.0 - 2.0 / np.pi + gamma / np.pi
    eigenvalues = ((alpha, r - 1), (top, 1)) if r > 1 else ((top, 1),)
    limit = (1.0 + r_star / r) * alpha
    return AsymptoticReference(d=d, r=r, limit=limit, eigenvalues=eigenvalues)


def perturbation_bound(lines: LineSet, targets: LineSet, delta: float) -> float:
    """Schur-norm bound when the model lines perturb the target lines.

    Requires equal counts, ``min_eig(psi_star) >= delta``, and the
    perturbation smallness condition ``2 sqrt(r) |Z|_F + |Z|_F^2 <=
    delta/2`` with ``Z`` the difference of the unit-vector matrices.
    The returned value is verified against the actual Schur norm.
    """
    if lines.num_lines != targets.num_lines:
        raise ParameterOutOfRange("perturbation bound needs equal line counts")
    r = lines.num_lines
    bundle = kernel_bundle(lines, targets)
    lam = min_eigenvalue(bundle.psi_star)
    if lam < delta:
        raise PreconditionViolated(
            "min eigenvalue %.6g of the target kernel is below delta=%.6g"
            % (lam, delta)
        )
    z_frob = float(np.linalg.norm(lines.unit_vectors - targets.unit_vectors))
    if 2.0 * math.sqrt(r) * z_frob + z_frob**2 > delta / 2.0:
        raise PreconditionViolated(
            "perturbation size check failed: 2 sqrt(r) |Z| + |Z|^2 = %.6g > delta/2"
            % (2.0 * math.sqrt(r) * z_frob + z_frob**2)
        )
    bound = (1.0 + 2.0 * r / delta) * z_frob**2 + 4.0 * math.sqrt(r) * z_frob
    actual = schur_complement(bundle).spectral_norm
    if actual > bound + PERTURBATION_SLACK:
        raise PorcupineError(
            "perturbation bound %.6g violated by Schur norm %.6g" % (bound, actual)
        )
    return bound


def normalized_loss_bound(r: int, r_star: int) -> float:
    """Limiting bound on achieved risk over the risk of the zero network."""
    if r < 1 or r_star < 1:
        raise ParameterOutOfRange("need r, r_star >= 1")
    return (1.0 + r_star / r) * (1.0 - 2.0 / np.pi)


@dataclass(frozen=True)
class BadLocalBound:
    """Asymptotic bad-region loss bound, as the coefficient of |q*|^2.

    ``in_stated_regime`` records whether the target line count exceeds
    d + 1 (with d inferred from r / gamma), which the asymptotic argument
    assumes.
    """

    coefficient: float
    aspect_ratio: float
    in_stated_regime: bool


def bad_local_asymptotic_bound(
    gamma: float, r: int, r_star: int, mu: float
) -> BadLocalBound:
    """``(1/4) (1 - 2/pi + (1 + sqrt(gamma) + mu)^2 r*/r)``.

    Holds with probability ``1 - 2 exp(-mu^2 d)`` for uniformly random
    lines in the proportional regime ``r = gamma d``.
    """
    if gamma <= 1.0:
        raise ParameterOutOfRange("need gamma > 1")
    if mu <= 1.0:
        raise ParameterOutOfRange("need mu > 1")
    if r < 1 or r_star < 1:
        raise ParameterOutOfRange("need r, r_star >= 1")
    coefficient = 0.25 * (
        1.0 - 2.0 / np.pi + (1.0 + math.sqrt(gamma) + mu) ** 2 * r_star / r
    )
    d = r / gamma
    return BadLocalBound(
        coefficient=coefficient,
        aspect_ratio=gamma,
        in_stated_regime=r_star > d + 1,
    )


def structured_inverse(alpha: float, beta: float, n: int):
    """Inverse of ``alpha*I + beta*ones(n)`` in the same two-parameter form.

    Returns ``(alpha2, beta2)`` with ``alpha2 = 1/alpha`` and
    ``beta2 = -beta / (alpha^2 + alpha*beta*n)``.
    """
    if n < 1:
        raise ParameterOutOfRange("need n >= 1")
    if alpha == 0.0 or alpha + beta * n == 0.0:
        raise SingularStructure("alpha and alpha + beta*n must be non-zero")
    return 1.0 / alpha, -beta / (alpha * alpha + alpha * beta * n)
