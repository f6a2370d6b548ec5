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

from ._checks import count, finite_array, real
from .errors import (
    DuplicateLine,
    NegativeMass,
    ParameterOutOfRange,
    PorcupineError,
    PreconditionViolated,
    SingularKernel,
    SingularStructure,
)
from .kernel import (
    PSI_AT_ZERO,
    KernelBundle,
    _exactly_symmetric,
    _norm_and_min,
    _PseudoInverse,
    kernel_bundle,
    min_eigenvalue,
    psi,
)
from .lines import LineSet, _collinear, build_line_set, cross_gram

# The pivot 1 - zeta' D11^{-1} zeta of an added line must exceed this.
PIVOT_TOL = 1e-12
# Rounding allowed on top of perturbation_bound before it counts as violated.
PERTURBATION_SLACK = 1e-9


@dataclass(frozen=True, eq=False)
class SchurReport:
    """Schur complement of the model-line kernel block, with its spectrum.

    The health of the model block's pseudo-inverse is computed on first
    read, so a caller that never reads it (the CLI, a sweep) never pays for
    it: ``kept_rank`` counts the eigenvalues kept, ``dropped_eigenvalues``
    those the cutoff zeroed, and ``condition`` is the largest kept
    |eigenvalue| over the smallest kept one (inf when none is kept).
    ``add_line_update``'s reports, whose block is never factorized, give None.
    ``condition_bound`` is an upper bound on ``condition`` that costs
    nothing: the product the inverse-factor route's guard already formed
    (``_PseudoInverse.condition_bound``); it is None on the eigen route and
    for ``add_line_update``'s reports.
    """

    schur: np.ndarray
    spectral_norm: float
    min_eigenvalue: float
    # Zero-argument function giving the inverted eigenvalues of the model
    # block (``_PseudoInverse.inverted``), or None when they are unknown.
    _inverted: Callable[[], np.ndarray] | None = field(default=None, repr=False)
    condition_bound: float | None = None

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
        """``q*' schur q* / 4``, a lower bound on the good-region risk for
        target masses ``q_star``, one finite mass per target line
        (DimensionMismatch, DomainError).  It is attained when
        ``pinv(psi_lines) psi_cross q*`` has no negative entry; otherwise
        the least reachable risk lies above it."""
        q = finite_array(np.ravel(q_star), "target masses", (self.schur.shape[0],))
        return 0.25 * float(q @ self.schur @ q)


def _report_from_matrix(schur: np.ndarray, inverted=None, condition_bound=None) -> SchurReport:
    """The report of a Schur matrix, symmetrised as ``(S + S') / 2`` unless
    it is exactly symmetric already, when that would be ``S`` itself."""
    if not _exactly_symmetric(schur):
        schur = (schur + schur.T) / 2.0
    schur.flags.writeable = False
    norm, min_eig = _norm_and_min(schur)
    return SchurReport(schur=schur, spectral_norm=norm, min_eigenvalue=min_eig,
                       _inverted=inverted, condition_bound=condition_bound)


def schur_complement(bundle: KernelBundle) -> SchurReport:
    """``psi_star - psi_cross' pinv(psi_lines) psi_cross`` with spectrum.

    ``pinv`` is applied by ``kernel._PseudoInverse``: with the inverse
    Cholesky factor ``Li`` of ``psi_lines`` the product is ``M' M`` with
    ``M = Li psi_cross``, or, when the cutoff may drop an eigenvalue, it
    comes from a factored eigendecomposition.  On the factor route the
    result is exactly symmetric as it comes; the eigen route's is
    symmetrised.  One ``eigvalsh`` gives its spectral norm and smallest
    eigenvalue; the block's health is computed when first read (see
    ``SchurReport``).
    """
    pinv = _PseudoInverse(bundle.psi_lines)
    return _report_from_matrix(bundle.psi_star - pinv.quadratic(bundle.psi_cross),
                               pinv.inverted, pinv.condition_bound)


def good_local_loss(report: SchurReport, q_star):
    """The good-region lower bound ``loss_at_good_local`` and its
    spectral-norm upper bound ``|q*|^2 |schur| / 4``."""
    q = np.asarray(q_star, dtype=float).ravel()
    lower = report.loss_at_good_local(q)
    if np.any(q < 0):
        raise NegativeMass("per-line masses must be non-negative")
    upper = 0.25 * float(q @ q) * report.spectral_norm
    return lower, upper


def add_line_update(report: SchurReport, bundle: KernelBundle, new_line):
    """Rank-one downdate of the Schur complement after adding one line.

    ``new_line``, read as a one-line set, must span a line distinct from every
    model line, and the model-line kernel block must be invertible.  Returns
    ``(new_report, alpha, v)`` with ``new_schur = schur - alpha * v v'``
    and ``alpha >= 0``, so the spectral norm never increases.  The new
    report's ``kept_rank``, ``dropped_eigenvalues`` and ``condition`` are
    None (see ``SchurReport``).
    """
    added = build_line_set([new_line])
    z1, z2 = cross_gram(bundle.lines, added)[:, 0], cross_gram(bundle.star, added)[:, 0]
    if _collinear(z1).any():
        raise DuplicateLine("the added line coincides with an existing model line")
    pinv = _PseudoInverse(bundle.psi_lines)
    if pinv.drops_any:
        raise SingularKernel("model-line kernel block is numerically singular")
    zeta1 = psi(z1)
    zeta2 = psi(z2)
    solved = pinv.solve(zeta1)
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
    affinity = cross_gram(lines, targets)
    np.abs(affinity, out=affinity)  # in place: no second r x r* array
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
        beta = PSI_AT_ZERO + 1.0 / (np.pi * self.d)
        matrix = beta * np.ones((self.r, self.r)) + (1.0 - PSI_AT_ZERO) * np.eye(self.r)
        matrix.flags.writeable = False
        return matrix


def asymptotic_reference(d: int, r: int, r_star: int) -> AsymptoticReference:
    """Reference matrix, its spectrum, and the limiting Schur norm
    (``normalized_loss_bound(r, r_star)``)."""
    d, limit = count(d, "d"), normalized_loss_bound(r, r_star)
    alpha = 1.0 - PSI_AT_ZERO
    top = PSI_AT_ZERO * r + 1.0 - PSI_AT_ZERO + r / d / np.pi
    eigenvalues = ((alpha, r - 1), (top, 1)) if r > 1 else ((top, 1),)
    return AsymptoticReference(d=d, r=r, limit=limit, eigenvalues=eigenvalues)


def perturbation_bound(lines: LineSet, targets: LineSet, delta: float) -> float:
    """Schur-norm bound when the model lines perturb the target lines.

    Requires equal counts, ``min_eig(psi_star) >= delta``, and the
    perturbation smallness condition ``2 sqrt(r) |Z|_F + |Z|_F^2 <=
    delta/2`` with ``Z`` the difference of the unit-vector matrices.
    The returned value is verified against the actual Schur norm.
    """
    delta = real(delta, "delta", 0.0, open_low=True)
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
    return (1.0 + count(r_star, "r_star") / count(r, "r")) * (1.0 - PSI_AT_ZERO)


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
    gamma, mu = real(gamma, "gamma", 1.0, open_low=True), real(mu, "mu", 1.0, open_low=True)
    r, r_star = count(r, "r"), count(r_star, "r_star")
    coefficient = 0.25 * (
        1.0 - PSI_AT_ZERO + (1.0 + math.sqrt(gamma) + mu) ** 2 * r_star / r
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
    alpha, beta, n = real(alpha, "alpha"), real(beta, "beta"), count(n, "n")
    if alpha == 0.0 or alpha + beta * n == 0.0:
        raise SingularStructure("alpha and alpha + beta*n must be non-zero")
    return 1.0 / alpha, -beta / (alpha * alpha + alpha * beta * n)
