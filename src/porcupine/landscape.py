"""Region classification, optimality certificates, and analytic gradients.

Weight space splits into orthant-like regions indexed by the orientation
signs of the neurons on each line.  Which regions can hold bad local
optima is decided by sign patterns alone; this module classifies regions,
certifies global optima, evaluates exact gradients of the population
risk, and prices the stationary points inside bad regions.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb, isfinite
from numbers import Integral, Real

import numpy as np

from .errors import (
    ConfigMismatch,
    DimensionMismatch,
    DomainError,
    ParameterOutOfRange,
    SingularKernel,
    ZeroColumn,
)
from .kernel import (
    KernelBundle,
    _column_angles,
    _cutoff_drops_any,
    min_eigenvalue,
    psi,
    symmetric_pseudo_inverse,
)
from .lines import PNNWeights, RegionSignature, ZERO_TOL, _line_masses

ONLY_GLOBAL = "OnlyGlobal"
ONLY_BAD_LOCAL = "OnlyBadLocal"
NO_OPTIMA = "NoOptima"
MAY_HAVE_BAD_LOCAL = "MayHaveBadLocal"
GOOD_REGION = "GoodRegion"

PD_TOL = 1e-10


@dataclass(frozen=True)
class RegionClassification:
    """A region label plus, when relevant, the offending line indices."""

    label: str
    witness: tuple | None = None


def _sign_pattern(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size < 1:
        raise ParameterOutOfRange("need at least one sign")
    if not np.isfinite(arr).all():
        raise DomainError("signs must be finite")
    return np.where(arr >= 0, 1, -1).astype(int)


def scalar_region_classify(signs, w_star) -> RegionClassification:
    """Classify a single-input region by its sign vector.

    With mixed target signs, mixed regions hold only global optima while
    the two constant-sign regions hold only bad local optima.  With a
    constant-sign target, the matching constant region holds the global
    optima and every other region holds no optimizer at all.
    """
    s = _sign_pattern(signs)
    s_star = _sign_pattern(w_star)
    s_constant = bool(np.all(s == s[0]))
    star_constant = bool(np.all(s_star == s_star[0]))
    if not star_constant:
        if s_constant:
            return RegionClassification(label=ONLY_BAD_LOCAL, witness=(0,))
        return RegionClassification(label=ONLY_GLOBAL)
    if s_constant and s[0] == s_star[0]:
        return RegionClassification(label=ONLY_GLOBAL)
    return RegionClassification(label=NO_OPTIMA)


def scalar_hessian(signs):
    """Hessian of the single-input risk on the region with these signs.

    Returns ``(H, rank)`` with ``H = (ones + s s') / 2``; the rank is 1 on
    the two constant-sign regions and 2 everywhere else.
    """
    s = _sign_pattern(signs).astype(float)
    H = 0.5 * np.ones((s.size, s.size)) + 0.5 * np.outer(s, s)
    return H, int(np.linalg.matrix_rank(H))


@dataclass(frozen=True)
class GlobalOptimumCheck:
    """Residuals of the two global-optimality equations.

    When the line kernel matrix is positive definite the two residuals
    vanish exactly at global optima and nowhere else; otherwise the check
    is only sufficient, which ``kernel_pd`` records.
    """

    is_global: bool
    sum_residual: float
    mass_residual: float
    kernel_pd: bool
    kernel_min_eigenvalue: float


def global_optimum_check(weights: PNNWeights, weights_star: PNNWeights,
                         tol: float = 1e-9) -> GlobalOptimumCheck:
    """Test ``sum_i w_i = sum_i w*_i`` and equal per-line masses."""
    if not weights.same_config(weights_star):
        raise ConfigMismatch("both networks must share the line configuration")
    q = _line_masses(weights)
    q_star = _line_masses(weights_star)
    sum_residual = float(np.linalg.norm(weights.column_sum() - weights_star.column_sum()))
    mass_residual = float(np.linalg.norm(q - q_star))
    lam = min_eigenvalue(psi(weights.line_set.gram))
    return GlobalOptimumCheck(
        is_global=(sum_residual <= tol and mass_residual <= tol),
        sum_residual=sum_residual,
        mass_residual=mass_residual,
        kernel_pd=lam > PD_TOL,
        kernel_min_eigenvalue=lam,
    )


def region_condition(signature: RegionSignature, d: int) -> bool:
    """True iff at least ``d`` lines carry both orientations."""
    return signature.mixed_line_count >= d


def classify_region(signature: RegionSignature, d: int) -> RegionClassification:
    """Good region (no bad local optima) or not, with the non-mixed lines."""
    if region_condition(signature, d):
        return RegionClassification(label=GOOD_REGION)
    witness = tuple(l for l, m in enumerate(signature.mixed) if not m)
    return RegionClassification(label=MAY_HAVE_BAD_LOCAL, witness=witness)


def good_region_probability(r: int, d: int, neurons_per_line: int) -> float:
    """Probability that uniformly random signs give a good region.

    With ``t`` neurons per line each line is single-orientation with
    probability ``2^(1-t)``; the region is good when at most ``r - d``
    lines are single-orientation, a binomial tail.  Non-finite arguments
    raise DomainError, non-integer ones ParameterOutOfRange.
    """
    counts = (r, d, neurons_per_line)
    if any(isinstance(n, Real) and not isfinite(n) for n in counts):
        raise DomainError("r, d and neurons_per_line must be finite")
    if not all(isinstance(n, Integral) for n in counts):
        raise ParameterOutOfRange("r, d and neurons_per_line must be integers")
    if r < 1 or d < 1 or neurons_per_line < 1:
        raise ParameterOutOfRange("need r, d, neurons_per_line >= 1")
    p = 2.0 ** (1 - neurons_per_line)
    tail = 0.0
    for i in range(min(d, r + 1)):
        tail += comb(r, i) * (1.0 - p) ** i * p ** (r - i)
    return 1.0 - tail


def analytic_gradient(weights: PNNWeights, weights_star: PNNWeights):
    """Exact gradient of the population risk at ``weights``.

    ``g_j = 2 sum_i C(w_j, w_i) w_i - 2 sum_i C(w_j, w*_i) w*_i`` with
    ``C(u, v) = E[1{u'x > 0, v'x > 0} x x']``, in the contracted closed form
    ``C(w_j, v) v = ((pi - theta) v + |v| sin(theta) w_j / |w_j|) / (2 pi)``
    where ``theta`` is the angle between ``w_j`` and ``v`` (Tian, ICML
    2017).  All pairs come from one angle matrix.  Zero target columns
    contribute nothing.  Returns ``(gradient, projected)`` where
    ``projected[j]`` is the directional derivative along neuron ``j``'s
    line.  Requires every column of ``weights`` to be non-zero (the risk
    is not differentiable at zero columns).
    """
    if weights.dim != weights_star.dim:
        raise DimensionMismatch("networks live in different input dimensions")
    W = weights.matrix
    W_star = weights_star.matrix
    W_star = W_star[:, np.linalg.norm(W_star, axis=0) > ZERO_TOL]
    others = np.hstack([W, W_star])
    norms, other_norms, _, theta = _column_angles(W, others)
    if np.any(norms <= ZERO_TOL):
        raise ZeroColumn("gradient undefined at zero weight columns")
    signs = np.concatenate([np.ones(W.shape[1]), -np.ones(W_star.shape[1])])
    grad = (
        others @ ((np.pi - theta) * signs).T
        + (W / norms) * (np.sin(theta) @ (signs * other_norms))
    ) / np.pi
    units = weights.line_set.unit_vectors[:, list(weights.neuron_map.assignment)]
    projected = np.einsum("dk,dk->k", grad, units)
    return grad, projected


def stationarity_check(
    weights: PNNWeights, weights_star: PNNWeights, tol: float
) -> bool:
    """True iff every projected gradient component is within ``tol`` of 0."""
    _, projected = analytic_gradient(weights, weights_star)
    return bool(np.max(np.abs(projected)) <= tol)


def _finite_vector(values, size: int, what: str) -> np.ndarray:
    """``values`` as a float vector of shape ``(size,)`` with finite entries."""
    arr = np.asarray(values, dtype=float)
    if arr.shape != (size,):
        raise DimensionMismatch("%s must have shape (%d,), got %s" % (what, size, arr.shape))
    if not np.isfinite(arr).all():
        raise DomainError("%s must be finite" % what)
    return arr


def bad_region_stationary(bundle: KernelBundle, q_star, line_signs, w0=None):
    """Stationary point data in an all-single-orientation region.

    Each model line ``l`` of ``bundle.lines`` carries only neurons of
    orientation ``s_l = line_signs[l]``, so the column sum is ``U S q`` and
    the risk is a quadratic in the per-line masses ``q``.  Its stationary
    point solves ``(S G S + psi_lines) q = S U' w0 + psi_cross q*`` (``G``
    the line Gram matrix), by the package's pseudo-inverse.  Returns
    ``(z, q)`` with the column-sum gap ``z = U S q - w0``.  The lines need
    not span the ambient space (r < d is allowed).
    """
    s = _sign_pattern(line_signs)
    if s.size != bundle.num_lines:
        raise DimensionMismatch("need one orientation sign per line")
    q_star = _finite_vector(q_star, bundle.star.num_lines, "target masses")
    d = bundle.lines.dim
    w0 = np.zeros(d) if w0 is None else _finite_vector(w0, d, "w0")
    US = bundle.lines.unit_vectors * s
    core = symmetric_pseudo_inverse(US.T @ US + bundle.psi_lines)
    q = core @ (US.T @ w0 + bundle.psi_cross @ q_star)
    return US @ q - w0, q


def bad_region_loss(bundle: KernelBundle, q_star) -> float:
    """Population risk at the bad-region stationary point (zero target sum).

    Equals a quarter of the quadratic form of ``q*`` under the Schur-style
    complement whose inverted block is the line kernel matrix augmented by
    the plain line Gram matrix.
    """
    q_star = _finite_vector(q_star, bundle.star.num_lines, "target masses")
    U = bundle.lines.unit_vectors
    D11 = bundle.psi_lines
    if _cutoff_drops_any(D11):
        raise SingularKernel("line kernel matrix is numerically singular")
    augmented = D11 + U.T @ U
    inner = np.linalg.solve(augmented, bundle.psi_cross @ q_star)
    value = q_star @ bundle.psi_star @ q_star - (bundle.psi_cross @ q_star) @ inner
    return 0.25 * float(value)
