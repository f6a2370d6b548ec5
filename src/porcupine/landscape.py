"""Region classification, optimality certificates, and analytic gradients.

Weight space splits into orthant-like regions indexed by the orientation
signs of the neurons on each line.  Which regions can hold bad local
optima is decided by sign patterns alone; this module classifies regions,
certifies global optima, tests stationarity in line coordinates, prices
the stationary points inside bad regions, and keeps the d-space gradient
of the population risk as an oracle.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from ._checks import count, finite_array, real
from .errors import (
    ConfigMismatch,
    DimensionMismatch,
    ParameterOutOfRange,
    SingularKernel,
    ZeroColumn,
)
from .kernel import (
    KernelBundle,
    _column_angles,
    _PseudoInverse,
    kernel_bundle,
    min_eigenvalue,
    psi,
)
from .lines import PNNWeights, RegionSignature, ZERO_TOL
from .risk import _line_risk, _line_terms

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


def _sign_pattern(values, name: str = "signs") -> np.ndarray:
    arr = finite_array(np.ravel(values), name, (None,))
    if arr.size < 1:
        raise ParameterOutOfRange("need at least one sign")
    return np.where(arr >= 0, 1, -1).astype(int)


def scalar_region_classify(signs, w_star) -> RegionClassification:
    """Classify a single-input region by its sign vector.

    With mixed target signs, mixed regions hold only global optima while
    the two constant-sign regions hold only bad local optima.  With a
    constant-sign target, the matching constant region holds the global
    optima and every other region holds no optimizer at all.
    """
    s = _sign_pattern(signs)
    s_star = _sign_pattern(w_star, "w_star")
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

    Returns ``(H, rank)`` with ``H = (ones + s s') / 2``; the rank, read off
    the signs, is 1 on the two constant-sign regions and 2 everywhere else.
    """
    s = _sign_pattern(signs).astype(float)
    H = 0.5 * np.ones((s.size, s.size)) + 0.5 * np.outer(s, s)
    return H, 1 if np.all(s == s[0]) else 2


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
    """Test ``sum_i w_i = sum_i w*_i`` and equal per-line masses, each
    residual within ``tol``.  A non-finite ``tol`` raises DomainError, a
    negative one ParameterOutOfRange."""
    tol = real(tol, "tol", 0.0)
    if not weights.same_config(weights_star):
        raise ConfigMismatch("both networks must share the line configuration")
    gap, q, q_star = _line_terms(weights, weights_star)
    sum_residual = float(np.linalg.norm(gap))
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
    return signature.mixed_line_count >= count(d, "d")


def classify_region(signature: RegionSignature, d: int) -> RegionClassification:
    """Good region (no bad local optima) or not, with the non-mixed lines."""
    if region_condition(signature, d):
        return RegionClassification(label=GOOD_REGION)
    witness = tuple(l for l, m in enumerate(signature.mixed) if not m)
    return RegionClassification(label=MAY_HAVE_BAD_LOCAL, witness=witness)


def good_region_probability(r: int, d: int, neurons_per_line: int) -> float:
    """Probability that uniformly random signs give a good region.

    With ``t`` neurons per line a line is single-orientation with probability
    ``p = 2^(1-t)``; the region is good when at least ``d`` lines are mixed: the
    shorter binomial tail, summed from its largest term until the terms underflow.
    For ``r`` beyond the float range it is 1.0 if ``d < (1 - p) r``, else 0.0."""
    r, d = count(r, "r"), count(d, "d")
    p = math.ldexp(1.0, 1 - count(neurons_per_line, "neurons_per_line"))
    if r > sys.float_info.max:
        return float(d <= r and d / r < 1.0 - p)
    if p in (0.0, 1.0) or d > r:  # every line mixed, or none, or too few lines
        return float(p == 0.0 and d <= r)
    low, high = (d, r) if r - d < d else (0, d - 1)  # the side with fewer terms
    top = min(max(math.floor((r + 1) * (1.0 - p)), low), high)  # nearest the mode
    log_top = math.fsum([math.log((r - j) / (j + 1)) for j in range(min(top, r - top))]
                        + [top * math.log1p(-p), (r - top) * math.log(p)])
    odds, terms = (1.0 - p) / p, [1.0]  # term i + 1 over term i is odds (r - i) / (i + 1)
    for i, stop, term in ((top, high, 1.0), (top, low, 1.0)):  # up, then down
        while i != stop and term > 0.0:
            term *= odds * (r - i) / (i + 1) if i < stop else i / (odds * (r - i + 1))
            terms.append(term)
            i += 1 if i < stop else -1
    mass = math.exp(log_top) * math.fsum(terms)
    return min(mass, 1.0) if low else max(1.0 - mass, 0.0)  # the upper tail, or the lower


def analytic_gradient(weights: PNNWeights, weights_star: PNNWeights):
    """Exact gradient of the population risk at ``weights`` in weight space:
    an independent oracle, beside ``pairwise_population_risk``,
    ``truncated_covariance`` and Monte Carlo, that the package's own code
    does not call.

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


def _line_gradient(weights: PNNWeights, weights_star: PNNWeights) -> np.ndarray:
    """The risk's derivative along each neuron's line: for neuron ``j``
    with scalar ``c_j`` on line ``l``, ``(u_l' gap + sign(c_j) (psi_lines q
    - psi_cross q*)_l) / 2``; when both networks share one line set the
    three blocks are ``psi(G)``, and the mass term is read as
    ``psi(G) (q - q*)``, as ``matched_risk`` does.  A zero column raises
    ZeroColumn."""
    gap, q, q_star = _line_terms(weights, weights_star)
    c = weights.scales
    if np.any(np.abs(c) <= ZERO_TOL):
        raise ZeroColumn("gradient undefined at zero weight columns")
    if weights.line_set.same_geometry(weights_star.line_set):
        mass = psi(weights.line_set.gram) @ (q - q_star)
    else:
        bundle = kernel_bundle(weights.line_set, weights_star.line_set)
        mass = bundle.psi_lines @ q - bundle.psi_cross @ q_star
    lines = list(weights.neuron_map.assignment)
    along = (weights.line_set.unit_vectors.T @ gap)[lines]
    return 0.5 * (along + np.sign(c) * mass[lines])


def stationarity_check(
    weights: PNNWeights, weights_star: PNNWeights, tol: float
) -> bool:
    """True iff the risk's derivative along every neuron's line is within
    ``tol`` of 0.  A non-finite ``tol`` raises DomainError, a negative one
    ParameterOutOfRange."""
    tol = real(tol, "tol", 0.0)
    return bool(np.max(np.abs(_line_gradient(weights, weights_star))) <= tol)


def bad_region_stationary(bundle: KernelBundle, q_star, line_signs, w0=None):
    """Stationary point data in an all-single-orientation region.

    Each model line ``l`` of ``bundle.lines`` carries only neurons of
    orientation ``s_l = line_signs[l]``, so the column sum is ``U S q`` and
    the risk is a quadratic in the per-line masses ``q``.  Its stationary
    point solves ``(S G S + psi_lines) q = S U' w0 + psi_cross q*`` (``G``
    the line Gram matrix) through ``kernel._PseudoInverse``, the
    pseudo-inverse ``schur.schur_complement`` applies too.  Returns
    ``(z, q)`` with the column-sum gap ``z = U S q - w0``.  The lines need
    not span the ambient space (r < d is allowed).
    """
    s = _sign_pattern(line_signs)
    if s.size != bundle.num_lines:
        raise DimensionMismatch("need one orientation sign per line")
    q_star = finite_array(q_star, "target masses", (bundle.star.num_lines,))
    d = bundle.lines.dim
    w0 = np.zeros(d) if w0 is None else finite_array(w0, "w0", (d,))
    US = bundle.lines.unit_vectors * s
    system = US.T @ US + bundle.psi_lines
    rhs = US.T @ w0 + bundle.psi_cross @ q_star
    q = _PseudoInverse(system).solve(rhs)
    return US @ q - w0, q


def bad_region_loss(bundle: KernelBundle, q_star) -> float:
    """Population risk at the bad-region stationary point (zero target sum).

    The region is the one where every model line carries a single
    orientation and all lines the same one (``S = +-I``; both give one
    value).  A region whose single-orientation lines differ in sign has
    another stationary value.  The risk is read from the line-coordinate
    quadratic at ``bad_region_stationary(bundle, q_star, ones)``, an
    unconstrained stationary point: a negative mass puts it outside the
    region.
    """
    q_star = finite_array(q_star, "target masses", (bundle.star.num_lines,))
    if _PseudoInverse(bundle.psi_lines).drops_any:
        raise SingularKernel("line kernel matrix is numerically singular")
    gap, q = bad_region_stationary(bundle, q_star, np.ones(bundle.num_lines))
    return _line_risk(bundle, gap, q, q_star).total
