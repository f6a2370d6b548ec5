"""Region labels, Hessians, analytic gradients, and bad-region formulas."""

import numpy as np
import pytest

import porcupine as p
from porcupine.landscape import _line_gradient
from porcupine.errors import (
    ConfigMismatch,
    DimensionMismatch,
    DomainError,
    ParameterOutOfRange,
    SingularKernel,
    ZeroColumn,
)


def scalar_region_minimum(signs, w_star):
    """Independent oracle: infimum of the single-input risk on a region.

    In the region with sign vector ``s`` the reachable pairs
    ``(t, v) = (sum w, sum |w|)`` are ``t = v`` (all plus), ``t = -v``
    (all minus), or the open cone ``|t| < v`` (mixed); the risk is
    ``((t - A)^2 + (v - B)^2) / 4`` with ``A = sum w*``, ``B = sum |w*|``.
    Minimize by projecting (A, B) onto the closure of the reachable set.
    """
    signs = np.asarray(signs)
    A = float(np.sum(w_star))
    B = float(np.sum(np.abs(w_star)))

    def risk(t, v):
        return 0.25 * ((t - A) ** 2 + (v - B) ** 2)

    if np.all(signs == 1):
        v = max((A + B) / 2.0, 0.0)
        return risk(v, v)
    if np.all(signs == -1):
        v = max((B - A) / 2.0, 0.0)
        return risk(-v, v)
    if abs(A) <= B:
        return 0.0
    v = (abs(A) + B) / 2.0
    return risk(np.sign(A) * v, v)


def perturbed_instance(seed, d=6, r=8, theta=0.05):
    """Mismatched instance whose good-region stationary point exists.

    Every target line is a small-angle perturbation of a model line, so
    the stationary mass system has a strictly positive solution; the
    target pairs are balanced so the column sums cancel.
    """
    seq = np.random.SeedSequence(seed).spawn(2)
    ls = p.random_line_set(d, r, seq[0])
    rng = np.random.default_rng(seq[1])
    cols = []
    for j in range(r):
        u = ls.line(j)
        g = rng.standard_normal(d)
        g -= (g @ u) * u
        g /= np.linalg.norm(g)
        cols.append(np.cos(theta) * u + np.sin(theta) * g)
    star = p.build_line_set(cols)
    star_map = p.NeuronLineMap(2 * r, tuple(np.repeat(np.arange(r), 2)))
    amplitudes = rng.uniform(0.5, 1.0, r)
    w_star = p.weights_from_masses(
        star, star_map, np.repeat(amplitudes, 2) * np.tile([1.0, -1.0], r)
    )
    return ls, star, w_star


class TestScalarRegionClassify:
    def test_constant_region_with_mixed_target_is_bad(self):
        out = p.scalar_region_classify([1, 1], [6.0, -4.0])
        assert out.label == p.ONLY_BAD_LOCAL

    def test_mixed_region_with_mixed_target_is_global(self):
        out = p.scalar_region_classify([1, -1], [6.0, -4.0])
        assert out.label == p.ONLY_GLOBAL

    def test_matching_constant_region(self):
        out = p.scalar_region_classify([1, 1], [6.0, 4.0])
        assert out.label == p.ONLY_GLOBAL

    def test_constant_target_elsewhere_no_optima(self):
        assert p.scalar_region_classify([1, -1], [6.0, 4.0]).label == p.NO_OPTIMA
        assert p.scalar_region_classify([-1, -1], [6.0, 4.0]).label == p.NO_OPTIMA

    def test_region_minimizer_oracle_agrees(self):
        # Constrained minimization attains exactly zero in OnlyGlobal
        # regions and a strictly positive value in OnlyBadLocal ones.
        rng = np.random.default_rng(6)
        for _ in range(30):
            k = int(rng.integers(2, 5))
            w_star = rng.standard_normal(k) * 3.0
            for signs in [rng.choice([-1, 1], size=k) for _ in range(4)]:
                label = p.scalar_region_classify(signs, w_star).label
                minimum = scalar_region_minimum(signs, w_star)
                if label == p.ONLY_GLOBAL:
                    assert minimum == pytest.approx(0.0, abs=1e-12)
                elif label == p.ONLY_BAD_LOCAL:
                    assert minimum > 1e-6

    def test_bad_local_value_eight(self):
        assert scalar_region_minimum([1, 1], [6.0, -4.0]) == pytest.approx(8.0)


class TestScalarHessian:
    def test_constant_signs_rank_one(self):
        H, rank = p.scalar_hessian([1, 1])
        np.testing.assert_array_equal(H, np.ones((2, 2)))
        assert rank == 1

    def test_mixed_signs_rank_two(self):
        H, rank = p.scalar_hessian([1, -1])
        np.testing.assert_array_equal(H, np.eye(2))
        assert rank == 2

    def test_always_psd_with_predicted_rank(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            k = int(rng.integers(1, 9))
            signs = rng.choice([-1, 1], size=k)
            H, rank = p.scalar_hessian(signs)
            assert p.min_eigenvalue(H) >= -1e-12
            expected = 1 if len(set(signs.tolist())) == 1 else 2
            assert rank == expected


class TestGlobalOptimumCheck:
    def test_identity_is_global(self):
        ls = p.random_line_set(4, 3, seed=1)
        m = p.NeuronLineMap(5, (0, 1, 2, 0, 1))
        w = p.weights_from_masses(ls, m, np.array([1.0, -2.0, 0.5, 2.0, 1.0]))
        check = p.global_optimum_check(w, w)
        assert check.is_global
        assert check.sum_residual == 0.0 and check.mass_residual == 0.0

    def test_scalar_flat_valley(self):
        ls = p.build_line_set([[1.0]])
        m = p.NeuronLineMap(2, (0, 0))
        w = p.weights_from_masses(ls, m, [5.0, 5.0])
        w_star = p.weights_from_masses(ls, m, [6.0, 4.0])
        assert p.global_optimum_check(w, w_star, tol=1e-9).is_global

    def test_mass_mismatch_not_global(self):
        ls = p.random_line_set(4, 3, seed=2)
        m = p.NeuronLineMap(4, (0, 1, 2, 0))
        w = p.weights_from_masses(ls, m, np.array([1.0, 1.0, 1.0, 1.0]))
        w_star = p.weights_from_masses(ls, m, np.array([1.0, 1.0, 1.0, -1.0]))
        check = p.global_optimum_check(w, w_star)
        assert not check.is_global
        if check.kernel_pd:
            assert p.matched_risk(w, w_star).total > 0.0

    def test_config_mismatch(self):
        a = p.random_line_set(3, 2, 3)
        b = p.random_line_set(3, 2, 4)
        m = p.NeuronLineMap(2, (0, 1))
        w1 = p.weights_from_masses(a, m, [1.0, 1.0])
        w2 = p.weights_from_masses(b, m, [1.0, 1.0])
        with pytest.raises(ConfigMismatch):
            p.global_optimum_check(w1, w2)


class TestRegionCondition:
    def _signature(self, per_line_signs):
        return p.RegionSignature(
            signs=tuple(tuple(s) for s in per_line_signs),
            nonzero=tuple(tuple(True for _ in s) for s in per_line_signs),
        )

    def test_enough_mixed_lines(self):
        signature = self._signature([(1, -1), (1, -1), (1, 1), (-1, 1), (1, 1)])
        assert p.region_condition(signature, d=2)
        assert p.classify_region(signature, 2).label == p.GOOD_REGION

    def test_all_constant_lines(self):
        signature = self._signature([(1, 1), (1, 1, 1)])
        assert not p.region_condition(signature, d=1)
        out = p.classify_region(signature, 1)
        assert out.label == p.MAY_HAVE_BAD_LOCAL
        assert out.witness == (0, 1)

    def test_singleton_lines_never_mixed(self):
        signature = self._signature([(1,), (-1,), (1, -1)])
        assert signature.mixed == (False, False, True)

    def test_probability_formula_matches_simulation(self):
        r, d, t = 12, 3, 2
        predicted = p.good_region_probability(r, d, t)
        rng = np.random.default_rng(14)
        n = 20_000
        hits = 0
        for _ in range(n):
            signs = rng.choice([-1, 1], size=(r, t))
            mixed = int(np.sum(signs.min(axis=1) != signs.max(axis=1)))
            hits += mixed >= d
        stderr = np.sqrt(predicted * (1 - predicted) / n)
        assert abs(hits / n - predicted) <= 4.0 * stderr + 1e-4

    def test_single_neuron_lines_give_zero_probability(self):
        assert p.good_region_probability(10, 3, 1) == 0.0

    @pytest.mark.parametrize("args", [
        (5, 2, float("nan")), (float("inf"), 2, 2), (5, -np.inf, 2), (5, 2, np.float64("nan")),
    ])
    def test_non_finite_probability_arguments_rejected(self, args):
        with pytest.raises(DomainError):
            p.good_region_probability(*args)

    @pytest.mark.parametrize("args", [(5.5, 2, 2), (5, 2.0, 2), (5, 2, "2"), (5, 2, None)])
    def test_non_integer_probability_arguments_rejected(self, args):
        with pytest.raises(ParameterOutOfRange):
            p.good_region_probability(*args)

    def test_numpy_integer_arguments_accepted(self):
        assert p.good_region_probability(np.int64(12), np.int32(3), np.int8(2)) \
            == p.good_region_probability(12, 3, 2)


class TestAnalyticGradient:
    def test_stationary_at_identity(self):
        ls = p.random_line_set(4, 3, seed=20)
        m = p.NeuronLineMap(6, (0, 1, 2, 0, 1, 2))
        w = p.weights_from_masses(ls, m, np.array([1.0, 2.0, -1.0, 0.5, -0.5, 2.0]))
        _, projected = p.analytic_gradient(w, w)
        np.testing.assert_allclose(projected, 0.0, atol=1e-12)

    def test_scalar_gradient_matches_finite_differences(self):
        ls = p.build_line_set([[1.0]])
        m = p.NeuronLineMap(2, (0, 0))
        w = p.weights_from_masses(ls, m, [6.0, 2.0])
        w_star = p.weights_from_masses(ls, m, [6.0, -4.0])
        _, projected = p.analytic_gradient(w, w_star)
        h = 1e-5
        for j, base in enumerate([6.0, 2.0]):
            values = []
            for offset in (h, -h):
                masses = [6.0, 2.0]
                masses[j] = base + offset
                values.append(p.scalar_risk(masses, [6.0, -4.0]).total)
            fd = (values[0] - values[1]) / (2 * h)
            assert projected[j] == pytest.approx(fd, rel=1e-6, abs=1e-8)

    def test_matched_projected_gradient_finite_differences(self):
        rng = np.random.default_rng(22)
        ls = p.random_line_set(4, 3, seed=22)
        m = p.NeuronLineMap(6, (0, 1, 2, 0, 1, 2))
        masses = rng.uniform(0.4, 2.0, 6) * rng.choice([-1, 1], 6)
        masses_star = rng.uniform(0.4, 2.0, 6) * rng.choice([-1, 1], 6)
        w = p.weights_from_masses(ls, m, masses)
        w_star = p.weights_from_masses(ls, m, masses_star)
        _, projected = p.analytic_gradient(w, w_star)
        h = 1e-5
        fd = np.zeros(6)
        for j in range(6):
            u = ls.line(m.assignment[j])
            up = w.matrix.copy()
            up[:, j] += h * u
            down = w.matrix.copy()
            down[:, j] -= h * u
            fd[j] = (
                p.matched_risk(p.PNNWeights(up, ls, m), w_star).total
                - p.matched_risk(p.PNNWeights(down, ls, m), w_star).total
            ) / (2 * h)
        rel = np.max(np.abs(fd - projected)) / max(np.max(np.abs(projected)), 1e-9)
        assert rel <= 1e-5

    def test_full_gradient_matches_pairwise_route(self):
        rng = np.random.default_rng(23)
        ls = p.random_line_set(4, 3, seed=23)
        m = p.NeuronLineMap(5, (0, 1, 2, 0, 1))
        w = p.weights_from_masses(ls, m, rng.uniform(0.5, 2.0, 5) * rng.choice([-1, 1], 5))
        star = p.weights_from_columns(rng.standard_normal((4, 4)))
        grad, _ = p.analytic_gradient(w, star)
        h = 1e-5
        for j in range(5):
            for axis in range(4):
                up = w.matrix.copy()
                up[axis, j] += h
                down = w.matrix.copy()
                down[axis, j] -= h
                fd = (
                    p.pairwise_population_risk(up, star.matrix)
                    - p.pairwise_population_risk(down, star.matrix)
                ) / (2 * h)
                assert grad[axis, j] == pytest.approx(fd, rel=1e-4, abs=1e-6)

    @staticmethod
    def _covariance_route(W, W_star):
        # Independent route: one d x d truncated covariance block per
        # neuron pair, skipping zero target columns.
        d, k = W.shape
        grad = np.zeros((d, k))
        for j in range(k):
            acc = np.zeros(d)
            for i in range(k):
                acc += p.truncated_covariance(W[:, j], W[:, i]) @ W[:, i]
            for col in W_star.T:
                if np.linalg.norm(col) > 1e-12:
                    acc -= p.truncated_covariance(W[:, j], col) @ col
            grad[:, j] = 2.0 * acc
        return grad

    @pytest.mark.parametrize("matched", [True, False])
    @pytest.mark.parametrize("k", [8, 32, 64])
    def test_contracted_form_matches_covariance_route(self, k, matched):
        # Two neurons per line with random signs give aligned (theta = 0)
        # and opposite (theta = pi) model pairs; the target adds a zero
        # column and, when mismatched, an aligned and an opposite column.
        d, r = 8, k // 2
        seq = np.random.SeedSequence([25, k, int(matched)]).spawn(3)
        ls = p.random_line_set(d, r, seq[0])
        m = p.NeuronLineMap(k, tuple(np.repeat(np.arange(r), 2)))
        rng = np.random.default_rng(seq[1])
        w = p.weights_from_masses(ls, m, rng.uniform(0.4, 2.0, k) * rng.choice([-1, 1], k))
        if matched:
            masses = rng.uniform(0.4, 2.0, k) * rng.choice([-1, 1], k)
            masses[3] = 0.0
            star = p.weights_from_masses(ls, m, masses)
        else:
            columns = rng.standard_normal((d, r))
            columns[:, 1] = 1.5 * w.matrix[:, 0]
            columns[:, 2] = -0.7 * w.matrix[:, 1]
            base = p.weights_from_columns(columns)
            columns[:, 0] = 0.0
            star = p.PNNWeights(columns, base.line_set, base.neuron_map)
        grad, _ = p.analytic_gradient(w, star)
        reference = self._covariance_route(w.matrix, star.matrix)
        scale = np.max(np.abs(reference))
        assert np.max(np.abs(grad - reference)) <= 1e-12 * scale

    def test_zero_column_rejected(self):
        ls = p.random_line_set(3, 2, seed=24)
        m = p.NeuronLineMap(2, (0, 1))
        w = p.weights_from_masses(ls, m, [1.0, 0.0])
        with pytest.raises(ZeroColumn):
            p.analytic_gradient(w, w)


class TestStationarity:
    def test_identity_is_stationary(self):
        ls = p.random_line_set(5, 4, seed=25)
        m = p.NeuronLineMap(6, (0, 1, 2, 3, 0, 1))
        w = p.weights_from_masses(ls, m, np.array([1.0, -1.0, 2.0, 0.5, 1.5, -0.7]))
        assert p.stationarity_check(w, w, tol=1e-9)

    def test_scalar_bad_local_point(self):
        # (3, 3) is stationary for the all-plus region against (6, -4).
        ls = p.build_line_set([[1.0]])
        m = p.NeuronLineMap(2, (0, 0))
        w = p.weights_from_masses(ls, m, [3.0, 3.0])
        w_star = p.weights_from_masses(ls, m, [6.0, -4.0])
        assert p.stationarity_check(w, w_star, tol=1e-9)
        assert p.scalar_risk([3.0, 3.0], [6.0, -4.0]).total == pytest.approx(8.0)

    def test_random_point_not_stationary(self):
        rng = np.random.default_rng(26)
        ls = p.random_line_set(4, 3, seed=26)
        m = p.NeuronLineMap(4, (0, 1, 2, 0))
        w = p.weights_from_masses(ls, m, rng.uniform(0.5, 2.0, 4))
        w_star = p.weights_from_masses(ls, m, rng.uniform(0.5, 2.0, 4) + 1.0)
        assert not p.stationarity_check(w, w_star, tol=1e-4)


NAN = float("nan")
INF = float("inf")


def gradient_instance(seed, matched):
    """Random network with several neurons per line, both signs on a line,
    and a target on the same lines (matched) or on its own lines with a
    zero column and columns aligned and opposite to model neurons."""
    seq = np.random.SeedSequence([27, seed, int(matched)]).spawn(3)
    rng = np.random.default_rng(seq[1])
    d = 2 + seed % 7
    r = 1 + seed % 6
    per_line = 2 + seed % 3
    ls = p.random_line_set(d, r, seq[0])
    m = p.NeuronLineMap(r * per_line, tuple(np.repeat(np.arange(r), per_line)))
    k = m.num_neurons
    w = p.weights_from_masses(ls, m, rng.uniform(0.2, 3.0, k) * rng.choice([-1, 1], k))
    if matched:
        masses = rng.uniform(0.2, 3.0, k) * rng.choice([-1, 1], k)
        masses[seed % k] = 0.0
        return w, p.weights_from_masses(ls, m, masses)
    columns = rng.standard_normal((d, 3 + seed % 4))
    columns[:, 1] = 1.5 * w.matrix[:, 0]
    columns[:, 2] = -0.7 * w.matrix[:, -1]
    base = p.weights_from_columns(columns)
    columns[:, 0] = 0.0
    return w, p.PNNWeights(columns, base.line_set, base.neuron_map)


class TestLineGradient:
    """The line-coordinate gradient that stationarity_check reads, against
    the d-space oracle's projection onto each neuron's line."""

    @pytest.mark.parametrize("matched", [True, False])
    def test_matches_oracle_projection(self, matched):
        for seed in range(60):
            w, w_star = gradient_instance(seed, matched)
            reference = p.analytic_gradient(w, w_star)[1]
            got = _line_gradient(w, w_star)
            assert np.max(np.abs(got - reference)) <= 1e-12 * np.max(np.abs(reference))

    def test_shared_line_set_builds_no_bundle(self, monkeypatch):
        import porcupine.landscape as landscape

        def no_bundle(*args, **kwargs):
            raise AssertionError("a shared line set needs only psi(G)")

        monkeypatch.setattr(landscape, "kernel_bundle", no_bundle)
        for seed in range(20):
            w, w_star = gradient_instance(seed, matched=True)
            reference = p.analytic_gradient(w, w_star)[1]
            got = _line_gradient(w, w_star)
            assert np.max(np.abs(got - reference)) <= 1e-12 * np.max(np.abs(reference))

    def test_zero_column_rejected(self):
        ls = p.random_line_set(3, 2, seed=24)
        m = p.NeuronLineMap(3, (0, 1, 1))
        w = p.weights_from_masses(ls, m, [1.0, 0.0, 2.0])
        with pytest.raises(ZeroColumn):
            p.stationarity_check(w, w, tol=1e-9)


THRESHOLD_CHECKS = [
    lambda w, tol: p.stationarity_check(w, w, tol=tol),
    lambda w, tol: p.global_optimum_check(w, w, tol=tol),
]


@pytest.mark.parametrize("tol, error", [
    (NAN, DomainError), (INF, DomainError), (-INF, DomainError),
    (-1.0, ParameterOutOfRange), (-1e-12, ParameterOutOfRange),
])
@pytest.mark.parametrize("check", THRESHOLD_CHECKS, ids=["stationarity", "global"])
def test_bad_decision_threshold_raises(check, tol, error):
    w, _ = gradient_instance(3, matched=True)
    with pytest.raises(error):
        check(w, tol)


def test_zero_threshold_accepted_at_the_target():
    ls = p.axes_line_set(3)
    w = p.weights_from_masses(ls, p.NeuronLineMap(3, (0, 1, 2)), [1.0, -2.0, 0.5])
    assert p.stationarity_check(w, w, tol=0.0)
    assert p.global_optimum_check(w, w, tol=0.0).is_global


class TestGoodRegionStationaryValue:
    def test_constructed_stationary_point_attains_schur_value(self):
        # Build the good-region stationary point in closed form and check
        # both the gradient and the attained loss against the Schur route.
        for seed in range(5):
            ls, star, w_star = perturbed_instance((600, seed))
            q_star, _ = p.decompose_weights(w_star)
            bundle = p.kernel_bundle(ls, star)
            q_opt = np.linalg.solve(bundle.psi_lines, bundle.psi_cross @ q_star)
            assert q_opt.min() > 0.0, "construction must admit an interior optimum"
            r = ls.num_lines
            neuron_map = p.NeuronLineMap(2 * r, tuple(np.repeat(np.arange(r), 2)))
            masses = np.repeat(q_opt / 2.0, 2) * np.tile([1.0, -1.0], r)
            w = p.weights_from_masses(ls, neuron_map, masses)
            assert p.stationarity_check(w, w_star, tol=1e-8)
            _, signature = p.decompose_weights(w)
            assert p.region_condition(signature, ls.dim)
            achieved = p.mismatched_risk(w, w_star).total
            expected = p.schur_complement(bundle).loss_at_good_local(q_star)
            assert achieved == pytest.approx(expected, abs=1e-6)


class TestBadRegion:
    def _setup(self, seed, d=5, r=7, r_star=3):
        seq = np.random.SeedSequence(seed).spawn(3)
        ls = p.random_line_set(d, r, seq[0])
        star = p.random_line_set(d, r_star, seq[1])
        rng = np.random.default_rng(seq[2])
        q_star = rng.uniform(0.5, 2.0, r_star)
        return ls, star, p.kernel_bundle(ls, star), q_star, rng

    def test_zero_right_hand_side(self):
        ls, star, bundle, q_star, _ = self._setup(70)
        z = p.bad_region_stationary(
            bundle, np.zeros(star.num_lines), np.ones(ls.num_lines)
        )[0]
        np.testing.assert_allclose(z, 0.0, atol=1e-12)

    def test_orthonormal_lines_match_direct_inverse(self):
        axes = p.axes_line_set(4)
        star = p.random_line_set(4, 2, seed=71)
        bundle = p.kernel_bundle(axes, star)
        q_star = np.array([1.0, 2.0])
        z = p.bad_region_stationary(bundle, q_star, np.ones(4))[0]
        D11 = bundle.psi_lines
        U = axes.unit_vectors
        direct = np.linalg.solve(
            np.eye(4) + U @ np.linalg.solve(D11, U.T),
            U @ np.linalg.solve(D11, bundle.psi_cross @ q_star),
        )
        np.testing.assert_allclose(z, direct, atol=1e-10)

    def test_stationarity_residual(self):
        ls, star, bundle, q_star, rng = self._setup(72)
        signs = rng.choice([-1, 1], size=ls.num_lines)
        w0 = rng.standard_normal(ls.dim) * 0.5
        z, q = p.bad_region_stationary(bundle, q_star, signs, w0)
        S = np.diag(signs.astype(float))
        U = ls.unit_vectors
        np.testing.assert_allclose(z, U @ S @ q - w0, atol=1e-10)
        residual = S @ U.T @ z + bundle.psi_lines @ q - bundle.psi_cross @ q_star
        assert np.max(np.abs(residual)) <= 1e-8

    def test_matches_former_projector_route(self):
        # The former route rebuilt z by solving with the projector U U',
        # which needs lines spanning R^d; it stays here as a reference.
        def projector_route(bundle, q_star, signs, w0):
            U = bundle.lines.unit_vectors
            S = np.diag(signs)
            D11, D12 = bundle.psi_lines, bundle.psi_cross
            core = p.symmetric_pseudo_inverse(S @ U.T @ U @ S + D11)
            rhs = D11 @ core @ (S @ U.T @ w0) + (D11 @ core - np.eye(U.shape[1])) @ (D12 @ q_star)
            z = -np.linalg.solve(U @ U.T, U @ S @ rhs)
            return z, core @ (S @ U.T @ w0 + D12 @ q_star), np.linalg.cond(U @ U.T)

        for seed in range(60):
            d = 2 + seed % 6
            ls, star, bundle, q_star, rng = self._setup((82, seed), d=d, r=d + seed % 5)
            signs = rng.choice([-1.0, 1.0], size=ls.num_lines)
            w0 = rng.standard_normal(d)
            z, q = p.bad_region_stationary(bundle, q_star, signs, w0)
            z_ref, q_ref, cond = projector_route(bundle, q_star, signs, w0)
            assert np.max(np.abs(q - q_ref)) <= 1e-11 * max(1.0, np.max(np.abs(q_ref)))
            if cond <= 1e6:
                assert np.max(np.abs(z - z_ref)) <= 1e-9 * max(1.0, np.max(np.abs(z_ref)))

    def test_fewer_lines_than_dimensions(self):
        # r < d: the lines do not span R^d, and the stationary point exists.
        ls, star, bundle, q_star, rng = self._setup(83, d=6, r=3)
        signs = np.array([1.0, -1.0, 1.0])
        w0 = rng.standard_normal(6)
        z, q = p.bad_region_stationary(bundle, q_star, signs, w0)
        assert np.isfinite(z).all() and np.isfinite(q).all()
        U = ls.unit_vectors
        np.testing.assert_allclose(z, U @ (signs * q) - w0, atol=1e-10)
        residual = signs * (U.T @ z) + bundle.psi_lines @ q - bundle.psi_cross @ q_star
        assert np.max(np.abs(residual)) <= 1e-10

    def test_loss_zero_for_zero_target_mass(self):
        ls, star, bundle, _, _ = self._setup(73)
        assert p.bad_region_loss(bundle, np.zeros(star.num_lines)) == 0.0

    def test_bad_region_dominates_good_region(self):
        for seed in range(74, 80):
            ls, star, bundle, q_star, _ = self._setup(seed)
            good = p.schur_complement(bundle).loss_at_good_local(q_star)
            bad = p.bad_region_loss(bundle, q_star)
            assert bad >= good - 1e-12

    def test_two_route_equivalence(self):
        # Assembling the loss from the stationary gap plus the plain Schur
        # term must match the augmented-block closed form.
        ls, star, bundle, q_star, _ = self._setup(81)
        r, d = ls.num_lines, ls.dim
        z, _ = p.bad_region_stationary(bundle, q_star, np.ones(r))
        U = ls.unit_vectors
        schur = p.schur_complement(bundle).schur
        middle = np.eye(d) + U @ np.linalg.solve(bundle.psi_lines, U.T)
        assembled = 0.25 * (float(q_star @ schur @ q_star) + float(z @ middle @ z))
        closed = p.bad_region_loss(bundle, q_star)
        assert assembled == pytest.approx(closed, abs=1e-8)

    @staticmethod
    def _augmented_solve(bundle, q_star):
        # The former closed form, kept as a reference: a quarter of the
        # quadratic form of q* under the Schur-style complement whose
        # inverted block is psi_lines augmented by the plain line Gram U'U.
        U = bundle.lines.unit_vectors
        b = bundle.psi_cross @ q_star
        inner = np.linalg.solve(bundle.psi_lines + U.T @ U, b)
        return 0.25 * float(q_star @ bundle.psi_star @ q_star - b @ inner)

    @pytest.mark.parametrize("d, r, r_star", [(5, 7, 3), (16, 32, 16), (128, 256, 128)])
    def test_matches_augmented_solve(self, d, r, r_star):
        for seed in range(3):
            _, _, bundle, q_star, _ = self._setup((84, d, seed), d=d, r=r, r_star=r_star)
            reference = self._augmented_solve(bundle, q_star)
            assert p.bad_region_loss(bundle, q_star) == pytest.approx(reference, rel=1e-10)

    def test_loss_is_that_of_the_same_orientation_region(self):
        # S = +I and S = -I give one value; alternating signs another.  On
        # these lines every stationary mass is positive, so each value is
        # the risk of a network inside its region.
        bundle = p.kernel_bundle(p.random_line_set(3, 4, (8, 0)), p.random_line_set(3, 3, (8, 1)))
        q_star = np.ones(3)
        loss = p.bad_region_loss(bundle, q_star)

        # The target puts +q*/2 and -q*/2 on each of its lines: masses q*
        # and a zero column sum.
        half = bundle.star.unit_vectors * (q_star / 2)
        target = np.hstack([half, -half])

        def region_value(signs):
            _, q = p.bad_region_stationary(bundle, q_star, signs)
            assert q.min() > 0.0
            return p.pairwise_population_risk(bundle.lines.unit_vectors * (signs * q), target)

        for signs in (np.ones(4), -np.ones(4)):
            assert region_value(signs) == pytest.approx(loss, rel=1e-10)
        assert abs(region_value(np.array([1.0, -1.0, 1.0, -1.0])) - loss) > 0.1

    def test_singular_kernel_rejected(self):
        ls = p.build_line_set([[1.0, 0.0], [0.0, 1.0]])
        star = p.build_line_set([[1.0, 1.0]])
        bundle = p.kernel_bundle(ls, star)
        degenerate = p.KernelBundle(
            psi_lines=np.ones((2, 2)),
            psi_cross=bundle.psi_cross,
            psi_star=bundle.psi_star,
            lines=ls,
            star=star,
        )
        with pytest.raises(SingularKernel):
            p.bad_region_loss(degenerate, np.array([1.0]))


BAD_INPUT_BUNDLE = p.kernel_bundle(p.random_line_set(5, 7, 90), p.random_line_set(5, 3, 91))


@pytest.mark.parametrize("call, error", [
    (lambda b: p.bad_region_stationary(b, [1.0, NAN, 1.0], np.ones(7)), DomainError),
    (lambda b: p.bad_region_loss(b, [1.0, NAN, 1.0]), DomainError),
    (lambda b: p.bad_region_loss(b, [1.0, -INF, 1.0]), DomainError),
    (lambda b: p.bad_region_stationary(b, np.ones(3), np.ones(7), [0, 0, INF, 0, 0]), DomainError),
    (lambda b: p.bad_region_stationary(b, np.ones(3), [1, 1, 1, NAN, 1, 1, 1]), DomainError),
    (lambda b: p.bad_region_stationary(b, np.ones(4), np.ones(7)), DimensionMismatch),
    (lambda b: p.bad_region_loss(b, np.ones(2)), DimensionMismatch),
    (lambda b: p.bad_region_stationary(b, np.ones(3), np.ones(7), np.zeros(4)), DimensionMismatch),
    (lambda b: p.scalar_region_classify([NAN, 1], [1, -1]), DomainError),
    (lambda b: p.scalar_region_classify([1, 1], [6.0, NAN]), DomainError),
    (lambda b: p.scalar_hessian([NAN, 1]), DomainError),
    (lambda b: p.scalar_region_classify([], [1, -1]), ParameterOutOfRange),
    (lambda b: p.scalar_region_classify([1, 1], []), ParameterOutOfRange),
    (lambda b: p.scalar_hessian([]), ParameterOutOfRange),
], ids=["stationary-nan-mass", "loss-nan-mass", "loss-inf-mass", "stationary-inf-w0",
        "stationary-nan-sign", "stationary-long-mass", "loss-short-mass",
        "stationary-short-w0", "classify-nan-sign", "classify-nan-target", "hessian-nan-sign",
        "classify-no-signs", "classify-no-target", "hessian-no-signs"])
def test_bad_input_raises(call, error):
    with pytest.raises(error):
        call(BAD_INPUT_BUNDLE)
