"""Angular nets, coverage, and the nearest-direction risk bound."""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

import porcupine as p
from porcupine.errors import CoverageNotReached, DomainError, ParameterOutOfRange
from porcupine.minimax import _GAP_ALIGN, _GAP_BUDGET, _angles_to_net


class TestNetSizeBound:
    def test_right_angle(self):
        for n in (1, 2, 5):
            assert p.net_size_bound(n, np.pi / 2) == pytest.approx(
                0.5 * (1.0 + math.sqrt(2.0)) ** n, abs=1e-12
            )

    def test_one_dimension_sixty_degrees(self):
        # 1 - cos(pi/3) = 1/2, so the bound is (1 + 2)/2.
        assert p.net_size_bound(1, np.pi / 3) == pytest.approx(1.5, abs=1e-12)

    def test_monotone_decreasing_in_delta(self):
        deltas = np.linspace(0.05, np.pi / 2, 40)
        values = [p.net_size_bound(4, d) for d in deltas]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_zero_delta_rejected(self):
        with pytest.raises(DomainError):
            p.net_size_bound(3, 0.0)


class TestSparseNetSize:
    def test_full_sparsity_reduces_to_plain_bound(self):
        assert p.sparse_net_size(5, 5, 0.4) == pytest.approx(
            p.net_size_bound(5, 0.4), abs=1e-9
        )

    def test_one_sparse_in_four_dimensions(self):
        assert p.sparse_net_size(4, 1, np.pi / 2) == pytest.approx(
            0.5 * 4 * (1.0 + math.sqrt(2.0)), abs=1e-12
        )

    def test_known_patterns_variant(self):
        assert p.sparse_net_size(4, 1, np.pi / 2, k=2) == pytest.approx(
            1.0 + math.sqrt(2.0), abs=1e-12
        )

    def test_invalid_sparsity(self):
        with pytest.raises(DomainError):
            p.sparse_net_size(3, 4, 0.3)

    def test_zero_delta_rejected_before_division(self):
        with pytest.raises(DomainError):
            p.sparse_net_size(4, 2, 0.0)


def test_bounds_beyond_the_float_range_are_inf():
    assert p.net_size_bound(10**4, 0.3) == math.inf
    assert p.sparse_net_size(3000, 1500, 1.5) == math.inf
    assert p.sparse_net_size(3000, 1500, 0.3, k=2) == math.inf
    # Below the largest float the bounds are the plain formulas, bit for bit,
    # with sqrt(2)/sqrt(1 - cos delta) read as 1/sin(delta/2); the cosine
    # form agrees to rounding.
    base = 1.0 + 1.0 / math.sin(0.3 / 2.0)
    former = 1.0 + math.sqrt(2.0) / math.sqrt(1.0 - math.cos(0.3))
    assert p.net_size_bound(300, 0.3) == 0.5 * base**300
    assert p.net_size_bound(300, 0.3) == pytest.approx(0.5 * former**300, rel=1e-12)
    assert p.sparse_net_size(60, 30, 0.3) == 0.5 * math.comb(60, 30) * base**30
    assert p.sparse_net_size(60, 30, 0.3, k=7) == 0.5 * 7 * base**30


def test_risk_bound_and_region_probability_beyond_the_float_range():
    assert p.minimax_risk_bound(10**400, 1.0, 3, 0.3) == math.inf
    assert p.minimax_risk_bound(10**309, 1.0, 3, 0.3) == math.inf
    assert p.minimax_risk_bound(2, 1.0, 10**400, 0.3) == math.inf
    # The same values as at r = 10**300, where the tail still evaluates.
    for neurons_per_line, probability in ((1, 0.0), (2, 1.0), (3, 1.0)):
        assert p.good_region_probability(10**300, 2, neurons_per_line) == probability
        assert p.good_region_probability(10**400, 2, neurons_per_line) == probability
    # More dimensions than lines, as at r = 2, d = 5, or more than the mean
    # number of mixed lines: never good.
    assert p.good_region_probability(2, 5, 2) == 0.0
    assert p.good_region_probability(10**400, 10**401, 2) == 0.0
    assert p.good_region_probability(10**400, 10**400 - 5, 2) == 0.0
    assert p.good_region_probability(10**400, 10**399, 2) == 1.0
    # Below the largest float the risk bound is the plain formula, bit for bit,
    # with sqrt(2 d (1 - cos delta)) read as sqrt(d) 2 sin(delta/2).
    assert p.minimax_risk_bound(10**308, 1.0, 3, 0.3) == 10**308 * 1.0 * math.sqrt(3) * (
        2.0 * math.sin(0.3 / 2.0))
    assert p.minimax_risk_bound(10**308, 1.0, 3, 0.3) == pytest.approx(
        10**308 * 1.0 * math.sqrt(2.0 * 3 * (1.0 - math.cos(0.3))), rel=1e-15)


class TestSmallDelta:
    """``1 - cos delta`` cancels to 0 below about 1e-8; the bounds read it as
    ``2 sin^2(delta/2)`` and stay true bounds down to the smallest subnormal."""

    @staticmethod
    def exact_net_size(n, delta):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40 - 2 * math.floor(math.log10(delta))):  # 1 - cos keeps 40
            delta = mpmath.mpf(delta)
            return float(0.5 * (1 + mpmath.sqrt(2) / mpmath.sqrt(1 - mpmath.cos(delta))) ** n)

    @pytest.mark.parametrize("n, delta", [(4, 1e-6), (7, 1e-9), (2, 1e-100), (1, 1e-300)])
    def test_net_size_matches_high_precision(self, n, delta):
        # At delta = 1e-6 the cosine form was off by 1.8e-4 relative (n = 4);
        # at 1e-9 it divided by zero.
        assert p.net_size_bound(n, delta) == pytest.approx(self.exact_net_size(n, delta),
                                                           rel=1e-13)

    def test_bounds_past_the_float_range_are_inf(self):
        assert p.sparse_net_size(7, 2, 1e-300) == math.inf
        assert p.net_size_bound(7, 1e-300) == math.inf

    def test_risk_bound_stays_positive(self):
        # The cosine form returned 0.0 here, which bounds nothing.
        assert p.minimax_risk_bound(3, 1.0, 7, 1e-300) == pytest.approx(
            3 * math.sqrt(7) * 1e-300, rel=1e-12, abs=0.0)
        # A product below the float range is bounded by the smallest float.
        assert p.minimax_risk_bound(3, 1e-300, 7, 1e-300) == math.ulp(0.0)

    def test_smallest_subnormal_delta(self):
        delta = 5e-324  # delta / 2 rounds to 0
        assert delta / 2.0 == 0.0
        assert p.net_size_bound(3, delta) == math.inf
        assert p.sparse_net_size(7, 2, delta, k=3) == math.inf
        assert 0.0 < p.minimax_risk_bound(3, 1.0, 7, delta) < 1e-320

    def test_every_delta_gives_a_positive_bound_or_inf(self):
        deltas = [5e-324, 1e-323, 1.5e-323, 1e-320, 1e-310, 1e-200, 1e-20, 1e-9, 1e-8,
                  1e-4, 0.3, 1.0, math.pi / 2]
        for delta in deltas:
            for value in (p.net_size_bound(7, delta), p.sparse_net_size(7, 2, delta),
                          p.minimax_risk_bound(3, 1.0, 7, delta)):
                assert value > 0.0
        sizes = [p.net_size_bound(4, delta) for delta in deltas]
        assert sizes == sorted(sizes, reverse=True)

    @pytest.mark.parametrize("argv", [
        ["minimax", "bound", "--d", "7", "--delta", "1e-300", "--s", "2", "--k", "3"],
        ["minimax", "bound", "--d", "7", "--delta", "5e-324"],
        ["minimax", "net", "--d", "1", "--delta", "1e-300", "--probes", "10"],
    ])
    def test_cli_exits_zero(self, argv, capsys):
        from porcupine import cli

        assert cli.main(argv) == 0
        assert capsys.readouterr().err == ""


def exact_good_region_probability(r, d, t):
    """1 - P(fewer than d of r lines mixed), each mixed with probability
    1 - 2^(1-t), in exact rationals: the sum over i < d of
    comb(r, i) (2^(t-1) - 1)^i, over 2^((t-1) r)."""
    mixed, below, term = 2 ** (t - 1) - 1, 0, 1  # term = comb(r, i) mixed^i
    for i in range(min(d, r + 1)):
        below += term
        term = term * (r - i) * mixed // (i + 1)
    return 1 - Fraction(below, 2 ** ((t - 1) * r))


# (r, d, t) whose float binomial tail overflows, and a smaller (r, d, t)
# whose exact value is a lower bound: the probability grows with r and t.
OVERFLOWING_TAILS = [
    ((1100, 1000, 2), None), ((2000, 1500, 3), None), ((1030, 1000, 1), None),
    ((10**300, 3, 2), (2000, 3, 2)), ((5, 2, 10**400), (5, 2, 60)),
]


@pytest.mark.parametrize("args, bound", OVERFLOWING_TAILS, ids=lambda a: str(a)[:20])
def test_region_probability_where_the_float_tail_overflows(args, bound):
    got = p.good_region_probability(*args)
    assert math.isfinite(got) and 0.0 <= got <= 1.0
    if bound is None:
        assert abs(got - exact_good_region_probability(*args)) <= 1e-12
    else:
        low = exact_good_region_probability(*bound)
        assert low - Fraction(1, 10**12) <= got <= 1
        assert 1 - low <= Fraction(1, 10**12)


@pytest.mark.parametrize("r, d, t", [
    (12, 3, 2), (1000, 400, 2), (1020, 1010, 3), (300, 299, 1), (40, 30, 2), (2, 2, 2),
    (7, 7, 5), (5000, 2500, 2), (5000, 2600, 2), (4000, 3750, 5)])
def test_region_probability_matches_the_exact_tail(r, d, t):
    got = p.good_region_probability(r, d, t)
    assert math.isclose(got, exact_good_region_probability(r, d, t), rel_tol=1e-12)


def test_region_probability_of_long_tails_at_large_r():
    # The log of the largest term has a rounding error of about 1e-16 r, so
    # at r = 10**5 the result is held to 1e-11; at p = 1/2 and d = r/2 the
    # exact value is 1/2 + comb(r, r/2) / 2^(r+1).
    start = time.perf_counter()
    half = p.good_region_probability(10**5, 5 * 10**4, 2)
    long_tail = p.good_region_probability(20_000, 10_000, 2)
    underflowing = p.good_region_probability(10**300, 10**5, 2)
    assert time.perf_counter() - start < 5.0
    assert abs(half - (Fraction(1, 2) + Fraction(math.comb(10**5, 5 * 10**4), 2 ** (10**5 + 1)))) <= 1e-11
    assert abs(long_tail - exact_good_region_probability(20_000, 10_000, 2)) <= 1e-12
    assert underflowing == 1.0


class TestGreedyAngularNet:
    def test_one_dimension_single_vector(self):
        net = p.greedy_angular_net(1, 0.3, seed=0)
        assert net.size == 1
        assert p.coverage_gap(net, n_probes=1000, seed=1) <= 1e-12

    def test_planar_net_size_and_coverage(self):
        delta = np.pi / 8
        net = p.greedy_angular_net(2, delta, seed=2)
        # covering the projective circle of length pi with 2*delta arcs
        assert net.size >= math.ceil(np.pi / (2 * delta))
        assert net.size <= p.net_size_bound(2, delta)
        assert p.coverage_gap(net, n_probes=100_000, seed=3) <= delta

    def test_three_dimensional_coverage(self):
        net = p.greedy_angular_net(3, 0.3, seed=4)
        assert p.coverage_gap(net, n_probes=100_000, seed=5) <= 0.3
        assert net.size <= p.net_size_bound(3, 0.3)

    def test_net_vectors_are_unit_and_canonical(self):
        net = p.greedy_angular_net(3, 0.5, seed=6)
        norms = np.linalg.norm(net.vectors, axis=0)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)
        for j in range(net.size):
            _, flag = p.canonicalize_vector(net.vectors[:, j])
            assert flag == 1

    def test_dimension_guard(self):
        with pytest.raises(ParameterOutOfRange):
            p.greedy_angular_net(7, 0.3, seed=0)

    @pytest.mark.parametrize("delta", [0.0, -0.1, 2.0, np.nan])
    def test_loaded_net_checks_delta(self, tmp_path, delta):
        path = tmp_path / "net.csv"
        p.greedy_angular_net(2, 0.4, seed=7).save(path)
        with pytest.raises(DomainError):
            p.load_angular_net(path, delta=delta)

    def test_empty_net_has_no_coverage_gap(self):
        net = p.AngularNet(dim=3, delta=0.3, vectors=np.empty((3, 0)))
        with pytest.raises(ParameterOutOfRange):
            p.coverage_gap(net, n_probes=10)

    def test_net_csv_round_trip(self, tmp_path):
        net = p.greedy_angular_net(3, 0.4, seed=7)
        path = tmp_path / "net.csv"
        net.save(path)
        loaded = p.load_angular_net(path, delta=0.4)
        np.testing.assert_array_equal(loaded.vectors, net.vectors)
        assert loaded.delta == net.delta

    def test_loaded_net_checks_unit_norm(self, tmp_path):
        # (3, 4) would snap the unit column (0.6, 0.8) to norm 5.
        path = tmp_path / "net.csv"
        p.save_vectors_csv(path, [[3.0, 0.0], [4.0, 1.0]])
        with pytest.raises(DomainError):
            p.load_angular_net(path, delta=0.3)

    @pytest.mark.parametrize("vectors", [
        [[3.0, 0.0], [4.0, 1.0]],
        [[np.nan], [0.0]],
    ])
    def test_net_vectors_must_be_unit_norm(self, vectors):
        with pytest.raises(DomainError):
            p.AngularNet(dim=2, delta=0.3, vectors=np.array(vectors))

    @pytest.mark.parametrize("vectors", [-np.eye(2), [[0.6, 1.0], [-0.8, 0.0]], [[-1.0], [0.0]]])
    def test_net_vectors_must_be_canonical(self, vectors):
        with pytest.raises(DomainError, match="canonically oriented"):
            p.AngularNet(dim=2, delta=0.3, vectors=np.array(vectors))

    def test_loaded_net_checks_orientation(self, tmp_path):
        path = tmp_path / "net.csv"
        vectors = p.greedy_angular_net(3, 0.4, seed=7).vectors.copy()
        vectors[:, 1] *= -1.0
        p.save_vectors_csv(path, vectors)
        with pytest.raises(DomainError, match="canonically oriented"):
            p.load_angular_net(path, delta=0.4)

    def test_unit_norm_rule_is_the_line_loaders(self):
        tol = p.lines.UNIT_NORM_TOL
        p.AngularNet(dim=2, delta=0.3, vectors=np.array([[1.0 + 0.5 * tol], [0.0]]))
        with pytest.raises(DomainError):
            p.AngularNet(dim=2, delta=0.3, vectors=np.array([[1.0 + 2.0 * tol], [0.0]]))


def one_probe_at_a_time_net(d, delta, seed, max_probes, margin=0.9):
    """Greedy construction drawing and screening one probe per step.

    Returns ``(vectors, probes_drawn)``; ``probes_drawn`` counts the probe
    that completed the covered streak.
    """
    rng = np.random.default_rng(seed)
    threshold = math.cos(margin * delta)
    vectors = []
    streak = 0
    drawn = 0
    while True:
        unit, _ = p.canonicalize_vector(rng.standard_normal(d))
        drawn += 1
        if not vectors or np.max(np.abs(np.column_stack(vectors).T @ unit)) < threshold:
            vectors.append(unit)
            streak = 0
        else:
            streak += 1
            if streak >= max_probes:
                return np.column_stack(vectors), drawn


class TestGreedyNetInBlocks:
    """Block-drawn probes make the decisions of the one-probe loop."""

    CASES = [(2, 0.3, 0), (2, 0.2, 1), (3, 0.5, 2), (3, 0.4, 3), (4, 0.7, 4), (4, 0.6, 5)]

    @pytest.mark.parametrize("d,delta,seed", CASES)
    def test_same_net_as_one_probe_loop(self, d, delta, seed):
        want, _ = one_probe_at_a_time_net(d, delta, seed, max_probes=1500)
        net = p.greedy_angular_net(d, delta, seed=seed, max_probes=1500)
        assert net.size == want.shape[1]
        np.testing.assert_allclose(net.vectors, want, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("d,delta,seed", CASES[::2])
    def test_budget_counts_probes_like_one_probe_loop(self, d, delta, seed):
        want, drawn = one_probe_at_a_time_net(d, delta, seed, max_probes=700)
        net = p.greedy_angular_net(d, delta, seed=seed, max_probes=700,
                                   probe_budget=drawn)
        assert net.size == want.shape[1]
        with pytest.raises(CoverageNotReached):
            p.greedy_angular_net(d, delta, seed=seed, max_probes=700,
                                 probe_budget=drawn - 1)

    def test_tiny_budget_raises(self):
        with pytest.raises(CoverageNotReached):
            p.greedy_angular_net(3, 0.3, seed=0, max_probes=5, probe_budget=5)


def coverage_gap_one_shot(net, n_probes, seed):
    """coverage_gap's probes against the net in one product."""
    rng = np.random.default_rng(seed)
    probes = rng.standard_normal((net.dim, n_probes))
    probes /= np.linalg.norm(probes, axis=0, keepdims=True)
    return float(_angles_to_net(net.vectors, probes).max())


# The nets of 1, 57 and 141 vectors; the last two are the benchmark's.
GAP_NETS = {1: (1, 0.5, 0), 57: (3, 0.3, [500, 3, 0]), 141: (4, 0.4, [500, 4, 0])}


@pytest.fixture(scope="module", params=sorted(GAP_NETS), ids=lambda size: "net%d" % size)
def gap_net(request):
    net = p.greedy_angular_net(*GAP_NETS[request.param])
    assert net.size == request.param
    return net


class TestCoverageGapInBlocks:
    """coverage_gap walks the probes in blocks of a multiple of _GAP_ALIGN,
    the remainder joining the last block."""

    @staticmethod
    def block(net):
        return max(_GAP_ALIGN, _GAP_BUDGET // net.size // _GAP_ALIGN * _GAP_ALIGN)

    @pytest.mark.parametrize("probes", ["1", "block-1", "block", "block+1", "2block-1",
                                        "4block"])
    def test_same_bits_as_one_product(self, gap_net, probes):
        b = self.block(gap_net)
        n = {"1": 1, "block-1": b - 1, "block": b, "block+1": b + 1, "2block-1": 2 * b - 1,
             "4block": 4 * b}[probes]
        for seed in range(3):
            assert p.coverage_gap(gap_net, n, seed) == coverage_gap_one_shot(gap_net, n, seed)

    def test_remainder_of_several_blocks(self, gap_net):
        # The last n mod (BLAS tile width) probes may meet another BLAS kernel
        # in a block than in one product over all probes; their cosines may
        # then round differently in the last bits.
        n = 4 * self.block(gap_net) + 7
        for seed in range(3):
            got = p.coverage_gap(gap_net, n, seed)
            assert abs(got - coverage_gap_one_shot(gap_net, n, seed)) <= 1e-14

    def test_bench_net_at_bench_probes(self):
        net = p.greedy_angular_net(*GAP_NETS[141])
        assert p.coverage_gap(net, 20_000, 1) == coverage_gap_one_shot(net, 20_000, 1)


class TestNearestNetApprox:
    def test_exact_when_columns_in_net(self):
        net = p.greedy_angular_net(3, 0.3, seed=8)
        W = 2.5 * net.vectors[:, :4]
        approx, max_angle = p.nearest_net_approx(W, net)
        np.testing.assert_allclose(approx, W, atol=1e-12)
        # arccos amplifies roundoff near 1: sqrt(2*eps) ~ 2e-8
        assert max_angle <= 1e-7

    def test_norms_preserved_and_error_identity(self):
        rng = np.random.default_rng(9)
        net = p.greedy_angular_net(3, 0.3, seed=10)
        W = rng.standard_normal((3, 6))
        approx, _ = p.nearest_net_approx(W, net)
        np.testing.assert_allclose(
            np.linalg.norm(approx, axis=0), np.linalg.norm(W, axis=0), atol=1e-12
        )
        for i in range(6):
            w, w_tilde = W[:, i], approx[:, i]
            cos_angle = float(w @ w_tilde) / float(w @ w)
            expected = 2.0 * float(w @ w) * (1.0 - cos_angle)
            assert float((w - w_tilde) @ (w - w_tilde)) == pytest.approx(
                expected, abs=1e-10
            )

    def test_max_angle_within_delta(self):
        rng = np.random.default_rng(11)
        net = p.greedy_angular_net(3, 0.3, seed=12)
        _, max_angle = p.nearest_net_approx(rng.standard_normal((3, 50)), net)
        assert max_angle <= 0.3

    def test_single_column_law_of_cosines(self):
        net = p.AngularNet(dim=2, delta=np.pi / 2, vectors=np.array([[1.0], [0.0]]))
        phi = 0.4
        w = 3.0 * np.array([np.cos(phi), np.sin(phi)])
        approx, max_angle = p.nearest_net_approx(w[:, None], net)
        assert max_angle == pytest.approx(phi, abs=1e-12)
        assert np.linalg.norm(w - approx[:, 0]) == pytest.approx(
            3.0 * math.sqrt(2.0 - 2.0 * math.cos(phi)), abs=1e-10
        )

    def test_porcupine_weights_snap_as_their_matrix(self):
        # A PNNWeights enters through the one weight rule, as everywhere else.
        net = p.greedy_angular_net(3, 0.3, seed=8)
        lines = p.random_line_set(3, 4, 5)
        w = p.weights_from_masses(lines, p.NeuronLineMap(6, (0, 1, 2, 3, 0, 2)),
                                  [1.5, -0.5, 2.0, 0.0, -3.0, 0.25])
        approx, angle = p.nearest_net_approx(w, net)
        expected, expected_angle = p.nearest_net_approx(w.matrix, net)
        np.testing.assert_array_equal(approx, expected)
        assert angle == expected_angle


def nearest_net_reference(W, net):
    """nearest_net_approx's former per-column loop."""
    W_tilde = np.zeros_like(W)
    max_angle = 0.0
    for i in range(W.shape[1]):
        col = W[:, i]
        norm = float(np.linalg.norm(col))
        if norm == 0.0:
            continue
        scores = net.vectors.T @ (col / norm)
        j = int(np.argmax(np.abs(scores)))
        direction = net.vectors[:, j] * (1.0 if scores[j] >= 0 else -1.0)
        W_tilde[:, i] = norm * direction
        max_angle = max(max_angle, float(np.arccos(np.clip(abs(scores[j]), 0.0, 1.0))))
    return W_tilde, max_angle


class TestNearestNetMatchesLoop:
    @pytest.mark.parametrize("d, delta, k", [(2, 0.5, 7), (3, 0.3, 60), (5, 0.6, 200)])
    def test_matches_per_column_loop(self, d, delta, k):
        rng = np.random.default_rng(d)
        net = p.greedy_angular_net(d, delta, seed=d + 1)
        W = rng.standard_normal((d, k)) * 10.0 ** rng.uniform(-3, 3, k)
        W[:, 1] = 0.0
        W[:, 4] = -3.0 * W[:, 2]
        expected, expected_angle = nearest_net_reference(W, net)
        approx, max_angle = p.nearest_net_approx(W, net)
        np.testing.assert_array_equal(approx, expected)
        assert abs(max_angle - expected_angle) <= 1e-15

    def test_non_contiguous_and_all_zero_columns(self):
        net = p.greedy_angular_net(3, 0.3, seed=8)
        W = np.random.default_rng(4).standard_normal((9, 3)).T[:, ::2]
        for matrix in (W, np.zeros((3, 4)), np.zeros((3, 0))):
            expected, expected_angle = nearest_net_reference(matrix, net)
            approx, max_angle = p.nearest_net_approx(matrix, net)
            np.testing.assert_array_equal(approx, expected)
            assert abs(max_angle - expected_angle) <= 1e-15


    def test_columns_whose_squares_overflow(self):
        # 1e190^2 leaves the float range; the snap must still scale with the column.
        net = p.greedy_angular_net(2, 0.3, seed=0)
        W = np.array([[1.0, 1.0, -0.3], [1.0, 0.5, 2.0]])
        approx, max_angle = p.nearest_net_approx(W, net)
        huge, huge_angle = p.nearest_net_approx(1e190 * W, net)
        np.testing.assert_allclose(huge, 1e190 * approx, rtol=1e-12, atol=0.0)
        assert huge_angle == pytest.approx(max_angle, rel=1e-12)
        snapped, _ = p.nearest_net_approx([[1e200, 1.0], [1e200, 0.5]], net)
        assert np.isfinite(snapped).all()
        assert np.linalg.norm(snapped[:, 0] / 1e200) == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_columns_whose_squares_underflow(self):
        # (1e-170)^2 underflows to 0; the snap must still scale with the column.
        net = p.greedy_angular_net(2, 0.3, seed=0)
        W = np.array([[1.0, 1.0, -0.3], [1.0, 0.5, 2.0]])
        approx, max_angle = p.nearest_net_approx(W, net)
        tiny, tiny_angle = p.nearest_net_approx(1e-170 * W, net)
        np.testing.assert_allclose(tiny, 1e-170 * approx, rtol=1e-12, atol=0.0)
        assert tiny_angle == pytest.approx(max_angle, rel=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_column_rejected(self, bad):
        net = p.greedy_angular_net(3, 0.3, seed=8)
        W = np.ones((3, 4))
        W[1, 2] = bad
        with pytest.raises(DomainError):
            p.nearest_net_approx(W, net)


class TestMinimaxRiskBound:
    def test_vanishes_with_delta(self):
        assert p.minimax_risk_bound(3, 1.0, 4, 1e-9) <= 1e-3
        assert p.minimax_risk_bound(3, 1.0, 4, 1e-12) <= 1e-4

    @pytest.mark.parametrize("delta", [-1.0, 0.0, np.pi / 2 + 1e-6, float("nan")])
    def test_out_of_domain_delta_rejected(self, delta):
        with pytest.raises(DomainError):
            p.minimax_risk_bound(2, 1.0, 3, delta)

    @pytest.mark.parametrize("M", [float("nan"), float("inf"), -float("inf"), 0.0, -1.0])
    def test_non_finite_or_non_positive_scale_rejected(self, M):
        with pytest.raises(ParameterOutOfRange):
            p.minimax_risk_bound(2, M, 3, 0.4)

    def test_unit_case(self):
        assert p.minimax_risk_bound(1, 1.0, 1, np.pi / 2) == pytest.approx(
            math.sqrt(2.0), abs=1e-12
        )

    def test_dominates_monte_carlo_output_gap(self):
        # E|f - f_approx| <= k M sqrt(2 d (1 - cos delta)) for the snapped net.
        rng = np.random.default_rng(13)
        net = p.greedy_angular_net(3, 0.3, seed=14)
        for _ in range(3):
            k = int(rng.integers(2, 9))
            directions = rng.standard_normal((3, k))
            directions /= np.linalg.norm(directions, axis=0, keepdims=True)
            W = directions * rng.uniform(0.2, 1.0, k)[None, :]
            approx, _ = p.nearest_net_approx(W, net)
            X = rng.standard_normal((200_000, 3))
            gap = np.abs(p.network_output(X, W) - p.network_output(X, approx))
            bound = p.minimax_risk_bound(k, 1.0, 3, 0.3)
            assert gap.mean() <= bound


class TestReluGap:
    def test_identical_weights(self):
        x = np.array([0.3, -0.5])
        out = p.relu_gap(np.array([1.0, 2.0]), np.array([1.0, 2.0]), x)
        assert out.gap == 0.0 and out.within_bound

    def test_opposite_axis(self):
        out = p.relu_gap(np.array([1.0]), np.array([-1.0]), np.array([1.0]))
        assert out.gap == 1.0
        assert out.bound == pytest.approx(2.0)
        assert out.within_bound

    def test_randomized_bound_never_violated(self):
        rng = np.random.default_rng(15)
        for _ in range(20_000):
            d = 3
            out = p.relu_gap(
                rng.standard_normal(d), rng.standard_normal(d), rng.standard_normal(d)
            )
            assert out.within_bound


class TestCoverageGapProbes:
    @pytest.mark.parametrize("n_probes", [0, -3])
    def test_non_positive_probe_count_rejected(self, n_probes):
        net = p.greedy_angular_net(2, 0.4, seed=1)
        with pytest.raises(ParameterOutOfRange):
            p.coverage_gap(net, n_probes=n_probes)
