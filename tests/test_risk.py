"""Closed-form risks against each other and against Monte Carlo."""

import tracemalloc

import numpy as np
import pytest

import porcupine as p
from porcupine._checks import seed_sequence
from porcupine.lines import _line_masses
from porcupine.errors import (
    ConfigMismatch,
    DimensionMismatch,
    DomainError,
    InfeasibleWeights,
    ParameterOutOfRange,
    ZeroVector,
)


def random_matched_pair(d, r, k, seed, scale=1.0):
    seq = np.random.SeedSequence(seed).spawn(3)
    ls = p.random_line_set(d, r, seq[0])
    rng = np.random.default_rng(seq[1])
    assignment = tuple(np.concatenate([np.arange(r), rng.integers(0, r, size=k - r)]))
    neuron_map = p.NeuronLineMap(num_neurons=k, assignment=assignment)
    rng2 = np.random.default_rng(seq[2])
    w = p.weights_from_masses(ls, neuron_map, scale * rng2.standard_normal(k))
    w_star = p.weights_from_masses(ls, neuron_map, scale * rng2.standard_normal(k))
    return w, w_star


def random_instance(d, r, k, seed, scale=1.0):
    w, _ = random_matched_pair(d, r, k, seed, scale)
    return w


class TestNetworkOutput:
    def test_zero_weights(self):
        rng = np.random.default_rng(0)
        W = np.zeros((4, 3))
        assert p.network_output(rng.standard_normal(4), W) == 0.0

    def test_scalar_case(self):
        W = np.array([[1.0, -1.0]])
        assert p.network_output(np.array([3.0]), W) == 3.0

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(1)
        W = rng.standard_normal((10, 5))
        x = rng.standard_normal(10)
        expected = sum(max(float(W[:, i] @ x), 0.0) for i in range(5))
        assert p.network_output(x, W) == pytest.approx(expected, rel=1e-12)

    def test_batch_shape(self):
        rng = np.random.default_rng(2)
        W = rng.standard_normal((3, 4))
        X = rng.standard_normal((7, 3))
        out = p.network_output(X, W)
        assert out.shape == (7,)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            p.network_output(np.zeros(3), np.zeros((4, 2)))


class TestMonteCarloRisk:
    def test_identical_networks_are_exactly_zero(self):
        w = random_instance(4, 3, 5, seed=10)
        estimate, stderr = p.monte_carlo_risk(w, w, n_samples=10_000, seed=0)
        assert estimate == 0.0 and stderr == 0.0

    def test_scalar_closed_form(self):
        # w = (1), w* = (2): loss = 1/4 + 1/4 = 1/2.
        estimate, stderr = p.monte_carlo_risk(
            np.array([[1.0]]), np.array([[2.0]]), n_samples=400_000, seed=5
        )
        assert abs(estimate - 0.5) <= 4.0 * stderr

    def test_matched_closed_form(self):
        w, w_star = random_matched_pair(5, 3, 6, seed=11)
        closed = p.matched_risk(w, w_star).total
        estimate, stderr = p.monte_carlo_risk(w, w_star, n_samples=2_000_000, seed=6)
        assert abs(estimate - closed) <= 4.0 * stderr

    def test_deterministic_and_thread_invariant(self):
        w, w_star = random_matched_pair(4, 2, 4, seed=12)
        a = p.monte_carlo_risk(w, w_star, n_samples=300_000, seed=9)
        b = p.monte_carlo_risk(w, w_star, n_samples=300_000, seed=9)
        c = p.monte_carlo_risk(w, w_star, n_samples=300_000, seed=9, threads=4)
        assert a == b == c

    def test_validates_sample_count(self):
        w = random_instance(3, 2, 3, seed=13)
        with pytest.raises(ParameterOutOfRange):
            p.monte_carlo_risk(w, w, n_samples=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weights_rejected(self, bad):
        A = np.ones((3, 2))
        B = np.ones((3, 4))
        A[1, 0] = bad
        with pytest.raises(DomainError):
            p.monte_carlo_risk(A, B, n_samples=100)
        with pytest.raises(DomainError):
            p.monte_carlo_risk(B, A, n_samples=100)


def two_sided_monte_carlo(A, B, n_samples, seed):
    """The antithetic estimator with a relu pass on each side of every pair,
    using the chunking, seeding and reduction order of ``monte_carlo_risk``."""
    d = A.shape[0]
    chunk = p.risk._MC_CHUNK_PAIRS
    pairs = (n_samples + 1) // 2
    n_chunks = (pairs + chunk - 1) // chunk
    total = total_sq = 0.0
    for index, child in enumerate(seed_sequence(seed, "seed").spawn(n_chunks)):
        count = min(chunk, pairs - index * chunk)
        X = np.random.default_rng(child).standard_normal((count, d))
        forward = np.maximum(X @ A, 0.0).sum(axis=1) - np.maximum(X @ B, 0.0).sum(axis=1)
        backward = np.maximum(-X @ A, 0.0).sum(axis=1) - np.maximum(-X @ B, 0.0).sum(axis=1)
        pair_mean = 0.5 * (forward * forward + backward * backward)
        total += float(pair_mean.sum())
        total_sq += float((pair_mean * pair_mean).sum())
    mean = total / pairs
    var = max((total_sq - pairs * mean * mean) / (pairs - 1), 0.0)
    return mean, float(np.sqrt(var / pairs))


class TestMonteCarloOneReluPass:
    """The gap at -x comes from the gap at x and one mat-vec; the estimate
    is the two-sided formula's."""

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("matched", [True, False])
    def test_matches_two_sided_formula(self, matched, threads):
        if matched:
            w, w_star = random_matched_pair(8, 4, 10, seed=21)
        else:
            w = random_instance(8, 4, 10, seed=22)
            w_star = random_instance(8, 3, 5, seed=23)
        # 150001 pairs: three chunks, the last one partial.
        n_samples = 300_001
        assert (n_samples + 1) // 2 > 2 * p.risk._MC_CHUNK_PAIRS
        got = p.monte_carlo_risk(w, w_star, n_samples=n_samples, seed=[7, 1],
                                 threads=threads)
        want = two_sided_monte_carlo(w.matrix, w_star.matrix, n_samples, [7, 1])
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def whole_chunk_monte_carlo(A, B, n_samples, seed):
    """``monte_carlo_risk`` as it was before chunks were walked in blocks:
    one ``(count, d)`` draw and two ``(count, k)`` products per chunk."""
    d = A.shape[0]
    sum_gap = A.sum(axis=1) - B.sum(axis=1)
    chunk = p.risk._MC_CHUNK_PAIRS
    pairs = (n_samples + 1) // 2
    n_chunks = (pairs + chunk - 1) // chunk
    results = []
    for index, child in enumerate(seed_sequence(seed, "seed").spawn(n_chunks)):
        count = min(chunk, pairs - index * chunk)
        X = np.random.default_rng(child).standard_normal((count, d))
        ZA = X @ A
        ZB = X @ B
        forward = (np.maximum(ZA, 0.0, out=ZA).sum(axis=1)
                   - np.maximum(ZB, 0.0, out=ZB).sum(axis=1))
        backward = forward - X @ sum_gap
        pair_mean = 0.5 * (forward * forward + backward * backward)
        results.append((float(pair_mean.sum()), float((pair_mean * pair_mean).sum())))
    total = sum(r[0] for r in results)
    total_sq = sum(r[1] for r in results)
    mean = total / pairs
    if pairs > 1:
        var = max((total_sq - pairs * mean * mean) / (pairs - 1), 0.0)
    else:
        var = 0.0
    return mean, float(np.sqrt(var / pairs))


BLOCK = p.risk._MC_BLOCK_PAIRS
CHUNK = p.risk._MC_CHUNK_PAIRS
# Pair counts: one chunk that is a whole number of blocks; one block and one
# pair; three chunks, the last partial and ending in a partial block; one pair.
PAIR_COUNTS = [CHUNK, BLOCK + 1, 150_001, 1]


class TestMonteCarloBlocks:
    """Walking a chunk in blocks keeps the whole-chunk estimate bit for bit."""

    def test_pair_counts_cover_the_block_edges(self):
        assert CHUNK % BLOCK == 0
        last_chunk = 150_001 % CHUNK
        assert 150_001 > 2 * CHUNK and last_chunk % BLOCK != 0 and last_chunk > BLOCK

    @pytest.mark.parametrize("threads", [1, 2, 4])
    @pytest.mark.parametrize("pairs", PAIR_COUNTS)
    @pytest.mark.parametrize("matched", [True, False])
    def test_equals_whole_chunk_pass(self, matched, pairs, threads):
        if matched:
            w, w_star = random_matched_pair(8, 5, 12, seed=31)
        else:
            w = random_instance(8, 5, 12, seed=32)
            w_star = random_instance(8, 3, 7, seed=33)
        # An odd sample count rounds up to the same pairs as the even one.
        for n_samples in {2 * pairs - 1, 2 * pairs}:
            got = p.monte_carlo_risk(w, w_star, n_samples=n_samples, seed=[5, pairs],
                                     threads=threads)
            assert got == whole_chunk_monte_carlo(w.matrix, w_star.matrix, n_samples,
                                                  [5, pairs])

    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_network_against_itself_is_exactly_zero(self, threads):
        w = random_instance(8, 5, 12, seed=34)
        assert p.monte_carlo_risk(w, w, n_samples=300_001, seed=3,
                                  threads=threads) == (0.0, 0.0)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_traced_peak_memory_is_small(self, threads):
        rng = np.random.default_rng(35)
        A = rng.standard_normal((8, 64))
        B = rng.standard_normal((8, 64))
        tracemalloc.start()
        try:
            p.monte_carlo_risk(A, B, n_samples=200_000, seed=1, threads=threads)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # A whole-chunk pass peaks at 70 MiB (threads=1) and 105 MiB (threads=2).
        assert peak < 10 * 2**20


class TestScalarRisk:
    def test_equal_sums_and_absolute_sums(self):
        assert p.scalar_risk([5.0, 5.0], [6.0, 4.0]).total == 0.0

    def test_mixed_target(self):
        breakdown = p.scalar_risk([1.0, 1.0], [6.0, -4.0])
        assert breakdown.linear_term == pytest.approx(0.0, abs=1e-15)
        assert breakdown.kernel_term == pytest.approx(16.0, abs=1e-12)
        assert breakdown.total == pytest.approx(16.0, abs=1e-12)

    def test_mixed_target_against_monte_carlo(self):
        estimate, stderr = p.monte_carlo_risk(
            np.array([[1.0, 1.0]]), np.array([[6.0, -4.0]]),
            n_samples=2_000_000, seed=21,
        )
        assert abs(estimate - 16.0) <= 4.0 * stderr

    def test_identity(self):
        assert p.scalar_risk([1.0, -2.0, 3.0], [1.0, -2.0, 3.0]).total == 0.0


class TestDegreeOneRisk:
    def test_c_matrix_dimension_two(self):
        # The mass quadratic uses unit diagonal and 2/pi off-diagonal.
        neuron_map = p.NeuronLineMap(num_neurons=2, assignment=(0, 1))
        W = np.array([[1.0, 0.0], [0.0, 0.0]])
        W_star = np.array([[0.0, 0.0], [0.0, 1.0]])
        breakdown = p.degree_one_risk(W, W_star, neuron_map)
        # masses differ by (1, -1): q' C q = 2 - 4/pi
        assert breakdown.kernel_term == pytest.approx(
            0.25 * (2.0 - 4.0 / np.pi), abs=1e-14
        )

    def test_identity(self):
        neuron_map = p.NeuronLineMap(num_neurons=4, assignment=(0, 0, 1, 1))
        rng = np.random.default_rng(3)
        W = np.zeros((2, 4))
        for i, axis in enumerate(neuron_map.assignment):
            W[axis, i] = rng.standard_normal()
        assert p.degree_one_risk(W, W, neuron_map).total == 0.0

    def test_matches_general_matched_form(self):
        rng = np.random.default_rng(8)
        d, k = 3, 6
        axes = p.axes_line_set(d)
        neuron_map = p.NeuronLineMap(num_neurons=k, assignment=(0, 1, 2, 0, 1, 2))
        for trial in range(20):
            masses = rng.standard_normal(k)
            masses_star = rng.standard_normal(k)
            w = p.weights_from_masses(axes, neuron_map, masses)
            w_star = p.weights_from_masses(axes, neuron_map, masses_star)
            a = p.degree_one_risk(w.matrix, w_star.matrix, neuron_map).total
            b = p.matched_risk(w, w_star).total
            assert a == pytest.approx(b, abs=1e-12)

    def test_off_axis_rejected(self):
        neuron_map = p.NeuronLineMap(num_neurons=2, assignment=(0, 1))
        W = np.array([[1.0, 0.3], [0.0, 1.0]])
        with pytest.raises(InfeasibleWeights):
            p.degree_one_risk(W, W, neuron_map)

    @staticmethod
    def axis_masses_reference(matrix, neuron_map):
        """Per axis, the sum of the column norms ||w_i|| of its neurons (the
        paper's masses), one column at a time; InfeasibleWeights names the
        first column off its axis."""
        q = np.zeros(matrix.shape[0])
        for i, axis in enumerate(neuron_map.assignment):
            col = matrix[:, i]
            off_axis = np.linalg.norm(np.delete(col, axis))
            norm = float(np.linalg.norm(col))
            if off_axis > 1e-9 * max(1.0, norm):
                raise InfeasibleWeights(
                    "column %d deviates from line %d by %.3g" % (i, axis, off_axis)
                )
            q[axis] += norm
        return q

    @classmethod
    def risk_reference(cls, W, W_star, neuron_map):
        """Degree-one risk from the reference masses and the hand-built
        kernel matrix: 1 on the diagonal, 2/pi elsewhere."""
        d = W.shape[0]
        dq = cls.axis_masses_reference(W, neuron_map) - cls.axis_masses_reference(
            W_star, neuron_map)
        diff = W.sum(axis=1) - W_star.sum(axis=1)
        C = np.full((d, d), 2.0 / np.pi)
        np.fill_diagonal(C, 1.0)
        return 0.25 * float(diff @ diff), 0.25 * float(dq @ C @ dq)

    @pytest.mark.parametrize("d, k", [(1, 3), (3, 9), (6, 40)])
    def test_axis_masses_match_per_column_loop(self, d, k):
        rng = np.random.default_rng(d)
        assignment = tuple(np.r_[np.arange(d), rng.integers(0, d, k - d)].tolist())
        neuron_map = p.NeuronLineMap(num_neurons=k, assignment=assignment)
        pair = []
        for _ in range(2):
            W = np.zeros((d, k))
            W[list(assignment), np.arange(k)] = (rng.standard_normal(k)
                                                 * 10.0 ** rng.uniform(-3, 3, k))
            W[:, k // 2] = 0.0
            # Off-axis entries inside the relative feasibility tolerance.
            W += 1e-11 * rng.uniform(-1, 1, (d, k)) * np.maximum(1.0, np.abs(W).sum(axis=0))
            pair.append(W)
        got = p.degree_one_risk(*pair, neuron_map)
        assert (got.linear_term, got.kernel_term) == self.risk_reference(*pair, neuron_map)

    @pytest.mark.parametrize("bad", [(2, 5), (0, 1), (4, 0)])
    def test_first_off_axis_column_is_named(self, bad):
        neuron_map = p.NeuronLineMap(num_neurons=6, assignment=(0, 1, 2, 0, 1, 2))
        W = np.zeros((3, 6))
        W[list(neuron_map.assignment), np.arange(6)] = np.arange(1.0, 7.0)
        for column in bad:
            W[(neuron_map.assignment[column] + 1) % 3, column] = 0.25 * (column + 1)
        with pytest.raises(InfeasibleWeights) as expected:
            self.axis_masses_reference(W, neuron_map)
        for pair in ((W, np.eye(3, 6)), (np.eye(3, 6), W)):
            with pytest.raises(InfeasibleWeights) as info:
                p.degree_one_risk(*pair, neuron_map)
            assert str(info.value) == str(expected.value)
        assert str(info.value).startswith("column %d " % min(bad))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weights_rejected(self, bad):
        neuron_map = p.NeuronLineMap(num_neurons=2, assignment=(0, 1))
        W = np.array([[1.0, 0.0], [0.0, bad]])
        for pair in ((W, np.eye(2)), (np.eye(2), W)):
            with pytest.raises(DomainError):
                p.degree_one_risk(*pair, neuron_map)

    def test_neuron_count_mismatch_rejected(self):
        neuron_map = p.NeuronLineMap(num_neurons=2, assignment=(0, 1))
        W = np.eye(2, 3)
        with pytest.raises(DimensionMismatch):
            p.degree_one_risk(W, W, neuron_map)


class TestMatchedRisk:
    def test_identity(self):
        w = random_instance(5, 4, 8, seed=30)
        assert p.matched_risk(w, w).total == 0.0

    def test_single_line_reduces_to_scalar_form(self):
        rng = np.random.default_rng(31)
        ls = p.random_line_set(4, 1, seed=31)
        neuron_map = p.NeuronLineMap(num_neurons=5, assignment=(0,) * 5)
        for _ in range(20):
            masses = rng.standard_normal(5)
            masses_star = rng.standard_normal(5)
            w = p.weights_from_masses(ls, neuron_map, masses)
            w_star = p.weights_from_masses(ls, neuron_map, masses_star)
            a = p.matched_risk(w, w_star).total
            b = p.scalar_risk(masses, masses_star).total
            assert a == pytest.approx(b, abs=1e-12)

    def test_against_pairwise_route(self):
        w, w_star = random_matched_pair(6, 4, 9, seed=32)
        a = p.matched_risk(w, w_star).total
        b = p.pairwise_population_risk(w.matrix, w_star.matrix)
        assert a == pytest.approx(b, abs=1e-10)

    def test_config_mismatch_rejected(self):
        w = random_instance(4, 3, 5, seed=33)
        other = random_instance(4, 3, 5, seed=34)
        with pytest.raises(ConfigMismatch):
            p.matched_risk(w, other)

    def test_total_nonnegative_and_zero_iff_optimal(self):
        rng = np.random.default_rng(35)
        for trial in range(20):
            w, w_star = random_matched_pair(4, 3, 6, seed=(35, trial))
            breakdown = p.matched_risk(w, w_star)
            assert breakdown.total >= -1e-10
            check = p.global_optimum_check(w, w_star)
            if check.kernel_pd:
                assert (breakdown.total <= 1e-18) == check.is_global
        del rng


class TestMismatchedRisk:
    def test_same_configuration_reduces_to_matched(self):
        w, w_star = random_matched_pair(5, 4, 7, seed=40)
        a = p.mismatched_risk(w, w_star).total
        b = p.matched_risk(w, w_star).total
        assert a == pytest.approx(b, abs=1e-12)

    def test_zero_model_leaves_target_terms(self):
        w_star = random_instance(4, 3, 5, seed=41)
        zero = p.PNNWeights(
            matrix=np.zeros((4, 5)),
            line_set=w_star.line_set,
            neuron_map=w_star.neuron_map,
        )
        breakdown = p.mismatched_risk(zero, w_star)
        q_star, _ = p.decompose_weights(w_star)
        kernel_matrix = p.psi(w_star.line_set.gram)
        expected = 0.25 * float(
            w_star.column_sum() @ w_star.column_sum()
        ) + 0.25 * float(q_star @ kernel_matrix @ q_star)
        assert breakdown.total == pytest.approx(expected, abs=1e-12)

    def test_against_monte_carlo(self):
        w = random_instance(6, 5, 8, seed=42)
        w_star = random_instance(6, 3, 5, seed=43)
        closed = p.mismatched_risk(w, w_star).total
        estimate, stderr = p.monte_carlo_risk(w, w_star, n_samples=2_000_000, seed=44)
        assert abs(closed - estimate) <= 4.0 * stderr

    def test_against_pairwise_route(self):
        w = random_instance(5, 4, 7, seed=45)
        w_star = random_instance(5, 2, 4, seed=46)
        a = p.mismatched_risk(w, w_star).total
        b = p.pairwise_population_risk(w.matrix, w_star.matrix)
        assert a == pytest.approx(b, abs=1e-10)

    def test_line_reindexing_invariance(self):
        w = random_instance(4, 3, 5, seed=47)
        w_star = random_instance(4, 3, 4, seed=48)
        perm = [2, 0, 1]
        permuted_lines = w.line_set.subset(perm)
        inverse = np.argsort(perm)
        new_assignment = tuple(int(inverse[a]) for a in w.neuron_map.assignment)
        permuted = p.PNNWeights(
            matrix=w.matrix,
            line_set=permuted_lines,
            neuron_map=p.NeuronLineMap(w.num_neurons, new_assignment),
        )
        a = p.mismatched_risk(w, w_star).total
        b = p.mismatched_risk(permuted, w_star).total
        assert a == pytest.approx(b, abs=1e-12)


def assembled_matched_risk(weights, weights_star):
    """Reference: the matched closed form assembled in place, in its own order."""
    q = _line_masses(weights)
    q_star = _line_masses(weights_star)
    diff = weights.column_sum() - weights_star.column_sum()
    dq = q - q_star
    kernel_matrix = p.psi(weights.line_set.gram)
    return 0.25 * float(diff @ diff), 0.25 * float(dq @ kernel_matrix @ dq)


def assembled_mismatched_risk(weights, weights_star):
    """Reference: the mismatched closed form assembled in place, in its own order."""
    q = _line_masses(weights)
    q_star = _line_masses(weights_star)
    bundle = p.kernel_bundle(weights.line_set, weights_star.line_set)
    diff = weights.column_sum() - weights_star.column_sum()
    kernel = (
        0.25 * float(q @ bundle.psi_lines @ q)
        + 0.25 * float(q_star @ bundle.psi_star @ q_star)
        - 0.5 * float(q @ bundle.psi_cross @ q_star)
    )
    return 0.25 * float(diff @ diff), kernel


class TestOneLineQuadratic:
    """Both closed forms read the quadratic's pieces from one helper and
    must equal the in-place assembly exactly, not merely within rounding."""

    @pytest.mark.parametrize("seed", range(20))
    def test_matched_risk_equals_assembly(self, seed):
        d = 2 + seed % 6
        r = 1 + seed % 5
        w, w_star = random_matched_pair(d, r, r + seed % 7, seed=(60, seed), scale=1 + seed)
        got = p.matched_risk(w, w_star)
        assert (got.linear_term, got.kernel_term) == assembled_matched_risk(w, w_star)

    @pytest.mark.parametrize("seed", range(20))
    def test_mismatched_risk_equals_assembly(self, seed):
        d = 2 + seed % 6
        w = random_instance(d, 1 + seed % 5, 6 + seed % 4, seed=(61, seed), scale=1 + seed)
        w_star = random_instance(d, 1 + seed % 3, 4 + seed % 3, seed=(62, seed))
        got = p.mismatched_risk(w, w_star)
        assert (got.linear_term, got.kernel_term) == assembled_mismatched_risk(w, w_star)


NAN = float("nan")
INF = float("inf")


@pytest.mark.parametrize("call, error", [
    (lambda: p.scalar_risk([NAN, 1.0], [1.0, 2.0]), DomainError),
    (lambda: p.scalar_risk([INF], [1.0]), DomainError),
    (lambda: p.scalar_risk([1.0], [-INF, 0.0]), DomainError),
    (lambda: p.scalar_risk([], []), ParameterOutOfRange),
    (lambda: p.scalar_risk([1.0], []), ParameterOutOfRange),
    (lambda: p.scalar_risk([[1.0, 2.0]], [[1.0, 2.0]]), DimensionMismatch),
    (lambda: p.scalar_risk(1.0, [1.0]), DimensionMismatch),
    (lambda: p.pairwise_population_risk([[NAN]], [[1.0]]), DomainError),
    (lambda: p.pairwise_population_risk([[1.0, 2.0]], [[INF]]), DomainError),
    (lambda: p.truncated_covariance([NAN, 1.0], [1.0, 0.0]), DomainError),
    (lambda: p.truncated_covariance([1.0, 0.0], [1.0, -INF]), DomainError),
], ids=["scalar-nan", "scalar-inf", "scalar-target-inf", "scalar-empty",
        "scalar-empty-target", "scalar-2d", "scalar-0d", "pairwise-nan", "pairwise-inf",
        "covariance-nan", "covariance-inf"])
def test_oracle_bad_input_raises(call, error):
    with pytest.raises(error):
        call()


class TestTruncatedCovariance:
    def test_same_direction_half_identity(self):
        out = p.truncated_covariance(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        np.testing.assert_allclose(out, 0.5 * np.eye(2), atol=1e-15)

    def test_opposite_directions_zero(self):
        w = np.array([0.3, -1.2, 0.5])
        np.testing.assert_allclose(
            p.truncated_covariance(w, -w), np.zeros((3, 3)), atol=1e-15
        )

    def test_orthogonal_pair_in_plane(self):
        out = p.truncated_covariance(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        expected = 0.25 * np.eye(2) + (1.0 / (2.0 * np.pi)) * np.array(
            [[0.0, 1.0], [1.0, 0.0]]
        )
        np.testing.assert_allclose(out, expected, atol=1e-15)

    def test_scale_invariance(self):
        rng = np.random.default_rng(50)
        w1 = rng.standard_normal(4)
        w2 = rng.standard_normal(4)
        np.testing.assert_allclose(
            p.truncated_covariance(w1, w2),
            p.truncated_covariance(3.0 * w1, 0.2 * w2),
            atol=1e-14,
        )

    def test_monte_carlo_agreement(self):
        rng = np.random.default_rng(51)
        w1 = rng.standard_normal(3)
        w2 = rng.standard_normal(3)
        predicted = p.truncated_covariance(w1, w2)
        n = 4_000_000
        total = np.zeros((3, 3))
        total_sq = np.zeros((3, 3))
        chunk = 500_000
        for _ in range(n // chunk):
            X = rng.standard_normal((chunk, 3))
            mask = (X @ w1 > 0) & (X @ w2 > 0)
            Xm = X[mask]
            total += Xm.T @ Xm
            total_sq += (Xm**2).T @ (Xm**2)
        mean = total / n
        stderr = np.sqrt(np.maximum(total_sq / n - mean**2, 0.0) / n)
        assert np.all(np.abs(mean - predicted) <= 4.0 * stderr + 1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            p.truncated_covariance(np.zeros(2), np.ones(2))

    def test_scalar_expectation_lemma(self):
        # E[1{w1 x > 0, w2 x > 0} x^2] = (1 + s1 s2) / 4 in one dimension.
        for w1, w2, expected in [(2.0, 3.0, 0.5), (2.0, -3.0, 0.0), (-1.0, -4.0, 0.5)]:
            out = p.truncated_covariance(np.array([w1]), np.array([w2]))
            assert out[0, 0] == pytest.approx(expected, abs=1e-15)

    def test_scalar_expectation_lemma_monte_carlo(self):
        rng = np.random.default_rng(52)
        x = rng.standard_normal(1_000_000)
        for w1, w2 in [(2.0, 3.0), (2.0, -3.0)]:
            samples = np.where((w1 * x > 0) & (w2 * x > 0), x * x, 0.0)
            stderr = samples.std() / np.sqrt(samples.size)
            expected = (1.0 + np.sign(w1) * np.sign(w2)) / 4.0
            assert abs(samples.mean() - expected) <= 4.0 * stderr + 1e-12


class TestRiskBreakdown:
    def test_total_is_sum(self):
        breakdown = p.RiskBreakdown(linear_term=0.25, kernel_term=0.5)
        assert breakdown.total == 0.75
