"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

import math
import time

import numpy as np
import pytest

import porcupine as p

RELU_LIMIT = 1.0 - 2.0 / np.pi  # limiting Schur norm per extra target fraction


def _verdict(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print("[criterion %02d] %s - %s" % (number, status, detail))
    assert ok, detail


def random_matched_pair(d, r, k, seed):
    seq = np.random.SeedSequence(seed).spawn(3)
    line_set = p.random_line_set(d, r, seq[0])
    rng = np.random.default_rng(seq[1])
    assignment = tuple(np.concatenate([np.arange(r), rng.integers(0, r, size=k - r)]))
    neuron_map = p.NeuronLineMap(num_neurons=k, assignment=assignment)
    rng2 = np.random.default_rng(seq[2])
    w = p.weights_from_masses(line_set, neuron_map, rng2.standard_normal(k))
    w_star = p.weights_from_masses(line_set, neuron_map, rng2.standard_normal(k))
    return w, w_star


def random_instance(d, r, k, seed):
    w, _ = random_matched_pair(d, r, k, seed)
    return w


def test_criterion_01_matched_closed_form_vs_monte_carlo():
    """20 random matched instances: |closed - MC| <= 4 stderr at 2e6 samples."""
    start = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for trial in range(20):
        d = int(rng.integers(2, 9))
        r = int(rng.integers(1, 7))
        k = int(rng.integers(r, 13))
        w, w_star = random_matched_pair(d, r, k, (101, trial))
        closed = p.matched_risk(w, w_star).total
        estimate, stderr = p.monte_carlo_risk(
            w, w_star, n_samples=2_000_000, seed=(102, trial)
        )
        gap = abs(closed - estimate)
        assert gap <= 4.0 * stderr, "trial %d: gap %.3g > 4 stderr %.3g" % (
            trial, gap, 4.0 * stderr
        )
        if stderr > 0:
            worst = max(worst, gap / stderr)
    elapsed = time.time() - start
    _verdict(
        1, elapsed <= 180.0,
        "matched closed form within 4 stderr of MC on 20 instances "
        "(worst %.2f stderr, %.0fs)" % (worst, elapsed),
    )


def test_criterion_02_mismatched_closed_form_vs_monte_carlo():
    """Same protocol for 20 mismatched instances with r* <= 5."""
    start = time.time()
    rng = np.random.default_rng(201)
    worst = 0.0
    for trial in range(20):
        d = int(rng.integers(2, 9))
        r = int(rng.integers(1, 7))
        k = int(rng.integers(r, 13))
        r_star = int(rng.integers(1, 6))
        k_star = int(rng.integers(r_star, 11))
        w = random_instance(d, r, k, (202, trial))
        w_star = random_instance(d, r_star, k_star, (203, trial))
        closed = p.mismatched_risk(w, w_star).total
        estimate, stderr = p.monte_carlo_risk(
            w, w_star, n_samples=2_000_000, seed=(204, trial)
        )
        gap = abs(closed - estimate)
        assert gap <= 4.0 * stderr, "trial %d: gap %.3g > 4 stderr %.3g" % (
            trial, gap, 4.0 * stderr
        )
        if stderr > 0:
            worst = max(worst, gap / stderr)
    elapsed = time.time() - start
    _verdict(
        2, elapsed <= 180.0,
        "mismatched closed form within 4 stderr of MC on 20 instances "
        "(worst %.2f stderr, %.0fs)" % (worst, elapsed),
    )


def test_criterion_03_kernel_matrices_positive_semidefinite():
    """Entrywise kernel of 200 random line-set Grams has min eig >= -1e-9."""
    rng = np.random.default_rng(301)
    worst = np.inf
    for trial in range(200):
        d = int(rng.integers(2, 21))
        r = int(rng.integers(2, 51))
        line_set = p.random_line_set(d, r, (301, trial))
        lam = p.min_eigenvalue(p.psi(line_set.gram))
        assert lam >= -1e-9, "trial %d: min eig %.3g" % (trial, lam)
        worst = min(worst, lam)
    _verdict(3, True, "200 kernel matrices PSD (worst min eig %.2e)" % worst)


def test_criterion_04_degree_one_identity():
    """Axes kernel equals the 2/pi constant matrix; risks agree to 1e-12."""
    d_max_err = 0.0
    for d in (2, 3, 5, 8):
        kernel_matrix = p.psi(p.axes_line_set(d).gram)
        expected = np.full((d, d), 2.0 / np.pi)
        np.fill_diagonal(expected, 1.0)
        d_max_err = max(d_max_err, float(np.max(np.abs(kernel_matrix - expected))))
    assert d_max_err <= 1e-12

    rng = np.random.default_rng(401)
    risk_err = 0.0
    for trial in range(20):
        d = int(rng.integers(2, 6))
        per = int(rng.integers(1, 4))
        k = d * per
        axes = p.axes_line_set(d)
        neuron_map = p.degree_one_map(d, k)
        masses = rng.standard_normal(k)
        masses_star = rng.standard_normal(k)
        w = p.weights_from_masses(axes, neuron_map, masses)
        w_star = p.weights_from_masses(axes, neuron_map, masses_star)
        a = p.degree_one_risk(w.matrix, w_star.matrix, neuron_map).total
        b = p.matched_risk(w, w_star).total
        risk_err = max(risk_err, abs(a - b))
        assert abs(a - b) <= 1e-12
    _verdict(
        4, True,
        "axes kernel exact (err %.1e), degree-one vs general risk err %.1e"
        % (d_max_err, risk_err),
    )


def test_criterion_05_scalar_specialization_and_hessian_ranks():
    """Single-line risk equals the scalar form; Hessian ranks as predicted."""
    rng = np.random.default_rng(501)
    risk_err = 0.0
    for trial in range(20):
        d = int(rng.integers(1, 7))
        k = int(rng.integers(1, 9))
        line_set = p.random_line_set(d, 1, (501, trial))
        neuron_map = p.NeuronLineMap(k, (0,) * k)
        masses = rng.standard_normal(k)
        masses_star = rng.standard_normal(k)
        w = p.weights_from_masses(line_set, neuron_map, masses)
        w_star = p.weights_from_masses(line_set, neuron_map, masses_star)
        a = p.matched_risk(w, w_star).total
        b = p.scalar_risk(masses, masses_star).total
        risk_err = max(risk_err, abs(a - b))
        assert abs(a - b) <= 1e-12

    checked = 0
    for k in range(1, 11):
        for bits in range(2**k):
            signs = [1 if (bits >> i) & 1 else -1 for i in range(k)]
            H, rank = p.scalar_hessian(signs)
            expected = 1 if len(set(signs)) == 1 else 2
            assert rank == expected
            assert p.min_eigenvalue(H) >= -1e-12
            checked += 1
    _verdict(
        5, True,
        "single-line risk matches scalar form (err %.1e); %d Hessians ranked"
        % (risk_err, checked),
    )


def test_criterion_06_line_addition_chain():
    """50 additions (5 -> 55 lines): monotone norms, update == recompute,
    and a chain that absorbs every target line ends at zero."""
    seq = np.random.SeedSequence(601).spawn(3)
    lines = p.random_line_set(10, 5, seq[0])
    star = p.random_line_set(10, 5, seq[1])
    rng = np.random.default_rng(seq[2])
    target_steps = {10: 0, 20: 1, 30: 2, 40: 3, 45: 4}
    max_recompute_gap = 0.0
    previous_norm = None
    for step in range(50):
        bundle = p.kernel_bundle(lines, star)
        report = p.schur_complement(bundle)
        if previous_norm is not None:
            assert report.spectral_norm <= previous_norm + 1e-10, (
                "norm increased at step %d" % step
            )
        if step in target_steps:
            new_line = star.line(target_steps[step])
        else:
            new_line, _ = p.canonicalize_vector(rng.standard_normal(10))
        updated, alpha, _ = p.add_line_update(report, bundle, new_line)
        assert alpha >= 0.0
        extended = p.build_line_set(np.column_stack([lines.unit_vectors, new_line]).T)
        recomputed = p.schur_complement(p.kernel_bundle(extended, star))
        gap = float(np.max(np.abs(updated.schur - recomputed.schur)))
        max_recompute_gap = max(max_recompute_gap, gap)
        assert gap <= 1e-8, "update vs recompute gap %.3g at step %d" % (gap, step)
        lines = extended
        previous_norm = updated.spectral_norm
    assert lines.num_lines == 55
    assert previous_norm <= 1e-10, "containment chain ended at %.3g" % previous_norm
    _verdict(
        6, True,
        "50-step chain monotone; update-recompute gap %.1e; final norm %.1e"
        % (max_recompute_gap, previous_norm),
    )


def test_criterion_07_equiangular_minimum_eigenvalue_trend():
    """Planar equiangular kernels: min eig positive, strictly decreasing."""
    values = []
    for r in (2, 4, 8, 16, 32, 64):
        lam = p.min_eigenvalue(p.psi(p.equiangular_2d(r).gram))
        assert lam > 0.0, "r=%d gave min eig %.3g" % (r, lam)
        values.append(lam)
    for a, b in zip(values, values[1:]):
        assert b < a - 1e-10
    _verdict(
        7, True,
        "min eig positive and decreasing: " + ", ".join("%.2e" % v for v in values),
    )


def test_criterion_08_high_dimensional_limit():
    """Mean Schur norm tracks the proportional-regime limits at d = 256."""
    start = time.time()

    def mean_norm(d, r, r_star, tag):
        norms = []
        for trial in range(20):
            seq = np.random.SeedSequence((801, tag, d, trial)).spawn(2)
            lines = p.random_line_set(d, r, seq[0])
            star = p.random_line_set(d, r_star, seq[1])
            norms.append(p.schur_complement(p.kernel_bundle(lines, star)).spectral_norm)
        return float(np.mean(norms))

    equal_means = {d: mean_norm(d, d, d, 0) for d in (64, 128, 256)}
    target_equal = 2.0 * RELU_LIMIT
    gap_equal = abs(equal_means[256] - target_equal) / target_equal
    assert gap_equal <= 0.10, "equal-count mean off by %.1f%%" % (100 * gap_equal)

    eighth_means = {
        d: mean_norm(d, d, int(math.ceil(d / 8)), 1) for d in (64, 128, 256)
    }
    target_eighth = (1.0 + 1.0 / 8.0) * RELU_LIMIT
    gap_eighth = abs(eighth_means[256] - target_eighth) / target_eighth
    assert gap_eighth <= 0.15, "eighth-count mean off by %.1f%%" % (100 * gap_eighth)

    elapsed = time.time() - start
    _verdict(
        8, elapsed <= 300.0,
        "d=256 means %.4f (limit %.4f) and %.4f (limit %.4f); %.0fs"
        % (equal_means[256], target_equal, eighth_means[256], target_eighth, elapsed),
    )


def test_criterion_09_gradient_finite_differences():
    """Projected analytic gradients match central differences at 1e-5."""
    rng = np.random.default_rng(901)
    h = 1e-5
    worst = 0.0

    def check(weights, w_star, risk):
        nonlocal worst
        _, projected = p.analytic_gradient(weights, w_star)
        fd = np.zeros_like(projected)
        for j in range(weights.num_neurons):
            u = weights.line_set.line(weights.neuron_map.assignment[j])
            up = weights.matrix.copy()
            up[:, j] += h * u
            down = weights.matrix.copy()
            down[:, j] -= h * u
            lift = p.PNNWeights(up, weights.line_set, weights.neuron_map)
            drop = p.PNNWeights(down, weights.line_set, weights.neuron_map)
            fd[j] = (risk(lift, w_star).total - risk(drop, w_star).total) / (2 * h)
        rel = float(np.max(np.abs(fd - projected))) / max(
            float(np.max(np.abs(projected))), 1e-6
        )
        worst = max(worst, rel)
        assert rel <= 1e-5, "relative gradient error %.3g" % rel

    for trial in range(50):  # matched configurations
        d = int(rng.integers(2, 6))
        r = int(rng.integers(1, 5))
        k = int(rng.integers(r, 8))
        seq = np.random.SeedSequence((902, trial)).spawn(3)
        line_set = p.random_line_set(d, r, seq[0])
        assignment = tuple(
            np.concatenate([np.arange(r), np.random.default_rng(seq[1]).integers(0, r, k - r)])
        )
        neuron_map = p.NeuronLineMap(k, assignment)
        rng2 = np.random.default_rng(seq[2])
        masses = rng2.uniform(0.4, 2.0, k) * rng2.choice([-1, 1], k)
        masses_star = rng2.uniform(0.4, 2.0, k) * rng2.choice([-1, 1], k)
        w = p.weights_from_masses(line_set, neuron_map, masses)
        w_star = p.weights_from_masses(line_set, neuron_map, masses_star)
        check(w, w_star, p.matched_risk)

    for trial in range(50):  # mismatched configurations
        d = int(rng.integers(2, 6))
        r = int(rng.integers(1, 5))
        k = int(rng.integers(r, 8))
        r_star = int(rng.integers(1, 4))
        k_star = int(rng.integers(r_star, 7))
        seq = np.random.SeedSequence((903, trial)).spawn(4)
        lines = p.random_line_set(d, r, seq[0])
        star_lines = p.random_line_set(d, r_star, seq[1])
        rng2 = np.random.default_rng(seq[2])
        rng3 = np.random.default_rng(seq[3])
        # interior points: masses bounded away from the non-smooth origin
        w = p.weights_from_masses(
            lines,
            p.NeuronLineMap(k, tuple(np.concatenate([np.arange(r), rng2.integers(0, r, k - r)]))),
            rng2.uniform(0.4, 2.0, k) * rng2.choice([-1, 1], k),
        )
        w_star = p.weights_from_masses(
            star_lines,
            p.NeuronLineMap(
                k_star,
                tuple(np.concatenate([np.arange(r_star), rng3.integers(0, r_star, k_star - r_star)])),
            ),
            rng3.uniform(0.4, 2.0, k_star) * rng3.choice([-1, 1], k_star),
        )
        check(w, w_star, p.mismatched_risk)
    _verdict(9, True, "worst relative projected-gradient error %.2e" % worst)


def test_criterion_10_scalar_training_behavior():
    """Mixed inits against (6,4) reach zero; trapped all-plus runs against
    (6,-4) settle at population loss 8 within 1%."""
    start = time.time()
    line_set = p.build_line_set([[1.0]])
    neuron_map = p.NeuronLineMap(2, (0, 0))
    config_args = dict(
        batch_size=100, epochs=120, learning_rate=0.01, momentum=0.9,
        decay_rate=0.95, decay_every_steps=390,
    )

    truth_plus = p.weights_from_masses(line_set, neuron_map, [6.0, 4.0])
    worst_loss = 0.0
    for i in range(50):
        seq = np.random.SeedSequence((1001, i)).spawn(3)
        rng = np.random.default_rng(seq[0])
        init = p.weights_from_masses(
            line_set, neuron_map, [rng.uniform(1, 5), -rng.uniform(1, 5)]
        )
        X, y = p.generate_dataset(truth_plus, 2000, seq[1])
        config = p.TrainConfig(
            seed=int(np.random.default_rng(seq[2]).integers(2**31)), **config_args
        )
        result = p.sgd_train((X, y), init, config)
        loss = p.scalar_risk(result.final_matrix.ravel(), [6.0, 4.0]).total
        worst_loss = max(worst_loss, loss)
        assert loss <= 1e-6, "run %d ended at population loss %.3g" % (i, loss)

    truth_mixed = p.weights_from_masses(line_set, neuron_map, [6.0, -4.0])
    worst_rel = 0.0
    trapped = 0
    for i in range(20):
        seq = np.random.SeedSequence((1002, i)).spawn(3)
        rng = np.random.default_rng(seq[0])
        init = p.weights_from_masses(
            line_set, neuron_map, [rng.uniform(2, 5), rng.uniform(2, 5)]
        )
        X, y = p.generate_dataset(truth_mixed, 2000, seq[1])
        config = p.TrainConfig(
            seed=int(np.random.default_rng(seq[2]).integers(2**31)), **config_args
        )
        result = p.sgd_train((X, y), init, config)
        assert result.final_signature.all_plus == (True,), "run %d escaped" % i
        trapped += 1
        loss = p.scalar_risk(result.final_matrix.ravel(), [6.0, -4.0]).total
        rel = abs(loss - 8.0) / 8.0
        worst_rel = max(worst_rel, rel)
        assert rel <= 0.01, "trapped run %d ended at %.4f" % (i, loss)
    _verdict(
        10, True,
        "50 mixed-init runs reach <= %.1e; %d trapped runs at 8 within %.2e "
        "(%.0fs)" % (worst_loss, trapped, worst_rel, time.time() - start),
    )


def _theorem_consistency_instance(seed, d=6, r=12, r_star=4, theta=0.08):
    """Mismatched instance whose good-region optimum is (near-)attainable:
    targets are small-angle perturbed copies of model lines with balanced
    neuron pairs, so the stationary mass system is essentially feasible."""
    seq = np.random.SeedSequence(seed).spawn(5)
    lines = p.random_line_set(d, r, seq[0])
    rng = np.random.default_rng(seq[1])
    parents = rng.choice(r, size=r_star, replace=False)
    cols = []
    for j in parents:
        u = lines.line(int(j))
        g = rng.standard_normal(d)
        g -= (g @ u) * u
        g /= np.linalg.norm(g)
        cols.append(np.cos(theta) * u + np.sin(theta) * g)
    star = p.build_line_set(cols)
    star_map = p.NeuronLineMap(2 * r_star, tuple(np.repeat(np.arange(r_star), 2)))
    amplitudes = rng.uniform(0.5, 1.5, r_star)
    w_star = p.weights_from_masses(
        star, star_map, np.repeat(amplitudes, 2) * np.tile([1.0, -1.0], r_star)
    )
    return lines, star, w_star, seq


def test_criterion_11_trained_good_region_matches_schur_value():
    """Streamed projected SGD on good-region-feasible mismatched instances
    lands within 1e-3 |q*|^2 of the Schur-complement prediction."""
    start = time.time()
    d, r = 6, 12
    collected = 0
    attempts = 0
    worst = 0.0
    while collected < 10 and attempts < 15:
        lines, star, w_star, seq = _theorem_consistency_instance((1101, attempts))
        attempts += 1
        q_star, _ = p.decompose_weights(w_star)
        X, y = p.generate_dataset(w_star, 1_600_000, seq[2])
        neuron_map = p.NeuronLineMap(2 * r, tuple(np.repeat(np.arange(r), 2)))
        rng = np.random.default_rng(seq[3])
        init = p.weights_from_masses(
            lines, neuron_map,
            np.repeat(rng.uniform(0.05, 0.3, r), 2) * np.tile([1.0, -1.0], r),
        )
        config = p.TrainConfig(
            batch_size=100, epochs=1, learning_rate=3e-3, momentum=0.9,
            decay_rate=0.8, decay_every_steps=1000,
            seed=int(np.random.default_rng(seq[4]).integers(2**31)),
        )
        result = p.sgd_train((X, y), init, config)
        if not p.region_condition(result.final_signature, d):
            continue
        collected += 1
        achieved = p.mismatched_risk(result.final_weights(), w_star).total
        bundle = p.kernel_bundle(lines, star)
        exact = p.schur_complement(bundle).loss_at_good_local(q_star)
        gap = abs(achieved - exact) / float(q_star @ q_star)
        worst = max(worst, gap)
        assert gap <= 1e-3, "instance %d: gap %.3g |q*|^2" % (attempts, gap)
    assert collected == 10, "only %d/%d runs ended in good regions" % (
        collected, attempts
    )
    _verdict(
        11, True,
        "10 good-region runs within %.2e |q*|^2 of the predicted loss (%.0fs)"
        % (worst, time.time() - start),
    )


def test_criterion_12_mismatched_width_trend():
    """Median normalized test error is non-increasing in network width."""
    start = time.time()
    config = p.desk_mismatched_config(seed=0)
    summary = p.experiment_mismatched_random(
        d=15, k_star=20, k_list=[10, 20, 40, 80], trials=10, config=config,
        inits_per_trial=5, n_train=4000, n_test=4000,
    )
    medians = summary.per_k()
    values = [medians[k] for k in (10, 20, 40, 80)]
    for a, b in zip(values, values[1:]):
        assert b <= a + 1e-12, "medians not monotone: %s" % medians
    _verdict(
        12, True,
        "medians %.4f > %.4f > %.4f > %.4f over k = 10,20,40,80 (%.0fs)"
        % (*values, time.time() - start),
    )


def test_criterion_13_minimax_net_and_bounds():
    """Greedy net covers at delta; output gap obeys the nearest-direction
    bound; the relu Lipschitz bound survives 1e6 random triples."""
    start = time.time()
    delta = 0.3
    net = p.greedy_angular_net(3, delta, seed=1301)
    gap = p.coverage_gap(net, n_probes=100_000, seed=1302)
    assert gap <= delta, "coverage gap %.4f > delta" % gap

    rng = np.random.default_rng(1303)
    worst_ratio = 0.0
    for _ in range(10):
        k = int(rng.integers(2, 9))
        directions = rng.standard_normal((3, k))
        directions /= np.linalg.norm(directions, axis=0, keepdims=True)
        W = directions * rng.uniform(0.2, 1.0, k)[None, :]
        approx, _ = p.nearest_net_approx(W, net)
        X = rng.standard_normal((200_000, 3))
        mean_gap = float(
            np.mean(np.abs(p.network_output(X, W) - p.network_output(X, approx)))
        )
        bound = p.minimax_risk_bound(k, 1.0, 3, delta)
        assert mean_gap <= bound
        worst_ratio = max(worst_ratio, mean_gap / bound)

    # Lipschitz property of the relu output gap, vectorized over triples.
    violations = 0
    for _ in range(10):
        W1 = rng.standard_normal((100_000, 4))
        W2 = rng.standard_normal((100_000, 4))
        X = rng.standard_normal((100_000, 4))
        gap_values = np.abs(
            np.maximum(np.sum(W1 * X, axis=1), 0.0)
            - np.maximum(np.sum(W2 * X, axis=1), 0.0)
        )
        bounds = np.linalg.norm(W1 - W2, axis=1) * np.linalg.norm(X, axis=1)
        violations += int(np.sum(gap_values > bounds + 1e-12))
    assert violations == 0
    spot = p.relu_gap(np.array([1.0, 0.0]), np.array([-1.0, 0.0]), np.array([1.0, 0.0]))
    assert spot.within_bound
    _verdict(
        13, True,
        "coverage %.3f <= %.1f; worst output-gap/bound %.2f; 0 violations in 1e6 "
        "triples (%.0fs)" % (gap, delta, worst_ratio, time.time() - start),
    )


def test_criterion_14_truncated_covariance_monte_carlo():
    """Closed-form truncated covariance matches 1e7-sample MC entrywise,
    including near-parallel pairs."""
    start = time.time()
    rng = np.random.default_rng(1401)
    pairs = []
    for _ in range(8):
        d = int(rng.integers(2, 5))
        pairs.append((rng.standard_normal(d), rng.standard_normal(d)))
    for angle in (5e-4, 8e-4):  # near-parallel pairs
        base = rng.standard_normal(3)
        base /= np.linalg.norm(base)
        ortho = rng.standard_normal(3)
        ortho -= (ortho @ base) * base
        ortho /= np.linalg.norm(ortho)
        pairs.append((2.0 * base, np.cos(angle) * base + np.sin(angle) * ortho))

    n = 10_000_000
    chunk = 1_000_000
    worst = 0.0
    for index, (w1, w2) in enumerate(pairs):
        d = w1.shape[0]
        predicted = p.truncated_covariance(w1, w2)
        total = np.zeros((d, d))
        total_sq = np.zeros((d, d))
        sampler = np.random.default_rng((1402, index))
        for _ in range(n // chunk):
            X = sampler.standard_normal((chunk, d))
            mask = (X @ w1 > 0) & (X @ w2 > 0)
            Xm = X[mask]
            total += Xm.T @ Xm
            total_sq += (Xm**2).T @ (Xm**2)
        mean = total / n
        stderr = np.sqrt(np.maximum(total_sq / n - mean**2, 0.0) / n)
        gaps = np.abs(mean - predicted)
        assert np.all(gaps <= 4.0 * stderr + 1e-12), "pair %d failed" % index
        worst = max(worst, float(np.max(gaps / np.maximum(stderr, 1e-12))))
    _verdict(
        14, True,
        "10 pairs matched entrywise (worst %.2f stderr, %.0fs)"
        % (worst, time.time() - start),
    )


def test_criterion_15_zero_network_risk_floor():
    """The risk of the zero network dominates |q*|^2 / 4 at d >= 50."""
    rng = np.random.default_rng(1501)
    worst = np.inf
    for trial in range(50):
        d = int(rng.integers(50, 151))
        r_star = int(rng.integers(5, 60))
        k_star = int(r_star + rng.integers(0, 20))
        w_star = random_instance(d, r_star, k_star, (1502, trial))
        q_star, _ = p.decompose_weights(w_star)
        zero = p.PNNWeights(
            matrix=np.zeros((d, 1)),
            line_set=w_star.line_set.subset([0]),
            neuron_map=p.NeuronLineMap(1, (0,)),
        )
        loss = p.mismatched_risk(zero, w_star).total
        floor = 0.25 * float(q_star @ q_star)
        margin = loss - floor
        worst = min(worst, margin)
        assert margin >= -1e-9, "trial %d: margin %.3g" % (trial, margin)
    _verdict(15, True, "zero-network floor holds (worst margin %.3g)" % worst)
