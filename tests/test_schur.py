"""Schur complements, line-addition updates, baselines, and asymptotics."""

import numpy as np
import pytest

import porcupine as p
from porcupine.errors import (
    DimensionMismatch,
    DomainError,
    DuplicateLine,
    NegativeMass,
    ParameterOutOfRange,
    PreconditionViolated,
    SingularKernel,
    SingularStructure,
)


def random_bundle(d, r, r_star, seed):
    seq = np.random.SeedSequence(seed).spawn(2)
    lines = p.random_line_set(d, r, seq[0])
    star = p.random_line_set(d, r_star, seq[1])
    return p.kernel_bundle(lines, star)


class TestSchurComplement:
    def test_contained_targets_give_zero(self):
        lines = p.build_line_set([[1.0, 0.0], [0.0, 1.0]])
        star = p.build_line_set([[0.0, 1.0]])
        report = p.schur_complement(p.kernel_bundle(lines, star))
        assert report.spectral_norm <= 1e-10

    def test_random_containment(self):
        lines = p.random_line_set(6, 9, seed=1)
        star = lines.subset([1, 4, 7])
        report = p.schur_complement(p.kernel_bundle(lines, star))
        assert report.spectral_norm <= 1e-10

    def test_one_by_one_hand_value(self):
        lines = p.build_line_set([[1.0, 0.0]])
        star = p.build_line_set([[0.0, 1.0]])
        report = p.schur_complement(p.kernel_bundle(lines, star))
        assert report.schur[0, 0] == pytest.approx(1.0 - 4.0 / np.pi**2, abs=1e-14)

    def test_psd_across_random_instances(self):
        rng = np.random.default_rng(2)
        for trial in range(20):
            d = int(rng.integers(2, 10))
            r = int(rng.integers(2, 15))
            r_star = int(rng.integers(1, 8))
            report = p.schur_complement(random_bundle(d, r, r_star, (2, trial)))
            assert report.min_eigenvalue >= -1e-9
            assert report.spectral_norm >= -1e-12

    def test_lower_bounds_mismatched_risk(self):
        # Any feasible model network loses at least |q*|^2 min_eig / 4.
        seq = np.random.SeedSequence(3).spawn(4)
        lines = p.random_line_set(5, 4, seq[0])
        star = p.random_line_set(5, 3, seq[1])
        report = p.schur_complement(p.kernel_bundle(lines, star))
        rng = np.random.default_rng(seq[2])
        star_map = p.NeuronLineMap(4, (0, 1, 2, 0))
        w_star = p.weights_from_masses(star, star_map, rng.uniform(0.5, 2.0, 4))
        q_star, _ = p.decompose_weights(w_star)
        floor = 0.25 * float(q_star @ q_star) * report.min_eigenvalue
        model_map = p.NeuronLineMap(6, (0, 1, 2, 3, 0, 1))
        for _ in range(25):
            w = p.weights_from_masses(
                lines, model_map, rng.standard_normal(6) * rng.uniform(0.2, 2.0)
            )
            assert p.mismatched_risk(w, w_star).total >= floor - 1e-10


class TestSchurOneEigh:
    @pytest.mark.parametrize("d", [8, 64, 256])
    @pytest.mark.parametrize("factor", [1, 2])
    def test_matches_explicit_pseudo_inverse(self, d, factor):
        bundle = random_bundle(d, factor * d, d, (30, d, factor))
        report = p.schur_complement(bundle)
        C = bundle.psi_cross
        explicit = bundle.psi_star - C.T @ p.symmetric_pseudo_inverse(bundle.psi_lines) @ C
        assert np.all(
            np.abs(report.schur - explicit) <= 1e-10 * np.maximum(1.0, np.abs(explicit))
        )
        assert report.spectral_norm == p.spectral_norm(report.schur)
        assert report.min_eigenvalue == p.min_eigenvalue(report.schur)


class TestSchurHealth:
    def test_full_rank_block(self):
        bundle = random_bundle(6, 9, 4, 31)
        report = p.schur_complement(bundle)
        assert report.kept_rank == 9
        assert report.dropped_eigenvalues == 0
        vals = np.abs(np.linalg.eigvalsh(bundle.psi_lines))
        assert report.condition == pytest.approx(vals.max() / vals.min(), rel=1e-12)

    def test_many_planar_lines_drop_eigenvalues(self):
        # The kernel block of 60 lines in d=2 has numerical rank 57.
        lines = p.random_line_set(2, 60, 11)
        star = p.random_line_set(2, 5, 12)
        report = p.schur_complement(p.kernel_bundle(lines, star))
        assert report.dropped_eigenvalues == 3
        assert report.kept_rank == 57
        assert report.condition > 1e9

    def test_update_leaves_health_unset(self):
        bundle = random_bundle(4, 3, 2, 32)
        report = p.schur_complement(bundle)
        updated, _, _ = p.add_line_update(report, bundle, np.array([1.0, 2.0, -1.0, 0.5]))
        assert updated.kept_rank is None
        assert updated.dropped_eigenvalues is None
        assert updated.condition is None


class TestGoodLocalLoss:
    def test_zero_mass(self):
        report = p.schur_complement(random_bundle(4, 5, 2, 10))
        exact, upper = p.good_local_loss(report, np.zeros(2))
        assert exact == 0.0 and upper == 0.0

    def test_exact_below_upper(self):
        rng = np.random.default_rng(11)
        report = p.schur_complement(random_bundle(5, 6, 4, 11))
        for _ in range(20):
            q = rng.uniform(0.0, 3.0, 4)
            exact, upper = p.good_local_loss(report, q)
            assert exact <= upper + 1e-12

    def test_negative_mass_rejected(self):
        report = p.schur_complement(random_bundle(3, 3, 2, 12))
        with pytest.raises(NegativeMass):
            p.good_local_loss(report, np.array([1.0, -0.5]))

    @pytest.mark.parametrize("q, error", [
        ([float("nan"), 1.0], DomainError),
        ([1.0, float("inf")], DomainError),
        ([1.0, 1.0, 1.0], DimensionMismatch),
    ])
    def test_bad_mass_rejected(self, q, error):
        report = p.schur_complement(random_bundle(3, 3, 2, 12))
        with pytest.raises(error):
            p.good_local_loss(report, q)
        with pytest.raises(error):
            report.loss_at_good_local(q)

    def test_wrong_length_wins_over_negative_mass(self):
        report = p.schur_complement(random_bundle(3, 3, 2, 12))
        with pytest.raises(DimensionMismatch):
            p.good_local_loss(report, [1.0, -1.0, 1.0])
        with pytest.raises(DomainError):
            p.good_local_loss(report, [float("nan"), -1.0])


class TestAddLineUpdate:
    def test_planar_hand_computation(self):
        lines = p.build_line_set([[1.0, 0.0]])
        star = p.build_line_set([[0.0, 1.0]])
        bundle = p.kernel_bundle(lines, star)
        report = p.schur_complement(bundle)
        updated, alpha, v = p.add_line_update(report, bundle, np.array([0.0, 1.0]))
        assert report.schur[0, 0] == pytest.approx(1.0 - 4.0 / np.pi**2, abs=1e-14)
        assert alpha * v[0] ** 2 == pytest.approx(1.0 - 4.0 / np.pi**2, abs=1e-12)
        assert abs(updated.schur[0, 0]) <= 1e-12

    def test_update_matches_recompute_and_monotone(self):
        seq = np.random.SeedSequence(20).spawn(3)
        lines = p.random_line_set(6, 5, seq[0])
        star = p.random_line_set(6, 3, seq[1])
        rng = np.random.default_rng(seq[2])
        norm_before = None
        for step in range(8):
            bundle = p.kernel_bundle(lines, star)
            report = p.schur_complement(bundle)
            if norm_before is not None:
                assert report.spectral_norm <= norm_before + 1e-10
            new_line, _ = p.canonicalize_vector(rng.standard_normal(6))
            updated, alpha, _ = p.add_line_update(report, bundle, new_line)
            assert alpha >= 0.0
            extended = p.build_line_set(
                np.column_stack([lines.unit_vectors, new_line]).T
            )
            recomputed = p.schur_complement(p.kernel_bundle(extended, star))
            np.testing.assert_allclose(updated.schur, recomputed.schur, atol=1e-8)
            lines = extended
            norm_before = updated.spectral_norm

    def test_duplicate_line_rejected(self):
        bundle = random_bundle(4, 3, 2, 21)
        report = p.schur_complement(bundle)
        with pytest.raises(DuplicateLine):
            p.add_line_update(report, bundle, bundle.lines.line(1))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_duplicate_decision_at_the_threshold(self, sign):
        # The added line makes cosine sign * c with the first model line, c
        # stepped by single ulps around 1 - COLLINEARITY_TOL; at step 0 the
        # cosine computed is the threshold itself, which counts as a duplicate.
        lines = p.build_line_set([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        bundle = p.kernel_bundle(lines, p.build_line_set([[0.0, 0.0, 1.0]]))
        report = p.schur_complement(bundle)
        threshold = 1.0 - 1e-9
        for step in range(-2, 3):
            c = threshold
            for _ in range(abs(step)):
                c = np.nextafter(c, 2.0 if step > 0 else 0.0)
            new_line = np.array([sign * c, np.sqrt(1.0 - c * c), 0.0])
            unit, _ = p.canonicalize_vector(new_line)
            z1 = np.clip(lines.unit_vectors.T @ unit, -1.0, 1.0)
            # The former check, verbatim.
            duplicate = np.max(np.abs(z1)) >= 1.0 - 1e-9
            if step == 0:
                assert np.max(np.abs(z1)) == threshold
            assert duplicate == (step >= 0)
            raised = False
            try:
                p.add_line_update(report, bundle, new_line)
            except DuplicateLine:
                raised = True
            except SingularKernel:  # a line this close makes the extended block singular
                pass
            assert raised == duplicate

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_line_rejected(self, bad):
        bundle = random_bundle(4, 3, 2, 21)
        report = p.schur_complement(bundle)
        with pytest.raises(DomainError):
            p.add_line_update(report, bundle, np.array([1.0, bad, 0.0, 0.5]))


class TestNearestLineSubset:
    def test_containment_returns_targets(self):
        lines = p.random_line_set(5, 8, seed=30)
        star = lines.subset([0, 3, 6])
        result = p.nearest_line_subset(lines, star)
        assert result.indices == (0, 3, 6)
        assert result.conflicts == ()
        np.testing.assert_array_equal(
            result.line_set.unit_vectors, star.unit_vectors
        )

    def test_axis_example(self):
        lines = p.build_line_set([[1.0, 0.0], [0.0, 1.0]])
        star = p.build_line_set([[1.0, 0.0]])
        result = p.nearest_line_subset(lines, star)
        assert result.indices == (0,)

    def test_orientation_free_matching(self):
        lines = p.build_line_set([[1.0, 0.1], [0.1, 1.0]])
        # target along -(1, 0.1): same line as lines[0]
        star = p.build_line_set([[-1.0, -0.100000001]])
        result = p.nearest_line_subset(lines, star)
        assert result.indices == (0,)

    def test_conflict_resolution_in_target_order(self):
        lines = p.build_line_set([[1.0, 0.0], [0.0, 1.0]])
        star = p.build_line_set([[1.0, 0.05], [1.0, -0.05]])
        result = p.nearest_line_subset(lines, star)
        assert result.indices[0] == 0
        assert result.indices[1] == 1
        assert result.conflicts == (1,)

    def test_nearest_baseline_much_worse_than_full(self):
        lines = p.random_line_set(15, 200, seed=31)
        star = p.random_line_set(15, 20, seed=32)
        full = p.schur_complement(p.kernel_bundle(lines, star)).spectral_norm
        subset = p.nearest_line_subset(lines, star).line_set
        nearest = p.schur_complement(p.kernel_bundle(subset, star)).spectral_norm
        assert nearest > 2.0 * full

    def test_requires_enough_lines(self):
        with pytest.raises(ParameterOutOfRange):
            p.nearest_line_subset(
                p.random_line_set(4, 2, 33), p.random_line_set(4, 3, 34)
            )


def nearest_reference(lines, targets):
    """Winners picked with one full argsort of the affinities per target."""
    affinity = np.abs(lines.unit_vectors.T @ targets.unit_vectors)
    taken, conflicts = [], []
    for i in range(targets.num_lines):
        order = np.argsort(-affinity[:, i])
        best = int(order[0])
        if best in taken:
            conflicts.append(i)
            best = next(int(j) for j in order if int(j) not in taken)
        taken.append(best)
    return tuple(taken), tuple(conflicts)


class TestNearestLineSubsetOneArgmax:
    @pytest.mark.parametrize("d, r, r_star, seed", [
        (3, 40, 20, 0), (8, 64, 32, 1), (16, 32, 32, 2), (64, 128, 64, 3),
    ])
    def test_matches_argsort_loop(self, d, r, r_star, seed):
        lines = p.random_line_set(d, r, seed=seed)
        targets = p.random_line_set(d, r_star, seed=seed + 100)
        got = p.nearest_line_subset(lines, targets)
        indices, conflicts = nearest_reference(lines, targets)
        assert got.indices == indices
        assert got.conflicts == conflicts
        np.testing.assert_array_equal(
            got.line_set.unit_vectors, lines.unit_vectors[:, list(indices)]
        )

    def test_duplicated_targets_force_conflicts(self):
        lines = p.random_line_set(5, 30, seed=7)
        base = p.random_line_set(5, 6, seed=8)
        # Each target line appears up to three times: its winner is taken
        # by the first copy, the later copies fall back to the next free line.
        targets = base.subset([0, 1, 0, 2, 1, 0, 3, 4, 5, 5])
        got = p.nearest_line_subset(lines, targets)
        indices, conflicts = nearest_reference(lines, targets)
        assert len(conflicts) >= 4
        assert got.indices == indices
        assert got.conflicts == conflicts
        assert len(set(got.indices)) == targets.num_lines

    def test_all_lines_taken(self):
        lines = p.random_line_set(4, 6, seed=9)
        targets = lines.subset([2, 2, 2, 2, 2, 2])
        got = p.nearest_line_subset(lines, targets)
        assert (got.indices, got.conflicts) == nearest_reference(lines, targets)
        assert sorted(got.indices) == list(range(6))


class TestAsymptoticReference:
    def test_matrix_eigenvalues(self):
        ref = p.asymptotic_reference(d=32, r=48, r_star=8)
        values = np.linalg.eigvalsh(ref.matrix)
        (bulk, bulk_mult), (top, top_mult) = ref.eigenvalues
        assert bulk_mult == 47 and top_mult == 1
        np.testing.assert_allclose(values[:-1], bulk, atol=1e-10)
        assert values[-1] == pytest.approx(top, abs=1e-10)
        # top eigenvalue closed form: (2/pi) r + 1 - 2/pi + gamma/pi
        gamma = 48 / 32
        assert top == pytest.approx(
            2.0 / np.pi * 48 + 1.0 - 2.0 / np.pi + gamma / np.pi, abs=1e-12
        )

    def test_matrix_is_built_on_first_read(self):
        ref = p.asymptotic_reference(d=8, r=5, r_star=3)
        assert "matrix" not in vars(ref)
        alpha, beta = 1.0 - 2.0 / np.pi, 2.0 / np.pi + 1.0 / (np.pi * 8)
        np.testing.assert_array_equal(ref.matrix, beta * np.ones((5, 5)) + alpha * np.eye(5))
        assert vars(ref)["matrix"] is ref.matrix
        assert not ref.matrix.flags.writeable

    def test_equal_counts_limit(self):
        ref = p.asymptotic_reference(d=64, r=64, r_star=64)
        assert ref.limit == pytest.approx(2.0 * (1.0 - 2.0 / np.pi), abs=1e-15)

    def test_vanishing_target_fraction(self):
        ref = p.asymptotic_reference(d=64, r=1000, r_star=1)
        assert ref.limit == pytest.approx(1.0 - 2.0 / np.pi, rel=2e-3)


class TestPerturbationBound:
    def _perturbed_pair(self, d, r, eps, seed):
        star = p.random_line_set(d, r, seed)
        rng = np.random.default_rng((seed, 1))
        cols = []
        for j in range(r):
            u = star.line(j)
            g = rng.standard_normal(d)
            g -= (g @ u) * u
            g /= np.linalg.norm(g)
            cols.append(np.cos(eps) * u + np.sin(eps) * g)
        return p.build_line_set(cols), star

    def test_zero_perturbation(self):
        star = p.random_line_set(6, 5, seed=40)
        assert p.perturbation_bound(star, star, delta=0.05) == 0.0

    def test_small_perturbation_dominates_schur_norm(self):
        lines, star = self._perturbed_pair(10, 10, 1e-4, seed=41)
        delta = 0.9 * p.min_eigenvalue(p.psi(star.gram))
        bound = p.perturbation_bound(lines, star, delta)
        actual = p.schur_complement(p.kernel_bundle(lines, star)).spectral_norm
        assert actual <= bound + 1e-9
        assert bound > 0.0

    def test_precondition_violation_reported(self):
        lines, star = self._perturbed_pair(6, 6, 0.5, seed=42)
        with pytest.raises(PreconditionViolated):
            p.perturbation_bound(lines, star, delta=0.3)


class TestNormalizedLossBound:
    def test_equal_counts(self):
        assert p.normalized_loss_bound(10, 10) == pytest.approx(
            2.0 * (1.0 - 2.0 / np.pi), abs=1e-15
        )

    def test_quarter_ratio(self):
        assert p.normalized_loss_bound(4, 1) == pytest.approx(
            1.25 * (1.0 - 2.0 / np.pi), abs=1e-15
        )

    def test_empirical_normalized_loss_within_bound(self):
        # d = r = r* = 256: the achieved good-region loss over the loss of
        # the zero network stays within 10% of the limiting bound.
        seq = np.random.SeedSequence(43).spawn(3)
        d = r = r_star = 256
        lines = p.random_line_set(d, r, seq[0])
        star = p.random_line_set(d, r_star, seq[1])
        rng = np.random.default_rng(seq[2])
        star_map = p.NeuronLineMap(r_star, tuple(range(r_star)))
        w_star = p.weights_from_masses(star, star_map, rng.uniform(0.5, 1.5, r_star))
        q_star, _ = p.decompose_weights(w_star)
        report = p.schur_complement(p.kernel_bundle(lines, star))
        achieved = report.loss_at_good_local(q_star)
        zero = p.PNNWeights(
            matrix=np.zeros((d, 1)),
            line_set=lines.subset([0]),
            neuron_map=p.NeuronLineMap(1, (0,)),
        )
        denominator = p.mismatched_risk(zero, w_star).total
        assert achieved / denominator <= p.normalized_loss_bound(r, r_star) * 1.1


class TestBadLocalAsymptoticBound:
    def test_formula_value(self):
        bound = p.bad_local_asymptotic_bound(gamma=4.0, r=100, r_star=10, mu=1.5)
        expected = 0.25 * (1.0 - 2.0 / np.pi + 4.5**2 / 10.0)
        assert bound.coefficient == pytest.approx(expected, abs=1e-14)

    def test_vanishing_target_fraction_limit(self):
        bound = p.bad_local_asymptotic_bound(gamma=2.0, r=10**7, r_star=1, mu=2.0)
        assert bound.coefficient == pytest.approx(0.25 * (1.0 - 2.0 / np.pi), rel=1e-4)

    def test_parameter_validation(self):
        with pytest.raises(ParameterOutOfRange):
            p.bad_local_asymptotic_bound(gamma=1.0, r=10, r_star=5, mu=2.0)
        with pytest.raises(ParameterOutOfRange):
            p.bad_local_asymptotic_bound(gamma=2.0, r=10, r_star=5, mu=1.0)

    def test_empirical_bad_region_losses_within_bound(self):
        # Closed-form bad-region losses at d = 128, gamma = 2, mu = 2 stay
        # below the asymptotic coefficient in at least 95% of trials.
        d, gamma = 128, 2.0
        r = int(gamma * d)
        r_star = r // 10
        bound = p.bad_local_asymptotic_bound(gamma, r, r_star, mu=2.0)
        hits = 0
        trials = 100
        for trial in range(trials):
            seq = np.random.SeedSequence((44, trial)).spawn(3)
            lines = p.random_line_set(d, r, seq[0])
            star = p.random_line_set(d, r_star, seq[1])
            q_star = np.abs(np.random.default_rng(seq[2]).standard_normal(r_star)) + 0.1
            loss = p.bad_region_loss(p.kernel_bundle(lines, star), q_star)
            hits += loss <= bound.coefficient * float(q_star @ q_star)
        assert hits >= 95


class TestStructuredInverse:
    def test_identity(self):
        assert p.structured_inverse(1.0, 0.0, 5) == (1.0, 0.0)

    def test_ones_shift(self):
        alpha2, beta2 = p.structured_inverse(1.0, 1.0, 2)
        assert alpha2 == pytest.approx(1.0)
        assert beta2 == pytest.approx(-1.0 / 3.0)
        A = np.eye(2) + np.ones((2, 2))
        B = alpha2 * np.eye(2) + beta2 * np.ones((2, 2))
        np.testing.assert_allclose(A @ B, np.eye(2), atol=1e-14)

    def test_random_reconstruction(self):
        rng = np.random.default_rng(45)
        for _ in range(30):
            n = int(rng.integers(1, 9))
            alpha = rng.uniform(0.2, 3.0) * rng.choice([-1, 1])
            beta = rng.uniform(-1.0, 1.0)
            if abs(alpha + beta * n) < 1e-6:
                continue
            alpha2, beta2 = p.structured_inverse(alpha, beta, n)
            A = alpha * np.eye(n) + beta * np.ones((n, n))
            B = alpha2 * np.eye(n) + beta2 * np.ones((n, n))
            np.testing.assert_allclose(A @ B, np.eye(n), atol=1e-12)

    def test_singular_structure(self):
        with pytest.raises(SingularStructure):
            p.structured_inverse(0.0, 1.0, 3)
        with pytest.raises(SingularStructure):
            p.structured_inverse(1.0, -0.5, 2)


def _eigh_route(bundle):
    """The complement and health from one eigendecomposition of the block."""
    from porcupine.kernel import _inverted_spectrum

    vecs, inv = _inverted_spectrum(bundle.psi_lines)
    m = vecs.T @ bundle.psi_cross
    schur = bundle.psi_star - (m.T * inv) @ m
    kept = np.abs(inv[inv != 0.0])
    condition = kept.max() / kept.min()
    return (schur + schur.T) / 2.0, int(kept.size), int(inv.size - kept.size), condition


def synthetic_bundle(lam, r_star, seed):
    """A bundle whose model block is ``V diag(lam) V'`` for a random orthogonal V.

    The cross block is ``A W`` and the target block ``W' A W + G G'``, so the
    union matrix is PSD and the complement is ``G G'`` when nothing is dropped.
    """
    import dataclasses

    r = lam.size
    rng = np.random.default_rng(seed)
    V, _ = np.linalg.qr(rng.standard_normal((r, r)))
    A = (V * lam) @ V.T
    A = (A + A.T) / 2.0
    W = rng.standard_normal((r, r_star)) / np.sqrt(r)
    G = rng.standard_normal((r_star, r_star)) / np.sqrt(r_star)
    C = A @ W
    star = W.T @ C + G @ G.T
    base = random_bundle(4, r, r_star, seed)
    return dataclasses.replace(base, psi_lines=A, psi_cross=C, psi_star=(star + star.T) / 2.0)


def keeps_all(matrix):
    """Whether the guard proves that the cutoff keeps every eigenvalue."""
    from porcupine.kernel import _guarded_factor

    return _guarded_factor(matrix) is not None


class TestSchurSolveRoute:
    @pytest.mark.parametrize("d", [8, 64, 256])
    @pytest.mark.parametrize("factor", [1, 2])
    def test_solve_route_matches_explicit_pseudo_inverse(self, d, factor):
        bundle = random_bundle(d, factor * d, d, (33, d, factor))
        assert keeps_all(bundle.psi_lines)  # the solve route is taken
        report = p.schur_complement(bundle)
        C = bundle.psi_cross
        explicit = bundle.psi_star - C.T @ p.symmetric_pseudo_inverse(bundle.psi_lines) @ C
        assert np.all(
            np.abs(report.schur - explicit) <= 1e-10 * np.maximum(1.0, np.abs(explicit))
        )
        assert report.spectral_norm == p.spectral_norm(report.schur)
        assert report.min_eigenvalue == p.min_eigenvalue(report.schur)

    def test_well_conditioned_block_makes_no_eigh_call(self, monkeypatch):
        bundle = random_bundle(64, 128, 64, 34)

        def no_eigh(*args, **kwargs):
            raise AssertionError("eigh called on a well-conditioned block")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        report = p.schur_complement(bundle)
        assert report.kept_rank == 128 and report.dropped_eigenvalues == 0
        monkeypatch.undo()
        schur, kept, dropped, condition = _eigh_route(bundle)
        np.testing.assert_allclose(report.schur, schur, rtol=0, atol=1e-12)
        assert report.condition == pytest.approx(condition, rel=1e-10)

    def test_health_is_computed_once_on_first_read(self, monkeypatch):
        calls = []
        original = p.kernel._inverted_spectrum

        def counted(*args, **kwargs):
            calls.append(kwargs.get("vectors", True))
            return original(*args, **kwargs)

        monkeypatch.setattr(p.kernel, "_inverted_spectrum", counted)
        report = p.schur_complement(random_bundle(8, 16, 8, 35))
        assert calls == []
        assert report.kept_rank == 16
        assert (report.dropped_eigenvalues, report.condition > 1.0) == (0, True)
        assert calls == [False]  # one eigenvalue-only solve, cached across the fields

    @pytest.mark.parametrize("multiple", [0.5, 1.0, 3.0])
    def test_cutoff_boundary_falls_back_and_matches_eigh_route(self, multiple, monkeypatch):
        from porcupine.kernel import PINV_CUTOFF

        r = 40
        lam = np.linspace(1.0, 2.0, r)
        lam[0] = multiple * PINV_CUTOFF * lam[-1]
        bundle = synthetic_bundle(lam, 6, (36, r))
        # Here the largest absolute row sum is about 2.04 lam_max, so the
        # guard passes at 3x the cutoff and must fail at or below it.
        solved = multiple > 2.04
        assert keeps_all(bundle.psi_lines) == solved
        eigh_calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda *a, **kw: eigh_calls.append(1) or eigh(*a, **kw))
        report = p.schur_complement(bundle)
        assert len(eigh_calls) == (0 if solved else 1)
        monkeypatch.undo()
        schur, kept, dropped, condition = _eigh_route(bundle)
        if solved:
            np.testing.assert_allclose(report.schur, schur, rtol=0, atol=1e-9)
            # The smallest eigenvalue is resolved to about eps * lam_max only.
            assert report.condition == pytest.approx(condition, rel=1e-5)
        else:
            # The fallback is the eigendecomposition route itself.
            np.testing.assert_array_equal(report.schur, schur)
            assert report.condition == condition
        assert (report.kept_rank, report.dropped_eigenvalues) == (kept, dropped)
        if multiple != 1.0:  # exactly at the cutoff, rounding decides
            assert dropped == (1 if multiple < 1.0 else 0)

    def test_guard_pass_implies_every_eigenvalue_kept(self):
        from porcupine.kernel import PINV_CUTOFF, _inverted_spectrum

        rng = np.random.default_rng(37)
        passed = failed = 0
        for trial in range(120):
            r = int(rng.integers(2, 30))
            V, _ = np.linalg.qr(rng.standard_normal((r, r)))
            lam = rng.uniform(0.5, 2.0, r)
            # Smallest eigenvalue from 0.1x to 30x the cutoff, or negative.
            lam[0] = rng.choice([-1.0, 1.0], p=[0.1, 0.9]) * 10.0 ** rng.uniform(-1, 1.5) \
                * PINV_CUTOFF * lam.max()
            matrix = (V * lam) @ V.T
            matrix = (matrix + matrix.T) / 2.0
            vecs, inv = _inverted_spectrum(matrix)
            if keeps_all(matrix):
                passed += 1
                assert np.all(inv > 0.0)
            else:
                failed += 1
        for seed in range(20):
            bundle = random_bundle(int(2 + seed % 5), int(2 + 3 * seed), 2, (38, seed))
            _, inv = _inverted_spectrum(bundle.psi_lines)
            if keeps_all(bundle.psi_lines):
                passed += 1
                assert np.all(inv > 0.0)
        assert passed > 0 and failed > 0

    def test_many_planar_lines_take_the_fallback(self):
        lines = p.random_line_set(2, 60, 11)
        star = p.random_line_set(2, 5, 12)
        bundle = p.kernel_bundle(lines, star)
        assert not keeps_all(bundle.psi_lines)
        report = p.schur_complement(bundle)
        assert (report.dropped_eigenvalues, report.kept_rank) == (3, 57)
        schur, kept, dropped, condition = _eigh_route(bundle)
        np.testing.assert_array_equal(report.schur, schur)
        assert (kept, dropped, report.condition) == (57, 3, condition)

    @pytest.mark.parametrize("r", [5, 300])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["diagonal", "off-diagonal"])
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_non_finite_entry_fails_the_guard(self, r, bad, where):
        matrix = random_bundle(64, r, 2, (40, r)).psi_lines.copy()
        assert keeps_all(matrix)
        i, j = (r - 1, r - 1) if where == "diagonal" else (r - 1, 0)
        matrix[i, j] = matrix[j, i] = bad
        assert not keeps_all(matrix)

    @pytest.mark.parametrize("r", [257, 300])
    def test_blocks_above_the_factor_block_match_explicit_pseudo_inverse(self, r, monkeypatch):
        from porcupine.kernel import _FACTOR_BLOCK

        assert r > 2 * _FACTOR_BLOCK  # the factor is built by halves, twice over
        bundle = random_bundle(128, r, 64, (41, r))
        C = bundle.psi_cross
        explicit = bundle.psi_star - C.T @ p.symmetric_pseudo_inverse(bundle.psi_lines) @ C

        def refuse(*args, **kwargs):
            raise AssertionError("the factor route needs no LU solve or eigenvectors")

        monkeypatch.setattr(np.linalg, "solve", refuse)
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        report = p.schur_complement(bundle)
        assert np.all(
            np.abs(report.schur - explicit) <= 1e-10 * np.maximum(1.0, np.abs(explicit))
        )

    def test_guard_pass_implies_every_eigenvalue_kept_above_the_factor_block(self):
        from porcupine.kernel import PINV_CUTOFF, _inverted_spectrum

        rng = np.random.default_rng(42)
        passed = failed = 0
        for trial in range(12):
            r = int(rng.integers(129, 301))
            V, _ = np.linalg.qr(rng.standard_normal((r, r)))
            lam = rng.uniform(0.5, 2.0, r)
            # Smallest eigenvalue from 0.1x to 30x the cutoff, or negative.
            lam[0] = (-1.0 if trial % 4 == 3 else 1.0) * 10.0 ** rng.uniform(-1, 1.5) \
                * PINV_CUTOFF * lam.max()
            matrix = (V * lam) @ V.T
            matrix = (matrix + matrix.T) / 2.0
            _, inv = _inverted_spectrum(matrix, vectors=False)
            if keeps_all(matrix):
                passed += 1
                assert np.all(inv > 0.0)
            else:
                failed += 1
        assert passed > 0 and failed > 0

    def test_add_line_update_on_a_large_block_matches_lu_solve(self):
        bundle = random_bundle(64, 300, 16, 43)
        assert keeps_all(bundle.psi_lines)
        report = p.schur_complement(bundle)
        new_line = np.random.default_rng(44).standard_normal(64)
        updated, alpha, v = p.add_line_update(report, bundle, new_line)
        unit, _ = p.canonicalize_vector(new_line)
        zeta1 = p.psi(np.clip(bundle.lines.unit_vectors.T @ unit, -1.0, 1.0))
        zeta2 = p.psi(np.clip(bundle.star.unit_vectors.T @ unit, -1.0, 1.0))
        solved = np.linalg.solve(bundle.psi_lines, zeta1)
        alpha_ref = 1.0 / (1.0 - zeta1 @ solved)
        v_ref = zeta2 - bundle.psi_cross.T @ solved
        assert alpha == pytest.approx(alpha_ref, rel=1e-10)
        np.testing.assert_allclose(v, v_ref, rtol=1e-10, atol=1e-10)
        schur_ref = report.schur - alpha_ref * np.outer(v_ref, v_ref)
        np.testing.assert_allclose(updated.schur, schur_ref, rtol=1e-10, atol=1e-10)


def singular_reference(matrix, cutoff):
    """The former kernel._is_singular rule, verbatim."""
    vals = np.linalg.eigvalsh((matrix + matrix.T) / 2.0)
    return bool(vals[0] <= cutoff * max(vals[-1], 1.0))


class TestSingularityDecision:
    @pytest.mark.parametrize("multiple", [0.5, 1.0, 3.0])
    def test_kernel_block_decision_matches_former_rule(self, multiple):
        from porcupine.kernel import PINV_CUTOFF, _PseudoInverse

        r = 40
        lam = np.linspace(1.0, 2.0, r)
        lam[0] = multiple * PINV_CUTOFF * lam[-1]
        bundle = synthetic_bundle(lam, 6, (36, r))
        singular = singular_reference(bundle.psi_lines, PINV_CUTOFF)
        assert _PseudoInverse(bundle.psi_lines).drops_any == singular
        if multiple != 1.0:  # exactly at the cutoff, rounding decides
            assert singular == (multiple < 1.0)
        report = p.schur_complement(bundle)
        new_line = np.random.default_rng(39).standard_normal(4)
        messages = []
        for call in (lambda: p.add_line_update(report, bundle, new_line),
                     lambda: p.bad_region_loss(bundle, np.ones(6))):
            try:
                call()
            except SingularKernel as exc:
                messages.append(str(exc))
            else:
                messages.append(None)
        expected = ("model-line kernel block is numerically singular",
                    "line kernel matrix is numerically singular")
        assert [m == e for m, e in zip(messages, expected)] == [singular, singular]

    def test_projector_decision_matches_former_rule(self):
        from porcupine.kernel import PINV_CUTOFF, _PseudoInverse

        outcomes = set()
        for seed in range(40):
            d = 2 + seed % 5
            r = 1 + (seed * 7) % 9
            lines = p.random_line_set(d, r, (40, seed))
            U = lines.unit_vectors
            singular = singular_reference(U @ U.T, PINV_CUTOFF)
            assert _PseudoInverse(U @ U.T).drops_any == singular
            outcomes.add(singular)
            # Every set, singular projector or not, meets the stationary system.
            bundle = p.kernel_bundle(lines, lines)
            z, q = p.bad_region_stationary(bundle, np.ones(r), np.ones(r))
            residual = U.T @ z + bundle.psi_lines @ q - bundle.psi_cross @ np.ones(r)
            assert np.max(np.abs(residual)) <= 1e-9
        assert outcomes == {True, False}
