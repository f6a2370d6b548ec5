"""Geometry layer: canonical orientation, line sets, decompositions, CSV."""

import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import porcupine as p
from porcupine.errors import (
    DimensionMismatch,
    DomainError,
    DuplicateLine,
    InfeasibleWeights,
    ParameterOutOfRange,
    TooManyCollisions,
    ZeroVector,
)

from porcupine._checks import finite_array
from porcupine.lines import ZERO_TOL, _oriented_rows

NON_FINITE = [np.nan, np.inf, -np.inf]


class TestCanonicalizeVector:
    def test_positive_orientation_kept(self):
        v = np.array([-1.0, 2.0, 0.0, 3.0, 0.0])
        unit, flag = p.canonicalize_vector(v)
        assert flag == 1
        np.testing.assert_allclose(unit, v / np.linalg.norm(v))

    def test_negative_orientation_flipped(self):
        v = np.array([-1.0, 2.0, 0.0, 0.0, -3.0])
        unit, flag = p.canonicalize_vector(v)
        assert flag == -1
        np.testing.assert_allclose(unit, -v / np.linalg.norm(v))

    def test_axis_already_canonical(self):
        unit, flag = p.canonicalize_vector([1.0, 0.0, 0.0])
        assert flag == 1
        np.testing.assert_array_equal(unit, [1.0, 0.0, 0.0])

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            p.canonicalize_vector([0.0, 0.0])

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            unit, _ = p.canonicalize_vector(rng.standard_normal(6))
            again, flag = p.canonicalize_vector(unit)
            assert flag == 1
            np.testing.assert_allclose(again, unit, atol=1e-15)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_non_finite_entry_rejected(self, bad):
        with pytest.raises(DomainError):
            p.canonicalize_vector([1.0, bad, 0.5])

    def test_huge_finite_vector_oriented(self):
        # The squares overflow, so the norm is inf although every entry is finite.
        with np.errstate(over="ignore"):
            unit, flag = p.canonicalize_vector([1e200, -1e200])
        assert flag == -1
        np.testing.assert_allclose(unit, [-1.0, 1.0] / np.sqrt(2.0), rtol=1e-15)


class TestBuildLineSet:
    def test_orthogonal_axes(self):
        ls = p.build_line_set([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_array_equal(ls.gram, np.eye(2))

    def test_opposite_vectors_are_one_line(self):
        with pytest.raises(DuplicateLine):
            p.build_line_set([[1.0, 0.0], [-1.0, 0.0]])

    def test_diagonal_pair(self):
        ls = p.build_line_set([[1.0, 0.0], [1.0 / np.sqrt(2), 1.0 / np.sqrt(2)]])
        assert ls.gram[0, 1] == pytest.approx(np.cos(np.pi / 4), abs=1e-15)

    def test_angle_cosine_consistency(self):
        ls = p.random_line_set(7, 9, seed=11)
        assert np.all(ls.gram >= -1.0) and np.all(ls.gram <= 1.0)
        np.testing.assert_array_equal(np.diag(ls.gram), 1.0)
        U = ls.unit_vectors
        np.testing.assert_allclose(ls.gram, U.T @ U, atol=1e-12)

    def test_gram_psd(self):
        ls = p.random_line_set(5, 12, seed=2)
        assert np.linalg.eigvalsh(ls.gram)[0] >= -1e-10

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_non_finite_entry_rejected(self, bad):
        with pytest.raises(DomainError):
            p.build_line_set([[1.0, 0.0], [0.5, bad]])

    @pytest.mark.parametrize("first, second, error", [
        (0.0, np.nan, ZeroVector), (np.nan, 0.0, DomainError), (np.inf, 1e-13, DomainError),
        (1e-13, np.inf, ZeroVector)])
    def test_first_bad_vector_raises(self, first, second, error):
        # What the former one-vector-at-a-time loop raised, message and all.
        vectors = np.random.default_rng(3).standard_normal((8, 3))
        vectors[3] = first
        vectors[5] = second
        with pytest.raises(error) as expected:
            for v in vectors:
                canonicalize_reference(v)
        with pytest.raises(error) as info:
            p.build_line_set(vectors)
        assert str(info.value) == str(expected.value)

    @pytest.mark.parametrize("vectors", [
        [[1.0, 2.0], [1.0]], [1.0, 2.0], [[[1.0, 2.0]], [[1.0, 3.0]]], [[1.0, 2.0], ["a"]]])
    def test_vectors_of_one_length_required(self, vectors):
        with pytest.raises(DimensionMismatch, match="^all vectors must share one dimension$"):
            p.build_line_set(vectors)

    @pytest.mark.parametrize("vectors", [[["a", "b"]], [[1.0, 2.0], [3.0, "x"]]])
    def test_numeric_vectors_required(self, vectors):
        with pytest.raises(DimensionMismatch) as expected:
            p.canonicalize_vector(vectors[-1])
        with pytest.raises(DimensionMismatch) as info:
            p.build_line_set(vectors)
        assert str(info.value) == str(expected.value)

    def test_no_vectors_rejected(self):
        with pytest.raises(ParameterOutOfRange):
            p.build_line_set(iter([]))


class TestCrossGram:
    def test_self_equals_gram(self):
        ls = p.random_line_set(4, 5, seed=0)
        np.testing.assert_array_equal(p.cross_gram(ls, ls), ls.gram)

    def test_orthogonal_singletons(self):
        a = p.build_line_set([[1.0, 0.0]])
        b = p.build_line_set([[0.0, 1.0]])
        np.testing.assert_array_equal(p.cross_gram(a, b), [[0.0]])

    def test_matches_explicit_dot_products(self):
        a = p.random_line_set(5, 4, seed=21)
        b = p.random_line_set(5, 3, seed=22)
        got = p.cross_gram(a, b)
        for i in range(4):
            for j in range(3):
                assert got[i, j] == pytest.approx(
                    float(a.line(i) @ b.line(j)), abs=1e-15
                )

    def test_transpose_symmetry(self):
        a = p.random_line_set(6, 4, seed=31)
        b = p.random_line_set(6, 5, seed=32)
        np.testing.assert_array_equal(p.cross_gram(a, b), p.cross_gram(b, a).T)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            p.cross_gram(p.random_line_set(3, 2, 0), p.random_line_set(4, 2, 0))


class TestRandomLineSet:
    def test_deterministic(self):
        a = p.random_line_set(3, 5, seed=7)
        b = p.random_line_set(3, 5, seed=7)
        np.testing.assert_array_equal(a.unit_vectors, b.unit_vectors)

    def test_planar_angles_uniform(self):
        # Between two independent random planar lines, the line angle is
        # uniform on [0, pi/2].  Kolmogorov-Smirnov against that law with
        # disjoint pairs; 1.63/sqrt(n) is the ~1% critical value.
        ls = p.random_line_set(2, 10_000, seed=13)
        u = ls.unit_vectors
        cosines = np.abs(np.sum(u[:, 0::2] * u[:, 1::2], axis=0))
        angles = np.arccos(np.clip(cosines, 0.0, 1.0))
        n = angles.size
        grid = np.sort(angles) / (np.pi / 2)
        empirical_hi = np.arange(1, n + 1) / n
        empirical_lo = np.arange(0, n) / n
        ks = max(np.max(np.abs(empirical_hi - grid)), np.max(np.abs(grid - empirical_lo)))
        assert ks < 1.63 / np.sqrt(n) * 1.3

    def test_high_dimensional_gram_statistics(self):
        ls = p.random_line_set(200, 200, seed=17)
        off = ls.gram[np.triu_indices(200, k=1)]
        assert abs(off.mean()) < 0.01
        assert abs(off.std() / (1.0 / np.sqrt(200)) - 1.0) < 0.1

    def test_validates_arguments(self):
        with pytest.raises(ParameterOutOfRange):
            p.random_line_set(0, 3, seed=0)


def one_draw_reference(d, r, seed, max_draws=None, collinearity_tol=1e-9):
    """Draw one vector at a time, as random_line_set did before drawing in
    blocks.  Returns the unit vectors, their Gram matrix and the draws used."""
    rng = np.random.default_rng(seed)
    budget = max_draws if max_draws is not None else max(1000, 200 * r)
    units = np.empty((d, r))
    count = 0
    for draw in range(1, budget + 1):
        u, _ = p.canonicalize_vector(rng.standard_normal(d))
        if count and np.max(np.abs(units[:, :count].T @ u)) >= 1.0 - collinearity_tol:
            continue
        units[:, count] = u
        count += 1
        if count == r:
            gram = units.T @ units
            gram = np.clip((gram + gram.T) / 2.0, -1.0, 1.0)
            np.fill_diagonal(gram, 1.0)
            return units, gram, draw
    raise TooManyCollisions("reference ran out of draws")


class TestRandomLineSetInBlocks:
    # (d, r, max_draws): collision-heavy low dimensions and wide sets.
    CASES = [(2, 3000, 4000), (3, 50, None), (4, 200, None), (256, 512, None)]

    @pytest.mark.parametrize("d, r, max_draws", CASES)
    @pytest.mark.parametrize("seed", [0, 7])
    def test_bit_identical_to_one_draw_loop(self, d, r, max_draws, seed):
        units, gram, _ = one_draw_reference(d, r, seed, max_draws)
        ls = p.random_line_set(d, r, seed, max_draws=max_draws)
        np.testing.assert_array_equal(ls.unit_vectors, units)
        np.testing.assert_array_equal(ls.gram, gram)

    def test_collisions_were_redrawn(self):
        # The (2, 3000) case must exercise the walk and the shortfall draws.
        _, _, draws = one_draw_reference(2, 3000, 0, 4000)
        assert draws > 3000

    @pytest.mark.parametrize("d, r, max_draws", CASES[:2])
    def test_budget_counts_every_draw(self, d, r, max_draws):
        units, _, draws = one_draw_reference(d, r, 0, max_draws)
        ls = p.random_line_set(d, r, 0, max_draws=draws)
        np.testing.assert_array_equal(ls.unit_vectors, units)
        with pytest.raises(TooManyCollisions):
            p.random_line_set(d, r, 0, max_draws=draws - 1)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_budget_error_when_lines_cannot_differ(self, seed):
        # In d=1 every draw spans the same line.
        with pytest.raises(TooManyCollisions):
            one_draw_reference(1, 2, seed)
        with pytest.raises(TooManyCollisions):
            p.random_line_set(1, 2, seed)


def canonicalize_reference(v):
    """The former body of ``canonicalize_vector``, verbatim: one vector at a
    time, with ``np.linalg.norm``.  ``_oriented_rows`` must give its bits."""
    v = finite_array(v, "vector", (None,))
    norm = float(np.linalg.norm(v))
    if not math.isfinite(norm):  # finite entries whose squares overflow (1e200s)
        v = v / np.max(np.abs(v))
        norm = float(np.linalg.norm(v))
    if norm <= ZERO_TOL:
        raise ZeroVector("cannot orient a vector of norm %.3g" % norm)
    unit = v / norm
    significant = np.nonzero(np.abs(unit) > ZERO_TOL)[0]
    pivot = significant[-1]
    flag = 1 if unit[pivot] > 0 else -1
    return flag * unit, flag


class TestBatchedOrientation:
    """_oriented_rows orients a block in one pass; each row that is not zero
    must get the reference's unit vector and flag, bit for bit."""

    CRAFTED = {
        "zero": [0.0, 0.0, 0.0, 0.0],
        "huge": [1e200, 1e200, -1e200, 1e200],
        "negative_pivot": [0.5, 2.0, 1.0, -3.0],
        "tiny_trailing": [0.3, -0.8, 0.5 * ZERO_TOL, -0.5 * ZERO_TOL],
        "tiny_norm": [0.5 * ZERO_TOL, 0.0, 0.0, 0.0],
        "subnormal": [5e-324, 0.0, 0.0, 0.0],
        "one_entry": [0.0, -7.0, 0.0, 0.0],
    }

    @staticmethod
    def assert_rows_match_reference(block):
        """Returns how many rows the reference orients (the rest are zero)."""
        units, flags, norms = _oriented_rows(block)
        kept = norms > ZERO_TOL
        want = []
        for row in block:
            try:
                want.append(canonicalize_reference(row))
            except ZeroVector:
                continue
        assert kept.sum() == len(want)
        want_units = np.array([u for u, _ in want]).reshape(-1, block.shape[1])
        assert np.array_equal(units[kept], want_units)
        assert flags[kept].tolist() == [f for _, f in want]
        return len(want)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("name", sorted(CRAFTED))
    def test_crafted_row_among_random_rows(self, name):
        block = np.random.default_rng(3).standard_normal((9, 4))
        block[4] = self.CRAFTED[name]
        kept = self.assert_rows_match_reference(block)
        assert kept == (8 if name in ("zero", "tiny_norm", "subnormal") else 9)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_all_crafted_rows_together(self):
        self.assert_rows_match_reference(np.array(list(self.CRAFTED.values())))

    @pytest.mark.parametrize("d", [1, 2, 5, 16, 33, 256, 1024])
    def test_random_rows(self, d):
        block = np.random.default_rng(d).standard_normal((40, d))
        block[::3] *= 1e-6
        assert self.assert_rows_match_reference(block) == 40

    def test_overflowing_rows_get_their_true_norm(self):
        block = np.array([[1e200, 1e200, -1e200, 1e200], [3e300, 4e300, 0.0, 0.0]])
        _, _, norms = _oriented_rows(block)
        np.testing.assert_allclose(norms, [2e200, 5e300], rtol=1e-15)

    def test_underflowing_rows_get_their_true_norm(self):
        # (3e-170)^2 underflows to 0; a zero row beside it stays zero.
        units, flags, norms = _oriented_rows(np.array([[3e-170, 4e-170], [0.0, 0.0]]))
        np.testing.assert_allclose(norms, [5e-170, 0.0], rtol=1e-15, atol=0.0)
        np.testing.assert_allclose(units[0], [0.6, 0.8], rtol=1e-15)
        assert flags[0] == 1.0 and np.all(units[1] == 0.0)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_non_finite_row_gets_nan_norm(self, bad):
        block = np.ones((3, 4))
        block[1, 2] = bad
        _, _, norms = _oriented_rows(block)
        assert np.isnan(norms[1]) and np.all(norms[[0, 2]] == 2.0)
        with pytest.raises(DomainError):
            p.canonicalize_vector(block[1])


def oriented_rows_reference(block):
    """The former body of ``_oriented_rows``: divide each row by its norm,
    find the pivot by a reversed ``argmax`` of ``|u| > ZERO_TOL`` and
    multiply by the flag.  ``_oriented_rows`` must give its bits."""
    block = np.ascontiguousarray(block)
    with np.errstate(over="ignore"):
        norms = np.sqrt(np.matmul(block[:, None, :], block[:, :, None])[:, 0, 0])
    lossy = np.isinf(norms) | (norms < np.sqrt(np.finfo(float).tiny))
    if lossy.any():
        peaks = np.where(lossy, np.abs(block).max(axis=1, initial=0.0), 1.0)
        peaks[peaks == 0.0] = 1.0
        if (peaks != 1.0).any():
            with np.errstate(invalid="ignore"):
                units, flags, norms = oriented_rows_reference(block / peaks[:, None])
                return units, flags, norms * peaks
    units = block / np.where(norms > 0.0, norms, 1.0)[:, None]
    if not units.shape[1]:
        return units, np.ones(len(units)), norms
    pivots = units.shape[1] - 1 - np.argmax((np.abs(units) > ZERO_TOL)[:, ::-1], axis=1)
    flags = np.where(units[np.arange(len(units)), pivots] > 0, 1.0, -1.0)
    units *= flags[:, None]
    return units, flags, norms


def same_bits(a, b):
    """Equal shapes and bit patterns, so the sign bits of zeros count."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


# Kinds of row in a drawn block: ordinary Gaussian, trailing entries at most
# ZERO_TOL of the norm (the pivot sits further in), zero (with signed zeros),
# and rows whose squares overflow or underflow.
ROW_KINDS = ["ordinary", "tiny_trailing", "zero", "overflow", "underflow", "subnormal"]


def drawn_row(kind, d, rng):
    row = rng.standard_normal(d)
    if kind == "tiny_trailing":
        tail = int(rng.integers(1, d + 1))
        row[d - tail:] *= ZERO_TOL * rng.choice([0.0, 0.25, 1.0], tail) / np.abs(row[d - tail:])
    elif kind == "zero":
        row = np.where(row > 0, 0.0, -0.0)
    elif kind == "overflow":
        row *= 1e200
    elif kind == "underflow":
        row *= 1e-170
    elif kind == "subnormal":
        row = np.where(rng.random(d) < 0.5, 0.0, row * 5e-324)
    return row


class TestOrientationPassBits:
    """_oriented_rows divides once by the signed norm and reads the pivot
    off the last entry first; it must give the former formula's bits."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(d=st.integers(1, 7), seed=st.integers(0, 2**16),
           kinds=st.lists(st.sampled_from(ROW_KINDS), min_size=0, max_size=10))
    def test_matches_the_former_formula(self, d, seed, kinds):
        rng = np.random.default_rng(seed)
        block = np.array([drawn_row(kind, d, rng) for kind in kinds]).reshape(len(kinds), d)
        with np.errstate(over="ignore", under="ignore"):
            want_units, want_flags, want_norms = oriented_rows_reference(block)
            units, flags, norms = _oriented_rows(block)
        assert same_bits(units, want_units)
        assert same_bits(flags, want_flags) and same_bits(norms, want_norms)

    # (1024, 263): two whole chunks of draws and a short one.
    @pytest.mark.parametrize("d, r, max_draws",
                             [(1024, 2048, None), (1024, 263, None), (2, 3000, 4000)])
    def test_random_line_set_is_the_reference_layout(self, d, r, max_draws):
        # The former draw loop, oriented by the former formula: one block
        # at d = 1024, drawn by random_line_set in chunks of 128 rows;
        # block after block of redraws at d = 2.
        from porcupine.lines import _collinear, _first_kept

        rng = np.random.default_rng(11)
        budget = max_draws or max(1000, 200 * r)
        units, draws = np.empty((d, 0)), 0
        while units.shape[1] < r:
            block = rng.standard_normal((min(r - units.shape[1], budget - draws), d))
            draws += len(block)
            oriented, _, norms = oriented_rows_reference(block)
            grown = np.concatenate([units, oriented[norms > ZERO_TOL].T], axis=1)
            have = units.shape[1]
            _, kept = _first_kept(_collinear((grown.T @ grown)[have:]), have)
            units = grown[:, kept]
        assert draws > r or d > 2  # the d = 2 case redraws
        line_set = p.random_line_set(d, r, 11, max_draws=max_draws)
        assert same_bits(line_set.unit_vectors, units)


def test_every_line_set_has_one_layout(tmp_path):
    # Every constructor and subset stores C-contiguous units, so each Gram
    # comes from the same product on the same layout.
    rng = np.random.default_rng(2)
    drawn = p.random_line_set(5, 9, seed=4)
    path = tmp_path / "lines.csv"
    p.save_line_set(drawn, path)
    line_sets = {
        "build": p.build_line_set(rng.standard_normal((6, 4))),
        "axes": p.axes_line_set(4),
        "random": drawn,
        "columns": p.weights_from_columns(rng.standard_normal((3, 4))).line_set,
        "load": p.load_line_set(path),
        "subset": drawn.subset([7, 2, 5]),
        "nearest": p.nearest_line_subset(drawn, p.random_line_set(5, 3, seed=6)).line_set,
    }
    for name, line_set in line_sets.items():
        assert line_set.unit_vectors.flags.c_contiguous, name
        gram = line_set.gram
        assert np.array_equal(gram, gram.T) and np.all(np.diag(gram) == 1.0), name


class TestNeuronLineMap:
    def test_surjectivity_required(self):
        with pytest.raises(ParameterOutOfRange):
            p.NeuronLineMap(num_neurons=3, assignment=(0, 0, 2))

    def test_lookup_helpers(self):
        m = p.NeuronLineMap(num_neurons=4, assignment=(0, 1, 0, 1))
        assert m.num_lines == 2
        assert m.neurons_on_line(0) == (0, 2)
        assert m.line_of(3) == 1


class TestDecomposeWeights:
    def test_two_neurons_one_line(self):
        ls = p.random_line_set(4, 1, seed=1)
        m = p.NeuronLineMap(num_neurons=2, assignment=(0, 0))
        w = p.weights_from_masses(ls, m, [2.0, -3.0])
        q, signature = p.decompose_weights(w)
        np.testing.assert_allclose(q, [5.0], atol=1e-12)
        assert signature.signs == ((1, -1),)
        assert signature.mixed == (True,)
        assert signature.single_orientation_count == 0

    def test_masses_match_brute_force(self):
        rng = np.random.default_rng(5)
        ls = p.random_line_set(4, 3, seed=5)
        m = p.NeuronLineMap(num_neurons=6, assignment=(0, 1, 2, 0, 1, 2))
        masses = rng.standard_normal(6)
        w = p.weights_from_masses(ls, m, masses)
        q, _ = p.decompose_weights(w)
        expected = np.zeros(3)
        for i in range(6):
            expected[m.assignment[i]] += np.linalg.norm(w.matrix[:, i])
        np.testing.assert_allclose(q, expected, atol=1e-12)

    def test_permuting_neurons_within_line_keeps_masses(self):
        ls = p.random_line_set(3, 2, seed=9)
        m = p.NeuronLineMap(num_neurons=4, assignment=(0, 0, 1, 1))
        w = p.weights_from_masses(ls, m, [1.0, -2.0, 0.5, 0.25])
        swapped = p.weights_from_masses(ls, m, [-2.0, 1.0, 0.25, 0.5])
        q1, _ = p.decompose_weights(w)
        q2, _ = p.decompose_weights(swapped)
        np.testing.assert_allclose(q1, q2, atol=1e-15)

    def test_zero_column_flagged_not_signed(self):
        ls = p.random_line_set(3, 2, seed=10)
        m = p.NeuronLineMap(num_neurons=3, assignment=(0, 0, 1))
        w = p.weights_from_masses(ls, m, [1.0, 0.0, 2.0])
        q, signature = p.decompose_weights(w)
        np.testing.assert_allclose(q, [1.0, 2.0], atol=1e-15)
        assert signature.nonzero == ((True, False), (True,))
        # a zero column does not make the line mixed
        assert signature.mixed == (False, False)
        assert signature.all_plus == (True, True)
        assert signature.single_orientation_count == 2

    def test_infeasible_column_rejected(self):
        ls = p.build_line_set([[1.0, 0.0]])
        m = p.NeuronLineMap(num_neurons=1, assignment=(0,))
        with pytest.raises(InfeasibleWeights):
            p.PNNWeights(matrix=np.array([[1.0], [0.5]]), line_set=ls, neuron_map=m)


class TestLineMasses:
    def test_matches_per_neuron_loop_with_zero_columns(self):
        rng = np.random.default_rng(31)
        ls = p.random_line_set(5, 4, seed=31)
        assignment = (3, 0, 1, 2, 0, 3, 3, 1, 0)
        m = p.NeuronLineMap(num_neurons=9, assignment=assignment)
        masses = rng.standard_normal(9)
        masses[[1, 3, 6]] = 0.0  # line 2 carries only a zero column
        w = p.weights_from_masses(ls, m, masses)
        norms = np.linalg.norm(w.matrix, axis=0)
        want = np.zeros(4)
        for i, line in enumerate(assignment):
            want[line] += norms[i]
        np.testing.assert_array_equal(p.lines._line_masses(w), want)
        np.testing.assert_array_equal(p.decompose_weights(w)[0], want)


def signature_reference(matrix, neuron_map):
    """Signature built one column at a time, line by line, with
    canonicalize_vector deciding each non-zero column's flag."""
    signs, nonzero = [], []
    for line in range(neuron_map.num_lines):
        line_signs, line_nonzero = [], []
        for i in neuron_map.neurons_on_line(line):
            col = matrix[:, i]
            if np.linalg.norm(col) <= p.lines.ZERO_TOL:
                line_signs.append(1)
                line_nonzero.append(False)
            else:
                line_signs.append(p.canonicalize_vector(col)[1])
                line_nonzero.append(True)
        signs.append(tuple(line_signs))
        nonzero.append(tuple(line_nonzero))
    return tuple(signs), tuple(nonzero)


class TestSignatureFromMatrix:
    """The signature decompose_weights reads off a weight matrix (the sign
    of each neuron's scalar on its line) against signature_reference's
    pivot rule, on line sets where the two rules must agree."""

    @pytest.mark.parametrize("per_line", [1, 2, 3])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_per_column_loop(self, per_line, seed):
        rng = np.random.default_rng(seed)
        d, r = 4, 5
        k = per_line * r
        # The last pivot entry of line 2 is just below ZERO_TOL (the pivot
        # moves up), that of line 3 just above it, and line 4 is an axis.
        raw = rng.standard_normal((d, r))
        raw[:, 2] = [0.6, -0.8, 0.0, -0.5e-12]
        raw[:, 3] = [0.6, 0.8, 0.0, -2e-12]
        raw[:, 4] = [0.0, 0.0, -3.0, 0.0]
        ls = p.build_line_set(raw.T)
        assignment = tuple(rng.permutation(np.repeat(np.arange(r), per_line)))
        m = p.NeuronLineMap(num_neurons=k, assignment=assignment)
        masses = rng.standard_normal(k)
        special = rng.permutation(k)
        masses[special[0]] = 0.0
        if k > 1:
            masses[special[1]] *= 1e-14  # below ZERO_TOL
        w = p.weights_from_masses(ls, m, masses)
        got = p.decompose_weights(w)[1]
        signs, nonzero = signature_reference(w.matrix, m)
        assert got.signs == signs
        assert got.nonzero == nonzero
        assert all(type(s) is int for line in got.signs for s in line)
        assert all(type(z) is bool for line in got.nonzero for z in line)

    def test_near_pivot_flags(self):
        ls = p.build_line_set([[0.6, -0.8, -0.5e-12], [0.6, 0.8, -2e-12]])
        m = p.NeuronLineMap(num_neurons=2, assignment=(0, 1))
        matrix = np.array([[0.6, 0.6], [-0.8, 0.8], [-0.5e-12, -2e-12]])
        w = p.PNNWeights(matrix, ls, m)
        assert p.decompose_weights(w)[1].signs == ((-1,), (-1,))

    def test_overflowing_column_is_rescaled(self):
        ls = p.build_line_set([[1.0, -1.0], [1.0, 2.0]])
        m = p.NeuronLineMap(num_neurons=2, assignment=(0, 1))
        matrix = np.array([[1e200, 1.0], [-1e200, 2.0]])
        with np.errstate(over="ignore"):
            got = p.decompose_weights(p.PNNWeights(matrix, ls, m))[1]
            assert (got.signs, got.nonzero) == signature_reference(matrix, m)
        assert got.signs == ((-1,), (1,))

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_non_finite_column_rejected(self, bad):
        ls = p.build_line_set([[1.0, 0.0], [0.0, 1.0]])
        m = p.NeuronLineMap(num_neurons=2, assignment=(0, 1))
        with pytest.raises(DomainError):
            p.decompose_weights(p.PNNWeights(np.array([[1.0, 0.0], [0.0, bad]]), ls, m))

    def test_orientation_is_the_sign_on_the_line(self):
        # (-1, 5e-10) lies on the first axis within FEASIBILITY_TOL; its
        # last significant entry is positive, its scalar on the axis is -1.
        ls = p.axes_line_set(2)
        m = p.NeuronLineMap(num_neurons=2, assignment=(0, 1))
        w = p.PNNWeights(np.array([[-1.0, 0.0], [5e-10, 1.0]]), ls, m)
        assert p.decompose_weights(w)[1].signs == ((-1,), (1,))
        assert w.scales.tolist() == [-1.0, 1.0]


def feasibility_reference(matrix, line_set, neuron_map):
    """Index of the first column off its line, checked one column at a time,
    or None when every column is feasible."""
    U = line_set.unit_vectors
    for i, line in enumerate(neuron_map.assignment):
        col = matrix[:, i]
        norm = float(np.linalg.norm(col))
        if norm <= p.lines.ZERO_TOL:
            continue
        residual = col - (U[:, line] @ col) * U[:, line]
        if np.linalg.norm(residual) > p.lines.FEASIBILITY_TOL * max(1.0, norm):
            return i
    return None


class TestFeasibilityCheck:
    """PNNWeights accepts and rejects what a column-by-column check does."""

    def setup_method(self):
        self.ls = p.build_line_set([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 2.0]])
        self.map = p.NeuronLineMap(num_neurons=5, assignment=(0, 1, 2, 1, 0))
        base = p.weights_from_masses(self.ls, self.map, [2.0, -0.5, 3.0, 0.25, -4.0])
        self.base = np.array(base.matrix)
        # unit direction orthogonal to line 1 (the (1, 1, 0) line)
        self.off_line_1 = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)

    def outcome(self, matrix):
        try:
            p.PNNWeights(matrix=matrix, line_set=self.ls, neuron_map=self.map)
        except InfeasibleWeights as exc:
            return str(exc).split(" deviates")[0]
        return None

    def check_same_as_reference(self, matrix):
        want = feasibility_reference(matrix, self.ls, self.map)
        got = self.outcome(matrix)
        assert got == (None if want is None else "column %d" % want)
        return got

    def test_feasible_matrix_accepted(self):
        assert self.check_same_as_reference(self.base) is None

    def test_just_inside_tolerance_accepted(self):
        matrix = self.base.copy()
        # column 3 has norm 0.25, so the bound is FEASIBILITY_TOL * 1
        matrix[:, 3] += 0.5 * p.lines.FEASIBILITY_TOL * self.off_line_1
        # column 2 has norm 3, so the bound is 3 * FEASIBILITY_TOL
        matrix[:, 2] += 2.0 * p.lines.FEASIBILITY_TOL * np.array([1.0, 0.0, 0.0])
        assert self.check_same_as_reference(matrix) is None

    def test_just_outside_tolerance_rejected(self):
        matrix = self.base.copy()
        matrix[:, 3] += 2.0 * p.lines.FEASIBILITY_TOL * self.off_line_1
        assert self.check_same_as_reference(matrix) == "column 3"

    def test_relative_bound_scales_with_norm(self):
        matrix = self.base.copy()
        matrix[:, 2] += 4.0 * p.lines.FEASIBILITY_TOL * np.array([1.0, 0.0, 0.0])
        assert self.check_same_as_reference(matrix) == "column 2"

    def test_zero_column_accepted(self):
        matrix = self.base.copy()
        matrix[:, 1] = 0.0
        matrix[:, 4] = 1e-13  # below ZERO_TOL in norm, treated as zero
        assert self.check_same_as_reference(matrix) is None

    def test_column_on_wrong_line_rejected(self):
        matrix = self.base.copy()
        matrix[:, 4] = self.base[:, 2]
        assert self.check_same_as_reference(matrix) == "column 4"

    def test_first_bad_column_is_named(self):
        matrix = self.base.copy()
        matrix[:, 3] = self.base[:, 0]
        matrix[:, 1] = self.base[:, 2]
        assert self.check_same_as_reference(matrix) == "column 1"


class TestWeightsFromColumns:
    def test_groups_collinear_columns(self):
        matrix = np.array([[1.0, -2.0, 0.0], [0.0, 0.0, 3.0]])
        w = p.weights_from_columns(matrix)
        assert w.line_set.num_lines == 2
        assert w.neuron_map.assignment == (0, 0, 1)

    def test_zero_column_rejected(self):
        with pytest.raises(ZeroVector):
            p.weights_from_columns(np.array([[1.0, 0.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_non_finite_column_rejected(self, bad):
        with pytest.raises(DomainError):
            p.weights_from_columns(np.array([[1.0, bad], [0.0, 1.0]]))


def columns_reference(matrix, collinearity_tol=1e-9):
    """weights_from_columns' former loop: each column joins the first line
    found so far that it is collinear with, else starts a new line.
    Returns the canonical unit vectors of the lines and the assignment."""
    matrix = np.asarray(matrix, dtype=float)
    reps = []
    assignment = []
    for i in range(matrix.shape[1]):
        unit, _ = p.canonicalize_vector(matrix[:, i])
        for j, rep in enumerate(reps):
            if abs(float(rep @ unit)) >= 1.0 - collinearity_tol:
                assignment.append(j)
                break
        else:
            assignment.append(len(reps))
            reps.append(unit)
    return np.column_stack(reps), tuple(assignment)


def assert_columns_match_reference(monkeypatch, matrix, collinearity_tol=1e-9):
    """weights_from_columns groups ``matrix`` as the loop does: same lines,
    same Gram matrix, same map, and the same InfeasibleWeights message when
    a column joined a line it is only near (every such column is more than
    FEASIBILITY_TOL off its line).  The package runs with COLLINEARITY_TOL
    set to ``collinearity_tol``."""
    monkeypatch.setattr(p.lines, "COLLINEARITY_TOL", collinearity_tol)
    units, assignment = columns_reference(matrix, collinearity_tol)
    gram = units.T @ units
    gram = np.clip((gram + gram.T) / 2.0, -1.0, 1.0)
    np.fill_diagonal(gram, 1.0)
    line_set = p.LineSet(dim=units.shape[0], unit_vectors=units, gram=gram)
    try:
        p.PNNWeights(matrix, line_set, p.NeuronLineMap(len(assignment), assignment))
    except InfeasibleWeights as exc:
        with pytest.raises(InfeasibleWeights) as info:
            p.weights_from_columns(matrix)
        assert str(info.value) == str(exc)
        # Compare the grouping itself with the feasibility check off.
        monkeypatch.setattr(p.PNNWeights, "_check_feasible", lambda self: None)
    w = p.weights_from_columns(matrix)
    monkeypatch.undo()
    assert w.neuron_map.assignment == assignment
    np.testing.assert_array_equal(w.line_set.unit_vectors, units)
    np.testing.assert_array_equal(w.line_set.gram, gram)
    return w


def planar_columns(angles):
    return np.array([np.cos(angles), np.sin(angles)])


class TestWeightsFromColumnsMatchesLoop:
    @pytest.mark.parametrize("d, lines, k", [(2, 3, 10), (4, 5, 40), (50, 60, 300)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_collinear_groups_flipped_and_rescaled(self, monkeypatch, d, lines, k, seed):
        rng = np.random.default_rng(seed)
        base = rng.standard_normal((d, lines))
        source = rng.integers(0, lines, k)
        scale = rng.choice([-1.0, 1.0], k) * 10.0 ** rng.uniform(-3, 3, k)
        w = assert_columns_match_reference(monkeypatch, base[:, source] * scale)
        assert w.line_set.num_lines == len(set(source.tolist()))

    @pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
    def test_non_transitive_near_collisions(self, monkeypatch, order):
        # Neighbours collide (1 - cos t = 6.1e-10), the outer pair does not
        # (1 - cos 2t = 2.45e-9): the middle column joins the line of the
        # first column, so one line remains only when the middle one comes first.
        t = 3.5e-5
        angles = 0.3 + t * np.array(order, dtype=float)
        w = assert_columns_match_reference(monkeypatch, planar_columns(angles))
        assert w.line_set.num_lines == (1 if order[0] == 1 else 2)

    @pytest.mark.parametrize("factor, joined", [(0.9, True), (1.1, False)])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_nudge_just_inside_and_outside_tolerance(self, monkeypatch, factor, joined, sign):
        # Second column at an angle with 1 - cos = factor * tol.
        t = np.arccos(1.0 - factor * 1e-9)
        matrix = planar_columns(np.array([0.7, 0.7 + t, 2.0]))
        matrix[:, 1] *= sign * 3.0
        w = assert_columns_match_reference(monkeypatch, matrix)
        assert w.neuron_map.assignment == ((0, 0, 1) if joined else (0, 1, 2))

    def test_tolerance_argument_is_used(self, monkeypatch):
        matrix = planar_columns(np.array([0.1, 0.1 + 1e-3, 0.1 + 2e-3, 1.0]))
        for tol in (1e-9, 1e-6, 2e-6, 1e-5):
            assert_columns_match_reference(monkeypatch, matrix, tol)

    @pytest.mark.parametrize("first, second, error", [
        (0.0, np.nan, ZeroVector), (np.nan, 0.0, DomainError), (np.inf, np.nan, DomainError)])
    def test_first_bad_column_raises(self, first, second, error):
        rng = np.random.default_rng(3)
        matrix = rng.standard_normal((3, 8))
        matrix[:, 6] = matrix[:, 1]
        matrix[:, 3] = first
        matrix[:, 5] = second
        with pytest.raises(error) as expected:
            columns_reference(matrix)
        with pytest.raises(error) as info:
            p.weights_from_columns(matrix)
        assert str(info.value) == str(expected.value)


def first_kept_reference(hits, offset):
    """The walk over every line, one pair at a time."""
    n = offset + hits.shape[0]
    first = list(range(n))
    kept = [True] * n
    for i in range(hits.shape[0]):
        j = offset + i
        for c in range(j):
            if kept[c] and hits[i, c]:
                first[j], kept[j] = c, False
                break
    return first, kept


class TestFirstKeptWalk:
    @pytest.mark.parametrize("offset", [0, 1, 5])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_pair_walk(self, offset, seed):
        # Random, unsymmetric screens; the own-line entry may be False,
        # as for a tolerance below the rounding of a unit vector's cosine.
        rng = np.random.default_rng(seed)
        hits = rng.random((12, offset + 12)) < 0.15
        first, kept = p.lines._first_kept(hits, offset)
        assert (first.tolist(), kept.tolist()) == first_kept_reference(hits, offset)


class TestRegionSignatureSummaries:
    @staticmethod
    def per_line_reference(signature):
        """The former per-line properties, rebuilt from the fields."""
        active = [[s for s, z in zip(signs, nonzero) if z]
                  for signs, nonzero in zip(signature.signs, signature.nonzero)]
        mixed = tuple((+1 in a) and (-1 in a) for a in active)
        plus = tuple(bool(a) and all(s == 1 for s in a) for a in active)
        minus = tuple(bool(a) and all(s == -1 for s in a) for a in active)
        return mixed, plus, minus, sum(mixed), sum(x or y for x, y in zip(plus, minus))

    @pytest.mark.parametrize("seed", range(4))
    def test_summaries_match_per_line_loops(self, seed):
        rng = np.random.default_rng(seed)
        lengths = rng.integers(0, 4, 12)
        signature = p.RegionSignature(
            signs=tuple(tuple(rng.choice([-1, 1], n).tolist()) for n in lengths),
            nonzero=tuple(tuple(rng.choice([True, False], n, p=[0.7, 0.3]).tolist())
                          for n in lengths),
        )
        assert (signature.mixed, signature.all_plus, signature.all_minus,
                signature.mixed_line_count, signature.single_orientation_count) \
            == self.per_line_reference(signature)


class TestNonFiniteWeights:
    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_pnn_weights_rejects_non_finite_column(self, bad):
        line_set = p.build_line_set([[1.0, 0.0], [0.0, 1.0]])
        neuron_map = p.NeuronLineMap(2, (0, 1))
        matrix = np.array([[bad, 0.0], [0.0, 1.0]])
        with pytest.raises(DomainError):
            p.PNNWeights(matrix, line_set, neuron_map)


class TestCsvRoundTrip:
    def test_line_set_round_trip_bit_exact(self, tmp_path):
        ls = p.random_line_set(6, 9, seed=23)
        path = tmp_path / "lines.csv"
        p.save_line_set(ls, path)
        loaded = p.load_line_set(path)
        np.testing.assert_array_equal(loaded.unit_vectors, ls.unit_vectors)

    def test_header_carries_shape(self, tmp_path):
        ls = p.random_line_set(3, 4, seed=2)
        path = tmp_path / "lines.csv"
        p.save_line_set(ls, path)
        first = path.read_text().splitlines()[0]
        assert first == "3,4"

    def test_vectors_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        vectors = rng.standard_normal((5, 7))
        path = tmp_path / "vectors.csv"
        p.save_vectors_csv(path, vectors)
        np.testing.assert_array_equal(p.load_vectors_csv(path), vectors)


LOADERS = [p.load_vectors_csv, p.load_line_set, functools.partial(p.load_angular_net, delta=0.3)]


class TestVectorFileErrors:
    @pytest.mark.parametrize("loader", LOADERS)
    @pytest.mark.parametrize("text, error", [
        ("", ParameterOutOfRange),
        ("\r\n\r\n", ParameterOutOfRange),
        ("2,x\r\n1,0\r\n", ParameterOutOfRange),
        ("2\r\n1,0\r\n", ParameterOutOfRange),
        ("2,1,1\r\n1,0\r\n", ParameterOutOfRange),
        ("1.5,1\r\n1,0\r\n", ParameterOutOfRange),
        ("-2,0\r\n", ParameterOutOfRange),
        ("0,0\r\n", ParameterOutOfRange),
        ("2,0\r\n", ParameterOutOfRange),
        ("2,1\r\nabc,0\r\n", ParameterOutOfRange),
        ("2,1\r\n1,\r\n", ParameterOutOfRange),
        ("2,2\r\n1,0\r\n", DimensionMismatch),
        ("2,1\r\n1,0,0\r\n", DimensionMismatch),
        ("2,1\r\nnan,0\r\n", DomainError),
        ("2,1\r\n1,inf\r\n", DomainError),
        ("2,1\r\n1e400,0\r\n", DomainError),
        ("\xff2,1\r\n1,0\r\n", ParameterOutOfRange),
        ("2,1\r\n1,0\xff\r\n", ParameterOutOfRange),
    ])
    def test_bad_file_raises(self, tmp_path, loader, text, error):
        path = tmp_path / "vectors.csv"
        path.write_bytes(text.encode("latin-1"))
        with pytest.raises(error):
            loader(path)

    @pytest.mark.parametrize("text", ["2,1\r\n2,0\r\n", "2,1\r\n0,-1\r\n"],
                             ids=["not unit norm", "not canonically oriented"])
    def test_bad_line_file_raises(self, tmp_path, text):
        path = tmp_path / "lines.csv"
        path.write_text(text, encoding="ascii")
        with pytest.raises(ParameterOutOfRange):
            p.load_line_set(path)


def tiled_gram(units, tile=64):
    """_assemble_line_set's former Gram matrix: ``(G + G') / 2`` clipped to
    [-1, 1] one pair of mirrored tiles at a time, then a unit diagonal."""
    gram = units.T @ units
    n = gram.shape[0]
    for i in range(0, n, tile):
        for j in range(i, n, tile):
            upper = gram[i:i + tile, j:j + tile]
            lower = gram[j:j + tile, i:i + tile]
            block = upper + lower.T
            block /= 2.0
            np.clip(block, -1.0, 1.0, out=block)
            upper[...] = block
            lower[...] = block.T
    np.fill_diagonal(gram, 1.0)
    return gram


def assert_gram_matches_tiled(line_set):
    np.testing.assert_array_equal(line_set.gram, tiled_gram(line_set.unit_vectors))
    assert np.array_equal(line_set.gram, line_set.gram.T)


class TestGramMatchesTiledSymmetrisation:
    @pytest.mark.parametrize("d, r", [
        (3, 63), (5, 64), (8, 65), (4, 127), (16, 128), (32, 129), (200, 300)])
    def test_random_line_set(self, d, r):
        assert_gram_matches_tiled(p.random_line_set(d, r, (d, r)))

    @pytest.mark.parametrize("d, r, seed", [(2, 30, 0), (3, 150, 1), (3, 64, 2)])
    def test_random_line_set_with_shortfall_blocks(self, monkeypatch, d, r, seed):
        # A coarse tolerance makes the first block collide, so the set is
        # assembled from a column slice of the grown shortfall buffer.
        monkeypatch.setattr(p.lines, "COLLINEARITY_TOL", 1e-3)
        walks = []
        first_kept = p.lines._first_kept
        monkeypatch.setattr(p.lines, "_first_kept",
                            lambda *args: walks.append(args) or first_kept(*args))
        line_set = p.random_line_set(d, r, seed)
        assert len(walks) >= 2
        assert_gram_matches_tiled(line_set)

    def test_build_line_set(self):
        rng = np.random.default_rng(5)
        assert_gram_matches_tiled(p.build_line_set(list(rng.standard_normal((150, 9)))))

    def test_weights_from_columns(self):
        rng = np.random.default_rng(6)
        base = rng.standard_normal((7, 140))
        matrix = base[:, rng.integers(0, 140, 400)] * rng.choice([-2.0, 0.5], 400)
        assert_gram_matches_tiled(p.weights_from_columns(matrix).line_set)

    def test_load_line_set(self, tmp_path):
        path = tmp_path / "lines.csv"
        p.save_line_set(p.random_line_set(6, 130, 7), path)
        assert_gram_matches_tiled(p.load_line_set(path))


def build_pair_reference(raw_vectors, collinearity_tol=1e-9):
    """build_line_set's former pair loop: its DuplicateLine message, or None."""
    units = np.column_stack([p.canonicalize_vector(np.asarray(v, dtype=float))[0]
                             for v in raw_vectors])
    cosines = np.abs(units.T @ units)
    r = units.shape[1]
    for i in range(r):
        for j in range(i + 1, r):
            if cosines[i, j] >= 1.0 - collinearity_tol:
                return ("vectors %d and %d span the same line (|cos| = %.12g)"
                        % (i, j, cosines[i, j]))
    return None


def load_pair_reference(gram, collinearity_tol=1e-9):
    """load_line_set's former pair loop: its DuplicateLine message, or None."""
    r = gram.shape[0]
    for i in range(r):
        for j in range(i + 1, r):
            if abs(gram[i, j]) >= 1.0 - collinearity_tol:
                return "stored lines %d and %d coincide" % (i, j)
    return None


class TestDuplicatePairs:
    # Column copies (scaled, flipped, or nudged within the tolerance) put
    # several colliding pairs in one set; the first in row order is named.
    COPIES = [
        {},
        {9: (4, 1.0)},
        {7: (3, -2.0), 5: (1, 3.0), 10: (7, 0.5), 11: (0, -1.0)},
        {2: (6, 1.0), 8: (1, -4.0), 11: (2, 1.0)},
    ]

    @staticmethod
    def vectors(copies, nudge=0.0, seed=0):
        rng = np.random.default_rng(seed)
        matrix = rng.standard_normal((4, 12))
        for target, (source, scale) in sorted(copies.items()):
            matrix[:, target] = scale * matrix[:, source] + nudge
        return list(matrix.T)

    @pytest.mark.parametrize("copies", COPIES)
    @pytest.mark.parametrize("nudge", [0.0, 1e-7, 1e-3])
    def test_build_names_the_pair_the_loop_named(self, copies, nudge):
        vectors = self.vectors(copies, nudge)
        expected = build_pair_reference(vectors)
        if expected is None:
            assert p.build_line_set(vectors).num_lines == 12
        else:
            with pytest.raises(DuplicateLine) as info:
                p.build_line_set(vectors)
            assert str(info.value) == expected
        if copies and nudge < 1e-6:
            assert expected is not None

    def test_build_names_a_pair_of_opposite_orientation(self):
        # The last entries straddle the pivot threshold, so the two
        # canonical vectors point opposite ways: cos = -1.
        vectors = [[0.3, 1.0, 0.5], [1.0, 0.0, 2e-12], [0.0, 1.0, 1.0], [1.0, 0.0, -2e-12]]
        expected = build_pair_reference(vectors)
        assert expected is not None and expected.startswith("vectors 1 and 3 ")
        with pytest.raises(DuplicateLine) as info:
            p.build_line_set(vectors)
        assert str(info.value) == expected

    @pytest.mark.parametrize("order", [
        [0, 1, 2, 3], [0, 1, 2, 1, 3, 0], [4, 2, 4, 1, 2, 0, 3], [3, 3, 3]])
    def test_load_names_the_pair_the_loop_named(self, tmp_path, order):
        units = p.random_line_set(3, 5, seed=11).unit_vectors[:, order]
        path = tmp_path / "lines.csv"
        p.save_vectors_csv(path, units)
        gram = units.T @ units
        gram = np.clip((gram + gram.T) / 2.0, -1.0, 1.0)
        np.fill_diagonal(gram, 1.0)
        expected = load_pair_reference(gram)
        if expected is None:
            np.testing.assert_array_equal(p.load_line_set(path).unit_vectors, units)
        else:
            with pytest.raises(DuplicateLine) as info:
                p.load_line_set(path)
            assert str(info.value) == expected

    @pytest.mark.parametrize("seed", range(5))
    def test_helper_matches_the_loop_on_dense_collisions(self, seed):
        from porcupine.lines import _first_collision

        rng = np.random.default_rng(seed)
        gram = rng.choice([0.0, 0.5, 1.0, -1.0, 1.0 - 1e-10], p=[0.5, 0.3, 0.05, 0.05, 0.1],
                          size=(30, 30))
        expected = load_pair_reference(gram)
        pair = _first_collision(gram)
        assert (None if pair is None else "stored lines %d and %d coincide" % pair) == expected
