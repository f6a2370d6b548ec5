"""Kernel function, entrywise application, spectra, and kernel bundles."""

import numpy as np
import pytest

import porcupine as p
from porcupine.errors import DimensionMismatch, DomainError, NotSymmetric, ParameterOutOfRange
from porcupine.kernel import CLAMP_EPS, _PSI_BLOCK, _SYM_TILE, _exactly_symmetric


class TestPsiValues:
    def test_endpoints_and_center(self):
        assert p.psi(1.0) == 1.0
        assert p.psi(-1.0) == pytest.approx(1.0, abs=1e-15)
        assert p.psi(0.0) == pytest.approx(2.0 / np.pi, abs=1e-16)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scalar_rejected(self, bad):
        with pytest.raises(DomainError):
            p.psi(bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_matrix_with_one_non_finite_entry_rejected(self, bad):
        matrix = np.full((3, 3), 0.25)
        np.fill_diagonal(matrix, 1.0)
        matrix[2, 1] = bad
        with pytest.raises(DomainError):
            p.psi(matrix)

    def test_domain_error_beyond_clamp(self):
        with pytest.raises(DomainError):
            p.psi(1.0 + 1e-6)
        # within the clamp band is fine
        assert p.psi(1.0 + 1e-10) == 1.0

    def test_even_function(self):
        x = np.linspace(0.0, 1.0, 101)
        np.testing.assert_allclose(p.psi(x), p.psi(-x), atol=1e-14)

    def test_lipschitz_and_dominates_identity(self):
        x = np.linspace(-1.0, 1.0, 4001)
        values = p.psi(x)
        assert np.all(values >= x - 1e-14)
        steps = np.abs(np.diff(values))
        assert np.all(steps <= np.abs(np.diff(x)) + 1e-14)
        assert np.all(values >= 2.0 / np.pi - 1e-14) and np.all(values <= 1.0 + 1e-14)

    def test_even_part_of_arc_cosine_kernel(self):
        # psi(c) = 2 [k(c) + k(-c)] with the degree-1 arc-cosine kernel
        # k(c) = (sin t + (pi - t) c) / (2 pi), t = arccos c (Cho & Saul 2009).
        c = np.linspace(-1.0, 1.0, 2001)

        def k(c):
            t = np.arccos(c)
            return (np.sin(t) + (np.pi - t) * c) / (2.0 * np.pi)

        np.testing.assert_allclose(p.psi(c), 2.0 * (k(c) + k(-c)), rtol=0, atol=1e-15)

    def test_monte_carlo_identity(self):
        # psi(cos t) = 4 E[relu(u'x) relu(v'x)] - cos t for unit u, v at angle t.
        t = 1.1
        u = np.array([1.0, 0.0])
        v = np.array([np.cos(t), np.sin(t)])
        rng = np.random.default_rng(1234)
        total = 0.0
        total_sq = 0.0
        n = 10_000_000
        chunk = 1_000_000
        for _ in range(n // chunk):
            X = rng.standard_normal((chunk, 2))
            prod = np.maximum(X @ u, 0.0) * np.maximum(X @ v, 0.0)
            total += prod.sum()
            total_sq += float(prod @ prod)
        mean = total / n
        stderr = np.sqrt((total_sq / n - mean**2) / n)
        estimate = 4.0 * mean - np.cos(t)
        assert abs(estimate - p.psi(np.cos(t))) <= 4.0 * 4.0 * stderr


class TestPsiApply:
    def test_identity_matrix(self):
        out = p.psi(np.eye(3))
        np.testing.assert_allclose(np.diag(out), 1.0, atol=1e-15)
        off = out[~np.eye(3, dtype=bool)]
        np.testing.assert_allclose(off, 2.0 / np.pi, atol=1e-15)

    def test_all_ones(self):
        np.testing.assert_array_equal(p.psi(np.ones((4, 4))), np.ones((4, 4)))

    def test_kernel_matrix_psd(self):
        ls = p.random_line_set(6, 8, seed=3)
        assert p.min_eigenvalue(p.psi(ls.gram)) >= -1e-10

    def test_psd_random_sweep(self):
        rng = np.random.default_rng(77)
        for trial in range(25):
            d = int(rng.integers(2, 12))
            r = int(rng.integers(2, 20))
            ls = p.random_line_set(d, r, seed=(77, trial))
            assert p.min_eigenvalue(p.psi(ls.gram)) >= -1e-9


def psi_reference(x):
    """psi's formula in one shot over the whole input."""
    c = np.clip(np.asarray(x, dtype=float), -1.0, 1.0)
    return c + (2.0 / np.pi) * (np.sqrt(1.0 - c * c) - c * np.arccos(c))


class TestPsiInBlocks:
    """Large C-contiguous inputs are evaluated block by block; every layout
    and size must give the one-shot formula's bits."""

    SIZES = [0, 1, _PSI_BLOCK - 1, _PSI_BLOCK, _PSI_BLOCK + 1, 3 * _PSI_BLOCK + 17]

    @staticmethod
    def cosines(n, seed=0):
        # Values across [-1, 1] and into the clamp band on either side.
        return np.random.default_rng(seed).uniform(-1.0 - CLAMP_EPS, 1.0 + CLAMP_EPS, n)

    @pytest.mark.parametrize("n", SIZES)
    def test_vector_sizes(self, n):
        x = self.cosines(n)
        got = p.psi(x)
        assert got.shape == (n,)
        assert np.array_equal(got, psi_reference(x))

    def test_gram_of_several_blocks(self):
        gram = p.random_line_set(16, 200, seed=5).gram
        assert gram.size > 4 * _PSI_BLOCK
        assert np.array_equal(p.psi(gram), psi_reference(gram))

    @pytest.mark.parametrize("layout", ["fortran", "transposed", "broadcast", "strided"])
    def test_non_contiguous_layouts(self, layout):
        base = self.cosines(130 * 127, seed=1).reshape(130, 127)
        x = {
            "fortran": np.asfortranarray(base),
            "transposed": base.T,
            "broadcast": np.broadcast_to(base[0], (300, 127)),
            "strided": base[:, ::2],
        }[layout]
        got = p.psi(x)
        assert got.shape == x.shape
        assert np.array_equal(got, psi_reference(x))

    @pytest.mark.parametrize("value", [0.3, -1.0 - CLAMP_EPS / 2, 1.0])
    def test_zero_dimensional_inputs_give_floats(self, value):
        for x in (value, np.float64(value), np.array(value)):
            got = p.psi(x)
            assert type(got) is float and got == float(psi_reference(value))

    def test_lists(self):
        x = self.cosines(_PSI_BLOCK + 1, seed=2).tolist()
        assert np.array_equal(p.psi(x), psi_reference(x))
        assert np.array_equal(p.psi(x[:5]), psi_reference(x[:5]))

    @pytest.mark.parametrize("bad", [np.nan, 1.0 + 2 * CLAMP_EPS, -1.0 - 2 * CLAMP_EPS])
    @pytest.mark.parametrize("where", [0, _PSI_BLOCK, -1])
    def test_bad_entry_in_any_block_raises(self, bad, where):
        x = self.cosines(3 * _PSI_BLOCK + 17, seed=3)
        x[where] = bad
        with pytest.raises(DomainError):
            p.psi(x)
        with pytest.raises(DomainError):
            p.psi(x.reshape(1, -1))


class TestExactSymmetryInTiles:
    """The tiled exact-symmetry check answers as ``array_equal(m, m.T)``."""

    @pytest.mark.parametrize("n", [0, 1, _SYM_TILE - 1, _SYM_TILE, _SYM_TILE + 1, 2 * _SYM_TILE + 5])
    def test_symmetric_matrices(self, n):
        a = np.random.default_rng(n).standard_normal((n, n))
        sym = a + a.T
        assert _exactly_symmetric(sym) and np.array_equal(sym, sym.T)
        assert _exactly_symmetric(np.asfortranarray(sym))

    @pytest.mark.parametrize("entry", [
        (0, 1), (_SYM_TILE - 1, _SYM_TILE), (_SYM_TILE, _SYM_TILE - 1),
        (0, _SYM_TILE - 1), (_SYM_TILE - 1, 0), (0, _SYM_TILE), (_SYM_TILE, 0),
        (_SYM_TILE, 2 * _SYM_TILE), (2 * _SYM_TILE - 1, 2 * _SYM_TILE),
        (2 * _SYM_TILE + 4, 0), (0, 2 * _SYM_TILE + 4),
        (2 * _SYM_TILE + 4, 2 * _SYM_TILE + 3), (_SYM_TILE + 1, _SYM_TILE),
    ])
    def test_one_asymmetric_entry_at_a_tile_edge(self, entry):
        n = 2 * _SYM_TILE + 5
        a = np.random.default_rng(7).standard_normal((n, n))
        m = a + a.T
        m[entry] = np.nextafter(m[entry], np.inf)
        assert not np.array_equal(m, m.T)
        assert not _exactly_symmetric(m)
        m[entry[::-1]] = m[entry]
        assert np.array_equal(m, m.T) and _exactly_symmetric(m)

    @pytest.mark.parametrize("where", [(3, 3), (0, 2 * _SYM_TILE + 4), (_SYM_TILE, _SYM_TILE)])
    def test_nan_is_never_symmetric(self, where):
        n = 2 * _SYM_TILE + 5
        m = np.eye(n)
        m[where] = m[where[::-1]] = np.nan
        assert not np.array_equal(m, m.T) and not _exactly_symmetric(m)


class TestEquiangular2d:
    def test_pair_is_orthogonal(self):
        ls = p.equiangular_2d(2)
        assert ls.gram[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_adjacent_angle_r4(self):
        ls = p.equiangular_2d(4)
        for i in range(3):
            assert ls.gram[i, i + 1] == pytest.approx(np.cos(np.pi / 4), abs=1e-12)

    def test_angle_law(self):
        r = 6
        ls = p.equiangular_2d(r)
        for i in range(r):
            for j in range(r):
                assert ls.gram[i, j] == pytest.approx(
                    np.cos(np.pi * abs(i - j) / r), abs=1e-10
                )

    def test_min_eigenvalue_shrinks_with_more_lines(self):
        lam4 = p.min_eigenvalue(p.psi(p.equiangular_2d(4).gram))
        lam16 = p.min_eigenvalue(p.psi(p.equiangular_2d(16).gram))
        assert 0.0 < lam16 < lam4

    def test_requires_two_lines(self):
        with pytest.raises(ParameterOutOfRange):
            p.equiangular_2d(1)


class TestMinEigenvalue:
    def test_identity(self):
        assert p.min_eigenvalue(np.eye(5)) == pytest.approx(1.0, abs=1e-14)

    def test_diagonal(self):
        assert p.min_eigenvalue(np.diag([3.0, -2.0])) == pytest.approx(-2.0, abs=1e-14)

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            p.min_eigenvalue(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_against_extended_precision_eigensolver(self):
        # Independent oracle: mpmath eigenvalues at 50 digits for the
        # kernel matrix of eight equiangular planar lines.
        mpmath = pytest.importorskip("mpmath")
        matrix = p.psi(p.equiangular_2d(8).gram)
        mpmath.mp.dps = 50
        eigenvalues = mpmath.eig(mpmath.matrix(matrix.tolist()), left=False, right=False)
        oracle = min(float(mpmath.re(v)) for v in eigenvalues)
        assert p.min_eigenvalue(matrix) == pytest.approx(oracle, abs=1e-8)


class TestSpectralNorm:
    @pytest.mark.parametrize("diagonal, norm", [([3.0, -2.0], 3.0), ([1.0, -4.0], 4.0)])
    def test_largest_magnitude_of_either_sign(self, diagonal, norm):
        assert p.spectral_norm(np.diag(diagonal)) == norm


class TestSymmetricPseudoInverse:
    def test_invertible_matches_inverse(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((5, 5))
        sym = a @ a.T + 0.5 * np.eye(5)
        np.testing.assert_allclose(
            p.symmetric_pseudo_inverse(sym), np.linalg.inv(sym), atol=1e-10
        )

    def test_rank_deficient(self):
        u = np.array([[1.0], [1.0]]) / np.sqrt(2)
        m = u @ u.T
        pinv = p.symmetric_pseudo_inverse(m)
        np.testing.assert_allclose(pinv, m, atol=1e-12)


SPECTRAL_HELPERS = [p.min_eigenvalue, p.spectral_norm, p.symmetric_pseudo_inverse]


class TestSpectralHelperInput:
    @pytest.mark.parametrize("helper", SPECTRAL_HELPERS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1)])
    def test_non_finite_entry_rejected(self, helper, bad, where):
        matrix = np.eye(2)
        matrix[where] = matrix[where[::-1]] = bad
        with pytest.raises(DomainError):
            helper(matrix)

    @pytest.mark.parametrize("helper", SPECTRAL_HELPERS)
    @pytest.mark.parametrize("shape", [(0, 0), (0, 3)])
    def test_empty_matrix_rejected(self, helper, shape):
        with pytest.raises(ParameterOutOfRange):
            helper(np.zeros(shape))

    @pytest.mark.parametrize("helper", SPECTRAL_HELPERS)
    def test_non_square_matrix_rejected(self, helper):
        with pytest.raises(DimensionMismatch):
            helper(np.zeros((2, 3)))

    @pytest.mark.parametrize("helper", SPECTRAL_HELPERS)
    def test_nearly_symmetric_matrix_is_averaged(self, helper):
        matrix = np.array([[2.0, 1.0 + 1e-12], [1.0, 3.0]])
        assert np.array_equal(helper(matrix), helper((matrix + matrix.T) / 2.0))


class TestKernelBundle:
    @staticmethod
    def _union_kernel(lines, star):
        # psi of the Gram matrix of both line families stacked together.
        units = np.hstack([lines.unit_vectors, star.unit_vectors])
        return p.psi(np.clip(units.T @ units, -1.0, 1.0))

    def _check_blocks(self, joint, bundle):
        r = bundle.num_lines
        np.testing.assert_allclose(joint[:r, :r], bundle.psi_lines, rtol=0, atol=1e-15)
        np.testing.assert_allclose(joint[:r, r:], bundle.psi_cross, rtol=0, atol=1e-15)
        np.testing.assert_allclose(joint[r:, :r], bundle.psi_cross.T, rtol=0, atol=1e-15)
        np.testing.assert_allclose(joint[r:, r:], bundle.psi_star, rtol=0, atol=1e-15)

    def test_joint_structure(self):
        lines = p.random_line_set(5, 4, seed=41)
        star = p.random_line_set(5, 3, seed=42)
        bundle = p.kernel_bundle(lines, star)
        joint = self._union_kernel(lines, star)
        assert joint.shape == (7, 7)
        np.testing.assert_array_equal(joint, joint.T)
        np.testing.assert_allclose(np.diag(joint), 1.0, atol=1e-15)
        assert p.min_eigenvalue(joint) >= -1e-9
        self._check_blocks(joint, bundle)

    def test_joint_psd_with_overlapping_families(self):
        lines = p.random_line_set(4, 5, seed=51)
        star = lines.subset([0, 2])
        bundle = p.kernel_bundle(lines, star)
        joint = self._union_kernel(lines, star)
        assert p.min_eigenvalue(joint) >= -1e-9
        self._check_blocks(joint, bundle)

    def test_degree_one_axes_give_constant_off_diagonal(self):
        axes = p.axes_line_set(4)
        kernel_matrix = p.psi(axes.gram)
        expected = np.full((4, 4), 2.0 / np.pi)
        np.fill_diagonal(expected, 1.0)
        np.testing.assert_array_equal(kernel_matrix, expected)
