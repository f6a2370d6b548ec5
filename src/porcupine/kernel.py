"""The relu cross-correlation kernel and its matrix machinery.

Everything rests on the degree-1 arc-cosine kernel (Cho & Saul, NeurIPS
2009): for unit vectors at angle ``theta`` with cosine ``c``,
``k(c) = E[relu(u'x) relu(v'x)] = (sin theta + (pi - theta) c) / (2 pi)``.
``psi(c) = 2 [k(c) + k(-c)]`` is its even part; it maps the cosine between
two lines to the coefficient that the quadratic (mass) part of the
population risk puts on that pair.  Applied entrywise to a line-set Gram
matrix it stays positive semidefinite, which is what makes the
closed-form risks well behaved.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._checks import count, finite_array
from .errors import DimensionMismatch, DomainError, NotSymmetric, ParameterOutOfRange
from .lines import LineSet, build_line_set, cross_gram

CLAMP_EPS = 1e-9
PINV_CUTOFF = 1e-10
ASYM_TOL = 1e-9
# psi(0) = 2/pi: the kernel of orthogonal lines, and its floor.
PSI_AT_ZERO = 2.0 / np.pi

_PSI_BLOCK = 8192  # entries per block of psi's large-array path
_SYM_TILE = 128  # rows and columns per tile of the exact symmetry check


def psi(x):
    """Kernel value ``x + (2/pi) * (sqrt(1-x^2) - x*arccos(x))``.

    This is ``2 [k(x) + k(-x)]`` for the arc-cosine kernel ``k`` above.
    Accepts scalars or arrays (matrices entrywise) in [-1, 1]; inputs within
    CLAMP_EPS of the interval are clamped, anything farther out and NaN
    raise DomainError (to distinguish roundoff from bugs).  The function is
    even, 1-Lipschitz, and takes values in [2/pi, 1].

    C-contiguous arrays larger than one block are evaluated block by block
    into the output, with the same operations entry for entry: the result
    is bit-identical and the temporaries stay cache-sized.
    """
    arr = np.asarray(x, dtype=float)
    if arr.size > _PSI_BLOCK and arr.flags.c_contiguous:
        out = np.empty(arr.shape)
        flat_in, flat_out = arr.reshape(-1), out.reshape(-1)
        for start in range(0, arr.size, _PSI_BLOCK):
            flat_out[start:start + _PSI_BLOCK] = _psi_formula(flat_in[start:start + _PSI_BLOCK])
        return out
    out = _psi_formula(arr)
    if np.isscalar(x) or arr.ndim == 0:
        return float(out)
    return out


def _psi_formula(arr: np.ndarray) -> np.ndarray:
    """``psi`` of a float array in one pass, after the domain check."""
    if not np.all(np.abs(arr) <= 1.0 + CLAMP_EPS):  # NaN fails this test too
        raise DomainError("kernel argument outside [-1, 1] beyond tolerance or NaN")
    c = np.clip(arr, -1.0, 1.0)
    return c + PSI_AT_ZERO * (np.sqrt(1.0 - c * c) - c * np.arccos(c))


def _column_angles(A: np.ndarray, B: np.ndarray):
    """Column norms of ``A`` and ``B``, the cosines between their columns
    clipped to [-1, 1], and the angles ``arccos`` of those cosines.

    Returns ``(norms_a, norms_b, cosines, angles)`` with ``cosines[i, j]``
    between column ``i`` of ``A`` and column ``j`` of ``B``.  A zero column
    has cosine 0 (angle pi/2) against everything.
    """
    na = np.linalg.norm(A, axis=0)
    nb = np.linalg.norm(B, axis=0)
    Ah = np.divide(A, np.where(na > 0, na, 1.0)[None, :])
    Bh = np.divide(B, np.where(nb > 0, nb, 1.0)[None, :])
    cosines = np.clip(Ah.T @ Bh, -1.0, 1.0)
    return na, nb, cosines, np.arccos(cosines)


def equiangular_2d(r: int) -> LineSet:
    """``r`` planar lines with equal angles pi/r between neighbours."""
    angles = np.arange(count(r, "r", 2)) * np.pi / r
    return build_line_set(np.column_stack([np.cos(angles), np.sin(angles)]))


def _exactly_symmetric(matrix: np.ndarray) -> bool:
    """``np.array_equal(matrix, matrix.T)`` for a square matrix, compared
    tile against transposed tile so that no strided full transpose is read."""
    n = matrix.shape[0]
    for i in range(0, n, _SYM_TILE):
        for j in range(i, n, _SYM_TILE):
            tile = matrix[i:i + _SYM_TILE, j:j + _SYM_TILE]
            if not np.array_equal(tile, matrix[j:j + _SYM_TILE, i:i + _SYM_TILE].T):
                return False
    return True


def _require_symmetric(matrix) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise DimensionMismatch("expected a square matrix")
    # Kernel blocks are exactly symmetric, and then (m + m') / 2 is m itself.
    if _exactly_symmetric(matrix):
        return matrix
    if matrix.size and np.max(np.abs(matrix - matrix.T)) > ASYM_TOL:
        raise NotSymmetric("asymmetry %.3g exceeds %.3g"
                           % (float(np.max(np.abs(matrix - matrix.T))), ASYM_TOL))
    return (matrix + matrix.T) / 2.0


def _spectral_input(matrix) -> np.ndarray:
    """The public spectral helpers' input: non-empty (ParameterOutOfRange),
    finite (DomainError) and symmetric within ASYM_TOL."""
    matrix = finite_array(matrix, "matrix", (None, None))
    if matrix.size == 0:
        raise ParameterOutOfRange("expected a non-empty matrix")
    return _require_symmetric(matrix)


def _norm_and_min(sym: np.ndarray):
    """Spectral norm and smallest eigenvalue of the symmetric ``sym``, from
    one ``eigvalsh``."""
    vals = np.linalg.eigvalsh(sym)
    return float(max(abs(vals[0]), abs(vals[-1]))), float(vals[0])


def min_eigenvalue(matrix) -> float:
    """Smallest eigenvalue via a full symmetric eigendecomposition."""
    return _norm_and_min(_spectral_input(matrix))[1]


def spectral_norm(matrix) -> float:
    """Operator norm of a symmetric matrix (largest |eigenvalue|)."""
    return _norm_and_min(_spectral_input(matrix))[0]


def _inverted_spectrum(matrix, vectors: bool = True):
    """Eigenvectors of a symmetric matrix and its inverted eigenvalues.

    Returns ``(vecs, inv)`` with ``pinv(matrix) = vecs diag(inv) vecs'``.
    Eigenvalues with magnitude at most PINV_CUTOFF times the largest
    magnitude are treated as zero (their ``inv`` entry is 0); this is the
    one place the pseudo-inverse cutoff is applied.  With ``vectors=False``
    only the eigenvalues are computed and ``vecs`` is None.
    """
    sym = _require_symmetric(matrix)
    if vectors:
        vals, vecs = np.linalg.eigh(sym)
    else:
        vals, vecs = np.linalg.eigvalsh(sym), None
    scale = float(np.max(np.abs(vals))) if vals.size else 0.0
    keep = np.abs(vals) > PINV_CUTOFF * scale
    inv = np.zeros_like(vals)
    inv[keep] = 1.0 / vals[keep]
    return vecs, inv


def _inverse_factor(sym: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The lower-triangular ``Li`` with ``Li sym Li' = I``, the inverse of
    the Cholesky factor of ``sym``, written into ``out`` when given.

    It works by halves down to single entries: with ``Li11`` the factor of
    the leading block, ``L21 = A21 Li11'``, ``Li22`` the factor of
    ``A22 - L21 L21'`` and ``Li21 = -Li22 L21 Li11``; a 1x1 block ``a`` has
    the factor ``1/sqrt(a)``.  So the factor comes from matrix products and
    square roots alone, with no LAPACK routine; on OpenBLAS its bits were
    the same at 1 and 2 BLAS threads up to n = 2048.  A block
    that is not numerically positive definite (a pivot ``a <= 0`` or NaN)
    raises ``np.linalg.LinAlgError``.  Only the lower triangle of the
    symmetric, non-empty ``sym`` is read.
    """
    n = sym.shape[0]
    out = np.zeros((n, n)) if out is None else out
    if n == 1:
        pivot = float(sym[0, 0])
        if not pivot > 0.0:  # NaN fails this test too
            raise np.linalg.LinAlgError("matrix is not positive definite")
        out[0, 0] = 1.0 / np.sqrt(pivot)
        return out
    h = n // 2
    li11 = _inverse_factor(sym[:h, :h], out[:h, :h])
    l21 = sym[h:, :h] @ li11.T
    schur = l21 @ l21.T
    np.subtract(sym[h:, h:], schur, out=schur)
    li22 = _inverse_factor(schur, out[h:, h:])
    del schur
    np.matmul(np.negative(li22 @ l21), li11, out=out[h:, :h])
    return out


def _guarded_factor(sym: np.ndarray) -> np.ndarray | None:
    """``_inverse_factor(sym)`` when it proves that the cutoff of
    ``_inverted_spectrum`` keeps every eigenvalue of ``sym``, else None.

    The proof: the factor exists, so ``sym`` is positive definite, and
    PINV_CUTOFF times the largest absolute row sum times ``|Li|_F^2`` is
    below 1.  The row sum bounds the largest eigenvalue and
    ``|Li|_F^2 = trace(sym^-1)`` is at least one over the smallest, so the
    smallest exceeds the cutoff.  A NaN anywhere fails the test; a failure
    proves nothing.
    """
    if sym.size == 0:
        return None
    row_sum = float(np.max(np.abs(sym).sum(axis=1)))
    try:
        factor = _inverse_factor(sym)
    except np.linalg.LinAlgError:
        return None
    if PINV_CUTOFF * row_sum * float(np.vdot(factor, factor)) < 1.0:
        return factor
    return None


class _PseudoInverse:
    """``pinv`` of a symmetric matrix under the cutoff of
    ``_inverted_spectrum``: the one place its route is chosen.

    When ``_guarded_factor`` proves the cutoff drops nothing, ``pinv`` is the
    inverse ``Li' Li``, from one inverse Cholesky factor ``Li``:
    ``solve(rhs)`` is ``Li' (Li rhs)`` and ``quadratic(B)`` is ``M' M`` with
    ``M = Li B``, a symmetric rank-k product that is exactly symmetric.
    Otherwise one eigendecomposition ``V diag(lam) V'`` gives
    ``pinv = V diag(inv) V'``, and ``quadratic(B)`` is ``M' diag(inv) M``
    with ``M = V' B``.  ``drops_any`` tells whether the cutoff zeroes an
    eigenvalue.  ``inverted()`` gives ``inv`` (after the factor route, by
    one ``eigvalsh`` when called) and holds no eigenvectors, so a report may
    keep it.
    """

    def __init__(self, matrix):
        sym = _require_symmetric(matrix)
        self._factor, self._vecs, self.drops_any = _guarded_factor(sym), None, False
        self.inverted = lambda: _inverted_spectrum(sym, vectors=False)[1]
        if self._factor is None:
            self._vecs, inv = _inverted_spectrum(sym)
            self._inv, self.drops_any = inv, not inv.all()
            self.inverted = lambda: inv

    def solve(self, rhs) -> np.ndarray:
        if self._vecs is None:
            return self._factor.T @ (self._factor @ rhs)
        return (self._vecs * self._inv[None, :]) @ self._vecs.T @ rhs

    def quadratic(self, B) -> np.ndarray:
        if self._vecs is None:
            m = self._factor @ B
            return m.T @ m
        m = self._vecs.T @ B
        return (m.T * self._inv) @ m


def symmetric_pseudo_inverse(matrix) -> np.ndarray:
    """Pseudo-inverse of a symmetric matrix.

    Eigenvalues with magnitude below PINV_CUTOFF times the largest
    magnitude are treated as zero; the same convention is used everywhere
    a pseudo-inverse appears in this package.
    """
    vecs, inv = _inverted_spectrum(_spectral_input(matrix))
    return (vecs * inv[None, :]) @ vecs.T


@dataclass(frozen=True, eq=False)
class KernelBundle:
    """Kernel blocks for a pair of line sets (model lines vs. target lines).

    The blocks are ``psi`` of the model Gram matrix, of the cross Gram
    matrix and of the target Gram matrix.  Together they form ``psi`` of
    the Gram matrix of the union of the two line families, which is
    symmetric with unit diagonal and positive semidefinite.  The source
    line sets are kept so downstream updates can reach the geometry.
    """

    psi_lines: np.ndarray
    psi_cross: np.ndarray
    psi_star: np.ndarray
    lines: LineSet
    star: LineSet

    @property
    def num_lines(self) -> int:
        return self.psi_lines.shape[0]


def kernel_bundle(lines: LineSet, star: LineSet) -> KernelBundle:
    """Assemble the kernel blocks for model lines against target lines;
    line sets in different dimensions raise DimensionMismatch (from
    ``cross_gram``, before any kernel is evaluated)."""
    psi_cross = psi(cross_gram(lines, star))
    psi_lines = psi(lines.gram)
    psi_star = psi(star.gram)
    for arr in (psi_lines, psi_cross, psi_star):
        arr.flags.writeable = False
    return KernelBundle(
        psi_lines=psi_lines,
        psi_cross=psi_cross,
        psi_star=psi_star,
        lines=lines,
        star=star,
    )
