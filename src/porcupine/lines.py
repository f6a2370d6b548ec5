"""Line sets, neuron-to-line maps, and weight decompositions.

A porcupine network constrains each hidden neuron's incoming weight vector
to a fixed line through the origin.  This module owns the geometry: every
line is represented by a canonically oriented unit vector, a line set
carries the Gram matrix of pairwise cosines, and a weight matrix
decomposes into per-line mass and per-neuron orientation signs.

A neuron's place on its line is read once, as the signed scalar
``c = u' w`` of its column ``w`` on the line's canonical vector ``u``.
Its orientation is the sign of ``c``; its feasibility is the residual
``||w - c u||`` against FEASIBILITY_TOL.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._checks import count, finite_array, float_array, seed_sequence
from .errors import (
    DimensionMismatch,
    DuplicateLine,
    InfeasibleWeights,
    ParameterOutOfRange,
    TooManyCollisions,
    ZeroVector,
)

ZERO_TOL = 1e-12
COLLINEARITY_TOL = 1e-9
FEASIBILITY_TOL = 1e-9
UNIT_NORM_TOL = 1e-12

# 17 significant digits round-trip any IEEE double exactly.
_FLOAT_FMT = "%.17g"
# Below this norm a row's squares lose bits to underflow.
_TINY_NORM = float(np.sqrt(np.finfo(float).tiny))
# Entries per chunk of draws that random_line_set orients into its columns.
_ORIENT_CHUNK = 1 << 17


def _unit_columns(units) -> bool:
    """Whether every column has norm 1 within ``UNIT_NORM_TOL`` (NaN fails)."""
    return bool(np.all(np.abs(np.linalg.norm(units, axis=0) - 1.0) <= UNIT_NORM_TOL))


def _oriented_rows(block: np.ndarray):
    """``(units, flags, norms)``, ``units[i] = flags[i] * block[i] / norms[i]`` with
    its last entry above ZERO_TOL positive: the one code path that orients vectors.
    A norm is one dot product per row (as ``np.linalg.norm``), of the row over its
    peak if its squares overflow or underflow; zero and NaN norms are the caller's
    to judge.

    Each row is divided once, by its signed norm ``flags[i] * norms[i]``; as
    ``x / (-n) == -(x / n)``, that is the bits of dividing and then flipping.
    The pivot is read off the row's last unit entry, and only a row whose last
    entry is at most ZERO_TOL is searched in full."""
    block = np.ascontiguousarray(block)
    with np.errstate(over="ignore"):
        norms = np.sqrt(np.matmul(block[:, None, :], block[:, :, None])[:, 0, 0])
    lossy = np.isinf(norms) | (norms < _TINY_NORM)
    if lossy.any():  # the other rows are divided by 1.0, which keeps their bits
        peaks = np.where(lossy, np.abs(block).max(axis=1, initial=0.0), 1.0)
        peaks[peaks == 0.0] = 1.0  # a zero row has no peak to scale by
        if (peaks != 1.0).any():
            with np.errstate(invalid="ignore"):  # an infinite entry makes its row NaN
                units, flags, norms = _oriented_rows(block / peaks[:, None])
                return units, flags, norms * peaks
    divisors = np.where(norms > 0.0, norms, 1.0)
    if not block.shape[1]:  # a vector of length 0 has norm 0 and no pivot
        return block.copy(), np.ones(len(block)), norms
    last = block[:, -1] / divisors
    flags = np.where(last > 0, 1.0, -1.0)
    searched = np.flatnonzero(~(np.abs(last) > ZERO_TOL))  # NaN is searched too
    if searched.size:
        rows = block[searched] / divisors[searched, None]
        pivots = block.shape[1] - 1 - np.argmax((np.abs(rows) > ZERO_TOL)[:, ::-1], axis=1)
        flags[searched] = np.where(rows[np.arange(len(rows)), pivots] > 0, 1.0, -1.0)
    divisors *= flags
    return block / divisors[:, None], flags, norms


def canonicalize_vector(v):
    """Normalize ``v`` and orient it canonically.

    The canonical representative of the line through ``v`` is the unit
    vector whose entry at the largest index carrying a non-negligible
    component is positive.  Returns ``(unit, flag)`` where ``flag`` is +1
    if ``v`` already points in the canonical direction and -1 otherwise,
    so that ``unit = flag * v / ||v||``.

    Raises DomainError when an entry is NaN or infinite and ZeroVector
    when ``||v|| <= ZERO_TOL``.
    """
    v = finite_array(v, "vector", (None,))
    units, flags, norms = _oriented_rows(v[None, :])
    if norms[0] <= ZERO_TOL:
        raise ZeroVector("cannot orient a vector of norm %.3g" % norms[0])
    return units[0], int(flags[0])


def _line_units(block: np.ndarray) -> np.ndarray:
    """The rows' canonical unit vectors as the columns of a C-contiguous array;
    the first bad row raises what ``canonicalize_vector`` raises for it."""
    units, _, norms = _oriented_rows(block)
    if not (norms > ZERO_TOL).all():  # a NaN norm fails too
        canonicalize_vector(block[np.argmin(norms > ZERO_TOL)])
    return np.ascontiguousarray(units.T)


@dataclass(frozen=True, eq=False)
class LineSet:
    """A finite set of origin lines in ``dim`` dimensions.

    ``unit_vectors`` stores one canonical unit vector per line as columns
    of a ``dim x r`` matrix.  ``gram`` is the matrix of pairwise cosines
    (clamped to [-1, 1], unit diagonal); the angle between lines ``i`` and
    ``j`` is ``arccos(gram[i, j])`` in [0, pi].
    """

    dim: int
    unit_vectors: np.ndarray
    gram: np.ndarray

    @property
    def num_lines(self) -> int:
        return self.unit_vectors.shape[1]

    def line(self, index: int) -> np.ndarray:
        return self.unit_vectors[:, index]

    def subset(self, indices) -> "LineSet":
        """Line set restricted to ``indices`` (order preserved, repeats kept): a
        non-empty list of integers in ``[0, num_lines)``, else ParameterOutOfRange."""
        try:
            idx = np.asarray(indices)
        except ValueError:  # a ragged nested list fails the test below as [] does
            idx = np.empty(0, dtype=int)
        if not (idx.ndim == 1 and idx.size and idx.dtype.kind in "iu"
                and idx.min() >= 0 and idx.max() < self.num_lines):
            raise ParameterOutOfRange("need indices in [0, %d), got %r" % (self.num_lines, indices))
        units = np.take(self.unit_vectors, idx, axis=1)  # C-contiguous, like every line set's
        gram = self.gram[np.ix_(idx, idx)]
        units.flags.writeable = gram.flags.writeable = False
        return LineSet(dim=self.dim, unit_vectors=units, gram=gram)

    def same_geometry(self, other: "LineSet") -> bool:
        return (
            self.dim == other.dim
            and self.unit_vectors.shape == other.unit_vectors.shape
            and np.array_equal(self.unit_vectors, other.unit_vectors)
        )


def _assemble_line_set(units: np.ndarray) -> LineSet:
    """LineSet of the canonical unit vectors in the columns of ``units``.

    The Gram matrix is ``clip(units' units, -1, 1)`` with a unit diagonal.
    numpy computes a product of a matrix with its own transpose as one
    symmetric rank-k update, so it is exactly symmetric as it comes; the
    units are made C-contiguous first, so every line set has one layout.
    Every caller hands over a float array it built for this call, so the
    units are frozen in place, not copied.
    """
    units = np.ascontiguousarray(units)
    gram = units.T @ units
    np.clip(gram, -1.0, 1.0, out=gram)
    np.fill_diagonal(gram, 1.0)
    units.flags.writeable = gram.flags.writeable = False
    return LineSet(dim=units.shape[0], unit_vectors=units, gram=gram)


def _collinear(cosines: np.ndarray) -> np.ndarray:
    """True where ``|cosines| >= 1 - COLLINEARITY_TOL``: the two lines
    coincide.  The one statement of the collinearity rule."""
    threshold = 1.0 - COLLINEARITY_TOL
    hits = cosines >= threshold
    hits |= cosines <= -threshold
    return hits


def _first_kept(hits: np.ndarray, offset: int = 0):
    """Walk lines in order, keeping each that hits no line kept before it.

    Row ``i`` of the screen ``hits`` is line ``offset + i`` against lines
    ``0, 1, ...``; the first ``offset`` lines are kept unscreened.  Returns
    ``(first, kept)``: per line, the first kept line before it that it
    hits, or itself, and the mask of kept lines.  Only rows that hit a
    line besides their own are walked.
    """
    rows = np.arange(hits.shape[0])
    first = np.arange(offset + len(rows))
    kept = np.ones(len(first), dtype=bool)
    for i in np.flatnonzero(np.count_nonzero(hits, axis=1) > hits[rows, offset + rows]):
        j = offset + i
        earlier = hits[i, :j] & kept[:j]
        if earlier.any():
            first[j] = np.argmax(earlier)
            kept[j] = False
    return first, kept


def _first_collision(cosines: np.ndarray):
    """First colliding pair ``(i, j)``, ``i < j``, in row order, or None."""
    flat = np.flatnonzero(np.triu(_collinear(cosines), k=1))
    return divmod(int(flat[0]), cosines.shape[1]) if flat.size else None


def build_line_set(raw_vectors) -> LineSet:
    """Build a LineSet from non-zero spanning vectors, one per line.

    Vectors are normalized and canonically oriented; pairs that are
    collinear within COLLINEARITY_TOL raise DuplicateLine.
    """
    vectors = list(raw_vectors)
    try:
        block = np.array(vectors, dtype=float)
    except ValueError:  # vectors of different lengths (one dimension fewer), or not numbers
        block = np.array(vectors, dtype=object)
    if not len(block):
        raise ParameterOutOfRange("a line set needs at least one vector")
    if block.ndim != 2:
        raise DimensionMismatch("all vectors must share one dimension")
    if block.dtype == object:  # what canonicalize_vector raises for a vector of strings
        raise DimensionMismatch("vector must be a numeric array")
    line_set = _assemble_line_set(_line_units(block))
    pair = _first_collision(line_set.gram)
    if pair is not None:
        raise DuplicateLine("vectors %d and %d span the same line (|cos| = %.12g)"
                            % (*pair, abs(line_set.gram[pair])))
    return line_set


def axes_line_set(d: int) -> LineSet:
    """The standard coordinate axes as a line set."""
    return build_line_set(np.eye(count(d, "d")))


def cross_gram(a: LineSet, b: LineSet) -> np.ndarray:
    """Pairwise cosines between the lines of ``a`` (rows) and ``b`` (columns),
    clipped to [-1, 1]: the one product of two line families' unit vectors."""
    if a.dim != b.dim:
        raise DimensionMismatch("line sets live in d=%d and d=%d" % (a.dim, b.dim))
    return np.clip(a.unit_vectors.T @ b.unit_vectors, -1.0, 1.0)


def random_line_set(d: int, r: int, seed, max_draws: int | None = None) -> LineSet:
    """Draw ``r`` i.i.d. uniformly random lines in ``d`` dimensions.

    Directions are normalized standard Gaussian vectors, canonically
    oriented.  Near-collinear collisions are rejected and redrawn, which
    preserves uniformity; TooManyCollisions is raised if the draw budget
    is exhausted (only plausible for tiny ``d`` and huge ``r``).

    The lines are drawn as one block of ``r`` draws, the stream of ``r``
    calls of ``standard_normal(d)``, taken in cache-sized chunks of rows,
    each oriented and copied into the columns of the set's unit-vector block;
    the block's rows of the assembled set's Gram are walked in draw order
    by ``_first_kept``, and the shortfall is the next block.  Every draw counts
    against ``max_draws``, so the lines and the budget are those of drawing
    one vector at a time.
    """
    d, r = count(d, "d"), count(r, "r")
    rng = np.random.default_rng(seed_sequence(seed, "seed"))
    budget = count(max_draws, "max_draws") if max_draws is not None else max(1000, 200 * r)
    units = np.empty((d, 0))
    draws, step = 0, max(1, _ORIENT_CHUNK // d)
    while draws < budget:
        wanted = min(r - units.shape[1], budget - draws)
        draws += wanted
        have = units.shape[1]
        grown = np.empty((d, have + wanted))
        grown[:, :have] = units
        norms = np.empty(wanted)
        for start in range(0, wanted, step):
            stop = min(start + step, wanted)
            chunk, _, norms[start:stop] = _oriented_rows(rng.standard_normal((stop - start, d)))
            grown[:, have + start:have + stop] = chunk.T
            del chunk  # freed before the next draw, so the heap reuses its block
        if not (norms > ZERO_TOL).all():  # a draw of norm at most ZERO_TOL is dropped
            grown = grown[:, np.concatenate([np.ones(have, dtype=bool), norms > ZERO_TOL])]
        line_set = _assemble_line_set(grown)
        _, kept = _first_kept(_collinear(line_set.gram[have:]), have)
        if kept.all() and len(kept) == r:
            return line_set
        units, line_set = grown[:, kept], None  # a shortfall: free this Gram first
    raise TooManyCollisions(
        "could not draw %d collision-free lines in d=%d within %d attempts"
        % (r, d, budget)
    )


@dataclass(frozen=True)
class NeuronLineMap:
    """Surjective assignment of neurons {0..k-1} to lines {0..r-1}."""

    num_neurons: int
    assignment: tuple

    def __post_init__(self):
        count(self.num_neurons, "num_neurons")
        assignment = tuple(count(a, "line index", 0) for a in self.assignment)
        object.__setattr__(self, "assignment", assignment)
        if len(assignment) != self.num_neurons:
            raise DimensionMismatch(
                "assignment length %d != num_neurons %d"
                % (len(assignment), self.num_neurons)
            )
        r = max(assignment) + 1
        if set(assignment) != set(range(r)):
            raise ParameterOutOfRange(
                "assignment must be surjective onto {0..%d}" % (r - 1)
            )

    @property
    def num_lines(self) -> int:
        return max(self.assignment) + 1

    def line_of(self, neuron: int) -> int:
        return self.assignment[neuron]

    def neurons_on_line(self, line: int) -> tuple:
        return tuple(i for i, a in enumerate(self.assignment) if a == line)


@dataclass(frozen=True)
class RegionSignature:
    """Per-line orientation signs of the neurons living on each line.

    ``signs[l]`` lists the +-1 orientation flags of the neurons assigned
    to line ``l`` (in neuron order); zero-weight neurons are recorded as
    +1 with ``nonzero`` False and are excluded from the all-same-sign
    summaries.
    """

    signs: tuple
    nonzero: tuple

    def __post_init__(self):
        if len(self.signs) != len(self.nonzero):
            raise DimensionMismatch("signs and nonzero flags disagree in length")
        for s, z in zip(self.signs, self.nonzero):
            if len(s) != len(z):
                raise DimensionMismatch("per-line sign/flag lengths disagree")

    @cached_property
    def _orientations(self) -> tuple:
        """Per line, the set of signs among its non-zero neurons."""
        return tuple(
            frozenset(s for s, z in zip(signs, nonzero) if z)
            for signs, nonzero in zip(self.signs, self.nonzero)
        )

    @property
    def mixed(self) -> tuple:
        """Per line: True iff both orientations occur among non-zero neurons."""
        return tuple(+1 in o and -1 in o for o in self._orientations)

    @property
    def all_plus(self) -> tuple:
        return tuple(o == {+1} for o in self._orientations)

    @property
    def all_minus(self) -> tuple:
        return tuple(o == {-1} for o in self._orientations)

    @property
    def mixed_line_count(self) -> int:
        return sum(self.mixed)

    @property
    def single_orientation_count(self) -> int:
        """Lines whose non-zero neurons all share one orientation."""
        return sum(o in ({+1}, {-1}) for o in self._orientations)


def _line_coordinates(matrix: np.ndarray, units: np.ndarray):
    """Each column ``w`` of ``matrix`` read on the unit vector ``u`` in the
    same column of ``units``: ``(c, norms, residuals)`` with ``c = u' w``,
    ``||w||`` and ``||w - c u||``."""
    scales = np.einsum("dk,dk->k", units, matrix)
    norms = np.linalg.norm(matrix, axis=0)
    residuals = np.linalg.norm(matrix - units * scales, axis=0)
    return scales, norms, residuals


def _signature(scales, norms, neuron_map: NeuronLineMap) -> RegionSignature:
    """Orientation signature: neuron ``i`` takes the sign of its scalar
    ``scales[i]``; a column of norm at most ZERO_TOL is zero, with a +1
    placeholder."""
    nonzero = ~(norms <= ZERO_TOL)  # a NaN norm is not zero
    flags = np.where(nonzero & (scales < 0.0), -1, 1)
    assignment = np.asarray(neuron_map.assignment)
    order = np.argsort(assignment, kind="stable")
    edges = [0, *np.cumsum(np.bincount(assignment)).tolist()]
    signs = flags[order].tolist()
    active = nonzero[order].tolist()
    return RegionSignature(
        signs=tuple(tuple(signs[a:b]) for a, b in zip(edges, edges[1:])),
        nonzero=tuple(tuple(active[a:b]) for a, b in zip(edges, edges[1:])),
    )


@dataclass(frozen=True, eq=False)
class PNNWeights:
    """A ``d x k`` weight matrix tied to a line configuration.

    Entries must be finite (DomainError otherwise).  Every non-zero
    column must lie on its assigned line within FEASIBILITY_TOL (relative
    to max(1, column norm)); zero columns are legal, they arise
    transiently during optimization.  ``scales[i]`` is neuron ``i``'s
    signed scalar on the canonical vector of its line.
    """

    matrix: np.ndarray
    line_set: LineSet
    neuron_map: NeuronLineMap
    scales: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        # Every comparison in the feasibility check is False for NaN.
        matrix = finite_array(self.matrix, "weights",
                              (self.line_set.dim, self.neuron_map.num_neurons))
        if self.neuron_map.num_lines != self.line_set.num_lines:
            raise DimensionMismatch(
                "map covers %d lines but the line set has %d"
                % (self.neuron_map.num_lines, self.line_set.num_lines)
            )
        matrix = np.array(matrix)  # the caller's array stays the caller's
        matrix.flags.writeable = False
        object.__setattr__(self, "matrix", matrix)
        self._check_feasible()

    def _check_feasible(self):
        """Read every column on its line, keep the scalars as ``scales``,
        and raise InfeasibleWeights on the first column that is not zero
        (norm above ZERO_TOL) and lies more than FEASIBILITY_TOL * max(1,
        norm) off its line."""
        assignment = self.neuron_map.assignment
        units = self.line_set.unit_vectors[:, list(assignment)]
        scales, norms, residuals = _line_coordinates(self.matrix, units)
        bad = ~(norms <= ZERO_TOL) & ~(residuals <= FEASIBILITY_TOL * np.maximum(1.0, norms))
        if bad.any():
            i = int(np.argmax(bad))
            raise InfeasibleWeights(
                "column %d deviates from line %d by %.3g"
                % (i, assignment[i], float(residuals[i]))
            )
        scales.flags.writeable = False
        object.__setattr__(self, "scales", scales)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def num_neurons(self) -> int:
        return self.matrix.shape[1]

    def column_sum(self) -> np.ndarray:
        return self.matrix.sum(axis=1)

    def same_config(self, other: "PNNWeights") -> bool:
        return (
            self.line_set.same_geometry(other.line_set)
            and self.neuron_map == other.neuron_map
        )


def _weight_matrix(weights, name: str = "weights", dim: int | None = None) -> np.ndarray:
    """The finite ``d x k`` matrix of an array (by ``finite_array``) or of a
    PNNWeights (checked when built, so by its shape alone), with ``d = dim`` when
    ``dim`` is given: the one intake of a weight matrix."""
    if not isinstance(weights, PNNWeights):
        return finite_array(weights, name, (dim, None))
    if dim not in (None, weights.dim):
        raise DimensionMismatch("%s must have shape %s, got %s"
                                % (name, (dim, None), weights.matrix.shape))
    return weights.matrix


def decompose_weights(weights: PNNWeights):
    """Split a feasible weight matrix into per-line mass and signs.

    Returns ``(q, signature)`` where ``q[l]`` is the sum of column norms
    over the neurons assigned to line ``l`` and each neuron's sign is that
    of its scalar on its line.  Zero columns contribute no mass and a +1
    placeholder sign.
    """
    norms = np.linalg.norm(weights.matrix, axis=0)
    return _line_masses(weights), _signature(weights.scales, norms, weights.neuron_map)


def _line_masses(weights: PNNWeights) -> np.ndarray:
    """Per line, the sum of the column norms of the neurons assigned to it,
    accumulated in neuron order."""
    return np.bincount(
        weights.neuron_map.assignment,
        weights=np.linalg.norm(weights.matrix, axis=0),
        minlength=weights.line_set.num_lines,
    )


def weights_from_masses(
    line_set: LineSet, neuron_map: NeuronLineMap, signed_masses
) -> PNNWeights:
    """Assemble weights with column ``i`` equal to ``signed_masses[i]``
    times the canonical unit vector of its line."""
    signed_masses = finite_array(signed_masses, "signed masses", (neuron_map.num_neurons,))
    cols = line_set.unit_vectors[:, list(neuron_map.assignment)]
    return PNNWeights(
        matrix=cols * signed_masses[None, :],
        line_set=line_set,
        neuron_map=neuron_map,
    )


def weights_from_columns(matrix) -> PNNWeights:
    """View an arbitrary matrix of non-zero columns as a porcupine network.

    Collinear columns (within COLLINEARITY_TOL) share a line; every
    other column gets its own line.  Raises ZeroVector on zero columns.
    The line of a group is that of its first column, and every column is
    then held to it by the PNNWeights rule: a column within
    COLLINEARITY_TOL of an earlier column's line but more than
    FEASIBILITY_TOL off it raises InfeasibleWeights.
    """
    matrix = float_array(matrix, "matrix")
    if matrix.ndim != 2:
        raise DimensionMismatch("expected a d x k matrix")
    units = _line_units(matrix.T)
    first, kept = _first_kept(_collinear(units.T @ units))
    assignment = (np.cumsum(kept) - 1)[first]  # rank of the first kept column
    line_set = _assemble_line_set(units[:, kept])
    neuron_map = NeuronLineMap(num_neurons=matrix.shape[1], assignment=tuple(assignment))
    return PNNWeights(matrix=matrix, line_set=line_set, neuron_map=neuron_map)


def save_vectors_csv(path, vectors: np.ndarray) -> None:
    """Write a ``d x m`` matrix of column vectors to CSV.

    The first record carries the two integers ``dim,count``; each further
    record is one vector with 17-significant-digit decimal floats, which
    round-trip IEEE doubles exactly.
    """
    vectors = np.asarray(vectors, dtype=float)
    d, m = vectors.shape
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write("%d,%d\r\n" % (d, m))
        for j in range(m):
            fh.write(",".join(_FLOAT_FMT % x for x in vectors[:, j]) + "\r\n")


def _parse_record(row: str, kind, what: str) -> list:
    try:
        return [kind(x) for x in row.split(",")]
    except ValueError as exc:
        raise ParameterOutOfRange("malformed %s: %r" % (what, row)) from exc


def load_vectors_csv(path) -> np.ndarray:
    """Inverse of save_vectors_csv; returns the ``d x m`` matrix.

    A missing or malformed header, a malformed record and a zero ``d`` or
    ``m`` raise ParameterOutOfRange; a wrong count of records or entries
    DimensionMismatch; a non-finite entry DomainError.
    """
    # A non-ASCII byte decodes to U+FFFD, which makes its record malformed.
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        rows = [line.strip() for line in fh if line.strip()]
    header = _parse_record(rows[0], int, "header") if rows else []
    if len(header) != 2 or min(header) < 1:
        raise ParameterOutOfRange("expected a header of two positive integers dim,count")
    d, m = header
    if len(rows) != m + 1:
        raise DimensionMismatch("expected %d vector rows, found %d" % (m, len(rows) - 1))
    records = [_parse_record(row, float, "row %d" % j) for j, row in enumerate(rows[1:])]
    for j, values in enumerate(records):
        if len(values) != d:
            raise DimensionMismatch("row %d has %d entries, expected %d" % (j, len(values), d))
    # C order, like the arrays the package builds
    return finite_array(np.array(records).T.copy(), "stored vectors", (d, m))


def save_line_set(line_set: LineSet, path) -> None:
    save_vectors_csv(path, line_set.unit_vectors)


def load_line_set(path) -> LineSet:
    """Load a LineSet written by save_line_set, re-validating invariants.

    The stored unit vectors are taken verbatim (no renormalization), so a
    save/load cycle is bit-exact; unit norm, canonical orientation, and
    pairwise distinctness are checked.
    """
    units = load_vectors_csv(path)
    if not _unit_columns(units):
        raise ParameterOutOfRange("stored line vectors are not unit norm")
    flipped = np.flatnonzero(_oriented_rows(units.T)[1] != 1.0)
    if flipped.size:
        raise ParameterOutOfRange("stored line %d is not canonically oriented" % flipped[0])
    line_set = _assemble_line_set(units)
    pair = _first_collision(line_set.gram)
    if pair is not None:
        raise DuplicateLine("stored lines %d and %d coincide" % pair)
    return line_set
