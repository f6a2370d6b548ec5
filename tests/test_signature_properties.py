"""Property test: decompose_weights reads each neuron's orientation as the
sign of its scalar on its line, and its mass as the column norm."""

import math

import pytest

pytest.importorskip("hypothesis")

import numpy as np  # noqa: E402
from hypothesis import given, settings, strategies as st  # noqa: E402

import porcupine as p  # noqa: E402

# Axes and equiangular planar lines carry exact zero entries; random lines
# do not.
LINE_SETS = st.one_of(
    st.integers(1, 4).map(p.axes_line_set),
    st.integers(2, 6).map(p.equiangular_2d),
    st.tuples(st.integers(2, 5), st.integers(1, 6), st.integers(0, 2**16)).map(
        lambda a: p.random_line_set(*a)
    ),
)
# Signed scalars: exact zeros of both signs, or magnitudes far from ZERO_TOL.
SCALARS = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(1e-6, 1e6)).map(lambda a: a[0] * a[1]),
)


@st.composite
def networks(draw):
    line_set = draw(LINE_SETS)
    r = line_set.num_lines
    extra = draw(st.lists(st.integers(0, r - 1), max_size=6))
    assignment = draw(st.permutations(list(range(r)) + extra))
    scalars = draw(st.lists(SCALARS, min_size=len(assignment), max_size=len(assignment)))
    return line_set, p.NeuronLineMap(len(assignment), tuple(assignment)), scalars


@settings(max_examples=120, deadline=None, derandomize=True)
@given(networks())
def test_signs_flags_and_masses(network):
    line_set, neuron_map, scalars = network
    w = p.weights_from_masses(line_set, neuron_map, scalars)
    q, signature = p.decompose_weights(w)
    want_q = [0.0] * line_set.num_lines
    want_signs = [[] for _ in range(line_set.num_lines)]
    want_nonzero = [[] for _ in range(line_set.num_lines)]
    for i, (line, c) in enumerate(zip(neuron_map.assignment, scalars)):
        want_q[line] += math.sqrt(sum(x * x for x in w.matrix[:, i]))
        want_signs[line].append(-1 if c < 0 else 1)
        want_nonzero[line].append(c != 0)
    assert signature.signs == tuple(map(tuple, want_signs))
    assert signature.nonzero == tuple(map(tuple, want_nonzero))
    np.testing.assert_array_equal(q, want_q)
