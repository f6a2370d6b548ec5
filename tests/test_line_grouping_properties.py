"""Property test: weights_from_columns groups columns as the former loop did."""

import pytest

pytest.importorskip("hypothesis")

import numpy as np  # noqa: E402
from hypothesis import given, settings, strategies as st  # noqa: E402

from test_lines import assert_columns_match_reference  # noqa: E402

# Each column is a base direction turned by an angle t with
# 1 - cos t = nudge * 1e-9 (the collinearity tolerance), toward +-a fixed
# orthogonal direction, then scaled; nudges on both sides of 1 make near
# collisions that chain without being transitive.
NUDGES = [0.0, 0.3, 0.9, 1.1, 1.8, 3.5]
COLUMN = st.tuples(
    st.integers(0, 3),
    st.sampled_from(NUDGES),
    st.sampled_from([-1.0, 1.0]),
    st.sampled_from([-4.0, -1.0, 0.5, 1.0, 7.0]),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(d=st.integers(2, 4), seed=st.integers(0, 2**16),
       columns=st.lists(COLUMN, min_size=1, max_size=12))
def test_grouping_matches_the_loop(d, seed, columns):
    rng = np.random.default_rng(seed)
    bases, _ = np.linalg.qr(rng.standard_normal((d, d)))
    turn = bases[:, -1]  # orthogonal to every base direction but the last
    matrix = np.empty((d, len(columns)))
    for i, (base, nudge, side, scale) in enumerate(columns):
        b = bases[:, base % (d - 1)]
        t = side * np.arccos(1.0 - nudge * 1e-9)
        matrix[:, i] = scale * (np.cos(t) * b + np.sin(t) * turn)
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_columns_match_reference(monkeypatch, matrix)
