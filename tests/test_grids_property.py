"""Property tests of the lattice neighbour count against brute-force loops."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from fraclab.grids import _neighbor_counts  # noqa: E402


def brute_counts(mask):
    counts = np.zeros(mask.shape, dtype=int)
    for idx in np.ndindex(mask.shape):
        for ax in range(mask.ndim):
            for step in (-1, 1):
                j = list(idx)
                j[ax] += step
                if 0 <= j[ax] < mask.shape[ax] and mask[tuple(j)]:
                    counts[idx] += 1
    return counts


shapes = st.one_of(
    st.tuples(st.integers(1, 16)),
    st.tuples(st.integers(1, 9), st.integers(1, 9)),
)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_neighbor_counts_match_brute_force(data):
    mask = data.draw(arrays(bool, data.draw(shapes)))
    np.testing.assert_array_equal(_neighbor_counts(mask), brute_counts(mask))
