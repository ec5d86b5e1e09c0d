"""The allreduce tree reduction reuses its level buffers instead of copying.

``allreduce_values`` combines pairs in place into scratch buffers it owns;
these tests pin that the result equals the copying reference tree bit for
bit, and that the inputs are never mutated or aliased by the result.
"""

import numpy as np
import pytest

from repro.distsim import collectives as coll


def _reference_allreduce(arrays, combine=np.add):
    """The pre-optimization tree reduction: copies at every level."""
    level = [a.copy() for a in arrays]
    while len(level) > 1:
        nxt = []
        for i in range(0, len(level) - 1, 2):
            nxt.append(combine(level[i], level[i + 1]))
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    return level[0]


class TestAllreduceBufferReuse:
    """The in-place tree reduction is equivalent to the copying original."""

    @pytest.mark.parametrize("nranks", [1, 2, 3, 5, 8, 16, 17])
    @pytest.mark.parametrize("combine", [np.add, np.maximum, np.multiply])
    def test_matches_reference_tree(self, nranks, combine):
        rng = np.random.default_rng(nranks)
        arrays = [rng.standard_normal(37) for _ in range(nranks)]
        snapshots = [a.copy() for a in arrays]
        out = coll.allreduce_values(arrays, op=combine)
        ref = _reference_allreduce(snapshots, combine=combine)
        assert np.array_equal(out, ref)

    @pytest.mark.parametrize("nranks", [1, 2, 5, 16])
    def test_never_mutates_or_aliases_inputs(self, nranks):
        rng = np.random.default_rng(7)
        arrays = [rng.standard_normal(12) for _ in range(nranks)]
        snapshots = [a.copy() for a in arrays]
        out = coll.allreduce_values(arrays)
        for arr, snap in zip(arrays, snapshots):
            assert np.array_equal(arr, snap)
            assert not np.shares_memory(out, arr)
        out += 1.0  # the result is a private, writable buffer

    def test_custom_python_combiner_still_works(self):
        arrays = [np.full(4, float(i + 1)) for i in range(5)]

        def combine(a, b):
            return np.minimum(a, b)

        out = coll.allreduce_values(arrays, op=combine)
        np.testing.assert_array_equal(out, np.full(4, 1.0))
