"""Unit tests for column partitioning."""

import numpy as np
import pytest

from repro.exceptions import PartitionError
from repro.sparse.partition import ColumnPartition, partition_columns


class TestPartitionColumns:
    def test_even_split(self):
        part = partition_columns(12, 4)
        np.testing.assert_array_equal(part.sizes(), [3, 3, 3, 3])

    def test_remainder_to_first_ranks(self):
        part = partition_columns(10, 4)
        np.testing.assert_array_equal(part.sizes(), [3, 3, 2, 2])

    def test_more_ranks_than_columns(self):
        part = partition_columns(2, 5)
        np.testing.assert_array_equal(part.sizes(), [1, 1, 0, 0, 0])

    def test_single_rank(self):
        part = partition_columns(7, 1)
        assert part.local_slice(0) == slice(0, 7)

    def test_zero_columns(self):
        part = partition_columns(0, 3)
        assert all(part.local_size(p) == 0 for p in range(3))

    def test_invalid_nranks(self):
        with pytest.raises(PartitionError):
            partition_columns(5, 0)

    def test_invalid_m(self):
        with pytest.raises(PartitionError):
            partition_columns(-1, 2)


class TestColumnPartitionQueries:
    @pytest.fixture()
    def part(self):
        return partition_columns(10, 3)  # sizes [4, 3, 3]

    def test_local_slice_and_size(self, part):
        assert part.local_slice(1) == slice(4, 7)
        assert part.local_size(1) == 3

    def test_bad_rank(self, part):
        with pytest.raises(PartitionError):
            part.local_slice(3)

    def test_invalid_offsets(self):
        with pytest.raises(PartitionError):
            ColumnPartition(m=5, nranks=2, offsets=np.array([0, 3]))
        with pytest.raises(PartitionError):
            ColumnPartition(m=5, nranks=2, offsets=np.array([0, 6, 5]))

