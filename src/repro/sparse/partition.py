"""1-D column partitioning of the data matrix across virtual processors.

The paper distributes ``X`` (features × samples) *column-wise* and the label
vector ``y`` *row-wise* over ``P`` processors (§4.1): each processor owns a
contiguous block of samples and the full feature dimension. This module
computes balanced partitions and each rank's column range.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import PartitionError

__all__ = ["ColumnPartition", "partition_columns"]


@dataclass(frozen=True)
class ColumnPartition:
    """A contiguous block partition of ``m`` columns over ``P`` ranks.

    ``offsets`` has length ``P+1`` with ``offsets[p]:offsets[p+1]`` the
    global column range owned by rank ``p``.
    """

    m: int
    nranks: int
    offsets: np.ndarray

    def __post_init__(self) -> None:
        offsets = np.ascontiguousarray(self.offsets, dtype=np.int64)
        if offsets.size != self.nranks + 1:
            raise PartitionError(
                f"offsets must have length {self.nranks + 1}, got {offsets.size}"
            )
        if offsets[0] != 0 or offsets[-1] != self.m or np.any(np.diff(offsets) < 0):
            raise PartitionError("offsets must be a non-decreasing 0..m ramp")
        object.__setattr__(self, "offsets", offsets)

    # ------------------------------------------------------------------ #
    def local_slice(self, rank: int) -> slice:
        """Global column range owned by *rank* as a slice."""
        self._check_rank(rank)
        return slice(int(self.offsets[rank]), int(self.offsets[rank + 1]))

    def local_size(self, rank: int) -> int:
        """Number of columns owned by *rank*."""
        self._check_rank(rank)
        return int(self.offsets[rank + 1] - self.offsets[rank])

    def sizes(self) -> np.ndarray:
        """Columns per rank."""
        return np.diff(self.offsets)

    def _check_rank(self, rank: int) -> None:
        if not (0 <= rank < self.nranks):
            raise PartitionError(f"rank {rank} out of range [0, {self.nranks})")


def partition_columns(m: int, nranks: int) -> ColumnPartition:
    """Balanced contiguous partition of *m* columns over *nranks* ranks.

    The first ``m % nranks`` ranks receive one extra column. Ranks may own
    zero columns when ``nranks > m`` — the solvers handle empty blocks.
    """
    if nranks <= 0:
        raise PartitionError(f"nranks must be positive, got {nranks}")
    if m < 0:
        raise PartitionError(f"m must be non-negative, got {m}")
    base, extra = divmod(m, nranks)
    sizes = np.full(nranks, base, dtype=np.int64)
    sizes[:extra] += 1
    offsets = np.zeros(nranks + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    return ColumnPartition(m=m, nranks=nranks, offsets=offsets)

