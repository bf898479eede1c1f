"""Hash partitioning of matrix blocks onto workers.

ReMac "inherits the hash partition scheme of matrices exploited in SystemDS"
(§4.2): a block at grid position (bi, bj) lands on a worker chosen by a hash
of its indexes. The partitioner also answers the two aggregate questions the
cost model asks about a layout (Eq. 6): how many blocks of a matrix a worker
holds (B_U) and how many of those share a row-block index (P_U), which
determines how much BMM can pre-aggregate before its shuffle.
"""

from __future__ import annotations

from collections import defaultdict

from .blocked import BlockedMatrix


def worker_of_block(bi: int, bj: int, num_workers: int) -> int:
    """The worker that hosts block (bi, bj).

    A small multiplicative hash (Knuth's) over the linearized index keeps
    assignments deterministic across runs while spreading consecutive blocks.
    """
    if num_workers <= 0:
        raise ValueError(f"num_workers must be positive, got {num_workers}")
    linear = (bi * 2654435761 + bj * 40503) & 0xFFFFFFFF
    return linear % num_workers


class HashPartitioner:
    """Assigns blocks of a :class:`BlockedMatrix` to ``num_workers`` workers."""

    def __init__(self, num_workers: int):
        if num_workers <= 0:
            raise ValueError(f"num_workers must be positive, got {num_workers}")
        self.num_workers = num_workers

    def assign(self, matrix: BlockedMatrix) -> dict[int, list[tuple[int, int]]]:
        """Map worker id -> list of grid keys of the blocks it hosts."""
        assignment: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for key in matrix.blocks:
            assignment[worker_of_block(*key, self.num_workers)].append(key)
        return dict(assignment)

    def bytes_per_worker(self, matrix: BlockedMatrix) -> list[float]:
        """Serialized bytes of the blocks each worker hosts (Fig. 13 metric)."""
        totals = [0.0] * self.num_workers
        for key, block in matrix.iter_blocks():
            totals[worker_of_block(*key, self.num_workers)] += block.serialized_bytes()
        return totals

    def blocks_per_worker(self, matrix: BlockedMatrix) -> list[int]:
        """Number of materialized blocks per worker."""
        counts = [0] * self.num_workers
        for key in matrix.blocks:
            counts[worker_of_block(*key, self.num_workers)] += 1
        return counts
