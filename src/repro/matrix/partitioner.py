"""Hash partitioning of matrix blocks onto workers.

ReMac "inherits the hash partition scheme of matrices exploited in SystemDS"
(§4.2): a block at grid position (bi, bj) lands on a worker chosen by a hash
of its indexes.
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
