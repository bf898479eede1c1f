"""Blocked matrix substrate: metadata, blocks, grids, formats, partitioning."""

from .block import Block, zeros
from .blocked import DEFAULT_BLOCK_SIZE, BlockedMatrix
from .formats import (
    DENSE_THRESHOLD,
    ULTRA_SPARSE_THRESHOLD,
    StorageFormat,
    choose_format,
    dense_size_in_bytes,
    size_in_bytes,
)
from .meta import DOUBLE_BYTES, MatrixMeta, scalar_meta
from .partitioner import HashPartitioner, worker_of_block

__all__ = [
    "Block", "zeros",
    "BlockedMatrix", "DEFAULT_BLOCK_SIZE",
    "StorageFormat", "choose_format", "size_in_bytes", "dense_size_in_bytes",
    "DENSE_THRESHOLD", "ULTRA_SPARSE_THRESHOLD",
    "MatrixMeta", "scalar_meta", "DOUBLE_BYTES",
    "HashPartitioner", "worker_of_block",
]
