"""Sparsity estimator interface.

The cost model's accuracy hinges on output-sparsity estimates (§4.2: "the
matrix sparsity directly decides FLOP_O in compute_O and D_pr in
transmit_O"). Estimators trade accuracy for estimation cost; the paper
evaluates the metadata-based estimator (fast, uniform assumption) against
MNC (structure-exploiting sketches that must be collected from the data).

Each estimator works on its own *sketch* type. A sketch always exposes the
resulting :class:`~repro.matrix.meta.MatrixMeta` via :meth:`SparsityEstimator.
meta`; richer estimators carry per-row/column structure through operators.

``stats_collection_flops`` accumulates the work spent scanning input data to
build sketches — the optimizer charges it to compilation time, reproducing
MNC's "additional operations to collect necessary statistics" overhead.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any

import numpy as np
from scipy import sparse

from ...matrix.blocked import BlockedMatrix
from ...matrix.meta import MatrixMeta

Sketch = Any


class SparsityEstimator(ABC):
    """Propagates sparsity (and possibly structure) through operators."""

    #: Short name used in configs and benchmark labels.
    name: str = "base"

    def __init__(self) -> None:
        #: FLOPs spent scanning data for statistics (charged to compilation).
        self.stats_collection_flops: float = 0.0

    # ------------------------------------------------------------------
    # Sketch construction
    # ------------------------------------------------------------------
    @abstractmethod
    def sketch_data(self, data, symmetric: bool = False) -> Sketch:
        """Build a sketch from actual matrix data."""

    @abstractmethod
    def sketch_meta(self, meta: MatrixMeta) -> Sketch:
        """Build a sketch from metadata alone (no data available)."""

    def scalar(self) -> Sketch:
        """Sketch of a dense scalar (1x1)."""
        return self.sketch_meta(MatrixMeta(1, 1, 1.0))

    # ------------------------------------------------------------------
    # Operator propagation
    # ------------------------------------------------------------------
    @abstractmethod
    def matmul(self, left: Sketch, right: Sketch) -> Sketch: ...

    @abstractmethod
    def transpose(self, operand: Sketch) -> Sketch: ...

    @abstractmethod
    def add(self, left: Sketch, right: Sketch) -> Sketch: ...

    @abstractmethod
    def multiply(self, left: Sketch, right: Sketch) -> Sketch: ...

    def subtract(self, left: Sketch, right: Sketch) -> Sketch:
        """Support-wise, subtraction behaves like addition (union)."""
        return self.add(left, right)

    def divide(self, left: Sketch, right: Sketch) -> Sketch:
        """Division keeps the numerator support (denominators are dense);
        a 1x1 numerator is a scalar, spread over the denominator's shape."""
        numerator, denominator = self.meta(left), self.meta(right)
        if numerator.is_scalar_like and not denominator.is_scalar_like:
            return self.sketch_meta(MatrixMeta(
                denominator.rows, denominator.cols, numerator.sparsity))
        return left

    @abstractmethod
    def scalar_op(self, operand: Sketch, preserves_zero: bool) -> Sketch:
        """Cell-wise combination with a scalar (x*c keeps zeros, x+c does not)."""

    # ------------------------------------------------------------------
    # Readout
    # ------------------------------------------------------------------
    @abstractmethod
    def meta(self, sketch: Sketch) -> MatrixMeta:
        """The estimated metadata of a sketch."""


#: Cells of the 0/1 mask :func:`_dense_counts` holds at once (512 KiB).
_SLAB_CELLS = 1 << 16


def to_support_arrays(data) -> tuple[int, int, np.ndarray, np.ndarray, int]:
    """Row/column non-zero counts of any accepted matrix input.

    Returns (rows, cols, row_counts, col_counts, nnz). This is the single
    scan that structure-exploiting estimators pay for. A stored sparse
    entry counts even when it holds zero; a dense NaN counts, -0.0 not.
    """
    if isinstance(data, BlockedMatrix):
        rows, cols = data.shape
        row_counts = np.zeros(rows, dtype=np.int64)
        col_counts = np.zeros(cols, dtype=np.int64)
        size = data.block_size
        for (bi, bj), block in data.iter_blocks():
            payload = block.data
            height, width = payload.shape
            if sparse.issparse(payload):
                coo = payload.tocoo()
                tile_rows = np.bincount(coo.row, minlength=height)
                tile_cols = np.bincount(coo.col, minlength=width)
            else:
                tile_rows, tile_cols = _dense_counts(payload)
            row_counts[bi * size:bi * size + height] += tile_rows
            col_counts[bj * size:bj * size + width] += tile_cols
        return rows, cols, row_counts, col_counts, int(row_counts.sum())
    if sparse.issparse(data):
        csr = data.tocsr()
        rows, cols = csr.shape
        row_counts = np.diff(csr.indptr).astype(np.int64)
        col_counts = np.bincount(csr.indices, minlength=cols).astype(np.int64)
        return rows, cols, row_counts, col_counts, int(csr.nnz)
    array = np.atleast_2d(np.asarray(data))
    rows, cols = array.shape
    row_counts, col_counts = _dense_counts(array)
    return rows, cols, row_counts, col_counts, int(row_counts.sum())


def _dense_counts(array: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact int64 non-zero counts per row and per column of a 2-D array.

    A vector's mask is its own count along the long axis. A matrix is read
    in row slabs of at most :data:`_SLAB_CELLS` cells: each slab's 0/1
    mask (float64, so the counts are exact below 2**53) meets a vector of
    ones once per axis, one BLAS pass each, where summing a bool mask
    casts it to integers per axis.
    """
    rows, cols = array.shape
    if rows == 1 or cols == 1:
        flat = np.empty(rows * cols, dtype=np.int64)
        np.not_equal(array.reshape(-1), 0, out=flat)
        total = np.array([np.count_nonzero(flat)], dtype=np.int64)
        return (flat, total) if cols == 1 else (total, flat)
    step = max(1, _SLAB_CELLS // max(cols, 1))
    mask = np.empty((min(step, rows), cols))
    ones_rows, ones_cols = np.ones(len(mask)), np.ones(cols)
    row_counts = np.empty(rows)
    col_counts = np.zeros(cols)
    for start in range(0, rows, step):
        slab = mask[:min(step, rows - start)]
        np.not_equal(array[start:start + step], 0, out=slab)
        np.dot(slab, ones_cols, out=row_counts[start:start + len(slab)])
        col_counts += ones_rows[:len(slab)] @ slab
    return row_counts.astype(np.int64), col_counts.astype(np.int64)


def observed_meta(data) -> MatrixMeta:
    """Observed MatrixMeta of any accepted matrix input."""
    rows, cols, _row_counts, _col_counts, nnz = to_support_arrays(data)
    return MatrixMeta(rows, cols, nnz / (rows * cols) if rows * cols else 0.0)
