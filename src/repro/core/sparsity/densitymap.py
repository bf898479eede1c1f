"""Density-map sparsity estimator (SpMacho / Kernert et al., EDBT 2015 [19]).

The sketch is a coarse g x g grid of cell densities. A multiply combines
grids with the uniform product rule applied *per grid cell pair*, which
keeps localized structure (a dense corner stays a dense corner). Cheaper to
propagate than MNC's full count vectors but coarser; the paper cites it as
one of the "accurate" estimator family.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse as sp

from ...errors import ShapeError
from ...matrix.blocked import BlockedMatrix
from ...matrix.meta import MatrixMeta
from .base import SparsityEstimator

DEFAULT_GRID = 16


@dataclass(frozen=True)
class DensityMapSketch:
    """A g x g density grid over the matrix's cells."""

    rows: int
    cols: int
    grid: np.ndarray  # shape (g, g) densities in [0, 1]

    @property
    def sparsity(self) -> float:
        # Grid buckets may be ragged at the edges; at the estimator's level
        # of precision a plain mean is the right readout.
        return float(np.clip(self.grid.mean(), 0.0, 1.0))


def _bucket_edges(extent: int, buckets: int) -> np.ndarray:
    return np.linspace(0, extent, buckets + 1).astype(np.int64)


class DensityMapEstimator(SparsityEstimator):
    """Grid-of-densities estimator."""

    name = "densitymap"

    def __init__(self, grid_size: int = DEFAULT_GRID):
        super().__init__()
        self.grid_size = grid_size

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def sketch_data(self, data, symmetric: bool = False) -> DensityMapSketch:
        if isinstance(data, BlockedMatrix):
            matrix = sp.csr_matrix(data.to_numpy()) if data.sparsity > 0.4 else \
                sp.csr_matrix(data.to_numpy())
        elif sp.issparse(data):
            matrix = data.tocsr()
        else:
            matrix = sp.csr_matrix(np.atleast_2d(np.asarray(data)))
        rows, cols = matrix.shape
        g = min(self.grid_size, rows, cols) or 1
        coo = matrix.tocoo()
        self.stats_collection_flops += 2.0 * coo.nnz
        row_edges = _bucket_edges(rows, g)
        col_edges = _bucket_edges(cols, g)
        row_bucket = np.searchsorted(row_edges, coo.row, side="right") - 1
        col_bucket = np.searchsorted(col_edges, coo.col, side="right") - 1
        counts = np.zeros((g, g))
        np.add.at(counts, (row_bucket, col_bucket), 1.0)
        heights = np.diff(row_edges).astype(np.float64)
        widths = np.diff(col_edges).astype(np.float64)
        areas = np.outer(heights, widths)
        areas[areas == 0] = 1.0
        return DensityMapSketch(rows, cols, np.clip(counts / areas, 0.0, 1.0))

    def sketch_meta(self, meta: MatrixMeta) -> DensityMapSketch:
        g = min(self.grid_size, meta.rows, meta.cols) or 1
        return DensityMapSketch(meta.rows, meta.cols,
                                np.full((g, g), meta.sparsity))

    # ------------------------------------------------------------------
    # Operators
    # ------------------------------------------------------------------
    def _align(self, left: DensityMapSketch,
               right: DensityMapSketch) -> tuple[np.ndarray, np.ndarray]:
        g = max(left.grid.shape[0], right.grid.shape[0])
        return _resample(left.grid, g), _resample(right.grid, g)

    def matmul(self, left: DensityMapSketch, right: DensityMapSketch) -> DensityMapSketch:
        if left.cols != right.rows:
            raise ShapeError(f"matmul shape mismatch: {left.cols} vs {right.rows}")
        a, b = self._align(left, right)
        g = a.shape[0]
        inner_per_bucket = left.cols / g
        # P(cell zero) = prod_j (1 - dA*dB)^(inner cells in bucket j)
        log_zero = np.zeros((g, g))
        for j in range(g):
            pair = np.outer(a[:, j], b[j, :])
            log_zero += inner_per_bucket * np.log1p(-np.clip(pair, 0.0, 1.0 - 1e-12))
        density = -np.expm1(log_zero)
        return DensityMapSketch(left.rows, right.cols, np.clip(density, 0.0, 1.0))

    def transpose(self, operand: DensityMapSketch) -> DensityMapSketch:
        return DensityMapSketch(operand.cols, operand.rows, operand.grid.T.copy())

    def add(self, left: DensityMapSketch, right: DensityMapSketch) -> DensityMapSketch:
        left, right = self._broadcast(left, right)
        a, b = self._align(left, right)
        return DensityMapSketch(left.rows, left.cols, a + b - a * b)

    def multiply(self, left: DensityMapSketch, right: DensityMapSketch) -> DensityMapSketch:
        if left.rows == 1 and left.cols == 1:
            return right
        if right.rows == 1 and right.cols == 1:
            return left
        a, b = self._align(left, right)
        return DensityMapSketch(left.rows, left.cols, a * b)

    def scalar_op(self, operand: DensityMapSketch, preserves_zero: bool) -> DensityMapSketch:
        if preserves_zero:
            return operand
        return DensityMapSketch(operand.rows, operand.cols,
                                np.ones_like(operand.grid))

    def _broadcast(self, left: DensityMapSketch,
                   right: DensityMapSketch) -> tuple[DensityMapSketch, DensityMapSketch]:
        if left.rows == 1 and left.cols == 1 and (right.rows, right.cols) != (1, 1):
            return self.sketch_meta(MatrixMeta(right.rows, right.cols, 1.0)), right
        if right.rows == 1 and right.cols == 1 and (left.rows, left.cols) != (1, 1):
            return left, self.sketch_meta(MatrixMeta(left.rows, left.cols, 1.0))
        return left, right

    def meta(self, sketch: DensityMapSketch) -> MatrixMeta:
        return MatrixMeta(sketch.rows, sketch.cols, sketch.sparsity)


def _resample(grid: np.ndarray, size: int) -> np.ndarray:
    """Nearest-neighbour resample of a square density grid."""
    current = grid.shape[0]
    if current == size:
        return grid
    idx = (np.arange(size) * current // size).clip(0, current - 1)
    return grid[np.ix_(idx, idx)]
