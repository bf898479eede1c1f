"""Exact sparsity oracle: propagates the true boolean support.

Prohibitively expensive in a real optimizer — it *computes* every
intermediate's support — but invaluable as a testing oracle: estimator
tests compare MNC/metadata/density-map answers to this one, and the
"perfect estimator" ablation benchmarks use it to isolate how much plan
quality the estimators give up.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse as sp

from ...errors import ShapeError
from ...matrix.blocked import BlockedMatrix
from ...matrix.meta import MatrixMeta
from .base import SparsityEstimator


@dataclass(frozen=True)
class ExactSketch:
    """The true boolean support of a matrix."""

    support: sp.csr_matrix  # boolean CSR

    @property
    def shape(self) -> tuple[int, int]:
        return self.support.shape

    @property
    def sparsity(self) -> float:
        rows, cols = self.support.shape
        cells = rows * cols
        return self.support.nnz / cells if cells else 0.0


def _as_bool_csr(data) -> sp.csr_matrix:
    if isinstance(data, BlockedMatrix):
        data = data.to_numpy()
    if sp.issparse(data):
        matrix = data.tocsr().astype(bool)
    else:
        matrix = sp.csr_matrix(np.atleast_2d(np.asarray(data)) != 0)
    matrix.eliminate_zeros()
    return matrix.astype(bool)


def _spread(cell: ExactSketch, shape: tuple[int, int]) -> ExactSketch:
    """The 1x1 support ``cell`` broadcast to ``shape``."""
    if cell.support.count_nonzero():
        return ExactSketch(sp.csr_matrix(np.ones(shape, dtype=bool)))
    return _empty(shape)


def _empty(shape: tuple[int, int]) -> ExactSketch:
    return ExactSketch(sp.csr_matrix(shape, dtype=bool))


class ExactEstimator(SparsityEstimator):
    """Oracle estimator over true supports."""

    name = "exact"

    def sketch_data(self, data, symmetric: bool = False) -> ExactSketch:
        support = _as_bool_csr(data)
        self.stats_collection_flops += float(support.nnz)
        return ExactSketch(support)

    def sketch_meta(self, meta: MatrixMeta) -> ExactSketch:
        # Without data we can only fabricate a uniform support with the
        # right nnz; deterministic so plans are reproducible.
        rng = np.random.default_rng(meta.rows * 2654435761 + meta.cols)
        support = sp.random(meta.rows, meta.cols, density=min(1.0, meta.sparsity),
                            format="csr", random_state=rng, dtype=np.float64)
        return ExactSketch(support.astype(bool))

    def matmul(self, left: ExactSketch, right: ExactSketch) -> ExactSketch:
        if left.shape[1] != right.shape[0]:
            raise ShapeError(
                f"matmul shape mismatch: {left.shape[1]} vs {right.shape[0]}")
        # A boolean product ORs the products of a cell; a count would have
        # to be wide enough for every inner dimension (an 8-bit count of
        # 256 read as 0 and dropped the cell from the support).
        product = (left.support.astype(bool, copy=False)
                   @ right.support.astype(bool, copy=False))
        return ExactSketch(product.tocsr())

    def transpose(self, operand: ExactSketch) -> ExactSketch:
        return ExactSketch(operand.support.T.tocsr())

    def add(self, left: ExactSketch, right: ExactSketch) -> ExactSketch:
        left, right = self._broadcast(left, right)
        return ExactSketch((left.support + right.support).astype(bool).tocsr())

    def multiply(self, left: ExactSketch, right: ExactSketch) -> ExactSketch:
        # A 1x1 factor is a scalar: it keeps the other's support, or
        # clears it if it is zero.
        if left.shape == (1, 1):
            return right if left.support.count_nonzero() else _empty(right.shape)
        if right.shape == (1, 1):
            return left if right.support.count_nonzero() else _empty(left.shape)
        return ExactSketch(left.support.multiply(right.support).astype(bool).tocsr())

    def divide(self, left: ExactSketch, right: ExactSketch) -> ExactSketch:
        """The numerator's support (denominators are dense), spread over
        the denominator's shape when the numerator is a 1x1 scalar."""
        if left.shape == (1, 1) and right.shape != (1, 1):
            return _spread(left, right.shape)
        return left

    def scalar_op(self, operand: ExactSketch, preserves_zero: bool) -> ExactSketch:
        if preserves_zero:
            return operand
        rows, cols = operand.shape
        return ExactSketch(sp.csr_matrix(np.ones((rows, cols), dtype=bool)))

    def _broadcast(self, left: ExactSketch, right: ExactSketch) -> tuple[ExactSketch, ExactSketch]:
        """A 1x1 operand beside a larger one is a scalar: spread over the
        other's shape it covers every cell, or none if it is zero."""
        if left.shape == (1, 1) and right.shape != (1, 1):
            return _spread(left, right.shape), right
        if right.shape == (1, 1) and left.shape != (1, 1):
            return left, _spread(right, left.shape)
        return left, right

    def meta(self, sketch: ExactSketch) -> MatrixMeta:
        rows, cols = sketch.shape
        return MatrixMeta(rows, cols, sketch.sparsity)
