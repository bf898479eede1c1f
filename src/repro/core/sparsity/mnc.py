"""MNC: matrix non-zero count sketches (Sommer et al., SIGMOD 2019 [27]).

The sketch of a matrix is its exact per-row and per-column non-zero count
vectors (h^r, h^c). Operators propagate these counts: a multiply pairs
column counts of the left with row counts of the right over the shared
inner dimension, applying a birthday-style collision correction (the "Edm"
expectation the paper's footnote selects). Unlike the metadata estimator,
MNC *sees skew*: a Zipf-distributed matrix concentrates its counts in few
rows/columns, producing much denser product estimates for the hot rows —
exactly the effect behind the zipf-2.1/2.8 plan changes in §6.5.

Building a sketch requires one pass over the data; that work accumulates in
``stats_collection_flops`` and the optimizer bills it to compilation time,
reproducing MNC's estimation overhead in Fig. 10(a).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ...errors import ShapeError
from ...matrix.meta import MatrixMeta
from .base import SparsityEstimator, to_support_arrays


@dataclass(frozen=True)
class MNCSketch:
    """Row/column non-zero count vectors of a matrix."""

    rows: int
    cols: int
    row_counts: np.ndarray  # shape (rows,), float64 expected counts
    col_counts: np.ndarray  # shape (cols,)

    @cached_property
    def nnz(self) -> float:
        """Summed once: a product reads it of both operands, and so does
        every ``meta`` of the sketch."""
        return float(self.row_counts.sum())

    @property
    def sparsity(self) -> float:
        cells = self.rows * self.cols
        return min(1.0, self.nnz / cells) if cells else 0.0


def _collision_correct(candidates: np.ndarray, capacity: float) -> None:
    """Replace ``candidates`` (float64, owned by the caller) by the expected
    distinct cells their uniform throws hit.

    ``capacity * (1 - (1 - 1/capacity)^candidates)`` — the same correction
    MNC applies when candidate non-zero pairs may collide in one output
    cell. Written in place; ``-capacity * expm1(...)`` rounds exactly as
    ``capacity * -expm1(...)`` does.
    """
    np.minimum(candidates, 1e18, out=candidates)
    if capacity <= 1.0:
        np.minimum(candidates, capacity, out=candidates)
        return
    np.multiply(candidates, np.log1p(-1.0 / capacity), out=candidates)
    np.expm1(candidates, out=candidates)
    np.multiply(candidates, -capacity, out=candidates)


class MNCEstimator(SparsityEstimator):
    """Structure-exploiting estimator over non-zero count sketches."""

    name = "mnc"

    def sketch_data(self, data, symmetric: bool = False) -> MNCSketch:
        rows, cols, row_counts, col_counts, nnz = to_support_arrays(data)
        # One full scan of the data plus histogram aggregation.
        self.stats_collection_flops += 2.0 * nnz + rows + cols
        return MNCSketch(rows, cols, row_counts.astype(np.float64),
                         col_counts.astype(np.float64))

    def sketch_meta(self, meta: MatrixMeta) -> MNCSketch:
        row_counts = np.full(meta.rows, meta.sparsity * meta.cols)
        col_counts = np.full(meta.cols, meta.sparsity * meta.rows)
        return MNCSketch(meta.rows, meta.cols, row_counts, col_counts)

    # ------------------------------------------------------------------
    # Operators
    # ------------------------------------------------------------------
    def matmul(self, left: MNCSketch, right: MNCSketch) -> MNCSketch:
        if left.cols != right.rows:
            raise ShapeError(f"matmul shape mismatch: {left.cols} vs {right.rows}")
        # Candidate non-zero products per inner index j: every non-zero in
        # column j of the left meets every non-zero in row j of the right.
        candidates_per_inner = left.col_counts * right.row_counts
        total_candidates = float(candidates_per_inner.sum())
        left_nnz = max(left.nnz, 1e-12)
        right_nnz = max(right.nnz, 1e-12)
        # Apportion candidates to output rows proportionally to the left's
        # row counts (row i contributes h^r_L[i]/nnz_L of the pairings),
        # then correct for collisions within each output row of width cols.
        row_counts = left.row_counts * (total_candidates / left_nnz)
        col_counts = right.col_counts * (total_candidates / right_nnz)
        _collision_correct(row_counts, float(right.cols))
        _collision_correct(col_counts, float(left.rows))
        # Keep the two marginals consistent: scale columns to the row total.
        row_total = float(np.sum(row_counts))
        col_total = float(np.sum(col_counts))
        if col_total > 0:
            col_counts *= row_total / col_total
        product = MNCSketch(left.rows, right.cols, row_counts, col_counts)
        product.__dict__["nnz"] = row_total  # what ``nnz`` would sum again
        return product

    def transpose(self, operand: MNCSketch) -> MNCSketch:
        return MNCSketch(operand.cols, operand.rows,
                         operand.col_counts, operand.row_counts)

    def add(self, left: MNCSketch, right: MNCSketch) -> MNCSketch:
        left, right = self._broadcast(left, right)
        row_counts = np.minimum(left.row_counts + right.row_counts, left.cols)
        col_counts = np.minimum(left.col_counts + right.col_counts, left.rows)
        return MNCSketch(left.rows, left.cols, row_counts, col_counts)

    def multiply(self, left: MNCSketch, right: MNCSketch) -> MNCSketch:
        if left.rows == 1 and left.cols == 1:
            return right
        if right.rows == 1 and right.cols == 1:
            return left
        # Intersection under uniformity within each row/column.
        row_counts = left.row_counts * right.row_counts / max(left.cols, 1)
        col_counts = left.col_counts * right.col_counts / max(left.rows, 1)
        return MNCSketch(left.rows, left.cols, row_counts, col_counts)

    def scalar_op(self, operand: MNCSketch, preserves_zero: bool) -> MNCSketch:
        if preserves_zero:
            return operand
        return MNCSketch(operand.rows, operand.cols,
                         np.full(operand.rows, float(operand.cols)),
                         np.full(operand.cols, float(operand.rows)))

    def _broadcast(self, left: MNCSketch, right: MNCSketch) -> tuple[MNCSketch, MNCSketch]:
        """Expand a 1x1 sketch to the other operand's shape (dense)."""
        if left.rows == 1 and left.cols == 1 and (right.rows, right.cols) != (1, 1):
            dense = self.sketch_meta(MatrixMeta(right.rows, right.cols, 1.0))
            return dense, right
        if right.rows == 1 and right.cols == 1 and (left.rows, left.cols) != (1, 1):
            dense = self.sketch_meta(MatrixMeta(left.rows, left.cols, 1.0))
            return left, dense
        return left, right

    def meta(self, sketch: MNCSketch) -> MatrixMeta:
        return MatrixMeta(sketch.rows, sketch.cols, sketch.sparsity)
