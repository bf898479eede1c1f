"""FLOP counting for logical operators (Eq. 4 of the paper).

``FLOP_O`` for a matrix multiplication of U (R_U x C_U, sparsity S_U) and
V (C_U x C_V, sparsity S_V) is ``3 * R_U * C_U * C_V * S_U * S_V`` — the
paper's decomposition into ``2x`` multiply-adds plus ``1x`` additions. The
same counts price the runtime's simulated compute time (with observed
sparsities) and the optimizer's cost model (with estimated sparsities), so
the two disagree only when the estimator does.
"""

from __future__ import annotations

from .meta import MatrixMeta


def matmul_flops(left: MatrixMeta, right: MatrixMeta) -> float:
    """FLOPs of ``left @ right`` per the paper's 3*R*C*C*S*S formula."""
    left.matmul_shape(right)
    return 3.0 * left.rows * left.cols * right.cols * left.sparsity * right.sparsity


def ewise_add_flops(left: MatrixMeta, right: MatrixMeta) -> float:
    """FLOPs of a cell-wise add/subtract: touch the union of supports."""
    rows, cols = left.ewise_shape(right)
    if left.is_scalar_like or right.is_scalar_like:
        big = right if left.is_scalar_like else left
        return float(big.cells)
    return (left.sparsity + right.sparsity) * rows * cols


def ewise_mul_flops(left: MatrixMeta, right: MatrixMeta) -> float:
    """FLOPs of a cell-wise multiply: touch the smaller support."""
    rows, cols = left.ewise_shape(right)
    if left.is_scalar_like and not right.is_scalar_like:
        return right.nnz
    if right.is_scalar_like and not left.is_scalar_like:
        return left.nnz
    return min(left.sparsity, right.sparsity) * rows * cols


def ewise_div_flops(left: MatrixMeta, right: MatrixMeta) -> float:
    """FLOPs of a cell-wise divide: numerator support."""
    del right
    return left.nnz if not left.is_scalar_like else 1.0


_EWISE_FLOPS = {"add": ewise_add_flops, "subtract": ewise_add_flops,
                "multiply": ewise_mul_flops, "divide": ewise_div_flops}


def ewise_flops(kind: str, left: MatrixMeta, right: MatrixMeta) -> float:
    """Dispatch the cell-wise FLOP formula by operator kind.

    A fused element-wise region touches exactly the cells its member
    operators touch, so its FLOP count is the plain sum of these — fusion
    saves materialization and transmission, never arithmetic.
    """
    return _EWISE_FLOPS[kind](left, right)


def transpose_flops(meta: MatrixMeta) -> float:
    """FLOPs (really: cell touches) of a materialized transpose."""
    return meta.nnz


def aggregate_flops(meta: MatrixMeta) -> float:
    """FLOPs of a full aggregation such as ``sum(X)``."""
    return meta.nnz
