"""Transmission volumes of the distributed physical operators.

These formulas implement §4.2 of the paper. They are deliberately shared
between the runtime simulator (which evaluates them with *observed*
metadata) and the optimizer's cost model (which evaluates them with
*estimated* metadata): any gap between predicted and charged cost is then
attributable to the sparsity estimator, which is exactly the DP-MD vs
DP-MNC experiment (§6.3.2).

All volumes are cluster-wide byte counts; :mod:`repro.cluster.network`
converts them to simulated seconds.
"""

from __future__ import annotations

import math

from ..config import ClusterConfig
from ..matrix.formats import StorageFormat, size_in_bytes
from ..matrix.meta import MatrixMeta


def matrix_size(meta: MatrixMeta, force_dense: bool = False) -> float:
    """Format-aware serialized size (``size(V)`` in the paper)."""
    if force_dense:
        return size_in_bytes(meta, StorageFormat.DENSE)
    return size_in_bytes(meta)


def grid_blocks(meta: MatrixMeta, block_size: int) -> tuple[int, int]:
    """Row-block and column-block counts of a matrix's grid."""
    return math.ceil(meta.rows / block_size), math.ceil(meta.cols / block_size)


def bmm_shuffle_bytes(left: MatrixMeta, right: MatrixMeta, out: MatrixMeta,
                      config: ClusterConfig, force_dense: bool = False) -> float:
    """Aggregation-shuffle volume of a broadcast matrix multiply (Eq. 6).

    The distributed side U is cut into ``B_U`` blocks; each produces a
    partial product with the broadcast V. Partials that share a row-block
    index *within one partition* are pre-aggregated before the shuffle, so
    the shuffled count shrinks by ``P_U`` — the expected number of same-row
    blocks co-located on a worker under hash partitioning.
    """
    row_blocks, col_blocks = grid_blocks(left, config.block_size)
    num_blocks = row_blocks * col_blocks  # B_U
    # Hash partitioning spreads a row group's col_blocks over the workers;
    # the ones that land together can pre-aggregate.
    per_partition_same_row = max(1.0, col_blocks / max(1, config.num_workers))  # P_U
    block_rows = min(config.block_size, left.rows)
    block_product = MatrixMeta(block_rows, out.cols, out.sparsity)
    product_bytes = matrix_size(block_product, force_dense)
    return product_bytes * num_blocks / per_partition_same_row


def cpmm_shuffle_bytes(left: MatrixMeta, right: MatrixMeta, out: MatrixMeta,
                       config: ClusterConfig, force_dense: bool = False) -> float:
    """Shuffle volume of a cross-product matrix multiply.

    CPMM joins U and V on the inner dimension — both operands are
    repartitioned (one full shuffle of each) — and then aggregates the cross
    products of inner-dimension groups: roughly one output-sized volume per
    co-located inner group, capped by the worker count.
    """
    join_bytes = matrix_size(left, force_dense) + matrix_size(right, force_dense)
    inner_blocks = math.ceil(left.cols / config.block_size)
    aggregation_fanin = min(inner_blocks, max(1, config.num_workers))
    aggregate_bytes = matrix_size(out, force_dense) * aggregation_fanin
    return join_bytes + aggregate_bytes


def transpose_shuffle_bytes(meta: MatrixMeta, force_dense: bool = False) -> float:
    """Volume of materializing the transpose of a distributed matrix.

    Every block is re-keyed from (i, j) to (j, i); under hash partitioning
    nearly all blocks change workers, so the whole matrix moves once. The
    fused transpose inside BMM/CPMM avoids this — only explicit transposes
    (e.g. hoisted ``T = t(A)``) pay it.
    """
    return matrix_size(meta, force_dense)


