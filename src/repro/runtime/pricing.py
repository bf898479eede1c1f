"""Shared operator pricing: one set of formulas for model and runtime.

:func:`price_matmul` / :func:`price_ewise` / :func:`price_transpose` return
an :class:`OpPrice` — compute seconds plus a tuple of transmissions — from
operand/output metadata. The runtime evaluates them with *observed* metas
and charges the simulated clock; the optimizer's cost model evaluates them
with *estimated* metas and sums them into plan costs. Keeping both on this
module means a cost-model error can only come from metadata error (the
sparsity estimator), never from diverging formulas.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import ClusterConfig
from ..cluster.network import BROADCAST, COLLECT, DFS, SHUFFLE, broadcast_volume, transmission_seconds
from ..matrix import ops as flops
from ..matrix.meta import MatrixMeta
from . import volumes
from .hybrid import (
    BMM,
    BMM_FLIPPED,
    CPMM,
    LOCAL,
    ExecutionPolicy,
    decide_ewise,
    decide_matmul,
    decide_transpose,
    value_distributed,
)


@dataclass(frozen=True)
class OpPrice:
    """Priced execution of one physical operator.

    Immutable: the runtime computes a price once per distinct operand
    metadata and charges that one instance on every later iteration
    (``Kernels._priced``), handing it to the tracer and to recovery by
    reference.
    """

    impl: str
    compute_seconds: float
    #: (primitive, cluster-wide bytes) pairs.
    transmissions: tuple[tuple[str, float], ...] = ()
    output_distributed: bool = False
    _config: ClusterConfig | None = None

    @property
    def transmission_seconds(self) -> float:
        if self._config is None:
            return 0.0
        return sum(transmission_seconds(self._config, prim, nbytes)
                   for prim, nbytes in self.transmissions)

    @property
    def seconds(self) -> float:
        """Total simulated seconds (the c_O = compute_O + transmit_O of Eq. 3)."""
        return self.compute_seconds + self.transmission_seconds


def _compute_seconds(flop_count: float, distributed: bool, config: ClusterConfig,
                     imbalance: float = 1.0) -> float:
    peak = config.cluster_flops if distributed else config.driver_flops
    return imbalance * flop_count / peak


def _size(meta: MatrixMeta, policy: ExecutionPolicy) -> float:
    return volumes.matrix_size(meta, force_dense=policy.force_dense)


def price_matmul(left: MatrixMeta, right: MatrixMeta, out: MatrixMeta,
                 config: ClusterConfig, policy: ExecutionPolicy,
                 left_fused_transpose: bool = False,
                 right_fused_transpose: bool = False,
                 imbalance: float = 1.0) -> OpPrice:
    """Price one matrix multiply.

    ``left`` / ``right`` are the *effective* (post-transpose) operand metas.
    Fused transposes add their cell-touch FLOPs but no re-key shuffle.
    """
    decision = decide_matmul(left, right, out, config, policy)
    flop_count = flops.matmul_flops(left, right)
    if left_fused_transpose:
        flop_count += flops.transpose_flops(left)
    if right_fused_transpose:
        flop_count += flops.transpose_flops(right)
    if decision.impl == LOCAL:
        compute = _compute_seconds(flop_count, False, config)
        return OpPrice(LOCAL, compute, (), False, config)
    transmissions: list[tuple[str, float]] = []
    compute = _compute_seconds(flop_count, True, config, imbalance)
    if decision.impl in (BMM, BMM_FLIPPED):
        broadcast_meta = right if decision.impl == BMM else left
        dist_meta = left if decision.impl == BMM else right
        if decision.collect_side is not None:
            transmissions.append((COLLECT, _size(broadcast_meta, policy)))
        transmissions.append(
            (BROADCAST, broadcast_volume(config, _size(broadcast_meta, policy))))
        if decision.output_distributed:
            if decision.impl == BMM:
                shuffled = volumes.bmm_shuffle_bytes(dist_meta, broadcast_meta, out,
                                                     config, policy.force_dense)
            else:
                shuffled = volumes.bmm_shuffle_bytes(
                    dist_meta.transposed(), broadcast_meta.transposed(),
                    out.transposed(), config, policy.force_dense)
            transmissions.append((SHUFFLE, shuffled))
        else:
            transmissions.append((COLLECT, _size(out, policy)))
    else:  # CPMM
        shuffled = volumes.cpmm_shuffle_bytes(left, right, out, config,
                                              policy.force_dense)
        transmissions.append((SHUFFLE, shuffled))
        if not decision.output_distributed:
            transmissions.append((COLLECT, _size(out, policy)))
    return OpPrice(decision.impl, compute, tuple(transmissions),
                   decision.output_distributed, config)


def price_mmchain(x: MatrixMeta, v: MatrixMeta, out: MatrixMeta,
                  config: ClusterConfig, policy: ExecutionPolicy,
                  imbalance: float = 1.0,
                  inner: MatrixMeta | None = None) -> OpPrice:
    """Price the fused ``t(X) %*% (X %*% v)`` chain (SystemDS's mmchain).

    One distributed pass over X: broadcast v, compute both multiplies
    block-locally, aggregate the n-sized partials at the driver — the
    m-sized intermediate ``Xv`` never travels, which is the fusion's whole
    advantage over two back-to-back BMMs. ``inner`` overrides the dense
    assumption for the never-materialized intermediate when the caller has
    an observed (or sketched) meta for it.
    """
    if inner is None:
        inner = MatrixMeta(x.rows, v.cols, 1.0)
    flop_count = flops.matmul_flops(x, v) + flops.matmul_flops(x.transposed(), inner)
    if not value_distributed(x, config, policy):
        return OpPrice("mmchain_local", _compute_seconds(flop_count, False, config),
                       (), False, config)
    transmissions = (
        (BROADCAST, broadcast_volume(config, _size(v, policy))),
        (COLLECT, config.num_workers * _size(out, policy)),
    )
    compute = _compute_seconds(flop_count, True, config, imbalance)
    return OpPrice("mmchain", compute, transmissions, False, config)


def price_ewise(kind: str, left: MatrixMeta, right: MatrixMeta, out: MatrixMeta,
                config: ClusterConfig, policy: ExecutionPolicy,
                imbalance: float = 1.0) -> OpPrice:
    """Price a cell-wise operator (``kind`` in add/subtract/multiply/divide)."""
    flop_count = flops.ewise_flops(kind, left, right)
    if decide_ewise(left, right, out, config, policy) == LOCAL:
        return OpPrice(LOCAL, _compute_seconds(flop_count, False, config), (), False,
                       config)
    transmissions: list[tuple[str, float]] = []
    for side in (left, right):
        if not value_distributed(side, config, policy) and not side.is_scalar_like:
            transmissions.append((BROADCAST,
                                  broadcast_volume(config, _size(side, policy))))
    out_distributed = value_distributed(out, config, policy)
    if not out_distributed:
        transmissions.append((COLLECT, _size(out, policy)))
    return OpPrice("distributed", _compute_seconds(flop_count, True, config, imbalance),
                   tuple(transmissions), out_distributed, config)


def price_fused_ewise(flop_count: float, broadcast_metas: list[MatrixMeta],
                      out: MatrixMeta, distributed: bool,
                      config: ClusterConfig, policy: ExecutionPolicy,
                      imbalance: float = 1.0) -> OpPrice:
    """Price a single-pass fused element-wise region.

    ``flop_count`` is the sum of the member operators' cell-touch FLOPs
    (fusing does not change which cells are touched, it removes the
    per-operator materialization and transmission). A distributed region
    broadcasts each distinct local leaf once — instead of once per member
    that consumes it — and collects only the root; the per-member
    intermediate COLLECT/BROADCAST round-trips are the redundancy the
    fused operator eliminates.
    """
    if not distributed:
        return OpPrice("fused_ewise", _compute_seconds(flop_count, False, config),
                       (), False, config)
    transmissions: list[tuple[str, float]] = [
        (BROADCAST, broadcast_volume(config, _size(meta, policy)))
        for meta in broadcast_metas]
    out_distributed = value_distributed(out, config, policy)
    if not out_distributed:
        transmissions.append((COLLECT, _size(out, policy)))
    return OpPrice("fused_ewise",
                   _compute_seconds(flop_count, True, config, imbalance),
                   tuple(transmissions), out_distributed, config)


def price_transpose(meta: MatrixMeta, config: ClusterConfig,
                    policy: ExecutionPolicy, imbalance: float = 1.0) -> OpPrice:
    """Price a *materialized* transpose (fused ones ride along in matmul)."""
    where = decide_transpose(meta, config, policy)
    flop_count = flops.transpose_flops(meta)
    if where == LOCAL:
        return OpPrice(LOCAL, _compute_seconds(flop_count, False, config), (), False,
                       config)
    shuffled = volumes.transpose_shuffle_bytes(meta, policy.force_dense)
    return OpPrice("distributed", _compute_seconds(flop_count, True, config, imbalance),
                   ((SHUFFLE, shuffled),), True, config)


def price_aggregate(meta: MatrixMeta, config: ClusterConfig, policy: ExecutionPolicy,
                    imbalance: float = 1.0, flop_multiplier: float = 1.0) -> OpPrice:
    """Price a full aggregation (sum/norm): scan plus per-worker partials."""
    distributed = value_distributed(meta, config, policy)
    flop_count = flop_multiplier * flops.aggregate_flops(meta)
    if not distributed:
        return OpPrice(LOCAL, _compute_seconds(flop_count, False, config), (), False,
                       config)
    return OpPrice("distributed", _compute_seconds(flop_count, True, config, imbalance),
                   ((COLLECT, config.num_workers * 16.0),), False, config)


def price_map(meta: MatrixMeta, out: MatrixMeta, config: ClusterConfig,
              policy: ExecutionPolicy, imbalance: float = 1.0) -> OpPrice:
    """Price a cell-wise map (exp, sqrt, sigmoid, ...): pure compute.

    The map runs where the data lives; densifying maps touch every cell of
    the output.
    """
    distributed = value_distributed(meta, config, policy)
    flop_count = max(meta.nnz, out.nnz)
    return OpPrice("map" if not distributed else "map_distributed",
                   _compute_seconds(flop_count, distributed, config, imbalance),
                   (), distributed and value_distributed(out, config, policy),
                   config)


def price_structural(kind: str, meta: MatrixMeta, out: MatrixMeta,
                     config: ClusterConfig, policy: ExecutionPolicy,
                     imbalance: float = 1.0) -> OpPrice:
    """Price rowsums/colsums/diag: a scan plus collecting the small output."""
    del kind
    distributed = value_distributed(meta, config, policy)
    flop_count = meta.nnz
    if not distributed:
        return OpPrice(LOCAL, _compute_seconds(flop_count, False, config), (),
                       False, config)
    return OpPrice("structural", _compute_seconds(flop_count, True, config, imbalance),
                   ((COLLECT, _size(out, policy)),), False, config)


def price_persist(meta: MatrixMeta, config: ClusterConfig,
                  policy: ExecutionPolicy) -> OpPrice:
    """Price checkpointing a hoisted loop-constant result to DFS."""
    if not value_distributed(meta, config, policy):
        return OpPrice(LOCAL, 0.0, (), False, config)
    return OpPrice("distributed", 0.0, ((DFS, _size(meta, policy)),), True, config)
