"""Physical operators: execute kernels and charge the simulated clock.

Each kernel does two things, deliberately through the same code path so they
can never drift apart:

1. computes the *correct value* with NumPy/SciPy block arithmetic, and
2. advances the simulated cluster clock by pricing the operator via
   :mod:`repro.runtime.pricing` with the *observed* metadata of the actual
   operands.

The optimizer's cost model prices the same functions with *estimated*
metadata; any gap between predicted and charged cost is then attributable
to the sparsity estimator, which is exactly what §6.3.2 of the paper
studies.
"""

from __future__ import annotations

import operator
import threading
import weakref
from dataclasses import dataclass

import numpy as np

from ..config import ClusterConfig
from ..cluster.metrics import MetricsCollector
from ..cluster.network import Network
from ..errors import ExecutionError, ShapeError
from ..matrix.blocked import BlockedMatrix, Partition, partitionable
from ..matrix.formats import DENSE_THRESHOLD
from ..matrix.meta import DOUBLE_BYTES, MatrixMeta
from ..matrix.partitioner import worker_of_block
from . import volumes
from .hybrid import ExecutionPolicy
from .pricing import (
    OpPrice,
    price_aggregate,
    price_ewise,
    price_map,
    price_matmul,
    price_mmchain,
    price_persist,
    price_structural,
    price_transpose,
)


@dataclass
class Value:
    """A runtime value: the actual blocked matrix plus its residency."""

    matrix: BlockedMatrix
    distributed: bool
    #: Straggler factor of this value's block placement: max worker bytes /
    #: mean worker bytes. 1.0 for balanced or local values.
    imbalance: float = 1.0
    name: str | None = None
    #: The cell of a :class:`DriverFloat`; None for a grid.
    number = None

    @property
    def meta(self) -> MatrixMeta:
        return self.matrix.meta()

    @property
    def is_scalar(self) -> bool:
        return self.matrix.is_scalar_like

    def scalar_value(self) -> float:
        return self.matrix.scalar_value()


class DriverFloat(Value):
    """A local 1x1 value kept on the driver as ``number``, with the meta its
    grid would have; the grid is made on demand. A zero of either sign is
    the absent tile, ``+0.0``; NaN is a non-zero cell."""

    __slots__ = ("number", "meta", "_grid", "_block_size")
    distributed, imbalance, name, is_scalar = False, 1.0, None, True

    def __init__(self, number: float, block_size: int,
                 meta: MatrixMeta | None = None):
        self.number = number = number or 0.0
        self.meta = meta or (_CELL if number else _NO_CELL)
        self._grid, self._block_size = None, block_size

    @property
    def matrix(self) -> BlockedMatrix:
        if self._grid is None:
            self._grid = BlockedMatrix.scalar(self.number, self._block_size)
            self._grid.symmetric = self.meta.symmetric
        return self._grid

    def scalar_value(self) -> float:
        return self.number


#: Metas of a 1x1 grid holding a non-zero cell, and of one holding none.
_CELL, _NO_CELL = MatrixMeta(1, 1, 1.0), MatrixMeta(1, 1, 0.0)
#: Each cell-wise kind as a float operator (NumPy names its ufunc alike).
_DRIVER_EWISE = {"add": operator.add, "subtract": operator.sub,
                 "multiply": operator.mul, "divide": operator.truediv}


def _driver_cell(kind: str, left: float, right: float) -> float:
    """Two 1x1 grids' cells combined on floats (``_zip_entry``): an absent
    right tile zeroes a product even of ``inf`` or ``nan``; of two NaNs the
    grid's ufunc picks the bits (a compiler may swap commuted operands)."""
    if kind == "multiply" and not right:
        return 0.0
    if left != left and right != right:
        return float(getattr(np, kind)(np.array([[left]]),
                                       np.array([[right]]))[0, 0])
    return _DRIVER_EWISE[kind](left, right)


def _multiplied(value: Value, transposed: bool
                ) -> tuple[MatrixMeta, BlockedMatrix]:
    """An operand's meta and grid as a product reads them: transposed
    block-locally when the transpose is fused."""
    if transposed:
        return value.meta.transposed(), value.matrix.transpose()
    return value.meta, value.matrix


def placement_imbalance(matrix: BlockedMatrix, num_workers: int) -> float:
    """max/mean bytes across workers for this matrix's hash placement."""
    if num_workers <= 1 or not matrix.blocks:
        return 1.0
    totals = [0.0] * num_workers
    for key, block in matrix.iter_blocks():
        totals[worker_of_block(*key, num_workers)] += block.serialized_bytes()
    mean = sum(totals) / num_workers
    if mean == 0.0:
        return 1.0
    return max(totals) / mean


class PartitionMemo:
    """The grids an :class:`~repro.engines.base.Engine` cut from the raw
    inputs it was handed, each returned again only while tiling the input
    anew would build exactly that grid (:class:`~repro.matrix.blocked.
    Partition` checks), and cut afresh on any other outcome.

    Keyed by the input object's identity, block size and symmetry flag,
    and guarded by a weak reference whose callback drops the entry (the
    :class:`~repro.core.plancache.DataTokens` pattern: a recycled ``id`` is
    never the old object), so an entry lives exactly as long as the
    caller's object and the memo. Only :func:`~repro.matrix.blocked.
    partitionable` inputs are kept; anything else is tiled on every load,
    and a pre-tiled grid passes straight through.
    """

    def __init__(self) -> None:
        self._entries: dict[tuple[int, int, bool],
                            tuple[weakref.ref, Partition]] = {}
        # Reentrant: a purge callback can fire from a GC triggered inside
        # the locked region.
        self._lock = threading.RLock()

    def __len__(self) -> int:
        return len(self._entries)

    def grid(self, data, block_size: int, symmetric: bool) -> BlockedMatrix:
        """``BlockedMatrix.from_any(data, block_size, symmetric)``, or the
        grid it built last time if it would build that grid again."""
        if not partitionable(data):
            return BlockedMatrix.from_any(data, block_size=block_size,
                                          symmetric=symmetric)
        key = (id(data), block_size, symmetric)
        with self._lock:
            entry = self._entries.get(key)
        if entry is not None and entry[0]() is data \
                and entry[1].rebuilds(data):
            return entry[1].grid
        partition = Partition(data, block_size, symmetric)
        with self._lock:
            self._entries[key] = (weakref.ref(data, self._purger(key)),
                                  partition)
        return partition.grid

    def _purger(self, key: tuple[int, int, bool]):
        """Callback dropping ``key`` when its referent is collected, unless
        another object with the recycled id owns the slot by then. It
        holds the memo weakly: a strong hold would be a cycle through the
        entry's weak reference, and the grids would outlive their engine
        until a collector pass."""
        owner = weakref.ref(self)

        def purge(ref) -> None:
            memo = owner()
            if memo is None:
                return
            with memo._lock:
                entry = memo._entries.get(key)
                if entry is not None and entry[0] is ref:
                    del memo._entries[key]
        return purge


class Kernels:
    """Stateful kernel set bound to one cluster config, policy, and metrics."""

    def __init__(self, config: ClusterConfig, policy: ExecutionPolicy | None = None,
                 metrics: MetricsCollector | None = None, tracer=None,
                 recovery=None, partitions: PartitionMemo | None = None):
        self.config = config
        self.policy = policy or ExecutionPolicy.systemds()
        self.metrics = metrics or MetricsCollector()
        #: Optional :class:`~repro.runtime.recovery.RecoveryManager`. When
        #: installed, every distributed kernel output registers a lineage
        #: thunk and every operator/transmission is offered to the fault
        #: injector; when None (the default) no closure is ever allocated
        #: and execution is byte-identical to the fault-free build.
        self.recovery = recovery
        #: Optional :class:`PartitionMemo` :meth:`load` tiles raw inputs
        #: through (a crash heals a kept grid back to its load-time tiles).
        self.partitions = partitions
        self.network = Network(config, self.metrics, recovery=recovery)
        if recovery is not None:
            recovery.bind(self)
        #: Optional :class:`~repro.runtime.trace.ExecutionTracer`. Every
        #: hook below is guarded by an ``is None`` check so tracing is
        #: zero-cost when off (no spans allocated, no placement scans).
        self.tracer = tracer
        #: Prices computed under the config in force, by what they were
        #: computed from: ``(pricing function, arguments before config and
        #: policy, arguments after)`` — the operand metas as charged and
        #: the output meta, then fused-transpose flags and imbalance. The
        #: pricing functions are pure in those, so a loop body is priced on
        #: its first iteration and replayed afterwards: the same
        #: :class:`OpPrice` values charged in the same order. Dropped by
        #: :meth:`reconfigure`.
        self._prices: dict[tuple, OpPrice] = {}
        #: Operators charged a kept price (of ``metrics.operator_counts``).
        self.prices_replayed = 0

    def reconfigure(self, config: ClusterConfig) -> None:
        """Put another cluster config in force (a crash shrank the
        cluster): later placement, pricing and transmissions see it, and
        no price computed under the old one is replayed."""
        self.config = config
        self.network.config = config
        self._prices.clear()

    # ------------------------------------------------------------------
    # Charging helpers
    # ------------------------------------------------------------------
    def _priced(self, price_fn, head: tuple, tail: tuple = ()) -> OpPrice:
        """Charge ``price_fn(*head, config, policy, *tail)``, computed the
        first time this key is seen and replayed after that."""
        key = (price_fn, head, tail)
        price = self._prices.get(key)
        if price is None:
            price = self._prices[key] = price_fn(
                *head, self.config, self.policy, *tail)
        else:
            self.prices_replayed += 1
        self._charge(price)
        return price

    def _charge(self, price: OpPrice) -> None:
        """Charge an operator's pricing to the metrics collector."""
        if price.compute_seconds:
            self.metrics.charge_compute(price.compute_seconds)
        for primitive, nbytes in price.transmissions:
            self.network.transmit(primitive, nbytes)
        self.metrics.count_operator(price.impl)

    def _wrap(self, matrix: BlockedMatrix, distributed: bool,
              name: str | None = None) -> Value:
        # Every wrapped kernel output is a materialized matrix; the counter
        # is what fusion shrinks (fused regions materialize only the root).
        self.metrics.record_materialized(matrix.serialized_bytes())
        imbalance = 1.0
        if distributed:
            imbalance = placement_imbalance(matrix, self.config.num_workers)
            self._record_placement(matrix)
        return Value(matrix, distributed, imbalance, name)

    def _record_placement(self, matrix: BlockedMatrix) -> None:
        for key, block in matrix.iter_blocks():
            worker = worker_of_block(*key, self.config.num_workers)
            self.metrics.record_worker_bytes(worker, block.serialized_bytes())

    def _finish_op(self, kind: str, price: OpPrice,
                   result: BlockedMatrix | None = None,
                   recompute=None) -> None:
        """Recovery epilogue of one kernel: register the distributed
        output's lineage thunk, then run the post-operator fault check
        (stragglers, due worker crashes). Callers skip thunk construction
        entirely when ``self.recovery`` is None."""
        recovery = self.recovery
        if recovery is None:
            return
        if recompute is not None and price.output_distributed:
            recovery.record_derived(result, kind, price.compute_seconds,
                                    recompute)
        recovery.after_operator(price)

    # ------------------------------------------------------------------
    # Input loading
    # ------------------------------------------------------------------
    def load(self, name: str, data, symmetric: bool = False,
             charge_partition: bool = False) -> Value:
        """Materialize an input dataset, optionally charging ingest time.

        A raw input is tiled through :attr:`partitions` when there is one,
        so an unchanged input keeps the grid an earlier run cut from it.
        ``charge_partition=True`` reproduces the Fig. 12 "input partition"
        phase: reading raw data and writing partitioned blocks to DFS.
        Always-distributed engines (pbdR/SciDB) pay a sequential ingest
        because they "do not support automatically splitting and
        partitioning a dataset in parallel" (§6.5).
        """
        try:
            if self.partitions is None:
                matrix = BlockedMatrix.from_any(
                    data, block_size=self.config.block_size,
                    symmetric=symmetric)
            else:
                matrix = self.partitions.grid(data, self.config.block_size,
                                              symmetric)
        except ShapeError as exc:
            raise ShapeError(f"input {name!r}: {exc}") from None
        meta = matrix.meta()
        from .hybrid import value_distributed
        distributed = value_distributed(meta, self.config, self.policy)
        if charge_partition:
            nbytes = volumes.matrix_size(meta, self.policy.force_dense)
            seconds = 2.0 * nbytes / self.config.dfs_bytes_per_sec  # read + write
            if self.policy.always_distributed:
                seconds += nbytes / self.config.collect_bytes_per_sec
                seconds *= self.config.num_workers
            self.metrics.charge_input_partition(seconds)
        if not distributed:
            return Value(matrix, False, 1.0, name)
        if self.recovery is not None:
            # Inputs are DFS-backed: lost blocks restore by re-reading the
            # retained partitioned copy rather than by recomputation.
            self.recovery.record_source(matrix)
        return self._wrap(matrix, True, name)

    def from_scalar(self, value: float) -> Value:
        return DriverFloat(float(value), self.config.block_size)

    def _driver_result(self, kind: str, price: OpPrice, number: float,
                       operands: tuple[MatrixMeta, ...],
                       meta: MatrixMeta | None = None) -> Value:
        """:meth:`_wrap`, the tracer and recovery for a local 1x1 result
        kept as a float: the tile's bytes (none when absent), no thunk."""
        out = DriverFloat(number, self.config.block_size, meta)
        self.metrics.record_materialized(DOUBLE_BYTES if out.number else 0)
        if self.tracer is not None:
            self.tracer.record_operator(kind, price, operands, out)
        if self.recovery is not None:
            self._finish_op(kind, price)
        return out

    # ------------------------------------------------------------------
    # Matrix multiplication
    # ------------------------------------------------------------------
    def matmul(self, left: Value, right: Value, left_transposed: bool = False,
               right_transposed: bool = False) -> Value:
        """Multiply with optional fused transposes on either operand.

        Fused transposes (SystemDS's ``t(X) %*% y`` pattern) transpose
        blocks worker-locally: they cost FLOP touches but no re-keying
        shuffle, unlike :meth:`transpose`.
        """
        left_meta, left_mat = _multiplied(left, left_transposed)
        right_meta, right_mat = _multiplied(right, right_transposed)
        left_mat, right_mat = self._coerce_mixed(left_mat, right_mat)
        return self._product(left_mat.matmul(right_mat), left, right,
                             left_transposed, right_transposed, left_meta,
                             right_meta, left_mat, right_mat)

    def matmul_chain(self, left: Value, right: Value,
                     transposed: tuple[bool, bool], other: Value,
                     other_left: bool, outer_transposed: tuple[bool, bool],
                     outer_record=None) -> Value:
        """``matmul(left, right, *transposed)`` and the product of its
        result with ``other`` — on the left of it when ``other_left`` —
        under ``outer_transposed``, computed in one pass over the first
        product's tiles (``BlockedMatrix.matmul``'s ``before`` /
        ``after``), then charged, wrapped and traced as those two
        :meth:`matmul` calls would be, in their order; returns the second.
        The executor calls it for ``t(X) %*% (X %*% v)`` and ``(u %*%
        t(X)) %*% X``, ``X`` one reference, so that ``X`` is read once.
        ``outer_record`` is the record the second span belongs to (the
        tracer's ``running`` while it is charged)."""
        left_meta, left_mat = _multiplied(left, transposed[0])
        right_meta, right_mat = _multiplied(right, transposed[1])
        left_mat, right_mat = self._coerce_mixed(left_mat, right_mat)
        other_meta, other_mat = _multiplied(
            other, outer_transposed[0 if other_left else 1])
        inner, outer = left_mat.matmul(
            right_mat, **{"before" if other_left else "after": other_mat})
        value = self._product(inner, left, right, *transposed, left_meta,
                              right_meta, left_mat, right_mat)
        if self.tracer is not None:
            self.tracer.running = outer_record
        if other_left:
            operands = (other, value, *outer_transposed, other_meta,
                        value.meta)
            plain = (other_mat, inner)
        else:
            operands = (value, other, *outer_transposed, value.meta,
                        other_meta)
            plain = (inner, other_mat)
        grids = self._coerce_mixed(*plain)
        if grids != plain:
            # An engine without mixed products densified an operand, which
            # only the first product's result could tell it to.
            outer = grids[0].matmul(grids[1])
        return self._product(outer, *operands, *grids)

    def _product(self, result: BlockedMatrix, left: Value, right: Value,
                 left_transposed: bool, right_transposed: bool,
                 left_meta: MatrixMeta, right_meta: MatrixMeta,
                 left_mat: BlockedMatrix, right_mat: BlockedMatrix) -> Value:
        """Charge, wrap and trace ``result``, the product of ``left`` and
        ``right`` as multiplied (metas and grids after fused transposes)."""
        # t(X) %*% X and X %*% t(X) are provably symmetric whatever X is
        # (the flag changes no pricing — metas price by shape and sparsity).
        if left.matrix is right.matrix and left_transposed != right_transposed:
            result.symmetric = True
        price = self._priced(
            price_matmul, (left_meta, right_meta, result.meta()),
            (left_transposed, right_transposed,
             max(left.imbalance, right.imbalance)))
        out = self._wrap(result, price.output_distributed)
        if self.tracer is not None:
            self.tracer.record_operator("matmul", price,
                                        (left_meta, right_meta), out)
        if self.recovery is not None:
            self._finish_op("matmul", price, result,
                            lambda: left_mat.matmul(right_mat))
        return out

    def mmchain(self, x: Value, v: Value, exact_inner: bool = False) -> Value:
        """Fused ``t(X) %*% (X %*% v)`` (SystemDS's mmchain pattern).

        Computed in one distributed pass: the m-sized intermediate Xv stays
        worker-local, and on the host both products are one pass over
        ``X``'s tiles (``BlockedMatrix.matmul``'s ``before``), the pass
        :meth:`matmul_chain` makes for the chain left unfused. The executor
        calls it for an MMCHAIN record its cost evaluation selected; a
        record selected by cost rather than by
        :meth:`ExecutionPolicy.mmchain_applicable_cols` passes
        ``exact_inner=True`` so the charge prices the never-materialized
        intermediate with its observed meta instead of the legacy dense
        assumption.
        """
        x_mat, v_mat = x.matrix, v.matrix
        inner, result = x_mat.matmul(v_mat, before=x_mat.transpose())
        price = self._priced(
            price_mmchain, (x.meta, v.meta, result.meta()),
            (x.imbalance, inner.meta() if exact_inner else None))
        out = self._wrap(result, price.output_distributed)
        if self.tracer is not None:
            self.tracer.record_operator("mmchain", price, (x.meta, v.meta), out)
        if self.recovery is not None:
            self._finish_op(
                "mmchain", price, result,
                lambda: x_mat.matmul(v_mat, before=x_mat.transpose())[1])
        return out

    def fused_ewise(self, plan) -> Value:
        """Execute a lowered :class:`~repro.runtime.fusion.FusedEwisePlan`.

        The region's members run one by one through the ``BlockedMatrix``
        methods their unfused kernels call, each intermediate given up to
        its one reader; the cluster is charged one fused operator, priced
        from every intermediate's observed nnz like any other kernel.
        Whether to fuse was the record's cost evaluation's decision; this
        kernel only runs and charges it.
        """
        from ..matrix.fused import evaluate_fused_ewise
        from .fusion import exact_fused_price
        steps = plan.steps
        leaves = [value.matrix for value in plan.leaf_values]
        result, step_nnz = evaluate_fused_ewise(steps, leaves)
        price = exact_fused_price(plan, result.meta(), step_nnz, self.config,
                                  self.policy)
        self._charge(price)
        out = self._wrap(result, price.output_distributed)
        if self.tracer is not None:
            operands = tuple(value.meta for value in plan.leaf_values)
            self.tracer.record_operator("fused_ewise", price, operands, out)
        if self.recovery is not None:
            self._finish_op(
                "fused_ewise", price, result,
                lambda: evaluate_fused_ewise(steps, leaves)[0])
        return out

    def _coerce_mixed(self, left_mat: BlockedMatrix,
                      right_mat: BlockedMatrix) -> tuple[BlockedMatrix, BlockedMatrix]:
        """Densify sparse operands for engines without mixed products."""
        if self.policy.supports_mixed_sparse:
            return left_mat, right_mat
        left_sparse = left_mat.sparsity <= DENSE_THRESHOLD
        right_sparse = right_mat.sparsity <= DENSE_THRESHOLD
        if left_sparse == right_sparse:
            return left_mat, right_mat
        target = left_mat if left_sparse else right_mat
        densified = BlockedMatrix.from_numpy(target.to_numpy(),
                                             target.block_size)
        self.metrics.charge_compute(
            target.rows * target.cols / self.config.cluster_flops)
        if left_sparse:
            return densified, right_mat
        return left_mat, densified

    # ------------------------------------------------------------------
    # Cell-wise operators
    # ------------------------------------------------------------------
    # ``dying`` gives an operand up (``Executor._dying``): the result may be
    # written over its payloads. Operand metas are read first.
    # ``driver``: both operands are 1x1; a result its price keeps local is
    # computed as a driver float.
    def _ewise(self, left: Value, right: Value, kind: str,
               dying: tuple[bool, bool], driver: bool) -> Value:
        left_scalar, right_scalar = left.is_scalar, right.is_scalar
        if kind == "divide" and right_scalar and right.scalar_value() == 0.0:
            raise ExecutionError("division by a zero scalar")
        if left_scalar and not right_scalar:
            return self._scalar_ewise(left.scalar_value(), right, kind,
                                      left_side=True, dying=dying[1])
        if right_scalar and not left_scalar:
            return self._scalar_ewise(right.scalar_value(), left, kind,
                                      left_side=False, dying=dying[0])
        left_meta, right_meta = left.meta, right.meta
        imbalance, price = (max(left.imbalance, right.imbalance),), None
        if driver and left_scalar:
            number = _driver_cell(kind, left.scalar_value(),
                                  right.scalar_value())
            price = self._priced(price_ewise, (
                kind, left_meta, right_meta, _CELL if number else _NO_CELL),
                imbalance)
            if not price.output_distributed:
                return self._driver_result(kind, price, number,
                                           (left_meta, right_meta))
        result = getattr(left.matrix, kind)(right.matrix, dying)
        if price is None:
            price = self._priced(
                price_ewise, (kind, left_meta, right_meta, result.meta()),
                imbalance)
        out = self._wrap(result, price.output_distributed)
        if self.tracer is not None:
            self.tracer.record_operator(kind, price, (left_meta, right_meta),
                                        out)
        if self.recovery is not None:
            left_mat, right_mat = left.matrix, right.matrix
            self._finish_op(kind, price, result,
                            lambda: getattr(left_mat, kind)(right_mat))
        return out

    def _scalar_ewise(self, scalar: float, value: Value, kind: str,
                      left_side: bool, dying: bool) -> Value:
        matrix = value.matrix
        meta = value.meta
        result = matrix.with_scalar(kind, scalar, left_side, dying)
        price = self._priced(
            price_ewise, (kind, meta, _CELL, result.meta()),
            (value.imbalance,))
        out = self._wrap(result, price.output_distributed)
        if self.tracer is not None:
            operands = (_CELL, meta) if left_side else (meta, _CELL)
            self.tracer.record_operator(kind, price, operands, out)
        if self.recovery is not None:
            self._finish_op(kind, price, result, lambda: matrix.with_scalar(
                kind, scalar, left_side))
        return out

    def _cellwise(kind: str):
        def kernel(self, left: Value, right: Value,
                   dying: tuple[bool, bool] = (False, False),
                   driver: bool = False) -> Value:
            return self._ewise(left, right, kind, dying, driver)
        kernel.__name__ = kind
        kernel.__qualname__ = f"Kernels.{kind}"
        return kernel

    add, subtract, multiply, divide = map(
        _cellwise, ("add", "subtract", "multiply", "divide"))
    del _cellwise

    def negate(self, value: Value, dying: bool = False,
               driver: bool = False) -> Value:
        meta = value.meta
        # A negated grid carries its operand's statistics, meta included;
        # the cost model prices a NEG record under the same key.
        price = self._priced(price_ewise,
                             ("multiply", meta, _CELL, meta),
                             (value.imbalance,))
        if driver and value.is_scalar and not price.output_distributed:
            return self._driver_result("negate", price, -value.scalar_value(),
                                       (meta,), meta)
        result = value.matrix.negate(dying)
        out = self._wrap(result, price.output_distributed)
        if self.tracer is not None:
            self.tracer.record_operator("negate", price, (meta,), out)
        if self.recovery is not None:
            matrix = value.matrix
            self._finish_op("negate", price, result, matrix.negate)
        return out

    # ------------------------------------------------------------------
    # Transpose and aggregates
    # ------------------------------------------------------------------
    def transpose(self, value: Value) -> Value:
        """Materialized transpose: distributed inputs pay a re-key shuffle."""
        result = value.matrix.transpose()
        price = self._priced(price_transpose, (value.meta,), (value.imbalance,))
        out = self._wrap(result, price.output_distributed)
        if self.tracer is not None:
            self.tracer.record_operator("transpose", price, (value.meta,), out)
        if self.recovery is not None:
            self._finish_op("transpose", price, result,
                            value.matrix.transpose)
        return out

    def _aggregated(self, price: OpPrice, number: float,
                    meta: MatrixMeta) -> Value:
        out = self.from_scalar(number)
        if self.tracer is not None:
            self.tracer.record_operator("aggregate", price, (meta,), out)
        if self.recovery is not None:
            self._finish_op("aggregate", price)
        return out

    def aggregate_sum(self, value: Value) -> Value:
        price = self._priced(price_aggregate, (value.meta,), (value.imbalance,))
        return self._aggregated(price, value.matrix.sum(), value.meta)

    def aggregate_norm(self, value: Value) -> Value:
        price = self._priced(price_aggregate, (value.meta,),
                             (value.imbalance, 2.0))
        squared = sum(float((b.data.multiply(b.data)).sum()) if b.is_sparse
                      else float(np.square(b.data).sum())
                      for _, b in value.matrix.iter_blocks())
        return self._aggregated(price, float(np.sqrt(squared)), value.meta)

    def aggregate_trace(self, value: Value) -> Value:
        if value.meta.rows != value.meta.cols:
            raise ExecutionError("trace of a non-square matrix")
        price = self._priced(price_aggregate, (value.meta,), (value.imbalance,))
        return self._aggregated(price, float(np.trace(value.matrix.to_numpy())),
                                value.meta)

    # ------------------------------------------------------------------
    # Cell-wise maps and structural reductions
    # ------------------------------------------------------------------
    _CELLWISE = {
        "sqrt": (np.sqrt, True),
        "abs": (np.abs, True),
        "log": (np.log, True),
        "exp": (np.exp, False),
        "sigmoid": (lambda x: 1.0 / (1.0 + np.exp(-x)), False),
    }

    def map_cells(self, value: Value, func_name: str) -> Value:
        """Apply a cell-wise builtin (exp, sqrt, sigmoid, ...)."""
        try:
            func, preserves_zero = self._CELLWISE[func_name]
        except KeyError:
            raise ExecutionError(f"unknown cell-wise builtin {func_name!r}") from None
        result = value.matrix.map_cells(func, preserves_zero)
        price = self._priced(price_map, (value.meta, result.meta()),
                             (value.imbalance,))
        out = self._wrap(result, price.output_distributed)
        if self.tracer is not None:
            self.tracer.record_operator("map", price, (value.meta,), out)
        if self.recovery is not None:
            matrix = value.matrix
            self._finish_op("map", price, result,
                            lambda: matrix.map_cells(func, preserves_zero))
        return out

    _STRUCTURAL = {
        "rowsums": "row_sums",
        "colsums": "col_sums",
        "diag": "diagonal",
    }

    def structural(self, value: Value, kind: str) -> Value:
        """rowsums / colsums / diag."""
        try:
            method = self._STRUCTURAL[kind]
        except KeyError:  # pragma: no cover - defensive
            raise ExecutionError(f"unknown structural builtin {kind!r}") from None
        result = getattr(value.matrix, method)()
        price = self._priced(price_structural,
                             (kind, value.meta, result.meta()),
                             (value.imbalance,))
        out = self._wrap(result, price.output_distributed)
        if self.tracer is not None:
            self.tracer.record_operator("structural", price, (value.meta,), out)
        if self.recovery is not None:
            self._finish_op("structural", price, result,
                            getattr(value.matrix, method))
        return out

    # ------------------------------------------------------------------
    # Persistence (hoisted loop-constant results)
    # ------------------------------------------------------------------
    def persist(self, value: Value) -> Value:
        """Cache a hoisted result for reuse across iterations.

        Distributed results are checkpointed to DFS once (SystemDS caches
        RDDs; we charge the initial write, reuse is then free).
        """
        price = self._priced(price_persist, (value.meta,))
        if self.tracer is not None:
            self.tracer.record_operator("persist", price, (value.meta,), value)
        if self.recovery is not None:
            self._finish_op("persist", price)
        return value
