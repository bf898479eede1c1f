"""Sketch-propagation memo: identity-keyed caching around any estimator.

One ``compile()`` prices the same logical subexpressions hundreds of times:
every candidate program, every adaptive fixpoint round, and every span table
re-derives sketches from the *same* input sketch objects through the *same*
operator applications. :class:`MemoizedEstimator` wraps a concrete estimator
and caches operator propagation by operand identity, so repeated derivations
return the shared cached sketch object instead of recomputing (and — because
outputs are shared — chains of operators hit the memo transitively, which is
what makes the cost model's identity-keyed price memo effective).

Identity keys are safe here because sketches are immutable value objects and
every memo entry keeps strong references to its operands, so an ``id`` can
never be recycled while its entry is alive. The memo's lifetime is one
:class:`~repro.core.cost.model.CostModel` (one compilation), bounding memory.

Estimator operators are pure, so memoization is purely a performance layer:
cached and recomputed sketches are the same object graph, never merely
similar.
"""

from __future__ import annotations

from typing import Any

from ...matrix.meta import MatrixMeta
from .base import Sketch, SparsityEstimator


class MemoizedEstimator(SparsityEstimator):
    """Wrap an estimator, memoizing operator propagation by operand identity."""

    def __init__(self, inner: SparsityEstimator):
        if isinstance(inner, MemoizedEstimator):  # never stack two layers
            inner = inner.inner
        self.inner = inner
        #: op-key -> (operand refs..., result). Refs pin operand ids.
        self._ops: dict[tuple, tuple] = {}
        #: id(sketch) -> (sketch, meta)
        self._metas: dict[int, tuple[Sketch, MatrixMeta]] = {}
        #: MatrixMeta -> sketch (metas are hashable value objects)
        self._meta_sketches: dict[MatrixMeta, Sketch] = {}
        self._scalar: Sketch | None = None
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    # Delegation plumbing
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:  # type: ignore[override]
        return self.inner.name

    @property
    def stats_collection_flops(self) -> float:  # type: ignore[override]
        return self.inner.stats_collection_flops

    @property
    def stats(self) -> dict[str, int]:
        """Hit/miss counters for compile-stats reporting."""
        return {"hits": self.hits, "misses": self.misses,
                "entries": len(self._ops)}

    # ------------------------------------------------------------------
    # Sketch construction (no memo: inputs are sketched once per compile)
    # ------------------------------------------------------------------
    def sketch_data(self, data, symmetric: bool = False) -> Sketch:
        return self.inner.sketch_data(data, symmetric=symmetric)

    def sketch_meta(self, meta: MatrixMeta) -> Sketch:
        cached = self._meta_sketches.get(meta)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        sketch = self.inner.sketch_meta(meta)
        self._meta_sketches[meta] = sketch
        return sketch

    def scalar(self) -> Sketch:
        if self._scalar is None:
            self._scalar = self.inner.scalar()
        return self._scalar

    # ------------------------------------------------------------------
    # Memoized operator propagation
    # ------------------------------------------------------------------
    def _binary(self, op: str, compute, left: Sketch, right: Sketch) -> Sketch:
        key = (op, id(left), id(right))
        entry = self._ops.get(key)
        if entry is not None:
            self.hits += 1
            return entry[-1]
        self.misses += 1
        out = compute(left, right)
        self._ops[key] = (left, right, out)
        return out

    def _unary(self, op: str, compute, operand: Sketch, *flags: Any) -> Sketch:
        key = (op, id(operand), *flags)
        entry = self._ops.get(key)
        if entry is not None:
            self.hits += 1
            return entry[-1]
        self.misses += 1
        out = compute(operand)
        self._ops[key] = (operand, out)
        return out

    def matmul(self, left: Sketch, right: Sketch) -> Sketch:
        return self._binary("matmul", self.inner.matmul, left, right)

    def transpose(self, operand: Sketch) -> Sketch:
        return self._unary("transpose", self.inner.transpose, operand)

    def add(self, left: Sketch, right: Sketch) -> Sketch:
        return self._binary("add", self.inner.add, left, right)

    def subtract(self, left: Sketch, right: Sketch) -> Sketch:
        return self._binary("subtract", self.inner.subtract, left, right)

    def multiply(self, left: Sketch, right: Sketch) -> Sketch:
        return self._binary("multiply", self.inner.multiply, left, right)

    def divide(self, left: Sketch, right: Sketch) -> Sketch:
        return self._binary("divide", self.inner.divide, left, right)

    def ewise(self, kind: str, left: Sketch, right: Sketch) -> Sketch:
        """Kind-dispatched cell-wise propagation (used by fused regions).

        Routes through the memoized per-kind methods so a fused region's
        sketch chain shares cache entries with the identical unfused
        member propagations — fusion changes pricing, never sketches.
        """
        combine = {"add": self.add, "subtract": self.subtract,
                   "multiply": self.multiply, "divide": self.divide}[kind]
        return combine(left, right)

    def scalar_op(self, operand: Sketch, preserves_zero: bool) -> Sketch:
        return self._unary(
            "scalar_op",
            lambda s: self.inner.scalar_op(s, preserves_zero=preserves_zero),
            operand, preserves_zero)

    # ------------------------------------------------------------------
    # Readout
    # ------------------------------------------------------------------
    def meta(self, sketch: Sketch) -> MatrixMeta:
        entry = self._metas.get(id(sketch))
        if entry is not None and entry[0] is sketch:
            self.hits += 1
            return entry[1]
        self.misses += 1
        meta = self.inner.meta(sketch)
        self._metas[id(sketch)] = (sketch, meta)
        return meta
