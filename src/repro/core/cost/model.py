"""The cost model (§4.2): price operators from estimated metadata.

Wraps the shared pricing formulas of :mod:`repro.runtime.pricing` with a
sparsity estimator: every operator's output sketch is propagated and its
price computed from the *estimated* metas. ``c_O = compute_O + transmit_O``
(Eq. 3) with compute from FLOP counts (Eq. 4) and transmission from the
primitive volumes (Eqs. 5-6) — identical formulas to the runtime's clock,
so estimator error is the model's only error source.

Within one compilation the same (operator, operand sketches) pair is priced
hundreds of times — once per candidate program, per adaptive round, per
span table. The model therefore memoizes prices by operand identity (valid
because :class:`~repro.core.sparsity.memo.MemoizedEstimator` makes repeated
propagations return shared sketch objects), replays a pricing formula from
the operand metadata it was computed from (:meth:`CostModel.priced`) and
keeps one span table per distinct chain over sketches
(:func:`repro.core.build.build_span_table`); disable all three with
``memoize=False`` to reproduce the unmemoized baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...config import ClusterConfig
from ...matrix.meta import MatrixMeta, scalar_meta
from ...runtime.hybrid import ExecutionPolicy
from ...runtime.pricing import (
    OpPrice,
    price_aggregate,
    price_ewise,
    price_matmul,
    price_mmchain,
    price_persist,
    price_transpose,
)
from ..sparsity.base import Sketch, SparsityEstimator
from ..sparsity.memo import MemoizedEstimator


@dataclass
class Priced:
    """An operator's price together with its output sketch."""

    price: OpPrice
    sketch: Sketch
    #: ``price.seconds``, summed once: a memoized instance is read often.
    seconds: float | None = None

    def __post_init__(self) -> None:
        if self.seconds is None:
            self.seconds = self.price.seconds


class CostModel:
    """Prices logical operators over estimator sketches."""

    def __init__(self, config: ClusterConfig, estimator: SparsityEstimator,
                 policy: ExecutionPolicy | None = None,
                 memoize: bool = True):
        self.config = config
        if memoize and not isinstance(estimator, MemoizedEstimator):
            estimator = MemoizedEstimator(estimator)
        self.estimator = estimator
        self.policy = policy or ExecutionPolicy.systemds()
        #: price-memo table: op key (kind + operand sketch ids + flags) ->
        #: (operand refs..., result). Refs pin the keyed ids.
        self._prices: dict[tuple, tuple] | None = {} if memoize else None
        self.memoizes = memoize
        self.price_hits = 0
        self.price_misses = 0
        #: (pricing function, operand metas, flags) -> (price, its seconds):
        #: the formulas are pure in those once config and policy are fixed,
        #: as they are for this model's life. Empty when not memoizing.
        self._formula_prices: dict[tuple, tuple[OpPrice, float]] = {}
        self.prices_asked = 0
        self.prices_computed = 0
        #: Span tables by what their prices were read from; filled and
        #: counted by :func:`repro.core.build.build_span_table`.
        self.span_tables: dict[tuple, object] = {}
        self.tables_asked = 0
        self.tables_built = 0

    def _memo(self, key: tuple, operands: tuple, compute):
        """Memoized operator pricing (identity-keyed, see module docstring)."""
        if self._prices is None:
            return compute()
        entry = self._prices.get(key)
        if entry is not None:
            self.price_hits += 1
            return entry[-1]
        self.price_misses += 1
        result = compute()
        self._prices[key] = (*operands, result)
        return result

    def priced(self, price_fn, *metas: MatrixMeta, **flags) -> tuple[OpPrice, float]:
        """``price_fn(*metas, config, policy, **flags)`` and its seconds,
        computed once per distinct (function, metas, flags)."""
        self.prices_asked += 1
        key = (price_fn, metas, *flags.items())
        kept = self._formula_prices.get(key)
        if kept is None:
            self.prices_computed += 1
            price = price_fn(*metas, self.config, self.policy, **flags)
            kept = (price, price.seconds)
            if self.memoizes:
                self._formula_prices[key] = kept
        return kept

    @property
    def memo_stats(self) -> dict[str, int]:
        """Hit/miss counters of the price and sketch memo layers."""
        stats = {"price_hits": self.price_hits,
                 "price_misses": self.price_misses,
                 "prices_asked": self.prices_asked,
                 "prices_computed": self.prices_computed,
                 "tables_asked": self.tables_asked,
                 "tables_built": self.tables_built}
        if isinstance(self.estimator, MemoizedEstimator):
            sketch = self.estimator.stats
            stats["sketch_hits"] = sketch["hits"]
            stats["sketch_misses"] = sketch["misses"]
        return stats

    # ------------------------------------------------------------------
    # Sketch plumbing
    # ------------------------------------------------------------------
    def meta(self, sketch: Sketch) -> MatrixMeta:
        return self.estimator.meta(sketch)

    def sketch_of(self, data=None, meta: MatrixMeta | None = None,
                  symmetric: bool = False) -> Sketch:
        """Sketch an input from data when available, else from metadata."""
        if data is not None and not isinstance(data, (int, float)):
            return self.estimator.sketch_data(data, symmetric=symmetric)
        if isinstance(data, (int, float)):
            return self.estimator.scalar()
        if meta is None:
            raise ValueError("either data or meta must be provided")
        return self.estimator.sketch_meta(meta)

    @property
    def stats_collection_seconds(self) -> float:
        """Simulated time spent collecting estimator statistics.

        Charged to compilation time — this is MNC's extra cost in
        Fig. 10(a) relative to the metadata estimator.
        """
        return self.estimator.stats_collection_flops / self.config.cluster_flops

    # ------------------------------------------------------------------
    # Sketch halves: how each operator derives its output sketch. The
    # priced operators below call them, and so does an unpriced walk.
    # ------------------------------------------------------------------
    def matmul_sketch(self, left: Sketch, right: Sketch,
                      left_fused_transpose: bool = False,
                      right_fused_transpose: bool = False
                      ) -> tuple[Sketch, Sketch, Sketch]:
        """(left, right) as multiplied, after fused transposes, and the product."""
        if left_fused_transpose:
            left = self.estimator.transpose(left)
        if right_fused_transpose:
            right = self.estimator.transpose(right)
        return left, right, self.estimator.matmul(left, right)

    def ewise_sketch(self, kind: str, left: Sketch, right: Sketch) -> Sketch:
        return getattr(self.estimator, kind)(left, right)

    def map_cells_sketch(self, func_name: str, operand: Sketch) -> Sketch:
        from ...lang.ast import ZERO_PRESERVING_BUILTINS
        return self.estimator.scalar_op(
            operand, preserves_zero=func_name in ZERO_PRESERVING_BUILTINS)

    def structural_sketch(self, kind: str, operand: Sketch
                          ) -> tuple[MatrixMeta, Sketch]:
        """Output meta (the type checker's rules) and sketch of rowsums /
        colsums / diag."""
        from ...lang.typecheck import call_meta
        out_meta = call_meta(kind, self.meta(operand))
        return out_meta, self.estimator.sketch_meta(out_meta)

    # ------------------------------------------------------------------
    # Operators
    # ------------------------------------------------------------------
    def matmul(self, left: Sketch, right: Sketch,
               left_fused_transpose: bool = False,
               right_fused_transpose: bool = False) -> Priced:
        def compute() -> Priced:
            eff_left, eff_right, out = self.matmul_sketch(
                left, right, left_fused_transpose, right_fused_transpose)
            price, seconds = self.priced(
                price_matmul, self.meta(eff_left), self.meta(eff_right),
                self.meta(out), left_fused_transpose=left_fused_transpose,
                right_fused_transpose=right_fused_transpose)
            return Priced(price, out, seconds)
        key = ("matmul", id(left), id(right),
               left_fused_transpose, right_fused_transpose)
        return self._memo(key, (left, right), compute)

    def mmchain(self, x: Sketch, v: Sketch, exact_inner: bool = False) -> Priced:
        """Price the fused t(X) %*% (X %*% v) chain.

        ``exact_inner=True`` (the cost-gated fusion path) prices the
        never-materialized intermediate with its estimated meta instead of
        the legacy dense assumption, matching the runtime's observed-meta
        charge on that path.
        """
        def compute() -> Priced:
            inner = self.estimator.matmul(x, v)
            out = self.estimator.matmul(self.estimator.transpose(x), inner)
            price = price_mmchain(self.meta(x), self.meta(v), self.meta(out),
                                  self.config, self.policy,
                                  inner=self.meta(inner) if exact_inner else None)
            return Priced(price, out)
        return self._memo(("mmchain", id(x), id(v), exact_inner), (x, v),
                          compute)

    def ewise(self, kind: str, left: Sketch, right: Sketch) -> Priced:
        def compute() -> Priced:
            out = self.ewise_sketch(kind, left, right)
            price = price_ewise(kind, self.meta(left), self.meta(right), self.meta(out),
                                self.config, self.policy)
            return Priced(price, out)
        return self._memo(("ewise", kind, id(left), id(right)), (left, right),
                          compute)

    def negate(self, operand: Sketch) -> Priced:
        """Price a negation as its kernel charges it: a multiply by a 1x1
        cell whose output is the operand (a negated grid keeps its meta)."""
        def compute() -> Priced:
            meta = self.meta(operand)
            price = price_ewise("multiply", meta, scalar_meta(), meta,
                                self.config, self.policy)
            return Priced(price, operand)
        return self._memo(("negate", id(operand)), (operand,), compute)

    def transpose(self, operand: Sketch) -> Priced:
        def compute() -> Priced:
            out = self.estimator.transpose(operand)
            price = price_transpose(self.meta(operand), self.config, self.policy)
            return Priced(price, out)
        return self._memo(("transpose", id(operand)), (operand,), compute)

    def aggregate(self, operand: Sketch, flop_multiplier: float = 1.0) -> Priced:
        def compute() -> Priced:
            price = price_aggregate(self.meta(operand), self.config, self.policy,
                                    flop_multiplier=flop_multiplier)
            return Priced(price, self.estimator.scalar())
        return self._memo(("aggregate", id(operand), flop_multiplier),
                          (operand,), compute)

    def map_cells(self, func_name: str, operand: Sketch) -> Priced:
        """Price a cell-wise builtin map."""
        def compute() -> Priced:
            from ...runtime.pricing import price_map
            out = self.map_cells_sketch(func_name, operand)
            price = price_map(self.meta(operand), self.meta(out), self.config,
                              self.policy)
            return Priced(price, out)
        return self._memo(("map_cells", func_name, id(operand)), (operand,),
                          compute)

    def structural(self, kind: str, operand: Sketch) -> Priced:
        """Price rowsums / colsums / diag."""
        def compute() -> Priced:
            from ...runtime.pricing import price_structural
            out_meta, out = self.structural_sketch(kind, operand)
            price = price_structural(kind, self.meta(operand), out_meta,
                                     self.config, self.policy)
            return Priced(price, out)
        return self._memo(("structural", kind, id(operand)), (operand,),
                          compute)

    def persist(self, operand: Sketch) -> OpPrice:
        def compute() -> OpPrice:
            return price_persist(self.meta(operand), self.config, self.policy)
        return self._memo(("persist", id(operand)), (operand,), compute)

    def scalar(self) -> Sketch:
        return self.estimator.scalar()
