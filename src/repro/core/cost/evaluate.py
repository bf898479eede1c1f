"""Program-level cost evaluation: a "sketch executor".

Walks a program exactly the way the runtime executor does — same fused-
transpose handling, same operator dispatch — but over estimator sketches,
summing operator prices instead of computing values. Loop bodies are
evaluated to a sparsity steady state (two passes) and the second pass's
per-iteration cost is multiplied by the loop's iteration budget.

This is the arbiter every elimination strategy uses: the brute-force
enumerator prices each rewritten candidate program with it, and the DP's
chosen plan gets its final predicted cost from it.

The same walk, unpriced (:meth:`ProgramCostEvaluator.propagate`), serves
every caller that wants sketches only: sketch environments, operand
sketches, the fusion report and the loop settle pass. It skips the fused
element-wise and mmchain checks (fusion changes prices, never sketches)
and asks the estimator directly, so under a memoized estimator it returns
the very sketch objects the priced walk would.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...errors import OptimizerError
from ...lang.ast import (
    CELLWISE_BUILTINS,
    Call,
    Compare,
    Expr,
    Literal,
    MatMul,
    MatrixRef,
    Neg,
    ScalarRef,
    Transpose,
)
from ...lang.program import Assign, Program, Statement, WhileLoop
from ...matrix import ops as flops
from ...matrix.meta import MatrixMeta
from ...runtime.fusion import (ZIP_KINDS, Region, find_ewise_region,
                               mmchain_beats_unfused, mmchain_match,
                               unwrap_transpose)
from ...runtime.hybrid import LOCAL, value_distributed
from ...runtime.plan import PredictedOp, StatementPath
from ...runtime.pricing import price_fused_ewise
from ..sparsity.base import Sketch
from .model import CostModel, Priced


@dataclass
class ProgramCost:
    """Predicted cost of one full program run."""

    prologue_seconds: float = 0.0
    per_iteration_seconds: float = 0.0
    iterations: int = 1
    #: Names of statements hoisted before the loop (for diagnostics).
    hoisted: list[str] = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        return self.prologue_seconds + self.iterations * self.per_iteration_seconds


class ProgramCostEvaluator:
    """Estimates the cost of executing a program on the simulated cluster."""

    def __init__(self, model: CostModel):
        self.model = model
        #: Recording sink: when set (final plan evaluation only), every
        #: priced operator appends a PredictedOp under the current
        #: statement path — the execution tracer's prediction source.
        self._record: dict[StatementPath, list[PredictedOp]] | None = None
        self._path: StatementPath | None = None

    def evaluate(self, program: Program, input_sketches: dict[str, Sketch],
                 iterations: int | None = None,
                 record: dict[StatementPath, list[PredictedOp]] | None = None,
                 ) -> ProgramCost:
        """Price one program run; optionally record per-operator predictions.

        ``record``, when given, is filled with statement-path -> ordered
        predicted operator prices. Recording is pure observation: the
        returned cost is bit-identical with or without it.
        """
        self._record = record
        self._path = None
        env: dict[str, Sketch] = dict(input_sketches)
        env["__always__"] = self.model.scalar()
        cost = ProgramCost()
        try:
            for index, stmt in enumerate(program.statements):
                if isinstance(stmt, Assign):
                    self._path = (index,)
                    seconds, sketch = self._price_expr(stmt.expr, env)
                    self._path = None
                    cost.prologue_seconds += seconds
                    cost.hoisted.append(stmt.target)
                    env[stmt.target] = sketch
                elif isinstance(stmt, WhileLoop):
                    loop_iters = iterations if iterations is not None else stmt.max_iterations
                    cost.iterations = loop_iters
                    cost.per_iteration_seconds += self._price_loop(stmt, env, (index,))
                else:  # pragma: no cover - defensive
                    raise OptimizerError(f"unknown statement type {type(stmt).__name__}")
        finally:
            self._record = None
            self._path = None
        return cost

    def _price_loop(self, loop: WhileLoop, env: dict[str, Sketch],
                    path: StatementPath) -> float:
        # Same in-order DFS as WhileLoop.assignments(), with statement paths.
        pairs = list(_assignments_with_paths(loop.body, path))
        # First pass settles loop-carried sketches (unpriced); second pass
        # is priced (and recorded: the steady-state prices are the plan's
        # prediction).
        for _stmt_path, stmt in pairs:
            env[stmt.target] = self.propagate(stmt.expr, env)
        total = 0.0
        for stmt_path, stmt in pairs:
            self._path = stmt_path
            seconds, sketch = self._price_expr(stmt.expr, env)
            self._path = None
            env[stmt.target] = sketch
            total += seconds
        return total

    def propagate(self, expr: Expr, env: dict[str, Sketch]) -> Sketch:
        """The sketch of ``expr``, unpriced: the walk of :meth:`_price_expr`
        with every price left out (module docstring)."""
        return self._price_expr(expr, env, pricing=False)[1]

    def _note(self, kind: str, priced) -> None:
        """Record one priced operator under the current statement path."""
        if self._record is None or self._path is None:
            return
        meta = self.model.meta(priced.sketch)
        price = priced.price
        self._record.setdefault(self._path, []).append(PredictedOp(
            kind=kind, impl=price.impl, seconds=price.seconds,
            compute_seconds=price.compute_seconds,
            transmission_seconds=price.transmission_seconds,
            out_rows=meta.rows, out_cols=meta.cols, out_nnz=meta.nnz))

    # ------------------------------------------------------------------
    # Expression pricing (the operators the executor's lowering emits)
    # ------------------------------------------------------------------
    def _price_expr(self, expr: Expr, env: dict[str, Sketch],
                    pricing: bool = True) -> tuple[float, Sketch]:
        """(seconds, sketch) of ``expr``; ``pricing=False`` reads 0.0 seconds
        and asks the estimator, not the model, at every operator."""
        if isinstance(expr, (MatrixRef, ScalarRef)):
            try:
                return 0.0, env[expr.name]
            except KeyError:
                raise OptimizerError(f"undefined variable {expr.name!r} "
                                     "during cost evaluation") from None
        if isinstance(expr, Literal):
            return 0.0, self.model.scalar()
        if isinstance(expr, MatMul):
            return self._price_matmul(expr, env, pricing)
        if isinstance(expr, Transpose):
            seconds, sketch = self._price_expr(expr.child, env, pricing)
            if self.model.meta(sketch).is_scalar_like:
                return seconds, sketch
            if not pricing:
                return 0.0, self.model.estimator.transpose(sketch)
            priced = self.model.transpose(sketch)
            self._note("transpose", priced)
            return seconds + priced.seconds, priced.sketch
        if type(expr) in ZIP_KINDS:
            if pricing and self.model.policy.fuse:
                fused = self._try_price_fused_ewise(expr, env)
                if fused is not None:
                    return fused
            kind = ZIP_KINDS[type(expr)]
            sec_l, left = self._price_expr(expr.left, env, pricing)
            sec_r, right = self._price_expr(expr.right, env, pricing)
            if not pricing:
                return 0.0, self.model.ewise_sketch(kind, left, right)
            priced = self.model.ewise(kind, left, right)
            self._note(kind, priced)
            return sec_l + sec_r + priced.seconds, priced.sketch
        if isinstance(expr, Neg):
            return self._price_expr(expr.child, env, pricing)
        if isinstance(expr, Compare):
            sec_l, _ = self._price_expr(expr.left, env, pricing)
            sec_r, _ = self._price_expr(expr.right, env, pricing)
            return sec_l + sec_r, self.model.scalar()
        if isinstance(expr, Call):
            return self._price_call(expr, env, pricing)
        raise OptimizerError(f"cannot price expression node {type(expr).__name__}")

    def _price_matmul(self, expr: MatMul, env: dict[str, Sketch],
                      pricing: bool) -> tuple[float, Sketch]:
        if pricing:
            fused = self._try_price_mmchain(expr, env)
            if fused is not None:
                return fused
        left_expr, left_fused = unwrap_transpose(expr.left)
        right_expr, right_fused = unwrap_transpose(expr.right)
        sec_l, left = self._price_expr(left_expr, env, pricing)
        sec_r, right = self._price_expr(right_expr, env, pricing)
        left_meta = self.model.meta(left)
        right_meta = self.model.meta(right)
        if left_meta.is_scalar_like and right_meta.is_scalar_like:
            return sec_l + sec_r, self.model.scalar()
        if not pricing:
            return 0.0, self.model.matmul_sketch(left, right, left_fused,
                                                 right_fused)[2]
        priced = self.model.matmul(left, right, left_fused_transpose=left_fused,
                                   right_fused_transpose=right_fused)
        self._note("matmul", priced)
        return sec_l + sec_r + priced.seconds, priced.sketch

    def _try_price_fused_ewise(self, expr: Expr, env: dict[str, Sketch]
                               ) -> tuple[float, Sketch] | None:
        """Mirror the executor's cost-gated element-wise region fusion."""
        region = find_ewise_region(expr)
        if region is None:
            return None
        leaf_sketches: list[Sketch] = []
        for leaf in region.leaves:
            if isinstance(leaf, Literal):
                leaf_sketches.append(self.model.scalar())
            else:
                sketch = env.get(leaf.name)
                if sketch is None:
                    return None  # normal path raises the canonical error
                leaf_sketches.append(sketch)
        estimate = price_fused_region(self.model, region, leaf_sketches)
        if estimate is None or not estimate.fuses:
            return None
        self._note("fused_ewise", estimate.fused)
        return estimate.fused.seconds, estimate.fused.sketch

    def _try_price_mmchain(self, expr: MatMul,
                           env: dict[str, Sketch]) -> tuple[float, Sketch] | None:
        """The executor's mmchain fusion (legacy and cost-gated), priced."""
        match = mmchain_match(expr)
        if match is None:
            return None
        x_expr, v_expr, by_cost = match
        policy = self.model.policy
        sec_x, x = self._price_expr(x_expr, env)
        x_meta = self.model.meta(x)
        legacy = policy.mmchain_applicable_cols(x_meta.cols)
        if not (legacy or policy.fuse and by_cost):
            return None
        sec_v, v = self._price_expr(v_expr, env)
        v_meta = self.model.meta(v)
        if v_meta.is_scalar_like or x_meta.is_scalar_like:
            return None
        if not legacy and not mmchain_beats_unfused(
                x_meta, v_meta, 1.0, 1.0, self.model.config, policy):
            return None
        priced = self.model.mmchain(x, v, exact_inner=not legacy)
        self._note("mmchain", priced)
        return sec_x + sec_v + priced.seconds, priced.sketch

    def _price_call(self, expr: Call, env: dict[str, Sketch],
                    pricing: bool) -> tuple[float, Sketch]:
        seconds, sketch = self._price_expr(expr.args[0], env, pricing)
        if expr.func in ("sum", "trace", "norm"):
            if not pricing:
                return 0.0, self.model.scalar()
            priced = self.model.aggregate(
                sketch, flop_multiplier=2.0 if expr.func == "norm" else 1.0)
            self._note("aggregate", priced)
            return seconds + priced.seconds, priced.sketch
        if expr.func in ("rowsums", "colsums", "diag"):
            if not pricing:
                return 0.0, self.model.structural_sketch(expr.func, sketch)[1]
            priced = self.model.structural(expr.func, sketch)
            self._note("structural", priced)
            return seconds + priced.seconds, priced.sketch
        if expr.func in CELLWISE_BUILTINS and \
                not self.model.meta(sketch).is_scalar_like:
            if not pricing:
                return 0.0, self.model.map_cells_sketch(expr.func, sketch)
            priced = self.model.map_cells(expr.func, sketch)
            self._note("map", priced)
            return seconds + priced.seconds, priced.sketch
        # nrow/ncol and scalar math: metadata-only, free.
        return seconds, self.model.scalar()


@dataclass
class FusedRegionEstimate:
    """The cost model's verdict on one fusable element-wise region."""

    fused: Priced
    unfused_seconds: float
    member_count: int

    @property
    def fuses(self) -> bool:
        """Strictly cheaper fused than unfused — same rule as the runtime."""
        return self.fused.seconds < self.unfused_seconds


def price_fused_region(model: CostModel, region: Region,
                       leaf_sketches: list[Sketch]) -> FusedRegionEstimate | None:
    """Price a fusable region both ways from estimator sketches.

    Mirrors :func:`repro.runtime.fusion.plan_fused_ewise` on the model
    side: member sketches propagate through the memoized estimator exactly
    as the unfused operators would (fusion changes pricing, never
    sketches), the unfused cost is the summed member prices, and the fused
    cost is one :func:`~repro.runtime.pricing.price_fused_ewise` over the
    summed member FLOPs. Regions with no distributed member return None —
    local regions never fuse. Shared by the program cost evaluator and the
    optimizer's fusion-region enumerator.
    """
    scalar_meta = MatrixMeta(1, 1)
    # Per region node: (is_scalar, sketch).
    results: list[tuple[bool, Sketch]] = []
    unfused_seconds = 0.0
    fused_flops = 0.0
    member_count = 0
    matrix_leaves: list[Sketch] = []
    seen: set[int] = set()
    any_distributed = False
    for node in region.nodes:
        if node.op == "leaf":
            sketch = leaf_sketches[node.a]
            is_scalar = model.meta(sketch).is_scalar_like
            if not is_scalar and id(sketch) not in seen:
                seen.add(id(sketch))
                matrix_leaves.append(sketch)
            results.append((is_scalar, sketch))
            continue
        if node.op == "neg":
            is_scalar, sketch = results[node.a]
            if is_scalar:
                return None  # scalar subtree: seed path arithmetic
            # The unfused model prices negation as free; the fused pass
            # still touches the support once, like the negate kernel.
            fused_flops += flops.ewise_mul_flops(model.meta(sketch), scalar_meta)
            member_count += 1
            results.append((False, sketch))
            continue
        left_scalar, left = results[node.a]
        right_scalar, right = results[node.b]
        if left_scalar and right_scalar:
            return None  # scalar-scalar member: seed path
        priced = model.ewise(node.op, left, right)
        unfused_seconds += priced.seconds
        fused_flops += flops.ewise_flops(node.op, model.meta(left),
                                         model.meta(right))
        member_count += 1
        if priced.price.impl != LOCAL:
            any_distributed = True
        results.append((False, priced.sketch))
    if not any_distributed or not matrix_leaves:
        return None
    broadcast_metas = [model.meta(sketch) for sketch in matrix_leaves
                       if not value_distributed(model.meta(sketch),
                                                model.config, model.policy)]
    root_sketch = results[-1][1]
    price = price_fused_ewise(fused_flops, broadcast_metas,
                              model.meta(root_sketch), True,
                              model.config, model.policy)
    return FusedRegionEstimate(Priced(price, root_sketch), unfused_seconds,
                               member_count)


def _assignments_with_paths(body, path: StatementPath):
    """Yield (statement path, Assign) in WhileLoop.assignments() order."""
    for index, stmt in enumerate(body):
        stmt_path = path + (index,)
        if isinstance(stmt, Assign):
            yield stmt_path, stmt
        else:
            yield from _assignments_with_paths(stmt.body, stmt_path)


def sketch_inputs(model: CostModel, input_meta: dict, input_data: dict | None = None) -> dict[str, Sketch]:
    """Sketch every program input, preferring actual data when provided."""
    sketches: dict[str, Sketch] = {}
    data = input_data or {}
    for name, meta in input_meta.items():
        symmetric = getattr(meta, "symmetric", False)
        sketches[name] = model.sketch_of(data.get(name), meta, symmetric=symmetric)
    return sketches
