"""Program-level cost evaluation: a "sketch executor".

Interprets a program's lowered records (:func:`repro.runtime.plan.lower`,
the ones the executor runs) over estimator sketches, summing operator
prices instead of computing values: each FUSED and MMCHAIN record is
decided and priced here by the rules the runtime applies. Loop bodies are
evaluated to a sparsity steady state (two passes) and the second pass's
per-iteration cost is multiplied by the loop's iteration budget.

This is the arbiter every elimination strategy uses: the brute-force
enumerator prices each rewritten candidate program with it, and the DP's
chosen plan gets its final predicted cost, its predicted operators and its
fusion report from it.

:func:`propagate` is the unpriced walk: the sketch of one expression for
every caller that wants sketches only (sketch environments, operand
sketches, the loop settle pass). It walks the AST, skips the fusion
checks (fusion changes prices, never sketches) and asks the estimator
directly, so under a memoized estimator it returns the very sketch
objects the priced records would.
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
from ...lang.program import Assign, Program, WhileLoop
from ...matrix import ops as flops
from ...matrix.meta import MatrixMeta
from ...runtime.fusion import (ZIP_KINDS, Region, mmchain_beats_unfused,
                               unwrap_transpose)
from ...runtime.hybrid import LOCAL, value_distributed
from ...runtime.plan import (CALL, COMPARE, CONST, EWISE, FUSED, LOAD,
                             MATMUL, MMCHAIN, TRANSPOSE, Op, PredictedOp,
                             StatementPath, lower)
from ...runtime.pricing import price_fused_ewise
from ..sparsity.base import Sketch
from .model import CostModel, Priced


@dataclass
class ProgramCost:
    """Predicted cost of one full program run."""

    prologue_seconds: float = 0.0
    per_iteration_seconds: float = 0.0
    iterations: int = 1
    #: What each FUSED and MMCHAIN record decided, priced both ways (a
    #: recorded evaluation only): the fusion report's rows.
    regions: list[dict] = field(default_factory=list)

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
        self._regions: list[dict] = []

    def evaluate(self, program: Program, input_sketches: dict[str, Sketch],
                 iterations: int | None = None,
                 record: dict[StatementPath, list[PredictedOp]] | None = None,
                 lowered: dict[int, tuple[Op, ...]] | None = None,
                 ) -> ProgramCost:
        """Price one program run; optionally record per-operator predictions.

        ``lowered``: the program's records, lowered here from the input
        sketches' metas when not given. ``record``, when given, is filled
        with statement-path -> ordered predicted operator prices, and the
        cost's :attr:`~ProgramCost.regions` with the fusion decisions.
        Recording is pure observation: the returned cost is bit-identical
        with or without it.
        """
        model = self.model
        if lowered is None:
            lowered = lower(program.statements,
                            {name: model.meta(sketch)
                             for name, sketch in input_sketches.items()},
                            model.policy.fuse)
        cost = ProgramCost()
        self._record, self._regions = record, cost.regions
        env: dict[str, Sketch] = dict(input_sketches)
        env["__always__"] = model.scalar()
        for index, stmt in enumerate(program.statements):
            if isinstance(stmt, Assign):
                self._path = (index,)
                seconds, env[stmt.target] = self._run(lowered[id(stmt)], env)
                cost.prologue_seconds += seconds
            elif isinstance(stmt, WhileLoop):
                cost.iterations = iterations if iterations is not None \
                    else stmt.max_iterations
                cost.per_iteration_seconds += self._price_loop(
                    stmt, env, (index,), lowered)
            else:  # pragma: no cover - defensive
                raise OptimizerError(f"unknown statement type {type(stmt).__name__}")
        return cost

    def _price_loop(self, loop: WhileLoop, env: dict[str, Sketch],
                    path: StatementPath, lowered: dict) -> float:
        # Same in-order DFS as WhileLoop.assignments(), with statement paths.
        pairs = list(_assignments_with_paths(loop.body, path))
        # First pass settles loop-carried sketches (unpriced); second pass
        # is priced (and recorded: the steady-state prices are the plan's
        # prediction).
        for _stmt_path, stmt in pairs:
            env[stmt.target] = propagate(self.model, stmt.expr, env)
        total = 0.0
        for stmt_path, stmt in pairs:
            self._path = stmt_path
            seconds, env[stmt.target] = self._run(lowered[id(stmt)], env)
            total += seconds
        return total

    def _note(self, kind: str, priced, seconds: float) -> tuple[float, Sketch]:
        """``priced`` after operands that cost ``seconds``; recorded under
        the current statement path when recording."""
        if self._record is not None:
            meta = self.model.meta(priced.sketch)
            price = priced.price
            self._record.setdefault(self._path, []).append(PredictedOp(
                kind=kind, impl=price.impl, seconds=price.seconds,
                compute_seconds=price.compute_seconds,
                transmission_seconds=price.transmission_seconds,
                out_rows=meta.rows, out_cols=meta.cols, out_nnz=meta.nnz))
        return seconds + priced.seconds, priced.sketch

    # ------------------------------------------------------------------
    # The records, over sketches
    # ------------------------------------------------------------------
    def _run(self, code: tuple[Op, ...], env: dict[str, Sketch]
             ) -> tuple[float, Sketch]:
        """(seconds, sketch) of one lowered expression."""
        model, stack = self.model, []
        push, pop = stack.append, stack.pop
        for op in code:
            kind = op.kind
            if kind == LOAD:
                try:
                    push((0.0, env[op.arg]))
                except KeyError:
                    raise OptimizerError(f"undefined variable {op.arg!r} "
                                         "during cost evaluation") from None
            elif kind == CONST:
                push((0.0, model.scalar()))
            elif kind == EWISE:
                (sec_r, right), (sec_l, left) = pop(), pop()
                push(self._note(op.arg, model.ewise(op.arg, left, right),
                                sec_l + sec_r))
            elif kind == MATMUL:
                (sec_r, right), (sec_l, left) = pop(), pop()
                if model.meta(left).is_scalar_like \
                        and model.meta(right).is_scalar_like:
                    push((sec_l + sec_r, model.scalar()))
                else:
                    push(self._note("matmul", model.matmul(
                        left, right, *op.transposed), sec_l + sec_r))
            elif kind == TRANSPOSE:
                seconds, sketch = stack[-1]
                if not model.meta(sketch).is_scalar_like:
                    stack[-1] = self._note("transpose",
                                           model.transpose(sketch), seconds)
            elif kind == COMPARE:
                (sec_r, _), (sec_l, _) = pop(), pop()
                push((sec_l + sec_r, model.scalar()))
            elif kind == CALL:
                push(self._call(op.arg, *pop()))
            elif kind == MMCHAIN:
                push(self._mmchain(op, env))
            elif kind == FUSED:
                push(self._fused(op, env))
            # A NEG is priced free: its operand's entry stands for it.
        return pop()

    def _call(self, func: str, seconds: float, sketch: Sketch
              ) -> tuple[float, Sketch]:
        model = self.model
        if func in ("sum", "trace", "norm"):
            return self._note("aggregate", model.aggregate(
                sketch, flop_multiplier=2.0 if func == "norm" else 1.0),
                seconds)
        if func in ("rowsums", "colsums", "diag"):
            return self._note("structural", model.structural(func, sketch),
                              seconds)
        if func in CELLWISE_BUILTINS and \
                not model.meta(sketch).is_scalar_like:
            return self._note("map", model.map_cells(func, sketch), seconds)
        # nrow/ncol and scalar math: metadata-only, free.
        return seconds, model.scalar()

    def _fused(self, op: Op, env: dict[str, Sketch]) -> tuple[float, Sketch]:
        """The executor's cost-gated element-wise region fusion, priced."""
        leaves = [self._run(code, env)[1] for code in op.sub[0]]
        estimate = price_fused_region(self.model, op.arg, leaves)
        if estimate is None:
            return self._run(op.sub[-1], env)
        fused, unfused_seconds = estimate
        # Strictly cheaper fused than unfused: the runtime's rule.
        fuses = fused.seconds < unfused_seconds
        if self._record is not None:
            self._regions.append({
                "kind": "ewise", "members": op.arg.member_count,
                "fused_seconds": fused.seconds,
                "unfused_seconds": unfused_seconds, "selected": fuses})
        if not fuses:
            return self._run(op.sub[-1], env)
        return self._note("fused_ewise", fused, 0.0)

    def _mmchain(self, op: Op, env: dict[str, Sketch]) -> tuple[float, Sketch]:
        """The executor's mmchain fusion (legacy and cost-gated), priced."""
        x_code, v_code, plain = op.sub
        model, policy = self.model, self.model.policy
        sec_x, x = self._run(x_code, env)
        x_meta = model.meta(x)
        legacy = policy.mmchain_applicable_cols(x_meta.cols)
        if not (legacy or policy.fuse and op.arg):
            return self._run(plain, env)
        sec_v, v = self._run(v_code, env)
        v_meta = model.meta(v)
        if v_meta.is_scalar_like or x_meta.is_scalar_like:
            return self._run(plain, env)
        fuses = legacy or mmchain_beats_unfused(
            x_meta, v_meta, 1.0, 1.0, model.config, policy)
        fused = model.mmchain(x, v, exact_inner=not legacy)
        if self._record is not None:
            inner = model.matmul(x, v)
            outer = model.matmul(x, inner.sketch, left_fused_transpose=True)
            self._regions.append({
                "kind": "mmchain", "members": 2, "fused_seconds": fused.seconds,
                "unfused_seconds": inner.seconds + outer.seconds,
                "selected": fuses})
        if not fuses:
            return self._run(plain, env)
        return self._note("mmchain", fused, sec_x + sec_v)


def propagate(model: CostModel, expr: Expr, env: dict[str, Sketch]) -> Sketch:
    """The sketch of ``expr``, unpriced (module docstring)."""
    kind = type(expr)
    if kind is MatrixRef or kind is ScalarRef:
        try:
            return env[expr.name]
        except KeyError:
            raise OptimizerError(f"undefined variable {expr.name!r} "
                                 "during cost evaluation") from None
    if kind is Literal:
        return model.scalar()
    if kind is MatMul:
        (left, left_t), (right, right_t) = map(unwrap_transpose,
                                               (expr.left, expr.right))
        left, right = propagate(model, left, env), propagate(model, right, env)
        if model.meta(left).is_scalar_like and model.meta(right).is_scalar_like:
            return model.scalar()
        return model.matmul_sketch(left, right, left_t, right_t)[2]
    if kind is Transpose:
        sketch = propagate(model, expr.child, env)
        if model.meta(sketch).is_scalar_like:
            return sketch
        return model.estimator.transpose(sketch)
    if kind in ZIP_KINDS:
        return model.ewise_sketch(ZIP_KINDS[kind],
                                  propagate(model, expr.left, env),
                                  propagate(model, expr.right, env))
    if kind is Neg:
        return propagate(model, expr.child, env)
    if kind is Compare:
        propagate(model, expr.left, env)
        propagate(model, expr.right, env)
        return model.scalar()
    if kind is Call:
        sketch = propagate(model, expr.args[0], env)
        if expr.func in ("rowsums", "colsums", "diag"):
            return model.structural_sketch(expr.func, sketch)[1]
        if expr.func in CELLWISE_BUILTINS and \
                not model.meta(sketch).is_scalar_like:
            return model.map_cells_sketch(expr.func, sketch)
        return model.scalar()
    raise OptimizerError(f"cannot price expression node {kind.__name__}")


def price_fused_region(model: CostModel, region: Region,
                       leaf_sketches: list[Sketch]
                       ) -> tuple[Priced, float] | None:
    """Price a fusable region both ways from estimator sketches: the fused
    operator and the summed seconds of its unfused members.

    Mirrors :func:`repro.runtime.fusion.plan_fused_ewise` on the model
    side: member sketches propagate through the memoized estimator exactly
    as the unfused operators would (fusion changes pricing, never
    sketches), the unfused cost is the summed member prices, and the fused
    cost is one :func:`~repro.runtime.pricing.price_fused_ewise` over the
    summed member FLOPs. Regions with no distributed member return None —
    local regions never fuse.
    """
    scalar_meta = MatrixMeta(1, 1)
    # Per region node: (is_scalar, sketch).
    results: list[tuple[bool, Sketch]] = []
    unfused_seconds = 0.0
    fused_flops = 0.0
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
    return Priced(price, root_sketch), unfused_seconds


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
