"""Program-level cost evaluation: a "sketch executor".

Interprets a program's lowered records (:func:`repro.runtime.plan.lower`,
the ones the executor runs) over estimator sketches, summing operator
prices instead of computing values. It is the one fusion decider: each
FUSED and MMCHAIN record it prices is decided here and carries the
decision (``Op.fuse``), which the executor runs without pricing. Loop
bodies are evaluated to a sparsity steady state (two passes) and the
second pass's per-iteration cost is multiplied by the loop's iteration
budget.

This is the arbiter every elimination strategy uses: the brute-force
enumerator prices each rewritten candidate program with it, and the DP's
chosen plan gets its final predicted cost, its predicted operators and its
fusion report from it. :func:`prepare_records` makes every record the
executor runs, lowering and then evaluating with recording: for a
compile's final step, and for a run no compile prepared over a
``MetadataEstimator`` model of the loaded values' metas.

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
from ...matrix.meta import MatrixMeta
from ...runtime.fusion import (ZIP_KINDS, Region, mmchain_beats_unfused,
                               region_flops, unwrap_transpose)
from ...runtime.hybrid import LOCAL, value_distributed
from ...runtime.plan import (CALL, COMPARE, CONST, EWISE, FUSED, LOAD,
                             MATMUL, MMCHAIN, NEG, TRANSPOSE, Op,
                             PredictedOp, lower)
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
        #: Whether this evaluation writes each priced operator's
        #: PredictedOp onto its record (the compile's final one only).
        self._record = False
        self._regions: list[dict] = []

    def evaluate(self, program: Program, input_sketches: dict[str, Sketch],
                 iterations: int | None = None, record: bool = False,
                 lowered: dict[int, tuple[Op, ...]] | None = None,
                 ) -> ProgramCost:
        """Price one program run; optionally record per-operator predictions.

        ``lowered``: the program's records, lowered here from the input
        sketches' metas when not given. ``record``: write each priced
        operator's :class:`~repro.runtime.plan.PredictedOp` onto its record
        (``Op.predicted``, read by the execution tracer when the record
        runs; each record is priced at most once) and fill the cost's
        :attr:`~ProgramCost.regions` with the fusion decisions. Recording
        is pure observation: the returned cost is bit-identical with or
        without it.
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
        for stmt in program.statements:
            if isinstance(stmt, Assign):
                seconds, env[stmt.target] = self._run(lowered[id(stmt)], env)
                cost.prologue_seconds += seconds
            elif isinstance(stmt, WhileLoop):
                cost.iterations = iterations if iterations is not None \
                    else stmt.max_iterations
                cost.per_iteration_seconds += self._price_loop(
                    stmt, env, lowered)
            else:  # pragma: no cover - defensive
                raise OptimizerError(f"unknown statement type {type(stmt).__name__}")
        return cost

    def _price_loop(self, loop: WhileLoop, env: dict[str, Sketch],
                    lowered: dict) -> float:
        assignments = list(loop.assignments())
        # First pass settles loop-carried sketches (unpriced); second pass
        # is priced (and recorded: the steady-state prices are the plan's
        # prediction).
        for stmt in assignments:
            env[stmt.target] = propagate(self.model, stmt.expr, env)
        total = 0.0
        for stmt in assignments:
            seconds, env[stmt.target] = self._run(lowered[id(stmt)], env)
            total += seconds
        return total

    def _note(self, op: Op, kind: str, priced, seconds: float
              ) -> tuple[float, Sketch]:
        """``priced`` after operands that cost ``seconds``; written onto
        ``op`` when recording."""
        if self._record:
            meta = self.model.meta(priced.sketch)
            price = priced.price
            op.predicted = PredictedOp(
                kind=kind, impl=price.impl, seconds=price.seconds,
                compute_seconds=price.compute_seconds,
                transmission_seconds=price.transmission_seconds,
                out_rows=meta.rows, out_cols=meta.cols, out_nnz=meta.nnz)
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
                push(self._note(op, op.arg, model.ewise(op.arg, left, right),
                                sec_l + sec_r))
            elif kind == MATMUL:
                (sec_r, right), (sec_l, left) = pop(), pop()
                if model.meta(left).is_scalar_like \
                        and model.meta(right).is_scalar_like:
                    push((sec_l + sec_r, model.scalar()))
                else:
                    push(self._note(op, "matmul", model.matmul(
                        left, right, *op.transposed), sec_l + sec_r))
            elif kind == NEG:
                seconds, sketch = stack[-1]
                stack[-1] = self._note(op, "negate", model.negate(sketch),
                                       seconds)
            elif kind == TRANSPOSE:
                seconds, sketch = stack[-1]
                if not model.meta(sketch).is_scalar_like:
                    stack[-1] = self._note(op, "transpose",
                                           model.transpose(sketch), seconds)
            elif kind == COMPARE:
                (sec_r, _), (sec_l, _) = pop(), pop()
                push((sec_l + sec_r, model.scalar()))
            elif kind == CALL:
                push(self._call(op, *pop()))
            elif kind == MMCHAIN:
                push(self._mmchain(op, env))
            elif kind == FUSED:
                push(self._fused(op, env))
        return pop()

    def _call(self, op: Op, seconds: float, sketch: Sketch
              ) -> tuple[float, Sketch]:
        model, func = self.model, op.arg
        if func in ("sum", "trace", "norm"):
            return self._note(op, "aggregate", model.aggregate(
                sketch, flop_multiplier=2.0 if func == "norm" else 1.0),
                seconds)
        if func in ("rowsums", "colsums", "diag"):
            return self._note(op, "structural",
                              model.structural(func, sketch), seconds)
        if func in CELLWISE_BUILTINS and \
                not model.meta(sketch).is_scalar_like:
            return self._note(op, "map", model.map_cells(func, sketch),
                              seconds)
        # nrow/ncol and scalar math: metadata-only, free.
        return seconds, model.scalar()

    def _fused(self, op: Op, env: dict[str, Sketch]) -> tuple[float, Sketch]:
        """Decide and price a FUSED record: it fuses when the single pass
        prices strictly below the sum of its members."""
        leaves = [self._run(code, env)[1] for code in op.sub[:-1]]
        estimate = price_fused_region(self.model, op.arg, leaves)
        op.fuse = False
        if estimate is not None:
            fused, unfused_seconds = estimate
            op.fuse = fused.seconds < unfused_seconds
            if self._record:
                self._regions.append({
                    "kind": "ewise", "members": op.arg.member_count,
                    "fused_seconds": fused.seconds,
                    "unfused_seconds": unfused_seconds, "selected": op.fuse})
            if op.fuse:
                return self._note(op, "fused_ewise", fused, 0.0)
        return self._run(op.sub[-1], env)

    def _mmchain(self, op: Op, env: dict[str, Sketch]) -> tuple[float, Sketch]:
        """Decide and price an MMCHAIN record: the legacy column bound
        fuses it; under ``policy.fuse`` a by-cost record fuses when
        :func:`~repro.runtime.fusion.mmchain_beats_unfused`. A by-cost
        ``X`` is a reference and ``v`` a leaf, so declining after running
        their codes priced and recorded nothing of theirs."""
        x_code, v_code, plain = op.sub
        by_cost, x_cols = op.arg
        model, policy = self.model, self.model.policy
        legacy = policy.mmchain_applicable_cols(x_cols)
        op.fuse = False
        if not (legacy or policy.fuse and by_cost):
            return self._run(plain, env)
        (sec_x, x), (sec_v, v) = self._run(x_code, env), self._run(v_code, env)
        op.fuse = legacy or mmchain_beats_unfused(
            model.meta(x), model.meta(v), model.config, policy)
        fused = model.mmchain(x, v, exact_inner=not legacy)
        if self._record:
            inner = model.matmul(x, v)
            outer = model.matmul(x, inner.sketch, left_fused_transpose=True)
            self._regions.append({
                "kind": "mmchain", "members": 2, "fused_seconds": fused.seconds,
                "unfused_seconds": inner.seconds + outer.seconds,
                "selected": op.fuse})
        if not op.fuse:
            return self._run(plain, env)
        return self._note(op, "mmchain", fused, sec_x + sec_v)


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
    """Price a folded region both ways from estimator sketches: the fused
    operator and the summed seconds of its unfused members.

    Member sketches propagate through the memoized estimator exactly as
    the unfused operators would (fusion changes pricing, never sketches),
    the unfused cost is the summed member prices, and the fused cost is
    one :func:`~repro.runtime.pricing.price_fused_ewise` over the
    members' :func:`~repro.runtime.fusion.region_flops`, the count the
    run charges from observed nnz. Regions with no distributed member
    return None: local regions never fuse.
    """
    # Per folded node: its sketch.
    sketches: list[Sketch] = []
    unfused_seconds = 0.0
    matrix_leaves: list[Sketch] = []
    seen: set[int] = set()
    any_distributed = False
    for node in region.nodes:
        if node.op == "leaf":
            sketch = leaf_sketches[node.a]
            if id(sketch) not in seen:
                seen.add(id(sketch))
                matrix_leaves.append(sketch)
            sketches.append(sketch)
            continue
        left = sketches[node.a]
        if node.op == "neg":
            priced = model.negate(left)  # its sketch is the operand's
        else:
            right = sketches[node.b] if node.scalar < 0 \
                else leaf_sketches[node.scalar]
            if node.scalar_left:
                left, right = right, left
            priced = model.ewise(node.op, left, right)
        unfused_seconds += priced.seconds
        if priced.price.impl != LOCAL:
            any_distributed = True
        sketches.append(priced.sketch)
    if not any_distributed:
        return None
    broadcast_metas = [model.meta(sketch) for sketch in matrix_leaves
                       if not value_distributed(model.meta(sketch),
                                                model.config, model.policy)]
    root_sketch = sketches[-1]
    price = price_fused_ewise(
        region_flops(region, lambda node: model.meta(sketches[node])),
        broadcast_metas, model.meta(root_sketch), True, model.config,
        model.policy)
    return Priced(price, root_sketch), unfused_seconds


def prepare_records(model: CostModel, program: Program,
                    metas: dict[str, MatrixMeta],
                    lowered: dict[int, tuple[Op, ...]],
                    sketches: dict[str, Sketch] | None = None,
                    iterations: int | None = None) -> ProgramCost:
    """Lower ``program`` from ``metas`` under ``model.policy.fuse`` into
    ``lowered`` (the caller's empty dict; each code carries what dies
    after it, from the program's outputs) and price it once over
    ``sketches`` (the metas' own by default), deciding and predicting each
    record. If the evaluation raises, ``lowered`` holds every record, those
    before the unevaluable statement decided and predicted."""
    lowered.update(lower(program.statements, metas, model.policy.fuse,
                         program.outputs, program.inputs))
    if sketches is None:
        sketches = sketch_inputs(model, metas)
    return ProgramCostEvaluator(model).evaluate(
        program, sketches, iterations=iterations, record=True,
        lowered=lowered)


def sketch_inputs(model: CostModel, input_meta: dict, input_data: dict | None = None) -> dict[str, Sketch]:
    """Sketch every program input, preferring actual data when provided."""
    sketches: dict[str, Sketch] = {}
    data = input_data or {}
    for name, meta in input_meta.items():
        symmetric = getattr(meta, "symmetric", False)
        sketches[name] = model.sketch_of(data.get(name), meta, symmetric=symmetric)
    return sketches
