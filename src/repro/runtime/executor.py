"""The executor: runs programs on the simulated cluster.

Walks the (possibly rewritten) AST statement by statement, dispatching each
operator through :class:`~repro.runtime.physical.Kernels`, which computes
real values and advances the simulated clock. ``while`` loops genuinely
evaluate their scalar conditions, bounded by the loop's ``max_iterations``.

Transposes directly under a multiplication are *fused* (executed
block-locally inside the multiply, SystemDS-style); only materialized
transposes pay the distributed re-key shuffle.

Host wall-clock and the simulated clock are decoupled by design: the
kernels may fan block work out across host threads or worker processes
(``ClusterConfig.kernel_dispatch()``, docs/architecture.md §10) without
moving a single simulated nanosecond — the dispatch spec is perf-only and
every backend/width produces bit-identical values, metrics, and traces.
"""

from __future__ import annotations

import math

from ..config import ClusterConfig
from ..cluster.metrics import MetricsCollector
from ..errors import ExecutionError
from ..lang.ast import (
    Add,
    Call,
    Compare,
    ElemDiv,
    ElemMul,
    Expr,
    Literal,
    MatMul,
    MatrixRef,
    Neg,
    ScalarRef,
    Sub,
    Transpose,
)
from ..lang.program import Assign, Program, Statement, WhileLoop
from .hybrid import ExecutionPolicy
from .physical import Kernels, Value
from .plan import CompiledProgram
from .recovery import RecoveryConfig, RecoveryManager
from .replan import PlanSwitch, Replanner

_COMPARISONS = {
    "<": lambda a, b: a < b,
    ">": lambda a, b: a > b,
    "<=": lambda a, b: a <= b,
    ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}

_EWISE_KERNELS = {Add: "add", Sub: "subtract", ElemMul: "multiply",
                  ElemDiv: "divide"}

#: Expressions whose value others may hold: a variable's, and a transpose
#: (a view of its child's tiles, or a scalar child passed through as is).
_SHARED = frozenset({MatrixRef, ScalarRef, Transpose})

_SCALAR_MATH = {
    "sqrt": math.sqrt,
    "abs": abs,
    "exp": math.exp,
    "log": math.log,
    "sigmoid": lambda x: 1.0 / (1.0 + math.exp(-x)),
}


class Executor:
    """Executes programs against a simulated cluster configuration."""

    def __init__(self, config: ClusterConfig, policy: ExecutionPolicy | None = None,
                 metrics: MetricsCollector | None = None, tracer=None,
                 fault_plan=None, recovery_config: RecoveryConfig | None = None,
                 replanner: Replanner | None = None):
        self.config = config
        metrics = metrics or MetricsCollector()
        #: Optional :class:`~repro.runtime.recovery.RecoveryManager`; built
        #: only when a fault plan or recovery config is supplied, so the
        #: default path stays byte-identical to the fault-free build.
        self.recovery: RecoveryManager | None = None
        if fault_plan is not None or recovery_config is not None:
            self.recovery = RecoveryManager(config, metrics, plan=fault_plan,
                                            recovery_config=recovery_config,
                                            tracer=tracer)
        self.kernels = Kernels(config, policy, metrics, tracer=tracer,
                               recovery=self.recovery)
        self.metrics = self.kernels.metrics
        #: Optional :class:`~repro.runtime.trace.ExecutionTracer`; when None
        #: (the default) no spans are allocated and execution is unchanged.
        self.tracer = tracer
        #: Optional :class:`~repro.runtime.replan.Replanner`; when None (the
        #: default) no adaptation hooks run and execution is unchanged.
        self.replanner = replanner
        if (self.replanner is not None and self.recovery is not None
                and self.replanner.config.on_shrink):
            self.recovery.on_shrink = self.replanner.note_shrink
        #: Iterations executed per loop on the last run, for reporting.
        self.loop_iterations: list[int] = []
        #: Top-level statements of the currently executing plan (the
        #: replanner carries the statements after a loop into a switch).
        self._top_statements: list | tuple = ()

    # ------------------------------------------------------------------
    # Program entry points
    # ------------------------------------------------------------------
    def run(self, program: Program | CompiledProgram, inputs: dict[str, object],
            symmetric: set[str] | frozenset[str] = frozenset(),
            charge_partition: bool = False) -> dict[str, Value]:
        """Execute ``program`` with the given input bindings.

        ``inputs`` values may be NumPy arrays, SciPy sparse matrices,
        :class:`~repro.matrix.blocked.BlockedMatrix`, or plain floats
        (scalars). ``symmetric`` names inputs known to be symmetric.
        Returns the final environment of all variables.
        """
        tracer = self.tracer
        if isinstance(program, CompiledProgram):
            if tracer is not None:
                tracer.begin_run(program.predicted_ops or {},
                                 self.config.num_workers)
            program = program.program
        elif tracer is not None:
            tracer.begin_run({}, self.config.num_workers)
        env: dict[str, Value] = {}
        for name, data in inputs.items():
            if isinstance(data, (int, float)):
                env[name] = self.kernels.from_scalar(float(data))
            else:
                env[name] = self.kernels.load(name, data, symmetric=name in symmetric,
                                              charge_partition=charge_partition)
        env["__always__"] = self.kernels.from_scalar(1.0)
        self.loop_iterations = []
        statements = program.statements
        while True:
            self._top_statements = statements
            try:
                self._run_block(statements, env, ())
                break
            except PlanSwitch as switch:
                # Resume the replanned remaining program in the same
                # environment: loop counters and carried variables persist,
                # so values are untouched — only pricing and plan change.
                statements = switch.compiled.program.statements
                if tracer is not None:
                    tracer.begin_run(switch.compiled.predicted_ops or {},
                                     self.kernels.config.num_workers,
                                     generation=switch.generation)
        if tracer is not None:
            self.metrics.trace_summary = tracer.metrics_summary()
        if self.recovery is not None:
            self.metrics.fault_summary = self.recovery.metrics_summary()
        if self.replanner is not None:
            self.metrics.replan_summary = self.replanner.metrics_summary()
        return env

    def _run_block(self, statements: list[Statement] | tuple[Statement, ...],
                   env: dict[str, Value], path: tuple = ()) -> None:
        tracer = self.tracer
        for index, stmt in enumerate(statements):
            stmt_path = path + (index,)
            if isinstance(stmt, Assign):
                if tracer is not None:
                    tracer.begin_statement(stmt_path, stmt.target)
                try:
                    env[stmt.target] = self.evaluate(stmt.expr, env)
                except ExecutionError as error:
                    error.annotate_statement(_path_str(stmt_path), stmt.target)
                    raise
                if tracer is not None:
                    tracer.end_statement()
            elif isinstance(stmt, WhileLoop):
                self._run_loop(stmt, env, stmt_path)
            else:  # pragma: no cover - defensive
                raise ExecutionError(f"unknown statement type {type(stmt).__name__}")

    def _run_loop(self, loop: WhileLoop, env: dict[str, Value],
                  path: tuple = ()) -> None:
        tracer = self.tracer
        if tracer is not None:
            tracer.begin_loop(path)
        iterations = 0
        while iterations < loop.max_iterations:
            if tracer is not None:
                # Conditions are not priced by the cost model, so their
                # operator spans never carry predictions.
                tracer.begin_statement(path + ("cond",), None, kind="condition")
            try:
                condition = self.evaluate(loop.condition, env)
            except ExecutionError as error:
                error.annotate_statement(_path_str(path + ("cond",)), None)
                raise
            if tracer is not None:
                tracer.end_statement()
            if not condition.is_scalar:
                raise ExecutionError("loop condition did not evaluate to a scalar")
            if condition.scalar_value() == 0.0:
                break
            if tracer is not None:
                tracer.begin_iteration(iterations)
            self._run_block(loop.body, env, path)
            if tracer is not None:
                tracer.end_iteration()
            iterations += 1
            recovery = self.recovery
            if (recovery is not None and recovery.config.checkpoint_every > 0
                    and iterations % recovery.config.checkpoint_every == 0):
                recovery.checkpoint(env.values(), iterations, _path_str(path))
            replanner = self.replanner
            if (replanner is not None and tracer is not None
                    and len(path) == 1 and iterations < loop.max_iterations):
                switched = replanner.consider(
                    self, loop, env, path, iterations,
                    tuple(self._top_statements[path[0] + 1:]))
                if switched is not None:
                    # Close this loop's spans before handing control back:
                    # the remaining iterations run as the new program's loop.
                    self.loop_iterations.append(iterations)
                    tracer.end_loop(iterations)
                    raise PlanSwitch(switched, replanner.generation)
        self.loop_iterations.append(iterations)
        if tracer is not None:
            tracer.end_loop(iterations)

    # ------------------------------------------------------------------
    # Expression evaluation
    # ------------------------------------------------------------------
    def evaluate(self, expr: Expr, env: dict[str, Value]) -> Value:
        """Evaluate one expression to a :class:`Value`."""
        try:
            handler = self._EVALUATE[type(expr)]
        except KeyError:
            raise ExecutionError("cannot execute expression node "
                                 f"{type(expr).__name__}") from None
        return handler(self, expr, env)

    def _eval_ref(self, expr: MatrixRef | ScalarRef,
                  env: dict[str, Value]) -> Value:
        try:
            return env[expr.name]
        except KeyError:
            raise ExecutionError(f"undefined variable {expr.name!r}") from None

    def _eval_literal(self, expr: Literal, env: dict[str, Value]) -> Value:
        return self.kernels.from_scalar(expr.value)

    def _eval_transpose(self, expr: Transpose, env: dict[str, Value]) -> Value:
        inner = self.evaluate(expr.child, env)
        if inner.is_scalar:
            return inner
        return self.kernels.transpose(inner)

    def _eval_ewise(self, expr: Add | Sub | ElemMul | ElemDiv,
                    env: dict[str, Value]) -> Value:
        kernels = self.kernels
        if kernels.policy.fuse:
            fused = self._try_fused_ewise(expr, env)
            if fused is not None:
                return fused
        left = self.evaluate(expr.left, env)
        right = self.evaluate(expr.right, env)
        # Looked up on the kernels by name at each call, as a plain
        # ``kernels.add(...)`` would be.
        return getattr(kernels, _EWISE_KERNELS[type(expr)])(
            left, right, dying=(self._dying(expr.left, left),
                                self._dying(expr.right, right)))

    def _eval_neg(self, expr: Neg, env: dict[str, Value]) -> Value:
        value = self.evaluate(expr.child, env)
        return self.kernels.negate(value, dying=self._dying(expr.child, value))

    def _dying(self, expr: Expr, value: Value) -> bool:
        """Whether ``value`` dies into the operator reading it: ``expr`` is
        not a variable or a transpose (whose values others share), a kernel
        made every tile of the grid, and no recovery manager's lineage
        thunks read operands again (or heal grids in place)."""
        return type(expr) not in _SHARED and value.matrix.owns_tiles \
            and self.recovery is None

    def _eval_matmul(self, expr: MatMul, env: dict[str, Value]) -> Value:
        fused = self._try_mmchain(expr, env)
        if fused is not None:
            return fused
        left_expr, left_fused = _unwrap_transpose(expr.left)
        right_expr, right_fused = _unwrap_transpose(expr.right)
        left = self.evaluate(left_expr, env)
        right = self.evaluate(right_expr, env)
        # Degenerate 1x1 "matmul" behaves as scalar multiplication.
        if left.is_scalar and right.is_scalar:
            return self.kernels.from_scalar(left.scalar_value() * right.scalar_value())
        return self.kernels.matmul(left, right, left_transposed=left_fused,
                                   right_transposed=right_fused)

    def _try_fused_ewise(self, expr: Expr, env: dict[str, Value]) -> Value | None:
        """Fuse an element-wise region when the cost model prices it cheaper.

        Region leaves are references/literals, so both the detection probe
        and a declined fusion cost nothing: returning None falls through to
        the untouched recursive path, whose re-evaluation of the leaves is
        a free environment lookup — values, metrics, and trace on that path
        are identical to a run with fusion disabled.
        """
        from .fusion import find_ewise_region, plan_fused_ewise
        region = find_ewise_region(expr)
        if region is None:
            return None
        leaf_values = [self.evaluate(leaf, env) for leaf in region.leaves]
        plan = plan_fused_ewise(region, leaf_values, self.config,
                                self.kernels.policy)
        if plan is None or not plan.fuses:
            return None
        return self.kernels.fused_ewise(plan)

    def _try_mmchain(self, expr: MatMul, env: dict[str, Value]) -> Value | None:
        """Fuse ``t(X) %*% (X %*% v)`` when the policy's mmchain allows it.

        Two admission paths: the legacy structural column bound
        (SystemDS-style, fuses unconditionally when it matches), and — with
        ``policy.fuse`` — a cost-gated path open to any shape, taken only
        when the fused pass prices below the two unfused multiplies. The
        cost-gated path demands plain-reference operands so declining it
        re-evaluates nothing.
        """
        if not isinstance(expr.left, Transpose):
            return None
        if not isinstance(expr.right, MatMul):
            return None
        if expr.left.child != expr.right.left:
            return None
        x = self.evaluate(expr.left.child, env)
        if self.kernels.policy.mmchain_applicable_cols(x.meta.cols):
            v = self.evaluate(expr.right.right, env)
            if v.is_scalar or x.is_scalar:
                return None
            return self.kernels.mmchain(x, v)
        if not self.kernels.policy.fuse:
            return None
        if not isinstance(expr.left.child, (MatrixRef, ScalarRef)):
            return None
        if not isinstance(expr.right.right, (MatrixRef, ScalarRef, Literal)):
            return None
        v = self.evaluate(expr.right.right, env)
        if v.is_scalar or x.is_scalar:
            return None
        from .fusion import mmchain_beats_unfused
        if not mmchain_beats_unfused(x.meta, v.meta, x.imbalance, v.imbalance,
                                     self.config, self.kernels.policy):
            return None
        return self.kernels.mmchain(x, v, exact_inner=True)

    def _eval_compare(self, expr: Compare, env: dict[str, Value]) -> Value:
        left = self.evaluate(expr.left, env)
        right = self.evaluate(expr.right, env)
        if not (left.is_scalar and right.is_scalar):
            raise ExecutionError("comparisons require scalar operands")
        outcome = _COMPARISONS[expr.op](left.scalar_value(), right.scalar_value())
        return self.kernels.from_scalar(1.0 if outcome else 0.0)

    def _eval_call(self, expr: Call, env: dict[str, Value]) -> Value:
        arg = self.evaluate(expr.args[0], env)
        if expr.func == "sum":
            return self.kernels.aggregate_sum(arg)
        if expr.func == "norm":
            return self.kernels.aggregate_norm(arg)
        if expr.func == "trace":
            return self.kernels.aggregate_trace(arg)
        if expr.func == "nrow":
            return self.kernels.from_scalar(float(arg.meta.rows))
        if expr.func == "ncol":
            return self.kernels.from_scalar(float(arg.meta.cols))
        if expr.func in ("rowsums", "colsums", "diag"):
            return self.kernels.structural(arg, expr.func)
        if expr.func in _SCALAR_MATH and arg.is_scalar:
            return self.kernels.from_scalar(_SCALAR_MATH[expr.func](arg.scalar_value()))
        if expr.func in self.kernels._CELLWISE:
            return self.kernels.map_cells(arg, expr.func)
        raise ExecutionError(f"unknown builtin {expr.func!r}")

    #: ``evaluate``'s branch for each node type (the AST classes are
    #: leaves: none is subclassed).
    _EVALUATE = {
        MatrixRef: _eval_ref, ScalarRef: _eval_ref, Literal: _eval_literal,
        MatMul: _eval_matmul, Transpose: _eval_transpose,
        Add: _eval_ewise, Sub: _eval_ewise, ElemMul: _eval_ewise,
        ElemDiv: _eval_ewise, Neg: _eval_neg, Compare: _eval_compare,
        Call: _eval_call,
    }


def _unwrap_transpose(expr: Expr) -> tuple[Expr, bool]:
    """Peel one transpose for fusion into an adjacent multiply."""
    if isinstance(expr, Transpose):
        return expr.child, True
    return expr, False


def _path_str(path: tuple) -> str:
    """Dotted statement path, same notation the execution tracer records."""
    return ".".join(str(part) for part in path)
