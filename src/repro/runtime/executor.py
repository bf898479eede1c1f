"""The executor: runs programs on the simulated cluster.

Walks the (possibly rewritten) program statement by statement, running each
expression's operators (lowered once per plan, :func:`lower`) through
:class:`~repro.runtime.physical.Kernels`, which computes real values and
advances the simulated clock. ``while`` loops genuinely evaluate their
scalar conditions, bounded by the loop's ``max_iterations``.

Transposes directly under a multiplication are *fused* (executed
block-locally inside the multiply, SystemDS-style); only materialized
transposes pay the distributed re-key shuffle. A cell-wise operator over
statically 1x1 operands computes on driver floats (docs/architecture.md §7).

Host wall-clock and the simulated clock are decoupled by design: the
kernels compute real tiles on the host, serially, and charge the simulated
cluster what the operator would cost there (docs/architecture.md §10).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from ..config import ClusterConfig
from ..cluster.metrics import MetricsCollector
from ..errors import ExecutionError
from ..lang.ast import (
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
from ..lang.program import Assign, Program, Statement, WhileLoop
from ..lang.typecheck import static_shape
from ..matrix.meta import MatrixMeta
from . import fusion
from .hybrid import ExecutionPolicy
from .physical import Kernels, Value
from .plan import CompiledProgram
from .recovery import RecoveryConfig, RecoveryManager
from .replan import PlanSwitch, Replanner

_COMPARISONS = {"<": operator.lt, ">": operator.gt, "<=": operator.le,
                ">=": operator.ge, "==": operator.eq, "!=": operator.ne}

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

#: What a lowered record runs (:attr:`Op.kind`).
LOAD, CONST, EWISE, NEG, MATMUL, TRANSPOSE, COMPARE, CALL, MMCHAIN, \
    FUSED = range(10)


@dataclass(slots=True, eq=False)
class Op:
    """One operator of a lowered expression, over the stack the records
    before it left. ``arg``: a name, a literal's value, a :class:`Kernels`
    method's name (looked up at each call, so class wrappers see it), a
    comparison, a builtin, a region, or whether mmchain may be admitted by
    cost. ``dying``: per operand, kernel-built (empty when none is);
    ``shape``: static, None when unknown; ``sub``: a fusion's codes, plain
    last."""

    kind: int
    arg: object = None
    transposed: tuple[bool, bool] = (False, False)
    dying: tuple[bool, ...] = ()
    driver: bool = False
    shape: tuple[int, int] | None = None
    sub: tuple = ()


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
        #: Lowered records of the executing plan, by ``id`` of statement.
        self._lowered: dict[int, tuple[Op, ...]] = {}

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
        plan = program
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
        self._lowered = self._lower(plan, program, env)
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
                self._lowered = self._lower(switch.compiled,
                                            switch.compiled.program, env)
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
        lowered = self._lowered
        for index, stmt in enumerate(statements):
            if isinstance(stmt, Assign):
                if tracer is not None:
                    tracer.begin_statement(path + (index,), stmt.target)
                try:
                    env[stmt.target] = self._eval(lowered[id(stmt)], env)
                except ExecutionError as error:
                    error.annotate_statement(_path_str(path + (index,)),
                                             stmt.target)
                    raise
                if tracer is not None:
                    tracer.end_statement()
            elif isinstance(stmt, WhileLoop):
                self._run_loop(stmt, env, path + (index,))
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
                condition = self._eval(self._lowered[id(loop)], env)
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

    def _lower(self, plan: Program | CompiledProgram, program: Program,
               env: dict[str, Value]) -> dict[int, tuple[Op, ...]]:
        """``program``'s records: kept with a compiled plan (shared by its
        plan-cache copies), made per run of a bare :class:`Program`."""
        kept = plan.lowered if isinstance(plan, CompiledProgram) else {}
        key = (self.config.block_size, self.kernels.policy.fuse)
        if key not in kept:
            kept[key] = lower(program.statements, env, self.kernels)
        return kept[key]

    # ------------------------------------------------------------------
    # Expression evaluation
    # ------------------------------------------------------------------
    def _eval(self, code: tuple[Op, ...], env: dict[str, Value]) -> Value:
        """Run one lowered expression to its :class:`Value`."""
        kernels, stack = self.kernels, []
        push, pop = stack.append, stack.pop
        for op in code:
            kind = op.kind
            if kind == LOAD:
                try:
                    push(env[op.arg])
                except KeyError:
                    raise ExecutionError(
                        f"undefined variable {op.arg!r}") from None
            elif kind == EWISE:
                right, left = pop(), pop()
                dying = op.dying and (self._dying(op.dying[0], left),
                                      self._dying(op.dying[1], right))
                push(getattr(kernels, op.arg)(left, right,
                                              dying or (False, False),
                                              op.driver))
            elif kind == CONST:
                push(op.arg)
            elif kind == MATMUL:
                right, left = pop(), pop()
                if left.is_scalar and right.is_scalar:
                    # Degenerate 1x1 "matmul" behaves as scalar multiplication.
                    push(kernels.from_scalar(left.scalar_value()
                                             * right.scalar_value()))
                else:
                    push(kernels.matmul(left, right, *op.transposed))
            elif kind == NEG:
                right = pop()
                push(kernels.negate(right, bool(op.dying)
                                    and self._dying(True, right), op.driver))
            elif kind == TRANSPOSE:
                right = pop()
                push(right if right.is_scalar else kernels.transpose(right))
            elif kind == CALL:
                push(self._call(op.arg, pop()))
            elif kind == COMPARE:
                right, left = pop(), pop()
                if not (left.is_scalar and right.is_scalar):
                    raise ExecutionError("comparisons require scalar operands")
                push(kernels.from_scalar(float(op.arg(left.scalar_value(),
                                                      right.scalar_value()))))
            else:
                fused = self._try_mmchain(op, env) if kind == MMCHAIN \
                    else self._try_fused_ewise(op, env)
                push(fused if fused is not None
                     else self._eval(op.sub[-1], env))
        return pop()

    def _dying(self, built: bool, value: Value) -> bool:
        """Whether ``value`` dies into the operator reading it: it is
        kernel-built, a grid (not a float) whose every tile a kernel made,
        and no recovery manager's thunks read operands again."""
        return built and value.number is None and value.matrix.owns_tiles \
            and self.recovery is None

    def _try_fused_ewise(self, op: Op, env: dict[str, Value]) -> Value | None:
        """Fuse an element-wise region when the cost model prices it
        cheaper. Its leaves are references/literals, so a declined fusion
        (None: run the plain code) re-reads them for free."""
        leaf_values = [self._eval(code, env) for code in op.sub[0]]
        plan = fusion.plan_fused_ewise(op.arg, leaf_values, self.config,
                                       self.kernels.policy)
        if plan is None or not plan.fuses:
            return None
        return self.kernels.fused_ewise(plan)

    def _try_mmchain(self, op: Op, env: dict[str, Value]) -> Value | None:
        """Fuse ``t(X) %*% (X %*% v)`` on the legacy column bound, or with
        ``policy.fuse`` (reference operands only) when the fused pass prices
        below the two unfused multiplies. None runs the plain code."""
        x_code, v_code, _plain = op.sub
        policy = self.kernels.policy
        x = self._eval(x_code, env)
        legacy = policy.mmchain_applicable_cols(x.meta.cols)
        if not (legacy or policy.fuse and op.arg):
            return None
        v = self._eval(v_code, env)
        if v.is_scalar or x.is_scalar:
            return None
        if not legacy and not fusion.mmchain_beats_unfused(
                x.meta, v.meta, x.imbalance, v.imbalance, self.config, policy):
            return None
        return self.kernels.mmchain(x, v, exact_inner=not legacy)

    def _call(self, func: str, arg: Value) -> Value:
        kernels = self.kernels
        if func in ("sum", "norm", "trace"):
            return getattr(kernels, "aggregate_" + func)(arg)
        if func in ("nrow", "ncol"):
            meta = arg.meta
            return kernels.from_scalar(float(
                meta.rows if func == "nrow" else meta.cols))
        if func in ("rowsums", "colsums", "diag"):
            return kernels.structural(arg, func)
        if func in _SCALAR_MATH and arg.is_scalar:
            x = arg.scalar_value()
            try:
                return kernels.from_scalar(_SCALAR_MATH[func](x))
            except (ValueError, OverflowError) as error:
                raise ExecutionError(f"{func}({x!r}): {error}") from None
        if func in kernels._CELLWISE:
            return kernels.map_cells(arg, func)
        raise ExecutionError(f"unknown builtin {func!r}")


def lower(statements: list[Statement] | tuple[Statement, ...],
          env: dict[str, Value], kernels: Kernels) -> dict[int, tuple[Op, ...]]:
    """Each assignment's and loop condition's records, by ``id`` of
    statement, under the shapes of ``env``'s values."""
    metas = {name: value.meta for name, value in env.items()}
    lowered: dict[int, tuple[Op, ...]] = {}

    def block(statements) -> None:
        for stmt in statements:
            loop = isinstance(stmt, WhileLoop)
            code = lowered[id(stmt)] = _lower_expr(
                stmt.condition if loop else stmt.expr, metas, kernels)
            if loop:
                block(stmt.body)
            elif code[-1].shape is None:
                metas.pop(stmt.target, None)
            else:
                metas[stmt.target] = MatrixMeta(*code[-1].shape)

    block(statements)
    return lowered


def _lower_expr(expr: Expr, metas: dict, kernels: Kernels) -> tuple[Op, ...]:
    """``expr`` in postfix order as the kernels run it: children left to
    right, one record per operator, a gated fusion holding its codes."""
    regions = kernels.policy.fuse

    def code_of(node: Expr, gated: bool = True) -> tuple[Op, ...]:
        code: list[Op] = []
        emit(node, code, gated)
        return tuple(code)

    def emit(node: Expr, code: list[Op], gated: bool = True):
        """Append ``node``'s records; return its static shape."""
        shape, kind = static_shape(node, metas), type(node)
        region = fusion.find_ewise_region(node) \
            if gated and regions and kind in fusion.ZIP_KINDS else None
        match = fusion.mmchain_match(node) if gated and kind is MatMul \
            else None
        if kind is MatrixRef or kind is ScalarRef:
            op = Op(LOAD, node.name)
        elif kind is Literal:
            op = Op(CONST, kernels.from_scalar(node.value))
        elif region is not None:
            op = Op(FUSED, region, sub=(
                tuple(map(code_of, region.leaves)), code_of(node, False)))
        elif match is not None:
            x, v, by_cost = match
            op = Op(MMCHAIN, by_cost, sub=(
                code_of(x), code_of(v), code_of(node, False)))
        elif kind in fusion.ZIP_KINDS or kind is Neg:
            children = (node.child,) if kind is Neg else (node.left, node.right)
            driver = _on_driver(*[emit(child, code) for child in children])
            built = tuple(not driver and type(child) not in _SHARED
                          for child in children)
            op = Op(NEG if kind is Neg else EWISE, fusion.ZIP_KINDS.get(kind),
                    dying=built if any(built) else (), driver=driver)
        elif kind is MatMul:
            (left, left_fused), (right, right_fused) = map(
                fusion.unwrap_transpose, (node.left, node.right))
            emit(left, code)
            emit(right, code)
            op = Op(MATMUL, transposed=(left_fused, right_fused))
        elif kind is Transpose:
            emit(node.child, code)
            op = Op(TRANSPOSE)
        elif kind is Call:
            emit(node.args[0], code)
            op = Op(CALL, node.func)
        elif kind is Compare:
            emit(node.left, code)
            emit(node.right, code)
            op = Op(COMPARE, _COMPARISONS[node.op])
        else:
            raise ExecutionError(
                f"cannot execute expression node {kind.__name__}")
        op.shape = shape
        code.append(op)
        return shape

    return code_of(expr)


def _on_driver(*shapes: tuple[int, int] | None) -> bool:
    """Whether an operator over these static shapes computes on floats."""
    return all(shape == (1, 1) for shape in shapes)


def _path_str(path: tuple) -> str:
    """Dotted statement path, same notation the execution tracer records."""
    return ".".join(str(part) for part in path)
