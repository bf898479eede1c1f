"""The executor: runs programs on the simulated cluster.

Walks the (possibly rewritten) program statement by statement, running each
expression's records (:func:`~repro.core.cost.evaluate.prepare_records`:
a compiled plan carries them, any other plan is prepared per run) through
:class:`~repro.runtime.physical.Kernels`, which computes real values and
advances the simulated clock. A FUSED or MMCHAIN record runs fused or plain
as the cost evaluation that priced it decided; the executor prices nothing.
``while`` loops genuinely evaluate their scalar conditions, bounded by the
loop's ``max_iterations``.

Transposes directly under a multiplication are *fused* (executed
block-locally inside the multiply, SystemDS-style); only materialized
transposes pay the distributed re-key shuffle. A cell-wise operator over
statically 1x1 operands computes on driver floats (docs/architecture.md §7).
Two products marked as a chain over one reference (``Op.chain``) run in one
pass over its tiles, charged as the two products they are (§10).

Host wall-clock and the simulated clock are decoupled by design: the
kernels compute real tiles on the host, serially, and charge the simulated
cluster what the operator would cost there (docs/architecture.md §10).
"""

from __future__ import annotations

import math

from ..config import ClusterConfig
from ..cluster.metrics import MetricsCollector
from ..core.cost.evaluate import prepare_records
from ..core.cost.model import CostModel
from ..core.sparsity.metadata import MetadataEstimator
from ..errors import ExecutionError, OptimizerError, ShapeError
from ..lang.program import Assign, Program, Statement, WhileLoop
from . import fusion
from .hybrid import ExecutionPolicy, value_distributed
from .physical import Kernels, PartitionMemo, Value
from .plan import (CALL, COMPARE, CONST, EWISE, FUSED, LAST_READ, LOAD,
                   MATMUL, NEG, TRANSPOSE, CompiledProgram, Op)
from .recovery import RecoveryConfig, RecoveryManager
from .replan import PlanSwitch, Replanner

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
                 replanner: Replanner | None = None,
                 partitions: PartitionMemo | None = None):
        metrics = metrics or MetricsCollector()
        #: Optional :class:`~repro.runtime.recovery.RecoveryManager`; built
        #: only when a fault plan or recovery config is supplied, so the
        #: default path stays byte-identical to the fault-free build.
        self.recovery: RecoveryManager | None = None
        if fault_plan is not None or recovery_config is not None:
            self.recovery = RecoveryManager(config, metrics, plan=fault_plan,
                                            recovery_config=recovery_config,
                                            tracer=tracer)
        #: ``partitions`` (a :class:`~repro.runtime.physical.PartitionMemo`)
        #: keeps raw inputs' grids across runs; without it every load tiles.
        self.kernels = Kernels(config, policy, metrics, tracer=tracer,
                               recovery=self.recovery, partitions=partitions)
        self.metrics = self.kernels.metrics
        #: Optional :class:`~repro.runtime.trace.ExecutionTracer`; when None
        #: (the default) no spans are allocated and execution is unchanged.
        self.tracer = tracer
        #: Optional :class:`~repro.runtime.replan.Replanner`; when None (the
        #: default) no adaptation hooks run and execution is unchanged.
        self.replanner = replanner
        if self.replanner is not None and self.recovery is not None:
            self.recovery.on_shrink = self.replanner.note_shrink
        #: Iterations executed per loop on the last run, for reporting.
        self.loop_iterations: list[int] = []
        #: Top-level statements and declared outputs of the currently
        #: executing plan (the replanner carries the statements after a
        #: loop, and the outputs, into a switch).
        self._top_statements: list | tuple = ()
        self._outputs: tuple[str, ...] = ()
        #: Lowered records of the executing plan, by ``id`` of statement.
        self._lowered: dict[int, tuple[Op, ...]] = {}
        #: Each literal record's value, made on its first run here.
        self._constants: dict[Op, Value] = {}

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
        Returns the final environment: the inputs and the program's
        outputs, or every variable when the program declares none (a name
        is dropped once it is dead, :func:`~repro.runtime.plan.live_after`).
        """
        tracer = self.tracer
        if tracer is not None:
            tracer.begin_run(self.kernels.config.num_workers)
        env: dict[str, Value] = {}
        for name, data in inputs.items():
            if isinstance(data, (int, float)):
                env[name] = self.kernels.from_scalar(float(data))
            else:
                env[name] = self.kernels.load(name, data, symmetric=name in symmetric,
                                              charge_partition=charge_partition)
        env["__always__"] = self.kernels.from_scalar(1.0)
        self.loop_iterations = []
        statements, self._lowered = self._records(program, env)
        while True:
            self._top_statements = statements
            try:
                self._run_block(statements, env, ())
                break
            except PlanSwitch as switch:
                # Resume the replanned remaining program in the same
                # environment: loop counters and carried variables persist,
                # so values are untouched — only pricing and plan change.
                statements, self._lowered = self._records(switch.compiled,
                                                          env)
                if tracer is not None:
                    tracer.begin_run(self.kernels.config.num_workers,
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
                code = lowered[id(stmt)]
                try:
                    env[stmt.target] = self._eval(code, env)
                except ExecutionError as error:
                    error.annotate_statement(_path_str(path + (index,)),
                                             stmt.target)
                    raise
                for name in code.dead:
                    del env[name]
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
        iterations, code = 0, self._lowered[id(loop)]
        while iterations < loop.max_iterations:
            if tracer is not None:
                # Conditions are not priced by the cost model, so their
                # operator spans never carry predictions.
                tracer.begin_statement(path + ("cond",), None, kind="condition")
            try:
                condition = self._eval(code, env)
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
            if (replanner is not None and len(path) == 1
                    and iterations < loop.max_iterations):
                switched = replanner.consider(
                    self, loop, env, path, iterations,
                    tuple(self._top_statements[path[0] + 1:]))
                if switched is not None:
                    # Close this loop's spans before handing control back:
                    # the remaining iterations run as the new program's loop.
                    self.loop_iterations.append(iterations)
                    if tracer is not None:
                        tracer.end_loop(iterations)
                    raise PlanSwitch(switched, replanner.generation)
        self.loop_iterations.append(iterations)
        for name in code.dead:  # some died in the body, or were never set
            env.pop(name, None)
        if tracer is not None:
            tracer.end_loop(iterations)

    def _records(self, plan: Program | CompiledProgram,
                 env: dict[str, Value]) -> tuple[tuple[Statement, ...],
                                                 dict[int, tuple[Op, ...]]]:
        """The plan's statements and records: a compiled plan's, prepared
        under its ``policy.fuse`` (its fusion report is set when it fused),
        or this run's, prepared the same way over a ``MetadataEstimator``
        model of ``env``'s metas. From a statement that model cannot
        evaluate on, records run plain, and the run raises its own error."""
        if isinstance(plan, CompiledProgram):
            fused = plan.notes.get("fusion") is not None
            self._outputs = plan.program.outputs
            if plan.lowered is not None and fused == self.kernels.policy.fuse:
                return plan.program.statements, plan.lowered
            plan = plan.program
        self._outputs = plan.outputs
        kernels, lowered = self.kernels, {}
        model = CostModel(kernels.config, MetadataEstimator(), kernels.policy)
        metas = {name: value.meta for name, value in env.items()}
        try:
            prepare_records(model, plan, metas, lowered)
        except (OptimizerError, ShapeError):
            pass
        return plan.statements, lowered

    # ------------------------------------------------------------------
    # Expression evaluation
    # ------------------------------------------------------------------
    def _eval(self, code: tuple[Op, ...], env: dict[str, Value]) -> Value:
        """Run one lowered expression to its :class:`Value`; a tracer is
        told which record runs."""
        kernels, tracer, stack = self.kernels, self.tracer, []
        push, pop = stack.append, stack.pop
        ops = iter(code)
        for op in ops:
            if tracer is not None:
                tracer.running = op
            kind = op.kind
            if kind == LOAD:
                try:
                    push(env[op.arg])
                except KeyError:
                    raise ExecutionError(
                        f"undefined variable {op.arg!r}") from None
            elif kind == EWISE:
                right, left = pop(), pop()
                dying = op.dying and (self._dying(op.dying[0], left, right),
                                      self._dying(op.dying[1], right, left))
                push(getattr(kernels, op.arg)(left, right,
                                              dying or (False, False),
                                              op.driver))
            elif kind == CONST:
                value = self._constants.get(op)
                if value is None:
                    value = self._constants[op] = kernels.from_scalar(op.arg)
                push(value)
            elif kind == MATMUL:
                right, left = pop(), pop()
                if left.is_scalar and right.is_scalar:
                    # Degenerate 1x1 "matmul" behaves as scalar multiplication.
                    push(kernels.from_scalar(left.scalar_value()
                                             * right.scalar_value()))
                elif not op.chain:
                    push(kernels.matmul(left, right, *op.transposed))
                else:
                    # Both products of a chain over one reference X, which
                    # is already on the stack (t(X) %*% (X %*% v)) or this
                    # product's right operand ((u %*% t(X)) %*% X); the
                    # records up to the outer one (X's LOAD) are its.
                    outer, other_left = op.chain
                    push(kernels.matmul_chain(
                        left, right, op.transposed,
                        pop() if other_left else right, other_left,
                        outer.transposed, outer))
                    for skipped in ops:
                        if skipped is outer:
                            break
            elif kind == NEG:
                right = pop()
                push(kernels.negate(right, bool(op.dying)
                                    and self._dying(op.dying[0], right),
                                    op.driver))
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
                fused = self._run_fused(op, env)
                push(fused if fused is not None
                     else self._eval(op.sub[-1], env))
        return pop()

    def _dying(self, given_up: int, value: Value, *others: Value) -> bool:
        """Whether ``value`` dies into the cell-wise operator reading it
        beside ``others``: it is ``given_up`` (:attr:`Op.dying`), a grid
        (not a float) whose every tile a kernel made and lent to no other
        grid, and, under a recovery manager, not a local value read by a
        reader priced distributed (``price_ewise``'s rule on the operand
        metas), whose lineage thunk would re-read it written over with
        nothing to heal it first. A variable's value dies only unarmed
        (earlier readers' thunks may re-read it) and only if no input
        binding holds it (docs/architecture.md §10 item 7, §11)."""
        if not (given_up and value.number is None
                and value.matrix.owns_tiles):
            return False
        if given_up == LAST_READ:
            return self.recovery is None and value.name is None
        return self.recovery is None or value.distributed or not any(
            value_distributed(v.meta, self.kernels.config,
                              self.kernels.policy) for v in (value, *others))

    def _run_fused(self, op: Op, env: dict[str, Value]) -> Value | None:
        """Run a FUSED or MMCHAIN record its evaluation selected through
        the ``fused_ewise`` or ``mmchain`` kernel (an mmchain the column
        bound admits is priced on the legacy dense inner); None runs the
        plain code (declined, or a run-time bail of
        :func:`~repro.runtime.fusion.plan_fused_ewise`)."""
        if not op.fuse:
            return None
        kernels = self.kernels
        operands = [self._eval(code, env) for code in op.sub[:-1]]
        if self.tracer is not None:
            self.tracer.running = op  # again, now its operands have run
        if op.kind != FUSED:
            return kernels.mmchain(
                *operands, exact_inner=not
                kernels.policy.mmchain_applicable_cols(op.arg[1]))
        plan = fusion.plan_fused_ewise(op.arg, operands)
        return None if plan is None else kernels.fused_ewise(plan)

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


def _path_str(path: tuple) -> str:
    """Dotted statement path, same notation the execution tracer records."""
    return ".".join(str(part) for part in path)
