"""Shrink-driven adaptive replanning (graceful degradation).

A compiled plan is priced for the cluster it was compiled against. A
worker crash shrinks that cluster mid-run, and eliminations that only pay
off on fewer workers (compute scales with 1/W, a hoisted temporary's
one-off persist does not) were declined at full width. This module
re-prices the remaining program after a shrink:

* **Shrink watch.** A replanner exists only when replanning is asked
  for (``Engine.run(replan=True)``); the recovery manager's
  ``on_shrink`` callback marks the cluster as re-priceable; the next loop
  boundary recompiles the remaining program against the *current*
  (smaller) cluster config.

* **Safety gate.** A candidate plan is adopted only when it is
  *inline-equivalent* to the stale remaining program: with every
  optimizer-generated temporary substituted back into its use sites, the
  two programs must be structurally identical ASTs. Inline-equivalent
  programs perform the same value computations in the same order, so
  replanning can change simulated time and metrics but never the final
  matrices — the runs stay bit-identical to the fault-free, non-adaptive
  execution. Candidates that restructure further (different chain
  association) are rejected and counted, never executed.

Adopted plans are handed to the executor by raising :class:`PlanSwitch`
at a top-level loop boundary; the executor resumes the *new* program in
the *same* environment (loop counters and carried variables persist, so
the loop condition picks up where it left off). Each replan compile runs
with a generation-specific temporary prefix (``tREPLAN<gen>R``) so fresh
temps cannot collide with live hoisted temporaries from earlier plans,
and with the shrunken cluster in the plan-cache fingerprint, so repeated
identical replans are warm hits.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING

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
from .plan import CompiledProgram

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from .executor import Executor

#: Prefixes of optimizer-generated temporaries (original compile and every
#: replan generation). The inline-equivalence gate substitutes these back.
TEMP_PREFIXES = ("tREMAC", "tREPLAN")

#: Maximum plan switches per execution (a runaway guard; each adopted
#: replan increments the plan generation).
MAX_REPLANS = 4


class PlanSwitch(Exception):
    """Raised at a loop boundary to hand the executor an adopted plan.

    Control flow, not an error: the executor catches it in :meth:`~repro.
    runtime.executor.Executor.run` and resumes the new program in the
    current environment.
    """

    def __init__(self, compiled: CompiledProgram, generation: int):
        super().__init__(f"switching to replanned generation {generation}")
        self.compiled = compiled
        self.generation = generation


# ----------------------------------------------------------------------
# Inline-equivalence gate
# ----------------------------------------------------------------------
def _is_temp(name: str) -> bool:
    return name.startswith(TEMP_PREFIXES)


def _substitute(expr: Expr, mapping: dict[str, Expr]) -> Expr:
    """Rebuild ``expr`` with every mapped reference replaced."""
    if isinstance(expr, (MatrixRef, ScalarRef)):
        return mapping.get(expr.name, expr)
    if isinstance(expr, Literal):
        return expr
    if isinstance(expr, Transpose):
        return Transpose(_substitute(expr.child, mapping))
    if isinstance(expr, Neg):
        return Neg(_substitute(expr.child, mapping))
    if isinstance(expr, (MatMul, Add, Sub, ElemMul, ElemDiv)):
        return type(expr)(_substitute(expr.left, mapping),
                          _substitute(expr.right, mapping))
    if isinstance(expr, Compare):
        return Compare(op=expr.op, left=_substitute(expr.left, mapping),
                       right=_substitute(expr.right, mapping))
    if isinstance(expr, Call):
        return Call(expr.func, tuple(_substitute(arg, mapping)
                                     for arg in expr.args))
    return expr  # pragma: no cover - defensive: unknown nodes pass through


def _inline_block(statements, mapping: dict[str, Expr]) -> tuple[Statement, ...]:
    inlined: list[Statement] = []
    for stmt in statements:
        if isinstance(stmt, Assign):
            expr = _substitute(stmt.expr, mapping)
            if _is_temp(stmt.target):
                # Temp definitions disappear; their uses expand in place.
                mapping[stmt.target] = expr
                continue
            inlined.append(Assign(stmt.target, expr))
        elif isinstance(stmt, WhileLoop):
            condition = _substitute(stmt.condition, mapping)
            body = _inline_block(stmt.body, mapping)
            inlined.append(WhileLoop(condition=condition, body=body,
                                     max_iterations=stmt.max_iterations))
        else:  # pragma: no cover - defensive
            inlined.append(stmt)
    return tuple(inlined)


def inline_temporaries(program: Program) -> tuple[Statement, ...]:
    """The program with all optimizer temporaries substituted away.

    Temps referenced but never defined in the program (hoisted by an
    *earlier* plan, live in the environment) are left as plain references
    — both sides of an equivalence check see them identically.
    """
    return _inline_block(program.statements, {})


def inline_equivalent(old: Program, new: Program) -> bool:
    """Whether two programs compute identical values in identical order.

    Structural AST equality after temp inlining: sufficient for the
    bit-identity invariant because two inline-equivalent programs run the
    same deterministic kernel computations on the same values — a hoisted
    temporary only changes *when* a subexpression is computed relative to
    the loop, never what it computes, and the executor's arithmetic is
    deterministic. Any rewrite beyond hoisting/sharing (re-association,
    operand reordering) breaks the equality and is rejected.
    """
    return inline_temporaries(old) == inline_temporaries(new)


# ----------------------------------------------------------------------
# The replanner
# ----------------------------------------------------------------------
class Replanner:
    """Watches one execution and proposes mid-run plan switches.

    Owned by one :class:`~repro.runtime.executor.Executor` run; holds the
    engine optimizer for its config/policy baseline and its plan cache
    (replan compiles share the cache, keyed apart by temp prefix and the
    post-shrink cluster in the fingerprint).
    """

    def __init__(self, optimizer):
        self.optimizer = optimizer
        #: Current plan generation: 0 until a replan is adopted.
        self.generation = 0
        self._pending_shrink = False
        self._counters: dict[str, float] = {key: 0.0 for key in (
            "replan_checks",
            "replan_triggers",
            "replan_compiles",
            "replan_compile_seconds",
            "replan_adopted",
            "replan_no_change",
            "replan_rejected",
            "replan_shrink_events",
        )}

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def note_shrink(self, remaining_workers: int) -> None:
        """Recovery-manager callback: the cluster just shrank."""
        self._counters["replan_shrink_events"] += 1.0
        self._pending_shrink = True

    def metrics_summary(self) -> dict[str, float]:
        """Additive ``replan_*`` aggregates for
        :meth:`~repro.cluster.metrics.MetricsCollector.summary`."""
        summary = dict(self._counters)
        summary["replan_generation"] = float(self.generation)
        return summary

    # ------------------------------------------------------------------
    # The per-iteration hook (called by the executor's loop driver)
    # ------------------------------------------------------------------
    def consider(self, executor: "Executor", loop: WhileLoop, env: dict,
                 path: tuple, iterations_done: int,
                 trailing: tuple) -> CompiledProgram | None:
        """Decide, at a loop boundary, whether to switch plans.

        Returns the adopted compiled remaining-program, or None to keep
        executing the current plan. ``trailing`` holds the top-level
        statements after the loop (at ``path``), which ride along into
        the new program. The decision is recorded as a ``replan`` event
        when the executor has a tracer.
        """
        if self.generation >= MAX_REPLANS:
            return None
        self._counters["replan_checks"] += 1.0
        remaining = loop.max_iterations - iterations_done
        if remaining <= 1:
            return None  # too little left for a one-off hoist to amortize
        if not self._pending_shrink:
            return None
        self._counters["replan_triggers"] += 1.0
        compiled, reason = self._recompile(executor, loop, env, remaining,
                                           trailing)
        # One decision per shrink: re-arm only on the next one.
        self._pending_shrink = False
        tracer = executor.tracer
        workers = executor.kernels.config.num_workers
        if compiled is None:
            self._counters["replan_no_change" if reason == "no-change"
                           else "replan_rejected"] += 1.0
            if tracer is not None:
                tracer.record_event("replan", adopted=False, trigger="shrink",
                                    reason=reason, generation=self.generation,
                                    workers=workers)
            return None
        self.generation += 1
        self._counters["replan_adopted"] += 1.0
        if tracer is not None:
            tracer.record_event("replan", adopted=True, trigger="shrink",
                                reason=reason, generation=self.generation,
                                workers=workers,
                                remaining_iterations=remaining,
                                applied_options=compiled.num_applied,
                                estimated_cost=compiled.estimated_cost)
        return compiled

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _recompile(self, executor: "Executor", loop: WhileLoop, env: dict,
                   remaining: int,
                   trailing: tuple) -> tuple[CompiledProgram | None, str]:
        """Compile the remaining program for the current cluster; gate it."""
        from ..core.optimizer import ReMacOptimizer  # import-cycle guard
        inputs = {}
        input_data = {}
        for name, value in env.items():
            if name == "__always__":
                continue
            inputs[name] = value.meta
            input_data[name] = (value.scalar_value() if value.is_scalar
                                else value.matrix)
        stale = Program(
            statements=[WhileLoop(condition=loop.condition, body=loop.body,
                                  max_iterations=remaining), *trailing],
            inputs=sorted(inputs), outputs=executor._outputs)
        config = replace(self.optimizer.config,
                         temp_prefix=f"tREPLAN{self.generation + 1}R")
        # Price against the *current* kernels config: a crash-shrunk
        # cluster re-prices for the survivors, and the worker count in the
        # fingerprint keys the cached replan apart from the original plan.
        opt = ReMacOptimizer(executor.kernels.config, config,
                             self.optimizer.policy)
        if self.optimizer.plan_cache is not None:
            opt.plan_cache = self.optimizer.plan_cache
        compiled = opt.compile(stale, inputs, input_data)
        # Replanning happens on the driver in real time, mid-execution:
        # charge its wall seconds (plus any simulated statistics
        # collection) to the compilation phase, same as the initial
        # compile — adaptivity is never free.
        wall = compiled.compile_seconds + compiled.notes.get(
            "stats_collection_seconds", 0.0)
        executor.metrics.charge_compilation(wall)
        self._counters["replan_compiles"] += 1.0
        self._counters["replan_compile_seconds"] += wall
        if not compiled.applied_options:
            return None, "no-change"
        if not inline_equivalent(stale, compiled.program):
            return None, "not-inline-equivalent"
        return compiled, "adopted"
