"""Sessions: per-tenant views onto one shared, warm :class:`Engine`.

The serving deployment (docs/architecture.md §14) keeps exactly one warm
engine per configuration in the process — its optimizer, plan cache and
input-sketch memo are *shared* state that amortizes across every caller.
What is *not* shared is the per-request state: the program being run, the
bound inputs, the executor with its
metrics/volumes/environment, and the tenant-facing accounting. A
:class:`Session` is the object that draws that line: it holds the tenant
identity and usage counters, and delegates compile/execute to the shared
engine so N sessions warm one optimizer instead of N.

Sessions are intentionally cheap (no pools, no caches of their own) and
thread-safe: a tenant's requests may be in the compile and execute stages
concurrently. Results are bit-identical to a direct ``Engine.run`` of the
same workload — a session adds accounting, never behaviour.
"""

from __future__ import annotations

import threading
import time

from ..lang.program import Program
from ..lang.typecheck import Environment
from ..runtime.plan import CompiledProgram
from .base import Engine, RunResult


class Session:
    """One tenant's handle on a shared engine.

    Tracks per-tenant usage (request count, plan-cache outcomes, wall
    seconds inside compile/execute) without owning any compiled or pooled
    state; everything warm lives in the engine. Obtain via
    :meth:`Engine.session`.
    """

    def __init__(self, engine: Engine, tenant: str = "default"):
        self.engine = engine
        self.tenant = tenant
        self.created_at = time.time()
        self._lock = threading.Lock()
        self._runs = 0
        self._compiles = 0
        self._outcomes: dict[str, int] = {}
        self._compile_seconds = 0.0
        self._execute_seconds = 0.0

    # ------------------------------------------------------------------
    # Compile stage (shared warm state, coalesced cold compiles)
    # ------------------------------------------------------------------
    def cached_plan(self, program: Program, inputs: Environment,
                    input_data: dict | None = None,
                    iterations: int | None = None) -> CompiledProgram | None:
        """Probe the shared plan cache — never compiles (see Engine)."""
        plan = self.engine.cached_plan(program, inputs, input_data, iterations)
        if plan is not None:
            self._note_compile(plan, 0.0)
        return plan

    def compile(self, program: Program, inputs: Environment,
                input_data: dict | None = None,
                iterations: int | None = None) -> CompiledProgram:
        """Compile through the shared optimizer (single-flighted)."""
        started = time.perf_counter()
        compiled = self.engine.compile(program, inputs, input_data, iterations)
        self._note_compile(compiled, time.perf_counter() - started)
        return compiled

    def _note_compile(self, compiled: CompiledProgram, wall: float) -> None:
        outcome = compiled.notes.get("plan_cache", "off")
        with self._lock:
            self._compiles += 1
            self._compile_seconds += wall
            self._outcomes[outcome] = self._outcomes.get(outcome, 0) + 1

    # ------------------------------------------------------------------
    # Execute stage (fresh per-request executor)
    # ------------------------------------------------------------------
    def execute(self, compiled: CompiledProgram, input_data: dict,
                symmetric: set[str] | frozenset[str] = frozenset(),
                charge_partition: bool = False,
                compile_wall_seconds: float = 0.0, **kwargs) -> RunResult:
        """Execute a compiled plan with a private executor/metrics."""
        started = time.perf_counter()
        result = self.engine.execute(
            compiled, input_data, symmetric=symmetric,
            charge_partition=charge_partition,
            compile_wall_seconds=compile_wall_seconds, **kwargs)
        with self._lock:
            self._runs += 1
            self._execute_seconds += time.perf_counter() - started
        return result

    def run(self, program: Program, inputs: Environment, input_data: dict,
            symmetric: set[str] | frozenset[str] = frozenset(),
            iterations: int | None = None,
            charge_partition: bool = False, **kwargs) -> RunResult:
        """Compile-and-execute convenience, same contract as Engine.run.

        Fault/recovery/replanning runs need the wiring Engine.run builds
        (injector, replanner), so those delegate wholesale;
        the plain serving path stays on the decoupled compile/execute
        stages.
        """
        if kwargs.get("replan") or any(
                kwargs.get(k) is not None
                for k in ("fault_plan", "recovery_config")):
            result = self.engine.run(program, inputs, input_data,
                                     symmetric=symmetric,
                                     iterations=iterations,
                                     charge_partition=charge_partition,
                                     **kwargs)
            with self._lock:
                self._runs += 1
            return result
        compiled = self.compile(program, inputs, input_data, iterations)
        return self.execute(compiled, input_data, symmetric=symmetric,
                            charge_partition=charge_partition,
                            compile_wall_seconds=compiled.compile_seconds,
                            **kwargs)

    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """Per-tenant usage snapshot (for the server's stats endpoint)."""
        with self._lock:
            return {
                "tenant": self.tenant,
                "engine": self.engine.name,
                "runs": self._runs,
                "compiles": self._compiles,
                "plan_cache_outcomes": dict(self._outcomes),
                "compile_wall_seconds": round(self._compile_seconds, 6),
                "execute_wall_seconds": round(self._execute_seconds, 6),
            }
