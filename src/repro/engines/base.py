"""Engine abstraction: an optimizer configuration plus an execution policy.

The paper compares five systems (ReMac, SystemDS, SPORES, pbdR/ScaLAPACK,
SciDB). On this substrate each is an :class:`Engine`: a choice of search
method, elimination strategy, and :class:`~repro.runtime.hybrid.
ExecutionPolicy`, all running on the same simulated cluster so differences
are attributable to the policies — the quantity the paper measures.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..config import ClusterConfig, OptimizerConfig
from ..cluster.metrics import MetricsCollector
from ..core.optimizer import ReMacOptimizer
from ..lang.program import Program
from ..lang.typecheck import Environment
from ..runtime.executor import Executor
from ..runtime.hybrid import ExecutionPolicy
from ..runtime.physical import PartitionMemo, Value
from ..runtime.plan import CompiledProgram


@dataclass
class RunResult:
    """Everything one engine run produces."""

    engine: str
    env: dict[str, Value]
    metrics: MetricsCollector
    compiled: CompiledProgram | None = None
    #: Real wall-clock seconds the optimizer spent compiling.
    compile_wall_seconds: float = 0.0
    notes: dict = field(default_factory=dict)

    @property
    def execution_seconds(self) -> float:
        """Simulated execution time (computation + transmission)."""
        return self.metrics.execution_seconds

    @property
    def total_seconds(self) -> float:
        """Simulated end-to-end time including compilation and ingest."""
        return self.metrics.total_seconds

    def value(self, name: str):
        """NumPy array of a result variable."""
        try:
            entry = self.env[name]
        except KeyError:
            available = ", ".join(sorted(self.env)) or "(none)"
            raise KeyError(
                f"no result variable {name!r} in this {self.engine} run; "
                f"available result variables: {available}") from None
        return entry.matrix.to_numpy()


class Engine:
    """One configured system: optimizer settings + execution policy.

    An ``Engine`` is the *shared, warm* half of a run: the optimizer (with
    its plan cache and sketch memo), the cluster/policy configuration and
    the grids it cut from raw inputs (a :class:`~repro.runtime.physical.
    PartitionMemo`: each returned only while re-tiling the caller's array
    would build exactly that grid) persist across requests, while every
    :meth:`execute` builds a fresh
    :class:`~repro.runtime.executor.Executor` whose metrics, volumes, and
    environment are private to that request. :meth:`session` hands out
    per-tenant :class:`~repro.engines.session.Session` views onto this
    shared state — the serving layer's unit of isolation. Every run
    executes a compiled plan: :meth:`run` compiles one, :meth:`execute`
    is handed one.
    """

    name = "engine"

    def __init__(self, cluster: ClusterConfig,
                 optimizer_config: OptimizerConfig | None = None,
                 policy: ExecutionPolicy | None = None):
        self.cluster = cluster
        self.policy = policy or ExecutionPolicy.systemds()
        self.optimizer_config = optimizer_config or OptimizerConfig()
        self._shared_plan_cache = None
        self._optimizer = ReMacOptimizer(cluster, self.optimizer_config, self.policy)
        self._partitions = PartitionMemo()

    @property
    def optimizer(self) -> ReMacOptimizer:
        """The engine's optimizer (shared across runs, so its plan cache
        warms over repeated compiles of the same workload)."""
        return self._optimizer

    def adopt_plan_cache(self, cache) -> "Engine":
        """Share a (typically process-wide) plan cache with this engine.

        The cache survives :meth:`with_fusion` optimizer rebuilds, so a
        server can hand every engine the same cache once; fingerprints
        embed the policy and config, so entries never leak across engines.
        Returns ``self`` for chaining.
        """
        self._shared_plan_cache = cache
        self._optimizer.adopt_plan_cache(cache)
        return self

    def session(self, tenant: str = "default"):
        """A per-tenant :class:`~repro.engines.session.Session` view."""
        from .session import Session
        return Session(self, tenant=tenant)

    def with_fusion(self, fuse: bool) -> "Engine":
        """Toggle cost-priced operator fusion on this engine, in place.

        Replaces the execution policy with ``fuse`` set and rebuilds the
        optimizer so compilation and execution agree on the flag (the plan
        fingerprint includes the policy, so cached plans cannot leak
        across the toggle). Returns ``self`` for chaining. The escape
        hatch behind the CLI's ``--no-fusion``.
        """
        from dataclasses import replace as dc_replace
        if self.policy.fuse == fuse:
            return self
        self.policy = dc_replace(self.policy, fuse=fuse)
        self._optimizer = ReMacOptimizer(self.cluster, self.optimizer_config,
                                         self.policy,
                                         plan_cache=self._shared_plan_cache)
        return self

    def compile(self, program: Program, inputs: Environment,
                input_data: dict | None = None,
                iterations: int | None = None) -> CompiledProgram:
        return self._optimizer.compile(program, inputs, input_data, iterations)

    def cached_plan(self, program: Program, inputs: Environment,
                    input_data: dict | None = None,
                    iterations: int | None = None) -> CompiledProgram | None:
        """The already-cached plan for this compile, or None (no compile)."""
        return self._optimizer.cached_plan(program, inputs, input_data,
                                           iterations)

    def run(self, program: Program, inputs: Environment, input_data: dict,
            symmetric: set[str] | frozenset[str] = frozenset(),
            iterations: int | None = None,
            charge_partition: bool = False,
            tracer=None, fault_plan=None, recovery_config=None,
            replan: bool = False) -> RunResult:
        """Compile and execute a program.

        ``tracer`` optionally installs an
        :class:`~repro.runtime.trace.ExecutionTracer` for the execution,
        recording per-operator spans with predicted-vs-observed costs.
        ``fault_plan`` / ``recovery_config`` install the fault injector and
        recovery layer (:mod:`repro.cluster.faults`,
        :mod:`repro.runtime.recovery`) for the execution only — compilation
        is never subject to faults. ``replan`` arms mid-run replanning
        after a cluster shrink; a ``tracer``, when passed, records its
        ``replan`` events.
        """
        replanner = None
        if replan:
            from ..runtime.replan import Replanner
            replanner = Replanner(self._optimizer)
        started = time.perf_counter()
        compiled = self.compile(program, inputs, input_data, iterations)
        compile_wall = time.perf_counter() - started
        return self.execute(compiled, input_data, symmetric=symmetric,
                            charge_partition=charge_partition, tracer=tracer,
                            fault_plan=fault_plan,
                            recovery_config=recovery_config,
                            replanner=replanner,
                            compile_wall_seconds=compile_wall)

    def execute(self, compiled: CompiledProgram, input_data: dict,
                symmetric: set[str] | frozenset[str] = frozenset(),
                charge_partition: bool = False,
                tracer=None, fault_plan=None, recovery_config=None,
                replanner=None,
                compile_wall_seconds: float = 0.0) -> RunResult:
        """Execute an already-compiled plan per request.

        The per-request half of :meth:`run`: a fresh
        :class:`~repro.runtime.executor.Executor` with private metrics and
        volumes is built for each call, so concurrent executions of shared
        compiled plans never interfere — the serving layer calls this
        directly with plans obtained from the shared (warm) compile stage.
        A raw input executed again is not tiled again unless it changed.
        ``compile_wall_seconds`` charges the caller's real compile time to
        the simulated compilation phase, as :meth:`run` always did. The
        plan runs the records its compile prepared; one compiled under the
        other ``policy.fuse`` is prepared again by the executor, the same
        way (:func:`~repro.core.cost.evaluate.prepare_records`).
        """
        executor = Executor(self.cluster, self.policy, tracer=tracer,
                            fault_plan=fault_plan,
                            recovery_config=recovery_config,
                            replanner=replanner, partitions=self._partitions)
        # Compilation happens on the driver in real time; fold the real wall
        # seconds plus any simulated statistics collection into the
        # simulated compilation phase so Fig. 12-style breakdowns add up.
        executor.metrics.charge_compilation(compile_wall_seconds)
        executor.metrics.charge_compilation(
            compiled.notes.get("stats_collection_seconds", 0.0))
        env = executor.run(compiled, input_data, symmetric=symmetric,
                           charge_partition=charge_partition)
        notes = dict(compiled.notes)
        operators = sum(executor.metrics.operator_counts.values())
        notes["pricing"] = {
            "operators": operators,
            "priced": operators - executor.kernels.prices_replayed}
        if replanner is not None:
            notes["replan"] = replanner.metrics_summary()
        return RunResult(engine=self.name, env=env, metrics=executor.metrics,
                         compiled=compiled,
                         compile_wall_seconds=compile_wall_seconds,
                         notes=notes)
