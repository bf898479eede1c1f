"""Lineage-based recovery for the simulated cluster.

The fault side (crash points, straggler windows, transmission failure
probabilities) lives in :mod:`repro.cluster.faults`; this module is the
recovery side, mirroring Spark's story on the simulated substrate:

* **Transmission retries.** A failed transmission is retried with
  exponential backoff: every attempt re-charges the full primitive time and
  bytes (the data really moves again) plus the backoff wait, and a run that
  exhausts ``max_retries`` raises :class:`~repro.errors.ExecutionError`.

* **Lineage recomputation.** Every distributed kernel output registers a
  lineage record: a thunk that re-derives the matrix from its (still
  referenced) input matrices with the same block arithmetic. When a worker
  crashes, the blocks it hosted — under the same
  :func:`~repro.matrix.partitioner.worker_of_block` hash the runtime uses
  for placement — are *actually deleted* from every live distributed
  matrix, then re-derived in lineage (creation) order, so an ancestor is
  always healed before a descendant's thunk re-runs. Inputs loaded from
  DFS are *source* records: their lost blocks are restored from the
  retained partitioned copy and charged as a DFS re-read. Recovered blocks
  are re-hash-partitioned across the remaining workers (charged as a
  shuffle of the recovered bytes); surviving blocks re-key for free,
  consistent-hashing style. Recompute time is charged as ``lost fraction x
  original compute seconds``, scaled up by ``old workers / remaining
  workers`` because fewer machines do the recomputation.

* **Checkpointing.** With ``checkpoint_every = K``, every K-th loop
  iteration snapshots the loop-carried distributed variables (charged as a
  DFS write of their bytes) and *truncates lineage* — exactly Spark's
  ``RDD.checkpoint`` semantics. Recovery after the checkpoint replays from
  the snapshot instead of from scratch, and the truncation releases the
  otherwise iteration-long chain of thunk-retained ancestors.

Two invariants make this robustness rather than behavior change: with no
fault plan and no checkpointing installed nothing here runs at all (every
hook is an ``is None`` check), so results, simulated times, and metric
summaries are bit-identical to the fault-free build; and under *any* fault
plan the final result matrices are bit-identical to the fault-free run —
healed blocks are re-derived by the same deterministic NumPy/SciPy block
arithmetic — while only simulated time and the ``fault_*``/``recovery_*``
aggregates differ.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Iterable

from ..cluster.faults import FaultInjector, FaultPlan
from ..cluster.metrics import (
    PHASE_COMPUTATION,
    PHASE_INPUT_PARTITION,
    PHASE_TRANSMISSION,
    MetricsCollector,
)
from ..cluster.network import DFS, SHUFFLE, transmission_seconds
from ..config import ClusterConfig
from ..errors import ConfigError, ExecutionError
from ..matrix.blocked import BlockedMatrix
from ..matrix.partitioner import worker_of_block

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from .physical import Kernels, Value
    from .pricing import OpPrice


@dataclass(frozen=True)
class RecoveryConfig:
    """Knobs of the recovery layer (``--max-retries``,
    ``--checkpoint-every`` on the CLI)."""

    #: Retries per transmission before giving up with an ExecutionError.
    max_retries: int = 3
    #: First backoff wait (simulated seconds); doubles per retry.
    backoff_base_seconds: float = 0.05
    #: Snapshot loop-carried variables every K iterations (0 = off).
    checkpoint_every: int = 0
    #: Retry deadline: give up on one transmission once its cumulative
    #: retry time (backoffs + re-sends) exceeds this many simulated
    #: seconds, even with retries remaining. None = no deadline.
    max_retry_seconds: float | None = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_base_seconds < 0.0:
            raise ConfigError(
                f"backoff_base_seconds must be >= 0, got {self.backoff_base_seconds}")
        if self.checkpoint_every < 0:
            raise ConfigError(
                f"checkpoint_every must be >= 0, got {self.checkpoint_every}")
        if self.max_retry_seconds is not None and not self.max_retry_seconds > 0.0:
            raise ConfigError(
                f"max_retry_seconds must be positive or None, "
                f"got {self.max_retry_seconds}")


class _LineageRecord:
    """How to re-derive one distributed matrix's lost blocks.

    Exactly one of ``recompute`` (derived values: re-run the producing
    block arithmetic on the input matrices the thunk holds) or ``snapshot``
    (sources/checkpoints: the retained DFS copy of the block grid) is set.
    The output matrix itself is held weakly so lineage never extends a
    value's lifetime — thunks of *descendants* do, which is Spark's
    lineage-chain memory behaviour and what checkpoint truncation releases.
    """

    __slots__ = ("ref", "kind", "compute_seconds", "recompute", "snapshot")

    def __init__(self, matrix: BlockedMatrix, kind: str,
                 compute_seconds: float = 0.0,
                 recompute: Callable[[], BlockedMatrix] | None = None,
                 snapshot: dict | None = None):
        self.ref = weakref.ref(matrix)
        self.kind = kind
        self.compute_seconds = compute_seconds
        self.recompute = recompute
        self.snapshot = snapshot


class RecoveryManager:
    """Ties a fault injector to the executing kernels and heals crashes.

    One manager serves one execution: it owns the lineage table, watches
    the simulated clock (computation + transmission + input-partition
    phases — compilation wall time is excluded so fault points are
    deterministic), and mutates the bound kernels' cluster config when a
    crash shrinks the cluster.
    """

    def __init__(self, config: ClusterConfig, metrics: MetricsCollector,
                 plan: FaultPlan | None = None,
                 recovery_config: RecoveryConfig | None = None,
                 tracer=None):
        self.cluster_config = config
        self.metrics = metrics
        self.config = recovery_config or RecoveryConfig()
        self.injector = FaultInjector(plan) if plan is not None else None
        self.tracer = tracer
        self._records: list[_LineageRecord] = []
        self._kernels: "Kernels | None" = None
        #: Called with the remaining worker count after every crash-driven
        #: cluster shrink (the replanner's re-pricing hook). The callback
        #: must only *observe* — healing and config shrinkage are complete
        #: by the time it fires.
        self.on_shrink: Callable[[int], None] | None = None
        self._counters: dict[str, float] = {key: 0.0 for key in (
            "fault_worker_crashes",
            "fault_transmission_failures",
            "fault_straggler_events",
            "fault_straggler_seconds",
            "recovery_retry_seconds",
            "recovery_backoff_seconds",
            "recovery_recomputed_blocks",
            "recovery_recomputed_bytes",
            "recovery_recompute_seconds",
            "recovery_source_reread_seconds",
            "recovery_repartition_seconds",
            "recovery_checkpoints",
            "recovery_checkpoint_seconds",
        )}

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def bind(self, kernels: "Kernels") -> None:
        """Attach the kernels whose config must track cluster shrinkage."""
        self._kernels = kernels

    @property
    def num_workers(self) -> int:
        return self.cluster_config.num_workers

    def clock(self) -> float:
        """The deterministic execution clock faults are scheduled on."""
        phases = self.metrics.seconds_by_phase
        return (phases.get(PHASE_COMPUTATION, 0.0)
                + phases.get(PHASE_TRANSMISSION, 0.0)
                + phases.get(PHASE_INPUT_PARTITION, 0.0))

    def metrics_summary(self) -> dict[str, float]:
        """Additive ``fault_*``/``recovery_*`` aggregates for
        :meth:`~repro.cluster.metrics.MetricsCollector.summary`."""
        summary = dict(self._counters)
        summary["recovery_active_workers"] = float(self.num_workers)
        return summary

    # ------------------------------------------------------------------
    # Lineage registration (called by the kernels)
    # ------------------------------------------------------------------
    def record_derived(self, matrix: BlockedMatrix, kind: str,
                       compute_seconds: float,
                       recompute: Callable[[], BlockedMatrix]) -> None:
        self._records.append(_LineageRecord(
            matrix, kind, compute_seconds=compute_seconds, recompute=recompute))

    def record_source(self, matrix: BlockedMatrix, kind: str = "source") -> None:
        """Register a DFS-backed matrix: lost blocks restore by re-read."""
        self._records.append(_LineageRecord(
            matrix, kind, snapshot=dict(matrix.blocks)))

    # ------------------------------------------------------------------
    # Fault hooks (called by kernels / network)
    # ------------------------------------------------------------------
    def after_operator(self, price: "OpPrice") -> None:
        """Post-operator fault check: stragglers, then due crashes."""
        if self.injector is None:
            return
        clock = self.clock()
        factor = self.injector.straggler_factor(clock)
        if factor > 1.0 and price.compute_seconds > 0.0 and price.impl != "local":
            extra = (factor - 1.0) * price.compute_seconds
            self.metrics.charge_compute(extra)
            self._counters["fault_straggler_events"] += 1.0
            self._counters["fault_straggler_seconds"] += extra
            if self.tracer is not None:
                self.tracer.record_event("straggler", factor=factor,
                                         extra_seconds=extra, clock=clock)
        for crash in self.injector.due_crashes(self.clock()):
            self._handle_crash(crash)

    def after_transmission(self, primitive: str, nbytes: float,
                           seconds: float) -> None:
        """Retry-with-exponential-backoff for one charged transmission.

        Called by :class:`~repro.cluster.network.Network` after the first
        attempt was charged. Each failure re-sends (full time and bytes)
        after a doubling backoff; both are charged to the simulated
        transmission phase so recovery work is honestly on the clock.
        """
        if self.injector is None:
            return
        attempts = 0
        retry_spent = 0.0
        deadline = self.config.max_retry_seconds
        while self.injector.transmission_fails(primitive):
            attempts += 1
            self._counters["fault_transmission_failures"] += 1.0
            if attempts > self.config.max_retries:
                raise ExecutionError(
                    f"{primitive} transmission of {nbytes:.0f} bytes still "
                    f"failing after {self.config.max_retries} retries")
            backoff = self.config.backoff_base_seconds * (2.0 ** (attempts - 1))
            if deadline is not None and retry_spent + backoff + seconds > deadline:
                # Give up *before* charging an attempt that cannot finish
                # inside the deadline, so the simulated clock stays honest.
                raise ExecutionError(
                    f"{primitive} transmission of {nbytes:.0f} bytes exceeded "
                    f"the retry deadline of {deadline:.6f}s after {attempts - 1} "
                    f"retries ({retry_spent:.6f}s spent retrying)")
            retry_spent += backoff + seconds
            self.metrics.charge_transmission(primitive, 0.0, backoff)
            self.metrics.charge_transmission(primitive, nbytes, seconds)
            self._counters["recovery_backoff_seconds"] += backoff
            self._counters["recovery_retry_seconds"] += backoff + seconds
            if self.tracer is not None:
                self.tracer.record_event("retry", primitive=primitive,
                                         attempt=attempts, nbytes=nbytes,
                                         backoff_seconds=backoff)

    # ------------------------------------------------------------------
    # Checkpointing (called by the executor's loop driver)
    # ------------------------------------------------------------------
    def checkpoint(self, values: Iterable["Value"], iteration: int,
                   loop_path: str) -> None:
        """Snapshot the loop-carried distributed variables and truncate
        lineage. Charged as one DFS write of the snapshotted bytes."""
        matrices: list[BlockedMatrix] = []
        seen: set[int] = set()
        for value in values:
            if not value.distributed:
                continue
            matrix = value.matrix
            if id(matrix) in seen:
                continue
            seen.add(id(matrix))
            matrices.append(matrix)
        total_bytes = sum(matrix.serialized_bytes() for matrix in matrices)
        seconds = transmission_seconds(self.cluster_config, DFS, total_bytes)
        if seconds > 0.0:
            self.metrics.charge_transmission(DFS, total_bytes, seconds)
        self._records.clear()
        for matrix in matrices:
            self.record_source(matrix, kind="checkpoint")
        self._counters["recovery_checkpoints"] += 1.0
        self._counters["recovery_checkpoint_seconds"] += seconds
        if self.tracer is not None:
            self.tracer.record_event("checkpoint", loop=loop_path,
                                     iteration=iteration,
                                     matrices=len(matrices),
                                     nbytes=total_bytes, seconds=seconds)

    # ------------------------------------------------------------------
    # Crash handling
    # ------------------------------------------------------------------
    def _handle_crash(self, crash) -> None:
        old_workers = self.num_workers
        if old_workers <= 1:
            raise ExecutionError(
                f"fault plan crashed the last remaining worker at simulated "
                f"time {crash.time:.6f}s; the cluster cannot recover")
        slot = crash.worker % old_workers
        remaining = old_workers - 1
        self._counters["fault_worker_crashes"] += 1.0
        if self.tracer is not None:
            self.tracer.record_event("crash", worker=slot, time=crash.time,
                                     remaining_workers=remaining)
        healed_ids: set[int] = set()
        live: list[_LineageRecord] = []
        for record in self._records:
            matrix = record.ref()
            if matrix is None:
                continue  # value released; its lineage is no longer needed
            live.append(record)
            if id(matrix) in healed_ids:
                continue  # aliased registration; already healed this grid
            healed_ids.add(id(matrix))
            self._heal(record, matrix, slot, old_workers, remaining)
        self._records = live
        # Shrink the cluster: later placement, pricing, and crash hashing
        # all see the remaining workers.
        self.cluster_config = replace(self.cluster_config,
                                      num_workers=remaining)
        if self._kernels is not None:
            self._kernels.reconfigure(self.cluster_config)
        if self.tracer is not None:
            self.tracer.set_num_workers(remaining)
        if self.on_shrink is not None:
            self.on_shrink(remaining)

    def _heal(self, record: _LineageRecord, matrix: BlockedMatrix,
              slot: int, old_workers: int, remaining: int) -> None:
        blocks = matrix.blocks
        lost = [key for key in blocks
                if worker_of_block(*key, old_workers) == slot]
        if not lost:
            return
        total_bytes = matrix.serialized_bytes()
        lost_bytes = sum(blocks[key].serialized_bytes() for key in lost)
        if record.snapshot is not None:
            found = record.snapshot
            reread = transmission_seconds(self.cluster_config, DFS, lost_bytes)
            if reread > 0.0:
                self.metrics.charge_transmission(DFS, lost_bytes, reread)
            self._counters["recovery_source_reread_seconds"] += reread
        else:
            found = record.recompute().blocks
            fraction = lost_bytes / total_bytes if total_bytes else 0.0
            # Fewer machines re-run the lost partitions' share of the work.
            seconds = fraction * record.compute_seconds * old_workers / remaining
            if seconds > 0.0:
                self.metrics.charge_compute(seconds)
            self._counters["recovery_recompute_seconds"] += seconds
        # Block-wise float accumulation follows dict insertion order, so the
        # healed grid keeps the original order or downstream sums drift by
        # an ulp. Built in one pass and assigned once: no reader ever sees
        # a grid half healed.
        gone = set(lost)
        healed = ((key, found.get(key) if key in gone else block)
                  for key, block in blocks.items())
        matrix.blocks = {key: block for key, block in healed
                         if block is not None}
        matrix.invalidate_stats()
        # Re-hash-partition the recovered blocks across the survivors.
        repartition = transmission_seconds(self.cluster_config, SHUFFLE,
                                           lost_bytes)
        if repartition > 0.0:
            self.metrics.charge_transmission(SHUFFLE, lost_bytes, repartition)
        self._counters["recovery_repartition_seconds"] += repartition
        self._counters["recovery_recomputed_blocks"] += float(len(lost))
        self._counters["recovery_recomputed_bytes"] += lost_bytes
        if self.tracer is not None:
            self.tracer.record_event("recovery", lineage=record.kind,
                                     blocks=len(lost), nbytes=lost_bytes)
