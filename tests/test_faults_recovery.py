"""Fault injection and lineage-based recovery tests.

The two hard invariants under test:

1. With no fault plan installed, execution is bit-identical to a build that
   never heard of faults (no extra metric keys, same simulated times).
2. Under *any* fault plan the final result matrices are bit-identical to
   the fault-free run — only simulated time and the ``fault_*`` /
   ``recovery_*`` aggregates may differ. ``tests/test_identity.py``
   checks it on generated programs, crashed and seeded; here are the
   charges and counters of each fault.
"""

import json
import random

import numpy as np
import pytest

from repro.cluster.faults import CrashEvent, FaultInjector, FaultPlan, StragglerEvent
from repro.config import ClusterConfig
from repro.errors import ConfigError, ExecutionError
from repro.lang import parse
from repro.runtime import (ExecutionPolicy, ExecutionTracer, Executor,
                           RecoveryConfig, fusion)
from repro.runtime.plan import FUSED, MMCHAIN
from repro.server.protocol import array_digest

GD_SCRIPT = """
input A, b, x, alpha
i = 0
while (i < 5) {
  g = t(A) %*% (A %*% x - b)
  x = x - alpha * g
  i = i + 1
}
"""


@pytest.fixture
def program():
    return parse(GD_SCRIPT, scalar_names={"i", "alpha"}, max_iterations=10)


@pytest.fixture
def inputs():
    rng = np.random.default_rng(7)
    return {"A": rng.random((200, 40)), "b": rng.random((200, 1)),
            "x": rng.random((40, 1)), "alpha": 0.001}


def run_program(cluster, program, inputs, **kwargs):
    executor = Executor(cluster, **kwargs)
    env = executor.run(program, inputs)
    return executor, env


def digests(env):
    """Bit for bit: SHA-256 of each variable's bytes (``-0.0 != 0.0``)."""
    return {name: array_digest(value.matrix.to_numpy())
            for name, value in env.items() if not name.startswith("__")}


class TestFaultPlan:
    def test_from_seed_deterministic(self):
        assert FaultPlan.from_seed(3) == FaultPlan.from_seed(3)
        assert FaultPlan.from_seed(3) != FaultPlan.from_seed(4)

    def test_roundtrip_dict(self):
        plan = FaultPlan.from_seed(11, horizon=2.0)
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_roundtrip_file(self, tmp_path):
        plan = FaultPlan.from_seed(5)
        path = str(tmp_path / "plan.json")
        plan.dump(path)
        assert FaultPlan.load(path) == plan

    def test_empty_property(self):
        assert FaultPlan().empty
        assert FaultPlan(transmission_failure_rates={"shuffle": 0.0}).empty
        assert not FaultPlan(crashes=(CrashEvent(0.5, 1),)).empty

    def test_unknown_primitive_rejected(self):
        with pytest.raises(ConfigError):
            FaultPlan(transmission_failure_rates={"teleport": 0.1})

    def test_rate_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            FaultPlan(transmission_failure_rates={"shuffle": 1.0})
        with pytest.raises(ConfigError):
            FaultPlan(transmission_failure_rates={"shuffle": -0.1})

    def test_bad_events_rejected(self):
        with pytest.raises(ConfigError):
            CrashEvent(time=-1.0, worker=0)
        with pytest.raises(ConfigError):
            StragglerEvent(worker=0, start=0.0, duration=0.0, factor=2.0)
        with pytest.raises(ConfigError):
            StragglerEvent(worker=0, start=0.0, duration=1.0, factor=0.5)

    def test_malformed_payload_rejected(self):
        with pytest.raises(ConfigError):
            FaultPlan.from_dict({"crashes": [{"time": "soon"}]})


class TestFaultInjector:
    def test_due_crashes_fire_once_in_time_order(self):
        plan = FaultPlan(crashes=(CrashEvent(0.8, 2), CrashEvent(0.2, 1)))
        injector = FaultInjector(plan)
        assert injector.due_crashes(0.1) == []
        assert [c.time for c in injector.due_crashes(1.0)] == [0.2, 0.8]
        assert injector.due_crashes(1.0) == []

    def test_straggler_factor_max_over_windows(self):
        plan = FaultPlan(stragglers=(
            StragglerEvent(0, start=0.0, duration=1.0, factor=2.0),
            StragglerEvent(1, start=0.5, duration=1.0, factor=3.0)))
        injector = FaultInjector(plan)
        assert injector.straggler_factor(0.25) == 2.0
        assert injector.straggler_factor(0.75) == 3.0
        assert injector.straggler_factor(2.0) == 1.0

    def test_flips_follow_seeded_stream(self):
        plan = FaultPlan(transmission_failure_rates={"shuffle": 0.5}, seed=9)
        injector = FaultInjector(plan)
        rng = random.Random(9)
        expected = [rng.random() < 0.5 for _ in range(20)]
        assert [injector.transmission_fails("shuffle")
                for _ in range(20)] == expected

    def test_zero_rate_draw_advances_stream(self):
        """The stream position depends only on how many transmissions ran,
        not on which primitives they used."""
        plan = FaultPlan(transmission_failure_rates={"shuffle": 0.5}, seed=9)
        via_broadcast = FaultInjector(plan)
        assert via_broadcast.transmission_fails("broadcast") is False
        direct = FaultInjector(plan)
        direct.transmission_fails("shuffle")
        assert via_broadcast.transmission_fails("shuffle") == \
            direct.transmission_fails("shuffle")


class TestRecoveryConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            RecoveryConfig(max_retries=-1)
        with pytest.raises(ConfigError):
            RecoveryConfig(backoff_base_seconds=-0.1)
        with pytest.raises(ConfigError):
            RecoveryConfig(checkpoint_every=-2)


class TestFaultFreeInvariant:
    def test_no_fault_keys_without_recovery(self, cluster, program, inputs):
        executor, _env = run_program(cluster, program, inputs)
        assert executor.recovery is None
        assert executor.metrics.fault_summary is None
        summary = executor.metrics.summary()
        assert not any(key.startswith(("fault_", "recovery_"))
                       for key in summary)

    def test_empty_plan_changes_nothing_but_counters(self, cluster, program,
                                                     inputs):
        base, base_env = run_program(cluster, program, inputs)
        faulty, env = run_program(cluster, program, inputs,
                                  fault_plan=FaultPlan())
        assert digests(env) == digests(base_env)
        assert dict(faulty.metrics.seconds_by_phase) == \
            dict(base.metrics.seconds_by_phase)
        assert faulty.metrics.fault_summary is not None
        active = {k: v for k, v in faulty.metrics.fault_summary.items()
                  if k != "recovery_active_workers"}
        assert all(v == 0.0 for v in active.values())


class TestFaultedRuns:
    """What each kind of fault charges and counts. That a faulted run
    computes the fault-free results is ``tests/test_identity.py``'s
    property (its seeded rates stay under 0.08; 0.3 is checked here)."""

    def _horizon(self, cluster, program, inputs):
        executor, _env = run_program(cluster, program, inputs)
        return executor, executor.metrics.execution_seconds

    def test_crash_recovery(self, cluster, program, inputs):
        base, horizon = self._horizon(cluster, program, inputs)
        plan = FaultPlan(crashes=(CrashEvent(0.3 * horizon, 2),
                                  CrashEvent(0.7 * horizon, 0)))
        faulty, _env = run_program(cluster, program, inputs, fault_plan=plan)
        faults = faulty.metrics.fault_summary
        assert faults["fault_worker_crashes"] == 2.0
        assert faults["recovery_active_workers"] == cluster.num_workers - 2
        assert faults["recovery_recomputed_blocks"] > 0
        assert faulty.metrics.execution_seconds > base.metrics.execution_seconds

    def test_transmission_retries(self, cluster, program, inputs):
        base, base_env = run_program(cluster, program, inputs)
        plan = FaultPlan(transmission_failure_rates={"shuffle": 0.3,
                                                     "broadcast": 0.3},
                         seed=1)
        faulty, env = run_program(cluster, program, inputs, fault_plan=plan,
                                  recovery_config=RecoveryConfig(max_retries=50))
        assert digests(env) == digests(base_env)
        faults = faulty.metrics.fault_summary
        assert faults["fault_transmission_failures"] > 0
        assert faults["recovery_retry_seconds"] > 0
        assert faults["recovery_backoff_seconds"] > 0
        assert faulty.metrics.execution_seconds > base.metrics.execution_seconds

    def test_stragglers(self, cluster, program, inputs):
        base, horizon = self._horizon(cluster, program, inputs)
        plan = FaultPlan(stragglers=(
            StragglerEvent(0, start=0.0, duration=2 * horizon, factor=3.0),))
        faulty, _env = run_program(cluster, program, inputs, fault_plan=plan)
        faults = faulty.metrics.fault_summary
        assert faults["fault_straggler_events"] > 0
        assert faults["fault_straggler_seconds"] > 0
        assert faulty.metrics.execution_seconds > base.metrics.execution_seconds

    def test_checkpoints_with_crash(self, cluster, program, inputs):
        _base, horizon = self._horizon(cluster, program, inputs)
        plan = FaultPlan(crashes=(CrashEvent(0.8 * horizon, 3),))
        faulty, _env = run_program(
            cluster, program, inputs, fault_plan=plan,
            recovery_config=RecoveryConfig(checkpoint_every=2))
        faults = faulty.metrics.fault_summary
        assert faults["recovery_checkpoints"] > 0
        assert faults["recovery_checkpoint_seconds"] > 0


class TestReplayedPricesAcrossAShrink:
    """``Kernels`` replays a price it has computed once; a crash shrinks
    the cluster those prices were computed for, mid-loop."""

    def test_a_crash_mid_loop_charges_post_shrink_prices(
            self, cluster, program, inputs, reverted):
        base, _env = run_program(cluster, program, inputs)
        horizon = base.metrics.execution_seconds
        assert base.metrics.operator_counts["bmm"] >= 5  # priced per worker
        for twentieth, worker in ((3, 3), (8, 0), (13, 1), (16, 5)):
            plan = FaultPlan(crashes=(
                CrashEvent(twentieth / 20 * horizon, worker),))
            replayed, env = run_program(cluster, program, inputs,
                                        fault_plan=plan)
            with reverted("price_replay"):
                reference = Executor(cluster, fault_plan=plan)
                assert digests(env) == digests(reference.run(program, inputs))
            assert replayed.metrics.summary() == reference.metrics.summary()
            assert replayed.metrics.execution_seconds \
                != base.metrics.execution_seconds
            kernels = replayed.kernels
            assert kernels.config.num_workers == cluster.num_workers - 1
            assert kernels.prices_replayed > 0
            # Nothing priced for the larger cluster is left to replay.
            assert kernels._prices and all(
                price._config is kernels.config
                for price in kernels._prices.values())

    def test_fusion_after_a_crash_is_charged_for_the_survivors(
            self, cluster, monkeypatch):
        """Fusion is decided once, when the run starts; a crash at t=0
        prices each fused charge for the survivors and leaves every
        decision as the crash-free run took it."""
        # The crash is found after the first operator, ``A - S``.
        program = parse("input A, S\nB = A - S\ni = 0\nwhile (i < 5) {\n"
                        "  B = (A + S) * S - B\n  i = i + 1\n}",
                        scalar_names={"i"}, max_iterations=10)
        rng = np.random.default_rng(7)
        inputs = {"A": rng.random((200, 40)),  # distributed
                  "S": rng.random((200, 40)) * (rng.random((200, 40)) < 0.02)}
        workers, price = [], fusion.exact_fused_price
        monkeypatch.setattr(fusion, "exact_fused_price", lambda *args: (
            workers.append(args[3].num_workers), price(*args))[1])
        policy = ExecutionPolicy(fuse=True)
        base, _env = run_program(cluster, program, inputs, policy=policy)
        assert workers == [cluster.num_workers] * 5
        workers.clear()
        crashed, _env = run_program(
            cluster, program, inputs, policy=policy,
            fault_plan=FaultPlan(crashes=(CrashEvent(0.0, 1),)))
        assert workers == [cluster.num_workers - 1] * 5

        def decisions(executor):
            return [op.fuse for code in executor._lowered.values()
                    for op in code if op.kind in (FUSED, MMCHAIN)]
        assert decisions(crashed) == decisions(base) == [True]


class TestFailureModes:
    def test_retries_exhausted_raises(self, cluster, program, inputs):
        plan = FaultPlan(transmission_failure_rates={"shuffle": 0.99,
                                                     "broadcast": 0.99,
                                                     "collect": 0.99,
                                                     "dfs": 0.99}, seed=0)
        with pytest.raises(ExecutionError, match="still failing"):
            run_program(cluster, program, inputs, fault_plan=plan,
                        recovery_config=RecoveryConfig(max_retries=2))

    def test_crashing_last_worker_raises(self, program, inputs):
        config = ClusterConfig(num_workers=1, driver_memory_bytes=60_000,
                               broadcast_limit_bytes=15_000, block_size=64)
        plan = FaultPlan(crashes=(CrashEvent(0.0, 0),))
        with pytest.raises(ExecutionError, match="last remaining worker"):
            run_program(config, program, inputs, fault_plan=plan)


class TestDeterminism:
    def test_same_seed_byte_identical_trace_and_summary(self, cluster, program,
                                                        inputs, tmp_path):
        _base, _env = run_program(cluster, program, inputs)
        horizon = _base.metrics.execution_seconds
        plan = FaultPlan.from_seed(13, horizon=horizon)
        payloads, summaries = [], []
        for attempt in range(2):
            tracer = ExecutionTracer()
            executor, _ = run_program(
                cluster, program, inputs, fault_plan=plan, tracer=tracer,
                recovery_config=RecoveryConfig(max_retries=50,
                                               checkpoint_every=2))
            path = tmp_path / f"trace{attempt}.jsonl"
            tracer.write_jsonl(str(path))
            payloads.append(path.read_bytes())
            summaries.append(json.dumps(executor.metrics.summary(),
                                        sort_keys=True))
        assert payloads[0] == payloads[1]
        assert summaries[0] == summaries[1]


class TestStatementAnnotation:
    def test_assignment_failure_names_statement(self, cluster):
        program = parse("y = A %*% A\nx = A / 0\n", max_iterations=10)
        executor = Executor(cluster)
        data = {"A": np.random.default_rng(0).random((40, 40))}
        with pytest.raises(ExecutionError) as excinfo:
            executor.run(program, data)
        error = excinfo.value
        assert error.statement_path == "1"
        assert error.statement_target == "x"
        assert "at statement 1, assigning 'x'" in str(error)

    def test_loop_condition_failure_annotated(self, cluster):
        program = parse("while (A < 1) {\n  A = A + A\n}\n",
                        max_iterations=10)
        executor = Executor(cluster)
        data = {"A": np.random.default_rng(0).random((40, 40))}
        with pytest.raises(ExecutionError) as excinfo:
            executor.run(program, data)
        error = excinfo.value
        assert error.statement_path == "0.cond"
        assert error.statement_target is None
        assert "in loop condition" in str(error)

    def test_innermost_annotation_wins(self):
        error = ExecutionError("boom")
        error.annotate_statement("2.1", "g")
        error.annotate_statement("2", None)
        assert error.statement_path == "2.1"
        assert str(error).count("[at statement") == 1

