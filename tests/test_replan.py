"""Shrink-driven adaptive replanning tests.

The hard invariants under test:

1. With replanning off (the default), a run carries no ``replan_*``
   metric keys.
2. With replanning enabled, under crashes, the final matrices are
   bit-identical to the fault-free non-adaptive run — replanning may only
   change simulated time and metrics, never answers.
3. On the mid-run-crash scenario, the adaptive run's simulated execution
   time is strictly below the stale plan's.
"""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from repro.cluster.faults import (CrashEvent, FaultInjector, FaultPlan,
                                  StragglerEvent)
from repro.config import ClusterConfig, OptimizerConfig
from repro.engines.base import Engine
from repro.errors import ConfigError, ExecutionError
from repro.lang import parse
from repro.lang.program import WhileLoop
from repro.matrix import MatrixMeta, scalar_meta
from repro.runtime import ExecutionTracer, Executor, RecoveryConfig
from repro.runtime.replan import (MAX_REPLANS, Replanner, inline_equivalent,
                                  inline_temporaries)

GRAM_SOURCE = """
i = 0
while (i < N) {
  G = t(A) %*% A
  x = x + (G %*% x) * 0.0001
  i = i + 1
}
"""

ITERATIONS = 10


def _gram_inputs(A):
    """(program, input metas, input data) of the Gram iteration over A."""
    m, k = A.shape
    meta = {
        "A": MatrixMeta(m, k, A.nnz / (m * k)),
        "x": MatrixMeta(k, 1, 1.0),
        "i": scalar_meta(),
        "N": scalar_meta(),
    }
    data = {"A": A, "x": np.ones((k, 1)), "i": 0.0, "N": float(ITERATIONS)}
    program = parse(GRAM_SOURCE, scalar_names={"i", "N"},
                    max_iterations=ITERATIONS)
    return program, meta, data


def _run_gram(A, cluster, estimator, *, replan=False, fault_plan=None,
              recovery_config=None, tracer=None):
    program, meta, data = _gram_inputs(A)
    engine = Engine(cluster, OptimizerConfig(estimator=estimator))
    return engine.run(program, meta, data, iterations=ITERATIONS,
                      replan=replan, fault_plan=fault_plan,
                      recovery_config=recovery_config, tracer=tracer)


@pytest.fixture(scope="module")
def crash_case():
    """Mid-run shrink 6 -> 2 workers: the six-worker plan correctly
    declined the hoist, but on the survivors compute dominates and
    re-pricing adopts it."""
    rng = np.random.default_rng(7)
    A = sp.random(1024, 512, density=0.4,
                  random_state=np.random.RandomState(11),
                  data_rvs=rng.standard_normal).tocsr()
    cluster = ClusterConfig(num_workers=6, flops_per_core=2.5e6,
                            dfs_bytes_per_sec=1.3e5)
    plan = FaultPlan(crashes=tuple(CrashEvent(time=0.4 * (n + 1), worker=0)
                                   for n in range(4)), seed=0)
    return {
        "A": A,
        "cluster": cluster,
        "plan": plan,
        "fault_free": _run_gram(A, cluster, "exact"),
        "stale": _run_gram(A, cluster, "exact", fault_plan=plan),
        "adaptive": _run_gram(A, cluster, "exact", fault_plan=plan,
                              replan=True),
    }


class TestReplannerGuards:
    @staticmethod
    def _loop():
        program, _, _ = _gram_inputs(sp.eye(4, format="csr"))
        loop, = [stmt for stmt in program.statements
                 if isinstance(stmt, WhileLoop)]
        return loop

    def test_no_trigger_without_a_shrink(self):
        # Both guards return before the executor is touched.
        replanner = Replanner(None)
        assert replanner.consider(None, self._loop(), {}, (1,), 0, ()) is None
        summary = replanner.metrics_summary()
        assert summary["replan_checks"] == 1
        assert summary["replan_triggers"] == 0

    def test_max_replans_caps_switches(self):
        replanner = Replanner(None)
        replanner.generation = MAX_REPLANS
        replanner.note_shrink(2)
        assert replanner.consider(None, self._loop(), {}, (1,), 0, ()) is None
        summary = replanner.metrics_summary()
        assert summary["replan_shrink_events"] == 1
        assert summary["replan_checks"] == 0
        assert summary["replan_triggers"] == 0

    @pytest.mark.parametrize("reason, counted", [
        ("no-change", "replan_no_change"),
        ("not-inline-equivalent", "replan_rejected")])
    def test_a_refused_candidate_is_counted_by_its_reason(
            self, monkeypatch, reason, counted):
        replanner = Replanner(None)
        monkeypatch.setattr(replanner, "_recompile",
                            lambda *args: (None, reason))
        executor = SimpleNamespace(tracer=None, kernels=SimpleNamespace(
            config=ClusterConfig(num_workers=5)))
        replanner.note_shrink(5)
        assert replanner.consider(executor, self._loop(), {}, (1,), 0,
                                  ()) is None
        summary = replanner.metrics_summary()
        assert summary["replan_triggers"] == summary[counted] == 1
        assert summary["replan_no_change"] + summary["replan_rejected"] == 1


class TestInlineEquivalence:
    def test_temporaries_substituted(self):
        hoisted = parse("tREMAC0 = t(A) %*% A\nG = tREMAC0 %*% x\n",
                        max_iterations=ITERATIONS)
        plain = parse("G = (t(A) %*% A) %*% x\n", max_iterations=ITERATIONS)
        assert inline_temporaries(hoisted) == inline_temporaries(plain)
        assert inline_equivalent(hoisted, plain)

    def test_non_temp_names_kept(self):
        named = parse("y = t(A) %*% A\nG = y %*% x\n",
                      max_iterations=ITERATIONS)
        plain = parse("G = (t(A) %*% A) %*% x\n", max_iterations=ITERATIONS)
        assert not inline_equivalent(named, plain)

    def test_different_computations_rejected(self):
        left = parse("tREMAC0 = t(A) %*% A\nG = tREMAC0 %*% x\n",
                     max_iterations=ITERATIONS)
        right = parse("G = t(A) %*% (A %*% x)\n", max_iterations=ITERATIONS)
        assert not inline_equivalent(left, right)

    def test_loop_bodies_inlined(self):
        hoisted = parse(
            "tREPLAN1R0_0 = t(A) %*% A\n"
            "while (i < N) {\n  x = tREPLAN1R0_0 %*% x\n  i = i + 1\n}\n",
            scalar_names={"i", "N"}, max_iterations=ITERATIONS)
        plain = parse(
            "while (i < N) {\n  x = (t(A) %*% A) %*% x\n  i = i + 1\n}\n",
            scalar_names={"i", "N"}, max_iterations=ITERATIONS)
        assert inline_equivalent(hoisted, plain)


class TestDisabledInvariant:
    def test_no_replan_keys_without_config(self, crash_case):
        assert crash_case["stale"].metrics.replan_summary is None
        summary = crash_case["stale"].metrics.summary()
        assert not any(key.startswith("replan_") for key in summary)


class TestShrinkReplanning:
    def test_adaptive_strictly_faster(self, crash_case):
        assert crash_case["adaptive"].execution_seconds < \
            crash_case["stale"].execution_seconds

    def test_bit_identical_to_fault_free(self, crash_case):
        x_ref = crash_case["fault_free"].value("x")
        assert np.array_equal(x_ref, crash_case["stale"].value("x"))
        assert np.array_equal(x_ref, crash_case["adaptive"].value("x"))

    def test_shrink_events_counted(self, crash_case):
        assert not crash_case["fault_free"].compiled.applied_options
        summary = crash_case["adaptive"].metrics.replan_summary
        assert summary["replan_shrink_events"] >= 1
        assert summary["replan_adopted"] == 1
        faults = crash_case["adaptive"].metrics.fault_summary
        assert faults["recovery_active_workers"] == 2

    def test_checkpointing_composes_with_replanning(self, crash_case):
        """Satellite: ``checkpoint_every`` and mid-loop replanning both
        rewrite the loop's execution — together they must still be
        bit-identical to the fault-free run."""
        result = _run_gram(
            crash_case["A"], crash_case["cluster"], "exact",
            fault_plan=crash_case["plan"],
            recovery_config=RecoveryConfig(checkpoint_every=2),
            replan=True)
        assert np.array_equal(crash_case["fault_free"].value("x"),
                              result.value("x"))
        assert result.metrics.replan_summary["replan_adopted"] == 1
        assert result.metrics.fault_summary["recovery_checkpoints"] > 0


class TestDeclaredOutputs:
    def test_outputs_survive_the_switch(self, crash_case, monkeypatch):
        """The replanned program returns what the plan declared, bit for
        bit; a name that died before the switch stays dropped, and what
        was live at it is an input of the new program, so it is kept."""
        adopted, consider = [], Replanner.consider
        monkeypatch.setattr(Replanner, "consider", lambda *args: (
            lambda plan: adopted.append(plan) or plan)(consider(*args)))
        program, meta, data = _gram_inputs(crash_case["A"])
        engine = Engine(crash_case["cluster"],
                        OptimizerConfig(estimator="exact"))
        result = engine.run(replace(program, outputs=("x",)), meta, data,
                            iterations=ITERATIONS, replan=True,
                            fault_plan=crash_case["plan"])
        switched = [plan for plan in adopted if plan is not None]
        assert [plan.program.outputs for plan in switched] == [("x",)]
        assert result.compiled.program.outputs == ("x",)
        assert np.array_equal(crash_case["fault_free"].value("x"),
                              result.value("x"))
        assert sorted(result.env) == ["A", "N", "__always__", "i", "x"]


class TestShrinkObservability:
    def test_metrics_summary(self, crash_case):
        summary = crash_case["adaptive"].metrics.replan_summary
        assert summary["replan_triggers"] >= 1
        assert summary["replan_generation"] == 1
        assert summary["replan_compiles"] >= 1
        assert summary["replan_compile_seconds"] > 0
        assert crash_case["adaptive"].metrics.summary()["replan_adopted"] == 1

    def test_untraced_run_installs_no_tracer(self, crash_case):
        # A shrink replan reads no spans: an armed run without a tracer
        # adopts the new plan and carries no trace aggregates.
        adaptive = crash_case["adaptive"]
        assert adaptive.metrics.replan_summary["replan_adopted"] == 1
        assert adaptive.metrics.trace_summary is None
        assert not any(key.startswith("trace_")
                       for key in adaptive.metrics.summary())

    def test_trace_records_switch(self, crash_case):
        """A tracer the caller installs records the switch; replanning
        itself reads no spans, so the traced run equals the untraced one."""
        tracer = ExecutionTracer()
        adopted = []
        consider = Replanner.consider

        def keep_adopted(*args):
            compiled = consider(*args)
            if compiled is not None:
                adopted.append(compiled)
            return compiled

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Replanner, "consider", keep_adopted)
            traced = _run_gram(crash_case["A"], crash_case["cluster"],
                               "exact", fault_plan=crash_case["plan"],
                               replan=True,
                               tracer=tracer)
        untraced = crash_case["adaptive"]
        assert traced.execution_seconds == untraced.execution_seconds
        assert np.array_equal(traced.value("x"), untraced.value("x"))
        spans = tracer.spans
        replans = [s for s in spans if s.get("span") == "replan"]
        assert len(replans) == 1
        assert replans[0]["adopted"] is True
        assert replans[0]["trigger"] == "shrink"
        assert replans[0]["workers"] == 2
        # Each operator the adopted plan runs carries its own record's
        # prediction: the adopted plan's, not the original plan's.
        adopted, = adopted
        predicted = adopted.predicted_ops
        switched = [s for s in spans if s["span"] == "operator"
                    and s.get("gen") == 1
                    and not s["statement"].endswith("cond")]
        assert switched
        for span in switched:
            path = tuple(int(part) for part in span["statement"].split("."))
            op = predicted[path][span["op_index"]]
            assert span["predicted"] == {
                "impl": op.impl, "seconds": op.seconds,
                "compute_seconds": op.compute_seconds,
                "transmission_seconds": op.transmission_seconds,
                "out_nnz": op.out_nnz}

    def test_plan_cache_keys_the_shrunk_cluster_apart(self, crash_case):
        program, meta, data = _gram_inputs(crash_case["A"])
        engine = Engine(crash_case["cluster"],
                        OptimizerConfig(estimator="exact"))

        def armed():
            return engine.run(program, meta, data, iterations=ITERATIONS,
                              fault_plan=crash_case["plan"],
                              replan=True)

        first = armed()
        stats = engine.optimizer.plan_cache.stats
        # The post-shrink recompile (the remaining loop, priced for two
        # workers) is keyed apart from the six-worker plan: zero hits.
        assert (stats.hits, stats.misses) == (0, 2)
        second = armed()
        # Same program and same bound data objects: the initial compile of
        # the second run hits the cached six-worker plan.
        assert second.notes["plan_cache"] == "hit"
        assert second.execution_seconds == first.execution_seconds
        assert np.array_equal(first.value("x"), second.value("x"))
        assert second.metrics.replan_summary["replan_adopted"] == 1


class TestFaultPlanStrictness:
    def test_load_names_path_on_malformed_json(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError) as excinfo:
            FaultPlan.load(str(path))
        assert str(path) in str(excinfo.value)
        assert "not valid JSON" in str(excinfo.value)

    def test_load_names_path_on_unknown_key(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text('{"crashes": [], "crashs": []}')
        with pytest.raises(ConfigError) as excinfo:
            FaultPlan.load(str(path))
        assert str(path) in str(excinfo.value)
        assert "crashs" in str(excinfo.value)

    def test_load_rejects_non_object_payload(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ConfigError) as excinfo:
            FaultPlan.load(str(path))
        assert str(path) in str(excinfo.value)

    def test_from_dict_rejects_unknown_event_keys(self):
        with pytest.raises(ConfigError, match="crash"):
            FaultPlan.from_dict(
                {"crashes": [{"time": 0.1, "worker": 0, "oops": 1}]})
        with pytest.raises(ConfigError, match="straggler"):
            FaultPlan.from_dict(
                {"stragglers": [{"worker": 0, "start": 0.0, "duration": 1.0,
                                 "factor": 2.0, "speed": 9}]})

    def test_roundtrip_includes_straggler_cap(self):
        plan = FaultPlan(
            stragglers=(StragglerEvent(0, start=0.0, duration=1.0,
                                       factor=2.0),),
            max_straggler_factor=4.0)
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_straggler_cap_validated(self):
        with pytest.raises(ConfigError):
            FaultPlan(max_straggler_factor=0.5)
        with pytest.raises(ConfigError):
            FaultPlan(max_straggler_factor=float("nan"))

    def test_straggler_factor_capped(self):
        plan = FaultPlan(
            stragglers=(StragglerEvent(0, start=0.0, duration=1.0,
                                       factor=8.0),),
            max_straggler_factor=4.0)
        injector = FaultInjector(plan)
        assert injector.straggler_factor(0.5) == 4.0
        assert injector.straggler_factor(2.0) == 1.0


class TestRetryDeadline:
    def test_validation(self):
        with pytest.raises(ConfigError):
            RecoveryConfig(max_retry_seconds=0.0)
        with pytest.raises(ConfigError):
            RecoveryConfig(max_retry_seconds=-1.0)
        RecoveryConfig(max_retry_seconds=None)

    def test_deadline_raises_annotated_error(self, cluster):
        program = parse("y = t(A) %*% A\n", max_iterations=ITERATIONS)
        data = {"A": np.random.default_rng(0).random((200, 40))}
        plan = FaultPlan(transmission_failure_rates={"shuffle": 0.99,
                                                     "broadcast": 0.99,
                                                     "collect": 0.99,
                                                     "dfs": 0.99}, seed=0)
        executor = Executor(cluster, fault_plan=plan,
                            recovery_config=RecoveryConfig(
                                max_retries=10_000,
                                max_retry_seconds=1e-6))
        with pytest.raises(ExecutionError, match="retry deadline") as excinfo:
            executor.run(program, data)
        assert excinfo.value.statement_path is not None
