"""Execution tracing: spans, prediction pairing, drift, zero-cost-off."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import runtime
from repro.algorithms import get_algorithm
from repro.bench.figures import FIG3_FORCED, run_forced_options
from repro.bench.harness import BenchContext
from repro.config import ClusterConfig
from repro.core import ReMacOptimizer
from repro.data import load_dataset
from repro.engines import make_engine
from repro.lang import parse
from repro.matrix.meta import MatrixMeta
from repro.runtime import ExecutionPolicy, ExecutionTracer, Executor

GD_SOURCE = """
input A, b, x, alpha
i = 0
while (i < 6) {
  g = t(A) %*% (A %*% x - b)
  x = x - alpha * g
  i = i + 1
}
"""


@pytest.fixture
def gd_workload(rng):
    program = parse(GD_SOURCE, scalar_names={"i", "alpha"})
    m, n = 600, 30
    A = rng.random((m, n))
    inputs = {"A": MatrixMeta(m, n, 1.0), "b": MatrixMeta(m, 1),
              "x": MatrixMeta(n, 1), "alpha": MatrixMeta(1, 1),
              "i": MatrixMeta(1, 1)}
    data = {"A": A, "b": A @ rng.random((n, 1)), "x": np.zeros((n, 1)),
            "alpha": 1e-6, "i": 0.0}
    return program, inputs, data


@pytest.fixture
def compiled_gd(cluster, gd_workload):
    program, inputs, data = gd_workload
    optimizer = ReMacOptimizer(cluster)
    compiled = optimizer.compile(program, inputs, data, iterations=6)
    return compiled, inputs, data


def execute(cluster, compiled, data, tracer=None):
    executor = Executor(cluster, tracer=tracer)
    executor.run(compiled, data)
    return executor


class TestZeroCostWhenOff:
    """That a traced run reports what an untraced one does, minus its
    ``trace_*`` keys, is ``test_identity.py``'s traced way."""

    def test_predictions_attached_regardless_of_tracing(self, compiled_gd):
        compiled, _, _ = compiled_gd
        assert compiled.predicted_ops  # recorded during normal compilation
        for path, ops in compiled.predicted_ops.items():
            assert isinstance(path, tuple)
            assert all(op.seconds >= 0.0 for op in ops)


class TestOperatorSpans:
    def test_spans_carry_predicted_and_observed(self, cluster, compiled_gd):
        compiled, _, data = compiled_gd
        tracer = ExecutionTracer()
        execute(cluster, compiled, data, tracer=tracer)
        operators = list(tracer.operator_spans())
        assert operators
        matched = [span for span in operators if span["predicted"] is not None]
        assert matched  # at least one operator priced by the cost model
        for span in operators:
            observed = span["observed"]
            assert observed["seconds"] == pytest.approx(
                observed["compute_seconds"] + observed["transmission_seconds"])
            assert all(nbytes >= 0.0 for nbytes in observed["bytes"].values())
            assert span["out"]["rows"] >= 1 and span["out"]["cols"] >= 1
            assert span["impl"] in ("local", "bmm", "bmm_flipped", "cpmm")
        for span in matched:
            predicted = span["predicted"]
            assert predicted["seconds"] == pytest.approx(
                predicted["compute_seconds"]
                + predicted["transmission_seconds"])
            assert predicted["out_nnz"] >= 0

    def test_condition_operators_carry_no_prediction(self, cluster,
                                                     compiled_gd):
        """Loop conditions are never priced at compile time."""
        compiled, _, data = compiled_gd
        tracer = ExecutionTracer()
        execute(cluster, compiled, data, tracer=tracer)
        condition_ops = [span for span in tracer.operator_spans()
                         if span["statement"].endswith("cond")]
        for span in condition_ops:
            assert span["predicted"] is None
        condition_spans = [span for span in tracer.spans
                           if span["span"] == "condition"]
        assert condition_spans

    def test_trace_summary_in_metrics(self, cluster, compiled_gd):
        compiled, _, data = compiled_gd
        tracer = ExecutionTracer()
        executor = execute(cluster, compiled, data, tracer=tracer)
        summary = executor.metrics.summary()
        assert summary["trace_operator_spans"] >= 1
        assert summary["trace_matched_spans"] >= 1
        assert summary["trace_observed_seconds"] > 0.0
        assert summary["trace_drift_ratio"] >= 0.0
        # Traced operators are a subset of what the phases charged.
        assert summary["trace_observed_seconds"] \
            <= executor.metrics.execution_seconds + 1e-9


class TestPairingByRecord:
    def test_other_fuse_plan_is_prepared_with_predictions(
            self, cluster, gd_workload):
        """A plan compiled with fusion on and run under ``fuse=False`` is
        prepared again at run start by the call its compile made; every
        operator span outside a loop condition pairs with a prediction of
        the new records (none of them a fusion), and the run computes what
        the untraced one does."""
        program, inputs, data = gd_workload
        fused = ExecutionPolicy(fuse=True)
        compiled = ReMacOptimizer(cluster, policy=fused).compile(
            program, inputs, data, iterations=6)
        assert compiled.notes["fusion"] is not None
        assert compiled.predicted_ops
        unfused = ExecutionPolicy()
        tracer = ExecutionTracer()
        executor = Executor(cluster, unfused, tracer=tracer)
        traced = executor.run(compiled, data)
        untraced = Executor(cluster, unfused).run(compiled, data)
        assert executor._lowered is not compiled.lowered
        assert _unpaired(tracer) == 0
        assert not any(span["op"] in ("fused_ewise", "mmchain")
                       for span in tracer.operator_spans())
        assert np.array_equal(traced["x"].matrix.to_numpy(),
                              untraced["x"].matrix.to_numpy())

    @pytest.mark.parametrize("fuse", [True, False])
    @pytest.mark.parametrize("algorithm, dataset, engine", [
        ("gd", "cri1", "remac"), ("dfp", "red1", "pbdr"),
        ("gnmf", "cri3", "systemds")])
    def test_every_span_of_a_bare_run_pairs_with_a_prediction(
            self, algorithm, dataset, engine, fuse):
        """A bare program's records are prepared as a compile's are, so
        every operator span outside a loop condition carries a prediction,
        fused or not."""
        algo = get_algorithm(algorithm)
        _, data = algo.make_inputs(load_dataset(dataset, scale=0.3).matrix)
        policy = make_engine(engine).with_fusion(fuse).policy
        tracer = ExecutionTracer()
        Executor(ClusterConfig(), policy, tracer=tracer).run(
            algo.program(3), data, symmetric=algo.symmetric_inputs)
        assert _unpaired(tracer) == 0

    def test_every_span_of_fig3s_forced_plans_pairs_with_a_prediction(
            self, monkeypatch):
        """Fig. 3's hand-picked plans run bare; traced through a local
        executor that installs a tracer, none of their spans is unpaired."""
        tracers = []

        class Traced(Executor):
            def __init__(self, *args, **kwargs):
                tracers.append(ExecutionTracer())
                super().__init__(*args, tracer=tracers[-1], **kwargs)

        monkeypatch.setattr(runtime, "Executor", Traced)
        ctx = BenchContext(scale=0.2, iterations=3)
        for single_node in (False, True):
            for _, keys in FIG3_FORCED:
                run_forced_options(ctx, "dfp", "cri3", keys=keys,
                                   single_node=single_node)
        assert len(tracers) == 2 * len(FIG3_FORCED)
        assert [_unpaired(tracer) for tracer in tracers] == [0] * len(tracers)


    @pytest.mark.parametrize("compiled", [True, False])
    def test_a_negation_pairs_with_the_price_its_kernel_charges(
            self, cluster, rng, compiled):
        """A NEG record is priced as ``Kernels.negate`` charges it (a
        multiply by a 1x1 cell, the operand's meta out), so its span is
        paired; over a local input, whose meta the model knows exactly and
        whose placement cannot be skewed, the prediction is the charge."""
        program = parse("input A, B, C\nN = -C\nM = -(A %*% B)\n"
                        "s = -sum(N)\n")
        data = {"A": rng.random((600, 30)), "B": rng.random((30, 30)),
                "C": rng.random((40, 30))}
        if compiled:
            program = ReMacOptimizer(cluster).compile(
                program, {name: MatrixMeta(*value.shape, 1.0)
                          for name, value in data.items()}, data)
        tracer = ExecutionTracer()
        Executor(cluster, tracer=tracer).run(program, data)
        assert _unpaired(tracer) == 0
        negations = [span for span in tracer.operator_spans()
                     if span["op"] == "negate"]
        assert [span["target"] for span in negations] == ["N", "M", "s"]
        of_input = negations[0]
        assert of_input["impl"] == of_input["predicted"]["impl"]
        for part in ("seconds", "compute_seconds", "transmission_seconds"):
            assert of_input["predicted"][part] == of_input["observed"][part]


def _unpaired(tracer) -> int:
    """Operator spans outside loop conditions that carry no prediction,
    after checking there are some."""
    spans = [span for span in tracer.operator_spans()
             if "cond" not in span["statement"]]
    assert spans
    return sum(span["predicted"] is None for span in spans)


class TestLoopNesting:
    def test_spans_nest_inside_while_loops(self, cluster, compiled_gd):
        compiled, _, data = compiled_gd
        tracer = ExecutionTracer()
        executor = execute(cluster, compiled, data, tracer=tracer)
        loops = [span for span in tracer.spans if span["span"] == "loop"]
        assert len(loops) == len(executor.loop_iterations)
        assert loops[0]["iterations"] == executor.loop_iterations[0]
        loop_path = loops[0]["loop"]
        iteration_spans = [span for span in tracer.spans
                           if span["span"] == "iteration"
                           and span["loop"] == loop_path]
        assert len(iteration_spans) == loops[0]["iterations"]
        assert [span["iteration"] for span in iteration_spans] \
            == list(range(loops[0]["iterations"]))
        # Statements executed inside the loop carry the loop's path both as
        # a statement-path prefix and in their loop-context field.
        body_statements = [span for span in tracer.spans
                           if span["span"] == "statement"
                           and span["statement"].startswith(loop_path + ".")]
        assert body_statements
        for span in body_statements:
            assert span["loop"] == loop_path
            assert span["iteration"] is not None

    def test_hoisted_statements_precede_loop(self, cluster, compiled_gd):
        """LSE-hoisted temporaries execute as top-level statements before
        the loop span's operators — visible by sequence numbers."""
        compiled, _, data = compiled_gd
        tracer = ExecutionTracer()
        execute(cluster, compiled, data, tracer=tracer)
        prologue = [span for span in tracer.spans
                    if span["span"] == "statement" and span["loop"] is None]
        in_loop = [span for span in tracer.spans
                   if span["span"] == "operator"
                   and span["loop"] is not None]
        assert prologue and in_loop
        first_loop_seq = min(span["seq"] for span in in_loop)
        hoisted = [span for span in prologue
                   if span["seq"] < first_loop_seq and span["operators"] > 0]
        assert hoisted  # LSE hoisted at least one priced temporary

    def test_loop_seconds_cover_iterations(self, cluster, compiled_gd):
        compiled, _, data = compiled_gd
        tracer = ExecutionTracer()
        execute(cluster, compiled, data, tracer=tracer)
        loop = next(span for span in tracer.spans if span["span"] == "loop")
        iteration_total = sum(span["seconds"] for span in tracer.spans
                              if span["span"] == "iteration"
                              and span["loop"] == loop["loop"])
        # Loop seconds also include condition evaluations, so >= iterations.
        assert loop["seconds"] >= iteration_total - 1e-12


class TestDriftReport:
    def test_ranked_by_drift_and_aggregated(self, cluster, compiled_gd):
        compiled, _, data = compiled_gd
        tracer = ExecutionTracer()
        execute(cluster, compiled, data, tracer=tracer)
        report = tracer.drift_report()
        assert report
        ratios = [row["drift_ratio"] for row in report]
        assert ratios == sorted(ratios, reverse=True)
        for row in report:
            assert row["executions"] >= 1
            assert np.isfinite(row["drift_ratio"])
            if row["matched"]:
                expected = (abs(row["predicted_seconds"]
                                - row["observed_seconds"])
                            / max(row["observed_seconds"], 1e-12))
                assert row["drift_ratio"] == pytest.approx(expected)
        # Operators inside the loop aggregate one row per static site.
        looped = [row for row in report if row["executions"] > 1]
        assert looped

    def test_json_lines_round_trip(self, cluster, compiled_gd, tmp_path):
        compiled, _, data = compiled_gd
        tracer = ExecutionTracer()
        execute(cluster, compiled, data, tracer=tracer)
        path = tmp_path / "trace.jsonl"
        count = tracer.write_jsonl(str(path))
        lines = path.read_text().splitlines()
        assert count == len(lines) == len(tracer.spans)
        parsed = [json.loads(line) for line in lines]
        assert sum(1 for span in parsed if span["span"] == "operator") >= 1
        assert [span["seq"] for span in parsed] == sorted(
            span["seq"] for span in parsed)


class TestEngineIntegration:
    def test_engine_run_threads_tracer(self, cluster, gd_workload):
        program, inputs, data = gd_workload
        engine = make_engine("remac", cluster)
        tracer = ExecutionTracer()
        result = engine.run(program, inputs, data, iterations=6,
                            tracer=tracer)
        assert list(tracer.operator_spans())
        assert result.metrics.trace_summary is not None
        assert result.metrics.summary()["trace_operator_spans"] >= 1

    def test_merged_collectors_add_trace_summaries(self, cluster,
                                                   gd_workload):
        program, inputs, data = gd_workload
        engine = make_engine("remac", cluster)
        first = engine.run(program, inputs, data, iterations=6,
                           tracer=ExecutionTracer())
        second = engine.run(program, inputs, data, iterations=6,
                            tracer=ExecutionTracer())
        merged = first.metrics.merged_with(second.metrics)
        assert merged.trace_summary["trace_operator_spans"] == (
            first.metrics.trace_summary["trace_operator_spans"]
            + second.metrics.trace_summary["trace_operator_spans"])
