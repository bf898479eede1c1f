"""Cost-priced operator fusion (docs/architecture.md §12).

The standing invariant: fused and unfused runs of the same program produce
bit-identical result matrices — fusion only changes simulated time,
transmission volume, and materialized bytes (``tests/test_identity.py``
checks it on generated programs). Fusion is a *pricing*
decision, never a forced rewrite: a region fuses only when the fused price
is strictly cheaper than the summed member prices, so purely-local
programs and chains with no transmission savings run exactly as the
unfused seed does, metric for metric.
"""

from __future__ import annotations

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

import repro.core.optimizer as optimizer_module
import repro.runtime.executor as executor_module
from repro.algorithms import get_algorithm
from repro.config import ClusterConfig, OptimizerConfig
from repro.core.plancache import plan_fingerprint, settings_text
from repro.data import load_dataset
from repro.engines import make_engine
from repro.errors import ExecutionError
from repro.lang import parse, parse_expression
from repro.lang.program import single_expression_program
from repro.matrix.meta import MatrixMeta
from repro.runtime import ExecutionPolicy, ExecutionTracer, Executor, plan
from repro.runtime.fusion import find_ewise_region, mmchain_beats_unfused

#: systemds policy (mmchain_col_limit=None) with only the fuse flag set, so
#: any mmchain span observed under it was admitted by cost, not by the
#: legacy column-bound shape gate.
FUSED = replace(ExecutionPolicy.systemds(), fuse=True)
UNFUSED = ExecutionPolicy.systemds()


def _fused_and_unfused(source, bindings):
    """The fused and the unfused run's metrics, once their values match."""
    outs, metrics = [], []
    for policy in (FUSED, UNFUSED):
        executor = Executor(ClusterConfig(), policy)
        outs.append(executor.run(single_expression_program(
            parse_expression(source)), bindings)["out"].matrix.to_numpy())
        metrics.append(executor.metrics)
    assert np.array_equal(outs[0], outs[1])
    return metrics


def _run_program(fuse: bool, algorithm="gd", dataset="cri2", iterations=5,
                 tracer=None):
    data = load_dataset(dataset, scale=0.3)
    algo = get_algorithm(algorithm)
    meta, inputs = algo.make_inputs(data.matrix)
    engine = make_engine("remac", ClusterConfig()).with_fusion(fuse)
    return engine.run(algo.program(iterations), meta, inputs,
                      symmetric=algo.symmetric_inputs, iterations=iterations,
                      tracer=tracer)


@pytest.fixture(scope="module")
def gd_runs():
    return _run_program(True), _run_program(False)


class TestWholeProgram:
    def test_fusion_actually_engaged(self, gd_runs):
        fused, unfused = gd_runs
        assert fused.metrics.operator_counts.get("mmchain", 0) > 0
        assert unfused.metrics.operator_counts.get("mmchain", 0) == 0

    def test_fusion_reduces_transmission_and_materialization(self, gd_runs):
        fused, unfused = gd_runs
        s_on, s_off = fused.metrics.summary(), unfused.metrics.summary()
        assert s_on["bytes_materialized"] < s_off["bytes_materialized"]
        assert s_on["bytes_broadcast"] < s_off["bytes_broadcast"]
        assert s_on["bytes_collect"] < s_off["bytes_collect"]

    def test_compile_notes_carry_fusion_report(self, gd_runs):
        fused, unfused = gd_runs
        report = fused.notes["fusion"]
        assert report["regions_found"] >= report["regions_selected"] >= 1
        assert report["predicted_fused_seconds"] < \
            report["predicted_unfused_seconds"]
        for region in report["regions"]:
            assert region["kind"] in ("ewise", "mmchain")
            assert region["members"] >= 2
        assert unfused.notes["fusion"] is None
        # It lists exactly the plan's fused operators, loop bodies included.
        assert sorted(r["fused_seconds"] for r in report["regions"]) == sorted(
            op.seconds for ops in fused.compiled.predicted_ops.values()
            for op in ops if op.kind in ("fused_ewise", "mmchain"))


class TestEwiseRegionFusion:
    """A distributed dense leaf zipped with a small local leaf: unfused,
    the local side broadcasts once per member; fused, once per region."""

    @pytest.fixture()
    def operands(self, rng):
        dense = rng.random((400, 400))  # 1.28 MB -> distributed
        sparse = rng.random((400, 400)) * (rng.random((400, 400)) < 0.02)
        return {"A": dense, "S": sparse}

    @pytest.mark.parametrize("source", [
        "(A + S) * S",
        "A * S + S * A - S",
        "2.0 * (A + S) - S",
    ])
    def test_a_fused_region_saves(self, operands, source):
        m_on, m_off = _fused_and_unfused(source, operands)
        assert m_on.operator_counts.get("fused_ewise", 0) == 1
        s_on, s_off = m_on.summary(), m_off.summary()
        assert s_on["seconds_total"] < s_off["seconds_total"]
        assert s_on["bytes_materialized"] < s_off["bytes_materialized"]
        assert s_on["bytes_broadcast"] < s_off["bytes_broadcast"]

    def test_region_detection_requires_two_members(self):
        # A lone zip is one member: nothing to fuse.
        assert find_ewise_region(parse_expression("A + B")) is None
        assert find_ewise_region(parse_expression("A + B - C")) is not None
        assert find_ewise_region(parse_expression("A %*% B")) is None
        # A matmul leaf breaks the region (leaves must be free references).
        assert find_ewise_region(parse_expression("A + B %*% C")) is None


class TestMmchainByCost:
    def test_selected_by_cost_not_by_shape_gate(self, rng):
        """FUSED has mmchain_col_limit=None: the legacy gate can never fire,
        so the observed mmchain span was admitted by pricing alone."""
        assert FUSED.mmchain_col_limit is None
        tall = rng.random((20_000, 100))
        v = rng.random((100, 1))
        m_on, m_off = _fused_and_unfused("t(X) %*% (X %*% v)",
                                         {"X": tall, "v": v})
        assert m_on.operator_counts.get("mmchain", 0) == 1
        assert m_off.operator_counts.get("mmchain", 0) == 0
        assert m_on.summary()["seconds_total"] < \
            m_off.summary()["seconds_total"]

    def test_wide_second_matrix_admitted_when_it_wins(self, rng):
        """The legacy 512-column bound is gone: a 900-column right-hand side
        still fuses when the cost model prices the single pass cheaper."""
        tall = rng.random((20_000, 100))
        wide = rng.random((100, 900))
        m_on, m_off = _fused_and_unfused("t(X) %*% (X %*% W)",
                                         {"X": tall, "W": wide})
        assert m_on.operator_counts.get("mmchain", 0) == 1
        assert m_on.summary()["seconds_total"] < \
            m_off.summary()["seconds_total"]


class TestFusionLosesWhenCostSaysSo:
    def test_local_chain_runs_exactly_as_unfused(self, rng):
        """A purely-local pipeline never fuses (strict-< on equal compute
        would be an FP coin flip); every metric matches the seed path."""
        small = {"A": rng.random((40, 40)), "S": rng.random((40, 40))}
        m_on, m_off = _fused_and_unfused("(A + S) * S - A", small)
        assert m_on.operator_counts.get("fused_ewise", 0) == 0
        assert m_on.summary() == m_off.summary()

    def test_all_distributed_chain_declines(self, rng):
        """Every leaf distributed: the fused pass saves no transmission, so
        the strict price comparison declines and metrics stay identical."""
        big = {name: rng.random((400, 400)) for name in ("A", "B", "C")}
        m_on, m_off = _fused_and_unfused("(A + B) * C", big)
        assert m_on.operator_counts.get("fused_ewise", 0) == 0
        assert m_on.summary() == m_off.summary()

    def test_local_mmchain_declines(self):
        config = ClusterConfig()
        x = MatrixMeta(100, 20, 1.0)  # 16 KB: local
        v = MatrixMeta(20, 1, 1.0)
        assert not mmchain_beats_unfused(x, v, config, FUSED)

    def test_distributed_mmchain_wins(self):
        config = ClusterConfig()
        x = MatrixMeta(50_000, 100, 1.0)
        v = MatrixMeta(100, 1, 1.0)
        assert mmchain_beats_unfused(x, v, config, FUSED)


class TestOneDecider:
    """The cost evaluation decides each FUSED / MMCHAIN record and the
    executor runs what it was told: a plan executes exactly the fused
    sites it predicted, and every operator span pairs with a prediction."""

    FUSED_OPS = ("fused_ewise", "mmchain")

    @pytest.mark.parametrize("algorithm, dataset, engine", [
        ("gd", "cri1", "pbdr"), ("dfp", "cri2", "scidb"),
        ("gd", "cri2", "remac")])
    def test_executed_sites_are_the_predicted_sites(self, algorithm, dataset,
                                                    engine):
        algo = get_algorithm(algorithm)
        meta, inputs = algo.make_inputs(
            load_dataset(dataset, scale=0.3).matrix)
        tracer = ExecutionTracer()
        run = make_engine(engine, ClusterConfig()).with_fusion(True).run(
            algo.program(5), meta, inputs, symmetric=algo.symmetric_inputs,
            iterations=5, tracer=tracer)
        predicted = {".".join(map(str, path))
                     for path, ops in run.compiled.predicted_ops.items()
                     for op in ops if op.kind in self.FUSED_OPS}
        spans = [span for span in tracer.operator_spans()
                 if "cond" not in span["statement"]]
        assert predicted
        assert {span["statement"] for span in spans
                if span["op"] in self.FUSED_OPS} == predicted
        assert all(span["predicted"] is not None for span in spans)

    def test_a_bare_program_is_decided_at_run_start(self, rng, monkeypatch):
        """A bare run and a compile prepare their records by one call each,
        through the one helper; the bare run's records are decided and
        carry predictions."""
        run_start, compile_end = (
            mock.Mock(wraps=module.prepare_records)
            for module in (executor_module, optimizer_module))
        monkeypatch.setattr(executor_module, "prepare_records", run_start)
        monkeypatch.setattr(optimizer_module, "prepare_records", compile_end)
        operands = {"A": rng.random((400, 400)),
                    "S": rng.random((400, 400)) * (rng.random((400, 400))
                                                   < 0.02)}
        program = single_expression_program(parse_expression(
            "(A + S) * S - t(A) %*% (A %*% S)"))
        tracer = ExecutionTracer()
        executor = Executor(ClusterConfig(), FUSED, tracer=tracer)
        executor.run(program, operands)
        assert (run_start.call_count, compile_end.call_count) == (1, 0)
        assert run_start.call_args.args[1] is program
        records = [op for code in executor._lowered.values() for op in code
                   if op.kind in (plan.FUSED, plan.MMCHAIN)]
        spans = list(tracer.operator_spans())
        executed = [span["op"] for span in spans
                    if span["op"] in self.FUSED_OPS]
        assert [(op.kind, op.fuse) for op in records] == [
            (plan.FUSED, True), (plan.MMCHAIN, True)]
        assert executed == ["fused_ewise", "mmchain"]
        assert all(span["predicted"] is not None for span in spans)
        engine = make_engine("remac", ClusterConfig()).with_fusion(True)
        compiled = engine.compile(program, {
            name: MatrixMeta(*array.shape, np.count_nonzero(array)
                             / array.size)
            for name, array in operands.items()}, operands)
        engine.execute(compiled, operands)
        assert (run_start.call_count, compile_end.call_count) == (1, 1)
        assert compile_end.call_args.args[1] is compiled.program

    def test_an_undecidable_bare_program_fails_where_it_runs(self, rng):
        operands = {"A": rng.random((400, 400)), "S": rng.random((400, 400))}
        with pytest.raises(ExecutionError, match="undefined variable 'Z' "
                                                 r"\[at statement 1"):
            Executor(ClusterConfig(), FUSED).run(
                parse("out = (A + S) * S\ny = Z + 1"), operands)


class TestPlanCacheFingerprint:
    def test_fuse_flag_changes_fingerprint(self, dfp_like_inputs):
        algo = get_algorithm("gd")
        program = algo.program(3)
        config = OptimizerConfig()
        cluster = ClusterConfig()
        on = plan_fingerprint(program, dfp_like_inputs,
                              settings_text(config, cluster, FUSED),
                              iterations=3)
        off = plan_fingerprint(program, dfp_like_inputs,
                               settings_text(config, cluster, UNFUSED),
                               iterations=3)
        assert on != off

    def test_engine_toggle_rebuilds_optimizer(self):
        engine = make_engine("remac", ClusterConfig())
        before = engine.optimizer
        assert engine.with_fusion(False) is engine  # already off: no-op
        assert engine.optimizer is before
        engine.with_fusion(True)
        assert engine.optimizer is not before
        assert engine.policy.fuse


class TestTraceCoverage:
    def test_fused_spans_surface_in_summary(self):
        tracer = ExecutionTracer()
        fused = _run_program(True, tracer=tracer)
        summary = fused.metrics.summary()
        assert summary["trace_fused_spans"] > 0
        fused_spans = [span for span in tracer.operator_spans()
                       if span["op"] in ("fused_ewise", "mmchain")]
        assert len(fused_spans) == int(summary["trace_fused_spans"])
        for span in fused_spans:
            assert span["observed"]["seconds"] >= 0.0
