"""ReMacOptimizer facade tests: configurations, notes, compiled output."""

import numpy as np
import pytest

from repro.config import ClusterConfig, OptimizerConfig
from repro.core import ReMacOptimizer
from repro.errors import OptimizerError, ShapeError
from repro.lang import parse
from repro.matrix.meta import MatrixMeta

GD_SOURCE = """
input A, b, x, alpha
i = 0
while (i < 8) {
  g = t(A) %*% (A %*% x - b)
  x = x - alpha * g
  i = i + 1
}
"""


@pytest.fixture
def gd_setup(rng):
    program = parse(GD_SOURCE, scalar_names={"i", "alpha"})
    m, n = 3000, 50
    A = rng.random((m, n))
    inputs = {"A": MatrixMeta(m, n, 1.0), "b": MatrixMeta(m, 1),
              "x": MatrixMeta(n, 1), "alpha": MatrixMeta(1, 1),
              "i": MatrixMeta(1, 1)}
    data = {"A": A, "b": A @ rng.random((n, 1)), "x": np.zeros((n, 1)),
            "alpha": 1e-6, "i": 0.0}
    return program, inputs, data


class TestCompile:
    def test_compile_produces_program_and_notes(self, cluster, gd_setup):
        program, inputs, data = gd_setup
        optimizer = ReMacOptimizer(cluster)
        compiled = optimizer.compile(program, inputs, data, iterations=8)
        assert compiled.compile_seconds > 0
        assert compiled.estimated_cost > 0
        assert compiled.notes["search"] == "blockwise"
        assert compiled.notes["strategy"] == "adaptive"
        assert compiled.notes["estimator"] == "mnc"

    def test_applied_plus_rejected_equals_found(self, cluster, gd_setup):
        program, inputs, data = gd_setup
        compiled = ReMacOptimizer(cluster).compile(program, inputs, data)
        assert len(compiled.applied_options) + len(compiled.rejected_options) \
            == compiled.notes["options_found"]

    def test_shape_errors_fail_fast(self, cluster):
        program = parse("y = A %*% A")
        with pytest.raises(ShapeError):
            ReMacOptimizer(cluster).compile(program, {"A": MatrixMeta(3, 4)})

    def test_strategy_none_applies_nothing(self, cluster, gd_setup):
        program, inputs, data = gd_setup
        optimizer = ReMacOptimizer(cluster, OptimizerConfig(strategy="none"))
        compiled = optimizer.compile(program, inputs, data)
        assert compiled.applied_options == []

    def test_explicit_search_mode(self, cluster, gd_setup):
        program, inputs, data = gd_setup
        optimizer = ReMacOptimizer(cluster, OptimizerConfig(search="explicit",
                                                            strategy="automatic"))
        compiled = optimizer.compile(program, inputs, data)
        # GD has no explicit CSE (no identical subtrees).
        assert compiled.notes["options_found"] == 0

    def test_treewise_search_mode(self, cluster, gd_setup):
        program, inputs, data = gd_setup
        optimizer = ReMacOptimizer(
            cluster, OptimizerConfig(search="treewise",
                                     treewise_plan_budget=100_000))
        compiled = optimizer.compile(program, inputs, data)
        assert "plans_visited" in compiled.notes
        assert compiled.notes["options_found"] >= 1

    def test_spores_search_mode(self, cluster, gd_setup):
        program, inputs, data = gd_setup
        optimizer = ReMacOptimizer(cluster, OptimizerConfig(search="spores"))
        compiled = optimizer.compile(program, inputs, data)
        assert "sampled_plans" in compiled.notes

    def test_unknown_search_rejected(self, cluster, gd_setup):
        program, inputs, data = gd_setup
        optimizer = ReMacOptimizer(cluster, OptimizerConfig(search="magic"))
        with pytest.raises(OptimizerError):
            optimizer.compile(program, inputs, data)

    def test_mnc_charges_stats_collection(self, cluster, gd_setup):
        program, inputs, data = gd_setup
        mnc = ReMacOptimizer(cluster, OptimizerConfig(estimator="mnc"))
        meta_only = ReMacOptimizer(cluster, OptimizerConfig(estimator="metadata"))
        with_mnc = mnc.compile(program, inputs, data)
        with_meta = meta_only.compile(program, inputs, data)
        assert with_mnc.notes["stats_collection_seconds"] > \
            with_meta.notes["stats_collection_seconds"]

    def test_describe_is_informative(self, cluster, gd_setup):
        program, inputs, data = gd_setup
        compiled = ReMacOptimizer(cluster).compile(program, inputs, data)
        text = compiled.describe()
        assert "estimated_cost" in text

    def test_compiles_without_input_data(self, cluster, gd_setup):
        """Metadata-only compilation must work (no data to sketch)."""
        program, inputs, _data = gd_setup
        compiled = ReMacOptimizer(cluster).compile(program, inputs)
        assert compiled.estimated_cost > 0


class TestSharedTables:
    def test_shared_tables_leave_a_plan_as_it_was(self, cluster):
        """Compiled with prices, span tables and environments kept and
        shared, a plan — program, applied options, estimated cost, every
        round's figures — is the one an unmemoized compile, which shares
        nothing, arrives at."""
        from repro.algorithms import get_algorithm
        from repro.data import load_dataset
        algo = get_algorithm("dfp")
        meta, data = algo.make_inputs(load_dataset("cri1", scale=0.3).matrix)

        def compile_dfp(**knobs):
            config = OptimizerConfig(plan_cache=False, **knobs)
            return ReMacOptimizer(cluster, config).compile(
                algo.program(5), meta, data, iterations=5)

        shared, unshared = compile_dfp(), compile_dfp(cost_memo=False)
        memo = shared.notes["cost_memo"]
        assert memo["tables_built"] < memo["tables_asked"]
        assert unshared.notes["cost_memo"] is None
        assert shared.program.text == unshared.program.text
        assert shared.estimated_cost == unshared.estimated_cost
        assert [repr(o) for o in shared.applied_options] \
            == [repr(o) for o in unshared.applied_options]
        figures = ("options", "chosen", "chain_cost", "plain_cost", "entries")
        assert [[r[f] for f in figures] for r in shared.notes["rounds"]] \
            == [[r[f] for f in figures] for r in unshared.notes["rounds"]]
