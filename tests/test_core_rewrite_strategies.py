"""Rewriter and strategy tests: semantic preservation and strategy contracts."""

import numpy as np
import pytest

from repro.config import ClusterConfig, OptimizerConfig
from repro.core.chains import build_chains
from repro.core.cost import CostModel, sketch_inputs
from repro.core.rewrite import TEMP_PREFIX, rewrite_program
from repro.core.search import blockwise_search
from repro.core.sparsity import make_estimator
from repro.core.strategies import choose_options
from repro.lang import format_program, parse
from repro.matrix.meta import MatrixMeta
from repro.runtime import Executor

DFP_SOURCE = """
input A, b, x
g = t(A) %*% A %*% x - t(A) %*% b
i = 0
while (i < 6) {
  d = H %*% g
  H = H - H %*% t(A) %*% A %*% d %*% t(d) %*% t(A) %*% A %*% H / (t(d) %*% t(A) %*% A %*% H %*% t(A) %*% A %*% d) + d %*% t(d) / (2 * (t(d) %*% t(A) %*% A %*% d))
  g = g - t(A) %*% A %*% d
  i = i + 1
}
"""


@pytest.fixture
def world(cluster, rng):
    program = parse(DFP_SOURCE, scalar_names={"i"})
    m, n = 1200, 24
    A = rng.random((m, n)) * (rng.random((m, n)) < 0.6)
    data = {"A": A, "b": A @ rng.random((n, 1)), "x": np.zeros((n, 1)),
            "H": np.eye(n) * 0.01, "i": 0.0}
    inputs = {"A": MatrixMeta(m, n, 0.6), "b": MatrixMeta(m, 1),
              "x": MatrixMeta(n, 1), "H": MatrixMeta(n, n, 1.0, symmetric=True),
              "i": MatrixMeta(1, 1)}
    chains = build_chains(program, inputs, iterations=6)
    options = blockwise_search(chains).options
    model = CostModel(cluster, make_estimator("mnc"))
    sketches = sketch_inputs(model, inputs, data)
    return program, chains, options, model, sketches, data, cluster


def run_env(program, data, cluster):
    executor = Executor(cluster)
    return executor.run(program, data, symmetric={"H"}), executor.metrics


class TestRewriter:
    def test_no_options_round_trips_semantics(self, world):
        program, chains, _options, model, sketches, data, cluster = world
        rewritten = rewrite_program(chains, [], model, sketches)
        env0, _ = run_env(program, data, cluster)
        env1, _ = run_env(rewritten, data, cluster)
        assert np.allclose(env0["H"].matrix.to_numpy(),
                           env1["H"].matrix.to_numpy(), atol=1e-8)

    def test_lse_hoisted_before_loop(self, world):
        program, chains, options, model, sketches, data, cluster = world
        lse = [o for o in options if o.is_lse and o.key == "A' A"]
        rewritten = rewrite_program(chains, lse, model, sketches)
        text = format_program(rewritten)
        hoist_pos = text.index(TEMP_PREFIX)
        loop_pos = text.index("while")
        assert hoist_pos < loop_pos

    def test_lse_preserves_semantics(self, world):
        program, chains, options, model, sketches, data, cluster = world
        lse = [o for o in options if o.is_lse and o.key == "A' A"]
        rewritten = rewrite_program(chains, lse, model, sketches)
        env0, _ = run_env(program, data, cluster)
        env1, _ = run_env(rewritten, data, cluster)
        for var in ("H", "g", "x"):
            assert np.allclose(env0[var].matrix.to_numpy(),
                               env1[var].matrix.to_numpy(),
                               atol=1e-7, rtol=1e-6)

    def test_cse_preserves_semantics(self, world):
        program, chains, options, model, sketches, data, cluster = world
        cse = [o for o in options if o.is_cse and o.key == "d d'"]
        rewritten = rewrite_program(chains, cse, model, sketches)
        env0, _ = run_env(program, data, cluster)
        env1, _ = run_env(rewritten, data, cluster)
        assert np.allclose(env0["H"].matrix.to_numpy(),
                           env1["H"].matrix.to_numpy(), atol=1e-7, rtol=1e-6)

    def test_reversed_occurrences_transposed(self, world):
        program, chains, options, model, sketches, data, cluster = world
        # "A d" occurrences appear in both orientations; the rewrite must
        # transpose minority reads. Semantics checked numerically.
        cse = [o for o in options if o.is_cse and o.key == "A d"]
        assert cse
        rewritten = rewrite_program(chains, cse, model, sketches)
        env0, _ = run_env(program, data, cluster)
        env1, _ = run_env(rewritten, data, cluster)
        assert np.allclose(env0["H"].matrix.to_numpy(),
                           env1["H"].matrix.to_numpy(), atol=1e-7, rtol=1e-6)

    def test_combined_options_and_nested_temp_reuse(self, world):
        program, chains, options, model, sketches, data, cluster = world
        chosen = [o for o in options
                  if (o.is_lse and o.key == "A' A") or
                     (o.is_cse and o.key == "d d'")]
        assert len(chosen) == 2
        rewritten = rewrite_program(chains, chosen, model, sketches)
        env0, _ = run_env(program, data, cluster)
        env1, _ = run_env(rewritten, data, cluster)
        assert np.allclose(env0["H"].matrix.to_numpy(),
                           env1["H"].matrix.to_numpy(), atol=1e-7, rtol=1e-6)

    def test_temps_are_single_assignments(self, world):
        program, chains, options, model, sketches, data, cluster = world
        lse = [o for o in options if o.is_lse]
        rewritten = rewrite_program(chains, lse, model, sketches)
        targets = [a.target for a in rewritten.assignments()]
        temps = [t for t in targets if t.startswith(TEMP_PREFIX)]
        assert len(temps) == len(set(temps)) == len(lse)


class TestStrategies:
    def test_none_chooses_nothing(self, world):
        _p, chains, options, model, sketches, _d, _c = world
        result = choose_options("none", chains, model, options, sketches)
        assert result.chosen == []

    def test_conservative_only_order_preserving(self, world):
        _p, chains, options, model, sketches, _d, _c = world
        result = choose_options("conservative", chains, model, options, sketches)
        for option in result.chosen:
            assert option.preserves_order

    def test_both_probing_strategies_report_the_same_notes(self, world):
        _p, chains, options, model, sketches, _d, _c = world
        notes = {name: choose_options(name, chains, model, options,
                                      sketches).notes
                 for name in ("conservative", "adaptive")}
        assert set(notes["conservative"]) - {"eligible"} \
            == set(notes["adaptive"]) \
            == {"chain_cost", "plain_cost", "entries", "cost_graph_seconds",
                "dp_seconds"}

    def test_aggressive_prefers_order_changing(self, world):
        _p, chains, options, model, sketches, _d, _c = world
        result = choose_options("aggressive", chains, model, options, sketches)
        keys = {(o.kind, o.key) for o in result.chosen}
        assert ("lse", "A' A") in keys or ("cse", "A d") in keys

    def test_aggressive_applies_more_than_conservative(self, world):
        _p, chains, options, model, sketches, _d, _c = world
        conservative = choose_options("conservative", chains, model, options,
                                      sketches)
        aggressive = choose_options("aggressive", chains, model, options,
                                    sketches)
        changed = [o for o in aggressive.chosen if not o.preserves_order]
        assert changed, "aggressive must use order-changing options"
        del conservative

    def test_all_strategies_conflict_free(self, world):
        from repro.core.options import conflict_free
        _p, chains, options, model, sketches, _d, _c = world
        for name in ("conservative", "aggressive", "automatic", "adaptive"):
            result = choose_options(name, chains, model, options, sketches)
            assert conflict_free(result.chosen), name

    def test_adaptive_with_enum_combiner(self, world):
        _p, chains, options, model, sketches, _d, _c = world
        config = OptimizerConfig(combiner="enum-dfs", enum_option_limit=8)
        result = choose_options("adaptive", chains, model, options, sketches,
                                config)
        assert "combinations" in result.notes

    def test_unknown_strategy_rejected(self, world):
        _p, chains, options, model, sketches, _d, _c = world
        with pytest.raises(ValueError, match="unknown strategy"):
            choose_options("yolo", chains, model, options, sketches)

    def test_every_strategy_rewrites_to_same_semantics(self, world):
        program, chains, options, model, sketches, data, cluster = world
        env0, _ = run_env(program, data, cluster)
        reference = env0["H"].matrix.to_numpy()
        for name in ("none", "conservative", "aggressive", "automatic",
                     "adaptive"):
            result = choose_options(name, chains, model, options, sketches)
            rewritten = rewrite_program(chains, result.chosen, model, sketches)
            env, _ = run_env(rewritten, data, cluster)
            assert np.allclose(env["H"].matrix.to_numpy(), reference,
                               atol=1e-6, rtol=1e-5), name
