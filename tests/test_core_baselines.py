"""Baseline search tests: tree-wise traversal, SPORES sampling, cross-block."""

import pytest

from repro.core.chains import build_chains
from repro.core.crossblock import crossblock_search
from repro.core.search import blockwise_search
from repro.core.spores import mmchain_applicable, spores_search, supports_program
from repro.core.treewise import (
    catalan,
    plan_tree_count,
    program_plan_count,
    treewise_search,
)
from repro.errors import SearchBudgetExceeded
from repro.lang import parse
from repro.matrix.meta import MatrixMeta

DFP_SOURCE = """
input A, b, x
g = t(A) %*% A %*% x - t(A) %*% b
i = 0
while (i < 10) {
  d = H %*% g
  H = H - H %*% t(A) %*% A %*% d %*% t(d) %*% t(A) %*% A %*% H / (t(d) %*% t(A) %*% A %*% H %*% t(A) %*% A %*% d) + d %*% t(d) / (2 * (t(d) %*% t(A) %*% A %*% d))
  g = g - t(A) %*% A %*% d
  i = i + 1
}
"""


@pytest.fixture
def dfp_chains(dfp_like_inputs):
    return build_chains(parse(DFP_SOURCE, scalar_names={"i"}),
                        dfp_like_inputs, iterations=10)


@pytest.fixture
def gd_chains(tall_meta):
    program = parse("""
        input A, b, x, alpha
        i = 0
        while (i < 10) {
          g = t(A) %*% (A %*% x - b)
          x = x - alpha * g
          i = i + 1
        }""", scalar_names={"i", "alpha"})
    return build_chains(program, {
        "A": tall_meta, "b": MatrixMeta(10_000, 1), "x": MatrixMeta(100, 1),
        "alpha": MatrixMeta(1, 1), "i": MatrixMeta(1, 1)})


class TestCatalanCounting:
    def test_catalan_values(self):
        assert [catalan(n) for n in range(6)] == [1, 1, 2, 5, 14, 42]

    def test_tenth_catalan_is_4862(self):
        """The paper: a 10-matrix chain has 4862 plans without transposes."""
        assert catalan(9) == 4862

    def test_plan_count_with_transposes(self):
        """With per-node transpose choices a 10-chain has >2M plans (§3.2)."""
        assert plan_tree_count(10) == 4862 * 2 ** 9
        assert plan_tree_count(10) > 2_000_000

    def test_single_operand_one_plan(self):
        assert plan_tree_count(1) == 1

    def test_program_count_sums_statements(self, dfp_chains):
        assert program_plan_count(dfp_chains) > 100_000


class TestTreewise:
    def test_gd_treewise_completes_and_matches_blockwise(self, gd_chains):
        tree = treewise_search(gd_chains, plan_budget=100_000)
        block = blockwise_search(gd_chains)
        assert not tree.budget_exceeded
        assert {(o.kind, o.key) for o in tree.options} == \
            {(o.kind, o.key) for o in block.options}

    def test_dfp_exceeds_budget(self, dfp_chains):
        result = treewise_search(dfp_chains, plan_budget=10_000)
        assert result.budget_exceeded
        assert result.plans_visited >= 10_000

    def test_budget_raises_when_asked(self, dfp_chains):
        with pytest.raises(SearchBudgetExceeded):
            treewise_search(dfp_chains, plan_budget=1_000, raise_on_budget=True)

    def test_treewise_orders_of_magnitude_slower(self, dfp_chains):
        """The DFP statement has millions of plan trees; the block-wise
        search visits a few dozen windows."""
        block = blockwise_search(dfp_chains)
        assert program_plan_count(dfp_chains) > 1000 * block.windows_visited

    def test_duplicated_search_visible_in_table(self, gd_chains):
        """The same subtree string is inserted many times — the duplicated
        work §3.1 describes."""
        tree = treewise_search(gd_chains, plan_budget=100_000)
        assert max(tree.table.values()) > 1


class TestSpores:
    def test_finds_cse_with_enough_samples(self, dfp_chains):
        result = spores_search(dfp_chains, sample_limit=200)
        assert result.options, "ample sampling should discover CSE"
        assert all(o.is_cse for o in result.options)

    def test_never_reports_lse(self, dfp_chains):
        result = spores_search(dfp_chains, sample_limit=200)
        assert not [o for o in result.options if o.is_lse]

    def test_sampling_misses_options(self, dfp_chains):
        """Fewer samples discover no more (typically fewer) occurrences —
        sampling 'has no guarantee to find all CSE'."""
        full = blockwise_search(dfp_chains)
        tiny = spores_search(dfp_chains, sample_limit=1, seed=3)
        full_occurrences = sum(len(o.occurrences) for o in full.cse_options)
        tiny_occurrences = sum(len(o.occurrences) for o in tiny.options)
        assert tiny_occurrences < full_occurrences

    def test_deterministic_given_seed(self, dfp_chains):
        a = spores_search(dfp_chains, sample_limit=8, seed=5)
        b = spores_search(dfp_chains, sample_limit=8, seed=5)
        assert [(o.kind, o.key) for o in a.options] == \
            [(o.kind, o.key) for o in b.options]

    def test_supports_program_chain_cap(self, dfp_chains, gd_chains):
        assert not supports_program(dfp_chains, max_chain_length=7)
        assert supports_program(gd_chains, max_chain_length=7)

    def test_mmchain_constraints(self, dfp_chains):
        three_chain = next(s for s in dfp_chains.sites if len(s) == 3)
        narrow = [MatrixMeta(100, 10), MatrixMeta(10, 100), MatrixMeta(100, 1)]
        wide = [MatrixMeta(100, 10), MatrixMeta(10, 5000), MatrixMeta(5000, 1)]
        assert mmchain_applicable(three_chain, narrow, col_limit=1000)
        assert not mmchain_applicable(three_chain, wide, col_limit=1000)
        long_chain = next(s for s in dfp_chains.sites if len(s) > 3)
        assert not mmchain_applicable(long_chain, [], col_limit=1000)


class TestCrossBlock:
    def test_paper_example_found(self):
        """P·XY + P·YZ + XY·Q + YZ·Q has the grouped CSE XY + YZ (§3.2)."""
        program = parse("""
            i = 0
            while (i < 10) {
              R = P %*% X %*% Y + P %*% Y %*% Z + X %*% Y %*% Q + Y %*% Z %*% Q
              i = i + 1
            }""", scalar_names={"i"})
        n = 32
        inputs = {name: MatrixMeta(n, n, 0.5) for name in "PXYZQ"}
        inputs["i"] = MatrixMeta(1, 1)
        chains = build_chains(program, inputs)
        result = crossblock_search(chains)
        assert result.options, "the grouped part XY + YZ must be detected"
        keys = {frozenset(o.rest_keys) for o in result.options}
        assert frozenset({"X Y", "Y Z"}) in keys

    def test_loop_constant_grouping(self):
        program = parse("""
            i = 0
            while (i < 10) {
              R = P %*% X %*% Y + P %*% Y %*% Z + X %*% Y %*% Q + Y %*% Z %*% Q
              i = i + 1
            }""", scalar_names={"i"})
        n = 16
        inputs = {name: MatrixMeta(n, n, 0.5) for name in "PXYZQ"}
        inputs["i"] = MatrixMeta(1, 1)
        chains = build_chains(program, inputs)
        result = crossblock_search(chains)
        assert any(o.loop_constant for o in result.options)

    def test_no_groups_without_shared_factors(self, gd_chains):
        result = crossblock_search(gd_chains)
        assert result.options == []


class TestCrossBlockApplication:
    def _world(self):
        import numpy as np
        from repro.config import ClusterConfig
        from repro.core.cost import CostModel, sketch_inputs
        from repro.core.sparsity import make_estimator
        program = parse("""
            output R
            i = 0
            while (i < 4) {
              R = P %*% X %*% Y + P %*% Y %*% Z + X %*% Y %*% Q + Y %*% Z %*% Q
              i = i + 1
            }""", scalar_names={"i"})
        n = 16
        inputs = {name: MatrixMeta(n, n, 0.9) for name in "PXYZQ"}
        inputs["i"] = MatrixMeta(1, 1)
        chains = build_chains(program, inputs, iterations=4)
        cluster = ClusterConfig()
        model = CostModel(cluster, make_estimator("metadata"))
        sketches = sketch_inputs(model, inputs)
        rng = np.random.default_rng(5)
        data = {name: rng.random((n, n)) for name in "PXYZQ"}
        data["i"] = 0.0
        return program, chains, cluster, model, sketches, data

    def test_apply_preserves_semantics(self):
        import numpy as np
        from repro.core.crossblock import apply_cross_block
        from repro.runtime import Executor
        program, chains, cluster, model, sketches, data = self._world()
        option = crossblock_search(chains).options[0]
        rewritten = apply_cross_block(chains, option, model, sketches)
        env0 = Executor(cluster).run(program, dict(data))
        env1 = Executor(cluster).run(rewritten, dict(data))
        assert rewritten.outputs == ("R",)
        assert sorted(env1) == sorted(env0) == ["P", "Q", "R", "X", "Y",
                                                "Z", "__always__"]
        assert np.allclose(env0["R"].matrix.to_numpy(),
                           env1["R"].matrix.to_numpy())

    def test_loop_constant_group_hoisted(self):
        from repro.core.crossblock import apply_cross_block
        from repro.lang import format_program
        program, chains, cluster, model, sketches, data = self._world()
        option = crossblock_search(chains).options[0]
        assert option.loop_constant
        rewritten = apply_cross_block(chains, option, model, sketches)
        text = format_program(rewritten)
        assert text.index("tGROUP0") < text.index("while")

    def test_grouped_sum_shared_in_both_terms(self):
        from repro.core.crossblock import apply_cross_block
        from repro.lang import format_program
        program, chains, cluster, model, sketches, data = self._world()
        option = crossblock_search(chains).options[0]
        rewritten = apply_cross_block(chains, option, model, sketches)
        text = format_program(rewritten)
        # Both the prefix group (P * G) and the suffix group (G * Q) read it.
        assert "P %*% tGROUP0" in text
        assert "tGROUP0 %*% Q" in text
        # The four original three-matrix chains are gone.
        assert "P %*% X" not in text and "Z %*% Q" not in text

    def test_fewer_multiplications_after_grouping(self):
        from repro.core.crossblock import apply_cross_block
        from repro.lang.ast import MatMul
        program, chains, cluster, model, sketches, data = self._world()
        option = crossblock_search(chains).options[0]
        rewritten = apply_cross_block(chains, option, model, sketches)
        def count_matmuls(prog):
            total = 0
            for assign in prog.assignments():
                total += sum(1 for node in assign.expr.walk()
                             if isinstance(node, MatMul))
            return total
        assert count_matmuls(rewritten) < count_matmuls(program)
