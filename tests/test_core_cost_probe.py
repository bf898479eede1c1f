"""Cost model, cost graph, probing DP, and enumeration baseline tests."""

import functools
import json
from pathlib import Path

import pytest

from repro.algorithms import get_algorithm
from repro.config import ClusterConfig
from repro.core.build import build_all_tables, cost_option, statement_sketch_envs
from repro.core.chains import build_chains
from repro.core.cost import CostModel, ProgramCostEvaluator, sketch_inputs
from repro.core.costgraph import build_cost_graph
from repro.core.enumerate import enumerate_combinations
from repro.core.probe import probe
from repro.core.search import blockwise_search
from repro.core.sparsity import make_estimator
from repro.data import load_dataset
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
def thin_inputs():
    """A thin dataset: hoisting AᵀA is clearly beneficial."""
    return {
        "A": MatrixMeta(20_000, 40, 0.6),
        "b": MatrixMeta(20_000, 1), "x": MatrixMeta(40, 1),
        "H": MatrixMeta(40, 40, 1.0, symmetric=True), "i": MatrixMeta(1, 1),
    }


@pytest.fixture
def fat_inputs():
    """A fat dataset: AᵀA is as large as the data; hoisting is dubious."""
    return {
        "A": MatrixMeta(3_000, 2_000, 0.002),
        "b": MatrixMeta(3_000, 1), "x": MatrixMeta(2_000, 1),
        "H": MatrixMeta(2_000, 2_000, 1.0, symmetric=True), "i": MatrixMeta(1, 1),
    }


def setup(inputs, cluster, iterations=10, estimator="metadata"):
    program = parse(DFP_SOURCE, scalar_names={"i"})
    chains = build_chains(program, inputs, iterations=iterations)
    options = blockwise_search(chains).options
    model = CostModel(cluster, make_estimator(estimator))
    sketches = sketch_inputs(model, inputs)
    return chains, options, model, sketches


class TestCostModel:
    def test_matmul_priced_and_sketched(self, cluster, thin_inputs):
        model = CostModel(cluster, make_estimator("metadata"))
        a = model.sketch_of(meta=thin_inputs["A"])
        v = model.sketch_of(meta=MatrixMeta(40, 1))
        priced = model.matmul(a, v)
        assert priced.seconds > 0
        assert model.meta(priced.sketch).rows == 20_000

    def test_program_cost_scales_with_iterations(self, cluster, thin_inputs):
        program = parse(DFP_SOURCE, scalar_names={"i"})
        model = CostModel(cluster, make_estimator("metadata"))
        sketches = sketch_inputs(model, thin_inputs)
        evaluator = ProgramCostEvaluator(model)
        short = evaluator.evaluate(program, sketches, iterations=5)
        long = evaluator.evaluate(program, sketches, iterations=50)
        assert long.total_seconds > short.total_seconds
        assert long.per_iteration_seconds == pytest.approx(
            short.per_iteration_seconds, rel=0.01)

    def test_evaluator_mirrors_executor_structure(self, cluster, thin_inputs):
        program = parse(DFP_SOURCE, scalar_names={"i"})
        model = CostModel(cluster, make_estimator("metadata"))
        cost = ProgramCostEvaluator(model).evaluate(
            program, sketch_inputs(model, thin_inputs), iterations=10)
        assert cost.prologue_seconds > 0
        assert cost.per_iteration_seconds > 0
        assert cost.total_seconds == pytest.approx(
            cost.prologue_seconds + 10 * cost.per_iteration_seconds)


class TestBuildingPhase:
    def test_span_tables_cover_all_spans(self, cluster, thin_inputs):
        chains, options, model, sketches = setup(thin_inputs, cluster)
        envs = statement_sketch_envs(chains, model, sketches)
        tables = build_all_tables(chains, model, envs)
        for site in chains.sites:
            table = tables[site.site_id]
            n = len(site)
            for width in range(1, n + 1):
                for i in range(0, n - width + 1):
                    assert (i, i + width - 1) in table.plain_cost

    def test_plain_cost_monotone_in_width(self, cluster, thin_inputs):
        chains, options, model, sketches = setup(thin_inputs, cluster)
        envs = statement_sketch_envs(chains, model, sketches)
        tables = build_all_tables(chains, model, envs)
        table = tables[max(tables, key=lambda sid: len(chains.site(sid)))]
        n = table.n
        assert table.plain_cost[(0, n - 1)] >= table.plain_cost[(0, n - 2)] * 0.0

    def test_lse_shared_cost_amortizes_persist(self, cluster, thin_inputs):
        chains, options, model, sketches = setup(thin_inputs, cluster)
        envs = statement_sketch_envs(chains, model, sketches)
        tables = build_all_tables(chains, model, envs)
        lse = next(o for o in options if o.is_lse and o.key == "A' A")
        costing = cost_option(lse, chains, model, tables, envs)
        assert costing.shared_cost > 0
        assert costing.apportioned == pytest.approx(
            costing.shared_cost / len(lse.occurrences))

    def test_cse_shared_cost_weighted_by_iterations(self, cluster, thin_inputs):
        short_chains, options_s, model, sketches = setup(thin_inputs, cluster,
                                                         iterations=2)
        long_chains, options_l, _, _ = setup(thin_inputs, cluster,
                                             iterations=20)[0:4]
        envs_s = statement_sketch_envs(short_chains, model, sketches)
        envs_l = statement_sketch_envs(long_chains, model, sketches)
        tables_s = build_all_tables(short_chains, model, envs_s)
        tables_l = build_all_tables(long_chains, model, envs_l)
        cse_s = next(o for o in options_s if o.is_cse and o.key == "d d'")
        cse_l = next(o for o in options_l if o.is_cse and o.key == "d d'")
        cost_s = cost_option(cse_s, short_chains, model, tables_s, envs_s)
        cost_l = cost_option(cse_l, long_chains, model, tables_l, envs_l)
        assert cost_l.shared_cost == pytest.approx(10 * cost_s.shared_cost,
                                                   rel=0.01)


class TestCostGraph:
    def test_graph_structure(self, cluster, thin_inputs):
        chains, options, model, sketches = setup(thin_inputs, cluster)
        envs = statement_sketch_envs(chains, model, sketches)
        tables = build_all_tables(chains, model, envs)
        costings = [cost_option(o, chains, model, tables, envs) for o in options]
        graph = build_cost_graph(chains, tables, costings)
        assert graph.num_operators > 0
        assert graph.num_candidate_costs > 0
        # Every operator producing the AᵀA span carries an LSE candidate.
        lse = next(c for c in costings if c.option.is_lse and c.option.key == "A' A")
        occ = lse.option.occurrences[0]
        producers = graph.operators_producing(occ.site_id, occ.span)
        assert producers
        for node in producers:
            kinds = {c.kind for c in node.costs}
            assert "lse" in kinds

    def test_describe_renders(self, cluster, thin_inputs):
        chains, options, model, sketches = setup(thin_inputs, cluster)
        envs = statement_sketch_envs(chains, model, sketches)
        tables = build_all_tables(chains, model, envs)
        costings = [cost_option(o, chains, model, tables, envs) for o in options]
        graph = build_cost_graph(chains, tables, costings)
        text = graph.describe(limit=5)
        assert "O({" in text


class TestProbe:
    def test_probe_improves_on_plain(self, cluster, thin_inputs):
        chains, options, model, sketches = setup(thin_inputs, cluster)
        result = probe(chains, model, options, sketches)
        assert result.chain_cost <= result.plain_cost
        assert result.chosen, "thin data: hoisting AᵀA must be chosen"

    def test_probe_picks_ata_on_thin_data(self, cluster, thin_inputs):
        chains, options, model, sketches = setup(thin_inputs, cluster)
        result = probe(chains, model, options, sketches)
        keys = {(o.kind, o.key) for o in result.chosen}
        assert ("lse", "A' A") in keys

    def test_probe_chosen_set_is_conflict_free(self, cluster, thin_inputs):
        from repro.core.options import conflict_free
        chains, options, model, sketches = setup(thin_inputs, cluster)
        result = probe(chains, model, options, sketches)
        assert conflict_free(result.chosen)

    def test_probe_empty_options(self, cluster, thin_inputs):
        chains, _options, model, sketches = setup(thin_inputs, cluster)
        result = probe(chains, model, [], sketches)
        assert result.chosen == []
        assert result.chain_cost == pytest.approx(result.plain_cost)

    def test_probe_rejects_detrimental_on_fat_data(self, cluster, fat_inputs):
        chains, options, model, sketches = setup(fat_inputs, cluster,
                                                 iterations=3)
        result = probe(chains, model, options, sketches)
        keys = {(o.kind, o.key) for o in result.chosen}
        # On a fat matrix with few iterations, materializing d dᵀ (an n×n
        # dense intermediate) must not be picked.
        assert ("cse", "d d'") not in keys


class TestEnumeration:
    def test_enum_agrees_with_probe_on_small_case(self, cluster, thin_inputs):
        chains, options, model, sketches = setup(thin_inputs, cluster)
        dp = probe(chains, model, options, sketches)
        enum = enumerate_combinations(chains, model, options, sketches,
                                      order="bfs", option_limit=12,
                                      combination_budget=50_000,
                                      evaluation="incremental")
        assert enum.chain_cost <= dp.chain_cost * 1.05

    def test_enum_dfs_and_bfs_same_best_cost(self, cluster, thin_inputs):
        chains, options, model, sketches = setup(thin_inputs, cluster)
        dfs = enumerate_combinations(chains, model, options, sketches,
                                     order="dfs", option_limit=10,
                                     combination_budget=50_000,
                                     evaluation="incremental")
        bfs = enumerate_combinations(chains, model, options, sketches,
                                     order="bfs", option_limit=10,
                                     combination_budget=50_000,
                                     evaluation="incremental")
        assert dfs.chain_cost == pytest.approx(bfs.chain_cost, rel=0.01)

    def test_enum_budget_flag(self, cluster, thin_inputs):
        chains, options, model, sketches = setup(thin_inputs, cluster)
        result = enumerate_combinations(chains, model, options, sketches,
                                        order="bfs", option_limit=15,
                                        combination_budget=10)
        assert result.budget_exhausted

    def test_enum_work_grows_combinatorially_with_options(self, cluster,
                                                          thin_inputs):
        """The §4.1 explosion: each extra compatible option can double the
        subsets the enumerator must price."""
        chains, options, model, sketches = setup(thin_inputs, cluster)
        few = enumerate_combinations(chains, model, options, sketches,
                                     order="dfs", option_limit=4,
                                     combination_budget=100_000)
        many = enumerate_combinations(chains, model, options, sketches,
                                      order="dfs", option_limit=8,
                                      combination_budget=100_000)
        assert many.combinations_evaluated > 2 * few.combinations_evaluated

    def test_invalid_order_rejected(self, cluster, thin_inputs):
        chains, options, model, sketches = setup(thin_inputs, cluster)
        with pytest.raises(ValueError):
            enumerate_combinations(chains, model, options, sketches,
                                   order="random")


# ----------------------------------------------------------------------
# What one compile keeps: prices, span tables, sketch environments
# ----------------------------------------------------------------------
def compile_recording_model(algorithm, monkeypatch, dataset="cri1"):
    """(compiled plan, the cost model its cold compile priced with)."""
    import repro.core.optimizer as optimizer
    from repro.engines import make_engine
    models = []

    def recording(*args, **kwargs):
        models.append(CostModel(*args, **kwargs))
        return models[-1]

    monkeypatch.setattr(optimizer, "CostModel", recording)
    algo = get_algorithm(algorithm)
    meta, data = algo.make_inputs(load_dataset(dataset, scale=0.3).matrix)
    compiled = make_engine("remac").compile(algo.program(5), meta, data,
                                            iterations=5)
    (model,) = models
    return compiled, model


class TestCompileDerivesOnce:
    @pytest.mark.parametrize("algorithm", ["dfp", "gnmf"])
    def test_kept_prices_equal_fresh_ones(self, algorithm, monkeypatch):
        compiled, model = compile_recording_model(algorithm, monkeypatch)
        assert model._formula_prices
        for (price_fn, metas, *flags), (price, seconds) in \
                model._formula_prices.items():
            assert price == price_fn(*metas, model.config, model.policy,
                                     **dict(flags))
            assert seconds == price.seconds
        memo = compiled.notes["cost_memo"]
        assert memo["prices_computed"] == len(model._formula_prices)
        assert memo["prices_computed"] < memo["prices_asked"]
        assert memo["tables_built"] == len(model.span_tables)
        assert memo["tables_built"] <= memo["tables_asked"]

    def test_one_environment_walk_per_round(self, monkeypatch):
        """The probe walks the program; the rewrite of the same round is
        handed the list the probe built (5 walks -> 3 on dfp/cri1)."""
        import importlib
        import repro.core.build as build
        import repro.core.rewrite as rewrite
        probe_module = importlib.import_module("repro.core.probe")
        walks, seen = [], {"probe": [], "rewrite": []}
        walk = build._walk_sketch_envs
        monkeypatch.setattr(build, "_walk_sketch_envs",
                            lambda *args: walks.append(1) or walk(*args))
        for name, module in (("probe", probe_module), ("rewrite", rewrite)):
            def recording(*args, _name=name):
                seen[_name].append(statement_sketch_envs(*args))
                return seen[_name][-1]
            monkeypatch.setattr(module, "statement_sketch_envs", recording)
        compiled, _model = compile_recording_model("dfp", monkeypatch)
        rounds = compiled.notes["rounds"]
        assert len(rounds) == 3 and len(walks) == len(rounds)
        assert len(seen["probe"]) == 3 and len(seen["rewrite"]) == 2
        for probed, rewritten in zip(seen["probe"], seen["rewrite"]):
            assert rewritten is probed

    def test_environment_walks_price_nothing(self, monkeypatch):
        """A walk that keeps only sketches asks the model for no price and
        no operator (the full pricer asked 64 of dfp/cri1's 315 prices)."""
        import repro.core.build as build
        inside, asked = [False], []
        walk = build._walk_sketch_envs

        def walking(*args):
            inside[0] = True
            try:
                return walk(*args)
            finally:
                inside[0] = False

        def spy(method):
            def asking(self, *args, **kwargs):
                asked.append((method.__name__, inside[0]))
                return method(self, *args, **kwargs)
            return asking

        monkeypatch.setattr(build, "_walk_sketch_envs", walking)
        for name in ("priced", "matmul", "mmchain", "ewise", "transpose",
                     "aggregate", "map_cells", "structural"):
            monkeypatch.setattr(CostModel, name, spy(getattr(CostModel, name)))
        compile_recording_model("dfp", monkeypatch)
        assert {"priced", "matmul"} <= {name for name, _ in asked}
        assert [name for name, walking in asked if walking] == []

    def test_environments_are_rebuilt_for_another_model(self, cluster,
                                                        thin_inputs):
        chains, _options, model, sketches = setup(thin_inputs, cluster)
        envs = statement_sketch_envs(chains, model, sketches)
        assert statement_sketch_envs(chains, model, sketches) is envs
        assert statement_sketch_envs(chains, model, dict(sketches)) is not envs
        other = CostModel(cluster, make_estimator("metadata"))
        other_envs = statement_sketch_envs(chains, other,
                                           sketch_inputs(other, thin_inputs))
        assert other_envs is not envs

    def test_equal_chains_share_one_table(self, cluster, thin_inputs):
        """A chain over the same operand sketches is answered with the
        table object built for it the first time (here: the same sites
        asked again, as a later round asks for an untouched statement's),
        and an unmemoized model builds each its own, equal to it."""
        chains, _options, model, sketches = setup(thin_inputs, cluster)
        envs = statement_sketch_envs(chains, model, sketches)
        tables = build_all_tables(chains, model, envs)
        again = build_all_tables(chains, model, envs)
        assert all(again[site_id] is table for site_id, table in tables.items())
        assert model.tables_asked == 2 * len(chains.sites)
        assert model.tables_built == len(chains.sites)
        plain = CostModel(cluster, make_estimator("metadata"), memoize=False)
        plain_sketches = sketch_inputs(plain, thin_inputs)
        unshared = build_all_tables(
            chains, plain, statement_sketch_envs(chains, plain, plain_sketches))
        assert plain.tables_built == plain.tables_asked == len(chains.sites)
        for site_id, table in tables.items():
            assert unshared[site_id].op_cost == table.op_cost
            assert unshared[site_id].plain_cost == table.plain_cost
            assert unshared[site_id].plain_split == table.plain_split
            assert unshared[site_id].fused_cost == table.fused_cost

    def test_a_table_is_published_complete(self, cluster, thin_inputs):
        """Four threads ask for the same chain's table at once. Whichever
        of them fills it, none may be handed one that is still filling: a
        first cut that stored the table before filling it failed
        ``build_chain_expr`` with ``KeyError: (0, 1)``."""
        import sys
        import threading
        from repro.core.build import _operand_sketch, build_span_table
        chains, _options, model, sketches = setup(thin_inputs, cluster)
        envs = statement_sketch_envs(chains, model, sketches)
        site = max(chains.sites, key=len)
        operand_sketches = [_operand_sketch(op, envs[site.stmt_index], model)
                            for op in site.operands]
        n = len(site)
        spans = [(i, j) for i in range(n) for j in range(i + 1, n)]
        splits = [(i, k, j) for i, j in spans for k in range(i, j)]
        start = threading.Barrier(4)
        missing, tables = [], []

        def ask():
            # A fresh key (the weight) each round: every round is a race
            # to fill, and one lost race in thirty is enough to see.
            for weight in range(2, 32):
                start.wait(timeout=10)
                table = build_span_table(site.operands, model,
                                         operand_sketches, float(weight))
                tables.append(table)
                missing.extend(key for key in spans
                               if key not in table.plain_split)
                missing.extend(key for key in splits
                               if key not in table.op_cost)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=ask) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(tables) == 4 * 30 and not missing
        assert build_span_table(site.operands, model, operand_sketches,
                                2.0) in tables


# ----------------------------------------------------------------------
# Golden identity pin of the probing DP (tests/data/probe_golden.json)
# ----------------------------------------------------------------------
GOLDEN_PATH = Path(__file__).parent / "data" / "probe_golden.json"
GOLDEN_SCALE = 0.2
GOLDEN_ITERATIONS = 10
#: Default caps, and caps tight enough that pruning (order-sensitive) bites.
GOLDEN_CAPS = {"default": {}, "tight": {"entry_cap": 2, "global_cap": 4}}
GOLDEN_CASES = [
    (algorithm, dataset, estimator, caps)
    for algorithm in ("gd", "dfp", "bfgs", "gnmf")
    for dataset in ("cri1", "cri2", "cri3", "red1", "red2", "red3")
    for estimator in ("mnc", "metadata")
    for caps in GOLDEN_CAPS]


@functools.lru_cache(maxsize=None)
def _golden_workload(algorithm, dataset):
    algo = get_algorithm(algorithm)
    matrix = load_dataset(dataset, seed=0, scale=GOLDEN_SCALE).matrix
    meta, data = algo.make_inputs(matrix, seed=0)
    return algo.program(GOLDEN_ITERATIONS), meta, data


@functools.lru_cache(maxsize=None)
def _golden():
    return json.loads(GOLDEN_PATH.read_text())


def golden_probe(algorithm, dataset, estimator, caps):
    """What the pin records for one case, exactly as the JSON stores it."""
    program, meta, data = _golden_workload(algorithm, dataset)
    chains = build_chains(program, meta, iterations=GOLDEN_ITERATIONS)
    options = blockwise_search(chains).options
    model = CostModel(ClusterConfig(), make_estimator(estimator))
    sketches = sketch_inputs(model, meta, data)
    result = probe(chains, model, options, sketches, **GOLDEN_CAPS[caps])
    return {"chosen": sorted(o.option_id for o in result.chosen),
            "chain_cost": repr(result.chain_cost),
            "plain_cost": repr(result.plain_cost),
            "entries_explored": result.entries_explored}


class TestProbeGolden:
    """Chosen options, both costs and the entry count, by exact equality,
    as recorded before the candidate keys became integers."""

    @pytest.mark.parametrize("algorithm,dataset,estimator,caps", GOLDEN_CASES)
    def test_matches_recorded(self, algorithm, dataset, estimator, caps):
        key = f"{algorithm}/{dataset}/{estimator}/{caps}"
        assert golden_probe(algorithm, dataset, estimator, caps) \
            == _golden()[key]
