"""Probe stress tests: dense option overlap, entry caps, degenerate inputs."""

import itertools
import random

import pytest

from repro.config import ClusterConfig
from repro.core import blockwise_search, build_chains, probe
from repro.core.build import OptionCosting, SpanTable
from repro.core.chains import ChainSite, ProgramChains
from repro.core.cost import CostModel, sketch_inputs
from repro.core.options import (LSE, EliminationOption, Occurrence,
                                conflict_free)
from repro.core.probe import _probe_with_tables
from repro.core.sparsity import make_estimator
from repro.lang import parse
from repro.matrix.meta import MatrixMeta


def world(source, inputs, cluster, iterations=10):
    program = parse(source, scalar_names={"i"})
    chains = build_chains(program, inputs, iterations=iterations)
    options = blockwise_search(chains).options
    model = CostModel(cluster, make_estimator("metadata"))
    sketches = sketch_inputs(model, inputs)
    return chains, options, model, sketches


class TestRepeatedChains:
    """(AB)^k chains create a thicket of overlapping, repeated options."""

    @pytest.fixture
    def repeated(self, cluster):
        inputs = {"A": MatrixMeta(48, 48, 0.5), "B": MatrixMeta(48, 48, 0.5),
                  "i": MatrixMeta(1, 1)}
        source = """
            i = 0
            while (i < 10) {
              R = A %*% B %*% A %*% B %*% A %*% B %*% A %*% B
              i = i + 1
            }
        """
        return world(source, inputs, cluster)

    def test_many_options_found(self, repeated):
        _chains, options, _model, _sketches = repeated
        assert len(options) >= 4
        keys = {o.key for o in options}
        assert "A B" in keys
        assert "A B A B" in keys

    def test_probe_handles_overlap_thicket(self, repeated):
        chains, options, model, sketches = repeated
        result = probe(chains, model, options, sketches)
        assert conflict_free(result.chosen)
        assert result.chain_cost <= result.plain_cost + 1e-12

    def test_tight_entry_cap_still_sound(self, repeated):
        """Caps may lose optimality but never produce an invalid plan."""
        chains, options, model, sketches = repeated
        capped = probe(chains, model, options, sketches, entry_cap=2,
                       global_cap=4)
        uncapped = probe(chains, model, options, sketches)
        assert conflict_free(capped.chosen)
        assert capped.chain_cost >= uncapped.chain_cost - 1e-12

    def test_rewrite_of_thicket_preserves_semantics(self, repeated, rng):
        import numpy as np
        from repro.core.rewrite import rewrite_program
        from repro.runtime import Executor
        chains, options, model, sketches = repeated
        result = probe(chains, model, options, sketches)
        rewritten = rewrite_program(chains, result.chosen, model, sketches)
        cluster = ClusterConfig().as_single_node()
        data = {"A": rng.random((48, 48)) * 0.1,
                "B": rng.random((48, 48)) * 0.1, "i": 0.0}
        env0 = Executor(cluster).run(chains.program, dict(data))
        env1 = Executor(cluster).run(rewritten, dict(data))
        assert np.allclose(env0["R"].matrix.to_numpy(),
                           env1["R"].matrix.to_numpy(), rtol=1e-8)


class TestDegenerateInputs:
    def test_program_without_loops(self, cluster):
        inputs = {"A": MatrixMeta(100, 10, 0.5), "v": MatrixMeta(10, 1)}
        chains, options, model, sketches = world("u = A %*% v\nw = A %*% v",
                                                 inputs, cluster)
        result = probe(chains, model, options, sketches)
        # The duplicated A v is a CSE even outside any loop.
        assert any(o.is_cse for o in result.chosen) or not options

    def test_single_statement_single_chain(self, cluster):
        inputs = {"A": MatrixMeta(100, 10, 0.5), "v": MatrixMeta(10, 1)}
        chains, options, model, sketches = world("u = A %*% v", inputs, cluster)
        result = probe(chains, model, options, sketches)
        assert result.chosen == []
        assert result.chain_cost == pytest.approx(result.plain_cost)

    def test_scalar_only_program(self, cluster):
        inputs = {"i": MatrixMeta(1, 1)}
        chains, options, model, sketches = world(
            "i = 0\nwhile (i < 3) { i = i + 1 }", inputs, cluster)
        result = probe(chains, model, options, sketches)
        assert result.chosen == []

    def test_zero_iteration_weighting(self, cluster):
        """iterations=1 still yields a valid (if conservative) plan."""
        inputs = {"A": MatrixMeta(5000, 40, 0.5), "v": MatrixMeta(40, 1),
                  "i": MatrixMeta(1, 1)}
        chains, options, model, sketches = world("""
            i = 0
            while (i < 5) {
              u = t(A) %*% A %*% v
              i = i + 1
            }""", inputs, cluster, iterations=1)
        result = probe(chains, model, options, sketches)
        assert conflict_free(result.chosen)


class TestWideKeys:
    def test_more_than_64_occurrences(self, cluster):
        """Six copies of (AB)^3 give 144 occurrences over 18 options: the
        candidate keys are Python ints, which are unbounded, so nothing
        here may depend on a machine word. Figures recorded with the
        frozenset keys this encoding replaced."""
        inputs = {"A": MatrixMeta(48, 48, 0.5), "B": MatrixMeta(48, 48, 0.5),
                  "i": MatrixMeta(1, 1)}
        body = "\n".join(f"R{k} = A %*% B %*% A %*% B %*% A %*% B"
                         for k in range(6))
        chains, options, model, sketches = world(
            f"i = 0\nwhile (i < 10) {{\n{body}\ni = i + 1\n}}", inputs, cluster)
        assert sum(len(o.occurrences) for o in options) == 144
        result = probe(chains, model, options, sketches)
        assert [(o.kind, o.key) for o in result.chosen] == [
            ("lse", "A B A B A B")]
        assert len(result.chosen[0].occurrences) == 6
        assert repr(result.chain_cost) == "0.010671867075763251"
        assert repr(result.plain_cost) == "0.5666534399304104"
        assert result.entries_explored == 3452


def synthetic(site_lengths, groups, activation=0.25):
    """Hand-priced world for ``_probe_with_tables``: every operator costs
    1.0 and every activation ``activation`` (both exact in binary, so ties
    are exact). ``groups`` lists, per option, its (site_id, start, end)
    occurrences."""
    sites = [ChainSite(site_id=site_id, stmt_index=site_id,
                       operands=[None] * n, coords=list(range(n)),
                       in_loop=False)
             for site_id, n in enumerate(site_lengths)]
    tables = {}
    for site in sites:
        n = len(site)
        table = SpanTable(site=site, weight=1.0)
        for i in range(n):
            for j in range(i, n):
                table.plain_cost[(i, j)] = float(j - i)
                for k in range(i, j):
                    table.op_cost[(i, k, j)] = 1.0
        tables[site.site_id] = table
    options = [EliminationOption(option_id=option_id, kind=LSE,
                                 key=f"g{option_id}",
                                 occurrences=tuple(Occurrence(*occ)
                                                   for occ in occurrences),
                                 operands=())
               for option_id, occurrences in groups]
    costings = {o.option_id: OptionCosting(
        option=o, shared_cost=activation * len(o.occurrences),
        apportioned=activation, replaced_cost=0.0) for o in options}
    return ProgramChains(program=None, sites=sites), tables, costings, options


class TestGroupResolution:
    @pytest.mark.parametrize("ids", [(0, 1), (1, 0)])
    def test_exact_tie_goes_to_the_key_inserted_first(self, ids):
        """In a b c, reusing (a b) and reusing (b c) both cost 1.25. The
        k=0 split is visited first and it is the one that carries (b c), so
        that key enters the root table, and the merge, first; folding both
        groups onto the empty key must then keep it (strict <), whichever
        of the two options has the lower id or comes first in the list."""
        left, right = ids
        groups = sorted([(left, [(0, 0, 1)]), (right, [(0, 1, 2)])])
        chains, tables, costings, options = synthetic([3], groups)
        result = _probe_with_tables(chains, tables, costings, options,
                                    entry_cap=128, global_cap=512)
        assert result.plain_cost == 2.0
        assert result.chain_cost == 1.25
        assert [o.option_id for o in result.chosen] == [right]

    def test_partial_cross_site_group_withdrawn_at_its_last_site(self):
        """One group over sites 0 and 1 of three. Entries per site span:
        2 + 2 + 1. After site 0 the half-activated key is still pending (2
        entries: withdrawing there would leave 1 and lose the group); after
        site 1, the group's last, only the folded key survives (1, not the
        4 merged keys a later withdrawal would carry on); after site 2, 1."""
        chains, tables, costings, options = synthetic(
            [2, 2, 2], [(0, [(0, 0, 1), (1, 0, 1)])])
        result = _probe_with_tables(chains, tables, costings, options,
                                    entry_cap=128, global_cap=512)
        assert result.entries_explored == (2 + 2 + 1) + (2 + 1 + 1)
        assert [o.option_id for o in result.chosen] == [0]
        assert result.chain_cost == 0.25 + 0.25 + 1.0

    @pytest.mark.parametrize("seed", range(60))
    def test_merge_agrees_with_subset_enumeration(self, seed):
        """Random hand-priced worlds, small enough for the caps never to
        bind: groups inside one site, across two and across three, several
        resolving at the same site. With unit operators and 0.25 per
        activation, a set of options is feasible when no two of its
        occurrences at a site overlap, and then saves (width - 1) - 0.25
        per occurrence; the DP must find the best feasible set's cost."""
        rng = random.Random(seed)
        lengths = [rng.randint(2, 5) for _ in range(rng.randint(1, 4))]
        groups = []
        for option_id in range(rng.randint(1, 6)):
            occurrences = set()
            for _ in range(rng.randint(1, 3)):
                site_id = rng.randrange(len(lengths))
                start = rng.randrange(lengths[site_id] - 1)
                occurrences.add((site_id, start,
                                 rng.randrange(start + 1, lengths[site_id])))
            groups.append((option_id, sorted(occurrences)))
        chains, tables, costings, options = synthetic(lengths, groups)

        def cost_of(option_ids):
            used = [occ for option_id, occs in groups
                    if option_id in option_ids for occ in occs]
            for a, (site_a, i_a, j_a) in enumerate(used):
                for site_b, i_b, j_b in used[a + 1:]:
                    if site_a == site_b and i_a <= j_b and i_b <= j_a:
                        return None
            return sum(n - 1 for n in lengths) - sum(
                (j - i) - 0.25 for _site, i, j in used)

        best = min(cost for size in range(len(groups) + 1)
                   for chosen in itertools.combinations(range(len(groups)),
                                                        size)
                   if (cost := cost_of(set(chosen))) is not None)
        result = _probe_with_tables(chains, tables, costings, options,
                                    entry_cap=128, global_cap=512)
        assert result.chain_cost == best
        assert cost_of({o.option_id for o in result.chosen}) == best
