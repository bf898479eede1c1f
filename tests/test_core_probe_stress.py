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
from repro.core.probe import _merge_site, _probe_with_tables, _prune
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
        table = SpanTable(operands=site.operands, weight=1.0)
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


# ----------------------------------------------------------------------
# The program-level merge against the loop it replaced
# ----------------------------------------------------------------------
def merge_every_pair(costs, folded, root, ready, cap):
    """The merge as it was before ``_merge_site``: price every agreeing
    (pending, root) pair, prune afterwards. Kept verbatim as the oracle."""
    ready_mask = 0
    for earlier, here, _option_bit in ready:
        ready_mask |= earlier | here
    #: groups to agree on -> the root entries' (key minus ready bits,
    #: cost, groups folded), in root order.
    partners: dict[int, list[tuple[int, float, int]]] = {}
    for key_s, cost_s in root.items():
        agreed = bits = 0
        for earlier, here, option_bit in ready:
            part = key_s & here
            if part == here:
                bits |= option_bit
                if earlier:
                    agreed |= option_bit
            elif part:
                break
        else:
            partners.setdefault(agreed, []).append(
                (key_s & ~ready_mask, cost_s, bits))
    merged: dict[int, float] = {}
    merged_folded: dict[int, int] = {}
    for key_g, cost_g in costs.items():
        agreed = 0
        for earlier, _here, option_bit in ready:
            part = key_g & earlier
            if part and part == earlier:
                agreed |= option_bit
            elif part:
                break
        else:
            rest_g = key_g & ~ready_mask
            applied_g = folded[key_g]
            for rest_s, cost_s, bits in partners.get(agreed, ()):
                key = rest_g | rest_s
                cost = cost_g + cost_s
                current = merged.get(key)
                if current is None or cost < current:
                    merged[key] = cost
                    merged_folded[key] = applied_g | bits
    return _prune(merged, cap), merged_folded


def assert_same_merge(costs, folded, root, ready, cap):
    """Same keys, costs, order and folded bits; returns how many keys
    pricing every pair built."""
    want_costs, want_folded = merge_every_pair(costs, folded, root, ready, cap)
    got_costs, got_folded = _merge_site(costs, folded, root, ready, cap)
    assert list(got_costs.items()) == list(want_costs.items())
    assert got_folded == {key: want_folded[key] for key in want_costs}
    return len(want_folded)


def random_merge(rng):
    """One merge with everything that makes it delicate: costs on a 0.5
    grid (ties), families of several entries that collapse onto one key,
    ready groups with and without bits at earlier sites, entries holding
    half a group, key 0 present, absent or dear."""
    cap = rng.choice((4, 16, 64, 512))
    n_ready = rng.randrange(5)
    bit = 1
    ready, ready_earlier, ready_here = [], [], []
    for at in range(n_ready):
        earlier = here = 0
        if rng.random() < 0.6:
            for _ in range(rng.randint(1, 2)):
                earlier |= bit
                bit <<= 1
        for _ in range(rng.randint(1, 2)):
            here |= bit
            bit <<= 1
        ready.append((earlier, here, 1 << at))
        ready_earlier.append(earlier)
        ready_here.append(here)
    other_pending = [bit << k for k in range(rng.randint(0, 7))]
    bit <<= 7
    other_root = [bit << k for k in range(rng.randint(0, 5))]

    def side(own_bits, ready_parts, size, zero):
        entries = {}
        for _ in range(size):
            key = 0
            for single in own_bits:
                if rng.random() < 0.3:
                    key |= single
            for part in ready_parts:
                roll = rng.random()
                if roll < 0.4:
                    key |= part
                elif roll < 0.5:
                    key |= part & -part  # maybe half a group: withdrawn
            entries[key] = rng.randint(0, 40) * 0.5
        if zero == "absent":
            entries.pop(0, None)
        elif zero == "dear":
            entries.pop(0, None)
            entries[0] = 1000.0
        return entries

    size = rng.choice((1, 3, 20, 120))
    pending = side(other_pending, ready_earlier, size,
                   rng.choice(("absent", "dear", "as drawn")))
    root = side(other_root, ready_here, rng.choice((1, 3, 12, 40)),
                rng.choice(("absent", "dear", "as drawn")))
    folded = {key: rng.randrange(8) << n_ready for key in pending}
    return pending, folded, root, ready, cap


class TestMergeKeepsItsCapFromBounds:
    def test_random_merges_agree_with_pricing_every_pair(self):
        rng = random.Random(2022)
        pruned = collapsed = 0
        for _ in range(6000):
            pending, folded, root, ready, cap = random_merge(rng)
            built = assert_same_merge(pending, folded, root, ready, cap)
            pruned += built > cap
            ready_mask = sum(earlier | here for earlier, here, _bit in ready)
            collapsed += len({key & ~ready_mask for key in pending}) < len(pending)
        assert pruned >= 1000 and collapsed >= 1000

    @pytest.mark.parametrize("label", ["dfp/cri1", "bfgs/red3"])
    def test_merges_of_a_real_compile(self, label, monkeypatch):
        import importlib
        from repro.algorithms import get_algorithm
        from repro.data import load_dataset
        from repro.engines import make_engine
        probe_module = importlib.import_module("repro.core.probe")
        captured = []

        def capture(costs, folded, root, ready, cap):
            captured.append((dict(costs), dict(folded), dict(root),
                             list(ready), cap))
            return _merge_site(costs, folded, root, ready, cap)

        monkeypatch.setattr(probe_module, "_merge_site", capture)
        algorithm, dataset = label.split("/")
        algo = get_algorithm(algorithm)
        meta, data = algo.make_inputs(load_dataset(dataset, scale=0.3).matrix)
        make_engine("remac").compile(algo.program(5), meta, data, iterations=5)
        assert max(len(costs) for costs, *_ in captured) >= 256
        for merge in captured:
            assert_same_merge(*merge)

    def test_exactly_cap_keys_stay_in_first_touch_order(self):
        """2 x 2 keys under a cap of 4: nothing is pruned, so nothing is
        sorted — the dearest key was touched first and stays first."""
        pending = {1: 9.0, 0: 1.0}
        root = {4: 5.0, 0: 0.5}
        costs, _folded = _merge_site(pending, {1: 0, 0: 0}, root, (), 4)
        assert list(costs.items()) == [(5, 14.0), (1, 9.5), (4, 6.0), (0, 1.5)]
        assert_same_merge(pending, {1: 0, 0: 0}, root, (), 4)

    def test_exactly_cap_keys_behind_the_bound(self):
        """Cap 2, two keys at or under the bound of 2.5, and the dear
        pending entry's pairs passed over on cost. Whether they were keys
        decides the order. Where that entry took the ready group and no
        root entry did, they agree on nothing: two keys is all there is,
        and two keys under a cap of two are never sorted — the dearer one
        was touched first and stays first. Where no group is ready they
        are keys, four in all, and pruning four to two sorts by cost."""
        folded = {8: 0, 3: 0}
        root = {16: 1.5, 32: 1.0}
        costs, _ = _merge_site({8: 1.0, 3: 5.0}, folded, root, [(1, 4, 1)], 2)
        assert list(costs.items()) == [(8 | 16, 2.5), (8 | 32, 2.0)]
        assert assert_same_merge({8: 1.0, 3: 5.0}, folded, root,
                                 [(1, 4, 1)], 2) == 2
        costs, _ = _merge_site({8: 1.0, 3: 5.0}, folded, root, (), 2)
        assert list(costs.items()) == [(8 | 32, 2.0), (8 | 16, 2.5)]
        assert assert_same_merge({8: 1.0, 3: 5.0}, folded, root, (), 2) == 4

    def test_first_touch_is_the_dearest_pair(self):
        """Key 2 is first reached through its dearest pair (the pending
        entry that took the ready group, 8.0 + 1.0) and then improved (1.0
        + 3.0); key 0 costs 4.0 too but was touched later. The tie at the
        cap of 1 goes to key 2: its place is where it was first set."""
        ready = [(1, 4, 1)]  # bit 1 earlier, bit 4 here
        pending = {1 | 2: 8.0, 2: 1.0, 0: 1.0}
        folded = {3: 0, 2: 0, 0: 0}
        root = {4: 1.0, 0: 3.0}
        costs, resolved = _merge_site(pending, folded, root, ready, 1)
        assert list(costs.items()) == [(2, 4.0), (0, 4.0)]
        assert resolved == {2: 0, 0: 0}
        assert_same_merge(pending, folded, root, ready, 1)

    def test_equal_costs_straddling_the_cap(self):
        """Four keys, three of them at 2.0, cap 2: the two touched first
        stay, the third equal one goes."""
        pending = {1: 1.0, 2: 1.0}
        folded = {1: 0, 2: 0}
        root = {8: 1.0, 16: 1.0}
        root[32] = 0.5
        pending[4] = 9.0
        folded[4] = 0
        costs, _ = _merge_site(pending, folded, root, (), 2)
        assert list(costs.items()) == [(1 | 32, 1.5), (2 | 32, 1.5)]
        costs, _ = _merge_site(pending, folded, {8: 1.0, 16: 1.0}, (), 3)
        assert list(costs.items()) == [(1 | 8, 2.0), (1 | 16, 2.0),
                                       (2 | 8, 2.0)]
        assert_same_merge(pending, folded, {8: 1.0, 16: 1.0}, (), 3)
