"""Brute-force enumeration of elimination combinations (§6.3.3 baseline).

Enumerates subsets of the found options — depth-first or breadth-first —
and evaluates each complete combination with the cost model: the chain cost
of every site under *forced* occurrence spans plus each chosen option's
shared cost. This is the combinatorial explosion the paper's DP avoids:
its cost grows as 2^(number of options), so the enumerator takes a budget
of combinations to evaluate and reports whether it was exhausted (the
paper's GNMF enumeration ran for over three days).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import combinations as iter_combinations

from .build import (
    OptionCosting,
    SpanTable,
    build_all_tables,
    cost_option,
    statement_sketch_envs,
)
from .chains import ProgramChains
from .cost.model import CostModel
from .options import EliminationOption, options_contradict
from .sparsity.base import Sketch

INFINITY = float("inf")


@dataclass
class EnumResult:
    """Outcome of brute-force combination enumeration."""

    chosen: list[EliminationOption] = field(default_factory=list)
    chain_cost: float = 0.0
    plain_cost: float = 0.0
    combinations_evaluated: int = 0
    budget_exhausted: bool = False
    wall_seconds: float = 0.0
    costings: dict[int, OptionCosting] = field(default_factory=dict)


def enumerate_combinations(chains: ProgramChains, model: CostModel,
                           options: list[EliminationOption],
                           input_sketches: dict[str, Sketch],
                           order: str = "dfs",
                           option_limit: int = 20,
                           combination_budget: int = 20000,
                           evaluation: str = "full") -> EnumResult:
    """Evaluate option subsets exhaustively (within a budget).

    ``evaluation`` selects how each combination is priced:

    * ``"full"`` (the paper's baseline) — generate the rewritten plan and
      evaluate the whole program with the cost model. Faithful and
      expensive: this per-combination cost times the 2^n subsets is the
      "unaffordable overhead" of §4.1.
    * ``"incremental"`` — a forced-span chain DP over precomputed span
      tables. Much cheaper per combination; used by tests to cross-check
      the probing DP's plan quality on identical objectives.

    The min-cost reduction runs in enumeration order (strict ``<``,
    first-found wins).
    """
    if order not in ("dfs", "bfs"):
        raise ValueError(f"order must be 'dfs' or 'bfs', got {order!r}")
    if evaluation not in ("full", "incremental"):
        raise ValueError(f"evaluation must be 'full' or 'incremental', "
                         f"got {evaluation!r}")
    started = time.perf_counter()
    envs = statement_sketch_envs(chains, model, input_sketches)
    tables = build_all_tables(chains, model, envs)
    costings = {opt.option_id: cost_option(opt, chains, model, tables, envs)
                for opt in options}
    result = EnumResult(costings=costings)
    result.plain_cost = sum(t.plain_cost[(0, t.n - 1)] for t in tables.values()
                            if t.n >= 2)

    # Keep the most promising options when there are too many to enumerate.
    considered = sorted(options,
                        key=lambda o: costings[o.option_id].estimated_saving,
                        reverse=True)[:option_limit]

    if evaluation == "full":
        evaluator = _FullPlanEvaluator(chains, model, input_sketches)
        best_cost = evaluator.cost_of(())
    else:
        evaluator = _CombinationEvaluator(chains, tables, costings)
        best_cost = result.plain_cost
    best: tuple[EliminationOption, ...] = ()

    if order == "dfs":
        subsets = _dfs_subsets(considered)
    else:
        subsets = _bfs_subsets(considered)
    for subset in subsets:
        if result.combinations_evaluated >= combination_budget:
            result.budget_exhausted = True
            break
        result.combinations_evaluated += 1
        cost = evaluator.cost_of(subset)
        if cost < best_cost:
            best_cost = cost
            best = subset
    result.chain_cost = best_cost
    result.chosen = list(best)
    result.wall_seconds = time.perf_counter() - started
    return result


class _FullPlanEvaluator:
    """Prices a combination by generating and costing the complete plan."""

    def __init__(self, chains: ProgramChains, model: CostModel,
                 input_sketches: dict[str, Sketch]):
        from .cost.evaluate import ProgramCostEvaluator
        self.chains = chains
        self.model = model
        self.sketches = input_sketches
        self.evaluator = ProgramCostEvaluator(model)

    def cost_of(self, subset: tuple[EliminationOption, ...]) -> float:
        from ..errors import OptimizerError
        from .rewrite import rewrite_program
        try:
            rewritten = rewrite_program(self.chains, list(subset), self.model,
                                        self.sketches)
        except OptimizerError:
            return INFINITY  # unrealizable combination (overlapping picks)
        cost = self.evaluator.evaluate(rewritten, self.sketches,
                                       iterations=self.chains.iterations)
        return cost.total_seconds


def _dfs_subsets(options: list[EliminationOption]):
    """All compatible subsets, depth-first over include/exclude decisions."""
    n = len(options)

    def recurse(index: int, chosen: list[EliminationOption]):
        if index == n:
            yield tuple(chosen)
            return
        option = options[index]
        if all(not options_contradict(option, other) for other in chosen):
            chosen.append(option)
            yield from recurse(index + 1, chosen)
            chosen.pop()
        yield from recurse(index + 1, chosen)

    yield from recurse(0, [])


def _bfs_subsets(options: list[EliminationOption]):
    """All compatible subsets in order of increasing size."""
    for size in range(0, len(options) + 1):
        for combo in iter_combinations(options, size):
            compatible = True
            for i, left in enumerate(combo):
                for right in combo[i + 1:]:
                    if options_contradict(left, right):
                        compatible = False
                        break
                if not compatible:
                    break
            if compatible:
                yield combo


class _CombinationEvaluator:
    """Prices one option subset: forced-span chain DP plus shared costs."""

    def __init__(self, chains: ProgramChains, tables: dict[int, SpanTable],
                 costings: dict[int, OptionCosting]):
        self.chains = chains
        self.tables = tables
        self.costings = costings

    def cost_of(self, subset: tuple[EliminationOption, ...]) -> float:
        forced: dict[int, set[tuple[int, int]]] = {}
        for option in subset:
            for occ in option.occurrences:
                forced.setdefault(occ.site_id, set()).add(occ.span)
        # A chosen occurrence nested inside another chosen occurrence can
        # never activate (the outer span is read, not computed) — the
        # all-or-none contract is violated, so the combination is invalid.
        for spans in forced.values():
            ordered = sorted(spans)
            for i, a in enumerate(ordered):
                for b in ordered[i + 1:]:
                    if a != b and a[0] <= b[0] and b[1] <= a[1]:
                        return INFINITY
                    if a != b and b[0] <= a[0] and a[1] <= b[1]:
                        return INFINITY
        total = sum(self.costings[o.option_id].shared_cost for o in subset)
        # Whole-block opposite-orientation reuses pay a materialized
        # transpose per iteration (same penalty as the probing DP).
        for option in subset:
            costing = self.costings[option.option_id]
            for occ in option.occurrences:
                table = self.tables[occ.site_id]
                if option.needs_transpose(occ) and occ.width == table.n:
                    total += table.weight * costing.reuse_transpose_seconds
        for site_id, table in self.tables.items():
            cost = self._forced_chain_cost(table, forced.get(site_id, set()))
            if cost == INFINITY:
                return INFINITY
            total += cost
        return total

    def _forced_chain_cost(self, table: SpanTable,
                           forced: set[tuple[int, int]]) -> float:
        """Interval DP where forced spans read the shared temp for free.

        Splits that cut through a forced span are disallowed — the plan must
        contain every forced span as a unit.
        """
        if not forced:
            return table.plain_cost[(0, table.n - 1)] if table.n >= 2 else 0.0
        n = table.n
        cost: dict[tuple[int, int], float] = {}
        for i in range(n):
            cost[(i, i)] = 0.0
        for width in range(2, n + 1):
            for i in range(0, n - width + 1):
                j = i + width - 1
                if (i, j) in forced:
                    cost[(i, j)] = 0.0
                    continue
                best = INFINITY
                for k in range(i, j):
                    # A split through a forced span makes it unmaterializable.
                    if any(i <= start <= k < end <= j for start, end in forced):
                        continue
                    candidate = cost[(i, k)] + cost[(k + 1, j)] \
                        + table.op_cost[(i, k, j)]
                    if candidate < best:
                        best = candidate
                cost[(i, j)] = best
        return cost[(0, n - 1)]


# ----------------------------------------------------------------------
# Fusion-region report (compile-time notes for the fusion layer)
# ----------------------------------------------------------------------
def enumerate_fusion_regions(regions: list[dict]) -> dict:
    """The plan's fusion report: every fusable element-wise region and
    ``t(X) %*% (X %*% v)`` site the final cost evaluation decided
    (:attr:`~repro.core.cost.evaluate.ProgramCost.regions`, one row each,
    priced fused and unfused), and the totals of those it fused — the
    plan's ``fused_ewise`` and ``mmchain`` predicted operators."""
    selected = [r for r in regions if r["selected"]]
    return {
        "regions_found": len(regions),
        "regions_selected": len(selected),
        "predicted_fused_seconds": sum(r["fused_seconds"] for r in selected),
        "predicted_unfused_seconds": sum(r["unfused_seconds"] for r in selected),
        "regions": regions,
    }
