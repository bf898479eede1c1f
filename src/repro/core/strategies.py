"""Elimination strategies: conservative, aggressive, adaptive (§6.3.1).

* **conservative** — apply only options that follow the original execution
  order of operators (after all operator-order optimizations, unlike
  SystemDS which applies CSE first and can block later rewrites).
* **aggressive** — apply as many options as possible, prioritizing the ones
  that *change* the original execution order, then the rest.
* **adaptive** — ReMac: evaluate options with the cost model and pick the
  efficient combination via the DP of :mod:`repro.core.probe` (or the
  brute-force enumerator when configured as the baseline).
* **automatic** — blind automatic elimination (§6.2.2): apply as many of
  the found options as possible, widest subexpressions first.
* **none** — no elimination.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..config import OptimizerConfig
from .build import build_all_tables, cost_option, statement_sketch_envs
from .chains import ProgramChains
from .cost.model import CostModel
from .enumerate import enumerate_combinations
from .options import EliminationOption, options_contradict
from .probe import ProbeResult, probe
from .sparsity.base import Sketch

STRATEGIES = ("none", "conservative", "aggressive", "adaptive", "automatic")


@dataclass
class StrategyResult:
    """Chosen options plus planning diagnostics."""

    chosen: list[EliminationOption] = field(default_factory=list)
    strategy: str = "none"
    wall_seconds: float = 0.0
    notes: dict = field(default_factory=dict)


def choose_options(strategy: str, chains: ProgramChains, model: CostModel,
                   options: list[EliminationOption],
                   input_sketches: dict[str, Sketch],
                   config: OptimizerConfig | None = None) -> StrategyResult:
    """Dispatch to the requested elimination strategy."""
    config = config or OptimizerConfig()
    started = time.perf_counter()
    if strategy == "none":
        result = StrategyResult(strategy=strategy)
    elif strategy == "conservative":
        # Cost-based selection over the order-preserving subset only: the
        # paper's conservative applies CSE "after all optimizations
        # improving the operator order", i.e. it never trades order for
        # reuse — but it does not apply reuses that lose outright either.
        eligible = [o for o in options if o.preserves_order]
        outcome = probe(chains, model, eligible, input_sketches)
        result = StrategyResult(chosen=outcome.chosen, strategy=strategy,
                                notes={"eligible": len(eligible),
                                       **_probe_notes(outcome)})
    elif strategy == "aggressive":
        result = _greedy(chains, model, options, input_sketches,
                         predicate=lambda o: True,
                         order_changing_first=True, strategy=strategy)
    elif strategy == "automatic":
        result = _maximal(options)
    elif strategy == "adaptive":
        result = _adaptive(chains, model, options, input_sketches, config)
    else:
        raise ValueError(f"unknown strategy {strategy!r}; known: {STRATEGIES}")
    result.wall_seconds = time.perf_counter() - started
    return result


def _probe_notes(outcome: ProbeResult) -> dict:
    """What one probing run reports, for either strategy that runs it."""
    return {"chain_cost": outcome.chain_cost,
            "plain_cost": outcome.plain_cost,
            "entries": outcome.entries_explored,
            "cost_graph_seconds": outcome.cost_graph_seconds,
            "dp_seconds": outcome.dp_seconds}


def _adaptive(chains: ProgramChains, model: CostModel,
              options: list[EliminationOption],
              input_sketches: dict[str, Sketch],
              config: OptimizerConfig) -> StrategyResult:
    if config.combiner == "dp":
        outcome = probe(chains, model, options, input_sketches)
        return StrategyResult(chosen=outcome.chosen, strategy="adaptive",
                              notes=_probe_notes(outcome))
    if config.combiner in ("enum-dfs", "enum-bfs"):
        order = config.combiner.split("-")[1]
        outcome = enumerate_combinations(
            chains, model, options, input_sketches, order=order,
            option_limit=config.enum_option_limit)
        return StrategyResult(chosen=outcome.chosen, strategy="adaptive",
                              notes={"chain_cost": outcome.chain_cost,
                                     "plain_cost": outcome.plain_cost,
                                     "combinations": outcome.combinations_evaluated,
                                     "budget_exhausted": outcome.budget_exhausted})
    raise ValueError(f"unknown combiner {config.combiner!r}")


def _greedy(chains: ProgramChains, model: CostModel,
            options: list[EliminationOption],
            input_sketches: dict[str, Sketch], predicate,
            order_changing_first: bool, strategy: str,
            require_positive_saving: bool = False) -> StrategyResult:
    """Greedy compatible set in a fixed priority order.

    The aggressive strategy does not consult the cost model to *reject*
    options (blind application is its point); the conservative strategy
    skips options without an estimated saving, because on this substrate an
    order-preserving reuse still pays a temp materialization (in SystemDS a
    same-order reuse is a free by-reference rewrite).
    """
    eligible = [o for o in options if predicate(o)]
    envs = statement_sketch_envs(chains, model, input_sketches)
    tables = build_all_tables(chains, model, envs)
    savings = {o.option_id:
               cost_option(o, chains, model, tables, envs).estimated_saving
               for o in eligible}
    if require_positive_saving:
        eligible = [o for o in eligible if savings[o.option_id] > 0.0]

    def priority(option: EliminationOption):
        order_changing = not option.preserves_order
        primary = order_changing if order_changing_first else not order_changing
        return (not primary, -savings[option.option_id])

    chosen: list[EliminationOption] = []
    for option in sorted(eligible, key=priority):
        if all(not options_contradict(option, taken) for taken in chosen):
            chosen.append(option)
    return StrategyResult(chosen=chosen, strategy=strategy,
                          notes={"eligible": len(eligible)})


def _maximal(options: list[EliminationOption]) -> StrategyResult:
    """Apply as many options as possible (blind automatic elimination)."""
    chosen: list[EliminationOption] = []
    chosen_keys: set[str] = set()
    # LSE first (hoisting dominates an in-loop CSE of the same key), then
    # widest subexpressions.
    ordered = sorted(options,
                     key=lambda o: (o.is_lse,
                                    max(occ.width for occ in o.occurrences),
                                    len(o.occurrences)),
                     reverse=True)
    for option in ordered:
        if option.key in chosen_keys:
            continue  # an equal-key option (e.g. its LSE twin) already won
        if all(not options_contradict(option, taken) for taken in chosen):
            chosen.append(option)
            chosen_keys.add(option.key)
    return StrategyResult(chosen=chosen, strategy="automatic",
                          notes={"found": len(options)})
