"""Probing phase: dynamic programming with candidate costs (§4.3.2).

An interval DP per chain block computes, for every operand span, a table of
*candidate entries*: the minimum accumulated cost (Eqs. 7-8) keyed by which
option occurrences were activated inside the span (Eqs. 9-10 — the
"accumulated costs containing candidate costs"). Activating an occurrence
replaces its span's computation by the option's apportioned cost.

Because a CSE's apportioning is only valid when *every* occurrence of the
group activates, entries carrying a partially-activated group are discarded
at the group's joint upstream — the smallest scope containing all its
occurrences, which in the program-order merge of block roots is the
group's last block. That withdrawal is the paper's "pick the whole group
of relevant CSE costs or none of them".

A candidate key is one ``int`` with a bit per (option, occurrence); an
option's *group mask* is the OR of its bits, kept as the bits at its last
block and the bits before it, so joining spans is ``|`` and "all, some or
none of the group" is one ``&`` per side of the merge. Python ints are
unbounded: no count of occurrences is too many.

The complexity is polynomial in chain length with a bounded candidate-set
width, versus the exponential subset enumeration of
:mod:`repro.core.enumerate`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .build import (
    OptionCosting,
    SpanTable,
    build_all_tables,
    cost_option,
    statement_sketch_envs,
)
from .chains import ProgramChains
from .cost.model import CostModel
from .options import EliminationOption
from .sparsity.base import Sketch

INFINITY = float("inf")


@dataclass
class ProbeResult:
    """Outcome of the probing phase."""

    chosen: list[EliminationOption] = field(default_factory=list)
    #: Minimum accumulated chain cost over all sites (program-total seconds).
    chain_cost: float = 0.0
    #: Plain chain cost with no options, for the savings report.
    plain_cost: float = 0.0
    entries_explored: int = 0
    #: Wall seconds building the cost graph (span tables, option costings).
    cost_graph_seconds: float = 0.0
    #: Wall seconds in the DP itself.
    dp_seconds: float = 0.0
    costings: dict[int, OptionCosting] = field(default_factory=dict)

    @property
    def predicted_saving(self) -> float:
        return self.plain_cost - self.chain_cost


def probe(chains: ProgramChains, model: CostModel,
          options: list[EliminationOption],
          input_sketches: dict[str, Sketch],
          entry_cap: int = 128, global_cap: int = 512,
          workers: int = 1) -> ProbeResult:
    """Run building + probing; returns the chosen options and predicted cost.

    ``workers > 1`` prices independent candidates (span tables, per-option
    shared costs) on a thread pool; results are keyed per site/option, so
    the DP consumes exactly what the serial path would.
    """
    from .parallel import parallel_map
    started = time.perf_counter()
    envs = statement_sketch_envs(chains, model, input_sketches)
    tables = build_all_tables(chains, model, envs, workers=workers)
    all_costings = parallel_map(
        lambda opt: cost_option(opt, chains, model, tables, envs),
        options, workers)
    costings = {opt.option_id: costing
                for opt, costing in zip(options, all_costings)}
    priced = time.perf_counter()
    result = _probe_with_tables(chains, tables, costings, options,
                                entry_cap, global_cap)
    result.cost_graph_seconds = priced - started
    result.dp_seconds = time.perf_counter() - priced
    return result


def _probe_with_tables(chains: ProgramChains, tables: dict[int, SpanTable],
                       costings: dict[int, OptionCosting],
                       options: list[EliminationOption],
                       entry_cap: int, global_cap: int) -> ProbeResult:
    result = ProbeResult(costings=costings)
    site_order = {site.site_id: at for at, site in enumerate(chains.sites)}
    #: site_id -> span -> (occurrence bit, option, occurrence) activatable there.
    activations: dict[int, dict[tuple[int, int], list]] = {}
    #: site_id -> (bits at earlier sites, bits at this site, option bit) of
    #: the groups whose last site it is.
    ready_at: dict[int, list[tuple[int, int, int]]] = {}
    next_bit = 1
    for at, opt in enumerate(options):
        last_site = max(opt.occurrences,
                        key=lambda occ: site_order[occ.site_id]).site_id
        earlier = here = 0
        for occ in opt.occurrences:
            activations.setdefault(occ.site_id, {}).setdefault(
                occ.span, []).append((next_bit, opt, occ))
            if occ.site_id == last_site:
                here |= next_bit
            else:
                earlier |= next_bit
            next_bit <<= 1
        ready_at.setdefault(last_site, []).append((earlier, here, 1 << at))

    # ------------------------------------------------------------------
    # Per-site interval DP with candidate keys
    # ------------------------------------------------------------------
    site_roots: list[tuple[int, dict[int, float]]] = []
    for site in chains.sites:
        table = tables[site.site_id]
        n = len(site)
        state: dict[tuple[int, int], dict[int, float]] = {}
        for i in range(n):
            state[(i, i)] = {0: 0.0}
        site_acts = activations.get(site.site_id, {})
        for width in range(2, n + 1):
            for i in range(0, n - width + 1):
                j = i + width - 1
                entries: dict[int, float] = {}
                for k in range(i, j):
                    op_cost = table.op_cost[(i, k, j)]
                    left_entries = state[(i, k)]
                    right_entries = state[(k + 1, j)]
                    for key_l, cost_l in left_entries.items():
                        for key_r, cost_r in right_entries.items():
                            key = key_l | key_r
                            cost = cost_l + cost_r + op_cost
                            if cost < entries.get(key, INFINITY):
                                entries[key] = cost
                fused = table.fused_cost.get((i, j))
                if fused is not None:
                    for key, cost in state[(i + 2, j)].items():
                        total = cost + fused
                        if total < entries.get(key, INFINITY):
                            entries[key] = total
                for key, opt, occurrence in site_acts.get((i, j), ()):
                    cost = costings[opt.option_id].activation_cost(
                        occurrence, n, table.weight)
                    if cost < entries.get(key, INFINITY):
                        entries[key] = cost
                result.entries_explored += len(entries)
                state[(i, j)] = _prune(entries, entry_cap)
        root = state[(0, n - 1)] if n >= 1 else {0: 0.0}
        site_roots.append((site.site_id, root))
        result.plain_cost += table.plain_cost[(0, n - 1)] if n >= 2 else 0.0

    # ------------------------------------------------------------------
    # Program-level combination with joint-upstream resolution
    # ------------------------------------------------------------------
    # Pending key -> cost, and -> option bits of the groups folded so far:
    # two dicts of ints and floats, which the cyclic collector never sees,
    # where one dict of (cost, bits) tuples drove it into full collections.
    costs: dict[int, float] = {0: 0.0}
    folded: dict[int, int] = {0: 0}
    for site_id, root in site_roots:
        # A group's joint upstream is its last site: this is the one merge
        # after which all of its occurrences are in the keys, so it folds
        # (every bit set; cleared into the applied set) or the entry is
        # withdrawn (some but not all) here — the paper's whole group or
        # none. So an entry holding part of a group on its own side pairs
        # with nothing, and the others only where both sides agree, group
        # by group, on all or none.
        ready = ready_at.get(site_id, ())
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
        # Pending keys hold bits of earlier sites and root keys bits of this
        # one, so every pair is a distinct merged key: the surviving pairs,
        # pending-major in root order, arrive in the order that merging all
        # pairs first and resolving afterwards would meet them.
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
        costs, folded = _prune(merged, global_cap), merged_folded
        result.entries_explored += len(costs)

    # Everything should be resolved now: only the empty key is a valid plan
    # (unresolved/partial leftovers are not).
    best_cost = costs.get(0, INFINITY)
    best_applied = folded[0] if best_cost < INFINITY else 0
    result.chain_cost = best_cost if best_cost < INFINITY else result.plain_cost
    result.chosen = sorted(
        (opt for at, opt in enumerate(options) if best_applied >> at & 1),
        key=lambda opt: opt.option_id)
    return result


def _prune(entries: dict[int, float], cap: int) -> dict[int, float]:
    """Keep the empty key and the ``cap`` cheapest candidate entries.

    The sort is stable, so equal costs keep their insertion order.
    """
    if len(entries) <= cap:
        return entries
    kept = {key: entries[key]
            for key in sorted(entries, key=entries.__getitem__)[:cap]}
    if 0 in entries:
        kept.setdefault(0, entries[0])
    return kept
