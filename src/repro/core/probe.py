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
from operator import itemgetter

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


def probe(chains: ProgramChains, model: CostModel,
          options: list[EliminationOption],
          input_sketches: dict[str, Sketch],
          entry_cap: int = 128, global_cap: int = 512) -> ProbeResult:
    """Run building + probing; returns the chosen options and predicted cost."""
    started = time.perf_counter()
    envs = statement_sketch_envs(chains, model, input_sketches)
    tables = build_all_tables(chains, model, envs)
    costings = {opt.option_id: cost_option(opt, chains, model, tables, envs)
                for opt in options}
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
        costs, folded = _merge_site(costs, folded, root,
                                    ready_at.get(site_id, ()), global_cap)
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


def _merge_site(costs: dict[int, float], folded: dict[int, int],
                root: dict[int, float], ready, cap: int
                ) -> tuple[dict[int, float], dict[int, int]]:
    """Join one site's root entries onto the pending ones, resolve the
    groups whose last site this is, keep the ``cap`` cheapest keys and 0.

    A group's joint upstream is its last site: this is the one merge after
    which all of its occurrences are in the keys, so it folds (every bit
    set; cleared into the applied set) or the entry is withdrawn (some but
    not all) here — the paper's whole group or none. So an entry holding
    part of a ready group on its own side pairs with nothing, and the
    others only where both sides agree, group by group, on all or none.

    Pending keys hold bits of earlier sites and root keys bits of this one,
    so a merged key is one (pending family, root family) pair, a *family*
    being the entries that differ only in bits of the ready groups. A pair
    whose cheapest entries sum to strictly more than :func:`_cap_bound` is
    not priced: ``cap`` keys cost less. What is kept, and in which order,
    is what pricing every pair and pruning afterwards kept: there a dict
    remembered when each key was first set and the stable sort tied on it,
    so here a key carries the (pending, root) positions of its first
    agreeing pair and the sort ties on those (docs/architecture.md §5).
    """
    ready_mask = 0
    for earlier, here, _option_bit in ready:
        ready_mask |= earlier | here
    # Per side, what a ready group asks of an entry's key: all of these
    # bits or none; and what all of them means: (folds, agrees to) it.
    root_families = _families(
        root, ready_mask, None,
        [(here, bit, bit if earlier else 0) for earlier, here, bit in ready])
    pending_families = _families(
        costs, ready_mask, folded,
        [(earlier, 0, bit) for earlier, _here, bit in ready if earlier])

    cheapest_first = sorted(
        [(family[0], rest, family[2]) for rest, family in root_families.items()],
        key=itemgetter(0))

    def walk(bound: float) -> tuple[list[tuple], bool]:
        """(cost, pending position, root position, key, groups folded) of
        every key that may cost ``bound`` or less, and whether a pair was
        passed over (which may or may not have been a key)."""
        merged: list[tuple] = []
        passed_over = False
        for rest_g, (least_g, _none, entries_g) in pending_families.items():
            for least_s, rest_s, entries_s in cheapest_first:
                if least_g + least_s > bound and (rest_g or rest_s):
                    passed_over = True
                    if rest_g:
                        break  # only dearer root families follow
                    continue  # key 0 is kept whatever it costs
                best = None
                for cost_g, agreed, at_g, applied in entries_g:
                    for cost_s, agreed_s, at_s, bits in entries_s:
                        if agreed_s != agreed:
                            continue
                        cost = cost_g + cost_s
                        if best is None:
                            first_g, first_s = at_g, at_s
                        elif cost >= best:
                            continue
                        best, resolved = cost, applied | bits
                if best is not None:
                    merged.append((best, first_g, first_s, rest_g | rest_s,
                                   resolved))
        return merged, passed_over

    merged, passed_over = walk(_cap_bound(
        sorted([family[1] for family in pending_families.values()]),
        sorted([family[1] for family in root_families.values()]), cap))
    if passed_over and len(merged) <= cap:
        # Exactly the cap keys behind the bound, and pairs passed over that
        # may agree on nothing at all: only counting them tells whether
        # pruning would have sorted.
        merged, _ = walk(INFINITY)
    if len(merged) <= cap:
        merged.sort(key=itemgetter(1, 2))
    else:
        merged.sort()
        merged[cap:] = [entry for entry in merged[cap:] if entry[3] == 0]
    return ({entry[3]: entry[0] for entry in merged},
            {entry[3]: entry[4] for entry in merged})


def _families(entries: dict[int, float], ready_mask: int,
              folded: dict[int, int] | None, asks: list[tuple[int, int, int]]
              ) -> dict[int, list]:
    """One side's entries by key minus the ready bits: [cheapest, cheapest
    agreeing to no ready group, [(cost, groups agreed to, position, groups
    folded here or (pending side) before)]]. An entry holding part of a
    ready group is in no family."""
    families: dict[int, list] = {}
    for position, (key, cost) in enumerate(entries.items()):
        agreed = bits = 0
        for mask, fold_bit, agree_bit in asks:
            part = key & mask
            if part == mask:
                bits |= fold_bit
                agreed |= agree_bit
            elif part:
                break
        else:
            entry = (cost, agreed, position,
                     bits if folded is None else folded[key])
            family = families.get(key & ~ready_mask)
            if family is None:
                families[key & ~ready_mask] = [
                    cost, INFINITY if agreed else cost, [entry]]
            else:
                if cost < family[0]:
                    family[0] = cost
                if not agreed and cost < family[1]:
                    family[1] = cost
                family[2].append(entry)
    return families


def _cap_bound(pending: list[float], roots: list[float], cap: int) -> float:
    """A cost that at least ``cap`` sums of one of ``pending`` and one of
    ``roots`` (both ascending) do not exceed: ``a * b >= cap`` of them are
    at most ``pending[a - 1] + roots[b - 1]``, addition being monotone.
    Infinite when there are fewer finite sums than that."""
    bound = INFINITY
    for a in range(1, len(pending) + 1):
        b = -(-cap // a)
        if b <= len(roots) and pending[a - 1] + roots[b - 1] < bound:
            bound = pending[a - 1] + roots[b - 1]
    return bound


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
