"""Block-wise sliding-window search for CSE and LSE (§3.2 step ➌, Fig. 5).

Every chain block is scanned with sliding windows of every width; each
window's subexpression is recorded in a hash table under a *canonical key*:
the lexicographic minimum of the window's token string and its transposed
(reversed, orientation-flipped) token string, with symmetric factors
normalized. Conflicts in the table are the redundancy: keys hit from two
or more disjoint locations yield CSE options, and keys whose factors are
all loop-constant yield LSE options (§3.3 step ➌*).

Because windows ignore the internal association order of the chain (the
associative law lets any contiguous run be computed as a unit), the search
space is quadratic per block instead of Catalan-exponential per tree.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .chains import Operand, ProgramChains
from .options import CSE, LSE, EliminationOption, Occurrence, span_in_original_order


@dataclass
class _WindowHit:
    occurrence: Occurrence
    canonical: tuple[Operand, ...]
    palindromic: bool
    in_loop: bool
    stmt_index: int


@dataclass
class SearchResult:
    """Options found plus search statistics for the compilation benchmarks."""

    options: list[EliminationOption] = field(default_factory=list)
    windows_visited: int = 0
    hash_entries: int = 0
    wall_seconds: float = 0.0

    @property
    def cse_options(self) -> list[EliminationOption]:
        return [o for o in self.options if o.is_cse]


def blockwise_search(chains: ProgramChains, min_width: int = 2,
                     cross_statement: bool = True) -> SearchResult:
    """Find all within-block CSE and LSE options of ``chains``.

    ``cross_statement=False`` is the DESIGN.md ablation of global
    coordinates: CSE occurrences are then confined to a single statement,
    as if each statement had its own coordinate axis — losing e.g. the
    DFP numerator/denominator reuse.
    """
    started = time.perf_counter()
    table: dict[str, list[_WindowHit]] = {}
    windows = 0
    for site in chains.sites:
        n = len(site)
        for width in range(min_width, n + 1):
            for start in range(0, n - width + 1):
                end = start + width - 1
                hit = _canonical_window(chains, site.site_id, start, end)
                table.setdefault(hit[0], []).append(hit[1])
                windows += 1

    options: list[EliminationOption] = []
    next_id = 0
    for key, hits in sorted(table.items()):
        for option in _options_for_key(chains, key, hits, next_id,
                                       cross_statement=cross_statement):
            options.append(option)
            next_id = option.option_id + 1
    result = SearchResult(options=options, windows_visited=windows,
                          hash_entries=len(table))
    result.wall_seconds = time.perf_counter() - started
    return result


def explicit_cse_options(chains: ProgramChains) -> list[EliminationOption]:
    """CSE that SystemDS-style explicit matching finds: identical subtrees.

    Restricts the block-wise table to windows that exist as subtrees of the
    original association order in their original orientation — exactly the
    redundancy visible without searching equivalent plans.
    """
    full = blockwise_search(chains)
    explicit: list[EliminationOption] = []
    next_id = 0
    for option in full.cse_options:
        original = [occ for occ in option.occurrences
                    if span_in_original_order(chains.site(occ.site_id),
                                              occ.start, occ.end)]
        # Identical subtrees share one orientation; a subtree and its
        # transpose are *not* textually identical, so group by orientation.
        for orientation in (False, True):
            kept = tuple(occ for occ in original
                         if occ.reversed_orientation == orientation)
            if len(kept) >= 2:
                explicit.append(EliminationOption(
                    option_id=next_id, kind=CSE, key=option.key, occurrences=kept,
                    operands=option.operands, loop_constant=option.loop_constant,
                    preserves_order=True, palindromic=option.palindromic))
                next_id += 1
            if option.palindromic:
                break  # both orientations are the same subtree
    return explicit


# ----------------------------------------------------------------------
# Window canonicalization
# ----------------------------------------------------------------------
def _canonical_window(chains: ProgramChains, site_id: int, start: int,
                      end: int) -> tuple[str, _WindowHit]:
    site = chains.site(site_id)
    ops = site.operands[start:end + 1]
    forward = " ".join(op.token() for op in ops)
    reversed_ops = tuple(op.flipped() for op in reversed(ops))
    backward = " ".join(op.token() for op in reversed_ops)
    palindromic = forward == backward
    if backward < forward:
        key = backward
        canonical = reversed_ops
        reversed_orientation = True
    else:
        key = forward
        canonical = tuple(ops)
        reversed_orientation = False
    occurrence = Occurrence(site_id, start, end,
                            reversed_orientation and not palindromic)
    return key, _WindowHit(occurrence, canonical, palindromic,
                           site.in_loop, site.stmt_index)


# ----------------------------------------------------------------------
# Option construction
# ----------------------------------------------------------------------
def _options_for_key(chains: ProgramChains, key: str, hits: list[_WindowHit],
                     next_id: int,
                     cross_statement: bool = True) -> list[EliminationOption]:
    options: list[EliminationOption] = []
    canonical = hits[0].canonical
    palindromic = hits[0].palindromic
    variables: set[str] = set()
    for op in canonical:
        variables.update(op.base.variables())
    loop_constant = variables <= chains.loop_constants

    # --- LSE: loop-constant key with at least one in-loop occurrence -----
    if loop_constant:
        in_loop_hits = [h for h in hits if h.in_loop]
        occs = _disjoint([h.occurrence for h in in_loop_hits])
        if occs:
            options.append(EliminationOption(
                option_id=next_id + len(options), kind=LSE, key=key,
                occurrences=tuple(occs), operands=canonical,
                loop_constant=True,
                preserves_order=_preserves_order(chains, occs),
                palindromic=palindromic))

    # --- CSE: two or more same-value, same-region occurrences ------------
    for region_hits in (_hits_in_region(hits, in_loop=True),
                        _hits_in_region(hits, in_loop=False)):
        if not cross_statement:
            buckets: dict[int, list[_WindowHit]] = {}
            for hit in region_hits:
                buckets.setdefault(hit.stmt_index, []).append(hit)
            region_groups = [g for bucket in buckets.values()
                             for g in _same_value_groups(chains, variables, bucket)]
        else:
            region_groups = _same_value_groups(chains, variables, region_hits)
        for group in region_groups:
            occs = _disjoint([h.occurrence for h in group])
            if len(occs) >= 2:
                options.append(EliminationOption(
                    option_id=next_id + len(options), kind=CSE, key=key,
                    occurrences=tuple(occs), operands=canonical,
                    loop_constant=loop_constant,
                    preserves_order=_preserves_order(chains, occs),
                    palindromic=palindromic))
    return options


def _hits_in_region(hits: list[_WindowHit], in_loop: bool) -> list[_WindowHit]:
    return [h for h in hits if h.in_loop == in_loop]


def _same_value_groups(chains: ProgramChains, variables: set[str],
                       hits: list[_WindowHit]) -> list[list[_WindowHit]]:
    """Split occurrences so each group observes identical operand values.

    Occurrences in later statements only join a group if none of the key's
    variables were reassigned since the group's first statement. A
    reassignment starts a fresh group (the value changed).
    """
    ordered = sorted(hits, key=lambda h: (h.stmt_index, h.occurrence.site_id,
                                          h.occurrence.start))
    groups: list[list[_WindowHit]] = []
    current: list[_WindowHit] = []
    for hit in ordered:
        if not current:
            current = [hit]
            continue
        first_stmt = current[0].stmt_index
        reassigned = chains.variables_reassigned_between(first_stmt, hit.stmt_index)
        if variables & reassigned:
            groups.append(current)
            current = [hit]
        else:
            current.append(hit)
    if current:
        groups.append(current)
    return groups


def _disjoint(occurrences: list[Occurrence]) -> list[Occurrence]:
    """Greedy maximal pairwise-disjoint subset (earliest-end first per site)."""
    chosen: list[Occurrence] = []
    by_site: dict[int, list[Occurrence]] = {}
    for occ in sorted(occurrences, key=lambda o: (o.site_id, o.end, o.start)):
        taken = by_site.setdefault(occ.site_id, [])
        if all(occ.span[0] > prev.span[1] or occ.span[1] < prev.span[0]
               for prev in taken):
            taken.append(occ)
            chosen.append(occ)
    return chosen


def _preserves_order(chains: ProgramChains, occurrences: list[Occurrence]) -> bool:
    """Order-preserving: every occurrence is an original-association subtree
    and all occurrences share one orientation (reuse needs no transpose)."""
    if not occurrences:
        return False
    orientations = {occ.reversed_orientation for occ in occurrences}
    if len(orientations) > 1:
        return False
    return all(span_in_original_order(chains.site(occ.site_id), occ.start, occ.end)
               for occ in occurrences)
