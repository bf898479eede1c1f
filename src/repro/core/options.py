"""Elimination options: the unit the adaptive optimizer decides over.

An :class:`EliminationOption` is one redundant subexpression — a CSE (reuse
a value computed elsewhere this iteration) or an LSE (hoist a loop-constant
value out of the loop) — with the list of coordinate spans where it occurs.
Options may *contradict* (their spans properly overlap inside one chain, so
no single parenthesization realizes both, §2.2), which
:func:`options_contradict` detects.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce

from ..lang.ast import Expr, MatMul
from .chains import ChainSite, Operand

CSE = "cse"
LSE = "lse"


@dataclass(frozen=True)
class Occurrence:
    """One place a subexpression occurs: a span of a chain site."""

    site_id: int
    start: int  # 0-based inclusive operand index
    end: int
    #: True when this occurrence matches the canonical key in reverse —
    #: i.e. the occurrence is the *transpose* of the shared value.
    reversed_orientation: bool = False

    @property
    def span(self) -> tuple[int, int]:
        return (self.start, self.end)

    @property
    def width(self) -> int:
        return self.end - self.start + 1

    def overlaps_properly(self, other: "Occurrence") -> bool:
        """Partial overlap in the same site (not nested, not disjoint)."""
        if self.site_id != other.site_id:
            return False
        a, b = self.span, other.span
        if a[1] < b[0] or b[1] < a[0]:
            return False  # disjoint
        nested = (a[0] <= b[0] and b[1] <= a[1]) or (b[0] <= a[0] and a[1] <= b[1])
        return not nested

    def __repr__(self) -> str:
        arrow = "~T" if self.reversed_orientation else ""
        return f"[{self.site_id}:{self.start}-{self.end}{arrow}]"


@dataclass(frozen=True)
class EliminationOption:
    """A CSE or LSE candidate over one canonical subexpression."""

    option_id: int
    kind: str  # CSE or LSE
    key: str   # canonical chain string, e.g. "A' A"
    occurrences: tuple[Occurrence, ...]
    #: Canonical operand sequence (the direction matching ``key``).
    operands: tuple[Operand, ...]
    #: Whether the subexpression is loop-constant.
    loop_constant: bool = False
    #: Whether every occurrence follows the original association order —
    #: the options a conservative strategy may apply (§6.3.1).
    preserves_order: bool = False
    #: Whether the key equals its own transpose (e.g. AᵀA), making the
    #: shared value symmetric so reversed reuses need no transpose.
    palindromic: bool = False

    @property
    def is_cse(self) -> bool:
        return self.kind == CSE

    @property
    def is_lse(self) -> bool:
        return self.kind == LSE

    @property
    def temp_reversed(self) -> bool:
        """Orientation the shared temporary is stored in.

        The temp follows the majority of occurrences so that most reuses are
        direct reads; minority-orientation occurrences transpose it. For a
        palindromic key the value is symmetric and orientation is moot.
        """
        if self.palindromic:
            return False
        reversed_count = sum(1 for o in self.occurrences if o.reversed_orientation)
        return reversed_count * 2 > len(self.occurrences)

    def needs_transpose(self, occurrence: Occurrence) -> bool:
        """Whether this occurrence must transpose the shared temporary."""
        if self.palindromic:
            return False
        return occurrence.reversed_orientation != self.temp_reversed

    def temp_expr(self) -> Expr:
        """AST computing the shared temporary in its stored orientation."""
        operands = self.operands
        if self.temp_reversed:
            operands = tuple(op.flipped() for op in reversed(operands))
        exprs = [op.to_expr() for op in operands]
        return reduce(MatMul, exprs)

    @cached_property
    def _text(self) -> str:
        occs = " ".join(repr(o) for o in self.occurrences)
        flags = []
        if self.loop_constant:
            flags.append("loop-const")
        if self.preserves_order:
            flags.append("orig-order")
        suffix = f" ({', '.join(flags)})" if flags else ""
        return f"{self.kind.upper()}<{self.key}>@{occs}{suffix}"

    def __repr__(self) -> str:
        # Kept: every warm ``optimize`` response lists its plan's options.
        return self._text


def options_contradict(left: EliminationOption, right: EliminationOption) -> bool:
    """Whether two options cannot coexist in one execution plan.

    Two options contradict when any of their occurrences properly overlap
    within the same chain — e.g. AᵀA (span 0-1) and Ad (span 1-2) inside
    AᵀAd: A cannot be multiplied with both Aᵀ and d first (§2.2).
    """
    for occ_l in left.occurrences:
        for occ_r in right.occurrences:
            if occ_l.overlaps_properly(occ_r):
                return True
    return False


def conflict_free(options: list[EliminationOption]) -> bool:
    """Whether a set of options is pairwise compatible."""
    for i, left in enumerate(options):
        for right in options[i + 1:]:
            if options_contradict(left, right):
                return False
    return True


def span_in_original_order(site: ChainSite, start: int, end: int) -> bool:
    """Whether [start, end] is a subtree of the site's original association."""
    if start == end:
        return True
    return (start, end) in site.original_spans


def count_contradictions(options: list[EliminationOption]) -> int:
    """Number of contradicting option pairs (reported by the benchmarks)."""
    count = 0
    for i, left in enumerate(options):
        for right in options[i + 1:]:
            if options_contradict(left, right):
                count += 1
    return count
