"""The cost graph (§4.3.1, Fig. 6): operators, inputs, and candidate costs.

Operators are named by their input coordinate spans — ``O({8,9},{10})`` is
the multiply whose inputs are the subexpressions at coordinates 8-9 and 10,
matching the paper's Table 1 notation. Each operator carries one *base*
cost plus any reduced *candidate* costs contributed by CSE (yellow in the
paper's figure) or LSE (blue) options that reuse its output.

The probing DP in :mod:`repro.core.probe` consumes the underlying span
tables directly for speed; this graph is the faithful, inspectable artifact
— examples and tests walk it, and `describe()` renders the same structure
the paper draws.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .build import OptionCosting, SpanTable
from .chains import ProgramChains

BASE = "base"
CSE_COST = "cse"
LSE_COST = "lse"


@dataclass(frozen=True)
class OperatorCost:
    """One cost alternative of an operator."""

    kind: str  # base / cse / lse
    value: float
    option_id: int | None = None

    def __repr__(self) -> str:
        tag = f" opt{self.option_id}" if self.option_id is not None else ""
        return f"{self.kind}={self.value:.4g}{tag}"


@dataclass
class OperatorNode:
    """An operator O(I_l, I_r): a multiply of two coordinate spans."""

    site_id: int
    left_span: tuple[int, int]   # inclusive operand indexes within the site
    right_span: tuple[int, int]
    coords_left: tuple[int, ...]   # global coordinates (Table 1's I_l)
    coords_right: tuple[int, ...]
    costs: list[OperatorCost] = field(default_factory=list)

    @property
    def output_span(self) -> tuple[int, int]:
        return (self.left_span[0], self.right_span[1])

    def __repr__(self) -> str:
        left = "{" + ",".join(map(str, self.coords_left)) + "}"
        right = "{" + ",".join(map(str, self.coords_right)) + "}"
        return f"O({left},{right})"


@dataclass
class CostGraph:
    """All candidate operators of a program, grouped by chain site."""

    nodes: dict[tuple[int, int, int], OperatorNode] = field(default_factory=dict)
    #: (site_id, output span) -> the nodes producing it, in insertion order.
    _producers: dict[tuple[int, tuple[int, int]], list[OperatorNode]] = field(
        default_factory=dict, repr=False)

    def add(self, node: OperatorNode) -> None:
        key = (node.site_id, _pack(*node.left_span), _pack(*node.right_span))
        self.nodes[key] = node
        self._producers.setdefault((node.site_id, node.output_span),
                                   []).append(node)

    def operator(self, site_id: int, i: int, k: int, j: int) -> OperatorNode:
        return self.nodes[(site_id, _pack(i, k), _pack(k + 1, j))]

    def operators_producing(self, site_id: int,
                            span: tuple[int, int]) -> list[OperatorNode]:
        """The operators "underneath" an operator input (Definition 2)."""
        return list(self._producers.get((site_id, span), ()))

    @property
    def num_operators(self) -> int:
        return len(self.nodes)

    @property
    def num_candidate_costs(self) -> int:
        return sum(1 for node in self.nodes.values()
                   for cost in node.costs if cost.kind != BASE)

    def describe(self, limit: int = 40) -> str:
        lines = []
        for node in list(self.nodes.values())[:limit]:
            costs = ", ".join(repr(c) for c in node.costs)
            lines.append(f"{node!r}: {costs}")
        if len(self.nodes) > limit:
            lines.append(f"... ({len(self.nodes) - limit} more operators)")
        return "\n".join(lines)


def _pack(i: int, j: int) -> int:
    return i * 4096 + j


def build_cost_graph(chains: ProgramChains, tables: dict[int, SpanTable],
                     costings: list[OptionCosting]) -> CostGraph:
    """Collate span tables and option costings into a cost graph.

    ``tables`` maps each site to its table; sites over the same chain share
    one table object, so what is particular to a site (its id, its global
    coordinates) is read off the site and only prices off the table.
    """
    graph = CostGraph()
    for site in chains.sites:
        table = tables[site.site_id]
        n = len(site)
        for width in range(2, n + 1):
            for i in range(0, n - width + 1):
                j = i + width - 1
                for k in range(i, j):
                    graph.add(OperatorNode(
                        site_id=site.site_id,
                        left_span=(i, k), right_span=(k + 1, j),
                        coords_left=tuple(site.coords[i:k + 1]),
                        coords_right=tuple(site.coords[k + 1:j + 1]),
                        costs=[OperatorCost(BASE, table.op_cost[(i, k, j)])]))
    # Attach candidate costs to every operator producing an occurrence span.
    for costing in costings:
        option = costing.option
        kind = LSE_COST if option.is_lse else CSE_COST
        for occ in option.occurrences:
            for node in graph.operators_producing(occ.site_id, occ.span):
                node.costs.append(OperatorCost(kind, costing.apportioned,
                                               option.option_id))
    return graph
