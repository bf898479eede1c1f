"""Building phase of adaptive elimination (§4.3.1).

For every chain site this module prepares the *span table*: the estimated
sketch of every contiguous operand span and the price of every candidate
multiply ``O(I_l, I_r)`` (an operator whose inputs are the coordinate spans
``[i..k]`` and ``[k+1..j]``, exactly the paper's operator naming). On top of
the tables it computes each elimination option's *shared cost* — what
computing the option's subexpression once costs (amortized over the loop
for LSE, apportioned over occurrences for CSE) — which the probing phase
consumes as candidate costs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..lang.ast import Expr, MatMul
from ..lang.program import Assign, WhileLoop
from ..runtime.pricing import price_matmul, price_mmchain, price_transpose
from .chains import Operand, ProgramChains
from .cost.evaluate import propagate
from .cost.model import CostModel
from .options import EliminationOption
from .sparsity.base import Sketch

INFINITY = float("inf")


# ----------------------------------------------------------------------
# Sketch environments per statement
# ----------------------------------------------------------------------
def statement_sketch_envs(chains: ProgramChains, model: CostModel,
                          input_sketches: dict[str, Sketch]) -> list[dict[str, Sketch]]:
    """Sketch environment in effect before each normalized statement.

    Mirrors the two-pass loop handling of the type checker so loop-carried
    variables are sketched at their sparsity steady state. The walk only
    propagates sketches: nothing in it is priced. The result stays
    with ``chains``: the probe and the rewrite of one round read (never
    write) the same environments, so only the first of them walks.
    """
    kept = chains.sketch_envs
    if kept is not None and kept[0] is model and kept[1] is input_sketches:
        return kept[2]
    envs = _walk_sketch_envs(chains, model, input_sketches)
    chains.sketch_envs = (model, input_sketches, envs)
    return envs


def _walk_sketch_envs(chains: ProgramChains, model: CostModel,
                      input_sketches: dict[str, Sketch]) -> list[dict[str, Sketch]]:
    env: dict[str, Sketch] = dict(input_sketches)
    envs: list[dict[str, Sketch]] = [dict() for _ in chains.statements]

    def run(statements, record: bool, index_of: dict[int, int]) -> None:
        for stmt in statements:
            if isinstance(stmt, Assign):
                stmt_index = index_of.get(id(stmt))
                if record and stmt_index is not None:
                    envs[stmt_index] = dict(env)
                env[stmt.target] = propagate(model, stmt.expr, env)
            elif isinstance(stmt, WhileLoop):
                # Pass 1: settle; pass 2: record.
                for loop_stmt in stmt.assignments():
                    env[loop_stmt.target] = propagate(model, loop_stmt.expr, env)
                for loop_stmt in stmt.assignments():
                    stmt_index = index_of.get(id(loop_stmt))
                    if record and stmt_index is not None:
                        envs[stmt_index] = dict(env)
                    env[loop_stmt.target] = propagate(model, loop_stmt.expr, env)

    index_of = {id(ns.assign): ns.index for ns in chains.statements}
    run(chains.program.statements, record=True, index_of=index_of)
    return envs


# ----------------------------------------------------------------------
# Span tables
# ----------------------------------------------------------------------
@dataclass
class SpanTable:
    """Sketches and plain DP costs for all spans of one chain. Shared by
    every chain priced the same (:func:`build_span_table`), so it names no
    site: ``operands`` are those of the chain it was first built for."""

    operands: list[Operand]
    #: Region weight: loop iterations for in-loop sites, 1 for prologue.
    weight: float
    sketches: dict[tuple[int, int], Sketch] = field(default_factory=dict)
    #: Price in *program-total* seconds of the operator joining two spans.
    op_cost: dict[tuple[int, int, int], float] = field(default_factory=dict)
    #: Plain (no options) minimum accumulated cost per span, program-total.
    plain_cost: dict[tuple[int, int], float] = field(default_factory=dict)
    #: Chosen split per span for the plain plan.
    plain_split: dict[tuple[int, int], int] = field(default_factory=dict)
    #: Fused mmchain op cost per span [i, j] where operands i, i+1 are the
    #: Xᵀ, X twin pair (program-total seconds; absent when not applicable).
    fused_cost: dict[tuple[int, int], float] = field(default_factory=dict)

    @property
    def n(self) -> int:
        return len(self.operands)

    def sketch(self, start: int, end: int) -> Sketch:
        return self.sketches[(start, end)]


def build_span_table(operands: list[Operand], model: CostModel,
                     operand_sketches: list[Sketch], weight: float) -> SpanTable:
    """A chain's span table: sketches, operator prices, plain DP.

    Every figure in it is a function of the operand sketches (propagated
    and read through ``model``), the weight, and what
    :func:`_fused_mmchain_cost` reads of the operands — orientation,
    symmetry, whether neighbours share a base. The model keeps one table
    per such key, so a site, an option's pseudo-chain, a re-parenthesized
    chain and the next round's copy of an untouched statement share the
    one the first of them built. Its ``sketches`` hold the operand
    sketches, so the identities in its key stay taken.
    """
    model.tables_asked += 1
    key = (tuple(map(id, operand_sketches)), weight,
           tuple((op.transposed, op.symmetric) for op in operands),
           tuple(a.base == b.base for a, b in zip(operands, operands[1:])))
    table = model.span_tables.get(key)
    if table is None:
        model.tables_built += 1
        table = _fill_span_table(operands, model, operand_sketches, weight)
        if model.memoizes:
            model.span_tables[key] = table
    return table


def _fill_span_table(operands: list[Operand], model: CostModel,
                     operand_sketches: list[Sketch], weight: float) -> SpanTable:
    table = SpanTable(operands=operands, weight=weight)
    n = len(operands)
    for i in range(n):
        table.sketches[(i, i)] = operand_sketches[i]
        table.plain_cost[(i, i)] = 0.0
    for width in range(2, n + 1):
        for i in range(0, n - width + 1):
            j = i + width - 1
            # Canonical span sketch from the leftmost split; approximate
            # estimators may be order-sensitive, but one consistent sketch
            # per span keeps the DP well-defined.
            left = table.sketches[(i, i)]
            right = table.sketches[(i + 1, j)] if width > 2 else table.sketches[(j, j)]
            table.sketches[(i, j)] = model.estimator.matmul(left, right)
    for width in range(2, n + 1):
        for i in range(0, n - width + 1):
            j = i + width - 1
            best = INFINITY
            best_k = i
            for k in range(i, j):
                cost = _operator_cost(table, model, i, k, j)
                total = table.plain_cost[(i, k)] + table.plain_cost[(k + 1, j)] + cost
                if total < best:
                    best = total
                    best_k = k
            fused = _fused_mmchain_cost(table, model, i, j)
            if fused is not None:
                table.fused_cost[(i, j)] = fused
                total = table.plain_cost[(i + 2, j)] + fused
                if total < best:
                    best = total
                    best_k = FUSED_SPLIT
            table.plain_cost[(i, j)] = best
            table.plain_split[(i, j)] = best_k
    return table


#: plain_split sentinel: span computed as fused mmchain t(X) %*% (X %*% rest).
FUSED_SPLIT = -2


def _fused_mmchain_cost(table: SpanTable, model: CostModel,
                        i: int, j: int) -> float | None:
    """Op cost of computing span [i, j] as t(X) %*% (X %*% [i+2, j]).

    Applicable when the leading pair is an explicit Xᵀ, X twin and either
    the policy's mmchain column constraint admits X (SystemDS's fusion,
    which the SPORES engine leans on — §6.2.2) or the policy enables
    cost-priced fusion, which drops the structural bound entirely: the DP
    compares the fused price against the split alternatives, so an
    unprofitable chain simply loses on cost.
    """
    if j < i + 2:
        return None
    first, second = table.operands[i], table.operands[i + 1]
    if not first.transposed or first.symmetric:
        return None
    if second.transposed and not second.symmetric:
        return None
    if first.base != second.base:
        return None
    x_meta = model.meta(table.sketches[(i + 1, i + 1)])
    if not model.policy.fuse \
            and not model.policy.mmchain_applicable_cols(x_meta.cols):
        return None
    _price, seconds = model.priced(
        price_mmchain, x_meta, model.meta(table.sketches[(i + 2, j)]),
        model.meta(table.sketches[(i, j)]))
    return table.weight * seconds


def _operator_cost(table: SpanTable, model: CostModel, i: int, k: int, j: int) -> float:
    """Program-total price of multiplying span [i,k] by [k+1,j]."""
    _price, seconds = model.priced(
        price_matmul, model.meta(table.sketches[(i, k)]),
        model.meta(table.sketches[(k + 1, j)]),
        model.meta(table.sketches[(i, j)]))
    cost = table.op_cost[(i, k, j)] = table.weight * seconds
    return cost


def build_chain_expr(site_operands: list[Operand], splits: dict[tuple[int, int], int],
                     start: int, end: int) -> Expr:
    """Materialize the AST of a span under recorded split decisions.

    The :data:`FUSED_SPLIT` sentinel emits the mmchain-shaped AST
    ``t(X) %*% (X %*% rest)``, which the executor and the cost evaluator
    both recognize and fuse.
    """
    if start == end:
        return site_operands[start].to_expr()
    k = splits[(start, end)]
    if k == FUSED_SPLIT:
        rest = build_chain_expr(site_operands, splits, start + 2, end)
        return MatMul(site_operands[start].to_expr(),
                      MatMul(site_operands[start + 1].to_expr(), rest))
    left = build_chain_expr(site_operands, splits, start, k)
    right = build_chain_expr(site_operands, splits, k + 1, end)
    return MatMul(left, right)


# ----------------------------------------------------------------------
# Option shared costs
# ----------------------------------------------------------------------
@dataclass
class OptionCosting:
    """The candidate cost of one elimination option (program-total units)."""

    option: EliminationOption
    #: Cost of producing the shared value once (incl. hoisting persist for LSE).
    shared_cost: float
    #: shared_cost / number of occurrences — the paper's apportioned cost.
    apportioned: float
    #: Sum of the plain costs of the occurrence spans it replaces.
    replaced_cost: float
    #: Price of one *materialized* transpose of the shared value (charged
    #: per iteration when an opposite-orientation occurrence covers a whole
    #: chain block, so the transpose cannot fuse into a multiply).
    reuse_transpose_seconds: float = 0.0

    @property
    def estimated_saving(self) -> float:
        return self.replaced_cost - self.shared_cost

    def activation_cost(self, occurrence, site_len: int, weight: float) -> float:
        """Cost of activating one occurrence in the probing DP.

        The apportioned share, plus a materialized-transpose penalty when
        the occurrence needs the opposite orientation and spans the whole
        block (mid-chain reads fuse their transpose into the multiply).
        """
        cost = self.apportioned
        if self.option.needs_transpose(occurrence) and occurrence.width == site_len:
            cost += weight * self.reuse_transpose_seconds
        return cost


def cost_option(option: EliminationOption, chains: ProgramChains, model: CostModel,
                tables: dict[int, SpanTable],
                envs: list[dict[str, Sketch]]) -> OptionCosting:
    """Price an option: one shared computation versus the spans it replaces."""
    first = option.occurrences[0]
    first_site = chains.site(first.site_id)
    env = envs[first_site.stmt_index]
    operand_sketches = [_operand_sketch(op, env, model)
                        for op in option.operands]
    # The shared value is computed once: in the prologue for LSE (then
    # persisted), or once per iteration for an in-loop CSE.
    if option.is_lse:
        unit_cost = _standalone_chain_cost(option, model, operand_sketches, weight=1.0)
        persist = model.persist(_chain_result_sketch(model, operand_sketches)).seconds
        shared = unit_cost + persist
    else:
        weight = float(chains.iterations) if first_site.in_loop else 1.0
        shared = _standalone_chain_cost(option, model, operand_sketches, weight)
    replaced = 0.0
    for occ in option.occurrences:
        table = tables[occ.site_id]
        replaced += table.plain_cost[(occ.start, occ.end)]
    result_sketch = _chain_result_sketch(model, operand_sketches)
    _price, transpose_price = model.priced(price_transpose,
                                           model.meta(result_sketch))
    return OptionCosting(option=option, shared_cost=shared,
                         apportioned=shared / len(option.occurrences),
                         replaced_cost=replaced,
                         reuse_transpose_seconds=transpose_price)


def _standalone_chain_cost(option: EliminationOption, model: CostModel,
                           operand_sketches: list[Sketch], weight: float) -> float:
    """Optimal cost of computing the option's chain once (times weight)."""
    if len(operand_sketches) == 1:
        return 0.0
    table = build_span_table(list(option.operands), model, operand_sketches,
                             weight)
    return table.plain_cost[(0, len(operand_sketches) - 1)]


def _chain_result_sketch(model: CostModel, operand_sketches: list[Sketch]) -> Sketch:
    result = operand_sketches[0]
    for sketch in operand_sketches[1:]:
        result = model.estimator.matmul(result, sketch)
    return result


def _operand_sketch(operand: Operand, env: dict[str, Sketch],
                    model: CostModel) -> Sketch:
    """Sketch of one operand occurrence (orientation applied), unpriced."""
    sketch = propagate(model, operand.base, env)
    if operand.transposed and not operand.symmetric:
        return model.estimator.transpose(sketch)
    return sketch


def build_all_tables(chains: ProgramChains, model: CostModel,
                     envs: list[dict[str, Sketch]]) -> dict[int, SpanTable]:
    """Span tables for every chain site of the program, keyed by site."""
    tables: dict[int, SpanTable] = {}
    for site in chains.sites:
        env = envs[site.stmt_index]
        sketches = [_operand_sketch(op, env, model) for op in site.operands]
        weight = float(chains.iterations) if site.in_loop else 1.0
        tables[site.site_id] = build_span_table(site.operands, model,
                                                sketches, weight)
    return tables
