"""Rewriting: apply chosen elimination options to produce the final program.

Given the options a strategy picked, this module materializes the plan:

* every LSE gets a temporary assigned *before the loop* (then persisted by
  the runtime), e.g. ``T = t(A) %*% A``;
* every CSE gets a temporary right before its first occurrence;
* each chain site has its chosen occurrence spans replaced by temp reads
  (transposed reads for occurrences of the opposite orientation) and the
  remaining chain re-parenthesized to the cost-model-optimal association;
* temp definitions reuse other, narrower chosen temps (so picking both
  ``AᵀA`` and ``AᵀAd`` computes the latter from the former).

The output is a plain :class:`~repro.lang.program.Program` the executor can
run — and that a user could have written by hand, which is the paper's
point about the 1391-option programming burden.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import OptimizerError
from ..lang.ast import (
    Add,
    Call,
    Compare,
    ElemDiv,
    ElemMul,
    Expr,
    Literal,
    MatMul,
    MatrixRef,
    Neg,
    ScalarRef,
    Sub,
    Transpose,
)
from ..lang.program import Assign, Program, Statement, WhileLoop
from .build import (_operand_sketch, build_chain_expr, build_span_table,
                    statement_sketch_envs)
from .chains import ChainPlaceholder, ChainSite, Operand, ProgramChains
from .cost.model import CostModel
from .options import EliminationOption, Occurrence
from .sparsity.base import Sketch

TEMP_PREFIX = "tREMAC"


@dataclass
class _TempInfo:
    option: EliminationOption
    name: str
    #: Operand list in the temp's stored orientation.
    operands: list[Operand]
    sketch: Sketch
    #: Statement index of the first occurrence (placement anchor).
    first_stmt: int
    in_loop: bool


def rewrite_program(chains: ProgramChains, chosen: list[EliminationOption],
                    model: CostModel, input_sketches: dict[str, Sketch],
                    temp_prefix: str = TEMP_PREFIX) -> Program:
    """Build the rewritten program applying ``chosen`` options."""
    envs = statement_sketch_envs(chains, model, input_sketches)
    temps = _plan_temps(chains, chosen, model, envs, temp_prefix)
    site_exprs = _rewrite_sites(chains, chosen, temps, model, envs)
    temp_stmts = _temp_statements(chains, temps, model, envs)
    return _reassemble(chains, site_exprs, temp_stmts)


# ----------------------------------------------------------------------
# Temp planning
# ----------------------------------------------------------------------
def _plan_temps(chains: ProgramChains, chosen: list[EliminationOption],
                model: CostModel, envs,
                temp_prefix: str = TEMP_PREFIX) -> dict[int, _TempInfo]:
    temps: dict[int, _TempInfo] = {}
    for option in chosen:
        first = min(option.occurrences,
                    key=lambda o: chains.site(o.site_id).stmt_index)
        first_site = chains.site(first.site_id)
        operands = list(option.operands)
        if option.temp_reversed:
            operands = [op.flipped() for op in reversed(operands)]
        env = envs[first_site.stmt_index]
        sketch = _chain_sketch(model, operands, env)
        temps[option.option_id] = _TempInfo(
            option=option,
            name=f"{temp_prefix}{option.option_id}",
            operands=operands,
            sketch=sketch,
            first_stmt=first_site.stmt_index,
            in_loop=first_site.in_loop and not option.is_lse,
        )
    return temps


def _chain_sketch(model: CostModel, operands: list[Operand], env) -> Sketch:
    sketches = [_operand_sketch(op, env, model) for op in operands]
    result = sketches[0]
    for sketch in sketches[1:]:
        result = model.estimator.matmul(result, sketch)
    return result


# ----------------------------------------------------------------------
# Site rewriting
# ----------------------------------------------------------------------
def _rewrite_sites(chains: ProgramChains, chosen: list[EliminationOption],
                   temps: dict[int, _TempInfo], model: CostModel,
                   envs) -> dict[int, Expr]:
    # Collect chosen occurrences per site, dropping nested-inside-another.
    per_site: dict[int, list[tuple[EliminationOption, Occurrence]]] = {}
    for option in chosen:
        for occ in option.occurrences:
            per_site.setdefault(occ.site_id, []).append((option, occ))
    site_exprs: dict[int, Expr] = {}
    for site in chains.sites:
        picks = _select_site_occurrences(per_site.get(site.site_id, []))
        operands, sketches = _substituted_operands(site, picks, temps,
                                                   model, envs)
        site_exprs[site.site_id] = _parenthesize(site, operands, sketches, model,
                                                 chains)
    return site_exprs


def _select_site_occurrences(picks: list[tuple[EliminationOption, Occurrence]]):
    """Keep outermost, pairwise-disjoint chosen occurrences of one site."""
    ordered = sorted(picks, key=lambda p: (p[1].width), reverse=True)
    kept: list[tuple[EliminationOption, Occurrence]] = []
    for option, occ in ordered:
        nested = False
        for _k_option, k_occ in kept:
            if k_occ.start <= occ.start and occ.end <= k_occ.end:
                nested = True  # inner occurrence vanishes into the outer read
                break
            if occ.overlaps_properly(k_occ):
                raise OptimizerError(
                    f"chosen occurrences overlap: {occ} vs {k_occ}")
        if not nested:
            kept.append((option, occ))
    return sorted(kept, key=lambda p: p[1].start)


def _substituted_operands(site: ChainSite, picks, temps: dict[int, _TempInfo],
                          model: CostModel, envs):
    env = envs[site.stmt_index]
    replacements = {occ.start: (option, occ) for option, occ in picks}
    operands: list[Operand] = []
    sketches: list[Sketch] = []
    position = 0
    n = len(site)
    while position < n:
        if position in replacements:
            option, occ = replacements[position]
            info = temps[option.option_id]
            transposed = option.needs_transpose(occ)
            operands.append(Operand(
                base=MatrixRef(info.name), transposed=transposed,
                symbol=info.name, symmetric=option.palindromic,
                loop_constant=option.is_lse))
            sketch = info.sketch
            if transposed:
                sketch = model.estimator.transpose(sketch)
            sketches.append(sketch)
            position = occ.end + 1
        else:
            operand = site.operands[position]
            operands.append(operand)
            sketches.append(_operand_sketch(operand, env, model))
            position += 1
    return operands, sketches


def _parenthesize(site: ChainSite, operands: list[Operand],
                  sketches: list[Sketch], model: CostModel,
                  chains: ProgramChains) -> Expr:
    if len(operands) == 1:
        return operands[0].to_expr()
    weight = float(chains.iterations) if site.in_loop else 1.0
    table = build_span_table(operands, model, sketches, weight)
    return build_chain_expr(operands, table.plain_split, 0, len(operands) - 1)


# ----------------------------------------------------------------------
# Temp definitions
# ----------------------------------------------------------------------
def _temp_statements(chains: ProgramChains, temps: dict[int, _TempInfo],
                     model: CostModel, envs) -> dict[int, _TempInfo | Assign]:
    """Build each temp's defining assignment, reusing narrower temps."""
    statements: dict[int, Assign] = {}
    infos = sorted(temps.values(), key=lambda t: len(t.operands))
    for info in infos:
        operands = list(info.operands)
        # Substitute strictly narrower chosen temps into this definition.
        for other in infos:
            if other is info or len(other.operands) >= len(operands):
                continue
            operands = _substitute_tokens(operands, other, model)
        env = envs[info.first_stmt]
        sketches = []
        for op in operands:
            if op.symbol in {t.name for t in infos}:
                owner = next(t for t in infos if t.name == op.symbol)
                sketch = owner.sketch
                if op.transposed and not op.symmetric:
                    sketch = model.estimator.transpose(sketch)
                sketches.append(sketch)
            else:
                sketches.append(_operand_sketch(op, env, model))
        table = build_span_table(operands, model, sketches, 1.0)
        expr = build_chain_expr(operands, table.plain_split, 0, len(operands) - 1) \
            if len(operands) > 1 else operands[0].to_expr()
        statements[info.option.option_id] = Assign(info.name, expr)
    return {gid: (temps[gid], statements[gid]) for gid in temps}


def _substitute_tokens(operands: list[Operand], other: _TempInfo,
                       model: CostModel) -> list[Operand]:
    """Replace runs matching ``other``'s chain with reads of its temp."""
    del model
    target_fwd = [op.token() for op in other.operands]
    target_rev = [op.flipped().token() for op in reversed(other.operands)]
    width = len(target_fwd)
    result: list[Operand] = []
    i = 0
    tokens = [op.token() for op in operands]
    while i < len(operands):
        window = tokens[i:i + width]
        if window == target_fwd:
            result.append(Operand(MatrixRef(other.name), False, other.name,
                                  other.option.palindromic, other.option.is_lse))
            i += width
        elif window == target_rev and not other.option.palindromic:
            result.append(Operand(MatrixRef(other.name), True, other.name,
                                  False, other.option.is_lse))
            i += width
        else:
            result.append(operands[i])
            i += 1
    return result


# ----------------------------------------------------------------------
# Program reassembly
# ----------------------------------------------------------------------
def _reassemble(chains: ProgramChains, site_exprs: dict[int, Expr],
                temp_stmts: dict[int, tuple[_TempInfo, Assign]]) -> Program:
    pre_loop: list[Assign] = []
    in_loop_by_anchor: dict[int, list[Assign]] = {}
    pre_anchor: dict[int, list[Assign]] = {}
    for _gid, (info, stmt) in sorted(temp_stmts.items(),
                                     key=lambda kv: len(kv[1][0].operands)):
        if info.option.is_lse:
            pre_loop.append(stmt)
        elif info.in_loop:
            in_loop_by_anchor.setdefault(info.first_stmt, []).append(stmt)
        else:
            pre_anchor.setdefault(info.first_stmt, []).append(stmt)

    rebuilt: list[Statement] = []
    cursor = 0  # index into chains.statements
    for stmt in chains.program.statements:
        if isinstance(stmt, Assign):
            normalized = chains.statements[cursor]
            rebuilt.extend(pre_anchor.get(cursor, ()))
            rebuilt.append(Assign(stmt.target,
                                  _fill_template(normalized.template, site_exprs)))
            cursor += 1
        elif isinstance(stmt, WhileLoop):
            rebuilt.extend(pre_loop)
            body: list[Statement] = []
            for loop_stmt in stmt.body:
                if not isinstance(loop_stmt, Assign):
                    raise OptimizerError("nested loops are not supported")
                normalized = chains.statements[cursor]
                body.extend(in_loop_by_anchor.get(cursor, ()))
                body.append(Assign(loop_stmt.target,
                                   _fill_template(normalized.template, site_exprs)))
                cursor += 1
            rebuilt.append(WhileLoop(condition=stmt.condition, body=tuple(body),
                                     max_iterations=stmt.max_iterations))
        else:  # pragma: no cover - defensive
            raise OptimizerError(f"unknown statement type {type(stmt).__name__}")
    rebuilt = _drop_dead_temps(rebuilt, {info.name for info, _ in temp_stmts.values()})
    return Program(statements=rebuilt, inputs=chains.program.inputs,
                   outputs=chains.program.outputs)


def _drop_dead_temps(statements: list[Statement],
                     temp_names: set[str]) -> list[Statement]:
    """Remove temp definitions nothing reads.

    A chosen occurrence can vanish when it is nested inside another chosen
    occurrence of the same site; if *all* of an option's occurrences vanish
    its temp would be computed (possibly once per iteration!) and never
    used. Iterate to a fixpoint because temps may only feed other dead
    temps.
    """
    while True:
        used: set[str] = set()

        def collect(stmts) -> None:
            for stmt in stmts:
                if isinstance(stmt, Assign):
                    used.update(stmt.expr.variables())
                else:
                    used.update(stmt.condition.variables())
                    collect(stmt.body)

        collect(statements)
        dead = temp_names - used
        if not dead:
            return statements
        statements = _filter_statements(statements, dead)
        temp_names = temp_names - dead


def _filter_statements(statements, dead: set[str]) -> list[Statement]:
    kept: list[Statement] = []
    for stmt in statements:
        if isinstance(stmt, Assign):
            if stmt.target not in dead:
                kept.append(stmt)
        else:
            kept.append(WhileLoop(condition=stmt.condition,
                                  body=tuple(_filter_statements(list(stmt.body), dead)),
                                  max_iterations=stmt.max_iterations))
    return kept


def _fill_template(template: Expr, site_exprs: dict[int, Expr]) -> Expr:
    if isinstance(template, ChainPlaceholder):
        return site_exprs[template.site_id]
    if isinstance(template, (MatrixRef, ScalarRef, Literal)):
        return template
    if isinstance(template, Transpose):
        return Transpose(_fill_template(template.child, site_exprs))
    if isinstance(template, Neg):
        return Neg(_fill_template(template.child, site_exprs))
    if isinstance(template, (Add, Sub, ElemMul, ElemDiv)):
        return type(template)(_fill_template(template.left, site_exprs),
                              _fill_template(template.right, site_exprs))
    if isinstance(template, Compare):
        return Compare(template.op, _fill_template(template.left, site_exprs),
                       _fill_template(template.right, site_exprs))
    if isinstance(template, Call):
        return Call(template.func,
                    tuple(_fill_template(a, site_exprs) for a in template.args))
    raise OptimizerError(f"cannot fill template node {type(template).__name__}")
