"""Cross-block CSE/LSE detection (§3.2/§3.3 Discussion).

Distributive expansion (step ➋) can hide redundancy that spans blocks: the
paper's example ``P·XY + P·YZ + XY·Q + YZ·Q`` has the common subexpression
``XY + YZ`` across four blocks. The extension reverts the expansion by
extracting common leading/trailing factors — grouping blocks like
``P·(XY + YZ)`` and ``(XY + YZ)·Q`` — and then checks whether the grouped
parts are common (or loop-constant), reusing the fact that the within-block
search already knows ``XY`` and ``YZ`` are common.

Detection is cheap ("a negligible overhead cost"): it only combines keys
the block-wise hash table has already produced. :func:`apply_cross_block`
rewrites a program to share a detected grouped part; the main optimizer
pipeline does not apply these automatically (the paper's evaluation does
not exercise them either), but the API and tests demonstrate the full
mechanism on the paper's example.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..lang.ast import Add, Expr, Neg, Sub
from .chains import ChainPlaceholder, ProgramChains


@dataclass(frozen=True)
class GroupedBlock:
    """Blocks of one sum that share a common factor.

    ``factor_token`` is the shared leading/trailing operand; ``rest_keys``
    are the canonical keys of the remaining chains — the grouped part, e.g.
    frozenset({'X Y', 'Y Z'}) for ``P·(XY + YZ)``.
    """

    stmt_index: int
    side: str  # "prefix" or "suffix"
    factor_token: str
    rest_keys: frozenset[str]
    site_ids: tuple[int, ...]


@dataclass(frozen=True)
class CrossBlockOption:
    """A grouped part common to two or more block groups."""

    rest_keys: frozenset[str]
    groups: tuple[GroupedBlock, ...]
    loop_constant: bool

    def __repr__(self) -> str:
        keys = " + ".join(sorted(self.rest_keys))
        factors = ", ".join(f"{g.factor_token}({g.side})" for g in self.groups)
        kind = "LSE" if self.loop_constant else "CSE"
        return f"CrossBlock{kind}<{keys}> via [{factors}]"


@dataclass
class CrossBlockResult:
    groups: list[GroupedBlock] = field(default_factory=list)
    options: list[CrossBlockOption] = field(default_factory=list)


def crossblock_search(chains: ProgramChains) -> CrossBlockResult:
    """Group expanded blocks by common factors; match grouped parts."""
    result = CrossBlockResult()
    for normalized in chains.statements:
        site_ids = _sum_of_placeholders(normalized.template)
        if len(site_ids) < 2:
            continue
        result.groups.extend(_factor_groups(chains, normalized.index, site_ids))
    # The identity-matrix grouping of the paper (I·(PXY + XYQ)) corresponds
    # to the trivial "no factor" group: the sum of whole blocks.
    by_rest: dict[frozenset[str], list[GroupedBlock]] = {}
    for group in result.groups:
        if len(group.rest_keys) >= 2:
            by_rest.setdefault(group.rest_keys, []).append(group)
    for rest_keys, groups in sorted(by_rest.items(), key=lambda kv: sorted(kv[0])):
        if len(groups) >= 2:
            loop_constant = _grouped_part_loop_constant(chains, groups[0])
            result.options.append(CrossBlockOption(
                rest_keys=rest_keys, groups=tuple(groups),
                loop_constant=loop_constant))
    return result


def _sum_of_placeholders(template: Expr) -> list[int]:
    """Site ids of the top-level additive terms that are pure chains."""
    sites: list[int] = []

    def walk(node: Expr) -> None:
        if isinstance(node, (Add, Sub)):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, Neg):
            walk(node.child)
        elif isinstance(node, ChainPlaceholder):
            sites.append(node.site_id)

    walk(template)
    return sites


def _factor_groups(chains: ProgramChains, stmt_index: int,
                   site_ids: list[int]) -> list[GroupedBlock]:
    """Group the sum's blocks by shared first or last operand."""
    groups: list[GroupedBlock] = []
    for side in ("prefix", "suffix"):
        by_factor: dict[str, list[int]] = {}
        for site_id in site_ids:
            site = chains.site(site_id)
            if len(site) < 2:
                continue
            operand = site.operands[0] if side == "prefix" else site.operands[-1]
            by_factor.setdefault(operand.token(), []).append(site_id)
        for factor_token, members in by_factor.items():
            if len(members) < 2:
                continue
            rest_keys = frozenset(
                _rest_key(chains, site_id, side) for site_id in members)
            groups.append(GroupedBlock(
                stmt_index=stmt_index, side=side, factor_token=factor_token,
                rest_keys=rest_keys, site_ids=tuple(members)))
    return groups


def _rest_key(chains: ProgramChains, site_id: int, side: str) -> str:
    """Canonical key of a block minus its shared factor."""
    site = chains.site(site_id)
    operands = site.operands[1:] if side == "prefix" else site.operands[:-1]
    forward = " ".join(op.token() for op in operands)
    backward = " ".join(op.flipped().token() for op in reversed(operands))
    return min(forward, backward)


def _grouped_part_loop_constant(chains: ProgramChains, group: GroupedBlock) -> bool:
    """Whether every chain of the grouped part is loop-constant."""
    for site_id in group.site_ids:
        site = chains.site(site_id)
        operands = site.operands[1:] if group.side == "prefix" else site.operands[:-1]
        if not site.in_loop:
            return False
        if not all(op.loop_constant for op in operands):
            return False
    return True


# ----------------------------------------------------------------------
# Applying a cross-block option
# ----------------------------------------------------------------------
def apply_cross_block(chains: ProgramChains, option: CrossBlockOption,
                      model, input_sketches) -> "Program":
    """Rewrite the program to share a grouped part across blocks.

    For the paper's example ``P·XY + P·YZ + XY·Q + YZ·Q`` this produces::

        G = X %*% Y + Y %*% Z        (hoisted before the loop if constant)
        R = P %*% G + G %*% Q

    Only positively-signed sums of plain chain blocks are handled; groups
    whose members mix signs or orientations are rejected with
    :class:`~repro.errors.OptimizerError` (the search does not produce such
    groups for the supported workloads).
    """
    from ..errors import OptimizerError
    from ..lang.ast import Add, MatMul
    from ..lang.program import Assign, Program, WhileLoop
    from .build import (build_chain_expr, build_span_table, _operand_sketch,
                        statement_sketch_envs)

    envs = statement_sketch_envs(chains, model, input_sketches)
    member_sites = {site_id for group in option.groups
                    for site_id in group.site_ids}
    first_group = option.groups[0]

    # ---- build the grouped-sum temporary ------------------------------
    temp_name = "tGROUP0"
    rest_exprs = []
    for site_id in first_group.site_ids:
        site = chains.site(site_id)
        operands = (site.operands[1:] if first_group.side == "prefix"
                    else site.operands[:-1])
        env = envs[site.stmt_index]
        sketches = [_operand_sketch(op, env, model) for op in operands]
        if len(operands) == 1:
            rest_exprs.append(operands[0].to_expr())
            continue
        table = build_span_table(list(operands), model, sketches, 1.0)
        rest_exprs.append(build_chain_expr(list(operands), table.plain_split,
                                           0, len(operands) - 1))
    temp_expr = rest_exprs[0]
    for expr in rest_exprs[1:]:
        temp_expr = Add(temp_expr, expr)
    temp_stmt = Assign(temp_name, temp_expr)

    # ---- verify all groups share the grouped part's orientation -------
    first_rests = _ordered_rest_tokens(chains, first_group)
    for group in option.groups[1:]:
        if _ordered_rest_tokens(chains, group) != first_rests:
            raise OptimizerError(
                "cross-block groups disagree on the grouped part's "
                "orientation; cannot share one temporary")

    # ---- rebuild statements with grouped terms ------------------------
    site_term: dict[int, Expr | None] = {}
    for group in option.groups:
        site = chains.site(group.site_ids[0])
        factor = (site.operands[0] if group.side == "prefix"
                  else site.operands[-1])
        from ..lang.ast import MatrixRef
        temp_ref = MatrixRef(temp_name)
        term = (MatMul(factor.to_expr(), temp_ref)
                if group.side == "prefix" else
                MatMul(temp_ref, factor.to_expr()))
        site_term[group.site_ids[0]] = term
        for other in group.site_ids[1:]:
            site_term[other] = None  # folded into the group's single term

    def rebuild_template(template: Expr) -> Expr:
        if isinstance(template, ChainPlaceholder):
            if template.site_id in site_term:
                replacement = site_term[template.site_id]
                if replacement is None:
                    raise OptimizerError("folded term survived sum surgery")
                return replacement
            site = chains.site(template.site_id)
            return _plain_site_expr(site)
        if isinstance(template, Add):
            left_sites = _placeholder_sites(template.left)
            right_sites = _placeholder_sites(template.right)
            left_dead = left_sites and all(site_term.get(s, 1) is None
                                           for s in left_sites)
            right_dead = right_sites and all(site_term.get(s, 1) is None
                                             for s in right_sites)
            if left_dead and right_dead:
                raise OptimizerError("whole sum folded away")
            if left_dead:
                return rebuild_template(template.right)
            if right_dead:
                return rebuild_template(template.left)
            return Add(rebuild_template(template.left),
                       rebuild_template(template.right))
        children = template.children()
        if not children:
            return template
        import dataclasses
        rebuilt = {name: rebuild_template(value)
                   if isinstance(value, Expr) else value
                   for name, value in
                   ((f.name, getattr(template, f.name))
                    for f in dataclasses.fields(template))}
        return type(template)(**rebuilt)

    def _placeholder_sites(expr: Expr) -> set[int]:
        return {node.site_id for node in expr.walk()
                if isinstance(node, ChainPlaceholder)}

    def _plain_site_expr(site) -> Expr:
        env = envs[site.stmt_index]
        sketches = [_operand_sketch(op, env, model)
                    for op in site.operands]
        if len(site.operands) == 1:
            return site.operands[0].to_expr()
        table = build_span_table(list(site.operands), model, sketches, 1.0)
        return build_chain_expr(list(site.operands), table.plain_split,
                                0, len(site.operands) - 1)

    rebuilt_statements = []
    cursor = 0
    for stmt in chains.program.statements:
        if isinstance(stmt, Assign):
            normalized = chains.statements[cursor]
            rebuilt_statements.append(
                Assign(stmt.target, rebuild_template(normalized.template)))
            cursor += 1
        elif isinstance(stmt, WhileLoop):
            if option.loop_constant:
                rebuilt_statements.append(temp_stmt)
            body = []
            inserted = False
            for loop_stmt in stmt.body:
                normalized = chains.statements[cursor]
                touches = any(s.stmt_index == cursor
                              for s in (chains.site(sid)
                                        for sid in member_sites))
                if touches and not option.loop_constant and not inserted:
                    body.append(temp_stmt)
                    inserted = True
                body.append(Assign(loop_stmt.target,
                                   rebuild_template(normalized.template)))
                cursor += 1
            rebuilt_statements.append(WhileLoop(condition=stmt.condition,
                                                body=tuple(body),
                                                max_iterations=stmt.max_iterations))
    return Program(statements=rebuilt_statements,
                   inputs=chains.program.inputs,
                   outputs=chains.program.outputs)


def _ordered_rest_tokens(chains: ProgramChains,
                         group: GroupedBlock) -> frozenset[tuple[str, ...]]:
    """The grouped part's chains as ordered token tuples (orientation-aware)."""
    rests = set()
    for site_id in group.site_ids:
        site = chains.site(site_id)
        operands = (site.operands[1:] if group.side == "prefix"
                    else site.operands[:-1])
        rests.add(tuple(op.token() for op in operands))
    return frozenset(rests)
