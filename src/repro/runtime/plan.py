"""Compiled program: what the optimizer hands the executor.

A :class:`CompiledProgram` is a rewritten :class:`~repro.lang.program.
Program` (hoisted loop-constant temporaries in the prologue, CSE temporaries
in place, multiplication chains re-parenthesized to the chosen execution
order) together with its lowered records (:func:`lower`) and the
optimizer's bookkeeping: which elimination options were applied, the
predicted cost, and how long compilation took (the quantity Figs. 8(a)/10(a)
report). The records are the one program both sides interpret: the cost
evaluator over sketches, the executor over values.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Any, Iterator

from ..errors import ExecutionError, ShapeError, TypeCheckError
from ..lang.ast import (Call, Compare, Expr, Literal, MatMul, MatrixRef, Neg,
                        ScalarRef, Transpose)
from ..lang.program import Assign, Program, Statement, WhileLoop
from ..lang.typecheck import node_meta
from ..matrix.meta import MatrixMeta, scalar_meta
from . import fusion
from .fusion import ZIP_KINDS, unwrap_transpose

#: Statement path: indices into (possibly nested) statement lists. A
#: top-level statement ``i`` is ``(i,)``; statement ``j`` inside the body of
#: the loop at path ``p`` is ``p + (j,)``. The executor stamps each span
#: with the path of the statement it ran; :attr:`CompiledProgram.
#: predicted_ops` groups the records' predictions by the same paths.
StatementPath = tuple


@dataclass(frozen=True)
class PredictedOp:
    """One operator's price as the optimizer's cost model predicted it.

    Written onto the record it priced (:attr:`Op.predicted`) by the
    compile's final cost evaluation, so the execution tracer can attribute,
    per operator, the gap between what the cost model believed (estimated
    nnz, Eqs. 3-6) and what the runtime observed.
    """

    #: Logical operator kind: matmul, mmchain, add, subtract, multiply,
    #: divide, transpose, aggregate, map, structural.
    kind: str
    #: Predicted physical impl (local / bmm / bmm_flipped / cpmm / ...).
    impl: str
    seconds: float
    compute_seconds: float
    transmission_seconds: float
    out_rows: int
    out_cols: int
    #: Estimated nnz of the operator's output (the estimator's claim).
    out_nnz: float


@dataclass
class CompiledProgram:
    """Executable program plus optimizer provenance."""

    program: Program
    #: Elimination options actually applied (list of option descriptors).
    applied_options: list[Any] = field(default_factory=list)
    #: Options found by the search but not applied (contradictory or
    #: judged detrimental).
    rejected_options: list[Any] = field(default_factory=list)
    #: The optimizer's predicted cost of one full program run (seconds).
    estimated_cost: float = 0.0
    #: Real wall-clock seconds spent compiling/optimizing.
    compile_seconds: float = 0.0
    #: Free-form diagnostics (search statistics, estimator name, ...).
    notes: dict[str, Any] = field(default_factory=dict)
    #: The program's records by ``id`` of statement, prepared once by the
    #: compile under its ``policy.fuse`` (:func:`~repro.core.cost.evaluate.
    #: prepare_records`) and shared by the plan cache's copies of this
    #: plan. None for a hand-built plan: the executor prepares it per run,
    #: as it does under the other ``fuse``.
    lowered: dict[int, tuple[Op, ...]] | None = field(
        default=None, repr=False, compare=False)

    @property
    def predicted_ops(self) -> dict[StatementPath, tuple[PredictedOp, ...]]:
        """The records' predictions (:attr:`Op.predicted`) by statement
        path, each record's sub-codes before it; empty without records.
        A read-only view in the shape the identity pins hash."""
        found: dict[StatementPath, tuple[PredictedOp, ...]] = {}

        def block(statements, path: StatementPath) -> None:
            for index, stmt in enumerate(statements):
                if isinstance(stmt, WhileLoop):
                    block(stmt.body, path + (index,))
                elif ops := tuple(_predictions(self.lowered[id(stmt)])):
                    found[path + (index,)] = ops

        if self.lowered is not None:
            block(self.program.statements, ())
        return found

    @property
    def num_applied(self) -> int:
        return len(self.applied_options)

    def describe(self) -> str:
        """One-line human-readable summary for benchmark logs."""
        applied = ", ".join(str(o) for o in self.applied_options) or "none"
        return (f"CompiledProgram(applied=[{applied}], "
                f"estimated_cost={self.estimated_cost:.4g}s, "
                f"compile={self.compile_seconds * 1e3:.1f}ms)")


#: What a lowered record runs (:attr:`Op.kind`).
LOAD, CONST, EWISE, NEG, MATMUL, TRANSPOSE, COMPARE, CALL, MMCHAIN, \
    FUSED = range(10)

_COMPARISONS = {"<": operator.lt, ">": operator.gt, "<=": operator.le,
                ">=": operator.ge, "==": operator.eq, "!=": operator.ne}

#: What an operand of a cell-wise record gives up (:attr:`Op.dying`):
#: nothing, a temporary a kernel built for it, or a variable's value at
#: its last read (:func:`live_after`).
KEPT, BUILT, LAST_READ = range(3)


class Code(tuple):
    """One statement's records: an assignment's expression or a loop's
    condition. ``dead``: the names the executor drops once the assignment
    is stored, or when the loop exits (:func:`live_after`)."""

    dead: tuple[str, ...] = ()


@dataclass(slots=True, eq=False)
class Op:
    """One operator of a lowered expression, over the stack the records
    before it left. ``arg``: a name, a literal's float, a ``Kernels``
    method's name (looked up at each call, so class wrappers see it), a
    comparison, a builtin, a folded region, or an mmchain's (whether it
    may be admitted by cost, ``X``'s column count). ``dying``: per
    operand of a cell-wise record, what it gives up (``BUILT`` /
    ``LAST_READ``; empty when none does); ``sub``: a fusion's codes, plain
    last; ``fuse``: a fusion's
    decision, set by the cost evaluation that priced the record (False:
    the executor runs the plain code); ``predicted``: its price, set by the
    compile's final cost evaluation only (None: not priced there);
    ``chain``: on a product whose result the next product multiplies
    with a reference both read (:func:`_chain_side`), ``(that outer
    record, whether the reference is its left operand)``, set when no
    operand of the two is 1x1; the cost evaluation ignores it."""

    kind: int
    arg: object = None
    transposed: tuple[bool, bool] = (False, False)
    dying: tuple[int, ...] = ()
    driver: bool = False
    sub: tuple = ()
    fuse: bool = False
    predicted: PredictedOp | None = None
    chain: tuple = field(default=(), repr=False)


def lower(statements: list[Statement] | tuple[Statement, ...],
          metas: dict[str, MatrixMeta], fuse: bool,
          outputs: tuple[str, ...] = (), inputs: tuple[str, ...] = ()
          ) -> dict[int, Code]:
    """Each assignment's and loop condition's records, by ``id`` of
    statement, from the inputs' ``metas``; ``fuse``: element-wise regions
    become FUSED records (``ExecutionPolicy.fuse``), their scalar leaves
    folded by meta (:meth:`~repro.runtime.fusion.Region.fold`). An
    expression's records are its operators in postfix order as the kernels
    run them: children left to right, one record per operator, a gated
    fusion holding its codes, undecided until a cost evaluation prices it.
    Each node's meta is derived from its children's as it is emitted
    (None: unknown). Given ``outputs``, each code carries the names dead
    after it and each variable read gives up its value where
    :func:`last_reads` allows; ``inputs`` are never dropped."""
    metas = {**metas, "__always__": scalar_meta()}
    lowered: dict[int, Code] = {}
    live = live_after(statements, outputs)
    given_up: frozenset[str] = frozenset()
    #: Each MATMUL record's operand metas, as multiplied.
    multiplied: dict[Op, list] = {}

    def code_of(node: Expr, gated: bool = True):
        code: list[Op] = []
        meta = emit(node, code, gated)
        return tuple(code), meta

    def emit(node: Expr, code: list[Op], gated: bool = True):
        """Append ``node``'s records; return its meta (None: unknown)."""
        kind = type(node)
        if kind is MatrixRef or kind is ScalarRef:
            code.append(Op(LOAD, node.name))
            return metas.get(node.name)
        if kind is Literal:
            code.append(Op(CONST, node.value))
            return node_meta(node, ())
        region = fusion.find_ewise_region(node) \
            if gated and fuse and kind in ZIP_KINDS else None
        if region is not None:
            leaves, leaf_metas = zip(*map(code_of, region.leaves))
            region = None if None in leaf_metas else region.fold(
                [meta.is_scalar_like for meta in leaf_metas])
        if region is not None:
            plain, meta = code_of(node, False)
            code.append(Op(FUSED, region, sub=(*leaves, plain)))
            return meta
        match = fusion.mmchain_match(node) if gated and kind is MatMul \
            else None
        if match is not None:
            x, v, by_cost = match
            (x_code, x_meta), (v_code, v_meta) = code_of(x), code_of(v)
            if None not in (x_meta, v_meta) and not (
                    x_meta.is_scalar_like or v_meta.is_scalar_like):
                plain, meta = code_of(node, False)
                code.append(Op(MMCHAIN, (by_cost, x_meta.cols),
                               sub=(x_code, v_code, plain)))
                return meta
        if kind is Neg or kind in ZIP_KINDS:
            children = (node.child,) if kind is Neg else (node.left, node.right)
            operands = [emit(child, code) for child in children]
            driver = _on_driver(*operands)
            dying = () if driver else tuple(map(gives_up, children))
            op = Op(NEG if kind is Neg else EWISE, ZIP_KINDS.get(kind),
                    dying=dying if any(dying) else (), driver=driver)
        elif kind is MatMul:
            (left, left_t), (right, right_t) = map(
                unwrap_transpose, (node.left, node.right))
            left, right = emit(left, code), emit(right, code)
            op = Op(MATMUL, transposed=(left_t, right_t))
            operands = multiplied[op] = [
                left.transposed() if left_t and left else left,
                right.transposed() if right_t and right else right]
            side = _chain_side(node)
            # The inner record: the right child's last, or the left
            # child's, before the shared reference's LOAD.
            inner = None if side is None else code[-1 if side else -2]
            if inner is not None and inner.kind == MATMUL and all(
                    meta is not None and not meta.is_scalar_like
                    for meta in (*operands, *multiplied[inner])):
                inner.chain = (op, side)
        elif kind is Transpose:
            op, operands = Op(TRANSPOSE), [emit(node.child, code)]
        elif kind is Call:
            op, operands = Op(CALL, node.func), [emit(node.args[0], code)]
        elif kind is Compare:
            op = Op(COMPARE, _COMPARISONS[node.op])
            operands = [emit(node.left, code), emit(node.right, code)]
        else:
            raise ExecutionError(
                f"cannot execute expression node {kind.__name__}")
        code.append(op)
        if None in operands:
            return None
        try:
            return node_meta(node, operands)
        except (ShapeError, TypeCheckError):
            return None

    def gives_up(child: Expr) -> int:
        """What a cell-wise operand gives up: a temporary, itself; a
        variable, its value where this read is its last; a transpose (a
        view of its child's tiles) or a scalar, nothing."""
        kind = type(child)
        if kind is MatrixRef:
            return LAST_READ if child.name in given_up else KEPT
        return KEPT if kind is ScalarRef or kind is Transpose else BUILT

    if live is not None:
        aliases = _ref_aliases(statements)
        droppable = {stmt.target for stmt in _assignments(statements)
                     }.difference(inputs)

    def block(statements) -> None:
        nonlocal given_up
        for stmt in statements:
            if isinstance(stmt, WhileLoop):
                given_up = frozenset()
                code = lowered[id(stmt)] = Code(code_of(stmt.condition)[0])
                block(stmt.body)
            else:
                if live is not None:
                    given_up = last_reads(stmt, live[id(stmt)], aliases)
                ops, metas[stmt.target] = code_of(stmt.expr)
                code = lowered[id(stmt)] = Code(ops)
            if live is not None:
                # Anything else dead here died where it was last mentioned.
                code.dead = tuple(sorted(droppable.intersection(
                    _mentioned([stmt])) - live[id(stmt)]))

    block(statements)
    return lowered


def live_after(statements: list[Statement] | tuple[Statement, ...],
               outputs: tuple[str, ...]) -> dict[int, frozenset[str]] | None:
    """The names live after each assignment, and after each loop exits, by
    ``id`` of statement: backward dataflow from ``outputs``, the names live
    at the end, each ``while`` body iterated to a fixpoint, its condition
    read on every pass. None without ``outputs``: a program that declares
    none keeps every name to its end."""
    if not outputs:
        return None
    after: dict[int, frozenset[str]] = {}

    def live_before(statements, live: frozenset[str]) -> frozenset[str]:
        for stmt in reversed(statements):
            after[id(stmt)] = live
            if isinstance(stmt, WhileLoop):
                # Live at the head: read by the condition, after the loop,
                # or by the body before the body assigns it.
                exit_or_test = live | stmt.condition.variables()
                head = exit_or_test
                while (entry := exit_or_test | live_before(stmt.body, head)
                       ) != head:
                    head = entry
                live = head
            else:
                live = live - {stmt.target} | stmt.expr.variables()
        return live

    live_before(statements, frozenset(outputs))
    return after


def last_reads(stmt, live: frozenset[str],
               aliases: dict[str, set[str]]) -> frozenset[str]:
    """The variables whose value ``stmt`` (an assignment) may give up to a
    cell-wise operator reading it: the value is dead once the statement is
    stored (the name is not ``live`` after it, or the statement assigns
    it), no name a reference assignment made an alias of it is live, and
    the statement reads it once, or twice as both operands of one operator
    (``R * R``), so no earlier read of it is still waiting on the stack."""
    reads: dict[str, int] = {}
    pairs: set[str] = set()
    for node in stmt.expr.walk():
        if type(node) in (MatrixRef, ScalarRef):
            reads[node.name] = reads.get(node.name, 0) + 1
        elif type(node) in ZIP_KINDS and type(node.left) is MatrixRef \
                and node.left == node.right:
            pairs.add(node.left.name)
    return frozenset(
        name for name, count in reads.items()
        if (count == 1 or (count == 2 and name in pairs))
        and (name == stmt.target or name not in live)
        and not (live.intersection(aliases.get(name, ()))
                 - {name, stmt.target}))


def _assignments(statements) -> Iterator[Assign]:
    for stmt in statements:
        if isinstance(stmt, WhileLoop):
            yield from stmt.assignments()
        else:
            yield stmt


def _mentioned(statements) -> set[str]:
    """The names ``statements`` read or assign, loops' insides included."""
    names: set[str] = set()
    for stmt in statements:
        if isinstance(stmt, WhileLoop):
            names |= stmt.condition.variables() | _mentioned(stmt.body)
        else:
            names |= {stmt.target} | stmt.expr.variables()
    return names


def _ref_aliases(statements) -> dict[str, set[str]]:
    """Each name a reference assignment ``a = b`` links to another, with
    every name linked to it, transitively: those may hold one value."""
    groups: dict[str, set[str]] = {}
    for stmt in _assignments(statements):
        if type(stmt.expr) in (MatrixRef, ScalarRef):
            group = groups.get(stmt.target, {stmt.target}) | groups.get(
                stmt.expr.name, {stmt.expr.name})
            for name in group:
                groups[name] = group
    return groups


def _chain_side(node: MatMul) -> bool | None:
    """Whether ``node`` is the outer product of a chain over one reference
    ``X``, and which operand of it ``X`` is: True (left) for ``t(X) %*%
    (X %*% v)``, False (right) for ``(u %*% t(X)) %*% X``, None for any
    other product. Its inner product reads ``X``, and ``X``'s code is one
    LOAD, so running both in one pass computes and charges nothing
    twice."""
    left, right = node.left, node.right
    if type(left) is Transpose and type(left.child) is MatrixRef \
            and type(right) is MatMul and right.left == left.child:
        return True
    if type(right) is MatrixRef and type(left) is MatMul \
            and type(left.right) is Transpose and left.right.child == right:
        return False
    return None


def _predictions(code: tuple[Op, ...]):
    """``code``'s predictions, each record's sub-codes before it."""
    for op in code:
        for sub in op.sub:
            yield from _predictions(sub)
        if op.predicted is not None:
            yield op.predicted


def _on_driver(*metas: MatrixMeta | None) -> bool:
    """Whether an operator over operands of these metas computes on floats."""
    return all(meta is not None and meta.is_scalar_like for meta in metas)

