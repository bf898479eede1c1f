"""Shape and metadata inference for programs.

Given metadata for the program's inputs, :func:`infer_expr_meta` computes the
:class:`~repro.matrix.meta.MatrixMeta` of any expression, and
:func:`check_program` validates a whole program, returning the environment
(variable -> meta) observed before each assignment. Scalars are represented
as 1x1 metas, mirroring DML's implicit ``as.scalar`` cast.

Sparsity is propagated with the uniform metadata rules from
:mod:`repro.matrix.sparsity_rules`; the optimizer swaps in richer estimators
where accuracy matters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ShapeError, TypeCheckError
from ..matrix.meta import MatrixMeta, scalar_meta
from ..matrix import sparsity_rules as rules
from .ast import (
    CELLWISE_BUILTINS,
    SCALAR_BUILTINS,
    STRUCTURAL_BUILTINS,
    ZERO_PRESERVING_BUILTINS,
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
from .program import Assign, Program, Statement, WhileLoop

Environment = dict[str, MatrixMeta]

#: Node types with a left and a right child, read directly rather than
#: through ``children()``: type checking runs on every compile round.
_BINARY = frozenset({MatMul, Add, Sub, ElemMul, ElemDiv, Compare})
#: Each cell-wise node type's sparsity rule, and whether a scalar operand
#: densifies the result.
_EWISE_RULES = {Add: (rules.add_sparsity, True), Sub: (rules.add_sparsity, True),
                ElemMul: (rules.mul_sparsity, False),
                ElemDiv: (rules.div_sparsity, False)}


def infer_expr_meta(expr: Expr, env: Environment) -> MatrixMeta:
    """Infer the meta of ``expr`` under ``env``; raises on shape errors."""
    kind = type(expr)
    if kind is MatrixRef or kind is ScalarRef:
        try:
            return env[expr.name]
        except KeyError:
            raise TypeCheckError(f"undefined variable {expr.name!r}") from None
    if kind in _BINARY:
        return node_meta(expr, (infer_expr_meta(expr.left, env),
                                infer_expr_meta(expr.right, env)))
    if kind is Transpose or kind is Neg:
        return node_meta(expr, (infer_expr_meta(expr.child, env),))
    return node_meta(expr, [infer_expr_meta(child, env)
                            for child in expr.children()])


def node_meta(expr: Expr, operands) -> MatrixMeta:
    """The meta of ``expr``, not a reference, from its children's metas in
    ``children()`` order: the one rule of the type checker and of the
    lowering (:func:`repro.runtime.plan.lower`). Raises on shape errors."""
    kind = type(expr)
    ewise = _EWISE_RULES.get(kind)
    if ewise is not None:
        left, right = operands
        combine, densify_on_scalar = ewise
        rows, cols = left.ewise_shape(right)
        if left.is_scalar_like and not right.is_scalar_like:
            base = right.sparsity if not densify_on_scalar else 1.0
            sym = right.symmetric
        elif right.is_scalar_like and not left.is_scalar_like:
            base = left.sparsity if not densify_on_scalar else 1.0
            sym = left.symmetric
        else:
            base = combine(left.sparsity, right.sparsity)
            sym = left.symmetric and right.symmetric
        return MatrixMeta(rows, cols, rules.clamp(base),
                          symmetric=sym and rows == cols)
    if kind is MatMul:
        # Scalar-like operands of %*% behave as scalar multiplication in
        # the degenerate 1x1 case only when shapes agree; a genuine
        # mismatch raises.
        left, right = operands
        rows, cols = left.matmul_shape(right)
        sparsity = rules.matmul_sparsity(left.sparsity, right.sparsity,
                                         left.cols)
        return MatrixMeta(rows, cols, sparsity,
                          symmetric=rows == cols and rows == 1)
    if kind is Transpose:
        return operands[0].transposed()
    if kind is Neg:
        return operands[0]
    if kind is Literal:
        return scalar_meta() if expr.value != 0 else scalar_meta().with_sparsity(0.0)
    if kind is Compare:
        return scalar_meta()
    if kind is Call:
        if len(operands) != 1:
            raise TypeCheckError(f"{expr.func}() takes exactly one argument")
        return call_meta(expr.func, operands[0])
    raise TypeCheckError(f"cannot type expression node {kind.__name__}")


def static_shape(expr: Expr, env: Environment) -> tuple[int, int] | None:
    """Best-effort static shape; None when the environment can't resolve it."""
    try:
        meta = infer_expr_meta(expr, env)
        return meta.rows, meta.cols
    except (ShapeError, TypeCheckError):
        return None


def call_meta(func: str, arg: MatrixMeta) -> MatrixMeta:
    """The meta of builtin ``func`` applied to a value of meta ``arg``."""
    if func in SCALAR_BUILTINS:
        return scalar_meta()
    if func in CELLWISE_BUILTINS:
        # Cell-wise map: shape preserved; zero cells survive only for maps
        # with f(0) == 0 (exp and sigmoid densify the matrix).
        sparsity = arg.sparsity if func in ZERO_PRESERVING_BUILTINS else 1.0
        return MatrixMeta(arg.rows, arg.cols, sparsity,
                          symmetric=arg.symmetric)
    if func in STRUCTURAL_BUILTINS:
        if func == "rowsums":
            return MatrixMeta(arg.rows, 1, min(1.0, arg.sparsity * arg.cols))
        if func == "colsums":
            return MatrixMeta(1, arg.cols, min(1.0, arg.sparsity * arg.rows))
        if arg.rows != arg.cols:
            raise ShapeError(f"diag() expects a square matrix, "
                             f"got {arg.rows}x{arg.cols}")
        return MatrixMeta(arg.rows, 1, 1.0)
    raise TypeCheckError(f"unknown builtin {func!r}")


@dataclass
class TypedProgram:
    """Result of :func:`check_program`.

    ``env_before`` maps the index of each assignment (in execution order,
    loop bodies included once, using the *stable* second-pass environment)
    to the environment in effect when its RHS is evaluated. ``final_env``
    holds every variable's meta after the program runs.
    """

    program: Program
    env_before: list[Environment] = field(default_factory=list)
    assignments: list[Assign] = field(default_factory=list)
    final_env: Environment = field(default_factory=dict)


def check_program(program: Program, inputs: Environment) -> TypedProgram:
    """Type-check ``program`` against input metas.

    Loop bodies are evaluated twice: the first pass establishes metas for
    loop-carried variables, the second verifies shapes reached a fixpoint
    (a loop whose body changes a variable's shape each iteration is
    rejected). The recorded environments come from the second pass, so
    sparsity estimates reflect steady state.
    """
    env: Environment = dict(inputs)
    typed = TypedProgram(program=program)
    _check_block(program.statements, env, typed)
    typed.final_env = env
    return typed


def _check_block(statements: list[Statement] | tuple[Statement, ...],
                 env: Environment, typed: TypedProgram) -> None:
    for stmt in statements:
        if isinstance(stmt, Assign):
            snapshot = dict(env)
            meta = infer_expr_meta(stmt.expr, env)
            env[stmt.target] = meta
            typed.env_before.append(snapshot)
            typed.assignments.append(stmt)
        elif isinstance(stmt, WhileLoop):
            _check_loop(stmt, env, typed)
        else:  # pragma: no cover - defensive
            raise TypeCheckError(f"unknown statement type {type(stmt).__name__}")


def _check_loop(loop: WhileLoop, env: Environment, typed: TypedProgram) -> None:
    if loop.condition.variables() - {"__always__"}:
        for name in loop.condition.variables() - {"__always__"}:
            if name not in env:
                raise TypeCheckError(f"loop condition references undefined {name!r}")
    # First pass: establish shapes, recording nothing.
    scratch = TypedProgram(program=typed.program)
    first_env = dict(env)
    _check_block(loop.body, first_env, scratch)
    # Second pass from the first-pass environment: verify the fixpoint.
    second_env = dict(first_env)
    probe = TypedProgram(program=typed.program)
    _check_block(loop.body, second_env, probe)
    for name in first_env:
        before, after = first_env[name], second_env[name]
        if (before.rows, before.cols) != (after.rows, after.cols):
            raise ShapeError(
                f"loop-carried variable {name!r} changes shape across iterations: "
                f"{before.rows}x{before.cols} -> {after.rows}x{after.cols}")
    typed.env_before.extend(probe.env_before)
    typed.assignments.extend(probe.assignments)
    env.update(second_env)
