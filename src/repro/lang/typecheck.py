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


def infer_expr_meta(expr: Expr, env: Environment) -> MatrixMeta:
    """Infer the meta of ``expr`` under ``env``; raises on shape errors."""
    if isinstance(expr, (MatrixRef, ScalarRef)):
        try:
            return env[expr.name]
        except KeyError:
            raise TypeCheckError(f"undefined variable {expr.name!r}") from None
    if isinstance(expr, Literal):
        return scalar_meta() if expr.value != 0 else scalar_meta().with_sparsity(0.0)
    if isinstance(expr, Transpose):
        return infer_expr_meta(expr.child, env).transposed()
    if isinstance(expr, Neg):
        return infer_expr_meta(expr.child, env)
    if isinstance(expr, MatMul):
        return _matmul_meta(infer_expr_meta(expr.left, env), infer_expr_meta(expr.right, env))
    if isinstance(expr, (Add, Sub)):
        return _ewise_meta(expr, env, rules.add_sparsity, densify_on_scalar=True)
    if isinstance(expr, ElemMul):
        return _ewise_meta(expr, env, rules.mul_sparsity, densify_on_scalar=False)
    if isinstance(expr, ElemDiv):
        return _ewise_meta(expr, env, rules.div_sparsity, densify_on_scalar=False)
    if isinstance(expr, Compare):
        infer_expr_meta(expr.left, env)
        infer_expr_meta(expr.right, env)
        return scalar_meta()
    if isinstance(expr, Call):
        return _call_meta(expr, env)
    raise TypeCheckError(f"cannot type expression node {type(expr).__name__}")


def static_shape(expr: Expr, env: Environment) -> tuple[int, int] | None:
    """Best-effort static shape; None when the environment can't resolve it."""
    try:
        meta = infer_expr_meta(expr, env)
        return meta.rows, meta.cols
    except (ShapeError, TypeCheckError):
        return None


def _matmul_meta(left: MatrixMeta, right: MatrixMeta) -> MatrixMeta:
    # Scalar-like operands of %*% behave as scalar multiplication in the
    # degenerate 1x1 case only when shapes agree; a genuine mismatch raises.
    rows, cols = left.matmul_shape(right)
    sparsity = rules.matmul_sparsity(left.sparsity, right.sparsity, left.cols)
    symmetric = rows == cols and rows == 1
    return MatrixMeta(rows, cols, sparsity, symmetric=symmetric)


def _ewise_meta(expr, env: Environment, combine, densify_on_scalar: bool) -> MatrixMeta:
    left = infer_expr_meta(expr.left, env)
    right = infer_expr_meta(expr.right, env)
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
    return MatrixMeta(rows, cols, rules.clamp(base), symmetric=sym and rows == cols)


def _call_meta(expr: Call, env: Environment) -> MatrixMeta:
    if len(expr.args) != 1:
        raise TypeCheckError(f"{expr.func}() takes exactly one argument")
    arg = infer_expr_meta(expr.args[0], env)
    if expr.func in SCALAR_BUILTINS:
        return scalar_meta()
    if expr.func in CELLWISE_BUILTINS:
        # Cell-wise map: shape preserved; zero cells survive only for maps
        # with f(0) == 0 (exp and sigmoid densify the matrix).
        sparsity = arg.sparsity if expr.func in ZERO_PRESERVING_BUILTINS else 1.0
        return MatrixMeta(arg.rows, arg.cols, sparsity,
                          symmetric=arg.symmetric)
    if expr.func in STRUCTURAL_BUILTINS:
        if expr.func == "rowsums":
            return MatrixMeta(arg.rows, 1, min(1.0, arg.sparsity * arg.cols))
        if expr.func == "colsums":
            return MatrixMeta(1, arg.cols, min(1.0, arg.sparsity * arg.rows))
        if arg.rows != arg.cols:
            raise ShapeError(f"diag() expects a square matrix, "
                             f"got {arg.rows}x{arg.cols}")
        return MatrixMeta(arg.rows, 1, 1.0)
    raise TypeCheckError(f"unknown builtin {expr.func!r}")


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

    def meta_of_target(self, name: str) -> MatrixMeta:
        try:
            return self.final_env[name]
        except KeyError:
            raise TypeCheckError(f"variable {name!r} never defined") from None


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
