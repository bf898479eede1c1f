"""Pretty printing of expressions and programs back to script syntax.

The printer emits minimally-parenthesized DML-like text that round-trips
through :func:`repro.lang.parser.parse`, which the tests verify. It is used
for debugging rewritten programs and for the human-readable plan dumps in
benchmark reports.
"""

from __future__ import annotations

from .ast import (
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
    format_literal,
)
from .program import Assign, Program, Statement, WhileLoop

# Higher binds tighter. Mirrors the parser: + - (1) < * / (2) < %*% (3)
# < unary minus (4) < atoms (5).
_PRECEDENCE = {
    Add: 1,
    Sub: 1,
    ElemMul: 2,
    ElemDiv: 2,
    MatMul: 3,
    Neg: 4,
}

_SYMBOL = {Add: "+", Sub: "-", ElemMul: "*", ElemDiv: "/", MatMul: "%*%"}

#: Operators where the right child at equal precedence needs parentheses
#: (left-associative, non-commutative or non-associative with siblings).
_LEFT_ASSOCIATIVE = (Sub, ElemDiv, ElemMul, Add, MatMul)


def format_expr(expr: Expr, parent_precedence: int = 0, right_child: bool = False) -> str:
    """Render ``expr`` as script text with minimal parentheses."""
    if isinstance(expr, (MatrixRef, ScalarRef)):
        return expr.name
    if isinstance(expr, Literal):
        return format_literal(expr.value)
    if isinstance(expr, Transpose):
        return f"t({format_expr(expr.child)})"
    if isinstance(expr, Call):
        args = ", ".join(format_expr(a) for a in expr.args)
        return f"{expr.func}({args})"
    if isinstance(expr, Neg):
        inner = format_expr(expr.child, _PRECEDENCE[Neg])
        text = f"-{inner}"
        return f"({text})" if parent_precedence >= _PRECEDENCE[Neg] else text
    if isinstance(expr, Compare):
        left = format_expr(expr.left, 1)
        right = format_expr(expr.right, 1)
        return f"{left} {expr.op} {right}"
    kind = type(expr)
    if kind not in _SYMBOL:
        raise TypeError(f"cannot print expression node {kind.__name__}")
    precedence = _PRECEDENCE[kind]
    left = format_expr(expr.left, precedence)
    # A right child at the same precedence must be parenthesized for
    # left-associative operators: a - (b - c), a / (b / c).
    right = format_expr(expr.right, precedence, right_child=True)
    text = f"{left} {_SYMBOL[kind]} {right}"
    needs_parens = parent_precedence > precedence or (
        right_child and parent_precedence == precedence)
    return f"({text})" if needs_parens else text


def format_statement(stmt: Statement, indent: int = 0) -> str:
    """Render one statement (recursing into loops)."""
    pad = "  " * indent
    if isinstance(stmt, Assign):
        return f"{pad}{stmt.target} = {format_expr(stmt.expr)}"
    if isinstance(stmt, WhileLoop):
        lines = [f"{pad}while ({format_expr(stmt.condition)}) {{"]
        lines.extend(format_statement(inner, indent + 1) for inner in stmt.body)
        lines.append(f"{pad}}}")
        return "\n".join(lines)
    raise TypeError(f"cannot print statement type {type(stmt).__name__}")


def format_program(program: Program) -> str:
    """Render a whole program as script text (kept by the program)."""
    return program.text
