"""DML-like language front-end: AST, parser, programs, and type checking."""

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
from .parser import parse, parse_expression, tokenize
from .printer import format_expr, format_program, format_statement
from .program import Assign, Program, Statement, WhileLoop, loop_program, single_expression_program
from .typecheck import Environment, TypedProgram, check_program, infer_expr_meta

__all__ = [
    "Add", "Call", "Compare", "ElemDiv", "ElemMul", "Expr", "Literal",
    "MatMul", "MatrixRef", "Neg", "ScalarRef", "Sub", "Transpose",
    "parse", "parse_expression", "tokenize",
    "format_expr", "format_literal", "format_program", "format_statement",
    "Assign", "Program", "Statement", "WhileLoop",
    "loop_program", "single_expression_program",
    "Environment", "TypedProgram", "check_program", "infer_expr_meta",
]
