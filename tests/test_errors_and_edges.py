"""Error-path and edge-case tests across the public surface."""

import pytest

from repro.errors import (
    ExecutionError,
    OptimizerError,
    ParseError,
    ReproError,
    SearchBudgetExceeded,
    ShapeError,
    TypeCheckError,
)
from repro.lang import format_expr, parse, parse_expression
from repro.lang.ast import Call, Literal, MatrixRef
from repro.matrix import MatrixMeta


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        for cls in (ParseError, ShapeError, TypeCheckError, OptimizerError,
                    ExecutionError, SearchBudgetExceeded):
            assert issubclass(cls, ReproError)

    def test_parse_error_carries_location(self):
        error = ParseError("boom", line=3, column=7)
        assert "line 3" in str(error) and "column 7" in str(error)
        assert error.line == 3 and error.column == 7

    def test_parse_error_without_location(self):
        assert str(ParseError("boom")) == "boom"

    def test_search_budget_carries_explored(self):
        error = SearchBudgetExceeded("over", explored=42)
        assert error.explored == 42

    def test_single_catch_point(self):
        """One except clause at an API boundary covers the library."""
        with pytest.raises(ReproError):
            parse("while (")
        with pytest.raises(ReproError):
            MatrixMeta(0, 1)


class TestParserLocations:
    def test_error_line_numbers(self):
        with pytest.raises(ParseError) as excinfo:
            parse("a = B %*% c\nd = @")
        assert excinfo.value.line == 2

    def test_unexpected_token_reports_text(self):
        with pytest.raises(ParseError, match="'\\)'"):
            parse_expression("A %*% )")

    def test_empty_program(self):
        program = parse("")
        assert program.statements == ()

    def test_comment_only_program(self):
        program = parse("# nothing here\n# at all")
        assert program.statements == ()


class TestPrinterEdges:
    def test_call_inside_chain(self):
        source = "sum(A %*% B) * 2"
        expr = parse_expression(source)
        assert parse_expression(format_expr(expr)) == expr

    def test_deeply_nested_parens(self):
        source = "A %*% (B %*% (C %*% (D %*% E)))"
        expr = parse_expression(source)
        assert parse_expression(format_expr(expr)) == expr

    def test_literal_formats(self):
        assert format_expr(Literal(2.5)) == "2.5"
        assert format_expr(Literal(1e-06)) == "1e-06"

    def test_neg_of_chain(self):
        expr = parse_expression("-(A %*% B) + C")
        assert parse_expression(format_expr(expr)) == expr

    def test_unprintable_node_rejected(self):
        class Weird(MatrixRef):
            pass
        # A subclass still prints (duck typing on the dataclass), but an
        # unknown call formats through Call handling.
        assert format_expr(Call("sum", (MatrixRef("A"),))) == "sum(A)"


class TestOperatorSugar:
    """The AST's Python operator overloads used by tests and notebooks."""

    def test_matmul_add_sub(self):
        A, B = MatrixRef("A"), MatrixRef("B")
        assert format_expr(A @ B) == "A %*% B"
        assert format_expr(A + B - A) == "A + B - A"

    def test_scalar_coercion(self):
        A = MatrixRef("A")
        assert format_expr(2 * A) == "2 * A"
        assert format_expr(A / 3) == "A / 3"

    def test_transpose_property(self):
        A = MatrixRef("A")
        assert format_expr(A.T @ A) == "t(A) %*% A"

    def test_neg(self):
        A = MatrixRef("A")
        assert parse_expression(format_expr(-A)) == -A

    def test_bad_coercion_rejected(self):
        with pytest.raises(TypeError):
            MatrixRef("A") + "nope"
