"""Parser and tokenizer tests: grammar, precedence, errors."""

import pytest

from repro.errors import ParseError, TypeCheckError
from repro.lang import (
    Add,
    Assign,
    Call,
    Compare,
    ElemDiv,
    ElemMul,
    Literal,
    MatMul,
    MatrixRef,
    Neg,
    ScalarRef,
    Sub,
    Transpose,
    WhileLoop,
    parse,
    parse_expression,
    tokenize,
)


class TestTokenizer:
    def test_tokenizes_matmul_operator(self):
        kinds = [t.kind for t in tokenize("A %*% B")]
        assert kinds == ["ID", "MATMUL", "ID", "EOF"]

    def test_tokenizes_numbers(self):
        tokens = tokenize("1 2.5 .5 1e3 2.5e-2")
        values = [t.text for t in tokens if t.kind == "NUMBER"]
        assert values == ["1", "2.5", ".5", "1e3", "2.5e-2"]

    def test_comments_are_dropped(self):
        tokens = tokenize("A # this is a comment\nB")
        assert [t.text for t in tokens if t.kind == "ID"] == ["A", "B"]

    def test_comparison_operators(self):
        tokens = tokenize("< <= > >= == !=")
        assert all(t.kind == "COMPARE" for t in tokens[:-1])

    def test_line_numbers_advance(self):
        tokens = tokenize("A\nB\nC")
        lines = [t.line for t in tokens if t.kind == "ID"]
        assert lines == [1, 2, 3]

    def test_unexpected_character_raises_with_location(self):
        with pytest.raises(ParseError) as excinfo:
            tokenize("A @ B")
        assert excinfo.value.line == 1

    def test_keywords_recognized(self):
        tokens = tokenize("while input")
        assert [t.kind for t in tokens[:-1]] == ["KEYWORD", "KEYWORD"]


class TestExpressionParsing:
    def test_matmul_binds_tighter_than_elemwise(self):
        # R precedence: %*% > *, so a * B %*% C is a * (B %*% C).
        expr = parse_expression("a * B %*% C")
        assert isinstance(expr, ElemMul)
        assert isinstance(expr.right, MatMul)

    def test_elemwise_binds_tighter_than_add(self):
        expr = parse_expression("A + B * C")
        assert isinstance(expr, Add)
        assert isinstance(expr.right, ElemMul)

    def test_matmul_is_left_associative(self):
        expr = parse_expression("A %*% B %*% C")
        assert isinstance(expr, MatMul)
        assert isinstance(expr.left, MatMul)
        assert expr.right == MatrixRef("C")

    def test_subtraction_left_associative(self):
        expr = parse_expression("A - B - C")
        assert expr == Sub(Sub(MatrixRef("A"), MatrixRef("B")), MatrixRef("C"))

    def test_parentheses_override(self):
        expr = parse_expression("A %*% (B + C)")
        assert isinstance(expr, MatMul)
        assert isinstance(expr.right, Add)

    def test_transpose_builtin(self):
        expr = parse_expression("t(A)")
        assert expr == Transpose(MatrixRef("A"))

    def test_nested_transpose(self):
        expr = parse_expression("t(t(A) %*% B)")
        assert isinstance(expr, Transpose)
        assert isinstance(expr.child, MatMul)

    def test_unary_minus(self):
        expr = parse_expression("-A %*% B")
        assert isinstance(expr, MatMul)
        assert isinstance(expr.left, Neg)

    def test_scalar_names_parse_as_scalar_refs(self):
        expr = parse_expression("alpha * g", scalar_names={"alpha"})
        assert expr == ElemMul(ScalarRef("alpha"), MatrixRef("g"))

    def test_literals(self):
        expr = parse_expression("2 * A")
        assert expr == ElemMul(Literal(2.0), MatrixRef("A"))

    def test_comparison(self):
        expr = parse_expression("i < 10", scalar_names={"i"})
        assert expr == Compare("<", ScalarRef("i"), Literal(10.0))

    def test_builtin_call(self):
        expr = parse_expression("sum(A)")
        assert expr == Call("sum", (MatrixRef("A"),))

    def test_unknown_function_raises(self):
        with pytest.raises(ParseError, match="unknown function"):
            parse_expression("foo(A)")

    def test_t_requires_one_argument(self):
        with pytest.raises(ParseError, match="exactly one"):
            parse_expression("t(A, B)")

    def test_trailing_tokens_rejected(self):
        with pytest.raises(ParseError, match="trailing"):
            parse_expression("A B")

    def test_division_of_chain_by_scalar_chain(self):
        expr = parse_expression("A %*% d / (t(d) %*% d)")
        assert isinstance(expr, ElemDiv)
        assert isinstance(expr.left, MatMul)


class TestProgramParsing:
    def test_simple_assignment(self):
        program = parse("y = A %*% x")
        assert len(program.statements) == 1
        stmt = program.statements[0]
        assert isinstance(stmt, Assign)
        assert stmt.target == "y"

    def test_input_declaration(self):
        program = parse("input A, b, x\ny = A %*% x")
        assert program.inputs == ("A", "b", "x")

    def test_output_declaration_is_kept_in_the_text(self):
        source = "input A, x\noutput y, x\ny = A %*% x"
        program = parse(source)
        assert program.outputs == ("y", "x")
        assert program.text == source
        assert parse(program.text) == program
        # Without one, the text is what it was before outputs existed.
        assert parse("input A, x\ny = A %*% x").text \
            == "input A, x\ny = A %*% x"

    @pytest.mark.parametrize("source", [
        "input A\noutput z\ny = A", "output A\ny = A"])
    def test_an_output_never_assigned_and_not_an_input_is_refused(
            self, source):
        with pytest.raises(TypeCheckError, match="output 'z'|output 'A'"):
            parse(source)

    def test_while_loop(self):
        program = parse("while (i < 10) { x = A %*% x \n i = i + 1 }",
                        scalar_names={"i"})
        loop = program.statements[0]
        assert isinstance(loop, WhileLoop)
        assert len(loop.body) == 2

    def test_max_iterations_recorded(self):
        program = parse("while (i < 10) { i = i + 1 }", scalar_names={"i"},
                        max_iterations=7)
        assert program.statements[0].max_iterations == 7

    def test_unterminated_loop_raises(self):
        with pytest.raises(ParseError, match="unterminated"):
            parse("while (i < 10) { x = A %*% x", scalar_names={"i"})

    def test_semicolons_optional(self):
        program = parse("a = B %*% c; d = B %*% a;")
        assert len(program.statements) == 2

    def test_statement_requires_assignment(self):
        with pytest.raises(ParseError):
            parse("A %*% B")

    def test_free_variables(self):
        program = parse("g = t(A) %*% (A %*% x - b)")
        assert program.free_variables() == {"A", "x", "b"}

    def test_loop_constant_variables(self):
        program = parse("""
            while (i < 10) {
              d = H %*% g
              H = H - d %*% t(d)
              i = i + 1
            }""", scalar_names={"i"})
        loop = program.loops()[0]
        constants = program.loop_constant_variables(loop)
        assert "g" in constants
        assert "H" not in constants
        assert "d" not in constants

    def test_nested_loop_updated_variables(self):
        program = parse("""
            while (i < 3) {
              while (j < 3) {
                x = A %*% x
                j = j + 1
              }
              i = i + 1
            }""", scalar_names={"i", "j"})
        outer = program.loops()[0]
        assert outer.updated_variables() == {"x", "i", "j"}
