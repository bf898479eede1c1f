"""Printer tests: round-trip stability and minimal parenthesization."""

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.lang import (Literal, format_expr, format_literal, format_program,
                        parse, parse_expression)


ROUND_TRIP_CASES = [
    "A %*% B",
    "A %*% B %*% C",
    "A %*% (B %*% C)",
    "t(A) %*% A %*% d",
    "A + B * C",
    "(A + B) * C",
    "A - B - C",
    "A - (B - C)",
    "A / B / C",
    "A / (B / C)",
    "2 * t(d) %*% t(A) %*% A %*% d",
    "H - H %*% d %*% t(d) / (t(d) %*% d)",
    "sum(A %*% B)",
    "-A",
    "A %*% (-B)",
]


@pytest.mark.parametrize("source", ROUND_TRIP_CASES)
def test_expression_round_trip(source):
    """parse -> print -> parse reaches a fixpoint equal to the original AST."""
    expr = parse_expression(source)
    printed = format_expr(expr)
    assert parse_expression(printed) == expr


@pytest.mark.parametrize("source", ROUND_TRIP_CASES)
def test_print_is_stable(source):
    expr = parse_expression(source)
    once = format_expr(expr)
    twice = format_expr(parse_expression(once))
    assert once == twice


def test_right_associated_subtraction_keeps_parens():
    expr = parse_expression("A - (B - C)")
    assert format_expr(expr) == "A - (B - C)"


def test_left_associated_subtraction_drops_parens():
    expr = parse_expression("(A - B) - C")
    assert format_expr(expr) == "A - B - C"


def test_matmul_right_assoc_parens():
    expr = parse_expression("A %*% (B %*% C)")
    assert format_expr(expr) == "A %*% (B %*% C)"


def test_program_round_trip():
    source = """
input A, b, x
g = t(A) %*% (A %*% x - b)
i = 0
while (i < 10) {
  x = x - 0.01 * g
  i = i + 1
}
"""
    program = parse(source, scalar_names={"i"})
    printed = format_program(program)
    reparsed = parse(printed, scalar_names={"i"})
    assert format_program(reparsed) == printed
    assert reparsed.inputs == ("A", "b", "x")


def test_while_condition_printed():
    program = parse("while (i < 10) { i = i + 1 }", scalar_names={"i"})
    assert "while (i < 10)" in format_program(program)


def test_comparison_printing():
    expr = parse_expression("i + 1 <= n * 2", scalar_names={"i", "n"})
    assert format_expr(expr) == "i + 1 <= n * 2"


@pytest.mark.parametrize("value, text", [
    (0.0, "0"), (2.0, "2"), (0.01, "0.01"), (1e6, "1e+06"), (1e-7, "1e-07"),
    (123456.0, "123456"), (1234567.0, "1234567.0"), (1.0000001, "1.0000001"),
])
def test_literal_text(value, text):
    """``%g`` wherever it reads back as the value (every committed script,
    option key and report), ``repr`` where it would drop digits."""
    assert format_literal(value) == text
    assert format_expr(Literal(value)) == repr(Literal(value)) == text


@given(st.floats(min_value=0.0, allow_nan=False, allow_infinity=False))
def test_literal_round_trip(value):
    assert parse_expression(format_expr(Literal(value))) == Literal(value)


def test_program_is_immutable():
    """``Algorithm.program(n)`` hands one object to every tenant and engine
    in the process, and the program keeps the text that identifies it."""
    program = parse("input A, x\ny = A %*% x\n")
    text = format_program(program)
    for name in ("statements", "inputs"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(program, name, ())
        with pytest.raises(AttributeError):
            getattr(program, name).append(None)
    assert format_program(program) is text
