"""Tokenizer and recursive-descent parser for the DML-like script language.

The grammar follows R/DML conventions, in particular matrix multiplication
``%*%`` binds *tighter* than cell-wise ``*`` and ``/`` (R's ``%any%``
precedence), which in turn bind tighter than ``+``/``-``::

    program    := statement*
    statement  := ('input' | 'output') ID (',' ID)* | ID '=' expr
                | while_loop
    while_loop := 'while' '(' expr ')' '{' statement* '}'
    expr       := additive (COMPARE additive)?
    additive   := multiplicative (('+'|'-') multiplicative)*
    multiplicative := matmul (('*'|'/') matmul)*
    matmul     := unary ('%*%' unary)*
    unary      := '-' unary | atom
    atom       := NUMBER | ID | ID '(' expr (',' expr)* ')' | '(' expr ')'

``t(X)`` is the transpose builtin; other builtins are listed in
:data:`repro.lang.ast.BUILTINS`. ``#`` starts a line comment.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..errors import ParseError
from .ast import (
    BUILTINS,
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

_TOKEN_SPEC = [
    ("COMMENT", r"#[^\n]*"),
    ("NUMBER", r"\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?"),
    ("MATMUL", r"%\*%"),
    ("COMPARE", r"<=|>=|==|!=|<|>"),
    ("ID", r"[A-Za-z_][A-Za-z0-9_]*"),
    ("OP", r"[+\-*/=(){},;]"),
    ("NEWLINE", r"\n"),
    ("SKIP", r"[ \t\r]+"),
    ("MISMATCH", r"."),
]
_TOKEN_RE = re.compile("|".join(f"(?P<{name}>{pattern})" for name, pattern in _TOKEN_SPEC))

_KEYWORDS = frozenset({"while", "input", "output"})


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    column: int


def tokenize(source: str) -> list[Token]:
    """Split ``source`` into tokens, dropping comments and whitespace."""
    tokens: list[Token] = []
    line = 1
    line_start = 0
    for match in _TOKEN_RE.finditer(source):
        kind = match.lastgroup or "MISMATCH"
        text = match.group()
        column = match.start() - line_start + 1
        if kind == "NEWLINE":
            line += 1
            line_start = match.end()
            continue
        if kind in ("SKIP", "COMMENT"):
            continue
        if kind == "MISMATCH":
            raise ParseError(f"unexpected character {text!r}", line, column)
        if kind == "ID" and text in _KEYWORDS:
            kind = "KEYWORD"
        tokens.append(Token(kind, text, line, column))
    tokens.append(Token("EOF", "", line, 1))
    return tokens


class _Parser:
    """Recursive-descent parser over a token list.

    ``scalar_names`` controls whether a bare identifier parses as a
    :class:`ScalarRef` or a :class:`MatrixRef`; the type checker later
    reconciles usage, but distinguishing early keeps the AST self-describing
    for common loop counters (``i``, ``k``, ``iter`` and declared scalars).
    """

    def __init__(self, tokens: list[Token], scalar_names: frozenset[str],
                 max_iterations: int):
        self._tokens = tokens
        self._pos = 0
        self._scalar_names = scalar_names
        self._max_iterations = max_iterations

    def _peek(self) -> Token:
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        self._pos += 1
        return token

    def _expect(self, kind: str, text: str | None = None) -> Token:
        token = self._peek()
        if token.kind != kind or (text is not None and token.text != text):
            wanted = text or kind
            raise ParseError(f"expected {wanted!r}, found {token.text!r}",
                             token.line, token.column)
        return self._advance()

    def _match(self, kind: str, text: str | None = None) -> bool:
        token = self._peek()
        if token.kind == kind and (text is None or token.text == text):
            self._advance()
            return True
        return False

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def parse_program(self) -> Program:
        statements: list[Statement] = []
        declared: dict[str, list[str]] = {"input": [], "output": []}
        while self._peek().kind != "EOF":
            if self._match("OP", ";"):
                continue
            statement = self._parse_statement(declared)
            if statement is not None:
                statements.append(statement)
        return Program(statements=statements, inputs=declared["input"],
                       outputs=declared["output"])

    def _parse_statement(self, declared: dict[str, list[str]]
                         ) -> Statement | None:
        """One statement; an ``input`` / ``output`` declaration extends
        ``declared``'s list of that name."""
        token = self._peek()
        if token.kind == "KEYWORD" and token.text in ("input", "output"):
            self._advance()
            names = declared[token.text]
            names.append(self._expect("ID").text)
            while self._match("OP", ","):
                names.append(self._expect("ID").text)
            return None
        if token.kind == "KEYWORD" and token.text == "while":
            return self._parse_while()
        if token.kind == "ID":
            name = self._advance().text
            self._expect("OP", "=")
            expr = self._parse_expr()
            self._match("OP", ";")
            return Assign(name, expr)
        raise ParseError(f"unexpected token {token.text!r}", token.line, token.column)

    def _parse_while(self) -> WhileLoop:
        self._expect("KEYWORD", "while")
        self._expect("OP", "(")
        condition = self._parse_expr()
        self._expect("OP", ")")
        self._expect("OP", "{")
        body: list[Statement] = []
        # An ``input`` or ``output`` inside a loop declares nothing.
        ignored: dict[str, list[str]] = {"input": [], "output": []}
        while not self._match("OP", "}"):
            if self._peek().kind == "EOF":
                token = self._peek()
                raise ParseError("unterminated while loop", token.line, token.column)
            if self._match("OP", ";"):
                continue
            statement = self._parse_statement(ignored)
            if statement is not None:
                body.append(statement)
        return WhileLoop(condition=condition, body=tuple(body),
                         max_iterations=self._max_iterations)

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def _parse_expr(self) -> Expr:
        left = self._parse_additive()
        if self._peek().kind == "COMPARE":
            op = self._advance().text
            right = self._parse_additive()
            return Compare(op, left, right)
        return left

    def _parse_additive(self) -> Expr:
        expr = self._parse_multiplicative()
        while True:
            if self._match("OP", "+"):
                expr = Add(expr, self._parse_multiplicative())
            elif self._match("OP", "-"):
                expr = Sub(expr, self._parse_multiplicative())
            else:
                return expr

    def _parse_multiplicative(self) -> Expr:
        expr = self._parse_matmul()
        while True:
            if self._match("OP", "*"):
                expr = ElemMul(expr, self._parse_matmul())
            elif self._match("OP", "/"):
                expr = ElemDiv(expr, self._parse_matmul())
            else:
                return expr

    def _parse_matmul(self) -> Expr:
        expr = self._parse_unary()
        while self._match("MATMUL"):
            expr = MatMul(expr, self._parse_unary())
        return expr

    def _parse_unary(self) -> Expr:
        if self._match("OP", "-"):
            return Neg(self._parse_unary())
        return self._parse_atom()

    def _parse_atom(self) -> Expr:
        token = self._peek()
        if token.kind == "NUMBER":
            self._advance()
            return Literal(float(token.text))
        if token.kind == "ID":
            name = self._advance().text
            if self._peek().kind == "OP" and self._peek().text == "(":
                return self._parse_call(name, token)
            if name in self._scalar_names:
                return ScalarRef(name)
            return MatrixRef(name)
        if self._match("OP", "("):
            expr = self._parse_expr()
            self._expect("OP", ")")
            return expr
        raise ParseError(f"unexpected token {token.text!r}", token.line, token.column)

    def _parse_call(self, name: str, token: Token) -> Expr:
        self._expect("OP", "(")
        args: list[Expr] = [self._parse_expr()]
        while self._match("OP", ","):
            args.append(self._parse_expr())
        self._expect("OP", ")")
        if name == "t":
            if len(args) != 1:
                raise ParseError("t() takes exactly one argument", token.line, token.column)
            return Transpose(args[0])
        if name not in BUILTINS:
            raise ParseError(f"unknown function {name!r}", token.line, token.column)
        return Call(name, tuple(args))


def parse(source: str, scalar_names: frozenset[str] | set[str] = frozenset(),
          max_iterations: int = 100) -> Program:
    """Parse a DML-like script into a :class:`~repro.lang.program.Program`.

    Parameters
    ----------
    source:
        Script text.
    scalar_names:
        Identifiers to parse as scalar references (loop counters, step
        sizes). All other identifiers parse as matrix references.
    max_iterations:
        Iteration bound recorded on every ``while`` loop, used for execution
        and LSE cost amortization.
    """
    tokens = tokenize(source)
    parser = _Parser(tokens, frozenset(scalar_names), max_iterations)
    return parser.parse_program()


def parse_expression(source: str,
                     scalar_names: frozenset[str] | set[str] = frozenset()) -> Expr:
    """Parse a single expression (no assignments)."""
    tokens = tokenize(source)
    parser = _Parser(tokens, frozenset(scalar_names), max_iterations=1)
    expr = parser._parse_expr()
    trailing = parser._peek()
    if trailing.kind != "EOF":
        raise ParseError(f"unexpected trailing token {trailing.text!r}",
                         trailing.line, trailing.column)
    return expr
