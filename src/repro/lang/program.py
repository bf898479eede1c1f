"""Program representation: assignments, while-loops, and whole scripts.

A :class:`Program` is a flat list of statements. Loops contain nested
statements (one level of nesting suffices for the paper's workloads, though
arbitrary nesting is supported). The class also offers the dataflow queries
the optimizer needs: which variables a loop body updates (loop-variant) and
which expressions are loop-constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

from ..errors import TypeCheckError
from .ast import Expr, MatrixRef, ScalarRef


@dataclass(frozen=True)
class Assign:
    """An assignment statement ``target = expr``."""

    target: str
    expr: Expr

    def __repr__(self) -> str:
        return f"{self.target} = {self.expr!r}"


@dataclass(frozen=True)
class WhileLoop:
    """A ``while (condition) { body }`` loop.

    ``max_iterations`` bounds execution in the simulator and feeds the LSE
    amortization in the cost model (an LSE's one-off cost is divided by the
    expected iteration count, as in §4.3.1 of the paper).
    """

    condition: Expr
    body: tuple["Statement", ...]
    max_iterations: int = 100

    def updated_variables(self) -> set[str]:
        """Variables assigned anywhere inside the loop body."""
        names: set[str] = set()
        for stmt in self.body:
            if isinstance(stmt, Assign):
                names.add(stmt.target)
            else:
                names.update(stmt.updated_variables())
        return names

    def assignments(self) -> Iterator[Assign]:
        """Yield all assignments in the body, recursing into nested loops."""
        for stmt in self.body:
            if isinstance(stmt, Assign):
                yield stmt
            else:
                yield from stmt.assignments()

    def __repr__(self) -> str:
        body = "; ".join(repr(s) for s in self.body)
        return f"while ({self.condition!r}) {{ {body} }}"


Statement = Assign | WhileLoop


@dataclass(frozen=True)
class Program:
    """A parsed script: declared inputs and outputs plus an ordered
    statement list.

    ``inputs`` names the free variables (datasets and initial values) that
    must be bound before execution. Anything assigned before first use is a
    temporary; anything read but never assigned must appear in ``inputs``.
    ``outputs`` names what a run returns: each is assigned or an input.
    Every other name dies at its last read (:func:`~repro.runtime.plan.
    live_after`); a program that declares none keeps every name to its end.

    A program is immutable — built in one go, shared freely between tenants
    and engines — so the texts that identify it are rendered at most once.
    """

    statements: tuple[Statement, ...] = ()
    inputs: tuple[str, ...] = ()
    outputs: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        # Callers may pass lists; what is kept can no longer change.
        object.__setattr__(self, "statements", tuple(self.statements))
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "outputs", tuple(self.outputs))
        if self.outputs:
            known = {*self.inputs,
                     *(stmt.target for stmt in self.assignments())}
            unknown = [name for name in self.outputs if name not in known]
            if unknown:
                raise TypeCheckError(
                    f"output {', '.join(map(repr, unknown))} is never "
                    f"assigned and is not an input")

    @cached_property
    def text(self) -> str:
        """The script text :func:`~repro.lang.printer.format_program` returns."""
        from .printer import format_statement  # the printer imports this module
        lines = ["input " + ", ".join(self.inputs)] if self.inputs else []
        if self.outputs:
            lines.append("output " + ", ".join(self.outputs))
        lines.extend(format_statement(stmt) for stmt in self.statements)
        return "\n".join(lines)

    @cached_property
    def loop_budgets(self) -> str:
        """Every loop's ``max_iterations`` (which the script text omits), in
        statement order, nested loops included."""
        return ",".join(str(loop.max_iterations) for loop in self._all_loops())

    def loops(self) -> list[WhileLoop]:
        """Return top-level loops in program order."""
        return [s for s in self.statements if isinstance(s, WhileLoop)]

    def assignments(self) -> Iterator[Assign]:
        """Yield every assignment in the program, in execution order."""
        for stmt in self.statements:
            if isinstance(stmt, Assign):
                yield stmt
            else:
                yield from stmt.assignments()

    def free_variables(self) -> set[str]:
        """Variables read before any assignment defines them (program inputs)."""
        free: set[str] = set()
        defined: set[str] = set()
        self._collect_free(self.statements, defined, free)
        return free

    def _collect_free(self, statements, defined: set[str], free: set[str]) -> None:
        for stmt in statements:
            if isinstance(stmt, Assign):
                for name in stmt.expr.variables():
                    if name not in defined:
                        free.add(name)
                defined.add(stmt.target)
            else:
                for name in stmt.condition.variables():
                    if name not in defined:
                        free.add(name)
                # A loop body may read a variable before the body assigns it
                # (carried dependency), which still makes it free/loop-carried
                # relative to the point of loop entry.
                self._collect_free(list(stmt.body), defined, free)

    def _all_loops(self) -> Iterator[WhileLoop]:
        """Every loop in statement order, each before the loops it contains."""
        def walk(statements) -> Iterator[WhileLoop]:
            for stmt in statements:
                if isinstance(stmt, WhileLoop):
                    yield stmt
                    yield from walk(stmt.body)
        return walk(self.statements)

    def loop_constant_variables(self, loop: WhileLoop) -> set[str]:
        """Variables read in ``loop`` whose values the loop never updates.

        These are the seeds for loop-constant subexpression elimination: a
        subexpression built only from loop-constant variables is itself
        loop-constant (§3.3 step 1*).
        """
        updated = loop.updated_variables()
        read: set[str] = set()
        for stmt in loop.assignments():
            read.update(stmt.expr.variables())
        return read - updated

    def __repr__(self) -> str:
        return "\n".join(repr(s) for s in self.statements)


def single_expression_program(expr: Expr, target: str = "out") -> Program:
    """Wrap one expression into a program, for expression-level optimization."""
    return Program(statements=[Assign(target, expr)])


def loop_program(body: list[Statement], condition: Expr | None = None,
                 max_iterations: int = 100, prologue: list[Statement] | None = None) -> Program:
    """Build a program with an optional prologue and a single loop.

    This is the shape of every algorithm in the paper's evaluation: some
    initialization statements followed by one iterative update loop.
    """
    if condition is None:
        condition = ScalarRef("__always__")
    statements: list[Statement] = list(prologue or [])
    statements.append(WhileLoop(condition=condition, body=tuple(body),
                                max_iterations=max_iterations))
    return Program(statements=statements)


__all__ = [
    "Assign",
    "WhileLoop",
    "Statement",
    "Program",
    "single_expression_program",
    "loop_program",
    "MatrixRef",
]
