"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError`, so callers
can catch one type at an API boundary. The subclasses mirror the pipeline
stages: parsing, type checking, planning/optimization, and execution.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ParseError(ReproError):
    """A script could not be tokenized or parsed.

    Carries ``line`` and ``column`` (1-based) of the offending token when
    available.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        location = ""
        if line is not None:
            location = f" at line {line}"
            if column is not None:
                location += f", column {column}"
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class ConfigError(ReproError):
    """A configuration object is invalid (caught at construction).

    Raised by :class:`~repro.config.ClusterConfig` validation and by fault
    plan parsing, so a bad knob fails loudly up front instead of producing
    NaN or negative simulated times downstream.
    """


class ShapeError(ReproError):
    """Operand shapes are incompatible for an operator."""


class TypeCheckError(ReproError):
    """A program references undefined symbols or mixes types illegally."""


class OptimizerError(ReproError):
    """The optimizer reached an inconsistent state (internal invariant)."""


class ExecutionError(ReproError):
    """The simulated runtime failed while executing a physical plan.

    When the failure happens mid-program the executor annotates the error
    with the statement it was running — ``statement_path`` uses the same
    dotted-path notation the execution tracer records in its spans (e.g.
    ``"2.1"``, or ``"2.cond"`` for a loop condition) and
    ``statement_target`` names the variable being assigned — so failures
    name the statement, not just the kernel.
    """

    #: Dotted statement path set by the executor (None outside a program).
    statement_path: str | None = None
    #: Assignment target of the failing statement (None for conditions).
    statement_target: str | None = None

    def annotate_statement(self, path: str, target: str | None) -> None:
        """Attach the executing statement once (innermost wins)."""
        if self.statement_path is not None:
            return
        self.statement_path = path
        self.statement_target = target
        where = f"at statement {path}" if path else "at statement <top>"
        what = f", assigning {target!r}" if target else ", in loop condition"
        if self.args:
            self.args = (f"{self.args[0]} [{where}{what}]",) + self.args[1:]
        else:  # pragma: no cover - errors always carry a message
            self.args = (f"execution failed [{where}{what}]",)


class SearchBudgetExceeded(ReproError):
    """A search baseline (e.g. tree-wise) exceeded its safety budget.

    The tree-wise baseline enumerates full plan trees, which is exponential;
    benchmarks cap it and report the cap being hit, as the paper reports
    ">8 hours" for DFP/BFGS.
    """

    def __init__(self, message: str, explored: int = 0):
        super().__init__(message)
        self.explored = explored
