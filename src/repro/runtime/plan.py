"""Compiled program: what the optimizer hands the executor.

A :class:`CompiledProgram` is a rewritten :class:`~repro.lang.program.
Program` (hoisted loop-constant temporaries in the prologue, CSE temporaries
in place, multiplication chains re-parenthesized to the chosen execution
order) together with the optimizer's bookkeeping: which elimination options
were applied, the predicted cost, and how long compilation took (the
quantity Figs. 8(a)/10(a) report).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..lang.program import Program

#: Statement path: indices into (possibly nested) statement lists. A
#: top-level statement ``i`` is ``(i,)``; statement ``j`` inside the body of
#: the loop at path ``p`` is ``p + (j,)``. The cost evaluator records
#: predicted operator prices under these paths and the executor replays the
#: same walk, so the two sides can be matched operator by operator.
StatementPath = tuple


@dataclass(frozen=True)
class PredictedOp:
    """One operator's price as the optimizer's cost model predicted it.

    Recorded while costing the final plan (same walk the executor performs)
    so the execution tracer can attribute, per operator, the gap between
    what the cost model believed (estimated nnz, Eqs. 3-6) and what the
    runtime observed.
    """

    #: Logical operator kind: matmul, mmchain, add, subtract, multiply,
    #: divide, transpose, aggregate, map, structural.
    kind: str
    #: Predicted physical impl (local / bmm / bmm_flipped / cpmm / ...).
    impl: str
    seconds: float
    compute_seconds: float
    transmission_seconds: float
    out_rows: int
    out_cols: int
    #: Estimated nnz of the operator's output (the estimator's claim).
    out_nnz: float


@dataclass
class CompiledProgram:
    """Executable program plus optimizer provenance."""

    program: Program
    #: Elimination options actually applied (list of option descriptors).
    applied_options: list[Any] = field(default_factory=list)
    #: Options found by the search but not applied (contradictory or
    #: judged detrimental).
    rejected_options: list[Any] = field(default_factory=list)
    #: The optimizer's predicted cost of one full program run (seconds).
    estimated_cost: float = 0.0
    #: Real wall-clock seconds spent compiling/optimizing.
    compile_seconds: float = 0.0
    #: Free-form diagnostics (search statistics, estimator name, ...).
    notes: dict[str, Any] = field(default_factory=dict)
    #: Per-operator predicted prices keyed by statement path, in the order
    #: the operators execute within each statement (see :data:`StatementPath`).
    #: None when the plan predates prediction recording.
    predicted_ops: dict[StatementPath, tuple[PredictedOp, ...]] | None = None
    #: The executor's lowered records by block size and fusion flag: made on
    #: the first execute, shared by the plan cache's copies of this plan.
    lowered: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def num_applied(self) -> int:
        return len(self.applied_options)

    def describe(self) -> str:
        """One-line human-readable summary for benchmark logs."""
        applied = ", ".join(str(o) for o in self.applied_options) or "none"
        return (f"CompiledProgram(applied=[{applied}], "
                f"estimated_cost={self.estimated_cost:.4g}s, "
                f"compile={self.compile_seconds * 1e3:.1f}ms)")
