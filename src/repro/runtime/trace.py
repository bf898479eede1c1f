"""Operator-level execution tracing with predicted-vs-observed drift.

An :class:`ExecutionTracer` threads through :class:`~repro.runtime.executor.
Executor` and :class:`~repro.runtime.physical.Kernels` and records one span
per executed operator: the chosen physical impl, operand shapes, estimated
vs observed nnz, the cost model's predicted price vs the simulated seconds
actually charged (split into compute and transmission), bytes per
transmission primitive, and the per-worker placement of distributed
outputs. Statement, loop, and loop-iteration spans wrap the operator spans
so LSE hoisting is visible in the trace (hoisted temporaries execute as
statement spans before the loop span).

Predictions come from the compiled plan's records: the optimizer's final
cost evaluation writes a :class:`~repro.runtime.plan.PredictedOp` onto each
record it priced, and the executor tells the tracer which record is running
(:attr:`ExecutionTracer.running`), so each operator span carries the
prediction of the record that ran it. A run no compile prepared has its
records prepared the same way at run start, so its spans carry predictions
too; loop conditions, which the cost model does not price, carry none.

Tracing is strictly opt-in and zero-cost when off: no tracer installed
means no span objects are allocated, no placement scans run, and every
hook is a single ``is None`` check.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Iterator

from ..matrix.meta import MatrixMeta
from ..matrix.partitioner import worker_of_block
from .plan import StatementPath

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from .physical import Value
    from .plan import Op
    from .pricing import OpPrice

#: Observed seconds below this are treated as zero when forming drift
#: ratios, so free operators cannot produce infinite ranks.
_EPSILON_SECONDS = 1e-12


def _path_str(path: StatementPath) -> str:
    return ".".join(str(part) for part in path)


def _meta_dict(meta: MatrixMeta) -> dict:
    return {"rows": meta.rows, "cols": meta.cols, "nnz": meta.nnz}


class ExecutionTracer:
    """Collects execution spans for one (or more) traced program runs.

    The tracer is reusable across repeated runs of the same engine: each
    run appends spans, and aggregate views (:meth:`drift_report`,
    :meth:`metrics_summary`) cover everything recorded so far.
    """

    def __init__(self) -> None:
        #: Flat list of span dicts in completion order (operator spans
        #: precede their enclosing statement/iteration/loop spans).
        self.spans: list[dict] = []
        #: The record whose operator the kernels run next (set by the
        #: executor); its prediction goes on that operator's span.
        self.running: Op | None = None
        self._num_workers = 1
        self._seq = 0
        #: Plan generation: 0 = the original compile; each adopted replan
        #: increments it via :meth:`begin_run`.
        self._generation = 0
        # Current statement context.
        self._stmt_path: StatementPath | None = None
        self._stmt_kind = "statement"
        self._stmt_target: str | None = None
        self._stmt_ops = 0
        self._stmt_seconds = 0.0
        # Loop nesting context: (path, current iteration index or None).
        self._loop_stack: list[list] = []

    # ------------------------------------------------------------------
    # Run / statement / loop lifecycle (called by the executor)
    # ------------------------------------------------------------------
    def begin_run(self, num_workers: int, generation: int = 0) -> None:
        """Start one plan's execution on ``num_workers`` workers.

        ``generation`` tags spans recorded under a mid-run replan (adopted
        plan N stamps ``gen: N``); generation 0 — the original plan — stamps
        nothing, so traces without replanning stay byte-identical."""
        self._num_workers = num_workers
        self._generation = generation

    def set_num_workers(self, num_workers: int) -> None:
        """Track cluster shrinkage (a crashed worker) mid-run, so placement
        views in later operator spans reflect the remaining workers."""
        self._num_workers = num_workers

    def begin_statement(self, path: StatementPath, target: str | None,
                        kind: str = "statement") -> None:
        self._stmt_path = path
        self._stmt_kind = kind
        self._stmt_target = target
        self._stmt_ops = 0
        self._stmt_seconds = 0.0

    def end_statement(self) -> None:
        self._append_span({
            "span": self._stmt_kind,
            "statement": _path_str(self._stmt_path or ()),
            "target": self._stmt_target,
            "operators": self._stmt_ops,
            "seconds": self._stmt_seconds,
            **self._loop_context(),
        })
        self._stmt_path = None
        self._stmt_target = None

    def begin_loop(self, path: StatementPath) -> None:
        # Frame: [path, current iteration index, loop seconds, iter seconds].
        self._loop_stack.append([path, None, 0.0, 0.0])

    def begin_iteration(self, index: int) -> None:
        frame = self._loop_stack[-1]
        frame[1] = index
        frame[3] = 0.0

    def end_iteration(self) -> None:
        frame = self._loop_stack[-1]
        index = frame[1]
        frame[1] = None
        self._append_span({
            "span": "iteration",
            "loop": _path_str(frame[0]),
            "iteration": index,
            "seconds": frame[3],
        })

    def end_loop(self, iterations: int) -> None:
        frame = self._loop_stack.pop()
        self._append_span({
            **self._loop_context(),  # enclosing loop, for nested loops
            "span": "loop",
            "loop": _path_str(frame[0]),
            "iterations": iterations,
            "seconds": frame[2],
        })

    # ------------------------------------------------------------------
    # Operator spans (called by the kernels)
    # ------------------------------------------------------------------
    def record_operator(self, kind: str, price: "OpPrice",
                        operands: tuple[MatrixMeta, ...],
                        result: "Value") -> None:
        """Record one executed operator with its charged price and the
        prediction of the record that ran it (:attr:`running`).

        ``operands`` are the *effective* (post-fused-transpose) metas the
        kernel priced; ``result`` is the produced value, whose actual block
        placement is scanned for the per-worker view.
        """
        predicted = None if self.running is None else self.running.predicted
        transmission_seconds = price.transmission_seconds
        observed_seconds = price.compute_seconds + transmission_seconds
        bytes_by_primitive: dict[str, float] = {}
        for primitive, nbytes in price.transmissions:
            bytes_by_primitive[primitive] = \
                bytes_by_primitive.get(primitive, 0.0) + nbytes
        span = {
            "span": "operator",
            "op": kind,
            "impl": price.impl,
            "statement": _path_str(self._stmt_path or ()),
            "target": self._stmt_target,
            "op_index": self._stmt_ops,
            "operands": [_meta_dict(meta) for meta in operands],
            "out": _meta_dict(result.meta),
            "distributed": result.distributed,
            "observed": {
                "seconds": observed_seconds,
                "compute_seconds": price.compute_seconds,
                "transmission_seconds": transmission_seconds,
                "bytes": bytes_by_primitive,
            },
            "predicted": None if predicted is None else {
                "impl": predicted.impl,
                "seconds": predicted.seconds,
                "compute_seconds": predicted.compute_seconds,
                "transmission_seconds": predicted.transmission_seconds,
                "out_nnz": predicted.out_nnz,
            },
            "workers": self._placement(result),
            **self._loop_context(),
        }
        self._stmt_ops += 1
        self._stmt_seconds += observed_seconds
        for frame in self._loop_stack:
            frame[2] += observed_seconds
            frame[3] += observed_seconds
        self._append_span(span)

    # ------------------------------------------------------------------
    # Fault / recovery events (called by the recovery manager)
    # ------------------------------------------------------------------
    def record_event(self, kind: str, **payload) -> None:
        """Record one fault or recovery span (``crash`` / ``recovery`` /
        ``retry`` / ``straggler`` / ``checkpoint``), stamped with the
        current statement and loop context like operator spans."""
        self._append_span({
            "span": kind,
            "statement": _path_str(self._stmt_path or ()),
            "target": self._stmt_target,
            **self._loop_context(),
            **payload,  # explicit loop/iteration (e.g. checkpoints) wins
        })

    def _placement(self, result: "Value") -> dict[str, float] | None:
        if not result.distributed or self._num_workers <= 1:
            return None
        totals: dict[str, float] = {}
        for key, block in result.matrix.iter_blocks():
            worker = worker_of_block(*key, self._num_workers)
            label = str(worker)
            totals[label] = totals.get(label, 0.0) + block.serialized_bytes()
        return totals

    def _loop_context(self) -> dict:
        if not self._loop_stack:
            return {"loop": None, "iteration": None}
        frame = self._loop_stack[-1]
        return {"loop": _path_str(frame[0]), "iteration": frame[1]}

    def _append_span(self, span: dict) -> None:
        span["seq"] = self._seq
        self._seq += 1
        if self._generation:
            span["gen"] = self._generation
        self.spans.append(span)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def operator_spans(self) -> Iterator[dict]:
        return (span for span in self.spans if span["span"] == "operator")

    def drift_report(self) -> list[dict]:
        """Rank static operator sites by |predicted - observed| cost ratio.

        Spans are grouped per static operator (statement path + position
        within the statement), so an operator inside a loop aggregates all
        its iterations. The ratio ``|predicted - observed| / observed`` is
        the sparsity-estimator quality signal the paper's §6.3 comparison
        studies: with a perfect estimator it collapses toward zero, and the
        largest entries point at the operators whose estimated nnz was most
        wrong.
        """
        sites: dict[tuple, dict] = {}
        for span in self.operator_spans():
            key = (span["statement"], span["op_index"], span["op"])
            site = sites.get(key)
            if site is None:
                site = sites[key] = {
                    "statement": span["statement"],
                    "target": span["target"],
                    "op_index": span["op_index"],
                    "op": span["op"],
                    "impl_observed": span["impl"],
                    "impl_predicted": None,
                    "executions": 0,
                    "observed_seconds": 0.0,
                    "predicted_seconds": 0.0,
                    "observed_nnz": 0.0,
                    "predicted_nnz": 0.0,
                    "matched": 0,
                }
            site["executions"] += 1
            site["observed_seconds"] += span["observed"]["seconds"]
            site["observed_nnz"] = span["out"]["nnz"]
            predicted = span["predicted"]
            if predicted is not None:
                site["matched"] += 1
                site["predicted_seconds"] += predicted["seconds"]
                site["predicted_nnz"] = predicted["out_nnz"]
                site["impl_predicted"] = predicted["impl"]
        report = []
        for site in sites.values():
            observed = site["observed_seconds"]
            if site["matched"]:
                drift = abs(site["predicted_seconds"] - observed)
                site["drift_ratio"] = drift / max(observed, _EPSILON_SECONDS)
                nnz_gap = abs(site["predicted_nnz"] - site["observed_nnz"])
                site["nnz_drift_ratio"] = nnz_gap / max(site["observed_nnz"], 1.0)
            else:
                # Unpredicted operators (e.g. loop-condition expressions)
                # are 100% drift by definition: the model priced nothing.
                site["drift_ratio"] = 1.0 if observed > _EPSILON_SECONDS else 0.0
                site["nnz_drift_ratio"] = 0.0
            report.append(site)
        report.sort(key=lambda site: (-site["drift_ratio"],
                                      -site["observed_seconds"],
                                      site["statement"], site["op_index"]))
        return report

    def metrics_summary(self) -> dict[str, float]:
        """Additive aggregates for :meth:`MetricsCollector.summary`.

        Every key is a plain sum so collectors merge by addition; the
        derived ``trace_drift_ratio`` is recomputed from the sums at
        summary time.
        """
        spans = matched = fused = 0
        predicted_seconds = observed_seconds = abs_drift_seconds = 0.0
        for span in self.operator_spans():
            spans += 1
            if span["op"] in ("fused_ewise", "mmchain"):
                fused += 1
            seconds = span["observed"]["seconds"]
            observed_seconds += seconds
            predicted = span["predicted"]
            if predicted is not None:
                matched += 1
                predicted_seconds += predicted["seconds"]
                abs_drift_seconds += abs(predicted["seconds"] - seconds)
        return {
            "trace_operator_spans": float(spans),
            "trace_matched_spans": float(matched),
            #: Spans executed by a fused operator (fused_ewise / mmchain);
            #: each one replaced two or more unfused operator spans.
            "trace_fused_spans": float(fused),
            "trace_predicted_seconds": predicted_seconds,
            "trace_observed_seconds": observed_seconds,
            "trace_abs_drift_seconds": abs_drift_seconds,
        }

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_json_lines(self) -> Iterator[str]:
        """One compact JSON object per span, in completion order."""
        for span in self.spans:
            yield json.dumps(span, separators=(",", ":"))

    def write_jsonl(self, path: str) -> int:
        """Write the trace to ``path`` (one span per line); returns #spans."""
        with open(path, "w") as handle:
            for line in self.to_json_lines():
                handle.write(line + "\n")
        return len(self.spans)
