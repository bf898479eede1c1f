"""Cost-priced operator fusion: simulated fused vs unfused cost.

Runs the fusion-eligible workloads (the mmchain pattern ``t(X) %*% (X %*%
v)``, its wide right-hand-side variant, a broadcast-saving element-wise
chain, and one end-to-end engine run) twice — with fusion enabled and with
``--no-fusion`` semantics — and reports the *simulated* execution seconds
plus transmission/materialization volumes for each. Before timing
anything, every workload is checked for bit-identity between the fused
and unfused paths: fusion is priced, never forced, and may only change
the simulated metrics.

Unlike the execution-throughput benchmark, the headline numbers here are
simulated cluster seconds, so they are host-independent: the >=1.5x
acceptance floor is asserted on any host for non-smoke runs.

Run standalone (no pytest-benchmark needed)::

    PYTHONPATH=src python benchmarks/bench_fusion_throughput.py --smoke
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.config import ClusterConfig
from repro.lang import parse_expression
from repro.lang.program import single_expression_program
from repro.runtime import ExecutionPolicy, Executor

SPEEDUP_FLOOR = 1.5  # simulated-seconds acceptance, non-smoke only

FUSED = replace(ExecutionPolicy.systemds(), fuse=True)
UNFUSED = ExecutionPolicy.systemds()


def _expression_workloads(smoke: bool):
    rng = np.random.default_rng(7)
    tall_rows = 5_000 if smoke else 50_000
    side = 256 if smoke else 1_024
    tall = rng.random((tall_rows, 100))
    v = rng.random((100, 1))
    wide = rng.random((100, 900))
    dense = rng.random((side, side))
    sparse = rng.random((side, side)) * (rng.random((side, side)) < 0.02)
    return [
        ("mmchain t(X)(Xv)", "t(X) %*% (X %*% v)", {"X": tall, "v": v}),
        ("mmchain wide rhs", "t(X) %*% (X %*% W)", {"X": tall, "W": wide}),
        ("ewise chain", "A * S + S * A - S", {"A": dense, "S": sparse}),
    ]


def _evaluate(policy, source, bindings):
    executor = Executor(ClusterConfig(), policy)
    out = executor.run(single_expression_program(parse_expression(source)),
                       bindings)["out"]
    return out, executor.metrics.summary()


def _row(label: str, fused_summary: dict, unfused_summary: dict,
         detail: str) -> dict:
    fused_s = fused_summary["seconds_total"]
    unfused_s = unfused_summary["seconds_total"]
    return {
        "workload": label,
        "detail": detail,
        "fused_sim_s": round(fused_s, 6),
        "unfused_sim_s": round(unfused_s, 6),
        "speedup": round(unfused_s / fused_s, 2) if fused_s else float("inf"),
        "bytes_materialized_saved": round(
            unfused_summary["bytes_materialized"]
            - fused_summary["bytes_materialized"], 1),
        "bytes_transmitted_saved": round(
            sum(unfused_summary.get(f"bytes_{kind}", 0.0)
                - fused_summary.get(f"bytes_{kind}", 0.0)
                for kind in ("broadcast", "shuffle", "collect")), 1),
    }


def _expression_rows(smoke: bool) -> list[dict]:
    rows = []
    for label, source, bindings in _expression_workloads(smoke):
        fused, fused_summary = _evaluate(FUSED, source, bindings)
        unfused, unfused_summary = _evaluate(UNFUSED, source, bindings)
        assert np.array_equal(fused.matrix.to_numpy(),
                              unfused.matrix.to_numpy()), \
            f"{label}: fused result differs from unfused"
        rows.append(_row(label, fused_summary, unfused_summary, source))
    return rows


def _engine_row(smoke: bool) -> dict:
    """End-to-end run: results must match bit for bit, simulated cost not."""
    from repro.algorithms import get_algorithm
    from repro.data import load_dataset
    from repro.engines import make_engine

    scale = 0.2 if smoke else 0.5
    iterations = 3 if smoke else 8
    dataset = load_dataset("cri2", scale=scale)
    algo = get_algorithm("gd")
    meta, data = algo.make_inputs(dataset.matrix)

    def run(fuse: bool):
        engine = make_engine("remac", ClusterConfig()).with_fusion(fuse)
        return engine.run(algo.program(iterations), meta, data,
                          symmetric=algo.symmetric_inputs,
                          iterations=iterations)

    def digest(result) -> str:
        h = hashlib.sha256()
        for name in sorted(result.env):
            h.update(name.encode())
            h.update(result.env[name].matrix.to_numpy().tobytes())
        return h.hexdigest()

    def simulated(result) -> dict:
        # Compilation is measured in real wall-clock; keep simulated phases.
        summary = result.metrics.summary()
        summary["seconds_total"] = sum(
            v for k, v in result.metrics.seconds_by_phase.items()
            if k != "compilation")
        return summary

    fused = run(True)
    unfused = run(False)
    assert digest(fused) == digest(unfused), \
        "engine run: fused results differ from unfused"
    return _row("engine run (remac/gd/cri2)", simulated(fused),
                simulated(unfused), f"scale {scale}, {iterations} iters")


def fusion_throughput(smoke: bool = False) -> list[dict]:
    rows = _expression_rows(smoke)
    rows.append(_engine_row(smoke))
    return rows


def _write_report(rows: list[dict], smoke: bool) -> None:
    from repro.bench import save_report

    host_cpus = os.cpu_count() or 1
    save_report("fusion_throughput", rows,
                title="Cost-priced operator fusion — simulated fused vs "
                      "unfused execution")
    out = Path(__file__).resolve().parents[1] / "BENCH_fusion_throughput.json"
    out.write_text(json.dumps({"host_cpus": host_cpus,
                               "smoke": smoke,
                               "rows": rows}, indent=2) + "\n")


def _assert_acceptance(rows: list[dict]) -> None:
    best = max(rows, key=lambda row: row["speedup"])
    assert best["speedup"] >= SPEEDUP_FLOOR, \
        (f"best fused speedup {best['speedup']}x ({best['workload']}) "
         f"below the {SPEEDUP_FLOOR}x acceptance floor")


def test_fusion_throughput(benchmark, ctx):
    rows = benchmark.pedantic(fusion_throughput, args=(False,),
                              rounds=1, iterations=1)
    _write_report(rows, smoke=False)
    _assert_acceptance(rows)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="simulated fused vs unfused execution cost")
    parser.add_argument("--smoke", action="store_true",
                        help="small shapes: verify bit-identity and emit "
                             "the report without the speedup assertion")
    args = parser.parse_args(argv)
    rows = fusion_throughput(smoke=args.smoke)
    _write_report(rows, smoke=args.smoke)
    if not args.smoke:
        _assert_acceptance(rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
