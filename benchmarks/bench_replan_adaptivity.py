"""Adaptive replanning: simulated time of adaptive vs stale plans.

The scenario (**crash**) where the originally compiled plan goes wrong
mid-run: a fault plan crashes four workers early. The original plan
(priced for six workers) correctly declined the hoist — per-iteration
compute is cheap at full width — but on the two survivors compute
dominates and the hoist pays. The adaptive run re-prices on shrink and
adopts it; the stale run grinds through the loop at full redundancy.

Before timing anything, every adaptive run is checked against the hard
invariant: its final matrices must be bit-identical to the fault-free
non-adaptive run — replanning may only change simulated time and
metrics, never answers.

Writes ``BENCH_replan_adaptivity.json`` at the repo root with the
simulated seconds and replanning counters of each variant.

Run standalone (no pytest-benchmark needed)::

    PYTHONPATH=src python benchmarks/bench_replan_adaptivity.py --smoke
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from repro.cluster.faults import CrashEvent, FaultPlan
from repro.config import ClusterConfig, OptimizerConfig
from repro.engines.base import Engine
from repro.lang import parse
from repro.matrix import MatrixMeta, scalar_meta

#: A Gram-matrix power iteration: the product ``t(A) %*% A`` is
#: loop-constant, so hoisting it is the plan decision a shrink flips.
GRAM_SOURCE = """
i = 0
while (i < N) {
  G = t(A) %*% A
  x = x + (G %*% x) * 0.0001
  i = i + 1
}
"""

ITERATIONS = 10


def _uniform_matrix(m: int, k: int, density: float) -> sp.csr_matrix:
    rng = np.random.default_rng(7)
    return sp.random(m, k, density=density,
                     random_state=np.random.RandomState(11),
                     data_rvs=rng.standard_normal).tocsr()


def _run(A, cluster: ClusterConfig, replan: bool = False,
         fault_plan: FaultPlan | None = None):
    m, k = A.shape
    meta = {
        "A": MatrixMeta(m, k, A.nnz / (m * k)),
        "x": MatrixMeta(k, 1, 1.0),
        "i": scalar_meta(),
        "N": scalar_meta(),
    }
    data = {"A": A, "x": np.ones((k, 1)), "i": 0.0, "N": float(ITERATIONS)}
    program = parse(GRAM_SOURCE, scalar_names={"i", "N"},
                    max_iterations=ITERATIONS)
    engine = Engine(cluster, OptimizerConfig(estimator="exact"))
    return engine.run(program, meta, data, iterations=ITERATIONS,
                      replan=replan, fault_plan=fault_plan)


def _row(scenario: str, variant: str, result, baseline_exec: float,
         baseline_x: np.ndarray) -> dict:
    summary = result.metrics.replan_summary or {}
    return {
        "scenario": scenario,
        "variant": variant,
        "simulated_exec_s": round(result.execution_seconds, 6),
        "vs_stale_ratio": round(result.execution_seconds / baseline_exec, 4)
        if baseline_exec else 1.0,
        "bit_identical": bool(np.array_equal(baseline_x, result.value("x"))),
        "replans_adopted": int(summary.get("replan_adopted", 0)),
        "replans_rejected": int(summary.get("replan_rejected", 0)),
        "replan_compile_s": round(summary.get("replan_compile_seconds", 0.0), 6),
    }


def replan_adaptivity(smoke: bool = False) -> list[dict]:
    # Mid-run cluster shrink 6 -> 2 workers.
    A = _uniform_matrix(4096, 512, density=0.4)
    cluster = ClusterConfig(num_workers=6, flops_per_core=1e7,
                            dfs_bytes_per_sec=1.3e5)
    plan = FaultPlan(crashes=tuple(CrashEvent(time=0.4 * (n + 1), worker=0)
                                   for n in range(4)), seed=0)
    x_ref = _run(A, cluster).value("x")  # fault-free reference
    stale = _run(A, cluster, fault_plan=plan)
    adaptive = _run(A, cluster, fault_plan=plan, replan=True)
    return [_row("crash", "stale", stale, stale.execution_seconds, x_ref),
            _row("crash", "adaptive", adaptive, stale.execution_seconds,
                 x_ref)]


def _assert_acceptance(rows: list[dict]) -> None:
    stale, adaptive = rows
    assert adaptive["bit_identical"], \
        "adaptive results differ from the fault-free run"
    assert stale["bit_identical"], \
        "stale results differ from the fault-free run"
    assert adaptive["replans_adopted"] > 0, "the adaptive run never replanned"
    assert adaptive["simulated_exec_s"] < stale["simulated_exec_s"], \
        (f"adaptive ({adaptive['simulated_exec_s']}s) not strictly below "
         f"stale ({stale['simulated_exec_s']}s)")


def _write_report(rows: list[dict], smoke: bool) -> None:
    from repro.bench import save_report

    save_report("replan_adaptivity", rows,
                title="Adaptive replanning — simulated time of adaptive vs "
                      "stale plans (results bit-identical to fault-free)")
    out = Path(__file__).resolve().parents[1] / "BENCH_replan_adaptivity.json"
    out.write_text(json.dumps({"smoke": smoke, "rows": rows}, indent=2) + "\n")


def test_replan_adaptivity(benchmark, ctx):
    rows = benchmark.pedantic(replan_adaptivity, args=(False,),
                              rounds=1, iterations=1)
    _write_report(rows, smoke=False)
    _assert_acceptance(rows)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="adaptive replanning vs stale plans")
    parser.add_argument("--smoke", action="store_true",
                        help="verify invariants and emit the report quickly "
                             "(the scenarios are laptop-sized either way)")
    args = parser.parse_args(argv)
    rows = replan_adaptivity(smoke=args.smoke)
    _write_report(rows, smoke=args.smoke)
    _assert_acceptance(rows)
    for row in rows:
        print(f"{row['scenario']:>6} {row['variant']:<9} "
              f"{row['simulated_exec_s']:10.4f} s  "
              f"(x{row['vs_stale_ratio']:.3f} of stale, "
              f"{row['replans_adopted']} replans)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
