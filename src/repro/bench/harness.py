"""Benchmark harness: shared context, caching, and workload runners.

Every figure driver in :mod:`repro.bench.figures` runs through one
:class:`BenchContext`, which fixes the simulated cluster, the dataset scale,
and the loop iteration budget, and caches generated datasets and input
bindings so a sweep over engines re-uses identical inputs.

Environment overrides (for quick runs / CI):

* ``REPRO_BENCH_SCALE`` — dataset row-count scale factor (default 0.5);
* ``REPRO_BENCH_ITERS`` — loop iterations per workload (default 8).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from ..algorithms import Algorithm, get_algorithm
from ..config import ClusterConfig
from ..data import Dataset, load_dataset
from ..engines import RunResult, make_engine

DEFAULT_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.5"))
DEFAULT_ITERATIONS = int(os.environ.get("REPRO_BENCH_ITERS", "20"))


@dataclass
class BenchContext:
    """Shared state for one benchmark session."""

    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    scale: float = DEFAULT_SCALE
    iterations: int = DEFAULT_ITERATIONS
    seed: int = 0
    _datasets: dict = field(default_factory=dict, repr=False)
    _inputs: dict = field(default_factory=dict, repr=False)

    def dataset(self, name: str) -> Dataset:
        if name not in self._datasets:
            self._datasets[name] = load_dataset(name, seed=self.seed,
                                                scale=self.scale)
        return self._datasets[name]

    def workload(self, algo_name: str, dataset_name: str):
        """(algorithm, input metas, input data) with caching."""
        key = (algo_name, dataset_name)
        if key not in self._inputs:
            algo = get_algorithm(algo_name)
            dataset = self.dataset(dataset_name)
            meta, data = algo.make_inputs(dataset.matrix, seed=self.seed)
            self._inputs[key] = (algo, meta, data)
        return self._inputs[key]

    def run(self, engine_name: str, algo_name: str, dataset_name: str,
            charge_partition: bool = False, single_node: bool = False,
            iterations: int | None = None, tracer=None,
            **engine_kwargs) -> RunResult:
        """Run one engine on one workload under this context."""
        algo, meta, data = self.workload(algo_name, dataset_name)
        cluster = self.cluster.as_single_node() if single_node else self.cluster
        engine = make_engine(engine_name, cluster, **engine_kwargs)
        iters = iterations if iterations is not None else self.iterations
        return engine.run(algo.program(iters), meta, data,
                          symmetric=algo.symmetric_inputs, iterations=iters,
                          charge_partition=charge_partition, tracer=tracer)

    def algorithm(self, name: str) -> Algorithm:
        return get_algorithm(name)


def speedup(baseline: float, other: float) -> float:
    """How many times faster ``other`` is than ``baseline``."""
    if other <= 0:
        return float("inf")
    return baseline / other


def percentile(values: list[float], pct: float) -> float | None:
    """Nearest-rank percentile of ``values``; ``None`` — JSON ``null``,
    never NaN — for an empty sample."""
    if not values:
        return None
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1,
                      round(pct / 100.0 * (len(ordered) - 1))))
    return ordered[rank]
