"""Whole-run identity pin (tests/data/execute_golden.json).

First slice of the one differential harness: every output's SHA-256, the
simulated execution seconds and ``metrics.summary()`` of 48 runs
(gd, dfp, bfgs, gnmf x cri1, cri3, red1, red3 x remac, systemds, pbdr at
scale 0.3), recorded before tile statistics started travelling with the
tile, replayed under serial, thread and process kernel dispatch.

Re-record (only at a commit whose results are the reference) with
``PYTHONPATH=src python tests/test_execute_golden.py``.
"""

from __future__ import annotations

import functools
import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.algorithms import get_algorithm
from repro.config import ClusterConfig
from repro.data import load_dataset
from repro.engines import make_engine
from repro.matrix.blockpool import process_backend_available
from repro.server.protocol import array_digest

GOLDEN_PATH = Path(__file__).parent / "data" / "execute_golden.json"
SCALE = 0.3
ITERATIONS = 3
CASES = [(algorithm, dataset, engine)
         for algorithm in ("gd", "dfp", "bfgs", "gnmf")
         for dataset in ("cri1", "cri3", "red1", "red3")
         for engine in ("remac", "systemds", "pbdr")]
#: ``threshold=0.0`` sends every batch through the thread pool, gate
#: bypassed. Shipping a batch of fat tiles to a worker process costs
#: 50-100 ms, so the process gate sits at 2**20 cell touches per task: every
#: case still ships its heaviest batches (2 on gd/red1, 30 on bfgs/red3).
DISPATCH = {
    "serial": {},
    "thread": {"kernel_workers": 4, "kernel_backend": "thread",
               "kernel_parallel_threshold": 0.0},
    "process": {"kernel_workers": 2, "kernel_backend": "process",
                "kernel_parallel_threshold": 1048576.0},
}


@functools.lru_cache(maxsize=None)
def _workload(algorithm, dataset):
    algo = get_algorithm(algorithm)
    matrix = load_dataset(dataset, seed=0, scale=SCALE).matrix
    meta, data = algo.make_inputs(matrix, seed=0)
    return algo, meta, data


@functools.lru_cache(maxsize=None)
def _golden():
    return json.loads(GOLDEN_PATH.read_text())


def golden_run(algorithm, dataset, engine, dispatch="serial"):
    """What the pin records for one case, exactly as the JSON stores it.

    Floats are stored by ``repr``: the comparison is bit for bit. The
    compilation phase is host wall-clock and is left out; the total is the
    sum of the simulated phases that remain.
    """
    algo, meta, data = _workload(algorithm, dataset)
    cluster = replace(ClusterConfig(), **DISPATCH[dispatch])
    run = make_engine(engine, cluster).run(
        algo.program(ITERATIONS), meta, data,
        symmetric=algo.symmetric_inputs, iterations=ITERATIONS)
    summary = run.metrics.summary()
    summary.pop("seconds_compilation", None)
    summary["seconds_total"] = sum(
        seconds for phase, seconds in run.metrics.seconds_by_phase.items()
        if phase != "compilation")
    return {"outputs": {name: array_digest(run.value(name))
                        for name in algo.outputs},
            "execution_seconds": repr(run.execution_seconds),
            "summary": {key: repr(value)
                        for key, value in sorted(summary.items())}}


@pytest.mark.parametrize("dispatch", list(DISPATCH))
@pytest.mark.parametrize("algorithm,dataset,engine", CASES)
def test_matches_recorded(algorithm, dataset, engine, dispatch):
    if dispatch == "process" and not process_backend_available():
        pytest.skip("host cannot start kernel worker processes")
    assert golden_run(algorithm, dataset, engine, dispatch) \
        == _golden()[f"{algorithm}/{dataset}/{engine}"]


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(
        {"/".join(case): golden_run(*case) for case in CASES},
        indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(CASES)} cases in {GOLDEN_PATH}")
