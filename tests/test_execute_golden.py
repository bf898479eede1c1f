"""Whole-run identity pin (tests/data/execute_golden.json).

First slice of the one differential harness: every output's SHA-256, the
simulated execution seconds and ``metrics.summary()`` of 48 runs
(gd, dfp, bfgs, gnmf x cri1, cri3, red1, red3 x remac, systemds, pbdr at
scale 0.3), recorded before tile statistics started travelling with the
tile.

Re-record (only at a commit whose results are the reference) with
``PYTHONPATH=src python tests/test_execute_golden.py``.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import pytest

from repro.algorithms import get_algorithm
from repro.config import ClusterConfig
from repro.data import load_dataset
from repro.engines import make_engine
from repro.server.protocol import array_digest

GOLDEN_PATH = Path(__file__).parent / "data" / "execute_golden.json"
SCALE = 0.3
ITERATIONS = 3
CASES = [(algorithm, dataset, engine)
         for algorithm in ("gd", "dfp", "bfgs", "gnmf")
         for dataset in ("cri1", "cri3", "red1", "red3")
         for engine in ("remac", "systemds", "pbdr")]


@functools.lru_cache(maxsize=None)
def _workload(algorithm, dataset):
    algo = get_algorithm(algorithm)
    matrix = load_dataset(dataset, seed=0, scale=SCALE).matrix
    meta, data = algo.make_inputs(matrix, seed=0)
    return algo, meta, data


@functools.lru_cache(maxsize=None)
def _golden():
    return json.loads(GOLDEN_PATH.read_text())


def golden_run(algorithm, dataset, engine):
    """What the pin records for one case, exactly as the JSON stores it.

    Floats are stored by ``repr``: the comparison is bit for bit. The
    compilation phase is host wall-clock and is left out; the total is the
    sum of the simulated phases that remain.
    """
    algo, meta, data = _workload(algorithm, dataset)
    run = make_engine(engine, ClusterConfig()).run(
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


# The ids end in where the tile kernels run: serially, where called.
@pytest.mark.parametrize("algorithm,dataset,engine", CASES,
                         ids=["-".join(case) + "-serial" for case in CASES])
def test_matches_recorded(algorithm, dataset, engine):
    assert golden_run(algorithm, dataset, engine) \
        == _golden()[f"{algorithm}/{dataset}/{engine}"]


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(
        {"/".join(case): golden_run(*case) for case in CASES},
        indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(CASES)} cases in {GOLDEN_PATH}")
