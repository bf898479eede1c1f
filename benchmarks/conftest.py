"""Shared benchmark fixtures: one context (cluster + cached datasets) per run.

Scale and iteration budget come from ``REPRO_BENCH_SCALE`` /
``REPRO_BENCH_ITERS`` (defaults 0.5 and 20). Every bench writes its table to
``results/<name>.txt`` in addition to printing it, so
``pytest benchmarks/ --benchmark-only`` leaves durable artifacts.
"""

import pytest

from repro.bench import BenchContext


@pytest.fixture(scope="session")
def ctx() -> BenchContext:
    return BenchContext()
