"""Shared fixtures: cluster configs, small deterministic matrices, and the
seams that revert each perf-only layer."""

from __future__ import annotations

import contextlib
import logging
from unittest import mock

import numpy as np
import pytest
from scipy import sparse as sp

import repro.runtime.plan as plan_module
from repro.config import ClusterConfig
from repro.matrix import blocked
from repro.matrix.meta import MatrixMeta
from repro.runtime import Executor
from repro.runtime.physical import Kernels, PartitionMemo


@pytest.fixture(autouse=True)
def _no_asyncio_crash():
    """Fail the test during which an event loop reported a crash.

    A connection handler that dies of an uncaught exception takes its
    connection with it, and all asyncio says is an error record ("Task
    exception was never retrieved", "Unhandled exception ...") that no
    assertion reads. Every test is watched, not only the server modules:
    nothing else here should start a loop, and one that does is held to
    the same rule.
    """
    crashes: list[str] = []
    handler = logging.Handler(level=logging.ERROR)
    handler.emit = lambda record: crashes.append(record.getMessage())
    asyncio_logger = logging.getLogger("asyncio")
    asyncio_logger.addHandler(handler)
    try:
        yield
    finally:
        asyncio_logger.removeHandler(handler)
    assert not crashes, f"asyncio logged: {crashes}"


@pytest.fixture
def compile_pool_submits(monkeypatch):
    """``watch(service)`` -> the live list of function names that service
    hands its compile pool from then on (what left the event loop to
    generate, parse or compile)."""
    def watch(service) -> list[str]:
        submitted, submit = [], service._compile_pool.submit

        def recording(fn, *args):
            submitted.append(fn.__name__)
            return submit(fn, *args)

        monkeypatch.setattr(service._compile_pool, "submit", recording)
        return submitted
    return watch


#: One patch per perf-only layer, ``(owner, attribute, stand-in)``, that
#: puts it back to what the runtime did before it. Enter a seam before the
#: compile: a compiled plan keeps the lowering its compile made.
SEAMS = {
    # A cell-wise result never writes over an operand that dies into it.
    "dying": (Executor, "_dying", lambda self, built, *values: False),
    # Every name is live to the end: none is dropped, and a variable's
    # value is never given up (temporaries still are).
    "liveness": (plan_module, "live_after", lambda statements, outputs: None),
    # A 1x1 cell-wise operator computes on grids, not on driver floats.
    "driver_floats": (plan_module, "_on_driver", lambda *metas: False),
    # Every operator is priced afresh: the price memo keeps nothing. What
    # ``__init__`` sets lands in the instance, for use after the seam.
    "price_replay": (Kernels, "_prices", property(
        lambda self: {},
        lambda self, value: self.__dict__.__setitem__("_prices", value))),
    # Every product tile is scanned for its count; none is proved.
    "proved_counts": (blocked, "rank_one_facts", lambda left, right: None),
    # A large rank-one tile is a k = 1 GEMM, as every other product is.
    "rank_one_kernel": (blocked, "outer_product", lambda u, v: u @ v),
    # t(X) %*% (X %*% v) and (u %*% t(X)) %*% X run as two products.
    "chain": (plan_module, "_chain_side", lambda node: None),
    # Every load tiles its raw input afresh: the grid memo keeps nothing.
    "partition_memo": (PartitionMemo, "grid", lambda self, data, block_size,
                       symmetric: blocked.BlockedMatrix.from_any(
                           data, block_size=block_size, symmetric=symmetric)),
}


@pytest.fixture(scope="session")
def reverted():
    """``reverted(*names)``: a context manager under which the named seams
    (every seam without names) are reverted. Session-scoped, so Hypothesis
    tests may use it."""
    @contextlib.contextmanager
    def revert(*names):
        with contextlib.ExitStack() as stack:
            for name in names or SEAMS:
                stack.enter_context(mock.patch.object(*SEAMS[name],
                                                      create=True))
            yield
    return revert


@pytest.fixture
def cluster() -> ClusterConfig:
    """A small distributed cluster: tight budgets so tiny matrices distribute."""
    return ClusterConfig(driver_memory_bytes=60_000, broadcast_limit_bytes=15_000,
                         block_size=64)


@pytest.fixture
def single_node(cluster: ClusterConfig) -> ClusterConfig:
    return cluster.as_single_node()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def dense_matrix(rng) -> np.ndarray:
    return rng.random((200, 40))


@pytest.fixture
def sparse_matrix(rng) -> sp.csr_matrix:
    return sp.random(300, 50, density=0.05, format="csr", random_state=rng)


@pytest.fixture
def tall_meta() -> MatrixMeta:
    return MatrixMeta(10_000, 100, 0.02)


@pytest.fixture
def dfp_like_inputs() -> dict[str, MatrixMeta]:
    """Metadata environment shaped like the DFP workload."""
    return {
        "A": MatrixMeta(1000, 80, 0.5),
        "b": MatrixMeta(1000, 1, 1.0),
        "x": MatrixMeta(80, 1, 1.0),
        "H": MatrixMeta(80, 80, 1.0, symmetric=True),
        "i": MatrixMeta(1, 1),
    }
