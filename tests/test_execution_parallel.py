"""Execution fast path: parallel kernels are bit-identical to serial.

The invariant (docs/architecture.md §10): the kernel dispatch spec —
worker count, backend (threads or processes), and the serial/parallel
gate — only changes host wall-clock. Simulated time, charged costs,
metrics summaries, and result matrices must match the serial seed
behaviour bit for bit, because every parallel helper preserves the
serial fold and insertion order.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse as sp

from repro.algorithms import get_algorithm
from repro.config import ClusterConfig
from repro.data import load_dataset
from repro.engines import make_engine
from repro.matrix import BlockedMatrix
from repro.matrix.block import Block
from repro.matrix.blockpool import (
    KernelDispatch,
    _contiguous_slices,
    _process_eligible,
    default_kernel_workers,
    map_blocks,
    process_backend_available,
    resolve_kernel_workers,
    set_default_kernel_workers,
    shutdown_pools,
)

PARALLEL = 4

needs_process_backend = pytest.mark.skipif(
    not process_backend_available(),
    reason="host cannot start kernel worker processes")


def _scale_tile(block: Block) -> Block:
    """Module-level so the process backend can ship it by reference."""
    return block.scale(2.0)


def _add_pair(task: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    a, b = task
    return a + b


def _thread_ident(_item) -> int:
    return threading.get_ident()


def _env_digest(result) -> str:
    digest = hashlib.sha256()
    for name in sorted(result.env):
        digest.update(name.encode())
        digest.update(result.env[name].matrix.to_numpy().tobytes())
    return digest.hexdigest()


def _comparable_summary(result) -> dict:
    """summary() minus the phases measured in real (not simulated) time.

    The total is rebuilt from the simulated phases so the comparison stays
    exact — subtracting the real-wall compile seconds from the float total
    is not ulp-stable.
    """
    summary = result.metrics.summary()
    summary.pop("seconds_compilation", None)
    summary["seconds_total"] = sum(
        v for k, v in result.metrics.seconds_by_phase.items()
        if k != "compilation")
    return summary


def _run(workers: int, algorithm: str = "dfp", dataset: str = "cri2",
         backend: str = "thread", threshold: float | None = None):
    cluster = replace(ClusterConfig(), kernel_workers=workers,
                      kernel_backend=backend,
                      kernel_parallel_threshold=threshold)
    data = load_dataset(dataset, scale=0.3)
    algo = get_algorithm(algorithm)
    meta, inputs = algo.make_inputs(data.matrix)
    engine = make_engine("remac", cluster)
    return engine.run(algo.program(6), meta, inputs,
                      symmetric=algo.symmetric_inputs, iterations=6)


class TestBlockPool:
    def test_resolve_serial_default(self):
        assert resolve_kernel_workers(None) == 1
        assert resolve_kernel_workers(1) == 1
        assert resolve_kernel_workers(-3) == 1
        assert resolve_kernel_workers(7) == 7

    def test_resolve_zero_means_all_cpus(self):
        import os
        assert resolve_kernel_workers(0) == (os.cpu_count() or 1)

    def test_default_override_scoped(self):
        previous = set_default_kernel_workers(3)
        try:
            assert default_kernel_workers() == 3
            assert resolve_kernel_workers(None) == 3
        finally:
            set_default_kernel_workers(previous)
        assert resolve_kernel_workers(None) == previous

    def test_map_blocks_preserves_order(self):
        items = list(range(50))
        assert map_blocks(lambda x: x * x, items, workers=4) \
            == [x * x for x in items]

    def test_map_blocks_propagates_exceptions(self):
        def boom(x):
            raise ValueError(f"bad item {x}")

        with pytest.raises(ValueError, match="bad item"):
            map_blocks(boom, [1, 2, 3], workers=4)


class TestEngineEquivalence:
    """Whole-program runs: serial and parallel must be indistinguishable."""

    def test_dfp_summary_and_results_bit_identical(self):
        serial = _run(1)
        parallel = _run(PARALLEL)
        assert _comparable_summary(serial) == _comparable_summary(parallel)
        assert dict(serial.metrics.operator_counts) \
            == dict(parallel.metrics.operator_counts)
        assert _env_digest(serial) == _env_digest(parallel)

    def test_gnmf_sparse_workload_bit_identical(self):
        serial = _run(1, algorithm="gnmf", dataset="red2")
        parallel = _run(PARALLEL, algorithm="gnmf", dataset="red2")
        assert _comparable_summary(serial) == _comparable_summary(parallel)
        assert _env_digest(serial) == _env_digest(parallel)

    def test_repeated_parallel_runs_deterministic(self):
        first = _run(PARALLEL)
        second = _run(PARALLEL)
        assert _comparable_summary(first) == _comparable_summary(second)
        assert _env_digest(first) == _env_digest(second)

    def test_worker_placement_bytes_identical(self):
        serial = _run(1)
        parallel = _run(PARALLEL)
        assert dict(serial.metrics.bytes_by_worker) \
            == dict(parallel.metrics.bytes_by_worker)


class TestOperatorEquivalence:
    """Per-operator bitwise equality, serial vs parallel, awkward grids."""

    CASES = [
        ("multi-block", (100, 70), (70, 90), 32),   # ragged edges both ways
        ("single-block", (20, 20), (20, 20), 64),   # grid is 1x1
        ("tall ragged", (130, 17), (17, 5), 32),
    ]

    @pytest.mark.parametrize("label, left_shape, right_shape, bs",
                             CASES, ids=[c[0] for c in CASES])
    def test_matmul_dense(self, rng, label, left_shape, right_shape, bs):
        a = rng.random(left_shape)
        b = rng.random(right_shape)
        left = BlockedMatrix.from_numpy(a, bs)
        right = BlockedMatrix.from_numpy(b, bs)
        serial = left.matmul(right, workers=1).to_numpy()
        parallel = left.matmul(right, workers=3).to_numpy()
        assert np.array_equal(serial, parallel)
        assert np.allclose(serial, a @ b)

    def test_matmul_sparse_bitwise(self, rng):
        a = sp.random(120, 80, density=0.05, format="csr", random_state=rng)
        b = sp.random(80, 40, density=0.05, format="csr", random_state=rng)
        left = BlockedMatrix.from_scipy(a, 32)
        right = BlockedMatrix.from_scipy(b, 32)
        serial = left.matmul(right, workers=1)
        parallel = left.matmul(right, workers=3)
        assert list(serial.blocks) == list(parallel.blocks)  # insertion order
        assert np.array_equal(serial.to_numpy(), parallel.to_numpy())

    def test_matmul_mixed_sparse_dense_bitwise(self, rng):
        a = sp.random(100, 60, density=0.08, format="csr", random_state=rng)
        b = rng.random((60, 50))
        left = BlockedMatrix.from_scipy(a, 32)
        right = BlockedMatrix.from_numpy(b, 32)
        assert np.array_equal(left.matmul(right, workers=1).to_numpy(),
                              left.matmul(right, workers=3).to_numpy())

    @pytest.mark.parametrize("op", ["add", "subtract", "multiply"])
    def test_ewise_ragged_bitwise(self, rng, op):
        a = rng.random((100, 70))
        b = rng.random((100, 70))
        left = BlockedMatrix.from_numpy(a, 32)
        right = BlockedMatrix.from_numpy(b, 32)
        serial = getattr(left, op)(right, 1)
        parallel = getattr(left, op)(right, 3)
        assert list(serial.blocks) == list(parallel.blocks)
        assert np.array_equal(serial.to_numpy(), parallel.to_numpy())

    def test_divide_bitwise(self, rng):
        a = rng.random((50, 50))
        b = rng.random((50, 50)) + 0.5
        left = BlockedMatrix.from_numpy(a, 16)
        right = BlockedMatrix.from_numpy(b, 16)
        assert np.array_equal(left.divide(right, 1).to_numpy(),
                              left.divide(right, 3).to_numpy())

    def test_transpose_and_map_cells_bitwise(self, rng):
        a = rng.random((90, 33))
        blocked = BlockedMatrix.from_numpy(a, 32)
        assert np.array_equal(blocked.transpose(1).to_numpy(),
                              blocked.transpose(3).to_numpy())
        assert np.array_equal(
            blocked.map_cells(np.exp, False, 1).to_numpy(),
            blocked.map_cells(np.exp, False, 3).to_numpy())
        assert np.array_equal(
            blocked.map_cells(np.sqrt, True, 1).to_numpy(),
            blocked.map_cells(np.sqrt, True, 3).to_numpy())

    def test_add_scalar_bitwise(self, rng):
        a = rng.random((70, 70))
        blocked = BlockedMatrix.from_numpy(a, 32)
        assert np.array_equal(blocked.add_scalar(1.5, 1).to_numpy(),
                              blocked.add_scalar(1.5, 3).to_numpy())

    def test_construction_bitwise(self, rng):
        dense = rng.random((130, 67))
        serial = BlockedMatrix.from_numpy(dense, 32, workers=1)
        parallel = BlockedMatrix.from_numpy(dense, 32, workers=3)
        assert list(serial.blocks) == list(parallel.blocks)
        assert np.array_equal(serial.to_numpy(), parallel.to_numpy())

        sparse_data = sp.random(210, 90, density=0.04, format="csr",
                                random_state=rng)
        serial = BlockedMatrix.from_scipy(sparse_data, 64, workers=1)
        parallel = BlockedMatrix.from_scipy(sparse_data, 64, workers=3)
        assert list(serial.blocks) == list(parallel.blocks)
        assert np.array_equal(serial.to_numpy(), parallel.to_numpy())

    def test_single_block_matrix_all_ops(self, rng):
        a = rng.random((8, 8))
        b = rng.random((8, 8)) + 0.5
        left = BlockedMatrix.from_numpy(a, 64)
        right = BlockedMatrix.from_numpy(b, 64)
        for op in ("matmul", "add", "subtract", "multiply", "divide"):
            assert np.array_equal(
                getattr(left, op)(right, 1).to_numpy(),
                getattr(left, op)(right, 3).to_numpy())


class TestBatchedDispatch:
    """Per-worker slicing: ≤ width contiguous slices, balanced, in order."""

    @pytest.mark.parametrize("n, width", [
        (7, 3),    # ragged: 3+2+2
        (1, 4),    # single item, wide pool
        (4, 4),    # one item per slice
        (10, 1),   # serial-width pool
        (3, 8),    # more workers than items
        (50, 6),
    ])
    def test_slices_concatenate_to_batch(self, n, width):
        batch = list(range(n))
        slices = _contiguous_slices(batch, width)
        assert [item for chunk in slices for item in chunk] == batch
        assert len(slices) == min(width, n)
        sizes = [len(chunk) for chunk in slices]
        assert min(sizes) >= 1
        assert max(sizes) - min(sizes) <= 1

    def test_map_blocks_order_with_more_workers_than_items(self):
        items = list(range(5))
        assert map_blocks(lambda x: x * 10, items, workers=16) \
            == [x * 10 for x in items]

    def test_map_blocks_single_item_stays_serial(self):
        main_thread = threading.get_ident()
        assert map_blocks(_thread_ident, ["only"], workers=8) \
            == [main_thread]


class TestCalibrationGate:
    """The work_hint gate: below-threshold batches never touch a pool."""

    DISPATCH = dict(workers=PARALLEL, backend="thread")

    def test_infinite_threshold_keeps_batch_on_main_thread(self):
        spec = KernelDispatch(threshold=float("inf"), **self.DISPATCH)
        idents = map_blocks(_thread_ident, list(range(8)), spec,
                            work_hint=1e18)
        assert set(idents) == {threading.get_ident()}

    def test_zero_threshold_moves_batch_onto_pool_threads(self):
        spec = KernelDispatch(threshold=0.0, **self.DISPATCH)
        idents = map_blocks(_thread_ident, list(range(8)), spec,
                            work_hint=1.0)
        assert threading.get_ident() not in set(idents)

    def test_no_hint_skips_the_gate(self):
        spec = KernelDispatch(threshold=float("inf"), **self.DISPATCH)
        idents = map_blocks(_thread_ident, list(range(8)), spec)
        assert threading.get_ident() not in set(idents)

    def test_gate_is_bit_identical_either_way(self, rng):
        a = rng.random((100, 70))
        b = rng.random((100, 70))
        left = BlockedMatrix.from_numpy(a, 32)
        right = BlockedMatrix.from_numpy(b, 32)
        serial = left.add(right, KernelDispatch(PARALLEL, "thread",
                                                float("inf")))
        pooled = left.add(right, KernelDispatch(PARALLEL, "thread", 0.0))
        assert list(serial.blocks) == list(pooled.blocks)
        assert np.array_equal(serial.to_numpy(), pooled.to_numpy())


class TestProcessBackend:
    """Worker processes + shared-memory shipping are perf-only too."""

    SPEC = KernelDispatch(2, "process", 0.0)

    def test_eligibility(self):
        assert _process_eligible(_scale_tile)
        assert not _process_eligible(lambda x: x)

        def local(x):
            return x
        assert not _process_eligible(local)

    @needs_process_backend
    def test_shm_sized_tiles_round_trip(self, rng):
        # 128x128 float64 = 128 KiB — over SHM_MIN_BYTES, ships via shm.
        tiles = [Block(rng.random((128, 128))) for _ in range(5)]
        out = map_blocks(_scale_tile, tiles, self.SPEC, work_hint=1.0)
        for tile, scaled in zip(tiles, out):
            assert np.array_equal(scaled.data, tile.data * 2.0)

    @needs_process_backend
    def test_ndarray_pairs_bitwise(self, rng):
        pairs = [(rng.random((128, 128)), rng.random((128, 128)))
                 for _ in range(4)]
        serial = [_add_pair(pair) for pair in pairs]
        pooled = map_blocks(_add_pair, pairs, self.SPEC, work_hint=1.0)
        for expect, got in zip(serial, pooled):
            assert np.array_equal(expect, got)

    @needs_process_backend
    def test_matmul_process_vs_serial_bitwise(self, rng):
        a = rng.random((150, 90))
        b = rng.random((90, 110))
        left = BlockedMatrix.from_numpy(a, 64)
        right = BlockedMatrix.from_numpy(b, 64)
        serial = left.matmul(right, workers=1)
        pooled = left.matmul(right, workers=self.SPEC)
        assert list(serial.blocks) == list(pooled.blocks)
        assert np.array_equal(serial.to_numpy(), pooled.to_numpy())

    @needs_process_backend
    @pytest.mark.parametrize("shape,block_size", [((700, 300), 128),
                                                   ((300, 120), 32)])
    def test_gram_product_process_vs_serial_bitwise(self, rng, shape,
                                                    block_size):
        # t(X) %*% X multiplies each tile by its own transposed view, which
        # NumPy sums differently from a multiply by a copy: the view must
        # still be a view in the worker (tiles above and below the
        # shared-memory size).
        x = BlockedMatrix.from_numpy(rng.random(shape), block_size)
        for left, right in ((x.transpose(self.SPEC), x),
                            (x, x.transpose(self.SPEC))):
            assert np.array_equal(
                left.matmul(right, workers=1).to_numpy(),
                left.matmul(right, workers=self.SPEC).to_numpy())
        # The second t(X) on the same X is a memo hit: the kept tiles must
        # multiply bit for bit as they did when freshly built, under thread
        # and process dispatch alike.
        first = x.transpose(self.SPEC)
        gram = first.matmul(x, workers=1).to_numpy()
        for spec in (KernelDispatch(2, "thread", 0.0), self.SPEC):
            again = x.transpose(spec)
            assert all(again.blocks[key] is block
                       for key, block in first.blocks.items())
            assert np.array_equal(gram,
                                  again.matmul(x, workers=spec).to_numpy())

    def test_closure_kernels_fall_back_to_threads(self, rng):
        # map_cells closes over fn: ineligible for processes, must still
        # produce bit-identical results via the thread fallback.
        blocked = BlockedMatrix.from_numpy(rng.random((90, 33)), 32)
        assert np.array_equal(
            blocked.map_cells(np.exp, False, 1).to_numpy(),
            blocked.map_cells(np.exp, False, self.SPEC).to_numpy())

    @needs_process_backend
    def test_whole_program_bit_identical_to_serial(self):
        serial = _run(1)
        pooled = _run(PARALLEL, backend="process", threshold=0.0)
        assert _comparable_summary(serial) == _comparable_summary(pooled)
        assert dict(serial.metrics.operator_counts) \
            == dict(pooled.metrics.operator_counts)
        assert _env_digest(serial) == _env_digest(pooled)

    @needs_process_backend
    def test_gnmf_sparse_process_bit_identical(self):
        serial = _run(1, algorithm="gnmf", dataset="red2")
        pooled = _run(PARALLEL, algorithm="gnmf", dataset="red2",
                      backend="process", threshold=0.0)
        assert _comparable_summary(serial) == _comparable_summary(pooled)
        assert _env_digest(serial) == _env_digest(pooled)


class TestDispatchConfig:
    def test_kernel_dispatch_resolution(self):
        assert resolve_kernel_workers(KernelDispatch(5, "thread", None)) == 5
        assert resolve_kernel_workers(KernelDispatch(-2, "process", 0.0)) == 1

    def test_cluster_builds_dispatch(self):
        cluster = replace(ClusterConfig(), kernel_workers=3,
                          kernel_backend="process",
                          kernel_parallel_threshold=1024.0)
        spec = cluster.kernel_dispatch()
        assert spec == KernelDispatch(3, "process", 1024.0)

    def test_cluster_rejects_unknown_backend(self):
        with pytest.raises(Exception):
            replace(ClusterConfig(), kernel_backend="fiber")

    def test_cluster_rejects_negative_threshold(self):
        with pytest.raises(Exception):
            replace(ClusterConfig(), kernel_parallel_threshold=-1.0)

    def test_shutdown_pools_idempotent(self):
        # Warm a pool, then shut down twice; later dispatch must recover.
        assert map_blocks(lambda x: x + 1, [1, 2, 3, 4],
                          KernelDispatch(2, "thread", 0.0)) == [2, 3, 4, 5]
        shutdown_pools()
        shutdown_pools()
        assert map_blocks(lambda x: x + 1, [1, 2, 3, 4],
                          KernelDispatch(2, "thread", 0.0)) == [2, 3, 4, 5]


class TestCliKernelWorkers:
    def test_run_command_accepts_kernel_workers(self, capsys):
        from repro.__main__ import main
        code = main(["run", "--engine", "systemds*", "--algorithm", "gd",
                     "--dataset", "cri1", "--scale", "0.2", "--iterations", "3",
                     "--kernel-workers", "2"])
        assert code == 0
        assert "execution" in capsys.readouterr().out

    @needs_process_backend
    def test_run_command_accepts_process_backend(self, capsys):
        from repro.__main__ import main
        code = main(["run", "--engine", "systemds*", "--algorithm", "gd",
                     "--dataset", "cri1", "--scale", "0.2", "--iterations", "3",
                     "--kernel-backend", "process", "--kernel-workers", "2"])
        assert code == 0
        assert "execution" in capsys.readouterr().out

    def test_run_command_accepts_threshold_override(self, capsys):
        from repro.__main__ import main
        code = main(["run", "--engine", "systemds*", "--algorithm", "gd",
                     "--dataset", "cri1", "--scale", "0.2", "--iterations", "3",
                     "--kernel-workers", "2",
                     "--kernel-parallel-threshold", "0"])
        assert code == 0
        assert "execution" in capsys.readouterr().out
