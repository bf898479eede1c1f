"""An engine partitions a caller's raw input once: the grid memo.

``Engine.execute`` tiles a raw ndarray / CSR input through its
:class:`~repro.runtime.physical.PartitionMemo`, which returns the grid it
built last time only while tiling the input anew would build exactly that
grid. Every run here is compared with a fresh engine's run of the same
compiled plan on the same (possibly edited) data: digests of every
variable, simulated seconds and ``metrics.summary()``.
"""

from __future__ import annotations

import gc
import sys
import threading
import weakref

import numpy as np
import pytest
from scipy import sparse as sp

from repro.cluster.faults import CrashEvent, FaultPlan
from repro.engines import make_engine
from repro.lang import parse
from repro.matrix import BlockedMatrix
from repro.runtime.physical import PartitionMemo
from repro.server.protocol import array_digest

SIZE = 64

PROGRAM = parse("""
y = S %*% v
z = t(S) %*% y
w = D * 2
q = t(D) %*% v
r = S + D
n = N %*% u
""")


def _inputs():
    """``S``: CSR over three tile columns with duplicates, unsorted indices
    and explicit zeros. ``D``: dense with a stored dense tile holding
    ``+0.0``, ``-0.0``, NaN and ``inf`` cells, an absent tile and a stored
    CSR tile. ``N``: CSR one tile wide with unsorted indices."""
    rng = np.random.default_rng(38)
    coo = sp.random(150, 150, density=0.05, format="coo", random_state=rng)
    rows = np.concatenate([coo.row, coo.row[:40], [0, 0, 7]])
    cols = np.concatenate([coo.col, coo.col[:40], [3, 140, 9]])
    values = np.concatenate([coo.data, rng.random(40), [0.0, 0.0, 2.5]])
    S = _scrambled(sp.csr_matrix((values, (rows, cols)), shape=(150, 150)),
                   rng)
    assert not S.has_sorted_indices and S.nnz > sp.csr_matrix(S.toarray()).nnz
    D = rng.random((150, 150)) - 0.5
    D[0, 0], D[1, 1], D[2, 2], D[3, 3] = 0.0, -0.0, np.nan, np.inf
    D[64:128, 64:128] = 0.0                       # absent tile (1, 1)
    D[:64, 64:128] *= rng.random((64, 64)) < 0.1  # CSR tile (0, 1)
    N = _scrambled(sp.random(150, 40, density=0.2, format="csr",
                             random_state=rng), rng)
    return {"S": S, "D": D, "N": N, "v": rng.random((150, 1)),
            "u": rng.random((40, 1))}


def _scrambled(matrix, rng):
    """``matrix`` with each row's entries in a random order."""
    matrix = matrix.tocsr()
    order = np.concatenate([
        rng.permutation(np.arange(start, stop))
        for start, stop in zip(matrix.indptr[:-1], matrix.indptr[1:])])
    return sp.csr_matrix((matrix.data[order], matrix.indices[order],
                          matrix.indptr), shape=matrix.shape)


@pytest.fixture
def compiled(cluster):
    data = _inputs()
    metas = {name: BlockedMatrix.from_any(value, SIZE).meta()
             for name, value in data.items()}
    return make_engine("remac", cluster).compile(PROGRAM, metas, data)


def _record(result):
    summary = result.metrics.summary()
    summary.pop("seconds_compilation", None)
    summary.pop("seconds_total", None)
    return ({name: array_digest(result.value(name))
             for name in sorted(result.env) if not name.startswith("__")},
            repr(result.execution_seconds),
            {key: repr(value) for key, value in sorted(summary.items())})


def _fresh(cluster, compiled, data, **kwargs):
    return _record(make_engine("remac", cluster).execute(compiled, data,
                                                         **kwargs))


class _Partitions:
    """Counts ``from_numpy`` / ``from_scipy`` calls: each is one input
    tiled."""

    def __init__(self, monkeypatch):
        self.calls = 0
        for name in ("from_numpy", "from_scipy"):
            original = getattr(BlockedMatrix, name)

            def counted(cls, *args, _original=original, **kwargs):
                self.calls += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(BlockedMatrix, name, classmethod(counted))

    def taken(self) -> int:
        calls, self.calls = self.calls, 0
        return calls


def _state(grid):
    """Everything a grid holds: keys, layout and bytes of every tile and of
    every kept transposed tile."""
    def tiles(blocks):
        if blocks is None:
            return None
        return [(key, block.is_sparse, block.nnz,
                 [part.tobytes() for part in (block.data.data,
                                              block.data.indices,
                                              block.data.indptr)]
                 if block.is_sparse else block.data.tobytes())
                for key, block in blocks.items()]
    return (grid.shape, grid.symmetric, tiles(grid.blocks),
            tiles(grid._transposed))


class TestRepeatedExecutes:
    def test_every_run_equals_a_fresh_engines(self, cluster, compiled,
                                              monkeypatch):
        data, engine = _inputs(), make_engine("remac", cluster)
        reference = _fresh(cluster, compiled, data)
        partitions = _Partitions(monkeypatch)
        for attempt in range(3):
            assert _record(engine.execute(compiled, data)) == reference
            # Five matrix inputs tiled by the first execute, none after.
            assert partitions.taken() == (5 if attempt == 0 else 0)

    def test_symmetric_and_block_size_are_part_of_the_key(self, rng):
        memo, array = PartitionMemo(), rng.random((100, 100))
        plain = memo.grid(array, SIZE, False)
        flagged = memo.grid(array, SIZE, True)
        other = memo.grid(array, 32, False)
        assert flagged.symmetric and not plain.symmetric
        assert other.block_size == 32 and len(memo) == 3
        assert memo.grid(array, SIZE, False) is plain
        assert memo.grid(array, SIZE, True) is flagged

    @pytest.mark.parametrize("data", [
        np.ones(5), np.ones((5, 5), dtype=np.float32),
        sp.coo_matrix(np.eye(5)), sp.csr_matrix(np.eye(5, dtype=np.int64))],
        ids=["1-D", "float32", "COO", "int CSR"])
    def test_other_inputs_are_tiled_every_time(self, data):
        memo = PartitionMemo()
        first, second = memo.grid(data, SIZE, False), memo.grid(data, SIZE,
                                                                 False)
        assert first is not second and len(memo) == 0
        assert _state(first) == _state(second)

    def test_a_grid_passes_straight_through(self, rng):
        memo = PartitionMemo()
        grid = BlockedMatrix.from_numpy(rng.random((100, 100)), SIZE)
        assert memo.grid(grid, SIZE, False) is grid and len(memo) == 0

    def test_an_entry_lives_as_long_as_the_callers_object(self, rng):
        memo = PartitionMemo()
        array = rng.random((100, 100))
        memo.grid(array, SIZE, False)
        assert len(memo) == 1
        del array
        gc.collect()
        assert len(memo) == 0

    def test_the_grids_die_with_the_memo(self, rng):
        memo, array = PartitionMemo(), rng.random((100, 100))
        grid = weakref.ref(memo.grid(array, SIZE, False))
        gc.disable()
        try:
            del memo  # no cycle holds it: freed without a collector pass
            assert grid() is None
        finally:
            gc.enable()


class TestConcurrentExecutes:
    def test_threads_sharing_an_engine_get_a_fresh_engines_runs(
            self, cluster, compiled):
        data, engine = _inputs(), make_engine("remac", cluster)
        reference = _fresh(cluster, compiled, data)
        records, errors = [], []

        def work():
            try:
                for _ in range(4):
                    records.append(_record(engine.execute(compiled, data)))
            except Exception as error:  # reported below, with the others
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors and len(records) == 16
        assert all(record == reference for record in records)
        assert len(engine._partitions) == 5


class TestInPlaceEdits:
    """An edit between executes is seen: the next execute re-tiles exactly
    the edited input and equals a fresh engine's run on the edited data."""

    @staticmethod
    def _dense_cell(data):
        data["D"][10, 20] += 1.0
        return "D"

    @staticmethod
    def _signed_zero(data):
        assert data["D"][0, 0] == 0.0 and not np.signbit(data["D"][0, 0])
        data["D"][0, 0] = -0.0  # in stored dense tile (0, 0)
        return "D"

    @staticmethod
    def _csr_value(data):
        data["S"].data[7] *= 3.0
        return "S"

    @staticmethod
    def _sorted_indices(data):
        data["N"].sort_indices()
        return "N"

    @pytest.mark.parametrize("edit", ["_dense_cell", "_signed_zero",
                                      "_csr_value", "_sorted_indices"])
    def test_an_edit_re_tiles_the_edited_input(self, cluster, compiled,
                                               monkeypatch, edit):
        data, engine = _inputs(), make_engine("remac", cluster)
        engine.execute(compiled, data)
        getattr(self, edit)(data)
        reference = _fresh(cluster, compiled, data)
        partitions = _Partitions(monkeypatch)
        assert _record(engine.execute(compiled, data)) == reference
        assert partitions.taken() == 1
        assert _record(engine.execute(compiled, data)) == reference
        assert partitions.taken() == 0

    @pytest.mark.parametrize("edit", ["_dense_cell", "_signed_zero",
                                      "_csr_value", "_sorted_indices"])
    def test_the_memo_returns_what_tiling_would_build(self, edit):
        data, memo = _inputs(), PartitionMemo()
        grids = {key: memo.grid(value, SIZE, False)
                 for key, value in data.items()}
        name = getattr(self, edit)(data)
        for key, value in data.items():
            grid = memo.grid(value, SIZE, False)
            assert (grid is grids[key]) == (key != name)
            assert _state(grid) == _state(
                BlockedMatrix.from_any(value, SIZE))

    def test_a_signed_zero_outside_stored_dense_tiles_changes_no_grid(
            self, cluster, compiled, monkeypatch):
        data, engine = _inputs(), make_engine("remac", cluster)
        engine.execute(compiled, data)
        data["D"][70, 70] = -0.0    # absent tile (1, 1)
        zeros = np.argwhere(data["D"][:64, 64:128] == 0.0)[0]
        data["D"][zeros[0], 64 + zeros[1]] = -0.0  # CSR tile (0, 1)
        reference = _fresh(cluster, compiled, data)
        partitions = _Partitions(monkeypatch)
        assert _record(engine.execute(compiled, data)) == reference
        assert partitions.taken() == 0

    def test_a_recycled_id_is_not_the_old_object(self):
        memo = PartitionMemo()
        first, second = np.ones((10, 10)), np.ones((10, 10))
        grid = memo.grid(first, SIZE, False)
        # As if ``second`` had been born at the address ``first`` held.
        key = (id(second), SIZE, False)
        memo._entries[key] = memo._entries[id(first), SIZE, False]
        assert memo.grid(second, SIZE, False) is not grid
        # A late purge of the slot's former owner leaves the new entry.
        memo._purger(key)(object())
        assert memo.grid(second, SIZE, False) is memo._entries[key][1].grid


class TestFaultedRun:
    def test_a_plain_execute_after_a_faulted_one_equals_a_fresh_run(
            self, cluster, compiled, monkeypatch):
        data, engine = _inputs(), make_engine("remac", cluster)
        engine.execute(compiled, data)
        horizon = engine.execute(compiled, data).execution_seconds
        plan = FaultPlan(crashes=(CrashEvent(0.3 * horizon, 2),
                                  CrashEvent(0.6 * horizon, 0)))
        partitions = _Partitions(monkeypatch)
        faulted = engine.execute(compiled, data, fault_plan=plan)
        faults = faulted.metrics.fault_summary
        assert faults["fault_worker_crashes"] == 2.0
        assert faults["recovery_recomputed_blocks"] > 0
        # A recovery manager loads the kept grids too: a crash heals them
        # back to their load-time tiles, so every later execute keeps them.
        assert partitions.taken() == 0
        plain = _record(engine.execute(compiled, data))
        again = _record(engine.execute(compiled, data, fault_plan=plan))
        assert partitions.taken() == 0
        assert _record(faulted) == again == _fresh(cluster, compiled, data,
                                                   fault_plan=plan)
        assert plain == _fresh(cluster, compiled, data)
