"""Blocked matrix tests: construction, arithmetic, grid layout."""

import numpy as np
import pytest
from scipy import sparse as sp

from repro.errors import ExecutionError, ShapeError
from repro.matrix import Block, BlockedMatrix, HashPartitioner, worker_of_block


class TestConstruction:
    def test_from_numpy_round_trip(self, dense_matrix):
        blocked = BlockedMatrix.from_numpy(dense_matrix, block_size=32)
        assert np.allclose(blocked.to_numpy(), dense_matrix)

    def test_from_scipy_round_trip(self, sparse_matrix):
        blocked = BlockedMatrix.from_scipy(sparse_matrix, block_size=64)
        assert np.allclose(blocked.to_numpy(), sparse_matrix.toarray())

    def test_grid_dimensions(self, dense_matrix):
        blocked = BlockedMatrix.from_numpy(dense_matrix, block_size=64)
        assert blocked.grid == (4, 1)  # 200x40 at block 64
        assert blocked.num_blocks == 4

    def test_ragged_edge_blocks(self):
        blocked = BlockedMatrix.from_numpy(np.ones((100, 70)), block_size=64)
        assert blocked.block_dims(1, 0) == (36, 64)
        assert blocked.block_dims(0, 1) == (64, 6)

    def test_from_any_passes_a_matching_grid_through(self, dense_matrix):
        blocked = BlockedMatrix.from_numpy(dense_matrix, block_size=32)
        tiles = blocked.transpose().blocks
        assert BlockedMatrix.from_any(blocked, block_size=32) is blocked
        # ... with everything it has cached, its transposed tiles included.
        assert all(block is tiles[key]
                   for key, block in blocked.transpose().blocks.items())

    def test_from_any_rejects_a_grid_tiled_at_another_size(self, dense_matrix):
        blocked = BlockedMatrix.from_numpy(dense_matrix, block_size=32)
        with pytest.raises(ShapeError, match="block size 32, expected 64"):
            BlockedMatrix.from_any(blocked, block_size=64)

    def test_from_any_honours_symmetric_on_a_copy(self, rng):
        values = rng.random((40, 40))
        blocked = BlockedMatrix.from_numpy(values + values.T, block_size=16)
        nnz = blocked.nnz
        flagged = BlockedMatrix.from_any(blocked, block_size=16,
                                         symmetric=True)
        assert flagged.symmetric and flagged.meta().symmetric
        assert not blocked.symmetric and not blocked.meta().symmetric
        assert flagged.blocks == blocked.blocks \
            and flagged.blocks is not blocked.blocks
        assert flagged._nnz == nnz
        already = BlockedMatrix.from_any(flagged, block_size=16,
                                         symmetric=True)
        assert already is flagged

    def test_zero_blocks_not_stored(self):
        array = np.zeros((128, 128))
        array[:64, :64] = 1.0
        blocked = BlockedMatrix.from_numpy(array, block_size=64)
        assert len(blocked.blocks) == 1
        assert blocked.block_at(1, 1) is None

    def test_nnz_and_sparsity(self, sparse_matrix):
        blocked = BlockedMatrix.from_scipy(sparse_matrix, block_size=64)
        assert blocked.nnz == sparse_matrix.nnz
        assert blocked.sparsity == pytest.approx(
            sparse_matrix.nnz / (300 * 50))

    def test_scalar_constructor(self):
        scalar = BlockedMatrix.scalar(3.5)
        assert scalar.is_scalar_like
        assert scalar.scalar_value() == 3.5

    def test_invalid_dimensions(self):
        with pytest.raises(ShapeError):
            BlockedMatrix(0, 5)

    def test_meta_reflects_observed(self, sparse_matrix):
        blocked = BlockedMatrix.from_scipy(sparse_matrix)
        meta = blocked.meta()
        assert meta.sparsity == pytest.approx(blocked.sparsity)


class TestArithmetic:
    def test_matmul_dense(self, rng):
        a = rng.random((100, 60))
        b = rng.random((60, 30))
        result = BlockedMatrix.from_numpy(a, 32).matmul(BlockedMatrix.from_numpy(b, 32))
        assert np.allclose(result.to_numpy(), a @ b)

    def test_matmul_sparse_sparse(self, rng):
        a = sp.random(120, 80, density=0.05, format="csr", random_state=rng)
        b = sp.random(80, 40, density=0.05, format="csr", random_state=rng)
        result = BlockedMatrix.from_scipy(a, 32).matmul(BlockedMatrix.from_scipy(b, 32))
        assert np.allclose(result.to_numpy(), (a @ b).toarray())

    def test_matmul_mixed(self, rng):
        a = sp.random(100, 50, density=0.1, format="csr", random_state=rng)
        b = rng.random((50, 20))
        result = BlockedMatrix.from_scipy(a, 32).matmul(BlockedMatrix.from_numpy(b, 32))
        assert np.allclose(result.to_numpy(), a @ b)

    def test_matmul_shape_mismatch(self, rng):
        a = BlockedMatrix.from_numpy(rng.random((10, 5)), 8)
        b = BlockedMatrix.from_numpy(rng.random((6, 4)), 8)
        with pytest.raises(ShapeError):
            a.matmul(b)

    def test_matmul_block_size_mismatch(self, rng):
        a = BlockedMatrix.from_numpy(rng.random((10, 5)), 8)
        b = BlockedMatrix.from_numpy(rng.random((5, 4)), 16)
        with pytest.raises(ShapeError):
            a.matmul(b)

    def test_transpose(self, rng):
        a = rng.random((50, 30))
        blocked = BlockedMatrix.from_numpy(a, 16).transpose()
        assert np.allclose(blocked.to_numpy(), a.T)

    def test_add_subtract(self, rng):
        a, b = rng.random((40, 40)), rng.random((40, 40))
        ba = BlockedMatrix.from_numpy(a, 16)
        bb = BlockedMatrix.from_numpy(b, 16)
        assert np.allclose(ba.add(bb).to_numpy(), a + b)
        assert np.allclose(ba.subtract(bb).to_numpy(), a - b)

    def test_multiply_skips_zero_blocks(self, rng):
        a = np.zeros((64, 64))
        a[:32, :32] = rng.random((32, 32))
        b = np.zeros((64, 64))
        b[32:, 32:] = rng.random((32, 32))
        result = BlockedMatrix.from_numpy(a, 32).multiply(BlockedMatrix.from_numpy(b, 32))
        assert result.nnz == 0

    def test_divide(self, rng):
        a = rng.random((20, 20))
        b = rng.random((20, 20)) + 0.5
        result = BlockedMatrix.from_numpy(a, 8).divide(BlockedMatrix.from_numpy(b, 8))
        assert np.allclose(result.to_numpy(), a / b)

    def test_scale_and_negate(self, rng):
        a = rng.random((30, 30))
        blocked = BlockedMatrix.from_numpy(a, 16)
        assert np.allclose(blocked.scale(2.5).to_numpy(), 2.5 * a)
        assert np.allclose(blocked.negate().to_numpy(), -a)
        assert blocked.scale(0.0).nnz == 0

    def test_add_scalar_fills_zero_blocks(self):
        a = np.zeros((64, 64))
        blocked = BlockedMatrix.from_numpy(a, 32).add_scalar(1.0)
        assert np.allclose(blocked.to_numpy(), np.ones((64, 64)))

    def test_sum(self, rng):
        a = rng.random((37, 23))
        assert BlockedMatrix.from_numpy(a, 16).sum() == pytest.approx(a.sum())

    def test_sparse_add_shape_mismatch(self, rng):
        a = BlockedMatrix.from_numpy(rng.random((10, 10)), 8)
        b = BlockedMatrix.from_numpy(rng.random((10, 9)), 8)
        with pytest.raises(ShapeError):
            a.add(b)

    def test_divide_by_implicit_zero_block_raises(self, rng):
        numerator = BlockedMatrix.from_numpy(rng.random((64, 64)) + 0.1, 32)
        denominator_data = np.zeros((64, 64))
        denominator_data[:32, :32] = rng.random((32, 32)) + 0.5
        denominator = BlockedMatrix.from_numpy(denominator_data, 32)
        with pytest.raises(ExecutionError, match="implicit zero block"):
            numerator.divide(denominator)

    def test_divide_tile_missing_on_both_sides_stays_zero(self, rng):
        data = np.zeros((64, 64))
        data[:32, :32] = rng.random((32, 32)) + 0.5
        left = BlockedMatrix.from_numpy(data, 32)
        right = BlockedMatrix.from_numpy(data, 32)
        result = left.divide(right)
        assert result.block_at(1, 1) is None  # 0 / 0 tile defined as zero
        assert np.allclose(result.to_numpy()[:32, :32], np.ones((32, 32)))

    def test_add_scalar_zero_returns_unaliased_copy(self, rng):
        original = BlockedMatrix.from_numpy(rng.random((64, 64)), 32)
        alias = original.add_scalar(0.0)
        assert alias is not original
        assert alias.blocks is not original.blocks
        assert np.array_equal(alias.to_numpy(), original.to_numpy())
        # Editing one grid must not leak into the other.
        del alias.blocks[(0, 0)]
        assert original.block_at(0, 0) is not None

    def test_matmul_preserves_symmetry_of_symmetric_square(self, rng):
        base = rng.random((40, 40))
        blocked = BlockedMatrix.from_numpy(base + base.T, 16, symmetric=True)
        product = blocked.matmul(blocked)
        assert product.symmetric
        assert product.meta().symmetric
        other = BlockedMatrix.from_numpy(rng.random((40, 40)), 16)
        assert not blocked.matmul(other).symmetric

    def test_row_sums_and_diagonal_on_sparse_grid(self, rng):
        data = np.zeros((96, 96))
        data[:32, :32] = rng.random((32, 32))
        data[64:, :32] = rng.random((32, 32))
        blocked = BlockedMatrix.from_numpy(data, 32)
        row_sums = blocked.row_sums()
        assert np.allclose(row_sums.to_numpy(), data.sum(axis=1).reshape(-1, 1))
        assert row_sums.block_at(1, 0) is None  # untouched row-band stays implicit
        diag = blocked.diagonal()
        assert np.allclose(diag.to_numpy(), np.diag(data).reshape(-1, 1))
        assert diag.block_at(1, 0) is None
        assert diag.block_at(2, 0) is None  # stored block, zero diagonal

    def test_diagonal_of_sparse_payload_matches_dense(self, rng):
        matrix = sp.random(80, 80, density=0.1, format="csr", random_state=rng)
        blocked = BlockedMatrix.from_scipy(matrix, 32)
        assert np.allclose(blocked.diagonal().to_numpy(),
                           matrix.toarray().diagonal().reshape(-1, 1))

    def test_col_sums_on_sparse_grid(self, rng):
        matrix = sp.random(90, 120, density=0.03, format="csr", random_state=rng)
        blocked = BlockedMatrix.from_scipy(matrix, 32)
        assert np.allclose(blocked.col_sums().to_numpy(),
                           np.asarray(matrix.sum(axis=0)).reshape(1, -1))


class TestCachedStats:
    def test_nnz_cached_after_first_read(self, sparse_matrix):
        blocked = BlockedMatrix.from_scipy(sparse_matrix, 64)
        assert blocked._nnz is None
        assert blocked.nnz == sparse_matrix.nnz
        assert blocked._nnz == sparse_matrix.nnz

    def test_meta_and_bytes_cached_and_consistent(self, dense_matrix):
        blocked = BlockedMatrix.from_numpy(dense_matrix, 64)
        assert blocked.meta() is blocked.meta()
        assert blocked.serialized_bytes() == sum(
            b.serialized_bytes() for b in blocked.blocks.values())
        assert blocked._bytes is not None

    def test_invalidate_stats_recomputes(self, dense_matrix):
        blocked = BlockedMatrix.from_numpy(dense_matrix, 64)
        before = blocked.nnz
        key, block = next(iter(blocked.blocks.items()))
        del blocked.blocks[key]
        blocked.invalidate_stats()
        assert blocked.nnz == before - block.nnz

    def test_symmetric_setter_refreshes_meta(self, rng):
        blocked = BlockedMatrix.from_numpy(rng.random((20, 20)), 16)
        assert not blocked.meta().symmetric
        blocked.symmetric = True
        assert blocked.meta().symmetric

    def test_block_nnz_cached(self, rng):
        block = Block(rng.random((32, 32)))
        assert block._nnz is None
        assert block.nnz == 32 * 32
        assert block._nnz == 32 * 32


class TestBlock:
    def test_block_normalizes_layout(self, rng):
        dense_payload = np.zeros((64, 64))
        dense_payload[0, 0] = 1.0
        block = Block(dense_payload).normalized()
        assert block.is_sparse  # sparsity 1/4096 < 0.4

    def test_block_serialized_bytes_sparse_smaller(self, rng):
        dense = Block(rng.random((64, 64)))
        mostly_zero = np.zeros((64, 64))
        mostly_zero[0, :8] = 1.0
        sparse_block = Block(mostly_zero).normalized()
        assert sparse_block.serialized_bytes() < dense.serialized_bytes()

    def test_block_rejects_1d(self):
        with pytest.raises(ValueError):
            Block(np.ones(5))


class TestPartitioner:
    def test_assignment_is_deterministic(self, sparse_matrix):
        blocked = BlockedMatrix.from_scipy(sparse_matrix, 32)
        p = HashPartitioner(6)
        assert p.assign(blocked) == p.assign(blocked)

    def test_all_blocks_assigned(self, sparse_matrix):
        blocked = BlockedMatrix.from_scipy(sparse_matrix, 32)
        p = HashPartitioner(6)
        assigned = sum(len(keys) for keys in p.assign(blocked).values())
        assert assigned == len(blocked.blocks)

    def test_bytes_per_worker_total(self, dense_matrix):
        blocked = BlockedMatrix.from_numpy(dense_matrix, 32)
        p = HashPartitioner(4)
        assert sum(p.bytes_per_worker(blocked)) == pytest.approx(
            blocked.serialized_bytes())

    def test_balance_roughly_uniform(self, rng):
        blocked = BlockedMatrix.from_numpy(rng.random((640, 640)), 64)
        p = HashPartitioner(5)
        counts = p.blocks_per_worker(blocked)
        assert max(counts) <= 2 * (sum(counts) / len(counts))

    def test_worker_of_block_range(self):
        for bi in range(20):
            for bj in range(20):
                assert 0 <= worker_of_block(bi, bj, 7) < 7

    def test_worker_requires_positive_count(self):
        with pytest.raises(ValueError):
            worker_of_block(0, 0, 0)
        with pytest.raises(ValueError):
            HashPartitioner(0)
