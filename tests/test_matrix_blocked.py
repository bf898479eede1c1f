"""Blocked matrix tests: construction, arithmetic, grid layout."""


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse as sp

from repro.errors import ExecutionError, ShapeError
from repro.matrix import Block, BlockedMatrix, HashPartitioner, blocked, worker_of_block
from repro.matrix import block as block_module
from repro.matrix.block import COMPARE_COUNT_CELLS


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

    @pytest.mark.parametrize("shape,block_size", [((700, 300), 128),
                                                   ((300, 120), 32)])
    def test_gram_products_multiply_by_views(self, rng, shape, block_size):
        # t(X) %*% X multiplies each tile by its own transposed view, which
        # NumPy sums differently from a multiply by a copy.
        x = BlockedMatrix.from_numpy(rng.random(shape), block_size)
        first = x.transpose()
        assert all(first.blocks[bj, bi].data.base is tile.data
                   for (bi, bj), tile in x.blocks.items())
        for left, right in ((first, x), (x, first)):
            product = left.matmul(right)
            for i in range(left.row_blocks):
                for j in range(right.col_blocks):
                    tiles = [left.blocks[i, k].data @ right.blocks[k, j].data
                             for k in range(left.col_blocks)]
                    expected = tiles[0]
                    for tile in tiles[1:]:
                        expected = expected + tile
                    assert product.blocks[i, j].data.tobytes() \
                        == expected.tobytes()
        # The second t(X) on the same X is a memo hit: the kept tiles
        # multiply bit for bit as they did when freshly built.
        gram = first.matmul(x).to_numpy()
        again = x.transpose()
        assert all(again.blocks[key] is block
                   for key, block in first.blocks.items())
        assert gram.tobytes() == again.matmul(x).to_numpy().tobytes()

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


def _payload(block):
    """Everything a tile is: layout, count, shape, memory order, bytes."""
    if block.is_sparse:
        cells = (block.data.data.tobytes(), block.data.indices.tobytes(),
                 block.data.indptr.tobytes())
    else:
        cells = (block.data.flags.c_contiguous, block.data.flags.f_contiguous,
                 block.data.tobytes())
    return block.is_sparse, block.nnz, block.shape, cells


def _assert_same_grid(got, expected):
    assert got.shape == expected.shape
    assert got.symmetric == expected.symmetric
    assert list(got.blocks) == list(expected.blocks)
    for key, tile in got.blocks.items():
        assert _payload(tile) == _payload(expected.blocks[key]), key
    assert got.nnz == expected.nnz
    assert got.serialized_bytes() == expected.serialized_bytes()
    assert got.meta() == expected.meta()


class TestOneCellGrids:
    """Operands of one tile each are answered without the sparse-grid join
    (``_join_products`` / ``_join_cells``), by the tile functions the join
    calls: absent tiles, ``x * 0``, division by an implicit zero block and
    re-layout follow one set of rules on both routes."""

    SIZE = 8
    OPS = ("add", "subtract", "multiply", "divide")

    @classmethod
    def _operands(cls, rows, cols):
        """Named one-cell grids of one shape: dense, CSR, absent, and two
        with disjoint supports (their product is an all-zero tile)."""
        rng = np.random.default_rng(rows * 31 + cols)
        dense = rng.random((rows, cols)) + 0.5
        thin = np.zeros((rows, cols))
        thin[0, 0] = 2.0
        other_corner = np.zeros((rows, cols))
        other_corner[-1, -1] = 3.0
        grids = {"dense": dense, "dense2": dense[::-1, ::-1] * 1.5,
                 "csr": thin, "absent": np.zeros((rows, cols))}
        if rows * cols > 2:
            grids["csr2"] = other_corner
        return {name: BlockedMatrix.from_numpy(array, cls.SIZE)
                for name, array in grids.items()}

    @staticmethod
    def _joined(left, right, op_name):
        result = BlockedMatrix(left.rows, left.cols, left.block_size)
        blocked._join_cells(left, right, op_name, result)
        return result

    @pytest.mark.parametrize("shape", [(5, 5), (8, 8), (1, 7), (7, 1), (1, 1)])
    def test_cell_wise_ops_match_the_join(self, shape):
        operands = self._operands(*shape)
        assert operands["csr"].blocks[(0, 0)].is_sparse == (shape != (1, 1))
        assert not operands["absent"].blocks
        for op_name in self.OPS:
            for left_name, left in operands.items():
                for right_name, right in operands.items():
                    case = (op_name, left_name, right_name)
                    if op_name == "divide" and "csr" in right_name:
                        continue  # a stored tile with zero cells: inf, nan
                    try:
                        expected = self._joined(left, right, op_name)
                    except ExecutionError as error:
                        # Only a divide by an absent tile, on either route.
                        assert op_name == "divide" \
                            and right_name == "absent", case
                        with pytest.raises(ExecutionError) as caught:
                            getattr(left, op_name)(right)
                        assert str(caught.value) == str(error), case
                        continue
                    _assert_same_grid(getattr(left, op_name)(right), expected)

    def test_zero_results_are_absent_on_both_routes(self):
        operands = self._operands(5, 5)
        for left, right, op_name in (("dense", "dense", "subtract"),
                                     ("csr", "csr2", "multiply"),
                                     ("csr", "absent", "multiply"),
                                     ("absent", "absent", "divide")):
            result = getattr(operands[left], op_name)(operands[right])
            assert not result.blocks, (left, right, op_name)
            assert not self._joined(operands[left], operands[right],
                                    op_name).blocks

    @pytest.mark.parametrize("rows, inner, cols",
                             [(5, 5, 5), (8, 8, 8), (1, 7, 1), (7, 1, 7),
                              (1, 6, 4), (4, 6, 1), (1, 1, 1)])
    def test_matmul_matches_the_join(self, rows, inner, cols):
        for left_name, left in self._operands(rows, inner).items():
            for right_name, right in self._operands(inner, cols).items():
                expected = BlockedMatrix(rows, cols, self.SIZE)
                blocked._join_products(left, right, expected)
                result = left.matmul(right)
                _assert_same_grid(result, expected)
                assert np.array_equal(result.to_numpy(),
                                      left.to_numpy() @ right.to_numpy())
                if "absent" in (left_name, right_name):
                    assert not result.blocks
        corner, other = self._operands(5, 5)["csr"], self._operands(5, 5)["csr2"]
        assert not corner.matmul(other).blocks  # a product of all zeros

    def test_symmetry_of_a_squared_symmetric_tile(self, rng):
        data = rng.random((6, 6))
        grid = BlockedMatrix.from_numpy(data + data.T, self.SIZE, symmetric=True)
        assert grid.matmul(grid).symmetric
        assert not grid.matmul(BlockedMatrix.from_numpy(data, self.SIZE)).symmetric

    def test_grid_size_selects_the_route(self, rng, monkeypatch):
        joins = []
        for name in ("_join_products", "_join_cells"):
            original = getattr(blocked, name)
            monkeypatch.setattr(
                blocked, name,
                lambda *args, _name=name, _original=original:
                    (joins.append(_name), _original(*args))[1])
        size = self.SIZE
        cell = BlockedMatrix.from_numpy(rng.random((size, size)), size)
        wide = BlockedMatrix.from_numpy(rng.random((size, size + 1)), size)
        tall = BlockedMatrix.from_numpy(rng.random((size + 1, size)), size)
        cell.matmul(cell), cell.add(cell), cell.divide(cell)
        assert joins == []
        # One operand of two cells, on either side or in the result only.
        for left, right in ((cell, wide), (tall, cell), (wide, tall),
                            (tall, wide)):
            joins.clear()
            product = left.matmul(right)
            assert joins == ["_join_products"]
            assert np.allclose(product.to_numpy(),
                               left.to_numpy() @ right.to_numpy())
        joins.clear()
        wide.multiply(wide)
        assert joins == ["_join_cells"]


def _same_products(got, expected):
    """``got`` is ``expected`` as a grid, tile for tile, proved floors and
    the kernel's ``owns_tiles`` included."""
    _assert_same_grid(got, expected)
    assert got.owns_tiles and expected.owns_tiles
    for key, tile in got.blocks.items():
        assert tile._floor == expected.blocks[key]._floor, key


#: What a tile of a drawn grid holds: nothing, random cells (dense), a
#: few cells (CSR after ``normalized``), one cell in the tile's first
#: column, or random cells under an all-zero first row. A one-cell tile
#: times a zero-first-row tile is a stored pair whose product is all zero.
TILE_KINDS = ("absent", "dense", "sparse", "first_column", "zero_first_row")


@st.composite
def grids(draw, rows, cols, size, symmetric=False):
    """A ``rows`` x ``cols`` grid of ``size`` tiles whose tiles are drawn
    from :data:`TILE_KINDS`, cut dense-first (``from_numpy``: a mixed
    grid) or as one CSR input (``from_scipy``: every tile CSR, born with
    its twins), its tiles then stored in a drawn insertion order."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    cells = np.zeros((rows, cols))
    for top in range(0, rows, size):
        for left in range(0, cols, size):
            tile = cells[top:top + size, left:left + size]
            kind = draw(st.sampled_from(TILE_KINDS))
            if kind == "dense":
                tile[:] = rng.random(tile.shape) - 0.5
            elif kind == "sparse":
                tile[:] = (rng.random(tile.shape) - 0.5) \
                    * (rng.random(tile.shape) < 0.2)
            elif kind == "first_column":
                tile[-1, 0] = 1.5
            elif kind == "zero_first_row":
                tile[1:] = rng.random(tile[1:].shape) + 0.5
    if symmetric:
        cells = cells + cells.T
    grid = BlockedMatrix.from_scipy(sp.csr_matrix(cells), size, symmetric) \
        if draw(st.booleans()) else \
        BlockedMatrix.from_numpy(cells, size, symmetric)
    order = draw(st.permutations(list(grid.blocks)))
    grid.blocks = {key: grid.blocks[key] for key in order}
    return grid


class TestProductChain:
    """``matmul(other, before=P)`` / ``matmul(other, after=Q)`` compute two
    products in one pass; each grid of the pair is the one its own
    ``matmul`` call returns, in every tile, fold, layout, count, proved
    floor, insertion order and flag."""

    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_a_chain_is_its_two_products(self, data):
        size = data.draw(st.integers(2, 4), label="size")
        rows, cols, k = (data.draw(st.integers(1, 3 * size), label=name)
                         for name in ("rows", "cols", "k"))
        shared = rows == cols and data.draw(st.booleans(), label="shared")
        x = data.draw(grids(rows, cols, size, symmetric=shared), label="X")
        v = x if shared else data.draw(grids(cols, k, size), label="v")
        inner, outer = x.matmul(v, before=x.transpose())
        expected = x.matmul(v)
        _same_products(inner, expected)
        _same_products(outer, x.transpose().matmul(expected))
        u = x.transpose() if shared else \
            data.draw(grids(k, cols, size), label="u")
        inner, outer = u.matmul(x.transpose(), after=x)
        expected = u.matmul(x.transpose())
        _same_products(inner, expected)
        _same_products(outer, expected.matmul(x))

    @pytest.mark.parametrize("zero_rows", [0, 64])
    def test_a_large_rank_one_outer_tile_waits_for_its_pair_count(
            self, rng, monkeypatch, zero_rows):
        # t(X)'s tile of the one-row edge is 64 x 1: with no other row
        # block stored it is the outer tile's only pair, a rank-one product.
        computed = []
        outer_product = blocked.outer_product
        monkeypatch.setattr(blocked, "outer_product", lambda u, v: (
            computed.append(1), outer_product(u, v))[1])
        cells = rng.random((65, 64)) + 0.5
        cells[:zero_rows] = 0.0
        x = BlockedMatrix.from_numpy(cells, 64)
        v = BlockedMatrix.from_numpy(rng.random((64, 80)) + 0.5, 64)
        inner, outer = x.matmul(v, before=x.transpose())
        assert len(computed) == (1 if zero_rows else 0)
        expected = x.matmul(v)
        _same_products(inner, expected)
        _same_products(outer, x.transpose().matmul(expected))

    def test_shapes_are_checked_for_both_products(self):
        x = BlockedMatrix.from_numpy(np.ones((5, 3)), 2)
        v = BlockedMatrix.from_numpy(np.ones((3, 2)), 2)
        with pytest.raises(ShapeError, match="2x3 @ 5x2"):
            x.matmul(v, before=BlockedMatrix.from_numpy(np.ones((2, 3)), 2))
        with pytest.raises(ShapeError, match="5x2 @ 3x5"):
            x.matmul(v, after=x.transpose())
        with pytest.raises(ShapeError, match="block sizes"):
            x.matmul(v, after=BlockedMatrix.from_numpy(np.ones((2, 2)), 3))


class TestDenseTimesCsr:
    """SciPy computes ``dense @ csr`` as ``(csr.T @ dense.T).T`` around a
    CSC wrapper it rebuilds per call; ``_tile_product`` makes the same
    calls around the wrapper the tile keeps."""

    @staticmethod
    def _csr(rng, rows, cols, density=0.15, empty_rows=()):
        cells = rng.random((rows, cols))
        cells[rng.random((rows, cols)) > density] = 0.0
        cells[list(empty_rows), :] = 0.0
        return Block(sp.csr_matrix(cells))

    @pytest.mark.parametrize("left_rows", [1, 7, 40])
    def test_product_is_scipys_byte_for_byte(self, rng, left_rows):
        right = self._csr(rng, 40, 30, empty_rows=(0, 17, 39))
        assert right.is_sparse and right._transposed_view is None
        for left_data in (rng.random((left_rows, 40)),
                          np.asfortranarray(rng.random((left_rows, 40))),
                          rng.random((40, left_rows)).T):
            left = Block(left_data)
            reference = left.data @ right.data
            assert isinstance(reference, np.ndarray)
            tile = blocked._tile_product([(left, right)])
            assert not tile.is_sparse
            assert tile.data.shape == reference.shape
            assert tile.data.strides == reference.strides
            assert tile.data.tobytes() == reference.tobytes()
            assert tile.nnz == np.count_nonzero(reference)
        # Built once, over the payload's own arrays.
        view = right._transposed_view
        assert view.format == "csc" and view.shape == (30, 40)
        for name in ("data", "indices", "indptr"):
            assert np.shares_memory(getattr(view, name),
                                    getattr(right.data, name))
        blocked._tile_product([(Block(rng.random((3, 40))), right)])
        assert right._transposed_view is view

    def test_accumulating_pairs_match_scipys_sum(self, rng):
        pairs = [(Block(rng.random((7, 40))), self._csr(rng, 40, 30)),
                 (Block(rng.random((7, 20))), Block(rng.random((20, 30)))),
                 (Block(rng.random((7, 40))), self._csr(rng, 40, 30))]
        reference = pairs[0][0].data @ pairs[0][1].data
        for left, right in pairs[1:]:
            reference = reference + left.data @ right.data
        tile = blocked._tile_product(pairs)
        assert tile.data.tobytes() == np.ascontiguousarray(reference).tobytes()

    def test_kept_transposed_tiles_keep_their_views(self, rng):
        cells = rng.random((96, 64))
        cells[rng.random((96, 64)) > 0.05] = 0.0
        source = BlockedMatrix.from_scipy(sp.csr_matrix(cells), 32)
        left = BlockedMatrix.from_numpy(rng.random((5, 64)), 32)
        twin_tiles = source.transpose().blocks
        assert all(tile.is_sparse for tile in twin_tiles.values())
        first = left.matmul(source.transpose())
        views = {key: tile._transposed_view
                 for key, tile in twin_tiles.items()}
        assert all(view is not None for view in views.values())
        second = left.matmul(source.transpose())
        assert all(source.transpose().blocks[key]._transposed_view is view
                   for key, view in views.items())
        assert first.to_numpy().tobytes() == second.to_numpy().tobytes()
        assert np.allclose(first.to_numpy(),
                           left.to_numpy() @ source.to_numpy().T)


def _cellwise(op, left, right, dying):
    """``op`` over tiles: ``right`` is the zip partner, ``dying`` the
    operands given up (a one-operand kernel reads the first)."""
    if op in ("scale", "add_scalar"):
        return getattr(left, op)(1.5, dying[0])
    if op == "negate":
        return left.negate(dying[0])
    return getattr(left, op)(right, dying)


class TestWrittenOver:
    """A cell-wise tile kernel told an operand is dying writes its dense
    result over that operand's payload — from ``COMPARE_COUNT_CELLS`` cells
    up, over C-ordered arrays only — and the tile it returns is, bit for
    bit and memory order included, the fresh one."""

    OPS = ("add", "subtract", "multiply", "divide", "scale", "add_scalar",
           "negate")

    @pytest.mark.parametrize("shape", [(1, 1), (63, 64), (64, 64), (4095, 1),
                                       (1, 4096), (100, 160)])
    @pytest.mark.parametrize("op", OPS)
    @pytest.mark.parametrize("side", [0, 1])
    def test_the_size_gate_comes_first(self, rng, shape, op, side):
        left, right = rng.random(shape) + 0.5, rng.random(shape) + 0.5
        expected = _cellwise(op, Block.of(left.copy(), False),
                             Block.of(right.copy(), False), (False, False))
        operands = Block.of(left, False, left.size), Block.of(right, False)
        got = _cellwise(op, *operands, (side == 0, side == 1))
        assert _payload(got) == _payload(expected)
        unary = op in ("scale", "add_scalar", "negate")
        written = left.size >= COMPARE_COUNT_CELLS and not (unary and side)
        assert np.shares_memory(got.data, operands[side].data) == written
        assert not np.shares_memory(got.data, operands[1 - side].data)

    def test_an_f_ordered_operand_is_never_written_over(self, rng):
        # ``dense @ csr`` is SciPy's ``(csr.T @ dense.T).T``: F-ordered.
        csr = sp.random(64, 64, density=0.2, format="csr", random_state=rng)
        product = blocked._tile_product([(Block(rng.random((64, 64))),
                                          Block(csr))])
        assert product.data.flags.f_contiguous \
            and not product.data.flags.c_contiguous
        other = rng.random((64, 64)) + 0.5
        for op in self.OPS:
            for side in (0, 1):
                pair = [product.data.copy(order="K"), other.copy()]
                if side:
                    pair.reverse()
                expected = _cellwise(op, *(Block.of(array.copy(order="K"),
                                                    False) for array in pair),
                                     (False, False))
                operands = [Block.of(array, False) for array in pair]
                got = _cellwise(op, *operands, (True, True))
                assert _payload(got) == _payload(expected), (op, side)
                # A mixed pair's fresh result is C-ordered: neither side
                # takes it. A one-operand kernel reads ``pair[0]``, and
                # takes it only when that is the C-ordered one.
                unary = op in ("scale", "add_scalar", "negate")
                assert not np.shares_memory(got.data, operands[side].data)
                assert np.shares_memory(got.data, operands[1 - side].data) \
                    == (unary and side == 1), (op, side)

    def test_a_csr_operand_is_densified_into_the_result(self, rng,
                                                        monkeypatch):
        copies = []
        densify = Block.to_dense_array
        monkeypatch.setattr(Block, "to_dense_array",
                            lambda block: copies.append(densify(block))
                            or copies[-1])
        csr = Block(sp.random(64, 64, density=0.1, format="csr",
                              random_state=rng))
        dense = Block.of(rng.random((64, 64)) + 0.5, False)
        before = _payload(csr), _payload(dense)
        for op in ("add", "subtract", "divide", "add_scalar"):
            copies.clear()
            got = _cellwise(op, csr, dense, (False, False))  # nobody dies
            expected = {"add": np.add, "subtract": np.subtract,
                        "divide": np.divide,
                        "add_scalar": lambda a, _b: a + 1.5}[op](
                csr.data.toarray(), dense.data)
            assert got.data.flags.c_contiguous
            assert got.data.tobytes() == expected.tobytes(), op
            assert np.shares_memory(got.data, copies[0]), op
        assert (_payload(csr), _payload(dense)) == before


class _Scans:
    """Stands in for ``count_nonzero`` in both modules that call it and
    keeps the size of every array it is asked to count."""

    def __init__(self, monkeypatch):
        self.sizes = []
        self._count = block_module.count_nonzero
        monkeypatch.setattr(block_module, "count_nonzero", self)
        monkeypatch.setattr(blocked, "count_nonzero", self)

    def __call__(self, array):
        self.sizes.append(array.size)
        return self._count(array)

    def large(self):
        return sum(size >= COMPARE_COUNT_CELLS for size in self.sizes)


class _RankOneTiles:
    """Counts the tiles ``outer_product`` computes, and the single dense
    pairs with inner dimension 1 and ``COMPARE_COUNT_CELLS`` cells or more
    that ``_tile_product`` computed without it."""

    def __init__(self, monkeypatch):
        self.computed = self.left_to_gemm = 0
        kernel, tile_product = blocked.outer_product, blocked._tile_product

        def counted_kernel(u, v):
            self.computed += 1
            return kernel(u, v)

        def counted_tile_product(pairs):
            before = self.computed
            tile = tile_product(pairs)
            left, right = pairs[0]
            if len(pairs) == 1 and left.shape[1] == 1 \
                    and not (left.is_sparse or right.is_sparse) \
                    and left.shape[0] * right.shape[1] >= COMPARE_COUNT_CELLS \
                    and self.computed == before:
                self.left_to_gemm += 1
            return tile

        monkeypatch.setattr(blocked, "outer_product", counted_kernel)
        monkeypatch.setattr(blocked, "_tile_product", counted_tile_product)


def _true_floor(cells):
    return np.abs(cells[(cells != 0.0) & ~np.isnan(cells)]).min(initial=np.inf)


class TestProvedCounts:
    """A rank-one product and a dense ``scale`` of ``COMPARE_COUNT_CELLS``
    cells or more state their count from their operands' facts when those
    settle it, and scan when they do not."""

    @staticmethod
    def _factors(rng, rows=64, cols=64):
        u, v = rng.standard_normal((rows, 1)), rng.standard_normal((1, cols))
        u[[3, 9]], v[0, [0, 5, 6]] = [[0.0], [-0.0]], [0.0, -0.0, 0.0]
        return u, v

    def test_a_large_rank_one_product_is_not_scanned(self, rng, monkeypatch):
        scans = _Scans(monkeypatch)
        u, v = self._factors(rng)
        tile = blocked._tile_product([(Block(u), Block(v))])
        assert scans.large() == 0
        assert tile._nnz == 62 * 61 == np.count_nonzero(u @ v)
        assert 0.0 < tile._floor <= _true_floor(tile.data)
        assert tile.data.tobytes() == (u @ v).tobytes()
        # The factors' own counts are small scans, made once and kept.
        assert sorted(scans.sizes) == [64, 64]

    @pytest.mark.parametrize("poison, where", [
        (1e-200, "both"), (5e-324, "left"), (np.inf, "left"),
        (-np.inf, "right"), (np.nan, "left"), (np.nan, "right")])
    def test_what_a_factor_cannot_vouch_for_is_scanned(self, rng, monkeypatch,
                                                       poison, where):
        scans = _Scans(monkeypatch)
        u, v = self._factors(rng)
        if where in ("left", "both"):
            u[17] = poison
        if where in ("right", "both"):
            v[0, 23] = poison
        with np.errstate(all="ignore"):
            tile = blocked._tile_product([(Block(u), Block(v))])
            truth = u @ v
        assert scans.large() == 1
        assert tile._floor is None
        assert tile._nnz == np.count_nonzero(truth)
        assert tile.data.tobytes() == truth.tobytes()

    def test_a_product_that_underflows_everywhere_is_absent(self, monkeypatch):
        scans = _Scans(monkeypatch)
        u, v = np.full((64, 1), 1e-200), np.full((1, 64), 1e-200)
        assert blocked._tile_product([(Block(u), Block(v))]) is None
        assert scans.large() == 1

    def test_an_overflow_is_still_a_non_zero_cell(self, rng, monkeypatch):
        scans = _Scans(monkeypatch)
        u, v = self._factors(rng)
        u[17], v[0, 23] = 1e300, -1e300
        with np.errstate(over="ignore"):
            tile = blocked._tile_product([(Block(u), Block(v))])
        assert np.isinf(tile.data).any() and scans.large() == 0
        assert tile._nnz == np.count_nonzero(tile.data)
        assert tile._floor <= _true_floor(tile.data)
        # ... which the next scale keeps non-zero, and zero times it is nan.
        assert tile.scale(0.5)._nnz == tile._nnz
        with np.errstate(invalid="ignore"):
            zeroed = tile.scale(0.0)
        assert zeroed._nnz is None and zeroed.nnz == 1

    @pytest.mark.parametrize("left, right", [
        ((63, 1), (1, 64)), ((1, 1), (1, 1)), ((32, 1), (1, 1)),
        ((64, 2), (2, 64)), ((4096, 1), (1, 1))])
    def test_the_size_gate_comes_before_any_guard(self, rng, monkeypatch,
                                                  left, right):
        # A magnitude pass costs more than a small count: it is never made
        # for a tile under the gate (nor for anything but a rank-one pair).
        gated = left == (4096, 1)
        asked = []
        monkeypatch.setattr(block_module, "finite_floor",
                            lambda array: asked.append(array.shape) or 1.0)
        pair = Block(rng.random(left) + 1.0), Block(rng.random(right) + 1.0)
        tile = blocked._tile_product([pair])
        assert (len(asked) == 2) == gated
        assert (tile._floor is not None) == gated
        assert tile.nnz == tile.data.size
        small = Block.of(rng.random((63, 64)) + 1.0, False, 63 * 64)
        for scalar in (2.0, 0.5, -1.0):
            assert small.scale(scalar)._nnz is None
            assert small.scale(scalar)._floor is None

    def test_only_a_single_dense_pair_is_proved(self, rng, monkeypatch):
        scans = _Scans(monkeypatch)
        u, v = self._factors(rng)
        sparse_u = Block(sp.csr_matrix(u))
        assert sparse_u.is_sparse
        for pairs in ([(Block(u), Block(v)), (Block(u), Block(v))],
                      [(sparse_u, Block(v))],
                      [(Block(u), Block(sp.csr_matrix(v)))]):
            before = scans.large()
            tile = blocked._tile_product(pairs)
            assert tile._floor is None
            assert tile.nnz == np.count_nonzero(tile.to_dense_array())
            assert scans.large() == before + (0 if tile.is_sparse else 1)

    @pytest.mark.parametrize("scalar", [
        0.0, np.inf, -np.inf, np.nan, 1e-300, 1e-200, 0.5, 1.0, -1.0, 3.0,
        1e300, np.float64(2.0)])
    @pytest.mark.parametrize("cells", ["ordinary", "tiny", "subnormal"])
    @pytest.mark.parametrize("facts", ["proved", "counted", "uncounted"])
    def test_scale_carries_a_count_only_when_no_cell_can_vanish(
            self, rng, scalar, cells, facts):
        u, v = self._factors(rng)
        if cells == "tiny":
            u[17] = 1e-160
        elif cells == "subnormal":
            u[17] = 5e-324
        tile = blocked._tile_product([(Block(u), Block(v))])
        assert (tile._floor is None) == (cells == "subnormal")
        if facts != "proved":
            tile = Block.of(tile.data, False,
                            tile.nnz if facts == "counted" else None)
        with np.errstate(all="ignore"):
            scaled = tile.scale(scalar)
            truth = tile.data * scalar
        assert scaled.data.tobytes() == truth.tobytes()
        magnitude = abs(scalar)
        finite = np.isfinite(scalar)
        carried = tile._nnz is not None and finite and (
            magnitude >= 1.0
            or (tile._floor is not None
                and tile._floor * magnitude >= np.finfo(float).tiny))
        assert (scaled._nnz is not None) == bool(carried)
        assert scaled.nnz == np.count_nonzero(truth)
        if scaled._floor is not None:
            assert carried and tile._floor is not None
            assert scaled._floor <= _true_floor(truth)
        # What was not carried is what could change, and sometimes did.
        if cells == "tiny" and scalar == 1e-200:
            assert not carried and scaled.nnz < tile.nnz
        if cells == "subnormal" and scalar == 0.5 and facts == "counted":
            assert not carried and scaled.nnz < tile.nnz

    def test_other_kernels_drop_the_floor(self, rng):
        u, v = self._factors(rng)
        tile = blocked._tile_product([(Block(u), Block(v))])
        assert tile._floor is not None
        for result in (tile.negate(), tile.transpose(), tile.add(tile),
                       tile.subtract(tile), tile.multiply(tile),
                       tile.add_scalar(1.0),
                       blocked._tile_product([(tile, tile)]),
                       tile.normalized() if tile.normalized() is not tile
                       else tile.negate()):
            assert result._floor is None
        sparse_tile = blocked._tile_product(
            [(Block(u * (rng.random(u.shape) < 0.2)), Block(v))])
        assert sparse_tile.is_sparse and sparse_tile._floor is None
        assert sparse_tile.nnz == sparse_tile.data.nnz

    def test_a_dfp_execute_scans_84_large_tiles_where_it_made_244(
            self, monkeypatch):
        """Exact, so it cannot flake: ``dfp`` on a 1024-column input keeps
        a 2x2-tile dense ``H``; of the 244 large dense tiles an execute
        used to count, 160 are outer products ``u %*% t(v)`` or a counted
        tile times a scalar. The 80 outer products are ``outer_product``'s,
        and no large rank-one tile is left to GEMM."""
        from repro import engines
        from repro.algorithms import get_algorithm
        from repro.data import load_dataset

        algo = get_algorithm("dfp")
        matrix = load_dataset("red3", scale=0.1).matrix
        assert matrix.shape[1] == 1024
        meta, data = algo.make_inputs(matrix)
        engine = engines.make_engine("remac")
        compiled = engine.compile(algo.program(10), meta, data, iterations=10)
        scans, rank_one = _Scans(monkeypatch), _RankOneTiles(monkeypatch)
        engine.execute(compiled, data, symmetric=algo.symmetric_inputs)
        assert scans.large() == 84
        assert (rank_one.computed, rank_one.left_to_gemm) == (80, 0)


class TestRankOneKernel:
    """A single dense pair with inner dimension 1 and ``COMPARE_COUNT_CELLS``
    cells or more is computed by ``outer_product``, byte for byte the GEMM
    it replaces; every other tile keeps its path."""

    @pytest.fixture
    def tiles(self, monkeypatch):
        return _RankOneTiles(monkeypatch)

    @staticmethod
    def _hostile(rng, shape):
        cells = rng.standard_normal(shape)
        flat = cells.reshape(-1)
        for value in (0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -1e-310,
                      1e300, -1e300, 1e-300):
            flat[rng.random(flat.size) < 0.04] = value
        return cells

    @staticmethod
    def _check(tiles, u, v, kernel_calls):
        before = tiles.computed
        with np.errstate(all="ignore"):
            truth = u @ v
            tile = blocked._tile_product([(Block(u), Block(v))])
        assert (tiles.computed - before, tiles.left_to_gemm) == \
            (kernel_calls, 0)
        data = tile.to_dense_array()
        assert data.dtype == np.float64 and data.flags.c_contiguous
        assert data.tobytes() == truth.tobytes()
        assert tile.nnz == np.count_nonzero(truth)

    @pytest.mark.parametrize("left, right", [
        ((64, 1), (1, 64)), ((1, 1), (1, 4096)), ((4096, 1), (1, 1)),
        ((130, 1), (1, 70))])
    def test_hostile_factors_at_and_over_the_gate(self, rng, tiles,
                                                  left, right):
        for _ in range(5):
            self._check(tiles, self._hostile(rng, left),
                        self._hostile(rng, right), 1)

    def test_just_under_the_gate_takes_gemm(self, rng, tiles):
        assert 63 * 65 < COMPARE_COUNT_CELLS
        self._check(tiles, self._hostile(rng, (63, 1)),
                    self._hostile(rng, (1, 65)), 0)

    def test_f_ordered_factors(self, rng, tiles):
        # A transposed tile's payload is an F-ordered view of its source;
        # a row or column of a wider one is strided as well.
        column = Block(self._hostile(rng, (1, 64))).transpose().data
        row = Block(self._hostile(rng, (80, 1))).transpose().data
        wide = Block(self._hostile(rng, (3, 64))).transpose().data
        tall = Block(self._hostile(rng, (80, 3))).transpose().data
        assert wide.flags.f_contiguous and tall.flags.f_contiguous
        for u in (column, wide[:, 1:2]):
            for v in (row, tall[1:2, :]):
                self._check(tiles, u, v, 1)

    def test_a_fold_and_a_csr_factor_keep_their_path(self, rng, tiles):
        u, v = rng.standard_normal((64, 1)), rng.standard_normal((1, 64))
        csr_u = Block(sp.csr_matrix(u * (rng.random(u.shape) < 0.1)))
        csr_v = Block(sp.csr_matrix(v * (rng.random(v.shape) < 0.1)))
        for pairs in ([(Block(u), Block(v)), (Block(u), Block(v))],
                      [(csr_u, Block(v))], [(Block(u), csr_v)],
                      [(csr_u, csr_v)]):
            truth = pairs[0][0].data @ pairs[0][1].data
            for left, right in pairs[1:]:
                truth = truth + left.data @ right.data
            truth = truth.toarray() if sp.issparse(truth) else truth
            tile = blocked._tile_product(pairs)
            assert tile.to_dense_array().tobytes() == \
                np.ascontiguousarray(truth).tobytes()
        assert tiles.computed == 0


def _old_from_scipy(matrix, block_size, symmetric=False):
    """``BlockedMatrix.from_scipy`` as it was before a slab was converted
    once: two SciPy slices and two format conversions per tile, no twins.
    Moved here verbatim but for its row loop, which runs serially as it
    always did; the oracle the partitioner is compared against."""
    cls = BlockedMatrix
    matrix = matrix.tocsr().astype(np.float64, copy=False)
    rows, cols = matrix.shape
    result = cls(rows, cols, block_size, symmetric=symmetric)
    col_blocks = result.col_blocks

    def build_row(bi: int) -> list[tuple[tuple[int, int], Block]]:
        row: list[tuple[tuple[int, int], Block]] = []
        row_slab = matrix[bi * block_size:(bi + 1) * block_size, :]
        if row_slab.nnz == 0:
            return row
        slab_csc = row_slab.tocsc()
        for bj in range(col_blocks):
            tile = slab_csc[:, bj * block_size:(bj + 1) * block_size]
            count = tile.nnz
            if count:
                row.append(((bi, bj),
                            Block.of(tile.tocsr(), True, count).normalized()))
        return row

    for bi in range(result.row_blocks):
        result.blocks.update(build_row(bi))
    return result


def _random_sparse_input(rng, block_size):
    """A sparse matrix as a caller might hand it over, hygiene not
    included: unsorted indices, repeated entries, stored zeros, empty
    slabs and strips, ragged edges, 64-bit indices, any of three formats."""
    blocks = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    rows, cols = (max(1, count * block_size - int(rng.integers(0, block_size)))
                  for count in blocks)
    if rng.random() < 0.3:
        cols = min(cols, block_size)  # one strip
    elif rng.random() < 0.2:
        cols = rows  # may carry the symmetric flag
    entries = int(rng.integers(0, max(2, int(rows * cols * rng.choice(
        [0.02, 0.1, 0.3, 0.9])))))
    row = rng.integers(0, rows, entries)
    col = rng.integers(0, cols, entries)
    value = rng.standard_normal(entries)
    value[rng.random(entries) < 0.1] = 0.0  # stored zeros
    keep = np.ones(entries, dtype=bool)
    for index, extent in ((row, rows), (col, cols)):  # empty slabs / strips
        if extent > block_size and rng.random() < 0.4:
            gone = int(rng.integers(0, -(-extent // block_size)))
            keep &= index // block_size != gone
    row, col, value = row[keep], col[keep], value[keep]
    kind = rng.choice(["csr", "csc", "coo"])
    if kind == "coo":  # ``tocsr`` sums its repeated entries
        return sp.coo_matrix((value, (row, col)), shape=(rows, cols))
    # Compressed along one axis by hand, so that repeated entries stay
    # repeated and the other axis' indices stay in drawing order.
    major, minor, extent = (row, col, rows) if kind == "csr" \
        else (col, row, cols)
    order = np.argsort(major, kind="stable")
    pointers = np.concatenate(([0], np.cumsum(np.bincount(major,
                                                          minlength=extent))))
    index_type = np.int64 if rng.random() < 0.25 else np.int32
    container = sp.csr_matrix if kind == "csr" else sp.csc_matrix
    matrix = container((value[order], minor[order].astype(index_type),
                        pointers.astype(index_type)), shape=(rows, cols))
    if rng.random() < 0.5:
        matrix.sort_indices()  # repeated entries become neighbours
    return matrix


def _assert_same_csr(got, expected, where):
    assert got.format == expected.format == "csr", where
    assert got.shape == expected.shape, where
    assert got.data.tobytes() == expected.data.tobytes(), where
    for part in ("indices", "indptr"):
        assert np.array_equal(getattr(got, part), getattr(expected, part)), \
            (where, part)
        # The old partitioner let a one-tile input keep 64-bit indices and
        # narrowed every other tile; now SciPy narrows them all.
        assert getattr(got, part).dtype == np.int32, (where, part)
    assert got.has_sorted_indices and expected.has_sorted_indices, where


class TestPartitioner:
    """Which tile a cell lands in (``from_scipy`` against the partitioner
    it replaced), then which worker a tile lands on."""

    @pytest.mark.parametrize("block_size", [4, 7, 64])
    def test_tiles_and_twins_are_the_old_partitioners(self, block_size):
        rng = np.random.default_rng(2400 + block_size)
        seeded = 0
        for case in range(180):
            matrix = _random_sparse_input(rng, block_size)
            symmetric = matrix.shape[0] == matrix.shape[1]
            got = BlockedMatrix.from_scipy(matrix, block_size, symmetric)
            expected = _old_from_scipy(matrix, block_size, symmetric)
            assert list(got.blocks) == list(expected.blocks), case
            for key, tile in got.blocks.items():
                old = expected.blocks[key]
                assert tile.is_sparse == old.is_sparse, (case, key)
                assert tile._nnz == old._nnz, (case, key)
                if tile.is_sparse:
                    _assert_same_csr(tile.data, old.data, (case, key))
                else:
                    assert tile.data.flags.c_contiguous
                    assert tile.data.tobytes() == old.data.tobytes()
            assert got.shape == expected.shape
            assert got.symmetric == expected.symmetric == symmetric
            assert got.nnz == expected.nnz
            assert got.serialized_bytes() == expected.serialized_bytes()
            assert got.meta() == expected.meta()
            # A twin seeded at load is the tile a first transpose() made.
            twins = got._transposed
            if twins is not None:
                seeded += 1
                assert list(twins) == [(bj, bi) for bi, bj in got.blocks]
                for (bi, bj), tile in got.blocks.items():
                    twin, made = twins[bj, bi], Block(tile.data).transpose()
                    assert twin.is_sparse == made.is_sparse, (case, bi, bj)
                    assert twin.nnz == made.nnz
                    if twin.is_sparse:
                        assert twin._nnz == tile._nnz
                        _assert_same_csr(twin.data, made.data, (case, bi, bj))
                    else:  # a view of the tile it mirrors
                        assert twin.data.base is tile.data
                        assert twin.data.tobytes() == made.data.tobytes()
            _assert_same_grid(got.transpose(), expected.transpose())
            got.invalidate_stats()
            assert got._transposed is None
        assert 60 < seeded < 180  # both routes were taken

    def test_one_strip_sorted_inputs_seed_no_twins(self, rng):
        matrix = sp.random(300, 32, density=0.05, format="csr",
                           random_state=rng)
        assert matrix.has_sorted_indices
        grid = BlockedMatrix.from_scipy(matrix, 32)
        assert grid._transposed is None and len(grid.blocks) == 10
        _assert_same_grid(grid, _old_from_scipy(matrix, 32))
        assert BlockedMatrix.from_scipy(matrix, 16)._transposed is not None

    @pytest.mark.parametrize("block_size", [16, 64])
    def test_tiles_never_alias_the_callers_arrays(self, rng, block_size):
        matrix = sp.random(60, 48, density=0.2, format="csr",
                           random_state=rng)
        before = matrix.copy()
        grid = BlockedMatrix.from_scipy(matrix, block_size)
        twin = grid.transpose()
        for tile in list(grid.blocks.values()) + list(twin.blocks.values()):
            for mine in (tile.data.data, tile.data.indices, tile.data.indptr):
                for theirs in (matrix.data, matrix.indices, matrix.indptr):
                    assert not np.shares_memory(mine, theirs)
        matrix.data[:] = -7.0
        matrix.indices[:] = 0
        assert np.array_equal(grid.to_numpy(), before.toarray())
        assert np.array_equal(twin.to_numpy(), before.toarray().T)
        assert np.array_equal(grid.transpose().to_numpy(), before.toarray().T)

    def test_assignment_is_deterministic(self, sparse_matrix):
        blocked = BlockedMatrix.from_scipy(sparse_matrix, 32)
        p = HashPartitioner(6)
        assert p.assign(blocked) == p.assign(blocked)

    def test_all_blocks_assigned(self, sparse_matrix):
        blocked = BlockedMatrix.from_scipy(sparse_matrix, 32)
        p = HashPartitioner(6)
        assigned = sum(len(keys) for keys in p.assign(blocked).values())
        assert assigned == len(blocked.blocks)

    def test_balance_roughly_uniform(self, rng):
        blocked = BlockedMatrix.from_numpy(rng.random((640, 640)), 64)
        p = HashPartitioner(5)
        assignment = p.assign(blocked)
        counts = [len(assignment.get(worker, ())) for worker in range(5)]
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
