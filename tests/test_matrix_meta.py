"""MatrixMeta and storage-format tests."""

import pytest

from repro.errors import ShapeError
from repro.matrix import (
    DENSE_THRESHOLD,
    ULTRA_SPARSE_THRESHOLD,
    MatrixMeta,
    StorageFormat,
    choose_format,
    dense_size_in_bytes,
    scalar_meta,
    size_in_bytes,
)


class TestMatrixMeta:
    def test_basic_properties(self):
        meta = MatrixMeta(100, 50, 0.2)
        assert meta.cells == 5000
        assert meta.nnz == pytest.approx(1000)
        assert not meta.is_scalar_like
        assert MatrixMeta(1, 1).is_scalar_like

    def test_invalid_dimensions(self):
        with pytest.raises(ShapeError):
            MatrixMeta(0, 5)
        with pytest.raises(ShapeError):
            MatrixMeta(5, -1)

    def test_invalid_sparsity(self):
        with pytest.raises(ShapeError):
            MatrixMeta(5, 5, 1.5)
        with pytest.raises(ShapeError):
            MatrixMeta(5, 5, -0.1)

    def test_nonsquare_cannot_be_symmetric(self):
        with pytest.raises(ShapeError):
            MatrixMeta(5, 6, symmetric=True)

    def test_transpose_swaps(self):
        meta = MatrixMeta(100, 50, 0.2).transposed()
        assert (meta.rows, meta.cols) == (50, 100)

    def test_symmetric_transpose_identity(self):
        meta = MatrixMeta(50, 50, 0.2, symmetric=True)
        assert meta.transposed() is meta

    def test_with_sparsity_clamps(self):
        assert MatrixMeta(5, 5, 0.5).with_sparsity(2.0).sparsity == 1.0
        assert MatrixMeta(5, 5, 0.5).with_sparsity(-1.0).sparsity == 0.0

    def test_matmul_shape(self):
        left = MatrixMeta(10, 20)
        right = MatrixMeta(20, 5)
        assert left.matmul_shape(right) == (10, 5)
        with pytest.raises(ShapeError):
            right.matmul_shape(left)

    def test_ewise_shape_broadcast(self):
        scalar = scalar_meta()
        matrix = MatrixMeta(7, 3)
        assert scalar.ewise_shape(matrix) == (7, 3)
        assert matrix.ewise_shape(scalar) == (7, 3)
        with pytest.raises(ShapeError):
            matrix.ewise_shape(MatrixMeta(3, 7))


class TestStorageFormats:
    def test_dense_above_threshold(self):
        assert choose_format(0.5) is StorageFormat.DENSE
        assert choose_format(DENSE_THRESHOLD + 1e-9) is StorageFormat.DENSE

    def test_csr_in_middle_band(self):
        assert choose_format(0.1) is StorageFormat.CSR
        assert choose_format(DENSE_THRESHOLD) is StorageFormat.CSR

    def test_coo_ultra_sparse(self):
        assert choose_format(ULTRA_SPARSE_THRESHOLD / 2) is StorageFormat.COO

    def test_dense_size(self):
        meta = MatrixMeta(100, 100, 1.0)
        assert size_in_bytes(meta) == pytest.approx(100 * 100 * 8, abs=100)

    def test_csr_size_linear_in_sparsity(self):
        """size(V) = alpha*S + beta: doubling S doubles the alpha part."""
        lo = MatrixMeta(1000, 1000, 0.01)
        hi = MatrixMeta(1000, 1000, 0.02)
        base = MatrixMeta(1000, 1000, 0.0004001)  # ~beta only
        beta_ish = size_in_bytes(base)
        assert size_in_bytes(hi) - beta_ish == pytest.approx(
            2 * (size_in_bytes(lo) - beta_ish), rel=0.05)

    def test_sparse_smaller_than_dense(self):
        meta = MatrixMeta(1000, 1000, 0.01)
        assert size_in_bytes(meta) < dense_size_in_bytes(meta)

    def test_forced_dense_ignores_sparsity(self):
        sparse = MatrixMeta(100, 100, 0.001)
        dense = MatrixMeta(100, 100, 1.0)
        assert dense_size_in_bytes(sparse) == dense_size_in_bytes(dense)
