"""Volumes-formula, plan-object, config, and FLOP-count unit tests."""

import pytest

from repro.config import ClusterConfig, OptimizerConfig
from repro.errors import ShapeError
from repro.lang import parse
from repro.matrix import MatrixMeta
from repro.matrix import ops as flops
from repro.runtime import volumes
from repro.runtime.plan import CompiledProgram


class TestVolumes:
    def test_matrix_size_format_aware(self):
        sparse = MatrixMeta(10_000, 1000, 0.001)
        assert volumes.matrix_size(sparse) < volumes.matrix_size(sparse,
                                                                 force_dense=True)

    def test_grid_blocks(self, cluster):
        meta = MatrixMeta(1000, 130, 1.0)
        assert volumes.grid_blocks(meta, 64) == (16, 3)
        assert volumes.grid_blocks(MatrixMeta(64, 64), 64) == (1, 1)

    def test_bmm_shuffle_eq6_structure(self, cluster):
        """Eq. 6: shuffle = size(block product) * B_U / P_U — more inner
        column-blocks both raise B_U and raise the pre-aggregation P_U."""
        left_thin = MatrixMeta(10_000, 50, 1.0)    # one column-block
        left_wide = MatrixMeta(10_000, 500, 1.0)   # many column-blocks
        right_thin = MatrixMeta(50, 1, 1.0)
        right_wide = MatrixMeta(500, 1, 1.0)
        out = MatrixMeta(10_000, 1, 1.0)
        thin = volumes.bmm_shuffle_bytes(left_thin, right_thin, out, cluster)
        wide = volumes.bmm_shuffle_bytes(left_wide, right_wide, out, cluster)
        assert thin > 0 and wide > 0

    def test_cpmm_shuffles_inputs_plus_aggregation(self, cluster):
        left = MatrixMeta(5_000, 200, 0.5)
        right = MatrixMeta(200, 5_000, 0.5)
        out = MatrixMeta(5_000, 5_000, 1.0)
        total = volumes.cpmm_shuffle_bytes(left, right, out, cluster)
        assert total > volumes.matrix_size(left) + volumes.matrix_size(right)

    def test_cpmm_aggregation_capped_by_workers(self, cluster):
        left = MatrixMeta(100, 100_000, 0.01)  # many inner blocks
        right = MatrixMeta(100_000, 100, 0.01)
        out = MatrixMeta(100, 100, 1.0)
        total = volumes.cpmm_shuffle_bytes(left, right, out, cluster)
        join = volumes.matrix_size(left) + volumes.matrix_size(right)
        assert total <= join + cluster.num_workers * volumes.matrix_size(out)

    def test_transpose_moves_whole_matrix(self):
        meta = MatrixMeta(1000, 1000, 0.1)
        assert volumes.transpose_shuffle_bytes(meta) == \
            pytest.approx(volumes.matrix_size(meta))


class TestFlopCounts:
    def test_matmul_3rccss(self):
        """The paper's 3*R*C*C*S*S decomposition."""
        left = MatrixMeta(100, 50, 0.5)
        right = MatrixMeta(50, 20, 0.1)
        assert flops.matmul_flops(left, right) == \
            pytest.approx(3 * 100 * 50 * 20 * 0.5 * 0.1)

    def test_matmul_shape_checked(self):
        with pytest.raises(ShapeError):
            flops.matmul_flops(MatrixMeta(3, 4), MatrixMeta(5, 6))

    def test_ewise_add_union(self):
        a = MatrixMeta(10, 10, 0.3)
        b = MatrixMeta(10, 10, 0.5)
        assert flops.ewise_add_flops(a, b) == pytest.approx(0.8 * 100)

    def test_ewise_mul_min(self):
        a = MatrixMeta(10, 10, 0.3)
        b = MatrixMeta(10, 10, 0.5)
        assert flops.ewise_mul_flops(a, b) == pytest.approx(0.3 * 100)

    def test_scalar_broadcast_flops(self):
        scalar = MatrixMeta(1, 1)
        big = MatrixMeta(100, 100, 0.5)
        assert flops.ewise_add_flops(scalar, big) == big.cells
        assert flops.ewise_mul_flops(scalar, big) == pytest.approx(big.nnz)

    def test_transpose_and_aggregate(self):
        meta = MatrixMeta(100, 100, 0.2)
        assert flops.transpose_flops(meta) == pytest.approx(meta.nnz)
        assert flops.aggregate_flops(meta) == pytest.approx(meta.nnz)


class TestClusterConfig:
    def test_aggregate_flops(self):
        config = ClusterConfig(num_workers=4, cores_per_worker=2,
                               flops_per_core=1e9)
        assert config.cluster_flops == 8e9
        assert config.driver_flops == 2e9

    def test_single_node_conversion(self):
        single = ClusterConfig().as_single_node()
        assert single.single_node
        assert single.num_workers == 1
        assert single.driver_memory_bytes == float("inf")

    def test_primitive_speed_lookup(self):
        config = ClusterConfig()
        for primitive in ("broadcast", "shuffle", "collect", "dfs"):
            assert config.primitive_speed(primitive) > 0
        with pytest.raises(ValueError):
            config.primitive_speed("warp")

    def test_optimizer_config_defaults(self):
        config = OptimizerConfig()
        assert config.estimator == "mnc"
        assert config.strategy == "adaptive"
        assert config.combiner == "dp"


class TestCompiledProgram:
    def test_describe_and_counts(self):
        program = parse("y = A %*% x")
        compiled = CompiledProgram(program=program, applied_options=["opt"],
                                   estimated_cost=1.5, compile_seconds=0.01)
        assert compiled.num_applied == 1
        text = compiled.describe()
        assert "opt" in text and "1.5" in text

    def test_empty_options_describe(self):
        compiled = CompiledProgram(program=parse("y = A %*% x"))
        assert "none" in compiled.describe()
