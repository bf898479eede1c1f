"""Cluster simulation tests: network pricing, memory policy, metrics."""

import pytest

from repro.cluster import (
    BROADCAST,
    COLLECT,
    DFS,
    SHUFFLE,
    Cluster,
    MetricsCollector,
    Network,
    broadcast_volume,
    fits_locally,
    is_broadcastable,
    is_distributed,
    transmission_seconds,
)
from repro.config import ClusterConfig
from repro.matrix import BlockedMatrix, MatrixMeta
import numpy as np


class TestNetwork:
    def test_transmission_time_linear_in_bytes(self, cluster):
        base = transmission_seconds(cluster, SHUFFLE, 1_000_000)
        double = transmission_seconds(cluster, SHUFFLE, 2_000_000)
        latency = cluster.primitive_latency_sec
        assert double - latency == pytest.approx(2 * (base - latency))

    def test_latency_charged_per_invocation(self, cluster):
        tiny = transmission_seconds(cluster, BROADCAST, 1.0)
        assert tiny >= cluster.primitive_latency_sec

    def test_zero_bytes_is_free(self, cluster):
        assert transmission_seconds(cluster, COLLECT, 0.0) == 0.0

    def test_single_node_has_no_network(self, single_node):
        assert transmission_seconds(single_node, SHUFFLE, 1e9) == 0.0

    def test_shuffle_slower_than_broadcast(self, cluster):
        nbytes = 10_000_000
        assert transmission_seconds(cluster, SHUFFLE, nbytes) > \
            transmission_seconds(cluster, BROADCAST, nbytes)

    def test_unknown_primitive_rejected(self, cluster):
        with pytest.raises(ValueError):
            transmission_seconds(cluster, "teleport", 1.0)

    def test_broadcast_volume_scales_with_workers(self, cluster):
        assert broadcast_volume(cluster, 100.0) == 100.0 * cluster.num_workers

    def test_network_charges_metrics(self, cluster):
        metrics = MetricsCollector()
        network = Network(cluster, metrics)
        network.transmit(DFS, 5_000_000)
        assert metrics.bytes_by_primitive[DFS] == 5_000_000
        assert metrics.seconds_by_phase["transmission"] > 0


class TestMemoryPolicy:
    def test_large_matrix_distributed(self, cluster):
        big = MatrixMeta(10_000, 100, 1.0)  # 8 MB dense
        assert is_distributed(big, cluster)

    def test_vector_stays_local(self, cluster):
        vec = MatrixMeta(100, 1, 1.0)
        assert not is_distributed(vec, cluster)

    def test_single_node_never_distributes(self, single_node):
        big = MatrixMeta(100_000, 1000, 1.0)
        assert not is_distributed(big, single_node)

    def test_force_dense_flips_residency(self, cluster):
        # Sparse: ~60 nnz -> tiny; dense: 80 KB -> distributed.
        meta = MatrixMeta(100, 100, 0.006)
        assert not is_distributed(meta, cluster)
        assert is_distributed(meta, cluster, force_dense=True)

    def test_fits_locally_sums_operands(self, cluster):
        half = MatrixMeta(60, 60, 1.0)  # ~29 KB each
        assert fits_locally([half, half], cluster)
        assert not fits_locally([half, half, half], cluster)

    def test_broadcastable_threshold(self, cluster):
        small = MatrixMeta(40, 40, 1.0)  # ~13 KB
        large = MatrixMeta(50, 50, 1.0)  # ~20 KB > 15 KB limit
        assert is_broadcastable(small, cluster)
        assert not is_broadcastable(large, cluster)


class TestMetrics:
    def test_phase_accumulation(self):
        metrics = MetricsCollector()
        metrics.charge_compute(1.0)
        metrics.charge_compute(0.5)
        metrics.charge_compilation(0.2)
        assert metrics.seconds_by_phase["computation"] == pytest.approx(1.5)
        assert metrics.total_seconds == pytest.approx(1.7)

    def test_execution_excludes_compilation(self):
        metrics = MetricsCollector()
        metrics.charge_compilation(5.0)
        metrics.charge_compute(1.0)
        metrics.charge_transmission("shuffle", 100.0, 2.0)
        assert metrics.execution_seconds == pytest.approx(3.0)

    def test_worker_proportions_normalize(self):
        metrics = MetricsCollector()
        metrics.record_worker_bytes(0, 300.0)
        metrics.record_worker_bytes(1, 100.0)
        props = metrics.worker_proportions(4)
        assert props == pytest.approx([0.75, 0.25, 0.0, 0.0])
        assert sum(props) == pytest.approx(1.0)

    def test_worker_proportions_empty(self):
        assert MetricsCollector().worker_proportions(3) == [0.0, 0.0, 0.0]

    def test_merged_with(self):
        a, b = MetricsCollector(), MetricsCollector()
        a.charge_compute(1.0)
        b.charge_compute(2.0)
        b.charge_transmission("dfs", 10.0, 0.5)
        merged = a.merged_with(b)
        assert merged.seconds_by_phase["computation"] == pytest.approx(3.0)
        assert merged.bytes_by_primitive["dfs"] == 10.0

    def test_summary_keys(self):
        metrics = MetricsCollector()
        metrics.charge_input_partition(1.0)
        summary = metrics.summary()
        assert "seconds_total" in summary
        assert "bytes_shuffle" in summary


class TestTopology:
    def test_place_and_release(self, cluster, rng):
        topo = Cluster(cluster)
        matrix = BlockedMatrix.from_numpy(rng.random((640, 64)), 64)
        placed = topo.place(matrix)
        assert sum(placed.values()) == pytest.approx(matrix.serialized_bytes())
        assert topo.total_hosted_bytes() == pytest.approx(matrix.serialized_bytes())
        topo.release(matrix)
        assert topo.total_hosted_bytes() == pytest.approx(0.0)

    def test_balance_sums_to_one(self, cluster, rng):
        topo = Cluster(cluster)
        topo.place(BlockedMatrix.from_numpy(rng.random((640, 640)), 64))
        assert sum(topo.balance()) == pytest.approx(1.0)

    def test_empty_cluster_balance(self, cluster):
        assert sum(Cluster(cluster).balance()) == 0.0


class TestClusterConfigValidation:
    def test_defaults_valid(self):
        ClusterConfig()

    def test_bad_counts_rejected(self):
        from repro.errors import ConfigError
        with pytest.raises(ConfigError):
            ClusterConfig(num_workers=0)
        with pytest.raises(ConfigError):
            ClusterConfig(cores_per_worker=0)
        with pytest.raises(ConfigError):
            ClusterConfig(block_size=0)

    def test_bad_speeds_rejected(self):
        from repro.errors import ConfigError
        with pytest.raises(ConfigError):
            ClusterConfig(flops_per_core=0.0)
        with pytest.raises(ConfigError):
            ClusterConfig(shuffle_bytes_per_sec=-1.0)
        with pytest.raises(ConfigError):
            ClusterConfig(dfs_bytes_per_sec=float("nan"))
        with pytest.raises(ConfigError):
            ClusterConfig(primitive_latency_sec=-0.1)

    def test_bad_budgets_rejected(self):
        from repro.errors import ConfigError
        with pytest.raises(ConfigError):
            ClusterConfig(driver_memory_bytes=-1.0)
        with pytest.raises(ConfigError):
            ClusterConfig(broadcast_limit_bytes=float("nan"))


class TestWorkerEviction:
    def test_evict_without_hosting_raises(self):
        from repro.cluster import Worker
        with pytest.raises(ValueError, match="none are hosted"):
            Worker(0).evict(100.0)

    def test_evict_more_bytes_than_hosted_raises(self):
        from repro.cluster import Worker
        worker = Worker(0)
        worker.host(100.0)
        with pytest.raises(ValueError, match="only 100.0 are hosted"):
            worker.evict(200.0)

    def test_evict_clamps_float_dust(self):
        from repro.cluster import Worker
        worker = Worker(0)
        worker.host(100.0)
        worker.evict(100.0 + 1e-9)
        assert worker.hosted_bytes == 0.0
        assert worker.hosted_blocks == 0

    def test_unplace_inverts_place(self, cluster, rng):
        topo = Cluster(cluster)
        matrix = BlockedMatrix.from_numpy(rng.random((640, 64)), 64)
        placed = topo.place(matrix)
        removed = topo.unplace(matrix)
        assert removed == placed
        assert topo.total_hosted_bytes() == pytest.approx(0.0)
        assert all(w.hosted_blocks == 0 for w in topo.workers)

    def test_unplace_unknown_matrix_raises(self, cluster, rng):
        topo = Cluster(cluster)
        matrix = BlockedMatrix.from_numpy(rng.random((640, 64)), 64)
        with pytest.raises(ValueError):
            topo.unplace(matrix)


class TestFaultSummaryMerging:
    def test_summary_includes_fault_aggregates(self):
        metrics = MetricsCollector()
        metrics.charge_compute(1.0)
        metrics.fault_summary = {"fault_worker_crashes": 1.0,
                                 "recovery_recomputed_blocks": 4.0}
        summary = metrics.summary()
        assert summary["fault_worker_crashes"] == 1.0
        assert summary["recovery_recomputed_blocks"] == 4.0

    def test_merged_with_adds_fault_summaries(self):
        a, b = MetricsCollector(), MetricsCollector()
        a.fault_summary = {"fault_worker_crashes": 1.0}
        b.fault_summary = {"fault_worker_crashes": 2.0,
                           "recovery_checkpoints": 1.0}
        merged = a.merged_with(b)
        assert merged.fault_summary == {"fault_worker_crashes": 3.0,
                                        "recovery_checkpoints": 1.0}

    def test_merged_with_one_sided_fault_summary(self):
        a, b = MetricsCollector(), MetricsCollector()
        a.fault_summary = {"fault_worker_crashes": 1.0}
        merged = a.merged_with(b)
        assert merged.fault_summary == a.fault_summary
        assert merged.fault_summary is not a.fault_summary  # a copy

    def test_unfaulted_summary_has_no_fault_keys(self):
        metrics = MetricsCollector()
        metrics.charge_compute(1.0)
        assert not any(key.startswith(("fault_", "recovery_"))
                       for key in metrics.summary())


class TestMetricsReadPurity:
    def test_execution_seconds_read_does_not_insert_phases(self):
        """``seconds_by_phase`` is a defaultdict; the old ``[]`` read in
        ``execution_seconds`` inserted zero-valued phases, polluting
        ``summary()`` and ``merged_with`` with keys no charge created."""
        metrics = MetricsCollector()
        assert metrics.execution_seconds == 0.0
        assert dict(metrics.seconds_by_phase) == {}
        assert "seconds_computation" not in metrics.summary()
        assert "seconds_transmission" not in metrics.summary()

    def test_summary_unchanged_by_reads(self):
        metrics = MetricsCollector()
        metrics.charge_compute(1.0)
        before = metrics.summary()
        _ = metrics.execution_seconds
        _ = metrics.total_seconds
        _ = metrics.worker_proportions(4)
        assert metrics.summary() == before

    def test_merged_with_empty_collectors(self):
        merged = MetricsCollector().merged_with(MetricsCollector())
        assert merged.total_seconds == 0.0
        assert merged.trace_summary is None
        assert dict(merged.seconds_by_phase) == {}

    def test_merged_with_disjoint_workers(self):
        a, b = MetricsCollector(), MetricsCollector()
        a.record_worker_bytes(0, 100.0)
        b.record_worker_bytes(3, 300.0)
        merged = a.merged_with(b)
        assert merged.worker_proportions(4) \
            == pytest.approx([0.25, 0.0, 0.0, 0.75])

    def test_worker_proportions_zero_traffic_guard(self):
        metrics = MetricsCollector()
        metrics.record_worker_bytes(1, 0.0)
        assert metrics.worker_proportions(2) == [0.0, 0.0]

    def test_merged_with_one_sided_trace_summary(self):
        a, b = MetricsCollector(), MetricsCollector()
        a.trace_summary = {"trace_operator_spans": 4.0,
                           "trace_observed_seconds": 1.5}
        merged = a.merged_with(b)
        assert merged.trace_summary == a.trace_summary
        assert merged.trace_summary is not a.trace_summary  # a copy
        both = a.merged_with(a)
        assert both.trace_summary["trace_operator_spans"] == 8.0

    def test_untraced_summary_has_no_trace_keys(self):
        metrics = MetricsCollector()
        metrics.charge_compute(1.0)
        assert not any(key.startswith("trace_")
                       for key in metrics.summary())
