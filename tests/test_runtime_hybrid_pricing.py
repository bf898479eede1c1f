"""Hybrid dispatch and operator pricing tests."""

import dataclasses

import pytest

from repro.algorithms import get_algorithm
from repro.config import ClusterConfig
from repro.data import load_dataset
from repro.engines import make_engine
from repro.matrix import MatrixMeta
from repro.runtime import (
    BMM,
    BMM_FLIPPED,
    CPMM,
    LOCAL,
    ExecutionPolicy,
    Executor,
    decide_matmul,
)
from repro.runtime.hybrid import decide_ewise, decide_transpose, value_distributed
from repro.runtime.physical import Kernels
from repro.runtime.pricing import (
    price_aggregate,
    price_ewise,
    price_matmul,
    price_persist,
    price_transpose,
)

POLICY = ExecutionPolicy.systemds()


def _mm(rows, cols, sp=1.0):
    return MatrixMeta(rows, cols, sp)


class TestMatMulDispatch:
    def test_small_operands_run_locally(self, cluster):
        decision = decide_matmul(_mm(20, 20), _mm(20, 20), _mm(20, 20),
                                 cluster, POLICY)
        assert decision.impl == LOCAL

    def test_distributed_left_broadcast_right(self, cluster):
        left = _mm(10_000, 100)   # 8 MB: distributed
        right = _mm(100, 1)       # vector: broadcastable
        decision = decide_matmul(left, right, _mm(10_000, 1), cluster, POLICY)
        assert decision.impl == BMM

    def test_distributed_right_broadcast_left(self, cluster):
        left = _mm(1, 1000)          # 8 KB row vector: broadcastable
        right = _mm(1000, 10_000)    # distributed
        decision = decide_matmul(left, right, _mm(1, 10_000), cluster, POLICY)
        assert decision.impl == BMM_FLIPPED

    def test_two_large_operands_use_cpmm(self, cluster):
        left = _mm(10_000, 100)
        right = _mm(100, 10_000)
        decision = decide_matmul(left, right, _mm(10_000, 10_000), cluster, POLICY)
        assert decision.impl == CPMM

    def test_single_node_always_local(self, single_node):
        decision = decide_matmul(_mm(100_000, 100), _mm(100, 100_000),
                                 _mm(100_000, 100_000), single_node, POLICY)
        assert decision.impl == LOCAL

    def test_always_distributed_policy(self, cluster):
        policy = ExecutionPolicy.pbdr()
        decision = decide_matmul(_mm(20, 20), _mm(20, 20), _mm(20, 20),
                                 cluster, policy)
        assert decision.impl == CPMM  # broadcasts disabled, nothing local

    def test_ewise_local_vs_distributed(self, cluster):
        assert decide_ewise(_mm(10, 10), _mm(10, 10), _mm(10, 10),
                            cluster, POLICY) == LOCAL
        big = _mm(10_000, 100)
        assert decide_ewise(big, big, big, cluster, POLICY) == "distributed"

    def test_transpose_placement(self, cluster):
        assert decide_transpose(_mm(10, 10), cluster, POLICY) == LOCAL
        assert decide_transpose(_mm(10_000, 100), cluster, POLICY) == "distributed"

    def test_value_distributed_force_dense(self, cluster):
        sparse = _mm(200, 200, 0.002)
        assert not value_distributed(sparse, cluster, POLICY)
        assert value_distributed(sparse, cluster, ExecutionPolicy.pbdr())


class TestPricing:
    def test_local_matmul_has_no_transmission(self, cluster):
        price = price_matmul(_mm(20, 20), _mm(20, 20), _mm(20, 20),
                             cluster, POLICY)
        assert price.impl == LOCAL
        assert price.transmissions == ()
        assert price.compute_seconds > 0

    def test_bmm_price_contains_broadcast(self, cluster):
        price = price_matmul(_mm(10_000, 100), _mm(100, 1), _mm(10_000, 1),
                             cluster, POLICY)
        primitives = {prim for prim, _ in price.transmissions}
        assert "broadcast" in primitives

    def test_bmm_small_output_collected(self, cluster):
        price = price_matmul(_mm(1, 10_000), _mm(10_000, 100), _mm(1, 100),
                             cluster, POLICY)
        primitives = {prim for prim, _ in price.transmissions}
        assert "collect" in primitives
        assert not price.output_distributed

    def test_cpmm_shuffles_both_inputs(self, cluster):
        left, right = _mm(10_000, 200), _mm(200, 10_000)
        out = _mm(10_000, 10_000, 1.0)
        price = price_matmul(left, right, out, cluster, POLICY)
        shuffle_bytes = sum(b for p, b in price.transmissions if p == "shuffle")
        from repro.runtime.volumes import matrix_size
        assert shuffle_bytes >= matrix_size(left) + matrix_size(right)

    def test_fused_transpose_adds_flops_not_shuffle(self, cluster):
        plain = price_matmul(_mm(100, 10_000), _mm(10_000, 1), _mm(100, 1),
                             cluster, POLICY)
        fused = price_matmul(_mm(100, 10_000), _mm(10_000, 1), _mm(100, 1),
                             cluster, POLICY, left_fused_transpose=True)
        assert fused.compute_seconds > plain.compute_seconds
        assert len(fused.transmissions) == len(plain.transmissions)

    def test_materialized_transpose_shuffles(self, cluster):
        price = price_transpose(_mm(10_000, 100), cluster, POLICY)
        assert any(p == "shuffle" for p, _ in price.transmissions)

    def test_local_transpose_free_of_transmission(self, cluster):
        price = price_transpose(_mm(10, 10), cluster, POLICY)
        assert price.transmissions == ()

    def test_cost_is_compute_plus_transmit(self, cluster):
        price = price_matmul(_mm(10_000, 100), _mm(100, 1), _mm(10_000, 1),
                             cluster, POLICY)
        assert price.seconds == pytest.approx(
            price.compute_seconds + price.transmission_seconds)

    def test_imbalance_scales_compute(self, cluster):
        balanced = price_matmul(_mm(10_000, 100), _mm(100, 1), _mm(10_000, 1),
                                cluster, POLICY, imbalance=1.0)
        skewed = price_matmul(_mm(10_000, 100), _mm(100, 1), _mm(10_000, 1),
                              cluster, POLICY, imbalance=3.0)
        assert skewed.compute_seconds == pytest.approx(3 * balanced.compute_seconds)

    def test_persist_only_for_distributed(self, cluster):
        small = price_persist(_mm(10, 10), cluster, POLICY)
        big = price_persist(_mm(10_000, 100), cluster, POLICY)
        assert small.transmissions == ()
        assert any(p == "dfs" for p, _ in big.transmissions)

    def test_aggregate_collects_partials(self, cluster):
        price = price_aggregate(_mm(10_000, 100), cluster, POLICY)
        assert any(p == "collect" for p, _ in price.transmissions)

    def test_ewise_broadcasts_local_side(self, cluster):
        big = _mm(10_000, 100)
        small = _mm(10_000, 100, 0.00001)  # tiny CSR: stays local
        price = price_ewise("add", big, small, big, cluster, POLICY)
        assert any(p == "broadcast" for p, _ in price.transmissions)

    def test_force_dense_raises_transmission(self, cluster):
        sparse_meta = _mm(10_000, 1000, 0.001)
        normal = price_matmul(sparse_meta, _mm(1000, 1), _mm(10_000, 1),
                              cluster, POLICY)
        dense = price_matmul(sparse_meta, _mm(1000, 1), _mm(10_000, 1),
                             cluster, ExecutionPolicy.pbdr())
        assert dense.seconds > normal.seconds

    def test_a_price_cannot_be_edited(self, cluster):
        # One instance is charged on every iteration and handed to the
        # tracer and to recovery by reference.
        price = price_matmul(_mm(10_000, 100), _mm(100, 1), _mm(10_000, 1),
                             cluster, POLICY)
        assert isinstance(price.transmissions, tuple)
        for field in dataclasses.fields(price):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(price, field.name, getattr(price, field.name))


class TestPriceReplay:
    """``Kernels`` prices an operator the first time it sees its key and
    charges that price again afterwards; nothing on the simulated clock
    can tell."""

    @staticmethod
    def _compiled(algorithm, dataset):
        algo = get_algorithm(algorithm)
        meta, data = algo.make_inputs(load_dataset(dataset, scale=0.3).matrix)
        engine = make_engine("remac")
        compiled = engine.compile(algo.program(5), meta, data, iterations=5)
        return engine, algo, data, compiled

    @pytest.mark.parametrize("algorithm, dataset",
                             [("dfp", "cri1"), ("gnmf", "red2")])
    def test_remembered_prices_are_what_their_functions_return(
            self, algorithm, dataset, reverted):
        engine, algo, data, compiled = self._compiled(algorithm, dataset)

        def run():
            executor = Executor(engine.cluster, engine.policy)
            executor.run(compiled, data, symmetric=algo.symmetric_inputs)
            return executor.kernels

        kernels = run()
        assert kernels._prices
        for (price_fn, head, tail), price in kernels._prices.items():
            assert price == price_fn(*head, kernels.config, kernels.policy,
                                     *tail), (price_fn.__name__, head, tail)
        # The loop body was replayed, not re-priced ...
        charged = sum(kernels.metrics.operator_counts.values())
        assert kernels.prices_replayed > 0.6 * charged
        # ... and a run that re-prices every operator charges the same.
        with reverted("price_replay"):
            fresh = run()
        assert fresh.prices_replayed == 0
        assert fresh.metrics.summary() == kernels.metrics.summary()
        assert fresh.metrics.operator_counts == kernels.metrics.operator_counts

    def test_reconfigure_drops_the_prices_of_the_old_cluster(self, cluster, rng):
        kernels = Kernels(cluster, POLICY)
        matrix = kernels.load("A", rng.random((640, 64)))
        vector = kernels.load("v", rng.random((64, 1)))
        assert matrix.distributed and not vector.distributed
        broadcast = kernels.metrics.bytes_by_primitive

        kernels.matmul(matrix, vector)
        (price,) = kernels._prices.values()
        assert price.impl == BMM
        one_copy = broadcast["broadcast"] / cluster.num_workers
        kernels.matmul(matrix, vector)
        assert kernels.prices_replayed == 1
        assert broadcast["broadcast"] == 2 * cluster.num_workers * one_copy

        shrunk = dataclasses.replace(cluster,
                                     num_workers=cluster.num_workers - 1)
        kernels.reconfigure(shrunk)
        assert kernels.config is shrunk and kernels.network.config is shrunk
        assert not kernels._prices
        before = broadcast["broadcast"]
        kernels.matmul(matrix, vector)
        # One copy per *remaining* worker: a price kept from the larger
        # cluster would have broadcast one more.
        assert broadcast["broadcast"] - before == shrunk.num_workers * one_copy
        assert kernels.prices_replayed == 1

    def test_run_notes_count_operators_and_prices(self):
        engine, algo, data, compiled = self._compiled("dfp", "cri1")
        run = engine.execute(compiled, data, symmetric=algo.symmetric_inputs)
        pricing = run.notes["pricing"]
        assert set(pricing) == {"operators", "priced"}
        assert pricing["operators"] == sum(run.metrics.operator_counts.values())
        assert 0 < pricing["priced"] <= 0.35 * pricing["operators"]
        # Visible in the notes only: the summary is pinned by SHA-256.
        assert not any("pric" in key for key in run.metrics.summary())
        assert "pricing" not in compiled.notes
