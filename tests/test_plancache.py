"""Plan cache: warm hits hand back the cold plan, fingerprints invalidate
(that a hit runs to the cold results is ``tests/test_identity.py``'s
``warm`` way)."""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.algorithms import ALGORITHMS
from repro.config import ClusterConfig, OptimizerConfig
from repro.core import (DataTokens, PlanCache, ReMacOptimizer,
                        plan_fingerprint, settings_text)
from repro.core.plancache import PERF_ONLY_CONFIG_FIELDS
from repro.engines import ENGINES, make_engine
from repro.lang import (Add, Assign, MatrixRef, Program, ScalarRef, WhileLoop,
                        format_program, parse)
from repro.matrix.meta import MatrixMeta
from repro.runtime import Executor
from repro.runtime.hybrid import ExecutionPolicy

GD_SOURCE = """
input A, b, x, alpha
i = 0
while (i < 6) {
  g = t(A) %*% (A %*% x - b)
  x = x - alpha * g
  i = i + 1
}
"""


@pytest.fixture
def gd_setup(rng):
    program = parse(GD_SOURCE, scalar_names={"i", "alpha"})
    m, n = 600, 30
    A = rng.random((m, n))
    inputs = {"A": MatrixMeta(m, n, 1.0), "b": MatrixMeta(m, 1),
              "x": MatrixMeta(n, 1), "alpha": MatrixMeta(1, 1),
              "i": MatrixMeta(1, 1)}
    data = {"A": A, "b": A @ rng.random((n, 1)), "x": np.zeros((n, 1)),
            "alpha": 1e-6, "i": 0.0}
    return program, inputs, data


class TestCacheHits:
    def test_second_compile_hits_and_matches(self, cluster, gd_setup):
        program, inputs, data = gd_setup
        optimizer = ReMacOptimizer(cluster)
        cold = optimizer.compile(program, inputs, data, iterations=6)
        warm = optimizer.compile(program, inputs, data, iterations=6)
        assert cold.notes["plan_cache"] == "miss"
        assert warm.notes["plan_cache"] == "hit"
        assert optimizer.plan_cache_stats == {"hits": 1, "misses": 1,
                                              "evictions": 0, "coalesced": 0}
        assert format_program(warm.program) == format_program(cold.program)
        assert warm.estimated_cost == cold.estimated_cost
        assert [str(o) for o in warm.applied_options] \
            == [str(o) for o in cold.applied_options]

    def test_warm_compile_skips_stats_collection(self, cluster, gd_setup):
        program, inputs, data = gd_setup
        optimizer = ReMacOptimizer(cluster)
        optimizer.compile(program, inputs, data, iterations=6)
        warm = optimizer.compile(program, inputs, data, iterations=6)
        assert warm.notes["stats_collection_seconds"] == 0.0

    def test_warm_hit_reports_its_cold_rounds(self, cluster, gd_setup):
        """``notes["rounds"]`` says where the *cold* compile went (options,
        chosen, and the strategy's own notes: costs, DP entries, the two
        wall-clock splits — per adaptive round); a hit hands the same record
        back, timings included."""
        program, inputs, data = gd_setup
        optimizer = ReMacOptimizer(cluster)
        cold = optimizer.compile(program, inputs, data, iterations=6)
        warm = optimizer.compile(program, inputs, data, iterations=6)
        rounds = cold.notes["rounds"]
        assert warm.notes["plan_cache"] == "hit"
        assert warm.notes["rounds"] == rounds
        assert 1 <= len(rounds) <= 3
        assert all(set(entry) == {"options", "chosen", "chain_cost",
                                  "plain_cost", "entries",
                                  "cost_graph_seconds", "dp_seconds"}
                   for entry in rounds)
        assert sum(entry["chosen"] for entry in rounds) \
            == len(cold.applied_options)
        # strategy_notes keeps reporting the last round only.
        assert cold.notes["strategy_notes"].items() <= rounds[-1].items()

    def test_literals_that_print_alike_do_not_share_a_plan(self, cluster,
                                                            rng):
        """``%g`` printed 1.0000001 and 1.0000002 both as ``1``: the second
        script hit the first one's plan and returned its values."""
        inputs = {"A": MatrixMeta(30, 30), "x": MatrixMeta(30, 1)}
        data = {"A": rng.random((30, 30)), "x": rng.random((30, 1))}
        optimizer = ReMacOptimizer(cluster)
        for literal in ("1.0000001", "1.0000002"):
            program = parse(f"input A, x\ny = (A %*% x) * {literal}\n")
            compiled = optimizer.compile(program, inputs, data)
            assert compiled.notes["plan_cache"] == "miss"
            y = Executor(cluster).run(compiled, data)["y"].matrix.to_numpy()
            np.testing.assert_array_equal(
                y, (data["A"] @ data["x"]) * float(literal))

    def test_disabled_cache(self, cluster, gd_setup):
        program, inputs, data = gd_setup
        optimizer = ReMacOptimizer(cluster, OptimizerConfig(plan_cache=False))
        assert optimizer.plan_cache is None
        assert optimizer.plan_cache_stats is None
        compiled = optimizer.compile(program, inputs, data, iterations=6)
        assert "plan_cache" not in compiled.notes
        again = optimizer.compile(program, inputs, data, iterations=6)
        assert "plan_cache" not in again.notes


def _other(name: str, value):
    """A legal value for config field ``name`` that is not ``value``."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return value + "x"
    assert value is None
    return 1.0


class TestFingerprint:
    def fingerprint(self, gd_setup, cluster, *, inputs=None, config=None,
                    cluster_override=None, iterations=6, data=None,
                    tokens=None, policy=None, program=None):
        default_program, default_inputs, default_data = gd_setup
        return plan_fingerprint(
            program or default_program, inputs or default_inputs,
            settings_text(config or OptimizerConfig(),
                          cluster_override or cluster,
                          policy or ExecutionPolicy.systemds()),
            iterations=iterations,
            input_data=data if data is not None else default_data,
            tokens=tokens or DataTokens())

    def test_stable_for_same_arguments(self, cluster, gd_setup):
        tokens = DataTokens()
        a = self.fingerprint(gd_setup, cluster, tokens=tokens)
        b = self.fingerprint(gd_setup, cluster, tokens=tokens)
        assert a == b

    def test_metadata_change_invalidates(self, cluster, gd_setup):
        _, inputs, _ = gd_setup
        changed = dict(inputs)
        changed["A"] = MatrixMeta(inputs["A"].rows, inputs["A"].cols, 0.01)
        assert self.fingerprint(gd_setup, cluster) \
            != self.fingerprint(gd_setup, cluster, inputs=changed)

    def test_symmetric_flag_invalidates(self, cluster, gd_setup):
        _, inputs, _ = gd_setup
        changed = dict(inputs)
        changed["A"] = inputs["A"].with_symmetric(True) \
            if inputs["A"].rows == inputs["A"].cols \
            else MatrixMeta(inputs["A"].cols, inputs["A"].cols, 1.0,
                            symmetric=True)
        assert self.fingerprint(gd_setup, cluster) \
            != self.fingerprint(gd_setup, cluster, inputs=changed)

    def test_estimator_invalidates(self, cluster, gd_setup):
        assert self.fingerprint(gd_setup, cluster) \
            != self.fingerprint(gd_setup, cluster,
                                config=OptimizerConfig(estimator="metadata"))

    def test_strategy_invalidates(self, cluster, gd_setup):
        assert self.fingerprint(gd_setup, cluster) \
            != self.fingerprint(gd_setup, cluster,
                                config=OptimizerConfig(strategy="aggressive"))

    def test_cluster_invalidates(self, cluster, gd_setup):
        assert self.fingerprint(gd_setup, cluster) \
            != self.fingerprint(gd_setup, cluster,
                                cluster_override=cluster.as_single_node())

    def test_iteration_budget_invalidates(self, cluster, gd_setup):
        assert self.fingerprint(gd_setup, cluster, iterations=6) \
            != self.fingerprint(gd_setup, cluster, iterations=12)

    def test_perf_only_knobs_do_not_invalidate(self, cluster, gd_setup):
        """Toggling fast-path knobs must not fragment the cache keyspace."""
        tokens = DataTokens()
        base = self.fingerprint(gd_setup, cluster, tokens=tokens)
        tweaked = self.fingerprint(
            gd_setup, cluster, tokens=tokens,
            config=OptimizerConfig(cost_memo=False, plan_cache_size=2))
        assert base == tweaked

    @pytest.mark.parametrize("kwarg, perf_only", [
        ("config", PERF_ONLY_CONFIG_FIELDS),
        ("cluster_override", frozenset()),
        ("policy", frozenset()),
    ])
    def test_every_settings_field(self, cluster, gd_setup, kwarg, perf_only):
        """Each semantic config / cluster / policy field moves the digest,
        each ``PERF_ONLY_*`` field leaves it alone."""
        tokens = DataTokens()
        base = self.fingerprint(gd_setup, cluster, tokens=tokens)
        default = {"config": OptimizerConfig(), "cluster_override": cluster,
                   "policy": ExecutionPolicy.systemds()}[kwarg]
        names = [field.name for field in dataclasses.fields(default)]
        assert perf_only <= set(names)
        for name in names:
            changed = dataclasses.replace(default, **{
                name: _other(name, getattr(default, name))})
            digest = self.fingerprint(gd_setup, cluster, tokens=tokens,
                                      **{kwarg: changed})
            assert (digest == base) == (name in perf_only), name

    def test_shape_invalidates(self, cluster, gd_setup):
        _, inputs, _ = gd_setup
        changed = dict(inputs, b=MatrixMeta(inputs["b"].rows + 1, 1))
        assert self.fingerprint(gd_setup, cluster) \
            != self.fingerprint(gd_setup, cluster, inputs=changed)

    def test_program_text_invalidates(self, cluster, gd_setup):
        """One more statement, one literal digit, and a digit ``%g`` used
        to drop (6.0000001 and 6.0000002 both printed as ``6``)."""
        tokens = DataTokens()
        sources = [GD_SOURCE,
                   GD_SOURCE.replace("  i = i + 1\n",
                                     "  i = i + 1\n  g = g + g\n"),
                   GD_SOURCE.replace("i < 6", "i < 7"),
                   GD_SOURCE.replace("i < 6", "i < 6.0000001"),
                   GD_SOURCE.replace("i < 6", "i < 6.0000002")]
        digests = {self.fingerprint(
            gd_setup, cluster, tokens=tokens,
            program=parse(source, scalar_names={"i", "alpha"}))
            for source in sources}
        assert len(set(sources)) == len(digests) == 5

    def test_loop_budget_invalidates(self, cluster, gd_setup):
        tokens = DataTokens()
        a, b = (self.fingerprint(
            gd_setup, cluster, tokens=tokens,
            program=parse(GD_SOURCE, scalar_names={"i", "alpha"},
                          max_iterations=budget)) for budget in (6, 7))
        assert a != b

    def test_nested_loop_budget_invalidates(self, cluster, gd_setup):
        """The executor bounds an inner loop by its own ``max_iterations``,
        which the printed text omits: two programs that differ only there
        must not share a plan."""
        def nested(inner_budget: int) -> Program:
            step = Assign("x", Add(MatrixRef("x"), MatrixRef("x")))
            inner = WhileLoop(ScalarRef("__always__"), (step,),
                              max_iterations=inner_budget)
            outer = WhileLoop(ScalarRef("__always__"), (inner,),
                              max_iterations=3)
            return Program(statements=[outer], inputs=["x"])

        tokens = DataTokens()
        assert format_program(nested(2)) == format_program(nested(50))
        assert nested(2).loop_budgets == "3,2"
        assert self.fingerprint(gd_setup, cluster, tokens=tokens,
                                program=nested(2)) \
            != self.fingerprint(gd_setup, cluster, tokens=tokens,
                                program=nested(50))

    def test_kept_text_is_the_rendered_text(self, cluster, gd_setup):
        """A program's digest is the same on its first call, on its second
        (served from the text it kept) and for a freshly parsed equal
        program that has rendered nothing yet."""
        program, _, _ = gd_setup
        tokens = DataTokens()
        first = self.fingerprint(gd_setup, cluster, tokens=tokens)
        assert "text" in vars(program)
        second = self.fingerprint(gd_setup, cluster, tokens=tokens)
        fresh = parse(GD_SOURCE, scalar_names={"i", "alpha"})
        assert fresh == program and "text" not in vars(fresh)
        assert first == second == self.fingerprint(
            gd_setup, cluster, tokens=tokens, program=fresh)

    def test_fresh_data_objects_miss(self, cluster, gd_setup, rng):
        """Different matrices under the same metadata must never hit."""
        _, _, data = gd_setup
        tokens = DataTokens()
        other = dict(data)
        other["A"] = rng.random(data["A"].shape)
        assert self.fingerprint(gd_setup, cluster, tokens=tokens) \
            != self.fingerprint(gd_setup, cluster, data=other, tokens=tokens)


#: ``ReMacOptimizer._fingerprint(algo.program(7), metas, None, 7)``: per
#: algorithm, SHA-256 over the digests of every engine preset in name order.
#: Recorded before ``Program`` kept its text (loop-flat programs whose
#: literals survive ``%g`` keep their digests); re-pinned twice since: when
#: ``OptimizerConfig`` lost its ``calibration`` field (re-inserting that
#: field's ``calibration=None;`` into the settings text gives the pins
#: before it), and when the scripts declared their outputs (deleting the
#: ``output`` line from ``Program.text`` gives the pins before that).
PARENT_DIGESTS = {
    "bfgs": "d38174132c7a66ebc87144500429f413e1a8bd0604cfab357116d53084549bb5",
    "dfp": "ae329716241d1a6cefc7893f7c6c52227528d181d8abf258dec5b67dbb0343e7",
    "gd": "900f6572743da2f69d377c69fa3fc79a597fdc8ff57636a142b301b4c977f255",
    "gnmf": "0a106de932b856f064646e0b130b2af335356c8787748ef3ed8d0d1d67d08c29",
    "logistic": "cb4b95fea68ee5eb59e82ba2505a487e008329b30f8c864d9d22609c20d3f43c",
    "partial_dfp": "9f3ff803701a16e3d19e655a77bd91039d5017055949a5ee0d5053c19b625335",
    "power_iteration": "b3bb71ed65b2a56971074f8d2cc432e94c7805bac2a628b55932a373e4df0d4a",
    "ridge": "4007809ede2c8eaacd733ec159be1d24876854f41a00eb3a0baf3762330c7d34",
}


def test_digests_equal_the_parents():
    assert sorted(PARENT_DIGESTS) == sorted(ALGORITHMS)
    for name, pinned in PARENT_DIGESTS.items():
        algo = ALGORITHMS[name]
        metas, _ = algo.make_inputs(np.arange(1.0, 41.0).reshape(8, 5),
                                    seed=0, rank=3)
        fold = hashlib.sha256()
        for engine_name in sorted(ENGINES):
            optimizer = make_engine(engine_name, ClusterConfig()).optimizer
            fold.update(optimizer._fingerprint(algo.program(7), metas,
                                               None, 7).encode())
        assert fold.hexdigest() == pinned, name


class TestDataTokens:
    def test_same_object_same_token(self, rng):
        tokens = DataTokens()
        A = rng.random((4, 4))
        assert tokens.token(A) == tokens.token(A)

    def test_different_objects_different_tokens(self, rng):
        tokens = DataTokens()
        A = rng.random((4, 4))
        assert tokens.token(A) != tokens.token(A.copy())

    def test_scalars_by_value(self):
        tokens = DataTokens()
        assert tokens.token(2.5) == tokens.token(2.5)
        assert tokens.token(2.5) != tokens.token(3.5)
        assert tokens.token(None) == tokens.token(None)


class TestLRU:
    def test_eviction_and_stats(self):
        cache = PlanCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a"
        cache.put("c", 3)           # evicts "b", the least recent
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert len(cache) == 2
        stats = cache.stats.as_dict()
        assert stats["evictions"] == 1
        assert stats["hits"] == 3
        assert stats["misses"] == 1

    def test_clear(self):
        cache = PlanCache(maxsize=2)
        cache.put("a", 1)
        cache.clear()
        assert len(cache) == 0
        assert cache.get("a") is None

    def test_optimizer_respects_cache_size(self, cluster, gd_setup):
        program, inputs, data = gd_setup
        optimizer = ReMacOptimizer(cluster,
                                   OptimizerConfig(plan_cache_size=1))
        optimizer.compile(program, inputs, data, iterations=6)
        optimizer.compile(program, inputs, data, iterations=12)  # evicts
        optimizer.compile(program, inputs, data, iterations=6)   # miss again
        assert optimizer.plan_cache_stats["evictions"] >= 1


class TestConcurrentCompiles:
    """Single-flight coalescing: concurrent compiles are deterministic."""

    def _counting_optimizer(self, cluster):
        """An optimizer whose cold-compile path counts its invocations."""
        import threading

        optimizer = ReMacOptimizer(cluster)
        lock = threading.Lock()
        calls = []
        original = optimizer._compile_cold

        def counting(program, inputs, input_data=None, iterations=None,
                     *args, **kwargs):
            with lock:
                calls.append(iterations)
            return original(program, inputs, input_data, iterations,
                            *args, **kwargs)

        optimizer._compile_cold = counting
        return optimizer, calls

    def test_one_compile_per_unique_fingerprint(self, cluster, gd_setup):
        """N threads, few fingerprints: each compiles exactly once, every
        thread gets a bit-identical plan, and the hit/miss/coalesce
        counters account for every submission."""
        import threading

        program, inputs, data = gd_setup
        optimizer, calls = self._counting_optimizer(cluster)
        budgets = [6, 8, 10]          # near-miss fingerprints
        threads_per_budget = 4
        total = len(budgets) * threads_per_budget
        barrier = threading.Barrier(total)
        results: list[tuple[int, object]] = []
        errors: list[BaseException] = []
        lock = threading.Lock()

        def worker(iterations: int) -> None:
            try:
                barrier.wait()
                compiled = optimizer.compile(program, inputs, data,
                                             iterations=iterations)
                with lock:
                    results.append((iterations, compiled))
            except BaseException as error:  # pragma: no cover
                with lock:
                    errors.append(error)

        threads = [threading.Thread(target=worker, args=(budget,))
                   for budget in budgets
                   for _ in range(threads_per_budget)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(results) == total
        # Exactly one cold compile per unique fingerprint.
        assert sorted(calls) == sorted(budgets)
        # Every submission is exactly one of hit/miss/coalesced.
        stats = optimizer.plan_cache_stats
        assert stats["misses"] == len(budgets)
        assert stats["hits"] + stats["misses"] + stats["coalesced"] == total
        # All plans for one fingerprint are bit-identical.
        for budget in budgets:
            plans = [c for (i, c) in results if i == budget]
            reference = plans[0]
            for plan in plans[1:]:
                assert format_program(plan.program) \
                    == format_program(reference.program)
                assert plan.estimated_cost == reference.estimated_cost
                assert [str(o) for o in plan.applied_options] \
                    == [str(o) for o in reference.applied_options]
                assert plan.notes["plan_cache"] in ("miss", "hit",
                                                    "coalesced")

    def test_leader_failure_propagates_and_clears_inflight(self, cluster,
                                                           gd_setup):
        """A failed leader compile re-raises in followers and leaves no
        stuck in-flight record — a later retry compiles fresh."""
        import threading

        program, inputs, data = gd_setup
        optimizer = ReMacOptimizer(cluster)
        original = optimizer._compile_cold
        release = threading.Event()

        def failing(*args, **kwargs):
            release.wait(timeout=10.0)  # hold followers in the join path
            raise RuntimeError("synthetic compile failure")

        optimizer._compile_cold = failing
        errors: list[BaseException] = []
        lock = threading.Lock()
        started = threading.Barrier(3)

        def worker() -> None:
            try:
                started.wait()
                optimizer.compile(program, inputs, data, iterations=6)
            except RuntimeError as error:
                with lock:
                    errors.append(error)

        threads = [threading.Thread(target=worker) for _ in range(3)]
        for thread in threads:
            thread.start()
        release.set()
        for thread in threads:
            thread.join()
        assert len(errors) == 3
        assert all("synthetic compile failure" in str(e) for e in errors)
        # The in-flight table is clean: a retry compiles for real.
        optimizer._compile_cold = original
        compiled = optimizer.compile(program, inputs, data, iterations=6)
        assert compiled.notes["plan_cache"] == "miss"

    def test_concurrent_hits_after_warmup(self, cluster, gd_setup):
        """Post-warmup concurrency is all hits — no spurious recompiles."""
        import threading

        program, inputs, data = gd_setup
        optimizer, calls = self._counting_optimizer(cluster)
        optimizer.compile(program, inputs, data, iterations=6)
        barrier = threading.Barrier(6)
        outcomes: list[str] = []
        lock = threading.Lock()

        def worker() -> None:
            barrier.wait()
            compiled = optimizer.compile(program, inputs, data,
                                         iterations=6)
            with lock:
                outcomes.append(compiled.notes["plan_cache"])

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert calls == [6]           # the warmup compile only
        assert outcomes == ["hit"] * 6


class TestDataTokensLifecycle:
    def test_empty_registry_is_truthy(self):
        """``tokens or DataTokens()`` must never discard a shared registry:
        an empty one replaced by a throwaway would hand out equal serials
        for different objects — a wrong-cache-hit hazard."""
        tokens = DataTokens()
        assert len(tokens) == 0
        assert bool(tokens)

    def test_registry_does_not_grow_across_short_lived_inputs(self, rng):
        """Dead entries are purged by weakref callback, so the registry is
        bounded by *live* inputs, not by how many compiles ever happened."""
        import gc

        tokens = DataTokens()
        resident = rng.random((8, 8))
        tokens.token(resident)
        for _ in range(200):
            tokens.token(rng.random((4, 4)))  # dies immediately
        gc.collect()
        assert len(tokens) <= 2  # resident + at most one in-flight temp
        # The resident object still maps to its original token.
        assert tokens.token(resident) == "obj:1"

    def test_fresh_object_after_collection_gets_fresh_token(self, rng):
        """A recycled id() must not resurrect the dead object's token.

        A cycle-free ndarray dies at ``del`` and its weakref callback
        fires then, so no collection is needed for its id to come back.
        """
        tokens = DataTokens()
        seen, ids = set(), []
        for _ in range(50):
            value = rng.random((4, 4))
            ids.append(id(value))
            token = tokens.token(value)
            assert token not in seen
            seen.add(token)
            del value
        assert len(set(ids)) < len(ids), "no id() was recycled"
