"""mmchain fused operator tests (SystemDS's t(X)(Xv) fusion, §6.2.2)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.config import ClusterConfig
from repro.core.cost import CostModel, ProgramCostEvaluator, sketch_inputs
from repro.core.sparsity import make_estimator
from repro.lang import parse, parse_expression
from repro.lang.program import single_expression_program
from repro.matrix import MatrixMeta
from repro.runtime import CompiledProgram, ExecutionPolicy, Executor
from repro.runtime.plan import lower
from repro.runtime.pricing import price_matmul, price_mmchain

FUSED = ExecutionPolicy(mmchain_col_limit=512)


@pytest.fixture
def tall(rng):
    return rng.random((3000, 80))


def evaluate(cluster, policy, source, bindings):
    executor = Executor(cluster, policy)
    out = executor.run(single_expression_program(parse_expression(source)),
                       bindings)["out"]
    return out, executor.metrics


class TestCorrectness:
    def test_fused_matches_unfused(self, cluster, tall, rng):
        v = rng.random((80, 1))
        fused, _ = evaluate(cluster, FUSED, "t(A) %*% (A %*% v)",
                            {"A": tall, "v": v})
        assert np.allclose(fused.matrix.to_numpy(), tall.T @ (tall @ v))

    def test_fused_with_matrix_rhs(self, cluster, tall, rng):
        V = rng.random((80, 4))
        fused, metrics = evaluate(cluster, FUSED, "t(A) %*% (A %*% V)",
                                  {"A": tall, "V": V})
        assert np.allclose(fused.matrix.to_numpy(), tall.T @ (tall @ V))
        assert metrics.operator_counts.get("mmchain", 0) == 1

    def test_pattern_requires_same_base(self, cluster, tall, rng):
        B = rng.random((3000, 80))
        v = rng.random((80, 1))
        _out, metrics = evaluate(cluster, FUSED, "t(A) %*% (B %*% v)",
                                 {"A": tall, "B": B, "v": v})
        assert metrics.operator_counts.get("mmchain", 0) == 0

    def test_disabled_by_default_policy(self, cluster, tall, rng):
        v = rng.random((80, 1))
        _out, metrics = evaluate(cluster, ExecutionPolicy.systemds(),
                                 "t(A) %*% (A %*% v)", {"A": tall, "v": v})
        assert metrics.operator_counts.get("mmchain", 0) == 0


class TestColumnConstraint:
    def test_wide_second_matrix_rejected(self, cluster, rng):
        """The paper's cri3 failure: too many columns, no fusion."""
        wide = rng.random((400, 600))  # 600 > 512 limit
        v = rng.random((600, 1))
        _out, metrics = evaluate(cluster, FUSED, "t(A) %*% (A %*% v)",
                                 {"A": wide, "v": v})
        assert metrics.operator_counts.get("mmchain", 0) == 0

    def test_policy_helper(self):
        assert FUSED.mmchain_applicable_cols(512)
        assert not FUSED.mmchain_applicable_cols(513)
        assert not ExecutionPolicy.systemds().mmchain_applicable_cols(3)


class TestDeclinedChain:
    """A declined MMCHAIN record runs its plain code only, so an ``X``
    that is not a reference is evaluated, and charged, once."""

    SOURCE = "out = t(A %*% B) %*% ((A %*% B) %*% v)"

    @pytest.fixture
    def operands(self, rng):
        return {"A": rng.random((3000, 40)), "B": rng.random((40, 100)),
                "v": rng.random((100, 1))}

    @pytest.mark.parametrize("policy", [
        ExecutionPolicy.systemds(),
        replace(ExecutionPolicy.systemds(), fuse=True),
        ExecutionPolicy()], ids=["systemds", "systemds-fuse", "default"])
    def test_x_is_charged_once(self, operands, policy):
        config = ClusterConfig()
        executor = Executor(config, policy)
        out = executor.run(parse(self.SOURCE), operands)["out"]
        product = operands["A"] @ operands["B"]
        assert np.allclose(out.matrix.to_numpy(),
                           product.T @ (product @ operands["v"]))
        assert dict(executor.metrics.operator_counts) == {"bmm": 4}
        model = CostModel(config, make_estimator("exact"), policy)
        program = parse(self.SOURCE)
        metas = {name: MatrixMeta(*value.shape)
                 for name, value in operands.items()}
        lowered = lower(program.statements, metas, policy.fuse)
        ProgramCostEvaluator(model).evaluate(
            program, sketch_inputs(model, metas, operands), record=True,
            lowered=lowered)
        predicted = CompiledProgram(program, lowered=lowered).predicted_ops
        assert [op.kind for op in predicted[(0,)]] == ["matmul"] * 4


class TestPricing:
    def test_fused_cheaper_than_two_bmms(self, cluster):
        x = MatrixMeta(50_000, 100, 0.5)
        v = MatrixMeta(100, 1)
        inner = MatrixMeta(50_000, 1, 1.0)
        out = MatrixMeta(100, 1, 1.0)
        fused = price_mmchain(x, v, out, cluster, FUSED)
        step1 = price_matmul(x, v, inner, cluster, FUSED)
        step2 = price_matmul(x.transposed(), inner, out, cluster, FUSED,
                             left_fused_transpose=True)
        assert fused.seconds < step1.seconds + step2.seconds

    def test_local_mmchain_free_of_transmission(self, cluster):
        x = MatrixMeta(40, 10)
        fused = price_mmchain(x, MatrixMeta(10, 1), MatrixMeta(10, 1),
                              cluster, FUSED)
        assert fused.transmissions == ()

    def test_cost_model_matches_runtime_shape(self, cluster, tall, rng):
        """With the exact estimator the evaluator's mmchain price equals
        what the runtime charges."""
        v = rng.random((80, 1))
        program = parse("out = t(A) %*% (A %*% v)")
        meta = {"A": MatrixMeta(3000, 80, 1.0), "v": MatrixMeta(80, 1)}
        model = CostModel(cluster, make_estimator("exact"), FUSED)
        sketches = sketch_inputs(model, meta, {"A": tall, "v": v})
        predicted = ProgramCostEvaluator(model).evaluate(program, sketches)
        executor = Executor(cluster, FUSED)
        executor.run(program, {"A": tall, "v": v})
        assert predicted.total_seconds == pytest.approx(
            executor.metrics.execution_seconds, rel=0.05)


class TestSporesEngine:
    def _run(self, dataset_name: str, algo_name: str = "gd", iters: int = 3):
        from repro.engines import make_engine
        from repro.algorithms import get_algorithm
        from repro.data import load_dataset
        cluster = ClusterConfig()
        dataset = load_dataset(dataset_name, scale=0.25)
        algo = get_algorithm(algo_name)
        meta, data = algo.make_inputs(dataset.matrix)
        engine = make_engine("spores", cluster)
        return engine.run(algo.program(iters), meta, data,
                          symmetric=algo.symmetric_inputs, iterations=iters)

    def test_spores_fuses_gd_gram_chain(self):
        """GD has no CSE, so its AᵀAx chain survives to execution — the
        planner picks the fused order and the runtime runs mmchain."""
        result = self._run("cri2")   # 192 cols <= 512
        assert result.metrics.operator_counts.get("mmchain", 0) >= 1

    def test_spores_cannot_fuse_wide_data(self):
        """The §6.2.2 failure: red3's column count exceeds the limit."""
        result = self._run("red3")   # 1024 cols > 512
        assert result.metrics.operator_counts.get("mmchain", 0) == 0

    def test_spores_cse_can_subsume_the_pattern(self):
        """On partial DFP SPORES' sampled CSE rewrites the chain through
        temporaries, so no in-statement pattern remains to fuse — and the
        result is still correct."""
        import numpy as np
        from repro.algorithms import run_reference
        from repro.data import load_dataset
        from repro.algorithms import get_algorithm
        result = self._run("cri2", algo_name="partial_dfp", iters=1)
        dataset = load_dataset("cri2", scale=0.25)
        algo = get_algorithm("partial_dfp")
        _meta, data = algo.make_inputs(dataset.matrix)
        reference = run_reference("partial_dfp", data, 1)
        assert np.allclose(result.value("out"), reference["out"], rtol=1e-8)
