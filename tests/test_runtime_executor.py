"""Executor tests: correctness of every operator plus loop semantics."""

import weakref
from collections import Counter
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from scipy import sparse as sp

from repro.algorithms import get_algorithm
from repro.cluster.faults import CrashEvent, FaultPlan
from repro.core import ReMacOptimizer
from repro.core.chains import ChainPlaceholder
from repro.data import load_dataset
from repro.engines import make_engine
from repro.errors import ExecutionError, ShapeError
from repro.lang import ast, parse, parse_expression
from repro.lang.program import Assign, single_expression_program
from repro.matrix import Block, BlockedMatrix, MatrixMeta
from repro.matrix.block import COMPARE_COUNT_CELLS
import repro.core.cost.evaluate as evaluate_module
from repro.runtime import (CompiledProgram, ExecutionPolicy, ExecutionTracer,
                           Executor)
from repro.runtime.plan import BUILT, KEPT, LAST_READ, live_after, lower
from repro.runtime.physical import Value
from repro.runtime.recovery import RecoveryConfig
from repro.server.protocol import digest_result


@pytest.fixture
def executor(cluster):
    return Executor(cluster)


def evaluate(executor, source, bindings, scalar_names=frozenset()):
    expr = parse_expression(source, scalar_names=scalar_names)
    return executor.run(single_expression_program(expr), bindings)["out"]


class TestOperators:
    def test_matmul(self, executor, rng):
        a, b = rng.random((50, 30)), rng.random((30, 10))
        out = evaluate(executor, "A %*% B", {"A": a, "B": b})
        assert np.allclose(out.matrix.to_numpy(), a @ b)

    def test_fused_transpose_left(self, executor, rng):
        a, v = rng.random((500, 30)), rng.random((500, 1))
        out = evaluate(executor, "t(A) %*% v", {"A": a, "v": v})
        assert np.allclose(out.matrix.to_numpy(), a.T @ v)

    def test_fused_transpose_both(self, executor, rng):
        a, b = rng.random((40, 30)), rng.random((20, 40))
        out = evaluate(executor, "t(A) %*% t(B)", {"A": a, "B": b})
        assert np.allclose(out.matrix.to_numpy(), a.T @ b.T)

    def test_materialized_transpose(self, executor, rng):
        a = rng.random((50, 30))
        out = evaluate(executor, "t(A)", {"A": a})
        assert np.allclose(out.matrix.to_numpy(), a.T)

    def test_add_sub_mul_div(self, executor, rng):
        a = rng.random((20, 20))
        b = rng.random((20, 20)) + 0.5
        assert np.allclose(evaluate(executor, "A + B", {"A": a, "B": b})
                           .matrix.to_numpy(), a + b)
        assert np.allclose(evaluate(executor, "A - B", {"A": a, "B": b})
                           .matrix.to_numpy(), a - b)
        assert np.allclose(evaluate(executor, "A * B", {"A": a, "B": b})
                           .matrix.to_numpy(), a * b)
        assert np.allclose(evaluate(executor, "A / B", {"A": a, "B": b})
                           .matrix.to_numpy(), a / b)

    def test_scalar_broadcast(self, executor, rng):
        a = rng.random((20, 20))
        assert np.allclose(evaluate(executor, "2 * A", {"A": a})
                           .matrix.to_numpy(), 2 * a)
        assert np.allclose(evaluate(executor, "A + 3", {"A": a})
                           .matrix.to_numpy(), a + 3)
        assert np.allclose(evaluate(executor, "A / 2", {"A": a})
                           .matrix.to_numpy(), a / 2)
        assert np.allclose(evaluate(executor, "1 - A", {"A": a})
                           .matrix.to_numpy(), 1 - a)

    def test_division_by_scalar_chain(self, executor, rng):
        d = rng.random((30, 1))
        out = evaluate(executor, "d %*% t(d) / (t(d) %*% d)", {"d": d})
        assert np.allclose(out.matrix.to_numpy(), d @ d.T / (d.T @ d).item())

    def test_scalar_over_matrix_rejected(self, executor, rng):
        with pytest.raises(ExecutionError):
            evaluate(executor, "1 / A", {"A": rng.random((5, 5))})

    def test_division_by_zero_scalar_rejected(self, executor, rng):
        with pytest.raises(ExecutionError):
            evaluate(executor, "A / 0", {"A": rng.random((5, 5))})

    def test_negation(self, executor, rng):
        a = rng.random((10, 10))
        assert np.allclose(evaluate(executor, "-A", {"A": a})
                           .matrix.to_numpy(), -a)

    def test_sum_and_norm(self, executor, rng):
        a = rng.random((30, 20))
        assert evaluate(executor, "sum(A)", {"A": a}).scalar_value() \
            == pytest.approx(a.sum())
        assert evaluate(executor, "norm(A)", {"A": a}).scalar_value() \
            == pytest.approx(np.linalg.norm(a))

    def test_trace(self, executor, rng):
        a = rng.random((20, 20))
        assert evaluate(executor, "trace(A)", {"A": a}).scalar_value() \
            == pytest.approx(np.trace(a))
        with pytest.raises(ExecutionError):
            evaluate(executor, "trace(A)", {"A": rng.random((4, 5))})

    def test_nrow_ncol(self, executor, rng):
        a = rng.random((17, 5))
        assert evaluate(executor, "nrow(A)", {"A": a}).scalar_value() == 17
        assert evaluate(executor, "ncol(A)", {"A": a}).scalar_value() == 5

    def test_scalar_math(self, executor):
        assert evaluate(executor, "sqrt(s)", {"s": 9.0},
                        {"s"}).scalar_value() == pytest.approx(3.0)

    def test_sparse_input(self, executor, rng):
        a = sp.random(100, 40, density=0.1, format="csr", random_state=rng)
        v = rng.random((40, 1))
        out = evaluate(executor, "A %*% v", {"A": a, "v": v})
        assert np.allclose(out.matrix.to_numpy(), a @ v)

    def test_undefined_variable(self, executor):
        with pytest.raises(ExecutionError, match="undefined"):
            evaluate(executor, "Z %*% Z", {})


class TestEvaluateDispatch:
    """Every node type lowers to a record that reaches the kernel the
    recursive walk reached, a literal is made once, by the lowering, and
    the fusion probe runs where the lowering found a region."""

    A, S = ast.MatrixRef("A"), ast.ScalarRef("s")
    #: node -> a kernel it calls (None: an environment read or a literal).
    #: A cell-wise case is a two-member region.
    CASES = {
        ast.MatrixRef: (A, None),
        ast.ScalarRef: (S, None),
        ast.Literal: (ast.Literal(2.0), "from_scalar"),
        ast.Transpose: (ast.Transpose(A), "transpose"),
        ast.MatMul: (ast.MatMul(A, A), "matmul"),
        ast.Add: (ast.Add(ast.Neg(A), A), "add"),
        ast.Sub: (ast.Sub(ast.Neg(A), A), "subtract"),
        ast.ElemMul: (ast.ElemMul(ast.Neg(A), A), "multiply"),
        ast.ElemDiv: (ast.ElemDiv(ast.Neg(A), A), "divide"),
        ast.Neg: (ast.Neg(A), "negate"),
        ast.Compare: (ast.Compare("<", S, S), "from_scalar"),
        ast.Call: (ast.Call("sum", (A,)), "aggregate_sum"),
    }
    CELLWISE = (ast.Add, ast.Sub, ast.ElemMul, ast.ElemDiv)

    def test_every_node_type_has_a_case(self):
        assert set(self.CASES) == {node for node in ast.Expr.__subclasses__()
                                   if node.__module__ == ast.__name__}
        assert not any(node.__subclasses__() for node in self.CASES)

    @pytest.mark.parametrize("fuse", [False, True])
    @pytest.mark.parametrize("node", CASES, ids=lambda node: node.__name__)
    def test_node_reaches_the_kernel_it_reached(self, cluster, rng, node, fuse):
        executor = Executor(cluster, ExecutionPolicy(fuse=fuse))
        kernels = executor.kernels
        env = {"A": kernels.load("A", rng.random((20, 20)) + 0.5),
               "s": kernels.from_scalar(3.0)}
        calls = []

        def spy(owner, name):
            original = getattr(owner, name)

            def recording(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            setattr(owner, name, recording)

        for name in ("from_scalar", "transpose", "matmul", "add", "subtract",
                     "multiply", "divide", "negate", "aggregate_sum"):
            spy(kernels, name)
        spy(executor, "_run_fused")
        expr, kernel = self.CASES[node]
        statement = Assign("out", expr)
        lowered = lower([statement], {name: value.meta
                                      for name, value in env.items()}, fuse)
        value = executor._eval(lowered[id(statement)], env)
        probes = [name for name in calls if name == "_run_fused"]
        assert probes == ["_run_fused"] * (fuse and node in self.CELLWISE)
        reached = [name for name in calls if name != "_run_fused"]
        if kernel is None:
            assert reached == [] and value is env[expr.name]
        else:
            assert kernel in reached

    def test_a_node_of_no_program_is_refused(self, executor):
        # The optimizer's own stand-in node never reaches a rewritten
        # program; the executor has no branch for it.
        with pytest.raises(ExecutionError,
                           match="expression node ChainPlaceholder"):
            executor.run(single_expression_program(ChainPlaceholder(0)), {})


class TestPreTiledInputs:
    def test_wrong_block_size_is_refused_by_name(self, executor, rng):
        grid = BlockedMatrix.from_numpy(rng.random((50, 30)), block_size=16)
        with pytest.raises(ShapeError,
                           match="input 'A'.*block size 16, expected 64"):
            executor.kernels.load("A", grid)

    def test_symmetric_is_honoured_without_touching_the_grid(self, executor,
                                                             rng):
        values = rng.random((50, 50))
        grid = BlockedMatrix.from_numpy(values + values.T, block_size=64)
        loaded = executor.kernels.load("H", grid, symmetric=True)
        assert loaded.meta.symmetric and not grid.symmetric

    def test_grid_keeps_its_transposed_tiles_across_executors(self, cluster,
                                                              rng):
        a, v = rng.random((500, 30)), rng.random((500, 1))
        grid = BlockedMatrix.from_numpy(a, cluster.block_size)
        tiles = grid.transpose().blocks
        for _ in range(2):
            out = evaluate(Executor(cluster), "t(A) %*% v",
                           {"A": grid, "v": v})
            assert np.allclose(out.matrix.to_numpy(), a.T @ v)
            assert all(block is tiles[key]
                       for key, block in grid.transpose().blocks.items())


class TestPrograms:
    def test_loop_runs_until_condition(self, cluster):
        program = parse("""
            s = 0
            i = 0
            while (i < 4) {
              s = s + 2
              i = i + 1
            }""", scalar_names={"s", "i"})
        executor = Executor(cluster)
        env = executor.run(program, {})
        assert env["s"].scalar_value() == 8.0
        assert executor.loop_iterations == [4]

    def test_loop_respects_max_iterations(self, cluster):
        program = parse("while (1 < 2) { x = x + 1 }", scalar_names={"x"},
                        max_iterations=5)
        executor = Executor(cluster)
        env = executor.run(program, {"x": 0.0})
        assert env["x"].scalar_value() == 5.0

    def test_loop_condition_must_be_scalar(self, cluster, rng):
        program = parse("while (A) { x = x + 1 }", scalar_names={"x"},
                        max_iterations=2)
        executor = Executor(cluster)
        with pytest.raises(ExecutionError):
            executor.run(program, {"A": rng.random((3, 3)), "x": 0.0})

    def test_metrics_accumulate_across_statements(self, cluster, rng):
        program = parse("u = A %*% v\nw = t(A) %*% u")
        executor = Executor(cluster)
        executor.run(program, {"A": rng.random((2000, 50)),
                               "v": rng.random((50, 1))})
        assert executor.metrics.execution_seconds > 0
        assert executor.metrics.operator_counts.get("bmm", 0) >= 1

    def test_charge_partition_records_ingest(self, cluster, rng):
        program = parse("u = A %*% v")
        executor = Executor(cluster)
        executor.run(program, {"A": rng.random((2000, 50)),
                               "v": rng.random((50, 1))}, charge_partition=True)
        assert executor.metrics.seconds_by_phase["input_partition"] > 0

    def test_single_node_no_transmission(self, single_node, rng):
        program = parse("u = A %*% v\nw = t(A) %*% u")
        executor = Executor(single_node)
        executor.run(program, {"A": rng.random((2000, 50)),
                               "v": rng.random((50, 1))})
        assert executor.metrics.seconds_by_phase.get("transmission", 0.0) == 0.0


class TestPolicies:
    def test_pbdr_distributes_everything(self, cluster, rng):
        executor = Executor(cluster, ExecutionPolicy.pbdr())
        a, b = rng.random((30, 20)), rng.random((20, 10))
        out = evaluate(executor, "A %*% B", {"A": a, "B": b})
        assert np.allclose(out.matrix.to_numpy(), a @ b)
        # Even a tiny multiply runs distributed under pbdR's policy.
        assert executor.metrics.operator_counts.get("cpmm", 0) >= 1

    def test_scidb_densifies_mixed_products(self, cluster, rng):
        executor = Executor(cluster, ExecutionPolicy.scidb())
        a = sp.random(200, 100, density=0.05, format="csr", random_state=rng)
        b = rng.random((100, 20))
        out = evaluate(executor, "A %*% B", {"A": a, "B": b})
        assert np.allclose(out.matrix.to_numpy(), a @ b)


class TestCellwiseAndStructuralBuiltins:
    def test_exp_densifies_sparse_matrix(self, executor, rng):
        a = sp.random(100, 40, density=0.05, format="csr", random_state=rng)
        out = evaluate(executor, "exp(A)", {"A": a})
        assert np.allclose(out.matrix.to_numpy(), np.exp(a.toarray()))
        assert out.meta.sparsity == pytest.approx(1.0)

    def test_sigmoid(self, executor, rng):
        a = rng.standard_normal((30, 20))
        out = evaluate(executor, "sigmoid(A)", {"A": a})
        assert np.allclose(out.matrix.to_numpy(), 1 / (1 + np.exp(-a)))

    def test_sqrt_preserves_zeros(self, executor, rng):
        a = sp.random(100, 40, density=0.05, format="csr", random_state=rng)
        out = evaluate(executor, "sqrt(A)", {"A": a})
        assert out.matrix.nnz == a.nnz
        assert np.allclose(out.matrix.to_numpy(), np.sqrt(a.toarray()))

    def test_abs(self, executor, rng):
        a = rng.standard_normal((20, 20))
        out = evaluate(executor, "abs(A)", {"A": a})
        assert np.allclose(out.matrix.to_numpy(), np.abs(a))

    def test_rowsums_colsums(self, executor, rng):
        a = rng.random((50, 30))
        rows = evaluate(executor, "rowsums(A)", {"A": a})
        cols = evaluate(executor, "colsums(A)", {"A": a})
        assert np.allclose(rows.matrix.to_numpy(), a.sum(axis=1, keepdims=True))
        assert np.allclose(cols.matrix.to_numpy(), a.sum(axis=0, keepdims=True))

    def test_rowsums_on_sparse_multi_block(self, executor, rng):
        a = sp.random(300, 150, density=0.05, format="csr", random_state=rng)
        out = evaluate(executor, "rowsums(A)", {"A": a})
        assert np.allclose(out.matrix.to_numpy(),
                           np.asarray(a.sum(axis=1)))

    def test_diag(self, executor, rng):
        a = rng.random((80, 80))
        out = evaluate(executor, "diag(A)", {"A": a})
        assert np.allclose(out.matrix.to_numpy(), np.diag(a).reshape(-1, 1))

    def test_diag_nonsquare_rejected(self, executor, rng):
        from repro.errors import ShapeError
        with pytest.raises(ShapeError):
            evaluate(executor, "diag(A)", {"A": rng.random((4, 6))})

    def test_sigmoid_scalar(self, executor):
        out = evaluate(executor, "sigmoid(s)", {"s": 0.0}, {"s"})
        assert out.scalar_value() == pytest.approx(0.5)

    def test_distributed_map_charged_compute(self, cluster, rng):
        executor = Executor(cluster)
        a = rng.random((3000, 50))  # distributed under the tight budget
        assert executor.kernels.load("A", a).distributed
        evaluate(executor, "exp(A)", {"A": a})
        assert executor.metrics.seconds_by_phase["computation"] > 0


#: The cell-wise grid kernels, named by what they do to a tile.
_CELLWISE = {"add": "zipped", "subtract": "zipped", "multiply": "zipped",
             "divide": "zipped", "scale": "scaled", "add_scalar": "shifted",
             "negate": "negated"}


class _Consumption:
    """Watches the cell-wise grid kernels, and the statements of every
    executor, while installed.

    A result tile that is a new block over an operand's dense payload was
    written over that operand: it is counted by kernel, its size kept, and
    the operand grid held weakly — it must be dead once its statement has
    run (nobody, the tracer included, kept it), unless ``lineage`` (the
    reader's recovery thunk keeps it). An operand that is a variable's
    value, and every name a statement dropped, must be dead after the
    statement by :func:`~repro.runtime.plan.live_after` (its value: the
    statement may assign the name anew); ``written_names`` counts those
    variables. No result tile may share memory with a ``held`` array or a
    variable live after its statement or bound by a caller.
    """

    def __init__(self, monkeypatch, held=(), lineage=False):
        self.written = Counter()
        self.written_names = Counter()
        self.sizes = []
        self.held = list(held)
        self.lineage = lineage
        self._spent = []
        self._env = {}
        self._live = None
        self._stmt = None
        for name, kind in _CELLWISE.items():
            monkeypatch.setattr(BlockedMatrix, name,
                                self._kernel(getattr(BlockedMatrix, name), kind))
        monkeypatch.setattr(Executor, "_run_block",
                            self._statements(Executor._run_block))

    def _kept(self, name):
        """Whether the running statement leaves ``name``'s value live."""
        stmt = self._stmt
        if not isinstance(stmt, Assign):
            return True  # a loop condition gives nothing up
        if self._live is None:
            return True
        return name != stmt.target and name in self._live[id(stmt)]

    def _kernel(self, kernel, kind):
        def watched(grid, *args, **kwargs):
            operands = [grid, *(arg for arg in args
                                if isinstance(arg, BlockedMatrix))]
            tiles = [block for operand in operands
                     for block in operand.blocks.values()]
            payloads = [(operand, block.data) for operand in operands
                        for block in operand.blocks.values()
                        if not block.is_sparse]
            held = self.held + [block.data for name, value in self._env.items()
                                if self._kept(name) or value.name is not None
                                for block in value.matrix.blocks.values()
                                if not block.is_sparse]
            result = kernel(grid, *args, **kwargs)
            for block in result.blocks.values():
                if block.is_sparse or any(block is tile for tile in tiles):
                    continue  # CSR, or handed on as it is (``X + 0``)
                spent = [operand for operand, data in payloads
                         if np.shares_memory(block.data, data)]
                if spent:
                    self.written[kind] += 1
                    self.sizes.append(block.data.size)
                    self._spent += [weakref.ref(operand) for operand in spent]
                    names = [name for name, value in self._env.items()
                             if value.number is None and any(
                                 value.matrix is grid for grid in spent)]
                    assert not any(map(self._kept, names)), names
                    self.written_names.update(names)
                assert not any(np.shares_memory(block.data, data)
                               for data in held)
            return result
        return watched

    def _statements(self, run_block):
        def watched(executor, statements, env, path=()):
            self._env = env
            self._live = live_after(executor._top_statements,
                                    executor._outputs)
            for stmt in statements:
                before, outer, self._stmt = set(env), self._stmt, stmt
                run_block(executor, [stmt], env, path)
                self._stmt = outer
                if isinstance(stmt, Assign):
                    before.add(stmt.target)
                gone = before - set(env)
                assert not gone if self._live is None else \
                    gone.isdisjoint(self._live[id(stmt)]), (stmt, gone)
                assert self.lineage or all(ref() is None
                                           for ref in self._spent), stmt
                self._spent.clear()
        return watched


def _tile_bytes(grid):
    return [(key, block.to_dense_array().tobytes())
            for key, block in grid.blocks.items()]


class TestDyingTemporaries:
    """A temporary a kernel made for one cell-wise operator dies into it:
    the operator writes its result over the temporary's tiles. Nothing
    else is ever written over — no variable, no input, no resident grid,
    no local value a recovery thunk would re-read, no tile under the size
    gate — and the run is the run that writes over nothing."""

    @staticmethod
    def _workload(algorithm, dataset, scale):
        algo = get_algorithm(algorithm)
        meta, data = algo.make_inputs(
            load_dataset(dataset, scale=scale).matrix)
        engine = make_engine("remac")
        compiled = engine.compile(algo.program(10), meta, data, iterations=10)
        return algo, engine, compiled, data

    @pytest.mark.parametrize("algorithm, dataset, scale, written, names", [
        # H's update: two scaled rank-one products of 2 x 2 tiles, and the
        # difference and sum over them, ten times; the difference writes
        # over the old H, dead there, from the second iteration on (the
        # first reads the input's).
        ("dfp", "red3", 0.1, {"scaled": 80, "zipped": 78}, {"H": 36}),
        # R = V - W %*% Hm, both multiplicative updates, their + 1e-6, and
        # R * R over R itself, dead at that read (320 zipped while every
        # name lived to the end).
        ("gnmf", "red2", 0.5, {"zipped": 480, "shifted": 160}, {"R": 160}),
    ])
    def test_an_execute_writes_over_what_dies_and_nothing_else(
            self, monkeypatch, reverted, algorithm, dataset, scale, written,
            names):
        algo, engine, compiled, data = self._workload(algorithm, dataset,
                                                      scale)
        symmetric = algo.symmetric_inputs
        # Tiled once and handed over, as a resident workload's inputs are.
        grids = {name: BlockedMatrix.from_any(
                     value, block_size=engine.cluster.block_size,
                     symmetric=name in symmetric)
                 for name, value in data.items()
                 if not isinstance(value, float)}
        before = {name: _tile_bytes(grid) for name, grid in grids.items()}
        watch = _Consumption(monkeypatch, held=[
            block.data for grid in grids.values()
            for block in grid.blocks.values() if not block.is_sparse])
        with reverted("dying"):
            reference = engine.execute(compiled, data, symmetric=symmetric)
        assert not watch.written
        for inputs in (data, {**data, **grids}):
            watch.written.clear()
            watch.written_names.clear()
            run = engine.execute(compiled, inputs, symmetric=symmetric)
            assert dict(watch.written) == written
            assert dict(watch.written_names) == names
            assert min(watch.sizes) >= COMPARE_COUNT_CELLS
            assert digest_result(run, algo.outputs) \
                == digest_result(reference, algo.outputs)
            assert run.metrics.summary() == reference.metrics.summary()
        assert {name: _tile_bytes(grid) for name, grid in grids.items()} \
            == before

    def test_an_armed_execute_writes_over_what_lineage_heals_first(
            self, monkeypatch, reverted):
        """Under a recovery manager a temporary dies unless it is a local
        value its distributed reader's thunk would re-read: of H's update,
        the scaled rank-one products are refused, the rest is written over
        as unarmed, and a crashed run is the run that writes over
        nothing."""
        algo, engine, compiled, data = self._workload("dfp", "red3", 0.1)
        symmetric = algo.symmetric_inputs
        horizon = engine.execute(compiled, data,
                                 symmetric=symmetric).execution_seconds
        plan = FaultPlan(crashes=(CrashEvent(0.6 * horizon, 0),))
        with reverted("dying"):
            reference = engine.execute(compiled, data, symmetric=symmetric,
                                       fault_plan=plan)
        watch = _Consumption(monkeypatch, lineage=True)
        run = engine.execute(compiled, data, symmetric=symmetric,
                             fault_plan=plan)
        # Unarmed: {"scaled": 80, "zipped": 78}.
        assert dict(watch.written) == {"zipped": 78}
        faults = run.metrics.fault_summary
        assert faults["fault_worker_crashes"] == 1.0
        assert faults["recovery_recomputed_blocks"] > 0
        assert digest_result(run, algo.outputs) \
            == digest_result(reference, algo.outputs)
        assert faults == reference.metrics.fault_summary
        assert run.metrics.summary() == reference.metrics.summary()

    @pytest.mark.parametrize("operation", ["zip", "shift", "from_scalar"])
    def test_operand_metas_are_read_before_the_operator(self, cluster, rng,
                                                        operation):
        kernels = Executor(cluster).kernels
        cells = rng.random((128, 64))
        cells[cells < 0.5] = 0.0
        # Built by hand and given up: no tile or grid statistic is known
        # until the operator asks, and its operands are written over.
        private = BlockedMatrix(128, 64, 64, blocks={
            (bi, 0): Block.of(cells[bi * 64:(bi + 1) * 64].copy(), False)
            for bi in range(2)})
        private.owns_tiles = True
        tiles = [block.data for block in private.blocks.values()]
        value, two = Value(private, False), kernels.from_scalar(2.0)
        ones = kernels.load("ones", np.ones((128, 64)))
        out = {"zip": lambda: kernels.add(value, ones, dying=(True, False)),
               "shift": lambda: kernels.add(value, two, dying=(True, False)),
               "from_scalar": lambda: kernels.subtract(
                   two, value, dying=(False, True))}[operation]()
        assert all(np.shares_memory(out.matrix.blocks[bi, 0].data, tiles[bi])
                   for bi in range(2))
        # One operator priced, with the operand as it was: half its cells
        # were zero, none of what is in its tiles now is.
        [(_function, charged, _flags)] = kernels._prices
        assert charged[1] == BlockedMatrix.from_numpy(cells, 64).meta()
        assert charged[1].sparsity < 0.6 and out.meta.sparsity == 1.0


class TestLiveness:
    """What a program declares it returns decides what dies where: a dead
    name leaves the environment, a cell-wise last read may write over it,
    and nothing else moves — the run computes and is charged what a run
    that keeps every name does. 128 x 128 operands on 64-cell tiles: every
    tile is past the size gate."""

    LOOP = ("input A, B, x\noutput y\ni = 0\nwhile (i < 3) {\n"
            "  R = A - B\n  obj = sum(R * R)\n  i = i + 1\n}\n"
            "y = A * obj\n")

    @staticmethod
    def _inputs():
        rng = np.random.default_rng(8)
        return {"A": rng.random((128, 128)), "B": rng.random((128, 128)),
                "x": rng.random((128, 1))}

    @staticmethod
    def _run(cluster, program, inputs, **executor_args):
        """The environment, and what the run was charged."""
        executor = Executor(cluster, **executor_args)
        env = executor.run(program, inputs)
        return env, (executor.metrics.summary(),
                     executor.metrics.operator_counts)

    def test_a_dead_value_is_dropped_and_its_last_read_written_over(
            self, cluster, monkeypatch, reverted):
        program = parse(self.LOOP, scalar_names={"i", "obj"})
        with reverted("liveness"):
            kept, charged = self._run(cluster, program, self._inputs())
        watch = _Consumption(monkeypatch)
        env, summary = self._run(cluster, program, self._inputs())
        # The input x is dead throughout, but a caller holds it.
        assert sorted(env) == ["A", "B", "__always__", "x", "y"]
        assert sorted(kept) == ["A", "B", "R", "__always__", "i", "obj",
                                "x", "y"]
        assert dict(watch.written_names) == {"R": 12}  # 4 tiles, 3 times
        assert summary == charged
        assert _tile_bytes(env["y"].matrix) == _tile_bytes(kept["y"].matrix)

    def test_the_analysis_is_kept_with_the_records(self, cluster):
        program = parse(self.LOOP, scalar_names={"i", "obj"})
        loop = program.statements[1]
        r, obj, i = loop.body
        live = live_after(program.statements, program.outputs)
        assert live[id(obj)] == {"A", "B", "obj", "i"}
        assert live[id(loop)] == {"A", "obj"}
        lowered = lower(program.statements, {}, False, program.outputs,
                        program.inputs)
        assert [lowered[id(stmt)].dead for stmt in (r, obj, i, loop)] \
            == [(), ("R",), (), ("R", "i")]
        assert [op.dying for op in lowered[id(obj)] if op.dying] \
            == [(LAST_READ, LAST_READ)]
        # Without an output line, nothing dies and no name is given up.
        bare = replace(program, outputs=())
        lowered = lower(bare.statements, {}, False, (), bare.inputs)
        assert not any(code.dead for code in lowered.values())
        assert not any(LAST_READ in op.dying
                       for code in lowered.values() for op in code)

    def test_a_dead_assignment_still_runs_and_is_charged(self, cluster,
                                                         reverted):
        program = parse("input A, B\noutput y\nz = A %*% B\ny = A * 2\n")
        with reverted("liveness"):
            kept, charged = self._run(cluster, program, self._inputs())
        env, summary = self._run(cluster, program, self._inputs())
        assert "z" in kept and "z" not in env
        assert summary == charged and sum(summary[1].values()) == 2

    @pytest.mark.parametrize("source, given_up", [
        # a's value is b's too: live after a's last read.
        ("b = a\ny = a * 3", KEPT),
        # b's tiles are views of a's payloads: a lent them.
        ("b = t(a)\ny = a * 3", LAST_READ),
        # The first read of a still waits on the stack for the last one.
        ("b = a * 0.5\ny = a - a * 3", KEPT)])
    def test_a_value_another_name_or_read_holds_is_not_written_over(
            self, cluster, monkeypatch, reverted, source, given_up):
        program = parse(f"input A\noutput y, b\na = A * 2\n{source}\n")
        with reverted("liveness"):
            kept, _ = self._run(cluster, program, self._inputs())
        watch = _Consumption(monkeypatch)
        env, _ = self._run(cluster, program, self._inputs())
        y = program.statements[-1]
        lowered = lower(program.statements, {}, False, program.outputs,
                        program.inputs)
        assert {given for op in lowered[id(y)] for given in op.dying
                if given != BUILT} == {given_up}
        assert not watch.written_names
        for name in "by":
            assert _tile_bytes(env[name].matrix) \
                == _tile_bytes(kept[name].matrix)

    def test_armed_or_bound_by_a_caller_a_value_is_not_written_over(
            self, cluster, monkeypatch):
        program = parse(self.LOOP, scalar_names={"i", "obj"})
        watch = _Consumption(monkeypatch, lineage=True)
        env, _ = self._run(cluster, program, self._inputs(),
                           recovery_config=RecoveryConfig())
        assert not watch.written_names and "R" not in env
        # A grid a kernel built, handed in as an input, is the caller's.
        built = env["y"].matrix
        assert built.owns_tiles
        before = _tile_bytes(built)
        env, _ = self._run(cluster, parse("input A\noutput z\nz = A * 2\n"),
                           {"A": built})
        assert not watch.written_names and _tile_bytes(built) == before


class TestDriverScalars:
    """A 1x1 cell-wise operator computes on driver floats (that it equals
    the grid path is ``test_identity.py``'s ``driver_floats`` seam): a
    builtin fails typed, and a plan is lowered by its cold compile alone."""

    @pytest.mark.parametrize("source, builtin", [
        ("log(0 - s)", "log"), ("sqrt(0 - s)", "sqrt"),
        ("exp(s * 1000)", "exp")])
    def test_a_scalar_builtin_fails_typed_at_its_statement(
            self, executor, source, builtin):
        program = parse(f"input A\ns = sum(A)\ny = {source}\n")
        with pytest.raises(ExecutionError,
                           match=rf"^{builtin}\(.*at statement 1, "
                                 "assigning 'y'"):
            executor.run(program, {"A": np.ones((4, 4))})

    def test_a_warm_copy_lowers_nothing(self):
        algo = get_algorithm("gd")
        meta, data = algo.make_inputs(load_dataset("cri1", scale=0.3).matrix)
        engine = make_engine("remac")
        cold = engine.compile(algo.program(3), meta, data, iterations=3)
        warm = engine.compile(algo.program(3), meta, data, iterations=3)
        assert warm is not cold and warm.notes["plan_cache"] == "hit"
        with mock.patch.object(evaluate_module, "lower",
                               wraps=evaluate_module.lower) as lowering:
            runs = [engine.execute(plan, data) for plan in (cold, warm, warm)]
            assert lowering.call_count == 0
            Executor(engine.cluster, ExecutionPolicy(fuse=True)).run(cold, data)
        assert lowering.call_count == 1  # compiled unfused: lowered afresh
        assert len({run.execution_seconds for run in runs}) == 1

    def test_a_plan_switch_lowers_the_switched_plan_once(self, cluster):
        source = "while (i < 4) {\n  x = x * 2\n  i = i + 1\n}\n"
        switched = ReMacOptimizer(cluster).compile(  # lowered here, once
            parse(source, scalar_names={"i"}),
            {"x": MatrixMeta(3, 1), "i": MatrixMeta(1, 1)})

        class Switching:
            generation = 0

            def consider(self, executor, loop, env, path, iterations,
                         trailing):
                if not self.generation:
                    self.generation = 1
                    return switched
                return None

            def metrics_summary(self):
                return {}

        plan = CompiledProgram(parse("i = 0\n" + source,
                                     scalar_names={"i"}))
        with mock.patch.object(evaluate_module, "lower",
                               wraps=evaluate_module.lower) as lowering:
            env = Executor(cluster, tracer=ExecutionTracer(),
                           replanner=Switching()).run(
                plan, {"x": np.ones((3, 1))})
        assert lowering.call_count == 1 and plan.lowered is None
        assert np.array_equal(env["x"].matrix.to_numpy(), np.full((3, 1), 16))

