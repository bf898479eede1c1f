"""One identity harness: a perf-only layer changes how fast a run is, never
what it reports (:func:`record`). Every case in :data:`CASES` reproduces
its entry in ``tests/data/identity_golden.json``. Oracle one, the run with
every seam of ``tests/conftest.py::SEAMS`` reverted: covering cases match
their entry so, traced, pre-tiled, as a warm plan-cache hit and served;
generated programs (no recovery manager, an idle one, a crash), declaring
a drawn subset of their names as outputs (a crashed one, none), match it
statement by statement on what they return. Oracle two, for fusion and
faults, which change simulated time by design, the plain run: generated
programs, fused or not, crashed or under a seeded fault plan, compute its
outputs or stop with its error. A new perf-only layer adds one seam and, at most, one
case. Re-record cases, by name or ``fnmatch`` pattern, only at a commit
whose figures are the reference:
``PYTHONPATH=src python tests/test_identity.py 'sweep/*' ...``.
"""

from __future__ import annotations

import asyncio
import fnmatch
import functools
import hashlib
import json
import sys
from contextlib import closing
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st
from scipy import sparse as sp

from repro.algorithms import get_algorithm
from repro.cluster.faults import CrashEvent, FaultPlan
from repro.config import ClusterConfig
from repro.core import PlanCache
from repro.data import load_dataset
from repro.engines import make_engine
from repro.engines.base import RunResult
from repro.errors import ExecutionError
from repro.lang import ast, parse
from repro.lang.program import Assign, Program, WhileLoop
from repro.matrix import Block, BlockedMatrix, MatrixMeta
from repro.runtime import ExecutionTracer, Executor, plan
from repro.runtime.physical import PartitionMemo
from repro.runtime.recovery import RecoveryConfig
from repro.server.protocol import array_digest
from repro.server.service import OptimizerService

GOLDEN_PATH = Path(__file__).parent / "data" / "identity_golden.json"
#: The execute cases' workload size, unless a case names its own.
SCALE, ITERATIONS = 0.3, 3


def record(run, names) -> dict:
    """Each named value's SHA-256, the simulated seconds and the metrics
    summary, floats by ``repr``; the compilation phase is host wall-clock,
    so it is left out of the summary and its total. A compiled plan adds
    its estimated cost and a SHA-256 of its predicted operators."""
    summary = run.metrics.summary()
    summary.pop("seconds_compilation", None)
    summary["seconds_total"] = sum(
        seconds for phase, seconds in run.metrics.seconds_by_phase.items()
        if phase != "compilation")
    pins = {"outputs": {name: array_digest(run.value(name)) for name in names},
            "execution_seconds": repr(run.execution_seconds),
            "summary": {key: repr(value)
                        for key, value in sorted(summary.items())}}
    if run.compiled is not None:
        pins["estimated_cost"] = repr(run.compiled.estimated_cost)
        pins["predicted_ops"] = hashlib.sha256(repr(sorted(
            run.compiled.predicted_ops.items())).encode()).hexdigest()
    return pins


def variables(env) -> list[str]:
    return sorted(name for name in env if not name.startswith("__"))


@functools.lru_cache(maxsize=None)
def _golden():
    return json.loads(GOLDEN_PATH.read_text())


@functools.lru_cache(maxsize=None)
def _workload(algorithm, dataset, scale):
    algo = get_algorithm(algorithm)
    meta, data = algo.make_inputs(load_dataset(dataset, scale=scale).matrix)
    return algo, meta, data


# Cases: each returns the run, the names to record, and a structural check
# of what the run left behind (or None).
def execute_case(algorithm, dataset, engine, scale=SCALE,
                 iterations=ITERATIONS, tracer=None, pretiled=False,
                 warm=False):
    algo, meta, data = _workload(algorithm, dataset, scale)
    engine = make_engine(engine, ClusterConfig())
    program = algo.program(iterations)
    if warm:  # a hit in a cache that holds the fused plan too
        engine.adopt_plan_cache(PlanCache())
        engine.with_fusion(True).compile(program, meta, data, iterations)
        engine.with_fusion(False).compile(program, meta, data, iterations)
    compiled = engine.compile(program, meta, data, iterations=iterations)
    assert compiled.notes["plan_cache"] == ("hit" if warm else "miss")
    if pretiled:  # tiled once and handed over, as a resident workload's
        data = {name: value if isinstance(value, float)
                else BlockedMatrix.from_any(
                    value, block_size=engine.cluster.block_size,
                    symmetric=name in algo.symmetric_inputs)
                for name, value in data.items()}
    run = engine.execute(compiled, data, symmetric=algo.symmetric_inputs,
                         tracer=tracer)
    return run, algo.outputs, None


@functools.lru_cache(maxsize=None)
def _crash_setup():
    """gd/cri3 (scale 0.3, 5 iterations, remac, six workers), whose ``A``
    is a CSR input two tiles wide, compiled once; the fault-free horizon.
    The cases record every variable, so the script's ``output`` line is
    left out: every name lives to the end."""
    algo, meta, data = _workload("gd", "cri3", 0.3)
    engine = make_engine("remac")
    assert data["A"].format == "csr"
    assert engine.cluster.block_size < data["A"].shape[1] \
        <= 2 * engine.cluster.block_size
    program = replace(algo.program(5), outputs=())
    compiled = engine.compile(program, meta, data, iterations=5)
    horizon = engine.execute(compiled, data).metrics.execution_seconds
    return engine, compiled, data, horizon


def fused_case():
    """Fusion on: a region that fuses, an mmchain admitted by cost alone."""
    rng = np.random.default_rng(3)
    data = {"A": rng.random((300, 300)),
            "S": rng.random((300, 300)) * (rng.random((300, 300)) < 0.02),
            "X": rng.random((3000, 100)), "v": rng.random((100, 1))}
    meta = {name: MatrixMeta(*x.shape, np.count_nonzero(x) / x.size)
            for name, x in data.items()}
    program = parse("i = 0\nwhile (i < 3) {\n  B = (A + S) * S - A\n  v = "
                    "t(X) %*% (X %*% v) / sum(B)\n  i = i + 1\n}",
                    scalar_names={"i"})
    engine = make_engine("systemds").with_fusion(True)
    run = engine.execute(engine.compile(program, meta, data, 3), data)

    def check():
        counts = run.metrics.operator_counts
        assert counts["fused_ewise"] == counts["mmchain"] == 3
    return run, ["B", "v"], check


def crash_case(crashes, live_twin=False):
    """A crashed run on ``A`` tiled afresh: the transposed tiles a crash
    finds on it are the ones ``from_scipy`` made at load, or, with a live
    twin, the ones a caller's ``transpose()`` kept. The surgery lets them
    go; what is transposed after it, is transposed from the healed tiles."""
    engine, compiled, data, horizon = _crash_setup()
    source = BlockedMatrix.from_any(data["A"],
                                    block_size=engine.cluster.block_size)
    before = source.transpose().blocks if live_twin \
        else dict(source._transposed or {})
    plan = FaultPlan(crashes=tuple(CrashEvent(share * horizon, worker)
                                   for share, worker in crashes))
    run = engine.execute(compiled, {**data, "A": source}, fault_plan=plan)

    def check():
        assert len(before) == len(source.blocks) == 20
        assert run.metrics.fault_summary["recovery_recomputed_blocks"] > 0
        after = source.transpose().blocks
        assert after.keys() == before.keys()
        assert not any(after[where] is twin for where, twin in before.items())
        for (bi, bj), twin in after.items():
            tile = source.blocks[bj, bi]
            assert twin.nnz == tile.nnz and (twin.data != tile.data.T).nnz == 0
    return run, variables(run.env), check


#: Loops swept by single crashes: body, shapes and scale of the random
#: ``A`` and ``x``, cluster. ``sweep`` (a 1.3562675068333334 s fault-free
#: horizon): were the fused ``t(A) %*% y``'s grid, which a lineage thunk
#: holds, and the materialized ``t(A)`` one grid, crashes would heal, and
#: charge, a grid the program has dropped. ``released``: a crash of worker
#: 1 (where only the 2x1 transpose lives) while no ``t(A)`` is held heals
#: nothing, unless ``A`` kept the last one alive.
SWEPT = {
    "sweep": ("y = A %*% x\n  g = t(A) %*% y\n  s = sum(t(A))\n  x = g * s",
              (350, 700), (700, 700), 700,
              ClusterConfig(block_size=350, num_workers=6)),
    "released": ("s = sum(t(A))\n  y = A %*% x\n  x = x * s",
                 (700, 1400), (1400, 1), 1, ClusterConfig(block_size=700)),
}


@functools.lru_cache(maxsize=None)
def _swept(loop):
    body, a_shape, x_shape, scale, cluster = SWEPT[loop]
    program = parse(f"input A, x\ni = 0\nwhile (i < 4) {{\n  {body}\n"
                    f"  i = i + 1\n}}", scalar_names={"i", "s"},
                    max_iterations=10)
    rng = np.random.default_rng(7)
    inputs = {"A": rng.random(a_shape) / scale,
              "x": rng.random(x_shape) / scale}
    fault_free = Executor(cluster)
    fault_free.run(program, inputs)
    return program, inputs, cluster, fault_free.metrics.execution_seconds


def sweep_case(loop, worker, twentieth):
    program, inputs, cluster, horizon = _swept(loop)
    executor = Executor(cluster, fault_plan=FaultPlan(crashes=(
        CrashEvent(twentieth / 20 * horizon, worker),)))
    env = executor.run(program, inputs)
    return RunResult("executor", env, executor.metrics), variables(env), None


CASES = {
    **{f"{a}/{d}/{e}": functools.partial(execute_case, a, d, e)
       for a in ("gd", "dfp", "bfgs", "gnmf")
       for d in ("cri1", "cri3", "red1", "red3")
       for e in ("remac", "systemds", "pbdr")},
    # What ``tests/test_server.py`` serves and pins.
    "served/gd/cri1": functools.partial(execute_case, "gd", "cri1", "remac",
                                        scale=0.25, iterations=4),
    **{f"twins/w{w}@{t}/20": functools.partial(crash_case, [(t / 20, w)])
       for w in range(6) for t in (4, 10, 16)},
    "live-twin": functools.partial(crash_case, [(0.3, 2), (0.7, 0)],
                                   live_twin=True),
    "fused": fused_case,
    **{f"sweep/w{w}@{t}/20": functools.partial(sweep_case, "sweep", w, t)
       for w in range(6) for t in range(1, 20)},
    **{f"released/w1@{t}/20": functools.partial(sweep_case, "released", 1, t)
       for t in (9, 10, 15)},
}


@pytest.mark.parametrize("name", CASES)
def test_a_case_reproduces_its_golden_entry(name):
    run, names, check = CASES[name]()
    assert record(run, names) == _golden()[name]
    if check is not None:
        check()


@pytest.mark.parametrize("way", ["reverted", "traced", "pretiled", "warm",
                                 "served"])
@pytest.mark.parametrize("name", ["dfp/red3/remac", "gnmf/red3/remac",
                                  "bfgs/red1/remac", "gd/cri3/pbdr",
                                  "served/gd/cri1"])
def test_a_covering_case_reproduces_it_more_ways(name, way, reverted):
    case = CASES[name]
    if way == "served":  # in process, no socket: a miss, then a hit
        golden = _golden()[name]
        payload = {**dict(zip(("algorithm", "dataset", "engine"), case.args)),
                   "op": "run", "scale": SCALE, "iterations": ITERATIONS,
                   **case.keywords}
        with closing(OptimizerService()) as service:
            for outcome in ("miss", "hit"):
                response = asyncio.run(service.submit(payload))
                assert (response["plan_cache"], {key: entry["sha256"] for
                        key, entry in response["results"].items()},
                        repr(response["simulated_execution_s"])) \
                    == (outcome, golden["outputs"], golden["execution_seconds"])
        return
    if way == "reverted":
        with reverted():
            run, names, _ = case()
        pricing = run.notes["pricing"]  # no price was replayed,
        assert pricing["priced"] == pricing["operators"]
        assert run.env["i"].number is None  # nor a 1x1 operator on floats
    elif way == "traced":
        run, names, _ = case(tracer=ExecutionTracer())
        assert run.metrics.trace_summary["trace_operator_spans"] > 0
    else:
        run, names, _ = case(**{way: True})
    got = record(run, names)
    got["summary"] = {key: value for key, value in got["summary"].items()
                      if not key.startswith("trace_")}
    assert got == _golden()[name]


# Generated programs, from three grammars.
def _leaf(name: str, transposed: bool) -> ast.Expr:
    ref = ast.MatrixRef(name)
    return ast.Transpose(ref) if transposed else ref


#: 100 x 100 operands on 64-cell tiles: tiles of 4 096 cells (the size
#: from which a result is written over an operand), 2 304 and 1 296.
CLUSTER = ClusterConfig(driver_memory_bytes=60_000,
                        broadcast_limit_bytes=15_000, block_size=64)


def _cellwise_inputs():
    """Dense, CSR, positive, ragged (an absent and a CSR tile), all-zero,
    a resident pre-tiled grid holding a stored all-zero tile, and a column
    with zero cells."""
    rng = np.random.default_rng(2500)
    ragged = rng.random((100, 100)) - 0.5
    ragged[:64, 64:] = 0.0
    ragged[64:, :64] *= rng.random((36, 64)) < 0.1
    resident = BlockedMatrix.from_numpy(rng.random((100, 100)), 64)
    resident.blocks[1, 1] = Block.of(np.zeros((36, 36)), False, 0)
    column = rng.random((100, 1)) - 0.5
    column[[3, 70, 99]] = 0.0
    return {"D": rng.random((100, 100)) - 0.5,
            "S": sp.random(100, 100, density=0.05, format="csr",
                           random_state=rng),
            "P": rng.random((100, 100)) + 0.5, "G": ragged,
            "Z": np.zeros((100, 100)), "R": resident, "c": column, "s": 1.5}


@st.composite
def chains(draw, names, column=False):
    """``t(X) %*% (X %*% v)`` or ``(u %*% t(X)) %*% X`` over a reference
    ``X`` of two row tiles, dense or CSR: both products run in one pass
    over ``X``'s tiles, which the ``chain`` seam runs as two. ``v`` / ``u``
    is square, or with ``column`` maybe ``c`` / ``t(c)``."""
    x = ast.MatrixRef(draw(st.sampled_from(names)))
    other = _leaf(draw(st.sampled_from(["D", "S", "G", "Z"]
                                       + ["c"] * column)), False)
    if draw(st.booleans()):
        return ast.MatMul(ast.Transpose(x), ast.MatMul(
            x, other if other.name == "c" else _leaf(other.name,
                                                     draw(st.booleans()))))
    other = _leaf(other.name, other.name == "c" or draw(st.booleans()))
    return ast.MatMul(ast.MatMul(other, ast.Transpose(x)), x)


@st.composite
def cellwise_trees(draw, names, depth=3):
    """A cell-wise tree over refs, literals, transposes and temporaries
    (products, among them ``dense %*% CSR``'s F-ordered tiles and ``c %*%
    t(c)``, whose 64 x 64 tile has a count proved, not scanned; ``R * R``;
    ``X + 0``, which shares its operand's tiles), and whether its value is
    a scalar. A divisor is ``P`` (no zero cell), ``G`` (an absent tile,
    which stops the run) or a non-zero scalar."""
    kinds = ["ref", "scalar", "transpose", "product", "outer", "square",
             "chain"]
    if depth:
        kinds += ["ewise", "ewise", "ewise", "neg", "plus_zero", "t_of", "div"]
    kind = draw(st.sampled_from(kinds))
    if kind == "ref":
        return ast.MatrixRef(draw(st.sampled_from(names))), False
    if kind == "scalar":
        return draw(st.sampled_from([ast.Literal(2.0), ast.Literal(-0.5),
                                     ast.Literal(0.0),
                                     ast.ScalarRef("s")])), True
    if kind == "transpose":
        return _leaf(draw(st.sampled_from(names)), True), False
    if kind == "product":
        return ast.MatMul(_leaf(draw(st.sampled_from(names)),
                                draw(st.booleans())),
                          _leaf(draw(st.sampled_from(names)),
                                draw(st.booleans()))), False
    if kind == "outer":
        return ast.MatMul(ast.MatrixRef("c"), _leaf("c", True)), False
    if kind == "square":
        ref = ast.MatrixRef(draw(st.sampled_from(names)))
        return ast.ElemMul(ref, ref), False
    if kind == "chain":
        return draw(chains(names)), False
    child, scalar = draw(cellwise_trees(names, depth - 1))
    if kind == "neg":
        return ast.Neg(child), scalar
    if kind == "plus_zero":
        return ast.Add(child, ast.Literal(0.0)), scalar
    if kind == "t_of":
        return ast.Transpose(child), scalar
    if kind == "div":
        divisor = draw(st.sampled_from([ast.Literal(4.0), ast.ScalarRef(
            "s")] + [ast.MatrixRef(name) for name in "PPG"] * (not scalar)))
        return ast.ElemDiv(child, divisor), scalar
    other, other_scalar = draw(cellwise_trees(names, depth - 1))
    pair = (child, other) if draw(st.booleans()) else (other, child)
    op = draw(st.sampled_from([ast.Add, ast.Sub, ast.ElemMul]))
    return op(*pair), scalar and other_scalar


def declared(targets):
    """A program's ``output`` line: a subset of its ``targets``, maybe
    none (every name lives to the end)."""
    return st.lists(st.sampled_from(targets), unique=True).map(tuple)


@st.composite
def cellwise_programs(draw):
    """Every variable is a temporary's value, then a ref held by the
    environment: ``t(T) - T`` and ``T * T`` read it on both sides. What
    the program declares it returns decides what dies where."""
    names = ["D", "S", "P", "G", "Z", "R"]
    tree, scalar = draw(cellwise_trees(names), label="T")
    assume(not scalar)
    names.append("T")
    other, scalar = draw(cellwise_trees(names), label="U")
    names += ["V", "W", "O"] if scalar else ["U", "V", "W", "O"]
    c, d, s, p, t = (ast.MatrixRef(name) for name in "cDSPT")
    return Program(statements=[
        Assign("T", tree), Assign("U", other),
        Assign("V", ast.Sub(ast.Transpose(t), t)),
        Assign("W", ast.ElemMul(t, t)),
        # A proved tile, shrunk: its floor proves the scaled tile's count.
        Assign("O", ast.ElemMul(ast.MatMul(c, ast.Transpose(c)),
                                ast.Literal(0.25))),
        # F-ordered ``dense %*% CSR`` tiles dying beside C-ordered ones, on
        # the left and on the right: a mixed pair's fresh result is
        # C-ordered, so neither may take it.
        Assign("X", ast.Sub(ast.MatMul(d, s), ast.MatMul(p, d))),
        Assign("Y", ast.Add(p, ast.MatMul(ast.MatrixRef("G"), s))),
        # A kernel-built variable read beside a literal: a ref never dies.
        Assign("Q", ast.ElemMul(ast.MatrixRef("X"), ast.Literal(0.5))),
        # A chain over an input, dense (D, G: absent and CSR tiles, R: a
        # stored all-zero tile) or CSR (S).
        Assign("K", draw(chains(["D", "S", "G", "R"], column=True),
                         label="K")),
        Assign("out", draw(cellwise_trees(names), label="out")[0]),
        # U's last read, twice by two operators: the first read still
        # waits on the stack when the second would give its value up.
        Assign("N", ast.Sub(ast.MatrixRef("U"), ast.ElemMul(
            ast.MatrixRef("U"), ast.Literal(3.0))))],
        outputs=draw(declared([*"TUVWOXYQKN", "out"])))


#: Edge values of a double: both zeros, NaN, both infinities, the smallest
#: subnormal and the smallest normal, magnitudes whose products overflow,
#: and two plain values.
EDGES = (0.0, -0.0, float("nan"), float("inf"), float("-inf"), 5e-324,
         2.2250738585072014e-308, 1e308, -1e200, 1.5, -3.0)
#: Column vectors whose products with each other are 1x1 grids (``t(u) %*%
#: w`` overflows to ``inf``) and whose sums are driver floats.
DRIVER_INPUTS = {"u": np.array([[1.5], [-1e200], [0.0]]),
                 "w": np.array([[2.0], [1e200], [5e-324]]),
                 "p": 2.5, "q": -0.0, "r": float("inf")}


@st.composite
def scalar_trees(draw, names, depth=3):
    """A scalar-valued tree: literals and scalar inputs (driver floats),
    ``t(u) %*% w`` and ``sum`` (a 1x1 grid and a float the grid kernels
    made), under cell-wise operators, negation, comparisons and builtins."""
    kinds = ["literal", "name", "dot", "sum"]
    if depth:
        kinds += ["ewise"] * 4 + ["neg", "compare", "builtin"]
    kind = draw(st.sampled_from(kinds))
    if kind == "literal":
        return ast.Literal(draw(st.sampled_from(EDGES)))
    if kind == "name":
        return ast.ScalarRef(draw(st.sampled_from(names)))
    if kind == "dot":
        return ast.MatMul(ast.Transpose(ast.MatrixRef("u")),
                          ast.MatrixRef(draw(st.sampled_from("uw"))))
    if kind == "sum":
        return ast.Call("sum", (ast.MatrixRef(draw(st.sampled_from("uw"))),))
    child = draw(scalar_trees(names, depth - 1))
    if kind == "neg":
        return ast.Neg(child)
    if kind == "builtin":
        func = draw(st.sampled_from(["sqrt", "abs", "exp", "log", "sigmoid"]))
        return ast.Call(func, (child,))
    other = draw(scalar_trees(names, depth - 1))
    if kind == "compare":
        return ast.Compare(draw(st.sampled_from(["<", "==", ">="])),
                           child, other)
    op = draw(st.sampled_from([ast.Add, ast.Sub, ast.ElemMul, ast.ElemDiv]))
    return op(child, other)


@st.composite
def scalar_programs(draw):
    """Three scalar trees, the third inside a two-iteration loop, and a
    driver float scaling a grid."""
    names, trees = ["p", "q", "r"], {}
    for target in "abc":
        trees[target] = draw(scalar_trees(names), label=target)
        names.append(target)
    a, b, i = ast.ScalarRef("a"), ast.ScalarRef("b"), ast.ScalarRef("i")
    return Program(statements=[
        Assign("a", trees["a"]), Assign("b", trees["b"]),
        Assign("i", ast.Literal(0.0)),
        WhileLoop(ast.Compare("<", i, ast.Literal(2.0)), (
            Assign("a", ast.Add(ast.ElemMul(a, b), trees["c"])),
            Assign("i", ast.Add(i, ast.Literal(1.0)))), max_iterations=2),
        Assign("M", ast.ElemMul(a, ast.MatrixRef("w"))),
        Assign("c", trees["c"])], outputs=draw(declared([*"abiMc"])))


def _region_inputs(seed=11):
    """At 320 x 320, where the cost model fuses cell-wise regions: a 30 %
    dense ``E`` and a dense ``H`` with six and four tiles zeroed (absent),
    and a positive ``L``."""
    rng, inputs = np.random.default_rng(seed), {}
    for name, absent in (("E", 6), ("H", 4)):
        matrix = rng.random((320, 320))
        if name == "E":
            matrix *= rng.random((320, 320)) < 0.3
        for bi, bj in (rng.integers(0, 5, 2) for _ in range(absent)):
            matrix[bi * 64:(bi + 1) * 64, bj * 64:(bj + 1) * 64] = 0.0
        inputs[name] = matrix
    return {**inputs, "L": rng.random((320, 320)) + 0.5}


@st.composite
def region_programs(draw):
    """``F = (E ± X) op Y`` and ``Q = (E ± X) / Y``, regions the cost model
    fuses; ``Q``'s divisor ``E`` or ``H`` holds absent tiles, so the run
    stops, a fused region naming the tile the plain operators name."""
    e, h, l = (ast.MatrixRef(name) for name in "EHL")
    inner = [draw(st.sampled_from([ast.Add, ast.Sub]))(
        e, draw(st.sampled_from([h, l]))) for _ in range(2)]
    other = draw(st.sampled_from([ast.Literal(2.0), l]))
    pair = (inner[0], other) if draw(st.booleans()) else (other, inner[0])
    op = draw(st.sampled_from([ast.Add, ast.Sub, ast.ElemMul]))
    return Program(statements=[
        Assign("F", op(*pair)),
        Assign("Q", ast.ElemDiv(inner[1], draw(st.sampled_from(
            [ast.Literal(-0.5), e, h, l]))))],
        outputs=draw(declared(["F", "Q"])))


def _payload(data):
    """Every payload a value holds, memory order included."""
    if isinstance(data, BlockedMatrix):
        return [(key, _payload(block.data))
                for key, block in data.blocks.items()]
    if sp.issparse(data):
        return [part.tobytes() for part in (data.data, data.indices,
                                            data.indptr)]
    if isinstance(data, np.ndarray):
        return data.flags.c_contiguous, data.flags.f_contiguous, data.tobytes()
    return repr(data)


class _Snapshotting(Executor):
    """Runs statement by statement, and checks that an assignment changed
    the payloads of no input, no resident grid and no variable but its
    own (a loop, of no input), that every name it dropped is dead after
    it (:func:`~repro.runtime.plan.live_after`), and that a run returns
    its inputs and declared outputs and nothing else."""

    def run(self, program, inputs, **kwargs):
        env = super().run(program, inputs, **kwargs)
        if plan.live_after(program.statements, program.outputs) is not None:
            assert variables(env) == sorted({*inputs, *program.outputs})
        return env

    def _snapshot(self, env):
        held = {("input", name): _payload(data)
                for name, data in self.inputs.items()}
        held.update({("variable", name): _payload(
            value.matrix if value.number is None else value.number)
            for name, value in env.items()})
        return held

    def _run_block(self, statements, env, path=()):
        live = plan.live_after(self._top_statements, self._outputs)
        for stmt in statements:
            before = self._snapshot(env)
            super()._run_block([stmt], env, path)
            after = self._snapshot(env)
            gone = {name for kind, name in before.keys() - after.keys()}
            if isinstance(stmt, Assign) and stmt.target not in env:
                gone.add(stmt.target)
            assert not gone if live is None \
                else gone.isdisjoint(live[id(stmt)]), (stmt, gone)
            changed = {key for key, held in before.items()
                       if key in after and after[key] != held}
            mine = {("variable", stmt.target)} if isinstance(stmt, Assign) \
                else {key for key in changed if key[0] == "variable"}
            assert changed <= mine, (stmt, changed)


def _run(engine, program, inputs, fuse=False, kind=Executor,
         **executor_args):
    """One run by an executor of ``kind``: the environment, or the error it
    stopped with, and the executor."""
    executor = kind(CLUSTER, replace(make_engine(engine).policy, fuse=fuse),
                    **executor_args)
    executor.inputs = inputs
    try:
        with np.errstate(all="ignore"):
            return executor.run(program, inputs), executor
    except ExecutionError as error:
        return str(error), executor


def _outputs(env, executor):
    """A run's output SHA-256s (:func:`record`), or the error it stopped
    with."""
    if isinstance(env, str):
        return env
    return record(RunResult("executor", env, executor.metrics),
                  variables(env))["outputs"]


def _generated_run(engine, program, inputs, traced, faults=None):
    """Two runs of a program through one grid memo (the second loads what
    the first tiled), under ``faults`` (an executor's keyword arguments):
    each run's record, the payloads of its grids larger than a cell
    (memory order included) and its spans, or the error it stopped with."""
    memo, runs = PartitionMemo(), []
    kept = {*inputs, *program.outputs} if program.outputs else None
    for _ in range(2):
        tracer = ExecutionTracer() if traced else None
        env, executor = _run(engine, program, inputs, kind=_Snapshotting,
                             tracer=tracer, partitions=memo,
                             **(faults or {}))
        if not isinstance(env, str):  # what a run that drops returns
            env = {name: value for name, value in env.items()
                   if kept is None or name in kept}
        runs.append(env if isinstance(env, str) else (
            record(RunResult("executor", env, executor.metrics),
                   variables(env)),
            {name: _payload(value.matrix) for name, value in env.items()
             if value.number is None and value.matrix.shape != (1, 1)},
            tracer.spans if traced else None))
    return runs


#: Each grammar's programs and a fresh copy of the inputs they read.
GRAMMARS = {"cellwise": (cellwise_programs, _cellwise_inputs),
            "scalar": (scalar_programs, lambda: DRIVER_INPUTS),
            "region": (region_programs, _region_inputs)}


def _faults(data, modes, horizon):
    """Drawn from ``modes``: no recovery manager, one with no fault plan
    (``armed``), one crash of a drawn worker at a drawn twentieth of the
    fault-free run's simulated seconds (``horizon()``), or a plan drawn by
    seed (crashes, flips and stragglers) under retries and checkpoints."""
    mode = data.draw(st.sampled_from(modes), label="mode")
    if mode == "none":
        return None
    if mode == "armed":
        return {"recovery_config": RecoveryConfig()}
    if mode == "seeded":
        return {"fault_plan": FaultPlan.from_seed(
                    data.draw(st.integers(0, 999), label="seed"),
                    horizon() or 1.0),
                "recovery_config": RecoveryConfig(max_retries=50,
                                                  checkpoint_every=2)}
    twentieth = data.draw(st.integers(1, 19), label="twentieth")
    worker = data.draw(st.integers(0, CLUSTER.num_workers - 1),
                       label="worker")
    return {"fault_plan": FaultPlan(crashes=(
        CrashEvent(twentieth / 20 * horizon(), worker),))}


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("engine", ["remac", "systemds", "pbdr"])
@pytest.mark.parametrize("grammar", ["cellwise", "scalar"])
@given(st.data())
@settings(max_examples=15, deadline=None)
def test_a_generated_program_runs_as_with_every_seam_reverted(
        grammar, engine, traced, reverted, data):
    """A crash heals only the grids a run still holds, so a crashed run
    keeps every name: what a program drops moves recovery charges by
    design, and the plain-run property below holds crashed runs that
    drop to their values."""
    programs, inputs = GRAMMARS[grammar]
    program = data.draw(programs())
    faults = _faults(data, ["none", "armed", "crash"], lambda: _run(
        engine, program, inputs())[1].metrics.execution_seconds)
    if faults is not None and "fault_plan" in faults:
        program = replace(program, outputs=())
    run = _generated_run(engine, program, inputs(), traced, faults)
    with reverted():
        assert _generated_run(engine, program, inputs(), traced,
                              faults) == run


@pytest.mark.parametrize("engine", ["remac", "systemds", "pbdr"])
@pytest.mark.parametrize("grammar", list(GRAMMARS))
@given(st.data())
@settings(max_examples=10, deadline=None, derandomize=True)
def test_a_generated_program_computes_what_the_plain_run_computes(
        grammar, engine, data):
    """Fusion and recovery change simulated time by design, never values:
    fused or not, faulted or not, a run computes the plain run's outputs,
    or stops with its error, on the same examples in every session."""
    programs, inputs = GRAMMARS[grammar]
    program = data.draw(programs())
    plain, plain_executor = _run(engine, program, inputs())
    fuse = data.draw(st.booleans(), label="fuse")
    faults = _faults(data, ["none", "crash", "seeded"],
                     lambda: plain_executor.metrics.execution_seconds)
    got, executor = _run(engine, program, inputs(), fuse, **(faults or {}))
    if fuse:
        event("fuse on")
        for kind in ("fused_ewise", "mmchain"):
            if executor.metrics.operator_counts.get(kind):
                event(kind)
    assert _outputs(got, executor) == _outputs(plain, plain_executor)


@pytest.mark.parametrize("seed", [11, 16, 19])
def test_a_fused_division_by_an_absent_tile_stops_as_the_plain_one(seed):
    """A region decided fused names the absent tile the plain operators
    name."""
    runs = [_run("systemds", parse("B = E / H + E - H"), _region_inputs(seed),
                 fuse) for fuse in (True, False)]
    assert runs[0][0] == runs[1][0]
    assert runs[1][0].startswith("division by an implicit zero block")
    assert [[op.fuse for code in executor._lowered.values() for op in code
             if op.kind == plan.FUSED] for _, executor in runs] == [[True], []]


@pytest.mark.parametrize("traced", [False, True])
def test_a_chain_on_an_engine_without_mixed_products_runs_as_two(
        traced, reverted, monkeypatch):
    """SciDB densifies the sparse side of a mixed product. ``v`` has 31
    columns at 30 %, so the first product of ``t(X) %*% (X %*% v)``
    densifies ``v`` (its tiles are CSR again) and its result, whose
    stored tiles are F-ordered ``dense @ CSR`` products, is sparse by the
    threshold: the second densifies that result into C-ordered tiles,
    and the chain computes it again from those, as two products do."""
    rng = np.random.default_rng(7)
    v = np.zeros((100, 100))
    v[:, :31] = rng.random((100, 31)) * (rng.random((100, 31)) < 0.3)
    inputs = {"X": rng.random((100, 100)), "v": v}
    program = Program(statements=[Assign("K", ast.MatMul(
        ast.Transpose(ast.MatrixRef("X")),
        ast.MatMul(ast.MatrixRef("X"), ast.MatrixRef("v"))))])
    products = []
    matmul = BlockedMatrix.matmul
    monkeypatch.setattr(BlockedMatrix, "matmul",
                        lambda self, other, **kwargs: products.append(
                            sorted(kwargs)) or matmul(self, other, **kwargs))
    run = _generated_run("scidb", program, inputs, traced)
    assert products == [["before"], []] * 2
    products.clear()
    with reverted("chain"):
        assert _generated_run("scidb", program, inputs, traced) == run
    assert products == [[], []] * 2


if __name__ == "__main__":
    patterns = sys.argv[1:]
    if not patterns or not all(fnmatch.filter(CASES, p) for p in patterns):
        sys.exit(f"usage: {sys.argv[0]} PATTERN ... (case names or fnmatch "
                 f"patterns; each must match a case)")
    golden = json.loads(GOLDEN_PATH.read_text())
    for name in {n for p in patterns for n in fnmatch.filter(CASES, p)}:
        run, names, _check = CASES[name]()
        golden[name] = record(run, names)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True)
                           + "\n")
