"""Walks that throw their prices away only propagate sketches.

Three differentials against the code they replaced:

* every unpriced walk (:func:`propagate`: sketch environments, operand
  sketches, the loop settle pass) returns what the priced records of the
  same expression return — the very object under the cost memo, equal
  bits without it;
* the in-place MNC product against the out-of-place formula;
* the dense and tiled non-zero counters against the bool-mask sums.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import get_algorithm
from repro.config import ClusterConfig, OptimizerConfig
from repro.core import ReMacOptimizer, build
from repro.core.cost import evaluate
from repro.core.sparsity import MNCEstimator, MNCSketch
from repro.core.sparsity.base import observed_meta, to_support_arrays
from repro.data import load_dataset
from repro.lang.program import Assign
from repro.matrix.block import Block
from repro.matrix.blocked import BlockedMatrix
from repro.matrix.meta import MatrixMeta
from repro.runtime.hybrid import ExecutionPolicy
from repro.runtime.plan import lower

ESTIMATORS = ("mnc", "metadata", "densitymap", "sampling", "exact")


def same_bits(left, right) -> bool:
    """Two sketches hold the same values, bit for bit."""
    if type(left) is not type(right):
        return False
    if isinstance(left, np.ndarray):
        return left.dtype == right.dtype and left.shape == right.shape \
            and left.tobytes() == right.tobytes()
    if sp.issparse(left):
        return left.shape == right.shape and same_bits(left.indptr, right.indptr) \
            and same_bits(left.indices, right.indices) \
            and same_bits(left.data, right.data)
    if is_dataclass(left):
        return all(same_bits(getattr(left, f.name), getattr(right, f.name))
                   for f in fields(left))
    return left == right


@pytest.fixture
def checked_walks(monkeypatch):
    """Every unpriced walk of the test, each compared with the priced
    records of the same expression over the same environment."""
    walks = {"calls": 0, "mismatches": [], "depth": 0}
    propagate = evaluate.propagate

    def checked(model, expr, env):
        if walks["depth"]:  # the walk's own recursion
            return propagate(model, expr, env)
        statement = Assign("_", expr)
        metas = {name: model.meta(sketch) for name, sketch in env.items()}
        code = lower([statement], metas, model.policy.fuse)[id(statement)]
        old = evaluate.ProgramCostEvaluator(model)._run(code, env)[1]
        walks["depth"] += 1
        new = propagate(model, expr, env)
        walks["depth"] -= 1
        walks["calls"] += 1
        same = new is old if model.memoizes else same_bits(new, old)
        if not same:
            walks["mismatches"].append(str(expr))
        return new

    monkeypatch.setattr(build, "propagate", checked)
    monkeypatch.setattr(evaluate, "propagate", checked)
    return walks


@pytest.fixture(scope="module")
def workloads():
    loaded = {}
    for algorithm in ("gd", "dfp", "bfgs", "gnmf"):
        algo = get_algorithm(algorithm)
        for dataset in ("cri1", "red3"):
            meta, data = algo.make_inputs(
                load_dataset(dataset, scale=0.05).matrix)
            loaded[algorithm, dataset] = algo, meta, data
    return loaded


@pytest.mark.parametrize("estimator", ESTIMATORS)
@pytest.mark.parametrize("fuse", [True, False], ids=["fuse", "nofuse"])
@pytest.mark.parametrize("memo", [True, False], ids=["memo", "nomemo"])
def test_unpriced_walks_return_the_priced_sketch(workloads, checked_walks,
                                                 estimator, fuse, memo):
    config = OptimizerConfig(plan_cache=False, estimator=estimator,
                             cost_memo=memo)
    for (algorithm, dataset), (algo, meta, data) in workloads.items():
        if estimator == "exact" and dataset == "red3":
            continue  # exact supports of red3's 1024-column products: ~6 s
        optimizer = ReMacOptimizer(ClusterConfig(), config,
                                   ExecutionPolicy(fuse=fuse))
        optimizer.compile(algo.program(4), meta, data, iterations=4)
        assert not checked_walks["mismatches"], (algorithm, dataset)
    assert checked_walks["calls"] > 0


def test_a_shrink_replan_walks_unpriced_too(checked_walks):
    """A mid-run replan compiles over the environment's tiled grids."""
    from repro.cluster.faults import CrashEvent, FaultPlan
    from repro.engines.base import Engine
    from repro.lang import parse
    from repro.matrix import scalar_meta

    rng = np.random.default_rng(7)
    A = sp.random(1024, 512, density=0.4,
                  random_state=np.random.RandomState(11),
                  data_rvs=rng.standard_normal).tocsr()
    source = """
i = 0
while (i < N) {
  G = t(A) %*% A
  x = x + (G %*% x) * 0.0001
  i = i + 1
}
"""
    m, k = A.shape
    meta = {"A": MatrixMeta(m, k, A.nnz / (m * k)), "x": MatrixMeta(k, 1, 1.0),
            "i": scalar_meta(), "N": scalar_meta()}
    data = {"A": A, "x": np.ones((k, 1)), "i": 0.0, "N": 10.0}
    program = parse(source, scalar_names={"i", "N"}, max_iterations=10)
    engine = Engine(ClusterConfig(num_workers=6, flops_per_core=2.5e6,
                                  dfs_bytes_per_sec=1.3e5),
                    OptimizerConfig(estimator="mnc"))
    crashes = FaultPlan(crashes=tuple(CrashEvent(time=0.4 * (n + 1), worker=0)
                                      for n in range(4)), seed=0)
    result = engine.run(program, meta, data, iterations=10,
                        fault_plan=crashes, replan=True)
    assert result.metrics.replan_summary["replan_compiles"] >= 1
    assert not checked_walks["mismatches"]


# ----------------------------------------------------------------------
# The MNC product, in place
# ----------------------------------------------------------------------
def _old_collision_correct(candidates, capacity):
    if capacity <= 0:
        return 0.0
    scaled = np.minimum(np.asarray(candidates, dtype=np.float64), 1e18)
    if capacity <= 1.0:
        return np.minimum(scaled, capacity)
    return capacity * (-np.expm1(scaled * np.log1p(-1.0 / capacity)))


def _old_matmul(left: MNCSketch, right: MNCSketch):
    total = float((left.col_counts * right.row_counts).sum())
    row_counts = _old_collision_correct(
        left.row_counts * (total / max(left.nnz, 1e-12)), float(right.cols))
    col_counts = _old_collision_correct(
        right.col_counts * (total / max(right.nnz, 1e-12)), float(left.rows))
    row_total = float(np.sum(row_counts))
    col_total = float(np.sum(col_counts))
    if col_total > 0:
        col_counts = col_counts * (row_total / col_total)
    return row_counts, col_counts


#: Counts with zeros, fractions and magnitudes whose products pass 1e18.
_COUNTS = st.one_of(st.just(0.0), st.just(1.0),
                    st.floats(0.0, 1e3, allow_nan=False),
                    st.floats(1e9, 1e12, allow_nan=False))


def _sketch(rows, cols, draw):
    return MNCSketch(rows, cols,
                     np.array(draw(st.lists(_COUNTS, min_size=rows,
                                            max_size=rows))),
                     np.array(draw(st.lists(_COUNTS, min_size=cols,
                                            max_size=cols))))


@given(st.data(), st.integers(1, 6), st.integers(1, 6), st.integers(1, 6))
@settings(max_examples=300, deadline=None)
def test_mnc_product_in_place_is_the_old_formula(data, rows, inner, cols):
    left = _sketch(rows, inner, data.draw)
    right = _sketch(inner, cols, data.draw)
    with np.errstate(invalid="ignore"):  # inf / inf marginals: NaN, both
        product = MNCEstimator().matmul(left, right)
        row_counts, col_counts = _old_matmul(left, right)
    assert same_bits(product.row_counts, row_counts)
    assert same_bits(product.col_counts, col_counts)
    assert product.nnz == float(product.row_counts.sum())
    assert type(product.nnz) is float


def test_mnc_product_saturates_past_1e18_candidates():
    # Capacity 1 (one output column), then capacities 3 and 2.
    thin = (MNCSketch(1, 2, np.array([1e12]), np.array([1e12, 3.0])),
            MNCSketch(2, 1, np.array([1e12, 0.0]), np.array([5.0])))
    wide = (MNCSketch(2, 2, np.array([1e12, 0.0]), np.array([1e12, 3.0])),
            MNCSketch(2, 3, np.array([1e12, 0.0]), np.array([5.0, 0.0, 1.0])))
    product = MNCEstimator().matmul(*thin)
    assert product.row_counts.tolist() == product.col_counts.tolist() == [1.0]
    assert MNCEstimator().matmul(*wide).row_counts.tolist() == [3.0, 0.0]
    for pair in (thin, wide):
        product = MNCEstimator().matmul(*pair)
        row_counts, col_counts = _old_matmul(*pair)
        assert same_bits(product.row_counts, row_counts)
        assert same_bits(product.col_counts, col_counts)


# ----------------------------------------------------------------------
# Non-zero counting
# ----------------------------------------------------------------------
def _old_support_arrays(data):
    if isinstance(data, BlockedMatrix):
        rows, cols = data.shape
        row_counts = np.zeros(rows, dtype=np.int64)
        col_counts = np.zeros(cols, dtype=np.int64)
        size = data.block_size
        for (bi, bj), block in data.iter_blocks():
            payload = block.data
            if sp.issparse(payload):
                coo = payload.tocoo()
                np.add.at(row_counts, bi * size + coo.row, 1)
                np.add.at(col_counts, bj * size + coo.col, 1)
            else:
                mask = payload != 0
                row_counts[bi * size:bi * size + payload.shape[0]] += mask.sum(axis=1)
                col_counts[bj * size:bj * size + payload.shape[1]] += mask.sum(axis=0)
        return rows, cols, row_counts, col_counts, int(row_counts.sum())
    array = np.atleast_2d(np.asarray(data))
    mask = array != 0
    rows, cols = array.shape
    return rows, cols, mask.sum(axis=1).astype(np.int64), \
        mask.sum(axis=0).astype(np.int64), int(mask.sum())


def _old_observed_meta(data) -> MatrixMeta:
    rows, cols, _r, _c, nnz = _old_support_arrays(data)
    return MatrixMeta(rows, cols, nnz / (rows * cols) if rows * cols else 0.0)


def _hostile(shape, dtype, seed):
    """Zeros, -0.0, NaN and +-inf among ordinary values."""
    rng = np.random.default_rng(seed)
    if dtype is bool:
        return rng.integers(0, 2, size=shape).astype(bool)
    if dtype is int:
        return rng.integers(-2, 3, size=shape)
    return rng.choice([0.0, -0.0, 1.0, -2.5, np.nan, np.inf, -np.inf, 0.0],
                      size=shape)


def _assert_counts_match(data):
    new, old = to_support_arrays(data), _old_support_arrays(data)
    assert new[0:2] == old[0:2] and new[4] == old[4]
    assert type(new[4]) is int
    for got, want in zip(new[2:4], old[2:4]):
        assert got.dtype == np.int64 and np.array_equal(got, want)
    assert observed_meta(data) == _old_observed_meta(data)


SHAPES = [(1, 1), (1, 7), (7, 1), (1, 300), (300, 1), (5, 9), (70, 3),
          (3, 70), (300, 300), (1100, 61)]


@pytest.mark.parametrize("dtype", [float, int, bool])
@pytest.mark.parametrize("shape", SHAPES)
def test_dense_counts_match_the_bool_sums(shape, dtype):
    data = _hostile(shape, dtype, seed=sum(shape))
    _assert_counts_match(data)
    if data.ndim == 2 and shape[0] > 1 and shape[1] > 1:
        _assert_counts_match(np.asfortranarray(data))
        _assert_counts_match(data[::2, ::3])
    if shape[0] == 1:
        _assert_counts_match(data.reshape(-1))


def test_slabs_cover_every_row(monkeypatch):
    """Slabs of a few rows (a remainder slab included) count like one."""
    import repro.core.sparsity.base as base
    monkeypatch.setattr(base, "_SLAB_CELLS", 3 * 11)
    _assert_counts_match(_hostile((17, 11), float, seed=3))
    _assert_counts_match(_hostile((2, 11), float, seed=4))


def _grid(tiles, rows, cols, size):
    return BlockedMatrix(rows, cols, size,
                         blocks={key: Block(payload)
                                 for key, payload in tiles.items()})


def test_tiled_counts_match_the_old_loop():
    rng = np.random.default_rng(5)
    dense = _hostile((4, 3), float, seed=6)
    with_zeros = sp.csr_matrix((np.array([0.0, 2.0, 0.0, -0.0]),
                                np.array([0, 2, 1, 0]),
                                np.array([0, 2, 2, 4])), shape=(3, 4))
    assert with_zeros.nnz == 4  # stored zeros stay stored
    empty_dense = np.zeros((4, 4))
    empty_csr = sp.csr_matrix((4, 3))
    # A 7x7 grid in 4-cell tiles: ragged right and bottom edges, one
    # absent tile, one all-zero dense tile, one CSR tile storing nothing.
    grid = _grid({(0, 0): empty_dense, (0, 1): dense,
                  (1, 0): with_zeros, (1, 1): rng.standard_normal((3, 3))},
                 7, 7, 4)
    _assert_counts_match(grid)
    _assert_counts_match(_grid({(0, 1): empty_csr}, 4, 7, 4))
    _assert_counts_match(_grid({}, 5, 5, 4))
    _assert_counts_match(BlockedMatrix.from_numpy(_hostile((9, 1), float, 8),
                                                  block_size=4))
    _assert_counts_match(BlockedMatrix.from_numpy(_hostile((1, 9), float, 9),
                                                  block_size=4))
    _assert_counts_match(BlockedMatrix.from_scipy(
        sp.random(13, 10, density=0.3, random_state=1, format="csr"),
        block_size=4))


def test_sparse_inputs_count_stored_entries():
    coo = sp.coo_matrix((np.array([1.0, 0.0, 2.0]),
                         (np.array([0, 1, 1]), np.array([2, 0, 0]))),
                        shape=(3, 3))
    assert observed_meta(coo).sparsity == to_support_arrays(coo)[4] / 9
    assert observed_meta(coo.tocsr()) == observed_meta(coo)
