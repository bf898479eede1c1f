"""Property-based tests (hypothesis) on core data structures and invariants."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import sparse as sp

from repro.config import ClusterConfig
from repro.core.normalize import normalize, push_down_transposes
from repro.core.search import blockwise_search
from repro.core.chains import build_chains
from repro.core.treewise import catalan, plan_tree_count
from repro.lang import format_expr, parse_expression
from repro.lang.ast import Expr, MatMul, MatrixRef, Transpose
from repro.lang.program import Program, Assign
from repro.errors import ExecutionError
from repro.matrix.block import COMPARE_COUNT_CELLS, Block
from repro.matrix import blocked
from repro.matrix.blocked import BlockedMatrix
from repro.runtime import Executor
from repro.matrix.fused import Step, evaluate_fused_ewise
from repro.matrix.meta import MatrixMeta
from repro.matrix import sparsity_rules as rules
from repro.matrix.partitioner import worker_of_block

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
sparsities = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
dims = st.integers(min_value=1, max_value=64)
small_arrays = st.integers(min_value=2, max_value=40).flatmap(
    lambda rows: st.integers(min_value=2, max_value=40).map(
        lambda cols: np.random.default_rng(rows * 100 + cols)
        .random((rows, cols))))


@st.composite
def chain_expressions(draw):
    """Random matrix chains over square matrices with random transposes."""
    length = draw(st.integers(min_value=2, max_value=6))
    names = [draw(st.sampled_from("ABCDE")) for _ in range(length)]
    expr: Expr = _leaf(names[0], draw(st.booleans()))
    for name in names[1:]:
        expr = MatMul(expr, _leaf(name, draw(st.booleans())))
    if draw(st.booleans()):
        expr = Transpose(expr)
    return expr


def _leaf(name: str, transposed: bool) -> Expr:
    ref = MatrixRef(name)
    return Transpose(ref) if transposed else ref


SQUARE_ENV = {name: MatrixMeta(16, 16, 0.5) for name in "ABCDE"}


# ----------------------------------------------------------------------
# Sparsity algebra
# ----------------------------------------------------------------------
class TestSparsityRuleProperties:
    @given(sparsities, sparsities, dims)
    def test_matmul_sparsity_in_unit_interval(self, sa, sb, k):
        assert 0.0 <= rules.matmul_sparsity(sa, sb, k) <= 1.0

    @given(sparsities, sparsities, dims)
    def test_matmul_sparsity_monotone_in_inputs(self, sa, sb, k):
        base = rules.matmul_sparsity(sa, sb, k)
        more = rules.matmul_sparsity(min(1.0, sa + 0.1), sb, k)
        assert more >= base - 1e-12

    @given(sparsities, sparsities)
    def test_add_at_least_max_at_most_sum(self, sa, sb):
        out = rules.add_sparsity(sa, sb)
        assert max(sa, sb) - 1e-12 <= out <= min(1.0, sa + sb) + 1e-12

    @given(sparsities, sparsities)
    def test_mul_at_most_min(self, sa, sb):
        assert rules.mul_sparsity(sa, sb) <= min(sa, sb) + 1e-12

    @given(sparsities, dims)
    def test_dense_matmul_dense_is_dense(self, sb, k):
        assert rules.matmul_sparsity(1.0, 1.0, k) == 1.0
        del sb


# ----------------------------------------------------------------------
# Blocked matrices
# ----------------------------------------------------------------------
class TestBlockedMatrixProperties:
    @given(small_arrays, st.sampled_from([4, 8, 16, 32]))
    @settings(max_examples=30, deadline=None)
    def test_round_trip(self, array, block_size):
        blocked = BlockedMatrix.from_numpy(array, block_size)
        assert np.allclose(blocked.to_numpy(), array)

    @given(small_arrays, st.sampled_from([4, 8, 16]))
    @settings(max_examples=30, deadline=None)
    def test_transpose_involution(self, array, block_size):
        blocked = BlockedMatrix.from_numpy(array, block_size)
        assert np.allclose(blocked.transpose().transpose().to_numpy(), array)

    @given(small_arrays, st.sampled_from([4, 8, 16]))
    @settings(max_examples=30, deadline=None)
    def test_gram_matrix_symmetric(self, array, block_size):
        blocked = BlockedMatrix.from_numpy(array, block_size)
        gram = blocked.transpose().matmul(blocked).to_numpy()
        assert np.allclose(gram, gram.T)

    @given(small_arrays)
    @settings(max_examples=30, deadline=None)
    def test_scale_linear(self, array):
        blocked = BlockedMatrix.from_numpy(array, 8)
        assert np.allclose(blocked.scale(3.0).to_numpy(),
                           blocked.add(blocked).add(blocked).to_numpy())

    @given(st.integers(0, 1000), st.integers(0, 1000),
           st.integers(1, 32))
    def test_partitioner_in_range(self, bi, bj, workers):
        assert 0 <= worker_of_block(bi, bj, workers) < workers


# ----------------------------------------------------------------------
# Carried tile statistics are checked, not trusted
# ----------------------------------------------------------------------
def _grid(rng, rows, cols, block_size, kind):
    """A random grid: dense, CSR, block-sparse (absent tiles) or empty.
    A third of the stored cells are exactly 1.0 or 2.0, so ``floor`` and
    products leave explicit zeros and whole-number cells behind."""
    values = rng.random((rows, cols))
    values[rng.random((rows, cols)) < 0.3] = rng.choice([1.0, 2.0])
    if kind == "empty":
        values[:] = 0.0
    elif kind == "csr":  # tiles on both sides of the 0.4 layout threshold
        values[rng.random((rows, cols)) < rng.choice([0.85, 0.5])] = 0.0
    elif kind == "ragged":  # whole tiles absent, the rest of mixed density
        for bi in range(0, rows, block_size):
            for bj in range(0, cols, block_size):
                tile = values[bi:bi + block_size, bj:bj + block_size]
                tile[rng.random(tile.shape) < rng.choice([0.0, 0.7, 1.0])] = 0.0
    if kind == "csr":
        matrix = sp.csr_matrix(values)
        matrix.data[rng.random(matrix.nnz) < 0.2] = 0.0  # stored zeros
        return BlockedMatrix.from_scipy(matrix, block_size)
    return BlockedMatrix.from_numpy(values, block_size)


def _fresh(matrix):
    """The same grid with every tile re-derived by the public constructor:
    no carried flag, no carried count, no cached grid statistic."""
    return BlockedMatrix(matrix.rows, matrix.cols, matrix.block_size,
                         blocks={key: Block(block.data)
                                 for key, block in matrix.blocks.items()},
                         symmetric=matrix.symmetric)


def _check_statistics(matrix):
    total, nbytes = 0, 0.0
    for key, block in matrix.blocks.items():
        data = block.data
        assert block.is_sparse == sp.issparse(data), key
        if block.is_sparse:
            assert data.format == "csr" and data.dtype == np.float64
            count = int(data.nnz)
        else:
            assert type(data) is np.ndarray and data.ndim == 2 \
                and data.dtype == np.float64
            count = int(np.count_nonzero(data))
        assert block._nnz is None or block._nnz == count, key
        assert block.nnz == count, key
        if block._floor is not None:  # proved, never measured: checked here
            assert not block.is_sparse and data.size >= COMPARE_COUNT_CELLS
            cells = np.abs(data[(data != 0.0) & ~np.isnan(data)])
            assert block._floor <= cells.min(initial=np.inf), key
        assert block.shape == matrix.block_dims(*key)
        rederived = Block(data)
        assert rederived.serialized_bytes() == block.serialized_bytes()
        settled = block.normalized()
        assert settled.normalized() is settled
        assert settled.is_sparse == sp.issparse(settled.data)
        assert settled.nnz == Block(settled.data).nnz
        total += count
        nbytes += rederived.serialized_bytes()
    assert matrix.nnz == total
    assert matrix.serialized_bytes() == nbytes
    cells = matrix.rows * matrix.cols
    assert matrix.meta() == MatrixMeta(matrix.rows, matrix.cols, total / cells,
                                       symmetric=matrix.symmetric)


def _same_grid(carried, fresh):
    """Bit for bit: key order, layouts and payload bytes."""
    assert list(carried.blocks) == list(fresh.blocks)
    for key, block in carried.blocks.items():
        other = fresh.blocks[key]
        assert block.is_sparse == other.is_sparse, key
        assert block.to_dense_array().tobytes() \
            == other.to_dense_array().tobytes(), key
        if block.is_sparse:  # explicit zeros are part of a CSR payload
            assert block.data.nnz == other.data.nnz, key


def _check_twin(matrix):
    """``matrix.transpose()`` transposes the tiles once and wraps them in
    a grid of its own on every call, equal tile for tile to a from-scratch
    ``Block.transpose`` of the source tiles."""
    first, again = matrix.transpose(), matrix.transpose()
    assert first is not again and first.blocks is not again.blocks
    for twin in (first, again):
        assert twin.shape == (matrix.cols, matrix.rows)
        assert twin.symmetric == matrix.symmetric
        assert list(twin.blocks) == [(bj, bi) for bi, bj in matrix.blocks]
    for (bi, bj), block in matrix.blocks.items():
        kept, scratch = first.blocks[bj, bi], Block(block.data).transpose()
        assert again.blocks[bj, bi] is kept, (bi, bj)  # the memo hit
        assert kept.is_sparse == scratch.is_sparse, (bi, bj)
        assert kept.nnz == scratch.nnz, (bi, bj)
        if kept.is_sparse:
            for part in ("data", "indices", "indptr"):
                assert getattr(kept.data, part).tobytes() \
                    == getattr(scratch.data, part).tobytes(), (bi, bj, part)
        else:
            assert kept.data.tobytes() == scratch.data.tobytes(), (bi, bj)
    _check_statistics(again)
    # What a caller does to the grid it got is its own business.
    first.blocks.clear()
    first.invalidate_stats()
    assert list(again.blocks) == list(matrix.transpose().blocks)


ZIP_OPS = ("add", "subtract", "multiply", "divide")
UNARY_OPS = {
    "transpose": lambda m: m.transpose(),
    "negate": lambda m: m.negate(),
    "scale_half": lambda m: m.scale(0.5),
    "scale_zero": lambda m: m.scale(0.0),
    "scale_underflow": lambda m: m.scale(1e-320).scale(1e-10),
    "scale_nan": lambda m: m.scale(float("inf")).scale(0.0),
    "shift_zero": lambda m: m.add_scalar(0.0),
    "shift": lambda m: m.add_scalar(1.5),
    "shift_cancel": lambda m: m.add_scalar(-1.0),
    "floor": lambda m: m.map_cells(np.floor, True),
    "abs": lambda m: m.map_cells(np.abs, True),
    "exp": lambda m: m.map_cells(np.exp, False),
    "row_sums": lambda m: m.row_sums(),
    "col_sums": lambda m: m.col_sums(),
    "diagonal": lambda m: m.diagonal() if m.rows == m.cols else m,
}


#: What a proved count must survive: cells that vanish, underflow or
#: poison a product, and scalars that do the same to a whole tile.
HOSTILE_CELLS = (0.0, -0.0, 5e-324, 1e-310, 1e-200, 1e-160, 1e200, 1e300,
                 float("inf"), float("-inf"), float("nan"))
HOSTILE_SCALARS = (0.0, float("inf"), float("-inf"), float("nan"), 1e-300,
                   1e-200, 0.5, 1.0, -1.0, 3.0, 1e300)


@st.composite
def scalar_steps(draw, a, scalars):
    """Step ``a`` combined with a scalar: ``s - M``, ``M / s``, ``s * M``
    and the rest, never ``s / M`` or a zero divisor."""
    op = draw(st.sampled_from(ZIP_OPS))
    scalar_left = op != "divide" and draw(st.booleans())
    scalar = draw(st.sampled_from(
        [s for s in scalars if op != "divide" or s != 0.0]))
    return Step(op, a, scalar=scalar, scalar_left=scalar_left)


@st.composite
def fused_programs(draw, leaves, scalars=(0.0, -1.0, 0.5, 2.0)):
    steps = [Step("leaf", index) for index in range(leaves)]
    for _ in range(draw(st.integers(1, 5))):
        op = draw(st.sampled_from(ZIP_OPS[:3] + ("neg", "scalar")))
        a = draw(st.integers(0, len(steps) - 1))
        if op in ZIP_OPS:
            steps.append(Step(op, a, draw(st.integers(0, len(steps) - 1))))
        elif op == "neg":
            steps.append(Step("neg", a))
        else:
            steps.append(draw(scalar_steps(a, scalars)))
    return steps


@st.composite
def shared_programs(draw, leaves):
    """A fused program in which one non-leaf step is read twice: by a
    step of its own, then by the root together with that step."""
    steps = draw(fused_programs(leaves, HOSTILE_SCALARS))
    shared = draw(st.sampled_from([index for index, step in enumerate(steps)
                                   if step.op != "leaf"]))
    steps.append(draw(st.one_of(st.just(Step("neg", shared)),
                                scalar_steps(shared, HOSTILE_SCALARS))))
    operands = [len(steps) - 1, shared]
    if draw(st.booleans()):
        operands.reverse()
    steps.append(Step(draw(st.sampled_from(ZIP_OPS)), *operands))
    return steps


class TestCarriedStatistics:
    """A tile's stored layout flag and count, and the grid statistics
    built on them, equal a from-scratch derivation after every operation;
    and operating on carried statistics gives the grid that operating on
    re-derived ones gives."""

    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_every_result_tile_matches_a_fresh_derivation(self, data):
        rows = data.draw(st.integers(1, 23), label="rows")
        cols = data.draw(st.integers(1, 23), label="cols")
        block_size = data.draw(st.sampled_from([3, 5, 8, 32]), label="block")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        kinds = st.sampled_from(["dense", "csr", "ragged", "empty"])
        pool = [_grid(rng, rows, cols, block_size, data.draw(kinds))
                for _ in range(3)]
        pool += [matrix.transpose() for matrix in pool[:2]]
        for matrix in pool:
            _check_statistics(matrix)
        current = pool[0]
        for _ in range(data.draw(st.integers(1, 6), label="length")):
            fresh = _fresh(current)
            partners = [m for m in pool if m.shape == current.shape]
            inner = [m for m in pool if m.rows == current.cols]
            choices = list(UNARY_OPS)
            if partners:
                choices += ZIP_OPS + ("fused",)
            if inner:
                choices.append("matmul")
            op = data.draw(st.sampled_from(choices), label="op")
            with np.errstate(all="ignore"):
                if op in UNARY_OPS:
                    result, expected = UNARY_OPS[op](current), \
                        UNARY_OPS[op](fresh)
                elif op == "matmul":
                    other = data.draw(st.sampled_from(inner))
                    result = current.matmul(other)
                    expected = fresh.matmul(_fresh(other))
                elif op == "fused":
                    leaves = [current] + [data.draw(st.sampled_from(partners))
                                          for _ in range(2)]
                    steps = data.draw(fused_programs(len(leaves)))
                    result, step_nnz = evaluate_fused_ewise(steps, leaves)
                    expected, fresh_nnz = evaluate_fused_ewise(
                        steps, [_fresh(leaf) for leaf in leaves])
                    assert step_nnz == fresh_nnz
                    assert step_nnz[-1] == result.nnz
                else:
                    other = data.draw(st.sampled_from(partners))
                    try:
                        result = getattr(current, op)(other)
                    except ExecutionError:  # divide by an absent tile
                        with pytest.raises(ExecutionError):
                            getattr(fresh, op)(_fresh(other))
                        continue
                    expected = getattr(fresh, op)(_fresh(other))
            _check_statistics(result)
            _same_grid(result, expected)
            if data.draw(st.booleans(), label="twin"):
                # From here on a "transpose" of this grid is a memo hit,
                # and still has to equal the fresh derivation above.
                _check_twin(result)
            current = result

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_proved_counts_equal_scanned_ones(self, reverted, data):
        """Tiles at and above ``COMPARE_COUNT_CELLS``, where a rank-one
        product and a ``scale`` may state their count instead of scanning:
        hostile cells in the factors, hostile scalars after them; the
        expected products are scanned for their counts, none proved."""
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        rows = data.draw(st.sampled_from([64, 100, 128]), label="rows")
        cols = data.draw(st.sampled_from([64, 100, 128]), label="cols")

        def factor(cells):
            values = rng.standard_normal(cells) * 10.0 ** rng.integers(-3, 4)
            for value in data.draw(st.lists(st.sampled_from(HOSTILE_CELLS),
                                            max_size=3)):
                values[rng.random(cells) < rng.choice([0.02, 0.3, 1.0])] = value
            return values

        def outer():
            return (BlockedMatrix.from_numpy(factor(rows).reshape(-1, 1), 64),
                    BlockedMatrix.from_numpy(factor(cols).reshape(1, -1), 64))

        with np.errstate(all="ignore"):
            left, right = outer()
            current = left.matmul(right)
            _check_statistics(current)
            with reverted("proved_counts"):
                _same_grid(current, _fresh(left).matmul(_fresh(right)))
            for _ in range(data.draw(st.integers(1, 6), label="length")):
                fresh = _fresh(current)
                op = data.draw(st.sampled_from(
                    ["scale", "scale", "scale", "negate", "transpose",
                     "add", "multiply", "square"]), label="op")
                if op == "scale":
                    scalar = data.draw(st.sampled_from(HOSTILE_SCALARS))
                    result, expected = current.scale(scalar), fresh.scale(scalar)
                elif op in ("negate", "transpose"):
                    result = getattr(current, op)()
                    expected = getattr(fresh, op)()
                elif op == "square":
                    other = current.transpose()
                    result = current.matmul(other)
                    with reverted("proved_counts"):
                        expected = fresh.matmul(_fresh(other))
                else:
                    other = BlockedMatrix.matmul(*outer())
                    if other.shape != current.shape:
                        other = other.transpose()
                    if other.shape != current.shape:
                        continue
                    result = getattr(current, op)(other)
                    expected = getattr(fresh, op)(_fresh(other))
                _check_statistics(result)
                _same_grid(result, expected)
                current = result

    @given(st.sampled_from(["dense", "csr", "ragged"]), st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_kept_tiles_go_with_invalidate_stats(self, kind, seed):
        rng = np.random.default_rng(seed)
        source = _grid(rng, 13, 13, 5, kind)
        assume(source.blocks)
        old = source.transpose()
        expected_old = _fresh(source).transpose()
        # Surgery the way ``RecoveryManager._heal`` does it: edit, then tell.
        lost = list(source.blocks)[int(rng.integers(len(source.blocks)))]
        del source.blocks[lost]
        source.invalidate_stats()
        fresh = source.transpose()
        assert (lost[1], lost[0]) not in fresh.blocks
        _same_grid(fresh, _fresh(source).transpose())
        _check_statistics(fresh)
        _check_twin(source)
        _same_grid(old, expected_old)  # grids already handed out stay as they were

    @given(st.sampled_from(["dense", "csr", "ragged", "empty"]),
           st.integers(0, 2**16))
    @settings(max_examples=20, deadline=None)
    def test_kept_tiles_carry_no_flag(self, kind, seed):
        source = _grid(np.random.default_rng(seed), 13, 13, 5, kind)
        old = source.transpose()
        source.symmetric = True
        flagged = source.transpose()
        assert flagged.symmetric and flagged.meta().symmetric
        assert not old.symmetric and not old.meta().symmetric
        assert all(flagged.blocks[key] is block
                   for key, block in old.blocks.items())
        _check_twin(source)

    @pytest.mark.parametrize("kind", ["dense", "csr"])
    def test_kept_tiles_die_with_their_grid(self, kind):
        # Grids own megabytes of tiles: source, transposed grids and kept
        # tiles must all die by refcount, none wait for a collection.
        source = _grid(np.random.default_rng(3), 13, 9, 5, kind)
        expected = source.to_numpy()
        handed = source.transpose()
        dead = [weakref.ref(source), weakref.ref(handed),
                weakref.ref(next(iter(handed.blocks.values())).data)]
        gc.collect()
        gc.disable()
        try:
            del source
            # A transposed grid that outlives its source is a grid like any.
            assert dead[0]() is None
            assert np.array_equal(handed.to_numpy(), expected.T)
            assert np.array_equal(handed.transpose().to_numpy(), expected)
            del handed
            assert [ref() for ref in dead] == [None, None, None]
        finally:
            gc.enable()

    @given(st.floats(allow_nan=True, allow_infinity=True))
    def test_scalar_is_from_numpy_tile_for_tile(self, value):
        direct = BlockedMatrix.scalar(value, 8)
        _check_statistics(direct)
        _same_grid(direct, BlockedMatrix.from_numpy(np.array([[value]]), 8))
        assert direct.blocks.keys() == (set() if value == 0.0 else {(0, 0)})

    def test_zero_scalar_has_an_empty_grid(self):
        assert BlockedMatrix.scalar(0.0).blocks == {}
        assert BlockedMatrix.scalar(-0.0).blocks == {}
        assert BlockedMatrix.scalar(0.0).scalar_value() == 0.0


def _payload(block):
    """A tile's layout, memory order and payload bytes."""
    data = block.data
    if block.is_sparse:
        return True, data.data.tobytes(), data.indices.tobytes(), \
            data.indptr.tobytes()
    return False, data.flags.c_contiguous, data.flags.f_contiguous, \
        data.tobytes()


def _payloads(matrix):
    """Every tile's payload, in grid insertion order, and the flag."""
    return [(key, _payload(block)) for key, block in matrix.blocks.items()], \
        matrix.symmetric


def _one_at_a_time(steps, leaves):
    """A fused program run one operator at a time, every result fresh."""
    grids, nnz = [], []
    for step in steps:
        if step.op == "leaf":
            grid = leaves[step.a]
        elif step.op == "neg":
            grid = grids[step.a].negate()
        elif step.scalar is not None:
            grid = grids[step.a].with_scalar(step.op, step.scalar,
                                             step.scalar_left)
        else:
            grid = getattr(grids[step.a], step.op)(grids[step.b])
        grids.append(grid)
        nnz.append(grid.nnz)
    return grids[-1], nnz


class TestFusedEvaluator:
    """``evaluate_fused_ewise`` is its operators: giving a step result up
    to its one reader leaves every result, count and leaf as running the
    steps one by one on fresh results does."""

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_evaluation_equals_the_operators_one_by_one(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        rows = data.draw(st.sampled_from([64, 100, 128, 130]), label="rows")
        cols = data.draw(st.sampled_from([64, 100, 128]), label="cols")
        symmetric = data.draw(st.booleans(), label="symmetric")

        def leaf():
            kind = data.draw(st.sampled_from(
                ["dense", "csr", "ragged", "transposed", "built"]),
                label="kind")
            shape = (cols, rows) if kind == "transposed" else (rows, cols)
            values = rng.standard_normal(shape)
            for value in data.draw(st.lists(st.sampled_from(HOSTILE_CELLS),
                                            max_size=3)):
                values[rng.random(shape) < rng.choice([0.02, 0.3])] = value
            if kind == "csr":
                values[rng.random(shape) < 0.85] = 0.0
                return BlockedMatrix.from_scipy(sp.csr_matrix(values), 64,
                                                symmetric=symmetric)
            if kind == "ragged":  # whole tiles absent
                for bi in range(0, rows, 64):
                    for bj in range(0, cols, 64):
                        if rng.random() < 0.4:
                            values[bi:bi + 64, bj:bj + 64] = 0.0
            grid = BlockedMatrix.from_numpy(values, 64, symmetric=symmetric)
            if kind == "built":  # a kernel's result: it owns its tiles
                return grid.negate()
            return grid.transpose() if kind == "transposed" else grid

        leaves = [leaf() for _ in range(data.draw(st.integers(1, 3)))]
        steps = data.draw(shared_programs(len(leaves)), label="steps")
        before = [_payloads(grid) for grid in leaves]
        with np.errstate(all="ignore"):
            try:
                expected, expected_nnz = _one_at_a_time(steps, leaves)
            except ExecutionError as error:  # divide by an absent tile
                with pytest.raises(ExecutionError) as raised:
                    evaluate_fused_ewise(steps, leaves)
                assert str(raised.value) == str(error)
            else:
                result, nnz = evaluate_fused_ewise(steps, leaves)
                assert nnz == expected_nnz
                assert _payloads(result) == _payloads(expected)
        assert [_payloads(grid) for grid in leaves] == before


# ----------------------------------------------------------------------
# Normalization and search invariants
# ----------------------------------------------------------------------
class TestNormalizationProperties:
    @given(chain_expressions())
    @settings(max_examples=60, deadline=None)
    def test_push_down_leaves_only_leaf_transposes(self, expr):
        pushed = push_down_transposes(expr, env=SQUARE_ENV)
        for node in pushed.walk():
            if isinstance(node, Transpose):
                assert isinstance(node.child, MatrixRef)

    @given(chain_expressions())
    @settings(max_examples=60, deadline=None)
    def test_normalize_idempotent(self, expr):
        once = normalize(expr, env=SQUARE_ENV)
        assert normalize(once, env=SQUARE_ENV) == once

    @given(chain_expressions())
    @settings(max_examples=30, deadline=None)
    def test_normalize_preserves_value(self, expr):
        from repro.runtime import Executor
        executor = Executor(ClusterConfig().as_single_node())
        rng = np.random.default_rng(42)
        inputs = {name: rng.random((16, 16)) for name in "ABCDE"}
        before, after = (
            executor.run(Program(statements=[Assign("out", e)]), inputs)
            ["out"].matrix.to_numpy()
            for e in (expr, normalize(expr, env=SQUARE_ENV)))
        assert np.allclose(before, after)

    @given(chain_expressions())
    @settings(max_examples=40, deadline=None)
    def test_printer_round_trip(self, expr):
        assert parse_expression(format_expr(expr)) == expr


class TestSearchProperties:
    @given(chain_expressions())
    @settings(max_examples=40, deadline=None)
    def test_options_have_disjoint_occurrences(self, expr):
        program = Program(statements=[Assign("out", expr)])
        chains = build_chains(program, dict(SQUARE_ENV))
        for option in blockwise_search(chains).options:
            occs = sorted(option.occurrences, key=lambda o: (o.site_id, o.start))
            for a, b in zip(occs, occs[1:]):
                if a.site_id == b.site_id:
                    assert a.end < b.start

    @given(chain_expressions())
    @settings(max_examples=40, deadline=None)
    def test_window_count_quadratic(self, expr):
        program = Program(statements=[Assign("out", expr)])
        chains = build_chains(program, dict(SQUARE_ENV))
        result = blockwise_search(chains)
        bound = sum(len(s) * (len(s) + 1) // 2 for s in chains.sites)
        assert result.windows_visited <= bound

    @given(st.integers(min_value=1, max_value=12))
    def test_catalan_recurrence(self, n):
        assert catalan(n) == sum(catalan(i) * catalan(n - 1 - i)
                                 for i in range(n))

    @given(st.integers(min_value=2, max_value=12))
    def test_plan_count_dominates_catalan(self, n):
        assert plan_tree_count(n) == catalan(n - 1) * 2 ** (n - 1)
        assert plan_tree_count(n) >= catalan(n - 1)


# ----------------------------------------------------------------------
# Meta invariants
# ----------------------------------------------------------------------
class TestMetaProperties:
    @given(dims, dims, sparsities)
    def test_transpose_involution(self, rows, cols, sparsity):
        meta = MatrixMeta(rows, cols, sparsity)
        assert meta.transposed().transposed() == meta

    @given(dims, dims, sparsities)
    def test_nnz_bounded_by_cells(self, rows, cols, sparsity):
        meta = MatrixMeta(rows, cols, sparsity)
        assert 0 <= meta.nnz <= meta.cells

    @given(dims, dims, dims, sparsities, sparsities)
    def test_matmul_shape_composes(self, m, k, n, sa, sb):
        left = MatrixMeta(m, k, sa)
        right = MatrixMeta(k, n, sb)
        assert left.matmul_shape(right) == (m, n)
