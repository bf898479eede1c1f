"""Sparsity estimator tests: accuracy against the exact oracle, skew behaviour."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse as sp

from repro.core.sparsity import (
    DensityMapEstimator,
    ExactEstimator,
    MetadataEstimator,
    MNCEstimator,
    SamplingEstimator,
    make_estimator,
)
from repro.engines import make_engine
from repro.errors import ExecutionError, ShapeError
from repro.lang import parse
from repro.matrix.blocked import BlockedMatrix
from repro.matrix.meta import MatrixMeta

ALL_NAMES = ["metadata", "mnc", "densitymap", "sampling", "exact"]


@pytest.fixture
def uniform_pair(rng):
    a = sp.random(400, 60, density=0.03, format="csr", random_state=rng)
    b = sp.random(60, 90, density=0.08, format="csr", random_state=rng)
    return a, b


@pytest.fixture
def skewed_matrix(rng):
    rows = rng.zipf(1.8, size=4000) % 400
    cols = rng.zipf(1.8, size=4000) % 60
    values = np.ones(4000)
    matrix = sp.csr_matrix((values, (rows, cols)), shape=(400, 60))
    matrix.data[:] = 1.0
    return matrix


def true_matmul_sparsity(a, b) -> float:
    product = (a @ b)
    rows, cols = product.shape
    return (product != 0).sum() / (rows * cols)


class TestFactory:
    def test_all_names_resolve(self):
        for name in ALL_NAMES:
            estimator = make_estimator(name)
            assert estimator.name == name

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown sparsity estimator"):
            make_estimator("psychic")


@pytest.mark.parametrize("name", ALL_NAMES)
class TestCommonContract:
    def test_leaf_meta_round_trip(self, name, uniform_pair):
        estimator = make_estimator(name)
        a, _ = uniform_pair
        sketch = estimator.sketch_data(a)
        meta = estimator.meta(sketch)
        assert (meta.rows, meta.cols) == a.shape
        true_sp = a.nnz / (a.shape[0] * a.shape[1])
        tolerance = 0.5 if name == "sampling" else 0.01
        assert meta.sparsity == pytest.approx(true_sp, rel=tolerance)

    def test_transpose_swaps_shape(self, name, uniform_pair):
        estimator = make_estimator(name)
        sketch = estimator.sketch_data(uniform_pair[0])
        meta = estimator.meta(estimator.transpose(sketch))
        assert (meta.rows, meta.cols) == (60, 400)

    def test_matmul_shape(self, name, uniform_pair):
        estimator = make_estimator(name)
        a, b = uniform_pair
        out = estimator.matmul(estimator.sketch_data(a), estimator.sketch_data(b))
        assert (estimator.meta(out).rows, estimator.meta(out).cols) == (400, 90)

    def test_matmul_estimate_within_2x_on_uniform(self, name, uniform_pair):
        estimator = make_estimator(name)
        a, b = uniform_pair
        estimate = estimator.meta(estimator.matmul(
            estimator.sketch_data(a), estimator.sketch_data(b))).sparsity
        truth = true_matmul_sparsity(a, b)
        assert truth / 2 <= estimate <= truth * 2

    def test_scalar_op_densifies_or_not(self, name, uniform_pair):
        estimator = make_estimator(name)
        sketch = estimator.sketch_data(uniform_pair[0])
        keeps = estimator.meta(estimator.scalar_op(sketch, preserves_zero=True))
        fills = estimator.meta(estimator.scalar_op(sketch, preserves_zero=False))
        assert keeps.sparsity < 0.1
        assert fills.sparsity == pytest.approx(1.0)

    def test_sketch_meta_fallback(self, name):
        estimator = make_estimator(name)
        meta = MatrixMeta(100, 50, 0.1)
        sketch = estimator.sketch_meta(meta)
        assert estimator.meta(sketch).sparsity == pytest.approx(0.1, abs=0.03)

    def test_blocked_matrix_input(self, name, uniform_pair):
        estimator = make_estimator(name)
        blocked = BlockedMatrix.from_scipy(uniform_pair[0], 64)
        sketch = estimator.sketch_data(blocked)
        assert estimator.meta(sketch).rows == 400

    def test_a_scalar_numerator_spreads_over_its_denominator(
            self, name, uniform_pair):
        estimator = make_estimator(name)
        matrix = estimator.sketch_data(uniform_pair[0])
        for sparsity in (1.0, 0.0):
            cell = estimator.sketch_meta(MatrixMeta(1, 1, sparsity))
            meta = estimator.meta(estimator.divide(cell, matrix))
            assert (meta.rows, meta.cols) == (400, 60)
            assert meta.sparsity == pytest.approx(sparsity)

    def test_a_product_of_mismatched_shapes_is_a_shape_error(self, name):
        estimator = make_estimator(name)
        left, right = (estimator.sketch_meta(MatrixMeta(rows, cols, 0.5))
                       for rows, cols in ((4, 3), (5, 2)))
        with pytest.raises(ShapeError, match="matmul shape mismatch"):
            estimator.matmul(left, right)

    def test_a_scalar_over_a_matrix_fails_typed_where_it_runs(self, name):
        """The compile prices ``c / X`` as an X-shaped value, so the run,
        not the compile, stops: at the statement the executor refuses."""
        program = parse("y = c / X\nz = y %*% X")
        meta = {"X": MatrixMeta(600, 600, 1.0), "c": MatrixMeta(1, 1, 1.0)}
        data = {"X": np.ones((600, 600)), "c": 2.0}
        with pytest.raises(ExecutionError,
                           match=r"^scalar / matrix is not supported.*"
                                 r"\[at statement 0, assigning 'y'\]$"):
            make_engine("remac", estimator=name).run(program, meta, data)


class TestSkewSensitivity:
    def test_metadata_blind_to_skew(self, skewed_matrix):
        """The uniform assumption underestimates gram-matrix density on
        skewed data — the §4.2 failure mode."""
        metadata = MetadataEstimator()
        sketch = metadata.sketch_data(skewed_matrix)
        estimate = metadata.meta(metadata.matmul(
            sketch, metadata.transpose(sketch))).sparsity
        truth = true_matmul_sparsity(skewed_matrix, skewed_matrix.T)
        assert estimate < truth / 2

    def test_mnc_sees_skew(self, skewed_matrix):
        mnc = MNCEstimator()
        sketch = mnc.sketch_data(skewed_matrix)
        estimate = mnc.meta(mnc.matmul(sketch, mnc.transpose(sketch))).sparsity
        truth = true_matmul_sparsity(skewed_matrix, skewed_matrix.T)
        assert truth / 2 <= estimate <= truth * 2

    def test_mnc_beats_metadata_on_skew(self, skewed_matrix):
        truth = true_matmul_sparsity(skewed_matrix, skewed_matrix.T)
        errors = {}
        for name in ("metadata", "mnc", "densitymap"):
            est = make_estimator(name)
            sketch = est.sketch_data(skewed_matrix)
            guess = est.meta(est.matmul(sketch, est.transpose(sketch))).sparsity
            errors[name] = abs(guess - truth)
        assert errors["mnc"] < errors["metadata"]

    def test_mnc_row_counts_track_structure(self, skewed_matrix):
        mnc = MNCEstimator()
        sketch = mnc.sketch_data(skewed_matrix)
        true_rows = np.diff(skewed_matrix.tocsr().indptr)
        assert np.array_equal(sketch.row_counts, true_rows)


class TestEstimationCost:
    def test_metadata_is_free(self, uniform_pair):
        metadata = MetadataEstimator()
        metadata.sketch_data(uniform_pair[0])
        assert metadata.stats_collection_flops == 0.0

    def test_mnc_pays_a_scan(self, uniform_pair):
        mnc = MNCEstimator()
        mnc.sketch_data(uniform_pair[0])
        assert mnc.stats_collection_flops >= uniform_pair[0].nnz

    def test_sampling_cheaper_than_mnc(self, uniform_pair):
        sampling = SamplingEstimator(sample_fraction=0.05)
        mnc = MNCEstimator()
        sampling.sketch_data(uniform_pair[0])
        mnc.sketch_data(uniform_pair[0])
        assert sampling.stats_collection_flops < mnc.stats_collection_flops


class TestOperatorAlgebra:
    @pytest.mark.parametrize("name", ["metadata", "mnc", "densitymap", "exact"])
    def test_add_union_bound(self, name, uniform_pair):
        estimator = make_estimator(name)
        a, _ = uniform_pair
        sketch = estimator.sketch_data(a)
        doubled = estimator.add(sketch, sketch)
        single = estimator.meta(sketch).sparsity
        total = estimator.meta(doubled).sparsity
        assert single <= total <= min(1.0, 2 * single) + 1e-9

    @pytest.mark.parametrize("name", ["metadata", "mnc", "densitymap", "exact"])
    def test_multiply_intersection_bound(self, name, uniform_pair):
        estimator = make_estimator(name)
        a, _ = uniform_pair
        sketch = estimator.sketch_data(a)
        squared = estimator.multiply(sketch, sketch)
        assert estimator.meta(squared).sparsity <= \
            estimator.meta(sketch).sparsity + 1e-9

    @pytest.mark.parametrize("name", ["metadata", "mnc", "densitymap", "exact"])
    def test_divide_keeps_numerator(self, name, uniform_pair):
        estimator = make_estimator(name)
        sketch = estimator.sketch_data(uniform_pair[0])
        divided = estimator.divide(sketch, sketch)
        assert estimator.meta(divided).sparsity == pytest.approx(
            estimator.meta(sketch).sparsity)

    def test_exact_matmul_is_exact(self, uniform_pair):
        exact = ExactEstimator()
        a, b = uniform_pair
        out = exact.matmul(exact.sketch_data(a), exact.sketch_data(b))
        assert exact.meta(out).sparsity == pytest.approx(
            true_matmul_sparsity(a, b))

    def test_density_map_local_structure(self, rng):
        # A dense corner stays a dense corner through the density map.
        corner = np.zeros((128, 128))
        corner[:16, :16] = 1.0
        dm = DensityMapEstimator(grid_size=8)
        sketch = dm.sketch_data(sp.csr_matrix(corner))
        assert sketch.grid[0, 0] == pytest.approx(1.0)
        assert sketch.grid[-1, -1] == pytest.approx(0.0)


@st.composite
def supports(draw, rows, cols):
    """A boolean support: empty, full, or random cells at a drawn density."""
    fill = draw(st.sampled_from(["empty", "full", "random"]))
    if fill == "random":
        seed = draw(st.integers(0, 2 ** 16))
        density = draw(st.sampled_from([0.05, 0.5, 0.95]))
        support = np.random.default_rng(seed).random((rows, cols)) < density
    else:
        support = np.full((rows, cols), fill == "full")
    return support


#: Inner dimensions at, just under and above multiples of 256: a product
#: count that wraps a narrow integer reads zero there.
INNER = [1, 2, 255, 256, 257, 512, 768]


class TestExactOracle:
    """Every :class:`ExactEstimator` primitive against the support NumPy
    computes from dense boolean arrays."""

    @staticmethod
    def _sketch(exact, support, as_csr):
        values = support.astype(np.float64)
        return exact.sketch_data(sp.csr_matrix(values) if as_csr else values)

    @staticmethod
    def _check(exact, sketch, expected):
        assert sketch.shape == expected.shape
        assert np.array_equal(sketch.support.toarray().astype(bool), expected)
        assert exact.meta(sketch).sparsity == expected.mean()

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_each_primitive_computes_the_true_support(self, data):
        exact = ExactEstimator()
        primitive = data.draw(st.sampled_from(
            ["matmul", "transpose", "add", "subtract", "multiply", "divide",
             "scalar_op"]))
        rows, cols = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        as_csr = data.draw(st.booleans())
        if primitive == "matmul":
            inner = data.draw(st.sampled_from(INNER))
            left = data.draw(supports(rows, inner))
            right = data.draw(supports(inner, cols))
            expected = (left.astype(np.int64) @ right.astype(np.int64)) > 0
        elif primitive in ("transpose", "scalar_op"):
            left, right = data.draw(supports(rows, cols)), None
            keeps = data.draw(st.booleans())
            expected = left.T if primitive == "transpose" else \
                (left if keeps else np.ones_like(left))
        else:
            # Same shapes, or a 1x1 scalar on either side (or both).
            scalar = data.draw(st.sampled_from(["none", "left", "right"]))
            left = data.draw(supports(*((1, 1) if scalar == "left"
                                        else (rows, cols))))
            right = data.draw(supports(*((1, 1) if scalar == "right"
                                         else (rows, cols))))
            expected = {
                "add": np.logical_or, "subtract": np.logical_or,
                "multiply": np.logical_and,
                # Denominators are dense: the numerator's support, spread.
                "divide": lambda a, b: np.broadcast_to(
                    a, np.broadcast_shapes(a.shape, b.shape)),
            }[primitive](left, right)
        sketches = [self._sketch(exact, operand, as_csr)
                    for operand in (left, right) if operand is not None]
        if primitive == "scalar_op":
            out = exact.scalar_op(sketches[0], preserves_zero=keeps)
        else:
            out = getattr(exact, primitive)(*sketches)
        self._check(exact, out, expected)

    def test_a_count_of_256_is_a_cell(self):
        exact = ExactEstimator()
        ones = exact.sketch_data(np.ones((1, 256)))
        product = exact.matmul(ones, exact.transpose(ones))
        assert exact.meta(product).sparsity == 1.0
