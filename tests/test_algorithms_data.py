"""Workload and dataset tests: scripts type-check, references converge,
generators match their specs."""

import numpy as np
import pytest
from scipy import sparse as sp

from repro.algorithms import ALGORITHMS, get_algorithm, run_reference
from repro.data import (
    ALL_DATASET_NAMES,
    DATASET_SPECS,
    ZIPF_EXPONENTS,
    load_dataset,
    skew_concentration,
    zipf_weights,
)
from repro.lang import check_program
from repro.matrix.meta import MatrixMeta


class TestAlgorithms:
    def test_registry_contents(self):
        assert set(ALGORITHMS) == {"gd", "dfp", "bfgs", "gnmf", "partial_dfp",
                                   "ridge", "power_iteration", "logistic"}

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            get_algorithm("adam")

    def test_outputs_are_the_scripts_output_lines(self):
        declared = {name: algo.outputs for name, algo in ALGORITHMS.items()}
        assert declared == {
            "gd": ("x",), "dfp": ("x", "H"), "bfgs": ("x", "H"),
            "gnmf": ("W", "Hm"), "partial_dfp": ("out",), "ridge": ("x",),
            "power_iteration": ("v",), "logistic": ("x",)}
        for name, outputs in declared.items():
            line = next(line for line in ALGORITHMS[name].script.splitlines()
                        if line.startswith("output "))
            assert line == "output " + ", ".join(outputs)

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_scripts_type_check(self, name):
        algo = get_algorithm(name)
        dataset = load_dataset("cri1", scale=0.02)
        meta, _data = algo.make_inputs(dataset.matrix)
        check_program(algo.program(iterations=3), meta)

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_make_inputs_bindings_match_meta(self, name):
        algo = get_algorithm(name)
        dataset = load_dataset("cri2", scale=0.02)
        meta, data = algo.make_inputs(dataset.matrix)
        assert set(meta) == set(data)
        for key, matrix_meta in meta.items():
            value = data[key]
            if isinstance(value, (int, float)):
                assert matrix_meta.is_scalar_like
            else:
                assert value.shape == (matrix_meta.rows, matrix_meta.cols)

    def test_program_iterations_cached(self):
        algo = get_algorithm("gd")
        assert algo.program(5) is algo.program(5)
        assert algo.program(5) is not algo.program(6)

    def test_gd_reference_converges(self, rng):
        A = rng.random((500, 20))
        x_true = rng.random((20, 1))
        b = A @ x_true
        trace = float(np.square(A).sum())
        out = run_reference("gd", {"A": A, "b": b, "x": np.zeros((20, 1)),
                                   "alpha": 0.5 / trace}, iterations=200)
        start_residual = np.linalg.norm(b)
        end_residual = np.linalg.norm(A @ out["x"] - b)
        assert end_residual < 0.5 * start_residual

    @pytest.mark.parametrize("name", ["dfp", "bfgs"])
    def test_quasi_newton_references_decrease_objective(self, name, rng):
        A = rng.random((400, 15))
        x_true = rng.random((15, 1))
        b = A @ x_true
        H = np.eye(15) * (0.5 * 15 / float(np.square(A).sum()))
        out = run_reference(name, {"A": A, "b": b, "x": np.zeros((15, 1)),
                                   "H": H}, iterations=10)
        assert np.linalg.norm(A @ out["x"] - b) < 0.2 * np.linalg.norm(b)

    def test_gnmf_reference_reduces_error(self, rng):
        V = rng.random((60, 40))
        W = rng.random((60, 8)) + 0.1
        Hm = rng.random((8, 40)) + 0.1
        out = run_reference("gnmf", {"V": V, "W": W, "Hm": Hm}, iterations=20)
        before = np.linalg.norm(V - W @ Hm)
        after = np.linalg.norm(V - out["W"] @ out["Hm"])
        assert after < before

    def test_gnmf_stays_nonnegative(self, rng):
        V = rng.random((30, 20))
        out = run_reference("gnmf", {"V": V, "W": rng.random((30, 4)) + 0.1,
                                     "Hm": rng.random((4, 20)) + 0.1},
                            iterations=5)
        assert (out["W"] >= 0).all() and (out["Hm"] >= 0).all()

    def test_unknown_reference(self):
        with pytest.raises(ValueError):
            run_reference("sgd", {}, 1)


class TestDatasets:
    @pytest.mark.parametrize("name", sorted(DATASET_SPECS))
    def test_table2_minis_match_spec(self, name):
        spec = DATASET_SPECS[name]
        dataset = load_dataset(name, scale=0.25)
        stats = dataset.statistics()
        assert stats["cols"] == spec.cols
        assert stats["sparsity"] == pytest.approx(spec.sparsity, rel=0.15)

    def test_dense_datasets_are_dense_format(self):
        dataset = load_dataset("cri1", scale=0.05)
        assert isinstance(dataset.matrix, np.ndarray)
        assert dataset.meta.sparsity > 0.4

    def test_sparse_datasets_are_csr(self):
        dataset = load_dataset("red3", scale=0.05)
        assert sp.issparse(dataset.matrix)

    def test_generation_is_deterministic(self):
        a = load_dataset("cri2", seed=7, scale=0.05)
        b = load_dataset("cri2", seed=7, scale=0.05)
        assert (a.matrix != b.matrix).nnz == 0

    def test_different_seeds_differ(self):
        a = load_dataset("cri2", seed=1, scale=0.05)
        b = load_dataset("cri2", seed=2, scale=0.05)
        assert (a.matrix != b.matrix).nnz > 0

    def test_unknown_dataset(self):
        with pytest.raises(ValueError, match="unknown dataset"):
            load_dataset("criteo-prod")

    def test_all_names_resolve(self):
        for name in ALL_DATASET_NAMES:
            assert load_dataset(name, scale=0.02).meta.rows > 0

    def test_fatness_ordering_preserved(self):
        """cri1 < cri2 < cri3 and red1 < red2 < red3 in column count."""
        cols = {n: DATASET_SPECS[n].cols for n in DATASET_SPECS}
        assert cols["cri1"] < cols["cri2"] < cols["cri3"]
        assert cols["red1"] < cols["red2"] < cols["red3"]


class TestZipf:
    def test_weights_normalized(self):
        weights = zipf_weights(100, 1.4)
        assert weights.sum() == pytest.approx(1.0)
        assert (np.diff(weights) <= 0).all()

    def test_zero_exponent_uniform(self):
        weights = zipf_weights(50, 0.0)
        assert weights.std() == pytest.approx(0.0)

    def test_skew_increases_with_exponent(self):
        concentrations = []
        for exponent in ZIPF_EXPONENTS:
            dataset = load_dataset(f"zipf-{exponent:.1f}", scale=0.25)
            concentrations.append(skew_concentration(dataset.matrix))
        assert concentrations == sorted(concentrations)

    def test_extreme_skew_concentrates(self):
        """zipf-2.8: most non-zeros in the hottest 5% of rows (§6.5)."""
        dataset = load_dataset("zipf-2.8", scale=0.5)
        assert skew_concentration(dataset.matrix, fraction=0.05) > 0.6

    def test_shape_matches_cri2(self):
        zipf = load_dataset("zipf-0.0", scale=0.25)
        cri2 = load_dataset("cri2", scale=0.25)
        assert zipf.shape == cri2.shape

    def test_uniform_zipf_sparsity_close_to_cri2(self):
        zipf = load_dataset("zipf-0.0", scale=0.25)
        assert zipf.meta.sparsity == pytest.approx(
            DATASET_SPECS["cri2"].sparsity, rel=0.2)


class TestExtendedAlgorithms:
    def test_registry_includes_extensions(self):
        assert "ridge" in ALGORITHMS and "power_iteration" in ALGORITHMS

    def test_ridge_reference_converges(self, rng):
        import numpy as np
        A = rng.random((400, 20))
        b = A @ rng.random((20, 1))
        trace = float(np.square(A).sum())
        out = run_reference("ridge", {
            "A": A, "b": b, "x": np.zeros((20, 1)),
            "alpha": 0.5 / trace, "lambda_": 0.001 * trace / 20,
        }, iterations=300)
        assert np.linalg.norm(A @ out["x"] - b) < 0.6 * np.linalg.norm(b)

    def test_power_iteration_converges_to_singular_vector(self, rng):
        import numpy as np
        A = rng.random((300, 15))
        out = run_reference("power_iteration", {
            "A": A, "v": np.ones((15, 1)) / np.sqrt(15)}, iterations=60)
        _u, _s, vt = np.linalg.svd(A, full_matrices=False)
        top = vt[0].reshape(-1, 1)
        cosine = abs(float((out["v"].T @ top).item()))
        assert cosine > 0.999

    def test_ridge_has_gd_style_lse_options(self):
        from repro.core import blockwise_search, build_chains
        algo = get_algorithm("ridge")
        dataset = load_dataset("cri2", scale=0.05)
        meta, _data = algo.make_inputs(dataset.matrix)
        chains = build_chains(algo.program(5), meta)
        keys = {(o.kind, o.key) for o in blockwise_search(chains).options}
        assert ("lse", "A' A") in keys
        assert ("lse", "A' b") in keys

    def test_power_iteration_gram_chain_is_candidate(self):
        """AᵀA is loop-constant in power iteration; the optimizer may hoist
        it or keep the mmchain-style order, but the option must exist."""
        from repro.core import blockwise_search, build_chains
        algo = get_algorithm("power_iteration")
        dataset = load_dataset("cri2", scale=0.05)
        meta, _data = algo.make_inputs(dataset.matrix)
        chains = build_chains(algo.program(5), meta)
        keys = {(o.kind, o.key) for o in blockwise_search(chains).options}
        assert ("lse", "A' A") in keys


class TestZipfTail:
    def test_registered(self):
        assert "zipf-tail" in ALL_DATASET_NAMES

    def test_heavy_tail_misleads_metadata_estimator(self):
        """The dataset's defining property: uniform-assumption gram-density
        estimate is several times below the truth."""
        from repro.core.sparsity import make_estimator
        dataset = load_dataset("zipf-tail")
        truth = ((dataset.matrix.T @ dataset.matrix) != 0).sum() / \
            dataset.meta.cols ** 2
        md = make_estimator("metadata")
        sketch = md.sketch_data(dataset.matrix)
        estimate = md.meta(md.matmul(md.transpose(sketch), sketch)).sparsity
        assert estimate < truth / 3

    def test_mnc_tracks_the_truth(self):
        from repro.core.sparsity import make_estimator
        dataset = load_dataset("zipf-tail")
        truth = ((dataset.matrix.T @ dataset.matrix) != 0).sum() / \
            dataset.meta.cols ** 2
        mnc = make_estimator("mnc")
        sketch = mnc.sketch_data(dataset.matrix)
        estimate = mnc.meta(mnc.matmul(mnc.transpose(sketch), sketch)).sparsity
        assert estimate == pytest.approx(truth, rel=0.25)
