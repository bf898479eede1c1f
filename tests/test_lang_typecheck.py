"""Type checker tests: shape inference, sparsity propagation, loop fixpoints."""

import pytest

from repro.errors import ShapeError, TypeCheckError
from repro.lang import check_program, infer_expr_meta, parse, parse_expression
from repro.matrix.meta import MatrixMeta


@pytest.fixture
def env():
    return {
        "A": MatrixMeta(100, 20, 0.5),
        "B": MatrixMeta(20, 30, 0.1),
        "v": MatrixMeta(20, 1, 1.0),
        "H": MatrixMeta(20, 20, 1.0, symmetric=True),
        "s": MatrixMeta(1, 1),
    }


class TestExpressionInference:
    def test_matmul_shape(self, env):
        meta = infer_expr_meta(parse_expression("A %*% B"), env)
        assert (meta.rows, meta.cols) == (100, 30)

    def test_matmul_mismatch_raises(self, env):
        with pytest.raises(ShapeError):
            infer_expr_meta(parse_expression("B %*% A"), env)

    def test_transpose_swaps_dims(self, env):
        meta = infer_expr_meta(parse_expression("t(A)"), env)
        assert (meta.rows, meta.cols) == (20, 100)

    def test_symmetric_transpose_is_identity(self, env):
        meta = infer_expr_meta(parse_expression("t(H)"), env)
        assert (meta.rows, meta.cols) == (20, 20)
        assert meta.symmetric

    def test_add_requires_same_shape(self, env):
        with pytest.raises(ShapeError):
            infer_expr_meta(parse_expression("A + B"), env)

    def test_scalar_broadcast_add(self, env):
        meta = infer_expr_meta(parse_expression("A + 1"), env)
        assert (meta.rows, meta.cols) == (100, 20)
        assert meta.sparsity == 1.0  # adding a non-zero scalar densifies

    def test_scalar_broadcast_multiply_keeps_sparsity(self, env):
        meta = infer_expr_meta(parse_expression("2 * A"), env)
        assert meta.sparsity == pytest.approx(0.5)

    def test_matmul_sparsity_uniform_rule(self, env):
        meta = infer_expr_meta(parse_expression("A %*% B"), env)
        expected = 1.0 - (1.0 - 0.5 * 0.1) ** 20
        assert meta.sparsity == pytest.approx(expected)

    def test_division_by_scalar_chain(self, env):
        meta = infer_expr_meta(parse_expression("v %*% t(v) / (t(v) %*% v)"), env)
        assert (meta.rows, meta.cols) == (20, 20)

    def test_undefined_variable(self, env):
        with pytest.raises(TypeCheckError, match="undefined"):
            infer_expr_meta(parse_expression("Z %*% A"), env)

    def test_sum_returns_scalar(self, env):
        meta = infer_expr_meta(parse_expression("sum(A)"), env)
        assert meta.is_scalar_like

    def test_sqrt_of_matrix_is_cellwise(self, env):
        meta = infer_expr_meta(parse_expression("sqrt(A)"), env)
        assert (meta.rows, meta.cols) == (100, 20)
        assert meta.sparsity == pytest.approx(0.5)  # zero-preserving

    def test_exp_of_matrix_densifies(self, env):
        meta = infer_expr_meta(parse_expression("exp(A)"), env)
        assert meta.sparsity == 1.0

    def test_sigmoid_of_matrix_densifies(self, env):
        meta = infer_expr_meta(parse_expression("sigmoid(A)"), env)
        assert meta.sparsity == 1.0

    def test_rowsums_colsums_shapes(self, env):
        rows = infer_expr_meta(parse_expression("rowsums(A)"), env)
        cols = infer_expr_meta(parse_expression("colsums(A)"), env)
        assert (rows.rows, rows.cols) == (100, 1)
        assert (cols.rows, cols.cols) == (1, 20)

    def test_diag_requires_square(self, env):
        meta = infer_expr_meta(parse_expression("diag(H)"), env)
        assert (meta.rows, meta.cols) == (20, 1)
        with pytest.raises(ShapeError):
            infer_expr_meta(parse_expression("diag(A)"), env)

    def test_compare_returns_scalar(self, env):
        meta = infer_expr_meta(parse_expression("s < 3", scalar_names={"s"}), env)
        assert meta.is_scalar_like

    def test_elemwise_mul_sparsity_intersection(self, env):
        wide = {"X": MatrixMeta(10, 10, 0.5), "Y": MatrixMeta(10, 10, 0.4)}
        meta = infer_expr_meta(parse_expression("X * Y"), wide)
        assert meta.sparsity == pytest.approx(0.2)


class TestProgramChecking:
    def test_environments_recorded_per_statement(self, env):
        program = parse("u = A %*% v\nw = t(A) %*% u")
        typed = check_program(program, env)
        assert len(typed.assignments) == 2
        assert "u" not in typed.env_before[0]
        assert "u" in typed.env_before[1]

    def test_final_env_contains_all_targets(self, env):
        program = parse("u = A %*% v\nw = t(A) %*% u")
        typed = check_program(program, env)
        assert typed.final_env["w"].rows == 20

    def test_loop_shape_fixpoint_ok(self, env):
        program = parse("""
            while (s < 5) {
              v = B %*% t(B) %*% v
              s = s + 1
            }""", scalar_names={"s"})
        typed = check_program(program, env)
        assert typed.final_env["v"].rows == 20

    def test_loop_shape_divergence_rejected(self, env):
        # B flips between 20x30 and 30x20 each iteration: no fixpoint.
        program = parse("""
            while (s < 5) {
              B = t(B)
              s = s + 1
            }""", scalar_names={"s"})
        with pytest.raises(ShapeError, match="changes shape"):
            check_program(program, env)

    def test_loop_shape_mismatch_surfaces(self, env):
        # v flips shape and the second pass hits an operand mismatch.
        program = parse("""
            while (s < 5) {
              v = t(B) %*% v
              s = s + 1
            }""", scalar_names={"s"})
        with pytest.raises(ShapeError):
            check_program(program, env)

    def test_loop_condition_undefined_variable(self, env):
        program = parse("while (q < 5) { v = H %*% v }", scalar_names={"q"})
        with pytest.raises(TypeCheckError, match="undefined"):
            check_program(program, env)

    def test_dfp_program_checks(self, dfp_like_inputs):
        from repro.algorithms import get_algorithm
        algo = get_algorithm("dfp")
        typed = check_program(algo.program(5), {
            **dfp_like_inputs,
            "b": MatrixMeta(1000, 1), "x": MatrixMeta(80, 1),
            "alpha": MatrixMeta(1, 1),
        })
        assert typed.final_env["H"].rows == 80
