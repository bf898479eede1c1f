"""Normalization tests: transpose push-down and distributive expansion."""

import pytest

from repro.core.normalize import expand_distributive, normalize, push_down_transposes
from repro.lang import parse_expression
from repro.matrix.meta import MatrixMeta


def norm(source, symmetric=frozenset(), env=None, scalar_names=frozenset()):
    return normalize(parse_expression(source, scalar_names=scalar_names),
                     symmetric, env)


def pd(source, symmetric=frozenset(), env=None):
    return push_down_transposes(parse_expression(source), symmetric, env)


class TestTransposePushDown:
    def test_double_transpose_cancels(self):
        assert pd("t(t(A))") == parse_expression("A")

    def test_matmul_transpose_reverses(self):
        assert pd("t(A %*% B)") == parse_expression("t(B) %*% t(A)")

    def test_chain_transpose(self):
        assert pd("t(A %*% B %*% C)") == \
            parse_expression("t(C) %*% (t(B) %*% t(A))")

    def test_add_transpose_distributes(self):
        assert pd("t(A + B)") == parse_expression("t(A) + t(B)")

    def test_sub_transpose_distributes(self):
        assert pd("t(A - B)") == parse_expression("t(A) - t(B)")

    def test_symmetric_leaf_drops_transpose(self):
        assert pd("t(H)", symmetric={"H"}) == parse_expression("H")

    def test_symmetric_inside_chain(self):
        assert pd("t(A %*% H)", symmetric={"H"}) == \
            parse_expression("H %*% t(A)")

    def test_scalar_transpose_dropped(self):
        env = {"s": MatrixMeta(1, 1)}
        assert pd("t(s)", env=env) == parse_expression("s")

    def test_neg_transpose_commute(self):
        assert pd("t(-A)") == parse_expression("-t(A)")

    def test_scalar_coefficient_not_transposed(self):
        env = {"A": MatrixMeta(5, 5), "B": MatrixMeta(5, 5)}
        result = pd("t(2 * A)", env=env)
        assert result == parse_expression("2 * t(A)")

    def test_transpose_of_division_by_scalar(self):
        env = {"A": MatrixMeta(5, 5), "d": MatrixMeta(5, 1)}
        result = pd("t(A / (t(d) %*% d))", env=env)
        assert result == parse_expression("t(A) / (t(d) %*% d)")

    def test_nested_transposes_in_chain(self):
        # t(t(A) %*% B) = t(B) %*% A
        assert pd("t(t(A) %*% B)") == parse_expression("t(B) %*% A")


class TestDistributiveExpansion:
    def test_left_distribution(self):
        assert expand_distributive(parse_expression("(A + B) %*% C")) == \
            parse_expression("A %*% C + B %*% C")

    def test_right_distribution(self):
        assert expand_distributive(parse_expression("H %*% (X + Y)")) == \
            parse_expression("H %*% X + H %*% Y")

    def test_nested_distribution(self):
        result = expand_distributive(parse_expression("(A + B) %*% (C + D)"))
        expected = parse_expression(
            "A %*% C + A %*% D + (B %*% C + B %*% D)")
        assert result == expected

    def test_subtraction_distributes(self):
        assert expand_distributive(parse_expression("A %*% (X - Y)")) == \
            parse_expression("A %*% X - A %*% Y")

    def test_negation_pulls_out(self):
        result = expand_distributive(parse_expression("A %*% (-B)"))
        assert result == parse_expression("-(A %*% B)")

    def test_scalar_coefficient_pulls_out(self):
        env = {"A": MatrixMeta(5, 5), "B": MatrixMeta(5, 5)}
        result = expand_distributive(parse_expression("(2 * A) %*% B"), env)
        assert result == parse_expression("2 * (A %*% B)")

    def test_scalar_division_pulls_out(self):
        env = {"A": MatrixMeta(5, 5), "B": MatrixMeta(5, 5),
               "s": MatrixMeta(1, 1)}
        result = expand_distributive(
            parse_expression("(A / s) %*% B", scalar_names={"s"}), env)
        assert result == parse_expression("A %*% B / s", scalar_names={"s"})

    def test_no_change_for_plain_chain(self):
        expr = parse_expression("A %*% B %*% C")
        assert expand_distributive(expr) == expr


class TestFullNormalize:
    def test_gd_gradient_expands_to_two_chains(self):
        # t(A) %*% (A %*% x - b) -> t(A) %*% A %*% x - t(A) %*% b (as trees)
        env = {"A": MatrixMeta(100, 10, 0.5), "x": MatrixMeta(10, 1),
               "b": MatrixMeta(100, 1)}
        result = norm("t(A) %*% (A %*% x - b)", env=env)
        expected = parse_expression("t(A) %*% (A %*% x) - t(A) %*% b")
        assert result == expected

    def test_idempotent(self):
        env = {"A": MatrixMeta(100, 10), "x": MatrixMeta(10, 1),
               "b": MatrixMeta(100, 1)}
        once = norm("t(A) %*% (A %*% x - b)", env=env)
        assert normalize(once, frozenset(), env) == once

    def test_transpose_then_expand_interleave(self):
        # t((A + B) %*% C) needs push-down then expansion then push-down.
        result = norm("t((A + B) %*% C)")
        expected = parse_expression("t(C) %*% t(A) + t(C) %*% t(B)")
        assert result == expected

    def test_preserves_semantics_numerically(self, rng):
        import numpy as np
        from repro.config import ClusterConfig
        from repro.runtime import Executor
        env = {"A": MatrixMeta(50, 10), "B": MatrixMeta(50, 10),
               "C": MatrixMeta(10, 8)}
        expr = parse_expression("t((A + B) %*% C)")
        normalized = normalize(expr, frozenset(), env)
        executor = Executor(ClusterConfig().as_single_node())
        bindings = {"A": rng.random((50, 10)), "B": rng.random((50, 10)),
                    "C": rng.random((10, 8))}
        from repro.lang.program import single_expression_program
        out1, out2 = (executor.run(single_expression_program(e), bindings)
                      ["out"].matrix.to_numpy() for e in (expr, normalized))
        assert np.allclose(out1, out2)
