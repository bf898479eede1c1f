"""Symmetry-trust tests: declared flags survive only provably-preserving updates.

The transpose-canonical hash keys of the block-wise search collapse Xᵀ to X
for symmetric X; an update that breaks symmetry would make that unsound
(the hypothesis fuzzer found exactly this). These tests pin the structural
symmetry proofs and the fixpoint demotion.
"""

import pytest

from repro.core.normalize import provably_symmetric, trusted_symmetric_names
from repro.lang import parse, parse_expression
from repro.matrix.meta import MatrixMeta

ENV = {
    "H": MatrixMeta(10, 10, 1.0, symmetric=True),
    "S": MatrixMeta(10, 10, 1.0, symmetric=True),
    "A": MatrixMeta(50, 10, 0.5),
    "v": MatrixMeta(10, 1),
    "s": MatrixMeta(1, 1),
    "i": MatrixMeta(1, 1),
}
SYM = frozenset({"H", "S"})


def sym(source: str) -> bool:
    return provably_symmetric(parse_expression(source, scalar_names={"s"}),
                              SYM, ENV)


def trusted_both_ways(program, env) -> frozenset[str]:
    """``trusted_symmetric_names`` typing the program itself, after
    checking that it answers the same from metadata settled in one pass
    over the assignments — the form ``build_chains`` calls."""
    from repro.lang.typecheck import infer_expr_meta
    settled = dict(env)
    for stmt in program.assignments():
        settled[stmt.target] = infer_expr_meta(stmt.expr, settled)
    trusted = trusted_symmetric_names(program, env)
    assert trusted_symmetric_names(program, env, typed=settled) == trusted
    return trusted


class TestStructuralProofs:
    def test_symmetric_leaf(self):
        assert sym("H")
        assert not sym("A")

    def test_sums_of_symmetric(self):
        assert sym("H + S")
        assert sym("H - S")
        assert not sym("H + A %*% H")

    def test_scalar_scaling(self):
        assert sym("2 * H")
        assert sym("H / 3")
        assert sym("s * H")

    def test_outer_product_palindromes(self):
        assert sym("v %*% t(v)")
        assert sym("t(A) %*% A")
        assert not sym("A %*% t(A) %*% A")  # not square-palindromic... shape aside
        assert sym("A' %*% A" .replace("A'", "t(A)"))

    def test_sandwich_palindromes(self):
        # H X H with symmetric H and palindromic X.
        assert sym("H %*% v %*% t(v) %*% H")
        assert sym("H %*% t(A) %*% A %*% H")
        assert not sym("t(A) %*% A %*% H")

    def test_x_plus_xt_rank_two(self):
        """BFGS's rank-two term: X + t(X) is symmetric for any X."""
        assert sym("v %*% t(v) %*% t(A) %*% A %*% H + "
                   "H %*% t(A) %*% A %*% v %*% t(v)")

    def test_division_by_scalar_chain(self):
        assert sym("v %*% t(v) / (t(v) %*% v)")
        assert sym("H %*% t(A) %*% A %*% H / (t(v) %*% t(A) %*% A %*% v)")

    def test_full_dfp_update(self):
        assert sym("H - H %*% t(A) %*% A %*% v %*% t(v) %*% t(A) %*% A %*% H"
                   " / (t(v) %*% t(A) %*% A %*% H %*% t(A) %*% A %*% v)"
                   " + v %*% t(v) / (2 * (t(v) %*% t(A) %*% A %*% v))")

    def test_asymmetric_update_rejected(self):
        assert not sym("H - t(A) %*% A %*% H / (t(v) %*% v + 1)")

    def test_elementwise_of_symmetric(self):
        assert sym("H * S")
        assert not sym("H * (A %*% H)" if False else "H %*% S")  # product of
        # two symmetric matrices is NOT symmetric in general


class TestFixpoint:
    def test_preserving_loop_keeps_trust(self):
        program = parse("""
            i = 0
            while (i < 3) {
              H = H - v %*% t(v)
              i = i + 1
            }""", scalar_names={"i"})
        assert trusted_both_ways(program, ENV) == SYM

    def test_breaking_update_demotes(self):
        program = parse("""
            i = 0
            while (i < 3) {
              H = H - t(A) %*% A %*% H / (t(v) %*% v + 1)
              i = i + 1
            }""", scalar_names={"i"})
        assert "H" not in trusted_both_ways(program, ENV)

    def test_demotion_cascades(self):
        """S's proof depends on H; breaking H must also demote S."""
        program = parse("""
            i = 0
            while (i < 3) {
              S = H
              H = H - t(A) %*% A %*% H / (t(v) %*% v + 1)
              i = i + 1
            }""", scalar_names={"i"})
        trusted = trusted_both_ways(program, ENV)
        assert trusted == frozenset()

    def test_untouched_variable_stays(self):
        program = parse("""
            i = 0
            while (i < 3) {
              v = H %*% v
              i = i + 1
            }""", scalar_names={"i"})
        assert "H" in trusted_both_ways(program, ENV)

    def test_no_declared_symmetry_short_circuits(self):
        program = parse("x = A %*% v")
        env = {"A": MatrixMeta(50, 10), "v": MatrixMeta(10, 1)}
        assert trusted_both_ways(program, env) == frozenset()

    def test_search_drops_canonicalization_for_demoted(self):
        """After demotion, Hᵀ and H hash apart (no unsound collisions)."""
        from repro.core.chains import build_chains
        program = parse("""
            i = 0
            while (i < 3) {
              v = t(H) %*% v
              H = H - t(A) %*% A %*% H / (t(v) %*% v + 1)
              i = i + 1
            }""", scalar_names={"i"})
        chains = build_chains(program, ENV)
        tokens = {t for site in chains.sites for t in site.tokens()}
        assert "H'" in tokens  # the transpose is no longer collapsed


class TestSettledMetadata:
    @pytest.mark.parametrize("algorithm", ["gd", "dfp", "bfgs", "gnmf"])
    def test_every_round_of_a_compile_trusts_the_same_names(self, algorithm,
                                                            monkeypatch):
        """``build_chains`` hands the proofs metadata from its own single
        pass; on the program of every adaptive round (temporaries and
        all) that names what typing it with ``check_program`` names."""
        import repro.core.optimizer as optimizer
        from repro.algorithms import get_algorithm
        from repro.data import load_dataset
        from repro.engines import make_engine
        rounds = []
        build_chains = optimizer.build_chains

        def recording(program, inputs, iterations=None):
            chains = build_chains(program, inputs, iterations)
            rounds.append((program, inputs, chains.symmetric))
            return chains

        monkeypatch.setattr(optimizer, "build_chains", recording)
        algo = get_algorithm(algorithm)
        meta, data = algo.make_inputs(load_dataset("cri1", scale=0.3).matrix)
        make_engine("remac").compile(algo.program(5), meta, data, iterations=5)
        assert rounds and (algorithm == "gnmf" or len(rounds) >= 2)
        for program, inputs, symmetric in rounds:
            assert trusted_both_ways(program, inputs) == symmetric
