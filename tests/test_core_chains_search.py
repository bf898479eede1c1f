"""Chain extraction (coordinates/blocks) and block-wise search tests.

The DFP fixture mirrors the paper's running example, so the expected
options are the ones §2-§3 discuss by name: the LSE of AᵀA, the CSE of Ad
(= (dᵀAᵀ)ᵀ), ddᵀ, AH (= HAᵀ with H symmetric), and their combinations.
"""

import numpy as np
import pytest

from repro.core import ReMacOptimizer
from repro.core.chains import ChainPlaceholder, build_chains
from repro.core.options import options_contradict
from repro.core.search import blockwise_search, explicit_cse_options
from repro.lang import parse
from repro.matrix.meta import MatrixMeta
from repro.runtime import Executor

DFP_BODY = """
input A, b, x
g = t(A) %*% A %*% x - t(A) %*% b
i = 0
while (i < 10) {
  d = H %*% g
  H = H - H %*% t(A) %*% A %*% d %*% t(d) %*% t(A) %*% A %*% H / (t(d) %*% t(A) %*% A %*% H %*% t(A) %*% A %*% d) + d %*% t(d) / (2 * (t(d) %*% t(A) %*% A %*% d))
  g = g - t(A) %*% A %*% d
  i = i + 1
}
"""


@pytest.fixture
def dfp_chains(dfp_like_inputs):
    program = parse(DFP_BODY, scalar_names={"i"})
    return build_chains(program, dfp_like_inputs, iterations=10)


@pytest.fixture
def dfp_options(dfp_chains):
    return blockwise_search(dfp_chains).options


def find(options, kind, key):
    return [o for o in options if o.kind == kind and o.key == key]


class TestChainExtraction:
    def test_sites_match_paper_blocks(self, dfp_chains):
        rendered = [" ".join(site.tokens()) for site in dfp_chains.sites]
        assert "H A' A d d' A' A H" in rendered       # Eq. 2 numerator
        assert "d' A' A H A' A d" in rendered         # Eq. 2 denominator
        assert "d d'" in rendered
        assert "d' A' A d" in rendered
        assert "H g" in rendered

    def test_coordinates_are_global_and_sequential(self, dfp_chains):
        coords = [c for site in dfp_chains.sites for c in site.coords]
        assert coords == list(range(1, len(coords) + 1))

    def test_symmetric_h_drops_transpose_token(self, dfp_chains):
        # t(H) never appears: H is declared symmetric.
        tokens = {t for site in dfp_chains.sites for t in site.tokens()}
        assert "H'" not in tokens

    def test_loop_constant_labeling(self, dfp_chains):
        assert dfp_chains.loop_constants == {"A", "i"} or \
            "A" in dfp_chains.loop_constants
        for site in dfp_chains.sites:
            for op in site.operands:
                if op.symbol == "A" and site.in_loop:
                    assert op.loop_constant
                if op.symbol in ("d", "H") and site.in_loop:
                    assert not op.loop_constant

    def test_templates_contain_placeholders(self, dfp_chains):
        stmt = next(s for s in dfp_chains.statements if s.assign.target == "H")
        placeholders = [n for n in stmt.template.walk()
                        if isinstance(n, ChainPlaceholder)]
        assert len(placeholders) >= 4  # numerator, denominator, ddT, scalar

    def test_original_spans_prefixes_for_left_assoc(self, dfp_chains):
        site = next(s for s in dfp_chains.sites
                    if " ".join(s.tokens()) == "d' A' A d")
        # Parsed left-associatively: spans are prefixes (0,1), (0,2), (0,3).
        assert (0, 1) in site.original_spans
        assert (0, 3) in site.original_spans

    def test_prologue_vs_loop_statements(self, dfp_chains):
        in_loop = {s.assign.target for s in dfp_chains.statements if s.in_loop}
        prologue = {s.assign.target for s in dfp_chains.statements if not s.in_loop}
        assert "g" in in_loop and "d" in in_loop and "H" in in_loop
        assert "g" in prologue  # initial gradient


class TestBlockwiseSearch:
    def test_finds_lse_of_ata(self, dfp_options):
        lse = find(dfp_options, "lse", "A' A")
        assert len(lse) == 1
        assert lse[0].palindromic  # AᵀA is symmetric
        assert len(lse[0].occurrences) >= 5

    def test_finds_implicit_cse_of_ad(self, dfp_options):
        cse = find(dfp_options, "cse", "A d")
        assert cse, "implicit CSE of Ad = (dᵀAᵀ)ᵀ must be found"
        # Both orientations occur: d'A' windows show up reversed.
        orientations = {occ.reversed_orientation
                        for occ in cse[0].occurrences}
        assert orientations == {True, False}

    def test_finds_cse_of_ddt(self, dfp_options):
        cse = find(dfp_options, "cse", "d d'")
        assert cse
        assert cse[0].palindromic

    def test_finds_cse_of_ah_via_symmetry(self, dfp_options):
        # AH and HAᵀ collide because H is symmetric (§3.2 step 3).
        assert find(dfp_options, "cse", "A H")

    def test_ata_and_ad_contradict(self, dfp_options):
        lse_ata = find(dfp_options, "lse", "A' A")[0]
        cse_ad = find(dfp_options, "cse", "A d")[0]
        assert options_contradict(lse_ata, cse_ad)

    def test_ata_and_ddt_compatible(self, dfp_options):
        lse_ata = find(dfp_options, "lse", "A' A")[0]
        cse_ddt = find(dfp_options, "cse", "d d'")[0]
        assert not options_contradict(lse_ata, cse_ddt)

    def test_lse_of_atb_in_prologue_is_not_generated(self, dfp_options):
        # A'b occurs only in the prologue: nothing to hoist out of the loop.
        assert not find(dfp_options, "lse", "A' b")

    def test_occurrences_disjoint_within_option(self, dfp_options):
        for option in dfp_options:
            for i, a in enumerate(option.occurrences):
                for b in option.occurrences[i + 1:]:
                    assert not a.overlaps_properly(b)
                    if a.site_id == b.site_id:
                        assert a.end < b.start or b.end < a.start

    def test_search_statistics(self, dfp_chains):
        result = blockwise_search(dfp_chains)
        assert result.windows_visited > 0
        assert result.hash_entries > 0
        assert result.wall_seconds < 1.0  # the point: milliseconds, not hours

    def test_gd_finds_both_lse(self, tall_meta):
        program = parse("""
            input A, b, x, alpha
            i = 0
            while (i < 10) {
              g = t(A) %*% (A %*% x - b)
              x = x - alpha * g
              i = i + 1
            }""", scalar_names={"i", "alpha"})
        chains = build_chains(program, {
            "A": tall_meta, "b": MatrixMeta(10_000, 1),
            "x": MatrixMeta(100, 1), "alpha": MatrixMeta(1, 1),
            "i": MatrixMeta(1, 1)})
        options = blockwise_search(chains).options
        assert find(options, "lse", "A' A"), "matrix-matrix LSE (aggressive pick)"
        assert find(options, "lse", "A' b"), "matrix-vector LSE (conservative pick)"


class TestSameValueGrouping:
    def test_reassignment_splits_cse_groups(self, dfp_like_inputs):
        # v is reassigned between the two uses of B v, so no CSE.
        program = parse("""
            u = B %*% v
            v = B %*% u
            w = B %*% v
        """)
        chains = build_chains(program, {
            "B": MatrixMeta(50, 50, 0.5), "v": MatrixMeta(50, 1)})
        options = blockwise_search(chains, min_width=1).options
        assert not find(options, "cse", "B v")

    def test_repeated_chain_same_statement_is_cse(self):
        program = parse("w = B %*% v + B %*% v")
        chains = build_chains(program, {
            "B": MatrixMeta(50, 50, 0.5), "v": MatrixMeta(50, 1)})
        options = blockwise_search(chains).options
        assert find(options, "cse", "B v")

    def test_literals_that_print_alike_are_two_values(self, cluster, rng):
        """``%g`` keeps six digits, and option keys are text: 1234567 and
        1234568 once shared one ``CSE<((A * 1.23457e+06)) B x>`` and ``z``
        was ``y``."""
        program = parse("""
            y = (A * 1234567) %*% B %*% x
            z = (A * 1234568) %*% B %*% x
        """)
        n = 40
        data = {"A": rng.random((n, n)), "B": rng.random((n, n)),
                "x": rng.random((n, 1))}
        inputs = {"A": MatrixMeta(n, n), "B": MatrixMeta(n, n),
                  "x": MatrixMeta(n, 1)}
        options = blockwise_search(build_chains(program, inputs)).options
        assert {o.key for o in options} == {"B x"}
        compiled = ReMacOptimizer(cluster).compile(program, inputs, data)
        env = Executor(cluster).run(compiled, data)
        for name, scale in (("y", 1234567), ("z", 1234568)):
            np.testing.assert_allclose(
                env[name].matrix.to_numpy(),
                (data["A"] * scale) @ data["B"] @ data["x"], rtol=1e-12)


class TestExplicitCse:
    def test_explicit_requires_identical_subtrees(self, dfp_chains):
        explicit = explicit_cse_options(dfp_chains)
        keys = {o.key for o in explicit}
        # d' A' is an identical textual prefix of the denominator and the
        # 2d'A'Ad blocks (both left-associative).
        assert "A d" in keys
        for option in explicit:
            assert option.preserves_order

    def test_explicit_subset_of_blockwise(self, dfp_chains, dfp_options):
        explicit = explicit_cse_options(dfp_chains)
        blockwise_keys = {(o.kind, o.key) for o in dfp_options}
        for option in explicit:
            assert ("cse", option.key) in blockwise_keys
