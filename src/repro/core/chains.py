"""Coordinates and multiplication-chain blocks (§3.2 step ➋, Fig. 4).

After normalization, every statement's expression is a tree whose maximal
matrix-multiplication runs become :class:`ChainSite` blocks. Splitting
happens exactly at operators of lower priority than multiplication (cell-
wise add/sub/mul/div), as the paper prescribes. Every operand occurrence
receives a *global coordinate* — one axis across the whole loop body, as in
Fig. 4 — so elimination options can be described by coordinate spans and
matched across statements.

Each statement keeps a *template*: its expression with every chain replaced
by a :class:`ChainPlaceholder`. The rewriter later splices re-parenthesized
(and temp-substituted) chains back into the template.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import OptimizerError
from ..lang.ast import (
    Add,
    Call,
    Compare,
    ElemDiv,
    ElemMul,
    Expr,
    Literal,
    MatMul,
    MatrixRef,
    Neg,
    ScalarRef,
    Sub,
    Transpose,
    format_literal,
)
from ..lang.program import Assign, Program, WhileLoop
from ..lang.typecheck import Environment, infer_expr_meta
from .normalize import normalize, trusted_symmetric_names


@dataclass(frozen=True)
class ChainPlaceholder(Expr):
    """Stands in for an extracted chain inside a statement template."""

    site_id: int

    def children(self) -> tuple[Expr, ...]:
        return ()

    def __repr__(self) -> str:
        return f"<chain:{self.site_id}>"


@dataclass(frozen=True)
class Operand:
    """One multiplicative factor of a chain.

    ``base`` is the factor with any transpose stripped; ``transposed`` says
    whether this occurrence uses the transpose. ``symbol`` is the canonical
    token used in hash keys ('A' for a leaf, a structural string for opaque
    sub-expressions). ``symmetric`` marks factors whose transpose equals
    themselves, letting keys drop the flag (§3.2 step ➌).
    """

    base: Expr
    transposed: bool
    symbol: str
    symmetric: bool = False
    loop_constant: bool = False

    def token(self) -> str:
        """Key token of this occurrence: symbol plus orientation."""
        if self.symmetric or not self.transposed:
            return self.symbol
        return self.symbol + "'"

    def flipped(self) -> "Operand":
        """The same factor with the opposite orientation."""
        if self.symmetric:
            return self
        return Operand(self.base, not self.transposed, self.symbol,
                       self.symmetric, self.loop_constant)

    def to_expr(self) -> Expr:
        """AST of this occurrence."""
        if self.transposed and not self.symmetric:
            return Transpose(self.base)
        return self.base


@dataclass
class ChainSite:
    """A maximal multiplication chain occurrence (one block of Fig. 4)."""

    site_id: int
    stmt_index: int
    operands: list[Operand]
    #: Global coordinate of each operand (1-based, program-wide).
    coords: list[int]
    in_loop: bool
    #: 0-based inclusive operand spans that appear as sub-trees of the
    #: original association order (used to classify options as
    #: order-preserving for the conservative strategy).
    original_spans: frozenset[tuple[int, int]] = frozenset()

    def __len__(self) -> int:
        return len(self.operands)

    def tokens(self) -> list[str]:
        return [op.token() for op in self.operands]

    def span_operands(self, start: int, end: int) -> list[Operand]:
        """Operands of the inclusive span [start, end]."""
        return self.operands[start:end + 1]

    def __repr__(self) -> str:
        chain = " ".join(self.tokens())
        return f"ChainSite({self.site_id}@stmt{self.stmt_index}: {chain})"


@dataclass
class NormalizedStatement:
    """One assignment after normalization and chain extraction."""

    index: int
    assign: Assign
    template: Expr
    in_loop: bool
    env_before: Environment


@dataclass
class ProgramChains:
    """The whole program decomposed into templates + chain blocks."""

    program: Program
    statements: list[NormalizedStatement] = field(default_factory=list)
    sites: list[ChainSite] = field(default_factory=list)
    loop: WhileLoop | None = None
    loop_constants: frozenset[str] = frozenset()
    symmetric: frozenset[str] = frozenset()
    iterations: int = 100
    #: (model, input sketches, environments) of the last
    #: :func:`repro.core.build.statement_sketch_envs` walk over these chains.
    sketch_envs: tuple | None = field(default=None, repr=False, compare=False)

    def site(self, site_id: int) -> ChainSite:
        return self.sites[site_id]

    def sites_of_statement(self, stmt_index: int) -> list[ChainSite]:
        return [s for s in self.sites if s.stmt_index == stmt_index]

    def variables_reassigned_between(self, first_stmt: int, last_stmt: int) -> set[str]:
        """Targets assigned by statements in the half-open range [first, last).

        Used for same-value checks between two occurrences: the *first*
        occurrence's own assignment counts (it changes what later statements
        read), while the *last* occurrence's does not (an RHS always reads
        the pre-assignment values of its own statement).
        """
        reassigned: set[str] = set()
        for stmt in self.statements:
            if first_stmt <= stmt.index < last_stmt:
                reassigned.add(stmt.assign.target)
        return reassigned

    @property
    def total_coordinates(self) -> int:
        return sum(len(site) for site in self.sites)


def build_chains(program: Program, inputs: Environment,
                 iterations: int | None = None) -> ProgramChains:
    """Normalize ``program`` and extract every chain block with coordinates.

    ``inputs`` provides metadata for program inputs; symmetry declared there
    is trusted throughout the loop (the paper's workloads preserve it).
    """
    loops = program.loops()
    if len(loops) > 1:
        raise OptimizerError("programs with multiple top-level loops are not supported")
    loop = loops[0] if loops else None
    loop_constants = frozenset(program.loop_constant_variables(loop)) if loop else frozenset()
    # One pass over the loop body settles loop-carried metadata, like the
    # type checker's first; the symmetry proofs and the extraction below
    # both read it.
    settled: Environment = dict(inputs)
    for stmt in program.assignments():
        settled[stmt.target] = infer_expr_meta(stmt.expr, settled)
    # Declared symmetry is only trusted when every assignment provably
    # preserves it — otherwise Xᵀ≡X canonicalization would be unsound.
    symmetric = trusted_symmetric_names(program, inputs, typed=settled)

    result = ProgramChains(
        program=program,
        loop=loop,
        loop_constants=loop_constants,
        symmetric=symmetric,
        iterations=iterations if iterations is not None
        else (loop.max_iterations if loop else 1),
    )

    _ChainBuilder(result, dict(inputs), settled).extract(program)
    return result


class _ChainBuilder:
    """Stateful walk over a program extracting templates and chain sites."""

    def __init__(self, chains: ProgramChains, env: Environment,
                 settled: Environment):
        self.chains = chains
        self.env = env
        #: Metadata after one pass over every assignment: what loop-carried
        #: variables read inside the loop. Prologue statements are
        #: re-inferred in order during extract().
        self._settled = settled
        self._coord = 0
        self._stmt_index = 0

    def extract(self, program: Program) -> None:
        for stmt in program.statements:
            if isinstance(stmt, Assign):
                self._extract_statement(stmt, in_loop=False)
            elif isinstance(stmt, WhileLoop):
                for loop_stmt in stmt.body:
                    if isinstance(loop_stmt, Assign):
                        self._extract_statement(loop_stmt, in_loop=True)
                    else:
                        raise OptimizerError("nested loops are not supported")

    def _extract_statement(self, assign: Assign, in_loop: bool) -> None:
        # Loop-carried variables use their settled (steady-state) metadata.
        if in_loop:
            for name, meta in self._settled.items():
                self.env.setdefault(name, meta)
        env_before = dict(self.env)
        normalized = normalize(assign.expr, self.chains.symmetric, env_before)
        template = self._extract_expr(normalized, in_loop)
        self.chains.statements.append(NormalizedStatement(
            index=self._stmt_index, assign=assign, template=template,
            in_loop=in_loop, env_before=env_before))
        self.env[assign.target] = infer_expr_meta(assign.expr, env_before)
        self._stmt_index += 1

    # ------------------------------------------------------------------
    # Chain extraction
    # ------------------------------------------------------------------
    def _extract_expr(self, expr: Expr, in_loop: bool) -> Expr:
        if isinstance(expr, MatMul):
            return self._extract_chain(expr, in_loop)
        if isinstance(expr, (MatrixRef, ScalarRef, Literal, ChainPlaceholder)):
            return expr
        if isinstance(expr, Transpose):
            return Transpose(self._extract_expr(expr.child, in_loop))
        if isinstance(expr, Neg):
            return Neg(self._extract_expr(expr.child, in_loop))
        if isinstance(expr, (Add, Sub, ElemMul, ElemDiv)):
            return type(expr)(self._extract_expr(expr.left, in_loop),
                              self._extract_expr(expr.right, in_loop))
        if isinstance(expr, Compare):
            return Compare(expr.op, self._extract_expr(expr.left, in_loop),
                           self._extract_expr(expr.right, in_loop))
        if isinstance(expr, Call):
            return Call(expr.func,
                        tuple(self._extract_expr(a, in_loop) for a in expr.args))
        raise OptimizerError(f"cannot extract chains from {type(expr).__name__}")

    def _extract_chain(self, root: MatMul, in_loop: bool) -> ChainPlaceholder:
        factors: list[Expr] = []
        spans: set[tuple[int, int]] = set()

        def flatten(node: Expr) -> tuple[int, int]:
            if isinstance(node, MatMul):
                left_span = flatten(node.left)
                right_span = flatten(node.right)
                span = (left_span[0], right_span[1])
                spans.add(span)
                return span
            index = len(factors)
            factors.append(node)
            return (index, index)

        flatten(root)
        operands = [self._make_operand(factor, in_loop) for factor in factors]
        site = ChainSite(
            site_id=len(self.chains.sites),
            stmt_index=self._stmt_index,
            operands=operands,
            coords=[self._next_coord() for _ in operands],
            in_loop=in_loop,
            original_spans=frozenset(spans),
        )
        self.chains.sites.append(site)
        return ChainPlaceholder(site.site_id)

    def _make_operand(self, factor: Expr, in_loop: bool) -> Operand:
        transposed = False
        base = factor
        if isinstance(factor, Transpose):
            transposed = True
            base = factor.child
        # Opaque factors (parenthesized sums, calls) stay as-is: they act as
        # single leaves of the chain. Their symbol is structural, so two
        # occurrences of the same opaque sub-expression still hash-collide.
        symbol = self._symbol_of(base)
        symmetric = self._is_symmetric(base)
        loop_constant = in_loop and self._is_loop_constant(base)
        return Operand(base, transposed, symbol, symmetric, loop_constant)

    def _symbol_of(self, base: Expr) -> str:
        if isinstance(base, (MatrixRef, ScalarRef)):
            return base.name
        if isinstance(base, Literal):
            return f"#{format_literal(base.value)}"
        return f"({base!r})"

    def _is_symmetric(self, base: Expr) -> bool:
        if isinstance(base, MatrixRef):
            if base.name in self.chains.symmetric:
                return True
            # Only *trusted* symmetry collapses transposes; a raw declared
            # flag on a variable some assignment de-symmetrizes must not.
            meta = self.env.get(base.name)
            return meta is not None and meta.is_scalar_like
        return False

    def _is_loop_constant(self, base: Expr) -> bool:
        names = base.variables()
        if not names:
            return True  # literals
        return names <= self.chains.loop_constants

    def _next_coord(self) -> int:
        self._coord += 1
        return self._coord
