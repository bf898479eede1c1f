"""Expression normalization: transpose push-down and distributive expansion.

Step ➊ of the block-wise search (§3.2): transposes are pushed to the leaves
(``t(A %*% d)`` becomes ``t(d) %*% t(A)``), because transposes of whole
chains blow up the plan space (the paper counts >2M plans for the DFP
numerator versus Catalan(9)=4862 without transposes). Symmetric leaves
(e.g. the inverse-Hessian approximation H) additionally drop their
transpose.

Preparation for step ➋: the distributive law expands products over sums
(``H %*% (X + Y)`` becomes ``H %*% X + H %*% Y``) and scalar coefficients
are pulled out of chains, so every maximal multiplication run becomes one
clean chain block.
"""

from __future__ import annotations

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
)
from ..lang.typecheck import Environment, static_shape
from ..matrix.meta import MatrixMeta

_MAX_PASSES = 50


def _is_scalar_like(expr: Expr, env: Environment | None) -> bool:
    """Whether ``expr`` is statically known to produce a 1x1 value."""
    if isinstance(expr, Literal):
        return True
    if isinstance(expr, ScalarRef):
        return True
    if isinstance(expr, Call) and expr.func in ("sum", "norm", "trace", "nrow",
                                                "ncol", "sqrt", "abs", "exp", "log"):
        return True
    if isinstance(expr, (Neg,)):
        return _is_scalar_like(expr.child, env)
    if isinstance(expr, (Add, Sub, ElemMul, ElemDiv)):
        # Products/sums of scalars are scalar; mixed forms are matrices.
        return _is_scalar_like(expr.left, env) and _is_scalar_like(expr.right, env)
    if isinstance(expr, MatrixRef) and env is not None:
        meta = env.get(expr.name)
        return meta is not None and meta.is_scalar_like
    if isinstance(expr, MatMul) and env is not None:
        return static_shape(expr, env) == (1, 1)
    return False


def push_down_transposes(expr: Expr, symmetric: frozenset[str] | set[str] = frozenset(),
                         env: Environment | None = None) -> Expr:
    """Rewrite ``expr`` so transposes wrap only leaves (or opaque calls)."""
    symmetric = frozenset(symmetric)

    def rewrite(node: Expr) -> Expr:
        if isinstance(node, Transpose):
            return transpose_of(node.child)
        if isinstance(node, MatMul):
            return MatMul(rewrite(node.left), rewrite(node.right))
        if isinstance(node, Add):
            return Add(rewrite(node.left), rewrite(node.right))
        if isinstance(node, Sub):
            return Sub(rewrite(node.left), rewrite(node.right))
        if isinstance(node, ElemMul):
            return ElemMul(rewrite(node.left), rewrite(node.right))
        if isinstance(node, ElemDiv):
            return ElemDiv(rewrite(node.left), rewrite(node.right))
        if isinstance(node, Neg):
            return Neg(rewrite(node.child))
        if isinstance(node, Compare):
            return Compare(node.op, rewrite(node.left), rewrite(node.right))
        if isinstance(node, Call):
            return Call(node.func, tuple(rewrite(a) for a in node.args))
        return node

    def transpose_of(node: Expr) -> Expr:
        """The pushed-down form of t(node)."""
        if isinstance(node, Transpose):
            return rewrite(node.child)
        if isinstance(node, MatMul):
            return MatMul(transpose_of(node.right), transpose_of(node.left))
        if isinstance(node, Add):
            return Add(transpose_of(node.left), transpose_of(node.right))
        if isinstance(node, Sub):
            return Sub(transpose_of(node.left), transpose_of(node.right))
        if isinstance(node, ElemMul):
            left_scalar = _is_scalar_like(node.left, env)
            right_scalar = _is_scalar_like(node.right, env)
            left = rewrite(node.left) if left_scalar else transpose_of(node.left)
            right = rewrite(node.right) if right_scalar else transpose_of(node.right)
            return ElemMul(left, right)
        if isinstance(node, ElemDiv):
            right_scalar = _is_scalar_like(node.right, env)
            right = rewrite(node.right) if right_scalar else transpose_of(node.right)
            return ElemDiv(transpose_of(node.left), right)
        if isinstance(node, Neg):
            return Neg(transpose_of(node.child))
        if isinstance(node, MatrixRef):
            if node.name in symmetric:
                return node
            # Only the explicitly trusted set collapses transposes; a raw
            # declared flag in the environment may be invalidated by loop
            # updates. 1x1 values are trivially their own transpose.
            if env is not None:
                meta = env.get(node.name)
                if meta is not None and meta.is_scalar_like:
                    return node
            return Transpose(node)
        if _is_scalar_like(node, env):
            return rewrite(node)
        # Opaque (calls, etc.): keep a transpose wrapper at the leaf level.
        return Transpose(rewrite(node))

    return rewrite(expr)


def expand_distributive(expr: Expr, env: Environment | None = None) -> Expr:
    """Expand products over sums and pull scalar coefficients out of chains.

    Applied to a fixpoint: ``(A + B) %*% C -> A %*% C + B %*% C``;
    ``(s * A) %*% B -> s * (A %*% B)`` for scalar s; negations bubble up so
    that chains contain only positive multiplicative factors.
    """

    def one_pass(node: Expr) -> tuple[Expr, bool]:
        if isinstance(node, MatMul):
            left, changed_l = one_pass(node.left)
            right, changed_r = one_pass(node.right)
            changed = changed_l or changed_r
            if isinstance(left, (Add, Sub)):
                kind = type(left)
                return kind(MatMul(left.left, right), MatMul(left.right, right)), True
            if isinstance(right, (Add, Sub)):
                kind = type(right)
                return kind(MatMul(left, right.left), MatMul(left, right.right)), True
            if isinstance(left, Neg):
                return Neg(MatMul(left.child, right)), True
            if isinstance(right, Neg):
                return Neg(MatMul(left, right.child)), True
            # Pull scalar coefficients outside the multiplication chain.
            if isinstance(left, ElemMul) and _is_scalar_like(left.left, env) \
                    and not _is_scalar_like(left.right, env):
                return ElemMul(left.left, MatMul(left.right, right)), True
            if isinstance(right, ElemMul) and _is_scalar_like(right.left, env) \
                    and not _is_scalar_like(right.right, env):
                return ElemMul(right.left, MatMul(left, right.right)), True
            if isinstance(left, ElemDiv) and _is_scalar_like(left.right, env) \
                    and not _is_scalar_like(left.left, env):
                return ElemDiv(MatMul(left.left, right), left.right), True
            if isinstance(right, ElemDiv) and _is_scalar_like(right.right, env) \
                    and not _is_scalar_like(right.left, env):
                return ElemDiv(MatMul(left, right.left), right.right), True
            return MatMul(left, right), changed
        if isinstance(node, (Add, Sub, ElemMul, ElemDiv)):
            left, changed_l = one_pass(node.left)
            right, changed_r = one_pass(node.right)
            return type(node)(left, right), changed_l or changed_r
        if isinstance(node, Neg):
            child, changed = one_pass(node.child)
            if isinstance(child, Neg):
                return child.child, True
            return Neg(child), changed
        if isinstance(node, Transpose):
            child, changed = one_pass(node.child)
            return Transpose(child), changed
        if isinstance(node, Compare):
            left, changed_l = one_pass(node.left)
            right, changed_r = one_pass(node.right)
            return Compare(node.op, left, right), changed_l or changed_r
        if isinstance(node, Call):
            results = [one_pass(a) for a in node.args]
            changed = any(c for _, c in results)
            return Call(node.func, tuple(e for e, _ in results)), changed
        return node, False

    current = expr
    for _ in range(_MAX_PASSES):
        current, changed = one_pass(current)
        if not changed:
            return current
    return current


def normalize(expr: Expr, symmetric: frozenset[str] | set[str] = frozenset(),
              env: Environment | None = None) -> Expr:
    """Full normalization: push transposes down, then expand to a fixpoint."""
    pushed = push_down_transposes(expr, symmetric, env)
    expanded = expand_distributive(pushed, env)
    # Expansion can create new transposable shapes; iterate to a fixpoint.
    for _ in range(_MAX_PASSES):
        again = expand_distributive(push_down_transposes(expanded, symmetric, env), env)
        if again == expanded:
            return expanded
        expanded = again
    return expanded


def symmetric_names(env: Environment) -> frozenset[str]:
    """Names of environment entries flagged symmetric."""
    return frozenset(name for name, meta in env.items()
                     if isinstance(meta, MatrixMeta) and meta.symmetric)


def provably_symmetric(expr: Expr, symmetric: frozenset[str] | set[str],
                       env: Environment | None = None) -> bool:
    """Whether ``expr``'s value is symmetric for *every* input valuation.

    Conservative structural analysis used to decide if a variable's declared
    symmetry survives reassignment: sums/differences of symmetric terms,
    scalar scalings, palindromic multiplication chains (e.g. H AᵀA d dᵀ AᵀA H
    with symmetric H), and explicit ``X + t(X)`` pairs are recognized;
    anything else is assumed asymmetric.
    """
    symmetric = frozenset(symmetric)
    if _is_scalar_like(expr, env):
        return True
    if isinstance(expr, MatrixRef):
        return expr.name in symmetric
    if isinstance(expr, Transpose):
        return provably_symmetric(expr.child, symmetric, env)
    if isinstance(expr, Neg):
        return provably_symmetric(expr.child, symmetric, env)
    if isinstance(expr, (Add, Sub)):
        if provably_symmetric(expr.left, symmetric, env) and \
                provably_symmetric(expr.right, symmetric, env):
            return True
        # X + t(X) is symmetric even when X is not (BFGS's rank-two term).
        if isinstance(expr, Add):
            if _chain_tokens(Transpose(expr.left), symmetric, env) == \
                    _chain_tokens(expr.right, symmetric, env):
                return True
        return False
    if isinstance(expr, (ElemMul, ElemDiv)):
        left_scalar = _is_scalar_like(expr.left, env)
        right_scalar = _is_scalar_like(expr.right, env)
        if left_scalar and not right_scalar:
            return provably_symmetric(expr.right, symmetric, env)
        if right_scalar and not left_scalar:
            return provably_symmetric(expr.left, symmetric, env)
        return provably_symmetric(expr.left, symmetric, env) and \
            provably_symmetric(expr.right, symmetric, env)
    if isinstance(expr, MatMul):
        return _palindromic_chain(expr, symmetric, env)
    return False


def _palindromic_chain(expr: MatMul, symmetric: frozenset[str],
                       env: Environment | None) -> bool:
    """A multiplication chain equal to its own transpose (e.g. v vᵀ, H X H).

    Compares *flattened factor sequences* rather than trees: the transpose
    of a left-associated chain pushes down into a right-associated one, so
    structural tree equality would reject genuinely palindromic chains.
    """
    pushed = push_down_transposes(expr, symmetric, env)
    factors = _flatten_factors(pushed)

    def token(base: Expr, transposed: bool) -> tuple[str, bool]:
        self_transpose = (
            (isinstance(base, MatrixRef) and base.name in symmetric)
            or _is_scalar_like(base, env))
        return (repr(base), False if self_transpose else transposed)

    forward = [token(base, t) for base, t in factors]
    backward = [token(base, not t) for base, t in reversed(factors)]
    return forward == backward


def _flatten_factors(expr: Expr) -> list[tuple[Expr, bool]]:
    """Multiplicative factors of a transpose-pushed chain, with orientation."""
    if isinstance(expr, MatMul):
        return _flatten_factors(expr.left) + _flatten_factors(expr.right)
    if isinstance(expr, Transpose):
        return [(expr.child, True)]
    return [(expr, False)]


def _chain_tokens(expr: Expr, symmetric: frozenset[str],
                  env: Environment | None) -> list[tuple[str, bool]]:
    """Orientation-aware factor tokens of a chain, after transpose push-down.

    Two expressions with equal token lists compute the same value; used for
    the association-insensitive comparisons in the symmetry proofs.
    """
    pushed = push_down_transposes(expr, symmetric, env)
    tokens = []
    for base, transposed in _flatten_factors(pushed):
        self_transpose = (
            (isinstance(base, MatrixRef) and base.name in symmetric)
            or _is_scalar_like(base, env))
        tokens.append((repr(base), False if self_transpose else transposed))
    return tokens


def trusted_symmetric_names(program, env: Environment,
                            typed: Environment | None = None) -> frozenset[str]:
    """Declared-symmetric variables whose symmetry every assignment preserves.

    Iterates to a fixpoint: once a variable is demoted (some assignment's
    RHS is not provably symmetric under the current trusted set), other
    variables whose proofs depended on it are re-checked. This is what makes
    the transpose-canonical hash keys of the block-wise search sound — a
    symmetric flag only collapses Xᵀ to X when no update can break it.

    ``typed`` is ``env`` plus every assigned variable's metadata, from a
    caller that has inferred them already: the proofs read shapes only, and
    a program that type-checks has them right after one pass.
    """
    trusted = set(symmetric_names(env))
    if not trusted:
        return frozenset()
    # Use the fully typed environment so loop-local scalars (line-search
    # denominators etc.) are recognized as scalar-like during the proofs.
    if typed is not None:
        env = typed
    else:
        try:
            from ..lang.typecheck import check_program
            env = dict(check_program(program, env).final_env)
        except Exception:
            env = dict(env)
    assignments = list(program.assignments())
    for _ in range(len(trusted) + 1):
        demoted = False
        for stmt in assignments:
            if stmt.target in trusted:
                if not provably_symmetric(stmt.expr, frozenset(trusted), env):
                    trusted.discard(stmt.target)
                    demoted = True
        if not demoted:
            break
    return frozenset(trusted)
