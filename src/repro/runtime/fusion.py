"""Cost-priced operator fusion: region detection, lowering, and pricing.

This module is the fusion layer's brain. It finds *fusable regions* in the
AST — maximal element-wise subtrees (``+ - * /`` and negation) whose leaves
are plain references or literals — lowers them to the single-pass step
programs of :mod:`repro.matrix.fused`, and decides **by price** whether the
fused operator beats executing the member operators one by one. The same
decision logic backs the unrestricted (cost-gated rather than column-bound)
``t(X) %*% (X %*% v)`` mmchain admission.

Design rules, in force everywhere below:

* **Fusion is a pricing decision, never a forced rewrite.** A region fuses
  only when :func:`~repro.runtime.pricing.price_fused_ewise` is strictly
  cheaper than the summed member prices. Purely local regions never fuse:
  fusion saves materialization and transmission, not arithmetic, so a local
  region's fused price ties its unfused price and the seed path wins.
* **Bit identity.** The fused evaluator replicates the unfused per-tile
  semantics exactly (see :mod:`repro.matrix.fused`), and regions are
  restricted to reference/literal leaves so that *declining* to fuse falls
  back to the untouched plain code with zero re-evaluation cost —
  values, metrics, and traces on the decline path are identical to a run
  with fusion disabled.
* **Scalar folding mirrors the kernels.** Scalar operands fold into
  ``scale`` / ``add_scalar`` / ``neg`` steps with exactly the semantics of
  ``Kernels._scalar_ewise``; the cases the kernels refuse (``s / M``,
  division by a zero scalar, scalar-valued subtrees) make the region bail
  so the seed path raises the identical error.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import ClusterConfig
from ..lang.ast import (
    Add,
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
from ..matrix import ops as flops
from ..matrix.fused import Step
from ..matrix.meta import MatrixMeta
from .hybrid import LOCAL, ExecutionPolicy, value_distributed
from .pricing import (
    OpPrice,
    price_ewise,
    price_fused_ewise,
    price_matmul,
    price_mmchain,
)

#: Each cell-wise node type's kernel (and zip step) name.
ZIP_KINDS = {Add: "add", Sub: "subtract", ElemMul: "multiply",
             ElemDiv: "divide"}
_LEAF_TYPES = (MatrixRef, ScalarRef, Literal)
_SCALAR_META = MatrixMeta(1, 1)


# ----------------------------------------------------------------------
# Region detection (pure AST, read by the lowering: runtime/plan.py)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RegionNode:
    """One node of a fusable region tree, in post-order.

    ``op`` is a zip kind (``add``/``subtract``/``multiply``/``divide``),
    ``"neg"``, or ``"leaf"``; ``a``/``b`` index earlier nodes (for
    ``"leaf"``, ``a`` indexes :attr:`Region.leaves`).
    """

    op: str
    a: int
    b: int = -1


@dataclass
class Region:
    """A fusable element-wise subtree: post-order nodes over ref leaves."""

    nodes: list[RegionNode]
    leaves: list[Expr]

    @property
    def member_count(self) -> int:
        return sum(1 for node in self.nodes if node.op != "leaf")


def find_ewise_region(expr: Expr) -> Region | None:
    """The maximal fusable element-wise region rooted at ``expr``.

    Returns None when the subtree is not entirely element-wise over
    reference/literal leaves, or has fewer than two member operators (a
    single operator has nothing to fuse). Leaves are restricted to
    references and literals so a declined fusion re-evaluates them for
    free on the unfused path.
    """
    nodes: list[RegionNode] = []
    leaves: list[Expr] = []

    def build(node: Expr) -> int | None:
        kind = ZIP_KINDS.get(type(node))
        if kind is not None:
            left = build(node.left)
            if left is None:
                return None
            right = build(node.right)
            if right is None:
                return None
            nodes.append(RegionNode(kind, left, right))
            return len(nodes) - 1
        if isinstance(node, Neg):
            child = build(node.child)
            if child is None:
                return None
            nodes.append(RegionNode("neg", child))
            return len(nodes) - 1
        if isinstance(node, _LEAF_TYPES):
            leaves.append(node)
            nodes.append(RegionNode("leaf", len(leaves) - 1))
            return len(nodes) - 1
        return None

    if build(expr) is None:
        return None
    region = Region(nodes, leaves)
    if region.member_count < 2:
        return None
    return region


def unwrap_transpose(expr: Expr) -> tuple[Expr, bool]:
    """Peel one transpose for fusion into an adjacent multiply."""
    if isinstance(expr, Transpose):
        return expr.child, True
    return expr, False


def mmchain_match(expr: MatMul) -> tuple[Expr, Expr, bool] | None:
    """``(X, v, by_cost)`` when ``expr`` is ``t(X) %*% (X %*% v)``, else
    None. ``by_cost``: ``X`` is a reference and ``v`` a leaf, so a declined
    cost-gated admission re-evaluates nothing."""
    left, right = expr.left, expr.right
    if not (isinstance(left, Transpose) and isinstance(right, MatMul)
            and left.child == right.left):
        return None
    x, v = left.child, right.right
    return x, v, isinstance(x, (MatrixRef, ScalarRef)) \
        and isinstance(v, _LEAF_TYPES)


# ----------------------------------------------------------------------
# Runtime lowering: region + leaf values -> fused steps + member prices
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Member:
    """One unfused operator the region replaces, mapped onto fused steps.

    ``kind`` is the cell-wise kind the unfused kernel would price;
    ``left_step`` indexes the matrix operand's step; ``right_step`` is the
    other matrix operand's step or ``-1`` when that side was a folded
    scalar (priced against a 1x1 meta, exactly like ``_scalar_ewise``).
    ``out_step`` holds the member's result.
    """

    kind: str
    left_step: int
    right_step: int
    out_step: int


@dataclass
class FusedEwisePlan:
    """A lowered, priced region ready for the ``fused_ewise`` kernel."""

    steps: list[Step]
    members: list[Member]
    #: Distinct matrix leaf values, in first-use order (``Step("leaf", i)``
    #: indexes this list).
    leaf_values: list
    #: Unfused member prices from structurally-estimated intermediate metas.
    member_prices: list[OpPrice]
    #: Fused-region price from the same estimated metas.
    fused_price: OpPrice
    #: Local leaf metas a distributed region broadcasts once each.
    broadcast_metas: list[MatrixMeta]
    distributed: bool
    imbalance: float

    @property
    def unfused_seconds(self) -> float:
        return sum(price.seconds for price in self.member_prices)

    @property
    def fuses(self) -> bool:
        """Strictly cheaper fused than unfused — the admission test."""
        return self.fused_price.seconds < self.unfused_seconds


def _lower(region: Region, leaf_values: list
           ) -> tuple[list[Step], list[Member], list] | None:
    """Lower a region to fused steps, folding scalar operands.

    Returns None (bail to the seed path) for every case the unfused
    kernels special-case or refuse: scalar-valued subtrees, ``s / M``,
    division by a zero scalar. Repeated matrix leaves dedupe to one leaf
    step so shared operands are loaded (and later broadcast) once.
    """
    steps: list[Step] = []
    members: list[Member] = []
    matrix_leaves: list = []
    step_by_matrix: dict[int, int] = {}
    # Per region node: ("m", step index) or ("s", scalar value).
    results: list[tuple] = []
    for node in region.nodes:
        if node.op == "leaf":
            value = leaf_values[node.a]
            if value.is_scalar:
                results.append(("s", float(value.scalar_value())))
                continue
            step = step_by_matrix.get(id(value.matrix))
            if step is None:
                matrix_leaves.append(value)
                steps.append(Step("leaf", len(matrix_leaves) - 1))
                step = len(steps) - 1
                step_by_matrix[id(value.matrix)] = step
            results.append(("m", step))
            continue
        if node.op == "neg":
            tag, payload = results[node.a]
            if tag == "s":
                return None  # scalar subtree: plain arithmetic, seed path
            steps.append(Step("neg", payload))
            # The unfused negate kernel prices as multiply-by-scalar.
            members.append(Member("multiply", payload, -1, len(steps) - 1))
            results.append(("m", len(steps) - 1))
            continue
        left_tag, left = results[node.a]
        right_tag, right = results[node.b]
        if left_tag == "s" and right_tag == "s":
            return None  # scalar-scalar: seed path computes it directly
        if left_tag == "m" and right_tag == "m":
            steps.append(Step(node.op, left, right))
            members.append(Member(node.op, left, right, len(steps) - 1))
            results.append(("m", len(steps) - 1))
            continue
        # One folded scalar side — mirror Kernels._scalar_ewise exactly.
        scalar_left = left_tag == "s"
        scalar = left if scalar_left else right
        child = right if scalar_left else left
        if node.op == "add":
            steps.append(Step("add_scalar", child, scalar=scalar))
        elif node.op == "subtract":
            if scalar_left:  # s - M == neg(M) + s
                steps.append(Step("neg", child))
                steps.append(Step("add_scalar", len(steps) - 1, scalar=scalar))
            else:
                steps.append(Step("add_scalar", child, scalar=-scalar))
        elif node.op == "multiply":
            steps.append(Step("scale", child, scalar=scalar))
        else:  # divide
            if scalar_left or scalar == 0.0:
                return None  # the unfused kernel raises; let it
            steps.append(Step("scale", child, scalar=1.0 / scalar))
        members.append(Member(node.op, child, -1, len(steps) - 1))
        results.append(("m", len(steps) - 1))
    if results[-1][0] != "m":  # pragma: no cover - regions end in members
        return None
    return steps, members, matrix_leaves


def _estimate_steps(steps: list[Step], matrix_leaves: list,
                    rows: int, cols: int) -> tuple[list[float], list[float]]:
    """Structural per-step (nnz, imbalance) estimates for the decision.

    Exact leaf stats propagate through the standard support rules
    (union for add/subtract, intersection for multiply, numerator for
    divide, densification for a nonzero shift). These feed only the
    fuse/don't-fuse decision; the charged price uses the observed stats
    the single pass collects.
    """
    cells = float(rows) * float(cols)
    nnz = [0.0] * len(steps)
    imb = [1.0] * len(steps)
    for index, step in enumerate(steps):
        if step.op == "leaf":
            leaf = matrix_leaves[step.a]
            nnz[index] = float(leaf.meta.nnz)
            imb[index] = leaf.imbalance
        elif step.op in ("add", "subtract"):
            nnz[index] = min(cells, nnz[step.a] + nnz[step.b])
            imb[index] = max(imb[step.a], imb[step.b])
        elif step.op == "multiply":
            nnz[index] = min(nnz[step.a], nnz[step.b])
            imb[index] = max(imb[step.a], imb[step.b])
        elif step.op == "divide":
            nnz[index] = nnz[step.a]
            imb[index] = max(imb[step.a], imb[step.b])
        elif step.op == "scale":
            nnz[index] = 0.0 if step.scalar == 0.0 else nnz[step.a]
            imb[index] = imb[step.a]
        elif step.op == "neg":
            nnz[index] = nnz[step.a]
            imb[index] = imb[step.a]
        else:  # add_scalar
            nnz[index] = nnz[step.a] if step.scalar == 0.0 else cells
            imb[index] = imb[step.a]
    return nnz, imb


def _member_flops(members: list[Member], meta_of) -> float:
    """Summed cell-touch FLOPs of the member operators (Eq. 4 terms)."""
    total = 0.0
    for member in members:
        left = meta_of(member.left_step)
        right = _SCALAR_META if member.right_step < 0 \
            else meta_of(member.right_step)
        total += flops.ewise_flops(member.kind, left, right)
    return total


def plan_fused_ewise(region: Region, leaf_values: list, config: ClusterConfig,
                     policy: ExecutionPolicy) -> FusedEwisePlan | None:
    """Lower and price a region; None means "take the seed path".

    Bails (besides the lowering bails) when the matrix leaves disagree on
    shape or blocking — the unfused path raises the canonical error — and
    when no member would run distributed: a local region's fused price can
    only tie the summed member prices, so fusing would churn for nothing.
    """
    lowered = _lower(region, leaf_values)
    if lowered is None:
        return None
    steps, members, matrix_leaves = lowered
    if not matrix_leaves:
        return None
    reference = matrix_leaves[0].matrix
    rows, cols = reference.rows, reference.cols
    for value in matrix_leaves[1:]:
        other = value.matrix
        if other.shape != (rows, cols) or other.block_size != reference.block_size:
            return None
    nnz, imb = _estimate_steps(steps, matrix_leaves, rows, cols)
    cells = float(rows) * float(cols)

    def meta_of(index: int) -> MatrixMeta:
        return MatrixMeta(rows, cols, nnz[index] / cells if cells else 0.0)

    member_prices: list[OpPrice] = []
    for member in members:
        left_meta = meta_of(member.left_step)
        right_meta = _SCALAR_META if member.right_step < 0 \
            else meta_of(member.right_step)
        imbalance = imb[member.left_step] if member.right_step < 0 \
            else max(imb[member.left_step], imb[member.right_step])
        member_prices.append(price_ewise(
            member.kind, left_meta, right_meta, meta_of(member.out_step),
            config, policy, imbalance=imbalance))
    if all(price.impl == LOCAL for price in member_prices):
        return None
    broadcast_metas = [value.meta for value in matrix_leaves
                       if not value_distributed(value.meta, config, policy)]
    imbalance = max((value.imbalance for value in matrix_leaves), default=1.0)
    fused_price = price_fused_ewise(
        _member_flops(members, meta_of), broadcast_metas,
        meta_of(len(steps) - 1), True, config, policy, imbalance=imbalance)
    return FusedEwisePlan(steps=steps, members=members,
                          leaf_values=matrix_leaves,
                          member_prices=member_prices, fused_price=fused_price,
                          broadcast_metas=broadcast_metas, distributed=True,
                          imbalance=imbalance)


def exact_fused_price(plan: FusedEwisePlan, root_meta: MatrixMeta,
                      step_nnz: list[int], config: ClusterConfig,
                      policy: ExecutionPolicy) -> OpPrice:
    """Re-price a fused region from the observed per-step statistics.

    The single pass reports every intermediate step's true nnz, so the
    charged price is built from *observed* metadata exactly like every
    other kernel — the decision used estimates, the clock never does.
    """
    rows, cols = root_meta.rows, root_meta.cols
    cells = float(rows) * float(cols)

    def meta_of(index: int) -> MatrixMeta:
        return MatrixMeta(rows, cols, step_nnz[index] / cells if cells else 0.0)

    return price_fused_ewise(
        _member_flops(plan.members, meta_of), plan.broadcast_metas,
        root_meta, plan.distributed, config, policy, imbalance=plan.imbalance)


# ----------------------------------------------------------------------
# Cost-gated mmchain (the unrestricted generalization of the 1K-col gate)
# ----------------------------------------------------------------------
def mmchain_beats_unfused(x_meta: MatrixMeta, v_meta: MatrixMeta,
                          x_imbalance: float, v_imbalance: float,
                          config: ClusterConfig,
                          policy: ExecutionPolicy) -> bool:
    """Whether the fused ``t(X) %*% (X %*% v)`` pass beats two multiplies.

    This is the cost-model replacement for the structural column bound:
    any shape is admitted, and the fused pass wins exactly when the
    broadcast-v/collect-out round-trip is cheaper than shipping the
    m-sized intermediate through two distributed multiplies. Local X never
    fuses — both sides are pure driver compute and tie.
    """
    if not value_distributed(x_meta, config, policy):
        return False
    inner = MatrixMeta(x_meta.rows, v_meta.cols, 1.0)
    out = MatrixMeta(x_meta.cols, v_meta.cols, 1.0)
    fused = price_mmchain(x_meta, v_meta, out, config, policy,
                          imbalance=x_imbalance)
    first = price_matmul(x_meta, v_meta, inner, config, policy,
                         imbalance=max(x_imbalance, v_imbalance))
    second = price_matmul(x_meta.transposed(), inner, out, config, policy,
                          left_fused_transpose=True, imbalance=x_imbalance)
    return fused.seconds < first.seconds + second.seconds
