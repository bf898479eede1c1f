"""Operator fusion: region detection, scalar folding, and lowering.

This module finds *fusable regions* in the AST — maximal element-wise
subtrees (``+ - * /`` and negation) whose leaves are plain references or
literals — folds their scalar operands, and lowers a folded region to the
step program of :mod:`repro.matrix.fused`. It decides nothing:
whether a region or a ``t(X) %*% (X %*% v)`` mmchain fuses is the cost
evaluation's decision (:class:`~repro.core.cost.evaluate.
ProgramCostEvaluator`), made once per FUSED / MMCHAIN record, and the
executor runs each record the way it was decided.

Design rules, in force everywhere below:

* **Scalar-ness is static.** :meth:`Region.fold` folds every 1x1 leaf into
  the member that reads it, from the leaves' metas when the region is
  lowered (:func:`~repro.runtime.plan.lower`); the folded region is what
  the cost evaluator prices and what the run lowers to steps. The cases
  the kernels special-case or refuse (scalar-valued subtrees, ``s / M``)
  leave the expression without a FUSED record.
* **Bit identity.** The fused evaluator runs each member through the
  ``BlockedMatrix`` method its unfused kernel calls (see
  :mod:`repro.matrix.fused`), so a fused result, and any error it raises,
  is the unfused one. Regions are restricted to reference/literal leaves
  so that running a declined record plain re-evaluates nothing — values,
  metrics, and traces on the plain path are identical to a run with
  fusion disabled.
* **Scalar values fold like the kernels.** A member with a folded scalar
  operand becomes one step that :meth:`~repro.matrix.blocked.BlockedMatrix.
  with_scalar` runs, the method ``Kernels._scalar_ewise`` calls; the
  run-time cases the kernels refuse before that call (division by a zero
  scalar, mismatched shapes or blocking) make :func:`plan_fused_ewise`
  bail so the plain code raises the identical error.
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
from .hybrid import ExecutionPolicy, value_distributed
from .pricing import OpPrice, price_fused_ewise, price_matmul, price_mmchain

#: Each cell-wise node type's kernel (and zip step) name.
ZIP_KINDS = {Add: "add", Sub: "subtract", ElemMul: "multiply",
             ElemDiv: "divide"}
_LEAF_TYPES = (MatrixRef, ScalarRef, Literal)
_SCALAR_META = MatrixMeta(1, 1)


# ----------------------------------------------------------------------
# Region detection and folding (read by the lowering: runtime/plan.py)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RegionNode:
    """One node of a fusable region tree, in post-order.

    ``op`` is a zip kind (``add``/``subtract``/``multiply``/``divide``),
    ``"neg"``, or ``"leaf"``; ``a``/``b`` index earlier nodes (for
    ``"leaf"``, ``a`` indexes :attr:`Region.leaves`). In a folded region
    a member may read a scalar leaf instead of ``b``: ``scalar`` indexes
    it in :attr:`Region.leaves` (-1: none), ``scalar_left`` says it is the
    left operand, and ``a`` is the matrix operand either way.
    """

    op: str
    a: int
    b: int = -1
    scalar: int = -1
    scalar_left: bool = False


@dataclass
class Region:
    """A fusable element-wise subtree: post-order nodes over ref leaves."""

    nodes: list[RegionNode]
    leaves: list[Expr]

    @property
    def member_count(self) -> int:
        return sum(1 for node in self.nodes if node.op != "leaf")

    def fold(self, scalar_leaves: list[bool]) -> Region | None:
        """This region with its scalar leaves (``scalar_leaves[i]``: leaf
        ``i`` is 1x1) folded into the members that read them.

        None when a member has no matrix operand (a scalar-valued subtree:
        plain arithmetic) or is ``s / M`` (the kernel refuses it).
        """
        nodes: list[RegionNode] = []
        # Per region node: its folded node's index, or -1 - leaf index for
        # a scalar leaf.
        slots: list[int] = []
        for node in self.nodes:
            if node.op == "leaf":
                if scalar_leaves[node.a]:
                    slots.append(-1 - node.a)
                    continue
                nodes.append(node)
            elif node.op == "neg":
                if slots[node.a] < 0:
                    return None
                nodes.append(RegionNode("neg", slots[node.a]))
            else:
                left, right = slots[node.a], slots[node.b]
                if left < 0 and (right < 0 or node.op == "divide"):
                    return None
                if left < 0:
                    nodes.append(RegionNode(node.op, right, scalar=-1 - left,
                                            scalar_left=True))
                elif right < 0:
                    nodes.append(RegionNode(node.op, left, scalar=-1 - right))
                else:
                    nodes.append(RegionNode(node.op, left, right))
            slots.append(len(nodes) - 1)
        return Region(nodes, self.leaves)


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
    None. ``by_cost``: ``X`` is a reference and ``v`` a leaf, the shapes
    ``policy.fuse`` may admit by cost."""
    left, right = expr.left, expr.right
    if not (isinstance(left, Transpose) and isinstance(right, MatMul)
            and left.child == right.left):
        return None
    x, v = left.child, right.right
    return x, v, isinstance(x, (MatrixRef, ScalarRef)) \
        and isinstance(v, _LEAF_TYPES)


# ----------------------------------------------------------------------
# Runtime lowering: folded region + leaf values -> fused steps
# ----------------------------------------------------------------------
@dataclass
class FusedEwisePlan:
    """A lowered region ready for the ``fused_ewise`` kernel."""

    steps: list[Step]
    region: Region
    #: Per folded region node: the step holding its result.
    step_of: list[int]
    #: Distinct matrix leaf values, in first-use order (``Step("leaf", i)``
    #: indexes this list).
    leaf_values: list
    imbalance: float


def plan_fused_ewise(region: Region, leaf_values: list
                     ) -> FusedEwisePlan | None:
    """Lower a folded region over its leaves' values to fused steps.

    None (run the plain code, which raises the canonical error) when a
    divisor is a zero scalar or the matrix leaves disagree on shape or
    blocking. Repeated matrix leaves dedupe to one leaf step so shared
    operands are loaded (and later broadcast) once.
    """
    steps: list[Step] = []
    matrix_leaves: list = []
    step_by_matrix: dict[int, int] = {}
    step_of: list[int] = []
    for node in region.nodes:
        if node.op == "leaf":
            value = leaf_values[node.a]
            step = step_by_matrix.get(id(value.matrix))
            if step is None:
                matrix_leaves.append(value)
                steps.append(Step("leaf", len(matrix_leaves) - 1))
                step = step_by_matrix[id(value.matrix)] = len(steps) - 1
            step_of.append(step)
            continue
        child = step_of[node.a]
        if node.op == "neg":
            steps.append(Step("neg", child))
        elif node.scalar < 0:
            steps.append(Step(node.op, child, step_of[node.b]))
        else:
            # One folded scalar side (the fold refuses s / M).
            scalar = float(leaf_values[node.scalar].scalar_value())
            if node.op == "divide" and scalar == 0.0:
                return None
            steps.append(Step(node.op, child, scalar=scalar,
                              scalar_left=node.scalar_left))
        step_of.append(len(steps) - 1)
    reference = matrix_leaves[0].matrix
    for value in matrix_leaves[1:]:
        other = value.matrix
        if other.shape != reference.shape \
                or other.block_size != reference.block_size:
            return None
    return FusedEwisePlan(steps=steps, region=region, step_of=step_of,
                          leaf_values=matrix_leaves,
                          imbalance=max(value.imbalance
                                        for value in matrix_leaves))


def region_flops(region: Region, meta_of) -> float:
    """Summed cell-touch FLOPs of a folded region's members (Eq. 4 terms),
    ``meta_of(i)`` the meta of node ``i``'s result: what the fused pass
    touches. A folded scalar prices as a 1x1 operand, exactly like
    ``_scalar_ewise``, and a negation as the scale the negate kernel
    prices."""
    total = 0.0
    for node in region.nodes:
        if node.op != "leaf":
            right = _SCALAR_META if node.b < 0 else meta_of(node.b)
            total += flops.ewise_flops(
                "multiply" if node.op == "neg" else node.op,
                meta_of(node.a), right)
    return total


def exact_fused_price(plan: FusedEwisePlan, root_meta: MatrixMeta,
                      step_nnz: list[int], config: ClusterConfig,
                      policy: ExecutionPolicy) -> OpPrice:
    """Price a fused region from the observed per-step statistics.

    The evaluator reports every intermediate step's true nnz, so the
    charged price is built from *observed* metadata exactly like every
    other kernel — the decision used estimates, the clock never does.
    Each distinct local leaf broadcasts once.
    """
    rows, cols = root_meta.rows, root_meta.cols
    cells = float(rows) * float(cols)

    def meta_of(node: int) -> MatrixMeta:
        nnz = step_nnz[plan.step_of[node]]
        return MatrixMeta(rows, cols, nnz / cells if cells else 0.0)

    broadcast_metas = [value.meta for value in plan.leaf_values
                       if not value_distributed(value.meta, config, policy)]
    return price_fused_ewise(
        region_flops(plan.region, meta_of), broadcast_metas,
        root_meta, True, config, policy, imbalance=plan.imbalance)


# ----------------------------------------------------------------------
# Cost-gated mmchain (the unrestricted generalization of the 1K-col gate)
# ----------------------------------------------------------------------
def mmchain_beats_unfused(x_meta: MatrixMeta, v_meta: MatrixMeta,
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
    fused = price_mmchain(x_meta, v_meta, out, config, policy)
    first = price_matmul(x_meta, v_meta, inner, config, policy)
    second = price_matmul(x_meta.transposed(), inner, out, config, policy,
                          left_fused_transpose=True)
    return fused.seconds < first.seconds + second.seconds
