"""Evaluation of fused element-wise regions, member by member.

A fused region is a small straight-line program (:class:`Step` list in
post-order) whose leaves are :class:`~repro.matrix.blocked.BlockedMatrix`
operands and whose interior steps are the cell-wise operators of
:class:`BlockedMatrix` — zip combines, combines with a scalar, negation.
:func:`evaluate_fused_ewise` runs each step through the very method the
unfused kernel calls, so a fused result is the unfused one by construction.
What fusion saves is charged on the simulated clock (transmission and
materialization, :func:`~repro.runtime.fusion.exact_fused_price`); on the
host, a step result read by one later step only is given up to it
(``dying``), as the executor gives up its temporaries.
"""

from __future__ import annotations

from dataclasses import dataclass

from .blocked import BlockedMatrix


@dataclass(frozen=True)
class Step:
    """One step of a fused region program (inputs refer to earlier steps).

    ``op`` is one of:

    * ``"leaf"`` — ``leaves[a]``
    * ``"neg"`` — negate step ``a``
    * ``"add"``/``"subtract"``/``"multiply"``/``"divide"`` — step ``a``
      combined with step ``b``, or, when ``scalar`` is set, with that
      scalar (on the left when ``scalar_left``):
      :meth:`BlockedMatrix.with_scalar`
    """

    op: str
    a: int
    b: int = -1
    scalar: float | None = None
    scalar_left: bool = False


def evaluate_fused_ewise(steps: list[Step], leaves: list[BlockedMatrix]
                         ) -> tuple[BlockedMatrix, list[int]]:
    """Evaluate a fused element-wise region one member at a time.

    Returns the root ``BlockedMatrix`` and the observed total ``nnz`` of
    every step, read as the step is made (before a later step may write
    over it) — the intermediate metadata the runtime prices the fused
    operator with. A step result is given up to its reader when it is not
    a leaf, exactly one operand of one later step reads it, and its grid
    ``owns_tiles``; leaves are never written over.
    """
    if not steps or steps[-1].op == "leaf":
        raise ValueError("fused region must end in a non-leaf step")
    reference = leaves[0]
    for leaf in leaves:
        if leaf.shape != reference.shape \
                or leaf.block_size != reference.block_size:
            raise ValueError("fused region leaves must share shape and "
                             "block size")
    readers = [0] * len(steps)
    for step in steps:
        if step.op != "leaf":
            readers[step.a] += 1
            if step.b >= 0:
                readers[step.b] += 1
    grids: list[BlockedMatrix] = []
    nnz: list[int] = []

    def dying(index: int) -> bool:
        return steps[index].op != "leaf" and readers[index] == 1 \
            and grids[index].owns_tiles

    for step in steps:
        if step.op == "leaf":
            grid = leaves[step.a]
        elif step.op == "neg":
            grid = grids[step.a].negate(dying(step.a))
        elif step.scalar is not None:
            grid = grids[step.a].with_scalar(step.op, step.scalar,
                                             step.scalar_left, dying(step.a))
        else:
            grid = getattr(grids[step.a], step.op)(
                grids[step.b], (dying(step.a), dying(step.b)))
        grids.append(grid)
        nnz.append(grid.nnz)
    return grids[-1], nnz
