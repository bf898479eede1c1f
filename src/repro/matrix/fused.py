"""Single-pass evaluation of fused element-wise regions over one tile grid.

A fused region is a small straight-line program (:class:`Step` list in
post-order) whose leaves are :class:`~repro.matrix.blocked.BlockedMatrix`
operands and whose interior steps are the cell-wise operators of
:class:`BlockedMatrix` — zip combines, scalar shifts/scales, negation.
:func:`evaluate_fused_ewise` runs the whole program once per grid tile, so
no intermediate ``BlockedMatrix`` is ever materialized: each tile's chain
of per-block operations happens in one visit, and only the root grid is
assembled.

The standing invariant of this repo is that fused and unfused execution are
bit-identical. Every per-tile rule below therefore replicates the exact
semantics of the corresponding ``BlockedMatrix`` method — the implicit-zero
substitutions, the ``multiply`` tile skip, the ``divide`` implicit-zero
error, the ``is_zero``/``normalized`` treatment at zip steps (and its
absence at scale/negate/add_scalar steps) — and the root grid's insertion
order is reconstructed per step with the same ``set``-union and row-major
coordinate orders the unfused operators use, because downstream float folds
depend on that order.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ExecutionError
from .block import Block, zeros
from .blocked import BlockedMatrix

ZIP_OPS = ("add", "subtract", "multiply", "divide")


@dataclass(frozen=True)
class Step:
    """One step of a fused region program (inputs refer to earlier steps).

    ``op`` is one of:

    * ``"leaf"`` — load tile from ``leaves[a]``
    * ``"add"``/``"subtract"``/``"multiply"``/``"divide"`` — zip steps ``a``, ``b``
    * ``"scale"`` — multiply step ``a`` by ``scalar``
    * ``"neg"`` — negate step ``a``
    * ``"add_scalar"`` — shift step ``a`` by ``scalar`` (densifying if != 0)
    """

    op: str
    a: int
    b: int = -1
    scalar: float = 0.0


def _zero_block(rows: int, cols: int, block_size: int,
                key: tuple[int, int]) -> Block:
    h = min(block_size, rows - key[0] * block_size)
    w = min(block_size, cols - key[1] * block_size)
    return zeros(h, w)


def _tile_chain(steps: list[Step], leaves: list[BlockedMatrix],
                rows: int, cols: int, block_size: int,
                key: tuple[int, int]) -> list[Block | None]:
    """Evaluate every step's tile at ``key`` in one visit."""
    vals: list[Block | None] = []
    for step in steps:
        if step.op == "leaf":
            vals.append(leaves[step.a].blocks.get(key))
        elif step.op in ZIP_OPS:
            left = vals[step.a]
            right = vals[step.b]
            if left is None and right is None:
                vals.append(None)
                continue
            if left is None:
                left = _zero_block(rows, cols, block_size, key)
            if right is None:
                if step.op == "multiply":
                    vals.append(None)  # x * 0 == 0
                    continue
                if step.op == "divide":
                    raise ExecutionError(
                        f"division by an implicit zero block at grid {key}; "
                        "materializing it would produce inf/nan cells")
                right = _zero_block(rows, cols, block_size, key)
            block = getattr(left, step.op)(right)
            vals.append(None if block.is_zero() else block.normalized())
        elif step.op == "scale":
            tile = vals[step.a]
            if tile is None or step.scalar == 0.0:
                vals.append(None)
            else:
                vals.append(tile.scale(step.scalar))
        elif step.op == "neg":
            tile = vals[step.a]
            vals.append(None if tile is None else tile.negate())
        elif step.op == "add_scalar":
            tile = vals[step.a]
            if step.scalar == 0.0:
                vals.append(tile)  # shares the block, like add_scalar(0.0)
            else:
                base = tile if tile is not None \
                    else _zero_block(rows, cols, block_size, key)
                vals.append(base.add_scalar(step.scalar))
        else:  # pragma: no cover - plans are built by runtime.fusion
            raise ValueError(f"unknown fused step op {step.op!r}")
    return vals


def _candidate_keys(steps: list[Step], leaves: list[BlockedMatrix],
                    row_blocks: int, col_blocks: int) -> list[tuple[int, int]]:
    """Grid keys that can hold a nonzero tile anywhere in the region."""
    if any(step.op == "add_scalar" and step.scalar != 0.0 for step in steps):
        return [(bi, bj) for bi in range(row_blocks)
                for bj in range(col_blocks)]
    keys: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for leaf in leaves:
        for key in leaf.blocks:
            if key not in seen:
                seen.add(key)
                keys.append(key)
    return keys


def _step_key_order(steps: list[Step], leaves: list[BlockedMatrix],
                    present: list[dict[tuple[int, int], bool]],
                    row_blocks: int,
                    col_blocks: int) -> list[list[tuple[int, int]]]:
    """Per-step grid insertion order, replaying the unfused constructors.

    Zip results iterate ``list(set(left) | set(right))`` and drop absent
    tiles; ``scale``/``neg`` keep the child's order; a densifying
    ``add_scalar`` inserts every coordinate row-major. Feeding each step
    its children's replayed lists reproduces, step by step, the exact
    insertion order the chain of unfused operators would have produced.
    """
    orders: list[list[tuple[int, int]]] = []
    all_coords = None
    for index, step in enumerate(steps):
        if step.op == "leaf":
            orders.append(list(leaves[step.a].blocks))
        elif step.op in ZIP_OPS:
            union = list(set(orders[step.a]) | set(orders[step.b]))
            orders.append([key for key in union if present[index].get(key)])
        elif step.op == "scale":
            orders.append([] if step.scalar == 0.0 else list(orders[step.a]))
        elif step.op == "neg":
            orders.append(list(orders[step.a]))
        else:  # add_scalar
            if step.scalar == 0.0:
                orders.append(list(orders[step.a]))
            else:
                if all_coords is None:
                    all_coords = [(bi, bj) for bi in range(row_blocks)
                                  for bj in range(col_blocks)]
                orders.append(list(all_coords))
    return orders


def _root_symmetric(steps: list[Step], leaves: list[BlockedMatrix]) -> bool:
    flags: list[bool] = []
    for step in steps:
        if step.op == "leaf":
            flags.append(leaves[step.a].symmetric)
        elif step.op in ZIP_OPS:
            flags.append(False)
        else:
            flags.append(flags[step.a])
    return flags[-1]


def evaluate_fused_ewise(steps: list[Step], leaves: list[BlockedMatrix]
                         ) -> tuple[BlockedMatrix, list[int]]:
    """Evaluate a fused element-wise region in one pass per tile.

    Returns the root ``BlockedMatrix`` (bit-identical, including grid
    insertion order, to running the member operators one by one) and the
    observed total ``nnz`` of every step — the exact intermediate metadata
    the runtime prices the fused operator with, available here for free
    because the single pass visits every intermediate tile anyway.
    """
    if not steps or steps[-1].op == "leaf":
        raise ValueError("fused region must end in a non-leaf step")
    reference = leaves[0]
    rows, cols = reference.rows, reference.cols
    block_size = reference.block_size
    for leaf in leaves:
        if leaf.shape != (rows, cols) or leaf.block_size != block_size:
            raise ValueError("fused region leaves must share shape and "
                             "block size")
    row_blocks = reference.row_blocks
    col_blocks = reference.col_blocks
    present: list[dict[tuple[int, int], bool]] = [{} for _ in steps]
    nnz: list[int] = [0] * len(steps)
    root_tiles: dict[tuple[int, int], Block] = {}
    root_index = len(steps) - 1
    for key in _candidate_keys(steps, leaves, row_blocks, col_blocks):
        vals = _tile_chain(steps, leaves, rows, cols, block_size, key)
        for index, tile in enumerate(vals):
            if tile is not None:
                present[index][key] = True
                nnz[index] += tile.nnz
        root_tile = vals[root_index]
        if root_tile is not None:
            root_tiles[key] = root_tile

    orders = _step_key_order(steps, leaves, present, row_blocks, col_blocks)
    result = BlockedMatrix(rows, cols, block_size,
                           symmetric=_root_symmetric(steps, leaves))
    for key in orders[root_index]:
        result.blocks[key] = root_tiles[key]
    return result, nnz
