"""Blocked (tiled) matrices: the distributed representation.

A :class:`BlockedMatrix` is an R x C logical matrix cut into a grid of
``block_size`` x ``block_size`` tiles, stored in a dict keyed by grid
coordinates; missing keys are all-zero tiles. This mirrors SystemDS/Spark's
``(MatrixIndexes, MatrixBlock)`` RDDs (the paper inherits 1000x1000 blocks;
we default to a smaller tile so laptop-scale datasets still produce
multi-block grids).

The arithmetic here is *logical* — correct values computed with NumPy/SciPy.
Distribution effects (which worker holds which block, what a multiply
shuffles) are the runtime's business; it consumes the grid structure exposed
here.

The execution fast paths at this layer (see ``docs/architecture.md`` §10)
are invariant-preserving — results, simulated time, and metrics are
bit-identical to the seed behaviour:

* **Fixed folds.** Every tile loop runs where it is called, in one order:
  a product tile folds its pairs in left-block scan order, and grids are
  filled in first-touch order, because later float folds read them in
  that order. Dense tiles transpose as views of their source payload: a
  multiply of a payload by its own transposed view is not summed in the
  order a multiply by a copy is.
* **Statistics that travel with the tile.** A tile's layout flag and
  non-zero count are set once, by whoever makes the tile, and carried by
  every operation that cannot change them (see :class:`~repro.matrix.
  block.Block`): constructors and reductions count a tile in the one scan
  that decides whether to store it; kernels pass on the layout their
  operands imply; ``transpose`` and ``negate`` pass on the count, at tile
  and at grid level; a large rank-one product and a large dense ``scale``
  state a count their operands prove instead of scanning for it. Grids
  are immutable once shared, so grid ``nnz``, ``serialized_bytes()`` and
  ``meta()`` are summed once from the tiles and kept; callers that
  legitimately edit ``blocks`` afterwards must call
  :meth:`BlockedMatrix.invalidate_stats`.
* **Product chains.** ``matmul(other, before=P)`` (``after=Q``) also
  computes ``P @ (self @ other)`` (``(self @ other) @ Q``), folding each
  tile of the first product into the second as soon as it is made, so a
  tile of ``X`` shared by ``t(X) %*% (X %*% v)`` is read while in cache;
  each grid is the one its own ``matmul`` call returns.
* **Dying operands.** A grid that made every one of its tiles and lent
  none to another grid (``owns_tiles``) may be given up to the operator
  that reads it last (``dying``), which then writes its large dense
  result tiles over the grid's C-ordered payloads, bit for bit the fresh
  result.
* **Transposed twins.** For the same reason ``t(A)`` is a loop constant of
  the grid ``A`` itself: :meth:`BlockedMatrix.transpose` transposes the
  tiles once and keeps them with their source, so a fused ``t(A) %*% v``
  inside a loop re-tiles ``A`` on its first iteration only. Every call
  still returns a grid of its own around those tiles — which grids exist,
  and for how long, is something lineage recovery can see, the tiles
  inside them are not. The kept tiles live as long as the source grid and
  are dropped by :meth:`BlockedMatrix.invalidate_stats`. A CSR input cut by
  :meth:`BlockedMatrix.from_scipy` is born with them: the CSC form of a
  slab, which every tile is converted from, is the slab's tiles transposed.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np
from scipy import sparse

from ..errors import ExecutionError, ShapeError
from .block import (COMPARE_COUNT_CELLS, Block, count_nonzero,
                    rank_one_facts, zeros)
from .meta import MatrixMeta

DEFAULT_BLOCK_SIZE = 512


class BlockedMatrix:
    """A matrix partitioned into fixed-size square blocks, immutable once
    shared."""

    def __init__(self, rows: int, cols: int, block_size: int = DEFAULT_BLOCK_SIZE,
                 blocks: dict[tuple[int, int], Block] | None = None,
                 symmetric: bool = False):
        if rows <= 0 or cols <= 0:
            raise ShapeError(f"matrix dimensions must be positive, got {rows}x{cols}")
        if block_size <= 0:
            raise ShapeError(f"block size must be positive, got {block_size}")
        self.rows = rows
        self.cols = cols
        self.block_size = block_size
        self.blocks: dict[tuple[int, int], Block] = blocks if blocks is not None else {}
        self._symmetric = symmetric
        # Lazily cached grid statistics (populated on first use; every
        # constructor below finishes mutating ``blocks`` before any read).
        self._nnz: int | None = None
        self._bytes: float | None = None
        self._meta: MatrixMeta | None = None
        # This grid's tiles, transposed: kept by ``transpose``, never
        # handed out as a grid.
        self._transposed: dict[tuple[int, int], Block] | None = None
        #: Set by the kernels that allocate every tile they store
        #: (``matmul``, ``_zip``, non-zero ``scale`` / ``add_scalar``,
        #: ``negate``): only such a grid's payloads can be nobody else's.
        #: Cleared when it lends them (``transpose``, ``add_scalar(0)``).
        self.owns_tiles = False

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_numpy(cls, array: np.ndarray, block_size: int = DEFAULT_BLOCK_SIZE,
                   symmetric: bool = False) -> "BlockedMatrix":
        array = np.atleast_2d(np.asarray(array, dtype=np.float64))
        rows, cols = array.shape
        result = cls(rows, cols, block_size, symmetric=symmetric)
        for bi in range(result.row_blocks):
            for bj in range(result.col_blocks):
                tile = array[bi * block_size:(bi + 1) * block_size,
                             bj * block_size:(bj + 1) * block_size]
                count = count_nonzero(tile)
                if count:
                    result.blocks[bi, bj] = Block.of(
                        tile.copy(), False, count).normalized()
        return result

    @classmethod
    def from_scipy(cls, matrix: sparse.spmatrix, block_size: int = DEFAULT_BLOCK_SIZE,
                   symmetric: bool = False) -> "BlockedMatrix":
        """CSR tiles from one conversion per row slab, none per tile.

        A slab is a slice of the input's CSR arrays. One tile wide with
        sorted indices, it *is* the tile (copied: a tile never aliases the
        caller's memory). Otherwise it is converted to CSC once; a column
        range of that, read as CSR, is the tile of ``t(A)`` — kept as the
        grid's transposed twin — and the tile is the twin converted back.
        Both conversions are stable: columns come out sorted, repeated
        entries in the caller's order.
        """
        matrix = matrix.tocsr().astype(np.float64, copy=False)
        rows, cols = matrix.shape
        result = cls(rows, cols, block_size, symmetric=symmetric)
        csr = type(matrix)  # csr_matrix, or csr_array if that came in
        indptr, indices, data = matrix.indptr, matrix.indices, matrix.data
        whole_slabs = _whole_slabs(matrix, block_size)
        twins: dict[tuple[int, int], Block] = {}
        for bi in range(result.row_blocks):
            top = bi * block_size
            bottom = min(top + block_size, rows)
            start, stop = indptr[top], indptr[bottom]
            if start == stop:
                continue
            slab = csr(
                (data[start:stop], indices[start:stop],
                 indptr[top:bottom + 1] - start),
                shape=(bottom - top, cols), copy=whole_slabs)
            if whole_slabs:
                slab.has_sorted_indices = True
                result.blocks[bi, 0] = Block.of(
                    slab, True, int(stop - start)).normalized()
                continue
            columns = slab.tocsc()
            for bj in range(result.col_blocks):
                left = bj * block_size
                right = min(left + block_size, cols)
                start, stop = columns.indptr[left], columns.indptr[right]
                if start == stop:
                    continue
                twin = csr(
                    (columns.data[start:stop], columns.indices[start:stop],
                     columns.indptr[left:right + 1] - start),
                    shape=(right - left, bottom - top))
                twin.has_sorted_indices = True  # as ``tocsc`` left them
                count = int(stop - start)
                tile = Block.of(twin.T.tocsr(), True, count).normalized()
                result.blocks[bi, bj] = tile
                twins[bj, bi] = Block.of(twin, True, count) \
                    if tile.is_sparse else tile.transpose()
        if not whole_slabs:
            result._transposed = twins
        return result

    @classmethod
    def from_any(cls, data, block_size: int = DEFAULT_BLOCK_SIZE,
                 symmetric: bool = False) -> "BlockedMatrix":
        if isinstance(data, BlockedMatrix):
            # Already tiled: checked against the arguments, then passed
            # through with whatever it has cached (transposed tiles too).
            if data.block_size != block_size:
                raise ShapeError(
                    f"pre-tiled {data.rows}x{data.cols} grid has block size "
                    f"{data.block_size}, expected {block_size}")
            if symmetric and not data.symmetric:
                # The caller's grid keeps its own flag; tiles are shared,
                # caches are not (a new grid per call: callers who reuse a
                # symmetric grid set the flag on it themselves).
                flagged = cls(data.rows, data.cols, block_size,
                              blocks=dict(data.blocks), symmetric=True)
                flagged._nnz, flagged._bytes = data._nnz, data._bytes
                return flagged
            return data
        if sparse.issparse(data):
            return cls.from_scipy(data, block_size, symmetric)
        return cls.from_numpy(np.asarray(data), block_size, symmetric)

    @classmethod
    def scalar(cls, value: float, block_size: int = DEFAULT_BLOCK_SIZE) -> "BlockedMatrix":
        """The 1x1 matrix holding ``value`` (an empty grid for zero)."""
        result = cls(1, 1, block_size)
        value = float(value)
        if value != 0.0:
            result.blocks[(0, 0)] = Block.of(np.array([[value]]), False, 1)
        return result

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        return self.rows, self.cols

    @property
    def row_blocks(self) -> int:
        return math.ceil(self.rows / self.block_size)

    @property
    def col_blocks(self) -> int:
        return math.ceil(self.cols / self.block_size)

    @property
    def grid(self) -> tuple[int, int]:
        return self.row_blocks, self.col_blocks

    @property
    def num_blocks(self) -> int:
        """Number of grid cells (including implicit zero blocks)."""
        return self.row_blocks * self.col_blocks

    @property
    def symmetric(self) -> bool:
        return self._symmetric

    @symmetric.setter
    def symmetric(self, value: bool) -> None:
        if value != self._symmetric:
            self._symmetric = value
            self._meta = None  # meta() carries the flag

    @property
    def nnz(self) -> int:
        cached = self._nnz
        if cached is None:
            cached = self._nnz = sum(block.nnz for block in self.blocks.values())
        return cached

    @property
    def sparsity(self) -> float:
        cells = self.rows * self.cols
        return self.nnz / cells if cells else 0.0

    @property
    def is_scalar_like(self) -> bool:
        return self.rows == 1 and self.cols == 1

    def meta(self) -> MatrixMeta:
        """Observed metadata (true sparsity, not an estimate)."""
        cached = self._meta
        if cached is None:
            cached = self._meta = MatrixMeta(self.rows, self.cols, self.sparsity,
                                             symmetric=self._symmetric)
        return cached

    def serialized_bytes(self) -> float:
        """Total wire size over materialized blocks."""
        cached = self._bytes
        if cached is None:
            cached = self._bytes = sum(block.serialized_bytes()
                                       for block in self.blocks.values())
        return cached

    def _carrying_stats(self, result: "BlockedMatrix") -> "BlockedMatrix":
        """``result`` with this grid's cached statistics: for operations
        that keep every tile's shape, layout, count and the symmetry flag."""
        result._nnz = self._nnz
        result._bytes = self._bytes
        result._meta = self._meta
        return result

    def invalidate_stats(self) -> None:
        """Drop cached ``nnz``/``serialized_bytes``/``meta`` statistics.

        Required only after editing :attr:`blocks` in place — every
        operation here returns a freshly built grid, so normal use never
        needs it. The kept transposed tiles describe the tiles as they
        were, so they are let go too.
        """
        self._nnz = None
        self._bytes = None
        self._meta = None
        self._transposed = None

    def block_dims(self, bi: int, bj: int) -> tuple[int, int]:
        """Dimensions of grid tile (bi, bj), accounting for ragged edges."""
        height = min(self.block_size, self.rows - bi * self.block_size)
        width = min(self.block_size, self.cols - bj * self.block_size)
        return height, width

    def block_at(self, bi: int, bj: int) -> Block | None:
        """The stored block at a grid position, or None if all-zero."""
        return self.blocks.get((bi, bj))

    def iter_blocks(self) -> Iterator[tuple[tuple[int, int], Block]]:
        return iter(self.blocks.items())

    def scalar_value(self) -> float:
        """The single cell of a 1x1 matrix."""
        if not self.is_scalar_like:
            raise ShapeError(f"matrix is {self.rows}x{self.cols}, not scalar")
        block = self.blocks.get((0, 0))
        if block is None:
            return 0.0
        return float(block.to_dense_array()[0, 0])

    # ------------------------------------------------------------------
    # Conversion
    # ------------------------------------------------------------------
    def to_numpy(self) -> np.ndarray:
        out = np.zeros((self.rows, self.cols))
        size = self.block_size
        for (bi, bj), block in self.blocks.items():
            h, w = block.shape
            out[bi * size:bi * size + h, bj * size:bj * size + w] = block.to_dense_array()
        return out

    # ------------------------------------------------------------------
    # Logical arithmetic (used by the executor's kernels)
    # ------------------------------------------------------------------
    def transpose(self) -> "BlockedMatrix":
        """The transposed grid: its tiles are transposed on the first call
        and shared by every later one.

        Grids are immutable once shared (one that is transposed is), so
        the transposed tiles are a loop constant of the grid itself and
        are kept with it until :meth:`invalidate_stats`. What is kept is
        the tiles, not a grid: each call returns a new ``BlockedMatrix``
        around them, so a caller that registers, edits or drops the grid
        it got (lineage recovery does all three) touches no other
        caller's.
        """
        tiles = self._transposed
        if tiles is None:
            # Dense tiles transpose as views of the source payload, never
            # as copies: a multiply of a payload by its own transposed view
            # is not summed in the order a multiply by a copy is. So the
            # payloads are no longer this grid's alone.
            tiles = self._transposed = {
                (bj, bi): block.transpose()
                for (bi, bj), block in self.blocks.items()}
            self.owns_tiles = False
        result = BlockedMatrix(self.cols, self.rows, self.block_size,
                               blocks=dict(tiles), symmetric=self.symmetric)
        result._nnz = self.nnz  # a transpose moves cells, it makes none
        return result

    def matmul(self, other: "BlockedMatrix",
               before: "BlockedMatrix | None" = None,
               after: "BlockedMatrix | None" = None):
        """``self @ other``; given ``before`` (or ``after``), the pair
        ``(self @ other, before @ (self @ other))`` (or ``(self @ other,
        (self @ other) @ after)``), both products computed in one pass:
        each tile of the first is folded into the second as soon as it is
        made (:func:`_product_chain`). Each grid of the pair is, tile for
        tile and in insertion order, the one its own ``matmul`` call
        returns."""
        if self.cols != other.rows or self.block_size != other.block_size:
            _check_product(self, other)
        if before is not None or after is not None:
            return _product_chain(self, other, before, after)
        # A x A of a symmetric A is provably symmetric: (AA)^T = A^T A^T = AA.
        result = BlockedMatrix(self.rows, other.cols, self.block_size,
                               symmetric=self is other and self.symmetric)
        result.owns_tiles = True
        size = self.block_size
        if self.rows <= size and self.cols <= size and other.cols <= size:
            # Three one-cell grids: at most one pair, nothing to join.
            left, right = self.blocks.get((0, 0)), other.blocks.get((0, 0))
            if left is not None and right is not None:
                _store(result, (0, 0), _tile_product([(left, right)]))
        else:
            _join_products(self, other, result)
        return result

    def _zip(self, other: "BlockedMatrix", op_name: str,
             dying: tuple[bool, bool] = (False, False)) -> "BlockedMatrix":
        """Cell-wise combine; see the named wrappers below.

        Implicit (absent) blocks are all-zero tiles. ``multiply`` skips a
        tile when either side is absent (x * 0 == 0); ``divide`` raises
        :class:`~repro.errors.ExecutionError` when the divisor's tile is
        absent and the numerator's is not — materializing the zero tile
        would silently produce ``inf``/``nan`` cells (this matches the
        scalar-divide guard in ``Kernels._scalar_ewise``). A tile absent on
        *both* sides stays absent for every op, including divide: the
        result cell is defined as zero, the sparse-grid shortcut the seed
        semantics always took. ``dying`` gives ``self`` / ``other`` up to
        this call, as it does to every cell-wise kernel below.
        """
        if self.shape != other.shape:
            raise ShapeError(
                f"cell-wise shape mismatch: {self.rows}x{self.cols} vs "
                f"{other.rows}x{other.cols}")
        result = BlockedMatrix(self.rows, self.cols, self.block_size)
        result.owns_tiles = True
        if self.rows <= self.block_size and self.cols <= self.block_size:
            # One-cell grids: the only tile there can be, same rules.
            key = (0, 0)
            _store(result, key, _zip_entry(
                key, self.blocks.get(key), other.blocks.get(key),
                (self.rows, self.cols), op_name, dying))
        else:
            _join_cells(self, other, op_name, result, dying)
        return result

    def add(self, other: "BlockedMatrix",
            dying: tuple[bool, bool] = (False, False)) -> "BlockedMatrix":
        return self._zip(other, "add", dying)

    def subtract(self, other: "BlockedMatrix",
                 dying: tuple[bool, bool] = (False, False)) -> "BlockedMatrix":
        return self._zip(other, "subtract", dying)

    def multiply(self, other: "BlockedMatrix",
                 dying: tuple[bool, bool] = (False, False)) -> "BlockedMatrix":
        return self._zip(other, "multiply", dying)

    def divide(self, other: "BlockedMatrix",
               dying: tuple[bool, bool] = (False, False)) -> "BlockedMatrix":
        return self._zip(other, "divide", dying)

    def scale(self, scalar: float, dying: bool = False) -> "BlockedMatrix":
        result = BlockedMatrix(self.rows, self.cols, self.block_size,
                               symmetric=self.symmetric)
        if scalar == 0.0:
            return result
        result.owns_tiles = True
        for key, block in self.blocks.items():
            result.blocks[key] = block.scale(scalar, dying)
        return result

    def add_scalar(self, scalar: float,
                   dying: bool = False) -> "BlockedMatrix":
        if scalar == 0.0:
            # Value-identical to self, but with a fresh grid dict: callers
            # may edit the result's grid without aliasing this matrix
            # (blocks themselves are shared, so neither owns them now).
            self.owns_tiles = False
            return self._carrying_stats(BlockedMatrix(
                self.rows, self.cols, self.block_size,
                blocks=dict(self.blocks), symmetric=self.symmetric))
        result = BlockedMatrix(self.rows, self.cols, self.block_size,
                               symmetric=self.symmetric)
        result.owns_tiles = True
        for bi in range(self.row_blocks):
            for bj in range(self.col_blocks):
                block = self.blocks.get((bi, bj))
                if block is None:
                    block = zeros(*self.block_dims(bi, bj))
                result.blocks[bi, bj] = block.add_scalar(scalar, dying)
        return result

    def negate(self, dying: bool = False) -> "BlockedMatrix":
        result = BlockedMatrix(self.rows, self.cols, self.block_size,
                               symmetric=self.symmetric)
        result.owns_tiles = True
        for key, block in self.blocks.items():
            result.blocks[key] = block.negate(dying)
        return self._carrying_stats(result)

    def with_scalar(self, kind: str, scalar: float, scalar_left: bool = False,
                    dying: bool = False) -> "BlockedMatrix":
        """Cell-wise ``kind`` (add/subtract/multiply/divide) of this grid
        and a scalar, the scalar on the left when ``scalar_left``: ``s - M``
        is ``-M + s``, ``M / s`` is ``M * (1 / s)``, and ``s / M`` is
        refused (every zero cell would be an infinity). A zero divisor is
        the caller's to refuse. ``dying`` gives this grid up to the call."""
        if kind == "add":
            return self.add_scalar(scalar, dying)
        if kind == "subtract":
            return self.negate(dying).add_scalar(scalar, dying) \
                if scalar_left else self.add_scalar(-scalar, dying)
        if kind == "multiply":
            return self.scale(scalar, dying)
        if scalar_left:
            raise ExecutionError("scalar / matrix is not supported; "
                                 "zero cells would produce infinities")
        return self.scale(1.0 / scalar, dying)

    def sum(self) -> float:
        return sum(block.sum() for block in self.blocks.values())

    def map_cells(self, func, preserves_zero: bool) -> "BlockedMatrix":
        """Apply ``func`` cell-wise.

        Zero-preserving maps run on sparse payloads directly; densifying
        maps (exp, sigmoid) materialize every block, including implicit
        all-zero ones.
        """
        result = BlockedMatrix(self.rows, self.cols, self.block_size,
                               symmetric=self.symmetric)
        if preserves_zero:
            for key, block in self.blocks.items():
                if block.is_sparse:
                    # Same stored entries, new values.
                    payload = block.data.copy()
                    payload.data = func(payload.data)
                    result.blocks[key] = Block.of(
                        payload, True, block.nnz).normalized()
                else:
                    result.blocks[key] = Block(func(block.data)).normalized()
            return result
        for bi in range(self.row_blocks):
            for bj in range(self.col_blocks):
                block = self.blocks.get((bi, bj))
                payload = block.to_dense_array() if block is not None \
                    else np.zeros(self.block_dims(bi, bj))
                # Whatever func returned.
                result.blocks[bi, bj] = Block(func(payload))
        return result

    def row_sums(self) -> "BlockedMatrix":
        """Column vector of per-row sums.

        Builds only the row-tiles that stored blocks touch — a mostly-empty
        grid never materializes a full dense vector.
        """
        partials: dict[int, np.ndarray] = {}
        for (bi, _bj), block in self.blocks.items():
            sums = np.asarray(block.data.sum(axis=1)).reshape(-1, 1)
            buffer = partials.get(bi)
            if buffer is None:
                partials[bi] = buffer = np.zeros((sums.shape[0], 1))
            buffer += sums
        return self._assemble_column(partials, self.rows)

    def col_sums(self) -> "BlockedMatrix":
        """Row vector of per-column sums (sparse-grid aware, as row_sums)."""
        partials: dict[int, np.ndarray] = {}
        for (_bi, bj), block in self.blocks.items():
            sums = np.asarray(block.data.sum(axis=0)).reshape(1, -1)
            buffer = partials.get(bj)
            if buffer is None:
                partials[bj] = buffer = np.zeros((1, sums.shape[1]))
            buffer += sums
        result = BlockedMatrix(1, self.cols, self.block_size)
        for bj in sorted(partials):
            _store_counted(result, (0, bj), partials[bj])
        return result

    def diagonal(self) -> "BlockedMatrix":
        """The main diagonal of a square matrix, as a column vector.

        Only diagonal grid tiles are touched, and sparse payloads yield
        their diagonal without densifying the block.
        """
        if self.rows != self.cols:
            raise ShapeError(f"diagonal of a non-square {self.rows}x{self.cols} matrix")
        partials: dict[int, np.ndarray] = {}
        for bi in range(self.row_blocks):
            block = self.blocks.get((bi, bi))
            if block is None:
                continue
            diag = np.asarray(block.data.diagonal(), dtype=np.float64)
            partials[bi] = diag.reshape(-1, 1).copy()
        return self._assemble_column(partials, self.rows)

    def _assemble_column(self, partials: dict[int, np.ndarray],
                         rows: int) -> "BlockedMatrix":
        """A (rows x 1) matrix from per-row-block tiles, skipping zeros."""
        result = BlockedMatrix(rows, 1, self.block_size)
        for bi in sorted(partials):
            _store_counted(result, (bi, 0), partials[bi])
        return result

    def __repr__(self) -> str:
        return (f"BlockedMatrix({self.rows}x{self.cols}, block={self.block_size}, "
                f"grid={self.row_blocks}x{self.col_blocks}, nnz={self.nnz})")


def _whole_slabs(matrix: sparse.spmatrix, block_size: int) -> bool:
    """Whether :meth:`BlockedMatrix.from_scipy` keeps each row slab of the
    CSR ``matrix`` as its tile, with no conversion (and no twins)."""
    return matrix.shape[1] <= block_size and matrix.has_sorted_indices


def partitionable(data) -> bool:
    """Whether :class:`Partition` can later tell if ``data`` still tiles
    to the grid it was cut into: a 2-D float64 ndarray or a float64 CSR
    matrix, what ``make_inputs`` hands out."""
    if isinstance(data, np.ndarray):
        return data.ndim == 2 and data.dtype == np.float64
    return (sparse.issparse(data) and data.format == "csr"
            and data.dtype == np.float64)


class Partition:
    """A grid :meth:`BlockedMatrix.from_any` cut from a caller's raw
    (:func:`partitionable`) input, kept with what :meth:`rebuilds` needs to
    tell whether tiling that input again would build exactly this grid.

    * A dense input is checked against the grid's own tiles, never a copy
      of it: an absent tile's cells must all count as zero; a stored dense
      tile must hold the same bits (through ``uint64`` views, so ``-0.0``
      and NaN payloads count), which settles its count too; a stored CSR
      tile must have its count in the slice and its values, bit for bit,
      at its positions, which leaves every other cell zero.
    * A CSR input is checked against a private copy of its ``data`` bits,
      ``indices`` and ``indptr`` (nnz-sized), its shape and whether
      ``from_scipy`` would keep its slabs whole.
    """

    __slots__ = ("grid", "_arrays")

    def __init__(self, data, block_size: int, symmetric: bool):
        self.grid = BlockedMatrix.from_any(data, block_size=block_size,
                                           symmetric=symmetric)
        self._arrays = None
        if sparse.issparse(data):
            self._arrays = (data.shape, _whole_slabs(data, block_size),
                            data.data.view(np.uint64).copy(),
                            data.indices.copy(), data.indptr.copy())

    def rebuilds(self, data) -> bool:
        """Whether tiling ``data``, the object this was cut from and still
        :func:`partitionable`, now builds a grid equal to :attr:`grid` in
        every key, tile layout and bit."""
        if self._arrays is None:
            return data.shape == self.grid.shape \
                and _tiles_hold(self.grid, data)
        shape, whole, bits, indices, indptr = self._arrays
        return (data.shape == shape
                and _whole_slabs(data, self.grid.block_size) == whole
                and _same(data.indptr, indptr) and _same(data.indices, indices)
                and _same(data.data.view(np.uint64), bits))


def _same(array: np.ndarray, kept: np.ndarray) -> bool:
    return array.dtype == kept.dtype and np.array_equal(array, kept)


def _tiles_hold(grid: BlockedMatrix, array: np.ndarray) -> bool:
    """Whether every tile of ``grid`` is the one ``from_numpy`` cuts from
    the same-shaped ``array`` (see :class:`Partition`)."""
    size = grid.block_size
    for bi in range(grid.row_blocks):
        for bj in range(grid.col_blocks):
            tile = array[bi * size:(bi + 1) * size,
                         bj * size:(bj + 1) * size]
            block = grid.blocks.get((bi, bj))
            if block is None:
                if count_nonzero(tile):
                    return False
            elif not block.is_sparse:
                if not np.array_equal(tile.view(np.uint64),
                                      block.data.view(np.uint64)):
                    return False
            else:
                stored = block.data
                if count_nonzero(tile) != stored.nnz:
                    return False
                rows = np.repeat(np.arange(stored.shape[0]),
                                 np.diff(stored.indptr))
                if not np.array_equal(
                        tile[rows, stored.indices].view(np.uint64),
                        stored.data.view(np.uint64)):
                    return False
    return True


def _store_counted(result: BlockedMatrix, key: tuple[int, int],
                   tile: np.ndarray) -> None:
    """Store a freshly built float64 tile unless it is all-zero: one scan
    decides that and seeds the block's count."""
    count = count_nonzero(tile)
    if count:
        result.blocks[key] = Block.of(tile, False, count).normalized()


def _store(result: BlockedMatrix, key: tuple[int, int],
           block: Block | None) -> None:
    """Keep a tile function's answer; ``None`` is an all-zero tile."""
    if block is not None:
        result.blocks[key] = block


def _check_product(left: BlockedMatrix, right: BlockedMatrix) -> None:
    """Raise the error a product of ``left`` and ``right`` is refused with,
    if it is."""
    if left.cols != right.rows:
        raise ShapeError(f"matmul shape mismatch: {left.rows}x{left.cols} @ "
                         f"{right.rows}x{right.cols}")
    if left.block_size != right.block_size:
        raise ShapeError("matmul requires operands with identical block sizes")


def _by_row(grid: BlockedMatrix) -> dict[int, list[tuple[int, Block]]]:
    """``grid``'s tiles grouped by row-block index, each row in the grid's
    insertion order."""
    rows: dict[int, list[tuple[int, Block]]] = {}
    for (bk, bj), block in grid.blocks.items():
        rows.setdefault(bk, []).append((bj, block))
    return rows


def _contributions(left: BlockedMatrix, right: BlockedMatrix
                   ) -> dict[tuple[int, int], list[tuple[Block, Block]]]:
    """The pairs of ``left @ right``, a sparse-grid join on the inner
    dimension that touches compatible pairs only. Output tiles are keyed in
    first-touch order and each tile's pairs listed in left-block scan
    order: that order is the per-tile partial-sum fold and the result
    grid's insertion order. Grids of one cell each are the case
    :meth:`BlockedMatrix.matmul` answers without a join, through the same
    tile function."""
    right_by_row = _by_row(right)
    contributions: dict[tuple[int, int], list[tuple[Block, Block]]] = {}
    for (bi, bk), left_block in left.blocks.items():
        for bj, right_block in right_by_row.get(bk, ()):
            pairs = contributions.get((bi, bj))
            if pairs is None:
                contributions[(bi, bj)] = pairs = []
            pairs.append((left_block, right_block))
    return contributions


def _join_products(left: BlockedMatrix, right: BlockedMatrix,
                   result: BlockedMatrix) -> None:
    """``left @ right`` into ``result``, one :func:`_tile_product` per
    output tile of :func:`_contributions`."""
    for key, pairs in _contributions(left, right).items():
        _store(result, key, _tile_product(pairs))


def _product_chain(left: BlockedMatrix, right: BlockedMatrix,
                   before: BlockedMatrix | None, after: BlockedMatrix | None
                   ) -> tuple[BlockedMatrix, BlockedMatrix]:
    """``inner = left @ right`` and ``before @ inner`` (``inner @ after``
    when ``before`` is None) in one pass over ``inner``'s tiles.

    Each inner tile is folded into the outer tiles it feeds as soon as it
    is made, while its operands are still in cache: for ``t(X) %*% (X %*%
    v)`` and ``(u %*% t(X)) %*% X`` a dense tile of ``X`` and the tile of
    ``t(X)`` that reads it are one buffer. Folds run in the order a join
    of the finished grids runs them (:func:`_contributions`): ``inner @
    after`` scans ``inner``'s tiles, made in that order; ``before @
    inner`` scans ``before``'s tiles, and makes the row of ``inner`` a tile
    reads the first time one does. Inner tiles are stored in the join's
    first-touch order whatever order they were made in, outer tiles in
    the order they are first folded into, which is theirs.
    """
    inner = BlockedMatrix(left.rows, right.cols, left.block_size,
                          symmetric=left is right and left.symmetric)
    if before is not None:
        _check_product(before, inner)
    else:
        _check_product(inner, after)
    outer = BlockedMatrix(before.rows if after is None else left.rows,
                          right.cols if after is None else after.cols,
                          left.block_size)
    inner.owns_tiles = outer.owns_tiles = True
    products = _contributions(left, right)
    folds: dict[tuple[int, int], _Fold] = {}
    if after is not None:
        after_by_row = _by_row(after)
        for key, pairs in products.items():
            block = _tile_product(pairs)
            if block is None:
                continue
            inner.blocks[key] = block
            bi, bk = key
            for bj, right_block in after_by_row.get(bk, ()):
                tile = folds.get((bi, bj))
                if tile is None:
                    tile = folds[bi, bj] = _Fold()
                tile.add(block, right_block)
    else:
        # Each row of ``inner`` as its keys and pairs, in join order; once
        # made, as its stored tiles.
        rows: dict[int, list] = {}
        for key, pairs in products.items():
            rows.setdefault(key[0], []).append((key, pairs))
        made: dict[tuple[int, int], Block | None] = {}
        made_rows: dict[int, list[tuple[int, Block]]] = {}
        for (bk, bi), left_block in before.blocks.items():
            tiles = made_rows.get(bi)
            if tiles is None:
                tiles = made_rows[bi] = []
                for key, pairs in rows.get(bi, ()):
                    block = made[key] = _tile_product(pairs)
                    if block is not None:
                        tiles.append((key[1], block))
            for bj, right_block in tiles:
                tile = folds.get((bk, bj))
                if tile is None:
                    tile = folds[bk, bj] = _Fold()
                tile.add(left_block, right_block)
        for key, pairs in products.items():
            block = made[key] if key in made else _tile_product(pairs)
            if block is not None:
                inner.blocks[key] = block
    for key, tile in folds.items():
        _store(outer, key, tile.block())
    return inner, outer


def _join_cells(left: BlockedMatrix, right: BlockedMatrix, op_name: str,
                result: BlockedMatrix,
                dying: tuple[bool, bool] = (False, False)) -> None:
    """Cell-wise ``op_name`` into ``result`` over the union of both grids'
    stored tiles, one :func:`_zip_entry` each (one-cell grids: see
    :meth:`BlockedMatrix._zip`)."""
    for key in set(left.blocks) | set(right.blocks):
        _store(result, key, _zip_entry(
            key, left.blocks.get(key), right.blocks.get(key),
            left.block_dims(*key), op_name, dying))


def _zip_entry(key: tuple[int, int], left: Block | None,
               right: Block | None, dims: tuple[int, int], op_name: str,
               dying: tuple[bool, bool]) -> Block | None:
    """One cell-wise combine; replicates the ``_zip`` rules. Either block
    may be ``None`` (an implicit all-zero tile)."""
    if left is None and right is None:
        return None
    if left is None:
        left = zeros(*dims)
    if right is None:
        if op_name == "multiply":
            return None  # x * 0 == 0
        if op_name == "divide":
            raise ExecutionError(
                f"division by an implicit zero block at grid {key}; "
                "materializing it would produce inf/nan cells")
        right = zeros(*dims)
    block = getattr(left, op_name)(right, dying)
    if block.is_zero():
        return None
    return block.normalized()


def outer_product(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``u @ v`` for an n x 1 and a 1 x m dense factor, byte for byte: one
    product per cell added to a zeroed C-ordered result, as BLAS does
    (a zero cell is +0.0), without BLAS's k = 1 GEMM around it."""
    return np.einsum("i,j->ij", u.ravel(), v.ravel())


def _tile_product(pairs: list[tuple[Block, Block]]) -> Block | None:
    """One output tile: sum of block products, accumulated sparse-aware.

    Partials stay CSR while every contribution is sparse (CSR + CSR); the
    accumulator densifies at the first dense contribution and is then
    summed in place — no per-pair ``Block`` wrappers or re-allocation. The
    fold runs left-to-right over ``pairs`` (the serial scan order), so the
    float results are bit-identical to pairwise ``Block.add``. Its steps
    are :func:`_fold` and :func:`_folded`; :class:`_Fold` takes them one
    pair at a time.
    """
    left, right = pairs[0]
    if len(pairs) == 1 and left.data.shape[1] == 1 and _rank_one(left, right):
        return _folded(*_fold(None, True, pairs, True),
                       rank_one_facts(left, right))
    return _folded(*_fold(None, True, pairs), None)


def _rank_one(left: Block, right: Block) -> bool:
    """Whether ``left @ right``, a tile's only pair and ``left`` one column
    wide, is a large rank-one product: one rounded product per cell, and
    its factors may settle its count."""
    return not (left.is_sparse or right.is_sparse) \
        and left.data.shape[0] * right.data.shape[1] >= COMPARE_COUNT_CELLS


def _fold(accumulator, all_sparse: bool, pairs, rank_one: bool = False):
    """``accumulator`` (None before the first pair) plus the product of
    each of ``pairs`` in turn, and whether the sum is still CSR."""
    for left, right in pairs:
        if right.is_sparse and not left.is_sparse:
            # What SciPy's ``dense @ csr`` computes, call for call, around
            # the tile's kept CSC view instead of a freshly built one.
            product = (right.transposed_view() @ left.data.T).T
        elif rank_one:
            product = outer_product(left.data, right.data)
        else:
            product = left.data @ right.data
        product_sparse = left.is_sparse and right.is_sparse
        if accumulator is None:
            accumulator, all_sparse = product, product_sparse
        elif all_sparse and product_sparse:
            accumulator = accumulator + product
        else:
            if all_sparse:
                accumulator, all_sparse = accumulator.toarray(), False
            # The accumulator is always a private array here (a fresh
            # product or a toarray() copy), so in-place add is safe.
            np.add(accumulator,
                   product.toarray() if product_sparse else product,
                   out=accumulator)
    return accumulator, all_sparse


def _folded(accumulator, all_sparse: bool,
            proved: tuple[int, float] | None) -> Block | None:
    """The tile a finished fold makes (None when all-zero), its count
    ``proved`` by a rank-one product's factors or else counted."""
    if proved is not None:
        count, floor = proved
    else:
        floor = None
        count = int(accumulator.nnz) if all_sparse \
            else count_nonzero(accumulator)
    if not count:
        return None
    return Block.of(accumulator, all_sparse, count, floor).normalized()


class _Fold:
    """One output tile folded as its pairs arrive, one :meth:`add` each in
    the order :func:`_tile_product` would fold them, to the same block. A
    first pair that may be a large rank-one product (:func:`_rank_one`)
    waits: it is one only if no second pair follows."""

    __slots__ = ("accumulator", "all_sparse", "first")

    def __init__(self) -> None:
        self.accumulator, self.all_sparse = None, True
        self.first: tuple[Block, Block] | None = None

    def add(self, left: Block, right: Block) -> None:
        pairs = ((left, right),)
        if self.first is not None:
            pairs, self.first = (self.first, pairs[0]), None
        elif self.accumulator is None and left.data.shape[1] == 1 \
                and _rank_one(left, right):
            self.first = pairs[0]
            return
        self.accumulator, self.all_sparse = _fold(
            self.accumulator, self.all_sparse, pairs)

    def block(self) -> Block | None:
        if self.first is None:
            return _folded(self.accumulator, self.all_sparse, None)
        left, right = self.first
        return _folded(*_fold(None, True, (self.first,), True),
                       rank_one_facts(left, right))
