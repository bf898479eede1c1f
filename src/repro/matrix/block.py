"""A single matrix block: a thin uniform wrapper over dense/sparse payloads.

Blocks are the unit of distribution: a :class:`~repro.matrix.blocked.
BlockedMatrix` is a grid of blocks hashed onto workers. Each block holds
either a ``numpy.ndarray`` or a ``scipy.sparse`` matrix and exposes the
handful of kernels the physical operators need. Zero blocks are never
materialized (they are simply absent from the grid).
"""

from __future__ import annotations

import math

import numpy as np
from scipy import sparse

from .formats import DENSE_THRESHOLD
from .meta import DOUBLE_BYTES, MatrixMeta

Payload = np.ndarray | sparse.spmatrix

#: Cell count from which :func:`count_nonzero` counts through a boolean
#: comparison. A property of the tile, not a setting: NumPy's float64
#: ``count_nonzero`` walks 8-byte cells one by one (240 us on a 512x512
#: tile, 76 us on 512x160), the comparison is vectorised and its byte-wide
#: result is counted in words (86 / 21 us), but it allocates, which a
#: 512x1 vector pays for (1.4 against 0.7 us). It is also the size from
#: which a cell-wise kernel may write its result over an operand, the test
#: each one makes first: below it the guards cost more than the allocation
#: they save.
COMPARE_COUNT_CELLS = 4096

#: Smallest normal double: a product of magnitudes at or above it is not
#: rounded to zero.
TINY = float(np.finfo(np.float64).tiny)


def count_nonzero(array: np.ndarray) -> int:
    """Non-zero cells of a dense float64 tile (NaN counts, -0.0 does not,
    on either route)."""
    if array.size >= COMPARE_COUNT_CELLS:
        return int(np.count_nonzero(array != 0.0))
    return int(np.count_nonzero(array))


def _out(array: np.ndarray, free: bool) -> np.ndarray | None:
    """``out=`` of a one-operand ufunc past the size gate: ``array`` if it
    is ``free`` (nobody else reads it) and C-ordered, as a fresh result
    would be (memory order decides how the next BLAS product sums)."""
    return array if free and array.flags.c_contiguous else None


class Block:
    """One block of a distributed matrix.

    The payload adapts between dense and CSR based on its own sparsity, the
    way SystemDS converts block layouts. All arithmetic returns new blocks,
    and a payload is immutable once shared (a cell-wise kernel may write
    over a *dying* operand's, or a CSR operand's private ``toarray()``), so
    the two facts the runtime keeps asking for travel with the block
    instead of being rediscovered:

    * ``is_sparse`` is decided once, where the block is made. Every kernel
      below knows the layout of what it produces from its operands' flags
      (``csr @ csr`` is CSR, any dense operand gives an ndarray, ...).
    * ``nnz`` (a full payload scan for dense blocks) is seeded by a maker
      that already knows it, carried by the operations that cannot change
      it (``transpose``, ``negate``, CSR ``scale``, dense -> CSR
      re-layout), *proved* where the operands' facts settle it (a large
      rank-one product, :func:`rank_one_facts`; a large dense ``scale``),
      and otherwise counted on first use and kept. For CSR payloads it is
      the *stored* entry count, explicit zeros included, which is why a
      CSR -> dense re-layout recounts.
    * ``_floor``, on a large dense tile whose count was proved: a lower
      bound on the magnitude of its non-zero cells, which lets the next
      ``scale`` prove that none underflows. Only those two kernels pass it
      on; it says nothing about ``inf`` / ``nan`` cells.

    Everything else (``sparsity``, ``serialized_bytes``, ``meta``) derives
    from the two in O(1).

    A block also keeps, once asked, the view ``data.T``
    (:meth:`transposed_view`).
    """

    __slots__ = ("data", "is_sparse", "_nnz", "_transposed_view", "_floor")

    def __init__(self, data: Payload):
        """Wrap a payload of unknown provenance: validate and coerce it."""
        is_sparse = sparse.issparse(data)
        if is_sparse:
            data = data.tocsr().astype(np.float64, copy=False)
        else:
            data = np.asarray(data, dtype=np.float64)
            if data.ndim != 2:
                raise ValueError(f"block payload must be 2-D, got {data.ndim}-D")
        self.data = data
        self.is_sparse = is_sparse
        self._nnz: int | None = None
        self._transposed_view = None
        self._floor: float | None = None

    @classmethod
    def of(cls, data: Payload, is_sparse: bool, nnz: int | None = None,
           floor: float | None = None) -> "Block":
        """Wrap a payload the caller just produced, without re-deriving it.

        The caller vouches for what ``__init__`` would establish — ``data``
        is a 2-D float64 ndarray (``is_sparse`` False) or a CSR matrix
        (True) — and for ``nnz`` and ``floor`` when it passes them.
        """
        block = cls.__new__(cls)
        block.data = data
        block.is_sparse = is_sparse
        block._nnz = nnz
        block._transposed_view = None
        block._floor = floor
        return block

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    @property
    def nnz(self) -> int:
        cached = self._nnz
        if cached is None:
            if self.is_sparse:
                cached = int(self.data.nnz)
            else:
                cached = count_nonzero(self.data)
            self._nnz = cached
        return cached

    @property
    def sparsity(self) -> float:
        rows, cols = self.data.shape
        cells = rows * cols
        return self.nnz / cells if cells else 0.0

    def meta(self) -> MatrixMeta:
        rows, cols = self.shape
        return MatrixMeta(rows, cols, self.sparsity)

    def serialized_bytes(self) -> float:
        """Approximate wire size in the block's current layout."""
        rows, cols = self.data.shape
        if self.is_sparse:
            return self.nnz * (DOUBLE_BYTES + 4) + rows * 8
        return rows * cols * DOUBLE_BYTES

    # ------------------------------------------------------------------
    # Kernels
    # ------------------------------------------------------------------
    # The cell-wise kernels take ``dying``: whether each operand's payload
    # (``self``'s, ``other``'s) may be written over. Only a caller that
    # knows nobody else reads the block may say so. ``add`` and
    # ``subtract`` are CSR while both sides are, dense as soon as either is.
    def add(self, other: "Block",
            dying: tuple[bool, bool] = (False, False)) -> "Block":
        if self.is_sparse and other.is_sparse:
            return Block.of(self.data + other.data, True)
        return self._dense_ewise(other, np.add, dying)

    def subtract(self, other: "Block",
                 dying: tuple[bool, bool] = (False, False)) -> "Block":
        if self.is_sparse and other.is_sparse:
            return Block.of(self.data - other.data, True)
        return self._dense_ewise(other, np.subtract, dying)

    def multiply(self, other: "Block",
                 dying: tuple[bool, bool] = (False, False)) -> "Block":
        # A sparse-by-dense product comes back COO, hence the tocsr().
        if self.is_sparse:
            return Block.of(self.data.multiply(other.data).tocsr(), True)
        if other.is_sparse:
            return Block.of(other.data.multiply(self.data).tocsr(), True)
        return self._dense_ewise(other, np.multiply, dying)

    def divide(self, other: "Block",
               dying: tuple[bool, bool] = (False, False)) -> "Block":
        return self._dense_ewise(other, np.divide, dying)

    def _dense_ewise(self, other: "Block", ufunc,
                     dying: tuple[bool, bool]) -> "Block":
        """``ufunc`` over both payloads as dense arrays: over the first
        one nobody else reads when both are C-ordered (a fresh result of
        two C-ordered arrays is C-ordered too)."""
        left, right = self.to_dense_array(), other.to_dense_array()
        if left.size < COMPARE_COUNT_CELLS:
            return Block.of(ufunc(left, right), False)
        out = None
        if left.flags.c_contiguous and right.flags.c_contiguous:
            if dying[0] or self.is_sparse:
                out = left
            elif dying[1] or other.is_sparse:
                out = right
        return Block.of(ufunc(left, right, out=out), False)

    def transposed_view(self) -> Payload:
        """``self.data.T``, made once: for a CSR payload the CSC matrix
        over the same ``data`` / ``indices`` / ``indptr``. SciPy computes
        ``dense @ csr`` as ``(csr.T @ dense.T).T`` and builds and validates
        that wrapper on every call; a tile that outlives the call (an
        input, a kept transposed tile) builds it once."""
        view = self._transposed_view
        if view is None:
            view = self._transposed_view = self.data.T
        return view

    def transpose(self) -> "Block":
        data = self.data.T  # a view when dense, CSC when sparse
        return Block.of(data.tocsr() if self.is_sparse else data,
                        self.is_sparse, self._nnz)

    def scale(self, scalar: float, dying: bool = False) -> "Block":
        if self.is_sparse:  # stored entries stay stored
            return Block.of(self.data * scalar, True, self._nnz)
        data = self.data
        if data.size < COMPARE_COUNT_CELLS:  # counted on first use
            return Block.of(data * scalar, False)
        data = np.multiply(data, scalar, out=_out(data, dying))
        nnz = self._nnz
        if nnz is not None and math.isfinite(scalar):
            # A finite scalar keeps zeros zero (no 0 * inf) and inf / nan
            # cells non-zero; a non-zero cell stays one if it cannot
            # underflow: it does not shrink, or the floor says so.
            size, floor = abs(float(scalar)), self._floor
            if floor is not None and floor * size >= TINY:
                return Block.of(data, False, nnz, 0.5 * floor * size)
            if size >= 1.0:
                return Block.of(data, False, nnz)
        return Block.of(data, False)  # counted on first use, as ever

    def add_scalar(self, scalar: float, dying: bool = False) -> "Block":
        data = self.to_dense_array()
        if data.size < COMPARE_COUNT_CELLS:
            return Block.of(data + scalar, False)
        return Block.of(np.add(data, scalar,
                               out=_out(data, dying or self.is_sparse)), False)

    def negate(self, dying: bool = False) -> "Block":
        data = self.data
        if self.is_sparse or data.size < COMPARE_COUNT_CELLS:
            return Block.of(-data, self.is_sparse, self._nnz)
        return Block.of(np.negative(data, out=_out(data, dying)), False,
                        self._nnz)

    def sum(self) -> float:
        return float(self.data.sum())

    # ------------------------------------------------------------------
    # Layout
    # ------------------------------------------------------------------
    def to_dense_array(self) -> np.ndarray:
        if self.is_sparse:
            return self.data.toarray()
        return self.data

    def normalized(self) -> "Block":
        """Re-pick the layout based on observed sparsity (SystemDS-style)."""
        sparsity = self.sparsity
        if sparsity > DENSE_THRESHOLD:
            if self.is_sparse:
                return Block.of(self.data.toarray(), False)
        elif not self.is_sparse:
            # csr_matrix(dense) stores exactly the non-zero cells.
            return Block.of(sparse.csr_matrix(self.data), True, self._nnz)
        return self

    def is_zero(self, tol: float = 0.0) -> bool:
        if self.nnz == 0:
            return True
        if tol > 0.0:
            cells = self.data.data if self.is_sparse else self.data
            return bool(np.all(np.abs(cells) <= tol))
        return False

    def __repr__(self) -> str:
        layout = "sparse" if self.is_sparse else "dense"
        return f"Block({self.shape[0]}x{self.shape[1]}, {layout}, nnz={self.nnz})"


def finite_floor(array: np.ndarray) -> float:
    """The smallest non-zero magnitude in ``array`` (``inf`` if it is all
    zeros), or 0.0 — no bound — if a cell is ``inf`` or ``nan``."""
    magnitudes = np.abs(array)
    if not math.isfinite(magnitudes.max(initial=0.0)):  # nan propagates
        return 0.0
    return float(magnitudes.min(where=magnitudes != 0.0, initial=math.inf))


def rank_one_facts(left: Block, right: Block) -> tuple[int, float] | None:
    """``(nnz, floor)`` of the dense product ``left @ right`` with inner
    dimension 1, from its two factors alone, or ``None`` if a scan has to
    say. Each cell is one rounded product ``u * v``: when every factor
    cell is finite there is no ``0 * inf``, and when the two smallest
    non-zero magnitudes multiply to a normal number none underflows, so a
    cell is zero exactly where a factor is (an overflow to ``inf`` is
    still a non-zero cell)."""
    floor = finite_floor(left.data) * finite_floor(right.data)
    if floor >= TINY:  # false for nan (inf * 0: an all-zero factor)
        return left.nnz * right.nnz, 0.5 * floor
    return None


def zeros(rows: int, cols: int) -> Block:
    """A dense zero block (never stored; stands in for an absent tile)."""
    return Block.of(np.zeros((rows, cols)), False, 0)
