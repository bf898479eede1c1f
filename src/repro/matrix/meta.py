"""Matrix metadata: dimensions, sparsity, and structural flags.

:class:`MatrixMeta` is the currency of the optimizer — the type checker
infers shapes, the sparsity estimators fill in sparsity, and the cost model
prices operators from the metas of their inputs and output. Keeping it a
small immutable value object makes plan enumeration cheap.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..errors import ShapeError

#: Bytes per double-precision value.
DOUBLE_BYTES = 8
#: Bytes per (row, col) index pair in a sparse entry (two int32 words).
INDEX_BYTES = 8


@dataclass(frozen=True)
class MatrixMeta:
    """Shape and sparsity metadata for a (possibly distributed) matrix.

    ``sparsity`` is the fraction of non-zero cells in [0, 1]. ``symmetric``
    marks matrices known symmetric by construction (e.g. an inverse Hessian
    approximation H), which the block-wise search exploits when canonicalizing
    hash keys (§3.2 step 3).
    """

    rows: int
    cols: int
    sparsity: float = 1.0
    symmetric: bool = False

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.cols <= 0:
            raise ShapeError(f"matrix dimensions must be positive, got {self.rows}x{self.cols}")
        if not 0.0 <= self.sparsity <= 1.0:
            raise ShapeError(f"sparsity must be in [0, 1], got {self.sparsity}")
        if self.symmetric and self.rows != self.cols:
            raise ShapeError(f"a {self.rows}x{self.cols} matrix cannot be symmetric")

    @property
    def cells(self) -> int:
        """Total number of cells."""
        return self.rows * self.cols

    @property
    def nnz(self) -> float:
        """Expected number of non-zero cells."""
        return self.sparsity * self.cells

    @property
    def is_scalar_like(self) -> bool:
        """Whether this is a 1x1 matrix, implicitly castable to a scalar."""
        return self.rows == 1 and self.cols == 1

    def transposed(self) -> "MatrixMeta":
        """Meta of the transpose (symmetric matrices are self-transpose)."""
        if self.symmetric:
            return self
        return MatrixMeta(self.cols, self.rows, self.sparsity)

    def with_sparsity(self, sparsity: float) -> "MatrixMeta":
        """Copy with a different sparsity estimate (clamped to [0, 1])."""
        return replace(self, sparsity=min(1.0, max(0.0, sparsity)))

    def with_symmetric(self, symmetric: bool) -> "MatrixMeta":
        return replace(self, symmetric=symmetric)

    def matmul_shape(self, other: "MatrixMeta") -> tuple[int, int]:
        """Result shape of ``self @ other``; raises on inner-dim mismatch."""
        if self.cols != other.rows:
            raise ShapeError(
                f"matmul shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        return self.rows, other.cols

    def ewise_shape(self, other: "MatrixMeta") -> tuple[int, int]:
        """Result shape of a cell-wise op with scalar (1x1) broadcast."""
        if self.is_scalar_like:
            return other.rows, other.cols
        if other.is_scalar_like:
            return self.rows, self.cols
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError(
                f"cell-wise shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}")
        return self.rows, self.cols

    def __repr__(self) -> str:
        sym = ", symmetric" if self.symmetric else ""
        return f"MatrixMeta({self.rows}x{self.cols}, sp={self.sparsity:.4g}{sym})"


def scalar_meta() -> MatrixMeta:
    """Meta for a scalar treated as a dense 1x1 matrix."""
    return MatrixMeta(1, 1, 1.0)
