"""Synthetic mini datasets shaped like the paper's Table 2.

The paper evaluates on criteo click logs and reddit comments vectorized to
six matrices of 30-40 GB. We generate laptop-scale stand-ins that preserve
what drives every qualitative result:

* the **dense/sparse split** — cri1/red1 are dense (sparsity > 0.4, dense
  storage format), the rest are sparse CSR matrices;
* the **column-count ("fatness") ordering** — cri1 < cri2 < cri3 and
  red1 < red2 < red3, which controls where hoisting AᵀA flips from a win
  (small, even driver-resident AᵀA) to a loss (n² rivals the data);
* the **relative sparsity ordering** within each family (cri2 sparser than
  cri1, cri3 sparser than cri2, ...).

Absolute sparsities are raised relative to Table 2 (documented in
DESIGN.md): scaling rows by ~2000x but columns by only ~20x would otherwise
put the minis in a different nnz(A)-vs-n² regime than the paper's data and
silently move every crossover. Table 2's original statistics are carried
alongside for the Table 2 benchmark report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse as sp

from ..matrix.meta import MatrixMeta


@dataclass(frozen=True)
class DatasetSpec:
    """Shape/sparsity of a mini dataset plus the paper's original stats."""

    name: str
    rows: int
    cols: int
    sparsity: float
    #: Table 2's original statistics, for the report.
    paper_rows: str
    paper_cols: str
    paper_sparsity: float
    paper_footprint: str
    description: str = ""

    @property
    def dense(self) -> bool:
        return self.sparsity > 0.4

    def meta(self) -> MatrixMeta:
        return MatrixMeta(self.rows, self.cols, self.sparsity)


#: Mini counterparts of Table 2 (names and roles match the paper).
#:
#: Shapes/sparsities are chosen so two regime ratios keep the paper's
#: ordering: nnz(A)/n² (how matvec-plan FLOPs compare to AᵀA-plan FLOPs:
#: cri1/red1 huge, cri3/red3 small) and size(A)/size(AᵀA) (how hoisting
#: costs compare to per-iteration savings). In particular AᵀA fits on the
#: driver for cri1/cri2/red1/red2 but is a distributed matrix for
#: cri3/red3 under the default 2 MB driver budget — which is what flips
#: the LSE of AᵀA from beneficial to detrimental, as in §6.2.2.
DATASET_SPECS = {
    "cri1": DatasetSpec("cri1", 24576, 48, 0.60,
                        "116.8M", "47", 6.0e-1, "40.9GB",
                        "dense, thin (criteo two-day logs, raw features)"),
    "cri2": DatasetSpec("cri2", 16384, 192, 0.080,
                        "58.4M", "8.7K", 4.5e-3, "30.0GB",
                        "sparse, medium width (criteo one-day logs)"),
    "cri3": DatasetSpec("cri3", 16384, 640, 0.020,
                        "58.4M", "15.0K", 2.6e-3, "30.0GB",
                        "sparse, fat (criteo one-day logs, low freq bound)"),
    "red1": DatasetSpec("red1", 24576, 32, 0.51,
                        "120.0M", "34", 5.1e-1, "30.4GB",
                        "dense, thin (reddit Sep-Oct 2018)"),
    "red2": DatasetSpec("red2", 16384, 160, 0.090,
                        "104.5M", "5.0K", 3.9e-3, "31.5GB",
                        "sparse, medium width (reddit Sep 2018, hashed)"),
    "red3": DatasetSpec("red3", 16384, 1024, 0.012,
                        "104.5M", "20.0K", 9.6e-4, "31.5GB",
                        "sparse, fat (reddit Sep 2018, more hash features)"),
}

DATASET_NAMES = tuple(DATASET_SPECS)
DENSE_DATASETS = tuple(n for n, s in DATASET_SPECS.items() if s.dense)
SPARSE_DATASETS = tuple(n for n, s in DATASET_SPECS.items() if not s.dense)


def generate(spec: DatasetSpec, seed: int = 0, scale: float = 1.0):
    """Generate the dataset matrix: dense ndarray or CSR, per its format.

    ``scale`` shrinks the row count (tests use scale < 1 for speed); column
    count and sparsity are preserved, since they set the plan trade-offs.
    """
    rows = max(int(spec.rows * scale), spec.cols // 4 + 1, 32)
    rng = np.random.default_rng(seed)
    if spec.dense:
        values = rng.random((rows, spec.cols))
        mask = rng.random((rows, spec.cols)) < spec.sparsity
        return values * mask
    matrix = sp.random(rows, spec.cols, density=spec.sparsity, format="csr",
                       random_state=rng, data_rvs=lambda n: rng.random(n) + 0.1)
    return matrix


def generate_by_name(name: str, seed: int = 0, scale: float = 1.0):
    """Generate a Table 2 mini dataset by name."""
    try:
        spec = DATASET_SPECS[name]
    except KeyError:
        known = ", ".join(DATASET_NAMES)
        raise ValueError(f"unknown dataset {name!r}; known: {known}") from None
    return generate(spec, seed=seed, scale=scale)


def observed_statistics(matrix) -> dict:
    """Row/column/sparsity/footprint statistics of a generated matrix."""
    rows, cols = matrix.shape
    if sp.issparse(matrix):
        nnz = int(matrix.nnz)
        footprint = nnz * 12 + rows * 8
    else:
        nnz = int(np.count_nonzero(matrix))
        footprint = rows * cols * 8
    return {
        "rows": rows,
        "cols": cols,
        "sparsity": nnz / (rows * cols),
        "nnz": nnz,
        "footprint_bytes": footprint,
    }
