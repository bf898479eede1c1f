"""The evaluation workloads as DML-like scripts (§6.1).

Three linear-regression solvers — Gradient Descent (GD), Davidon-Fletcher-
Powell (DFP), and BFGS — plus GNMF (used by the §6.3.3 DP-vs-Enum study)
and "partial DFP" (the longest subexpression SPORES supports). All solve
``min_x ||Ax - b||^2`` whose gradient is ``2 Aᵀ(Ax - b)`` and Hessian is
``2 AᵀA``; DFP/BFGS update an inverse-Hessian approximation H with exact
line search, which reduces — for this quadratic objective — to exactly the
chains of the paper's Equations 1-2.

Redundancy profile (matching §6.1): GD has loop-constant subexpressions
(AᵀA, Aᵀb); DFP and BFGS have both common and loop-constant ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..lang.parser import parse
from ..lang.program import Program
from ..matrix.meta import MatrixMeta

GD_SCRIPT = """
input A, b, x, alpha
output x
i = 0
while (i < 1000000) {
  g = t(A) %*% (A %*% x - b)
  x = x - alpha * g
  i = i + 1
}
"""

DFP_SCRIPT = """
input A, b, x, H
output x, H
i = 0
g = 2 * (t(A) %*% (A %*% x) - t(A) %*% b)
while (i < 1000000) {
  d = 0 - H %*% g
  alpha = (0 - (t(g) %*% d)) / (2 * (t(d) %*% t(A) %*% A %*% d))
  x = x + alpha * d
  H = H - H %*% t(A) %*% A %*% d %*% t(d) %*% t(A) %*% A %*% H / (t(d) %*% t(A) %*% A %*% H %*% t(A) %*% A %*% d) + d %*% t(d) / (2 * (t(d) %*% t(A) %*% A %*% d))
  g = g + 2 * alpha * (t(A) %*% A %*% d)
  i = i + 1
}
"""

BFGS_SCRIPT = """
input A, b, x, H
output x, H
i = 0
g = 2 * (t(A) %*% (A %*% x) - t(A) %*% b)
while (i < 1000000) {
  d = 0 - H %*% g
  alpha = (0 - (t(g) %*% d)) / (2 * (t(d) %*% t(A) %*% A %*% d))
  x = x + alpha * d
  sy = 2 * (alpha * alpha) * (t(d) %*% t(A) %*% A %*% d)
  yHy = 4 * (alpha * alpha) * (t(d) %*% t(A) %*% A %*% H %*% t(A) %*% A %*% d)
  H = H - (2 * (alpha * alpha) / sy) * (d %*% t(d) %*% t(A) %*% A %*% H + H %*% t(A) %*% A %*% d %*% t(d)) + ((yHy / (sy * sy)) + (1 / sy)) * ((alpha * alpha) * (d %*% t(d)))
  g = g + 2 * alpha * (t(A) %*% A %*% d)
  i = i + 1
}
"""

GNMF_SCRIPT = """
input V, W, Hm
output W, Hm
i = 0
while (i < 1000000) {
  R = V - W %*% Hm
  obj = sum(R * R)
  Hm = Hm * (t(W) %*% V) / (t(W) %*% W %*% Hm + 0.000001)
  W = W * (V %*% t(Hm)) / (W %*% Hm %*% t(Hm) + 0.000001)
  i = i + 1
}
"""

PARTIAL_DFP_SCRIPT = """
input A, d, H
output out
out = t(d) %*% t(A) %*% A %*% H %*% t(A) %*% A %*% d
"""

RIDGE_SCRIPT = """
input A, b, x, alpha, lambda_
output x
i = 0
while (i < 1000000) {
  g = t(A) %*% (A %*% x - b) + lambda_ * x
  x = x - alpha * g
  i = i + 1
}
"""

POWER_ITERATION_SCRIPT = """
input A, v
output v
i = 0
while (i < 1000000) {
  w = t(A) %*% (A %*% v)
  v = w / norm(w)
  i = i + 1
}
"""

LOGISTIC_SCRIPT = """
input A, y, x, alpha
output x
i = 0
while (i < 1000000) {
  g = t(A) %*% (sigmoid(A %*% x) - y)
  x = x - alpha * g
  i = i + 1
}
"""


@dataclass
class Algorithm:
    """One benchmark workload: script plus input construction."""

    name: str
    script: str
    scalar_names: frozenset[str]
    symmetric_inputs: frozenset[str] = frozenset()
    description: str = ""
    _program_cache: dict = field(default_factory=dict, repr=False)

    @property
    def outputs(self) -> tuple[str, ...]:
        """What a run returns, as the script's ``output`` line declares:
        the variables worth checking against the NumPy reference."""
        return self.program().outputs

    def program(self, iterations: int = 10) -> Program:
        cached = self._program_cache.get(iterations)
        if cached is None:
            cached = parse(self.script, scalar_names=self.scalar_names,
                           max_iterations=iterations)
            self._program_cache[iterations] = cached
        return cached

    def make_inputs(self, matrix, seed: int = 0,
                    rank: int = 16) -> tuple[dict[str, MatrixMeta], dict[str, object]]:
        """Metadata and data bindings for a dataset matrix ``A`` (or ``V``)."""
        rng = np.random.default_rng(seed)
        rows, cols = matrix.shape
        sparsity = _sparsity_of(matrix)
        if self.name == "gnmf":
            meta = {
                "V": MatrixMeta(rows, cols, sparsity),
                "W": MatrixMeta(rows, rank, 1.0),
                "Hm": MatrixMeta(rank, cols, 1.0),
                "i": MatrixMeta(1, 1),
            }
            data = {
                "V": matrix,
                "W": rng.random((rows, rank)) + 0.1,
                "Hm": rng.random((rank, cols)) + 0.1,
                "i": 0.0,
            }
            return meta, data
        if self.name == "partial_dfp":
            meta = {
                "A": MatrixMeta(rows, cols, sparsity),
                "d": MatrixMeta(cols, 1, 1.0),
                "H": MatrixMeta(cols, cols, 1.0, symmetric=True),
            }
            data = {
                "A": matrix,
                "d": rng.random((cols, 1)),
                "H": np.eye(cols),
            }
            return meta, data
        if self.name == "logistic":
            x_true = rng.standard_normal((cols, 1))
            logits = _matvec(matrix, x_true)
            labels = (1.0 / (1.0 + np.exp(-logits)) > rng.random((rows, 1))
                      ).astype(np.float64)
            trace = float(_columnwise_sq_norm(matrix).sum())
            meta = {
                "A": MatrixMeta(rows, cols, sparsity),
                "y": MatrixMeta(rows, 1, 1.0),
                "x": MatrixMeta(cols, 1, 1.0),
                "alpha": MatrixMeta(1, 1), "i": MatrixMeta(1, 1),
            }
            data = {"A": matrix, "y": labels, "x": np.zeros((cols, 1)),
                    "alpha": 2.0 / max(trace, 1e-12), "i": 0.0}
            return meta, data
        if self.name == "power_iteration":
            meta = {
                "A": MatrixMeta(rows, cols, sparsity),
                "v": MatrixMeta(cols, 1, 1.0),
                "i": MatrixMeta(1, 1),
            }
            start = rng.random((cols, 1)) + 0.1
            data = {"A": matrix, "v": start / np.linalg.norm(start), "i": 0.0}
            return meta, data
        x_true = rng.random((cols, 1))
        b = _matvec(matrix, x_true) + 0.01 * rng.standard_normal((rows, 1))
        meta = {
            "A": MatrixMeta(rows, cols, sparsity),
            "b": MatrixMeta(rows, 1, 1.0),
            "x": MatrixMeta(cols, 1, 1.0),
            "i": MatrixMeta(1, 1),
        }
        data: dict[str, object] = {"A": matrix, "b": b,
                                   "x": np.zeros((cols, 1)), "i": 0.0}
        if self.name in ("gd", "ridge"):
            # A stable fixed step for gradient descent: 1 / (2 λ_max(AᵀA))
            # approximated by the (cheap, always-valid) trace bound.
            trace = float(_columnwise_sq_norm(matrix).sum())
            meta["alpha"] = MatrixMeta(1, 1)
            data["alpha"] = 0.5 / max(trace, 1e-12)
            if self.name == "ridge":
                meta["lambda_"] = MatrixMeta(1, 1)
                data["lambda_"] = 0.01 * trace / cols
        else:
            # Quasi-Newton solvers scale H to the inverse-Hessian magnitude.
            trace = float(_columnwise_sq_norm(matrix).sum())
            meta["H"] = MatrixMeta(cols, cols, 1.0, symmetric=True)
            data["H"] = np.eye(cols) * (0.5 * cols / max(trace, 1e-12))
        return meta, data


def _sparsity_of(matrix) -> float:
    rows, cols = matrix.shape
    if hasattr(matrix, "nnz"):
        return matrix.nnz / (rows * cols)
    return float(np.count_nonzero(matrix)) / (rows * cols)


def _matvec(matrix, vector: np.ndarray) -> np.ndarray:
    return np.asarray(matrix @ vector).reshape(-1, 1)


def _columnwise_sq_norm(matrix) -> np.ndarray:
    if hasattr(matrix, "multiply"):  # scipy sparse
        return np.asarray(matrix.multiply(matrix).sum(axis=0)).ravel()
    return np.square(np.asarray(matrix)).sum(axis=0)


ALGORITHMS = {
    "gd": Algorithm(
        name="gd", script=GD_SCRIPT, scalar_names=frozenset({"i", "alpha"}),
        description="Gradient descent for least squares (loop-constant AᵀA, Aᵀb)"),
    "dfp": Algorithm(
        name="dfp", script=DFP_SCRIPT, scalar_names=frozenset({"i", "alpha"}),
        symmetric_inputs=frozenset({"H"}),
        description="Davidon-Fletcher-Powell with the paper's Eq. 2 update"),
    "bfgs": Algorithm(
        name="bfgs", script=BFGS_SCRIPT,
        scalar_names=frozenset({"i", "alpha", "sy", "yHy"}),
        symmetric_inputs=frozenset({"H"}),
        description="BFGS inverse-Hessian update, expanded to chains"),
    "gnmf": Algorithm(
        name="gnmf", script=GNMF_SCRIPT,
        scalar_names=frozenset({"i", "obj"}),
        description="Gaussian non-negative matrix factorization"),
    "partial_dfp": Algorithm(
        name="partial_dfp", script=PARTIAL_DFP_SCRIPT,
        scalar_names=frozenset(), symmetric_inputs=frozenset({"H"}),
        description="dᵀAᵀAHAᵀAd — the longest chain SPORES supports"),
    "ridge": Algorithm(
        name="ridge", script=RIDGE_SCRIPT,
        scalar_names=frozenset({"i", "alpha", "lambda_"}),
        description="L2-regularized gradient descent (GD's LSE profile)"),
    "power_iteration": Algorithm(
        name="power_iteration", script=POWER_ITERATION_SCRIPT,
        scalar_names=frozenset({"i"}),
        description="leading right singular vector via AᵀA power steps "
                    "(mmchain vs LSE trade-off)"),
    "logistic": Algorithm(
        name="logistic", script=LOGISTIC_SCRIPT,
        scalar_names=frozenset({"i", "alpha"}),
        description="logistic regression GD (non-linear sigmoid blocks the "
                    "gradient's expansion; only Aᵀ-side redundancy remains)"),
}


def get_algorithm(name: str) -> Algorithm:
    try:
        return ALGORITHMS[name]
    except KeyError:
        known = ", ".join(sorted(ALGORITHMS))
        raise ValueError(f"unknown algorithm {name!r}; known: {known}") from None
