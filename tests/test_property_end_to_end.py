"""End-to-end property test: the optimizer never changes program semantics.

Hypothesis generates random loop programs over random-shaped matrices —
chains with transposes, additions, scalar coefficients, loop-constant and
loop-variant operands — and every strategy's compiled plan must compute
exactly what the unoptimized program computes. This is the library's
central safety property: §3.3's "the found options would not affect the
expression results" as an executable theorem.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ClusterConfig, OptimizerConfig
from repro.core import ReMacOptimizer
from repro.lang import parse
from repro.matrix.meta import MatrixMeta
from repro.runtime import Executor

CLUSTER = ClusterConfig(driver_memory_bytes=40_000,
                        broadcast_limit_bytes=10_000, block_size=32)

# A fixed cast of matrices; programs draw from these so shapes always fit.
SHAPES = {
    "A": (120, 24),   # the "dataset": tall, loop-constant
    "B": (24, 24),    # square, loop-constant
    "H": (24, 24),    # square symmetric, updated in the loop
    "u": (120, 1),
    "v": (24, 1),     # updated in the loop
}


#: Each drawn update as (source, NumPy twin). The twin maps the variables
#: before the update to the ones it writes, computed without the library.
V_UPDATES = [
    ("v = B %*% v", lambda e: {"v": e["B"] @ e["v"]}),
    ("v = H %*% v", lambda e: {"v": e["H"] @ e["v"]}),
    ("v = t(A) %*% (A %*% v)", lambda e: {"v": e["A"].T @ (e["A"] @ e["v"])}),
    ("v = t(A) %*% A %*% v", lambda e: {"v": e["A"].T @ e["A"] @ e["v"]}),
    ("v = B %*% t(B) %*% v", lambda e: {"v": e["B"] @ e["B"].T @ e["v"]}),
    ("v = H %*% t(A) %*% A %*% v",
     lambda e: {"v": e["H"] @ e["A"].T @ e["A"] @ e["v"]}),
    ("v = v + B %*% v", lambda e: {"v": e["v"] + e["B"] @ e["v"]}),
    ("v = 0.5 * (t(A) %*% (A %*% v)) + v",
     lambda e: {"v": 0.5 * (e["A"].T @ (e["A"] @ e["v"])) + e["v"]}),
    ("v = B %*% v / (t(v) %*% v + 1)",
     lambda e: {"v": e["B"] @ e["v"] / (e["v"].T @ e["v"] + 1)}),
    # A transpose materialized, then fused.
    ("T = t(A)\n  v = T %*% (A %*% v)",
     lambda e: {"T": e["A"].T, "v": e["A"].T @ (e["A"] @ e["v"])}),
    # An operand one assignment from loop-variant.
    ("w = v\n  v = B %*% w + w",
     lambda e: {"w": e["v"], "v": e["B"] @ e["v"] + e["v"]}),
    # Reductions over a chain.
    ("v = v / (sum(t(A) %*% (A %*% v)) + 1)",
     lambda e: {"v": e["v"] / (np.sum(e["A"].T @ (e["A"] @ e["v"])) + 1)}),
    ("v = v + rowsums(t(A) %*% A) * 0.001",
     lambda e: {"v": e["v"]
                + (e["A"].T @ e["A"]).sum(axis=1, keepdims=True) * 0.001}),
    # Literals that agree to six digits.
    ("v = ((1.0000002 * B) %*% v - (1.0000001 * B) %*% v) * 1e7",
     lambda e: {"v": ((1.0000002 * e["B"]) @ e["v"]
                      - (1.0000001 * e["B"]) @ e["v"]) * 1e7}),
]
H_UPDATES = [
    ("H = H - v %*% t(v)", lambda e: {"H": e["H"] - e["v"] @ e["v"].T}),
    ("H = H - v %*% t(v) / (t(v) %*% v + 1)",
     lambda e: {"H": e["H"] - e["v"] @ e["v"].T / (e["v"].T @ e["v"] + 1)}),
    ("H = H - H %*% v %*% t(v) %*% H / (t(v) %*% H %*% v + 1)",
     lambda e: {"H": e["H"] - e["H"] @ e["v"] @ e["v"].T @ e["H"]
                / (e["v"].T @ e["H"] @ e["v"] + 1)}),
    ("H = H + t(B) %*% B", lambda e: {"H": e["H"] + e["B"].T @ e["B"]}),
    ("H = H - t(A) %*% A %*% H / (t(v) %*% t(A) %*% A %*% v + 1)",
     lambda e: {"H": e["H"] - e["A"].T @ e["A"] @ e["H"]
                / (e["v"].T @ e["A"].T @ e["A"] @ e["v"] + 1)}),
]


@st.composite
def loop_programs(draw):
    """A random loop of 2-4 drawn updates over the cast above, always
    well-typed, and its NumPy twin (bindings -> final variables). A drawn
    update is one or two statements, and goes in whole."""
    updates = []
    # Each update writes v or H from a shape-correct random chain.
    n_statements = draw(st.integers(2, 4))
    for _ in range(n_statements):
        target = draw(st.sampled_from(["v", "H"]))
        updates.append(draw(st.sampled_from(
            V_UPDATES if target == "v" else H_UPDATES)))
    body = "\n  ".join([source for source, _ in updates] + ["i = i + 1"])

    def twin(data: dict) -> dict:
        env = dict(data)
        for _ in range(4):
            for _source, step in updates:
                env.update(step(env))
        return env

    return f"i = 0\nwhile (i < 4) {{\n  {body}\n}}", twin


def _bindings(seed: int):
    rng = np.random.default_rng(seed)
    data = {}
    for name, (rows, cols) in SHAPES.items():
        matrix = rng.standard_normal((rows, cols)) * 0.05
        if name == "H":
            matrix = (matrix + matrix.T) / 2 + np.eye(rows) * 0.5
        data[name] = matrix
    data["i"] = 0.0
    meta = {name: MatrixMeta(rows, cols, 1.0, symmetric=(name == "H"))
            for name, (rows, cols) in SHAPES.items()}
    meta["i"] = MatrixMeta(1, 1)
    return meta, data


@given(case=loop_programs(),
       strategy=st.sampled_from(["adaptive", "conservative", "aggressive",
                                 "automatic"]),
       seed=st.integers(0, 10))
@settings(max_examples=40, deadline=None)
def test_optimized_program_is_semantically_identical(case, strategy, seed):
    """The compiled plan computes what the plain program does, and the
    plain program what its NumPy twin does (a check the lowering both
    runs share cannot pass by agreeing with itself)."""
    source, twin = case
    meta, data = _bindings(seed)
    program = parse(source, scalar_names={"i"}, max_iterations=4)
    optimizer = ReMacOptimizer(CLUSTER, OptimizerConfig(strategy=strategy,
                                                        estimator="metadata"))
    compiled = optimizer.compile(program, meta, iterations=4)

    env_plain = Executor(CLUSTER).run(program, dict(data), symmetric={"H"})
    env_opt = Executor(CLUSTER).run(compiled, dict(data), symmetric={"H"})
    env_twin = twin(data)
    for var in ("v", "H"):
        plain = env_plain[var].matrix.to_numpy()
        optimized = env_opt[var].matrix.to_numpy()
        assert np.allclose(plain, optimized, atol=1e-8, rtol=1e-6), \
            (strategy, source)
        assert np.allclose(plain, env_twin[var], atol=1e-8, rtol=1e-6), \
            source


@given(case=loop_programs(), seed=st.integers(0, 5))
@settings(max_examples=20, deadline=None)
def test_adaptive_never_predictably_worse_than_plain(case, seed):
    """The adaptive plan's *predicted* cost never exceeds doing nothing."""
    source, _twin = case
    meta, _data = _bindings(seed)
    program = parse(source, scalar_names={"i"}, max_iterations=4)
    adaptive = ReMacOptimizer(CLUSTER, OptimizerConfig(strategy="adaptive",
                                                       estimator="metadata"))
    plain = ReMacOptimizer(CLUSTER, OptimizerConfig(strategy="none",
                                                    estimator="metadata"))
    cost_adaptive = adaptive.compile(program, meta, iterations=4).estimated_cost
    cost_plain = plain.compile(program, meta, iterations=4).estimated_cost
    assert cost_adaptive <= cost_plain * 1.001, source
