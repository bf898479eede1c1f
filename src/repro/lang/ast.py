"""Expression AST for the DML-like linear algebra language.

Nodes are immutable and hashable by structure, which makes explicit
common-subexpression detection (identical subtrees) a dictionary lookup.
The AST deliberately stays small: matrix computation programs in the paper
use matrix multiplication, transpose, cell-wise arithmetic, and scalars.

Shapes are *not* stored on nodes; they are inferred by
:mod:`repro.lang.typecheck` against a symbol table so the same AST can be
re-checked under different input datasets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator


class Expr:
    """Base class for expression nodes.

    Subclasses are frozen dataclasses, so equality and hashing are structural.
    """

    __slots__ = ()

    def children(self) -> tuple["Expr", ...]:
        """Return the direct sub-expressions of this node."""
        raise NotImplementedError

    def walk(self) -> Iterator["Expr"]:
        """Yield this node and all descendants in pre-order."""
        yield self
        for child in self.children():
            yield from child.walk()

    def leaves(self) -> Iterator["Expr"]:
        """Yield all leaf nodes (references and literals) in left-to-right order."""
        for node in self.walk():
            if not node.children():
                yield node

    def variables(self) -> set[str]:
        """Return the set of variable names referenced by this expression."""
        names: set[str] = set()
        for node in self.walk():
            if isinstance(node, (MatrixRef, ScalarRef)):
                names.add(node.name)
        return names

    # Operator sugar so tests and examples can build expressions tersely. The
    # parser is the primary construction path; these mirror its semantics.
    def __matmul__(self, other: "Expr") -> "MatMul":
        return MatMul(self, _coerce(other))

    def __add__(self, other) -> "Add":
        return Add(self, _coerce(other))

    def __sub__(self, other) -> "Sub":
        return Sub(self, _coerce(other))

    def __mul__(self, other) -> "ElemMul":
        return ElemMul(self, _coerce(other))

    def __rmul__(self, other) -> "ElemMul":
        return ElemMul(_coerce(other), self)

    def __truediv__(self, other) -> "ElemDiv":
        return ElemDiv(self, _coerce(other))

    def __neg__(self) -> "Neg":
        return Neg(self)

    @property
    def T(self) -> "Transpose":
        return Transpose(self)


def _coerce(value) -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, float)):
        return Literal(float(value))
    raise TypeError(f"cannot use {value!r} in an expression")


@dataclass(frozen=True)
class MatrixRef(Expr):
    """Reference to a matrix variable by name."""

    name: str

    def children(self) -> tuple[Expr, ...]:
        return ()

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class ScalarRef(Expr):
    """Reference to a scalar variable by name."""

    name: str

    def children(self) -> tuple[Expr, ...]:
        return ()

    def __repr__(self) -> str:
        return self.name


def format_literal(value: float) -> str:
    """The text of a literal: ``%g`` when that reads back as ``value``,
    ``repr`` otherwise.

    CSE keys, symmetry tokens and plan fingerprints are built from printed
    text, so two different values must never print alike.
    """
    text = f"{value:g}"
    return text if float(text) == value else repr(float(value))


@dataclass(frozen=True)
class Literal(Expr):
    """A numeric literal."""

    value: float

    def children(self) -> tuple[Expr, ...]:
        return ()

    def __repr__(self) -> str:
        return format_literal(self.value)


@dataclass(frozen=True)
class Transpose(Expr):
    """Matrix transpose, ``t(X)``."""

    child: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.child,)

    def __repr__(self) -> str:
        return f"t({self.child!r})"


@dataclass(frozen=True)
class MatMul(Expr):
    """Matrix multiplication, ``X %*% Y``."""

    left: Expr
    right: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.left, self.right)

    def __repr__(self) -> str:
        return f"({self.left!r} %*% {self.right!r})"


@dataclass(frozen=True)
class Add(Expr):
    """Cell-wise addition with scalar broadcast."""

    left: Expr
    right: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.left, self.right)

    def __repr__(self) -> str:
        return f"({self.left!r} + {self.right!r})"


@dataclass(frozen=True)
class Sub(Expr):
    """Cell-wise subtraction with scalar broadcast."""

    left: Expr
    right: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.left, self.right)

    def __repr__(self) -> str:
        return f"({self.left!r} - {self.right!r})"


@dataclass(frozen=True)
class ElemMul(Expr):
    """Cell-wise multiplication (``*``) with scalar broadcast."""

    left: Expr
    right: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.left, self.right)

    def __repr__(self) -> str:
        return f"({self.left!r} * {self.right!r})"


@dataclass(frozen=True)
class ElemDiv(Expr):
    """Cell-wise division (``/``) with scalar broadcast.

    A 1x1 matrix denominator is treated as a scalar, matching SystemDS's
    implicit ``as.scalar`` cast; the paper's DFP update divides a matrix
    chain by the 1x1 chain ``t(d) %*% t(A) %*% A %*% d``.
    """

    left: Expr
    right: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.left, self.right)

    def __repr__(self) -> str:
        return f"({self.left!r} / {self.right!r})"


@dataclass(frozen=True)
class Neg(Expr):
    """Unary negation."""

    child: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.child,)

    def __repr__(self) -> str:
        return f"(-{self.child!r})"


@dataclass(frozen=True)
class Compare(Expr):
    """Scalar comparison used in ``while`` conditions."""

    op: str  # one of <, >, <=, >=, ==, !=
    left: Expr
    right: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.left, self.right)

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


@dataclass(frozen=True)
class Call(Expr):
    """Builtin function call, e.g. ``sum(X)``, ``sqrt(s)``, ``norm(X)``."""

    func: str
    args: tuple[Expr, ...] = field(default_factory=tuple)

    def children(self) -> tuple[Expr, ...]:
        return self.args

    def __repr__(self) -> str:
        rendered = ", ".join(repr(a) for a in self.args)
        return f"{self.func}({rendered})"


#: Builtins that reduce a matrix to a scalar.
SCALAR_BUILTINS = frozenset({"sum", "norm", "trace", "nrow", "ncol"})
#: Cell-wise maps: applied to every cell of a matrix (or to a scalar).
#: ``exp`` and ``sigmoid`` densify (f(0) != 0); the others preserve zeros.
CELLWISE_BUILTINS = frozenset({"sqrt", "abs", "exp", "log", "sigmoid"})
#: Cell-wise builtins whose output keeps the input's zero cells.
ZERO_PRESERVING_BUILTINS = frozenset({"sqrt", "abs", "log"})
#: Structural builtins: row sums (m x 1), column sums (1 x n), and the
#: diagonal of a square matrix (n x 1).
STRUCTURAL_BUILTINS = frozenset({"rowsums", "colsums", "diag"})
#: Retained alias: cell-wise maps double as the scalar math functions.
SCALAR_MATH_BUILTINS = CELLWISE_BUILTINS
#: All recognized builtin function names.
BUILTINS = SCALAR_BUILTINS | CELLWISE_BUILTINS | STRUCTURAL_BUILTINS
