"""AST node definitions shared by the engine, SOFT, and the baselines.

Every node derives from :class:`Node` and implements ``children()`` so that
generic traversal (:mod:`repro.sqlast.visitor`) works without per-node code.
Nodes are plain mutable dataclasses: the PoC minimizer clones a tree
(:func:`repro.sqlast.visitor.clone`) and then splices replacements in, while
SOFT's pattern transformations build new calls around a seed's own nodes and
never write through them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple, Union


class Node:
    """Base class for all AST nodes."""

    def children(self) -> Iterable["Node"]:
        """Yield direct child nodes (no Nones)."""
        return ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        from .printer import to_sql

        try:
            return f"<{type(self).__name__} {to_sql(self)!r}>"
        except Exception:
            return f"<{type(self).__name__}>"


class Expr(Node):
    """Base class for expression nodes."""


class Statement(Node):
    """Base class for statement nodes."""


# ---------------------------------------------------------------------------
# literals
# ---------------------------------------------------------------------------
@dataclass(repr=False)
class IntegerLit(Expr):
    """Integer literal.  ``text`` preserves the exact source digits so SOFT
    can generate integers wider than any machine type."""

    text: str

    @property
    def value(self) -> int:
        return int(self.text, 16) if self.text.lower().startswith("0x") else int(self.text)


@dataclass(repr=False)
class DecimalLit(Expr):
    """Decimal / floating literal; ``text`` preserves the source digits."""

    text: str


@dataclass(repr=False)
class StringLit(Expr):
    """Single-quoted string literal (value already unescaped)."""

    value: str


@dataclass(repr=False)
class NullLit(Expr):
    """The ``NULL`` keyword."""


@dataclass(repr=False)
class BooleanLit(Expr):
    """``TRUE`` / ``FALSE``."""

    value: bool


@dataclass(repr=False)
class Star(Expr):
    """A bare ``*`` — in select lists, ``COUNT(*)``, or (as the paper's
    Pattern 1.1 exploits) smuggled into arbitrary argument positions."""

    qualifier: Optional[str] = None


@dataclass(repr=False)
class ParamRef(Expr):
    """Positional parameter (``?`` or ``$1``)."""

    index: int


# ---------------------------------------------------------------------------
# names and calls
# ---------------------------------------------------------------------------
@dataclass(repr=False)
class ColumnRef(Expr):
    """Possibly-qualified column or bare identifier reference."""

    parts: List[str]

    @property
    def name(self) -> str:
        return self.parts[-1]


@dataclass(repr=False)
class FuncCall(Expr):
    """A function-call expression ``name(arg, ...)``.

    This is the node SOFT's patterns operate on.  ``distinct`` covers
    ``COUNT(DISTINCT x)`` style aggregate modifiers.
    """

    name: str
    args: List[Expr] = field(default_factory=list)
    distinct: bool = False

    def children(self) -> Iterable[Node]:
        return list(self.args)


@dataclass(repr=False)
class UnaryOp(Expr):
    op: str
    operand: Expr

    def children(self) -> Iterable[Node]:
        return (self.operand,)


@dataclass(repr=False)
class BinaryOp(Expr):
    op: str
    left: Expr
    right: Expr

    def children(self) -> Iterable[Node]:
        return (self.left, self.right)


# ---------------------------------------------------------------------------
# type names and casts
# ---------------------------------------------------------------------------
@dataclass(repr=False)
class TypeName(Node):
    """A type name with optional parenthesised parameters, e.g.
    ``DECIMAL(65, 30)`` or ``Decimal256(45)`` or ``VARCHAR(10)``."""

    name: str
    params: List[int] = field(default_factory=list)

    def key(self) -> str:
        """Canonical lower-case name without parameters."""
        return self.name.lower()


@dataclass(repr=False)
class Cast(Expr):
    """Explicit cast, any of ``CAST(x AS t)``, ``x::t``, ``CONVERT(x, t)``."""

    operand: Expr
    type_name: TypeName
    style: str = "cast"  # "cast" | "colons" | "convert"

    def children(self) -> Iterable[Node]:
        return (self.operand,)


# ---------------------------------------------------------------------------
# compound expressions
# ---------------------------------------------------------------------------
@dataclass(repr=False)
class CaseExpr(Expr):
    operand: Optional[Expr]
    whens: List[Tuple[Expr, Expr]]
    else_: Optional[Expr] = None

    def children(self) -> Iterable[Node]:
        out: List[Node] = []
        if self.operand is not None:
            out.append(self.operand)
        for cond, result in self.whens:
            out.extend((cond, result))
        if self.else_ is not None:
            out.append(self.else_)
        return out


@dataclass(repr=False)
class InExpr(Expr):
    expr: Expr
    items: List[Expr]
    negated: bool = False

    def children(self) -> Iterable[Node]:
        return [self.expr, *self.items]


@dataclass(repr=False)
class BetweenExpr(Expr):
    expr: Expr
    low: Expr
    high: Expr
    negated: bool = False

    def children(self) -> Iterable[Node]:
        return (self.expr, self.low, self.high)


@dataclass(repr=False)
class LikeExpr(Expr):
    expr: Expr
    pattern: Expr
    negated: bool = False
    op: str = "LIKE"  # LIKE | ILIKE | REGEXP | RLIKE

    def children(self) -> Iterable[Node]:
        return (self.expr, self.pattern)


@dataclass(repr=False)
class IsNullExpr(Expr):
    expr: Expr
    negated: bool = False

    def children(self) -> Iterable[Node]:
        return (self.expr,)


@dataclass(repr=False)
class ExistsExpr(Expr):
    subquery: "Select"
    negated: bool = False

    def children(self) -> Iterable[Node]:
        return (self.subquery,)


@dataclass(repr=False)
class SubqueryExpr(Expr):
    """A parenthesised scalar subquery used as an expression."""

    query: "SelectLike"

    def children(self) -> Iterable[Node]:
        return (self.query,)


@dataclass(repr=False)
class RowExpr(Expr):
    """``ROW(a, b)`` or bare ``(a, b)`` tuple constructor."""

    items: List[Expr]
    explicit: bool = True  # written with the ROW keyword

    def children(self) -> Iterable[Node]:
        return list(self.items)


@dataclass(repr=False)
class ArrayExpr(Expr):
    """``ARRAY[a, b]`` or DuckDB-style ``[a, b]`` array constructor."""

    items: List[Expr]

    def children(self) -> Iterable[Node]:
        return list(self.items)


@dataclass(repr=False)
class MapExpr(Expr):
    """``MAP {k: v, ...}`` constructor (DuckDB / ClickHouse style)."""

    keys: List[Expr]
    values: List[Expr]

    def children(self) -> Iterable[Node]:
        return [*self.keys, *self.values]


@dataclass(repr=False)
class IntervalExpr(Expr):
    """``INTERVAL <value> <unit>``."""

    value: Expr
    unit: str

    def children(self) -> Iterable[Node]:
        return (self.value,)


@dataclass(repr=False)
class IndexExpr(Expr):
    """Subscript access ``base[index]``."""

    base: Expr
    index: Expr

    def children(self) -> Iterable[Node]:
        return (self.base, self.index)


# ---------------------------------------------------------------------------
# SELECT and friends
# ---------------------------------------------------------------------------
@dataclass(repr=False)
class SelectItem(Node):
    expr: Expr
    alias: Optional[str] = None

    def children(self) -> Iterable[Node]:
        return (self.expr,)


@dataclass(repr=False)
class TableRef(Node):
    name: str
    alias: Optional[str] = None


@dataclass(repr=False)
class SubqueryRef(Node):
    query: "SelectLike"
    alias: Optional[str] = None

    def children(self) -> Iterable[Node]:
        return (self.query,)


@dataclass(repr=False)
class JoinRef(Node):
    left: Node
    right: Node
    kind: str = "INNER"  # INNER | LEFT | RIGHT | FULL | CROSS
    on: Optional[Expr] = None

    def children(self) -> Iterable[Node]:
        out: List[Node] = [self.left, self.right]
        if self.on is not None:
            out.append(self.on)
        return out


@dataclass(repr=False)
class OrderItem(Node):
    expr: Expr
    descending: bool = False

    def children(self) -> Iterable[Node]:
        return (self.expr,)


@dataclass(repr=False)
class Select(Statement):
    items: List[SelectItem] = field(default_factory=list)
    from_: List[Node] = field(default_factory=list)
    where: Optional[Expr] = None
    group_by: List[Expr] = field(default_factory=list)
    having: Optional[Expr] = None
    order_by: List[OrderItem] = field(default_factory=list)
    limit: Optional[Expr] = None
    offset: Optional[Expr] = None
    distinct: bool = False

    def children(self) -> Iterable[Node]:
        out: List[Node] = list(self.items)
        out.extend(self.from_)
        for part in (self.where, self.having, self.limit, self.offset):
            if part is not None:
                out.append(part)
        out.extend(self.group_by)
        out.extend(self.order_by)
        return out


@dataclass(repr=False)
class SetOp(Statement):
    """``UNION`` / ``EXCEPT`` / ``INTERSECT`` between two select-like trees."""

    op: str
    left: "SelectLike"
    right: "SelectLike"
    all: bool = False

    def children(self) -> Iterable[Node]:
        return (self.left, self.right)


SelectLike = Union[Select, SetOp]


# ---------------------------------------------------------------------------
# DDL / DML
# ---------------------------------------------------------------------------
@dataclass(repr=False)
class ColumnDef(Node):
    name: str
    type_name: TypeName
    constraints: List[str] = field(default_factory=list)


@dataclass(repr=False)
class CreateTable(Statement):
    name: str
    columns: List[ColumnDef] = field(default_factory=list)
    if_not_exists: bool = False

    def children(self) -> Iterable[Node]:
        return list(self.columns)


@dataclass(repr=False)
class Insert(Statement):
    table: str
    columns: List[str] = field(default_factory=list)
    rows: List[List[Expr]] = field(default_factory=list)

    def children(self) -> Iterable[Node]:
        return [expr for row in self.rows for expr in row]


@dataclass(repr=False)
class Update(Statement):
    table: str
    assignments: List[Tuple[str, Expr]] = field(default_factory=list)
    where: Optional[Expr] = None

    def children(self) -> Iterable[Node]:
        out: List[Node] = [expr for _, expr in self.assignments]
        if self.where is not None:
            out.append(self.where)
        return out


@dataclass(repr=False)
class Delete(Statement):
    table: str
    where: Optional[Expr] = None

    def children(self) -> Iterable[Node]:
        return (self.where,) if self.where is not None else ()


@dataclass(repr=False)
class DropTable(Statement):
    name: str
    if_exists: bool = False


@dataclass(repr=False)
class SetStmt(Statement):
    """``SET name = value`` session configuration."""

    name: str
    value: Expr

    def children(self) -> Iterable[Node]:
        return (self.value,)


@dataclass(repr=False)
class Explain(Statement):
    """``EXPLAIN <statement>`` — renders the engine's three-stage plan."""

    target: Statement

    def children(self) -> Iterable[Node]:
        return (self.target,)


@dataclass(repr=False)
class RawStatement(Statement):
    """A statement the parser recognised but does not model structurally."""

    text: str
