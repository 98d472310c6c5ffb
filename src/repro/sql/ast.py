"""SQL abstract syntax tree.

Shared by three consumers:

* the SQL parser (:mod:`repro.sql.parser`) builds these nodes from text;
* the relational engine (:mod:`repro.rdb`) executes them;
* the OntoAccess translator (:mod:`repro.core`) *constructs* them directly
  and renders them to the SQL text shown in the paper's listings via
  :mod:`repro.sql.render`.

All nodes are frozen dataclasses: statements are values that can be hashed,
compared in tests, and safely shared.  The translator's statements are
*shapes* — :class:`Parameter` nodes where a request's keys and values go —
paired with their value vector in a :class:`Bound`; the shape is what the
engine's plan cache keys on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple, Union

__all__ = [
    # expressions
    "Expression",
    "Literal",
    "Null",
    "ColumnRef",
    "Parameter",
    "BinaryOp",
    "UnaryOp",
    "IsNull",
    "InList",
    "Between",
    "Like",
    "FunctionCall",
    "Star",
    # select
    "SelectItem",
    "TableRef",
    "Join",
    "OrderItem",
    "Select",
    # DML
    "Insert",
    "Update",
    "Delete",
    "Assignment",
    # DDL
    "ColumnDef",
    "PrimaryKeyDef",
    "ForeignKeyDef",
    "UniqueDef",
    "CheckDef",
    "CreateTable",
    "DropTable",
    "CreateIndex",
    "DropIndex",
    # transactions
    "Begin",
    "Commit",
    "Rollback",
    "Statement",
    # statement shape + values
    "Bound",
    "shape_of",
]


def _hashed_once(cls: type) -> type:
    """A frozen statement class whose instances compute their hash — the
    dataclass hash of every field, which walks the whole tree — once.
    The engine's plan cache hashes a statement shape on every execution;
    a kept translation hands it the same shape object each time.  An
    unhashable literal in the tree still raises ``TypeError`` each time
    (its statement is planned uncached), and the hash is not pickled:
    a string's hash differs between processes."""
    fields_hash = cls.__hash__

    def __hash__(self: Any) -> int:
        value = self._hash
        if value is None:
            value = fields_hash(self)
            object.__setattr__(self, "_hash", value)
        return value

    def __getstate__(self: Any) -> Dict[str, Any]:
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    cls._hash = None  # type: ignore[attr-defined]
    cls.__hash__ = __hash__  # type: ignore[assignment]
    cls.__getstate__ = __getstate__  # type: ignore[attr-defined]
    return cls


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

class Expression:
    """Marker base class for expression nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Literal(Expression):
    """A constant: int, float, str, or bool."""

    value: Union[int, float, str, bool]


@dataclass(frozen=True)
class Null(Expression):
    """The SQL NULL literal."""


@dataclass(frozen=True)
class ColumnRef(Expression):
    """A column reference, optionally qualified: ``author.id``."""

    name: str
    table: Optional[str] = None

    def key(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name


@dataclass(frozen=True)
class Parameter(Expression):
    """A positional placeholder (``?``) bound at execution time."""

    index: int


@dataclass(frozen=True)
class BinaryOp(Expression):
    """Binary operator: comparison, logic, arithmetic, or ``||`` concat."""

    op: str  # '=', '<>', '<', '<=', '>', '>=', 'AND', 'OR', '+', '-', '*', '/', '%', '||'
    left: Expression
    right: Expression


@dataclass(frozen=True)
class UnaryOp(Expression):
    """Unary operator: ``NOT expr`` or ``-expr``."""

    op: str  # 'NOT' | '-'
    operand: Expression


@dataclass(frozen=True)
class IsNull(Expression):
    """``expr IS [NOT] NULL``."""

    operand: Expression
    negated: bool = False


@dataclass(frozen=True)
class InList(Expression):
    """``expr [NOT] IN (item, ...)``."""

    operand: Expression
    items: Tuple[Expression, ...]
    negated: bool = False


@dataclass(frozen=True)
class Between(Expression):
    """``expr [NOT] BETWEEN low AND high``."""

    operand: Expression
    low: Expression
    high: Expression
    negated: bool = False


@dataclass(frozen=True)
class Like(Expression):
    """``expr [NOT] LIKE pattern`` with ``%`` and ``_`` wildcards."""

    operand: Expression
    pattern: Expression
    negated: bool = False


@dataclass(frozen=True)
class FunctionCall(Expression):
    """Aggregate or scalar function call."""

    name: str  # normalized upper case
    args: Tuple[Expression, ...]
    distinct: bool = False


@dataclass(frozen=True)
class Star(Expression):
    """``*`` (as in ``SELECT *`` or ``COUNT(*)``), optionally qualified."""

    table: Optional[str] = None


# ---------------------------------------------------------------------------
# SELECT
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SelectItem:
    """One projection: expression with an optional ``AS`` alias."""

    expression: Expression
    alias: Optional[str] = None


@dataclass(frozen=True)
class TableRef:
    """A table in FROM, with an optional alias."""

    name: str
    alias: Optional[str] = None

    def binding(self) -> str:
        """The name this table is referred to by in the query scope."""
        return self.alias or self.name


@dataclass(frozen=True)
class Join:
    """A join clause appended to the FROM item list."""

    table: TableRef
    condition: Optional[Expression]  # None only for CROSS JOIN
    kind: str = "INNER"  # 'INNER' | 'LEFT' | 'CROSS'


@dataclass(frozen=True)
class OrderItem:
    expression: Expression
    descending: bool = False


@_hashed_once
@dataclass(frozen=True)
class Select:
    """A SELECT statement (single FROM table plus explicit joins)."""

    items: Tuple[SelectItem, ...]
    table: Optional[TableRef] = None
    joins: Tuple[Join, ...] = ()
    where: Optional[Expression] = None
    group_by: Tuple[Expression, ...] = ()
    having: Optional[Expression] = None
    order_by: Tuple[OrderItem, ...] = ()
    limit: Optional[int] = None
    offset: Optional[int] = None
    distinct: bool = False


# ---------------------------------------------------------------------------
# DML
# ---------------------------------------------------------------------------

@_hashed_once
@dataclass(frozen=True)
class Insert:
    """``INSERT INTO table (columns) VALUES (row), ...``."""

    table: str
    columns: Tuple[str, ...]
    rows: Tuple[Tuple[Expression, ...], ...]


@dataclass(frozen=True)
class Assignment:
    """One ``SET column = expr`` item."""

    column: str
    value: Expression


@_hashed_once
@dataclass(frozen=True)
class Update:
    table: str
    assignments: Tuple[Assignment, ...]
    where: Optional[Expression] = None


@_hashed_once
@dataclass(frozen=True)
class Delete:
    table: str
    where: Optional[Expression] = None


# ---------------------------------------------------------------------------
# DDL
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ColumnDef:
    """A column definition inside CREATE TABLE."""

    name: str
    type_name: str  # normalized upper case, e.g. 'INTEGER', 'VARCHAR'
    type_length: Optional[int] = None  # VARCHAR(n)
    not_null: bool = False
    primary_key: bool = False
    unique: bool = False
    autoincrement: bool = False
    default: Optional[Expression] = None
    references: Optional[Tuple[str, Optional[str]]] = None  # (table, column|None)
    checks: Tuple[Expression, ...] = ()


@dataclass(frozen=True)
class PrimaryKeyDef:
    columns: Tuple[str, ...]


@dataclass(frozen=True)
class ForeignKeyDef:
    columns: Tuple[str, ...]
    ref_table: str
    ref_columns: Tuple[str, ...] = ()


@dataclass(frozen=True)
class UniqueDef:
    columns: Tuple[str, ...]


@dataclass(frozen=True)
class CheckDef:
    """A table-level CHECK constraint (the paper's Section 8 mentions
    assertions as future work; CHECK is the per-row variant)."""

    expression: Expression


@dataclass(frozen=True)
class CreateTable:
    name: str
    columns: Tuple[ColumnDef, ...]
    constraints: Tuple[
        Union[PrimaryKeyDef, ForeignKeyDef, UniqueDef, CheckDef], ...
    ] = ()
    if_not_exists: bool = False


@dataclass(frozen=True)
class DropTable:
    name: str
    if_exists: bool = False


@dataclass(frozen=True)
class CreateIndex:
    """``CREATE [UNIQUE] INDEX [IF NOT EXISTS] name ON table (columns)``.

    Single-column non-unique indexes are ordered (range/prefix/ORDER BY
    capable); multi-column non-unique indexes back equality probes only.
    """

    name: str
    table: str
    columns: Tuple[str, ...]
    unique: bool = False
    if_not_exists: bool = False


@dataclass(frozen=True)
class DropIndex:
    name: str
    if_exists: bool = False


# ---------------------------------------------------------------------------
# Transactions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Begin:
    pass


@dataclass(frozen=True)
class Commit:
    pass


@dataclass(frozen=True)
class Rollback:
    pass


Statement = Union[
    Select,
    Insert,
    Update,
    Delete,
    CreateTable,
    DropTable,
    CreateIndex,
    DropIndex,
    Begin,
    Commit,
    Rollback,
]


# ---------------------------------------------------------------------------
# statement shape + values
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Bound:
    """A statement *shape* and the values of its :class:`Parameter` nodes.

    This is what the mediator hands the engine: requests of one template
    differ only in ``values``, so they share the shape — and with it one
    cached plan.  ``Database.execute`` takes a ``Bound`` as its single
    argument, and :func:`repro.sql.render.render` prints it with the
    values inlined, i.e. as the statement reads in the paper's listings.
    """

    shape: Statement
    values: Tuple[Any, ...] = ()

    @property
    def table(self) -> Any:
        """The shape's table (of a DML statement: its target)."""
        return self.shape.table


def shape_of(statement: Union[Statement, Bound]) -> Statement:
    """The statement itself, or the shape of a bound one."""
    return statement.shape if type(statement) is Bound else statement
