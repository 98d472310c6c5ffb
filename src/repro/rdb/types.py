"""SQL type system for the relational engine.

Each column carries a :class:`SQLType` that validates and coerces Python
values on the way into storage.  The coercion rules intentionally mirror
what a 2010-era MySQL would accept from a JDBC driver, because the paper's
translator feeds values extracted from RDF literals (always strings at the
lexical level) into typed columns — e.g. Listing 15 inserts
``ont:pubYear "2009"`` into the INTEGER ``year`` attribute.
"""

from __future__ import annotations

import re
from typing import Any, Optional, Tuple

from ..errors import TypeMismatchError

__all__ = [
    "Row",
    "SQLType",
    "IntegerType",
    "FloatType",
    "StringType",
    "BooleanType",
    "DateType",
    "type_from_name",
    "INTEGER",
    "FLOAT",
    "BOOLEAN",
    "TEXT",
    "DATE",
]

#: A stored row: one coerced value (None for NULL) per column of its
#: table, in catalog column order (:attr:`repro.rdb.catalog.Table.positions`).
Row = Tuple[Any, ...]


class SQLType:
    """Base class: a named type with validation/coercion behaviour."""

    name = "UNKNOWN"

    def coerce(self, value: Any, column: str = "") -> Any:
        """Coerce ``value`` (never None) into this type's Python repr.

        Raises :class:`TypeMismatchError` when the value cannot be
        represented.
        """
        raise NotImplementedError

    def sortable(self, value: Any) -> Any:
        """Return a sort key for ORDER BY (values are already coerced)."""
        return value

    def _reject(self, value: Any, column: str) -> TypeMismatchError:
        where = f" for column {column!r}" if column else ""
        return TypeMismatchError(
            f"cannot coerce {value!r} to {self.name}{where}"
        )

    def __repr__(self) -> str:
        return f"<SQLType {self.name}>"

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self.__dict__ == getattr(
            other, "__dict__", {}
        )

    def __hash__(self) -> int:
        return hash(self.name)


class IntegerType(SQLType):
    name = "INTEGER"

    def coerce(self, value: Any, column: str = "") -> int:
        if isinstance(value, bool):
            return int(value)
        if isinstance(value, int):
            return value
        if isinstance(value, float):
            if value.is_integer():
                return int(value)
            raise self._reject(value, column)
        if isinstance(value, str):
            text = value.strip()
            try:
                return int(text)
            except ValueError:
                raise self._reject(value, column) from None
        raise self._reject(value, column)


class FloatType(SQLType):
    name = "FLOAT"

    def coerce(self, value: Any, column: str = "") -> float:
        if isinstance(value, bool):
            return float(value)
        if isinstance(value, (int, float)):
            return float(value)
        if isinstance(value, str):
            try:
                return float(value.strip())
            except ValueError:
                raise self._reject(value, column) from None
        raise self._reject(value, column)


class StringType(SQLType):
    """VARCHAR(n) / CHAR(n) / TEXT.  ``length`` None means unbounded."""

    name = "VARCHAR"

    def __init__(self, length: Optional[int] = None) -> None:
        self.length = length

    def coerce(self, value: Any, column: str = "") -> str:
        if isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, (int, float, str)):
            text = value if isinstance(value, str) else str(value)
        else:
            raise self._reject(value, column)
        if self.length is not None and len(text) > self.length:
            where = f" for column {column!r}" if column else ""
            raise TypeMismatchError(
                f"value of length {len(text)} exceeds VARCHAR({self.length}){where}"
            )
        return text

    def __repr__(self) -> str:
        if self.length is not None:
            return f"<SQLType VARCHAR({self.length})>"
        return "<SQLType TEXT>"


class BooleanType(SQLType):
    name = "BOOLEAN"

    _TRUE = {"true", "t", "1", "yes"}
    _FALSE = {"false", "f", "0", "no"}

    def coerce(self, value: Any, column: str = "") -> bool:
        if isinstance(value, bool):
            return value
        if isinstance(value, int) and value in (0, 1):
            return bool(value)
        if isinstance(value, str):
            lowered = value.strip().lower()
            if lowered in self._TRUE:
                return True
            if lowered in self._FALSE:
                return False
        raise self._reject(value, column)


_DATE_RE = re.compile(r"^\d{4}-\d{2}-\d{2}([ T]\d{2}:\d{2}:\d{2})?$")


class DateType(SQLType):
    """DATE / DATETIME, stored as ISO-8601 strings (lexicographically
    sortable, which is all the engine needs)."""

    name = "DATE"

    def coerce(self, value: Any, column: str = "") -> str:
        if isinstance(value, str) and _DATE_RE.match(value.strip()):
            return value.strip()
        raise self._reject(value, column)


INTEGER = IntegerType()
FLOAT = FloatType()
BOOLEAN = BooleanType()
TEXT = StringType()
DATE = DateType()

_TYPE_ALIASES = {
    "INTEGER": lambda length: INTEGER,
    "INT": lambda length: INTEGER,
    "BIGINT": lambda length: INTEGER,
    "SMALLINT": lambda length: INTEGER,
    "FLOAT": lambda length: FLOAT,
    "REAL": lambda length: FLOAT,
    "DOUBLE": lambda length: FLOAT,
    "DECIMAL": lambda length: FLOAT,
    "NUMERIC": lambda length: FLOAT,
    "VARCHAR": StringType,
    "CHAR": StringType,
    "TEXT": lambda length: TEXT,
    "BOOLEAN": lambda length: BOOLEAN,
    "DATE": lambda length: DATE,
    "DATETIME": lambda length: DATE,
    "TIMESTAMP": lambda length: DATE,
}


def type_from_name(name: str, length: Optional[int] = None) -> SQLType:
    """Resolve a SQL type name (as parsed from DDL) to a :class:`SQLType`."""
    factory = _TYPE_ALIASES.get(name.upper())
    if factory is None:
        raise TypeMismatchError(f"unknown SQL type: {name}")
    return factory(length)
