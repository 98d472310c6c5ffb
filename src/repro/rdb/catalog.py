"""System catalog: table and constraint metadata.

The catalog is the engine's authoritative description of the schema and is
also what :mod:`repro.r3m.generator` introspects to auto-generate a basic
R3M mapping (paper Section 4, last paragraph).

Constraint kinds match the four the paper's mapping language records:
primary key, foreign key, NOT NULL, and DEFAULT (plus UNIQUE, which the
engine supports and the mapping treats like an unconstrained attribute).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from ..errors import CatalogError
from ..sql import ast as sql_ast
from .expressions import ScopeLayout, compile_expression
from .types import Row, SQLType

__all__ = ["Column", "ForeignKey", "Index", "Table", "Schema"]


@dataclass
class Column:
    """One column with its type and column-level constraints."""

    name: str
    sql_type: SQLType
    not_null: bool = False
    default: Any = None
    has_default: bool = False
    autoincrement: bool = False

    def __post_init__(self) -> None:
        if self.default is not None:
            self.has_default = True


@dataclass
class ForeignKey:
    """A (possibly composite) foreign key constraint."""

    columns: Tuple[str, ...]
    ref_table: str
    ref_columns: Tuple[str, ...]


@dataclass
class Index:
    """An index declared via ``CREATE [UNIQUE] INDEX``: a name for a
    requirement on the table's index set (see
    :meth:`Table.required_indexes`), not a structure of its own."""

    name: str
    table: str
    columns: Tuple[str, ...]
    unique: bool = False


class Table:
    """Schema metadata for one table."""

    def __init__(
        self,
        name: str,
        columns: List[Column],
        primary_key: Tuple[str, ...] = (),
        foreign_keys: Optional[List[ForeignKey]] = None,
        uniques: Optional[List[Tuple[str, ...]]] = None,
        checks: Optional[List["sql_ast.Expression"]] = None,
    ) -> None:
        if not columns:
            raise CatalogError(f"table {name!r} must have at least one column")
        self.name = name
        self.columns: Dict[str, Column] = {}
        for column in columns:
            if column.name in self.columns:
                raise CatalogError(
                    f"duplicate column {column.name!r} in table {name!r}"
                )
            self.columns[column.name] = column
        #: Column name -> its position in every row of the table.  Fixed
        #: for the table's life: there is no ALTER TABLE.
        self.positions: Dict[str, int] = {
            name: position for position, name in enumerate(self.columns)
        }
        self.primary_key = tuple(primary_key)
        self.foreign_keys = list(foreign_keys or [])
        self.uniques = [tuple(u) for u in (uniques or [])]
        #: CHECK constraint expressions, evaluated per row on INSERT/UPDATE
        #: (paper Section 8 names assertions as future work; CHECK is the
        #: per-row form we support).
        self.checks = list(checks or [])
        self._validate_column_lists()
        #: ``checks`` compiled once, here, against this table's row layout
        #: (so a CHECK naming an unknown column fails the CREATE TABLE).
        layout = ScopeLayout([(name, self.columns)])
        self.compiled_checks = [
            compile_expression(check, layout) for check in self.checks
        ]

    def _validate_column_lists(self) -> None:
        for col in self.primary_key:
            if col not in self.columns:
                raise CatalogError(
                    f"primary key column {col!r} not in table {self.name!r}"
                )
        for fk in self.foreign_keys:
            for col in fk.columns:
                if col not in self.columns:
                    raise CatalogError(
                        f"foreign key column {col!r} not in table {self.name!r}"
                    )
        for unique in self.uniques:
            for col in unique:
                if col not in self.columns:
                    raise CatalogError(
                        f"unique column {col!r} not in table {self.name!r}"
                    )

    # -- lookups ------------------------------------------------------------

    def column(self, name: str) -> Column:
        try:
            return self.columns[name]
        except KeyError:
            raise CatalogError(
                f"no column {name!r} in table {self.name!r}"
            ) from None

    def column_names(self) -> List[str]:
        return list(self.columns)

    def row_from(self, values: Mapping[str, Any]) -> Row:
        """The row holding ``values`` (column -> value, as the write-ahead
        log and checkpoints carry it); a column it omits is NULL."""
        return tuple(map(values.get, self.columns))

    def replaced(self, row: Row, changes: Mapping[str, Any]) -> Row:
        """``row`` with the columns ``changes`` names set to its values."""
        new = list(row)
        positions = self.positions
        for name, value in changes.items():
            new[positions[name]] = value
        return tuple(new)

    def has_column(self, name: str) -> bool:
        return name in self.columns

    def is_primary_key(self, name: str) -> bool:
        return name in self.primary_key

    def foreign_key_for(self, column: str) -> Optional[ForeignKey]:
        """Return the single-column FK on ``column`` if one exists."""
        for fk in self.foreign_keys:
            if fk.columns == (column,):
                return fk
        return None

    def referenced_tables(self) -> List[str]:
        return [fk.ref_table for fk in self.foreign_keys]

    def required_indexes(
        self,
        referencing: Iterable[ForeignKey] = (),
        declared: Iterable[Index] = (),
    ) -> Dict[Tuple[str, ...], Tuple[Optional[str], bool]]:
        """The indexes this table's storage must keep, as column tuple ->
        (constraint label, or None for a grouped index; ordered?) — the
        one rule for which indexes exist, a pure function of the catalog:

        * unique over the PRIMARY KEY, each UNIQUE constraint and each
          ``declared`` index that is unique, in that order (the order a
          duplicate is reported in; the first label wins where several
          cover the same columns);
        * grouped over the columns of each foreign key (the parent-side
          RESTRICT probe), over the columns each of the ``referencing``
          foreign keys of other tables points at (the child-side
          existence probe) and over each declared ``CREATE INDEX`` —
          unless a unique index over the same columns already answers;
        * ordered when a declared index is over that one column.
        """
        unique: Dict[Tuple[str, ...], str] = {}
        if self.primary_key:
            unique[self.primary_key] = "primary key"
        for columns in self.uniques:
            unique.setdefault(columns, "unique")
        for index in declared:
            if index.unique:
                unique.setdefault(index.columns, "unique index")
        grouped = [tuple(fk.columns) for fk in self.foreign_keys]
        grouped += [tuple(fk.ref_columns or self.primary_key) for fk in referencing]
        grouped += [index.columns for index in declared]
        ordered = {index.columns for index in declared if len(index.columns) == 1}
        return {
            columns: (unique.get(columns), columns in ordered)
            for columns in chain(unique, grouped)
        }

    def __repr__(self) -> str:
        return f"<Table {self.name} ({', '.join(self.columns)})>"


class Schema:
    """The set of tables in a database."""

    def __init__(self) -> None:
        self._tables: Dict[str, Table] = {}
        #: CREATE INDEX registry: index name -> metadata (names are
        #: schema-global, as in most SQL dialects).
        self._indexes: Dict[str, Index] = {}

    def add(self, table: Table) -> None:
        if table.name in self._tables:
            raise CatalogError(f"table {table.name!r} already exists")
        self._tables[table.name] = table

    def drop(self, name: str) -> Table:
        # Refuse to drop a table that another table references.
        for other in self._tables.values():
            if other.name == name:
                continue
            if name in other.referenced_tables():
                raise CatalogError(
                    f"cannot drop table {name!r}: referenced by {other.name!r}"
                )
        try:
            table = self._tables.pop(name)
        except KeyError:
            raise CatalogError(f"no such table: {name!r}") from None
        # The dropped table's declared indexes go with it.
        for index_name in [
            n for n, idx in self._indexes.items() if idx.table == name
        ]:
            del self._indexes[index_name]
        return table

    # -- CREATE INDEX registry ----------------------------------------------

    def add_index(self, index: Index) -> None:
        if index.name in self._indexes:
            raise CatalogError(f"index {index.name!r} already exists")
        table = self.table(index.table)
        for col in index.columns:
            if not table.has_column(col):
                raise CatalogError(
                    f"no column {col!r} in table {index.table!r}"
                )
        self._indexes[index.name] = index

    def drop_index(self, name: str) -> Index:
        try:
            return self._indexes.pop(name)
        except KeyError:
            raise CatalogError(f"no such index: {name!r}") from None

    def has_index(self, name: str) -> bool:
        return name in self._indexes

    def index(self, name: str) -> Index:
        try:
            return self._indexes[name]
        except KeyError:
            raise CatalogError(f"no such index: {name!r}") from None

    def indexes_for(self, table: str) -> List[Index]:
        return [idx for idx in self._indexes.values() if idx.table == table]

    def required_indexes(
        self, name: str
    ) -> Dict[Tuple[str, ...], Tuple[Optional[str], bool]]:
        """:meth:`Table.required_indexes` of table ``name`` given every
        foreign key that points at it and every index declared for it."""
        return self.table(name).required_indexes(
            [fk for _, fk in self.referencing_tables(name)],
            self.indexes_for(name),
        )

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError(f"no such table: {name!r}") from None

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def table_names(self) -> List[str]:
        return list(self._tables)

    def tables(self) -> List[Table]:
        return list(self._tables.values())

    def referencing_tables(self, name: str) -> List[Tuple[Table, ForeignKey]]:
        """All (table, fk) pairs whose foreign key points at ``name``."""
        result = []
        for table in self._tables.values():
            for fk in table.foreign_keys:
                if fk.ref_table == name:
                    result.append((table, fk))
        return result

    def validate_foreign_keys(self) -> None:
        """Check every FK references an existing table/columns.

        Called after DDL so self-references and cycles among tables created
        in any order are allowed (the paper's schema has no cycles, but the
        engine should not assume that).
        """
        for table in self._tables.values():
            for fk in table.foreign_keys:
                if not self.has_table(fk.ref_table):
                    raise CatalogError(
                        f"table {table.name!r}: foreign key references "
                        f"unknown table {fk.ref_table!r}"
                    )
                target = self.table(fk.ref_table)
                ref_columns = fk.ref_columns or target.primary_key
                if len(ref_columns) != len(fk.columns):
                    raise CatalogError(
                        f"table {table.name!r}: foreign key column count "
                        f"mismatch against {fk.ref_table!r}"
                    )
                for col in ref_columns:
                    if not target.has_column(col):
                        raise CatalogError(
                            f"table {table.name!r}: foreign key references "
                            f"unknown column {fk.ref_table}.{col}"
                        )
