"""Statement execution: SELECT pipeline and DML with constraint enforcement.

The executor operates on the engine's catalog (:mod:`repro.rdb.catalog`)
and storage (:mod:`repro.rdb.storage`).  Query planning — access-path
selection, predicate pushdown, join strategy, and per-statement expression
compilation — lives in :mod:`repro.rdb.planner`; the executor drives the
compiled plans and implements everything stateful around them:

* SELECT: runs the planned pipeline and wraps rows in a :class:`Result`;
* INSERT/UPDATE/DELETE with NOT NULL, PK/UNIQUE, and FK enforcement under
  immediate or deferred checking (see :mod:`repro.rdb.transactions`).

It never manages transactions itself; the engine passes in the active
:class:`~repro.rdb.transactions.Transaction`, whose journal gets one
entry per mutated row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..deadline import cancellation_point
from ..errors import CatalogError, DatabaseError, IntegrityError
from ..observability.metrics import EXECUTOR_ROWS
from ..sql import ast
from ..sql.render import render_expression
from .catalog import ForeignKey, Schema, Table
from .expressions import evaluate_constant
from .planner import Planner
from .storage import TableData
from .transactions import DEFERRED, Transaction
from .types import Row

__all__ = ["Result", "Executor"]

# Label children resolved once: per-statement cost is one sharded add.
_ROWS_SELECT = EXECUTOR_ROWS.labels("select")
_ROWS_INSERT = EXECUTOR_ROWS.labels("insert")
_ROWS_UPDATE = EXECUTOR_ROWS.labels("update")
_ROWS_DELETE = EXECUTOR_ROWS.labels("delete")


@dataclass
class Result:
    """Outcome of a statement: column names, rows, and affected-row count."""

    columns: List[str]
    rows: List[Tuple[Any, ...]]
    rowcount: int = 0

    def first(self) -> Optional[Tuple[Any, ...]]:
        return self.rows[0] if self.rows else None

    def scalar(self) -> Any:
        first = self.first()
        return first[0] if first else None

    def as_dicts(self) -> List[Dict[str, Any]]:
        return [dict(zip(self.columns, row)) for row in self.rows]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)


class Executor:
    """Statement interpreter over schema + storage, driven by compiled plans."""

    def __init__(
        self,
        schema: Schema,
        data: Dict[str, TableData],
        planner: Optional[Planner] = None,
        for_write: Optional[Callable[[str], TableData]] = None,
    ) -> None:
        self.schema = schema
        self.data = data
        self.planner = planner if planner is not None else Planner(schema, data)
        #: How a statement acquires the table it will *mutate*.  The
        #: engine injects its copy-on-write gate here so a published
        #: snapshot is never mutated; standalone executors (tests) fall
        #: back to the working table directly.  Reads (FK checks, scans)
        #: keep using the working store.
        self._for_write = for_write if for_write is not None else self._table_data

    # ==================================================================
    # SELECT
    # ==================================================================

    def select(
        self, stmt: ast.Select, parameters: Sequence[Any] = (), snapshot=None
    ) -> Result:
        """Run a SELECT over the working store, or over the tables of a
        published ``snapshot`` (raises :class:`StaleSnapshotError` when a
        DDL ran since it was published and no plan is cached)."""
        if snapshot is None:
            plan, tables = self.planner.plan(stmt, parameters), self.data
        else:
            plan = self.planner.plan_select_at(stmt, snapshot, parameters)
            tables = snapshot.tables
        columns, rows = plan.execute(tables, parameters)
        if rows:
            _ROWS_SELECT.inc(len(rows))
        return Result(columns=columns, rows=rows, rowcount=len(rows))

    # ==================================================================
    # DML
    # ==================================================================

    def insert(
        self,
        stmt: ast.Insert,
        txn: Transaction,
        parameters: Sequence[Any] = (),
    ) -> Result:
        table = self.schema.table(stmt.table)
        table_data = self._for_write(stmt.table)
        columns = stmt.columns or tuple(table.column_names())
        count = 0
        for row_exprs in stmt.rows:
            cancellation_point("executor:dml")
            if len(row_exprs) != len(columns):
                raise DatabaseError(
                    f"INSERT into {stmt.table!r}: {len(columns)} columns but "
                    f"{len(row_exprs)} values"
                )
            values = {
                col: evaluate_constant(expr, parameters)
                for col, expr in zip(columns, row_exprs)
            }
            self.insert_row(table, table_data, values, txn)
            count += 1
        if count:
            _ROWS_INSERT.inc(count)
        return Result(columns=[], rows=[], rowcount=count)

    def insert_row(
        self,
        table: Table,
        table_data: TableData,
        values: Dict[str, Any],
        txn: Transaction,
    ) -> int:
        """Insert one row given as column -> value: the stored row is a
        new tuple in catalog column order, its values coerced, the
        columns ``values`` omits filled from AUTOINCREMENT, DEFAULT or
        NULL."""
        for col in values:
            if not table.has_column(col):
                raise CatalogError(
                    f"no column {col!r} in table {table.name!r}"
                )
        cells: List[Any] = []
        for column in table.columns.values():
            if column.name in values:
                value = values[column.name]
                if value is not None:
                    value = column.sql_type.coerce(value, column.name)
            elif column.autoincrement:
                value = table_data.next_autoincrement(column.name)
            elif column.has_default:
                value = column.sql_type.coerce(column.default, column.name)
            else:
                value = None
            if column.autoincrement and value is not None:
                table_data.note_autoincrement_value(column.name, value)
            cells.append(value)
        row = tuple(cells)

        self._check_not_null(table, row)
        self._check_row_checks(table, row)
        self._check_fk_child(table, row, txn)
        rowid = table_data.insert(row)  # PK/UNIQUE enforced by indexes
        txn.record("i", table_data, rowid, row)
        return rowid

    def update(
        self,
        stmt: ast.Update,
        txn: Transaction,
        parameters: Sequence[Any] = (),
    ) -> Result:
        table = self.schema.table(stmt.table)
        table_data = self._for_write(stmt.table)
        plan = self.planner.plan(stmt, parameters)
        targets = plan.matching_rowids(self.data, parameters)
        count = 0
        for rowid in targets:
            cancellation_point("executor:dml")
            scope = (table_data.rows[rowid],)
            changes: Dict[str, Any] = {}
            for name, value_fn in plan.assignment_fns:
                column = table.column(name)
                value = value_fn(scope, parameters)
                changes[column.name] = (
                    None if value is None else column.sql_type.coerce(value, column.name)
                )
            self.update_row(table, table_data, rowid, changes, txn)
            count += 1
        if count:
            _ROWS_UPDATE.inc(count)
        return Result(columns=[], rows=[], rowcount=count)

    def update_row(
        self,
        table: Table,
        table_data: TableData,
        rowid: int,
        changes: Dict[str, Any],
        txn: Transaction,
    ) -> None:
        current = table_data.rows[rowid]
        new_row = table.replaced(current, changes)
        self._check_not_null(table, new_row)
        self._check_row_checks(table, new_row)
        self._check_fk_child(table, new_row, txn, changed=set(changes))
        # If a referenced (parent-side) column changes, ensure no child
        # still points at the old value (RESTRICT semantics).
        self._check_fk_parent_update(table, current, new_row, txn)
        # The journal keeps its own copy of ``changes``: it is the logged
        # post-image and what undo reverts, whatever the caller does next.
        txn.record(
            "u", table_data, rowid, dict(changes),
            table_data.update(rowid, changes),
        )

    def delete(
        self,
        stmt: ast.Delete,
        txn: Transaction,
        parameters: Sequence[Any] = (),
    ) -> Result:
        table = self.schema.table(stmt.table)
        table_data = self._for_write(stmt.table)
        plan = self.planner.plan(stmt, parameters)
        targets = plan.matching_rowids(self.data, parameters)
        count = 0
        for rowid in targets:
            cancellation_point("executor:dml")
            row = table_data.rows[rowid]
            self._check_fk_parent_delete(table, row, txn)
            txn.record("d", table_data, rowid, None, table_data.delete(rowid))
            count += 1
        if count:
            _ROWS_DELETE.inc(count)
        return Result(columns=[], rows=[], rowcount=count)

    # ==================================================================
    # constraint checks
    # ==================================================================

    def _check_not_null(self, table: Table, row: Row) -> None:
        for column, value in zip(table.columns.values(), row):
            mandatory = column.not_null or column.name in table.primary_key
            if mandatory and value is None:
                raise IntegrityError(
                    f"NOT NULL violation: {table.name}.{column.name}",
                    constraint="not null",
                    table=table.name,
                    column=column.name,
                )

    def _check_row_checks(self, table: Table, row: Row) -> None:
        """CHECK constraints: NULL results pass (SQL semantics), False
        fails."""
        for expression, check in zip(table.checks, table.compiled_checks):
            if check((row,), ()) is False:
                raise IntegrityError(
                    f"CHECK constraint violated on {table.name!r}: "
                    f"{render_expression(expression)}",
                    constraint="check",
                    table=table.name,
                )

    def _check_fk_child(
        self,
        table: Table,
        row: Row,
        txn: Transaction,
        changed: Optional[Set[str]] = None,
    ) -> None:
        """The row's FK values must exist in their parent tables."""
        for fk in table.foreign_keys:
            if changed is not None and not (set(fk.columns) & changed):
                continue
            check = self._fk_child_check(table, fk, row)
            if txn.mode == DEFERRED:
                txn.defer_check(check)
            else:
                check()

    def _fk_child_check(
        self, table: Table, fk: ForeignKey, row: Row
    ) -> Callable[[], None]:
        def check() -> None:
            values = tuple([row[table.positions[c]] for c in fk.columns])
            if any(v is None for v in values):
                return  # NULL FK components never violate
            parent = self.schema.table(fk.ref_table)
            ref_columns = tuple(fk.ref_columns or parent.primary_key)
            if not self._table_data(fk.ref_table).has_key(ref_columns, values):
                raise IntegrityError(
                    f"foreign key violation: {table.name}."
                    f"{','.join(fk.columns)} = {values!r} has no match in "
                    f"{fk.ref_table}",
                    constraint="foreign key",
                    table=table.name,
                    column=fk.columns[0],
                )

        return check

    def _check_fk_parent_delete(
        self, table: Table, row: Row, txn: Transaction
    ) -> None:
        """RESTRICT: a row being deleted must not be referenced anymore."""
        for child, fk in self.schema.referencing_tables(table.name):
            ref_columns = tuple(fk.ref_columns or table.primary_key)
            values = tuple([row[table.positions[c]] for c in ref_columns])
            if any(v is None for v in values):
                continue
            check = self._fk_parent_check(child, fk, ref_columns, values)
            if txn.mode == DEFERRED:
                txn.defer_check(check)
            else:
                check()

    def _check_fk_parent_update(
        self, table: Table, old_row: Row, new_row: Row, txn: Transaction
    ) -> None:
        for child, fk in self.schema.referencing_tables(table.name):
            ref_columns = tuple(fk.ref_columns or table.primary_key)
            positions = [table.positions[c] for c in ref_columns]
            old_values = tuple([old_row[p] for p in positions])
            new_values = tuple([new_row[p] for p in positions])
            if old_values == new_values or any(v is None for v in old_values):
                continue
            check = self._fk_parent_check(child, fk, ref_columns, old_values)
            if txn.mode == DEFERRED:
                txn.defer_check(check)
            else:
                check()

    def _fk_parent_check(
        self,
        child: Table,
        fk: ForeignKey,
        ref_columns: Tuple[str, ...],
        values: Tuple[Any, ...],
    ) -> Callable[[], None]:
        def check() -> None:
            if self._table_data(child.name).has_key(tuple(fk.columns), values):
                raise IntegrityError(
                    f"foreign key violation: rows in {child.name!r} still "
                    f"reference {fk.ref_table}.{','.join(ref_columns)} = "
                    f"{values!r}",
                    constraint="foreign key",
                    table=child.name,
                    column=fk.columns[0],
                )

        return check

    # ==================================================================

    def _table_data(self, name: str) -> TableData:
        try:
            return self.data[name]
        except KeyError:
            raise CatalogError(f"no such table: {name!r}") from None
