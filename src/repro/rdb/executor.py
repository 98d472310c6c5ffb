"""Statement execution: SELECT pipeline and DML with constraint enforcement.

The executor operates on the engine's catalog (:mod:`repro.rdb.catalog`)
and storage (:mod:`repro.rdb.storage`).  Planning and the per-row work
of every statement kind live in :mod:`repro.rdb.planner`, as code
generated once per statement shape: a SELECT's pipeline, an UPDATE's or
DELETE's row selection, and the row write of INSERT, UPDATE and DELETE
— coercion, NOT NULL, CHECK and FK enforcement under immediate or
deferred checking (see :mod:`repro.rdb.transactions`), PK/UNIQUE in
storage.  An INSERT is planned like the others; its literal values are
no part of its plan, which reads them from the statement it executes.
The executor drives the plans and does what is stateful around them:

* SELECT: runs the planned pipeline and wraps rows in a :class:`Result`;
* INSERT/UPDATE/DELETE: hands the plan the table version it may mutate
  (the engine's copy-on-write gate) and counts the rows written.

It never manages transactions itself; the engine passes in the active
:class:`~repro.rdb.transactions.Transaction`, whose journal gets one
entry per mutated row.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..observability.metrics import EXECUTOR_ROWS
from ..sql import ast
from .catalog import Schema
from .planner import Planner, _table_data
from .storage import TableData
from .transactions import Transaction

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
    """Runs each statement's compiled plan over schema + storage."""

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
        self._for_write = (
            for_write if for_write is not None else partial(_table_data, data)
        )

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
    # DML: each statement's plan writes its rows (see the planner)
    # ==================================================================

    def insert(
        self,
        stmt: ast.Insert,
        txn: Transaction,
        parameters: Sequence[Any] = (),
    ) -> Result:
        plan = self.planner.plan(stmt)
        plan.write(stmt.rows, parameters, self._for_write(stmt.table), self.data, txn)
        _ROWS_INSERT.inc(len(stmt.rows))
        return Result(columns=[], rows=[], rowcount=len(stmt.rows))

    def update(
        self,
        stmt: ast.Update,
        txn: Transaction,
        parameters: Sequence[Any] = (),
    ) -> Result:
        return self._change(stmt, txn, parameters, _ROWS_UPDATE)

    def delete(
        self,
        stmt: ast.Delete,
        txn: Transaction,
        parameters: Sequence[Any] = (),
    ) -> Result:
        return self._change(stmt, txn, parameters, _ROWS_DELETE)

    def _change(
        self,
        stmt: Union[ast.Update, ast.Delete],
        txn: Transaction,
        parameters: Sequence[Any],
        counter: Any,
    ) -> Result:
        table_data = self._for_write(stmt.table)
        plan = self.planner.plan(stmt, parameters)
        targets = plan.matching_rowids(self.data, parameters)
        plan.write(targets, parameters, table_data, self.data, txn)
        if targets:
            counter.inc(len(targets))
        return Result(columns=[], rows=[], rowcount=len(targets))
