"""Transactions: one journal, and constraint-check timing.

The engine supports the two constraint-checking disciplines the paper
contrasts in Section 5.1: *immediate* (the default of real RDBs — "existing
RDB systems check constraints such as referential integrity already during
a transaction", which is why Algorithm 1 sorts statements by FK
dependencies) and *deferred* (checks queued until COMMIT, the theoretical
mode under which sorting would be unnecessary).  The FK-sort ablation
benchmark exercises both.

A transaction keeps **one journal**: the code that makes a change
records it once, as one entry.  Rollback and a failed statement invert
the entries newest first, each on the table version it changed (not on
whatever has that name by then); a commit turns them into the record
the durability layer appends to the write-ahead log (see
:mod:`repro.rdb.durability`) — only when a ``data_dir`` is configured,
so in-memory databases build no record.  Records are tuples:

* ``("i", table, rowid, row)`` — inserted row image, as column -> value
  pairs in catalog order (:class:`~repro.rdb.durability.RowImage` writes
  them from the stored tuple)
* ``("u", table, rowid, changes)`` — updated columns (post-image)
* ``("d", table, rowid)`` — deleted row
* ``("x", sql)`` — a DDL statement (kept even through rollback: DDL is
  non-transactional, so a rolled-back transaction's DDL still commits)
* ``("p", epoch, generation, offset)`` — a durable replica's provenance
  note, the last entry of a replicated batch
"""

from __future__ import annotations

import threading
from typing import Any, Callable, List, Tuple

from ..errors import TransactionError
from .durability import RowImage

__all__ = ["Transaction", "IMMEDIATE", "DEFERRED"]

IMMEDIATE = "immediate"
DEFERRED = "deferred"

DeferredCheck = Callable[[], None]


class _Entry:
    """One journaled change: ``table`` is the mutated
    :class:`~repro.rdb.storage.TableData` version, ``image`` what the
    record carries (inserted row tuple, changed columns, DDL text,
    provenance) and ``prior`` what undo puts back (the old row tuple of
    an update or delete)."""

    __slots__ = ("kind", "table", "rowid", "image", "prior")

    def __init__(
        self, kind: str, table: Any, rowid: Any, image: Any, prior: Any
    ) -> None:
        self.kind, self.table, self.rowid = kind, table, rowid
        self.image, self.prior = image, prior

    def undo(self) -> None:
        if self.kind == "i":
            self.table.delete(self.rowid)
        elif self.kind == "u":
            positions = self.table.table.positions
            self.table.update(
                self.rowid, {c: self.prior[positions[c]] for c in self.image}
            )
        elif self.kind == "d":
            self.table.restore(self.rowid, self.prior)

    def record(self) -> Tuple[Any, ...]:
        if self.kind == "x":
            return ("x", self.image)
        if self.kind == "p":
            return ("p", *self.image)
        table = self.table.table
        if self.kind == "d":
            return ("d", table.name, self.rowid)
        if self.kind == "i":
            return ("i", table.name, self.rowid, RowImage(table.columns, self.image))
        return ("u", table.name, self.rowid, self.image)


class Transaction:
    """One open transaction: its journal and its deferred checks."""

    def __init__(self, mode: str = IMMEDIATE, autocommit: bool = False) -> None:
        if mode not in (IMMEDIATE, DEFERRED):
            raise TransactionError(f"unknown constraint mode: {mode!r}")
        self.mode = mode
        #: True for the transaction one autocommit statement runs in: it
        #: ends with its statement, so a reader may wait it out — the
        #: engine neither republishes before it nor clones a table to
        #: keep readers lock-free during it.
        self.autocommit = autocommit
        #: Every change so far, oldest first; its length is a statement's
        #: savepoint.
        self.journal: List[_Entry] = []
        self._deferred_checks: List[DeferredCheck] = []
        #: Thread that opened the transaction.  The engine routes reads by
        #: it: statements from the owner see the transaction's uncommitted
        #: working state, every other thread reads the committed snapshot.
        self.owner = threading.get_ident()

    def record(
        self, kind: str, table: Any, rowid: Any, image: Any, prior: Any = None
    ) -> None:
        """Journal one change; ``table`` is None for DDL (``image`` the
        statement) and for provenance (``image`` the note's fields)."""
        self.journal.append(_Entry(kind, table, rowid, image, prior))

    def wal_record(self) -> List[Tuple[Any, ...]]:
        """The journal as one write-ahead-log commit record."""
        return [entry.record() for entry in self.journal]

    def defer_check(self, check: DeferredCheck) -> None:
        """Queue a constraint check to run at commit (deferred mode)."""
        self._deferred_checks.append(check)

    def run_deferred_checks(self) -> None:
        """Run queued checks; raises the first failure (caller rolls back)."""
        for check in self._deferred_checks:
            check()
        self._deferred_checks.clear()

    def rollback(self) -> None:
        """Invert the whole journal; its DDL entries are what is left."""
        self.rollback_to(0)
        self._deferred_checks.clear()

    def rollback_to(self, savepoint: int) -> None:
        """Invert every entry after ``savepoint``, newest first (a failed
        statement); DDL entries stay, as DDL is non-transactional."""
        journal = self.journal
        ddl = [entry for entry in journal[savepoint:] if entry.kind == "x"]
        while len(journal) > savepoint:
            journal.pop().undo()
        journal += ddl

    def __repr__(self) -> str:
        return f"<Transaction mode={self.mode}, journal={len(self.journal)}>"
