"""Transactions: undo logging and constraint-check timing.

The engine supports the two constraint-checking disciplines the paper
contrasts in Section 5.1: *immediate* (the default of real RDBs — "existing
RDB systems check constraints such as referential integrity already during
a transaction", which is why Algorithm 1 sorts statements by FK
dependencies) and *deferred* (checks queued until COMMIT, the theoretical
mode under which sorting would be unnecessary).  The FK-sort ablation
benchmark exercises both.

Rollback is implemented with an undo log of closures run in reverse order.

Alongside the undo log, a transaction may collect a **redo change list**
— the logical row images and DDL the durability layer appends to the
write-ahead log at commit (see :mod:`repro.rdb.durability`).  Collection
is opt-in (``log_changes=True``, set by the engine when a ``data_dir``
is configured) so in-memory databases pay nothing.  Changes are tuples:

* ``("i", table, rowid, row)`` — inserted row image
* ``("u", table, rowid, changes)`` — updated columns (post-image)
* ``("d", table, rowid)`` — deleted row
* ``("x", sql)`` — a DDL statement (kept even through rollback: DDL is
  non-transactional, so a rolled-back transaction's DDL still commits)
"""

from __future__ import annotations

import threading
from typing import Any, Callable, List, Tuple

from ..errors import TransactionError

__all__ = ["Transaction", "IMMEDIATE", "DEFERRED"]

IMMEDIATE = "immediate"
DEFERRED = "deferred"

UndoAction = Callable[[], None]
DeferredCheck = Callable[[], None]
Change = Tuple[Any, ...]


class Transaction:
    """One open transaction: undo log, redo changes, deferred checks."""

    def __init__(
        self,
        mode: str = IMMEDIATE,
        log_changes: bool = False,
        autocommit: bool = False,
    ) -> None:
        if mode not in (IMMEDIATE, DEFERRED):
            raise TransactionError(f"unknown constraint mode: {mode!r}")
        self.mode = mode
        #: True for the transaction one autocommit statement runs in: it
        #: ends with its statement, so a reader may wait it out — the
        #: engine neither republishes before it nor clones a table to
        #: keep readers lock-free during it.
        self.autocommit = autocommit
        self._undo_log: List[UndoAction] = []
        self._deferred_checks: List[DeferredCheck] = []
        self.active = True
        #: When True, mutation paths record logical redo changes for the
        #: write-ahead log; False keeps pure in-memory transactions free.
        self.log_changes = log_changes
        self.changes: List[Change] = []
        #: Thread that opened the transaction.  The engine routes reads by
        #: it: statements from the owner see the transaction's uncommitted
        #: working state, every other thread reads the committed snapshot.
        self.owner = threading.get_ident()

    def record_undo(self, action: UndoAction) -> None:
        self._require_active()
        self._undo_log.append(action)

    def record_change(self, change: Change) -> None:
        """Note one logical change for the WAL (no-op unless enabled)."""
        if self.log_changes:
            self.changes.append(change)

    def ddl_changes(self) -> List[Change]:
        """The DDL subset of the change list — what must still reach the
        WAL when the transaction rolls back."""
        return [change for change in self.changes if change[0] == "x"]

    def defer_check(self, check: DeferredCheck) -> None:
        """Queue a constraint check to run at commit (deferred mode)."""
        self._require_active()
        self._deferred_checks.append(check)

    def run_deferred_checks(self) -> None:
        """Run queued checks; raises the first failure (caller rolls back)."""
        for check in self._deferred_checks:
            check()
        self._deferred_checks.clear()

    def rollback(self) -> None:
        self._require_active()
        while self._undo_log:
            self._undo_log.pop()()
        self._deferred_checks.clear()
        self.active = False

    def commit_cleanup(self) -> None:
        self._require_active()
        self._undo_log.clear()
        self.active = False

    def statement_savepoint(self) -> Tuple[int, int]:
        """Mark the current undo/redo position (statement-level atomicity)."""
        return (len(self._undo_log), len(self.changes))

    def rollback_to(self, savepoint: Tuple[int, int]) -> None:
        """Undo everything after ``savepoint`` (failed-statement recovery)."""
        self._require_active()
        undo_mark, change_mark = savepoint
        while len(self._undo_log) > undo_mark:
            self._undo_log.pop()()
        del self.changes[change_mark:]

    def _require_active(self) -> None:
        if not self.active:
            raise TransactionError("transaction is no longer active")

    def __repr__(self) -> str:
        state = "active" if self.active else "closed"
        return f"<Transaction {state}, mode={self.mode}, undo={len(self._undo_log)}>"
