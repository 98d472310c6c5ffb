"""The database facade: DDL, DML, queries, and transaction control.

:class:`Database` is the substrate standing in for the paper's MySQL
instance.  Usage::

    db = Database()
    db.execute("CREATE TABLE team (id INTEGER PRIMARY KEY, name VARCHAR(100))")
    db.execute("INSERT INTO team (id, name) VALUES (4, 'Database Technology')")
    result = db.query("SELECT name FROM team WHERE id = 4")

Statements run in autocommit mode unless a transaction is opened with
:meth:`Database.begin` / ``BEGIN`` or the :meth:`Database.transaction`
context manager.  ``constraint_mode`` selects immediate (default) or
deferred FK checking — the knob the FK-sort ablation turns.

Concurrency model (MVCC reads, single writer)
---------------------------------------------

Writers serialize on one exclusive reentrant lock, the writer lock, held
for the duration of a transaction — an autocommit statement runs as a
one-statement transaction, by the same begin / commit / rollback steps —
and mutate the working store in place, each change recorded once in the
transaction's journal (:mod:`repro.rdb.transactions`).  Readers never take
that lock: each SELECT runs against the :class:`DatabaseSnapshot` current
at its start — an immutable table map published at commit boundaries —
so N reader threads proceed concurrently with each other and with at most
one writer.  A thread that owns the open transaction reads the working
store instead (read-your-own-writes).

Publication is eager but cheap — a shallow copy of the
name→:class:`~repro.rdb.storage.TableData` map at every commit point and
at ``begin()``, so a committed snapshot always exists (including the
initial empty one).  The first write after a snapshot has been
*consumed* by a reader clones the touched table so the snapshot stays
frozen; from the first consumed snapshot on, readers never wait, even
mid-transaction.  A clone copies page directories, not rows (O(rows /
page size) pointers), and the write that follows copies only the pages
it touches, so a write after a read costs O(changes) plus that
directory copy — both versions share every other page (see
:mod:`repro.rdb.storage`).  Snapshots nobody ever read are still
discarded instead of cloned: a version nobody shares mutates its pages
in place, so write-only workloads and bulk loads publish but never copy
a page.  That leaves one narrow wait: on a database *no reader has ever
consumed from*, a reader arriving mid-transaction after that
transaction's first write blocks until its commit (once; the consumed
snapshot it then takes flips the database to the clone discipline for
good).

Indexes (derived, never tracked)
--------------------------------

Which indexes a table's storage keeps is a pure function of the catalog
(:meth:`repro.rdb.catalog.Schema.required_indexes`): its PRIMARY KEY and
UNIQUE constraints, both sides of every foreign key, and what ``CREATE
[UNIQUE] INDEX`` registered.  DDL changes the catalog and then syncs the
tables whose requirement it touched (:meth:`Database._sync_indexes`) —
the child's *and the parent's* — through the copy-on-write gate, so no
statement builds an index on a version a reader may hold, and no read
path builds one at all.  Indexes are not persisted: DDL replays, rows
restore, indexes follow.

Durability (opt-in)
-------------------

``Database(data_dir=...)`` makes the store survive its process: every
committed transaction's journal is appended, as one record, to a
CRC-checksummed write-ahead log *inside the writer lock, before the
snapshot is published*, and the durability wait (one ``fsync`` absorbing
all concurrent committers — group commit) happens after the lock is
released.  :meth:`Database.checkpoint` serializes the published snapshot
and truncates the log; opening the same ``data_dir`` again recovers the
committed prefix exactly.  See :mod:`repro.rdb.durability`.

A replica applies each shipped commit batch as a transaction of its own
(:meth:`Database.apply_replicated`): the same begin / commit / rollback
steps, so a batch that fails part-way rolls back and applies again when
it is sent again.
"""

from __future__ import annotations

import threading
import weakref
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Union

from ..errors import (
    CatalogError,
    DatabaseError,
    DurabilityError,
    ReadOnlyDatabaseError,
    TransactionError,
)
from ..observability.tracing import analyze_scope
from ..sql import ast
from ..sql.parser import parse_statements
from ..sql.render import render
from .catalog import Column, ForeignKey, Index, Schema, Table
from .durability import SYNC_FSYNC, DurabilityManager, LazyList
from .executor import Executor, Result
from .expressions import evaluate_constant
from .planner import Planner, StaleSnapshotError
from .storage import TableData
from .transactions import DEFERRED, IMMEDIATE, Transaction
from .types import type_from_name

__all__ = ["Database", "DatabaseSnapshot"]


def _checkpoint_rows(table_data: TableData) -> LazyList:
    """One frozen table's ``[rowid, row]`` pairs in row-id order (the
    order its pages are scanned in), for a checkpoint body — produced as
    the encoder asks for them, so nothing is allocated per table."""
    return LazyList(
        len(table_data),
        ([rowid, row] for rowid, row in table_data.scan()),
    )


def _reinstate(table_data: TableData, rowid: int, row: Dict[str, Any]) -> None:
    """Put one logged row back under its own id (checkpoint load, WAL
    replay): the row-id and auto-increment counters move past it."""
    table_data.restore(rowid, row)
    if rowid >= table_data._next_rowid:
        table_data._next_rowid = rowid + 1
    for column in table_data._autoincrement_next:
        value = row.get(column)
        if value is not None:
            table_data.note_autoincrement_value(column, value)


class DatabaseSnapshot:
    """An immutable view of committed state at one state version.

    ``tables`` maps table names to frozen :class:`TableData` objects; the
    planner's compiled plans execute against it exactly like against the
    working store.  ``generation`` is the planner generation the snapshot
    was published under — plans are cached per generation, so a plan is
    always costed and executed against structurally matching tables.

    ``consumed``/``retired`` implement the copy-on-write handshake with
    writers (see :meth:`Database.snapshot`): a snapshot handed to a reader
    is cloned away from before mutation; one nobody read is discarded.
    """

    __slots__ = ("tables", "version", "generation", "consumed", "retired")

    def __init__(
        self, tables: Dict[str, TableData], version: tuple, generation: int
    ) -> None:
        self.tables = tables
        self.version = version
        self.generation = generation
        self.consumed = False
        self.retired = False

    def consume(self) -> None:
        """Mark the snapshot as handed to a reader.

        Pins every referenced table *before* publishing the consumed
        flag: later publications share untouched tables with this
        snapshot, so the writer-side copy-on-write gate must keep seeing
        that a reader may hold them even after this snapshot stops being
        the latest one (the pin outlives the snapshot; only a clone
        clears it).
        """
        if not self.consumed:
            for table_data in self.tables.values():
                table_data._cow_pinned = True
            self.consumed = True


class Database:
    """An in-memory relational database with SQL interface."""

    def __init__(
        self,
        constraint_mode: str = IMMEDIATE,
        data_dir: Optional[str] = None,
        sync_mode: str = SYNC_FSYNC,
    ) -> None:
        if constraint_mode not in (IMMEDIATE, DEFERRED):
            raise TransactionError(f"unknown constraint mode: {constraint_mode!r}")
        self.constraint_mode = constraint_mode
        self.schema = Schema()
        self.data: Dict[str, TableData] = {}
        #: Statement planner with an LRU plan cache; DDL invalidates it.
        self.planner = Planner(self.schema, self.data)
        # The executor reaches the copy-on-write gate through a weak
        # reference: a bound method would tie the database into a cycle
        # with its own executor, freed only by the cycle collector.
        this = weakref.proxy(self)
        self.executor = Executor(
            self.schema, self.data, self.planner,
            for_write=lambda name: this._writable(name),
        )
        self._txn: Optional[Transaction] = None
        #: Count of statements executed (used by benchmarks).  Updated
        #: without locking; concurrent readers may lose increments — it is
        #: a diagnostic, never a correctness input.
        self.statements_executed = 0
        #: Monotonic counters identifying the visible state: the snapshot
        #: freshness test compares them, and prepared queries
        #: (:mod:`repro.core.backend`) key their pattern translation on
        #: ``schema_version``.  ``data_version`` bumps whenever row data
        #: may have changed (DML that affected rows, rollback), and
        #: ``schema_version`` bumps on DDL.  Over-bumping is safe (it only
        #: forces a republish or a re-translation); missing a bump would
        #: not be.
        self.data_version = 0
        self.schema_version = 0
        #: Exclusive writer lock, the only lock a write takes: held from
        #: begin to commit / rollback (an autocommit DML/DDL statement is
        #: a one-statement transaction).  Readers never take it when a
        #: fresh snapshot is published (commit points republish eagerly).
        self._write_lock = threading.RLock()
        #: state_version() at the last commit point.  During an open
        #: transaction it keeps the pre-transaction value, which is what
        #: makes the published snapshot test as fresh for readers.
        self._committed_version: tuple = (0, 0)
        #: The currently published committed snapshot.  Never None at a
        #: commit point: the initial (empty) snapshot is published here,
        #: so a reader arriving before the first commit — even one
        #: arriving mid-first-transaction — finds committed state instead
        #: of waiting.  Briefly None inside a writer's critical section
        #: after an unconsumed snapshot is discarded.
        self._snapshot: Optional[DatabaseSnapshot] = DatabaseSnapshot(
            {}, self._committed_version, self.planner.generation
        )
        #: True once any reader has consumed a snapshot — from then on an
        #: open transaction clones the tables the published snapshot
        #: references (keeping concurrent readers lock-free) instead of
        #: discarding it (which would make a mid-transaction reader wait
        #: for the commit).  Never-read databases keep the cheap discard.
        self._snapshots_active = False
        #: Rendered DDL statements in execution order — replayed by
        #: checkpoint load to rebuild the schema catalog and index
        #: definitions exactly (index *structures* rebuild from rows).
        self._ddl_history: List[str] = []
        #: WAL + checkpoint owner; None keeps the database purely
        #: in-memory.
        self._durability: Optional[DurabilityManager] = None
        #: Failover (ISSUE 9): a replica or a fenced (deposed) primary
        #: refuses client writes.
        self.read_only = False
        #: True while recovery, a snapshot reset or a replicated batch
        #: re-executes already-logged changes through the normal
        #: execution paths (see :meth:`_replay`): they bypass
        #: ``read_only``, and what commits inside the scope appends
        #: nothing to the WAL (a replicated batch commits outside it).
        self._replaying = False
        #: Semi-sync replication barrier: called with each commit's
        #: ``(generation, offset)`` WAL position after the local fsync
        #: wait, outside the writer lock.  If it raises, the commit call
        #: fails even though the commit is locally durable (documented
        #: semi-sync semantics).  Set by the log shipper.
        self.commit_barrier: Optional[Callable[[tuple], None]] = None
        #: Replica-side provenance: the highest shipped position/epoch
        #: applied into this store.  On a *durable* replica both are
        #: journaled (change kind ``"p"``) and checkpointed, so a
        #: restart resumes the stream exactly where it left off.
        self.replicated_position: Optional[tuple] = None
        self.replicated_epoch = 0
        if data_dir is not None:
            self._durability = DurabilityManager(data_dir, sync_mode)
            self._recover()

    # ------------------------------------------------------------------
    # durability: recovery, WAL logging, checkpoints
    # ------------------------------------------------------------------

    def _recover(self) -> None:
        """Load the newest checkpoint and replay the WAL tail (startup)."""
        assert self._durability is not None
        with self._replay():
            body, batches = self._durability.recover()
            if body is not None:
                self._load_checkpoint_body(body)
            for changes in batches:
                note = self._apply_changes(changes)
                if note is not None:
                    # Durable replica: the shipped position this batch
                    # brought the store up to.
                    _, epoch, generation, offset = note
                    self.replicated_epoch = max(self.replicated_epoch, epoch)
                    self.replicated_position = (generation, offset)
        self._mark_committed()

    @contextmanager
    def _replay(self) -> Iterator[None]:
        """Scope in which already-logged changes are re-executed:
        recovery, a shipped batch, a snapshot reset."""
        was_replaying = self._replaying
        self._replaying = True
        try:
            yield
        finally:
            self._replaying = was_replaying

    def _load_checkpoint_body(self, body: Dict[str, Any]) -> None:
        """Rebuild schema from the checkpoint's DDL history, then bulk
        load the row images (indexes rebuild as rows are restored)."""
        for sql in body["ddl"]:
            self.execute(sql)
        for name, payload in body["tables"].items():
            table_data = self.table_data(name)
            for rowid, row in payload["rows"]:
                _reinstate(table_data, rowid, row)
            table_data._next_rowid = max(
                table_data._next_rowid, payload["next_rowid"]
            )
            for column_name, value in payload["autoincrement"].items():
                table_data._autoincrement_next[column_name] = max(
                    table_data._autoincrement_next.get(column_name, 1), value
                )
        repl = body.get("repl")
        if repl:
            self.replicated_epoch = max(self.replicated_epoch, repl[0])
            self.replicated_position = (repl[1][0], repl[1][1])
        self.data_version += 1

    def _apply_changes(
        self, changes: List[Any], txn: Optional[Transaction] = None
    ) -> Optional[tuple]:
        """Apply one committed batch physically, by row id — apply order
        equals commit order, so the storage layer converges to exactly
        the state that logged the batch.

        Recovery, which runs single-threaded, passes no ``txn``: rows go
        straight into the tables.  A replica, which applies while serving
        snapshot reads, passes the batch's transaction: rows go through
        the :meth:`_writable` copy-on-write gate into its journal.
        Returns the batch's provenance note ``("p", epoch, generation,
        offset)`` if it carries one — what it means is the caller's
        business.
        """
        if txn is None:
            table_for, record = self.table_data, lambda *entry: None
        else:
            table_for, record = self._writable, txn.record
        provenance = None
        for change in changes:
            kind = change[0]
            if kind == "x":
                # Rendered DDL replays through the normal path (plan
                # cache invalidation; on a replica, the batch's journal).
                self.execute(change[1])
            elif kind == "i":
                table = table_for(change[1])
                _reinstate(table, change[2], change[3])
                record("i", table, change[2], change[3])
            elif kind == "u":
                table = table_for(change[1])
                old = table.update(change[2], change[3])
                record("u", table, change[2], change[3], old)
            elif kind == "d":
                table = table_for(change[1])
                record("d", table, change[2], None, table.delete(change[2]))
            elif kind == "p":
                provenance = change
            else:
                raise DurabilityError(
                    f"corrupt commit batch: unknown change kind {kind!r}"
                )
        self.data_version += 1
        return provenance

    def _log(self, txn: Transaction) -> Optional[Any]:
        """Append ``txn``'s journal to the WAL as one commit record
        (writer lock held; before the snapshot is published).  Returns
        the durability token to pass to :meth:`wait_durable` after the
        lock is released."""
        if self._durability is None or self._replaying or not txn.journal:
            return None
        return self._durability.log_commit(txn.wal_record())

    def wait_durable(self, token: Optional[Any]) -> None:
        """Block until the batch behind ``token`` (from :meth:`_log` /
        ``commit(wait=False)``; None is a no-op) is durable.  Runs
        WITHOUT the writer lock, so concurrent committers share one
        fsync (group commit) instead of serializing device flushes.  The
        :attr:`commit_barrier` runs after the local wait, still outside
        the lock."""
        if token is not None:
            assert self._durability is not None
            self._durability.wait_durable(token)
            barrier = self.commit_barrier
            if barrier is not None:
                barrier((token[2], token[1]))

    def _check_writable_db(self) -> None:
        """Refuse client writes on a read-only database (replica mode or
        a fenced, deposed primary).  Callers hold the writer lock, so
        the flag cannot flip mid-statement; replication apply and
        recovery replay bypass it (:meth:`_replay`)."""
        if self.read_only and not self._replaying:
            raise ReadOnlyDatabaseError(
                "database is read-only (replica or deposed primary); "
                "route writes to the current primary"
            )

    def checkpoint(self) -> Optional[str]:
        """Serialize the committed state and truncate the WAL.

        Under the writer lock: consume a published snapshot (freezing
        every table via the copy-on-write pin) and rotate the WAL to a
        fresh segment.  Outside the lock: serialize the frozen snapshot
        to a temp file and atomically rename it into place — concurrent
        commits keep appending to the new segment meanwhile.  Returns the
        checkpoint path, or None when the database has no ``data_dir``.
        """
        if self._durability is None:
            return None
        with self._write_lock:
            if self._txn is not None:
                raise TransactionError(
                    "cannot checkpoint inside an open transaction"
                )
            snap = self.snapshot()
            ddl = list(self._ddl_history)
            generation = self._durability.rotate_wal()
        body = {
            "ddl": ddl,
            "tables": {
                name: {
                    "next_rowid": table_data._next_rowid,
                    "autoincrement": dict(table_data._autoincrement_next),
                    "rows": _checkpoint_rows(table_data),
                }
                for name, table_data in snap.tables.items()
            },
        }
        if self.replicated_position is not None:
            body["repl"] = [
                self.replicated_epoch, list(self.replicated_position)
            ]
        return self._durability.write_checkpoint(generation, body)

    def durability_status(self) -> Dict[str, Any]:
        """Durability health for /health (ISSUE 6): whether a WAL backs
        this database, whether it is refusing commits after an I/O
        failure, and how stale the newest checkpoint is."""
        if self._durability is None:
            return {"durable": False}
        return self._durability.status()

    @property
    def epoch(self) -> int:
        """The replication epoch this database lives in: the persisted
        data_dir epoch when durable, else the highest epoch observed
        from a primary (in-memory replicas)."""
        if self._durability is not None:
            return self._durability.epoch
        return self.replicated_epoch

    def close(self) -> None:
        """Flush and close the WAL (no-op for in-memory databases).  The
        database object must not be used afterwards."""
        if self._durability is not None:
            self._durability.close()

    # ------------------------------------------------------------------
    # replication (replica-side apply)
    # ------------------------------------------------------------------

    def apply_replicated(
        self,
        changes: List[Any],
        position: Optional[tuple] = None,
        epoch: Optional[int] = None,
    ) -> None:
        """Apply one shipped commit batch to this (replica) database.

        The batch is a transaction, by the steps every write takes:
        readers see the whole batch or none of it, and a batch that fails
        part-way rolls back, so the frame applies when it is sent again.

        On a *durable* replica the journal ends in a ``("p", epoch,
        generation, offset)`` provenance note (superseding an upstream
        replica's, in chained replication), so a restarted replica
        recovers both the data and the exact stream position to resume
        from — and a promoted one already owns a self-consistent lineage
        to ship onward.
        """
        # Replaying lifts ``read_only`` for the batch's own statements;
        # commit and rollback run outside it, so they log like any other.
        with self._replay():
            txn = self._begin(True)
        try:
            with self._replay():
                self._apply_changes(changes, txn)
            if position is not None:
                self.replicated_epoch = max(
                    self.replicated_epoch, int(epoch or 0)
                )
                self.replicated_position = (
                    int(position[0]), int(position[1]),
                )
                if self._durability is not None:
                    txn.record("p", None, None, (
                        self.replicated_epoch, *self.replicated_position,
                    ))
        except BaseException:
            self._rollback(txn)
            raise
        self._commit(txn)

    def reset_for_snapshot(
        self,
        body: Optional[Dict[str, Any]],
        position: Optional[tuple] = None,
        epoch: Optional[int] = None,
    ) -> None:
        """Replace this (replica) database's entire state with a shipped
        checkpoint body (None = the primary is fresh: just empty out).

        Used at bootstrap and on resync after the primary checkpointed
        away the segment a replica was tailing.  Existing tables drop
        children-first (the catalog refuses to drop a referenced table);
        readers racing the reset may observe intermediate states, which is
        why the serving layer gates queries on the replica's readiness.

        On a durable store this is also the *demotion* path: the local
        lineage (WAL + checkpoints) is discarded wholesale first — a
        fenced old primary's un-shipped tail diverged from the new
        primary's history and must not survive — and the adopted state is
        immediately re-checkpointed under the new epoch.
        """
        with self._write_lock:
            if self._txn is not None:
                raise TransactionError(
                    "cannot reset for a snapshot inside an open transaction"
                )
            if self._durability is not None:
                self._durability.reset_storage(
                    max(self.epoch, int(epoch or 0))
                )
            with self._replay():
                remaining = set(self.schema.table_names())
                while remaining:
                    referenced = set()
                    for name in remaining:
                        for parent in self.schema.table(name).referenced_tables():
                            if parent != name:
                                referenced.add(parent)
                    droppable = sorted(remaining - referenced)
                    if not droppable:  # FK cycle: force an order
                        droppable = sorted(remaining)
                    for name in droppable:
                        self.execute(ast.DropTable(name=name, if_exists=True))
                        remaining.discard(name)
                self._ddl_history.clear()
                if body is not None:
                    self._load_checkpoint_body(body)
            if position is not None:
                self.replicated_epoch = max(
                    self.replicated_epoch, int(epoch or 0)
                )
                self.replicated_position = (
                    int(position[0]), int(position[1]),
                )
            self.data_version += 1
            self._mark_committed()
            if self._durability is not None:
                self.checkpoint()

    # ------------------------------------------------------------------
    # transaction control
    # ------------------------------------------------------------------

    def begin(self) -> None:
        """Open a transaction, taking the exclusive writer lock.

        The lock is held until :meth:`commit` / :meth:`rollback`, so a
        second writer blocks here until the first finishes; readers are
        unaffected (they run against the published snapshot).  Transaction
        scope is thread-owned: :meth:`commit`/:meth:`rollback` must run on
        the thread that opened the transaction (the reentrant lock cannot
        be released from another thread).
        """
        self._begin()

    def _begin(self, autocommit: bool = False) -> Transaction:
        """What :meth:`begin` does, and what a statement outside a
        transaction runs as its own one-statement transaction."""
        self._write_lock.acquire()
        if self._txn is not None:
            self._write_lock.release()
            raise TransactionError("a transaction is already open")
        try:
            self._check_writable_db()
        except ReadOnlyDatabaseError:
            self._write_lock.release()
            raise
        if not autocommit:
            # Make sure a fresh pre-transaction snapshot is published
            # before any mutation, so a reader arriving mid-transaction —
            # even the first reader this database ever sees — finds
            # committed state (on a never-consumed database that holds
            # until this transaction's first write discards the snapshot;
            # a consuming reader before that point locks in the clone
            # discipline).  One statement or one replicated batch waits
            # for no reader's sake.
            self._mark_committed()
        txn = self._txn = Transaction(self.constraint_mode, autocommit)
        return txn

    def commit(self, wait: bool = True) -> Optional[Any]:
        """Commit the open transaction: publish it, append it to the
        WAL and release the writer lock, then wait until it is durable.

        ``wait=False`` returns right after the lock is released, with
        the token the caller must pass to :meth:`wait_durable` before
        acknowledging the commit to anyone — for callers (the session)
        that hold the lock across a request and release it before
        waiting, so the next writer appends while this one's flush is in
        flight."""
        return self._commit(self._owned_txn(), wait)

    def _commit(self, txn: Transaction, wait: bool = True) -> Optional[Any]:
        token = None
        committed = False
        try:
            try:
                txn.run_deferred_checks()
            except Exception:
                txn.rollback()
                self._txn = None
                # state reverted: translations cached mid-transaction are stale
                self.data_version += 1
                # DDL is non-transactional: it survives the rollback in
                # memory and in the journal, so it reaches the log too.
                token = self._log(txn)
                raise
            self._txn = None
            # WAL append while still holding the writer lock (append
            # order == commit order), before the snapshot is published.
            token = self._log(txn)
            committed = True
        finally:
            self._mark_committed()
            self._write_lock.release()
            # Durability wait outside the lock: concurrent committers
            # gang up on one fsync (group commit).  A failed commit
            # hands out no token, so its surviving DDL is waited for
            # here whatever the caller asked.
            if wait or not committed:
                self.wait_durable(token)
        return token

    def rollback(self) -> None:
        self._rollback(self._owned_txn())

    def _rollback(self, txn: Transaction) -> None:
        token = None
        try:
            txn.rollback()
            self._txn = None
            self.data_version += 1  # state reverted: anything keyed on it is stale
            token = self._log(txn)  # what survives: the DDL
        finally:
            self._mark_committed()
            self._write_lock.release()
            self.wait_durable(token)

    def state_version(self) -> tuple:
        """Opaque token identifying the current visible state."""
        return (self.schema_version, self.data_version)

    def in_transaction(self) -> bool:
        return self._txn is not None

    # ------------------------------------------------------------------
    # snapshots (MVCC read path)
    # ------------------------------------------------------------------

    def snapshot(self) -> DatabaseSnapshot:
        """The committed snapshot readers run against — lock-free when a
        fresh one is published, republished under the writer lock
        otherwise (i.e. the first read after a quiet commit, or during
        another thread's open transaction before anything was published).
        """
        snap = self._snapshot
        if (
            snap is not None
            and snap.version == self._committed_version
            and snap.generation == self.planner.generation
        ):
            # A consuming reader upgrades the discipline: from now on a
            # transaction's writes clone the published tables instead of
            # discarding the snapshot, so later readers stay lock-free
            # even mid-transaction.
            self._snapshots_active = True
            # Order matters: pin + mark consumed *then* re-check retired.
            # A writer marks retired *then* checks consumed/pins — under
            # the GIL's sequentially consistent memory, at least one side
            # sees the other's writes, so a snapshot is never mutated
            # after being handed out (see :meth:`_writable`).
            snap.consume()
            if not snap.retired:
                return snap
        with self._write_lock:
            if self._txn is not None:
                # Only reachable reentrantly: the calling thread owns the
                # open transaction (other threads block above until it
                # commits).  Its reads must use the working store.
                raise TransactionError(
                    "cannot take a committed snapshot inside an open "
                    "transaction"
                )
            self._snapshots_active = True
            self._committed_version = self.state_version()
            snap = self._snapshot
            if (
                snap is None
                or snap.retired
                or snap.version != self._committed_version
                or snap.generation != self.planner.generation
            ):
                snap = self._publish()
            snap.consume()
            return snap

    def read_view(self) -> Dict[str, TableData]:
        """The table map reads should use right now: the working store
        for the thread owning the open transaction (read-your-own-writes),
        the committed snapshot's tables for everyone else."""
        txn = self._txn
        if txn is not None and txn.owner == threading.get_ident():
            return self.data
        return self.snapshot().tables

    def _publish(self) -> DatabaseSnapshot:
        """Publish the current (committed) state; writer lock held."""
        snap = DatabaseSnapshot(
            dict(self.data), self._committed_version, self.planner.generation
        )
        self._snapshot = snap
        return snap

    def _mark_committed(self) -> None:
        """Note a commit point and republish for readers; writer lock held.

        Publication is an O(#tables) shallow map copy, so every commit
        point republishes — at any commit point, even the first reader a
        database ever sees finds a fresh committed snapshot without
        taking the writer lock.  (Mid-transaction, the published
        snapshot survives until the transaction's first write; see
        :meth:`_writable` for who then clones vs. who waits.)
        """
        self._committed_version = self.state_version()
        snap = self._snapshot
        if (
            snap is not None
            and not snap.retired
            and snap.version == self._committed_version
            and snap.generation == self.planner.generation
        ):
            return  # e.g. a failed autocommit statement: nothing changed
        self._publish()

    def _writable(self, name: str) -> TableData:
        """The :class:`TableData` a writer may mutate — the copy-on-write
        gate.  Writer lock held (all mutation paths run under it).

        If the published snapshot still references the working object, it
        must not observe the coming mutation: a snapshot some reader
        consumed is preserved by cloning the table (the clone becomes the
        working version and shares every page with the frozen one until
        it writes it); one nobody consumed is simply discarded, and the
        working version goes on mutating the pages it owns in place.
        """
        try:
            table_data = self.data[name]
        except KeyError:
            raise CatalogError(f"no such table: {name!r}") from None
        snap = self._snapshot
        txn = self._txn
        explicit = txn is not None and not txn.autocommit
        if snap is not None and snap.tables.get(name) is table_data:
            snap.retired = True  # divert racing readers to the slow path
            if (
                snap.consumed
                or table_data._cow_pinned
                or (explicit and self._snapshots_active)
            ):
                # A reader holds this snapshot — or an *older* consumed
                # snapshot still shares this very table (republication
                # shares untouched tables, so the pin outlives the
                # snapshot that set it) — or readers are active and may
                # fetch the snapshot while this (arbitrarily long)
                # explicit transaction runs: preserve the frozen object
                # by cloning.
                table_data = table_data.clone()
                self.data[name] = table_data
                snap.retired = False  # still frozen-valid: fast path back on
            else:
                # Unconsumed, unpinned, and either one autocommit
                # statement or an explicit transaction on a database no
                # reader ever consumed from:
                # no reader holds a snapshot referencing this table
                # object, and one arriving now re-checks ``retired``
                # after consuming and falls to the slow path (waiting for
                # this commit, which also flips the database to the
                # clone discipline above).  Discarding keeps the pages
                # this version owns writable in place; a clone would make
                # every write of a write-only loop copy its pages again.
                self._snapshot = None
        elif table_data._cow_pinned:
            # No current snapshot references it (e.g. the latest was just
            # discarded) but a consumed one from an earlier publication
            # still might: clone.
            table_data = table_data.clone()
            self.data[name] = table_data
        return table_data

    @contextmanager
    def transaction(self) -> Iterator[None]:
        """Context manager: commit on success, roll back on any exception
        (``KeyboardInterrupt`` included — an open transaction holds the
        writer lock) and re-raise it."""
        self.begin()
        try:
            yield
        except BaseException:
            txn = self._txn
            if txn is not None and txn.owner == threading.get_ident():
                self.rollback()
            raise
        self.commit()

    def _owned_txn(self) -> Transaction:
        """The open transaction, which the calling thread must own.

        Fails fast on cross-thread commit/rollback: without this, a
        non-owner would race the owner's statements unlocked and publish
        its torn mid-transaction state to readers before the writer
        lock's release blew up anyway."""
        txn = self._txn
        if txn is None:
            raise TransactionError("no transaction is open")
        if txn.owner != threading.get_ident():
            raise TransactionError(
                "the transaction belongs to another thread; only the "
                "thread that opened it may commit or roll back"
            )
        return txn

    # ------------------------------------------------------------------
    # statement execution
    # ------------------------------------------------------------------

    def execute(
        self,
        statement: Union[str, ast.Statement, ast.Bound],
        parameters: Sequence[Any] = (),
    ) -> Result:
        """Execute one statement (SQL text, AST, or a bound statement).

        A :class:`~repro.sql.ast.Bound` statement — what the mediator's
        translators produce — carries its own parameter values: it is
        the single argument, and is executed as its shape with them.
        SQL text may contain multiple ``;``-separated statements; the result
        of the last one is returned.
        """
        if type(statement) is ast.Bound:
            return self._execute_one(statement.shape, statement.values)
        if isinstance(statement, str):
            parsed = parse_statements(statement)
            if not parsed:
                raise DatabaseError("empty SQL input")
            result = Result(columns=[], rows=[])
            for stmt in parsed:
                result = self._execute_one(stmt, parameters)
            return result
        return self._execute_one(statement, parameters)

    def execute_script(self, sql: str) -> List[Result]:
        """Execute every statement in a script, returning all results."""
        return [self._execute_one(s) for s in parse_statements(sql)]

    def query(
        self,
        statement: Union[str, ast.Select],
        parameters: Sequence[Any] = (),
    ) -> Result:
        """Execute a SELECT and return its result."""
        result = self.execute(statement, parameters)
        return result

    def explain(
        self, statement: Union[str, ast.Statement, ast.Bound]
    ) -> List[str]:
        """The access-path plan for a SELECT/UPDATE/DELETE, one line per
        pipeline stage (e.g. ``author: point lookup via primary key (id)``).
        A plan belongs to the statement's shape: parameter values play
        no part in it.
        """
        statement = ast.shape_of(statement)
        if isinstance(statement, str):
            parsed = parse_statements(statement)
            if len(parsed) != 1:
                raise DatabaseError("EXPLAIN takes exactly one statement")
            statement = parsed[0]
        if isinstance(statement, (ast.Select, ast.Update, ast.Delete)):
            return self.planner.plan(statement).describe()
        raise DatabaseError(
            f"cannot explain {type(statement).__name__}"
        )

    def explain_analyze(
        self,
        statement: Union[str, ast.Select, ast.Bound],
        parameters: Sequence[Any] = (),
    ) -> Dict[str, Any]:
        """EXPLAIN ANALYZE: execute a SELECT with operator instrumentation.

        Returns the plan tree plus per-operator elapsed/rows/loops
        measured on a real execution (an optional leading ``EXPLAIN
        [ANALYZE]`` in a string statement is accepted and ignored).
        Only SELECT is supported — analyzing DML would execute it.
        """
        if isinstance(statement, str):
            text = statement.lstrip()
            upper = text.upper()
            if upper.startswith("EXPLAIN"):
                text = text[len("EXPLAIN"):].lstrip()
                if text[:7].upper() == "ANALYZE":
                    text = text[7:]
            parsed = parse_statements(text)
            if len(parsed) != 1:
                raise DatabaseError(
                    "EXPLAIN ANALYZE takes exactly one statement"
                )
            statement = parsed[0]
        if not isinstance(ast.shape_of(statement), ast.Select):
            raise DatabaseError(
                "EXPLAIN ANALYZE executes its statement, so only SELECT "
                f"is supported, not {type(ast.shape_of(statement)).__name__}"
            )
        with analyze_scope() as probe:
            result = self.execute(statement, parameters)
        report = probe.report()
        report["columns"] = result.columns
        return report

    def _execute_one(
        self, stmt: ast.Statement, parameters: Sequence[Any] = ()
    ) -> Result:
        self.statements_executed += 1
        if isinstance(stmt, ast.Begin):
            self.begin()
            return Result(columns=[], rows=[])
        if isinstance(stmt, ast.Commit):
            self.commit()
            return Result(columns=[], rows=[])
        if isinstance(stmt, ast.Rollback):
            self.rollback()
            return Result(columns=[], rows=[])
        if isinstance(stmt, ast.Select):
            txn = self._txn
            if txn is not None and txn.owner == threading.get_ident():
                # Inside this thread's transaction: see our own writes.
                return self.executor.select(stmt, parameters)
            return self._select_committed(stmt, parameters)
        if isinstance(stmt, (ast.Insert, ast.Update, ast.Delete)):
            run = self._run_dml
        elif isinstance(
            stmt, (ast.CreateTable, ast.DropTable, ast.CreateIndex, ast.DropIndex)
        ):
            run = self._execute_ddl
        else:
            raise DatabaseError(f"cannot execute {type(stmt).__name__}")
        txn = self._txn
        if txn is not None and txn.owner == threading.get_ident():
            savepoint = len(txn.journal)
            try:
                return run(stmt, txn, parameters)
            except Exception:
                # statement-level atomicity inside the transaction
                txn.rollback_to(savepoint)
                raise
        # Outside this thread's transaction a write is a transaction of
        # its own, begun, committed and rolled back by the steps of an
        # explicit one (it waits here while another thread's is open).
        txn = self._begin(True)
        try:
            result = run(stmt, txn, parameters)
        except BaseException:
            self._rollback(txn)
            raise
        self._commit(txn)
        return result

    def _select_committed(
        self, stmt: ast.Select, parameters: Sequence[Any]
    ) -> Result:
        """Lock-free SELECT against the snapshot current at its start.

        The plan is cached per planner generation and built against the
        snapshot's tables, so plan and data always match structurally; a
        concurrent DDL between taking the snapshot and planning surfaces
        as :class:`StaleSnapshotError` and we simply restart on a fresh
        snapshot (the query has not read anything yet).
        """
        for _ in range(8):
            try:
                return self.executor.select(stmt, parameters, self.snapshot())
            except StaleSnapshotError:
                continue
        # Pathological DDL churn: serialize with writers instead.
        with self._write_lock:
            return self.executor.select(stmt, parameters)

    def _execute_ddl(
        self, stmt: ast.Statement, txn: Transaction, parameters: Sequence[Any]
    ) -> Result:
        """One DDL statement in ``txn`` (writer lock held), serialized
        against plan building via the planner lock.

        DDL is not transactional: the statement is journaled so the WAL
        keeps statement order, and the entry survives even a rollback
        (nothing inverts it).  Inside an explicit
        transaction the commit point stays at COMMIT.  The generation
        bump also invalidates the published snapshot's plans, so *new*
        reader statements wait on the writer lock until COMMIT publishes
        a post-DDL snapshot — the only safe option, since no schema of
        the old generation exists to plan against anymore."""
        self._check_writable_db()
        with self.planner.lock:
            if isinstance(stmt, ast.CreateTable):
                changed = self._create_table(stmt)
            elif isinstance(stmt, ast.DropTable):
                changed = self._drop_table(stmt)
            elif isinstance(stmt, ast.CreateIndex):
                changed = self._create_index(stmt)
            else:
                changed = self._drop_index(stmt)
            if changed:
                # Cached plans may reference what changed, or now have a
                # better path.
                self.planner.invalidate()
                self.schema_version += 1
        if changed:
            # The statement actually changed the catalog (IF [NOT]
            # EXISTS no-ops don't log): record it for checkpoints and
            # the WAL.
            sql = render(stmt)
            self._ddl_history.append(sql)
            txn.record("x", None, None, sql)
        return Result(columns=[], rows=[])

    def _run_dml(
        self,
        stmt: Union[ast.Insert, ast.Update, ast.Delete],
        txn: Transaction,
        parameters: Sequence[Any],
    ) -> Result:
        if isinstance(stmt, ast.Insert):
            result = self.executor.insert(stmt, txn, parameters)
        elif isinstance(stmt, ast.Update):
            result = self.executor.update(stmt, txn, parameters)
        else:
            result = self.executor.delete(stmt, txn, parameters)
        if result.rowcount:
            self.data_version += 1
        return result

    # ------------------------------------------------------------------
    # DDL: each statement changes the catalog and syncs indexes, and
    # answers whether it changed anything (False: an IF [NOT] EXISTS
    # no-op); _execute_ddl does the rest
    # ------------------------------------------------------------------

    def _create_table(self, stmt: ast.CreateTable) -> bool:
        if self.schema.has_table(stmt.name):
            if stmt.if_not_exists:
                return False
            raise CatalogError(f"table {stmt.name!r} already exists")

        columns: List[Column] = []
        primary_key: List[str] = []
        foreign_keys: List[ForeignKey] = []
        uniques: List[tuple] = []
        checks: List[ast.Expression] = []

        for col_def in stmt.columns:
            default_value = None
            if col_def.default is not None:
                default_value = evaluate_constant(col_def.default)
            column = Column(
                name=col_def.name,
                sql_type=type_from_name(col_def.type_name, col_def.type_length),
                not_null=col_def.not_null,
                default=default_value,
                autoincrement=col_def.autoincrement,
            )
            columns.append(column)
            if col_def.primary_key:
                primary_key.append(col_def.name)
            if col_def.unique:
                uniques.append((col_def.name,))
            if col_def.references is not None:
                ref_table, ref_column = col_def.references
                foreign_keys.append(
                    ForeignKey(
                        columns=(col_def.name,),
                        ref_table=ref_table,
                        ref_columns=(ref_column,) if ref_column else (),
                    )
                )
            checks.extend(col_def.checks)

        for constraint in stmt.constraints:
            if isinstance(constraint, ast.PrimaryKeyDef):
                if primary_key:
                    raise CatalogError(
                        f"table {stmt.name!r} has multiple primary key definitions"
                    )
                primary_key.extend(constraint.columns)
            elif isinstance(constraint, ast.UniqueDef):
                uniques.append(tuple(constraint.columns))
            elif isinstance(constraint, ast.ForeignKeyDef):
                foreign_keys.append(
                    ForeignKey(
                        columns=tuple(constraint.columns),
                        ref_table=constraint.ref_table,
                        ref_columns=tuple(constraint.ref_columns),
                    )
                )
            elif isinstance(constraint, ast.CheckDef):
                checks.append(constraint.expression)

        table = Table(
            name=stmt.name,
            columns=columns,
            primary_key=tuple(primary_key),
            foreign_keys=foreign_keys,
            uniques=uniques,
            checks=checks,
        )
        self.schema.add(table)
        self.data[stmt.name] = TableData(table)
        try:
            self.schema.validate_foreign_keys()
        except CatalogError:
            self.schema.drop(stmt.name)
            del self.data[stmt.name]
            raise
        self._sync_indexes(stmt.name, *table.referenced_tables())
        return True

    def _drop_table(self, stmt: ast.DropTable) -> bool:
        if not self.schema.has_table(stmt.name):
            if stmt.if_exists:
                return False
            raise CatalogError(f"no such table: {stmt.name!r}")
        table = self.schema.drop(stmt.name)
        del self.data[stmt.name]
        self._sync_indexes(*table.referenced_tables())
        self.data_version += 1  # the dropped table's rows are gone
        return True

    def _create_index(self, stmt: ast.CreateIndex) -> bool:
        if self.schema.has_index(stmt.name):
            if stmt.if_not_exists:
                return False
            raise CatalogError(f"index {stmt.name!r} already exists")
        self.schema.add_index(  # validates table + columns
            Index(
                name=stmt.name,
                table=stmt.table,
                columns=tuple(stmt.columns),
                unique=stmt.unique,
            )
        )
        try:
            # IntegrityError when existing rows collide in a unique index
            self._sync_indexes(stmt.table)
        except DatabaseError:
            self.schema.drop_index(stmt.name)
            raise
        return True

    def _drop_index(self, stmt: ast.DropIndex) -> bool:
        if not self.schema.has_index(stmt.name):
            if stmt.if_exists:
                return False
            raise CatalogError(f"no such index: {stmt.name!r}")
        self._sync_indexes(self.schema.drop_index(stmt.name).table)
        return True

    def _sync_indexes(self, *names: str) -> None:
        """Bring the index sets of tables ``names`` in line with the
        catalog — how every DDL statement ends, for the tables whose
        requirement it can change: CREATE / DROP TABLE the table itself
        and every table its foreign keys point at (a parent keeps an
        index over the referenced columns for as long as a child needs
        the existence probe), CREATE / DROP INDEX the indexed table.
        Always on the copy-on-write gate's version: the index set of a
        published snapshot never changes.
        """
        for name in dict.fromkeys(names):
            if name in self.data:  # not the table being dropped
                self._writable(name).sync_indexes(
                    self.schema.required_indexes(name)
                )

    # ------------------------------------------------------------------
    # direct row access (used by the mediator and tests)
    # ------------------------------------------------------------------

    def table(self, name: str) -> Table:
        return self.schema.table(name)

    def table_data(self, name: str) -> TableData:
        try:
            return self.data[name]
        except KeyError:
            raise CatalogError(f"no such table: {name!r}") from None

    def row_count(self, name: str) -> int:
        return len(self.table_data(name))

    def get_row_by_pk(self, name: str, key: Sequence[Any]) -> Optional[Dict[str, Any]]:
        """Fetch one row by primary key values; None when absent."""
        table_data = self.table_data(name)
        rowid = table_data.find_by_pk(tuple(key))
        if rowid is None:
            return None
        return dict(table_data.rows[rowid])

    def __repr__(self) -> str:
        tables = ", ".join(
            f"{name}({len(self.data[name])})" for name in self.schema.table_names()
        )
        return f"<Database [{tables}]>"
