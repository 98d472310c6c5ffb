"""Snapshot-isolated MVCC reads and the writer/reader lock tiers.

The engine's concurrency contract (ISSUE 4):

* queries outside a transaction run against the committed snapshot
  current at their start — they never block on a writer and never see a
  transaction's intermediate state;
* the thread owning the open transaction reads its own uncommitted
  writes (the MODIFY algorithm depends on that);
* a rolled-back transaction is invisible to concurrent readers at every
  point in time;
* writers serialize on the exclusive writer lock (writer blocks writer),
  readers never take it once a snapshot is published;
* copy-on-write: a snapshot handed to a reader stays frozen while the
  working store moves on; snapshots nobody consumed are discarded, so
  write-only workloads keep mutating in place.
"""

import threading
import time

import pytest

from repro.errors import TransactionError
from repro.rdb import Database
from tests.rdb.test_storage import named, named_rows

WAIT = 10  # seconds; generous so slow CI never turns a sync into a hang


@pytest.fixture
def db():
    database = Database()
    database.execute(
        "CREATE TABLE account (id INTEGER PRIMARY KEY, owner VARCHAR(40), "
        "balance INTEGER)"
    )
    database.execute("INSERT INTO account (id, owner, balance) VALUES (1, 'a', 100)")
    database.execute("INSERT INTO account (id, owner, balance) VALUES (2, 'b', 200)")
    # One read consumes the published snapshot.  Commit points publish
    # eagerly (ISSUE 5), so even a cold reader never waits; consuming
    # additionally switches writers to clone-instead-of-discard, which
    # the copy-on-write tests below rely on.
    database.query("SELECT id FROM account")
    return database


def run_in_thread(fn):
    """Run fn on a fresh thread, re-raising its exception here."""
    box = {}

    def target():
        try:
            box["value"] = fn()
        except BaseException as exc:  # pragma: no cover - failure path
            box["error"] = exc

    # Daemon: a thread wedged on a lock must fail the assertion below,
    # not keep the test process alive forever afterwards.
    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(WAIT)
    assert not thread.is_alive(), "worker thread hung"
    if "error" in box:
        raise box["error"]
    return box.get("value")


def balances(db):
    return dict(db.query("SELECT id, balance FROM account").rows)


# ---------------------------------------------------------------------------
# snapshot visibility
# ---------------------------------------------------------------------------

class TestSnapshotVisibility:
    def test_reader_sees_pre_transaction_state_until_commit(self, db):
        db.begin()
        db.execute("UPDATE account SET balance = 0 WHERE id = 1")
        # A different thread (not the transaction owner) must still see
        # the committed state, without blocking.
        assert run_in_thread(lambda: balances(db)) == {1: 100, 2: 200}
        # The owner sees its own uncommitted write.
        assert balances(db) == {1: 0, 2: 200}
        db.commit()
        assert run_in_thread(lambda: balances(db)) == {1: 0, 2: 200}

    def test_rollback_is_invisible_to_concurrent_readers(self, db):
        db.begin()
        db.execute("INSERT INTO account (id, owner, balance) VALUES (3, 'c', 1)")
        db.execute("DELETE FROM account WHERE id = 2")
        assert run_in_thread(lambda: balances(db)) == {1: 100, 2: 200}
        db.rollback()
        assert run_in_thread(lambda: balances(db)) == {1: 100, 2: 200}
        assert balances(db) == {1: 100, 2: 200}

    def test_readers_never_see_partial_transactions(self, db):
        """A transaction moves 10 between the accounts 50 times; racing
        readers must always see the invariant total (money conservation),
        never a state where only one leg of a transfer applied."""
        stop = threading.Event()
        violations = []

        def reader():
            while not stop.is_set():
                seen = balances(db)
                if sum(seen.values()) != 300:
                    violations.append(seen)
                    return

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for t in threads:
            t.start()
        try:
            for _ in range(50):
                with db.transaction():
                    db.execute(
                        "UPDATE account SET balance = balance - 10 WHERE id = 1"
                    )
                    db.execute(
                        "UPDATE account SET balance = balance + 10 WHERE id = 2"
                    )
        finally:
            stop.set()
            for t in threads:
                t.join(WAIT)
        assert not violations
        assert balances(db) == {1: 100 - 500, 2: 200 + 500}

    def test_snapshot_inside_own_transaction_is_pre_transaction_state(self, db):
        """The published snapshot keeps answering with committed state
        even for the transaction's own thread (its *queries* route to the
        working store instead — see the visibility tests)."""
        db.begin()
        db.execute("UPDATE account SET balance = 0 WHERE id = 1")
        snap = db.snapshot()
        frozen = snap.tables["account"]
        assert named(frozen, frozen.rows[frozen.find_by_pk((1,))])["balance"] == 100
        db.rollback()

    def test_cold_snapshot_inside_own_transaction_is_pre_transaction(self):
        """ISSUE 5 cold-start fix: commit points publish eagerly, so even
        a never-read database has a committed pre-transaction snapshot to
        serve mid-transaction (it used to refuse/wait here)."""
        cold = Database()
        cold.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        cold.begin()
        snap = cold.snapshot()
        assert len(snap.tables["t"]) == 0  # pre-transaction (empty) state
        # Consuming froze it: the transaction's write clones, the
        # snapshot keeps answering with the pre-transaction state.
        cold.execute("INSERT INTO t (id) VALUES (1)")
        assert len(snap.tables["t"]) == 0
        assert cold.snapshot() is snap
        cold.rollback()

    def test_cold_reader_mid_transaction_gets_initial_snapshot(self):
        """ISSUE 5 cold-start fix: the first reader a database ever sees,
        arriving while a transaction is open, is served the committed
        pre-transaction snapshot instead of waiting for the commit."""
        cold = Database()
        cold.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        cold.begin()  # never-read database, transaction open
        rows = run_in_thread(lambda: cold.query("SELECT id FROM t").rows)
        assert rows == []  # served immediately (run_in_thread would hang)
        cold.execute("INSERT INTO t (id) VALUES (1)")
        # The consumed snapshot stays frozen through the write, so later
        # readers still see the pre-transaction state without blocking.
        rows = run_in_thread(lambda: cold.query("SELECT id FROM t").rows)
        assert rows == []
        cold.commit()
        assert run_in_thread(lambda: cold.query("SELECT id FROM t").rows) == [(1,)]


# ---------------------------------------------------------------------------
# lock tiers
# ---------------------------------------------------------------------------

class TestLockTiers:
    def test_writer_blocks_writer(self, db):
        """An autocommit statement from another thread waits for the open
        transaction to finish instead of interleaving with it."""
        order = []
        started = threading.Event()

        def second_writer():
            started.set()
            db.execute("INSERT INTO account (id, owner, balance) VALUES (9, 'z', 9)")
            order.append("second-writer")

        db.begin()
        db.execute("UPDATE account SET balance = 1 WHERE id = 1")
        thread = threading.Thread(target=second_writer)
        thread.start()
        assert started.wait(WAIT)
        time.sleep(0.05)  # give the second writer a chance to (wrongly) run
        assert thread.is_alive(), "second writer should be blocked"
        order.append("commit")
        db.commit()
        thread.join(WAIT)
        assert order == ["commit", "second-writer"]
        assert run_in_thread(lambda: balances(db)) == {1: 1, 2: 200, 9: 9}

    def test_writer_does_not_block_readers(self, db):
        """While a transaction is open, other threads' reads complete
        (against the pre-transaction snapshot) without waiting."""
        db.begin()
        db.execute("UPDATE account SET balance = 0 WHERE id = 1")
        finished = []

        def reader():
            finished.append(balances(db))

        threads = [threading.Thread(target=reader) for _ in range(4)]
        start = time.monotonic()
        for t in threads:
            t.start()
        for t in threads:
            t.join(WAIT)
        elapsed = time.monotonic() - start
        db.commit()
        assert len(finished) == 4
        assert all(seen == {1: 100, 2: 200} for seen in finished)
        # Readers returned while the transaction was still open — they
        # cannot have waited for the commit.
        assert elapsed < WAIT / 2

    def test_commit_from_another_thread_is_refused(self, db):
        """Cross-thread commit/rollback fails fast — it must never race
        the owner's statements or publish torn mid-transaction state."""
        db.begin()
        db.execute("UPDATE account SET balance = 0 WHERE id = 1")
        with pytest.raises(TransactionError):
            run_in_thread(db.commit)
        with pytest.raises(TransactionError):
            run_in_thread(db.rollback)
        assert db.in_transaction()  # still the owner's to finish
        db.rollback()
        assert run_in_thread(lambda: balances(db)) == {1: 100, 2: 200}

    def test_transaction_already_open_still_raises_for_owner(self, db):
        db.begin()
        with pytest.raises(TransactionError):
            db.begin()
        db.rollback()
        # the failed begin must not have leaked a lock acquisition: a
        # fresh writer from another thread proceeds immediately
        run_in_thread(
            lambda: db.execute(
                "INSERT INTO account (id, owner, balance) VALUES (5, 'e', 5)"
            )
        )
        assert db.row_count("account") == 3


# ---------------------------------------------------------------------------
# copy-on-write mechanics
# ---------------------------------------------------------------------------

class TestCopyOnWrite:
    def test_snapshot_is_cached_between_writes(self, db):
        assert db.snapshot() is db.snapshot()

    def test_consumed_snapshot_stays_frozen_under_writes(self, db):
        snap = db.snapshot()
        frozen = snap.tables["account"]
        db.execute("INSERT INTO account (id, owner, balance) VALUES (3, 'c', 5)")
        db.execute("UPDATE account SET balance = 0 WHERE id = 1")
        db.execute("DELETE FROM account WHERE id = 2")
        # The snapshot still answers with the old state...
        assert len(frozen) == 2
        assert named(frozen, frozen.rows[frozen.find_by_pk((1,))])["balance"] == 100
        assert {row["balance"] for _, row in named_rows(frozen)} == {100, 200}
        # ...while the working store moved on (a clone, not the same object).
        assert db.data["account"] is not frozen
        assert run_in_thread(lambda: balances(db)) == {1: 0, 3: 5}

    def test_snapshot_and_working_table_share_every_untouched_page(self, db):
        """The clone behind a write after a read copies page directories:
        the frozen and the working version hold the very same page object
        wherever the write did not land."""
        db.execute("CREATE INDEX idx_balance ON account (balance)")
        with db.transaction():
            for key in range(3, 2001):
                db.execute(
                    "INSERT INTO account (id, owner, balance) "
                    f"VALUES ({key}, 'o{key}', {key % 700})"
                )
        frozen = db.snapshot().tables["account"]
        db.execute("UPDATE account SET owner = 'z' WHERE id = 1000")
        working = db.data["account"]
        assert working is not frozen
        replaced = []
        for old, new in zip(frozen.containers(), working.containers()):
            assert len(old.dir) == len(new.dir) >= 4
            replaced.append(sum(a is not b for a, b in zip(old.dir, new.dir)))
        # rows, primary key, balance hash + keys: the write replaced one
        # row page and nothing else
        assert replaced == [1, 0, 0, 0]
        assert named(frozen, frozen.rows[frozen.find_by_pk((1000,))])["owner"] == "o1000"
        assert named(working, working.rows[working.find_by_pk((1000,))])["owner"] == "z"

    def test_unconsumed_snapshots_are_discarded_not_cloned(self, db):
        """Write-only phases mutate in place: publication alone (with no
        reader consuming it) must not force table clones."""
        db.query("SELECT id FROM account")  # activate snapshot publication
        working = db.data["account"]
        db.execute("UPDATE account SET balance = 1 WHERE id = 1")  # clones once
        cloned = db.data["account"]
        assert cloned is not working
        for i in range(20):  # no reads in between: no further clones
            db.execute(f"UPDATE account SET balance = {i} WHERE id = 1")
        assert db.data["account"] is cloned

    def test_old_consumed_snapshot_survives_writes_to_tables_shared_with_newer(
        self, db
    ):
        """Republication shares untouched tables with older snapshots, so
        a write must clone a table any *consumed* snapshot references —
        even when the latest snapshot itself was never consumed (the
        discard shortcut must not tear the older snapshot's readers)."""
        db.execute("CREATE TABLE other (id INTEGER PRIMARY KEY)")
        db.execute("INSERT INTO other (id) VALUES (1)")
        s1 = db.snapshot()  # consumed; shares 'account' and 'other'
        frozen_account = s1.tables["account"]
        # Write to 'other' only: commit republishes S2, which shares the
        # untouched 'account' object with S1.  S2 is never consumed.
        db.execute("INSERT INTO other (id) VALUES (2)")
        # Write to 'account': S2 is unconsumed, but S1 still holds the
        # same account object — it must be cloned, not mutated in place.
        db.execute("INSERT INTO account (id, owner, balance) VALUES (3, 'c', 3)")
        assert len(frozen_account) == 2
        assert {row["owner"] for _, row in named_rows(frozen_account)} == {"a", "b"}
        assert db.data["account"] is not frozen_account
        assert run_in_thread(lambda: db.row_count("account")) == 3

    def test_snapshot_survives_ddl(self, db):
        snap = db.snapshot()
        db.execute("CREATE INDEX idx_balance ON account (balance)")
        db.execute("INSERT INTO account (id, owner, balance) VALUES (7, 'g', 7)")
        # old snapshot untouched by both the DDL and the DML
        assert len(snap.tables["account"]) == 2
        assert ("balance",) not in snap.tables["account"].indexes
        # fresh reads use the new index and see the new row
        rows = run_in_thread(
            lambda: db.query("SELECT id FROM account WHERE balance <= 10").rows
        )
        assert rows == [(7,)]
        assert any(
            "range scan" in line
            for line in db.explain("SELECT id FROM account WHERE balance <= 10")
        )

    def test_failed_autocommit_statement_preserves_reader_state(self, db):
        snap_before = run_in_thread(lambda: balances(db))
        with pytest.raises(Exception):
            # second row violates the PK constraint: statement rolls back
            db.execute(
                "INSERT INTO account (id, owner, balance) VALUES (4, 'd', 4), "
                "(1, 'dup', 0)"
            )
        assert run_in_thread(lambda: balances(db)) == snap_before
        assert not db.in_transaction()
