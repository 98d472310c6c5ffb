"""Durability: WAL, checkpoints, crash recovery (ISSUE 5).

The contract under test: a database opened with ``data_dir`` survives a
process kill at **arbitrary** points, and recovery restores exactly the
committed prefix — never a torn transaction, never a lost acknowledged
commit (in ``fsync`` mode), never a resurrected rolled-back one.

Three attack styles:

* **kill-point injection** — a ``repro.faults.INJECTOR`` rule raises at
  named points (mid-WAL-append, before/after the checkpoint rename, …);
  the test then reopens the directory and checks the surviving prefix.
* **torn-tail truncation** — the WAL is truncated / corrupted at byte
  granularity; recovery must stop cleanly at the last valid record.
* **differential recovery** — random DML+DDL rounds applied to a durable
  database and an in-memory oracle; after a crash at a random commit
  boundary, the recovered state must equal the oracle replayed to the
  same prefix.

Plus one end-to-end subprocess test that really SIGKILLs a committer.
"""

import os
import random
import struct
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
import zlib

import pytest

from repro import OntoAccess
from repro.errors import DurabilityError, ReplicationError, TransactionError
from repro.faults import INJECTOR
from repro.rdb import Database
from repro.rdb.durability import (
    _CKPT_MAGIC,
    _FRAME,
    decode_payload,
    encode_payload,
)
from repro.replication.shipper import LogShipper
from repro.workloads.publication import PUBLICATION_DDL, build_mapping
from tests.rdb.test_storage import named, named_rows

DDL = (
    "CREATE TABLE t (id INTEGER PRIMARY KEY, name VARCHAR(40), n INTEGER)"
)


class _Killed(BaseException):
    """Raised at a kill point; BaseException so nothing downstream
    accidentally catches it and keeps going 'after the crash'."""


@pytest.fixture(autouse=True)
def _disarm_kill_points():
    yield
    INJECTOR.clear()


def _crash_at(point):
    """Arm the kill point to blow up at its first occurrence."""
    INJECTOR.inject(point, error=_Killed(point), times=1)


def _simulate_death(db):
    """What the kernel does when the process dies: release the data-dir
    flock (and nothing else — no flush, no close)."""
    db._durability._release_lock()


def _state(db):
    """Comparable image of the whole database (rows keyed by PK)."""
    return {
        name: sorted(
            tuple(sorted(row.items()))
            for _, row in named_rows(db.table_data(name))
        )
        for name in db.schema.table_names()
    }


@pytest.fixture
def data_dir(tmp_path):
    return str(tmp_path / "db")


# ---------------------------------------------------------------------------
# plain round trips
# ---------------------------------------------------------------------------

class TestRoundTrip:
    def test_payload_codec_roundtrip(self):
        value = [
            ["i", "t", 1, {"id": 1, "name": "a", "f": 1.5, "b": True, "x": None}],
            ["d", "t", 2],
            ["x", "CREATE TABLE q (id INTEGER PRIMARY KEY);"],
            {"neg": -(2 ** 70), "empty": [], "nested": {"k": [1, 2.0, "3"]}},
        ]
        assert decode_payload(encode_payload(value)) == value

    def test_reopen_restores_dml_and_ddl(self, data_dir):
        db = Database(data_dir=data_dir)
        db.execute(DDL)
        db.execute("INSERT INTO t (id, name, n) VALUES (1, 'a', 10), (2, 'b', 20)")
        with db.transaction():
            db.execute("UPDATE t SET n = n + 1 WHERE id = 1")
            db.execute("DELETE FROM t WHERE id = 2")
        db.execute("CREATE INDEX idx_n ON t (n)")
        expected = _state(db)
        db.close()

        recovered = Database(data_dir=data_dir)
        assert _state(recovered) == expected
        # index definitions rebuilt on load, usable by the planner
        assert recovered.table_data("t").ordered_index("n") is not None
        assert any(
            "range scan" in line
            for line in recovered.explain("SELECT id FROM t WHERE n > 5")
        )
        recovered.close()

    def test_rolled_back_transaction_never_recovers(self, data_dir):
        db = Database(data_dir=data_dir)
        db.execute(DDL)
        db.execute("INSERT INTO t (id, name, n) VALUES (1, 'a', 1)")
        db.begin()
        db.execute("INSERT INTO t (id, name, n) VALUES (2, 'b', 2)")
        db.rollback()
        db.close()
        recovered = Database(data_dir=data_dir)
        assert recovered.query("SELECT id FROM t").rows == [(1,)]
        recovered.close()

    def test_ddl_survives_rollback_of_its_transaction(self, data_dir):
        """DDL is non-transactional: a rolled-back transaction keeps its
        DDL in memory, so recovery must keep it too."""
        db = Database(data_dir=data_dir)
        db.execute(DDL)
        db.begin()
        db.execute("INSERT INTO t (id, name, n) VALUES (1, 'a', 1)")
        db.execute("CREATE TABLE u (id INTEGER PRIMARY KEY)")
        db.rollback()
        assert db.schema.has_table("u")
        assert db.row_count("t") == 0
        expected = _state(db)
        db.close()
        recovered = Database(data_dir=data_dir)
        assert _state(recovered) == expected
        recovered.close()

    def test_autoincrement_counter_survives(self, data_dir):
        db = Database(data_dir=data_dir)
        db.execute(
            "CREATE TABLE a (id INTEGER PRIMARY KEY AUTOINCREMENT, "
            "name VARCHAR(10))"
        )
        db.execute("INSERT INTO a (name) VALUES ('x'), ('y')")
        db.execute("DELETE FROM a WHERE id = 2")
        db.close()
        recovered = Database(data_dir=data_dir)
        recovered.execute("INSERT INTO a (name) VALUES ('z')")
        # id 2 was burned before the crash; the counter must not reuse it
        assert recovered.query("SELECT id, name FROM a ORDER BY id").rows == [
            (1, "x"),
            (3, "z"),
        ]
        recovered.close()

    def test_checkpoint_truncates_wal_and_recovers(self, data_dir):
        db = Database(data_dir=data_dir)
        db.execute(DDL)
        for i in range(10):
            db.execute(f"INSERT INTO t (id, name, n) VALUES ({i}, 'r{i}', {i})")
        wal_before = db._durability.wal_size()
        path = db.checkpoint()
        assert os.path.exists(path)
        assert db._durability.wal_size() < wal_before
        db.execute("INSERT INTO t (id, name, n) VALUES (99, 'post', 99)")
        expected = _state(db)
        db.close()
        files = sorted(os.listdir(data_dir))
        assert files == ["LOCK", "checkpoint-00000001.db", "wal-00000001.log"]
        recovered = Database(data_dir=data_dir)
        assert _state(recovered) == expected
        recovered.close()

    def test_sync_modes_roundtrip_and_validate(self, data_dir):
        for mode in ("none", "os", "fsync"):
            directory = os.path.join(data_dir, mode)
            db = Database(data_dir=directory, sync_mode=mode)
            db.execute(DDL)
            db.execute("INSERT INTO t (id, name, n) VALUES (1, 'a', 1)")
            db.close()  # clean close flushes even in "none" mode
            recovered = Database(data_dir=directory, sync_mode=mode)
            assert recovered.row_count("t") == 1
            recovered.close()
        with pytest.raises(DurabilityError):
            Database(data_dir=os.path.join(data_dir, "bad"), sync_mode="lazy")

    def test_checkpoint_refused_inside_transaction(self, data_dir):
        db = Database(data_dir=data_dir)
        db.execute(DDL)
        db.begin()
        with pytest.raises(TransactionError):
            db.checkpoint()
        db.rollback()
        db.close()

    def test_in_memory_database_has_no_checkpoint(self):
        assert Database().checkpoint() is None

    def test_data_dir_is_single_owner(self, data_dir):
        """Two live databases on one data_dir would interleave WAL
        frames and delete each other's segments: the second opener must
        get a clean error, and a close must release the claim."""
        db = Database(data_dir=data_dir)
        with pytest.raises(DurabilityError, match="locked"):
            Database(data_dir=data_dir)
        db.close()
        reopened = Database(data_dir=data_dir)  # released: works again
        reopened.close()

    def test_failed_append_refuses_further_commits(self, data_dir):
        """An I/O error mid-append can leave a torn frame mid-stream
        while the in-memory commit stands; accepting later commits would
        let recovery truncate acknowledged work away, so the WAL goes
        into a failed state instead."""
        db = Database(data_dir=data_dir)
        db.execute(DDL)
        db.execute("INSERT INTO t (id, name, n) VALUES (1, 'a', 1)")

        class _BrokenFile:
            def __init__(self, inner):
                self._inner = inner

            def write(self, data):
                raise OSError(28, "No space left on device")

            def __getattr__(self, name):
                return getattr(self._inner, name)

        wal = db._durability.wal
        intact = wal._file
        wal._file = _BrokenFile(intact)
        with pytest.raises(DurabilityError, match="append failed"):
            db.execute("INSERT INTO t (id, name, n) VALUES (2, 'b', 2)")
        wal._file = intact  # space frees up again...
        with pytest.raises(DurabilityError, match="failed state"):
            # ...but the log must stay failed: a torn frame may sit
            # mid-stream, and anything after it would be lost silently.
            db.execute("INSERT INTO t (id, name, n) VALUES (3, 'c', 3)")
        _simulate_death(db)
        recovered = Database(data_dir=data_dir)  # restart recovers cleanly
        assert recovered.query("SELECT id FROM t").rows == [(1,)]
        recovered.close()

    def test_durability_wait_survives_concurrent_rotation(self, data_dir):
        """A committer that appended to a segment which a checkpoint then
        rotated away must return from its durability wait immediately
        (the rotation flushed the old segment) — not hang against the
        new segment's offsets."""
        db = Database(data_dir=data_dir)
        db.execute(DDL)
        manager = db._durability
        token = manager.log_commit([["x", "-- no-op record"]])
        manager.rotate_wal()  # what checkpoint() does under the lock
        start = time.monotonic()
        manager.wait_durable(token)  # must not block
        assert time.monotonic() - start < 1.0
        db.close()


# ---------------------------------------------------------------------------
# group commit under concurrency
# ---------------------------------------------------------------------------

class TestConcurrentCommitters:
    def test_concurrent_committers_and_checkpoints_all_recover(self, data_dir):
        """4 fsync committers racing each other and two mid-stream
        checkpoints: every acknowledged commit must recover; the group
        flush path must not lose, duplicate, or tear records across the
        segment rotations."""
        import threading

        db = Database(data_dir=data_dir, sync_mode="fsync")
        db.execute(DDL)
        n_threads, per_thread = 4, 30
        errors = []
        gate = threading.Barrier(n_threads + 1)

        def worker(idx):
            gate.wait()
            try:
                for i in range(per_thread):
                    db.execute(
                        f"INSERT INTO t (id, name, n) VALUES "
                        f"({idx * 1000 + i}, 'w{idx}', {i})"
                    )
            except Exception as exc:  # pragma: no cover - must not happen
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,), daemon=True)
            for i in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        gate.wait()
        for _ in range(2):  # checkpoints rotate the WAL mid-stream
            time.sleep(0.01)
            db.checkpoint()
        for thread in threads:
            thread.join(30)
        assert not errors
        committed = db.row_count("t")
        assert committed == n_threads * per_thread
        db.close()
        recovered = Database(data_dir=data_dir)
        assert recovered.row_count("t") == committed
        ids = {row[0] for row in recovered.query("SELECT id FROM t").rows}
        assert ids == {
            idx * 1000 + i
            for idx in range(n_threads)
            for i in range(per_thread)
        }
        recovered.close()


# ---------------------------------------------------------------------------
# torn tails and corruption
# ---------------------------------------------------------------------------

class TestTornTail:
    def _committed(self, data_dir, count):
        db = Database(data_dir=data_dir, sync_mode="os")
        db.execute(DDL)
        for i in range(count):
            db.execute(f"INSERT INTO t (id, name, n) VALUES ({i}, 'r{i}', {i})")
        db.close()
        return os.path.join(data_dir, "wal-00000000.log")

    def test_truncated_final_record_is_dropped(self, data_dir):
        wal = self._committed(data_dir, 5)
        size = os.path.getsize(wal)
        with open(wal, "r+b") as handle:
            handle.truncate(size - 3)  # torn tail: partial final record
        recovered = Database(data_dir=data_dir)
        # exactly the committed prefix: inserts 0..3 survive, 4 was torn
        assert recovered.query("SELECT id FROM t ORDER BY id").rows == [
            (i,) for i in range(4)
        ]
        # the torn bytes are gone: appends restart at a clean boundary
        recovered.execute("INSERT INTO t (id, name, n) VALUES (50, 'new', 50)")
        recovered.close()
        again = Database(data_dir=data_dir)
        assert again.query("SELECT COUNT(*) FROM t").scalar() == 5
        again.close()

    def test_bare_header_tail_is_dropped(self, data_dir):
        wal = self._committed(data_dir, 3)
        with open(wal, "ab") as handle:
            handle.write(struct.pack("<II", 1000, 0))  # header, no payload
        recovered = Database(data_dir=data_dir)
        assert recovered.query("SELECT COUNT(*) FROM t").scalar() == 3
        assert recovered._durability.truncated_bytes == 8
        recovered.close()

    def test_corrupt_crc_stops_replay_at_last_valid_record(self, data_dir):
        wal = self._committed(data_dir, 5)
        size = os.path.getsize(wal)
        with open(wal, "r+b") as handle:
            handle.seek(size - 1)
            byte = handle.read(1)
            handle.seek(size - 1)
            handle.write(bytes([byte[0] ^ 0xFF]))  # flip one payload bit
        recovered = Database(data_dir=data_dir)
        assert recovered.query("SELECT id FROM t ORDER BY id").rows == [
            (i,) for i in range(4)
        ]
        recovered.close()

    def test_garbage_after_valid_records_is_dropped(self, data_dir):
        wal = self._committed(data_dir, 2)
        with open(wal, "ab") as handle:
            handle.write(os.urandom(64))
        recovered = Database(data_dir=data_dir)
        assert recovered.query("SELECT COUNT(*) FROM t").scalar() == 2
        recovered.close()

    def test_empty_wal_recovers_empty_database(self, data_dir):
        db = Database(data_dir=data_dir)
        db.close()
        recovered = Database(data_dir=data_dir)
        assert recovered.schema.table_names() == []
        recovered.close()

    def test_zero_byte_segment_gets_a_fresh_header(self, data_dir):
        """A crash can leave the segment created but its magic never on
        disk.  Recovery must rewrite the header — otherwise commits
        appended after the bad header would be silently dropped by every
        later recovery."""
        wal = self._committed(data_dir, 3)
        with open(wal, "r+b") as handle:
            handle.truncate(0)  # header never reached the disk
        recovered = Database(data_dir=data_dir)
        assert recovered.schema.table_names() == []  # nothing survived
        recovered.execute(DDL)
        recovered.execute("INSERT INTO t (id, name, n) VALUES (1, 'a', 1)")
        recovered.close()
        again = Database(data_dir=data_dir)  # and the new commits DID
        assert again.query("SELECT id FROM t").rows == [(1,)]
        again.close()

    def test_partial_header_segment_is_reset(self, data_dir):
        wal = self._committed(data_dir, 3)
        with open(wal, "r+b") as handle:
            handle.truncate(4)  # half the magic
        recovered = Database(data_dir=data_dir)
        recovered.execute(DDL)
        recovered.execute("INSERT INTO t (id, name, n) VALUES (1, 'a', 1)")
        recovered.close()
        again = Database(data_dir=data_dir)
        assert again.row_count("t") == 1
        again.close()

    def test_corrupt_checkpoint_raises_instead_of_silent_fallback(
        self, data_dir
    ):
        """A checkpoint exists only post-rename with its body fsynced;
        damage to it is disk corruption, and the WAL segments it
        superseded are gone — recovery must refuse, not quietly reopen
        an empty database."""
        db = Database(data_dir=data_dir)
        db.execute(DDL)
        db.execute("INSERT INTO t (id, name, n) VALUES (1, 'a', 1)")
        path = db.checkpoint()
        db.close()
        with open(path, "r+b") as handle:
            handle.seek(30)
            handle.write(b"\xff\xff\xff\xff")
        with pytest.raises(DurabilityError, match="corrupt checkpoint"):
            Database(data_dir=data_dir)


# ---------------------------------------------------------------------------
# kill-point injection
# ---------------------------------------------------------------------------

class TestKillPoints:
    def _seeded(self, data_dir):
        db = Database(data_dir=data_dir)
        db.execute(DDL)
        db.execute("INSERT INTO t (id, name, n) VALUES (1, 'a', 1)")
        return db

    def test_crash_mid_wal_append_loses_only_the_torn_commit(self, data_dir):
        db = self._seeded(data_dir)
        _crash_at("wal:mid-append")
        with pytest.raises(_Killed):
            db.execute("INSERT INTO t (id, name, n) VALUES (2, 'b', 2)")
        # simulate process death: no close(), reopen from disk
        _simulate_death(db)
        recovered = Database(data_dir=data_dir)
        assert recovered.query("SELECT id FROM t").rows == [(1,)]
        assert recovered._durability.truncated_bytes > 0
        recovered.execute("INSERT INTO t (id, name, n) VALUES (3, 'c', 3)")
        recovered.close()
        again = Database(data_dir=data_dir)
        assert again.query("SELECT id FROM t ORDER BY id").rows == [(1,), (3,)]
        again.close()

    def test_crash_before_append_loses_only_that_commit(self, data_dir):
        db = self._seeded(data_dir)
        _crash_at("wal:pre-append")
        with pytest.raises(_Killed):
            db.execute("INSERT INTO t (id, name, n) VALUES (2, 'b', 2)")
        _simulate_death(db)
        recovered = Database(data_dir=data_dir)
        assert recovered.query("SELECT id FROM t").rows == [(1,)]
        recovered.close()

    def test_crash_before_checkpoint_rename_keeps_old_lineage(self, data_dir):
        db = self._seeded(data_dir)
        expected = _state(db)
        _crash_at("checkpoint:pre-rename")
        with pytest.raises(_Killed):
            db.checkpoint()
        _simulate_death(db)
        # the temp file must not be mistaken for a checkpoint
        recovered = Database(data_dir=data_dir)
        assert _state(recovered) == expected
        assert not any(
            name.endswith(".tmp") for name in os.listdir(data_dir)
        )
        recovered.close()

    def test_crash_after_checkpoint_rename_uses_new_checkpoint(self, data_dir):
        db = self._seeded(data_dir)
        expected = _state(db)
        _crash_at("checkpoint:post-rename")
        with pytest.raises(_Killed):
            db.checkpoint()
        _simulate_death(db)
        # rename landed: the new checkpoint is authoritative; stale older
        # files (not yet deleted at the crash) are cleaned up on recovery
        recovered = Database(data_dir=data_dir)
        assert _state(recovered) == expected
        recovered.execute("INSERT INTO t (id, name, n) VALUES (7, 'g', 7)")
        recovered.close()
        again = Database(data_dir=data_dir)
        assert again.row_count("t") == 2
        files = sorted(os.listdir(data_dir))
        assert "checkpoint-00000001.db" in files
        assert "wal-00000000.log" not in files
        again.close()

    def test_crash_during_fsync_wait_is_a_clean_prefix(self, data_dir):
        """A commit that died before its durability wait finished was
        never acknowledged: it may survive (the append reached the OS)
        or vanish (it was still buffered) — but recovery must land on a
        clean prefix boundary either way, never a torn state."""
        db = self._seeded(data_dir)
        _crash_at("wal:pre-sync")
        with pytest.raises(_Killed):
            db.execute("INSERT INTO t (id, name, n) VALUES (2, 'b', 2)")
        _simulate_death(db)
        recovered = Database(data_dir=data_dir)
        assert recovered.query("SELECT id FROM t ORDER BY id").rows in (
            [(1,)],
            [(1,), (2,)],
        )
        recovered.execute("INSERT INTO t (id, name, n) VALUES (3, 'c', 3)")
        recovered.close()
        again = Database(data_dir=data_dir)
        assert again.query("SELECT n FROM t WHERE id = 3").rows == [(3,)]
        again.close()


# ---------------------------------------------------------------------------
# differential recovery vs. the in-memory oracle
# ---------------------------------------------------------------------------

def _random_statement(rng, round_no):
    """One random statement; the same text drives durable db and oracle."""
    roll = rng.random()
    key = rng.randrange(200)
    if roll < 0.45:
        return (
            f"INSERT INTO t (id, name, n) VALUES "
            f"({round_no * 1000 + key}, 'r{key}', {key})"
        )
    if roll < 0.65:
        return f"UPDATE t SET n = n + {key % 7} WHERE n < {key}"
    if roll < 0.8:
        return f"DELETE FROM t WHERE n > {150 + key % 50}"
    if roll < 0.9:
        return f"CREATE TABLE extra_{round_no} (id INTEGER PRIMARY KEY)"
    return f"INSERT INTO t (id, name, n) VALUES ({key}, 'dup', {key})"


class TestDifferentialRecovery:
    @pytest.mark.parametrize("seed", [7, 23, 91])
    def test_recovery_equals_oracle_at_crash_boundary(self, data_dir, seed):
        rng = random.Random(seed)
        db = Database(data_dir=data_dir, sync_mode="os")
        oracle = Database()
        for target in (db, oracle):
            target.execute(DDL)
        crash_after = rng.randrange(10, 40)
        statements = [_random_statement(rng, i) for i in range(60)]
        executed = 0
        for statement in statements:
            if executed == crash_after:
                # crash mid-append of the next commit: it must vanish
                _crash_at("wal:mid-append")
            try:
                db.execute(statement)
                survived = True
            except _Killed:
                break
            except Exception:
                survived = False  # failed statement: no commit either side
            if survived:
                try:
                    oracle.execute(statement)
                except Exception:  # pragma: no cover - must match db
                    pytest.fail(f"oracle diverged on {statement!r}")
            else:
                with pytest.raises(Exception):
                    oracle.execute(statement)
            executed += 1
        _simulate_death(db)
        recovered = Database(data_dir=data_dir)
        assert _state(recovered) == _state(oracle)
        # and the recovered database keeps working like the oracle
        for statement in statements[:5]:
            outcomes = []
            for target in (recovered, oracle):
                try:
                    outcomes.append(("ok", target.execute(statement).rowcount))
                except Exception as exc:
                    outcomes.append(("err", type(exc).__name__))
            assert outcomes[0] == outcomes[1]
        assert _state(recovered) == _state(oracle)
        recovered.close()

    @pytest.mark.parametrize("seed", [3, 58])
    def test_clean_close_recovery_with_checkpoints(self, data_dir, seed):
        rng = random.Random(seed)
        db = Database(data_dir=data_dir, sync_mode="none")
        oracle = Database()
        for target in (db, oracle):
            target.execute(DDL)
        for i in range(50):
            statement = _random_statement(rng, i)
            outcomes = []
            for target in (db, oracle):
                try:
                    target.execute(statement)
                    outcomes.append("ok")
                except Exception as exc:
                    outcomes.append(type(exc).__name__)
            assert outcomes[0] == outcomes[1], statement
            if i % 17 == 16:
                db.checkpoint()
        db.close()
        recovered = Database(data_dir=data_dir)
        assert _state(recovered) == _state(oracle)
        recovered.close()


# ---------------------------------------------------------------------------
# the commit path through Session (ISSUE 13): commit under the write-tier
# lock, durability wait after it
# ---------------------------------------------------------------------------

def _insert_author(key):
    return (
        "PREFIX foaf: <http://xmlns.com/foaf/0.1/> "
        "PREFIX ex: <http://example.org/db/> "
        f'INSERT DATA {{ ex:author{key} foaf:firstName "F{key}" ; '
        f'foaf:family_name "L{key}" . }}'
    )


def _author_ids(db):
    return [row[0] for row in db.query("SELECT id FROM author ORDER BY id").rows]


def _wait_for(condition, what, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.005)


class TestSessionCommitPath:
    @pytest.fixture
    def durable(self, data_dir):
        db = Database(data_dir=data_dir, sync_mode="fsync")
        db.execute_script(PUBLICATION_DDL)
        session = OntoAccess(db, build_mapping(db)).session()
        yield db, session
        if db._durability._lock_file is not None:
            db.close()

    @staticmethod
    def _stall_first_sync():
        """Park the first flusher at ``wal:pre-sync`` until released."""
        entered, release = threading.Event(), threading.Event()
        INJECTOR.inject(
            "wal:pre-sync",
            call=lambda site: entered.set(), stall=release, times=1,
        )
        return entered, release

    @staticmethod
    def _writer(session, key, outcomes):
        def run():
            try:
                session.execute(_insert_author(key))
                outcomes[key] = "ok"
            except Exception as exc:
                outcomes[key] = exc
        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        return thread

    def test_two_session_writers_share_flushes(self, durable):
        db, session = durable
        wal = db._durability.wal

        INJECTOR.inject("wal:pre-sync", latency=0.03)
        commits, syncs = wal.commit_count, wal.sync_count
        errors = []

        def worker(base):
            try:
                for index in range(10):
                    session.execute(_insert_author(base + index))
            except Exception as exc:  # pragma: no cover - must not happen
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(base,), daemon=True)
            for base in (100, 200)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        assert not errors and not any(t.is_alive() for t in threads)
        assert wal.commit_count - commits == 20
        # held across the wait, the session lock made this 20 == 20
        assert wal.sync_count - syncs < 20
        assert len(_author_ids(db)) == 20

    def test_second_writer_appends_while_the_first_waits_for_its_flush(
        self, durable
    ):
        db, session = durable
        wal = db._durability.wal
        entered, release = self._stall_first_sync()
        appends, syncs = wal.append_count, wal.sync_count
        outcomes = {}
        first = self._writer(session, 1, outcomes)
        try:
            assert entered.wait(5.0), "first writer never reached its flush"
            second = self._writer(session, 2, outcomes)
            # the second writer begins, executes and appends while the
            # first is still inside its (stalled) flush...
            _wait_for(
                lambda: wal.append_count - appends == 2, "the second append"
            )
            assert _author_ids(db) == [1, 2]
            # ...and neither is acknowledged before the flush happened
            assert first.is_alive() and second.is_alive()
            assert outcomes == {}
        finally:
            release.set()
        first.join(10)
        second.join(10)
        assert outcomes == {1: "ok", 2: "ok"}
        assert wal.sync_count - syncs == 1  # one flush carried both

    def test_unacknowledged_commit_and_acknowledged_prefix(self, durable):
        """Death inside the durability wait: that caller got no OK, and
        recovery holds every acknowledged write (the unacknowledged one
        may or may not have reached the OS)."""
        db, session = durable
        acknowledged = []
        for key in (1, 2, 3):
            session.execute(_insert_author(key))
            acknowledged.append(key)
        _crash_at("wal:pre-sync")
        with pytest.raises(_Killed):
            session.execute(_insert_author(4))
        assert not db.in_transaction()
        _simulate_death(db)
        recovered = Database(data_dir=db._durability.data_dir)
        try:
            assert _author_ids(recovered) in (acknowledged, acknowledged + [4])
        finally:
            recovered.close()

    def test_writer_is_not_queued_behind_another_writers_replica_ack(
        self, durable
    ):
        """Semi-sync with no replica connected: every commit's barrier
        stalls until ``ack_timeout``.  The barrier runs after the
        write-tier lock is released, so a second writer commits while
        the first is still waiting for its ack."""
        db, session = durable
        shipper = LogShipper(db, min_sync_replicas=1, ack_timeout=1.5)
        shipper.start()
        outcomes = {}
        try:
            first = self._writer(session, 1, outcomes)
            _wait_for(lambda: _author_ids(db) == [1], "the first commit")
            second = self._writer(session, 2, outcomes)
            _wait_for(lambda: _author_ids(db) == [1, 2], "the second commit")
            assert first.is_alive(), "second writer waited out the barrier"
            first.join(10)
            second.join(10)
        finally:
            shipper.stop()
        # locally durable, reported as unacknowledged — to both
        assert all(
            isinstance(outcomes[key], ReplicationError) for key in (1, 2)
        ), outcomes
        assert shipper.barrier_timeouts == 2


    def test_writer_commits_while_a_checkpoint_is_being_written(self, durable):
        """``Session.checkpoint`` holds no write-tier lock while the
        snapshot is serialized: with the checkpoint parked just before
        its rename, another thread's update commits and is acknowledged."""
        db, session = durable
        session.execute(_insert_author(1))
        parked, release = threading.Event(), threading.Event()

        INJECTOR.inject(
            "checkpoint:pre-rename",
            call=lambda site: parked.set(), stall=release,
        )
        paths, outcomes = [], {}
        checkpointer = threading.Thread(
            target=lambda: paths.append(session.checkpoint()), daemon=True
        )
        checkpointer.start()
        try:
            assert parked.wait(5.0), "checkpoint never reached its rename"
            writer = self._writer(session, 2, outcomes)
            writer.join(5.0)
            assert outcomes == {2: "ok"}, "the update waited for the checkpoint"
            assert checkpointer.is_alive() and not paths
        finally:
            release.set()
        checkpointer.join(10)
        assert not checkpointer.is_alive() and paths[0]
        _simulate_death(db)
        recovered = Database(data_dir=db._durability.data_dir)
        try:
            assert _author_ids(recovered) == [1, 2]
        finally:
            recovered.close()


# ---------------------------------------------------------------------------
# the streamed checkpoint encoder (ISSUE 13)
# ---------------------------------------------------------------------------

class TestStreamedCheckpoint:
    def test_file_is_byte_identical_to_the_one_shot_encoding(self, data_dir):
        db = Database(data_dir=data_dir, sync_mode="none")
        db.execute(DDL)
        db.execute(
            "CREATE TABLE log (seq INTEGER PRIMARY KEY AUTOINCREMENT, "
            "msg VARCHAR(20), t_id INTEGER)"
        )
        db.execute("CREATE INDEX idx_t_n ON t (n)")
        for key in range(1, 8):
            db.execute(
                f"INSERT INTO t (id, name, n) VALUES ({key}, "
                f"{'NULL' if key % 3 == 0 else repr('r%d' % key)}, "
                f"{'NULL' if key % 2 == 0 else key * 1000003})"
            )
            db.execute(f"INSERT INTO log (msg, t_id) VALUES ('m{key}', {key})")
        db.execute("DELETE FROM log WHERE seq = 7")  # counter stays at 8
        # an undo reinstates a row below its page's last id
        # (TableData.restore); the checkpoint must still list rows by id
        table_data = db.table_data("t")
        table_data.restore(2, table_data.delete(2))
        assert list(table_data.rows) == [1, 2, 3, 4, 5, 6, 7]

        snap = db.snapshot()
        body = {
            "ddl": list(db._ddl_history),
            "tables": {
                name: {
                    "next_rowid": table_data._next_rowid,
                    "autoincrement": dict(table_data._autoincrement_next),
                    "rows": [
                        [rowid, named(table_data, row)]
                        for rowid, row in sorted(table_data.rows.items())
                    ],
                }
                for name, table_data in snap.tables.items()
            },
        }
        payload = encode_payload(body)
        expected = (
            _CKPT_MAGIC
            + _FRAME.pack(len(payload), zlib.crc32(payload))
            + payload
        )
        path = db.checkpoint()
        with open(path, "rb") as handle:
            assert handle.read() == expected
        before = _state(db)
        db.close()
        recovered = Database(data_dir=data_dir)
        try:
            assert _state(recovered) == before
            recovered.execute("INSERT INTO log (msg, t_id) VALUES ('n', 1)")
            assert recovered.query("SELECT MAX(seq) FROM log").rows == [(8,)]
        finally:
            recovered.close()

    def test_peak_memory_does_not_follow_the_row_count(self, tmp_path):
        """The encoder spills as it goes: twice the rows is not twice
        the memory (the one-shot encoder held every row's pieces)."""
        def peak(rows):
            db = Database(data_dir=str(tmp_path / f"d{rows}"), sync_mode="none")
            db.execute(DDL)
            with db.transaction():
                for key in range(rows):
                    db.execute(
                        f"INSERT INTO t (id, name, n) "
                        f"VALUES ({key}, 'name-{key}', {key})"
                    )
            tracemalloc.start()
            try:
                db.checkpoint()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
                db.close()

        small, large = peak(6000), peak(12000)
        assert large < 1.3 * small, (small, large)


# ---------------------------------------------------------------------------
# a real process kill
# ---------------------------------------------------------------------------

_CHILD = textwrap.dedent(
    """
    import sys
    from repro.rdb import Database

    db = Database(data_dir=sys.argv[1], sync_mode="fsync")
    db.execute(
        "CREATE TABLE IF NOT EXISTS t "
        "(id INTEGER PRIMARY KEY, n INTEGER)"
    )
    i = 0
    while True:
        db.execute(f"INSERT INTO t (id, n) VALUES ({i}, {i})")
        # the commit fsync'd: acknowledge it on stdout
        print(i, flush=True)
        i += 1
    """
)


class TestProcessKill:
    def test_sigkill_mid_stream_keeps_every_acknowledged_commit(
        self, data_dir
    ):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        child = subprocess.Popen(
            [sys.executable, "-c", _CHILD, data_dir],
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )
        acknowledged = -1
        deadline = time.monotonic() + 30
        try:
            while acknowledged < 25 and time.monotonic() < deadline:
                line = child.stdout.readline()
                if not line:
                    break
                acknowledged = int(line)
        finally:
            child.kill()  # SIGKILL: no atexit, no flush, no goodbye
            child.wait(10)
        assert acknowledged >= 25, "child never got going"

        recovered = Database(data_dir=data_dir)
        ids = [row[0] for row in recovered.query("SELECT id FROM t ORDER BY id").rows]
        # exactly a prefix: every acknowledged commit survived, and at
        # most one in-flight (appended, unacknowledged) commit beyond it
        assert ids == list(range(len(ids)))
        assert len(ids) >= acknowledged + 1
        recovered.close()
