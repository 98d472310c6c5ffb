"""A replicated batch is a transaction.

``Database.apply_replicated`` runs a shipped commit batch through the
begin / commit / rollback steps every write takes, so a batch that fails
part-way leaves the replica's working and published state as they were,
and the same batch applies when it is sent again.  The replica
supervisor treats an apply error like a wire error: the connection
ends, the error is counted, the stream resumes from the applied
position, and the replica converges.

Every wait here is bounded: a regression fails an assertion, it never
hangs the run.
"""

import threading
import time

import pytest

from repro.errors import TransactionError
from repro.faults import INJECTOR
from repro.rdb import Database
from repro.rdb.durability import decode_payload, iter_wal_frames
from repro.rdb.storage import TableData
from repro.replication import LogShipper, Replica
from tests.rdb.test_storage import named_rows


@pytest.fixture(autouse=True)
def clean_injector():
    INJECTOR.clear()
    yield
    INJECTOR.clear()


def _fail_insert(monkeypatch, times=1):
    """Make ``TableData.restore`` of row id 4 — the insert of
    :data:`_BATCH`, not the undo of its delete — raise ``MemoryError``
    ``times`` times (None: every time); returns the event set once it
    has raised."""
    original = TableData.restore
    raised = threading.Event()
    budget = [times]

    def failing(self, rowid, row):
        if rowid == 4 and budget[0] != 0:
            if budget[0] is not None:
                budget[0] -= 1
            raised.set()
            raise MemoryError("injected storage failure")
        return original(self, rowid, row)

    monkeypatch.setattr(TableData, "restore", failing)
    return raised


def _ids(db):
    return [row[0] for row in db.query("SELECT id FROM kv ORDER BY id").rows]


def _replica_db(tmp_path=None):
    db = Database() if tmp_path is None else Database(
        data_dir=str(tmp_path / "replica"), sync_mode="os"
    )
    db.read_only = True
    return db


def _seed(db):
    position = (0, 16)
    for batch in (
        [("x", "CREATE TABLE kv (id INTEGER PRIMARY KEY, v INTEGER);")],
        [("i", "kv", rowid, {"id": rowid, "v": rowid}) for rowid in (1, 2, 3)],
    ):
        position = (0, position[1] + 100)
        db.apply_replicated(batch, position=position, epoch=1)
    return position


#: one primary commit: DELETE id = 1, then INSERT id = 9 (row id 4)
_BATCH = [("d", "kv", 1), ("i", "kv", 4, {"id": 9, "v": 9})]


class TestApplyReplicated:
    @pytest.mark.parametrize("durable", [False, True], ids=["memory", "durable"])
    def test_failed_batch_rolls_back_and_applies_again(
        self, tmp_path, monkeypatch, durable
    ):
        db = _replica_db(tmp_path if durable else None)
        seeded = _seed(db)
        published = db.snapshot()  # a reader holds the committed snapshot
        raised = _fail_insert(monkeypatch)
        with pytest.raises(MemoryError):
            db.apply_replicated(_BATCH, position=(0, seeded[1] + 100), epoch=1)
        assert raised.is_set()
        # the delete before the failure is undone: working store,
        # published snapshot and the held snapshot all read 1, 2, 3
        assert _ids(db) == [1, 2, 3]
        assert [row["id"] for _, row in named_rows(db.table_data("kv"))] == [1, 2, 3]
        assert [row["id"] for _, row in named_rows(published.tables["kv"])] == [
            1, 2, 3,
        ]
        assert db.replicated_position == seeded
        assert not db.in_transaction()
        # the frame sent again applies
        db.apply_replicated(_BATCH, position=(0, seeded[1] + 100), epoch=1)
        assert _ids(db) == [2, 3, 9]
        assert db.replicated_position == (0, seeded[1] + 100)
        if durable:
            db.close()
            recovered = Database(data_dir=str(tmp_path / "replica"))
            try:
                assert _ids(recovered) == [2, 3, 9]
                assert recovered.replicated_position == (0, seeded[1] + 100)
            finally:
                recovered.close()

    def test_durable_batch_journals_one_record_ending_in_provenance(
        self, tmp_path
    ):
        db = _replica_db(tmp_path)
        seeded = _seed(db)
        manager = db._durability
        manager.ship_flush()
        start = manager.position()[1]
        db.apply_replicated(
            _BATCH + [("p", 1, 0, 40)], position=(0, seeded[1] + 100), epoch=1
        )
        manager.ship_flush()
        path = manager.segment_path(manager.generation)
        frames = [
            decode_payload(payload)
            for payload, _ in iter_wal_frames(path, start)
        ]
        db.close()
        # the upstream note is superseded by this replica's own
        assert frames == [[
            ["d", "kv", 1], ["i", "kv", 4, {"id": 9, "v": 9}],
            ["p", 1, 0, seeded[1] + 100],
        ]]

    def test_open_transaction_refuses_a_batch(self):
        db = _replica_db()
        _seed(db)
        db.read_only = False
        db.begin()
        try:
            with pytest.raises(TransactionError):
                db.apply_replicated(_BATCH, position=(0, 999), epoch=1)
        finally:
            db.rollback()
        assert _ids(db) == [1, 2, 3]


class _Topology:
    """A durable primary with a kv table, its shipper and one replica."""

    def __init__(self, tmp_path):
        self.db = Database(data_dir=str(tmp_path / "primary"), sync_mode="os")
        self.db.execute("CREATE TABLE kv (id INTEGER PRIMARY KEY, v INTEGER)")
        self.db.execute("INSERT INTO kv (id, v) VALUES (1, 1), (2, 2), (3, 3)")
        self.shipper = LogShipper(self.db, heartbeat_interval=0.05).start()
        self.replica = Replica(
            self.shipper.address, reconnect_backoff=0.05, max_backoff=0.4
        ).start()
        assert self.replica.wait_ready(10.0), self.replica.status()

    def commit_delete_and_insert(self):
        with self.db.transaction():
            self.db.execute("DELETE FROM kv WHERE id = 1")
            self.db.execute("INSERT INTO kv (id, v) VALUES (9, 9)")

    def close(self):
        self.replica.close()
        self.shipper.stop()
        self.db.close()


@pytest.fixture
def topo(tmp_path):
    topology = _Topology(tmp_path)
    yield topology
    topology.close()


def _wait(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


class TestSupervisor:
    def test_supervisor_survives_an_apply_error_and_converges(
        self, topo, monkeypatch
    ):
        replica = topo.replica
        replica.db.snapshot()  # a reader consumed a snapshot on the replica
        raised = _fail_insert(monkeypatch)
        topo.commit_delete_and_insert()
        assert _ids(topo.db) == [2, 3, 9]
        assert _wait(raised.is_set), "the injected failure never fired"
        assert _wait(lambda: _ids(replica.db) == [2, 3, 9]), replica.status()
        assert replica._thread.is_alive()
        status = replica.status()
        assert status["apply_errors"] == 1, status
        assert "MemoryError" in (replica.last_error or "")
        assert replica.metrics()["apply_errors"] == 1.0
        position = topo.db._durability.position()
        assert _wait(lambda: replica.applied_position() >= position)
        assert _wait(lambda: replica.status()["connected"])

    def test_a_frame_that_keeps_failing_backs_off(self, topo, monkeypatch):
        """The backoff resets only when a frame or snapshot applies, so a
        frame that fails every time is retried ever more slowly — not in
        a reconnect loop — and every failure is counted."""
        replica = topo.replica
        _fail_insert(monkeypatch, times=None)
        connects = replica.connects
        topo.commit_delete_and_insert()
        time.sleep(1.5)
        retries = replica.connects - connects
        # waits 0.05, 0.1, 0.2, then 0.4 s (the cap): about 6 in 1.5 s
        assert 2 <= retries <= 10, replica.status()
        assert replica.apply_errors >= retries, replica.status()
        assert replica._thread.is_alive()
        assert _ids(replica.db) == [1, 2, 3]
        monkeypatch.undo()
        assert _wait(lambda: _ids(replica.db) == [2, 3, 9]), replica.status()
