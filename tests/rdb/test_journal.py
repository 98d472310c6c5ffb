"""One journal per transaction.

Every mutation is recorded once, as one entry: rollback and a failed
statement's savepoint invert the entries, and commit writes them to the
write-ahead log.  DDL is not transactional — its entries survive a
rollback and are logged.
"""

import pytest

from repro.errors import IntegrityError
from repro.rdb import Database
from repro.rdb.durability import decode_payload, iter_wal_frames

DDL = "CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)"


def _ids(db, table="t"):
    return [row[0] for row in db.query(f"SELECT id FROM {table} ORDER BY id").rows]


def _records(db):
    """Every commit record in the current WAL segment, decoded."""
    manager = db._durability
    manager.ship_flush()
    path = manager.segment_path(manager.generation)
    return [decode_payload(payload) for payload, _ in iter_wal_frames(path)]


class TestOneEntryPerMutation:
    def test_each_mutated_row_is_one_entry(self):
        db = Database()
        db.execute(DDL)
        db.begin()
        txn = db._txn
        db.execute("INSERT INTO t (id, v) VALUES (1, 1), (2, 2), (3, 3)")
        assert [entry.kind for entry in txn.journal] == ["i"] * 3
        db.execute("UPDATE t SET v = v + 10 WHERE id >= 2")
        assert [entry.kind for entry in txn.journal][3:] == ["u", "u"]
        db.execute("DELETE FROM t WHERE id = 1")
        db.execute("CREATE TABLE u (id INTEGER PRIMARY KEY)")
        assert [entry.kind for entry in txn.journal][5:] == ["d", "x"]
        db.commit()
        assert db.query("SELECT id, v FROM t ORDER BY id").rows == [
            (2, 12), (3, 13),
        ]

    def test_commit_record_is_the_journal(self, tmp_path):
        db = Database(data_dir=str(tmp_path / "dd"), sync_mode="os")
        try:
            db.execute(DDL)
            with db.transaction():
                db.execute("INSERT INTO t (id, v) VALUES (1, 1), (2, 2)")
                db.execute("UPDATE t SET v = 5 WHERE id = 2")
                db.execute("DELETE FROM t WHERE id = 1")
            records = _records(db)
        finally:
            db.close()
        assert records[-1] == [
            ["i", "t", 1, {"id": 1, "v": 1}],
            ["i", "t", 2, {"id": 2, "v": 2}],
            ["u", "t", 2, {"v": 5}],
            ["d", "t", 1],
        ]


class TestRollback:
    def test_statement_savepoint_undoes_only_the_failed_statement(self):
        db = Database()
        db.execute(DDL)
        db.begin()
        db.execute("INSERT INTO t (id, v) VALUES (1, 1)")
        db.execute("UPDATE t SET v = 2 WHERE id = 1")
        mark = len(db._txn.journal)
        with pytest.raises(IntegrityError):
            # rows 2 and 3 go in before the duplicate key fails
            db.execute("INSERT INTO t (id, v) VALUES (2, 2), (3, 3), (1, 9)")
        assert len(db._txn.journal) == mark
        assert db.query("SELECT id, v FROM t ORDER BY id").rows == [(1, 2)]
        db.execute("INSERT INTO t (id, v) VALUES (4, 4)")
        db.commit()
        assert db.query("SELECT id, v FROM t ORDER BY id").rows == [
            (1, 2), (4, 4),
        ]

    def test_undo_acts_on_the_table_version_it_changed(self):
        """INSERT, DROP, CREATE under the same name, INSERT, ROLLBACK:
        the DDL stands (it is not transactional), the new table is
        empty, and undoing the first insert — into the dropped table —
        raises nothing."""
        db = Database()
        db.execute(DDL)
        db.begin()
        db.execute("INSERT INTO t (id, v) VALUES (1, 1)")
        db.execute("DROP TABLE t")
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, w INTEGER)")
        db.execute("INSERT INTO t (id, w) VALUES (2, 2)")
        db.rollback()
        assert db.schema.table("t").has_column("w")
        assert _ids(db) == []
        db.execute("INSERT INTO t (id, w) VALUES (3, 3)")
        assert _ids(db) == [3]

    def test_rollback_logs_the_surviving_ddl_only(self, tmp_path):
        path = str(tmp_path / "dd")
        db = Database(data_dir=path, sync_mode="os")
        db.execute(DDL)
        db.execute("INSERT INTO t (id, v) VALUES (1, 1)")
        db.begin()
        db.execute("INSERT INTO t (id, v) VALUES (2, 2)")
        db.execute("CREATE TABLE u (id INTEGER PRIMARY KEY)")
        db.execute("DELETE FROM t WHERE id = 1")
        db.execute("CREATE INDEX t_v ON t (v)")
        db.rollback()
        assert _records(db)[-1] == [
            ["x", "CREATE TABLE u (id INTEGER PRIMARY KEY);"],
            ["x", "CREATE INDEX t_v ON t (v);"],
        ]
        assert _ids(db) == [1]
        db.close()
        recovered = Database(data_dir=path)
        try:
            assert _ids(recovered) == [1]
            assert _ids(recovered, "u") == []
            assert recovered.schema.has_index("t_v")
        finally:
            recovered.close()

    def test_failed_deferred_check_rolls_back_at_commit(self):
        db = Database(constraint_mode="deferred")
        db.execute("CREATE TABLE p (id INTEGER PRIMARY KEY)")
        db.execute("CREATE TABLE c (id INTEGER PRIMARY KEY, "
                   "p INTEGER REFERENCES p(id))")
        db.begin()
        db.execute("INSERT INTO p (id) VALUES (1)")
        db.execute("INSERT INTO c (id, p) VALUES (1, 7)")
        with pytest.raises(IntegrityError):
            db.commit()
        assert not db.in_transaction()
        assert _ids(db, "p") == [] and _ids(db, "c") == []
