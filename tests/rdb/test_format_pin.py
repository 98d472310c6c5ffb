"""The on-disk and wire formats, pinned byte for byte.

:func:`write_sequence` drives one scripted history into a ``data_dir``:
DDL (tables, a declared and a unique index), a team and authors through
the mediator, the Listing 15 block, a MODIFY, a plain SQL UPDATE, an
mbox delete and a full entity delete, rows holding every stored value
type (NULL, bool, int, float, str), a checkpoint, and more writes after
it.  The files it wrote when the format was pinned are kept under
``format_pin/``:

* ``wal-00000000.log`` — the segment as it stood just before the
  checkpoint;
* ``checkpoint-00000001.db`` — the checkpoint body;
* ``wal-00000001.log`` — the tail written after the checkpoint;
* ``dump.nt`` and ``tables.json`` — what the final state answers.

The tests assert that today's code writes the same bytes, that the
pinned files recover to the pinned answers, and that a replica
bootstrapped from them answers the same.  WAL records, checkpoint bodies
and replication frames are read by other versions of this program (a
``data_dir`` outlives the process that wrote it; a replica may run
another build than its primary), so any difference here is a defect, not
a fixture to refresh.  ``python tests/rdb/test_format_pin.py <dir>``
writes the sequence into ``<dir>``, for inspecting a difference.
"""

import json
import os
import shutil
import sys
import zlib
from pathlib import Path

from repro.core.mediator import OntoAccess
from repro.rdb import Database
from repro.rdb.durability import _CKPT_MAGIC, _FRAME, decode_payload, encode_payload
from repro.replication import LogShipper, Replica
from repro.workloads.operations import (
    PREFIXES,
    delete_email_op,
    insert_author_op,
    insert_full_publication_op,
    insert_team_op,
    modify_email_op,
)
from repro.workloads.publication import PUBLICATION_DDL, build_mapping

FIXTURE = Path(__file__).with_name("format_pin")
BEFORE_CHECKPOINT = "wal-00000000.log"
CHECKPOINT = "checkpoint-00000001.db"
TAIL = "wal-00000001.log"

#: Rows of every value type the encoding knows, NULLs included.
MEASURE_DDL = (
    "CREATE TABLE measure (id INTEGER PRIMARY KEY, ratio REAL, "
    "flag BOOLEAN, note VARCHAR(40), day DATE);"
)


def _mediator(db):
    return OntoAccess(db, build_mapping(db))


def first_writes(db):
    """Everything before the checkpoint."""
    db.execute_script(PUBLICATION_DDL)
    db.execute(MEASURE_DDL)
    db.execute("CREATE INDEX author_lastname ON author (lastname)")
    db.execute("CREATE UNIQUE INDEX measure_note ON measure (note)")
    oa = _mediator(db)
    oa.update(insert_team_op(5, "Software Engineering", "SEAL"))
    oa.update(insert_team_op(7))
    for author_id, team_id in ((10, 5), (11, 7), (12, None), (13, 5)):
        oa.update(insert_author_op(author_id, team_id))
    oa.update(insert_full_publication_op(21, 6, 9, 4, 3))
    oa.update(modify_email_op("First10", "Generated10", "ten@example.org"))
    db.execute("UPDATE author SET title = 'Dr' WHERE id = 11")
    oa.update(delete_email_op(12, "author12@example.org"))
    oa.update(PREFIXES + """
DELETE DATA {
    ex:author13 a foaf:Person ;
        foaf:firstName "First13" ;
        foaf:family_name "Generated13" ;
        foaf:mbox <mailto:author13@example.org> ;
        ont:team ex:team5 .
}
""")
    db.execute_script("""
        INSERT INTO measure (id, ratio, flag, note, day)
            VALUES (1, 0.25, TRUE, 'quarter', '2009-06-01');
        INSERT INTO measure (id, ratio, flag, note) VALUES (2, -3.5, FALSE, 'negative');
        INSERT INTO measure (id) VALUES (3);
        UPDATE measure SET ratio = 1e300, flag = NULL WHERE id = 2;
    """)


def tail_writes(db):
    """Everything after the checkpoint."""
    oa = _mediator(db)
    oa.update(insert_author_op(14, 7, lastname="Tail"))
    oa.update(modify_email_op("First14", "Tail14", "tail@example.org"))
    db.execute("DELETE FROM measure WHERE id = 3")
    db.execute("UPDATE measure SET note = 'unique' WHERE id = 1")
    db.execute("INSERT INTO measure (id, ratio, note) VALUES (4, 2.0, 'four')")


def write_sequence(data_dir, before_checkpoint):
    """Write the scripted history into ``data_dir`` and close it; the
    WAL segment as it stands just before the checkpoint is copied into
    the directory ``before_checkpoint``."""
    db = Database(data_dir=str(data_dir), sync_mode="os")
    try:
        first_writes(db)
        db._durability.flush()
        shutil.copyfile(
            Path(data_dir) / BEFORE_CHECKPOINT,
            Path(before_checkpoint) / BEFORE_CHECKPOINT,
        )
        db.checkpoint()
        tail_writes(db)
    finally:
        db.close()


def answers(db):
    """What a state answers: every table's rows in key order, and the
    mapped database as sorted N-Triples lines."""
    tables = {}
    for name in sorted(db.schema.table_names()):
        order = ", ".join(db.table(name).column_names())
        rows = db.query(f"SELECT * FROM {name} ORDER BY {order}").rows
        tables[name] = [list(row) for row in rows]
    triples = sorted(
        f"{s.n3()} {p.n3()} {o.n3()} ." for s, p, o in _mediator(db).dump()
    )
    return tables, triples


def pinned_answers():
    tables = json.loads((FIXTURE / "tables.json").read_text())
    triples = (FIXTURE / "dump.nt").read_text().splitlines()
    return tables, triples


def _copy_fixture(target, names):
    target.mkdir()
    for name in names:
        shutil.copyfile(FIXTURE / name, target / name)
    return target


class TestWrittenBytes:
    def test_sequence_writes_the_pinned_files(self, tmp_path):
        data_dir = tmp_path / "written"
        write_sequence(data_dir, tmp_path)
        assert (tmp_path / BEFORE_CHECKPOINT).read_bytes() == (
            FIXTURE / BEFORE_CHECKPOINT
        ).read_bytes()
        for name in (CHECKPOINT, TAIL):
            assert (data_dir / name).read_bytes() == (FIXTURE / name).read_bytes(), name
        written = sorted(
            name for name in os.listdir(data_dir)
            if name.startswith(("wal-", "checkpoint-"))
        )
        assert written == [CHECKPOINT, TAIL]

    def test_a_decoded_checkpoint_encodes_back_to_its_bytes(self, tmp_path):
        """A shipper bootstraps a replica with the checkpoint body it
        decoded from disk, encoded again: the same payload bytes."""
        data_dir = _copy_fixture(tmp_path / "primary", [CHECKPOINT, TAIL])
        db = Database(data_dir=str(data_dir), sync_mode="os")
        try:
            body = decode_payload(db._durability.checkpoint_payload(1))
        finally:
            db.close()
        payload = encode_payload(body)
        assert (FIXTURE / CHECKPOINT).read_bytes() == (
            _CKPT_MAGIC + _FRAME.pack(len(payload), zlib.crc32(payload)) + payload
        )


class TestPinnedFilesOpen:
    def test_checkpoint_and_tail_recover_to_the_pinned_answers(self, tmp_path):
        data_dir = _copy_fixture(tmp_path / "recovered", [CHECKPOINT, TAIL])
        db = Database(data_dir=str(data_dir))
        try:
            assert answers(db) == pinned_answers()
        finally:
            db.close()
        memory = Database()
        first_writes(memory)
        tail_writes(memory)
        assert answers(memory) == pinned_answers()

    def test_segment_before_checkpoint_replays_to_the_scripted_state(
        self, tmp_path
    ):
        """The pre-checkpoint segment alone — DDL, inserts, updates and
        deletes as WAL records — replays to what the same writes leave
        in a fresh in-memory database."""
        data_dir = _copy_fixture(tmp_path / "replayed", [BEFORE_CHECKPOINT])
        db = Database(data_dir=str(data_dir))
        try:
            replayed = answers(db)
        finally:
            db.close()
        memory = Database()
        first_writes(memory)
        assert replayed == answers(memory)
        tables, _ = replayed
        assert [row[0] for row in tables["measure"]] == [1, 2, 3]

    def test_replica_bootstrapped_from_the_pinned_files_answers_the_same(
        self, tmp_path
    ):
        data_dir = _copy_fixture(tmp_path / "primary", [CHECKPOINT, TAIL])
        db = Database(data_dir=str(data_dir), sync_mode="os")
        shipper = replica = None
        try:
            shipper = LogShipper(db).start()
            replica = Replica(shipper.address).start()
            assert replica.wait_ready(15.0), replica.status()
            assert replica.snapshots_loaded == 1
            assert replica.wait_applied(db._durability.position(), 15.0)
            assert answers(replica.db) == pinned_answers()
            # the stream applies on top of the bootstrapped rows
            db.execute("UPDATE measure SET flag = TRUE WHERE id = 4")
            db.execute("DELETE FROM measure WHERE id = 2")
            assert replica.wait_applied(db._durability.position(), 15.0)
            assert answers(replica.db) == answers(db)
        finally:
            if replica is not None:
                replica.close()
            if shipper is not None:
                shipper.stop()
            db.close()


def _pin(directory):
    """Write the sequence into ``directory`` plus the answers files."""
    directory = Path(directory)
    directory.mkdir(parents=True)
    data_dir = directory / "data_dir"
    write_sequence(data_dir, directory)
    for name in (CHECKPOINT, TAIL):
        shutil.copyfile(data_dir / name, directory / name)
    db = Database(data_dir=str(data_dir))
    try:
        tables, triples = answers(db)
    finally:
        db.close()
    shutil.rmtree(data_dir)
    (directory / "tables.json").write_text(
        "{\n"
        + ",\n".join(
            f"{json.dumps(name)}: [\n"
            + ",\n".join(f"  {json.dumps(row)}" for row in rows)
            + "\n]"
            for name, rows in tables.items()
        )
        + "\n}\n"
    )
    (directory / "dump.nt").write_text("\n".join(triples) + "\n")


if __name__ == "__main__":
    _pin(sys.argv[1])
