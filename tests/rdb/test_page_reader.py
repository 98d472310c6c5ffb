"""How a plan reads a table: a page of rows, or a chunk of row ids, at a time.

A full scan reads :meth:`TableData.pages`; an index path reads its row
ids through :meth:`TableData.id_chunks` and the rows inline.  Pinned
here: what ``repro_executor_rows_scanned_total{table}`` and
``repro_executor_full_scans_total{table}`` count (exactly the rows and
scans a base access read), the order rows come out in, how far an
index-ordered walk under LIMIT reads, and that testing a parameter for
NULL once, before the loop, answers and raises as the forced-scan oracle
does.  (Cancellation per page / chunk is in ``tests/test_faults.py``.)
"""

import pytest

from repro.errors import DatabaseError
from repro.observability.metrics import FULL_SCANS, ROWS_SCANNED
from repro.rdb import Database

ROWS = 1000


def _database(force_scan=False):
    db = Database()
    db.planner.force_scan = force_scan  # before any plan is cached
    db.execute(
        "CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER, g INTEGER, "
        "s VARCHAR(20), v INTEGER)"
    )
    db.execute("CREATE TABLE other (id INTEGER PRIMARY KEY)")
    db.execute("CREATE INDEX t_g ON t (g)")
    db.execute("CREATE INDEX t_v ON t (v)")
    with db.transaction():
        for i in range(1, ROWS + 1):
            db.execute(
                "INSERT INTO t (id, a, g, s, v) VALUES (?, ?, ?, ?, ?)",
                [i, i % 7, i % 4, None if i % 10 == 0 else f"s{i % 13}",
                 (i * 37) % ROWS],
            )
    return db


@pytest.fixture(scope="module")
def db():
    return _database()


def _count(family, table):
    return family.labels(table).value()


def _read(db, sql, parameters=()):
    """(rows scanned, full scans) of ``t`` while running ``sql``."""
    rows, scans = _count(ROWS_SCANNED, "t"), _count(FULL_SCANS, "t")
    db.execute(sql, list(parameters))
    return _count(ROWS_SCANNED, "t") - rows, _count(FULL_SCANS, "t") - scans


class TestCountsAreExact:
    @pytest.mark.parametrize(
        "sql, parameters, path, read, scans",
        [
            ("SELECT id FROM t WHERE a = 99", (), "full scan", ROWS, 1),
            ("SELECT id FROM t WHERE id = ?", (5,), "point lookup", 1, 0),
            ("SELECT id FROM t WHERE id = ?", (ROWS + 1,), "point lookup", 0, 0),
            ("SELECT id FROM t WHERE g = ?", (1,), "index probe on g", ROWS // 4, 0),
            ("SELECT id FROM t WHERE v BETWEEN 100 AND 149", (), "range scan", 50, 0),
            ("SELECT id FROM t ORDER BY v LIMIT 3", (), "index-ordered", 3, 0),
            ("SELECT id FROM t ORDER BY v LIMIT 3 OFFSET 2", (), "index-ordered", 5, 0),
            # a LIMIT above a page's 128 rows reads whole chunks of 128
            ("SELECT id FROM t ORDER BY v LIMIT 200", (), "index-ordered", 256, 0),
            ("DELETE FROM t WHERE a = 99", (), "full scan", ROWS, 1),
            ("UPDATE t SET a = a WHERE g = 9", (), "index probe on g", 0, 0),
        ],
    )
    def test_base_access_counts(self, db, sql, parameters, path, read, scans):
        assert db.explain(sql)[0].startswith(f"t: {path}")
        assert _read(db, sql, parameters) == (read, scans)

    def test_a_join_build_is_not_a_base_access(self, db):
        sql = "SELECT other.id FROM other JOIN t ON t.g = other.id"
        assert db.explain(sql)[0] == "other: full scan"
        assert _read(db, sql) == (0, 0)  # t is only the hash build side
        assert db.query(sql).rows == []

    def test_a_null_guard_reads_nothing(self, db):
        assert _read(db, "SELECT id FROM t WHERE s = ? AND a = 1", [None]) == (0, 0)
        assert _read(db, "SELECT id FROM t WHERE s = ? AND a = 1", ["s1"]) == (ROWS, 1)


class TestOrder:
    def test_a_scan_yields_row_id_order_across_pages(self):
        db = _database()
        db.begin()
        db.execute("DELETE FROM t WHERE id IN (3, 300, 301)")
        db.rollback()  # reinstates the rows in the middle of their pages
        ids = [row[0] for row in db.query("SELECT id FROM t WHERE a >= 0").rows]
        assert ids == list(range(1, ROWS + 1))

    def test_a_probe_yields_row_id_order(self, db):
        ids = [row[0] for row in db.query("SELECT id FROM t WHERE g = 2").rows]
        assert ids == sorted(ids) and len(ids) == ROWS // 4

    def test_an_ordered_walk_under_limit_with_a_filter(self, db):
        sql = "SELECT v, id FROM t WHERE a = 3 ORDER BY v DESC LIMIT 4"
        assert db.explain(sql)[0].startswith("t: index-ordered scan on v desc")
        oracle = _database(force_scan=True)
        assert db.query(sql).rows == oracle.query(sql).rows
        read, _ = _read(db, sql)
        assert read % 4 == 0 and 4 <= read < ROWS  # chunks of 4, stopped early


#: (statement, parameters): a NULL parameter beside a conjunct that
#: raises ("cannot compare int with str"), before it or after it.
NULL_BESIDE_RAISING = [
    ("SELECT id FROM t WHERE s = ? AND a < 'x'", [None]),
    ("SELECT id FROM t WHERE ? = s AND a < 'x'", [None]),
    ("SELECT id FROM t WHERE a < 'x' AND s = ?", [None]),
    ("SELECT id FROM t WHERE s = ? AND a < 'x'", ["s1"]),
    ("SELECT id FROM t WHERE s = ? AND a = ? AND a < 'x'", ["s1", None]),
    ("SELECT id FROM t WHERE s = ? AND a < 'x' AND a = ?", ["s1", None]),
    ("SELECT id FROM t WHERE g = ? AND s = ? AND a < 'x'", [1, None]),
    ("SELECT id FROM t WHERE g = ? AND a < 'x' AND s = ?", [1, None]),
    ("SELECT id FROM t WHERE s = ? ORDER BY v LIMIT 5", [None]),
    ("SELECT id FROM t WHERE s = ? ORDER BY v LIMIT 5", ["s2"]),
    ("DELETE FROM t WHERE s = ? AND a < 'x'", [None]),
    ("DELETE FROM t WHERE a < 'x' AND s = ?", [None]),
    ("UPDATE t SET a = 0 WHERE s = ? AND a < 'x'", [None]),
    ("UPDATE t SET a = 0 WHERE g = ? AND a < 'x' AND s = ?", [2, None]),
]


def _outcome(db, sql, parameters):
    try:
        result = db.execute(sql, parameters)
    except DatabaseError as exc:
        return ("error", type(exc).__name__, str(exc))
    return ("rows", result.rowcount, result.rows)


@pytest.mark.parametrize("sql, parameters", NULL_BESIDE_RAISING)
def test_null_parameter_beside_a_raising_conjunct(sql, parameters):
    planned, oracle = _database(), _database(force_scan=True)
    assert _outcome(planned, sql, parameters) == _outcome(oracle, sql, parameters)


def test_only_leading_equalities_are_guarded(db):
    from repro.sql import parse_statements

    def source(sql):
        (statement,) = parse_statements(sql)
        return db.planner.plan(statement).source

    assert "if p0 is None or p1 is None:" in source(
        "SELECT id FROM t WHERE s = ? AND a = ? AND a < 'x'"
    )
    assert "is None:" not in source("SELECT id FROM t WHERE a < 'x' AND s = ?")
    # a guarded parameter is compared with == alone, once per row
    assert "if (r0[3] == p0):" in source("SELECT id FROM t WHERE s = ? AND a < 'x'")


#: (statement, parameters): an index path given a key it cannot walk — a
#: range bound of another type than the stored integers, a NULL bound, a
#: NULL probe key — beside conjuncts that fail every row or raise.  The
#: path then reads the table as the forced-scan plan does, every conjunct
#: in written order: an error comes only from a row that reaches the
#: conjunct that raises.
UNWALKABLE_KEYS = [
    ("SELECT id FROM t WHERE s = 'zz' AND v < 'x'", []),  # no row has s = 'zz'
    ("SELECT id FROM t WHERE s = 's1' AND v < 'x'", []),
    ("SELECT id FROM t WHERE v < 'x'", []),
    ("SELECT id FROM t WHERE v < 'x' AND s = 'zz'", []),
    ("SELECT id FROM t WHERE s = 'zz' AND v BETWEEN 'a' AND 'b'", []),
    ("SELECT id FROM t WHERE s = ? AND v >= ?", ["zz", "x"]),
    ("SELECT id FROM t WHERE s = ? AND v >= ?", [None, "x"]),
    ("SELECT id FROM t WHERE v > 5 AND s = 'zz' AND v < 'x'", []),
    ("SELECT id FROM t WHERE s = 'zz' AND v < 'x' ORDER BY v DESC LIMIT 3", []),
    ("SELECT id FROM t WHERE v > 2.5 AND v < 9", []),  # a float bound walks
    ("SELECT id FROM t WHERE a < 'x' AND v < ?", [None]),
    ("SELECT id FROM t WHERE v < ? AND a < 'x'", [None]),
    ("SELECT id FROM t WHERE a < 'x' AND g = ?", [None]),
    ("SELECT id FROM t WHERE a < 'x' AND id = ?", [None]),
    ("SELECT id FROM t WHERE id = ? AND a < 'x'", [None]),
    ("DELETE FROM t WHERE s = 'zz' AND v < 'x'", []),
    ("DELETE FROM t WHERE s = 's2' AND v < 'x'", []),
    ("UPDATE t SET a = 0 WHERE a < 'x' AND g = ?", [None]),
    ("UPDATE t SET a = 0 WHERE s = 'zz' AND v >= ?", ["x"]),
]


@pytest.mark.parametrize("sql, parameters", UNWALKABLE_KEYS)
def test_an_unwalkable_key_answers_as_the_oracle(sql, parameters):
    planned, oracle = _database(), _database(force_scan=True)
    answers = [_outcome(db, sql, parameters) for db in (planned, oracle)]
    # rows without ORDER BY come in the order the plan reads them
    assert [a if a[0] == "error" else sorted(a[2]) for a in answers] == [
        a if a[0] == "error" else sorted(a[2]) for a in answers[::-1]
    ]
    assert answers[0][:2] == answers[1][:2]


def test_an_unwalkable_key_reads_the_table_once_in_written_order(db):
    sql = "SELECT id FROM t WHERE s = 'zz' AND v < 'x'"
    assert db.explain(sql)[0] == "t: range scan on v (lo..hi) via ordered index + 1 filter(s)"
    assert _read(db, sql) == (ROWS, 1)
    assert _read(db, "SELECT id FROM t WHERE s = 'zz' AND v < 5") == (5, 0)
    # a NULL probe key behind no other conjunct is still answered unread
    assert _read(db, "SELECT id FROM t WHERE id = ?", [None]) == (0, 0)
    assert _read(db, "SELECT id FROM t WHERE g = ? AND a < 'x'", [None]) == (0, 0)
