"""Planner v2 behaviour: range/prefix/ordered access paths, statistics-
driven choice between competing indexes, and join reordering.

Complements the randomized differential harness
(``test_differential.py``) with targeted, explainable cases: every new
plan shape is asserted both through ``Database.explain`` and through a
forced-scan twin database that must return identical results.
"""

import pytest

from repro.rdb import Database
from repro.rdb.storage import TableData


def make_db(force_scan=False):
    db = Database()
    if force_scan:
        db.planner.force_scan = True
    db.execute(
        """
        CREATE TABLE team (id INTEGER PRIMARY KEY, name VARCHAR(50));
        CREATE TABLE author (
            id INTEGER PRIMARY KEY,
            name VARCHAR(50),
            age INTEGER,
            team INTEGER REFERENCES team(id)
        )
        """
    )
    for i in range(1, 4):
        db.execute(f"INSERT INTO team (id, name) VALUES ({i}, 'T{i}')")
    rows = [
        (1, "ada", 35, 1),
        (2, "alan", 41, 1),
        (3, "barbara", 35, 2),
        (4, "edsger", None, 2),
        (5, "grace", 52, 3),
        (6, "donald", 35, None),
        (7, None, 29, 1),
        (8, "alonzo", 62, 3),
    ]
    for pk, name, age, team in rows:
        name_sql = "NULL" if name is None else f"'{name}'"
        age_sql = "NULL" if age is None else str(age)
        team_sql = "NULL" if team is None else str(team)
        db.execute(
            f"INSERT INTO author (id, name, age, team) VALUES "
            f"({pk}, {name_sql}, {age_sql}, {team_sql})"
        )
    db.execute("CREATE INDEX idx_author_age ON author (age)")
    db.execute("CREATE INDEX idx_author_name ON author (name)")
    return db


@pytest.fixture
def db():
    return make_db()


RANGE_QUERIES = [
    "SELECT id FROM author WHERE age < 40",
    "SELECT id FROM author WHERE age <= 35",
    "SELECT id FROM author WHERE age > 40",
    "SELECT id FROM author WHERE age >= 41",
    "SELECT id FROM author WHERE age BETWEEN 30 AND 45",
    "SELECT id FROM author WHERE 40 > age",
    "SELECT id FROM author WHERE age > 30 AND age < 55",
    "SELECT id FROM author WHERE age > 30 AND age < 55 AND id < 6",
    "SELECT id FROM author WHERE name LIKE 'a%'",
    "SELECT id FROM author WHERE name LIKE 'al%' AND age > 30",
    "SELECT id FROM author WHERE age BETWEEN 99 AND 100",
    "SELECT id FROM author WHERE age > 35 ORDER BY age",
    "SELECT id, age FROM author ORDER BY age",
    "SELECT id, age FROM author ORDER BY age DESC",
    "SELECT id, age FROM author ORDER BY age LIMIT 3",
    "SELECT id, age FROM author ORDER BY age DESC LIMIT 3 OFFSET 1",
    "SELECT age FROM author WHERE age IS NULL",
]


class TestRangeEquivalence:
    @pytest.mark.parametrize("sql", RANGE_QUERIES)
    def test_matches_forced_scan_twin(self, db, sql):
        planned = db.query(sql)
        scanned = make_db(force_scan=True).query(sql)
        assert planned.columns == scanned.columns
        assert sorted(map(repr, planned.rows)) == sorted(map(repr, scanned.rows))

    def test_order_by_sequences_match_exactly(self, db):
        """Single-table ORDER BY ties resolve to row-id order on both the
        sort path and the index path."""
        for sql in (
            "SELECT id, age FROM author ORDER BY age",
            "SELECT id, age FROM author ORDER BY age DESC",
            "SELECT id, age FROM author ORDER BY age LIMIT 4",
        ):
            assert db.query(sql).rows == make_db(force_scan=True).query(sql).rows

    def test_nulls_sort_first_ascending_last_descending(self, db):
        ascending = db.query("SELECT age FROM author ORDER BY age")
        assert ascending.rows[0] == (None,)
        descending = db.query("SELECT age FROM author ORDER BY age DESC")
        assert descending.rows[-1] == (None,)

    def test_parameterized_range_bounds(self, db):
        result = db.query(
            "SELECT id FROM author WHERE age BETWEEN ? AND ? ORDER BY id",
            [30, 45],
        )
        assert [r[0] for r in result.rows] == [1, 2, 3, 6]

    def test_null_range_bound_matches_nothing(self, db):
        assert db.query("SELECT id FROM author WHERE age < ?", [None]).rows == []

    def test_order_ties_stable_after_rollback_restore(self):
        """Regression: a rolled-back DELETE restores the row via undo;
        scan order must stay row-id order so index-ordered ties keep
        matching the stable sort exactly."""

        def build(force_scan=False):
            db = Database()
            if force_scan:
                db.planner.force_scan = True
            db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
            for i in range(6):
                db.execute(f"INSERT INTO t (id, v) VALUES ({i}, {i % 2})")
            db.execute("CREATE INDEX idx_t_v ON t (v)")
            db.begin()
            db.execute("DELETE FROM t WHERE id = 1")
            db.rollback()
            return db

        sql = "SELECT id FROM t ORDER BY v"
        assert build().query(sql).rows == build(force_scan=True).query(sql).rows

    def test_range_on_updated_rows(self, db):
        db.execute("UPDATE author SET age = 90 WHERE id = 1")
        result = db.query("SELECT id FROM author WHERE age > 60 ORDER BY id")
        assert [r[0] for r in result.rows] == [1, 8]
        db.execute("DELETE FROM author WHERE id = 8")
        result = db.query("SELECT id FROM author WHERE age > 60")
        assert [r[0] for r in result.rows] == [1]


def test_index_key_order_agrees_with_sort_key_order():
    """The ordered index substitutes its key order for the ORDER BY sort
    order, so storage._ordered_key and planner._null_safe_key must induce
    the same total order on every value the type system can store."""
    from repro.rdb.planner import _null_safe_key
    from repro.rdb.storage import _ordered_key

    values = [
        -(10**9), -3, 0, 1, 2, 10**9, -2.5, 0.0, 2.5, 1e18,
        True, False, "", "a", "A", "zeta9", "néé", "0", "-1",
    ]
    by_index_key = sorted(values, key=_ordered_key)
    by_sort_key = sorted(values, key=_null_safe_key)
    assert by_index_key == by_sort_key


class TestExplainShapes:
    def test_range_scan_plan(self, db):
        plan = db.explain("SELECT id FROM author WHERE age BETWEEN 30 AND 40")
        assert any("range scan" in line and "ordered index" in line for line in plan)

    def test_prefix_scan_plan(self, db):
        plan = db.explain("SELECT id FROM author WHERE name LIKE 'a%'")
        assert any("prefix scan" in line for line in plan)

    def test_index_ordered_plan(self, db):
        plan = db.explain("SELECT id, age FROM author ORDER BY age LIMIT 2")
        assert any("index-ordered scan" in line for line in plan)
        assert any("no sort" in line for line in plan)

    def test_range_plus_order_streams(self, db):
        plan = db.explain("SELECT id FROM author WHERE age > 30 ORDER BY age LIMIT 2")
        assert any("range scan" in line for line in plan)
        assert any("no sort" in line for line in plan)

    def test_non_prefix_like_still_scans(self, db):
        plan = db.explain("SELECT id FROM author WHERE name LIKE '%a'")
        assert any("full scan" in line for line in plan)

    def test_update_delete_use_range_index(self, db):
        plan = db.explain("UPDATE author SET team = 1 WHERE age > 50")
        assert any("range scan" in line for line in plan)
        plan = db.explain("DELETE FROM author WHERE age BETWEEN 60 AND 70")
        assert any("range scan" in line for line in plan)


class ScanCounter:
    def __init__(self, monkeypatch):
        self.counts = {}
        original = TableData.pages
        counter = self

        def counted(self_td):
            counter.counts[self_td.table.name] = (
                counter.counts.get(self_td.table.name, 0) + 1
            )
            return original(self_td)

        monkeypatch.setattr(TableData, "pages", counted)

    def total(self):
        return sum(self.counts.values())


class TestZeroScanRegression:
    """Range and ORDER BY queries on indexed columns must not scan."""

    def test_range_query_does_zero_scans(self, db, monkeypatch):
        db.query("SELECT id FROM author WHERE age BETWEEN 30 AND 40")  # warm
        counter = ScanCounter(monkeypatch)
        result = db.query("SELECT id FROM author WHERE age BETWEEN 30 AND 40")
        assert len(result) > 0
        assert counter.total() == 0

    def test_order_by_limit_does_zero_scans(self, db, monkeypatch):
        counter = ScanCounter(monkeypatch)
        result = db.query("SELECT id, age FROM author ORDER BY age DESC LIMIT 3")
        assert len(result) == 3
        assert counter.counts.get("author", 0) == 0

    def test_prefix_query_does_zero_scans(self, db, monkeypatch):
        counter = ScanCounter(monkeypatch)
        result = db.query("SELECT id FROM author WHERE name LIKE 'a%'")
        assert len(result) == 3
        assert counter.counts.get("author", 0) == 0


class TestStatisticsDrivenChoice:
    def test_more_selective_index_wins(self):
        """Two indexed equality candidates: the planner must probe the
        column with more distinct values (fewer rows per value)."""
        db = Database()
        db.execute(
            "CREATE TABLE e (id INTEGER PRIMARY KEY, coarse INTEGER, fine INTEGER)"
        )
        for i in range(60):
            db.execute(
                f"INSERT INTO e (id, coarse, fine) VALUES ({i}, {i % 2}, {i % 30})"
            )
        db.execute("CREATE INDEX idx_coarse ON e (coarse)")
        db.execute("CREATE INDEX idx_fine ON e (fine)")
        plan = db.explain("SELECT id FROM e WHERE coarse = 1 AND fine = 7")
        assert any("index probe on fine" in line for line in plan)

    def test_probe_beats_range_when_more_selective(self):
        db = Database()
        db.execute(
            "CREATE TABLE e (id INTEGER PRIMARY KEY, k INTEGER, v INTEGER)"
        )
        for i in range(60):
            db.execute(f"INSERT INTO e (id, k, v) VALUES ({i}, {i % 30}, {i})")
        db.execute("CREATE INDEX idx_k ON e (k)")
        db.execute("CREATE INDEX idx_v ON e (v)")
        # equality on k ~ 2 rows; range on v ~ a third of the table
        plan = db.explain("SELECT id FROM e WHERE k = 3 AND v > 10")
        assert any("index probe on k" in line for line in plan)

    def test_range_beats_probe_on_low_cardinality_column(self):
        db = Database()
        db.execute(
            "CREATE TABLE e (id INTEGER PRIMARY KEY, flag INTEGER, v INTEGER)"
        )
        for i in range(60):
            db.execute(f"INSERT INTO e (id, flag, v) VALUES ({i}, {i % 2}, {i})")
        db.execute("CREATE INDEX idx_flag ON e (flag)")
        db.execute("CREATE INDEX idx_v ON e (v)")
        # equality on flag ~ 30 rows; bounded range on v ~ 15 estimated
        plan = db.explain("SELECT id FROM e WHERE flag = 1 AND v BETWEEN 5 AND 9")
        assert any("range scan" in line and " v " in line for line in plan)


class TestJoinReordering:
    def _star_db(self, force_scan=False):
        db = Database()
        if force_scan:
            db.planner.force_scan = True
        db.execute(
            """
            CREATE TABLE dim_a (id INTEGER PRIMARY KEY, label VARCHAR(20));
            CREATE TABLE dim_b (id INTEGER PRIMARY KEY, label VARCHAR(20));
            CREATE TABLE fact (
                id INTEGER PRIMARY KEY,
                a INTEGER REFERENCES dim_a(id),
                b INTEGER REFERENCES dim_b(id),
                v INTEGER
            )
            """
        )
        for i in range(1, 6):
            db.execute(f"INSERT INTO dim_a (id, label) VALUES ({i}, 'a{i}')")
            db.execute(f"INSERT INTO dim_b (id, label) VALUES ({i}, 'b{i}')")
        for i in range(1, 41):
            db.execute(
                f"INSERT INTO fact (id, a, b, v) VALUES "
                f"({i}, {i % 5 + 1}, {(i * 3) % 5 + 1}, {i})"
            )
        return db

    STAR = (
        "SELECT f.id, da.label, db_.label FROM dim_a da "
        "JOIN fact f ON f.a = da.id "
        "JOIN dim_b db_ ON db_.id = f.b "
        "WHERE f.id = 7"
    )

    def test_reorder_starts_from_most_selective(self):
        db = self._star_db()
        plan = db.explain(self.STAR)
        assert any("stats-driven reorder" in line for line in plan)
        # the PK-selected fact row must start the pipeline
        assert any("fact: point lookup" in line for line in plan)

    def test_reordered_results_match_forced_scan(self):
        db = self._star_db()
        twin = self._star_db(force_scan=True)
        for sql in (
            self.STAR,
            "SELECT f.id, da.label FROM dim_a da JOIN fact f ON f.a = da.id "
            "WHERE f.v BETWEEN 10 AND 20",
            "SELECT da.label, db_.label, f.v FROM dim_a da "
            "JOIN fact f ON f.a = da.id JOIN dim_b db_ ON db_.id = f.b "
            "WHERE da.label = 'a2'",
        ):
            planned = db.query(sql)
            scanned = twin.query(sql)
            assert planned.columns == scanned.columns
            assert sorted(map(repr, planned.rows)) == sorted(
                map(repr, scanned.rows)
            )

    def test_left_join_keeps_written_order(self):
        db = self._star_db()
        plan = db.explain(
            "SELECT f.id, da.label FROM fact f "
            "LEFT JOIN dim_a da ON da.id = f.a WHERE f.id = 3"
        )
        assert not any("reorder" in line for line in plan)

    def test_on_clause_scope_rule_still_enforced(self):
        from repro.errors import DatabaseError

        db = self._star_db()
        with pytest.raises(DatabaseError):
            db.explain(
                "SELECT f.id FROM dim_a da "
                "JOIN fact f ON db_.id = f.b "
                "JOIN dim_b db_ ON db_.id = f.b"
            )


class TestForceScanKnob:
    def test_force_scan_plans_are_naive(self):
        db = make_db(force_scan=True)
        plan = db.explain("SELECT id FROM author WHERE age BETWEEN 30 AND 40")
        assert any("full scan" in line for line in plan)
        plan = db.explain(
            "SELECT a.id FROM author a JOIN team t ON t.id = a.team"
        )
        assert any("nested-loop" in line for line in plan)
        assert not any("hash join" in line for line in plan)

    def test_force_scan_results_still_correct(self):
        db = make_db(force_scan=True)
        result = db.query("SELECT id FROM author WHERE age = 35 ORDER BY id")
        assert [r[0] for r in result.rows] == [1, 3, 6]
