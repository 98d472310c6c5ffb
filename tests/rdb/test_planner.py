"""Planner correctness: index paths must be invisible except in speed.

Covers the ISSUE-1 satellite checklist:

* index-path vs. full-scan equivalence on WHERE/JOIN/LEFT JOIN, including
  NULL join keys;
* a regression test that PK-equality WHERE does **zero** full scans
  (instrumented via ``TableData.pages`` call counts);
* plan-shape assertions through ``Database.explain`` and plan-cache
  behaviour across DDL.
"""

import dataclasses

import pytest

from repro import OntoAccess
from repro.errors import DatabaseError
from repro.observability.tracing import trace_scope
from repro.rdb import Database
from repro.rdb.storage import TableData
from repro.sql import ast, parse_sql
from repro.workloads.generator import WorkloadConfig, generate_dataset, populate_database
from repro.workloads.operations import PREFIXES
from repro.workloads.publication import build_database, build_mapping


def make_db():
    """The shared dataset: both the fixture and the forced-scan twin use
    this, so the equivalence tests can never drift from the fixture."""
    db = Database()
    db.execute(
        """
        CREATE TABLE team (
            id INTEGER PRIMARY KEY,
            name VARCHAR(100),
            code VARCHAR(10) UNIQUE
        );
        CREATE TABLE author (
            id INTEGER PRIMARY KEY,
            name VARCHAR(100) NOT NULL,
            team INTEGER REFERENCES team(id)
        )
        """
    )
    for i, (name, code) in enumerate(
        [("DB", "db"), ("AI", "ai"), ("OS", "os")], start=1
    ):
        db.execute(
            f"INSERT INTO team (id, name, code) VALUES ({i}, '{name}', '{code}')"
        )
    rows = [
        (1, "Hert", 1),
        (2, "Reif", 1),
        (3, "Gall", 2),
        (4, "Null", None),
        (5, "Solo", 3),
    ]
    for pk, name, team in rows:
        team_sql = "NULL" if team is None else str(team)
        db.execute(
            f"INSERT INTO author (id, name, team) VALUES ({pk}, '{name}', {team_sql})"
        )
    return db


@pytest.fixture
def db():
    return make_db()


class ScanCounter:
    """Counts full-table reads (``TableData.pages`` calls) per table."""

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


def rows_set(result):
    return sorted(map(repr, result.rows))


class TestAccessPathEquivalence:
    """The planner must return exactly what a naive full scan returns."""

    QUERIES = [
        "SELECT * FROM author WHERE id = 3",
        "SELECT * FROM author WHERE id = 99",
        "SELECT name FROM author WHERE team = 1",
        "SELECT name FROM author WHERE team = 1 AND id = 2",
        "SELECT name FROM author WHERE id = 1 OR id = 2",
        "SELECT * FROM team WHERE code = 'ai'",
        "SELECT a.name, t.name FROM author a JOIN team t ON t.id = a.team",
        "SELECT a.name, t.name FROM author a JOIN team t ON t.id = a.team "
        "WHERE t.name = 'DB'",
        "SELECT a.name, t.name FROM author a LEFT JOIN team t ON t.id = a.team",
        "SELECT a.name, t.name FROM author a LEFT JOIN team t ON t.id = a.team "
        "WHERE t.name = 'DB'",
        "SELECT a.name FROM author a LEFT JOIN team t ON t.id = a.team "
        "WHERE t.id IS NULL",
        "SELECT a.name, t.name FROM author a CROSS JOIN team t "
        "WHERE t.id = 1",
        "SELECT a.name, t.name FROM author a CROSS JOIN team t "
        "WHERE t.id = a.team",
    ]

    @pytest.mark.parametrize("sql", QUERIES)
    def test_matches_forced_scan(self, db, sql):
        planned = db.query(sql)
        # Same dataset, but with the planner's access-path chooser forced
        # to full scans: results must be identical.
        scan_db = make_db()
        import repro.rdb.planner as planner_mod

        original = planner_mod._choose_base_access

        def scans_only(schema, data, table_name, slot, layout, conjuncts):
            return planner_mod._BaseAccess(
                table_name, "scan", residual=conjuncts
            )

        planner_mod._choose_base_access = scans_only
        try:
            scanned = scan_db.query(sql)
        finally:
            planner_mod._choose_base_access = original
        assert planned.columns == scanned.columns
        assert rows_set(planned) == rows_set(scanned)

    def test_left_join_null_keys_extend(self, db):
        """Author 4 has a NULL team: LEFT JOIN must null-extend it."""
        result = db.query(
            "SELECT a.name, t.name FROM author a "
            "LEFT JOIN team t ON t.id = a.team ORDER BY a.id"
        )
        assert ("Null", None) in result.rows
        assert len(result) == 5

    def test_left_join_where_after_null_extension(self, db):
        """WHERE on the LEFT side's columns filters *after* extension."""
        result = db.query(
            "SELECT a.name FROM author a "
            "LEFT JOIN team t ON t.id = a.team WHERE t.id IS NULL"
        )
        assert [r[0] for r in result.rows] == ["Null"]

    def test_cross_join_where_on_right_table(self, db):
        """Regression: WHERE conjuncts on the cross-joined table must not
        be dropped (they filter the right rows before the product)."""
        result = db.query(
            "SELECT a.name, t.name FROM author a CROSS JOIN team t "
            "WHERE t.id = 1 ORDER BY a.id"
        )
        assert len(result) == 5  # one product row per author, team 1 only
        assert {r[1] for r in result.rows} == {"DB"}

    def test_inner_join_pushdown_filters_build_side(self, db):
        result = db.query(
            "SELECT a.name FROM author a JOIN team t ON t.id = a.team "
            "WHERE t.name = 'DB' ORDER BY a.id"
        )
        assert [r[0] for r in result.rows] == ["Hert", "Reif"]


class TestZeroScanRegression:
    """PK-equality WHERE must never fall back to a full table scan."""

    def test_pk_point_select_does_zero_scans(self, db, monkeypatch):
        db.query("SELECT name FROM author WHERE id = 1")  # warm the plan
        counter = ScanCounter(monkeypatch)
        result = db.query("SELECT name FROM author WHERE id = 2")
        assert result.rows == [("Reif",)]
        assert counter.total() == 0

    def test_unique_point_select_does_zero_scans(self, db, monkeypatch):
        counter = ScanCounter(monkeypatch)
        result = db.query("SELECT name FROM team WHERE code = 'ai'")
        assert result.rows == [("AI",)]
        assert counter.total() == 0

    def test_pk_update_does_zero_scans(self, db, monkeypatch):
        counter = ScanCounter(monkeypatch)
        db.execute("UPDATE author SET name = 'Hert2' WHERE id = 1")
        assert counter.counts.get("author", 0) == 0

    def test_pk_delete_does_zero_scans(self, db, monkeypatch):
        counter = ScanCounter(monkeypatch)
        db.execute("DELETE FROM author WHERE id = 4")
        assert counter.counts.get("author", 0) == 0

    def test_fk_probe_select_does_zero_scans(self, db, monkeypatch):
        """Secondary (FK) index probes also avoid scanning."""
        counter = ScanCounter(monkeypatch)
        result = db.query("SELECT name FROM author WHERE team = 1 ORDER BY id")
        assert [r[0] for r in result.rows] == ["Hert", "Reif"]
        assert counter.counts.get("author", 0) == 0

    def test_non_indexed_where_still_scans(self, db, monkeypatch):
        counter = ScanCounter(monkeypatch)
        result = db.query("SELECT id FROM author WHERE name = 'Gall'")
        assert result.rows == [(3,)]
        assert counter.counts.get("author", 0) == 1


class TestExplain:
    def test_point_lookup_plan(self, db):
        plan = db.explain("SELECT name FROM author WHERE id = 1")
        assert any("point lookup" in line for line in plan)

    def test_unique_lookup_plan(self, db):
        plan = db.explain("SELECT name FROM team WHERE code = 'db'")
        assert any("point lookup" in line and "unique" in line for line in plan)

    def test_probe_plan(self, db):
        plan = db.explain("SELECT name FROM author WHERE team = 2")
        assert any("index probe on team" in line for line in plan)

    def test_scan_plan(self, db):
        plan = db.explain("SELECT id FROM author WHERE name = 'x'")
        assert any("full scan" in line for line in plan)

    def test_hash_join_plan(self, db):
        plan = db.explain(
            "SELECT a.name FROM author a JOIN team t ON t.id = a.team"
        )
        assert any("hash join" in line for line in plan)

    def test_update_delete_plans(self, db):
        assert any(
            "point lookup" in line
            for line in db.explain("UPDATE author SET name = 'x' WHERE id = 1")
        )
        assert any(
            "index probe" in line
            for line in db.explain("DELETE FROM author WHERE team = 1")
        )

    def test_explain_rejects_insert(self, db):
        with pytest.raises(DatabaseError):
            db.explain("INSERT INTO team (id) VALUES (9)")


class TestPlanCache:
    def test_repeated_statement_hits_cache(self, db):
        before = dict(db.planner.stats)
        db.query("SELECT name FROM author WHERE id = ?", [1])
        db.query("SELECT name FROM author WHERE id = ?", [2])
        after = db.planner.stats
        assert after["misses"] == before["misses"] + 1
        assert after["hits"] >= before["hits"] + 1

    def test_parameterized_plan_reuse_is_correct(self, db):
        first = db.query("SELECT name FROM author WHERE id = ?", [1])
        second = db.query("SELECT name FROM author WHERE id = ?", [3])
        assert first.rows == [("Hert",)]
        assert second.rows == [("Gall",)]

    def test_ddl_invalidates_plans(self, db):
        db.query("SELECT name FROM author WHERE id = 1")
        db.execute("CREATE TABLE extra (id INTEGER PRIMARY KEY)")
        assert db.planner.stats["invalidations"] >= 1
        # dropped/recreated tables must not serve stale plans
        db.execute("DROP TABLE extra")
        result = db.query("SELECT name FROM author WHERE id = 1")
        assert result.rows == [("Hert",)]


class TestPlanCacheKeys:
    """The cache keys on the statement shape: equal shapes share a plan
    whichever object holds them, each shape hashes once, and a shape
    that cannot be hashed is still planned — uncached."""

    @staticmethod
    def shape():
        return ast.Select(
            items=(ast.SelectItem(ast.ColumnRef("name")),),
            table=ast.TableRef("author"),
            where=ast.BinaryOp("=", ast.ColumnRef("id"), ast.Parameter(0)),
        )

    def test_equal_shapes_of_separate_translations_share_one_plan(self):
        db = build_database()
        populate_database(db, generate_dataset(WorkloadConfig(authors=5, publications=5)))
        text = PREFIXES + "SELECT ?l WHERE { ex:author%d foaf:family_name ?l }"
        first, second = OntoAccess(db, build_mapping(db)), OntoAccess(db, build_mapping(db))
        assert len(first.query(text % 1)) == 1
        entries, hits = db.planner.cache_entries(), db.planner.stats["hits"]
        assert len(second.query(text % 2)) == 1  # its own translation, an equal shape
        assert db.planner.stats["hits"] == hits + 1
        assert db.planner.cache_entries() == entries

    def test_a_replaced_shape_has_its_own_hash_and_plan(self, db):
        shape = self.shape()
        hash(shape)  # computed and kept
        limited = dataclasses.replace(shape, limit=1)
        same = dataclasses.replace(shape)
        assert limited != shape and hash(limited) != hash(shape)
        assert same == shape and hash(same) == hash(shape) and same is not shape
        before = dict(db.planner.stats)
        assert db.execute(ast.Bound(shape, (1,))).rows == [("Hert",)]
        assert db.execute(ast.Bound(limited, (2,))).rows == [("Reif",)]
        assert db.execute(ast.Bound(same, (3,))).rows == [("Gall",)]
        assert db.planner.stats["misses"] == before["misses"] + 2
        assert db.planner.stats["hits"] == before["hits"] + 1

    def test_an_unhashable_literal_is_planned_uncached(self, db):
        # a list where the AST has a tuple: it executes, but hashes never
        shape = ast.Select(
            items=(ast.SelectItem(ast.ColumnRef("name")),),
            table=ast.TableRef("author"),
            where=ast.InList(ast.ColumnRef("id"), [ast.Literal(1), ast.Literal(3)]),
        )
        with pytest.raises(TypeError):
            hash(shape)
        entries, misses = db.planner.cache_entries(), db.planner.stats["misses"]
        for _ in range(2):
            assert sorted(db.execute(shape).rows) == [("Gall",), ("Hert",)]
        assert db.planner.stats["misses"] == misses + 2
        assert db.planner.cache_entries() == entries


class TestBoundStatements:
    """``Database.execute`` takes a statement shape with its value vector
    as one argument; the plan belongs to the shape."""

    SELECT = parse_sql("SELECT name FROM author WHERE id = ?")

    def test_one_plan_for_every_value_vector(self, db):
        before = dict(db.planner.stats)
        entries = db.planner.cache_entries()  # the fixture's INSERT shapes
        rows = [
            db.execute(ast.Bound(self.SELECT, (key,))).rows for key in (1, 3, 5, 9)
        ]
        assert rows == [[("Hert",)], [("Gall",)], [("Solo",)], []]
        assert db.planner.stats["misses"] == before["misses"] + 1
        assert db.planner.stats["hits"] == before["hits"] + 3
        assert db.planner.cache_entries() == entries + 1

    def test_dml_is_planned_once_per_shape(self, db):
        insert = parse_sql("INSERT INTO author (id, name, team) VALUES (?, ?, ?)")
        update = parse_sql("UPDATE author SET name = ? WHERE id = ?")
        delete = parse_sql("DELETE FROM author WHERE id = ?")
        before = dict(db.planner.stats)
        for key in (10, 11):
            assert db.execute(ast.Bound(insert, (key, f"N{key}", 1))).rowcount == 1
            assert db.execute(ast.Bound(update, (f"M{key}", key))).rowcount == 1
        assert db.query("SELECT name FROM author WHERE id = 11").rows == [("M11",)]
        assert db.execute(ast.Bound(delete, (10,))).rowcount == 1
        # INSERT, UPDATE and DELETE once each, + the SELECT
        assert db.planner.stats["misses"] == before["misses"] + 4
        with pytest.raises(DatabaseError, match="missing bind parameter"):
            db.execute(ast.Bound(insert, (12, "short")))

    def test_explain_sees_through(self, db):
        bound = ast.Bound(self.SELECT, (1,))
        assert db.explain(bound) == db.explain("SELECT name FROM author WHERE id = 1")
        report = db.explain_analyze(bound)
        assert report["rows"] == 1 and "point lookup" in report["plan"][0]
        assert db.query(bound).rows == [("Hert",)]

    def test_building_a_plan_is_noted_on_the_request_trace(self, db):
        with trace_scope() as cold:
            db.execute(ast.Bound(self.SELECT, (1,)))
            db.execute("SELECT name FROM team WHERE id = 1")
        with trace_scope() as warm:
            db.execute(ast.Bound(self.SELECT, (2,)))
        assert cold["plans_built"] == 2
        assert "plans_built" not in warm


class TestOrderByTopK:
    def test_limit_topk_matches_full_sort(self, db):
        top = db.query("SELECT name FROM author ORDER BY name LIMIT 2")
        full = db.query("SELECT name FROM author ORDER BY name")
        assert top.rows == full.rows[:2]

    def test_limit_offset_topk(self, db):
        page = db.query("SELECT name FROM author ORDER BY name LIMIT 2 OFFSET 1")
        full = db.query("SELECT name FROM author ORDER BY name")
        assert page.rows == full.rows[1:3]

    def test_descending_topk(self, db):
        top = db.query("SELECT id FROM author ORDER BY id DESC LIMIT 3")
        assert [r[0] for r in top.rows] == [5, 4, 3]

    def test_mixed_direction_sort(self, db):
        result = db.query(
            "SELECT team, id FROM author ORDER BY team DESC, id ASC"
        )
        assert [r for r in result.rows] == [
            (3, 5), (2, 3), (1, 1), (1, 2), (None, 4)
        ]


    def test_runs_of_one_direction_sort_as_one_key_ties_in_scan_order(self):
        """Keys of mixed direction and type, NULLs and ties: the passes
        of the generated sort (one per run of one direction, last run
        first) order like one comparison of whole key tuples would, and
        rows with equal keys keep the order the scan read them in."""
        db = Database()
        db.execute("CREATE TABLE s (id INTEGER PRIMARY KEY, a INTEGER, b TEXT, c REAL)")
        values = [(i, [None, 1, 2][i % 3], [None, "x", "y", "10"][i % 4],
                   [None, 0.5, 2.0][(i // 2) % 3]) for i in range(1, 41)]
        for row in values:
            db.execute("INSERT INTO s VALUES (?, ?, ?, ?)", row)

        def null_first(value):
            if value is None:
                return (0, 0, "")
            return (1, 1, value) if isinstance(value, str) else (1, 0, value)

        for order, keys in [
            ("a, b DESC, c DESC", [(1, False), (2, True), (3, True)]),
            ("b DESC, c, a", [(2, True), (3, False), (1, False)]),
            ("c DESC, a DESC", [(3, True), (1, True)]),
            ("a + 1, b", [(1, False), (2, False)]),
        ]:
            expected = list(values)
            for position, descending in reversed(keys):
                expected.sort(key=lambda row: null_first(row[position]),
                              reverse=descending)
            got = db.query(f"SELECT id FROM s ORDER BY {order}").rows
            assert [r[0] for r in got] == [r[0] for r in expected], order
            top = db.query(f"SELECT id FROM s ORDER BY {order} LIMIT 7 OFFSET 3").rows
            assert top == got[3:10]
        assert db.explain("SELECT id FROM s ORDER BY a, b DESC, c DESC")[-1] == (
            "order by 3 key(s), 2 stable sort pass(es)"
        )


class TestMistypedComparisonsBelowOr:
    """A join answered by an index walk that finds no row: a column of
    one type class ordered against a value of the other, under OR, NOT or
    NOT BETWEEN, must raise as the written-order plan raises."""

    @pytest.fixture
    def pair(self):
        dbs = []
        for force_scan in (False, True):
            db = Database()
            db.planner.force_scan = force_scan
            db.execute("CREATE TABLE t0 (id INTEGER PRIMARY KEY, g TEXT)")
            db.execute(
                "CREATE TABLE t1 (id INTEGER PRIMARY KEY, f INTEGER, "
                "r_t0 INTEGER REFERENCES t0(id))"
            )
            for i in range(1, 19):
                db.execute("INSERT INTO t0 VALUES (?, ?)", (i, f"g{i}"))
                db.execute("INSERT INTO t1 VALUES (?, ?, ?)", (i, i, i))
            dbs.append(db)
        return dbs

    @pytest.mark.parametrize("condition, parameters", [
        ("(x.f > 'a' OR x.f = 1)", ()),
        ("x.f NOT BETWEEN 'a' AND 'b'", ()),
        ("NOT (x.f < ?)", ("z",)),
        ("(x.id = 1 OR (x.f >= ? AND x.f <= 9))", ("z",)),
        ("(x.f > ? OR 'a' > x.id)", (1,)),
    ])
    def test_both_plans_raise(self, pair, condition, parameters):
        sql = (
            "SELECT x.id FROM t1 x JOIN t0 p ON p.id = x.r_t0 "
            f"WHERE p.id = 19 AND {condition}"
        )
        for db in pair:
            with pytest.raises(DatabaseError, match="cannot compare"):
                db.execute(sql, parameters)

    def test_rightly_typed_values_keep_the_planned_walk(self, pair):
        planned, oracle = pair
        sql = (
            "SELECT x.id FROM t1 x JOIN t0 p ON p.id = x.r_t0 "
            "WHERE p.id = ? AND (x.f > ? OR p.g < ?)"
        )
        for parameters in [(19, 1, "a"), (3, 1, "a"), (3, 5, "a")]:
            assert planned.execute(sql, parameters).rows == (
                oracle.execute(sql, parameters).rows
            )
        assert planned.planner.plan(parse_sql(sql), (3, 1, "a")).fallback is None


class TestHashBuildSide:
    """ISSUE 4 satellite: statistics pick each hash join's build side.

    The O(1) row/distinct counts that already drive join reordering now
    also decide which input gets hashed: the estimated-smaller one.  The
    choice is visible in EXPLAIN (``build: left`` / ``build: right``) and
    must never change results — asserted against a forced-scan twin.
    """

    @staticmethod
    def _wide_db(authors=24):
        db = Database()
        db.execute(
            """
            CREATE TABLE team (id INTEGER PRIMARY KEY, name VARCHAR(100));
            CREATE TABLE author (
                id INTEGER PRIMARY KEY,
                name VARCHAR(100),
                team INTEGER REFERENCES team(id)
            )
            """
        )
        for i in range(1, 4):
            db.execute(f"INSERT INTO team (id, name) VALUES ({i}, 'T{i}')")
        for i in range(1, authors + 1):
            db.execute(
                f"INSERT INTO author (id, name, team) "
                f"VALUES ({i}, 'A{i}', {1 + i % 3})"
            )
        return db

    def test_smaller_pipeline_becomes_build_side(self):
        """team (3 rows) starts the reordered pipeline; hashing it (and
        streaming the 24 authors) beats hashing the big side."""
        db = self._wide_db()
        plan = db.explain(
            "SELECT a.name FROM author a JOIN team t ON t.id = a.team"
        )
        assert any("stats-driven reorder" in line for line in plan)
        assert any("hash join" in line and "build: left" in line for line in plan)

    def test_equal_inputs_keep_right_build(self):
        db = self._wide_db(authors=3)
        plan = db.explain(
            "SELECT a.name FROM author a JOIN team t ON t.id = a.team"
        )
        assert any("hash join" in line and "build: right" in line for line in plan)

    def test_left_join_never_builds_left(self):
        """LEFT joins need left-major emission for null extension, so the
        build side stays right regardless of statistics."""
        db = self._wide_db()
        plan = db.explain(
            "SELECT a.name, t.name FROM team t "
            "LEFT JOIN author a ON a.team = t.id"
        )
        assert any("left hash join" in line and "build: right" in line
                   for line in plan)

    def test_build_side_choice_is_invisible_in_results(self):
        planned = self._wide_db()
        oracle = self._wide_db()
        oracle.planner.force_scan = True
        for sql in [
            "SELECT a.name, t.name FROM author a JOIN team t ON t.id = a.team",
            "SELECT a.name, t.name FROM author a JOIN team t ON t.id = a.team "
            "WHERE t.name = 'T2'",
            "SELECT a.name FROM author a JOIN team t ON t.id = a.team "
            "WHERE a.id = 7",
            "SELECT t.name, COUNT(*) FROM author a JOIN team t ON t.id = a.team "
            "GROUP BY t.name",
        ]:
            fast = planned.query(sql)
            slow = oracle.query(sql)
            assert sorted(map(repr, fast.rows)) == sorted(map(repr, slow.rows)), sql

    def test_index_order_upgrade_declines_after_left_build(self):
        """ORDER BY on the pipeline's first table cannot ride the ordered
        index through a left-build hash join (emission is right-major);
        the sort answers instead, correctly."""
        db = self._wide_db()
        db.execute("CREATE INDEX idx_team_id ON team (id)")
        sql = (
            "SELECT t.id, a.name FROM author a JOIN team t ON t.id = a.team "
            "ORDER BY t.id, a.id"
        )
        plan = db.explain(sql)
        assert not any("ordered index" in line for line in plan)
        rows = db.query(sql).rows
        assert rows == sorted(rows, key=lambda r: r[0])
