"""CREATE INDEX / DROP INDEX DDL: parsing, execution, plan-cache
invalidation, and prepared-operation state versioning.

Covers the ISSUE-3 satellite checklist items: CREATE INDEX must reroute
subsequent (cached) plans to the index path, DROP INDEX must fall back to
scan, ``Database.state_version()`` must bump so PreparedQuery replay
stays correct, and statistics maintenance stays O(changes).
"""

import pytest

from repro.errors import CatalogError, IntegrityError
from repro.rdb import Database
from repro.rdb.storage import TableData
from repro.sql import ast
from repro.sql.parser import parse_sql
from repro.sql.render import render
from tests.rdb.test_storage import named_rows


@pytest.fixture
def db():
    db = Database()
    db.execute(
        """
        CREATE TABLE item (
            id INTEGER PRIMARY KEY,
            v INTEGER,
            name VARCHAR(50),
            team INTEGER
        )
        """
    )
    for i in range(30):
        db.execute(
            f"INSERT INTO item (id, v, name, team) VALUES "
            f"({i}, {i * 3 % 11}, 'n{i:02d}', {i % 4})"
        )
    return db


class TestParseAndRender:
    def test_create_index_parses(self):
        stmt = parse_sql("CREATE INDEX idx_v ON item (v)")
        assert stmt == ast.CreateIndex(name="idx_v", table="item", columns=("v",))

    def test_create_unique_composite_parses(self):
        stmt = parse_sql("CREATE UNIQUE INDEX IF NOT EXISTS u ON t (a, b)")
        assert stmt.unique and stmt.if_not_exists
        assert stmt.columns == ("a", "b")

    def test_drop_index_parses(self):
        assert parse_sql("DROP INDEX IF EXISTS idx_v") == ast.DropIndex(
            name="idx_v", if_exists=True
        )

    def test_round_trip_through_renderer(self):
        for sql in (
            "CREATE INDEX idx_v ON item (v);",
            "CREATE UNIQUE INDEX IF NOT EXISTS u ON t (a, b);",
            "DROP INDEX idx_v;",
            "DROP INDEX IF EXISTS idx_v;",
        ):
            assert render(parse_sql(sql)) == sql


class TestExecution:
    def test_create_index_builds_structures(self, db):
        db.execute("CREATE INDEX idx_v ON item (v)")
        data = db.table_data("item")
        assert data.ordered_index("v") is data.indexes[("v",)]
        # one hash for probes and the walk, beside the sorted keys
        assert [type(pages).__name__ for pages in data.containers()] == [
            "_RowPages", "_HashPages", "_HashPages", "_SortedPages",
        ]
        assert db.schema.has_index("idx_v")

    def test_duplicate_name_rejected(self, db):
        db.execute("CREATE INDEX idx_v ON item (v)")
        with pytest.raises(CatalogError):
            db.execute("CREATE INDEX idx_v ON item (name)")
        db.execute("CREATE INDEX IF NOT EXISTS idx_v ON item (name)")  # no-op

    def test_unknown_table_and_column_rejected(self, db):
        with pytest.raises(CatalogError):
            db.execute("CREATE INDEX i1 ON missing (v)")
        with pytest.raises(CatalogError):
            db.execute("CREATE INDEX i2 ON item (missing)")
        assert not db.schema.has_index("i2")

    def test_drop_missing_index(self, db):
        with pytest.raises(CatalogError):
            db.execute("DROP INDEX nope")
        db.execute("DROP INDEX IF EXISTS nope")  # no-op

    def test_unique_index_enforces_on_existing_rows(self, db):
        db.execute("INSERT INTO item (id, v, name, team) VALUES (100, 3, 'dup', 0)")
        db.execute("INSERT INTO item (id, v, name, team) VALUES (101, 3, 'dup', 1)")
        with pytest.raises(IntegrityError):
            db.execute("CREATE UNIQUE INDEX u_name ON item (name)")
        # failed DDL leaves no trace
        assert not db.schema.has_index("u_name")
        assert db.schema.table("item").uniques == []
        assert list(db.table_data("item").indexes) == [("id",)]
        db.execute("INSERT INTO item (id, name) VALUES (102, 'dup')")  # still OK

    def test_unique_index_enforces_on_new_rows(self, db):
        db.execute("CREATE UNIQUE INDEX u_name ON item (name)")
        with pytest.raises(IntegrityError):
            db.execute("INSERT INTO item (id, name) VALUES (200, 'n01')")
        db.execute("DROP INDEX u_name")
        db.execute("INSERT INTO item (id, name) VALUES (200, 'n01')")

    def test_unique_index_becomes_point_lookup(self, db):
        db.execute("CREATE UNIQUE INDEX u_name ON item (name)")
        plan = db.explain("SELECT v FROM item WHERE name = 'n07'")
        assert any("point lookup" in line and "unique" in line for line in plan)

    def test_composite_index_registered(self, db):
        db.execute("CREATE INDEX idx_tv ON item (team, v)")
        assert ("team", "v") in db.table_data("item").indexes
        plan = db.explain("SELECT id FROM item WHERE v = 3 AND team = 1")
        assert plan[0] == "item: index probe on team, v"
        db.execute("DROP INDEX idx_tv")
        assert ("team", "v") not in db.table_data("item").indexes

    def test_drop_table_drops_its_indexes(self, db):
        db.execute("CREATE INDEX idx_v ON item (v)")
        db.execute("DROP TABLE item")
        assert not db.schema.has_index("idx_v")

    def test_fk_hash_index_survives_drop_of_declared_index(self):
        db = Database()
        db.execute(
            """
            CREATE TABLE parent (id INTEGER PRIMARY KEY);
            CREATE TABLE child (
                id INTEGER PRIMARY KEY,
                p INTEGER REFERENCES parent(id)
            )
            """
        )
        assert ("p",) in db.table_data("child").indexes  # FK-maintained
        db.execute("CREATE INDEX idx_p ON child (p)")
        assert db.table_data("child").ordered_index("p") is not None
        db.execute("DROP INDEX idx_p")
        # ordered half gone, FK hash acceleration intact
        data = db.table_data("child")
        assert data.ordered_index("p") is None
        assert ("p",) in data.indexes

    def test_shared_column_structures_survive_sibling_drop(self, db):
        db.execute("CREATE INDEX idx_a ON item (v)")
        db.execute("CREATE INDEX idx_b ON item (v)")
        db.execute("DROP INDEX idx_a")
        assert db.table_data("item").ordered_index("v") is not None
        db.execute("DROP INDEX idx_b")
        assert db.table_data("item").ordered_index("v") is None

    def test_last_of_several_same_column_indexes_takes_the_structure(self, db):
        """Regression: whichever of several indexes over one column is
        dropped first, the structure lives as long as a sibling needs it
        and the last drop removes it instead of leaking it forever."""
        db.execute("CREATE INDEX idx_plain ON item (v)")  # builds the hash
        db.execute("CREATE UNIQUE INDEX idx_uniq ON item (id)")
        db.execute("CREATE INDEX idx_second ON item (v)")
        db.execute("DROP INDEX idx_plain")
        assert db.table_data("item").ordered_index("v") is not None  # sibling lives
        db.execute("DROP INDEX idx_second")
        assert ("v",) not in db.table_data("item").indexes
        assert db.table_data("item").ordered_index("v") is None


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


class TestPlanCacheInvalidation:
    """CREATE INDEX must reroute already-cached plans; DROP INDEX must
    fall them back to scans."""

    RANGE = "SELECT id FROM item WHERE v BETWEEN 3 AND 5"
    ORDERED = "SELECT v, id FROM item ORDER BY v LIMIT 5"

    def test_create_index_reroutes_cached_plan(self, db, monkeypatch):
        before = db.query(self.RANGE)  # caches a scan plan
        assert any("full scan" in line for line in db.explain(self.RANGE))
        db.execute("CREATE INDEX idx_v ON item (v)")
        assert any("range scan" in line for line in db.explain(self.RANGE))
        counter = ScanCounter(monkeypatch)
        after = db.query(self.RANGE)
        assert counter.counts.get("item", 0) == 0
        assert sorted(before.rows) == sorted(after.rows)

    def test_create_index_reroutes_order_by(self, db, monkeypatch):
        before = db.query(self.ORDERED)
        db.execute("CREATE INDEX idx_v ON item (v)")
        assert any("ordered index" in line for line in db.explain(self.ORDERED))
        counter = ScanCounter(monkeypatch)
        after = db.query(self.ORDERED)
        assert counter.counts.get("item", 0) == 0
        assert [r[0] for r in after.rows] == [r[0] for r in before.rows]

    def test_drop_index_falls_back_to_scan(self, db, monkeypatch):
        db.execute("CREATE INDEX idx_v ON item (v)")
        with_index = db.query(self.RANGE)
        db.execute("DROP INDEX idx_v")
        assert any("full scan" in line for line in db.explain(self.RANGE))
        counter = ScanCounter(monkeypatch)
        without_index = db.query(self.RANGE)
        assert counter.counts.get("item", 0) == 1
        assert sorted(with_index.rows) == sorted(without_index.rows)

    def test_invalidation_counter_bumps(self, db):
        base = db.planner.stats["invalidations"]
        db.execute("CREATE INDEX idx_v ON item (v)")
        db.execute("DROP INDEX idx_v")
        assert db.planner.stats["invalidations"] == base + 2

    def test_state_version_bumps_on_index_ddl(self, db):
        v0 = db.state_version()
        db.execute("CREATE INDEX idx_v ON item (v)")
        v1 = db.state_version()
        assert v1 != v0
        db.execute("DROP INDEX idx_v")
        assert db.state_version() != v1


class TestPreparedReplayAcrossIndexDDL:
    """Session-level regression: prepared queries keyed on the state
    version must re-translate (and re-plan) after index DDL."""

    def _session(self):
        from repro import OntoAccess
        from repro.workloads.publication import build_database, build_mapping
        from repro.workloads.generator import (
            WorkloadConfig,
            generate_dataset,
            populate_database,
        )

        db = build_database()
        populate_database(
            db, generate_dataset(WorkloadConfig(authors=12, publications=6))
        )
        oa = OntoAccess(db, build_mapping(db))
        return db, oa.session()

    QUERY = """
        PREFIX foaf: <http://xmlns.com/foaf/0.1/>
        SELECT ?n WHERE { ?x foaf:family_name ?n . }
    """

    def test_prepared_query_survives_index_ddl(self):
        db, session = self._session()
        prepared = session.prepare(self.QUERY)
        before = sorted(map(str, prepared.execute().rows()))
        version = db.state_version()
        db.execute("CREATE INDEX idx_author_last ON author (lastname)")
        assert db.state_version() != version
        after = sorted(map(str, prepared.execute().rows()))
        assert after == before
        db.execute("DROP INDEX idx_author_last")
        assert sorted(map(str, prepared.execute().rows())) == before


class TestStatisticsMaintenance:
    """Statistics must be O(changes): no DML or stats read may recount
    the table."""

    def test_single_row_insert_updates_stats_without_scan(self, db, monkeypatch):
        db.execute("CREATE INDEX idx_v ON item (v)")
        data = db.table_data("item")
        rows_before = data.row_count()
        distinct_before = data.distinct_count("v")
        counter = ScanCounter(monkeypatch)
        db.execute("INSERT INTO item (id, v, name, team) VALUES (500, 999, 'x', 0)")
        # reading the maintained statistics does not touch scan either
        assert data.row_count() == rows_before + 1
        assert data.distinct_count("v") == distinct_before + 1  # new value
        assert counter.total() == 0

    def test_delete_and_update_keep_distinct_exact(self, db):
        db.execute("CREATE INDEX idx_v ON item (v)")
        data = db.table_data("item")

        def recount():
            values = [row["v"] for _, row in named_rows(data)]
            return len({v for v in values if v is not None})

        db.execute("DELETE FROM item WHERE v = 3")
        assert data.distinct_count("v") == recount()
        db.execute("UPDATE item SET v = 77 WHERE id = 7")
        assert data.distinct_count("v") == recount()

    def test_unindexed_column_reports_unknown(self, db):
        assert db.table_data("item").distinct_count("name") is None
