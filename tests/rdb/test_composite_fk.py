"""Composite foreign keys stay index-backed (ISSUE 2 satellite).

The constraint checker used to fall back to full table scans for
multi-column foreign keys (both the child-side existence probe and the
parent-side RESTRICT check).  These tests pin the semantics and — via
``TableData.scan`` / ``TableData.pages`` instrumentation — prove the
probes never scan.
"""

import pytest

from repro.errors import IntegrityError
from repro.rdb.engine import Database
from repro.rdb.storage import TableData, _RowPages
from tests.rdb.test_storage import index_kinds

DDL = """
CREATE TABLE region (
    country VARCHAR(2),
    code VARCHAR(10),
    name VARCHAR(100),
    PRIMARY KEY (country, code)
);
CREATE TABLE warehouse (
    id INTEGER PRIMARY KEY,
    country VARCHAR(2),
    region_code VARCHAR(10),
    FOREIGN KEY (country, region_code) REFERENCES region (country, code)
);
"""


@pytest.fixture
def db():
    database = Database()
    database.execute_script(DDL)
    database.execute(
        "INSERT INTO region (country, code, name) VALUES ('CH', 'ZH', 'Zurich')"
    )
    database.execute(
        "INSERT INTO region (country, code, name) VALUES ('CH', 'BE', 'Bern')"
    )
    return database


@pytest.fixture
def scan_counter(monkeypatch):
    """Counts whole-table reads (``TableData.scan`` / ``pages`` calls) per
    table and, under ``"rows"``, every iteration of a row store that
    bypasses them."""
    counts = {}

    def counted(method):
        def read(self):
            counts[self.table.name] = counts.get(self.table.name, 0) + 1
            return method(self)
        return read

    def counted_rows(method):
        def iterate(self):
            counts["rows"] = counts.get("rows", 0) + 1
            return method(self)
        return iterate

    for name in ("scan", "pages"):
        monkeypatch.setattr(TableData, name, counted(getattr(TableData, name)))
    for name in ("items", "values", "__iter__"):
        monkeypatch.setattr(_RowPages, name, counted_rows(getattr(_RowPages, name)))
    return counts


class TestCompositeFkSemantics:
    def test_valid_composite_fk_insert(self, db):
        db.execute(
            "INSERT INTO warehouse (id, country, region_code) VALUES (1, 'CH', 'ZH')"
        )
        assert db.row_count("warehouse") == 1

    def test_missing_composite_target_rejected(self, db):
        with pytest.raises(IntegrityError, match="foreign key"):
            db.execute(
                "INSERT INTO warehouse (id, country, region_code) "
                "VALUES (1, 'CH', 'GE')"
            )

    def test_partial_match_is_not_a_match(self, db):
        # ('DE', 'ZH') matches neither row even though each component
        # appears somewhere in the parent table
        with pytest.raises(IntegrityError, match="foreign key"):
            db.execute(
                "INSERT INTO warehouse (id, country, region_code) "
                "VALUES (1, 'DE', 'ZH')"
            )

    def test_null_component_never_violates(self, db):
        db.execute(
            "INSERT INTO warehouse (id, country, region_code) "
            "VALUES (1, 'CH', NULL)"
        )
        assert db.row_count("warehouse") == 1

    def test_parent_delete_restricted_while_referenced(self, db):
        db.execute(
            "INSERT INTO warehouse (id, country, region_code) VALUES (1, 'CH', 'ZH')"
        )
        with pytest.raises(IntegrityError, match="still"):
            db.execute("DELETE FROM region WHERE code = 'ZH'")
        # the unreferenced parent row can go
        db.execute("DELETE FROM region WHERE code = 'BE'")
        assert db.row_count("region") == 1

    def test_parent_delete_allowed_after_child_removed(self, db):
        db.execute(
            "INSERT INTO warehouse (id, country, region_code) VALUES (1, 'CH', 'ZH')"
        )
        db.execute("DELETE FROM warehouse WHERE id = 1")
        db.execute("DELETE FROM region WHERE code = 'ZH'")
        assert db.row_count("region") == 1

    def test_child_update_revalidates_composite_fk(self, db):
        db.execute(
            "INSERT INTO warehouse (id, country, region_code) VALUES (1, 'CH', 'ZH')"
        )
        db.execute("UPDATE warehouse SET region_code = 'BE' WHERE id = 1")
        with pytest.raises(IntegrityError, match="foreign key"):
            db.execute("UPDATE warehouse SET region_code = 'GE' WHERE id = 1")

    def test_rollback_keeps_composite_index_consistent(self, db):
        db.begin()
        db.execute(
            "INSERT INTO warehouse (id, country, region_code) VALUES (1, 'CH', 'ZH')"
        )
        db.rollback()
        # the undone child row must not block the parent delete
        db.execute("DELETE FROM region WHERE code = 'ZH'")
        assert db.row_count("region") == 1


class TestCompositeFkProbesAreIndexBacked:
    def test_child_side_probe_never_scans(self, db, scan_counter):
        """Composite-FK existence checks must hit the composite index on
        the parent; the parent's ref columns are its PK here, but the
        probe path is exercised with non-PK ref columns below."""
        db.execute(
            "INSERT INTO warehouse (id, country, region_code) VALUES (1, 'CH', 'ZH')"
        )
        assert scan_counter.get("region", 0) == 0

    def test_parent_side_probe_scans_at_most_once(self, db):
        """RESTRICT checks probe the child's composite FK index.  The
        index exists from CREATE TABLE, so deletes never scan the child."""
        for i in range(50):
            db.execute(
                f"INSERT INTO warehouse (id, country, region_code) "
                f"VALUES ({i}, 'CH', 'ZH')"
            )
        counts = {}
        originals = {name: getattr(TableData, name) for name in ("scan", "pages")}

        def counted(method):
            def read(self):
                counts[self.table.name] = counts.get(self.table.name, 0) + 1
                return method(self)
            return read

        try:
            for name, method in originals.items():
                setattr(TableData, name, counted(method))
            with pytest.raises(IntegrityError):
                db.execute("DELETE FROM region WHERE code = 'ZH'")
            db.execute("DELETE FROM region WHERE code = 'BE'")
        finally:
            for name, method in originals.items():
                setattr(TableData, name, method)
        assert counts.get("warehouse", 0) == 0

    def test_non_pk_composite_ref_columns_probe(self, db, scan_counter):
        """Ref columns that are not the parent PK are checked against the
        index the parent keeps over them — here its UNIQUE (x, y) — from
        the first check on: probes, never a scan, never a build."""
        db.execute_script(GRID)
        scan_counter.clear()
        db.execute("INSERT INTO grid (id, x, y) VALUES (1, 3, 4)")
        db.execute("INSERT INTO marker (id, x, y) VALUES (1, 3, 4)")
        with pytest.raises(IntegrityError):
            db.execute("INSERT INTO marker (id, x, y) VALUES (2, 9, 9)")
        db.execute("INSERT INTO grid (id, x, y) VALUES (2, 9, 9)")
        db.execute("INSERT INTO marker (id, x, y) VALUES (2, 9, 9)")
        assert scan_counter == {}
        # one structure over (x, y): the unique index answers the probe
        assert list(db.table_data("grid").indexes) == [("id",), ("x", "y")]
        assert len(list(db.table_data("grid").containers())) == 3

    @pytest.mark.parametrize(
        "target, child_columns",
        [
            ("id", "p"),  # the primary key
            ("code", "p"),  # a UNIQUE column
            ("x, y", "p, q"),  # a UNIQUE pair
            ("a", "p"),  # a plain column: indexed because it is referenced
            ("a, b", "p, q"),  # a plain pair
        ],
    )
    def test_no_foreign_key_check_reads_the_row_store(
        self, target, child_columns, scan_counter
    ):
        """Child INSERT, child UPDATE of the FK columns and parent DELETE
        cost index probes on both tables whatever the key points at — an
        FK to a UNIQUE column used to scan the parent per child row."""
        db = Database()
        db.execute_script(
            f"""
            CREATE TABLE parent (
                id INTEGER PRIMARY KEY, code INTEGER UNIQUE,
                x INTEGER, y INTEGER, a INTEGER, b INTEGER, UNIQUE (x, y)
            );
            CREATE TABLE child (
                id INTEGER PRIMARY KEY, p INTEGER, q INTEGER,
                FOREIGN KEY ({child_columns}) REFERENCES parent ({target})
            );
            """
        )
        for i in range(1, 41):
            db.execute(f"INSERT INTO parent VALUES ({i}, {i}, {i}, {i}, {i}, {i})")
        scan_counter.clear()
        db.execute("INSERT INTO child (id, p, q) VALUES (1, 7, 7)")
        with pytest.raises(IntegrityError, match="no match"):
            db.execute("INSERT INTO child (id, p, q) VALUES (2, 77, 77)")
        db.execute("UPDATE child SET p = 8, q = 8 WHERE id = 1")
        with pytest.raises(IntegrityError, match="no match"):
            db.execute("UPDATE child SET p = 78, q = 78 WHERE id = 1")
        with pytest.raises(IntegrityError, match="still"):
            db.execute("DELETE FROM parent WHERE id = 8")
        db.execute("DELETE FROM parent WHERE id = 7")
        assert scan_counter == {}
        assert db.row_count("parent") == 39 and db.row_count("child") == 1


GRID = """
CREATE TABLE grid (
    id INTEGER PRIMARY KEY,
    x INTEGER,
    y INTEGER,
    UNIQUE (x, y)
);
CREATE TABLE marker (
    id INTEGER PRIMARY KEY,
    x INTEGER,
    y INTEGER,
    FOREIGN KEY (x, y) REFERENCES grid (x, y)
);
"""


def census(table_data):
    """Per container of the table, the identity of every page."""
    return [
        (type(pages), list(map(id, pages.dir))) for pages in table_data.containers()
    ]




class TestForeignKeyChecksLeaveSnapshotsAlone:
    """A check used to build the index it wanted on whatever version it
    was handed — a frozen one included — and nothing ever dropped it."""

    def test_frozen_table_is_untouched_by_checks_and_ddl(self):
        db = Database()
        db.execute_script(GRID)
        db.execute("INSERT INTO grid (id, x, y) VALUES (1, 3, 4)")
        snap = db.snapshot()
        before = {name: census(data) for name, data in snap.tables.items()}
        index_sets = {name: index_kinds(data) for name, data in snap.tables.items()}
        db.execute("INSERT INTO marker (id, x, y) VALUES (1, 3, 4)")
        with pytest.raises(IntegrityError):
            db.execute("DELETE FROM grid WHERE id = 1")
        db.execute("CREATE TABLE pin (id INTEGER PRIMARY KEY, x INTEGER REFERENCES grid(x))")
        db.execute("CREATE INDEX grid_y ON grid (y)")
        assert {name: census(data) for name, data in snap.tables.items()} == before
        assert {n: index_kinds(data) for n, data in snap.tables.items()} == index_sets
        assert list(db.table_data("grid").indexes) == [("id",), ("x", "y"), ("x",), ("y",)]

    def test_drop_of_the_child_leaves_what_the_parent_itself_requires(self):
        db = Database()
        db.execute_script(GRID.replace("UNIQUE (x, y)", "z INTEGER"))
        own = {("id",): ("primary key", False)}
        assert index_kinds(db.table_data("grid")) == {**own, ("x", "y"): (None, False)}
        db.execute("INSERT INTO grid (id, x, y) VALUES (1, 3, 4)")
        db.execute("INSERT INTO marker (id, x, y) VALUES (1, 3, 4)")
        db.execute("DROP TABLE marker")
        assert index_kinds(db.table_data("grid")) == own
        assert len(list(db.table_data("grid").containers())) == 2
