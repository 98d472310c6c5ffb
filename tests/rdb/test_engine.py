"""Integration-style tests for the relational engine facade."""

import pytest

from repro.errors import (
    CatalogError,
    DatabaseError,
    IntegrityError,
    TransactionError,
    TypeMismatchError,
)
from repro.rdb import Database

PUBLICATION_DDL = """
CREATE TABLE team (
    id INTEGER PRIMARY KEY,
    name VARCHAR(200),
    code VARCHAR(20)
);
CREATE TABLE publisher (
    id INTEGER PRIMARY KEY,
    name VARCHAR(200)
);
CREATE TABLE pubtype (
    id INTEGER PRIMARY KEY,
    type VARCHAR(50)
);
CREATE TABLE author (
    id INTEGER PRIMARY KEY,
    title VARCHAR(20),
    email VARCHAR(200),
    firstname VARCHAR(100),
    lastname VARCHAR(100) NOT NULL,
    team INTEGER REFERENCES team(id)
);
CREATE TABLE publication (
    id INTEGER PRIMARY KEY,
    title VARCHAR(300) NOT NULL,
    year INTEGER NOT NULL,
    type INTEGER REFERENCES pubtype(id),
    publisher INTEGER REFERENCES publisher(id)
);
CREATE TABLE publication_author (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    publication INTEGER NOT NULL REFERENCES publication(id),
    author INTEGER NOT NULL REFERENCES author(id)
);
"""


@pytest.fixture
def db():
    database = Database()
    database.execute_script(PUBLICATION_DDL)
    return database


@pytest.fixture
def seeded(db):
    db.execute("INSERT INTO team (id, name, code) VALUES (5, 'Software Engineering', 'SEAL')")
    db.execute(
        "INSERT INTO author (id, title, firstname, lastname, email, team) "
        "VALUES (6, 'Mr', 'Matthias', 'Hert', 'hert@ifi.uzh.ch', 5)"
    )
    return db


class TestDDL:
    def test_tables_created(self, db):
        assert set(db.schema.table_names()) == {
            "team",
            "publisher",
            "pubtype",
            "author",
            "publication",
            "publication_author",
        }

    def test_duplicate_table_rejected(self, db):
        with pytest.raises(CatalogError):
            db.execute("CREATE TABLE team (id INTEGER)")

    def test_if_not_exists(self, db):
        db.execute("CREATE TABLE IF NOT EXISTS team (id INTEGER)")  # no error

    def test_fk_to_unknown_table_rejected(self, db):
        with pytest.raises(CatalogError):
            db.execute("CREATE TABLE bad (x INTEGER REFERENCES nothere(id))")

    def test_drop_table(self, db):
        db.execute("DROP TABLE publication_author")
        assert not db.schema.has_table("publication_author")

    def test_drop_referenced_table_rejected(self, db):
        with pytest.raises(CatalogError):
            db.execute("DROP TABLE team")  # author references it

    def test_drop_missing_table(self, db):
        with pytest.raises(CatalogError):
            db.execute("DROP TABLE nope")
        db.execute("DROP TABLE IF EXISTS nope")  # tolerated


class TestInsert:
    def test_basic_insert(self, db):
        result = db.execute(
            "INSERT INTO team (id, name, code) VALUES (4, 'Database Technology', 'DBTG')"
        )
        assert result.rowcount == 1
        assert db.row_count("team") == 1

    def test_paper_listing_16_statements(self, db):
        """The six INSERTs of Listing 16 execute in their sorted order."""
        db.execute_script(
            """
            INSERT INTO team (id, name, code) VALUES (5, 'Software Engineering', 'SEAL');
            INSERT INTO pubtype (id, type) VALUES (4, 'inproceedings');
            INSERT INTO publisher (id, name) VALUES (3, 'Springer');
            INSERT INTO publication (id, title, year, type, publisher)
                VALUES (12, 'Relational...', 2009, 4, 3);
            INSERT INTO author (id, title, firstname, lastname, email, team)
                VALUES (6, 'Mr', 'Matthias', 'Hert', 'hert@ifi.uzh.ch', 5);
            INSERT INTO publication_author (publication, author) VALUES (12, 6);
            """
        )
        assert db.row_count("publication_author") == 1

    def test_unsorted_order_fails_under_immediate_checking(self, db):
        """Inserting the author before its team violates the FK immediately —
        the behaviour that motivates Algorithm 1 step 5."""
        with pytest.raises(IntegrityError, match="foreign key"):
            db.execute(
                "INSERT INTO author (id, lastname, team) VALUES (6, 'Hert', 5)"
            )

    def test_unsorted_order_succeeds_under_deferred_checking(self):
        db = Database(constraint_mode="deferred")
        db.execute_script(PUBLICATION_DDL)
        db.begin()
        db.execute("INSERT INTO author (id, lastname, team) VALUES (6, 'Hert', 5)")
        db.execute("INSERT INTO team (id, name, code) VALUES (5, 'SE', 'SEAL')")
        db.commit()
        assert db.row_count("author") == 1

    def test_deferred_checking_still_fails_at_commit_when_unsatisfied(self):
        db = Database(constraint_mode="deferred")
        db.execute_script(PUBLICATION_DDL)
        db.begin()
        db.execute("INSERT INTO author (id, lastname, team) VALUES (6, 'Hert', 99)")
        with pytest.raises(IntegrityError):
            db.commit()
        assert db.row_count("author") == 0  # rolled back

    def test_pk_uniqueness(self, db):
        db.execute("INSERT INTO team (id) VALUES (1)")
        with pytest.raises(IntegrityError, match="primary key"):
            db.execute("INSERT INTO team (id) VALUES (1)")

    def test_not_null_enforced(self, db):
        with pytest.raises(IntegrityError, match="NOT NULL"):
            db.execute("INSERT INTO author (id, firstname) VALUES (1, 'X')")

    def test_pk_is_implicitly_not_null(self, db):
        with pytest.raises(IntegrityError):
            db.execute("INSERT INTO team (name) VALUES ('x')")

    def test_type_coercion_string_to_int(self, db):
        db.execute("INSERT INTO team (id, name) VALUES (1, 'x')")
        db.execute("UPDATE team SET id = id WHERE id = 1")  # no-op sanity
        db.execute("INSERT INTO publisher (id, name) VALUES ('7', 'Springer')")
        assert db.query("SELECT id FROM publisher").scalar() == 7

    def test_type_mismatch_rejected(self, db):
        with pytest.raises(TypeMismatchError):
            db.execute("INSERT INTO publisher (id, name) VALUES ('abc', 'X')")

    def test_autoincrement(self, seeded):
        seeded.execute(
            "INSERT INTO publication (id, title, year) VALUES (1, 'T', 2010)"
        )
        seeded.execute("INSERT INTO publication_author (publication, author) VALUES (1, 6)")
        seeded.execute("INSERT INTO publication_author (publication, author) VALUES (1, 6)")
        ids = [r[0] for r in seeded.query("SELECT id FROM publication_author")]
        assert ids == [1, 2]

    def test_autoincrement_respects_explicit_values(self, seeded):
        seeded.execute("INSERT INTO publication (id, title, year) VALUES (1, 'T', 2010)")
        seeded.execute(
            "INSERT INTO publication_author (id, publication, author) VALUES (10, 1, 6)"
        )
        seeded.execute("INSERT INTO publication_author (publication, author) VALUES (1, 6)")
        ids = [r[0] for r in seeded.query("SELECT id FROM publication_author ORDER BY id")]
        assert ids == [10, 11]

    def test_unknown_column_rejected(self, db):
        with pytest.raises(CatalogError):
            db.execute("INSERT INTO team (id, nope) VALUES (1, 'x')")

    def test_multi_row_insert(self, db):
        result = db.execute("INSERT INTO team (id) VALUES (1), (2), (3)")
        assert result.rowcount == 3

    def test_default_applied(self):
        db = Database()
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, status VARCHAR(10) DEFAULT 'new')")
        db.execute("INSERT INTO t (id) VALUES (1)")
        assert db.query("SELECT status FROM t").scalar() == "new"


class TestUpdate:
    def test_paper_listing_18(self, seeded):
        """UPDATE author SET email = NULL WHERE id = 6 AND email = '...'"""
        result = seeded.execute(
            "UPDATE author SET email = NULL WHERE id = 6 AND email = 'hert@ifi.uzh.ch'"
        )
        assert result.rowcount == 1
        assert seeded.query("SELECT email FROM author WHERE id = 6").scalar() is None

    def test_update_not_null_violation(self, seeded):
        with pytest.raises(IntegrityError):
            seeded.execute("UPDATE author SET lastname = NULL WHERE id = 6")

    def test_update_fk_violation(self, seeded):
        with pytest.raises(IntegrityError):
            seeded.execute("UPDATE author SET team = 99 WHERE id = 6")

    def test_update_referenced_pk_restricted(self, seeded):
        with pytest.raises(IntegrityError):
            seeded.execute("UPDATE team SET id = 9 WHERE id = 5")

    def test_update_pk_uniqueness(self, db):
        db.execute("INSERT INTO team (id) VALUES (1), (2)")
        with pytest.raises(IntegrityError):
            db.execute("UPDATE team SET id = 2 WHERE id = 1")

    def test_update_expression(self, db):
        db.execute("INSERT INTO publication (id, title, year) VALUES (1, 'T', 2009)")
        db.execute("UPDATE publication SET year = year + 1")
        assert db.query("SELECT year FROM publication").scalar() == 2010

    def test_rowcount_zero_when_no_match(self, seeded):
        assert seeded.execute("UPDATE author SET title = 'Dr' WHERE id = 99").rowcount == 0


class TestDelete:
    def test_delete_row(self, seeded):
        result = seeded.execute("DELETE FROM author WHERE id = 6")
        assert result.rowcount == 1
        assert seeded.row_count("author") == 0

    def test_delete_referenced_row_restricted(self, seeded):
        with pytest.raises(IntegrityError):
            seeded.execute("DELETE FROM team WHERE id = 5")

    def test_delete_parent_after_child(self, seeded):
        seeded.execute("DELETE FROM author WHERE id = 6")
        seeded.execute("DELETE FROM team WHERE id = 5")
        assert seeded.row_count("team") == 0

    def test_delete_all(self, db):
        db.execute("INSERT INTO team (id) VALUES (1), (2), (3)")
        assert db.execute("DELETE FROM team").rowcount == 3


class TestTransactions:
    def test_commit_persists(self, db):
        with db.transaction():
            db.execute("INSERT INTO team (id) VALUES (1)")
        assert db.row_count("team") == 1

    def test_rollback_reverts_insert(self, db):
        db.begin()
        db.execute("INSERT INTO team (id) VALUES (1)")
        db.rollback()
        assert db.row_count("team") == 0

    def test_rollback_reverts_update(self, seeded):
        seeded.begin()
        seeded.execute("UPDATE author SET title = 'Dr' WHERE id = 6")
        seeded.rollback()
        assert seeded.query("SELECT title FROM author WHERE id = 6").scalar() == "Mr"

    def test_rollback_reverts_delete(self, seeded):
        seeded.begin()
        seeded.execute("DELETE FROM author WHERE id = 6")
        seeded.rollback()
        assert seeded.row_count("author") == 1

    def test_exception_in_context_manager_rolls_back(self, db):
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.execute("INSERT INTO team (id) VALUES (1)")
                raise RuntimeError("boom")
        assert db.row_count("team") == 0

    def test_failed_statement_inside_txn_keeps_earlier_work(self, db):
        db.begin()
        db.execute("INSERT INTO team (id) VALUES (1)")
        with pytest.raises(IntegrityError):
            db.execute("INSERT INTO team (id) VALUES (1)")  # duplicate PK
        db.commit()
        assert db.row_count("team") == 1

    def test_nested_begin_rejected(self, db):
        db.begin()
        with pytest.raises(TransactionError):
            db.begin()
        db.rollback()

    def test_commit_without_begin_rejected(self, db):
        with pytest.raises(TransactionError):
            db.commit()

    def test_sql_transaction_statements(self, db):
        db.execute("BEGIN")
        db.execute("INSERT INTO team (id) VALUES (1)")
        db.execute("ROLLBACK")
        assert db.row_count("team") == 0

    def test_autocommit_failure_leaves_no_partial_state(self, db):
        # multi-row insert where the second row fails: all-or-nothing
        with pytest.raises(IntegrityError):
            db.execute("INSERT INTO team (id) VALUES (1), (1)")
        assert db.row_count("team") == 0


class TestDirectAccess:
    def test_get_row_by_pk(self, seeded):
        row = seeded.get_row_by_pk("author", (6,))
        assert row["lastname"] == "Hert"

    def test_get_row_by_pk_missing(self, seeded):
        assert seeded.get_row_by_pk("author", (99,)) is None

    def test_unknown_table(self, db):
        with pytest.raises(CatalogError):
            db.table_data("nope")


class TestStateVersions:
    """data_version/schema_version identify the visible state (snapshot
    freshness, prepared-query translations); a missed bump would serve a
    state that no longer exists."""

    def test_dml_bumps_data_version(self):
        db = Database()
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        v = db.data_version
        db.execute("INSERT INTO t (id) VALUES (1)")
        assert db.data_version > v
        v = db.data_version
        db.execute("DELETE FROM t WHERE id = 99")  # affects nothing
        assert db.data_version == v

    def test_rollback_bumps_data_version(self):
        db = Database()
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        db.begin()
        db.execute("INSERT INTO t (id) VALUES (1)")
        v = db.data_version
        db.rollback()
        assert db.data_version > v

    def test_failed_deferred_commit_bumps_data_version(self):
        """commit() failing a deferred FK check reverts the data, so it
        must invalidate translation caches exactly like rollback()."""
        db = Database(constraint_mode="deferred")
        db.execute_script(
            """
            CREATE TABLE p (id INTEGER PRIMARY KEY);
            CREATE TABLE c (id INTEGER PRIMARY KEY, p INTEGER REFERENCES p(id));
            """
        )
        db.begin()
        db.execute("INSERT INTO c (id, p) VALUES (1, 99)")
        v = db.data_version
        with pytest.raises(IntegrityError):
            db.commit()
        assert db.data_version > v
        assert not db.in_transaction()

    def test_ddl_bumps_schema_version(self):
        db = Database()
        v = db.schema_version
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        assert db.schema_version > v
        v = db.schema_version
        db.execute("DROP TABLE t")
        assert db.schema_version > v
