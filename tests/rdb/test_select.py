"""Tests for the SELECT pipeline: joins, aggregates, ordering, NULL logic."""

import pytest

from repro.errors import DatabaseError
from repro.rdb import Database


@pytest.fixture
def db():
    database = Database()
    database.execute_script(
        """
        CREATE TABLE team (id INTEGER PRIMARY KEY, name VARCHAR(100), code VARCHAR(10));
        CREATE TABLE author (
            id INTEGER PRIMARY KEY,
            firstname VARCHAR(100),
            lastname VARCHAR(100) NOT NULL,
            email VARCHAR(200),
            team INTEGER REFERENCES team(id)
        );
        INSERT INTO team (id, name, code) VALUES
            (1, 'Software Engineering', 'SEAL'),
            (2, 'Database Technology', 'DBTG'),
            (3, 'Empty Group', 'EG');
        INSERT INTO author (id, firstname, lastname, email, team) VALUES
            (1, 'Matthias', 'Hert', 'hert@ifi.uzh.ch', 1),
            (2, 'Gerald', 'Reif', 'reif@ifi.uzh.ch', 1),
            (3, 'Harald', 'Gall', 'gall@ifi.uzh.ch', 1),
            (4, 'Carl', 'Codd', NULL, 2),
            (5, 'Nomad', 'NoTeam', NULL, NULL);
        """
    )
    return database


class TestProjection:
    def test_columns(self, db):
        result = db.query("SELECT lastname FROM author WHERE id = 1")
        assert result.columns == ["lastname"]
        assert result.rows == [("Hert",)]

    def test_star(self, db):
        result = db.query("SELECT * FROM team WHERE id = 1")
        assert result.columns == ["id", "name", "code"]
        assert result.rows == [(1, "Software Engineering", "SEAL")]

    def test_expression_projection(self, db):
        result = db.query("SELECT id * 10 AS x FROM team WHERE id = 2")
        assert result.rows == [(20,)]
        assert result.columns == ["x"]

    def test_select_without_from(self, db):
        assert db.query("SELECT 1 + 1").scalar() == 2

    def test_as_dicts(self, db):
        rows = db.query("SELECT id, code FROM team WHERE id = 1").as_dicts()
        assert rows == [{"id": 1, "code": "SEAL"}]


class TestWhere:
    def test_equality(self, db):
        assert len(db.query("SELECT id FROM author WHERE team = 1")) == 3

    def test_null_comparison_excludes(self, db):
        # NULL = NULL is unknown, so the NULL-team author never matches.
        assert len(db.query("SELECT id FROM author WHERE team = team")) == 4

    def test_is_null(self, db):
        result = db.query("SELECT id FROM author WHERE email IS NULL")
        assert {r[0] for r in result} == {4, 5}

    def test_is_not_null(self, db):
        assert len(db.query("SELECT id FROM author WHERE email IS NOT NULL")) == 3

    def test_and_or(self, db):
        result = db.query(
            "SELECT id FROM author WHERE team = 2 OR lastname = 'Hert'"
        )
        assert {r[0] for r in result} == {1, 4}

    def test_in_list(self, db):
        assert len(db.query("SELECT id FROM author WHERE id IN (1, 3, 99)")) == 2

    def test_like(self, db):
        result = db.query("SELECT lastname FROM author WHERE email LIKE '%uzh.ch'")
        assert len(result) == 3

    def test_like_underscore(self, db):
        assert len(db.query("SELECT id FROM team WHERE code LIKE '_BTG'")) == 1

    def test_between(self, db):
        assert len(db.query("SELECT id FROM author WHERE id BETWEEN 2 AND 4")) == 3

    def test_not(self, db):
        result = db.query("SELECT id FROM author WHERE NOT team = 1")
        # NULL team row is excluded: NOT UNKNOWN = UNKNOWN
        assert {r[0] for r in result} == {4}

    def test_parameters(self, db):
        result = db.query("SELECT id FROM author WHERE lastname = ?", ["Reif"])
        assert result.rows == [(2,)]


class TestJoins:
    def test_inner_join(self, db):
        result = db.query(
            "SELECT author.lastname, team.code FROM author "
            "JOIN team ON author.team = team.id"
        )
        assert len(result) == 4  # NULL-team author drops out

    def test_inner_join_with_alias(self, db):
        result = db.query(
            "SELECT a.lastname, t.code FROM author a JOIN team t ON a.team = t.id "
            "WHERE t.code = 'DBTG'"
        )
        assert result.rows == [("Codd", "DBTG")]

    def test_left_join_keeps_unmatched(self, db):
        result = db.query(
            "SELECT a.lastname, t.code FROM author a LEFT JOIN team t ON a.team = t.id"
        )
        assert len(result) == 5
        codes = {r[0]: r[1] for r in result}
        assert codes["NoTeam"] is None

    def test_cross_join(self, db):
        assert len(db.query("SELECT * FROM team, team t2")) == 9

    def test_join_non_equi_condition(self, db):
        result = db.query(
            "SELECT a.id, t.id FROM author a JOIN team t ON a.id > t.id"
        )
        # pairs where author.id > team.id
        assert len(result) == 9

    def test_three_way_join(self, db):
        db.execute_script(
            """
            CREATE TABLE publication (id INTEGER PRIMARY KEY, title VARCHAR(100) NOT NULL);
            CREATE TABLE publication_author (
                id INTEGER PRIMARY KEY AUTOINCREMENT,
                publication INTEGER REFERENCES publication(id),
                author INTEGER REFERENCES author(id)
            );
            INSERT INTO publication (id, title) VALUES (1, 'OntoAccess');
            INSERT INTO publication_author (publication, author) VALUES (1, 1), (1, 2);
            """
        )
        result = db.query(
            "SELECT p.title, a.lastname FROM publication p "
            "JOIN publication_author pa ON pa.publication = p.id "
            "JOIN author a ON pa.author = a.id ORDER BY a.lastname"
        )
        assert result.rows == [("OntoAccess", "Hert"), ("OntoAccess", "Reif")]


class TestAggregates:
    def test_count_star(self, db):
        assert db.query("SELECT COUNT(*) FROM author").scalar() == 5

    def test_count_column_skips_nulls(self, db):
        assert db.query("SELECT COUNT(email) FROM author").scalar() == 3

    def test_count_distinct(self, db):
        assert db.query("SELECT COUNT(DISTINCT team) FROM author").scalar() == 2

    def test_min_max(self, db):
        row = db.query("SELECT MIN(id), MAX(id) FROM author").first()
        assert row == (1, 5)

    def test_sum_avg(self, db):
        row = db.query("SELECT SUM(id), AVG(id) FROM author").first()
        assert row == (15, 3.0)

    def test_aggregate_on_empty_table(self, db):
        db.execute("DELETE FROM author")
        row = db.query("SELECT COUNT(*), MAX(id) FROM author").first()
        assert row == (0, None)

    def test_group_by(self, db):
        result = db.query(
            "SELECT team, COUNT(*) AS n FROM author "
            "WHERE team IS NOT NULL GROUP BY team ORDER BY n DESC"
        )
        assert result.rows == [(1, 3), (2, 1)]

    def test_group_by_having(self, db):
        result = db.query(
            "SELECT team, COUNT(*) FROM author WHERE team IS NOT NULL "
            "GROUP BY team HAVING COUNT(*) > 2"
        )
        assert result.rows == [(1, 3)]

    def test_aggregate_arithmetic(self, db):
        assert db.query("SELECT MAX(id) - MIN(id) FROM author").scalar() == 4

    def test_sum_and_avg_add_by_the_plus_rule(self, db):
        # a number in a string adds as `+` adds it; any other string is
        # the engine's error, never a bare TypeError
        db.execute("UPDATE author SET email = '7' WHERE id = 1")
        assert db.query("SELECT SUM(email) FROM author WHERE id = 1").scalar() == 7
        for sql in [
            "SELECT SUM(lastname) FROM author",
            "SELECT team, AVG(lastname) FROM author GROUP BY team",
        ]:
            with pytest.raises(DatabaseError, match="expected a numeric value, got 'Hert'"):
                db.query(sql)

    def test_min_and_max_order_by_the_less_than_rule(self, db):
        for sql in [
            "SELECT MIN(COALESCE(team, lastname)) FROM author",
            "SELECT MAX(COALESCE(team, lastname)) FROM author",
        ]:
            with pytest.raises(DatabaseError, match="cannot compare str with int"):
                db.query(sql)

    def test_and_or_over_aggregates_short_circuit_as_in_where(self, db):
        # FALSE AND <raises> is FALSE, TRUE OR <raises> is TRUE: the right
        # side compares a string with a number and is never reached
        raising = "MIN(lastname) < 1"
        result = db.query(
            f"SELECT team, COUNT(*) > 5 AND {raising}, COUNT(*) > 0 OR {raising} "
            f"FROM author GROUP BY team HAVING COUNT(*) > 5 AND {raising} "
            f"OR COUNT(*) < 5 OR {raising}"
        )
        assert result.rows == [(1, False, True), (2, False, True), (None, False, True)]
        with pytest.raises(DatabaseError, match="cannot compare str with int"):
            db.query(f"SELECT team FROM author GROUP BY team HAVING COUNT(*) > 0 AND {raising}")

    def test_grouped_order_by_names_an_output_column(self, db):
        for sql in [
            "SELECT team, COUNT(*) FROM author GROUP BY team ORDER BY COUNT(*) DESC",
            "SELECT COUNT(*) FROM author GROUP BY team ORDER BY team",
        ]:
            with pytest.raises(DatabaseError, match="orders by its output columns only"):
                db.query(sql)
        result = db.query(
            "SELECT team, COUNT(*) AS n FROM author GROUP BY team ORDER BY n DESC, team"
        )
        assert result.rows == [(1, 3), (None, 1), (2, 1)]


class TestOrderingAndLimits:
    def test_order_asc(self, db):
        result = db.query("SELECT lastname FROM author ORDER BY lastname")
        names = [r[0] for r in result]
        assert names == sorted(names)

    def test_order_desc(self, db):
        result = db.query("SELECT id FROM author ORDER BY id DESC")
        assert [r[0] for r in result] == [5, 4, 3, 2, 1]

    def test_order_multi_key(self, db):
        result = db.query(
            "SELECT team, id FROM author ORDER BY team DESC, id DESC"
        )
        # NULL team sorts first ascending, hence last on DESC? Our rule:
        # NULLs are smallest, so DESC puts them last.
        assert result.rows[-1] == (None, 5)

    def test_nulls_sort_first_ascending(self, db):
        result = db.query("SELECT team FROM author ORDER BY team")
        assert result.rows[0] == (None,)

    def test_limit_offset(self, db):
        result = db.query("SELECT id FROM author ORDER BY id LIMIT 2 OFFSET 1")
        assert [r[0] for r in result] == [2, 3]

    def test_order_by_alias(self, db):
        result = db.query("SELECT id * -1 AS neg FROM author ORDER BY neg")
        assert [r[0] for r in result] == [-5, -4, -3, -2, -1]

    def test_distinct(self, db):
        result = db.query("SELECT DISTINCT team FROM author WHERE team IS NOT NULL")
        assert {r[0] for r in result} == {1, 2}


class TestErrors:
    def test_unknown_column(self, db):
        with pytest.raises(DatabaseError):
            db.query("SELECT nope FROM team")

    def test_unknown_table(self, db):
        with pytest.raises(DatabaseError):
            db.query("SELECT * FROM nope")

    def test_ambiguous_column(self, db):
        with pytest.raises(DatabaseError, match="ambiguous"):
            db.query("SELECT id FROM author JOIN team ON author.team = team.id")

    def test_aggregate_in_where_rejected(self, db):
        with pytest.raises(DatabaseError):
            db.query("SELECT id FROM author WHERE COUNT(*) > 1")
