"""Plans are generated Python: what the source looks like from outside.

The emitter itself is checked in ``test_expression_oracle.py`` and the
operators' answers in ``test_differential.py``; this module pins the
properties of *being code*: a plan shows its text, a traceback shows the
generated line, the text dies with the plan, conjuncts run in written
order, parameters are hoisted, and one plan serves many threads.
"""

import gc
import re
import sys
import threading
import traceback
import weakref

import pytest

from repro.errors import DatabaseError
from repro.rdb import Database
from repro.rdb.expressions import Source
from repro.sql import parse_statements

BIG = 2**53


@pytest.fixture
def db():
    db = Database()
    db.execute("CREATE TABLE team (id INTEGER PRIMARY KEY, name VARCHAR(20))")
    db.execute(
        "CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER, s VARCHAR(20), "
        "lo INTEGER, big INTEGER, team INTEGER REFERENCES team(id))"
    )
    for team in (1, 2, 3):
        db.execute("INSERT INTO team (id, name) VALUES (?, ?)", [team, f"T{team}"])
    rows = [
        (1, 5, "alpha", None, BIG, 1),
        (2, 6, "beta", 1, BIG + 1, 2),
        (3, None, "gamma", None, 7, None),
        (4, 5, None, 4, None, 1),
    ]
    for row in rows:
        db.execute(
            "INSERT INTO t (id, a, s, lo, big, team) VALUES (?, ?, ?, ?, ?, ?)",
            list(row),
        )
    return db


def plan_of(db, sql):
    (statement,) = parse_statements(sql)
    return db.planner.plan(statement)


def ids(result):
    return sorted(row[0] for row in result.rows)


class TestSource:
    def test_select_shows_one_function_per_operator(self, db):
        plan = plan_of(
            db,
            "SELECT t.id, team.name FROM t LEFT JOIN team ON team.id = t.team "
            "WHERE t.a = ? AND t.s IS NOT NULL",
        )
        assert plan.describe() == [
            "t: full scan + 2 filter(s)",
            "team: left hash join on (id), build: right",
            "project 2 column(s)",
        ]
        text = plan.source
        for name in ("def base(", "def join1(", "def project("):
            assert text.count(name) == 1
        # the predicates are inlined, in written order, parameters hoisted;
        # a column is read by its position in the row (t: id, a, s, ...)
        assert text.index("r0[1]") < text.index("r0[2]")
        assert "p0 = parameter(parameters, 0)" in text
        assert "for fn in" not in text

    def test_mutation_shows_its_row_selection(self, db):
        plan = plan_of(db, "UPDATE t SET a = a + 1 WHERE team = 1 AND s = 'alpha'")
        assert plan.describe() == ["t: index probe on team + 1 filter(s)"]
        assert "yield rowid" in plan.source
        assert "alpha" not in plan.source

    @pytest.mark.parametrize(
        "sql, functions",
        [
            ("UPDATE t SET a = a + 1, s = UPPER(s) WHERE team = 1",
             ["assign0", "assign1", "base"]),
            ("SELECT id FROM t WHERE a = 5 ORDER BY s || 'x', lo DESC",
             ["order0", "order1", "base", "project"]),
            ("SELECT team, COUNT(*), MAX(a + 1), lo + 0 FROM t "
             "GROUP BY team, lo + 0 HAVING SUM(a) > 0",
             ["group0", "group1", "plain2", "argument3", "plain4", "plain5",
              "argument6", "plain7", "base"]),
        ],
    )
    def test_a_plan_is_one_unit_compiled_once(self, db, monkeypatch, sql, functions):
        builds = []
        build = Source.build
        monkeypatch.setattr(
            Source, "build", lambda self: builds.append(self) or build(self)
        )
        plan = plan_of(db, sql)
        assert len(builds) == 1
        assert re.findall(r"^def (\w+)\(", plan.source, re.M) == functions
        db.execute(sql)  # and every one of them runs

    def test_traceback_shows_the_generated_line(self, db):
        try:
            db.query("SELECT id FROM t WHERE s IS NOT NULL AND a < 'x'")
        except DatabaseError:
            text = traceback.format_exc()
        else:
            pytest.fail("comparing int with str must fail")
        assert "cannot compare int with str" in text
        assert 'generated-plan-' in text and ", in base" in text
        # the failing conjunct's own line, not a placeholder
        assert "if ((t1 := r0[1]) is not None and" in text

    def test_source_dies_with_its_plan(self, db):
        plan = plan_of(db, "SELECT id FROM t WHERE a = 5")
        loader = weakref.ref(plan._base.__globals__["__loader__"])
        assert loader().get_source("anything") == plan.source
        del plan
        db.planner.invalidate()
        gc.collect()
        assert loader() is None


class TestOrderAndErrors:
    """Conjuncts run in written order and stop at the first that is not
    TRUE; a comparison across types is a DatabaseError, not a TypeError."""

    def test_false_conjunct_hides_the_error_behind_it(self, db):
        assert db.query("SELECT id FROM t WHERE 1 = 2 AND a < 'x'").rows == []
        # FALSE for a = 5, 6 and NULL for a IS NULL: neither goes on
        assert db.query("SELECT id FROM t WHERE a > 100 AND a < 'x'").rows == []

    def test_true_conjunct_does_not(self, db):
        with pytest.raises(DatabaseError, match="cannot compare int with str"):
            db.query("SELECT id FROM t WHERE 1 = 1 AND a < 'x'")
        with pytest.raises(DatabaseError, match="cannot compare int with str"):
            db.execute("DELETE FROM t WHERE id > 0 AND a < 'x'")
        assert db.query("SELECT COUNT(*) FROM t").scalar() == 4

    def test_join_condition_and_post_filter(self, db):
        sql = "SELECT t.id FROM t JOIN team ON team.id = t.team WHERE team.name < "
        assert "post filter" in db.explain(sql + "t.s")[-2]
        assert ids(db.query(sql + "t.s")) == [1, 2]  # 'T1' < 'alpha'
        with pytest.raises(DatabaseError, match="cannot compare str with int"):
            db.query(sql + "t.a")


class TestParameters:
    def test_missing_parameter_is_reported_before_any_row(self, db):
        """Hoisting moved the check in front of the loop: an empty table
        no longer hides a missing parameter."""
        db.execute("CREATE TABLE empty (id INTEGER PRIMARY KEY, a INTEGER)")
        for sql in (
            "SELECT id FROM empty WHERE a = ?",
            "SELECT id FROM t WHERE a = 99 AND s = ?",
            "DELETE FROM empty WHERE a = ?",
        ):
            with pytest.raises(DatabaseError, match="missing bind parameter at index 0"):
                db.execute(sql, [])

    def test_null_parameter_never_equals(self, db):
        assert db.query("SELECT id FROM t WHERE a = ?", [None]).rows == []
        assert db.query("SELECT id FROM t WHERE id = ?", [None]).rows == []
        assert db.query("SELECT id FROM t WHERE team = ?", [None]).rows == []
        assert ids(db.query("SELECT id FROM t WHERE a = ?", [5])) == [1, 4]


class TestExactIntegerEquality:
    """A scan answers ``=`` like the hash index does: exactly."""

    def test_scan_and_index_agree_beyond_2_53(self, db):
        sql = f"SELECT id FROM t WHERE big = {BIG + 1}"
        assert "full scan" in db.explain(sql)[0]
        assert db.query(sql).rows == [(2,)]
        db.execute("CREATE INDEX ix_big ON t (big)")
        assert "index probe" in db.explain(sql)[0]
        assert db.query(sql).rows == [(2,)]

    def test_delete_by_computed_big_integer_deletes_one_row(self, db):
        assert db.execute(f"DELETE FROM t WHERE big + 0 = {BIG + 1}").rowcount == 1
        assert ids(db.query("SELECT id FROM t")) == [1, 3, 4]


class TestNotBetweenOverNullBounds:
    def test_rows_with_a_null_bound_are_returned(self, db):
        # 3 NOT BETWEEN NULL AND 2 is TRUE: 3 <= 2 already says FALSE
        assert ids(db.query("SELECT id FROM t WHERE 3 NOT BETWEEN lo AND 2")) == [
            1, 2, 3, 4,
        ]
        assert ids(db.query("SELECT id FROM t WHERE 0 NOT BETWEEN 1 AND lo")) == [
            1, 2, 3, 4,
        ]

    def test_rows_where_the_other_bound_holds_stay_unknown(self, db):
        assert ids(db.query("SELECT id FROM t WHERE 3 NOT BETWEEN lo AND 5")) == [4]
        assert ids(db.query("SELECT id FROM t WHERE 3 BETWEEN lo AND 5")) == [2]


def test_one_plan_serves_many_threads(db):
    """Generated functions keep their state in locals: six threads run
    the same cached join plan with their own parameters."""
    (statement,) = parse_statements(
        "SELECT t.id, team.name FROM t LEFT JOIN team ON team.id = t.team "
        "WHERE t.id = ? OR t.a = ?"
    )
    expected = {
        (1, 6): [(1, "T1"), (2, "T2")],
        (3, 5): [(1, "T1"), (3, None), (4, "T1")],
        (2, None): [(2, "T2")],
    }
    db.execute(statement, [1, 6])
    built = db.planner.stats["misses"]
    failures = []

    def worker(seed):
        keys = list(expected)
        for n in range(300):
            key = keys[(seed + n) % len(keys)]
            rows = sorted(db.execute(statement, list(key)).rows)
            if rows != expected[key]:
                failures.append((key, rows))
                return

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures[:2]
    assert db.planner.stats["misses"] == built
