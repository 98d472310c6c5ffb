"""Plan stability: the plan the planner picks for a fixed set of
statements over fixed data, as read from ``Database.explain``.

The end-to-end benchmark sends no INNER/LEFT join, no reordered
pipeline and no range/prefix/ordered access, so a change to the join
planner or to the access-path cost rules is invisible to it.  This file
is the guard for exactly that: it pins, per statement, the join order,
the base access kind and index, and every step's strategy and hash build
side.  ``test_differential.py`` proves a plan *right*; this proves it
*unchanged*.

The expected strings are the ``explain`` lines minus the projection and
sort lines (``PLANS`` below; regenerate with
``PYTHONPATH=src python tests/rdb/test_plan_stability.py``).  A diff here
is not necessarily a bug — but it is a changed plan and has to be
explained in the change that causes it.

Plans that gained an ORDER BY / LIMIT stage when translated queries
began pushing their solution modifiers into SQL: none.  Every statement
pinned here is SQL text, never a translation; the translated shapes'
ORDER BY / LIMIT are held by ``tests/core/test_answer_shapes.py``.
"""

import dataclasses

import pytest

from repro.rdb import Database
from repro.rdb.expressions import ScopeLayout
from repro.sql import ast
from repro.sql.parser import parse_expression, parse_statements
from repro.workloads.publication import PUBLICATION_DDL

#: Rows per table.  Chosen so that the estimates of the statements below
#: land on both sides of each other (equal, smaller-left, smaller-right)
#: and so that ``rows // 3`` and ``rows // 4`` of one table straddle the
#: size of another.
TEAMS, PUBTYPES, PUBLISHERS, AUTHORS, PUBLICATIONS, LINKS = 7, 3, 10, 24, 36, 48


def make_db() -> Database:
    """The paper's publication schema plus ordered indexes, populated
    deterministically."""
    db = Database()
    db.execute_script(PUBLICATION_DDL)
    statements = []
    for i in range(1, TEAMS + 1):
        statements.append(
            f"INSERT INTO team (id, name, code) VALUES ({i}, 'Team {i}', 'T{i}')"
        )
    for i in range(1, PUBTYPES + 1):
        statements.append(f"INSERT INTO pubtype (id, type) VALUES ({i}, 'type{i}')")
    for i in range(1, PUBLISHERS + 1):
        statements.append(
            f"INSERT INTO publisher (id, name) VALUES ({i}, 'Publisher {i}')"
        )
    for i in range(1, AUTHORS + 1):
        statements.append(
            "INSERT INTO author (id, title, email, firstname, lastname, team) "
            f"VALUES ({i}, 'Dr', 'a{i}@example.org', 'First{i}', "
            f"'{'ABCDEF'[i % 6]}name{i}', {1 + i % TEAMS})"
        )
    for i in range(1, PUBLICATIONS + 1):
        statements.append(
            "INSERT INTO publication (id, title, year, type, publisher) "
            f"VALUES ({i}, 'Title {i}', {2000 + i % 12}, {1 + i % PUBTYPES}, "
            f"{1 + i % PUBLISHERS})"
        )
    for i in range(1, LINKS + 1):
        statements.append(
            "INSERT INTO publication_author (publication, author) "
            f"VALUES ({1 + i % PUBLICATIONS}, {1 + (i * 5) % AUTHORS})"
        )
    db.execute_script(";\n".join(statements))
    db.execute_script(
        """
        CREATE INDEX idx_publication_year ON publication (year);
        CREATE INDEX idx_author_lastname ON author (lastname);
        CREATE UNIQUE INDEX idx_team_code ON team (code);
        CREATE INDEX idx_publication_type_publisher ON publication (type, publisher)
        """
    )
    return db


def plan_of(db: Database, sql: str) -> str:
    """The explain lines that describe data access, on one line."""
    return " | ".join(
        line
        for line in db.explain(sql)
        if "ordered index (no sort)" in line
        or not line.startswith(("project ", "group + ", "order by "))
    )


PUB_TYPE = "publication p JOIN pubtype pt ON pt.id = p.type"
PUB_PUBLISHER = "publication p JOIN publisher pb ON pb.id = p.publisher"
LINK_STAR = (
    "publication_author pa JOIN publication p ON p.id = pa.publication "
    "JOIN author a ON a.id = pa.author"
)

#: statement -> plan.
PLANS = {
    # -- every base access kind ------------------------------------------
    "SELECT * FROM author WHERE id = 3": "author: point lookup via primary key (id)",
    "SELECT lastname FROM author WHERE id = 3 AND team = 2": (
        "author: point lookup via primary key (id) + 1 filter(s)"
    ),
    "SELECT name FROM team WHERE code = 'T2'": (
        "team: point lookup via unique index (code)"
    ),
    "SELECT lastname FROM author WHERE team = 2": "author: index probe on team",
    "SELECT title FROM publication WHERE year = 2004": (
        "publication: index probe on year"
    ),
    "SELECT title FROM publication WHERE year = 2004 AND type = 1": (
        "publication: index probe on year + 1 filter(s)"
    ),
    # a declared two-column index: cheaper than either column's own
    "SELECT title FROM publication WHERE publisher = 3 AND type = 1": (
        "publication: index probe on type, publisher"
    ),
    "SELECT title FROM publication WHERE year BETWEEN 2003 AND 2005": (
        "publication: range scan on year [lo..hi] via ordered index"
    ),
    "SELECT title FROM publication WHERE year > 2005 AND year <= 2009": (
        "publication: range scan on year (lo..hi] via ordered index"
    ),
    "SELECT title FROM publication WHERE year > 2005": (
        "publication: range scan on year (lo..hi) via ordered index"
    ),
    "SELECT title FROM publication WHERE type = 2 AND year BETWEEN 2001 AND 2008": (
        "publication: range scan on year [lo..hi] via ordered index + 1 filter(s)"
    ),
    "SELECT lastname FROM author WHERE lastname LIKE 'Ab%'": (
        "author: prefix scan on lastname (LIKE 'Ab'...) via ordered index"
    ),
    "SELECT title FROM publication WHERE year LIKE '20%'": (
        "publication: full scan + 1 filter(s)"
    ),
    "SELECT title FROM publication ORDER BY year": (
        "publication: index-ordered scan on year asc | "
        "order by via ordered index (no sort)"
    ),
    "SELECT title FROM publication ORDER BY year DESC LIMIT 3": (
        "publication: index-ordered scan on year desc | "
        "order by via ordered index (no sort), stop after 3"
    ),
    "SELECT title FROM publication WHERE year >= 2003 ORDER BY year DESC": (
        "publication: range scan desc on year [lo..hi) via ordered index | "
        "order by via ordered index (no sort)"
    ),
    "SELECT title FROM publication WHERE type = 1 ORDER BY year": (
        "publication: index probe on type"
    ),
    "SELECT firstname FROM author WHERE firstname = 'First3'": (
        "author: full scan + 1 filter(s)"
    ),
    "SELECT team, COUNT(*) FROM author GROUP BY team": "author: full scan",
    "SELECT 1 + 1": "no FROM clause: single empty scope",
    "UPDATE author SET title = 'Prof' WHERE id = 5": (
        "author: point lookup via primary key (id)"
    ),
    "UPDATE publication SET title = 'old' WHERE year < 2002": (
        "publication: range scan on year (lo..hi) via ordered index"
    ),
    "DELETE FROM publication_author WHERE author = 3": (
        "publication_author: index probe on author"
    ),
    "DELETE FROM publisher WHERE name = 'nobody'": "publisher: full scan + 1 filter(s)",
    # -- all-INNER pipelines: order and build side come from estimates ----
    # smaller right input as written, smaller left, equal
    "SELECT a.lastname, t.name FROM author a JOIN team t ON t.id = a.team": (
        "join order: t -> a (stats-driven reorder) | "
        "team: full scan | "
        "author AS a: inner hash join on (team), build: left"
    ),
    "SELECT a.lastname, t.name FROM team t JOIN author a ON a.team = t.id": (
        "team: full scan | "
        "author AS a: inner hash join on (team), build: left"
    ),
    "SELECT pt.type FROM pubtype pt JOIN pubtype other ON other.id = pt.id": (
        "pubtype: full scan | "
        "pubtype AS other: inner hash join on (id), build: right"
    ),
    "SELECT a.lastname, t.name FROM author a JOIN team t ON t.id = a.team "
    "WHERE a.id = 7": (
        "author: point lookup via primary key (id) | "
        "team AS t: inner hash join on (id), build: left"
    ),
    "SELECT a.lastname, t.name FROM author a JOIN team t ON t.id = a.team "
    "WHERE t.code = 'T3' AND a.firstname <> 'x'": (
        "join order: t -> a (stats-driven reorder) | "
        "team: point lookup via unique index (code) | "
        "author AS a: inner hash join on (team), build: left, "
        "1 filter(s) pushed into build"
    ),
    "SELECT a.lastname FROM author a JOIN team t ON t.id = a.team "
    "AND t.name <> a.lastname": (
        "join order: t -> a (stats-driven reorder) | "
        "team: full scan | "
        "author AS a: inner hash join on (team), build: left + 1 post filter(s)"
    ),
    "SELECT a.lastname, t.name FROM author a JOIN team t ON t.id < a.team": (
        "join order: t -> a (stats-driven reorder) | "
        "team: full scan | "
        "author AS a: cross product + 1 post filter(s)"
    ),
    f"SELECT p.title, a.lastname FROM {LINK_STAR}": (
        "join order: a -> pa -> p (stats-driven reorder) | "
        "author: full scan | "
        "publication_author AS pa: inner hash join on (author), build: left | "
        "publication AS p: inner hash join on (id), build: left"
    ),
    f"SELECT p.title, a.lastname FROM {LINK_STAR} WHERE a.id = 4": (
        "join order: a -> pa -> p (stats-driven reorder) | "
        "author: point lookup via primary key (id) | "
        "publication_author AS pa: inner hash join on (author), build: left | "
        "publication AS p: inner hash join on (id), build: left"
    ),
    f"SELECT p.title, t.name FROM {LINK_STAR} JOIN team t ON t.id = a.team "
    "WHERE p.year = 2003": (
        "join order: p -> pa -> a -> t (stats-driven reorder) | "
        "publication: index probe on year | "
        "publication_author AS pa: inner hash join on (publication), build: left | "
        "author AS a: inner hash join on (id), build: left | "
        "team AS t: inner hash join on (id), build: left"
    ),
    f"SELECT p.title, t.name FROM {LINK_STAR} JOIN team t ON t.id = a.team "
    "WHERE t.code = 'T1' AND p.type = 2": (
        "join order: t -> a -> pa -> p (stats-driven reorder) | "
        "team: point lookup via unique index (code) | "
        "author AS a: inner hash join on (team), build: left | "
        "publication_author AS pa: inner hash join on (author), build: left | "
        "publication AS p: inner hash join on (id), build: left, "
        "1 filter(s) pushed into build"
    ),
    # one-sided range: both cost copies said rows // 3
    f"SELECT p.title FROM {PUB_PUBLISHER} WHERE p.year > 2006": (
        "join order: pb -> p (stats-driven reorder) | "
        "publisher: full scan | "
        "publication AS p: inner hash join on (publisher), build: left, "
        "1 filter(s) pushed into build"
    ),
    # Both-bounded range, prefix, and LIKE on a non-string column inside an
    # all-INNER join.  Until ISSUE 16 join ordering had its own copy of the
    # cost rules, which said rows // 3 for all three; these plans are what
    # the access-path chooser's rules give (rows // 4, rows // 4, and no
    # index path at all: LIKE on an INTEGER column cannot use the index).
    f"SELECT p.title FROM {PUB_PUBLISHER} WHERE p.year BETWEEN 2002 AND 2004": (
        "publication: range scan on year [lo..hi] via ordered index | "
        "publisher AS pb: inner hash join on (id), build: left"
    ),
    "SELECT a.lastname, t.name FROM author a JOIN team t ON t.id = a.team "
    "WHERE a.lastname LIKE 'A%'": (
        "author: prefix scan on lastname (LIKE 'A'...) via ordered index | "
        "team AS t: inner hash join on (id), build: left"
    ),
    "SELECT p.title FROM publication p JOIN author a ON a.id = p.id "
    "WHERE p.year LIKE '20%'": (
        "join order: a -> p (stats-driven reorder) | "
        "author: full scan | "
        "publication AS p: inner hash join on (id), build: left, "
        "1 filter(s) pushed into build"
    ),
    # ORDER BY on the first pipeline table: declined after a left build,
    # taken through a right-build join
    "SELECT t.code, a.lastname FROM author a JOIN team t ON t.id = a.team "
    "ORDER BY t.code": (
        "join order: t -> a (stats-driven reorder) | "
        "team: full scan | "
        "author AS a: inner hash join on (team), build: left"
    ),
    "SELECT p.title, pb.name FROM publication p "
    "LEFT JOIN publisher pb ON pb.id = p.publisher ORDER BY p.year": (
        "publication: index-ordered scan on year asc | "
        "publisher AS pb: left hash join on (id), build: right | "
        "order by via ordered index (no sort)"
    ),
    # -- LEFT / CROSS / mixed pipelines keep the written order -------------
    "SELECT a.lastname, t.name FROM author a LEFT JOIN team t ON t.id = a.team": (
        "author: full scan | "
        "team AS t: left hash join on (id), build: right"
    ),
    "SELECT t.name, a.lastname FROM team t LEFT JOIN author a ON a.team = t.id "
    "WHERE t.id = 1": (
        "team: point lookup via primary key (id) | "
        "author AS a: left hash join on (team), build: right"
    ),
    "SELECT a.lastname FROM author a LEFT JOIN team t ON t.id = a.team "
    "WHERE t.name = 'Team 2' AND a.team = 2": (
        "author: index probe on team | "
        "team AS t: left hash join on (id), build: right + 1 post filter(s)"
    ),
    "SELECT a.lastname FROM author a LEFT JOIN team t ON t.id = a.team "
    "AND t.code <> 'T1'": (
        "author: full scan | "
        "team AS t: left hash join on (id), build: right"
    ),
    "SELECT a.lastname, t.name FROM author a LEFT JOIN team t ON t.id < a.team": (
        "author: full scan | "
        "team AS t: left nested-loop join"
    ),
    "SELECT a.lastname, t.name FROM author a CROSS JOIN team t "
    "WHERE a.id = 1 AND t.id = 2": (
        "author: point lookup via primary key (id) | "
        "team AS t: cross product, 1 filter(s) pushed down"
    ),
    "SELECT a.lastname, t.name FROM author a CROSS JOIN team t "
    "WHERE t.id = a.team AND a.team = 3": (
        "author: index probe on team | "
        "team AS t: cross product + 1 post filter(s)"
    ),
    f"SELECT p.title, pt.type, pb.name FROM {PUB_TYPE} "
    "LEFT JOIN publisher pb ON pb.id = p.publisher WHERE pt.type = 'type2'": (
        "publication: full scan | "
        "pubtype AS pt: inner hash join on (id), build: right, "
        "1 filter(s) pushed into build | "
        "publisher AS pb: left hash join on (id), build: right"
    ),
    "SELECT a.lastname, t.name, pa.publication FROM author a "
    "LEFT JOIN team t ON t.id = a.team "
    "JOIN publication_author pa ON pa.author = a.id WHERE a.id = 9": (
        "author: point lookup via primary key (id) | "
        "team AS t: left hash join on (id), build: right | "
        "publication_author AS pa: inner hash join on (author), build: right"
    ),
    f"SELECT p.title, pt.type, pb.name, t.name FROM {PUB_TYPE} "
    "LEFT JOIN publisher pb ON pb.id = p.publisher CROSS JOIN team t "
    "WHERE t.id = 2 AND p.year BETWEEN 2001 AND 2003": (
        "publication: range scan on year [lo..hi] via ordered index | "
        "pubtype AS pt: inner hash join on (id), build: right | "
        "publisher AS pb: left hash join on (id), build: right | "
        "team AS t: cross product, 1 filter(s) pushed down"
    ),
}


@pytest.fixture(scope="module")
def db():
    return make_db()


@pytest.mark.parametrize("sql", list(PLANS))
def test_plan_is_unchanged(db, sql):
    assert plan_of(db, sql) == PLANS[sql]


WITH_LINKS = " LEFT JOIN publication_author pa ON pa.author = a.id"
AUTHOR_TEAM_LINKS = (
    "author a LEFT JOIN team t ON t.id = a.team "
    "JOIN publication_author pa ON pa.author = a.id"
)

#: INNER joins inside a pipeline that is not all-INNER (written order is
#: kept).  Until ISSUE 16 such a join classified its conjuncts by where
#: they were written — ON: equi keys or per-pair residual, WHERE: build
#: filter or post filter, no ON key: nested loop — while an all-INNER
#: pipeline pooled them.  There is one rule now (the pool), so these plans
#: changed on purpose, each to one with more pushed down; the old lines
#: are in CHANGES.md (PR 16).  The random generator of
#: ``test_differential.py`` writes only equi ON conjuncts, so these shapes
#: are also compared with the forced-scan oracle here.
POOLED_INNER_PLANS = {
    # single-table ON conjunct: filters the hash build side
    "SELECT a.lastname FROM author a JOIN team t ON t.id = a.team "
    f"AND t.name <> 'x'{WITH_LINKS}": (
        "author: full scan | "
        "team AS t: inner hash join on (id), build: right, "
        "1 filter(s) pushed into build | "
        "publication_author AS pa: left hash join on (author), build: right"
    ),
    # multi-table non-equi ON conjunct: post filter
    "SELECT a.lastname FROM author a JOIN team t ON t.id = a.team "
    f"AND t.name <> a.lastname{WITH_LINKS}": (
        "author: full scan | "
        "team AS t: inner hash join on (id), build: right + 1 post filter(s) | "
        "publication_author AS pa: left hash join on (author), build: right"
    ),
    # equi conjunct written in WHERE: one more hash key
    f"SELECT a.lastname FROM author a JOIN team t ON t.id = a.team{WITH_LINKS} "
    "WHERE t.id = a.id % 7 + 1": (
        "author: full scan | "
        "team AS t: inner hash join on (id, id), build: right | "
        "publication_author AS pa: left hash join on (author), build: right"
    ),
    # the only equi conjunct is in WHERE: hash join instead of nested loop
    f"SELECT a.lastname FROM author a JOIN team t ON t.name = 'Team 2'{WITH_LINKS} "
    "WHERE t.id = a.team": (
        "author: full scan | "
        "team AS t: inner hash join on (id), build: right, "
        "1 filter(s) pushed into build | "
        "publication_author AS pa: left hash join on (author), build: right"
    ),
    # no equi conjunct at all: filtered cross product (was a nested loop)
    f"SELECT a.lastname FROM author a JOIN team t ON t.id < a.team{WITH_LINKS}": (
        "author: full scan | "
        "team AS t: cross product + 1 post filter(s) | "
        "publication_author AS pa: left hash join on (author), build: right"
    ),
    # ON conjunct over an earlier table only: runs there (an index key)
    "SELECT a.lastname FROM author a JOIN team t ON a.id = 4 "
    f"AND t.id = a.team{WITH_LINKS}": (
        "author: point lookup via primary key (id) | "
        "team AS t: inner hash join on (id), build: right | "
        "publication_author AS pa: left hash join on (author), build: right"
    ),
    # ON conjuncts of an INNER join over the right table of an earlier LEFT
    # join: they run at that LEFT join, after its null extension
    f"SELECT a.id, pa.publication FROM {AUTHOR_TEAM_LINKS} AND t.id IS NULL": (
        "author: full scan | "
        "team AS t: left hash join on (id), build: right + 1 post filter(s) | "
        "publication_author AS pa: inner hash join on (author), build: right"
    ),
    f"SELECT a.id, pa.publication FROM {AUTHOR_TEAM_LINKS} "
    "AND t.name = 'Team 2' AND pa.publication > a.id": (
        "author: full scan | "
        "team AS t: left hash join on (id), build: right + 1 post filter(s) | "
        "publication_author AS pa: inner hash join on (author), build: right "
        "+ 1 post filter(s)"
    ),
}


def _with_teamless_authors(db: Database) -> Database:
    """NULL foreign keys, so the LEFT joins above null-extend some rows
    (row counts, and with them every estimate, stay as they are)."""
    db.execute("UPDATE author SET team = NULL WHERE id = 3 OR id = 11 OR id = 20")
    return db


@pytest.fixture(scope="module")
def planned_and_oracle():
    oracle = make_db()
    oracle.planner.force_scan = True
    return _with_teamless_authors(make_db()), _with_teamless_authors(oracle)


@pytest.mark.parametrize("sql", list(POOLED_INNER_PLANS))
def test_pooled_inner_join_in_a_written_order_pipeline(planned_and_oracle, sql):
    planned, oracle = planned_and_oracle
    assert plan_of(planned, sql) == POOLED_INNER_PLANS[sql]
    rows = planned.query(sql).rows
    assert sorted(map(repr, rows)) == sorted(map(repr, oracle.query(sql).rows))
    assert rows  # every statement here selects something


#: (slot, conjunct, match) over the bindings a, b, c (slots 0, 1, 2), each
#: with columns id, x, y.  ``match`` is what the equi-key matcher returns:
#: (the slot's column, the other side), or None.  Slot 0 rows are what the
#: old index-key matcher (``_column_eq_const``) accepted, slot 1 and 2 rows
#: what the old hash-key matcher (``_column_eq_const_or_prior``) accepted;
#: the surviving matcher answers both.
EQUI_KEY_CASES = [
    (0, "a.id = 3", ("id", "3")),
    (0, "3 = a.id", ("id", "3")),
    (0, "a.id = ?", ("id", "?")),
    (0, "a.id = 1 + 2", ("id", "1 + 2")),
    (0, "a.id = a.x", None),  # other side reads the slot itself
    (0, "a.id = b.x", None),  # other side reads a later slot
    (0, "a.id < 3", None),
    (0, "a.id + 1 = 3", None),  # not a bare column
    (0, "b.id = 3", None),  # another slot's column
    (1, "b.id = 3", ("id", "3")),
    (1, "b.x = a.y", ("x", "a.y")),
    (1, "a.y = b.x", ("x", "a.y")),
    (1, "b.x = a.y + 1", ("x", "a.y + 1")),
    (1, "b.x = b.y", None),
    (1, "b.x = c.y", None),
    (1, "a.x = 3", None),
    (2, "c.x = a.y + b.y", ("x", "a.y + b.y")),
    (2, "c.x = b.y", ("x", "b.y")),
    (2, "c.x = c.y + a.x", None),
    (2, "c.x <> a.y", None),
]


@pytest.mark.parametrize("slot, text, expected", EQUI_KEY_CASES)
def test_one_equi_key_matcher_serves_index_keys_and_hash_keys(slot, text, expected):
    # imported here so that PLANS can still be run against a commit where
    # the matcher has another name
    from repro.rdb.planner import _column_eq_prior
    from repro.sql.render import render_expression

    layout = ScopeLayout((name, ("id", "x", "y")) for name in "abc")
    match = _column_eq_prior(parse_expression(text), slot, layout)
    if match is not None:
        match = (match[0], render_expression(match[1]))
    assert match == expected


def lift_literals(sql: str) -> ast.Bound:
    """The statement as the mediator would send it: every literal lifted
    into the value vector, a parameter in its place.

    A ``LIKE`` pattern stays a literal — it is part of the shape: the
    planner reads it to decide whether a prefix scan applies (and which
    prefix), so a parameter there could only ever be a filter.
    """
    values = []

    def lift(node):
        if isinstance(node, ast.Literal):
            values.append(node.value)
            return ast.Parameter(len(values) - 1)
        if isinstance(node, ast.Like):
            return dataclasses.replace(node, operand=lift(node.operand))
        if isinstance(node, tuple):
            return tuple(lift(item) for item in node)
        if dataclasses.is_dataclass(node):
            return dataclasses.replace(
                node,
                **{
                    f.name: lift(getattr(node, f.name))
                    for f in dataclasses.fields(node)
                },
            )
        return node

    (statement,) = parse_statements(sql)
    return ast.Bound(lift(statement), tuple(values))


@pytest.mark.parametrize("sql", [*PLANS, *POOLED_INNER_PLANS])
def test_plan_belongs_to_the_shape_not_to_the_values(db, sql):
    """One plan serves every binding of a statement shape, so lifting the
    literals to parameters must not change a single plan line."""
    bound = lift_literals(sql)
    assert db.explain(bound) == db.explain(sql)
    assert db.explain(bound.shape) == db.explain(sql)


def test_a_shape_planned_on_an_empty_table_stays_right_as_it_fills():
    """A shape is costed once per generation, from whatever the tables
    held at its first execution.  That estimate may go stale (here: the
    join order and build sides chosen for two empty tables); the answers
    may not."""
    planned, oracle = Database(), Database()
    oracle.planner.force_scan = True
    for db in (planned, oracle):
        db.execute_script(PUBLICATION_DDL)
    shapes = [
        lift_literals(
            "SELECT a.lastname, t.name FROM author a JOIN team t "
            "ON t.id = a.team WHERE a.id > 990 AND t.code <> 'T3'"
        ),
        lift_literals("SELECT lastname FROM author WHERE team = 4 AND id < 40"),
        lift_literals("UPDATE author SET title = 'Prof' WHERE team = 2 AND id > 900"),
    ]
    for shape in shapes:  # planned now, on empty tables
        assert planned.execute(shape).rowcount == 0
    before = dict(planned.planner.stats)
    for db in (planned, oracle):
        rows = [f"INSERT INTO team (id, name, code) VALUES ({i}, 'Team {i}', 'T{i}')"
                for i in range(1, 8)]
        rows += [
            "INSERT INTO author (id, firstname, lastname, team) "
            f"VALUES ({i}, 'F{i}', 'L{i}', {1 + i % 7})"
            for i in range(1, 1001)
        ]
        db.execute_script(";\n".join(rows))
    for shape in shapes:
        got, expected = planned.execute(shape), oracle.execute(shape)
        assert got.rowcount == expected.rowcount > 0
        assert sorted(got.rows) == sorted(expected.rows)
    stats = planned.planner.stats
    # the stale plans were reused; the filling built one plan per INSERT
    # shape (team, author) and reused it for each of its other rows
    inserts = len(rows)
    assert stats["misses"] == before["misses"] + 2
    assert stats["hits"] == before["hits"] + (inserts - 2) + len(shapes)


if __name__ == "__main__":
    scratch = _with_teamless_authors(make_db())
    for statement in [*PLANS, *POOLED_INNER_PLANS]:
        print(f"{statement!r}:\n    {plan_of(scratch, statement)!r},")
