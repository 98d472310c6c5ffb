"""Group oracle: what a grouped SELECT answers, row for row.

No workload runs a grouped query, so this file holds GROUP BY, the
aggregates (COUNT(*), COUNT, COUNT(DISTINCT), SUM, AVG, MIN, MAX of
expressions), HAVING and the operators over aggregates to outcomes
recorded from the engine, over two tables with NULLs in every column
(``t``, and ``u`` for the grouped joins), through

* a list of hand-picked statements — arithmetic, ``||``, ``-`` and NOT
  over aggregates, HAVING that is NULL, NULL group keys, empty input
  with and without GROUP BY (where a non-aggregate item answers NULL),
  parameters, joins, DISTINCT / LIMIT / ORDER BY of output columns, and
  the refusals — and
* a seeded stream of generated ones, well typed throughout.

Every statement's outcome is its column names and rows, or its error —
class and message.  Nothing here imports the planner: the expectations
are data (``group_oracle/outcomes.json``).  A difference is a defect,
never a fixture to refresh; ``python tests/rdb/test_group_oracle.py
<file>`` writes what the engine answers now, for reading a difference.
"""

import json
import random
import sys
from pathlib import Path

import pytest

from repro.rdb import Database

FIXTURE = Path(__file__).with_name("group_oracle") / "outcomes.json"

DDL = """
CREATE TABLE u (id INTEGER PRIMARY KEY, name VARCHAR(10));
CREATE TABLE t (
    id INTEGER PRIMARY KEY,
    g INTEGER REFERENCES u(id),
    h VARCHAR(10),
    n INTEGER,
    f FLOAT,
    s VARCHAR(10)
)
"""

U_ROWS = [(1, "one"), (2, "two"), (3, None), (4, "four")]

#: (id, g, h, n, f, s)
T_ROWS = [
    (1, 1, "x", 5, 1.5, "s0"),
    (2, 1, "y", None, 2.25, "s1"),
    (3, 2, "x", 7, None, "s2"),
    (4, None, None, 2, 0.5, None),
    (5, 2, None, -3, 4.0, "s4"),
    (6, 3, "z", None, None, "s5"),
    (7, 1, "x", 5, -1.0, "s6"),
    (8, None, "y", 11, 3.5, "s7"),
    (9, 3, "z", None, None, None),
    (10, 2, "x", 0, 2.0, "s9"),
]

#: (SQL, parameters)
HAND = [
    # each aggregate, over the whole table and per group
    ("SELECT COUNT(*), COUNT(n), COUNT(DISTINCT n), SUM(n), AVG(n), MIN(n), MAX(n) FROM t", ()),
    ("SELECT COUNT(f), SUM(f), AVG(f), MIN(f), MAX(f) FROM t", ()),
    ("SELECT MIN(s), MAX(s), COUNT(s), COUNT(DISTINCT h) FROM t", ()),
    ("SELECT g, COUNT(*), COUNT(n), SUM(n), AVG(n), MIN(n), MAX(n) FROM t GROUP BY g", ()),
    ("SELECT g, COUNT(DISTINCT h), COUNT(DISTINCT n % 2), SUM(DISTINCT n) FROM t GROUP BY g", ()),
    ("SELECT h, SUM(n * 2), MAX(n + f), MIN(s || '!'), AVG(f * 2) FROM t GROUP BY h", ()),
    ("SELECT g, SUM(COALESCE(n, 0)), MAX(UPPER(s)), MIN(LENGTH(s)) FROM t GROUP BY g", ()),
    ("SELECT COUNT(*) FROM t GROUP BY h", ()),
    ("SELECT g, h, COUNT(*) FROM t GROUP BY g, h", ()),
    ("SELECT g + 1, COUNT(*) FROM t GROUP BY g + 1", ()),
    ("SELECT UPPER(h) AS k, COUNT(*) AS c FROM t GROUP BY UPPER(h)", ()),
    ("SELECT n, COUNT(*) FROM t GROUP BY n", ()),
    ("SELECT n % 3, SUM(f) FROM t GROUP BY n % 3", ()),
    ("SELECT COUNT() FROM t", ()),
    ("SELECT COUNT(*) FROM t WHERE g = 1", ()),
    # operators over aggregates
    ("SELECT SUM(n) + COUNT(*), MAX(n) - MIN(n), SUM(n) * 2, SUM(n) / COUNT(n) FROM t", ()),
    ("SELECT g, MAX(s) || '!', -SUM(n), -MIN(f), SUM(n) % 4 FROM t GROUP BY g", ()),
    ("SELECT g, NOT COUNT(*) > 2, NOT MAX(n) = 5, NOT SUM(n) < 0 FROM t GROUP BY g", ()),
    ("SELECT g, COUNT(*) > 2 AND MAX(n) > 6, COUNT(*) = 1 OR MIN(n) < 0 FROM t GROUP BY g", ()),
    ("SELECT g, SUM(n) / 0, COUNT(*) % 0, MAX(f) / 2 FROM t GROUP BY g", ()),
    ("SELECT g, MAX(n) = MIN(n), MAX(n) <> 5, SUM(n) >= 10 FROM t GROUP BY g", ()),
    ("SELECT g, COUNT(*) || '-' || SUM(n) FROM t GROUP BY g", ()),
    ("SELECT g, g * 10 + COUNT(*), g FROM t GROUP BY g", ()),
    # HAVING, NULL included
    ("SELECT g, SUM(n) FROM t GROUP BY g HAVING SUM(n) > 5", ()),
    ("SELECT g, SUM(n) FROM t GROUP BY g HAVING NOT SUM(n) > 5", ()),
    ("SELECT g, SUM(n) FROM t GROUP BY g HAVING SUM(n) > 5 OR COUNT(*) = 2", ()),
    ("SELECT g, SUM(n) FROM t GROUP BY g HAVING SUM(n) > 5 AND COUNT(*) > 1", ()),
    ("SELECT g FROM t GROUP BY g HAVING SUM(n) = NULL", ()),
    ("SELECT g FROM t GROUP BY g HAVING NULL", ()),
    ("SELECT g FROM t GROUP BY g HAVING g > 1", ()),
    ("SELECT g FROM t GROUP BY g HAVING COUNT(*)", ()),
    ("SELECT COUNT(*) FROM t HAVING COUNT(*) > 100", ()),
    ("SELECT COUNT(*) FROM t HAVING COUNT(*) > 1", ()),
    ("SELECT h, MAX(s) FROM t GROUP BY h HAVING MAX(s) > 's4'", ()),
    # parameters
    ("SELECT g, SUM(n + ?) FROM t GROUP BY g HAVING COUNT(*) > ?", (1, 1)),
    ("SELECT g, COUNT(*) FROM t WHERE n > ? GROUP BY g", (0,)),
    ("SELECT g, COUNT(*) FROM t GROUP BY g HAVING SUM(n) > ?", (None,)),
    ("SELECT g, COUNT(*) + ? FROM t GROUP BY g", ()),
    # empty input, with and without GROUP BY
    ("SELECT COUNT(*), COUNT(n), SUM(n), AVG(n), MIN(s), MAX(f) FROM t WHERE id < 0", ()),
    ("SELECT COALESCE(n, 5), n IS NULL, COUNT(*) FROM t WHERE id < 0", ()),
    ("SELECT COUNT(*) + n, 5, -n, NOT n, n + 1, COUNT(*) + 1 FROM t WHERE id < 0", ()),
    ("SELECT g, COUNT(*) FROM t WHERE id < 0 GROUP BY g", ()),
    ("SELECT COUNT(*) FROM t WHERE id < 0 HAVING COUNT(*) = 0", ()),
    ("SELECT COALESCE(n, 5), n IS NULL, COUNT(*) FROM t WHERE id = 2", ()),
    # joins
    ("SELECT u.name, COUNT(*), SUM(t.n) FROM t JOIN u ON u.id = t.g GROUP BY u.name", ()),
    ("SELECT u.id, COUNT(t.id), MAX(t.s) FROM u LEFT JOIN t ON t.g = u.id GROUP BY u.id", ()),
    ("SELECT COUNT(*), COUNT(u.name) FROM t JOIN u ON u.id = t.g", ()),
    # DISTINCT, LIMIT, ORDER BY output columns
    ("SELECT DISTINCT COUNT(*) FROM t GROUP BY g", ()),
    ("SELECT g, COUNT(*) AS c FROM t GROUP BY g ORDER BY c DESC, g", ()),
    ("SELECT g, SUM(n) FROM t GROUP BY g ORDER BY g DESC LIMIT 2 OFFSET 1", ()),
    ("SELECT g AS k, COUNT(*) FROM t GROUP BY g ORDER BY k", ()),
    ("SELECT t.g, COUNT(*) FROM t GROUP BY t.g ORDER BY t.g", ()),
    # refusals
    ("SELECT *, COUNT(*) FROM t", ()),
    ("SELECT * FROM t GROUP BY g", ()),
    ("SELECT id FROM t WHERE COUNT(*) > 1", ()),
    ("SELECT COALESCE(SUM(n), 0) FROM t", ()),
    ("SELECT g FROM t GROUP BY g HAVING MAX(n) IS NULL", ()),
    ("SELECT SUM(n, f) FROM t", ()),
    ("SELECT SUM(COUNT(*)) FROM t", ()),
    ("SELECT g FROM t GROUP BY COUNT(*)", ()),
    ("SELECT nope, COUNT(*) FROM t GROUP BY g", ()),
    ("SELECT g, COUNT(*) FROM t GROUP BY nope", ()),
    ("SELECT SUM(nope) FROM t", ()),
    ("SELECT NOPE(n), COUNT(*) FROM t", ()),
    ("SELECT g, COUNT(*) FROM t GROUP BY g HAVING SUM(n) > ?", ()),
    # types the aggregates and their operators refuse
    ("SELECT g, SUM(s) FROM t GROUP BY g", ()),
    ("SELECT AVG(s) FROM t", ()),
    ("SELECT SUM(h) FROM t WHERE h IS NOT NULL", ()),
    ("SELECT MIN(COALESCE(n, s)) FROM t", ()),
    ("SELECT MAX(COALESCE(s, n)) FROM t", ()),
    ("SELECT g, MIN(s) + 1 FROM t GROUP BY g", ()),
    ("SELECT g, MAX(n) < 's' FROM t GROUP BY g", ()),
    ("SELECT s + 0 FROM t", ()),
    ("SELECT g, SUM(s) FROM t GROUP BY g HAVING COUNT(*) > 100", ()),
    ("SELECT g, SUM(s + 0) FROM t GROUP BY g HAVING COUNT(*) > 100", ()),
    ("SELECT g, SUM(s + 0) FROM t GROUP BY g HAVING COUNT(*) > 1", ()),
    # AND / OR over aggregates: where WHERE would stop
    ("SELECT g FROM t GROUP BY g HAVING COUNT(*) > 100 AND MIN(s) < 1", ()),
    ("SELECT g FROM t GROUP BY g HAVING COUNT(*) > 0 OR MIN(s) < 1", ()),
    ("SELECT g, COUNT(*) > 100 AND MIN(s) < 1 FROM t GROUP BY g", ()),
    ("SELECT g, COUNT(*) > 0 OR MIN(s) < 1 FROM t GROUP BY g", ()),
    # ORDER BY what is not an output column
    ("SELECT g, COUNT(*) FROM t GROUP BY g ORDER BY COUNT(*) DESC", ()),
    ("SELECT COUNT(*) FROM t GROUP BY g ORDER BY g", ()),
    ("SELECT g, COUNT(*) FROM t GROUP BY g ORDER BY g + 0 DESC", ()),
]


def generated(seed, count):
    """A seeded stream of grouped SELECTs, well typed: SUM and AVG read
    numbers, MIN and MAX one class, HAVING compares like with like."""
    rng = random.Random(seed)
    keys = ["g", "h", "n", "g + 1", "UPPER(h)", "n % 3", "h || 'k'"]
    numeric = ["n", "f", "n * 2", "n + f", "COALESCE(n, 0)", "n % 3", "g", "-n", "ABS(n)"]
    text = ["s", "h", "s || 'x'", "LOWER(s)", "COALESCE(h, s)"]

    def aggregate():
        roll = rng.random()
        if roll < 0.15:
            return "COUNT(*)", "number"
        name = rng.choice(["COUNT", "SUM", "AVG", "MIN", "MAX"])
        distinct = "DISTINCT " if rng.random() < 0.2 else ""
        if name in ("SUM", "AVG"):
            return f"{name}({distinct}{rng.choice(numeric)})", "number"
        argument = rng.choice(numeric + text)
        kind = "text" if argument in text and name != "COUNT" else "number"
        return f"{name}({distinct}{argument})", kind

    def over(expression, kind):
        """An operator over an aggregate, now and then."""
        roll = rng.random()
        if kind == "text":
            return f"{expression} || '.'" if roll < 0.3 else expression
        if roll < 0.15:
            return f"{expression} + {rng.randint(-2, 3)}"
        if roll < 0.25:
            return f"-{expression}"
        if roll < 0.35:
            other, other_kind = aggregate()
            if other_kind == "number":
                return f"{expression} {rng.choice(['+', '-', '*'])} {other}"
        return expression

    def condition(parameters):
        expression, kind = aggregate()
        if kind == "text":
            bound = "'" + rng.choice(["s3", "x", "z", "s"]) + "'"
        elif rng.random() < 0.3:
            parameters.append(rng.choice([None, 1, 2, 5, 0.5]))
            bound = "?"
        else:
            bound = str(rng.randint(-3, 12))
        test = f"{expression} {rng.choice(['=', '<>', '<', '<=', '>', '>='])} {bound}"
        return f"NOT {test}" if rng.random() < 0.15 else test

    statements = []
    for _ in range(count):
        parameters = []
        group = rng.sample(keys, rng.choice([0, 1, 1, 1, 2]))
        items = list(group)
        for _ in range(rng.randint(1, 3)):
            items.append(over(*aggregate()))
        sql = f"SELECT {', '.join(items)} FROM t"
        if rng.random() < 0.3:
            sql += f" WHERE {rng.choice(['n > 0', 'g IS NOT NULL', 'h = ?', 'id < 0', 'f < 3'])}"
            if sql.endswith("?"):
                parameters.append(rng.choice(["x", "y", None]))
        if group:
            sql += f" GROUP BY {', '.join(group)}"
        if rng.random() < 0.4:
            having = condition(parameters)
            if rng.random() < 0.3:
                having += f" {rng.choice(['AND', 'OR'])} {condition(parameters)}"
            sql += f" HAVING {having}"
        statements.append((sql, tuple(parameters)))
    return statements


STREAM = generated(seed=39, count=300)


def outcome(db, sql, parameters):
    """A statement's columns and rows, or its error as data (a bare
    Python error included: the record shows where one escaped)."""
    try:
        result = db.query(sql, list(parameters))
    except Exception as error:  # noqa: BLE001 - recorded, not handled
        return [type(error).__name__, str(error)]
    return ["ok", list(result.columns), [list(row) for row in result.rows]]


def database():
    db = Database()
    db.execute_script(DDL)
    for row in U_ROWS:
        db.execute("INSERT INTO u (id, name) VALUES (?, ?)", list(row))
    for row in T_ROWS:
        db.execute("INSERT INTO t (id, g, h, n, f, s) VALUES (?, ?, ?, ?, ?, ?)", list(row))
    return db


def answers():
    """What the engine answers now, as the fixture holds it."""
    db = database()
    return {
        name: [outcome(db, sql, parameters) for sql, parameters in statements]
        for name, statements in (("hand", HAND), ("stream", STREAM))
    }


@pytest.fixture(scope="module")
def expected():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def db():
    return database()


@pytest.mark.parametrize("name, statements", [("hand", HAND), ("stream", STREAM)])
def test_outcomes_match_the_record(expected, db, name, statements):
    recorded = expected[name]
    assert len(recorded) == len(statements)
    for (sql, parameters), want in zip(statements, recorded):
        assert outcome(db, sql, parameters) == want, (sql, parameters)


def test_the_record_is_not_vacuous(expected):
    """Most generated statements answer rows, some of them several groups,
    some none; the hand list refuses some statements."""
    answered = [o for o in expected["stream"] if o[0] == "ok"]
    assert len(answered) > 250
    assert any(len(o[2]) > 3 for o in answered)
    assert any(not o[2] for o in answered)
    assert any(o[0] == "DatabaseError" for o in expected["hand"])


if __name__ == "__main__":
    Path(sys.argv[1]).write_text(json.dumps(answers(), indent=1) + "\n", encoding="utf-8")
