"""DML oracle: what INSERT, UPDATE and DELETE answer, byte for byte.

The engine writes rows through code generated per statement shape
(:mod:`repro.rdb.planner`).  This file holds that code to outcomes
recorded from the engine before it had any: a parent table and a child
with foreign keys (one to the primary key, one to a UNIQUE column), a
CHECK, a DEFAULT, an AUTOINCREMENT and VARCHAR(n) columns (and a table
whose DEFAULT its column's type refuses), written by

* a script of hand-picked statements — mistyped values (str, float and
  bool into INTEGER, an over-length string), multi-row VALUES, NULLs,
  an UPDATE of a referenced key, a DELETE of a referenced row, explicit
  transactions — and
* a seeded stream of generated ones,

each run under IMMEDIATE and under DEFERRED constraint checking.  Every
statement's outcome is its row count or its error — class, message,
``constraint``, ``table`` and ``column`` — and the tables' contents are
compared after the script and after the stream.  Nothing here imports
the planner: the expectations are data (``dml_oracle/outcomes.json``).
A difference is a defect, never a fixture to refresh;
``python tests/rdb/test_dml_oracle.py <file>`` writes what the engine
answers now, for reading a difference.

Two counting tests close the file: literal INSERTs share one plan per
(table, column list), and a VALUES cell that is an expression is
compiled once per shape, not once per execution.
"""

import json
import random
import sys
from pathlib import Path

import pytest

from repro.errors import DatabaseError
from repro.rdb import Database
from repro.rdb.expressions import Source
from repro.sql import ast

FIXTURE = Path(__file__).with_name("dml_oracle") / "outcomes.json"

DDL = """
CREATE TABLE parent (
    id INTEGER PRIMARY KEY,
    code VARCHAR(4) NOT NULL UNIQUE,
    score INTEGER DEFAULT 10 CHECK (score >= 0)
);
CREATE TABLE child (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    parent INTEGER REFERENCES parent(id),
    label VARCHAR(6) DEFAULT 'none',
    qty INTEGER NOT NULL CHECK (qty < 100),
    code VARCHAR(4) REFERENCES parent(code)
);
CREATE TABLE odd (
    id INTEGER PRIMARY KEY,
    n INTEGER DEFAULT 'abc'
)
"""

#: (SQL, parameters); BEGIN / COMMIT / ROLLBACK open and end explicit
#: transactions, where DEFERRED checks wait for the COMMIT.
SCRIPT = [
    ("INSERT INTO parent (id, code) VALUES (1, 'a'), (2, 'bb'), (3, 'ccc')", ()),
    ("INSERT INTO parent VALUES (4, 'dddd', 5)", ()),
    ("INSERT INTO parent (id, code) VALUES (5, 'eeeee')", ()),
    ("INSERT INTO parent (id, code) VALUES ('six', 'f')", ()),
    ("INSERT INTO parent (id, code) VALUES (' 6 ', 'f')", ()),
    ("INSERT INTO parent (id, code) VALUES (7.5, 'g')", ()),
    ("INSERT INTO parent (id, code) VALUES (7.0, 'g')", ()),
    ("INSERT INTO parent (id, code, score) VALUES (8, 'h', TRUE)", ()),
    ("INSERT INTO parent (id, code, score) VALUES (?, ?, ?)", (9, "i", False)),
    ("INSERT INTO parent (id, code, score) VALUES (?, ?, ?)", (True, "j", 1)),
    ("INSERT INTO parent (id, code, score) VALUES (?, ?, ?)", (12, 34, "56")),
    ("INSERT INTO parent (id, code, score) VALUES (13, 'k', -1)", ()),
    ("INSERT INTO parent (id, code) VALUES (14, NULL)", ()),
    ("INSERT INTO parent (id) VALUES (14)", ()),
    ("INSERT INTO parent (code) VALUES ('l')", ()),
    ("INSERT INTO parent (id, code) VALUES (1, 'm')", ()),
    ("INSERT INTO parent (id, code) VALUES (15, 'a')", ()),
    ("INSERT INTO parent (id, code) VALUES (16, 'n'), (1, 'o')", ()),
    ("INSERT INTO parent (id, code) VALUES (17)", ()),
    ("INSERT INTO parent (id, code) VALUES (17, 'p'), (18)", ()),
    ("INSERT INTO parent (id, nope) VALUES (17, 1)", ()),
    ("INSERT INTO parent (id, code, id) VALUES (17, 'q', 19)", ()),
    ("INSERT INTO parent (id, code) VALUES (?, UPPER(?))", (20, "xy")),
    ("INSERT INTO parent (id, code) VALUES (?, ?)", (21,)),
    ("INSERT INTO parent (id, code) VALUES (22, 'r'), (?, 's'), (24, ?)", (23, "t")),
    ("INSERT INTO parent (id, code, score) VALUES (25, 'u', 3.0)", ()),
    ("INSERT INTO parent (id, code, score) VALUES (26, 'v', 2.5)", ()),
    ("INSERT INTO parent (id, code) VALUES (27, nope)", ()),
    ("INSERT INTO parent (id, code) VALUES (?, nope)", ()),
    ("INSERT INTO parent (id, code) VALUES (28, 'y'), (29, nope)", ()),
    ("INSERT INTO parent (id, code) VALUES (30, LOWER('E')), (31, LENGTH(?))", ("abc",)),
    ("INSERT INTO odd (id) VALUES (1)", ()),
    ("INSERT INTO odd (id, n) VALUES (1, 2)", ()),
    ("INSERT INTO child (parent, qty) VALUES (1, 5)", ()),
    ("INSERT INTO child (id, parent, qty) VALUES (10, 2, 6)", ()),
    ("INSERT INTO child (parent, qty, label) VALUES (2, 7, 'six!!!')", ()),
    ("INSERT INTO child (parent, qty, label) VALUES (2, 7, 'seven!!')", ()),
    ("INSERT INTO child (parent, qty) VALUES (99, 1)", ()),
    ("INSERT INTO child (parent, qty, code) VALUES (NULL, 1, 'bb')", ()),
    ("INSERT INTO child (parent, qty, code) VALUES (3, 1, 'zz')", ()),
    ("INSERT INTO child (parent, qty) VALUES (3, '12')", ()),
    ("INSERT INTO child (parent, qty) VALUES (3, 'x')", ()),
    ("INSERT INTO child (parent, qty) VALUES (3, 100)", ()),
    ("INSERT INTO child (parent, qty) VALUES (3, NULL)", ()),
    ("INSERT INTO child (id, parent, qty) VALUES (NULL, 2, 1)", ()),
    ("INSERT INTO child (parent, qty) VALUES (3, 1), (98, 2), (3, 3)", ()),
    ("INSERT INTO child (parent, qty) VALUES (3, 4), (3, 5)", ()),
    ("UPDATE parent SET id = 40 WHERE id = 1", ()),
    ("UPDATE parent SET id = 41 WHERE id = 4", ()),
    ("UPDATE parent SET code = 'B' WHERE id = 2", ()),
    ("UPDATE parent SET score = score + 1", ()),
    ("UPDATE parent SET score = -5 WHERE id = 3", ()),
    ("UPDATE parent SET code = NULL WHERE id = 3", ()),
    ("UPDATE parent SET code = 'toolong' WHERE id = 3", ()),
    ("UPDATE parent SET score = 'x' WHERE id = 3", ()),
    ("UPDATE parent SET id = id WHERE id = 1", ()),
    ("UPDATE parent SET id = '1' WHERE id = 1", ()),
    ("UPDATE parent SET score = ?, score = ? WHERE id = ?", (7, 8, 3)),
    ("UPDATE parent SET nope = 1 WHERE id = 2", ()),
    ("UPDATE parent SET nope = 1 WHERE id = 999", ()),
    ("UPDATE child SET parent = 98 WHERE id = 1", ()),
    ("UPDATE child SET parent = NULL, qty = ? WHERE id = ?", ("15", 1)),
    ("UPDATE child SET qty = qty + 50 WHERE parent = 3", ()),
    ("UPDATE child SET qty = qty + 90 WHERE parent = 3", ()),
    ("DELETE FROM parent WHERE id = 2", ()),
    ("DELETE FROM parent WHERE id > 1", ()),
    ("DELETE FROM child WHERE parent = 2", ()),
    ("DELETE FROM parent WHERE id = 2", ()),
    ("DELETE FROM parent WHERE code = 'bb'", ()),
    ("BEGIN", ()),
    ("INSERT INTO child (parent, qty) VALUES (50, 1)", ()),
    ("INSERT INTO parent (id, code) VALUES (50, 'w')", ()),
    ("COMMIT", ()),
    ("BEGIN", ()),
    ("INSERT INTO parent (id, code) VALUES (51, 'x')", ()),
    ("INSERT INTO child (parent, qty) VALUES (51, 2)", ()),
    ("DELETE FROM parent WHERE id = 51", ()),
    ("DELETE FROM child WHERE parent = 51", ()),
    ("COMMIT", ()),
    ("BEGIN", ()),
    ("INSERT INTO child (parent, qty) VALUES (52, 3)", ()),
    ("COMMIT", ()),
    ("BEGIN", ()),
    ("UPDATE parent SET id = 53 WHERE id = 3", ()),
    ("ROLLBACK", ()),
]


def outcome(db, sql, parameters):
    """A statement's row count, or its error as data."""
    try:
        return ["ok", db.execute(sql, list(parameters)).rowcount]
    except DatabaseError as error:
        return [
            type(error).__name__, str(error),
            getattr(error, "constraint", None), getattr(error, "table", None),
            getattr(error, "column", None),
        ]


def contents(db):
    return {
        name: [list(row) for row in db.query(f"SELECT * FROM {name} ORDER BY id").rows]
        for name in ("parent", "child", "odd")
    }


def generated(seed, count):
    """A seeded stream of INSERT / UPDATE / DELETE statements over the
    schema, rich in mistyped, NULL, over-length and dangling values."""
    rng = random.Random(seed)

    def value(kind):
        roll = rng.random()
        if roll < 0.08:
            return None
        if roll < 0.16:
            return rng.choice([True, False, 2.5, 3.0, "4", " 5 ", "x", "longer", ""])
        if kind == "int":
            return rng.randint(-2, 30)
        return rng.choice(["a", "bb", "ccc", "dddd", "eeeee", "Z", "w"])

    def cell(v, parameters):
        if rng.random() < 0.4:
            parameters.append(v)
            return "?"
        if v is None:
            return "NULL"
        if isinstance(v, bool):
            return "TRUE" if v else "FALSE"
        if isinstance(v, str):
            return "'" + v.replace("'", "''") + "'"
        return repr(v)

    statements = []
    for _ in range(count):
        parameters = []
        roll = rng.random()
        if roll < 0.3:
            columns = [c for c in ("id", "code", "score") if c == "id" or rng.random() < 0.8]
            kinds = {"id": "int", "code": "str", "score": "int"}
            rows = [
                "(" + ", ".join(cell(value(kinds[c]), parameters) for c in columns) + ")"
                for _ in range(rng.choice([1, 1, 1, 2, 3]))
            ]
            sql = f"INSERT INTO parent ({', '.join(columns)}) VALUES {', '.join(rows)}"
        elif roll < 0.6:
            columns = [c for c in ("id", "parent", "label", "qty", "code") if rng.random() < 0.7]
            columns = columns or ["qty"]
            kinds = {"id": "int", "parent": "int", "label": "str", "qty": "int", "code": "str"}
            rows = [
                "(" + ", ".join(cell(value(kinds[c]), parameters) for c in columns) + ")"
                for _ in range(rng.choice([1, 1, 2]))
            ]
            sql = f"INSERT INTO child ({', '.join(columns)}) VALUES {', '.join(rows)}"
        elif roll < 0.8:
            table = rng.choice(["parent", "child"])
            column = rng.choice(
                ["id", "code", "score"] if table == "parent" else ["parent", "qty", "label", "code"]
            )
            kind = "str" if column in ("code", "label") else "int"
            target = cell(value(kind), parameters)
            key = cell(rng.randint(0, 30), parameters)
            sql = f"UPDATE {table} SET {column} = {target} WHERE id = {key}"
        else:
            table = rng.choice(["parent", "child"])
            key = cell(rng.randint(0, 30), parameters)
            op = rng.choice(["=", "<", ">"])
            sql = f"DELETE FROM {table} WHERE id {op} {key}"
        statements.append((sql, tuple(parameters)))
    return statements


STREAM = generated(seed=38, count=300)


def run(mode, statements):
    db = Database(constraint_mode=mode)
    db.execute_script(DDL)
    return [outcome(db, sql, parameters) for sql, parameters in statements], contents(db)


def answers():
    """What the engine answers now, as the fixture holds it."""
    recorded = {}
    for mode in ("immediate", "deferred"):
        for name, statements in (("script", SCRIPT), ("stream", STREAM)):
            outcomes, tables = run(mode, statements)
            recorded[f"{mode}/{name}"] = {"outcomes": outcomes, "tables": tables}
    return recorded


@pytest.fixture(scope="module")
def expected():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("mode", ["immediate", "deferred"])
@pytest.mark.parametrize("name, statements", [("script", SCRIPT), ("stream", STREAM)])
def test_outcomes_and_contents_match_the_record(expected, mode, name, statements):
    outcomes, tables = run(mode, statements)
    recorded = expected[f"{mode}/{name}"]
    for (sql, parameters), got, want in zip(statements, outcomes, recorded["outcomes"]):
        assert got == want, (sql, parameters)
    assert len(outcomes) == len(recorded["outcomes"])
    assert tables == recorded["tables"]


def test_the_record_holds_every_kind_of_failure(expected):
    """The fixture is not vacuous: each constraint fails somewhere, in
    both modes, and some statements write rows."""
    for mode in ("immediate", "deferred"):
        seen = {
            (o[0], o[2]) for name in ("script", "stream")
            for o in expected[f"{mode}/{name}"]["outcomes"] if o[0] != "ok"
        }
        for kind in [
            ("IntegrityError", "not null"), ("IntegrityError", "check"),
            ("IntegrityError", "foreign key"), ("IntegrityError", "primary key"),
            ("IntegrityError", "unique"), ("TypeMismatchError", None),
            ("CatalogError", None), ("DatabaseError", None),
        ]:
            assert kind in seen, (mode, kind)
        assert any(o[0] == "ok" and o[1] > 0 for o in expected[f"{mode}/stream"]["outcomes"])


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------

def test_literal_inserts_share_one_plan():
    db = Database()
    db.execute_script(DDL)
    before = db.planner.stats["misses"]
    for key in range(1, 1001):
        db.execute(ast.Insert(
            "parent", ("id", "code"),
            ((ast.Literal(key), ast.Literal(f"{key:x}")),),
        ))
    assert db.planner.stats["misses"] == before + 1
    db.execute("INSERT INTO parent (id, code, score) VALUES (1001, 'x', 1)")
    assert db.planner.stats["misses"] == before + 2  # another column list
    assert db.query("SELECT COUNT(*) FROM parent").scalar() == 1001


def test_an_expression_cell_compiles_once_per_shape(monkeypatch):
    db = Database()
    db.execute_script(DDL)
    builds = []
    build = Source.build
    monkeypatch.setattr(Source, "build", lambda self: builds.append(self) or build(self))
    for key in range(1, 21):
        db.execute("INSERT INTO parent (id, code) VALUES (?, UPPER(?))", [key, f"c{key}"])
    assert len(builds) == 1
    assert db.query("SELECT code FROM parent WHERE id = 7").rows == [("C7",)]


if __name__ == "__main__":
    Path(sys.argv[1]).write_text(json.dumps(answers(), indent=1) + "\n", encoding="utf-8")
