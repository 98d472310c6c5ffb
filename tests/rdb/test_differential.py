"""Differential testing: planner-chosen plans vs. the forced-scan oracle.

Includes a concurrent mode (ISSUE 4): reader threads race DML rounds
against the MVCC engine, and every result they observe must be identical
to what the quiesced forced-scan oracle produced at one of the committed
round states — never a torn in-between.

Plan choice must never change results.  In the spirit of the TTC
correctness-case methodology (Horn 2011), a seeded generator produces
random schemas, random data, random secondary indexes, and random SELECT
workloads (equality/range mixes, prefix LIKE, multi-way joins, ORDER
BY/LIMIT, grouping); every query executes twice —

* on a database whose planner picks index paths, reorders joins, and
  walks ordered indexes, and
* on an identically populated database whose planner runs with
  ``force_scan=True``: full scans, naive nested loops, no index paths —
  the semantic oracle;

and the results must agree: exact row sequences for totally ordered
queries, multisets otherwise.  DML rounds run between query batches so
index maintenance under update/delete is exercised too.

The fixed-seed corpus (8 schemas x 40 queries = 320) runs in CI; any
mismatch is a planner bug by definition.
"""

import dataclasses
import random
import threading
import time

import pytest

from repro.errors import DatabaseError
from repro.observability.metrics import ROWS_SCANNED
from repro.rdb import Database
from repro.sql import ast, parse_statements
from tests.rdb.test_plan_stability import lift_literals

QUERIES_PER_BATCH = 20
SEEDS = range(8)

#: The first integer whose successor no float can hold: equality that
#: detours through ``float`` cannot tell the values around it apart.
BIG = 2**53

_WORDS = [
    "alpha", "beta", "gamma", "delta", "epsilon", "zeta",
    "eta", "theta", "iota", "kappa",
]


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

class _TableSpec:
    def __init__(self, name, fk_targets):
        self.name = name
        #: column name -> 'int' | 'float' | 'str'
        self.columns = {
            "id": "int", "a": "int", "b": "int", "s": "str", "f": "float",
        }
        #: fk column name -> parent table name
        self.fks = {f"r_{target}": target for target in fk_targets}
        for fk in self.fks:
            self.columns[fk] = "int"

    def data_columns(self):
        return [c for c in self.columns if c != "id"]


def _build_schema(rng):
    """2-3 tables, each possibly referencing earlier ones (star shapes)."""
    specs = []
    for k in range(rng.randint(2, 3)):
        targets = [s.name for s in specs if rng.random() < 0.7]
        specs.append(_TableSpec(f"t{k}", targets))
    ddl = []
    for spec in specs:
        parts = ["id INTEGER PRIMARY KEY", "a INTEGER", "b INTEGER",
                 "s VARCHAR(30)", "f FLOAT"]
        parts.extend(
            f"{fk} INTEGER REFERENCES {parent}(id)"
            for fk, parent in spec.fks.items()
        )
        ddl.append(f"CREATE TABLE {spec.name} ({', '.join(parts)})")
    # random secondary indexes: the planner may use them, the oracle won't
    for spec in specs:
        for column in spec.data_columns():
            if rng.random() < 0.5:
                ddl.append(
                    f"CREATE INDEX idx_{spec.name}_{column} "
                    f"ON {spec.name} ({column})"
                )
        # and a two-column one on every table (no draw: the seeded corpus
        # is the one it was), so composite probes face the oracle too
        ddl.append(f"CREATE INDEX idx_{spec.name}_a_b ON {spec.name} (a, b)")
    return specs, ddl


def _literal(value):
    if value is None:
        return "NULL"
    if isinstance(value, str):
        return f"'{value}'"
    return str(value)


def _random_value(rng, kind, nullable=True):
    if nullable and rng.random() < 0.15:
        return None
    if kind == "int":
        if rng.random() < 0.08:
            return BIG + rng.randint(0, 1)
        return rng.randint(-10, 20)
    if kind == "float":
        return round(rng.uniform(-10.0, 20.0), 2)
    return f"{rng.choice(_WORDS)}{rng.randint(0, 9)}"


def _populate(specs, rng):
    """INSERT statements; FK values always reference existing parents."""
    statements = []
    row_ids = {}
    for spec in specs:
        count = rng.randint(10, 40)
        row_ids[spec.name] = list(range(1, count + 1))
        for pk in row_ids[spec.name]:
            values = {"id": pk}
            for column, kind in spec.columns.items():
                if column == "id":
                    continue
                if column in spec.fks:
                    parents = row_ids[spec.fks[column]]
                    values[column] = (
                        rng.choice(parents)
                        if parents and rng.random() < 0.8
                        else None
                    )
                else:
                    values[column] = _random_value(rng, kind)
            columns = ", ".join(values)
            rendered = ", ".join(_literal(v) for v in values.values())
            statements.append(
                f"INSERT INTO {spec.name} ({columns}) VALUES ({rendered})"
            )
    return statements


def _random_conjunct(rng, alias, spec, mistyped=False):
    column = rng.choice(list(spec.columns))
    kind = spec.columns[column]
    ref = f"{alias}.{column}"
    roll = rng.random()
    if mistyped:
        # a bound whose kind is drawn apart from the column's: an int or
        # float against a string column (or a string against a number)
        # raises, but only once a row reaches the conjunct
        def bound():
            return _literal(_random_value(rng, rng.choice(["int", "float", "str"]), False))

        if roll < 0.6:
            return f"{ref} {rng.choice(['<', '<=', '>', '>='])} {bound()}"
        if roll < 0.8:
            return f"{ref} BETWEEN {bound()} AND {bound()}"
        return f"{ref} = {bound()}"
    if kind == "str":
        if roll < 0.3:
            prefix = rng.choice(_WORDS)[: rng.randint(2, 4)]
            return f"{ref} LIKE '{prefix}%'"
        if roll < 0.5:
            return f"{ref} = '{rng.choice(_WORDS)}{rng.randint(0, 9)}'"
        if roll < 0.7:
            op = rng.choice(["<", "<=", ">", ">="])
            return f"{ref} {op} '{rng.choice(_WORDS)}'"
        return f"{ref} IS {'NOT ' if rng.random() < 0.5 else ''}NULL"
    # numeric columns (int, float, and FK columns; int constants compare
    # against float columns and vice versa, as the expression layer allows)
    def const():
        if kind == "float" and rng.random() < 0.7:
            return round(rng.uniform(-10.0, 20.0), 2)
        if rng.random() < 0.15:
            return BIG + rng.randint(0, 1)
        return rng.randint(-10, 20)

    if roll < 0.35:
        return f"{ref} = {const()}"
    if roll < 0.6:
        op = rng.choice(["<", "<=", ">", ">="])
        return f"{ref} {op} {const()}"
    if roll < 0.75:
        low = const()
        return f"{ref} BETWEEN {low} AND {low + rng.randint(0, 15)}"
    if roll < 0.85:
        return f"({ref} = {const()} OR {ref} = {const()})"
    return f"{ref} IS {'NOT ' if rng.random() < 0.5 else ''}NULL"


def _random_query(rng, specs):
    """One SELECT plus how to compare it ('exact' or 'multiset')."""
    spec = rng.choice(specs)
    alias = "q0"
    tables = [(alias, spec)]
    joins = []
    # join parents through FK equi conditions (star around the first table)
    for i, (fk, parent_name) in enumerate(spec.fks.items()):
        if rng.random() < 0.6:
            parent = next(s for s in specs if s.name == parent_name)
            parent_alias = f"q{i + 1}"
            kind = rng.choice(["JOIN", "JOIN", "LEFT JOIN"])
            joins.append(
                f"{kind} {parent.name} {parent_alias} "
                f"ON {parent_alias}.id = {alias}.{fk}"
            )
            tables.append((parent_alias, parent))

    conjuncts = []
    for table_alias, table_spec in tables:
        while rng.random() < 0.45:
            conjuncts.append(_random_conjunct(rng, table_alias, table_spec))

    if rng.random() < 0.15 and len(tables) == 1:
        # grouped query: compare as a multiset
        column = rng.choice(spec.data_columns())
        sql = (
            f"SELECT {alias}.{column}, COUNT(*), MIN({alias}.id) "
            f"FROM {spec.name} {alias}"
        )
        if conjuncts:
            sql += " WHERE " + " AND ".join(conjuncts)
        sql += f" GROUP BY {alias}.{column}"
        return sql, "multiset"

    order_column = rng.choice(list(spec.columns)) if rng.random() < 0.55 else None
    if order_column is not None and len(tables) == 1:
        # Single-key ORDER BY on one table: tie order is legitimately
        # plan-dependent (a range scan on another column feeds the sort in
        # index order, the oracle in row-id order), so the comparison is
        # 'ordered': multiset/subset of rows plus the key-value sequence.
        # Project the order column first so the checker can read the keys.
        projection = [f"{alias}.{order_column}"] + [
            f"{alias}.{column}"
            for column in spec.columns
            if column != order_column and rng.random() < 0.7
        ]
        distinct = "DISTINCT " if rng.random() < 0.15 else ""
        base_sql = f"SELECT {distinct}{', '.join(projection)} FROM {spec.name} {alias}"
        if conjuncts:
            base_sql += " WHERE " + " AND ".join(conjuncts)
        direction = rng.choice(["", " ASC", " DESC"])
        base_sql += f" ORDER BY {alias}.{order_column}{direction}"
        limit_clause = ""
        if rng.random() < 0.5 and not distinct:
            limit_clause = f" LIMIT {rng.randint(1, 8)}"
            if rng.random() < 0.3:
                limit_clause += f" OFFSET {rng.randint(0, 4)}"
        return base_sql + limit_clause, ("ordered", base_sql)

    projection = ["*"] if rng.random() < 0.3 else [
        f"{table_alias}.{column}"
        for table_alias, table_spec in tables
        for column in table_spec.columns
        if rng.random() < 0.6
    ] or [f"{alias}.id"]
    distinct = "DISTINCT " if rng.random() < 0.15 else ""
    sql = f"SELECT {distinct}{', '.join(projection)} FROM {spec.name} {alias}"
    for join in joins:
        sql += f" {join}"
    if conjuncts:
        sql += " WHERE " + " AND ".join(conjuncts)

    compare = "multiset"
    if order_column is not None:
        # joins can emit ties in any order: total-order via every
        # binding's primary key so exact sequences are comparable
        direction = rng.choice(["", " ASC", " DESC"])
        tiebreak = ", ".join(f"{a}.id" for a, _ in tables)
        sql += f" ORDER BY {alias}.{order_column}{direction}, {tiebreak}"
        compare = "exact"
        if rng.random() < 0.5 and not distinct:
            sql += f" LIMIT {rng.randint(1, 8)}"
            if rng.random() < 0.3:
                sql += f" OFFSET {rng.randint(0, 4)}"
    return sql, compare


def _random_dml(rng, specs):
    """Mutations applied identically to both databases.

    Deletes target only tables no FK points at (children), so both sides
    either succeed or fail identically without depending on data order.
    """
    referenced = {parent for s in specs for parent in s.fks.values()}
    statements = []
    for _ in range(rng.randint(3, 7)):
        spec = rng.choice(specs)
        roll = rng.random()
        if roll < 0.4:
            statements.append(
                f"UPDATE {spec.name} SET a = {rng.randint(-10, 20)} "
                f"WHERE b {rng.choice(['<', '>='])} {rng.randint(-10, 10)}"
            )
        elif roll < 0.6 and spec.name not in referenced:
            statements.append(
                f"DELETE FROM {spec.name} WHERE a = {rng.randint(-10, 20)}"
            )
        else:
            pk = rng.randint(1000, 9999)
            statements.append(
                f"INSERT INTO {spec.name} (id, a, b, s) VALUES "
                f"({pk}, {_literal(_random_value(rng, 'int'))}, "
                f"{_literal(_random_value(rng, 'int'))}, "
                f"{_literal(_random_value(rng, 'str'))})"
            )
    return statements


# ---------------------------------------------------------------------------
# execution + comparison
# ---------------------------------------------------------------------------

def _outcome(db, sql, parameters=()):
    """What ``sql`` answers — text, or a shape with its value vector."""
    try:
        result = db.query(sql, parameters)
    except DatabaseError as exc:
        return ("error", type(exc).__name__)
    return ("rows", result.columns, result.rows)


def _multiset(rows):
    from collections import Counter

    return Counter(map(repr, rows))


def _assert_agree(planned_db, oracle_db, sql, compare):
    planned = _outcome(planned_db, sql)
    oracle = _outcome(oracle_db, sql)
    # The other spelling — literals lifted into a parameter vector, as the
    # mediator sends every statement — runs the same plan on the same
    # data, so it must answer identically, row for row.
    assert _outcome(planned_db, lift_literals(sql)) == planned, (
        f"parameterised spelling diverges for {sql!r}:\n"
        f"  plan: {planned_db.explain(sql)}"
    )
    if planned[0] == "error" or oracle[0] == "error":
        assert planned == oracle, (
            f"error divergence for {sql!r}: planned={planned} oracle={oracle}"
        )
        return
    assert planned[1] == oracle[1], f"column divergence for {sql!r}"
    planned_rows, oracle_rows = planned[2], oracle[2]
    if compare == "exact":
        assert planned_rows == oracle_rows, (
            f"ordered rows diverge for {sql!r}:\n"
            f"  planned: {planned_rows[:8]}\n  oracle:  {oracle_rows[:8]}\n"
            f"  plan: {planned_db.explain(sql)}"
        )
    elif isinstance(compare, tuple) and compare[0] == "ordered":
        # Single-key ORDER BY: any tie order is a correct answer, so the
        # check is (a) the ORDER BY key-value sequence matches the oracle
        # exactly (keys are deterministic even when tie members are not),
        # and (b) every returned row exists in the oracle's *unlimited*
        # result with sufficient multiplicity; without LIMIT that
        # tightens to full multiset equality.  The key is projected at
        # position 0 by construction.
        unlimited_sql = compare[1]
        planned_keys = [row[0] for row in planned_rows]
        oracle_keys = [row[0] for row in oracle_rows]
        assert planned_keys == oracle_keys, (
            f"ORDER BY key sequences diverge for {sql!r}:\n"
            f"  planned: {planned_keys[:10]}\n  oracle:  {oracle_keys[:10]}\n"
            f"  plan: {planned_db.explain(sql)}"
        )
        if sql == unlimited_sql:
            assert _multiset(planned_rows) == _multiset(oracle_rows), (
                f"row multisets diverge for {sql!r}:\n"
                f"  plan: {planned_db.explain(sql)}"
            )
        else:
            full = _multiset(oracle_db.query(unlimited_sql).rows)
            missing = _multiset(planned_rows) - full
            assert not missing, (
                f"rows not in the unlimited oracle result for {sql!r}: "
                f"{missing}\n  plan: {planned_db.explain(sql)}"
            )
    else:
        assert _multiset(planned_rows) == _multiset(oracle_rows), (
            f"row multisets diverge for {sql!r}:\n"
            f"  plan: {planned_db.explain(sql)}"
        )


def _variants(sql):
    """Two more spellings of a generated SELECT, as shape + values and
    without LIMIT (so any tie order compares as a multiset): one with a
    NULL where a value was, one with a NOT BETWEEN whose lower bound is a
    nullable column — TRUE on a NULL bound whenever the upper bound
    already fails."""
    bound = lift_literals(sql)
    shape = dataclasses.replace(bound.shape, limit=None, offset=None)
    if bound.values:
        values = list(bound.values)
        values[len(sql) % len(values)] = None
        yield ast.Bound(shape, tuple(values))
    outside = ast.Between(
        ast.Literal(3),
        ast.ColumnRef("a", shape.table.binding()),
        ast.Literal(len(sql) % 7),
        negated=True,
    )
    where = (
        outside
        if shape.where is None
        else ast.BinaryOp("AND", shape.where, outside)
    )
    yield ast.Bound(dataclasses.replace(shape, where=where), bound.values)


def _assert_variants_agree(planned_db, oracle_db, sql):
    for variant in _variants(sql):
        planned = _outcome(planned_db, variant)
        oracle = _outcome(oracle_db, variant)
        context = (
            f"variant of {sql!r} diverges: {variant}\n"
            f"  plan: {planned_db.explain(variant)}"
        )
        if planned[0] == "error" or oracle[0] == "error":
            assert planned == oracle, context
        else:
            assert planned[1] == oracle[1], context
            assert _multiset(planned[2]) == _multiset(oracle[2]), context


def _make_pair(specs, ddl, inserts):
    planned_db = Database()
    oracle_db = Database()
    oracle_db.planner.force_scan = True  # before any plan is cached
    for statement in ddl + inserts:
        planned_db.execute(statement)
        oracle_db.execute(statement)
    return planned_db, oracle_db


@pytest.mark.parametrize("seed", SEEDS)
def test_planner_matches_forced_scan_oracle(seed):
    rng = random.Random(10_000 + seed)
    specs, ddl = _build_schema(rng)
    inserts = _populate(specs, rng)
    planned_db, oracle_db = _make_pair(specs, ddl, inserts)

    executed = 0
    for batch in range(2):
        for _ in range(QUERIES_PER_BATCH):
            sql, compare = _random_query(rng, specs)
            _assert_agree(planned_db, oracle_db, sql, compare)
            _assert_variants_agree(planned_db, oracle_db, sql)
            executed += 1
        if batch == 0:
            # mutate both sides, then query again: index maintenance
            # (insert/update/delete paths) must keep the structures exact
            # (the planned side in the mediator's spelling: shape + values)
            for statement in _random_dml(rng, specs):
                planned_result = planned_db.execute(lift_literals(statement))
                oracle_result = oracle_db.execute(statement)
                assert planned_result.rowcount == oracle_result.rowcount, (
                    f"DML rowcount diverges for {statement!r}"
                )
    assert executed == 2 * QUERIES_PER_BATCH


@pytest.mark.parametrize("seed", SEEDS)
def test_composite_probes_match_forced_scan_oracle(seed):
    """Equalities on both columns of the two-column index — values the
    rows hold, values they do not, NULL — alone, beside a third conjunct
    and under a join, through DML in between."""
    rng = random.Random(20_000 + seed)
    specs, ddl = _build_schema(rng)
    planned_db, oracle_db = _make_pair(specs, ddl, _populate(specs, rng))
    probed = 0
    for batch in range(2):
        for _ in range(QUERIES_PER_BATCH):
            spec = rng.choice(specs)
            held = rng.choice(oracle_db.query(f"SELECT a, b FROM {spec.name}").rows)
            a, b = held if rng.random() < 0.7 else (rng.randint(-10, 20), None)
            where = f"x.b = {_literal(b)} AND x.a = {_literal(a)}"
            if rng.random() < 0.5:
                where += f" AND {_random_conjunct(rng, 'x', spec)}"
            sql = f"SELECT x.id, x.s FROM {spec.name} x WHERE {where}"
            if spec.fks and rng.random() < 0.4:
                fk, parent = rng.choice(list(spec.fks.items()))
                sql = (
                    f"SELECT x.id, p.a FROM {spec.name} x "
                    f"JOIN {parent} p ON p.id = x.{fk} WHERE {where}"
                )
            probed += any("index probe on a, b" in line for line in planned_db.explain(sql))
            _assert_agree(planned_db, oracle_db, sql, "multiset")
            _assert_variants_agree(planned_db, oracle_db, sql)
        if batch == 0:
            for statement in _random_dml(rng, specs):
                planned_db.execute(lift_literals(statement))
                oracle_db.execute(statement)
    assert probed >= QUERIES_PER_BATCH  # the path under test is the one chosen


@pytest.mark.parametrize("seed", SEEDS)
def test_mistyped_bounds_match_forced_scan_oracle(seed):
    """Conjuncts whose bound is of another kind than their column (int /
    float / str), beside ordinary ones, on one table: where an index
    path cannot walk such a bound (or a NULL one, in the variants) it
    reads as written, so a statement raises on the planned side exactly
    when a row reaches the conjunct on the oracle side."""
    rng = random.Random(30_000 + seed)
    specs, ddl = _build_schema(rng)
    planned_db, oracle_db = _make_pair(specs, ddl, _populate(specs, rng))
    answered = []
    for batch in range(2):
        for _ in range(QUERIES_PER_BATCH):
            spec = rng.choice(specs)
            conjuncts = [_random_conjunct(rng, "x", spec, mistyped=True)]
            for _ in range(rng.randint(0, 2)):
                conjuncts.insert(
                    rng.randint(0, len(conjuncts)),
                    _random_conjunct(rng, "x", spec, mistyped=rng.random() < 0.3),
                )
            where = " AND ".join(conjuncts)
            key = rng.choice(list(spec.columns))
            sql = f"SELECT x.{key}, x.id FROM {spec.name} x WHERE {where}"
            if rng.random() < 0.5:
                sql += f" ORDER BY x.{key}{rng.choice(['', ' DESC'])}"
                compare = ("ordered", sql)
            else:
                compare = "multiset"
            _assert_agree(planned_db, oracle_db, sql, compare)
            _assert_variants_agree(planned_db, oracle_db, sql)
            answered.append(_outcome(oracle_db, sql)[0])
        if batch == 0:
            for statement in _random_dml(rng, specs):
                planned_db.execute(lift_literals(statement))
                oracle_db.execute(statement)
    # both outcomes are drawn: statements that raise and ones that answer
    assert {"rows", "error"} <= set(answered)


@pytest.mark.parametrize("seed", SEEDS)
def test_mistyped_bounds_in_joins_match_forced_scan_oracle(seed):
    """The same bounds on either table of a two-table join, beside a
    point on the joined table's key: the planned side may start from
    either table, walk an index and filter a hash join's build side, so
    only a statement that reads as written where a bound is of the
    other kind raises exactly when the oracle's nested loop brings a row
    to the conjunct (a variant's NULL key reads no row, unless such a
    bound sends it to the written-order plan)."""
    rng = random.Random(50_000 + seed)
    specs, ddl = _build_schema(rng)
    planned_db, oracle_db = _make_pair(specs, ddl, _populate(specs, rng))
    answered = []
    for batch in range(2):
        for _ in range(15):
            child, parent = rng.sample(specs, 2)
            fk = next((f for f, t in child.fks.items() if t == parent.name), "a")
            sides = [("x", child), ("p", parent)]
            conjuncts = [_random_conjunct(rng, *rng.choice(sides), mistyped=True)]
            if rng.random() < 0.6:
                conjuncts.append(f"p.id = {rng.randint(1, 40)}")
            for _ in range(rng.randint(0, 2)):
                conjuncts.append(_random_conjunct(
                    rng, *rng.choice(sides), mistyped=rng.random() < 0.3))
            rng.shuffle(conjuncts)
            kind = rng.choice(["JOIN", "JOIN", "LEFT JOIN"])
            sql = (
                f"SELECT x.id, p.id FROM {child.name} x {kind} {parent.name} p "
                f"ON p.id = x.{fk} WHERE {' AND '.join(conjuncts)}"
            )
            _assert_agree(planned_db, oracle_db, sql, "multiset")
            _assert_variants_agree(planned_db, oracle_db, sql)
            answered.append(_outcome(oracle_db, sql)[0])
        if batch == 0:
            for statement in _random_dml(rng, specs):
                planned_db.execute(lift_literals(statement))
                oracle_db.execute(statement)
    assert {"rows", "error"} <= set(answered)


def test_a_joined_mistyped_bound_reads_as_written():
    """A point lookup that finds no row (t0 has no id 19) leaves the
    planned join nothing to probe, so it never reads the rows where the
    other table's conjunct raises; the oracle's scan of t1 reads them
    first.  The execution runs the statement's written-order plan,
    built once and kept on the plan."""
    dbs = _make_pair([], [
        "CREATE TABLE t0 (id INTEGER PRIMARY KEY)",
        "CREATE TABLE t1 (id INTEGER PRIMARY KEY, f INTEGER, "
        "r_t0 INTEGER REFERENCES t0(id))",
    ], [f"INSERT INTO t0 (id) VALUES ({i})" for i in range(1, 19)] + [
        f"INSERT INTO t1 (id, f, r_t0) VALUES ({i}, {i}, {i % 18 + 1})"
        for i in range(1, 31)
    ])
    sql = ("SELECT x.id, p.id FROM t1 x JOIN t0 p ON p.id = x.r_t0 "
           "WHERE p.id = 19 AND x.f > 'iota9'")
    assert dbs[0].explain(sql)[:2] == [
        "join order: p -> x (stats-driven reorder)",
        "t0: point lookup via primary key (id)",
    ]
    for _ in range(2):
        assert [_outcome(db, sql) for db in dbs] == [("error", "DatabaseError")] * 2
    plan = dbs[0].planner.plan(parse_statements(sql)[0])
    assert plan.fallback is not None and plan.fallback.fallback is None
    assert dbs[0].query("SELECT x.id, p.id FROM t1 x JOIN t0 p ON p.id = x.r_t0 "
                        "WHERE p.id = 19 AND x.f > 9").rows == []


def test_a_leading_null_literal_reads_nothing():
    """``column = NULL`` first in written order fails every row before a
    later conjunct runs, as a NULL ``column = ?`` does: the plan answers
    as the oracle without reading a row (the translator writes such a
    key for a term no row can hold)."""
    dbs = _make_pair([], [
        "CREATE TABLE t (id INTEGER PRIMARY KEY, s VARCHAR(9), v INTEGER)",
        "CREATE INDEX t_v ON t (v)",
    ], [f"INSERT INTO t (id, s, v) VALUES ({i}, 's{i}', {i})" for i in range(1, 300)])
    for sql in ["SELECT id FROM t WHERE id = NULL",
                "SELECT id FROM t WHERE s = NULL AND v < 'x'",
                "SELECT id FROM t WHERE id = NULL AND s > 5"]:
        before = ROWS_SCANNED.labels("t").value()
        assert _outcome(dbs[0], sql) == ("rows", ["id"], [])
        assert ROWS_SCANNED.labels("t").value() == before, sql
        assert _outcome(dbs[1], sql) == ("rows", ["id"], [])


def test_a_null_key_on_a_join_reads_nothing():
    """A NULL key of a join's base walk (a literal, as the translator
    writes for a term no row can hold, or a parameter) reads no row of
    either table, where the written-order plan loops over every pair to
    find none; a mistyped bound beside it still reads as written."""
    dbs = _make_pair([], [
        "CREATE TABLE team (id INTEGER PRIMARY KEY, name VARCHAR(9))",
        "CREATE TABLE author (id INTEGER PRIMARY KEY, f INTEGER, "
        "team INTEGER REFERENCES team(id))",
    ], [f"INSERT INTO team (id, name) VALUES ({i}, 't{i}')" for i in range(1, 21)] + [
        f"INSERT INTO author (id, f, team) VALUES ({i}, {i}, {i % 20 + 1})"
        for i in range(1, 401)
    ])
    join = "SELECT a.id, t.name FROM author a JOIN team t ON t.id = a.team WHERE "
    assert dbs[0].explain(join + "t.id = NULL")[1] == (
        "team: point lookup via primary key (id)"
    )

    def read(db, sql, parameters):
        before = [ROWS_SCANNED.labels(t).value() for t in ("author", "team")]
        outcome = _outcome(db, sql, parameters)
        after = [ROWS_SCANNED.labels(t).value() for t in ("author", "team")]
        return outcome, [b - a for a, b in zip(before, after)]

    for sql, parameters in [(join + "t.id = NULL", []), (join + "t.id = ?", [None])]:
        assert read(dbs[0], sql, parameters) == (("rows", ["id", "name"], []), [0, 0])
        # (a base access counts the rows it reads; the oracle's scan of
        # author is its base, its loop over team is not counted)
        oracle, reads = read(dbs[1], sql, parameters)
        assert oracle == ("rows", ["id", "name"], []) and reads == [400, 0]
    sql = join + "t.id = ? AND a.f > 'x'"
    assert _outcome(dbs[0], sql, [None]) == _outcome(dbs[1], sql, [None])
    assert _outcome(dbs[0], sql, [None])[0] == "error"


def test_corpus_size_meets_floor():
    """The fixed-seed corpus must stay >= 200 generated queries."""
    assert len(SEEDS) * 2 * QUERIES_PER_BATCH >= 200


def _canonical(result):
    """Order-insensitive fingerprint of a query result."""
    return (tuple(result.columns), frozenset(_multiset(result.rows).items()))


@pytest.mark.parametrize("seed", [0, 1])
def test_concurrent_readers_match_quiesced_oracle(seed):
    """Concurrent differential mode: reader threads race DML rounds.

    Each DML round runs as **one transaction** on the MVCC side, so the
    only states a snapshot reader may legally observe are the committed
    round boundaries.  The forced-scan oracle is advanced through the
    same rounds *quiesced* (single-threaded), capturing the expected
    result of every probe query at every boundary; any racing read that
    matches none of them is an isolation bug (torn read, partial
    transaction, or index corruption under concurrency).
    """
    rng = random.Random(77_000 + seed)
    specs, ddl = _build_schema(rng)
    inserts = _populate(specs, rng)
    planned_db, oracle_db = _make_pair(specs, ddl, inserts)

    queries = []
    while len(queries) < 10:
        sql, compare = _random_query(rng, specs)
        if compare == "multiset":  # order-insensitive: comparable per state
            queries.append(sql)

    rounds = [_random_dml(rng, specs) for _ in range(5)]

    # Quiesced oracle pass: expected result of each query at each of the
    # committed states (initial + after each round).
    def apply(db, statement):
        """Statement-level atomicity on both sides: a failing statement
        (e.g. a random PK collision) is skipped identically."""
        try:
            db.execute(statement)
        except DatabaseError:
            pass

    valid = {sql: [_canonical(oracle_db.query(sql))] for sql in queries}
    for statements in rounds:
        for statement in statements:
            apply(oracle_db, statement)
        for sql in queries:
            valid[sql].append(_canonical(oracle_db.query(sql)))

    # Racing pass: readers hammer the planned database while the main
    # thread applies the same rounds, one transaction per round.
    mismatches = []
    done = threading.Event()

    def reader():
        while True:
            finished = done.is_set()  # check *before* reading: no lost race
            for sql in queries:
                observed = _canonical(planned_db.query(sql))
                if observed not in valid[sql]:
                    mismatches.append((sql, observed))
                    return
            if finished:
                return

    threads = [threading.Thread(target=reader, daemon=True) for _ in range(4)]
    for thread in threads:
        thread.start()
    try:
        for statements in rounds:
            with planned_db.transaction():
                for statement in statements:
                    apply(planned_db, statement)
            # Let readers observe this committed boundary (and race the
            # next round's transaction) before moving on.
            time.sleep(0.01)
    finally:
        done.set()
        for thread in threads:
            thread.join(30)
    assert not any(thread.is_alive() for thread in threads), "reader hung"
    assert not mismatches, f"racing readers saw invalid states: {mismatches[:2]}"

    # Quiesced final check: both sides agree exactly after the race.
    for sql in queries:
        _assert_agree(planned_db, oracle_db, sql, "multiset")
    for _ in range(QUERIES_PER_BATCH):
        sql, compare = _random_query(rng, specs)
        _assert_agree(planned_db, oracle_db, sql, compare)


def test_mutation_statements_agree_after_index_churn():
    """UPDATE/DELETE row selection through range indexes matches the
    oracle, including after CREATE/DROP INDEX between statements."""
    rng = random.Random(424242)
    specs, ddl = _build_schema(rng)
    inserts = _populate(specs, rng)
    planned_db, oracle_db = _make_pair(specs, ddl, inserts)
    target = specs[0].name

    for round_no in range(6):
        lo = rng.randint(-10, 5)
        update = (
            f"UPDATE {target} SET b = {rng.randint(-50, 50)} "
            f"WHERE a BETWEEN {lo} AND {lo + 6}"
        )
        planned = planned_db.execute(update)
        oracle = oracle_db.execute(update)
        assert planned.rowcount == oracle.rowcount
        check = f"SELECT id, a, b FROM {target} ORDER BY id"
        _assert_agree(planned_db, oracle_db, check, "exact")
        if round_no == 2:
            planned_db.execute(f"DROP INDEX IF EXISTS idx_{target}_a")
            oracle_db.execute(f"DROP INDEX IF EXISTS idx_{target}_a")
        if round_no == 4:
            planned_db.execute(f"CREATE INDEX idx_{target}_a2 ON {target} (a)")
            oracle_db.execute(f"CREATE INDEX idx_{target}_a2 ON {target} (a)")
