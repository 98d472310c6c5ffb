"""Range queries and ORDER BY+LIMIT: ordered index vs. forced scan.

ISSUE 3 adds ordered secondary indexes (``CREATE INDEX``) so ``<`` /
``BETWEEN`` / prefix-``LIKE`` conjuncts and ``ORDER BY`` stop paying a
full scan (+ sort).  This module measures both shapes against the same
data with the planner's ``force_scan`` oracle knob as the baseline:

* ``test_range_query_*`` — a ~5%-selective ``BETWEEN`` over 10/100/1000
  rows.  Indexed cost follows the *result* size, forced-scan cost follows
  the *table* size, so the gap widens linearly with the sweep.
* ``test_order_by_limit_*`` — ``ORDER BY indexed-column LIMIT 10``.  The
  ordered index emits rows pre-sorted and the pipeline stops after 10,
  vs. scan + top-k heap over everything.

The acceptance floor is a count, not a ratio of timings: at 1000 rows
the indexed range reads at most the 51 rows of its window and the indexed
top-10 at most 10, against 1000 for the forced scan
(``test_rows_read_floor_at_1000_rows``, from the ``ROWS_SCANNED``
counter), and the committed ``BENCH_range.json`` medians are guarded by
the CI trend gate (``check_trend.py --filter indexed --calibration
reference_loop`` — machine speed cancels out, a lost index path does
not).
"""

import pytest

from repro.observability.metrics import ROWS_SCANNED
from repro.rdb import Database

from conftest import reference_loop, report

SIZES = (10, 100, 1000)


def _build_db(rows: int, force_scan: bool = False) -> Database:
    db = Database()
    if force_scan:
        db.planner.force_scan = True  # before any plan is cached
    db.execute(
        "CREATE TABLE item (id INTEGER PRIMARY KEY, v INTEGER, name VARCHAR(30))"
    )
    for i in range(rows):
        # v is a permutation of 0..rows-1 (37 is coprime with the sizes),
        # so BETWEEN windows have exact, size-proportional selectivity.
        db.execute(
            f"INSERT INTO item (id, v, name) VALUES "
            f"({i}, {(i * 37) % rows}, 'name{i % 97:03d}')"
        )
    # Created on both sides; the forced-scan planner simply never uses it.
    db.execute("CREATE INDEX idx_item_v ON item (v)")
    return db


def _range_sql(rows: int) -> str:
    lo = rows // 3
    return f"SELECT id FROM item WHERE v BETWEEN {lo} AND {lo + max(1, rows // 20)}"


ORDER_SQL = "SELECT v, id FROM item ORDER BY v LIMIT 10"


def test_reference_loop(benchmark):
    """The trend gate's calibration: the box's speed, read by work no
    program change moves."""
    benchmark(reference_loop)


@pytest.mark.parametrize("rows", SIZES)
def test_range_query_indexed(benchmark, rows):
    """Expected shape: flat-ish — cost follows the ~5% window, not the
    table."""
    db = _build_db(rows)
    result = benchmark(db.query, _range_sql(rows))
    assert len(result) == min(rows, max(1, rows // 20) + 1)


@pytest.mark.parametrize("rows", SIZES)
def test_range_query_forced_scan(benchmark, rows):
    """Expected shape: linear in table size (the baseline the index
    beats)."""
    db = _build_db(rows, force_scan=True)
    result = benchmark(db.query, _range_sql(rows))
    assert len(result) == min(rows, max(1, rows // 20) + 1)


@pytest.mark.parametrize("rows", SIZES)
def test_order_by_limit_indexed(benchmark, rows):
    """Expected shape: flat — ordered emission + stop after 10 rows."""
    db = _build_db(rows)
    result = benchmark(db.query, ORDER_SQL)
    assert [r[0] for r in result.rows] == list(range(min(rows, 10)))


@pytest.mark.parametrize("rows", SIZES)
def test_order_by_limit_forced_scan(benchmark, rows):
    """Expected shape: linear — every row is scanned and heap-selected."""
    db = _build_db(rows, force_scan=True)
    result = benchmark(db.query, ORDER_SQL)
    assert [r[0] for r in result.rows] == list(range(min(rows, 10)))


def test_rows_read_floor_at_1000_rows(benchmark):
    """Acceptance criterion, as what an index promises and no interpreter
    release moves: at 1000 rows the indexed range query reads the rows of
    its window and ORDER BY+LIMIT the rows it returns, where the forced
    scan reads the table.  (The timings of the two paths are the sweeps
    above; their ratio shrank 8x when generated plans made a scanned row
    cheap, without any index path getting worse.)"""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    def read_so_far():  # by every table
        return sum(value for *_, value in ROWS_SCANNED.samples())

    def rows_read(db, sql):
        before = read_so_far()
        db.query(sql)
        return int(read_so_far() - before)

    indexed = _build_db(1000)
    scanned = _build_db(1000, force_scan=True)
    window = max(1, 1000 // 20)
    lines = []
    for label, sql, ceiling in (
        ("range BETWEEN (5%)", _range_sql(1000), window + 1),
        ("ORDER BY + LIMIT 10", ORDER_SQL, 10),
    ):
        fast = rows_read(indexed, sql)
        slow = rows_read(scanned, sql)
        lines.append(f"{label}: indexed reads {fast:4d} rows, forced scan {slow:4d}")
        assert fast <= ceiling, f"{label}: read {fast} rows, expected <= {ceiling}"
        assert slow == 1000, f"{label}: the forced scan read {slow} rows"
    report("range/order access: rows read, ordered index vs forced scan @1000 rows", lines)
