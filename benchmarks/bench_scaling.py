"""Scaling behaviour of the translation pipeline.

Not a table in the paper, but the evidence behind its feasibility claim:
per-operation cost must depend on the *request* size (triples per
operation), not on the database size — Algorithm 1 identifies rows by
primary key through the URI pattern, so lookups are O(1) in table size.

Three sweeps:

* database-size sweep: the same Listing-13-style INSERT against databases
  of growing size (expected: flat);
* the same with a reader present: every INSERT follows a point query, so
  it is the first write after a consumed snapshot and pays the engine's
  copy-on-write step (expected: flat — the step copies page directories
  and the touched pages, not the table);
* request-size sweep: INSERT DATA with a growing number of subject groups
  (expected: linear in groups).
"""

import statistics
import time

import pytest

from repro import OntoAccess
from repro.workloads.generator import (
    WorkloadConfig,
    generate_dataset,
    populate_database,
)
from repro.workloads.operations import PREFIXES, insert_author_op, insert_team_op
from repro.workloads.publication import build_database, build_mapping

from conftest import report


@pytest.mark.parametrize("authors", [10, 100, 1000])
def test_insert_vs_database_size(benchmark, authors):
    """Expected shape: flat — per-op cost independent of DB size."""
    config = WorkloadConfig(
        authors=authors, publications=authors, seed=3
    )
    db = build_database()
    populate_database(db, generate_dataset(config))
    mediator = OntoAccess(db, build_mapping(db), validate=False)
    counter = [10_000]

    def run():
        counter[0] += 1
        return mediator.update(insert_team_op(counter[0]))

    result = benchmark(run)
    assert result.statements_executed() == 1


POINT_QUERY = PREFIXES + """
SELECT ?n WHERE { ex:author7 foaf:family_name ?n . }
"""


def _read_then_insert(authors):
    """(read, insert) over a fresh database of ``authors`` authors: one
    point query, and one INSERT DATA of an author not there yet."""
    db = build_database()
    populate_database(
        db,
        generate_dataset(
            WorkloadConfig(authors=authors, publications=1_000, seed=3)
        ),
    )
    mediator = OntoAccess(db, build_mapping(db), validate=False)
    counter = [10_000_000]

    def read():
        mediator.query(POINT_QUERY)

    def insert():
        counter[0] += 1
        return mediator.update(insert_author_op(counter[0]))

    return read, insert


def _alternating_medians(small, large, rounds=200):
    """Median seconds of ``insert`` after ``read`` on two databases,
    round by round in turn so both see the same box speed."""
    times = ([], [])
    for _ in range(rounds):
        for (read, insert), samples in zip((small, large), times):
            read()
            started = time.perf_counter()
            insert()
            samples.append(time.perf_counter() - started)
    return statistics.median(times[0]), statistics.median(times[1])


@pytest.mark.parametrize("authors", [1_000, 10_000, 100_000])
def test_insert_after_read_vs_database_size(benchmark, authors):
    """Expected shape: flat — a write that follows a read clones the
    author table, and a clone is a copy of its page directories."""
    benchmark.name = f"insert_after_read_{authors}"
    read, insert = _read_then_insert(authors)
    result = benchmark.pedantic(
        insert, setup=read, rounds=300, iterations=1, warmup_rounds=5
    )
    assert result.statements_executed() == 1
    if authors == 100_000:
        small, large = _alternating_medians(
            _read_then_insert(1_000), (read, insert)
        )
        report(
            "INSERT after a read vs database size (expected: flat)",
            [
                f"  1 000 authors: {small * 1e6:8.0f} us per INSERT DATA",
                f"100 000 authors: {large * 1e6:8.0f} us per INSERT DATA "
                f"({large / small:.2f}x)",
            ],
        )
        # whole-table clones made this ~12x already at 40 000 authors
        assert large <= 2 * small, (
            "an INSERT after a read costs in proportion to the table again"
        )


def _wide_insert(groups: int) -> str:
    body = []
    for i in range(1, groups + 1):
        body.append(
            f'    ex:team{20000 + i} foaf:name "Scale Team {i}" ;\n'
            f'        ont:teamCode "S{i}" .'
        )
    return PREFIXES + "\nINSERT DATA {\n" + "\n".join(body) + "\n}\n"


@pytest.mark.parametrize("groups", [1, 10, 50])
def test_insert_vs_request_size(benchmark, groups):
    """Expected shape: linear in the number of subject groups."""
    request = _wide_insert(groups)

    def setup():
        db = build_database()
        return (OntoAccess(db, build_mapping(db), validate=False),), {}

    result = benchmark.pedantic(
        lambda m: m.update(request), setup=setup, rounds=5, iterations=1
    )
    assert result.statements_executed() == groups


def test_scaling_summary(benchmark):
    """One-shot summary table: per-insert latency across DB sizes."""
    import time

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    lines = []
    for authors in (10, 100, 1000):
        db = build_database()
        populate_database(
            db, generate_dataset(WorkloadConfig(authors=authors, publications=authors))
        )
        mediator = OntoAccess(db, build_mapping(db), validate=False)
        start = time.perf_counter()
        rounds = 50
        for i in range(rounds):
            mediator.update(insert_team_op(30_000 + i))
        per_op_us = (time.perf_counter() - start) / rounds * 1e6
        lines.append(
            f"db with {authors:5d} authors/publications: "
            f"{per_op_us:8.0f} us per INSERT DATA"
        )
    report("Per-operation latency vs database size (expected: flat)", lines)
