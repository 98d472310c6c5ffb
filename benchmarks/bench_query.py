"""The read path: SPARQL queries over the mediated database.

The paper left query support "under development" (Section 6); we complete
it and measure the two evaluation strategies:

* SQL translation (single SELECT with joins), and
* fallback (materialize the dump, evaluate natively).

Expected shape: translation wins and its advantage grows with database
size, because the fallback pays O(database) materialization per query
while the translated SELECT touches only the relevant rows.
"""

import pytest

from repro import OntoAccess
from repro.workloads.generator import (
    WorkloadConfig,
    generate_dataset,
    populate_database,
)
from repro.workloads.publication import build_database, build_mapping

from conftest import reference_loop, report

PREFIXES = """
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
PREFIX dc:   <http://purl.org/dc/elements/1.1/>
PREFIX ont:  <http://example.org/ontology#>
PREFIX ex:   <http://example.org/db/>
"""

JOIN_QUERY = PREFIXES + """
SELECT ?name ?team WHERE {
    ?a foaf:family_name ?name ;
       ont:team ?t .
    ?t foaf:name ?team .
}
"""

LINK_QUERY = PREFIXES + """
SELECT ?title ?author WHERE {
    ?p dc:title ?title ;
       dc:creator ?a .
    ?a foaf:family_name ?author .
}
"""

POINT_QUERY = PREFIXES + """
SELECT ?n WHERE { ex:author7 foaf:family_name ?n . }
"""


def _mediator(authors: int, fallback: bool = False) -> OntoAccess:
    db = build_database()
    populate_database(
        db,
        generate_dataset(WorkloadConfig(authors=authors, publications=authors)),
    )
    return OntoAccess(
        db, build_mapping(db), validate=False, force_query_fallback=fallback
    )


def test_reference_loop(benchmark):
    """The trend gate's calibration: the box's speed, read by work no
    program change moves."""
    benchmark(reference_loop)


@pytest.mark.parametrize("authors", [50, 500])
def test_join_query_translated(benchmark, authors):
    mediator = _mediator(authors)
    outcome = benchmark(mediator.query_outcome, JOIN_QUERY)
    assert outcome.used_sql
    assert len(outcome.result) > 0


@pytest.mark.parametrize("authors", [50, 500])
def test_join_query_fallback(benchmark, authors):
    mediator = _mediator(authors, fallback=True)
    outcome = benchmark(mediator.query_outcome, JOIN_QUERY)
    assert not outcome.used_sql
    assert len(outcome.result) > 0


def test_link_table_query(benchmark):
    mediator = _mediator(100)
    outcome = benchmark(mediator.query_outcome, LINK_QUERY)
    assert outcome.used_sql
    assert len(outcome.result) > 0


@pytest.mark.parametrize("authors", [10, 100, 1000])
def test_point_query_translated(benchmark, authors):
    """Expected shape: flat — the planner turns the translated
    ``WHERE pk = ...`` into an index point lookup, so cost must not grow
    with database size (paper Section 5/6 feasibility claim)."""
    mediator = _mediator(authors)
    outcome = benchmark(mediator.query_outcome, POINT_QUERY)
    assert outcome.used_sql
    assert len(outcome.result) == 1


def test_translated_and_fallback_agree(benchmark):
    """Crossover evidence + correctness: both paths, same answers."""
    import time

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    lines = []
    for authors in (50, 200):
        translated = _mediator(authors)
        fallback = _mediator(authors, fallback=True)

        t0 = time.perf_counter()
        r1 = translated.query_outcome(JOIN_QUERY)
        t_translated = time.perf_counter() - t0

        t0 = time.perf_counter()
        r2 = fallback.query_outcome(JOIN_QUERY)
        t_fallback = time.perf_counter() - t0

        rows1 = sorted(map(str, r1.result.rows()))
        rows2 = sorted(map(str, r2.result.rows()))
        assert rows1 == rows2
        lines.append(
            f"{authors:4d} authors: translated {t_translated * 1e3:7.2f} ms, "
            f"fallback {t_fallback * 1e3:7.2f} ms "
            f"({t_fallback / t_translated:4.1f}x)"
        )
    report("SPARQL SELECT: SQL translation vs dump fallback", lines)
