"""Listing 11 → Listing 12: the MODIFY operation (Algorithm 2).

Regenerates the paper's MODIFY example and measures: the translated
SELECT for the WHERE clause, execution with 1 binding, scaling with the
number of result bindings, and the Section 5.2 redundant-delete
optimization (statements per binding with and without it).
"""

import pytest

from repro import OntoAccess
from repro.workloads.publication import (
    build_database,
    build_mapping,
    seed_feasibility_data,
)
from repro.workloads.generator import (
    WorkloadConfig,
    generate_dataset,
    populate_database,
)

from conftest import report

PREFIXES = """
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
PREFIX ont:  <http://example.org/ontology#>
PREFIX ex:   <http://example.org/db/>
PREFIX rdf:  <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
"""

LISTING_11 = PREFIXES + """
MODIFY
DELETE { ?x foaf:mbox ?mbox . }
INSERT { ?x foaf:mbox <mailto:hert@example.com> . }
WHERE {
    ?x rdf:type foaf:Person ;
       foaf:firstName "Matthias" ;
       foaf:family_name "Hert" ;
       foaf:mbox ?mbox .
}
"""

#: MODIFY touching every author with an email (many bindings).
BULK_MODIFY = PREFIXES + """
MODIFY
DELETE { ?x foaf:mbox ?mbox . }
INSERT { ?x foaf:title "Dr" . }
WHERE { ?x foaf:mbox ?mbox . }
"""


def _seeded():
    db = build_database()
    seed_feasibility_data(db)
    return db, OntoAccess(db, build_mapping(db))


def test_listing_11_to_12_execution(benchmark):
    def run():
        db, mediator = _seeded()
        return mediator.update(LISTING_11)

    result = benchmark(run)
    op = result.operations[0]
    report(
        "Listing 11 -> Listing 12 (MODIFY)",
        [f"WHERE evaluated via SQL: {op.used_sql_select}",
         f"result bindings: {op.bindings}",
         *op.sql()],
    )
    assert op.bindings == 1
    assert op.used_sql_select is True


def test_modify_where_clause_select_sql(benchmark):
    """Algorithm 2 line 5: translateSelect — the SQL of the WHERE clause."""
    from repro.core.modify import bindings_for_pattern
    from repro.sparql import parse_update
    from repro.sql.render import render

    db, mediator = _seeded()
    operation = parse_update(LISTING_11).operations[0]

    def run():
        return bindings_for_pattern(mediator.mapping, db, operation.where)

    solutions, used_sql, select = benchmark(run)
    select_sql = render(select)  # shape + values, printed when wanted
    report("Translated SELECT for the WHERE clause", [select_sql])
    assert used_sql
    assert len(solutions) == 1
    assert "author" in select_sql


@pytest.mark.parametrize("authors", [10, 50, 200])
def test_modify_scaling_with_bindings(benchmark, authors):
    """MODIFY cost grows with the number of WHERE bindings (one DELETE
    DATA / INSERT DATA pair per binding, Algorithm 2 line 7)."""
    config = WorkloadConfig(authors=authors, publications=0, seed=1)

    def setup():
        db = build_database()
        populate_database(db, generate_dataset(config))
        return (OntoAccess(db, build_mapping(db), validate=False),), {}

    def run(mediator):
        return mediator.update(BULK_MODIFY)

    result = benchmark.pedantic(run, setup=setup, rounds=5, iterations=1)
    assert result.operations[0].bindings > 0


def test_redundant_delete_optimization_counts(benchmark):
    """Section 5.2 optimization: per binding, the replace-style MODIFY
    needs 1 statement with the optimization and 2 without."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    _, mediator_opt = _seeded()
    result_opt = mediator_opt.update(LISTING_11)

    db2 = build_database()
    seed_feasibility_data(db2)
    mediator_plain = OntoAccess(db2, build_mapping(db2), optimize_modify=False)
    result_plain = mediator_plain.update(LISTING_11)

    report(
        "MODIFY redundant-delete optimization (statements per binding)",
        [f"optimized:   {result_opt.statements_executed()} statement(s)",
         f"unoptimized: {result_plain.statements_executed()} statement(s)"],
    )
    assert result_opt.statements_executed() == 1
    assert result_plain.statements_executed() == 2
    # both end in the same state
    assert (
        db2.get_row_by_pk("author", (6,))["email"]
        == mediator_opt.db.get_row_by_pk("author", (6,))["email"]
        == "hert@example.com"
    )


def test_modify_fallback_vs_translated(benchmark):
    """The dump-based fallback gives the same bindings, slower."""
    db, _ = _seeded()
    mediator = OntoAccess(db, build_mapping(db), force_query_fallback=True)

    def run():
        return mediator.update(LISTING_11)

    # run once through benchmark on fresh copies
    def setup():
        db2 = build_database()
        seed_feasibility_data(db2)
        return (
            OntoAccess(db2, build_mapping(db2), validate=False,
                       force_query_fallback=True),
        ), {}

    result = benchmark.pedantic(
        lambda m: m.update(LISTING_11), setup=setup, rounds=5, iterations=1
    )
    assert result.operations[0].used_sql_select is False
    assert result.operations[0].bindings == 1
