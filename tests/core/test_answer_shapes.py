"""Solution modifiers in the SQL, and one answer step per translation.

A translated SELECT hands ``ORDER BY`` / ``LIMIT`` / ``OFFSET`` to the
engine where SQL orders as SPARQL does, and its answer step turns only the
rows that survive into projected solutions.  What is held here:

* the modifier oracle: ASC/DESC over INTEGER and VARCHAR columns, an
  OPTIONAL (NULL) key, two keys, ties, LIMIT / OFFSET / both — the
  translated answer equals Python sorting the same translation's rows
  (ties included), and agrees with the dump reference
  (``force_query_fallback``) and the native backend: the same key
  sequence and the same rows, or, where ties meet a LIMIT or an ordered
  index replaces the sort, rows that all exist in the unlimited answer
  (``test_order_by_limit_agrees``' rule);
* ``select_sql`` carries ``ORDER BY`` / ``LIMIT`` exactly when the rule
  allows it — never for a URI, expression, FLOAT or placeholder key, and
  no ``LIMIT`` behind DISTINCT or a residual FILTER;
* a count, not a timing: the benchmark's ``scan_top10`` shape takes at
  most 10 rows out of the executor per query;
* placeholders are still absent from ``SELECT *``.
"""

import dataclasses

import pytest

from repro import OntoAccess, Session, TripleStoreBackend
from repro.baselines import MappingAwareTripleStore
from repro.core.query import execute_query
from repro.observability.metrics import EXECUTOR_ROWS
from repro.r3m.generator import generate_mapping
from repro.rdb import Database
from repro.rdf.terms import URIRef, Variable
from repro.sparql.engine import apply_select_modifiers
from repro.sparql.query_parser import parse_query
from repro.workloads.generator import (
    WorkloadConfig,
    generate_dataset,
    populate_database,
)
from repro.workloads.operations import PREFIXES
from repro.workloads.publication import URI_PREFIX, build_database, build_mapping

DATASET = generate_dataset(
    WorkloadConfig(
        authors=60, publications=120, teams=4, publishers=3, pubtypes=3, seed=11
    )
)

PUBLICATIONS = "?p dc:title ?t ; ont:pubYear ?y"
AUTHORS = "?a foaf:family_name ?l . OPTIONAL { ?a foaf:title ?tt }"


def pubs(projection: str, modifiers: str, filters: str = "") -> str:
    return f"SELECT {projection} WHERE {{ {PUBLICATIONS} {filters}}} {modifiers}"


def authors(projection: str, modifiers: str) -> str:
    return f"SELECT {projection} WHERE {{ {AUTHORS} }} {modifiers}"


#: name -> (query, whether SQL takes the ORDER BY, whether it takes the
#: LIMIT / OFFSET)
ORDERED = {
    "integer asc": (pubs("?p ?t ?y", "ORDER BY ?y"), True, True),
    "integer desc": (pubs("?p ?y", "ORDER BY DESC(?y)"), True, True),
    "varchar asc": (pubs("?p ?t", "ORDER BY ?t"), True, True),
    "varchar desc": (pubs("?t", "ORDER BY DESC(?t)"), True, True),
    "optional key": (authors("?a ?tt ?l", "ORDER BY ?tt ?l"), True, True),
    "optional key desc": (authors("?a ?tt", "ORDER BY DESC(?tt) ?l"), True, True),
    "two keys": (pubs("?p ?t ?y", "ORDER BY DESC(?y) ?t"), True, True),
    "ties at the limit": (pubs("?p ?y", "ORDER BY ?y LIMIT 7"), True, True),
    "optional ties at the limit": (
        authors("?a ?tt", "ORDER BY DESC(?tt) LIMIT 5"), True, True
    ),
    "limit": (pubs("?t ?y", "ORDER BY ?t LIMIT 4"), True, True),
    "offset": (pubs("?t ?y", "ORDER BY ?y ?t OFFSET 110"), True, True),
    "limit and offset": (
        pubs("?t ?y", "ORDER BY DESC(?y) ?t LIMIT 4 OFFSET 3"), True, True
    ),
    "limit without order": (pubs("?t", "LIMIT 6"), False, True),
    # -- what stays in Python ----------------------------------------------
    "uri key": (pubs("?p ?y", "ORDER BY ?p LIMIT 3"), False, False),
    "expression key": (pubs("?p ?y", "ORDER BY DESC(?y + 0) ?t LIMIT 3"), False, False),
    "value pattern key": (
        "SELECT ?a ?m WHERE { ?a foaf:mbox ?m } ORDER BY ?m LIMIT 3", False, False
    ),
    "one key of two": (pubs("?p ?y", "ORDER BY ?y ?p LIMIT 3"), False, False),
    "distinct": (pubs("DISTINCT ?y", "ORDER BY ?y LIMIT 3"), True, False),
    "residual filter": (
        pubs("?t ?y", "ORDER BY DESC(?y) ?t LIMIT 3", 'FILTER(REGEX(?t, "a")) '),
        True,
        False,
    ),
}


def make_mediator(year_index: bool = False) -> OntoAccess:
    db = build_database()
    populate_database(db, DATASET)
    if year_index:
        # an ordered index: ORDER BY ?y becomes an index walk, whose
        # ties need not come in the scan's order
        db.execute("CREATE INDEX idx_publication_year ON publication (year)")
    return OntoAccess(db, build_mapping(db))


@pytest.fixture(scope="module")
def mediator():
    return make_mediator()


@pytest.fixture(scope="module")
def indexed():
    return make_mediator(year_index=True)


def rows(result):
    return [
        tuple(term.n3() if term else None for term in row) for row in result.rows()
    ]


def keys(query, result):
    """The ORDER BY key sequence of an answer (keys are variables here)."""
    names = [
        condition.expression.term
        for condition in query.order_by
        if hasattr(condition.expression, "term")
    ]
    return [
        tuple(s.get(v).n3() if s.get(v) else None for v in names)
        for s in result.solutions
    ]


def python_sorted(mediator, query):
    """The same translation's rows, sorted and cut by Python: the query
    without modifiers runs translated, then ``apply_select_modifiers``."""
    read = list(dict.fromkeys([
        *query.projected(),
        *(v for c in query.order_by for v in _variables(c.expression)),
    ]))
    bare = dataclasses.replace(
        query, variables=tuple(read), order_by=(), limit=None, offset=None,
        distinct=False,
    )
    outcome = execute_query(mediator.mapping, mediator.db, bare)
    assert outcome.used_sql and "ORDER BY" not in outcome.select_sql
    return apply_select_modifiers(query, outcome.result.solutions)


def _variables(expr):
    for value in vars(expr).values():
        if isinstance(value, Variable):
            yield value
        elif hasattr(value, "__dataclass_fields__"):
            yield from _variables(value)


def native_session(mediator):
    return Session(TripleStoreBackend(
        MappingAwareTripleStore(mediator.mapping, mediator.db, graph=mediator.dump())
    ))


@pytest.mark.parametrize("name", list(ORDERED))
def test_translated_equals_python_sorting_of_the_same_rows(mediator, name):
    text, _, _ = ORDERED[name]
    query = parse_query(PREFIXES + text)
    outcome = mediator.query_outcome(PREFIXES + text)
    assert outcome.used_sql
    expected = python_sorted(mediator, query)
    assert outcome.result.variables == expected.variables
    assert outcome.result.solutions == expected.solutions  # ties, order included


@pytest.mark.parametrize("year_index", [False, True])
@pytest.mark.parametrize("name", list(ORDERED))
def test_agrees_with_dump_reference_and_native_store(
    mediator, indexed, name, year_index
):
    text, _, _ = ORDERED[name]
    system = indexed if year_index else mediator
    query = parse_query(PREFIXES + text)
    got = system.query(PREFIXES + text)
    unlimited = dataclasses.replace(query, limit=None, offset=None)
    references = [
        execute_query(system.mapping, system.db, query, force_fallback=True).result,
        native_session(system).query(query),
    ]
    full = execute_query(
        system.mapping, system.db, unlimited, force_fallback=True
    ).result
    assert len(got) == len(references[0]) > 0
    for reference in references:
        assert got.variables == reference.variables
        if query.order_by:
            assert keys(query, got) == keys(query, reference)
        if query.limit is None and query.offset is None:
            assert sorted(rows(got), key=repr) == sorted(rows(reference), key=repr)
        else:
            assert set(rows(got)) <= set(rows(full))


@pytest.mark.parametrize("name", list(ORDERED))
def test_sql_takes_the_modifiers_exactly_when_the_rule_allows(mediator, name):
    text, ordered, limited = ORDERED[name]
    sql = mediator.query_outcome(PREFIXES + text).select_sql
    query = parse_query(PREFIXES + text)
    sliced = query.limit is not None or query.offset is not None
    assert ("ORDER BY" in sql) == ordered, sql
    assert ("LIMIT" in sql or "OFFSET" in sql) == (limited and sliced), sql
    if limited and query.limit is not None:
        assert f"LIMIT {query.limit}" in sql


def test_float_key_stays_in_python():
    db = Database()
    db.execute("CREATE TABLE m (id INTEGER PRIMARY KEY, v FLOAT, n INTEGER)")
    for key, value in enumerate([2.5, -1.0, 7.25, 0.5], start=1):
        db.execute("INSERT INTO m VALUES (?, ?, ?)", (key, value, key % 2))
    mediator = OntoAccess(db, generate_mapping(db))
    prefix = "PREFIX v: <http://example.org/vocab#> "
    outcome = mediator.query_outcome(
        prefix + "SELECT ?v WHERE { ?s v:m_v ?v } ORDER BY DESC(?v) LIMIT 2"
    )
    assert "ORDER BY" not in outcome.select_sql and "LIMIT" not in outcome.select_sql
    assert [float(t.lexical) for t in outcome.result.column("v")] == [7.25, 2.5]
    mixed = mediator.query_outcome(
        prefix + "SELECT ?v WHERE { ?s v:m_v ?v ; v:m_n ?n } ORDER BY ?n DESC(?v)"
    )
    assert "ORDER BY" not in mixed.select_sql  # one key stays: both do
    assert [float(t.lexical) for t in mixed.result.column("v")] == [
        0.5, -1.0, 7.25, 2.5
    ]


def test_placeholder_key_stays_in_python(mediator):
    prepared = mediator.session().prepare(
        PREFIXES + "SELECT ?p ?y WHERE { ?p dc:publisher ?pub ; ont:pubYear ?y }"
        " ORDER BY ?pub ?y LIMIT 3"
    )
    outcome = prepared.outcome({"pub": URIRef(URI_PREFIX + "publisher1")})
    assert "ORDER BY" not in outcome.select_sql and "LIMIT" not in outcome.select_sql
    assert len(outcome.result) == 3


def test_ask_reads_one_row(mediator):
    outcome = mediator.query_outcome(PREFIXES + f"ASK {{ {PUBLICATIONS} }}")
    assert outcome.result is True and outcome.select_sql.endswith("LIMIT 1;")
    filtered = mediator.query_outcome(
        PREFIXES + f"ASK {{ {PUBLICATIONS} FILTER(REGEX(?t, \"^nothing like it\")) }}"
    )
    assert filtered.result is False and "LIMIT" not in filtered.select_sql


def test_scan_top10_takes_at_most_ten_rows_out_of_the_executor(mediator):
    """The benchmark's ``scan_top10`` template (a count, not a timing):
    every binding with more than ten matching rows still moves at most
    ten rows from the executor to the mediator.  The executor counts the
    statements of a transaction (a read outside one runs the same plan on
    the committed snapshot), so the queries run inside one."""
    session = mediator.session()
    prepared = session.prepare(
        PREFIXES + "SELECT ?p ?t ?y WHERE { ?p dc:publisher ?pub ; ont:pubType ?type ;"
        " dc:title ?t ; ont:pubYear ?y } ORDER BY DESC(?y) ?t LIMIT 10"
    )
    counter = EXECUTOR_ROWS.labels("select")
    larger = 0
    for publisher in range(1, 4):
        for pubtype in range(1, 4):
            bindings = {
                "pub": URIRef(URI_PREFIX + f"publisher{publisher}"),
                "type": URIRef(URI_PREFIX + f"pubtype{pubtype}"),
            }
            matching = sum(
                1 for p in DATASET.publications
                if p["publisher"] == publisher and p["type"] == pubtype
            )
            larger += matching > 10
            before = counter.value()
            with session.transaction():
                result = prepared.execute(bindings)
            assert counter.value() - before == len(result) == min(10, matching)
    assert larger >= 3  # the LIMIT cut something


def test_placeholders_stay_absent_from_select_star(mediator):
    for text in (
        "SELECT * WHERE { ?p dc:publisher ex:publisher1 ; ont:pubYear ?y }"
        " ORDER BY DESC(?y) LIMIT 3",
        "SELECT * WHERE { ex:pub5 dc:title ?t }",
    ):
        outcome = mediator.query_outcome(PREFIXES + text)
        assert outcome.used_sql
        names = {v.name for v in outcome.result.variables}
        assert names and all(name.isidentifier() for name in names), names
        for solution in outcome.result.solutions:
            assert {v.name for v in solution} == names
