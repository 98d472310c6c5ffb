"""Every update entry point is the same path.

The facade, the session (one-shot and batch), prepared updates (with and
without bindings) and the HTTP endpoint (``/update``, ``/batch``) all hand
concrete operations to one session routine that calls
``backend.execute_operation``.  These tests send the same INSERT DATA,
DELETE DATA and MODIFY through each of them on a fresh system and require
the same SQL, the same affected-row count and the same final dump.
"""

from typing import Callable, Dict, List, NamedTuple, Optional

import pytest

from repro import OntoAccess, Session, TripleStoreBackend
from repro.baselines import MappingAwareTripleStore
from repro.core.backend import OperationResult, UpdateResult
from repro.rdf.terms import URIRef
from repro.server import OntoAccessClient, OntoAccessEndpoint
from repro.workloads.publication import (
    build_database,
    build_mapping,
    seed_feasibility_data,
)

PREFIXES = """
PREFIX rdf:  <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
PREFIX ont:  <http://example.org/ontology#>
PREFIX ex:   <http://example.org/db/>
"""


class Case(NamedTuple):
    text: str
    #: the same request with placeholders, and the bindings that fill them
    template: str
    bindings: Dict[str, object]


CASES = {
    "insert-data": Case(
        PREFIXES
        + 'INSERT DATA { ex:team4 foaf:name "Database Technology" ; '
        'ont:teamCode "DBTG" . }',
        PREFIXES + "INSERT DATA { ex:team4 foaf:name ?name ; ont:teamCode ?code . }",
        {"name": "Database Technology", "code": "DBTG"},
    ),
    "delete-data": Case(
        PREFIXES + "DELETE DATA { ex:author6 foaf:mbox <mailto:hert@ifi.uzh.ch> . }",
        PREFIXES + "DELETE DATA { ex:author6 foaf:mbox ?mbox . }",
        {"mbox": URIRef("mailto:hert@ifi.uzh.ch")},
    ),
    "modify": Case(
        PREFIXES
        + """MODIFY
        DELETE { ?x foaf:mbox ?mbox . }
        INSERT { ?x foaf:mbox <mailto:hert@example.com> . }
        WHERE { ?x rdf:type foaf:Person ; foaf:firstName "Matthias" ;
                   foaf:mbox ?mbox . }""",
        PREFIXES
        + """MODIFY
        DELETE { ?x foaf:mbox ?mbox . }
        INSERT { ?x foaf:mbox ?new . }
        WHERE { ?x rdf:type foaf:Person ; foaf:firstName ?first ;
                   foaf:mbox ?mbox . }""",
        {"new": URIRef("mailto:hert@example.com"), "first": "Matthias"},
    ),
}


def _facade(mediator: OntoAccess, session: Session, case: Case):
    return mediator.update(case.text)


def _execute(mediator, session, case):
    return session.execute(case.text)


def _execute_all(mediator, session, case):
    return session.execute_all([case.text])


def _prepared(mediator, session, case):
    return session.prepare(case.text).execute()


def _prepared_bindings(mediator, session, case):
    return session.prepare(case.template).execute(case.bindings)


def _over_http(send: Callable[[OntoAccessClient, str], object]):
    def entry(mediator, session, case) -> None:
        with OntoAccessEndpoint(mediator) as endpoint:
            assert send(OntoAccessClient(endpoint.url), case.text).ok

    return entry


SESSION_ENTRY_POINTS = {
    "Session.execute": _execute,
    "Session.execute_all": _execute_all,
    "PreparedUpdate.execute": _prepared,
    "PreparedUpdate.execute(bindings)": _prepared_bindings,
}
ENTRY_POINTS = {
    "OntoAccess.update": _facade,
    **SESSION_ENTRY_POINTS,
    "HTTP /update": _over_http(lambda client, text: client.update(text)),
    "HTTP /batch": _over_http(lambda client, text: client.batch([text])),
}


class Observed(NamedTuple):
    sql: List[str]
    rows_affected: int
    dump: object


def _run(entry, case: Case, native: bool = False) -> Observed:
    """Run one entry point on a fresh seeded system (``native``: over the
    triple store instead of the relational backend), recording what
    reached ``execute_operation`` — the seam every entry point shares,
    including the HTTP ones that answer with RDF feedback instead of an
    ``UpdateResult``."""
    db = build_database()
    seed_feasibility_data(db)
    mediator = OntoAccess(db, build_mapping(db))
    session = mediator.session()
    if native:
        store = MappingAwareTripleStore(
            mediator.mapping, db, graph=mediator.dump()
        )
        session = Session(TripleStoreBackend(store))
    backend = session.backend
    seen: List[OperationResult] = []
    execute_operation = backend.execute_operation

    def recording(operation, solution=None, kept=None):
        seen.append(execute_operation(operation, solution, kept))
        return seen[-1]

    backend.execute_operation = recording
    returned: Optional[UpdateResult] = entry(mediator, session, case)
    observed = Observed(
        [line for op in seen for line in op.sql()],
        sum(op.rows_affected for op in seen),
        session.dump(),
    )
    if returned is not None:
        assert returned.sql() == observed.sql
        assert returned.rows_affected() == observed.rows_affected
    return observed


@pytest.mark.parametrize("kind", CASES)
@pytest.mark.parametrize("entry_point", ENTRY_POINTS)
def test_rdb_entry_points_agree(entry_point, kind):
    case = CASES[kind]
    reference = _run(_facade, case)
    assert reference.sql and reference.rows_affected > 0
    assert _run(ENTRY_POINTS[entry_point], case) == reference


@pytest.mark.parametrize("kind", CASES)
@pytest.mark.parametrize("entry_point", SESSION_ENTRY_POINTS)
def test_triplestore_entry_points_agree(entry_point, kind):
    case = CASES[kind]
    reference = _run(_execute, case, native=True)
    assert reference.sql == [] and reference.rows_affected > 0
    observed = _run(SESSION_ENTRY_POINTS[entry_point], case, native=True)
    assert observed == reference
    # ... and both backends end in the same graph
    assert observed.dump == _run(_execute, case).dump


UNTRANSLATABLE_WHERE = "{ ?x ?p <mailto:hert@ifi.uzh.ch> . }"


def test_untranslatable_where_falls_back_for_modify_and_select():
    """A variable predicate is outside the translatable fragment: the
    single solver evaluates it over the dump, whoever asks."""
    db = build_database()
    seed_feasibility_data(db)
    mediator = OntoAccess(db, build_mapping(db))
    select = PREFIXES + "SELECT ?x WHERE " + UNTRANSLATABLE_WHERE
    oneshot = mediator.query_outcome(select)
    prepared = mediator.session().prepare(select)
    assert not oneshot.used_sql
    assert not prepared.outcome().used_sql
    assert not prepared.outcome().used_sql  # remembered as untranslatable
    assert len(oneshot.result.rows()) == len(prepared.execute().rows()) == 1

    modify = (
        PREFIXES
        + "MODIFY DELETE { ?x foaf:mbox <mailto:hert@ifi.uzh.ch> . } "
        "INSERT { ?x foaf:mbox <mailto:hert@example.com> . } WHERE "
        + UNTRANSLATABLE_WHERE
    )
    operation = mediator.update(modify).operations[0]
    assert operation.used_sql_select is False
    assert operation.bindings == 1
    assert db.get_row_by_pk("author", (6,))["email"] == "hert@example.com"


#: request templates for a sequence of distinct bindings: (template,
#: placeholder -> value for the i-th request)
SEQUENCE = [
    (
        "INSERT DATA { ?subj foaf:firstName ?first ; foaf:family_name ?last ; "
        "foaf:mbox ?mbox ; ont:team ex:team5 . }",
        lambda i: {
            "subj": URIRef(f"http://example.org/db/author{100 + i}"),
            "first": f"First{i}",
            "last": f"Last{i}",
            "mbox": URIRef(f"mailto:a{i}@example.org"),
        },
    ),
    (
        "MODIFY DELETE { ?subj foaf:mbox ?old . } INSERT { ?subj foaf:mbox ?new . } "
        "WHERE { ?subj foaf:mbox ?old . }",
        lambda i: {
            "subj": URIRef(f"http://example.org/db/author{100 + i}"),
            "new": URIRef(f"mailto:b{i}@example.org"),
        },
    ),
    (
        "MODIFY DELETE { ?x foaf:mbox ?old . } INSERT { ?x foaf:mbox ?new . } "
        "WHERE { ?x rdf:type foaf:Person ; foaf:firstName ?first ; "
        "foaf:family_name ?last ; foaf:mbox ?old . }",
        lambda i: {
            "first": f"First{i}",
            "last": f"Last{i}",
            "new": URIRef(f"mailto:c{i}@example.org"),
        },
    ),
    (
        "DELETE DATA { ?subj foaf:mbox ?mbox . }",
        lambda i: {
            "subj": URIRef(f"http://example.org/db/author{100 + i}"),
            "mbox": URIRef(f"mailto:c{i}@example.org"),
        },
    ),
]


def _as_text(template: str, bindings: Dict[str, object]) -> str:
    text = template
    for name, value in bindings.items():
        n3 = value.n3() if hasattr(value, "n3") else f'"{value}"'
        text = text.replace(f"?{name} ", f"{n3} ")
    return PREFIXES + text


def test_a_sequence_of_distinct_bindings_is_the_same_through_every_entry_point():
    """Prepared templates keep state between executions (the WHERE
    translation of a MODIFY, the engine's plans per statement shape);
    request texts keep none.  Twelve distinct binding sets through each
    must produce the same SQL lines and leave the same dump."""

    def fresh():
        db = build_database()
        seed_feasibility_data(db)
        mediator = OntoAccess(db, build_mapping(db))
        return mediator, mediator.session()

    prepared_side, session_side, facade_side = fresh(), fresh(), fresh()
    prepared = [
        prepared_side[1].prepare(PREFIXES + template) for template, _ in SEQUENCE
    ]
    for i in range(12):
        for statement, (template, bindings_for) in zip(prepared, SEQUENCE):
            bindings = bindings_for(i)
            text = _as_text(template, bindings)
            lines = statement.execute(bindings).sql()
            assert lines and all("?" not in line for line in lines)
            assert session_side[1].execute(text).sql() == lines
            assert facade_side[0].update(text).sql() == lines
    dump = prepared_side[0].dump()
    assert len(dump) > 12 * 4
    assert session_side[0].dump() == dump == facade_side[0].dump()
    # one shape per template's statements, whatever the surface (the
    # seed's INSERTs were planned before any template ran)
    seeded = fresh()[0].db.planner.stats["misses"]
    misses = [side[0].db.planner.stats["misses"] - seeded for side in
              (prepared_side, session_side, facade_side)]
    assert misses[0] == misses[1] == misses[2] <= 6
