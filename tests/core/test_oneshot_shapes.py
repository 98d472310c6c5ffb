"""One-shot texts run the prepared path: one parse per request shape.

``OntoAccess.update(text)`` / ``query(text)`` and the endpoint's
``/update``, ``/batch`` and ``/query`` read a text as a shape plus values
(``SPARQLParserBase.lift``) and keep the parsed shape per session.  What
is held here:

* the benchmark's one-shot mix — 1 536 requests, every text unique —
  parses once per shape, and answers every request as its model expects
  (a count, not a timing);
* the placeholders constants were lifted into are never an answer's
  variable: not under ``SELECT *``, not in a CONSTRUCT graph, not in the
  ``/query`` JSON;
* eight threads sending one new shape keep one entry and each get their
  own answer;
* the map is bounded, the caller's prefixes are part of the key, and
  ``/metrics`` counts hits and misses.
"""

import dataclasses
import importlib.util
import json
import pathlib
import sys
import threading

import pytest

from repro import OntoAccess
from repro.observability import lint_exposition
from repro.observability.metrics import REQUEST_SHAPES
from repro.rdf import Literal, URIRef
from repro.rdf.namespace import PrefixMap
from repro.rdf.terms import Variable
from repro.server import OntoAccessEndpoint
from repro.sparql.query_parser import QueryParser
from repro.sparql.update_parser import UpdateParser
from repro.workloads.generator import populate_database
from repro.workloads.operations import PREFIXES
from repro.workloads.publication import (
    URI_PREFIX,
    build_database,
    build_mapping,
    seed_feasibility_data,
)

E2E = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "e2e"


def e2e_workloads():
    """The benchmark's request generator (``benchmarks/e2e/workloads.py``)."""
    spec = importlib.util.spec_from_file_location("e2e_workloads", E2E / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def parses(monkeypatch):
    """Counts the parser's runs over a whole request."""
    count = [0]
    for cls, name in ((QueryParser, "query"), (UpdateParser, "request")):
        real = getattr(cls, name)

        def counted(parser, real=real):
            count[0] += 1
            return real(parser)

        monkeypatch.setattr(cls, name, counted)
    return count


def feasibility_mediator():
    db = build_database()
    seed_feasibility_data(db)
    return OntoAccess(db, build_mapping(db))


def test_the_oneshot_mix_parses_once_per_shape(parses):
    workloads = e2e_workloads()
    spec = dataclasses.replace(
        workloads.WORKLOADS["inproc_oneshot_mixed"], authors=400, publications=800
    )
    dataset = workloads.build_dataset(spec, 1)
    db = build_database()
    populate_database(db, dataset)
    mediator = OntoAccess(db, build_mapping(db))
    stream = workloads.Stream(spec, workloads.Model(dataset), 0, 1)
    ops = stream.next_chunk(spec.round_ops)
    assert len(ops) == 1536 and len({op.text for op in ops}) == 1536
    fallbacks = REQUEST_SHAPES.labels("fallback")
    before = fallbacks.value()
    wrong = []
    for op in ops:
        if op.is_update:
            ok = workloads.check_update(op, mediator.update(op.text).rows_affected())
        else:
            rows = [
                {var.name: str(term) for var, term in solution.items()}
                for solution in mediator.query(op.text).solutions
            ]
            ok = workloads.check_rows(op, rows)
        if not ok:
            wrong.append(op.template)
    assert wrong == []
    shapes = len(mediator._session._shapes)
    assert parses[0] == shapes <= 12, (parses[0], shapes)
    # every text was read as shape plus values: none fell back to a parse
    assert fallbacks.value() == before


# -- placeholders are no answer's variables ----------------------------------------

SELECT_ALL = PREFIXES + 'SELECT * WHERE { ?a foaf:family_name "Hert" ; foaf:firstName ?f }'
SELECT_ALL_UNION = PREFIXES + (
    'SELECT * WHERE { { ?a foaf:family_name "Hert" } UNION { ?a foaf:family_name "Reif" } }'
)
CONSTRUCT = PREFIXES + (
    'CONSTRUCT { ?a ex:said "hello" ; ex:knows ex:author6 } '
    'WHERE { ?a foaf:family_name "Hert" }'
)


def test_select_star_projects_the_clients_variables_only():
    mediator = feasibility_mediator()
    for text, names in ((SELECT_ALL, {"a", "f"}), (SELECT_ALL_UNION, {"a"})):
        for _ in range(2):  # the miss, then the hit
            result = mediator.query(text)
            assert {v.name for v in result.variables} == names
            assert result.solutions
            assert all({v.name for v in s} <= names for s in result.solutions)


def test_construct_instantiates_its_constants():
    mediator = feasibility_mediator()
    for _ in range(2):
        graph = mediator.query(CONSTRUCT)
        objects = {triple.object for triple in graph}
        assert objects == {Literal("hello"), URIRef(URI_PREFIX + "author6")}
        assert not any(isinstance(t, Variable) for triple in graph for t in triple)


def test_query_json_names_the_clients_variables_only():
    endpoint = OntoAccessEndpoint(feasibility_mediator())
    for _ in range(2):
        response = endpoint.handle(
            "POST", "/query", {"Accept": "application/sparql-results+json"}, SELECT_ALL
        )
        assert response.status == 200
        answer = json.loads(response.body)
        assert sorted(answer["head"]["vars"]) == ["a", "f"]
        assert answer["results"]["bindings"]
        for binding in answer["results"]["bindings"]:
            assert set(binding) <= {"a", "f"}


# -- one shape, many threads; the bound; the key -----------------------------------

def author_mediator(count=8):
    mediator = feasibility_mediator()
    for key in range(100, 100 + count):
        mediator.db.execute(
            "INSERT INTO author (id, lastname) VALUES (?, ?)", (key, f"L{key}")
        )
    return mediator


def test_threads_sending_one_new_shape_keep_one_entry():
    mediator = author_mediator()
    session = mediator.session()
    form = PREFIXES + "SELECT ?l WHERE { ex:author%d foaf:family_name ?l }"
    barrier = threading.Barrier(8)
    answers = {}

    def send(key):
        barrier.wait()
        answers[key] = [str(row[0]) for row in session.query(form % key).rows()]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=send, args=(k,)) for k in range(100, 108)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert answers == {key: [f"L{key}"] for key in range(100, 108)}
    assert len(session._shapes) == 1


def test_the_map_keeps_the_most_recent_shapes(parses):
    session = author_mediator().session()
    form = PREFIXES + "SELECT ?l WHERE { ex:author100 foaf:family_name ?l } LIMIT %d"
    for limit in range(1, 131):  # LIMIT is shape: 130 shapes
        assert session.query(form % limit).rows() == [(Literal("L100"),)]
    assert parses[0] == 130 and len(session._shapes) == 128
    session.query(form % 130)  # kept
    assert parses[0] == 130
    session.query(form % 1)  # evicted: parsed again
    assert parses[0] == 131 and len(session._shapes) == 128


def test_the_callers_prefixes_are_part_of_the_key():
    mediator = author_mediator()
    text = "SELECT ?l WHERE { x:author100 <http://xmlns.com/foaf/0.1/family_name> ?l }"
    here = PrefixMap({"x": URI_PREFIX})
    elsewhere = PrefixMap({"x": "http://elsewhere.example/"})
    assert len(mediator.query(text, prefixes=here)) == 1
    assert len(mediator.query(text, prefixes=elsewhere)) == 0
    assert len(mediator.query(text, prefixes=here)) == 1


def test_metrics_count_shape_hits_and_misses():
    endpoint = OntoAccessEndpoint(author_mediator())
    hits, misses = REQUEST_SHAPES.labels("hit"), REQUEST_SHAPES.labels("miss")
    before = hits.value(), misses.value()
    form = PREFIXES + "SELECT ?l WHERE { ex:author%d foaf:family_name ?l }"
    for key in (100, 101):  # one shape, two IRIs
        assert endpoint.handle("POST", "/query", {}, form % key).status == 200
    assert (hits.value() - before[0], misses.value() - before[1]) == (1, 1)
    text = endpoint.handle("GET", "/metrics").body
    assert lint_exposition(text) == []
    assert 'repro_request_shapes_total{outcome="hit"}' in text
    assert 'repro_request_shapes_total{outcome="miss"}' in text


def test_metrics_count_fallbacks_apart_from_misses():
    """A text the lift cannot read (a string where no term is read) or
    whose constant the parser reads otherwise (``?y -1``) is parsed as
    written: a ``fallback``, neither a hit nor a miss."""
    endpoint = OntoAccessEndpoint(author_mediator())
    outcomes = {name: REQUEST_SHAPES.labels(name) for name in ("hit", "miss", "fallback")}
    before = {name: counter.value() for name, counter in outcomes.items()}
    texts = [
        PREFIXES + 'SELECT ?l WHERE { ex:author100 "p" ?l }',
        PREFIXES + "ASK { ?a foaf:family_name ?l FILTER(?l -1 > 3) }",
    ]
    for text in texts:
        for _ in range(2):
            endpoint.handle("POST", "/query", {}, text)
    delta = {name: outcomes[name].value() - before[name] for name in outcomes}
    assert delta == {"hit": 0, "miss": 0, "fallback": 4}
    assert 'repro_request_shapes_total{outcome="fallback"}' in (
        endpoint.handle("GET", "/metrics").body
    )
