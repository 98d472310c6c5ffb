"""A kept translation's row functions are generated on first use.

Translation builds the members of its rows (``repro.core.answer``) and
compiles nothing; the answer step and the JSON writer are each generated
the first time a reader asks for them.  Counted from outside, by wrapping
the two generators where the translation calls them:

* ``translate_query`` alone generates neither;
* the five query templates of the benchmark's HTTP workload, four
  requests each over the endpoint's JSON route, generate one writer per
  template and no answer step;
* the same texts through ``OntoAccess.query`` generate one answer step
  per template and no writer;
* a query with a FILTER left to Python, over HTTP, generates one answer
  step and no writer.

What could make generation fail is refused at translation time: a URI
pattern that mints from several attributes makes ``translate_query``
raise, so the query falls back to the dump before its SQL runs, and
answers as the dump does.  Threads racing on a translation's first use
may both generate a row function; each gets the right answer.
"""

import json
import sys
import threading

import pytest

from repro import OntoAccess
from repro.core import select_translate, translate_query
from repro.core.query import execute_query
from repro.errors import UnsupportedPatternError
from repro.observability.metrics import JSON_ANSWERS
from repro.r3m.generator import generate_mapping
from repro.rdb import Database
from repro.rdf.terms import URIRef, Variable
from repro.server import OntoAccessEndpoint, protocol
from repro.sparql.query_parser import parse_query
from repro.workloads.operations import PREFIXES
from tests.core import test_answer_shapes as answer_shapes
from tests.core.test_json_writer import BENCHMARK_QUERIES

JSON_RESULTS = protocol.CONTENT_SPARQL_JSON
VOCAB = "PREFIX v: <http://example.org/vocab#> "


def texts(name, keys=(1, 2, 3, 4)):
    """The benchmark template ``name`` made concrete for each key."""
    template = BENCHMARK_QUERIES[name]
    for key in keys:
        values = (key, 2010 if name == "scan_years" else key)
        yield PREFIXES + template % values[: template.count("%d")]


@pytest.fixture
def generated(monkeypatch):
    """Counts of answer steps and JSON writers generated since reset."""
    counts = {"answer": 0, "json": 0}

    def counting(kind, generate):
        def wrapper(*args):
            counts[kind] += 1
            return generate(*args)
        return wrapper

    monkeypatch.setattr(
        select_translate, "answer_step", counting("answer", select_translate.answer_step)
    )
    monkeypatch.setattr(
        select_translate, "json_writer", counting("json", select_translate.json_writer)
    )
    return counts


def counted(counts, run):
    before = dict(counts)
    run()
    return counts["answer"] - before["answer"], counts["json"] - before["json"]


def test_translation_generates_no_row_function(generated):
    mediator = answer_shapes.make_mediator()
    for name in BENCHMARK_QUERIES:
        for text in texts(name):
            translated = translate_query(mediator.mapping, mediator.db, parse_query(text))
            assert translated.members, name
    assert generated == {"answer": 0, "json": 0}


def test_the_json_route_generates_one_writer_per_template(generated):
    endpoint = OntoAccessEndpoint(answer_shapes.make_mediator())

    def ask():
        for text in texts(name):
            response = endpoint.handle("POST", "/query", {"Accept": JSON_RESULTS}, text)
            assert response.status == 200, response.body
            json.loads(response.body)

    for name in BENCHMARK_QUERIES:
        assert counted(generated, ask) == (0, 1), name


def test_in_process_queries_generate_one_answer_step_per_template(generated):
    mediator = answer_shapes.make_mediator()

    def ask():
        for text in texts(name):
            assert type(mediator.query(text).solutions) is list, text

    for name in BENCHMARK_QUERIES:
        assert counted(generated, ask) == (1, 0), name


def test_a_residual_filter_over_http_generates_an_answer_step(generated):
    endpoint = OntoAccessEndpoint(answer_shapes.make_mediator())
    text = PREFIXES + (
        "SELECT ?p ?y WHERE { ?p ont:pubYear ?y . FILTER(?y + 0 > 2000) }"
    )
    terms = JSON_ANSWERS.labels("terms")

    def ask():
        for _ in range(3):
            response = endpoint.handle("POST", "/query", {"Accept": JSON_RESULTS}, text)
            assert response.status == 200, response.body

    before = terms.value()
    assert counted(generated, ask) == (1, 0)
    assert terms.value() - before == 3


# ---------------------------------------------------------------------------
# a URI pattern of several attributes: refused at translation time
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def pairs():
    """A table whose instance URIs are minted from two attributes."""
    db = Database()
    db.execute("CREATE TABLE pair (a INTEGER PRIMARY KEY, b INTEGER, label VARCHAR(20))")
    for key in range(1, 8):
        db.execute("INSERT INTO pair VALUES (?, ?, ?)", (key, key % 3, f"p{key}"))
    mapping = generate_mapping(db, uri_pattern_overrides={"pair": "pa%%a%%_%%b%%"})
    return OntoAccess(db, mapping)


SUBJECT_PROJECTED = VOCAB + "SELECT ?s ?l WHERE { ?s v:pair_label ?l } ORDER BY ?l"


def dump_answer(mediator, text):
    return execute_query(mediator.mapping, mediator.db, text, force_fallback=True).result


def test_a_subject_minted_from_two_attributes_is_not_translated(pairs):
    with pytest.raises(UnsupportedPatternError, match="several attributes"):
        translate_query(pairs.mapping, pairs.db, parse_query(SUBJECT_PROJECTED))


def test_a_subject_minted_from_two_attributes_answers_as_the_dump(pairs):
    reference = dump_answer(pairs, SUBJECT_PROJECTED)
    assert reference.solutions[0][Variable("s")] == URIRef("http://example.org/db/pa1_1")
    session = pairs.session()
    for _ in range(2):
        outcome = session.query_outcome(SUBJECT_PROJECTED)
        assert not outcome.used_sql
        assert outcome.result.solutions == reference.solutions
    endpoint = OntoAccessEndpoint(pairs)
    for _ in range(2):
        response = endpoint.handle(
            "POST", "/query", {"Accept": JSON_RESULTS}, SUBJECT_PROJECTED
        )
        assert response.status == 200, response.body
        assert response.body == "".join(protocol.iter_select_json(reference))


def test_only_a_minted_site_is_refused(pairs):
    """The subject's pattern matters only where a URI is minted from it."""
    text = VOCAB + "SELECT ?l WHERE { ?s v:pair_label ?l } ORDER BY ?l"
    outcome = pairs.session().query_outcome(text)
    assert outcome.used_sql
    assert outcome.result.solutions == dump_answer(pairs, text).solutions


# ---------------------------------------------------------------------------
# first use from several threads at once
# ---------------------------------------------------------------------------

def test_first_uses_racing_on_threads_all_answer_right():
    """Threads that ask a fresh translation for its row functions at
    once may each generate them; every answer is still the reference."""
    mediator = answer_shapes.make_mediator()
    text = next(texts("scan_team", keys=(2,)))
    reference = execute_query(mediator.mapping, mediator.db, text).result
    expected_json = "".join(protocol.iter_select_json(reference))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            rows = mediator.session().answer_outcome(text).answer
            barrier = threading.Barrier(8)
            results = []

            def read(as_json):
                barrier.wait(timeout=10)
                if as_json:
                    written = "".join(protocol.iter_select_json(rows))
                    results.append((written, expected_json))
                else:
                    results.append((rows.result().solutions, reference.solutions))

            workers = [
                threading.Thread(target=read, args=(n % 2 == 0,)) for n in range(8)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
                assert not worker.is_alive()
            assert len(results) == 8
            for answered, expected in results:
                assert answered == expected
    finally:
        sys.setswitchinterval(interval)
