"""The JSON writer oracle: a kept translation writes its rows as SPARQL
JSON text byte for byte as the term path writes the same rows.

A translated SELECT whose modifiers all went into the SQL is answered by
its rows (``Session.answer_outcome(...).answer`` is a ``SelectRows``);
the endpoint's JSON route writes them through the writer generated from
the answer step's sites, without building a term.  The reference is the term path on the
*same* rows: the answer step's solutions (``rows.result()``) written by
``SelectResult.json_bindings``.  What is compared is the whole streamed
document, chunk by chunk (``protocol.iter_select_json``), over

* every shape of ``test_answer_shapes.py`` and every query template of
  ``test_prepared_shapes.py`` under seeded bindings (prepared and one-shot);
* literals with ``"``, ``\\``, C0 controls, U+2028 and non-BMP characters;
* NULL / OPTIONAL sites and projected placeholders;
* every column type: INTEGER, FLOAT with INF / -INF / NaN, BOOLEAN, DATE
  vs date-time, VARCHAR;
* value-pattern URIs (``mailto:``);
* answers of 0, 63, 64 and 65 rows (the chunk boundaries).

It also counts from outside which writer the endpoint used: every JSON
answer of the five query templates of the benchmark's HTTP workload,
the first included, takes the generated one, a dump-evaluated answer
the term path (``repro_json_answers_total``), and it holds the
in-process surfaces to solutions built inside the call.
"""

import json
import random

import pytest

from repro import OntoAccess
from repro.core.query import execute_query
from repro.core.select_translate import SelectRows
from repro.errors import ReproError
from repro.observability.metrics import JSON_ANSWERS
from repro.r3m.generator import generate_mapping
from repro.rdb import Database
from repro.rdf.terms import Literal, URIRef
from repro.server import OntoAccessEndpoint, protocol
from repro.sparql.engine import SelectResult
from repro.sparql.query_parser import parse_query
from repro.workloads.operations import PREFIXES
from tests.core import test_answer_shapes as answer_shapes
from tests.core import test_prepared_shapes as prepared_shapes

JSON_RESULTS = protocol.CONTENT_SPARQL_JSON
VOCAB = "PREFIX v: <http://example.org/vocab#> "

#: stored strings the escaping must get right
AWKWARD = [
    'say "hi"',
    "back\\slash",
    "".join(map(chr, range(32))),
    "line\u2028separator\u2029",
    "emoji \U0001F600 and \U00010348",
    "caf\u00e9 \u00ff\u0100 \x7f",
    "",
    "</script>&<>'",
]


def both(outcome):
    """The streamed JSON document written from the rows, and written
    from the answer step's solutions of the same rows."""
    rows = outcome.answer
    assert isinstance(rows, SelectRows), outcome
    terms = rows.result()
    return list(protocol.iter_select_json(rows)), list(protocol.iter_select_json(terms))


def assert_same_text(outcome):
    generated, terms = both(outcome)
    assert generated == terms
    json.loads("".join(generated))  # and it is a JSON document
    return generated


@pytest.fixture(scope="module")
def publications():
    return answer_shapes.make_mediator()


@pytest.fixture(scope="module")
def typed():
    """One table with a column of every type, awkward strings, NULLs."""
    db = Database()
    db.execute(
        "CREATE TABLE m (id INTEGER PRIMARY KEY, i INTEGER, f FLOAT, "
        "b BOOLEAN, d DATE, s VARCHAR(80))"
    )
    floats = [0.0, -0.0, 2.5, -1e300, 1e-7, float("inf"), float("-inf"), float("nan")]
    dates = ["2010-05-03", "2010-05-03T10:00:00", "1999-12-31 23:59:59"]
    for key in range(1, 81):
        db.execute(
            "INSERT INTO m VALUES (?, ?, ?, ?, ?, ?)",
            (
                key,
                None if key % 7 == 0 else key * (-1) ** key,
                floats[key % len(floats)],
                None if key % 5 == 0 else bool(key % 2),
                None if key % 11 == 0 else dates[key % len(dates)],
                None if key % 3 == 0 else AWKWARD[key % len(AWKWARD)],
            ),
        )
    return OntoAccess(db, generate_mapping(db))


# ---------------------------------------------------------------------------
# the shapes of the answer-shape and binding oracles
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", list(answer_shapes.ORDERED))
def test_answer_shapes_write_the_same_text(publications, name):
    text, _, takes_limit = answer_shapes.ORDERED[name]
    outcome = publications.session().answer_outcome(PREFIXES + text)
    # rows answer exactly where every modifier went into the SQL
    assert isinstance(outcome.answer, SelectRows) == takes_limit
    if takes_limit:
        assert_same_text(outcome)


@pytest.mark.parametrize("shape", list(prepared_shapes.QUERY_SHAPES))
def test_prepared_templates_write_the_same_text(shape):
    mediator = prepared_shapes.make_mediator()
    template, generators = prepared_shapes.QUERY_SHAPES[shape]
    session = mediator.session()
    prepared = session.prepare(PREFIXES + template)
    rng = random.Random(f"json:{shape}")
    written = 0
    for _ in range(12):
        bindings = prepared_shapes.draw(generators, rng)
        text = prepared_shapes.substituted(template, bindings)
        for run in (
            lambda: prepared.answer_outcome(bindings),
            lambda: session.answer_outcome(text),
        ):
            try:
                outcome = run()
            except ReproError:
                continue
            if isinstance(outcome.answer, SelectRows):
                assert_same_text(outcome)
                written += 1
    if "FILTER(?y + 0" not in template and "REGEX" not in template:
        assert written, shape  # no residual filter: the writer ran


# ---------------------------------------------------------------------------
# column types, escaping, NULLs, placeholders, value patterns
# ---------------------------------------------------------------------------

TYPED = {
    "every type, optional": (
        "SELECT ?s ?i ?f ?b ?d ?x WHERE { ?s v:m_f ?f . OPTIONAL { ?s v:m_i ?i }"
        " OPTIONAL { ?s v:m_b ?b } OPTIONAL { ?s v:m_d ?d } OPTIONAL { ?s v:m_s ?x } }"
    ),
    "first member optional": (
        "SELECT ?x ?s WHERE { ?s v:m_f ?f . OPTIONAL { ?s v:m_s ?x } }"
    ),
    "only optional members": (
        "SELECT ?x ?d WHERE { ?s v:m_f ?f . OPTIONAL { ?s v:m_s ?x }"
        " OPTIONAL { ?s v:m_d ?d } }"
    ),
    "strings": "SELECT ?x ?s WHERE { ?s v:m_s ?x }",
    "dates": "SELECT ?d WHERE { ?s v:m_d ?d }",
    "floats": "SELECT ?f ?s WHERE { ?s v:m_f ?f }",
    "booleans and integers": "SELECT ?b ?i WHERE { ?s v:m_b ?b ; v:m_i ?i }",
    "select star": "SELECT * WHERE { ?s v:m_i ?i . OPTIONAL { ?s v:m_s ?x } }",
    "a variable twice": "SELECT ?x ?x ?s WHERE { ?s v:m_s ?x }",
    "an unbound variable": "SELECT ?nowhere ?x WHERE { ?s v:m_s ?x }",
    "ordered and cut": "SELECT ?s ?x WHERE { ?s v:m_s ?x ; v:m_i ?i } ORDER BY ?x DESC(?i) LIMIT 9",
}


@pytest.mark.parametrize("name", list(TYPED))
def test_every_column_type_writes_the_same_text(typed, name):
    chunks = assert_same_text(typed.session().answer_outcome(VOCAB + TYPED[name]))
    assert '"type"' in "".join(chunks)


def test_awkward_strings_are_all_written(typed):
    document = json.loads("".join(assert_same_text(
        typed.session().answer_outcome(VOCAB + TYPED["strings"])
    )))
    values = {b["x"]["value"] for b in document["results"]["bindings"]}
    assert values == set(AWKWARD)


def test_value_pattern_uris_write_the_same_text(publications):
    chunks = assert_same_text(publications.session().answer_outcome(
        PREFIXES + "SELECT ?a ?m WHERE { ?a foaf:mbox ?m }"
    ))
    assert '"value": "mailto:' in "".join(chunks)


def test_projected_placeholders_write_the_same_text(publications):
    session = publications.session()
    subject = session.prepare(PREFIXES + "SELECT ?subj ?f WHERE { ?subj foaf:firstName ?f }")
    assert_same_text(subject.answer_outcome({"subj": URIRef(answer_shapes.URI_PREFIX + "author3")}))
    tagged = session.prepare(
        PREFIXES + "SELECT ?tag ?a ?when WHERE { ?a foaf:family_name ?l } LIMIT 5"
    )
    for tag in (
        Literal("caf\u00e9\u2028 \"x\"", language="fr"),
        Literal("2010-01-01", datatype="http://www.w3.org/2001/XMLSchema#date"),
        URIRef("http://example.org/\U0001F600"),
        7,
    ):
        chunks = assert_same_text(tagged.answer_outcome({"tag": tag, "when": "now"}))
        assert '"tag": ' in chunks[0] and '"when": ' in chunks[0]


@pytest.mark.parametrize("count", [0, 1, 62, 63, 64, 65, 80])
def test_chunk_boundaries_are_the_same(typed, count):
    outcome = typed.session().answer_outcome(
        VOCAB + f"SELECT ?s ?f WHERE {{ ?s v:m_f ?f }} LIMIT {count}"
    )
    assert len(outcome.answer) == count
    chunks = assert_same_text(outcome)
    # head + one line per row + tail, _STREAM_BATCH lines per chunk
    assert len(chunks) == -(-(count + 2) // protocol._STREAM_BATCH)


# ---------------------------------------------------------------------------
# counted from outside
# ---------------------------------------------------------------------------

#: the query templates of the benchmark's HTTP workload, concrete
BENCHMARK_QUERIES = {
    "point_author": (
        "SELECT ?f ?l ?m WHERE { ex:author%d foaf:firstName ?f ; foaf:family_name ?l ."
        " OPTIONAL { ex:author%d foaf:mbox ?m } }"
    ),
    "point_publication": "SELECT ?t ?y WHERE { ex:pub%d dc:title ?t ; ont:pubYear ?y }",
    "scan_team": (
        "SELECT ?a ?l ?n WHERE { ?a ont:team ex:team%d ; foaf:family_name ?l ."
        " ex:team%d foaf:name ?n }"
    ),
    "scan_years": (
        "SELECT ?p ?t ?y WHERE { ?p dc:publisher ex:publisher%d ; ont:pubYear ?y ;"
        " dc:title ?t . FILTER(?y >= 2000 && ?y <= %d) }"
    ),
    "scan_top10": (
        "SELECT ?p ?t ?y WHERE { ?p dc:publisher ex:publisher%d ; ont:pubType ex:pubtype%d ;"
        " dc:title ?t ; ont:pubYear ?y } ORDER BY DESC(?y) ?t LIMIT 10"
    ),
}


def test_the_benchmark_query_templates_take_the_generated_writer(publications):
    """Every JSON answer of each template, its first included, is
    written by the generated writer, in the reference bytes."""
    endpoint = OntoAccessEndpoint(publications)
    generated, terms = JSON_ANSWERS.labels("generated"), JSON_ANSWERS.labels("terms")
    for name, template in BENCHMARK_QUERIES.items():
        for key in (1, 2, 3, 4):
            values = (key, 2010 if name == "scan_years" else key)
            text = PREFIXES + template % values[: template.count("%d")]
            before = generated.value(), terms.value()
            response = endpoint.handle("POST", "/query", {"Accept": JSON_RESULTS}, text)
            assert response.status == 200, response.body
            reference = execute_query(
                publications.mapping, publications.db, parse_query(text)
            ).result
            assert response.body == "".join(protocol.iter_select_json(reference))
            counted = generated.value() - before[0], terms.value() - before[1]
            assert counted == (1, 0), (name, key)
    # a dump-evaluated answer is written from its terms, every time
    union = (
        PREFIXES + "SELECT ?s WHERE { { ?s foaf:family_name ?l } UNION "
        "{ ?s dc:title ?l } } LIMIT 1"
    )
    before = terms.value()
    for _ in range(2):
        endpoint.handle("POST", "/query", {"Accept": JSON_RESULTS}, union).body
    assert terms.value() - before == 2


# ---------------------------------------------------------------------------
# the in-process surfaces build their solutions inside the call
# ---------------------------------------------------------------------------

def test_in_process_surfaces_return_solutions_built_in_the_call(publications, monkeypatch):
    """Every in-process entry point returns its solutions built when the
    call returns — the answer step ran inside it, once —, so a caller
    timing the call times the answer step too."""
    calls = []
    real = SelectRows.result

    def counted(rows):
        calls.append(rows)
        return real(rows)

    monkeypatch.setattr(SelectRows, "result", counted)
    text = PREFIXES + "SELECT ?t ?y WHERE { ex:pub4 dc:title ?t ; ont:pubYear ?y }"
    session = publications.session()
    prepared = session.prepare(
        PREFIXES + "SELECT ?t ?y WHERE { ?p dc:title ?t ; ont:pubYear ?y }"
    )
    pub4 = {"p": URIRef(answer_shapes.URI_PREFIX + "pub4")}
    results = {
        "OntoAccess.query": lambda: publications.query(text),
        "Session.query": lambda: session.query(text),
        "PreparedQuery.execute": lambda: prepared.execute(pub4),
    }
    outcomes = {
        "OntoAccess.query_outcome": lambda: publications.query_outcome(text),
        "Session.query_outcome": lambda: session.query_outcome(text),
        "PreparedQuery.outcome": lambda: prepared.outcome(pub4),
        "execute_query": lambda: execute_query(
            publications.mapping, publications.db, parse_query(text)
        ),
    }
    for surface, call in [*results.items(), *outcomes.items()]:
        calls.clear()
        returned = call()
        if surface in outcomes:
            assert returned.used_sql, surface
            assert type(returned.answer) is SelectResult, surface
            returned = returned.answer
        assert type(returned) is SelectResult, surface
        assert type(returned.solutions) is list and len(returned.solutions) == 1
        assert len(calls) == 1, surface
    # the endpoint's call alone leaves the rows
    calls.clear()
    assert type(session.answer_outcome(text).answer) is SelectRows
    assert type(prepared.answer_outcome(pub4).answer) is SelectRows
    assert calls == []
