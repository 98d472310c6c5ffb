"""The client reads a write's confirmation off the endpoint's template.

``confirmation_turtle`` fills a fixed template; ``read_confirmation``
matches that same template, so a 200 whose body it wrote skips the
Turtle parser: the feedback is known from the match, and its graph is
parsed only when read.  Held here: every body the template writes takes
that path and reads exactly as the parser would have it; a body that
differs by anything takes the parser's path and reports what it
carries; the two clients return the feedback they always did.
"""

import json

import pytest

from repro import OntoAccess
from repro.core.feedback import confirmation_turtle, read_confirmation
from repro.rdf.graph import Graph
from repro.rdf.namespace import OA, RDF
from repro.rdf.terms import BNode
from repro.rdf.turtle import parse_turtle
from repro.server import Feedback, OntoAccessEndpoint, ReplicatedClient
from repro.server import client as client_mod
from repro.workloads.operations import insert_author_op, insert_team_op
from repro.workloads.publication import build_database, build_mapping, seed_feasibility_data


def _eager(status, body):
    """What the client made of every body before the template reader."""
    try:
        graph = parse_turtle(body)
    except Exception:
        return Feedback(ok=status == 200, graph=Graph(), message=body.strip() or None)
    return Feedback.from_graph(graph, http_ok=status == 200)


@pytest.fixture
def parses(monkeypatch):
    """The client's calls of ``parse_turtle``."""
    calls = []
    real = client_mod.parse_turtle
    monkeypatch.setattr(
        client_mod, "parse_turtle", lambda text: calls.append(text) or real(text)
    )
    return calls


@pytest.mark.parametrize("statements", [0, 1, 3, 10**6])
@pytest.mark.parametrize("operations", [1, 7])
def test_every_template_body_takes_the_template_path(parses, statements, operations):
    body = confirmation_turtle(statements, operations)
    assert read_confirmation(body) == (statements, operations)
    feedback = client_mod._feedback_from_body(200, body)
    assert parses == []  # nothing parsed until the graph is read
    eager = _eager(200, body)
    assert (feedback.ok, feedback.code, feedback.message, feedback.hint) == (
        True, None, None, None
    )
    assert feedback == eager
    assert parses == [body]  # comparing read the graph: parsed once
    assert set(feedback.graph) == set(parse_turtle(body))
    label = body.split("_:", 1)[1].split("\n", 1)[0]
    assert set(feedback.graph.subjects(RDF.type, OA.Confirmation)) == {BNode(label)}
    feedback.graph
    assert len(parses) == 1


def _error_triple(body):
    return body.replace(
        "    a oa:Confirmation ;\n", "    a oa:Confirmation, oa:Error ;\n"
    )


NEAR_MISSES = [
    # (what differs, status, body from a template body) -> what it reports
    ("an added oa:Error triple", 200, _error_triple, False),
    ("status error", 200, lambda b: b.replace('oa:status "ok"', 'oa:status "error"'), True),
    ("a trailing comment", 200, lambda b: b + "# written by hand\n", True),
    ("a 400 status", 400, lambda b: b, False),
]


@pytest.mark.parametrize(
    "what, status, edit, ok", NEAR_MISSES, ids=[case[0] for case in NEAR_MISSES]
)
def test_near_misses_take_the_parser_path(parses, what, status, edit, ok):
    body = edit(confirmation_turtle(3, 1))
    if status == 200:
        assert read_confirmation(body) is None
    feedback = client_mod._feedback_from_body(status, body)
    assert parses == [body]  # read by the parser, at once
    assert feedback == _eager(status, body)
    assert feedback.ok is ok
    assert feedback._turtle is None


def test_an_error_graph_reports_its_code_and_hint(parses):
    body = _error_triple(confirmation_turtle(3, 1)).replace(
        'oa:status "ok" .', 'oa:status "error" ;\n    oa:code "unknown-subject" ;\n'
        '    oa:message "no such table" ;\n    oa:hint "try another" .'
    )
    feedback = client_mod._feedback_from_body(200, body)
    assert (feedback.ok, feedback.code, feedback.message, feedback.hint) == (
        False, "unknown-subject", "no such table", "try another"
    )


@pytest.mark.parametrize(
    "status, body",
    [
        (503, json.dumps({"error": "overloaded", "message": "at capacity"})),
        (400, "batch body must be a JSON array of SPARQL/Update strings"),
        (200, "fine"),
        (200, ""),
    ],
)
def test_bodies_that_are_not_turtle_read_as_before(status, body):
    assert client_mod._feedback_from_body(status, body) == _eager(status, body)


def test_the_constructor_still_takes_a_graph():
    graph = parse_turtle(confirmation_turtle(1))
    feedback = Feedback(ok=True, graph=graph)
    assert feedback.graph is graph
    assert Feedback(ok=False).graph == Graph()
    assert Feedback(True, graph) == Feedback(ok=True, graph=graph)
    assert Feedback(True, graph) != Feedback(False, graph)
    assert "ok=True" in repr(feedback)


def test_nothing_is_kept_across_responses():
    first = client_mod._feedback_from_body(200, confirmation_turtle(1))
    second = client_mod._feedback_from_body(200, confirmation_turtle(2))
    assert first.graph is not second.graph
    assert set(first.graph) != set(second.graph)


@pytest.fixture
def served(monkeypatch):
    """A live endpoint and every (status, body) the client read feedback
    from, paired with the feedback it returned."""
    db = build_database()
    seed_feasibility_data(db)
    seen = []
    real = client_mod._feedback_from_body

    def recording(status, body):
        feedback = real(status, body)
        seen.append((status, body, feedback))
        return feedback

    monkeypatch.setattr(client_mod, "_feedback_from_body", recording)
    with OntoAccessEndpoint(OntoAccess(db, build_mapping(db))) as endpoint:
        yield endpoint, seen


def test_replicated_client_returns_the_feedback_it_always_did(served):
    endpoint, seen = served
    with ReplicatedClient(endpoint.url) as client:
        results = [
            client.update(insert_author_op(901)),
            client.update(insert_author_op(904, team_id=404)),  # missing team
            client.batch([insert_team_op(91), insert_author_op(902, team_id=91)]),
            client.batch([insert_author_op(903, team_id=404)]),  # missing team
        ]
    assert [f.ok for f in results] == [True, False, True, False]
    assert len(seen) == 4
    for (status, body, feedback), result in zip(seen, results):
        assert result is feedback
        assert feedback == _eager(status, body)
        assert (read_confirmation(body) is not None) == feedback.ok
    assert results[1].code and results[1].hint
