"""One request scope: the request id, trace record, analyze probe,
deadline and admission slot a request runs under.

``RequestScope`` installs what it holds on one thread-local with class
defaults (:data:`repro.observability.tracing.current`), which
``tracing`` and ``deadline`` both read; the endpoint enters one per
request, and ``request_scope`` / ``trace_scope`` / ``analyze_scope`` /
``deadline_scope`` are each one scope.  Held here: their nesting rules
(an outer id wins, the tighter deadline wins, an inner trace or probe
shadows the outer one until exit), that a thread which never opened a
scope reads None without a failed attribute lookup, what the endpoint's
one scope carries into a handler and releases on exit, and the request
id helpers.
"""

import io
import re
import threading
import time

import pytest

from repro import OntoAccess
from repro.deadline import Deadline, current_deadline, deadline_scope
from repro.observability.metrics import REQUESTS
from repro.observability import tracing
from repro.observability.tracing import (
    RequestScope,
    analyze_scope,
    annotate,
    current_probe,
    current_request_id,
    current_trace,
    new_request_id,
    request_scope,
    sanitize_request_id,
    trace_scope,
)
from repro.server import OntoAccessEndpoint
from repro.server import endpoint as endpoint_mod
from repro.workloads.publication import build_database, build_mapping, seed_feasibility_data


def _state():
    return (current_request_id(), current_trace(), current_probe(), current_deadline())


class TestNesting:
    def test_an_outer_request_id_wins(self):
        with request_scope("outer") as outer:
            with request_scope("inner") as inner:
                assert inner == outer == "outer" == current_request_id()
            with request_scope() as generated:
                assert generated == "outer"
        assert current_request_id() is None
        with request_scope() as generated:
            assert re.fullmatch(r"[0-9a-f]{16}", generated)

    def test_the_tighter_deadline_wins(self):
        with deadline_scope(30) as outer:
            with deadline_scope(60) as looser:
                assert looser is outer is current_deadline()
            with deadline_scope(0.5) as tighter:
                assert tighter is not outer and current_deadline() is tighter
                with deadline_scope(None) as unchanged:
                    assert unchanged is tighter
            assert current_deadline() is outer
            given = Deadline(10)
            with deadline_scope(given) as inner:
                assert inner is given
        assert current_deadline() is None

    def test_an_inner_trace_and_probe_shadow_the_outer_ones(self):
        with trace_scope(op="outer") as outer:
            with trace_scope(op="inner") as inner:
                annotate(rows=3)
                assert current_trace() is inner
            assert inner == {"op": "inner", "rows": 3}
            assert outer == {"op": "outer"}
            with analyze_scope() as probe:
                with analyze_scope() as nested:
                    assert current_probe() is nested is not probe
                assert current_probe() is probe
                assert current_trace() is outer
            assert current_probe() is None
        assert current_trace() is None

    def test_one_scope_holds_everything_and_puts_the_outer_values_back(self):
        released = []
        with request_scope("outer"), deadline_scope(30):
            before = _state()
            with RequestScope("inner", trace={}) as scope:
                assert scope.request_id == "outer"
                assert current_trace() is scope.trace
                assert scope.deadline is before[3]
                scope.hold(Deadline(5), lambda: released.append(_state()))
                assert current_deadline() is scope.deadline is not before[3]
            assert _state() == before
            # the slot is released after the outer values are back
            assert released == [before]
            with RequestScope() as scope:
                scope.hold(Deadline(60))  # looser than the outer 30 s
                assert current_deadline() is before[3]
                scope.hold(None)
                assert current_deadline() is before[3]

    def test_exit_restores_on_an_exception(self):
        with pytest.raises(ZeroDivisionError):
            with request_scope("x"), trace_scope(), analyze_scope(), deadline_scope(9):
                1 / 0
        assert _state() == (None, None, None, None)


def test_a_thread_that_never_opened_a_scope_reads_class_defaults():
    seen = {}

    def read():
        seen["state"] = _state()
        # nothing was set on this thread: every read was a class default
        seen["own"] = dict(vars(tracing.current))

    thread = threading.Thread(target=read)
    thread.start()
    thread.join(10)
    assert seen == {"state": (None, None, None, None), "own": {}}


def test_scopes_are_per_thread():
    inside = threading.Event()
    leave = threading.Event()
    seen = []

    def worker():
        with request_scope("worker"), deadline_scope(30):
            inside.set()
            leave.wait(10)

    thread = threading.Thread(target=worker)
    thread.start()
    assert inside.wait(10)
    seen.append(_state())
    leave.set()
    thread.join(10)
    assert seen == [(None, None, None, None)]


# ---------------------------------------------------------------------------
# the endpoint enters one scope per request
# ---------------------------------------------------------------------------

ASK = (
    "PREFIX foaf: <http://xmlns.com/foaf/0.1/> "
    "ASK { ?x foaf:family_name ?n . }"
)


@pytest.fixture
def endpoint():
    db = build_database()
    seed_feasibility_data(db)
    return OntoAccessEndpoint(OntoAccess(db, build_mapping(db)))


@pytest.fixture
def inside_handler(endpoint, monkeypatch):
    """What the /query handler sees of the request scope, per call."""
    seen = []
    key = ("POST", "/query")
    real = endpoint_mod.ROUTES[key].handler

    def query(self, request):
        seen.append({
            "request_id": current_request_id(),
            "trace": dict(current_trace() or {}),
            "deadline": current_deadline(),
            "in_flight": self._gate.stats()["in_flight"],
        })
        return real(self, request)

    monkeypatch.setitem(
        endpoint_mod.ROUTES, key, endpoint_mod.ROUTES[key]._replace(handler=query)
    )
    return seen


def test_a_handler_runs_under_the_request_scope(endpoint, inside_handler):
    sent = []

    def send(response, deadline):
        sent.append((deadline, current_request_id(), current_deadline()))

    response = endpoint.handle(
        "POST", "/query?timeout=7", {"X-Request-Id": "req-1"}, ASK, send=send
    )
    assert response.status == 200
    [seen] = inside_handler
    assert seen["request_id"] == "req-1"
    assert seen["trace"]["request_id"] == "req-1" and seen["trace"]["op"] == "query"
    assert 6 < seen["deadline"].remaining() <= 7
    assert seen["in_flight"] == 1
    # the send runs inside the scope, under the same deadline
    assert sent == [(seen["deadline"], "req-1", seen["deadline"])]
    # and nothing outlives the request: slot released, thread clean
    assert endpoint._gate.stats()["in_flight"] == 0
    assert _state() == (None, None, None, None)


def test_an_id_is_generated_and_an_outer_one_wins(endpoint, inside_handler):
    endpoint.handle("POST", "/query", {}, ASK)
    with request_scope("outer-id"), deadline_scope(3):
        endpoint.handle("POST", "/query?timeout=60", {"X-Request-Id": "hdr"}, ASK)
        assert current_request_id() == "outer-id"
    generated, nested = inside_handler
    assert re.fullmatch(r"[0-9a-f]{16}", generated["request_id"])
    assert generated["deadline"].budget == endpoint.default_timeout
    assert nested["request_id"] == "outer-id"
    assert nested["deadline"].remaining() <= 3  # the tighter one


def test_a_shed_or_refused_request_releases_nothing_it_did_not_hold(endpoint):
    endpoint._gate.max_in_flight = 0
    endpoint._gate.queue_timeout = 0.0
    assert endpoint.handle("POST", "/query", {}, ASK).status == 503
    assert endpoint.handle("POST", "/query?timeout=-1", {}, ASK).status == 400
    assert endpoint._gate.stats()["in_flight"] == 0
    endpoint._gate.max_in_flight = 1
    assert endpoint.handle("POST", "/query", {}, ASK).status == 200
    assert endpoint._gate.stats()["in_flight"] == 0
    assert _state() == (None, None, None, None)


def test_a_failing_send_still_releases_the_slot(endpoint):
    def send(response, deadline):
        raise OSError("peer went away")

    with pytest.raises(OSError):
        endpoint.handle("POST", "/query", {}, ASK, send=send)
    assert endpoint._gate.stats()["in_flight"] == 0
    assert _state() == (None, None, None, None)


# ---------------------------------------------------------------------------
# the work after the send
# ---------------------------------------------------------------------------

class _Counting:
    """A metric family whose ``labels`` calls are recorded."""

    def __init__(self, family, calls):
        self.family, self.calls = family, calls

    def labels(self, *values):
        self.calls.append(values)
        return self.family.labels(*values)


def test_metric_children_are_resolved_once_per_op_and_status(endpoint, monkeypatch):
    calls = []
    for name in ("REQUESTS", "REQUEST_SECONDS"):
        monkeypatch.setattr(endpoint_mod, name, _Counting(getattr(endpoint_mod, name), calls))
    served = REQUESTS.labels("query", "200").value()
    for _ in range(5):
        endpoint.handle("POST", "/query", {}, ASK)
    for _ in range(2):
        assert endpoint.handle("POST", "/query", {}, "NOT SPARQL").status == 400
    assert calls == [("query", "200"), ("query",), ("query", "400"), ("query",)]
    assert REQUESTS.labels("query", "200").value() == served + 5


def test_the_log_entry_is_built_only_for_a_sink_or_the_slow_log(endpoint, monkeypatch):
    entries = []
    monkeypatch.setattr(endpoint, "_log_access", entries.append)
    assert endpoint.access_log is None and endpoint.query_log.threshold == 1.0
    endpoint.handle("POST", "/query", {}, ASK)
    assert entries == []
    endpoint.query_log.threshold = 0.0
    endpoint.handle("POST", "/query", {"X-Request-Id": "slow"}, ASK)
    assert [e["request_id"] for e in entries] == ["slow"]
    assert endpoint.query_log.snapshot() == entries
    endpoint.query_log.threshold = None
    endpoint.access_log = io.StringIO()
    endpoint.handle("POST", "/query", {"X-Request-Id": "logged"}, ASK)
    assert [e["request_id"] for e in entries] == ["slow", "logged"]
    assert len(endpoint.query_log.snapshot()) == 1
    assert list(entries[-1]) == [
        "request_id", "op", "status", "total_s", "queue_wait_s", "execute_s",
        "serialize_s", "backend", "used_sql",
    ]


# ---------------------------------------------------------------------------
# request ids
# ---------------------------------------------------------------------------

def _reference_sanitize(raw):
    """The character filter every id went through before the clean-id
    shortcut: printable ASCII kept, capped at 128, outer spaces dropped."""
    if not raw:
        return None
    cleaned = "".join(ch for ch in raw if 32 <= ord(ch) < 127)[:128].strip()
    return cleaned or None


SANITIZE_TABLE = [
    None, "", "abc", "drive-1", "a" * 128, "a" * 129, "b" * 300,
    " lead", "trail ", "  both  ", " ", "   ", "in side",
    "tab\there", "nl\nx", "\x00nul", "cr\r", "\x1fus", "del\x7f", "\x7f",
    "café", "é", "snow☃man", "emoji\U0001f600", " nbsp",
    "\x85nel", " \x00 ", "x" * 127 + " ", " " + "y" * 128,
    "\x00" + "z" * 128, "z" * 128 + "\x00", "é" * 200,
    "~!@#$%^&*()_+{}|:\"<>?`-=[]\\;',./",
]


@pytest.mark.parametrize("raw", SANITIZE_TABLE)
def test_sanitize_matches_the_character_filter(raw):
    assert sanitize_request_id(raw) == _reference_sanitize(raw)


def test_a_clean_id_is_returned_as_it_is():
    raw = "".join(chr(c) for c in range(33, 127))
    assert sanitize_request_id(raw) is raw
    assert sanitize_request_id("a" * 128) == "a" * 128


def test_new_request_ids_are_sixteen_lowercase_hex_characters():
    ids = {new_request_id() for _ in range(1000)}
    assert len(ids) == 1000
    assert all(re.fullmatch(r"[0-9a-f]{16}", rid) for rid in ids)
    assert all(sanitize_request_id(rid) is rid for rid in ids)


def test_deadline_scope_accepts_seconds_and_deadlines():
    with deadline_scope(0.05) as deadline:
        assert isinstance(deadline, Deadline) and deadline.budget == 0.05
        time.sleep(0.06)
        assert deadline.expired()
    with pytest.raises(ValueError):
        with deadline_scope(0):
            pass
    assert current_deadline() is None
