"""The serving tier's route policy, held against its own written-out copy.

Every route the endpoint answers decides two things: whether it goes
through admission (a saturated gate sheds it with 503 ``overloaded``) and
which replica policy applies (reads gated with 503 ``replica-syncing`` /
``replica-lagging`` and tagged with ``X-Replica-Lag``, writes refused
with 403 ``read-only-replica``).  :data:`POLICY` below states both for
every route — written out here, not read from the endpoint — and the
tests drive each route over real HTTP under a saturated gate, on a
replica that is still syncing, and on a ready one.

Sockets and a stalled executor: run in CI with ``-p no:randomly``.
"""

import http.client
import json
import threading
import time
import urllib.parse

import pytest

from repro import OntoAccess
from repro.faults import INJECTOR
from repro.replication import Node
from repro.server import OntoAccessEndpoint
from repro.workloads.publication import (
    build_database,
    build_mapping,
    seed_feasibility_data,
)

SELECT = (
    "PREFIX foaf: <http://xmlns.com/foaf/0.1/> "
    "SELECT ?n WHERE { ?x foaf:family_name ?n . }"
)
UPDATE = (
    "PREFIX foaf: <http://xmlns.com/foaf/0.1/> "
    "PREFIX ex: <http://example.org/db/> "
    'INSERT DATA { ex:team9 foaf:name "Routes" . }'
)
GET_QUERY = "/query?" + urllib.parse.urlencode({"query": SELECT})

#: (method, target, body, content type, admitted, replica policy, status
#: on an in-memory primary).  ``explain=analyze`` rides on both /query
#: routes, so it is listed beside them.
POLICY = [
    ("POST", "/update", UPDATE, "application/sparql-update", True, "write", 200),
    ("POST", "/batch", json.dumps([UPDATE]), "application/json", True, "write", 200),
    ("POST", "/query", SELECT, "application/sparql-query", True, "read", 200),
    ("POST", "/query?explain=analyze", SELECT, "application/sparql-query", True, "read", 200),
    ("GET", GET_QUERY, None, None, True, "read", 200),
    ("GET", GET_QUERY + "&explain=analyze", None, None, True, "read", 200),
    ("GET", "/dump", None, None, True, "read", 200),
    ("GET", "/mapping", None, None, False, None, 200),
    ("POST", "/admin/checkpoint", "", "application/json", False, "write", 409),
    ("POST", "/admin/promote", "", "application/json", False, None, 409),
    ("GET", "/health", None, None, False, None, 200),
    ("GET", "/ready", None, None, False, None, 200),
    ("GET", "/metrics", None, None, False, None, 200),
    ("GET", "/admin/stats", None, None, False, None, 200),
    ("GET", "/admin/slow-queries", None, None, False, None, 200),
]
IDS = [f"{method} {target[:40]}" for method, target, *_ in POLICY]


@pytest.fixture(autouse=True)
def clean_injector():
    INJECTOR.clear()
    yield
    INJECTOR.clear()


def _endpoint(replica=None, **kwargs):
    db = build_database()
    seed_feasibility_data(db)
    node = None
    if replica is not None:
        node = _UnpromotableNode(db, replica=replica, max_replica_lag=5.0)
    return OntoAccessEndpoint(OntoAccess(db, build_mapping(db)), node=node, **kwargs)


def _send(port, method, target, body, content_type):
    """One request over a fresh connection: (status, headers, body)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10.0)
    try:
        headers = {"Content-Type": content_type} if content_type else {}
        conn.request(
            method, target,
            body=None if body is None else body.encode("utf-8"),
            headers=headers,
        )
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        conn.close()


def _error(body):
    try:
        return json.loads(body).get("error")
    except (ValueError, AttributeError):
        return None


class _FakeReplica:
    """What a node reads of a replica: epoch, readiness, lag, status."""

    role = "replica"
    epoch = 1

    def __init__(self, ready, lag):
        self.ready = ready
        self._lag = lag

    def lag(self):
        return self._lag

    def status(self):
        return {"role": self.role, "epoch": self.epoch, "ready": self.ready}

    def metrics(self):
        return {}


class _UnpromotableNode(Node):
    """A replica node with no promotion path: /admin/promote stays 409,
    as :data:`POLICY` says."""

    promotable = False


def test_policy_lists_every_route():
    routes = {(method, target.split("?")[0]) for method, target, *_ in POLICY}
    assert len(routes) == 13


def test_saturated_gate_sheds_admitted_routes_only():
    """One stalled query holds the only slot; every admitted route sheds
    503 ``overloaded``, every exempt route answers as it would idle."""
    release = threading.Event()
    INJECTOR.inject("executor:scan", stall=release)
    endpoint = _endpoint(max_in_flight=1, max_queue=0, queue_timeout=0.05)
    stalled = []
    outcomes = {}
    with endpoint:
        worker = threading.Thread(
            target=lambda: stalled.append(
                _send(endpoint.port, "POST", "/query", SELECT,
                      "application/sparql-query")
            ),
            daemon=True,
        )
        worker.start()
        deadline = time.monotonic() + 5.0
        while endpoint.serving_stats()["in_flight"] < 1:
            assert time.monotonic() < deadline, "first request never admitted"
            time.sleep(0.005)
        try:
            for method, target, body, ctype, *_ in POLICY:
                outcomes[method, target] = _send(
                    endpoint.port, method, target, body, ctype
                )
        finally:
            release.set()
            worker.join(timeout=10.0)
    assert stalled and stalled[0][0] == 200
    for method, target, _, _, admitted, _, idle_status in POLICY:
        status, headers, body = outcomes[method, target]
        if admitted:
            assert (status, _error(body)) == (503, "overloaded"), (method, target)
            assert "Retry-After" in headers
        else:
            assert status == idle_status, (method, target, status, body)


@pytest.mark.parametrize("route", POLICY, ids=IDS)
def test_syncing_replica_gates_reads_and_refuses_writes(route):
    method, target, body, ctype, _, policy, idle_status = route
    with _endpoint(replica=_FakeReplica(ready=False, lag=float("inf"))) as endpoint:
        status, headers, payload = _send(endpoint.port, method, target, body, ctype)
    if policy == "read":
        assert (status, _error(payload)) == (503, "replica-syncing")
    elif policy == "write":
        assert (status, _error(payload)) == (403, "read-only-replica")
    elif target == "/ready":
        # readiness is the route's own answer, not a policy refusal
        assert (status, _error(payload)) == (503, "replica-syncing")
    else:
        assert status == idle_status, payload
    assert "X-Replica-Lag" not in headers


@pytest.mark.parametrize("route", POLICY, ids=IDS)
def test_ready_replica_tags_reads_with_their_lag(route):
    method, target, body, ctype, _, policy, idle_status = route
    with _endpoint(replica=_FakeReplica(ready=True, lag=0.25)) as endpoint:
        status, headers, payload = _send(endpoint.port, method, target, body, ctype)
    if policy == "read":
        assert status == 200, payload
        assert headers["X-Replica-Lag"] == "0.250"
    else:
        assert "X-Replica-Lag" not in headers
        if policy == "write":
            assert (status, _error(payload)) == (403, "read-only-replica")
        else:
            assert status == idle_status, payload
