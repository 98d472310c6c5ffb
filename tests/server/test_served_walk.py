"""A real ``repro serve`` process, walked route by route.

Boots ``python -m repro serve --data-dir … --replication-port 0`` once,
sends every route and a set of malformed inputs, and requires each to
get a complete HTTP response with its status — never a dropped
connection — and to be counted exactly once.  Then scrapes ``/metrics``:
the exposition must lint clean and carry the families dashboards and the
benchmark key on.

A subprocess and sockets: run in CI with ``-p no:randomly``.
"""

import http.client
import json
import os
import re
import socket
import subprocess
import sys
import time
import urllib.parse

import pytest

from repro.observability import lint_exposition

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

SELECT = (
    "PREFIX foaf: <http://xmlns.com/foaf/0.1/> "
    "SELECT ?n WHERE { ?x foaf:family_name ?n . }"
)
UPDATE = (
    "PREFIX foaf: <http://xmlns.com/foaf/0.1/> "
    "PREFIX ex: <http://example.org/db/> "
    'INSERT DATA { ex:team%d foaf:name "Walk" . }'
)


def _post(target, payload, content_type=b"text/plain"):
    """A POST head + body with a correct Content-Length."""
    return (
        b"POST %s HTTP/1.1\r\nContent-Type: %s\r\nContent-Length: %d\r\n"
        % (target.encode("ascii"), content_type, len(payload)),
        payload,
    )


def _get(target):
    return b"GET %s HTTP/1.1\r\n" % target.encode("ascii"), b""


#: Every route, as (request head without Host/Connection, body, status).
ROUTE_WALK = [
    (*_post("/update", UPDATE.encode() % 11), 200),
    (*_post("/batch", json.dumps([UPDATE % 12]).encode(), b"application/json"), 200),
    (*_post("/query", SELECT.encode()), 200),
    (*_post("/query?explain=analyze", SELECT.encode()), 200),
    (*_get("/query?" + urllib.parse.urlencode({"query": SELECT})), 200),
    (*_get("/dump"), 200),
    (*_get("/mapping"), 200),
    (*_post("/admin/checkpoint", b""), 200),
    (*_post("/admin/promote", b""), 409),  # a primary has no promotion path
    (*_get("/health"), 200),
    (*_get("/ready"), 200),
    (*_get("/metrics"), 200),
    (*_get("/admin/stats"), 200),
    (*_get("/admin/slow-queries"), 200),
]

#: Malformed inputs, in the same form.
MALFORMED = [
    (*_post("/update", b"INSERT DATA { \xff\xfe }"), 400),  # not UTF-8
    (*_post("/query", b"\xff\xfe"), 400),
    (*_post("/batch", b"\xff\xfe"), 400),
    (b"POST /update HTTP/1.1\r\nContent-Length: -1\r\n", b"", 400),
    (b"POST /update HTTP/1.1\r\nContent-Length: abc\r\n", b"", 400),
    (b"POST /update HTTP/1.1\r\nTransfer-Encoding: chunked\r\n", b"0\r\n\r\n", 411),
    (*_get("/nope"), 404),
    (*_post("/nope", b""), 404),
    (b"POST /update HTTP/1.1\r\nContent-Length: 999999999\r\n", b"", 413),
]

FAMILIES = (
    "repro_requests_total",
    "repro_request_seconds",
    "repro_serving_in_flight",
    "repro_executor_rows_total",
    "repro_wal_appends",
    "repro_shipper_frames_shipped",
    "repro_replica_role_primary",
    "repro_plan_cache_hits",
    "repro_plan_cache_entries",
)


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """The served process's port; stopped after the module."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--data-dir", str(tmp_path_factory.mktemp("served")),
         "--replication-port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, env=env,
    )
    try:
        port = None
        deadline = time.monotonic() + 60.0
        while port is None:
            line = proc.stdout.readline()
            assert line and time.monotonic() < deadline, "serve never announced"
            match = re.search(r"endpoint at http://[^:]+:(\d+)", line)
            if match:
                port = int(match.group(1))
        yield port
    finally:
        proc.terminate()
        proc.wait(timeout=10)
        proc.stdout.close()


def _exchange(port, head, body=b""):
    """Send one request on a fresh connection and parse the answer with
    http.client, which raises on a truncated or missing response."""
    with socket.create_connection(("127.0.0.1", port), timeout=10.0) as sock:
        sock.sendall(head + b"Host: x\r\nConnection: close\r\n\r\n" + body)
        response = http.client.HTTPResponse(sock)
        response.begin()
        return response.status, response.read()


def _served_so_far(port):
    status, body = _exchange(port, b"GET /admin/stats HTTP/1.1\r\n")
    assert status == 200
    return json.loads(body)["requests"]


def test_every_request_gets_a_complete_counted_answer(served):
    before = _served_so_far(served)
    errors = 0
    for head, body, expected in ROUTE_WALK + MALFORMED:
        status, payload = _exchange(served, head, body)
        assert status == expected, (head, status, payload)
        errors += status >= 400
    after = _served_so_far(served)
    # the first /admin/stats is counted once it has answered; nothing
    # else was sent meanwhile
    walked = len(ROUTE_WALK) + len(MALFORMED)
    assert after["served"] == before["served"] + 1 + walked
    assert after["errors"] == before["errors"] + errors


def test_metrics_scrape_lints_clean_with_the_dashboard_families(served):
    status, _ = _exchange(served, *_post("/query", SELECT.encode()))
    assert status == 200
    status, body = _exchange(served, b"GET /metrics HTTP/1.1\r\n")
    assert status == 200
    text = body.decode("utf-8")
    assert lint_exposition(text) == []
    for family in FAMILIES:
        assert f"\n{family}" in text or text.startswith(family), family
