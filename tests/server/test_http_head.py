"""The endpoint's HTTP/1.1 head rules, over raw sockets.

Every request head is read by :func:`repro.server.protocol.read_head`.
A head it will not read is answered with its status and the connection
closes, so nothing the peer sent after it is read as a request.  Heads
that were always accepted (mixed-case names, an identical duplicate
``Content-Length``, ``Expect: 100-continue``, an HTTP/1.0 peer, a ``//``
path) are still answered.  Responses are parsed with ``http.client``,
not with the code under test.

Sockets: run in CI with ``-p no:randomly``.
"""

import http.client
import io
import json
import socket

import pytest

from repro import OntoAccess
from repro.server import OntoAccessEndpoint, protocol
from repro.server.protocol import FramingError, Headers, read_head
from repro.workloads.generator import WorkloadConfig, build_populated_database
from repro.workloads.publication import build_mapping

QUERY = (
    "PREFIX foaf: <http://xmlns.com/foaf/0.1/> "
    "PREFIX ex: <http://example.org/db/> "
    "SELECT ?n WHERE { ex:author3 foaf:family_name ?n . }"
).encode()
JSON_RESULTS = "application/sparql-results+json"


@pytest.fixture(scope="module")
def endpoint():
    db = build_populated_database(
        WorkloadConfig(authors=10, publications=10, seed=5)
    )
    with OntoAccessEndpoint(OntoAccess(db, build_mapping(db))) as endpoint:
        yield endpoint


class _Stream(io.BytesIO):
    def close(self) -> None:  # http.client closes its file after a body
        pass


class _Replay:
    """What ``http.client.HTTPResponse`` needs of a socket."""

    def __init__(self, stream: _Stream) -> None:
        self.stream = stream

    def makefile(self, mode: str) -> _Stream:
        return self.stream


def _responses(data: bytes):
    """Every response in ``data``, as (status, headers, body)."""
    stream = _Stream(data)
    answers = []
    while stream.tell() < len(data):
        response = http.client.HTTPResponse(_Replay(stream))
        response.begin()
        answers.append(
            (response.status, dict(response.getheaders()), response.read())
        )
    return answers


def _send(port: int, *parts: bytes, wait_continue: bool = False):
    """Send ``parts`` and read until the server closes; (responses,
    closed).  ``closed`` is False when the server kept the connection
    open past the read timeout."""
    received = []
    closed = True
    with socket.create_connection(("127.0.0.1", port), timeout=3.0) as sock:
        for index, part in enumerate(parts):
            sock.sendall(part)
            if wait_continue and index == 0:
                received.append(sock.recv(65536))
        try:
            while True:
                data = sock.recv(65536)
                if not data:
                    break
                received.append(data)
        except socket.timeout:
            closed = False
    return _responses(b"".join(received)), closed


def _post_query(head_fields: bytes, body: bytes = QUERY,
                target: bytes = b"/query", version: bytes = b"HTTP/1.1"):
    return (
        b"POST " + target + b" " + version + b"\r\nHost: x\r\n"
        + head_fields + b"\r\n" + body
    )


def _health(fields: bytes = b"", version: bytes = b"HTTP/1.1") -> bytes:
    return b"GET /health " + version + b"\r\nHost: x\r\n" + fields + b"\r\n"


#: (why, raw request, status).  Each is refused, and a /health request
#: pipelined behind it must never be answered.
REFUSED = [
    ("too many headers",
     _health(b"".join(b"X-H%d: v\r\n" % i for i in range(101))), 431),
    ("over-long header line", _health(b"X-Long: " + b"a" * 70000 + b"\r\n"), 431),
    ("bad version", _health(version=b"HTTP/1.x"), 400),
    ("HTTP/2.0", _health(version=b"HTTP/2.0"), 505),
    ("line without a colon", _health(b"Bogus line\r\n"), 400),
    ("obs-fold", _health(b"X-A: 1\r\n  continued\r\n"), 400),
    ("conflicting Content-Length",
     _post_query(b"Content-Length: %d\r\nContent-Length: %d\r\n"
                 % (len(QUERY), len(QUERY) - 1)), 400),
    ("space before the colon",
     _post_query(b"Content-Length : %d\r\n" % len(QUERY)), 400),
]


@pytest.mark.parametrize(
    "raw, status", [case[1:] for case in REFUSED], ids=[case[0] for case in REFUSED]
)
def test_a_head_it_will_not_read_is_refused_and_closed(endpoint, raw, status):
    answers, closed = _send(endpoint.port, raw + _health())
    assert [answer[0] for answer in answers] == [status]
    assert closed


def test_conflicting_content_length_is_refused(endpoint):
    """Two different lengths: the two ends would disagree about where
    the body ends.  Answering with the first and reading the rest as a
    request is request smuggling."""
    raw = _post_query(
        b"Content-Type: application/sparql-query\r\n"
        b"Content-Length: %d\r\nContent-Length: 5\r\n" % len(QUERY)
    )
    answers, closed = _send(endpoint.port, raw)
    assert [answer[0] for answer in answers] == [400]
    assert closed


def test_space_before_the_colon_is_refused(endpoint):
    """``Content-Length : N`` (RFC 9112 §5.1): ignoring the field would
    read the body as the next request."""
    raw = _post_query(
        b"Content-Type: application/sparql-query\r\n"
        b"Content-Length : %d\r\n" % len(QUERY)
    )
    answers, closed = _send(endpoint.port, raw)
    assert [answer[0] for answer in answers] == [400]
    assert closed


def _bindings(body: bytes):
    return json.loads(body)["results"]["bindings"]


def test_mixed_case_names_are_read(endpoint):
    raw = _post_query(
        b"content-TYPE: application/sparql-query\r\nACCEPT: %s\r\n"
        b"cOnTeNt-LeNgTh: %d\r\nX-REQUEST-ID: mixed-1\r\nconnection: CLOSE\r\n"
        % (JSON_RESULTS.encode(), len(QUERY))
    )
    [(status, headers, body)], closed = _send(endpoint.port, raw)
    assert status == 200 and closed
    assert headers["Content-Type"] == JSON_RESULTS
    assert headers["X-Request-Id"] == "mixed-1"
    assert len(_bindings(body)) == 1


def test_an_identical_duplicate_content_length_is_accepted(endpoint):
    raw = _post_query(
        b"Accept: %s\r\nContent-Length: %d\r\nContent-Length: %d\r\n"
        b"Connection: close\r\n" % (JSON_RESULTS.encode(), len(QUERY), len(QUERY))
    )
    [(status, _, body)], closed = _send(endpoint.port, raw)
    assert status == 200 and closed
    assert len(_bindings(body)) == 1


def test_expect_100_continue_gets_the_interim_answer_first(endpoint):
    head = _post_query(
        b"Accept: %s\r\nContent-Length: %d\r\nExpect: 100-continue\r\n"
        b"Connection: close\r\n" % (JSON_RESULTS.encode(), len(QUERY)),
        body=b"",
    )
    with socket.create_connection(("127.0.0.1", endpoint.port), timeout=3.0) as sock:
        sock.sendall(head)
        interim = sock.recv(65536)
        sock.sendall(QUERY)
        rest = []
        while True:
            data = sock.recv(65536)
            if not data:
                break
            rest.append(data)
    assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
    [(status, _, body)] = _responses(b"".join(rest))
    assert status == 200
    assert len(_bindings(body)) == 1


def test_an_http10_peer_gets_a_fixed_length_answer_and_a_close(endpoint):
    raw = _post_query(
        b"Accept: %s\r\nContent-Length: %d\r\n" % (JSON_RESULTS.encode(), len(QUERY)),
        version=b"HTTP/1.0",
    )
    [(status, headers, body)], closed = _send(endpoint.port, raw + _health())
    assert status == 200 and closed
    assert "Transfer-Encoding" not in headers
    assert int(headers["Content-Length"]) == len(body)
    assert len(_bindings(body)) == 1


def test_a_double_slash_path_is_the_single_slash_route(endpoint):
    raw = _post_query(
        b"Accept: %s\r\nContent-Length: %d\r\nConnection: close\r\n"
        % (JSON_RESULTS.encode(), len(QUERY)),
        target=b"//query",
    )
    [(status, _, body)], closed = _send(endpoint.port, raw)
    assert status == 200 and closed
    assert len(_bindings(body)) == 1


def test_keep_alive_answers_each_pipelined_request(endpoint):
    raw = _post_query(
        b"Accept: %s\r\nContent-Length: %d\r\n" % (JSON_RESULTS.encode(), len(QUERY))
    )
    answers, closed = _send(
        endpoint.port, raw + raw + _health(b"Connection: close\r\n")
    )
    assert [answer[0] for answer in answers] == [200, 200, 200]
    assert closed
    for _, headers, _ in answers:
        assert headers["Server"].startswith("BaseHTTP/")
        assert headers["Date"].endswith(" GMT")


def test_in_process_headers_are_read_in_any_case(endpoint):
    """``handle()`` lower-cases a plain dict's names once: an in-process
    caller and the wire find the same fields."""
    answers = [
        endpoint.handle("POST", "/query", headers, QUERY.decode()).body
        for headers in (
            {"Content-Type": "application/sparql-query", "Accept": JSON_RESULTS},
            {"content-type": "application/sparql-query", "ACCEPT": JSON_RESULTS},
        )
    ]
    assert answers[0] == answers[1]
    assert len(json.loads(answers[0])["results"]["bindings"]) == 1


class TestReadHead:
    def test_first_occurrence_wins_and_lookup_ignores_case(self):
        stream = io.BytesIO(
            b"X-A: first\r\nx-a: second\r\nContent-Type:  a/b \r\n\r\nbody"
        )
        headers = read_head(stream.readline)
        assert isinstance(headers, Headers)
        assert headers.get("X-A") == headers["x-A"] == "first"
        assert "CONTENT-TYPE" in headers and headers["content-type"] == "a/b"
        assert headers.get("Missing", "-") == "-"
        assert stream.read() == b"body"

    def test_limits_are_the_stdlibs(self):
        fields = b"".join(b"X-%d: v\r\n" % i for i in range(protocol.MAX_HEADERS))
        assert len(read_head(io.BytesIO(fields + b"\r\n").readline)) == 100
        with pytest.raises(FramingError) as caught:
            read_head(io.BytesIO(fields + b"X-Last: v\r\n\r\n").readline)
        assert caught.value.status == 431
        longest = b"X: " + b"a" * (protocol.MAX_LINE - 5) + b"\r\n"
        assert len(read_head(io.BytesIO(longest + b"\r\n").readline)) == 1
        with pytest.raises(FramingError) as caught:
            read_head(io.BytesIO(b"a" + longest + b"\r\n").readline)
        assert caught.value.status == 431

    @pytest.mark.parametrize("head", [
        b"No colon here\r\n\r\n",
        b": no name\r\n\r\n",
        b"X-A: 1\r\n\tfolded\r\n\r\n",
        b"X-A\t: 1\r\n\r\n",
        b"Content-Length: 1\r\ncontent-length: 2\r\n\r\n",
    ])
    def test_unreadable_heads_are_400(self, head):
        with pytest.raises(FramingError) as caught:
            read_head(io.BytesIO(head).readline)
        assert caught.value.status == 400

    def test_end_of_input_ends_the_head(self):
        assert read_head(io.BytesIO(b"X-A: 1\r\n").readline) == {"x-a": "1"}
