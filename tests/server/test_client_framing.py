"""How ``OntoAccessClient`` reads responses, against a scripted peer.

The peer is a plain listening socket that answers each request with the
next scripted bytes, so every framing the client must read — and every
broken one it must refuse — is sent exactly as written here: bodies by
``Content-Length``, by chunks and to the end of input; HTTP/1.0 and
``Connection: close`` (the next call reconnects); a connection closed
before the status line, a truncated body and an over-large head.

Sockets: run in CI with ``-p no:randomly``.
"""

import ast
import pathlib
import socket
import threading

import pytest

from repro.errors import EndpointTransportError
from repro.server import OntoAccessClient
from repro.server import client as client_module
from repro.server.client import RetryPolicy, _never_delivered

QUERY = "SELECT ?s WHERE { ?s ?p ?o }"
UPDATE = "INSERT DATA { <urn:a> <urn:b> <urn:c> }"

#: a peer reply that closes the connection without answering
HANG_UP = None


def _ok(body: bytes, *fields: bytes) -> bytes:
    return (
        b"HTTP/1.1 200 OK\r\n" + b"".join(f + b"\r\n" for f in fields)
        + b"Content-Length: %d\r\n\r\n" % len(body) + body
    )


class _Peer:
    """Answers request ``n`` with ``replies[n]``: ``(bytes, close)``,
    or :data:`HANG_UP`.  Records every request and connection."""

    def __init__(self, replies) -> None:
        self.replies = list(replies)
        self.requests = []
        self.connections = 0
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(5.0)
        self.port = self._listener.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        try:
            while self.replies:
                conn, _ = self._listener.accept()
                self.connections += 1
                with conn, conn.makefile("rb") as stream:
                    while self.replies:
                        request = self._read_request(stream)
                        if request is None:
                            break  # the client closed this connection
                        self.requests.append(request)
                        reply = self.replies.pop(0)
                        if reply is HANG_UP:
                            break
                        data, close = reply
                        conn.sendall(data)
                        if close:
                            break
        except OSError:
            pass
        finally:
            self._listener.close()

    @staticmethod
    def _read_request(stream):
        lines = []
        while True:
            line = stream.readline()
            if not line:
                return None
            if line == b"\r\n":
                break
            lines.append(line.decode("iso-8859-1").rstrip("\r\n"))
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.lower() == "content-length":
                length = int(value)
        return lines, stream.read(length)

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.port}"

    def client(self, attempts: int = 1) -> OntoAccessClient:
        return OntoAccessClient(
            self.url, timeout=5.0,
            retry=RetryPolicy(max_attempts=attempts, base_delay=0.0),
            sleep=lambda delay: None,
        )

    def join(self) -> None:
        self._thread.join(5.0)


def test_the_request_is_one_well_formed_message():
    peer = _Peer([(_ok(b"done"), False)])
    with peer.client() as client:
        assert client.query_text(QUERY) == "done"
    peer.join()
    [(lines, body)] = peer.requests
    assert lines[0] == "POST /query HTTP/1.1"
    assert f"Host: 127.0.0.1:{peer.port}" in lines
    assert "Content-Type: application/sparql-query" in lines
    assert f"Content-Length: {len(QUERY)}" in lines
    assert any(line.startswith("X-Request-Id: ") for line in lines)
    assert body == QUERY.encode()


def test_bodies_by_length_by_chunks_and_to_the_end_of_input():
    chunked = (
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
        b"3;name=value\r\nabc\r\n2\r\nde\r\n0\r\nX-Trailer: t\r\n\r\n"
    )
    peer = _Peer([
        (_ok(b"by length"), False),
        (chunked, False),
        (_ok(b"still the same connection"), False),
        (b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n\r\nto the end", True),
        (_ok(b"reconnected"), False),
    ])
    with peer.client() as client:
        assert client.query_text(QUERY) == "by length"
        assert client.query_text(QUERY) == "abcde"
        assert client.query_text(QUERY) == "still the same connection"
        assert peer.connections == 1  # the trailer was read, nothing left over
        assert client.query_text(QUERY) == "to the end"
        assert client.query_text(QUERY) == "reconnected"
    peer.join()
    assert peer.connections == 2


@pytest.mark.parametrize("reply", [
    b"HTTP/1.0 200 OK\r\nContent-Length: 5\r\n\r\nfirst",
    b"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 5\r\n\r\nfirst",
], ids=["http10", "connection-close"])
def test_the_next_call_reconnects_after_a_closing_answer(reply):
    # The peer keeps its end open: the client must not wait for it.
    peer = _Peer([(reply, False), (_ok(b"second"), False)])
    with peer.client() as client:
        assert client.query_text(QUERY) == "first"
        assert client.query_text(QUERY) == "second"
    peer.join()
    assert peer.connections == 2


def test_a_query_closed_before_the_status_line_is_retried():
    peer = _Peer([HANG_UP, (_ok(b"retried"), False)])
    with peer.client(attempts=2) as client:
        assert client.query_text(QUERY) == "retried"
    peer.join()
    assert len(peer.requests) == 2 and peer.connections == 2


def test_an_update_closed_before_the_status_line_is_never_resent():
    peer = _Peer([HANG_UP, (_ok(b"resent"), False)])
    with peer.client(attempts=4) as client:
        with pytest.raises(EndpointTransportError) as caught:
            client.update(UPDATE)
    assert caught.value.attempts == 1
    assert len(peer.requests) == 1
    # the request reached the peer: it may have been executed
    assert not _never_delivered(caught.value)


@pytest.mark.parametrize("reply", [
    b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc",
    b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nab",
    b"HTTP/1.1 200 OK\r\n"
    + b"".join(b"X-%d: v\r\n" % i for i in range(101))
    + b"Content-Length: 0\r\n\r\n",
    b"HTTP/1.1 200 OK\r\nX-Long: " + b"a" * 70000 + b"\r\nContent-Length: 0\r\n\r\n",
    b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\nabc",
    b"garbage\r\n\r\n",
], ids=["truncated", "truncated-chunk", "too-many-headers", "long-line",
        "conflicting-length", "bad-status-line"])
def test_an_unreadable_response_is_a_transport_error(reply):
    peer = _Peer([(reply, True)])
    with peer.client() as client:
        with pytest.raises(EndpointTransportError) as caught:
            client.query_text(QUERY)
    peer.join()
    assert caught.value.attempts == 1


def test_response_headers_are_read_in_any_case():
    peer = _Peer([
        (_ok(b"{}", b"x-replica-LAG: 0.25", b"X-Request-Id: rid-1"), False),
    ])
    with peer.client() as client:
        client.query_text(QUERY)
        headers = client.last_response_headers
    peer.join()
    assert headers.get("X-Replica-Lag") == "0.25"
    assert headers.get("x-request-id") == headers["X-REQUEST-ID"] == "rid-1"
    assert "CONTENT-LENGTH" in headers


def test_a_refused_connection_is_never_delivered():
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    client = OntoAccessClient(
        f"http://127.0.0.1:{port}", timeout=1.0,
        retry=RetryPolicy(max_attempts=1),
    )
    with pytest.raises(EndpointTransportError) as caught:
        client.update(UPDATE)
    assert isinstance(caught.value.cause, ConnectionRefusedError)
    assert _never_delivered(caught.value)


def test_the_client_does_not_use_http_client():
    tree = ast.parse(pathlib.Path(client_module.__file__).read_text())
    imported = {
        alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names
    } | {
        node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
    }
    assert not {"http.client", "http"} & imported
