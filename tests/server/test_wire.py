"""Wire behaviour of the HTTP endpoint (ISSUE 13).

What a response looks like on the socket: ``TCP_NODELAY`` on accepted
connections, one segment per fixed-length response, one per stream batch
with the terminating 0-chunk riding the last — and, behind it, the
commit path that a keep-alive connection at wire speed exposes (two HTTP
writers sharing one WAL flush).

Sockets and timing: run in CI with ``-p no:randomly``.
"""

import http.client
import io
import json
import math
import socket
import statistics
import threading
import time

import pytest

from repro import OntoAccess
from repro.errors import FaultError
from repro.faults import INJECTOR
from repro.rdb import Database
from repro.server import OntoAccessClient, OntoAccessEndpoint, protocol
from repro.workloads.generator import WorkloadConfig, build_populated_database
from repro.workloads.publication import PUBLICATION_DDL, build_mapping

PREFIXES = (
    "PREFIX foaf: <http://xmlns.com/foaf/0.1/> "
    "PREFIX ex: <http://example.org/db/> "
)
SCAN_QUERY = PREFIXES + "SELECT ?n WHERE { ?x foaf:family_name ?n . }"
POINT_QUERY = PREFIXES + "SELECT ?n WHERE { ex:author7 foaf:family_name ?n . }"
JSON_RESULTS = "application/sparql-results+json"

ROWS = 200
#: the streamed JSON document is one head line, one line per row, one
#: closing line; the renderer emits _STREAM_BATCH lines per chunk
STREAM_BATCHES = math.ceil((ROWS + 2) / protocol._STREAM_BATCH)


def _insert_author(key: int) -> str:
    return (
        PREFIXES
        + f'INSERT DATA {{ ex:author{key} foaf:firstName "W{key}" ; '
        f'foaf:family_name "Wire{key}" . }}'
    )


@pytest.fixture(autouse=True)
def clean_injector():
    INJECTOR.clear()
    yield
    INJECTOR.clear()


@pytest.fixture
def endpoint():
    db = build_populated_database(
        WorkloadConfig(authors=ROWS, publications=ROWS, seed=5)
    )
    with OntoAccessEndpoint(OntoAccess(db, build_mapping(db))) as endpoint:
        yield endpoint


@pytest.fixture
def server_sends(endpoint, monkeypatch):
    """Every ``send``/``sendall`` the server side of ``endpoint`` makes,
    as a list of byte strings (clear it between requests)."""
    sends = []
    port = endpoint.port

    def recording(original):
        def wrapper(sock, data, *args):
            if sock.getsockname()[1] == port:
                sends.append(bytes(data))
            return original(sock, data, *args)
        return wrapper

    monkeypatch.setattr(
        socket.socket, "sendall", recording(socket.socket.sendall)
    )
    monkeypatch.setattr(socket.socket, "send", recording(socket.socket.send))
    return sends


def _wait_for(condition, what, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.005)


def _stream_request(port, query=SCAN_QUERY, path="/query", timeout=5.0):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    conn.request(
        "POST",
        path,
        body=query.encode(),
        headers={
            "Content-Type": "application/sparql-query",
            "Accept": JSON_RESULTS,
        },
    )
    return conn


class TestKeepAliveRoundTrip:
    def test_back_to_back_requests_do_not_wait_for_a_timer(self, endpoint):
        """50 updates then 50 point queries on one connection: the
        median round trip is the work, not Nagle x delayed ACK (44 ms
        per request before this change)."""
        client = OntoAccessClient(endpoint.url)
        try:
            update_times, query_times = [], []
            for index in range(50):
                start = time.perf_counter()
                feedback = client.update(_insert_author(1000 + index))
                update_times.append(time.perf_counter() - start)
                assert feedback.ok
            for _ in range(50):
                start = time.perf_counter()
                document = client.query_json(POINT_QUERY)
                query_times.append(time.perf_counter() - start)
                assert len(document["results"]["bindings"]) == 1
        finally:
            client.close()
        assert statistics.median(update_times) < 0.010, update_times
        assert statistics.median(query_times) < 0.010, query_times

    def test_accepted_socket_has_nodelay(self, endpoint):
        accepted = []
        server = endpoint._server
        accept = server.get_request

        def recording_accept():
            request, address = accept()
            accepted.append(request)
            return request, address

        server.get_request = recording_accept
        client = OntoAccessClient(endpoint.url)
        try:
            client.query_json(POINT_QUERY)
            assert len(accepted) == 1
            assert accepted[0].getsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY
            )
        finally:
            client.close()


class TestSegments:
    def test_fixed_length_response_is_one_send(self, endpoint, server_sends):
        client = OntoAccessClient(endpoint.url)
        try:
            assert client.update(_insert_author(2000)).ok
            assert len(server_sends) == 1, [len(s) for s in server_sends]
            assert server_sends[0].startswith(b"HTTP/1.1 200")
            assert b"\r\n\r\n" in server_sends[0]  # headers and body
            assert not server_sends[0].endswith(b"\r\n\r\n")
            server_sends.clear()
            assert client.health()["status"] == "ok"
            assert len(server_sends) == 1
        finally:
            client.close()

    def test_stream_is_one_send_per_batch(self, endpoint, server_sends):
        conn = _stream_request(endpoint.port)
        try:
            response = conn.getresponse()
            assert response.getheader("Transfer-Encoding") == "chunked"
            body = response.read()
        finally:
            conn.close()
        assert body.count(b'"type"') == ROWS
        # headers ride the first batch, the 0-chunk the last: never a
        # send for framing alone
        assert len(server_sends) == STREAM_BATCHES, [
            len(s) for s in server_sends
        ]
        assert server_sends[0].startswith(b"HTTP/1.1 200")
        assert server_sends[-1].endswith(b"\r\n0\r\n\r\n")
        assert len(server_sends[-1]) > len(b"0\r\n\r\n")

    def test_single_batch_answer_is_one_send(self, endpoint, server_sends):
        conn = _stream_request(endpoint.port, query=POINT_QUERY)
        try:
            response = conn.getresponse()
            assert response.getheader("Transfer-Encoding") == "chunked"
            assert response.read().count(b'"type"') == 1
        finally:
            conn.close()
        assert len(server_sends) == 1

    def test_expect_continue_is_answered_before_the_body(self, endpoint):
        """The interim 100 goes through the same buffered writer and
        must not sit in it while the client waits to send its body."""
        body = POINT_QUERY.encode()
        with socket.create_connection(
            ("127.0.0.1", endpoint.port), timeout=5.0
        ) as sock:
            sock.sendall(
                b"POST /query HTTP/1.1\r\nHost: x\r\n"
                b"Content-Type: application/sparql-query\r\n"
                b"Content-Length: %d\r\nExpect: 100-continue\r\n"
                b"Connection: close\r\n\r\n" % len(body)
            )
            assert sock.recv(64).startswith(b"HTTP/1.1 100")
            sock.sendall(body)
            answer = b""
            while chunk := sock.recv(65536):
                answer += chunk
        assert b"HTTP/1.1 200" in answer


class TestStreamingSemantics:
    def test_first_batch_leaves_while_a_later_batch_is_stalled(self, endpoint):
        release = threading.Event()
        fires = []

        def stall_second_batch(site):
            fires.append(site)
            if len(fires) == 2:
                release.wait(10.0)

        INJECTOR.inject("endpoint:stream", call=stall_second_batch)
        conn = _stream_request(endpoint.port)
        try:
            # blocks until the status line arrives: with the buffered
            # writer that is the flush of the first batch
            response = conn.getresponse()
            first = response.read1(65536)
            assert first.startswith(b'{"head"')
            assert first.count(b'"type"') == protocol._STREAM_BATCH - 1
            # ...and it was readable with the handler parked before the
            # second batch (which it reaches right after that flush)
            _wait_for(lambda: len(fires) == 2, "the stall")
            assert not release.is_set()
            release.set()
            rest = response.read()
        finally:
            release.set()
            conn.close()
        assert (first + rest).count(b'"type"') == ROWS

    def _assert_truncated(self, endpoint, conn):
        try:
            response = conn.getresponse()
            assert response.status == 200
            # EOF inside the chunked body: no 0-chunk was sent AND the
            # server closed its side (never a desynced keep-alive)
            with pytest.raises(http.client.IncompleteRead) as caught:
                response.read()
            # the rows flushed before the abort did arrive
            assert caught.value.partial.startswith(b'{"head"')
            assert not caught.value.partial.endswith(b"]}}\n")
        finally:
            conn.close()
        _wait_for(lambda: endpoint.stream_aborts >= 1, "the abort record")

    def test_midstream_deadline_truncates_without_the_terminator(
        self, endpoint
    ):
        # each batch costs 0.1 s; the 0.25 s budget dies before the third
        INJECTOR.inject("endpoint:stream", latency=0.1)
        conn = _stream_request(endpoint.port, path="/query?timeout=0.25")
        self._assert_truncated(endpoint, conn)

    def test_injected_stream_fault_truncates_without_the_terminator(
        self, endpoint
    ):
        fires = []

        def fail_third_batch(site):
            fires.append(site)
            if len(fires) == 3:
                raise FaultError("injected fault at endpoint:stream")

        INJECTOR.inject("endpoint:stream", call=fail_third_batch)
        conn = _stream_request(endpoint.port)
        self._assert_truncated(endpoint, conn)

    @pytest.fixture
    def failing_writer(self, monkeypatch):
        """The JSON writer raises after its first batch; yields an
        endpoint with an access log, and the log."""
        real = protocol.iter_select_json

        def failing(result):
            chunks = real(result)
            yield next(chunks)
            raise ValueError("writer failed after its first batch")

        monkeypatch.setattr(protocol, "iter_select_json", failing)
        db = build_populated_database(
            WorkloadConfig(authors=ROWS, publications=ROWS, seed=5)
        )
        log = io.StringIO()
        with OntoAccessEndpoint(
            OntoAccess(db, build_mapping(db)), access_log=log
        ) as endpoint:
            yield endpoint, log

    @staticmethod
    def _logged(log):
        _wait_for(lambda: log.getvalue(), "the access-log line")
        (entry,) = [json.loads(line) for line in log.getvalue().splitlines()]
        assert "serialize_s" in entry
        return entry["op"], entry["status"], entry["cause"]

    def test_raising_writer_truncates_and_the_request_still_finishes(
        self, failing_writer
    ):
        """A JSON body whose writer raises after its first batch is
        aborted as an expired deadline is — the batch it produced goes
        out, no 0-chunk, connection closed, counted in ``stream_aborts``
        — and the request is finished: its access-log line names the
        cause."""
        endpoint, log = failing_writer
        self._assert_truncated(endpoint, _stream_request(endpoint.port))
        assert self._logged(log) == ("query", 200, "internal-error")
        assert endpoint.stream_aborts == 1

    def test_raising_writer_toward_http_1_0_answers_500(self, failing_writer):
        """Toward an HTTP/1.0 peer the body is drained before the status
        line goes out, so a writer that raises is answered with the
        internal-error 500 — not an empty reply, and no aborted
        stream."""
        endpoint, log = failing_writer
        body = SCAN_QUERY.encode()
        with socket.create_connection(
            ("127.0.0.1", endpoint.port), timeout=5.0
        ) as sock:
            sock.sendall(
                b"POST /query HTTP/1.0\r\n"
                b"Content-Type: application/sparql-query\r\n"
                b"Accept: " + JSON_RESULTS.encode() + b"\r\n"
                b"Content-Length: %d\r\n\r\n" % len(body) + body
            )
            response = http.client.HTTPResponse(sock)
            response.begin()
            status, payload = response.status, response.read()
        assert status == 500
        assert json.loads(payload)["error"] == "internal-error"
        assert self._logged(log) == ("query", 500, "internal-error")
        assert endpoint.stream_aborts == 0

    def test_client_disconnect_midstream_is_contained(self, endpoint):
        release = threading.Event()
        INJECTOR.inject("endpoint:stream", stall=release, times=1)
        conn = _stream_request(endpoint.port)
        time.sleep(0.1)  # the handler is stalled before its first batch
        conn.close()
        INJECTOR.clear()
        INJECTOR.inject("endpoint:stream", latency=0.01)
        release.set()
        _wait_for(
            lambda: endpoint.stream_aborts >= 1, "the abort record", 10.0
        )
        INJECTOR.clear()
        client = OntoAccessClient(endpoint.url)
        try:
            document = client.query_json(SCAN_QUERY)
        finally:
            client.close()
        assert len(document["results"]["bindings"]) == ROWS

    def test_http10_peer_gets_content_length(self, endpoint, server_sends):
        body = SCAN_QUERY.encode()
        with socket.create_connection(
            ("127.0.0.1", endpoint.port), timeout=5.0
        ) as sock:
            sock.sendall(
                b"POST /query HTTP/1.0\r\n"
                b"Content-Type: application/sparql-query\r\n"
                b"Accept: " + JSON_RESULTS.encode() + b"\r\n"
                b"Content-Length: %d\r\n\r\n" % len(body) + body
            )
            answer = b""
            while chunk := sock.recv(65536):
                answer += chunk
        head, _, payload = answer.partition(b"\r\n\r\n")
        assert b"Transfer-Encoding" not in head
        assert b"Content-Length: %d" % len(payload) in head
        assert payload.count(b'"type"') == ROWS
        assert len(server_sends) == 1


class TestGroupCommitOverHTTP:
    def test_two_http_writers_share_wal_flushes(self, tmp_path):
        """With the flush slowed, the second connection's commit is
        appended while the first is still waiting for the device, and
        rides its flush: /metrics reports riders (always 0 while the
        session held the write-tier lock across the wait)."""
        db = Database(data_dir=str(tmp_path / "dd"), sync_mode="fsync")
        db.execute_script(PUBLICATION_DDL)
        before = db.durability_status()
        assert before["wal_commits"] == before["wal_syncs"]  # serial DDL
        INJECTOR.inject("wal:pre-sync", latency=0.03)
        failures = []

        def writer(base):
            client = OntoAccessClient(endpoint.url)
            try:
                for index in range(10):
                    if not client.update(_insert_author(base + index)).ok:
                        failures.append(base + index)
            finally:
                client.close()

        try:
            with OntoAccessEndpoint(
                OntoAccess(db, build_mapping(db))
            ) as endpoint:
                threads = [
                    threading.Thread(target=writer, args=(base,))
                    for base in (100, 200)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(30.0)
                assert not any(thread.is_alive() for thread in threads)
                assert not failures
                scrape = OntoAccessClient(endpoint.url)
                try:
                    status, text = scrape._request("GET", "/metrics")
                finally:
                    scrape.close()
            assert status == 200
            samples = {
                line.split()[0]: float(line.split()[1])
                for line in text.splitlines()
                if line.startswith("repro_wal_")
            }
            assert samples["repro_wal_commits"] == before["wal_commits"] + 20
            assert samples["repro_wal_group_commit_riders"] > 0, samples
            assert db.row_count("author") == 20
        finally:
            db.close()
