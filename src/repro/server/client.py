"""HTTP client for the OntoAccess endpoint.

Gives applications the remote-manipulation interface the paper describes:
send SPARQL/Update, receive the parsed RDF feedback graph.  Mirrors the
SPARQL-Protocol shape of the endpoint: ``application/sparql-update`` /
``application/sparql-query`` request bodies, JSON query results via
content negotiation, and atomic batches via ``POST /batch``.

Resilience (ISSUE 6):

* **Typed transport errors** — every connection/socket failure is
  wrapped in :class:`~repro.errors.EndpointTransportError` with the
  request context (method, URL, attempt count, cause) attached; raw
  ``socket.timeout`` / ``URLError`` never leak to callers.
* **Keep-alive** — one persistent HTTP/1.1 connection (a socket with
  ``TCP_NODELAY``) is reused across requests.  A request leaves as one
  ``sendall``; the response head is read with the endpoint's own
  :func:`~repro.server.protocol.read_head`, and the body by
  ``Content-Length``, by chunks or to the end of input.  The connection
  is reopened after ``Connection: close``, an HTTP/1.0 response or a
  transport error.
* **Retry with backoff** — *idempotent* operations (query, dump,
  mapping, health, ready) are retried on transport errors and on
  503/408 responses, with exponential backoff and full jitter, honoring
  the server's ``Retry-After``.  Non-idempotent ``/update`` / ``/batch``
  / ``/admin/checkpoint`` are **never** auto-retried: the first attempt
  may have committed before the connection died.

Request ids (ISSUE 10) — every request carries an ``X-Request-Id``,
taken from the caller's :func:`~repro.observability.tracing.
request_scope` when one is open, else generated per logical request.
The id is constant across retries and failover re-routing, is echoed by
the server, and rides on :class:`~repro.errors.EndpointTransportError`
as ``request_id`` — one handle joins the client's error, the server's
access-log line, and its slow-query entry.

Write failover (ISSUE 9) — :class:`ReplicatedClient` re-routes writes
when the primary dies and a replica is promoted.  The rules are strict
about what may be retried:

* a **403 read-only refusal** provably executed nothing, so *any* write
  (idempotent or not) is re-routed to the freshly discovered primary;
* a **transport failure** is re-routed only when the request provably
  never reached a server (connection refused / host unreachable / DNS
  failure) **and** the caller declared the write ``idempotent=True`` —
  a write that may have committed before the connection died is never
  blindly resent.

The current primary is discovered by probing every known endpoint's
``/health`` for ``role == "primary"``, preferring the highest ``epoch``
(the fencing token: a deposed primary advertises a lower epoch, or
``role: fenced``).

A client instance is not thread-safe (it owns one connection); create
one per thread.
"""

from __future__ import annotations

import errno
import json
import random
import socket
import time
import urllib.parse
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple, Union

from ..errors import EndpointTransportError, ReproError
from ..observability.tracing import request_scope
from ..rdf.graph import Graph
from ..rdf.namespace import OA, RDF
from ..rdf.terms import Literal
from ..rdf.turtle import parse_turtle
from . import protocol

__all__ = ["OntoAccessClient", "Feedback", "ReplicatedClient", "RetryPolicy"]


@dataclass
class Feedback:
    """Parsed feedback: status plus the raw RDF graph."""

    ok: bool
    graph: Graph
    code: Optional[str] = None
    message: Optional[str] = None
    hint: Optional[str] = None

    @classmethod
    def from_graph(cls, graph: Graph, http_ok: bool) -> "Feedback":
        error_nodes = list(graph.subjects(RDF.type, OA.Error))
        if not error_nodes:
            return cls(ok=http_ok, graph=graph)
        node = error_nodes[0]

        def text(predicate) -> Optional[str]:
            value = graph.value(node, predicate, None)
            return value.lexical if isinstance(value, Literal) else None

        return cls(
            ok=False,
            graph=graph,
            code=text(OA.code),
            message=text(OA.message),
            hint=text(OA.hint),
        )


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with full jitter for idempotent requests.

    The delay before attempt ``n`` (0-based) is drawn uniformly from
    ``[0, min(max_delay, base_delay * 2**n)]`` — full jitter, so a
    thundering herd of clients decorrelates instead of re-colliding.
    A server-provided ``Retry-After`` raises the floor of that draw:
    the client never comes back earlier than the server asked.
    """

    max_attempts: int = 4
    base_delay: float = 0.05
    max_delay: float = 2.0
    #: response statuses worth retrying (transient by construction)
    statuses: Tuple[int, ...] = (503, 408)

    def delay(self, attempt: int, retry_after: Optional[float] = None) -> float:
        cap = min(self.max_delay, self.base_delay * (2 ** attempt))
        delay = random.uniform(0.0, cap)
        if retry_after is not None:
            delay = max(delay, min(retry_after, self.max_delay))
        return delay


class OntoAccessClient:
    """Talks to a running :class:`~repro.server.OntoAccessEndpoint`."""

    def __init__(
        self,
        base_url: str,
        timeout: float = 10.0,
        retry: Optional[RetryPolicy] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        parsed = urllib.parse.urlsplit(self.base_url)
        if parsed.scheme != "http":
            raise ValueError(
                f"unsupported URL scheme {parsed.scheme!r} (only http)"
            )
        self._host = parsed.hostname or "127.0.0.1"
        self._port = parsed.port or 80
        self._base_path = parsed.path.rstrip("/")
        self.timeout = timeout
        self.retry = retry if retry is not None else RetryPolicy()
        self._sleep = sleep
        host = f"[{self._host}]" if ":" in self._host else self._host
        self._host_header = host if self._port == 80 else f"{host}:{self._port}"
        self._conn: Optional[_Connection] = None
        #: headers of the last response received (e.g. ``X-Replica-Lag``
        #: from a replica endpoint), looked up in any case; None before
        #: the first response
        self.last_response_headers: Optional[protocol.Headers] = None

    # -- write path (never auto-retried) --------------------------------

    def update(self, sparql_update: str) -> Feedback:
        """POST a SPARQL/Update request; returns parsed feedback."""
        status, body = self._post(
            protocol.UPDATE_PATH, sparql_update, protocol.CONTENT_SPARQL_UPDATE
        )
        return _feedback_from_body(status, body)

    def batch(self, updates: Union[str, Sequence[str]]) -> Feedback:
        """POST a batch executed inside one database transaction.

        Pass several SPARQL/Update request strings (sent as a JSON array)
        or a single multi-operation request.  All-or-nothing: on error the
        endpoint persists nothing and the feedback carries the cause.
        """
        if isinstance(updates, str):
            status, body = self._post(
                protocol.BATCH_PATH, updates, protocol.CONTENT_SPARQL_UPDATE
            )
        else:
            status, body = self._post(
                protocol.BATCH_PATH,
                json.dumps(list(updates)),
                protocol.CONTENT_JSON,
            )
        return _feedback_from_body(status, body)

    def checkpoint(self) -> dict:
        """POST /admin/checkpoint; returns the parsed JSON answer."""
        status, body = self._post(protocol.CHECKPOINT_PATH, "", protocol.CONTENT_JSON)
        if status != 200:
            raise ReproError(f"checkpoint failed (HTTP {status}): {body.strip()}")
        return json.loads(body)

    def promote(self) -> dict:
        """POST /admin/promote: promote the endpoint's replica to
        primary (ISSUE 9).  Returns the promotion record (``epoch``,
        ``drained``, ``applied``); raises on a non-200 answer."""
        status, body = self._post(protocol.PROMOTE_PATH, "", protocol.CONTENT_JSON)
        if status != 200:
            raise ReproError(f"promote failed (HTTP {status}): {body.strip()}")
        return json.loads(body)

    # -- read path (idempotent: retried with backoff) -------------------

    def query_text(
        self, sparql_query: str, request_timeout: Optional[float] = None
    ) -> str:
        """POST a SPARQL query; returns the raw textual response."""
        _, body = self._post(
            protocol.QUERY_PATH,
            sparql_query,
            protocol.CONTENT_SPARQL_QUERY,
            idempotent=True,
            request_timeout=request_timeout,
        )
        return body

    def query_json(
        self, sparql_query: str, request_timeout: Optional[float] = None
    ) -> dict:
        """POST a SPARQL query asking for SPARQL 1.1 JSON results.

        Returns the parsed document: ``{"head": {"vars": [...]},
        "results": {"bindings": [...]}}`` for SELECT, ``{"head": {},
        "boolean": ...}`` for ASK.  Raises :class:`~repro.errors.
        ReproError` with the server's message on a non-200 response.
        ``request_timeout`` is forwarded as ``X-Request-Deadline`` so the
        server cancels the query when the budget passes.
        """
        status, body = self._post(
            protocol.QUERY_PATH,
            sparql_query,
            protocol.CONTENT_SPARQL_QUERY,
            accept=protocol.CONTENT_SPARQL_JSON,
            idempotent=True,
            request_timeout=request_timeout,
        )
        if status != 200:
            raise ReproError(f"query failed (HTTP {status}): {body.strip()}")
        return json.loads(body)

    def dump(self) -> Graph:
        """GET the full RDF dump of the mediated database."""
        return parse_turtle(self._get(protocol.DUMP_PATH))

    def mapping_turtle(self) -> str:
        """GET the R3M mapping document."""
        return self._get(protocol.MAPPING_PATH)

    def health(self) -> dict:
        """GET /health: the endpoint's health document (always HTTP 200;
        check ``doc["status"]`` for ``"ok"`` vs ``"degraded"``)."""
        status, body = self._request("GET", protocol.HEALTH_PATH, idempotent=True)
        if status != 200:
            raise ReproError(f"health probe failed (HTTP {status}): {body.strip()}")
        return json.loads(body)

    def ready(self) -> Tuple[bool, dict]:
        """GET /ready: ``(True, doc)`` when the endpoint accepts writes,
        ``(False, doc)`` while degraded (HTTP 503)."""
        status, body = self._request("GET", protocol.READY_PATH, idempotent=True)
        try:
            doc = json.loads(body)
        except json.JSONDecodeError:
            doc = {"raw": body}
        return status == 200, doc

    def close(self) -> None:
        """Drop the persistent connection (reopened on the next call)."""
        if self._conn is not None:
            try:
                self._conn.close()
            finally:
                self._conn = None

    def __enter__(self) -> "OntoAccessClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------

    def _post(
        self,
        path: str,
        body: str,
        content_type: str,
        accept: Optional[str] = None,
        idempotent: bool = False,
        request_timeout: Optional[float] = None,
    ) -> Tuple[int, str]:
        headers = {"Content-Type": content_type}
        if accept is not None:
            headers["Accept"] = accept
        if request_timeout is not None:
            headers["X-Request-Deadline"] = f"{request_timeout:g}"
        return self._request(
            "POST", path, body=body, headers=headers, idempotent=idempotent
        )

    def _get(self, path: str) -> str:
        status, body = self._request("GET", path, idempotent=True)
        if status != 200:
            raise ReproError(f"GET {path} failed (HTTP {status}): {body.strip()}")
        return body

    def _connection(self) -> "_Connection":
        if self._conn is None:
            self._conn = _Connection(self._host, self._port, self.timeout)
        return self._conn

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[str] = None,
        headers: Optional[dict] = None,
        idempotent: bool = False,
    ) -> Tuple[int, str]:
        """One request over the persistent connection, with retry for
        idempotent operations (transport errors and 503/408 responses).
        Returns ``(status, decoded body)``.

        Every request carries an ``X-Request-Id`` (ISSUE 10): the id of
        the enclosing :func:`~repro.observability.tracing.request_scope`
        when the caller opened one, else one generated here.  The scope
        spans the retry loop, so every retry of one logical request —
        and a transport error it ends in — shares one id, joinable with
        the server's access log.
        """
        url = self.base_url + path
        with request_scope() as request_id:
            send_headers = dict(headers or {})
            send_headers.setdefault("X-Request-Id", request_id)
            head = [f"{method} {self._base_path}{path} HTTP/1.1\r\n"
                    f"Host: {self._host_header}\r\n"]
            head.extend(f"{name}: {value}\r\n" for name, value in send_headers.items())
            data = b""
            if body is not None:
                data = body.encode("utf-8")
                head.append(f"Content-Length: {len(data)}\r\n")
            head.append("\r\n")
            message = "".join(head).encode("iso-8859-1") + data
            attempt = 0
            while True:
                try:
                    conn = self._connection()
                    status, response_headers, payload = conn.exchange(message)
                    if conn.will_close:
                        self.close()
                except (protocol.FramingError, OSError) as exc:
                    # The connection is in an unknown state: drop it so the
                    # next attempt starts clean.
                    self.close()
                    if idempotent and attempt + 1 < self.retry.max_attempts:
                        self._sleep(self.retry.delay(attempt))
                        attempt += 1
                        continue
                    raise EndpointTransportError(
                        f"{method} {url} failed after {attempt + 1} "
                        f"attempt(s): {type(exc).__name__}: {exc} "
                        f"[request {request_id}]",
                        method=method,
                        url=url,
                        attempts=attempt + 1,
                        cause=exc,
                        request_id=request_id,
                    ) from exc
                self.last_response_headers = response_headers
                if (
                    idempotent
                    and status in self.retry.statuses
                    and attempt + 1 < self.retry.max_attempts
                ):
                    retry_after = _parse_retry_after(
                        response_headers.get("Retry-After")
                    )
                    self._sleep(self.retry.delay(attempt, retry_after))
                    attempt += 1
                    continue
                return status, payload.decode("utf-8")


class _Connection:
    """One keep-alive HTTP/1.1 connection.  :meth:`exchange` sends a
    request with one ``sendall`` and reads its response: the status line,
    the head (:func:`~repro.server.protocol.read_head`), and the body by
    ``Content-Length``, by chunks or to the end of input.  Anything it
    cannot read as a response raises :class:`~repro.server.protocol.
    FramingError`; socket failures pass through as ``OSError``."""

    __slots__ = ("_sock", "_file", "will_close")

    def __init__(self, host: str, port: int, timeout: float) -> None:
        self._sock = socket.create_connection((host, port), timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._file = self._sock.makefile("rb")
        #: the peer will not take another request on this connection
        self.will_close = False

    def exchange(self, message: bytes) -> Tuple[int, protocol.Headers, bytes]:
        """Send ``message``; return the response's status, head and body."""
        self._sock.sendall(message)
        readline = self._file.readline
        status = 100
        while status < 200:  # interim (1xx) answers precede the final one
            line = readline(protocol.MAX_LINE + 1)
            if not line:
                raise protocol.FramingError(
                    "connection closed before the status line"
                )
            version, _, rest = line.partition(b" ")
            code = rest[:3]
            if not version.startswith(b"HTTP/") or not code.isdigit():
                raise protocol.FramingError(f"bad status line: {line[:80]!r}")
            status = int(code)
            headers = protocol.read_head(readline)
        self.will_close = (
            version != b"HTTP/1.1"
            or headers.get("Connection", "").lower() == "close"
        )
        if status in (204, 304):
            return status, headers, b""
        if "chunked" in headers.get("Transfer-Encoding", "").lower():
            return status, headers, self._read_chunked()
        length = headers.get("Content-Length")
        if length is None:  # delimited by the end of input
            self.will_close = True
            return status, headers, self._file.read()
        try:
            size = int(length)
        except ValueError:
            size = -1
        if size < 0:
            raise protocol.FramingError(f"bad Content-Length: {length!r}")
        body = self._file.read(size)
        if len(body) < size:
            raise protocol.FramingError(
                f"body ended after {len(body)} of {size} bytes"
            )
        return status, headers, body

    def _read_chunked(self) -> bytes:
        """A chunked body: extensions ignored, trailers read and dropped."""
        read, readline = self._file.read, self._file.readline
        parts = []
        while True:
            line = readline(protocol.MAX_LINE + 1)
            try:
                size = int(line.split(b";", 1)[0], 16)
            except ValueError:
                size = -1
            if size < 0:
                raise protocol.FramingError(f"bad chunk size line: {line[:80]!r}")
            if size == 0:
                protocol.read_head(readline)  # the trailer section
                return b"".join(parts)
            data = read(size + 2)
            if len(data) < size + 2 or data[size:] != b"\r\n":
                raise protocol.FramingError("chunk ended early")
            parts.append(data[:size])

    def close(self) -> None:
        self._file.close()
        self._sock.close()


class ReplicatedClient:
    """Routes over a replicated deployment (ISSUE 8): writes to the
    primary, snapshot reads round-robin across read replicas, with
    automatic fallback to the primary when a replica is unreachable,
    still syncing, or past its staleness bound (its endpoint answers
    503 ``replica-lagging``).

    Replica sub-clients get a single-attempt retry policy: a failing
    replica should cost one round-trip before the primary answers, not a
    backoff loop.  ``last_replica_lag`` records the ``X-Replica-Lag``
    header of the most recent replica-served read.  Like
    :class:`OntoAccessClient`, not thread-safe — one per thread.

    Write failover (ISSUE 9): when a write is refused with 403
    ``read-only`` (it provably did not execute) the client probes every
    known endpoint for the current primary — ``role == "primary"`` with
    the highest fencing ``epoch`` — re-points, and resends.  A transport
    failure is only re-routed when it provably never reached a server
    *and* the caller passed ``idempotent=True``; otherwise it is raised,
    because the write may already be durable on the dead primary.
    """

    def __init__(
        self,
        primary_url: str,
        replica_urls: Sequence[str] = (),
        timeout: float = 10.0,
        retry: Optional[RetryPolicy] = None,
        sleep: Callable[[float], None] = time.sleep,
        failover_retry: Optional[RetryPolicy] = None,
    ) -> None:
        self._timeout = timeout
        self._retry = retry
        self._sleep = sleep
        self.primary = OntoAccessClient(
            primary_url, timeout=timeout, retry=retry, sleep=sleep
        )
        self.replicas = [
            OntoAccessClient(
                url,
                timeout=timeout,
                retry=RetryPolicy(max_attempts=1),
                sleep=sleep,
            )
            for url in replica_urls
        ]
        #: every endpoint this client knows about — the candidate set for
        #: primary discovery after a failover
        self.endpoint_urls: List[str] = [self.primary.base_url] + [
            r.base_url for r in self.replicas
        ]
        #: backoff between write-failover rounds (full jitter, like the
        #: read retry policy — a herd of failed-over writers decorrelates)
        self.failover_retry = failover_retry or RetryPolicy(
            max_attempts=4, base_delay=0.1, max_delay=2.0
        )
        self._next_replica = 0
        #: seconds of staleness reported by the last replica-served read
        self.last_replica_lag: Optional[float] = None
        #: routing diagnostics
        self.replica_reads = 0
        self.primary_reads = 0
        self.primary_fallbacks = 0
        #: failover diagnostics (ISSUE 9)
        self.write_failovers = 0
        self.primary_rediscoveries = 0

    # -- write path: the primary, re-routed on failover ------------------

    def update(self, sparql_update: str, idempotent: bool = False) -> Feedback:
        """POST a SPARQL/Update request, re-routing to a newly promoted
        primary when safe (see class docstring for what "safe" means).
        Pass ``idempotent=True`` to allow re-sending after transport
        failures where the request provably never reached a server."""
        status, body = self._write(
            protocol.UPDATE_PATH,
            sparql_update,
            protocol.CONTENT_SPARQL_UPDATE,
            idempotent,
        )
        return _feedback_from_body(status, body)

    def batch(
        self, updates: Union[str, Sequence[str]], idempotent: bool = False
    ) -> Feedback:
        if isinstance(updates, str):
            payload, content_type = updates, protocol.CONTENT_SPARQL_UPDATE
        else:
            payload, content_type = (
                json.dumps(list(updates)),
                protocol.CONTENT_JSON,
            )
        status, body = self._write(
            protocol.BATCH_PATH, payload, content_type, idempotent
        )
        return _feedback_from_body(status, body)

    def checkpoint(self) -> dict:
        return self.primary.checkpoint()

    def health(self) -> dict:
        return self.primary.health()

    # -- failover plumbing (ISSUE 9) -------------------------------------

    def discover_primary(self) -> Optional[str]:
        """Probe every known endpoint's ``/health`` (one attempt each,
        no backoff) and return the URL advertising ``role: primary``
        with the highest epoch, or None when no primary is reachable."""
        self.primary_rediscoveries += 1
        best_url: Optional[str] = None
        best_epoch = -1
        for url in self.endpoint_urls:
            probe = OntoAccessClient(
                url,
                timeout=self._timeout,
                retry=RetryPolicy(max_attempts=1),
                sleep=self._sleep,
            )
            try:
                doc = probe.health()
            except ReproError:
                continue
            finally:
                probe.close()
            if doc.get("role") != "primary":
                continue
            try:
                epoch = int(doc.get("epoch") or 0)
            except (TypeError, ValueError):
                epoch = 0
            if epoch > best_epoch:
                best_url, best_epoch = url, epoch
        return best_url

    def _repoint(self, url: str) -> None:
        """Aim the write path at a different endpoint."""
        old = self.primary
        self.primary = OntoAccessClient(
            url, timeout=self._timeout, retry=self._retry, sleep=self._sleep
        )
        self.write_failovers += 1
        old.close()

    def _write(
        self, path: str, payload: str, content_type: str, idempotent: bool
    ) -> Tuple[int, str]:
        """One write with failover re-routing.  Retry classification:

        * 403 read-only → the write provably did not execute; always
          safe to re-route (even non-idempotent writes);
        * transport error that provably never reached a server
          (connection refused, host/network unreachable, DNS failure)
          → re-routed only with ``idempotent=True``;
        * anything else (including a connection that died mid-request)
          → raised/returned as-is: the write may have executed.

        The whole failover sequence runs in one request scope, so every
        endpoint that saw this write logged the same ``X-Request-Id``.
        """
        with request_scope():
            return self._write_routed(path, payload, content_type, idempotent)

    def _write_routed(
        self, path: str, payload: str, content_type: str, idempotent: bool
    ) -> Tuple[int, str]:
        last_exc: Optional[EndpointTransportError] = None
        last_answer: Optional[Tuple[int, str]] = None
        for attempt in range(self.failover_retry.max_attempts):
            if attempt:
                self._sleep(self.failover_retry.delay(attempt - 1))
                url = self.discover_primary()
                if url is not None and url != self.primary.base_url:
                    self._repoint(url)
            try:
                status, body = self.primary._post(path, payload, content_type)
            except EndpointTransportError as exc:
                if not idempotent or not _never_delivered(exc):
                    raise
                last_exc, last_answer = exc, None
                continue
            if status == 403 and _is_read_only_refusal(body):
                # Provably unexecuted: keep hunting for the primary.
                last_exc, last_answer = None, (status, body)
                continue
            return status, body
        if last_exc is not None:
            raise last_exc
        assert last_answer is not None
        return last_answer

    # -- read path: replica first, primary on failure -------------------

    def _pick(self) -> Optional[OntoAccessClient]:
        if not self.replicas:
            return None
        client = self.replicas[self._next_replica % len(self.replicas)]
        self._next_replica += 1
        return client

    def _note_lag(self, client: OntoAccessClient) -> None:
        headers = client.last_response_headers
        value = headers.get("X-Replica-Lag") if headers is not None else None
        if value is not None:
            try:
                self.last_replica_lag = float(value)
            except ValueError:
                pass

    def _read(
        self,
        fetch: Callable[[OntoAccessClient], Any],
        from_primary: Optional[Callable[[OntoAccessClient], Any]] = None,
    ) -> Any:
        """One logical read: the next replica first, counted as a
        fallback when ``fetch`` raises :class:`ReproError` there, then the
        primary (through ``from_primary`` when given).  One request
        scope: a replica attempt and its primary fallback carry the same
        X-Request-Id."""
        with request_scope():
            replica = self._pick()
            if replica is not None:
                try:
                    result = fetch(replica)
                except ReproError:
                    self.primary_fallbacks += 1
                else:
                    self.replica_reads += 1
                    self._note_lag(replica)
                    return result
            self.primary_reads += 1
            return (from_primary or fetch)(self.primary)

    def query_json(
        self, sparql_query: str, request_timeout: Optional[float] = None
    ) -> dict:
        return self._read(
            lambda client: client.query_json(sparql_query, request_timeout)
        )

    def query_text(
        self, sparql_query: str, request_timeout: Optional[float] = None
    ) -> str:
        def from_replica(client: OntoAccessClient) -> str:
            # _post (not query_text) so the status is visible: a 503
            # replica-lagging body must not be returned as a result.
            status, body = client._post(
                protocol.QUERY_PATH,
                sparql_query,
                protocol.CONTENT_SPARQL_QUERY,
                idempotent=True,
                request_timeout=request_timeout,
            )
            if status != 200:
                raise ReproError(f"replica answered HTTP {status}")
            return body

        return self._read(
            from_replica,
            lambda client: client.query_text(sparql_query, request_timeout),
        )

    def dump(self) -> Graph:
        return self._read(OntoAccessClient.dump)

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        self.primary.close()
        for replica in self.replicas:
            replica.close()

    def __enter__(self) -> "ReplicatedClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


#: errnos that guarantee the TCP connection was never established, so
#: the request bytes provably never reached a server process
_NEVER_DELIVERED_ERRNOS = frozenset(
    {errno.ECONNREFUSED, errno.EHOSTUNREACH, errno.ENETUNREACH}
)


def _never_delivered(exc: EndpointTransportError) -> bool:
    """True when the failed request provably never reached a server:
    the connection was refused or never routed, so not a single byte of
    the write was delivered.  A connection that died *mid-request*
    (reset, timeout, EOF) does NOT qualify — the server may have
    executed the write before the failure."""
    cause = exc.cause
    seen = 0
    while cause is not None and seen < 8:  # defensive: no cycle walks
        if isinstance(cause, (ConnectionRefusedError, socket.gaierror)):
            return True
        if (
            isinstance(cause, OSError)
            and cause.errno in _NEVER_DELIVERED_ERRNOS
        ):
            return True
        cause = cause.__cause__
        seen += 1
    return False


def _is_read_only_refusal(body: str) -> bool:
    """True for the endpoint's 403 JSON refusal of a write on a replica
    or fenced primary (error codes ``read-only-replica`` /
    ``read-only``) — the refusal guarantees nothing executed."""
    try:
        doc = json.loads(body)
    except (json.JSONDecodeError, ValueError):
        return False
    return isinstance(doc, dict) and doc.get("error") in (
        "read-only",
        "read-only-replica",
    )


def _parse_retry_after(value: Optional[str]) -> Optional[float]:
    """``Retry-After`` in delta-seconds form (HTTP-date is ignored)."""
    if value is None:
        return None
    try:
        seconds = float(value)
    except ValueError:
        return None
    return max(0.0, seconds)


def _feedback_from_body(status: int, body: str) -> Feedback:
    """Feedback from a response that is usually Turtle but may be a
    plain-text or JSON error (e.g. /batch body validation, 503 shed)."""
    try:
        graph = parse_turtle(body)
    except Exception:
        return Feedback(
            ok=status == 200, graph=Graph(), message=body.strip() or None
        )
    return Feedback.from_graph(graph, http_ok=status == 200)
