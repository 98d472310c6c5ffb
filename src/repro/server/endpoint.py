"""The OntoAccess HTTP endpoint (paper Section 6).

Usage::

    from repro.server import OntoAccessEndpoint
    endpoint = OntoAccessEndpoint(mediator, port=0)   # 0 = ephemeral port
    endpoint.start()
    ...  # clients POST SPARQL to http://localhost:{endpoint.port}/update
    endpoint.stop()

Routing, content negotiation and HTTP concerns live here; all semantics
live in the mediator's :class:`~repro.core.session.Session`.  One session
is shared by every handler thread: updates serialize on the database's
writer lock, queries run lock-free against the engine's committed MVCC
snapshot, so reads are answered concurrently with each other and with at
most one writer.

**The route table.**  Every (method, path) the endpoint answers is one
row of :data:`ROUTES`, a :class:`Route` holding

* the handler — it does what the route does and nothing else: no
  handler counts, gates or catches;
* ``op`` — the access-log op of an *admitted* route (admission, a
  deadline, a trace record, one access-log line); None marks a route
  exempt from admission, so probes, scrapes and admin actions answer
  precisely when the server is saturated;
* ``replica`` — the replica policy, ``"read"``, ``"write"`` or None
  (no policy), applied by the role of the endpoint's
  :class:`~repro.replication.Node`:

  ========  ===================================  ==========================  =========
  role      ``"read"`` routes                    ``"write"`` routes          /ready
  ========  ===================================  ==========================  =========
  replica   503 ``replica-syncing`` before the   403 ``read-only-replica``   503 until
            first sync, 503 ``replica-lagging``                              synced
            past the node's ``max_replica_lag``,
            else served with ``X-Replica-Lag``
  primary   served                               served                      200
  fenced    served                               403 ``read-only`` (the      503
                                                 database refuses them)
  ========  ===================================  ==========================  =========

  An endpoint built without a node serves ``Node(mediator.db)``: a
  primary, fenced if its database was made read-only.  Promotion and
  fencing change the role while the endpoint runs;
* ``rejected`` — the route's rejection rule: its answer to an exception
  its handler raised, or None for one it does not claim.

**The dispatcher.**  :meth:`OntoAccessEndpoint.handle` is the one entry
point — the HTTP handler calls it for every request, tests call it
directly.  In order it

1. looks up the route (404 ``not found`` when there is none);
2. applies the route's replica policy;
3. enters the request's one scope
   (:class:`~repro.observability.tracing.RequestScope`): its id — the
   ``X-Request-Id`` header's, else a new one — and, on an admitted
   route, the trace record; there it parses the deadline (400
   ``bad-timeout``), claims an admission slot (503 ``overloaded`` with
   ``Retry-After`` when shed) and runs the handler — and sends its
   response — under the deadline and inside the slot, which the scope
   releases on exit;
4. maps an exception the handler raised, in one place: the route's
   rejection rule, which for the work and admin routes starts with the
   serving tier's own failures (408 ``timeout``, 403 ``read-only``, 503
   ``replication-degraded``, 503 ``storage-degraded``); whatever the
   rule does not claim — any other exception included — is 500
   ``internal-error`` JSON.  A request is never answered with a
   dropped connection;
5. counts the response exactly once, before sending it
   (``requests_served``; ``errors_returned`` when the status is 400 or
   above) — also a 404 and the wire's refusals below;
6. sends it and finishes the trace of an admitted route once:
   ``repro_requests_total``, ``repro_request_seconds``,
   ``repro_queue_wait_seconds``, the JSON access-log line and the
   slow-query tee.  The trace's ``serialize_s`` is timed around the
   send: it covers writing the response head and the socket
   ``sendall`` as well as rendering the body, so a wire-only change
   moves it, and it is read together with the client-side remainder
   (the benchmark's ``transport_s``).

**The wire.**  :class:`_Handler` keeps only HTTP.  It runs on the
stdlib's socket server and connection loop, but reads and writes message
heads itself:

* the request line by the stdlib's rules — a bad version is 400,
  HTTP/2 and later 505 (both with a status line), HTTP/0.9 is GET only,
  a leading ``//`` collapses to ``/``, ``Connection`` picks keep-alive
  or close, and ``Expect: 100-continue`` gets its interim answer;
* the head through :func:`protocol.read_head` (no ``email`` parse): at
  most 100 fields of at most 65 536 bytes a line (431), and a line
  without a colon, whitespace before a colon, obs-fold or two different
  ``Content-Length`` values are 400.  Each of these refusals closes the
  connection, so nothing after it is read as a request;
* the response head as one formatted string: status line, ``Server``,
  ``Date`` (formatted once a second), ``Content-Type``, the response's
  headers, the ``X-Request-Id`` echo and the framing header.

Then the request body (``Content-Length`` only, ``max_body_bytes``,
UTF-8 — a body it will not read is answered 411 / 400 / 413 / 400
through the dispatcher, so it is counted like any other answer), the
one-``sendall``-per-flush :class:`_ResponseWriter` and chunked streaming
of SELECT results with a held-back batch.  :meth:`OntoAccessEndpoint.
handle` reads headers by lower-cased name, whether they came from the
wire or as a plain dict from an in-process caller.
:class:`_BoundedThreadingHTTPServer` caps live connections, and with
them handler threads.
"""

from __future__ import annotations

import email.utils
import json
import math
import re
import selectors
import socket
import threading
import time
import traceback
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Tuple, Union

from ..deadline import Deadline
from ..errors import (
    DurabilityError,
    FaultError,
    QueryTimeout,
    ReadOnlyDatabaseError,
    ReplicationError,
    ReproError,
    SPARQLParseError,
    TranslationError,
)
from ..faults import INJECTOR
from ..core.backend import UpdateResult
from ..core.feedback import confirmation_turtle, error_graph
from ..core.mediator import OntoAccess
from ..core.query import QueryOutcome
from ..core.answer import SelectRows
from ..observability.metrics import (
    JSON_ANSWERS,
    QUEUE_WAIT_SECONDS,
    REGISTRY,
    REQUEST_SECONDS,
    REQUESTS,
    MetricsRegistry,
    _ShardedCells,
    render_exposition,
)
from ..observability.querylog import QueryLog
from ..observability.tracing import (
    RequestScope,
    analyze_scope,
    annotate,
    current_request_id,
    new_request_id,
    sanitize_request_id,
)
from ..rdf.graph import Graph
from ..r3m.serialize import mapping_to_turtle
from ..replication.node import Node
from . import protocol
from .protocol import Response

__all__ = ["OntoAccessEndpoint", "ROUTES", "Route"]


class _AdmissionGate:
    """Bounded in-flight counter plus a short bounded wait queue.

    ``admit`` returns True when a slot was claimed (release it!), False
    when the request must be shed.  A waiter gives up after
    ``queue_timeout`` seconds (or the request deadline, whichever is
    sooner) or immediately when the queue itself is full — shedding must
    be *fast*, the whole point is never to accumulate unbounded work.
    """

    def __init__(
        self, max_in_flight: int, max_queue: int, queue_timeout: float
    ) -> None:
        self.max_in_flight = max_in_flight
        self.max_queue = max_queue
        self.queue_timeout = queue_timeout
        self._cond = threading.Condition(threading.Lock())
        self.in_flight = 0
        self.waiting = 0
        self.admitted_total = 0
        self.shed_total = 0

    def admit(self, deadline: Optional[Deadline] = None) -> bool:
        budget = self.queue_timeout
        if deadline is not None:
            budget = min(budget, max(0.0, deadline.remaining()))
        give_up = time.monotonic() + budget
        with self._cond:
            while self.in_flight >= self.max_in_flight:
                remaining = give_up - time.monotonic()
                if remaining <= 0.0 or self.waiting >= self.max_queue:
                    self.shed_total += 1
                    return False
                self.waiting += 1
                try:
                    self._cond.wait(remaining)
                finally:
                    self.waiting -= 1
            self.in_flight += 1
            self.admitted_total += 1
            return True

    def release(self) -> None:
        with self._cond:
            self.in_flight -= 1
            self._cond.notify()

    def stats(self) -> Dict[str, Any]:
        with self._cond:
            return {
                "in_flight": self.in_flight,
                "waiting": self.waiting,
                "max_in_flight": self.max_in_flight,
                "max_queue": self.max_queue,
                "admitted_total": self.admitted_total,
                "shed_total": self.shed_total,
            }


class _ResponseWriter:
    """The handler's ``wfile``: collects what a response writes and puts
    it on the wire with one ``sendall`` per :meth:`flush`.

    A keep-alive client in ping-pong mode delays its ACK by ~40 ms, and
    Nagle's algorithm holds a second small segment until that ACK — so a
    response written as "headers, then body" stalls every request by a
    timer.  The handler sets ``TCP_NODELAY`` and writes through this
    buffer instead: status line, headers and body (or one stream batch
    with its chunk framing) leave as a single segment.

    A failed send drops what was buffered: the handler closes the
    connection, and nothing may be re-sent into a half-written response.
    """

    __slots__ = ("_sock", "_pending", "closed")

    def __init__(self, sock) -> None:
        self._sock = sock
        self._pending: List[bytes] = []
        self.closed = False

    def write(self, data: bytes) -> int:
        self._pending.append(data)
        return len(data)

    def flush(self) -> None:
        if self._pending:
            data = b"".join(self._pending)
            self._pending.clear()
            self._sock.sendall(data)

    def close(self) -> None:
        self._pending.clear()
        self.closed = True


#: Seconds advertised in ``Retry-After`` on every 408 and 503 answer.
RETRY_AFTER = 1.0


class _BoundedThreadingHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer with a hard cap on live connections.

    Under HTTP/1.1 keep-alive every open connection owns a handler
    thread, so the connection cap is the thread cap.  Over the cap a new
    connection is answered with a minimal 503 + ``Retry-After`` and
    closed *before* a handler thread is spawned — overload can slow the
    accept loop, never grow threads without bound.
    """

    #: listen(2) backlog: an overload burst parks in the kernel's accept
    #: queue (cheap) instead of being RST at the default backlog of 5 —
    #: shedding must reach the client as a readable 503, not a reset.
    request_queue_size = 128

    def __init__(self, addr, handler, max_connections: int):
        self._max_connections = max_connections
        self._conn_lock = threading.Lock()
        self.live_connections = 0
        self.rejected_connections = 0
        super().__init__(addr, handler)
        # What wakes the accept loop when shutdown() is asked for.
        self._wake_reader, self._wake_writer = socket.socketpair()
        self._stopping = False
        self._stopped = threading.Event()

    def serve_forever(self) -> None:
        """Accept connections until :meth:`shutdown`.  The stdlib loop
        notices a shutdown only when its poll interval (0.5 s) ends;
        this one also waits on a socket pair that shutdown writes to,
        so it stops at once."""
        try:
            with selectors.DefaultSelector() as selector:
                selector.register(self, selectors.EVENT_READ)
                selector.register(self._wake_reader, selectors.EVENT_READ)
                while not self._stopping:
                    for key, _ in selector.select():
                        if key.fileobj is self and not self._stopping:
                            self._handle_request_noblock()
                    self.service_actions()
        finally:
            self._stopped.set()

    def shutdown(self) -> None:
        """Stop :meth:`serve_forever` and wait until it has returned."""
        self._stopping = True
        self._wake_writer.send(b"\0")
        self._stopped.wait()

    def server_close(self) -> None:
        super().server_close()
        self._wake_reader.close()
        self._wake_writer.close()

    def process_request(self, request, client_address) -> None:
        with self._conn_lock:
            if self.live_connections >= self._max_connections:
                self.rejected_connections += 1
                reject = True
            else:
                self.live_connections += 1
                reject = False
        if reject:
            self._reject(request)
            return
        super().process_request(request, client_address)

    def process_request_thread(self, request, client_address) -> None:
        try:
            super().process_request_thread(request, client_address)
        finally:
            with self._conn_lock:
                self.live_connections -= 1

    def _reject(self, request) -> None:
        body = (
            b'{"error": "overloaded", '
            b'"message": "connection limit reached; retry after backoff"}\n'
        )
        try:
            request.sendall(
                b"HTTP/1.1 503 Service Unavailable\r\n"
                b"Content-Type: application/json\r\n"
                b"Retry-After: " + str(int(RETRY_AFTER)).encode("ascii") + b"\r\n"
                b"Content-Length: " + str(len(body)).encode("ascii") + b"\r\n"
                b"Connection: close\r\n"
                b"\r\n" + body
            )
            # Drain the unread request before closing: closing a socket
            # with received-but-unread bytes sends RST, which would
            # destroy the 503 sitting in the peer's receive buffer.
            request.settimeout(0.2)
            while request.recv(65536):
                pass
        except OSError:
            pass  # the peer is already gone; nothing to tell it
        finally:
            self.shutdown_request(request)


# ---------------------------------------------------------------------------
# rejection rules
# ---------------------------------------------------------------------------

def _serving_failure(exc: Exception) -> Optional[Response]:
    """The serving tier's own failures, answered alike on every work
    route: deadline, fencing, replication, durability."""
    if isinstance(exc, QueryTimeout):
        return protocol.error_json(
            "timeout", str(exc), 408, retry_after=RETRY_AFTER
        )
    if isinstance(exc, ReadOnlyDatabaseError):
        # Fenced/deposed primary: the write provably did not execute, so
        # the client may safely re-route it.
        return protocol.error_json("read-only", str(exc), 403)
    if isinstance(exc, ReplicationError):
        # Semi-sync barrier timed out: durable here, unacknowledged by
        # the replica quorum.  NOT safe to blindly retry.
        return protocol.error_json(
            "replication-degraded", str(exc), 503, retry_after=RETRY_AFTER
        )
    if isinstance(exc, DurabilityError):
        return protocol.error_json("storage-degraded", str(exc), 503)
    return None


def _write_rejected(exc: Exception) -> Optional[Response]:
    """A write the mediator turned down answers with RDF feedback (paper
    Section 6), also when it does not parse."""
    served = _serving_failure(exc)
    if served is not None:
        return served
    if isinstance(exc, SPARQLParseError):
        exc = TranslationError(
            f"cannot parse request: {exc}",
            code=TranslationError.UNSUPPORTED,
        )
    if isinstance(exc, TranslationError):
        return Response.turtle(error_graph(exc), status=400)
    return None


def _batch_rejected(exc: Exception) -> Optional[Response]:
    if isinstance(exc, json.JSONDecodeError):
        return Response.text(f"invalid JSON body: {exc}", status=400)
    return _write_rejected(exc)


def _query_rejected(exc: Exception) -> Optional[Response]:
    if not isinstance(exc, ReproError):
        return None
    return _serving_failure(exc) or Response.text(f"error: {exc}", status=400)


def _metrics_unavailable(exc: Exception) -> Optional[Response]:
    if not isinstance(exc, ReproError):
        return None
    return _serving_failure(exc) or protocol.error_json(
        "metrics-unavailable", str(exc), 503
    )


def _checkpoint_failed(exc: Exception) -> Optional[Response]:
    if not isinstance(exc, ReproError):
        return None
    return _serving_failure(exc) or Response.text(f"error: {exc}", status=409)


def _promotion_failed(exc: Exception) -> Optional[Response]:
    if not isinstance(exc, ReproError):
        return None
    return _serving_failure(exc) or protocol.error_json(
        "promotion-failed", str(exc), 500
    )


def _internal_error(exc: Exception) -> Response:
    """What no rejection rule claims: the request failed for a reason
    the serving tier has no answer for.  A write that raised was rolled
    back, so this is a definite "not executed", never a dropped
    connection the client would have to treat as "maybe delivered".
    Called while ``exc`` is being handled: its traceback goes to stderr,
    as the stdlib server prints the failures it catches."""
    traceback.print_exc()
    return protocol.error_json(
        "internal-error", f"{type(exc).__name__}: {exc}", 500
    )


#: Replica policies of :attr:`Route.replica`.
READ = "read"
WRITE = "write"


class _Request(NamedTuple):
    """What a handler gets to see of one request."""

    method: str
    params: Dict[str, List[str]]
    headers: Mapping[str, str]
    body: str


class Route(NamedTuple):
    """One row of :data:`ROUTES` (see the module docstring)."""

    handler: Callable[["OntoAccessEndpoint", _Request], Response]
    #: access-log op of an admitted route; None = admission-exempt
    op: Optional[str] = None
    #: replica policy: READ, WRITE or None
    replica: Optional[str] = None
    #: what a WRITE route carries, for its 403 message ("updates must…")
    what: str = ""
    #: the route's answer to an exception its handler raised (None:
    #: unclaimed, 500 internal-error)
    rejected: Callable[[Exception], Optional[Response]] = _serving_failure


class OntoAccessEndpoint:
    """Serves a mediator over HTTP (SPARQL-Protocol-shaped)."""

    def __init__(
        self,
        mediator: OntoAccess,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_in_flight: int = 32,
        max_queue: int = 64,
        queue_timeout: float = 0.25,
        default_timeout: Optional[float] = 30.0,
        max_body_bytes: int = 8 * 1024 * 1024,
        max_connections: int = 128,
        node: Optional[Node] = None,
        slow_query_threshold: Optional[float] = 1.0,
        access_log: Optional[Any] = None,
    ) -> None:
        self.mediator = mediator
        #: what this endpoint serves: primary, replica or fenced
        self.node = node if node is not None else Node(mediator.db)
        #: One session shared by all handler threads: writes serialize on
        #: the database's writer lock, reads run against committed
        #: snapshots, and its shape map amortizes repeated texts across
        #: threads.
        self.session = mediator.session()
        self.host = host
        self._requested_port = port
        self._server: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None
        #: per-thread [served, errors] cells for monitoring/benchmarks:
        #: the hot path is a plain list increment with no shared lock,
        #: totals are summed on read
        self._stats = _ShardedCells(2)
        self._gate = _AdmissionGate(max_in_flight, max_queue, queue_timeout)
        #: server-wide request budget; a client may only tighten it
        self.default_timeout = default_timeout
        self.max_body_bytes = max_body_bytes
        self.max_connections = max_connections
        self._abort_lock = threading.Lock()
        #: responses whose streaming was cut short (client disconnect or
        #: deadline expiry mid-stream)
        self.stream_aborts = 0
        #: ring-buffered log of requests over the slow threshold
        self.query_log = QueryLog(threshold=slow_query_threshold)
        #: writable text stream for JSON access-log lines (None = off)
        self.access_log = access_log
        #: (op, status) -> its ``repro_requests_total`` and
        #: ``repro_request_seconds`` children, resolved by the first such
        #: request
        self._request_metrics: Dict[Tuple[str, int], Tuple[Any, Any]] = {}
        self._access_log_lock = threading.Lock()

    @property
    def requests_served(self) -> int:
        return int(self._stats.total()[0])

    @property
    def errors_returned(self) -> int:
        return int(self._stats.total()[1])

    def _count(self, error: bool) -> None:
        cell = self._stats.cell()
        cell[0] += 1
        if error:
            cell[1] += 1

    def _note_stream_abort(self) -> None:
        with self._abort_lock:
            self.stream_aborts += 1

    def serving_stats(self) -> Dict[str, Any]:
        """Admission/connection statistics for /health and the serving
        benchmark: in-flight, queue depth, shed and reject totals."""
        stats = self._gate.stats()
        stats["stream_aborts"] = self.stream_aborts
        server = self._server
        if isinstance(server, _BoundedThreadingHTTPServer):
            stats["live_connections"] = server.live_connections
            stats["rejected_connections"] = server.rejected_connections
            stats["max_connections"] = server._max_connections
        return stats

    # ------------------------------------------------------------------
    # the dispatcher
    # ------------------------------------------------------------------

    def handle(
        self,
        method: str,
        target: str,
        headers: Optional[Mapping[str, str]] = None,
        body: Union[str, Response] = "",
        *,
        send: Optional[Callable[[Response, Optional[Deadline]], None]] = None,
    ) -> Response:
        """Answer one request (steps 1–6 of the module docstring).

        ``target`` is the request target (path plus query string).
        ``body`` is the decoded request body — or, from the wire layer,
        the :class:`Response` it answers a body it would not read with.
        ``send`` puts the response on the wire; it runs inside the
        admission slot and under the deadline, so streaming a result is
        request work.  Returns the response (its body is drained on
        first read when nothing sent it)."""
        started = time.perf_counter()
        split = urllib.parse.urlsplit(target)
        headers = protocol.Headers.of(headers)
        route = None
        if isinstance(body, Response):  # the wire layer's refusal
            response: Optional[Response] = body
        else:
            route = ROUTES.get((method, split.path))
            response = None if route else Response.text("not found", 404)
        admitted = route is not None and route.op is not None
        trace: Dict[str, Any] = {}
        with RequestScope(
            sanitize_request_id(headers.get("X-Request-Id")) or new_request_id(),
            trace if admitted else None,
        ) as scope:
            if admitted:
                trace.update(request_id=scope.request_id, op=route.op)
            if route is not None:
                request = _Request(
                    method, urllib.parse.parse_qs(split.query), headers, body
                )
                response = self._replica_policy(route)
                if response is None and admitted:
                    response = self._admit(request, trace, scope)
                if response is None:
                    exec_start = time.perf_counter()
                    response = self._run(route, request)
                    trace["execute_s"] = time.perf_counter() - exec_start
                    if response.status == 408:
                        trace["cause"] = "timeout"
            self._count(response.status >= 400)
            serialize_start = time.perf_counter()
            if send is not None:
                send(response, scope.deadline)
            if admitted:
                trace["serialize_s"] = time.perf_counter() - serialize_start
                self._finish_request(
                    route.op, response.status, trace,
                    time.perf_counter() - started,
                )
        return response

    def _admit(
        self, request: _Request, trace: Dict[str, Any], scope: RequestScope
    ) -> Optional[Response]:
        """Claim an admission slot and install the request's deadline in
        ``scope`` (which releases the slot on exit); the 400 of a
        malformed budget, the 503 when shed."""
        try:
            deadline = self._request_deadline(request)
        except ValueError as exc:
            trace["cause"] = "bad-timeout"
            return protocol.error_json("bad-timeout", str(exc), 400)
        admit_start = time.perf_counter()
        admitted = self._gate.admit(deadline)
        trace["queue_wait_s"] = time.perf_counter() - admit_start
        if not admitted:
            trace["cause"] = "shed"
            return protocol.error_json(
                "overloaded",
                "server is at capacity; retry after backoff",
                503,
                retry_after=RETRY_AFTER,
            )
        scope.hold(deadline, self._gate.release)
        return None

    def _run(self, route: Route, request: _Request) -> Response:
        """The route's handler, with any exception mapped to its answer;
        a read route's answer on a replica carries its staleness."""
        try:
            response = route.handler(self, request)
        except Exception as exc:
            response = route.rejected(exc) or _internal_error(exc)
        if route.replica == READ and self.node.following is not None:
            lag = self.node.lag()
            if math.isfinite(lag):
                response.headers["X-Replica-Lag"] = f"{lag:.3f}"
        return response

    def _finish_request(
        self, op: str, status: int, trace: Dict[str, Any], total_s: float
    ) -> None:
        """Metrics + access log + slow-query tee for one admitted request;
        the log entry is built only when a sink or the slow-query log
        takes it."""
        children = self._request_metrics.get((op, status))
        if children is None:
            children = self._request_metrics[op, status] = (
                REQUESTS.labels(op, str(status)), REQUEST_SECONDS.labels(op)
            )
        requests, seconds = children
        requests.inc()
        seconds.observe(total_s)
        queue_wait = trace.get("queue_wait_s")
        if queue_wait is not None:
            QUEUE_WAIT_SECONDS.observe(queue_wait)
        total_s = round(total_s, 6)
        threshold = self.query_log.threshold
        if self.access_log is None and (threshold is None or total_s < threshold):
            return
        entry: Dict[str, Any] = {
            "request_id": trace.get("request_id"),
            "op": op,
            "status": status,
            "total_s": total_s,
        }
        for key in ("queue_wait_s", "execute_s", "serialize_s"):
            if trace.get(key) is not None:
                entry[key] = round(trace[key], 6)
        for key, value in trace.items():
            if key not in entry and not key.endswith("_s"):
                entry[key] = value
        self._log_access(entry)
        self.query_log.record(entry)

    def _log_access(self, entry: Dict[str, Any]) -> None:
        stream = self.access_log
        if stream is None:
            return
        line = json.dumps(entry, default=str, sort_keys=False)
        try:
            with self._access_log_lock:
                stream.write(line + "\n")
                stream.flush()
        except (OSError, ValueError):
            pass  # a broken log sink must never fail the request

    def _request_deadline(self, request: _Request) -> Optional[Deadline]:
        """The budget for one request: the tighter of the server default
        and any client-requested ``timeout=`` param / ``X-Request-
        Deadline`` header.  Raises ValueError on a malformed value."""
        requested: List[float] = []
        if "timeout" in request.params:
            requested.append(_positive_seconds(
                request.params["timeout"][0], "timeout parameter"
            ))
        header = request.headers.get("X-Request-Deadline")
        if header is not None:
            requested.append(
                _positive_seconds(header, "X-Request-Deadline header")
            )
        budget = self.default_timeout
        if requested:
            tightest = min(requested)
            budget = tightest if budget is None else min(tightest, budget)
        return None if budget is None else Deadline(budget)

    # ------------------------------------------------------------------
    # replica policy
    # ------------------------------------------------------------------

    def _replica_policy(self, route: Route) -> Optional[Response]:
        """The refusal the route's replica policy answers with, or None
        when the request may be served here — always, unless the node
        serves a replica: then writes are refused, and reads while it is
        still syncing or too stale (its ``max_replica_lag`` exceeded),
        so the client retries against the primary."""
        node = self.node
        if route.replica is None or node.following is None:
            return None
        if route.replica == WRITE:
            return protocol.error_json(
                "read-only-replica",
                f"{route.what} must go to the primary; this endpoint "
                "serves a read replica",
                403,
            )
        if not node.ready:
            return protocol.error_json(
                "replica-syncing",
                "replica has not finished bootstrap replay; retry on "
                "the primary",
                503,
                retry_after=RETRY_AFTER,
            )
        lag = node.lag()
        bound = node.max_replica_lag
        if bound is not None and lag > bound:
            response = protocol.error_json(
                "replica-lagging",
                f"replica lag {lag:.3f}s exceeds the bound of "
                f"{bound:g}s; retry on the primary",
                503,
                retry_after=RETRY_AFTER,
                lag_s=round(lag, 3),
            )
            response.headers["X-Replica-Lag"] = f"{lag:.3f}"
            return response
        return None

    # ------------------------------------------------------------------
    # status: one reading for /health, /ready, /admin/stats and /metrics
    # ------------------------------------------------------------------

    def _snapshot(self) -> Dict[str, Any]:
        """The endpoint's state in the shape of the /health document:
        ``status`` (``"degraded"`` while the WAL refuses commits), the
        backend's durability detail, serving statistics, the requests
        answered so far, and role and failover epoch — what clients
        probe for when they hunt the primary (``role == "primary"``,
        highest epoch; a fenced node does not advertise itself as
        primary) — plus replication status on a replica endpoint."""
        backend = self.session.health()
        node = self.node
        doc = {
            "status": "degraded" if backend.get("wal_refusing") else "ok",
            "backend": backend,
            "serving": self.serving_stats(),
            "requests": {
                "served": self.requests_served,
                "errors": self.errors_returned,
            },
            "role": node.role,
            "epoch": node.epoch,
        }
        replication = node.status()
        if replication is not None:
            doc["replication"] = replication
        return doc

    def _scrape_registry(self, snapshot: Dict[str, Any]) -> MetricsRegistry:
        """A scrape-time snapshot of instance state as gauge samples.

        The hot paths only ever touch the process-wide counters in
        :data:`~repro.observability.metrics.REGISTRY`; everything that
        lives on *this* endpoint (gate depths, planner cache, WAL and
        checkpoint state, replication counters) is read here, once per
        scrape, so serving pays nothing for it between scrapes.
        """
        reg = MetricsRegistry()

        def gauge(name: str, help_text: str, value: Any) -> None:
            try:
                number = float(value)
            except (TypeError, ValueError):
                return  # non-numeric status field: not a sample
            reg.gauge(f"repro_{name}", help_text).set(number)

        serving = snapshot["serving"]
        for key in (
            "in_flight", "waiting", "max_in_flight", "max_queue",
            "admitted_total", "shed_total", "stream_aborts",
            "live_connections", "rejected_connections", "max_connections",
        ):
            if key in serving:
                gauge(
                    f"serving_{key}",
                    f"Serving-gate statistic {key!r} (see /admin/stats).",
                    serving[key],
                )
        gauge(
            "endpoint_requests_served",
            "Requests answered by this endpoint since start.",
            snapshot["requests"]["served"],
        )
        gauge(
            "endpoint_request_errors",
            "Error responses returned by this endpoint since start.",
            snapshot["requests"]["errors"],
        )
        planner = self.mediator.db.planner
        for key, value in planner.stats.items():
            gauge(
                f"plan_cache_{key}",
                f"Plan-cache {key} since process start.",
                value,
            )
        gauge(
            "plan_cache_entries",
            "Statement shapes that currently have a cached plan.",
            planner.cache_entries(),
        )
        backend = snapshot["backend"]
        gauge(
            "storage_durable",
            "1 when the store runs with a write-ahead log attached.",
            1.0 if backend.get("durable") else 0.0,
        )
        for key, help_text in (
            ("wal_refusing", "1 while the WAL refuses commits (degraded)."),
            ("wal_bytes", "Bytes in the live write-ahead log segment."),
            ("generation", "Checkpoint generation of the store."),
            ("last_checkpoint_age_s", "Seconds since the last checkpoint."),
            ("wal_appends", "WAL records appended (across rotations)."),
            ("wal_commits", "Commit barriers reaching the WAL."),
            ("wal_syncs", "Physical WAL flushes (group commit folds "
                          "several commits into one)."),
        ):
            if backend.get(key) is not None:
                name = key[:-2] + "_seconds" if key.endswith("_s") else key
                gauge(name, help_text, backend[key])
        if (
            backend.get("wal_commits") is not None
            and backend.get("wal_syncs") is not None
        ):
            gauge(
                "wal_group_commit_riders",
                "Commits that rode another commit's flush.",
                backend["wal_commits"] - backend["wal_syncs"],
            )
        # Both sides of a pair advertise role and epoch, so dashboards
        # track failover from either.
        for name, help_text, value in self.node.metrics():
            gauge(name, help_text, value)
        log = self.query_log.status()
        gauge(
            "slow_query_log_entries",
            "Entries currently held in the slow-query ring buffer.",
            log["count"],
        )
        if log["threshold_s"] is not None:
            gauge(
                "slow_query_threshold_seconds",
                "Threshold above which a request is logged as slow.",
                log["threshold_s"],
            )
        return reg

    # ------------------------------------------------------------------
    # route handlers: what each route does, nothing else
    # ------------------------------------------------------------------

    def _update(self, request: _Request) -> Response:
        """POST /update: translate + execute, answer with RDF feedback.
        Placeholders are rejected at parse time (the wire protocol has
        no bindings), preserving the submission's concreteness rule."""
        result = self.session.prepare_update(
            request.body, allow_placeholders=False
        ).execute()
        return _confirmation(result)

    def _batch(self, request: _Request) -> Response:
        """POST /batch: all operations inside one database transaction.
        ``application/json`` bodies carry an array of SPARQL/Update
        request strings; anything else is one (possibly multi-operation)
        SPARQL/Update request.  On error nothing is persisted."""
        requests = [request.body]
        content_type = request.headers.get("Content-Type")
        if (
            content_type
            and content_type.split(";")[0].strip().lower()
            == protocol.CONTENT_JSON
        ):
            requests = json.loads(request.body)
            if not isinstance(requests, list) or not all(
                isinstance(r, str) for r in requests
            ):
                return Response.text(
                    "batch body must be a JSON array of SPARQL/Update "
                    "strings",
                    status=400,
                )
        return _confirmation(self.session.execute_all(requests))

    def _query(self, request: _Request) -> Response:
        """POST /query (body) or GET /query?query=…: SELECT/ASK/CONSTRUCT,
        content-negotiated via ``Accept``; SELECT results stream.  With
        ``explain=analyze`` the query runs with the operator probe armed
        and the answer is the instrumented plan instead of the rows."""
        if request.method == "GET":
            texts = request.params.get("query")
            if not texts:
                return Response.text("missing query parameter", status=400)
            text = texts[0]
        else:
            text = request.body
        if request.params.get("explain") == ["analyze"]:
            with analyze_scope() as probe:
                result = self.session.query(text)
            report = probe.report()
            if isinstance(result, bool):
                report["result"] = result
            elif not isinstance(result, Graph):
                report["result_rows"] = len(result.solutions)
                annotate(rows=len(result.solutions))
            return Response.json(report)
        accept = request.headers.get("Accept")
        if not protocol.acceptable(accept):
            return protocol.error_json(
                "not-acceptable",
                f"cannot satisfy Accept: {accept!r}; supported result "
                "formats are listed under 'supported'",
                406,
                supported=list(protocol.QUERY_RESULT_TYPES),
            )
        return _query_result(self.session.answer_outcome(text), accept)

    def _dump(self, request: _Request) -> Response:
        return Response.turtle(self.session.dump())

    def _mapping(self, request: _Request) -> Response:
        return Response(
            status=200,
            body=mapping_to_turtle(self.mediator.mapping),
            content_type=protocol.CONTENT_TURTLE,
        )

    def _checkpoint(self, request: _Request) -> Response:
        """POST /admin/checkpoint: serialize the committed state and
        truncate the write-ahead log (409 when the endpoint serves an
        in-memory database)."""
        path = self.session.checkpoint()
        if path is None:
            return Response.json(
                {"checkpoint": None, "error": "database has no data_dir"},
                status=409,
            )
        return Response.json({"checkpoint": path})

    def _promote(self, request: _Request) -> Response:
        """POST /admin/promote: promote this replica to primary.

        200 with the promotion record (new epoch, drained flag, applied
        position) — idempotently on repeat calls, since
        :meth:`Node.promote` is.  409 ``not-promotable`` when the node
        has no replica to promote; 500 ``promotion-failed`` when the
        promotion itself errored (the replica is stopped but writable
        state was not reached — operator attention required), unless the
        error is the serving tier's own (503 ``storage-degraded``, ...)."""
        if not self.node.promotable:
            return protocol.error_json(
                "not-promotable",
                "this endpoint has no promotion path; it either already "
                "serves a primary or was started without one",
                409,
            )
        return Response.json({"promoted": True, **self.node.promote()})

    def _health(self, request: _Request) -> Response:
        """GET /health: always 200; ``status`` says ``"degraded"`` while
        the WAL refuses commits."""
        return Response.json(self._snapshot())

    def _ready(self, request: _Request) -> Response:
        """GET /ready: 200 while the endpoint can accept writes (or, on a
        replica, serve synced reads), 503 while it cannot — replica
        bootstrap replay still running, the node fenced, or the durable
        store refusing commits (load balancers drain on this)."""
        snapshot = self._snapshot()
        if not self.node.ready:
            if snapshot["role"] == "fenced":
                return protocol.error_json(
                    "fenced",
                    f"fenced at epoch {snapshot['epoch']}: a higher epoch "
                    "was promoted; writes go to the new primary",
                    503,
                )
            return protocol.error_json(
                "replica-syncing",
                "replica has not finished bootstrap replay",
                503,
                retry_after=RETRY_AFTER,
                replica=snapshot["replication"],
            )
        if snapshot["status"] == "degraded":
            return protocol.error_json(
                "degraded",
                "write-ahead log is refusing commits; restart the process "
                "to recover the durable prefix",
                503,
            )
        doc: Dict[str, Any] = {"ready": True}
        if "replication" in snapshot:
            doc["replica"] = snapshot["replication"]
        return Response.json(doc)

    def _metrics(self, request: _Request) -> Response:
        """GET /metrics: Prometheus text exposition.  The chaos site
        ``obs:export`` fires inside the renderer; a failing scrape is a
        503 and degrades monitoring, never serving."""
        registry = self._scrape_registry(self._snapshot())
        return Response(
            status=200,
            body=render_exposition([REGISTRY, registry]),
            content_type=protocol.CONTENT_PROMETHEUS,
        )

    def _stats(self, request: _Request) -> Response:
        """GET /admin/stats: serving and request counters as JSON."""
        snapshot = self._snapshot()
        return Response.json({
            "serving": snapshot["serving"],
            "requests": snapshot["requests"],
            "slow_queries": self.query_log.status(),
        })

    def _slow_queries(self, request: _Request) -> Response:
        """GET /admin/slow-queries: the slow-query ring, newest first."""
        return Response.json(
            {**self.query_log.status(), "entries": self.query_log.snapshot()}
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @property
    def port(self) -> int:
        if self._server is None:
            return self._requested_port
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> None:
        if self._server is not None:
            return
        server = _BoundedThreadingHTTPServer(
            (self.host, self._requested_port),
            _Handler,
            max_connections=self.max_connections,
        )
        server.endpoint = self
        self._server = server
        self._thread = threading.Thread(target=server.serve_forever, daemon=True)
        self._thread.start()

    def stop(self) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
            self._thread = None

    def __enter__(self) -> "OntoAccessEndpoint":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def _positive_seconds(text: str, what: str) -> float:
    try:
        value = float(text)
    except (TypeError, ValueError):
        raise ValueError(f"invalid {what}: {text!r} is not a number") from None
    if not math.isfinite(value) or value <= 0.0:
        raise ValueError(
            f"invalid {what}: {text!r} must be a positive finite number "
            "of seconds"
        )
    return value


def _confirmation(result: UpdateResult) -> Response:
    """A successful write's RDF confirmation (its Turtle, from the
    template :func:`~repro.core.feedback.confirmation_turtle` fills)."""
    return Response(
        status=200,
        body=confirmation_turtle(
            result.statements_executed(), len(result.operations)
        ),
        content_type=protocol.CONTENT_TURTLE,
    )


_JSON_GENERATED = JSON_ANSWERS.labels("generated")
_JSON_TERMS = JSON_ANSWERS.labels("terms")


def _query_result(outcome: QueryOutcome, accept: Optional[str]) -> Response:
    """A query's answer in the best format ``accept`` allows.  JSON is
    written from ``outcome.answer`` — a kept translation's rows go to
    text through its generated writer —, every other format from the
    answer's terms (``outcome.result``)."""
    answer = outcome.answer
    if not isinstance(answer, (bool, Graph)):
        annotate(rows=len(answer))
    wants_json = protocol.accepts(accept, protocol.CONTENT_SPARQL_JSON)
    wants_xml = protocol.accepts(accept, protocol.CONTENT_SPARQL_XML)
    if isinstance(answer, bool):
        if wants_json:
            return Response.json(
                protocol.render_ask_json(answer),
                content_type=protocol.CONTENT_SPARQL_JSON,
            )
        if wants_xml:
            return Response(
                status=200,
                body=protocol.render_ask_xml(answer),
                content_type=protocol.CONTENT_SPARQL_XML,
            )
        return Response.text("true" if answer else "false")
    if isinstance(answer, Graph):
        return Response.turtle(answer)
    if wants_json:
        # JSON first: a client listing both sparql-results+json and
        # another format keeps getting the richer format it always got;
        # XML outranks CSV/TSV for the same reason.
        if isinstance(answer, SelectRows):
            _JSON_GENERATED.inc()
        else:
            answer = outcome.result
            _JSON_TERMS.inc()
        return Response.stream(
            protocol.iter_select_json(answer), protocol.CONTENT_SPARQL_JSON
        )
    result = outcome.result
    if wants_xml:
        return Response.stream(
            protocol.iter_select_xml(result), protocol.CONTENT_SPARQL_XML
        )
    if protocol.accepts(accept, protocol.CONTENT_CSV):
        return Response.stream(
            protocol.iter_select_csv(result), protocol.CONTENT_CSV
        )
    if protocol.accepts(accept, protocol.CONTENT_TSV):
        return Response.stream(
            protocol.iter_select_tsv(result), protocol.CONTENT_TSV
        )
    return Response.stream(
        protocol.iter_select_result(result), protocol.CONTENT_TEXT
    )


#: Every route the endpoint answers (see the module docstring).
ROUTES: Dict[Tuple[str, str], Route] = {
    ("POST", protocol.UPDATE_PATH): Route(
        OntoAccessEndpoint._update, "update", WRITE, "updates",
        _write_rejected,
    ),
    ("POST", protocol.BATCH_PATH): Route(
        OntoAccessEndpoint._batch, "batch", WRITE, "batches", _batch_rejected,
    ),
    ("POST", protocol.QUERY_PATH): Route(
        OntoAccessEndpoint._query, "query", READ, rejected=_query_rejected,
    ),
    ("GET", protocol.QUERY_PATH): Route(
        OntoAccessEndpoint._query, "query", READ, rejected=_query_rejected,
    ),
    ("GET", protocol.DUMP_PATH): Route(OntoAccessEndpoint._dump, "dump", READ),
    ("GET", protocol.MAPPING_PATH): Route(OntoAccessEndpoint._mapping),
    ("POST", protocol.CHECKPOINT_PATH): Route(
        OntoAccessEndpoint._checkpoint, None, WRITE, "checkpoints",
        _checkpoint_failed,
    ),
    ("POST", protocol.PROMOTE_PATH): Route(
        OntoAccessEndpoint._promote, rejected=_promotion_failed,
    ),
    ("GET", protocol.HEALTH_PATH): Route(OntoAccessEndpoint._health),
    ("GET", protocol.READY_PATH): Route(OntoAccessEndpoint._ready),
    ("GET", protocol.METRICS_PATH): Route(
        OntoAccessEndpoint._metrics, rejected=_metrics_unavailable,
    ),
    ("GET", protocol.STATS_PATH): Route(OntoAccessEndpoint._stats),
    ("GET", protocol.SLOW_QUERIES_PATH): Route(
        OntoAccessEndpoint._slow_queries
    ),
}


# ---------------------------------------------------------------------------
# the wire
# ---------------------------------------------------------------------------

#: ``HTTP/<major>.<minor>`` as the stdlib's request-line parser accepts it
_VERSION = re.compile(r"HTTP/(\d{1,10})\.(\d{1,10})")

_date = (0, "")


def _http_date() -> str:
    """The ``Date`` header's value, formatted once per second."""
    global _date
    now = int(time.time())
    if _date[0] != now:
        _date = (now, email.utils.formatdate(now, usegmt=True))
    return _date[1]


class _Handler(BaseHTTPRequestHandler):
    """HTTP for one connection; every request goes to the endpoint's
    dispatcher (``self.server.endpoint.handle``)."""

    # HTTP/1.1 so streamed responses can use chunked transfer encoding
    # (fixed-length responses still send Content-Length).
    protocol_version = "HTTP/1.1"
    # With the buffered writer every flush is a complete message, so
    # there is nothing for Nagle to coalesce — only its wait for the
    # peer's (delayed) ACK to lose.
    disable_nagle_algorithm = True

    def setup(self) -> None:
        super().setup()
        self.wfile = _ResponseWriter(self.connection)

    def parse_request(self) -> bool:
        """The request line by the stdlib's rules, then the head through
        :func:`protocol.read_head`.  False when the request was refused
        (the refusal is written and the connection closes)."""
        self.command = None  # set in case of error on the first line
        self.request_version = self.default_request_version
        self.close_connection = True
        self.requestline = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        words = self.requestline.split()
        if not words:
            return False
        if len(words) >= 3:
            version = _VERSION.fullmatch(words[-1])
            number = (int(version[1]), int(version[2])) if version else None
            if number is None or number >= (2, 0):
                # Refused with a status line: the stdlib answers these
                # as HTTP/0.9, a body the peer cannot tell from a reply.
                self.request_version = self.protocol_version
                if number is None:
                    self.send_error(400, f"Bad request version ({words[-1]!r})")
                else:
                    self.send_error(505, f"Invalid HTTP version ({words[-1][5:]})")
                return False
            self.close_connection = number < (1, 1)
            self.request_version = words[-1]
        if not 2 <= len(words) <= 3:
            self.send_error(400, f"Bad request syntax ({self.requestline!r})")
            return False
        command, path = words[:2]
        if len(words) == 2:  # HTTP/0.9
            self.close_connection = True
            if command != "GET":
                self.send_error(400, f"Bad HTTP/0.9 request type ({command!r})")
                return False
        # A leading '//' would read as a network-path reference.
        if path.startswith("//"):
            path = "/" + path.lstrip("/")
        self.command, self.path = command, path
        try:
            self.headers = protocol.read_head(self.rfile.readline)
        except protocol.FramingError as exc:
            self.send_error(exc.status, explain=str(exc))
            return False
        connection = self.headers.get("Connection", "").lower()
        if connection == "close":
            self.close_connection = True
        elif connection == "keep-alive":
            self.close_connection = False
        if (
            self.headers.get("Expect", "").lower() == "100-continue"
            and self.request_version >= "HTTP/1.1"
        ):
            # The interim response must reach the client before it sends
            # the body this handler is about to read.
            self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
            self.wfile.flush()
        return True

    def log_message(self, *args) -> None:  # keep tests quiet
        pass

    def do_GET(self) -> None:
        self._dispatch("")

    def do_POST(self) -> None:
        self._dispatch(self._read_body())

    def _dispatch(self, body: Union[str, Response]) -> None:
        self.server.endpoint.handle(
            self.command, self.path, self.headers, body, send=self._send
        )

    def _read_body(self) -> Union[str, Response]:
        """The request body, or the answer to a body this layer will not
        read — the connection then closes instead of resynchronizing."""
        if "chunked" in (self.headers.get("Transfer-Encoding") or "").lower():
            # Bodies are read via Content-Length only; under keep-alive an
            # unread chunked payload would desync the connection.
            self.close_connection = True
            return Response.text(
                "chunked request bodies are not supported; send "
                "Content-Length",
                status=411,
            )
        length_header = self.headers.get("Content-Length", "0")
        try:
            length = int(length_header)
        except ValueError:
            length = -1
        if length < 0:
            # Also a well-formed negative number: read(-1) would park
            # this thread until the peer hangs up.
            self.close_connection = True
            return protocol.error_json(
                "bad-request", f"invalid Content-Length: {length_header!r}",
                400,
            )
        limit = self.server.endpoint.max_body_bytes
        if length > limit:
            self.close_connection = True
            return protocol.error_json(
                "body-too-large",
                f"request body of {length} bytes exceeds the limit of "
                f"{limit} bytes",
                413,
            )
        try:
            return self.rfile.read(length).decode("utf-8")
        except UnicodeDecodeError as exc:
            # The body was read whole: the connection stays usable.
            return protocol.error_json(
                "bad-request", f"request body is not UTF-8: {exc}", 400
            )

    def _head(self, response: Response, framing: str) -> bytes:
        """The response head as one string: status line, ``Server``,
        ``Date``, ``Content-Type``, the response's headers, the request
        id and the ``framing`` header (an HTTP/0.9 answer has none)."""
        if self.request_version == "HTTP/0.9":
            return b""
        fields = "".join(
            f"{name}: {value}\r\n" for name, value in response.headers.items()
        )
        # Echo the request id on every response — errors too — so one id
        # joins client retries, server logs, and the slow-query entry.
        if "X-Request-Id" not in response.headers:
            rid = current_request_id()
            if rid:
                fields += f"X-Request-Id: {rid}\r\n"
        status = response.status
        reason = self.responses[status][0] if status in self.responses else ""
        return (
            f"HTTP/1.1 {status} {reason}\r\nServer: {self.version_string()}\r\n"
            f"Date: {_http_date()}\r\nContent-Type: {response.content_type}"
            f"\r\n{fields}{framing}\r\n\r\n"
        ).encode("iso-8859-1")

    def _send(
        self, response: Response, deadline: Optional[Deadline] = None
    ) -> None:
        # RFC 7230: no chunked framing toward a 1.0 peer; reading .body
        # drains the iterator into one payload sent with Content-Length.
        if response.body_iter is not None and self.request_version != "HTTP/1.0":
            self._send_chunked(response, deadline)
            return
        try:
            payload = response.body.encode("utf-8")
        except Exception as exc:
            # A drained body whose writer raised before any byte went
            # out: answered as any other server fault, and logged with
            # the status that was sent.
            annotate(cause="internal-error")
            failed = _internal_error(exc)
            response.status = failed.status
            response.content_type = failed.content_type
            payload = failed.body.encode("utf-8")
        self.wfile.write(
            self._head(response, f"Content-Length: {len(payload)}")
        )
        self.wfile.write(payload)
        try:
            self.wfile.flush()  # headers + body: one segment
        except OSError:
            # Client went away mid-response: close our side; the shared
            # session is untouched (it already returned).
            self._abort_stream()

    def _send_chunked(
        self, response: Response, deadline: Optional[Deadline] = None
    ) -> None:
        """Stream ``response.body_iter`` with chunked framing: one write
        + flush per batch.  A framed batch is held back until the next
        one has been pulled (or the stream ended), so the headers ride
        the first flush and the terminating 0-chunk the last — a
        one-batch answer is a single segment.  The held batch is flushed
        *before* the fault and deadline checks of its successor, so a
        stall or expiry there never withholds rows already produced."""
        write, flush = self.wfile.write, self.wfile.flush
        write(self._head(response, "Transfer-Encoding: chunked"))
        held = b""
        try:
            for chunk in response.body_iter:
                if held:
                    write(held)
                    flush()
                    held = b""
                if INJECTOR.armed:
                    INJECTOR.fire("endpoint:stream")
                if deadline is not None:
                    deadline.check()
                data = chunk.encode("utf-8")
                if not data:
                    continue  # an empty chunk would end the body
                held = b"%X\r\n%b\r\n" % (len(data), data)
            write(held + b"0\r\n\r\n")
            flush()
        except (QueryTimeout, FaultError, OSError):
            self._abort_stream()
        except Exception:
            self._abort_failed_stream(held)

    def _abort_stream(self) -> None:
        """Truncate the body without the terminating 0-chunk so the
        client sees an aborted body, and close the connection — never
        leave a desynced keep-alive.  (Headers still buffered go out
        when the handler finishes: the peer sees a body that never
        ended.)"""
        self.server.endpoint._note_stream_abort()
        self.close_connection = True

    def _abort_failed_stream(self, held: bytes) -> None:
        """The abort of a body whose writer raised, after the batch it
        had produced (``held``) went out.  A server fault: its traceback
        goes to stderr, as for a 500, and the request's access-log line
        names the cause."""
        traceback.print_exc()
        annotate(cause="internal-error")
        if held:
            try:
                self.wfile.write(held)
                self.wfile.flush()
            except OSError:
                pass  # the abort below is all that is left to do
        self._abort_stream()
