"""The OntoAccess HTTP endpoint (paper Section 6) on stdlib http.server.

Usage::

    from repro.server import OntoAccessEndpoint
    endpoint = OntoAccessEndpoint(mediator, port=0)   # 0 = ephemeral port
    endpoint.start()
    ...  # clients POST SPARQL to http://localhost:{endpoint.port}/update
    endpoint.stop()

The endpoint is intentionally small: request routing, content negotiation
and HTTP concerns live here, all semantics live in the mediator's
:class:`~repro.core.session.Session`.  The endpoint drives one shared
session: update requests serialize on the backend's write-tier lock,
while query requests run lock-free against the engine's committed MVCC
snapshot — so the ``ThreadingHTTPServer``'s handler threads genuinely
answer reads concurrently with each other and with at most one writer.
Request counters are kept per handler thread (no shared lock on the hot
path) and aggregated on read.  ``handle_update`` / ``handle_query`` /
``handle_batch`` are also callable directly (no network) so tests can
exercise the protocol logic in isolation.

Resilience (ISSUE 6) — the endpoint degrades gracefully instead of
falling over:

* **Deadlines** — every work request gets a budget: the tighter of the
  server-wide ``default_timeout`` and what the client asked for via
  ``?timeout=`` / ``X-Request-Deadline``.  The budget is installed as a
  thread-local :func:`~repro.deadline.deadline_scope`; the executor's
  cooperative cancellation checks turn a runaway query into a typed
  :class:`~repro.errors.QueryTimeout` → HTTP 408 with ``Retry-After``.
* **Admission control** — a bounded in-flight gate with a short bounded
  wait queue.  When full, requests are shed *fast* with 503 +
  ``Retry-After`` + a JSON error body, keeping p99 bounded for the
  requests that are admitted.  A connection-level cap on the threading
  server bounds total live threads even under keep-alive.
* **Health** — ``GET /health`` (always 200, ``status: ok|degraded``)
  and ``GET /ready`` (503 while degraded) surface durability state:
  WAL refusing mode, last checkpoint age.  Both bypass admission so a
  probe can never be starved by load.

Replica mode (ISSUE 8) — constructed with ``replica=`` (a
:class:`~repro.replication.replica.Replica`), the endpoint serves the
read side of WAL-shipping replication:

* writes (``/update``, ``/batch``, ``/admin/checkpoint``) answer 403 —
  they belong on the primary;
* reads carry an ``X-Replica-Lag`` header (seconds of staleness) and are
  refused with 503 while the replica is bootstrapping or once its lag
  exceeds ``max_replica_lag`` — the client's cue to fall back to the
  primary;
* ``/ready`` is 503 until bootstrap replay has caught up to the
  primary's watermark, so load balancers only route to synced replicas.

Observability (ISSUE 10) — the serving tier is inspectable end to end:

* ``GET /metrics`` renders the process-wide metric registry plus a
  scrape-time snapshot of the endpoint's own state (gate, planner
  cache, WAL/checkpoint, replication) in the Prometheus text format.
  Like the probes it bypasses admission, and a failing exposition
  (chaos site ``obs:export``) maps to a 503 without touching serving.
* Every request carries an ``X-Request-Id`` (caller-supplied or
  generated) that is installed thread-local for the whole dispatch, so
  it appears in the access-log line, the slow-query entry, and the
  response header — including error responses.
* Work requests emit one structured JSON access-log line (op, status,
  queue wait, execute, serialize, rows, shed/timeout cause) and are
  teed into a ring-buffered slow-query log served at
  ``GET /admin/slow-queries``.
* ``GET /query?…&explain=analyze`` (and POST with the same parameter)
  answers the EXPLAIN tree with per-operator elapsed/rows/loops
  instead of the result rows.
"""

from __future__ import annotations

import json
import math
import threading
import time
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, List, Optional

from ..deadline import Deadline, deadline_scope
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
from ..core.feedback import error_graph
from ..core.mediator import OntoAccess, UpdateResult
from ..observability.metrics import (
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
    analyze_scope,
    annotate,
    current_request_id,
    new_request_id,
    request_scope,
    sanitize_request_id,
    trace_scope,
)
from ..rdf.graph import Graph
from ..r3m.serialize import mapping_to_turtle
from . import protocol
from .protocol import Response

__all__ = ["OntoAccessEndpoint"]


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
        replica: Optional[Any] = None,
        max_replica_lag: Optional[float] = None,
        promoter: Optional[Callable[[], Dict[str, Any]]] = None,
        shipper: Optional[Any] = None,
        slow_query_threshold: Optional[float] = 1.0,
        access_log: Optional[Any] = None,
    ) -> None:
        self.mediator = mediator
        #: replication (ISSUE 8): serving the read side of a replica
        self.replica = replica
        self.max_replica_lag = max_replica_lag
        #: failover (ISSUE 9): callable that promotes this replica to
        #: primary (``POST /admin/promote``); None on endpoints that
        #: cannot be promoted (true primaries, or replicas launched
        #: without a promotion path).
        self.promoter = promoter
        self._promote_lock = threading.Lock()
        #: One session shared by all handler threads: writes serialize on
        #: its write-tier lock, reads run against committed snapshots, and
        #: its prepared cache amortizes repeated texts across threads.
        self.session = mediator.session()
        self.host = host
        self._requested_port = port
        self._server: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None
        #: per-thread [served, errors] cells for monitoring/benchmarks:
        #: the hot path is a plain list increment with no shared lock,
        #: totals are summed on read
        self._stats = _ShardedCells(2)
        # -- resilience knobs (ISSUE 6) --------------------------------
        self._gate = _AdmissionGate(max_in_flight, max_queue, queue_timeout)
        #: server-wide request budget; a client may only tighten it
        self.default_timeout = default_timeout
        self.max_body_bytes = max_body_bytes
        self.max_connections = max_connections
        self._abort_lock = threading.Lock()
        #: responses whose streaming was cut short (client disconnect or
        #: deadline expiry mid-stream)
        self.stream_aborts = 0
        # -- observability (ISSUE 10) ----------------------------------
        #: the primary's log shipper, when this endpoint fronts one; a
        #: promoted replica's runner assigns the new shipper here so the
        #: /metrics replication families follow the role change.
        self.shipper = shipper
        #: ring-buffered log of requests over the slow threshold
        self.query_log = QueryLog(threshold=slow_query_threshold)
        #: writable text stream for JSON access-log lines (None = off)
        self.access_log = access_log
        self._access_log_lock = threading.Lock()

    @property
    def requests_served(self) -> int:
        return int(self._stats.total()[0])

    @property
    def errors_returned(self) -> int:
        return int(self._stats.total()[1])

    def _count(self, error: bool = False) -> None:
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
    # observability (ISSUE 10)
    # ------------------------------------------------------------------

    def _scrape_registry(self) -> MetricsRegistry:
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

        serving = self.serving_stats()
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
            self.requests_served,
        )
        gauge(
            "endpoint_request_errors",
            "Error responses returned by this endpoint since start.",
            self.errors_returned,
        )
        db = getattr(self.mediator, "db", None)
        planner = getattr(db, "planner", None)
        if planner is not None:
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
        backend = self.session.health()
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
        replica = self.replica
        if replica is not None and hasattr(replica, "metrics"):
            for key, value in replica.metrics().items():
                gauge(
                    f"replica_{key}",
                    f"Replica statistic {key!r} (see /health).",
                    value,
                )
        else:
            # A primary advertises role/epoch too, so dashboards track
            # failover from either side of the pair.
            fenced = bool(getattr(db, "read_only", False))
            gauge(
                "replica_role_primary",
                "1 when this endpoint serves the primary.",
                0.0 if fenced else 1.0,
            )
            gauge(
                "replica_epoch",
                "Failover epoch of the served store.",
                getattr(db, "epoch", 0),
            )
        shipper = self.shipper
        if shipper is not None and hasattr(shipper, "metrics"):
            for key, value in shipper.metrics().items():
                gauge(
                    f"shipper_{key}",
                    f"Log-shipper statistic {key!r}.",
                    value,
                )
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

    def handle_metrics(self) -> Response:
        """GET /metrics: Prometheus text exposition, admission-exempt.

        The chaos site ``obs:export`` fires inside the renderer; an
        injected failure maps to a 503 here — a broken or slow scrape
        can degrade monitoring, never serving.
        """
        return self._respond(
            lambda: render_exposition([REGISTRY, self._scrape_registry()]),
            lambda text: Response(
                status=200, body=text, content_type=protocol.CONTENT_PROMETHEUS
            ),
            lambda exc: protocol.error_json("metrics-unavailable", str(exc), 503),
        )

    def handle_stats(self) -> Response:
        """GET /admin/stats: serving statistics as JSON (admission-exempt,
        like /health — saturation is exactly when you need it)."""
        self._count()
        return Response.json(
            {
                "serving": self.serving_stats(),
                "requests": {
                    "served": self.requests_served,
                    "errors": self.errors_returned,
                },
                "slow_queries": self.query_log.status(),
            }
        )

    def handle_slow_queries(self) -> Response:
        """GET /admin/slow-queries: the slow-query ring, newest first."""
        self._count()
        return Response.json(
            {**self.query_log.status(), "entries": self.query_log.snapshot()}
        )

    def handle_query_analyze(self, body: str) -> Response:
        """``/query`` with ``explain=analyze``: execute the query with the
        operator probe armed and answer the instrumented plan instead of
        the result rows."""
        blocked = self._replica_gate()
        if blocked is not None:
            return blocked

        def run():
            with analyze_scope() as probe:
                return probe, self.session.query(body)

        def shape(outcome) -> Response:
            probe, result = outcome
            report = probe.report()
            if isinstance(result, bool):
                report["result"] = result
            elif not isinstance(result, Graph):
                report["result_rows"] = len(result.solutions)
                annotate(rows=len(result.solutions))
            return self._tag_replica(Response.json(report))

        return self._respond(run, shape, _query_rejected)

    def _finish_request(
        self, op: str, status: int, trace: Dict[str, Any], total_s: float
    ) -> None:
        """Metrics + access log + slow-query tee for one work request."""
        REQUESTS.labels(op, str(status)).inc()
        REQUEST_SECONDS.labels(op).observe(total_s)
        queue_wait = trace.get("queue_wait_s")
        if queue_wait is not None:
            QUEUE_WAIT_SECONDS.observe(queue_wait)
        entry: Dict[str, Any] = {
            "request_id": trace.get("request_id"),
            "op": op,
            "status": status,
            "total_s": round(total_s, 6),
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

    # ------------------------------------------------------------------
    # deadlines
    # ------------------------------------------------------------------

    def _request_deadline(
        self, query_string: Optional[str], headers
    ) -> Optional[Deadline]:
        """The budget for one request: the tighter of the server default
        and any client-requested ``timeout=`` param / ``X-Request-
        Deadline`` header.  Raises ValueError on a malformed value (the
        HTTP layer answers 400)."""
        requested: List[float] = []
        if query_string:
            params = urllib.parse.parse_qs(query_string)
            if "timeout" in params:
                requested.append(
                    _positive_seconds(params["timeout"][0], "timeout parameter")
                )
        header = headers.get("X-Request-Deadline") if headers is not None else None
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
    # replica staleness gate (ISSUE 8)
    # ------------------------------------------------------------------

    def _serving_replica(self) -> Optional[Any]:
        """The replica this endpoint is serving reads for, or None when
        the endpoint serves a primary.  A promoted replica (its ``role``
        flipped to ``"primary"``) stops counting: write refusals and
        staleness gates lift the moment :meth:`handle_promote` returns,
        with no endpoint reconfiguration."""
        replica = self.replica
        if replica is None:
            return None
        if getattr(replica, "role", "replica") == "primary":
            return None
        return replica

    def _replica_gate(self) -> Optional[Response]:
        """None when a read may be served here; a 503 when this endpoint
        is a replica that is still syncing or too stale (``max_replica_
        lag`` exceeded) — the client retries against the primary."""
        replica = self._serving_replica()
        if replica is None:
            return None
        if not replica.ready:
            self._count(error=True)
            return protocol.error_json(
                "replica-syncing",
                "replica has not finished bootstrap replay; retry on "
                "the primary",
                503,
                retry_after=RETRY_AFTER,
            )
        lag = replica.lag()
        if self.max_replica_lag is not None and lag > self.max_replica_lag:
            self._count(error=True)
            response = protocol.error_json(
                "replica-lagging",
                f"replica lag {lag:.3f}s exceeds the bound of "
                f"{self.max_replica_lag:g}s; retry on the primary",
                503,
                retry_after=RETRY_AFTER,
                lag_s=round(lag, 3),
            )
            response.headers["X-Replica-Lag"] = f"{lag:.3f}"
            return response
        return None

    def _tag_replica(self, response: Response) -> Response:
        """Attach the staleness measurement to a replica-served read."""
        replica = self._serving_replica()
        if replica is not None:
            lag = replica.lag()
            if math.isfinite(lag):
                response.headers["X-Replica-Lag"] = f"{lag:.3f}"
        return response

    def _refuse_write(self, what: str) -> Response:
        self._count(error=True)
        return protocol.error_json(
            "read-only-replica",
            f"{what} must go to the primary; this endpoint serves a "
            "read replica",
            403,
        )

    # ------------------------------------------------------------------
    # protocol handlers (network-independent)
    # ------------------------------------------------------------------

    def _respond(
        self,
        run: Callable[[], Any],
        shape: Callable[[Any], Response],
        rejected: Callable[[ReproError], Response],
    ) -> Response:
        """Run one request's work and shape the answer: ``shape(result)``
        on success, otherwise the status + body the failure's class maps
        to.  The serving tier's own failures (deadline, fencing,
        replication, durability) answer the same on every route;
        ``rejected(exc)`` is the route's answer to a request the mediator
        turned down."""
        try:
            result = run()
        except QueryTimeout as exc:
            response = protocol.error_json(
                "timeout", str(exc), 408, retry_after=RETRY_AFTER
            )
        except ReadOnlyDatabaseError as exc:
            # Fenced/deposed primary: the write provably did not execute,
            # so the client may safely re-route it (ISSUE 9).
            response = protocol.error_json("read-only", str(exc), 403)
        except ReplicationError as exc:
            # Semi-sync barrier timed out: durable here, unacknowledged
            # by the replica quorum.  NOT safe to blindly retry.
            response = protocol.error_json(
                "replication-degraded", str(exc), 503,
                retry_after=RETRY_AFTER,
            )
        except DurabilityError as exc:
            response = protocol.error_json("storage-degraded", str(exc), 503)
        except ReproError as exc:
            response = rejected(exc)
        else:
            self._count()
            return shape(result)
        self._count(error=True)
        return response

    def _write_response(self, run: Callable[[], UpdateResult]) -> Response:
        """Run an update or a batch; the answer is RDF feedback, also for
        a request that does not parse or translate."""
        return self._respond(
            run,
            lambda result: Response.turtle(result.feedback(), status=200),
            _write_rejected,
        )

    def handle_update(self, body: str) -> Response:
        """POST /update: translate + execute, answer with RDF feedback.

        Placeholders are rejected at parse time (the wire protocol has no
        bindings), preserving the submission's concreteness rule.
        """
        if self._serving_replica() is not None:
            return self._refuse_write("updates")
        return self._write_response(
            lambda: self.session.prepare_update(
                body, allow_placeholders=False
            ).execute()
        )

    def handle_batch(self, body: str, content_type: Optional[str] = None) -> Response:
        """POST /batch: all operations inside one database transaction.

        ``application/json`` bodies carry an array of SPARQL/Update
        request strings; anything else is one (possibly multi-operation)
        SPARQL/Update request.  On error nothing is persisted.
        """
        if self._serving_replica() is not None:
            return self._refuse_write("batches")
        requests = [body]
        if (
            content_type
            and content_type.split(";")[0].strip().lower()
            == protocol.CONTENT_JSON
        ):
            try:
                requests = json.loads(body)
            except json.JSONDecodeError as exc:
                self._count(error=True)
                return Response.text(f"invalid JSON body: {exc}", status=400)
            if not isinstance(requests, list) or not all(
                isinstance(r, str) for r in requests
            ):
                self._count(error=True)
                return Response.text(
                    "batch body must be a JSON array of SPARQL/Update "
                    "strings",
                    status=400,
                )
        return self._write_response(lambda: self.session.execute_all(requests))

    def handle_query(self, body: str, accept: Optional[str] = None) -> Response:
        """POST /query (or GET): SELECT/ASK/CONSTRUCT over the mediated
        database, content-negotiated via ``accept``.

        SELECT results are serialized incrementally (JSON / CSV / TSV /
        text table) and streamed with chunked transfer encoding, so a
        large result never needs to exist as one response string.

        On a replica the query is refused with 503 while syncing or past
        the lag bound, and a served result carries ``X-Replica-Lag``.
        """
        blocked = self._replica_gate()
        if blocked is not None:
            return blocked
        return self._tag_replica(self._handle_query(body, accept))

    def _handle_query(self, body: str, accept: Optional[str] = None) -> Response:
        if not protocol.acceptable(accept):
            self._count(error=True)
            return protocol.error_json(
                "not-acceptable",
                f"cannot satisfy Accept: {accept!r}; supported result "
                "formats are listed under 'supported'",
                406,
                supported=list(protocol.QUERY_RESULT_TYPES),
            )
        return self._respond(
            lambda: self.session.query(body),
            lambda result: self._query_result(result, accept),
            _query_rejected,
        )

    @staticmethod
    def _query_result(result, accept: Optional[str]) -> Response:
        """A query's answer in the best format ``accept`` allows."""
        if not isinstance(result, (bool, Graph)):
            annotate(rows=len(result.solutions))
        wants_json = protocol.accepts(accept, protocol.CONTENT_SPARQL_JSON)
        wants_xml = protocol.accepts(accept, protocol.CONTENT_SPARQL_XML)
        if isinstance(result, bool):
            if wants_json:
                return Response.json(
                    protocol.render_ask_json(result),
                    content_type=protocol.CONTENT_SPARQL_JSON,
                )
            if wants_xml:
                return Response(
                    status=200,
                    body=protocol.render_ask_xml(result),
                    content_type=protocol.CONTENT_SPARQL_XML,
                )
            return Response.text("true" if result else "false")
        if isinstance(result, Graph):
            return Response.turtle(result)
        if wants_json:
            # JSON first: a client listing both sparql-results+json and
            # another format keeps getting the richer format it always
            # got; XML outranks CSV/TSV for the same reason.
            return Response.stream(
                protocol.iter_select_json(result),
                protocol.CONTENT_SPARQL_JSON,
            )
        if wants_xml:
            return Response.stream(
                protocol.iter_select_xml(result),
                protocol.CONTENT_SPARQL_XML,
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

    def handle_dump(self) -> Response:
        blocked = self._replica_gate()
        if blocked is not None:
            return blocked
        self._count()
        return self._tag_replica(Response.turtle(self.session.dump()))

    def handle_checkpoint(self) -> Response:
        """POST /admin/checkpoint: serialize the committed state and
        truncate the write-ahead log (no-op answer when the endpoint
        serves an in-memory database)."""
        if self._serving_replica() is not None:
            return self._refuse_write("checkpoints")
        try:
            path = self.session.checkpoint()
        except ReproError as exc:
            self._count(error=True)
            return Response.text(f"error: {exc}", status=409)
        if path is None:
            self._count(error=True)
            return Response.json(
                {"checkpoint": None, "error": "database has no data_dir"},
                status=409,
            )
        self._count()
        return Response.json({"checkpoint": path})

    def handle_promote(self) -> Response:
        """POST /admin/promote: promote this replica to primary (ISSUE 9).

        Answers 200 with the promotion record (new epoch, drained flag,
        applied position) — idempotently on repeat calls, since
        :meth:`Replica.promote` is.  409 ``not-promotable`` when the
        endpoint has no promotion path (it already serves a primary, or
        was launched without one); 500 ``promotion-failed`` when the
        promotion itself errored (the replica is stopped but writable
        state was not reached — operator attention required)."""
        promoter = self.promoter
        if promoter is None:
            self._count(error=True)
            return protocol.error_json(
                "not-promotable",
                "this endpoint has no promotion path; it either already "
                "serves a primary or was started without one",
                409,
            )
        with self._promote_lock:
            try:
                record = promoter()
            except ReproError as exc:
                self._count(error=True)
                return protocol.error_json("promotion-failed", str(exc), 500)
        self._count()
        return Response.json({"promoted": True, **record})

    def handle_mapping(self) -> Response:
        self._count()
        return Response(
            status=200,
            body=mapping_to_turtle(self.mediator.mapping),
            content_type=protocol.CONTENT_TURTLE,
        )

    def handle_health(self) -> Response:
        """GET /health: always 200; ``status`` is ``"degraded"`` when the
        WAL is refusing commits.  Includes durability detail (sync mode,
        WAL bytes, last checkpoint age) and serving statistics."""
        backend = self.session.health()
        degraded = bool(backend.get("wal_refusing"))
        self._count()
        doc = {
            "status": "degraded" if degraded else "ok",
            "backend": backend,
            "serving": self.serving_stats(),
            "requests": {
                "served": self.requests_served,
                "errors": self.errors_returned,
            },
        }
        # Failover discovery (ISSUE 9): clients pick a new primary by
        # probing /health for role == "primary" with the highest epoch.
        replica = self.replica
        if replica is not None:
            doc["role"] = replica.role
            doc["epoch"] = replica.epoch
            doc["replication"] = replica.status()
        else:
            db = self.mediator.db
            # A deposed primary (fenced by a higher epoch, flipped
            # read-only) must not advertise itself as primary, or
            # clients would keep routing writes into 403s.
            fenced = bool(getattr(db, "read_only", False))
            doc["role"] = "fenced" if fenced else "primary"
            doc["epoch"] = getattr(db, "epoch", 0)
        return Response.json(doc)

    def handle_ready(self) -> Response:
        """GET /ready: 200 while the endpoint can accept writes (or, on a
        replica, serve synced reads), 503 while degraded — durable store
        refusing commits, or replica bootstrap replay still running
        (load balancers drain on this)."""
        if self._serving_replica() is not None and not self.replica.ready:
            self._count(error=True)
            return protocol.error_json(
                "replica-syncing",
                "replica has not finished bootstrap replay",
                503,
                retry_after=RETRY_AFTER,
                replica=self.replica.status(),
            )
        backend = self.session.health()
        if backend.get("wal_refusing"):
            self._count(error=True)
            return protocol.error_json(
                "degraded",
                "write-ahead log is refusing commits; restart the process "
                "to recover the durable prefix",
                503,
            )
        self._count()
        doc: Dict[str, Any] = {"ready": True}
        if self.replica is not None:
            doc["replica"] = self.replica.status()
        return Response.json(doc)

    # ------------------------------------------------------------------
    # HTTP plumbing
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
        endpoint = self

        class Handler(BaseHTTPRequestHandler):
            # HTTP/1.1 so streamed responses can use chunked transfer
            # encoding (fixed-length responses still send Content-Length).
            protocol_version = "HTTP/1.1"
            # With the buffered writer below every flush is a complete
            # message, so there is nothing for Nagle to coalesce — only
            # its wait for the peer's (delayed) ACK to lose.
            disable_nagle_algorithm = True

            def setup(self) -> None:
                super().setup()
                self.wfile = _ResponseWriter(self.connection)

            def handle_expect_100(self) -> bool:
                # The interim response must reach the client before it
                # sends the body this handler is about to read.
                proceed = super().handle_expect_100()
                self.wfile.flush()
                return proceed

            def log_message(self, *args) -> None:  # keep tests quiet
                pass

            def _request_headers(self, response: Response) -> None:
                for name, value in response.headers.items():
                    self.send_header(name, value)
                # Echo the request id on every response — errors too —
                # so one id joins client retries, server logs, and the
                # slow-query entry.
                if "X-Request-Id" not in response.headers:
                    rid = current_request_id()
                    if rid:
                        self.send_header("X-Request-Id", rid)

            def _send(
                self, response: Response, deadline: Optional[Deadline] = None
            ) -> None:
                if response.body_iter is not None:
                    if self.request_version == "HTTP/1.0":
                        # RFC 7230: no chunked framing toward a 1.0 peer;
                        # reading .body drains the iterator into one
                        # buffered payload sent with Content-Length.
                        pass
                    else:
                        self._send_chunked(response, deadline)
                        return
                payload = response.body.encode("utf-8")
                self.send_response(response.status)
                self.send_header("Content-Type", response.content_type)
                self._request_headers(response)
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)
                try:
                    self.wfile.flush()  # headers + body: one segment
                except OSError:
                    # Client went away mid-response: close our side; the
                    # shared session is untouched (it already returned).
                    endpoint._note_stream_abort()
                    self.close_connection = True

            def _send_chunked(
                self, response: Response, deadline: Optional[Deadline] = None
            ) -> None:
                """Stream ``response.body_iter`` with chunked framing:
                one write + flush per batch.  A framed batch is held
                back until the next one has been pulled (or the stream
                ended), so the headers ride the first flush and the
                terminating 0-chunk the last — a one-batch answer is a
                single segment.  The held batch is flushed *before* the
                fault and deadline checks of its successor, so a stall
                or expiry there never withholds rows already produced."""
                self.send_response(response.status)
                self.send_header("Content-Type", response.content_type)
                self._request_headers(response)
                self.send_header("Transfer-Encoding", "chunked")
                self.end_headers()
                write, flush = self.wfile.write, self.wfile.flush
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
                    # Truncate without the terminating 0-chunk so the
                    # client sees an aborted body, and close the
                    # connection — never leave a desynced keep-alive.
                    # (Headers still buffered go out when the handler
                    # finishes: the peer sees a body that never ended.)
                    endpoint._note_stream_abort()
                    self.close_connection = True

            def _admitted(
                self,
                split,
                work: Callable[[], Response],
                op: str = "request",
            ) -> None:
                """Run one work request under admission control and its
                deadline; sends the response (or the 400/503 shed).

                The whole dispatch runs inside a trace scope: the phase
                timings (queue wait, execute, serialize) and any
                annotations from deeper layers feed one access-log line,
                the request counters, and the slow-query tee."""
                started = time.perf_counter()
                with trace_scope(
                    request_id=current_request_id(), op=op
                ) as trace:
                    self._admitted_traced(split, work, op, trace, started)

            def _admitted_traced(
                self, split, work, op, trace, started
            ) -> None:
                try:
                    deadline = endpoint._request_deadline(
                        split.query, self.headers
                    )
                except ValueError as exc:
                    endpoint._count(error=True)
                    trace["cause"] = "bad-timeout"
                    self._send_traced(
                        protocol.error_json("bad-timeout", str(exc), 400),
                        None, op, trace, started,
                    )
                    return
                admit_start = time.perf_counter()
                admitted = endpoint._gate.admit(deadline)
                trace["queue_wait_s"] = time.perf_counter() - admit_start
                if not admitted:
                    endpoint._count(error=True)
                    trace["cause"] = "shed"
                    self._send_traced(
                        protocol.error_json(
                            "overloaded",
                            "server is at capacity; retry after backoff",
                            503,
                            retry_after=RETRY_AFTER,
                        ),
                        None, op, trace, started,
                    )
                    return
                try:
                    with deadline_scope(deadline):
                        # Streaming happens inside both the scope and the
                        # admission slot: serialization is request work.
                        exec_start = time.perf_counter()
                        response = work()
                        trace["execute_s"] = (
                            time.perf_counter() - exec_start
                        )
                        if response.status == 408:
                            trace["cause"] = "timeout"
                        self._send_traced(
                            response, deadline, op, trace, started
                        )
                finally:
                    endpoint._gate.release()

            def _send_traced(
                self, response, deadline, op, trace, started
            ) -> None:
                serialize_start = time.perf_counter()
                self._send(response, deadline)
                trace["serialize_s"] = time.perf_counter() - serialize_start
                endpoint._finish_request(
                    op, response.status, trace,
                    time.perf_counter() - started,
                )

            def do_POST(self) -> None:
                with request_scope(
                    sanitize_request_id(self.headers.get("X-Request-Id"))
                ):
                    self._route_post()

            def do_GET(self) -> None:
                with request_scope(
                    sanitize_request_id(self.headers.get("X-Request-Id"))
                ):
                    self._route_get()

            def _route_post(self) -> None:
                if "chunked" in (
                    self.headers.get("Transfer-Encoding") or ""
                ).lower():
                    # Bodies are read via Content-Length only; under
                    # HTTP/1.1 keep-alive an unread chunked payload would
                    # desync the connection, so refuse and close instead.
                    self.close_connection = True
                    self._send(
                        Response.text(
                            "chunked request bodies are not supported; "
                            "send Content-Length",
                            status=411,
                        )
                    )
                    return
                length_header = self.headers.get("Content-Length", "0")
                try:
                    length = int(length_header)
                except ValueError:
                    length = -1
                if length < 0:
                    # Also a well-formed negative number: read(-1) would
                    # park this thread until the peer hangs up.
                    self.close_connection = True
                    self._send(
                        protocol.error_json(
                            "bad-request",
                            f"invalid Content-Length: {length_header!r}",
                            400,
                        )
                    )
                    return
                if length > endpoint.max_body_bytes:
                    # The body is never read: close the connection rather
                    # than resynchronize by swallowing it.
                    endpoint._count(error=True)
                    self.close_connection = True
                    self._send(
                        protocol.error_json(
                            "body-too-large",
                            f"request body of {length} bytes exceeds the "
                            f"limit of {endpoint.max_body_bytes} bytes",
                            413,
                        )
                    )
                    return
                body = self.rfile.read(length).decode("utf-8")
                split = urllib.parse.urlsplit(self.path)
                accept = self.headers.get("Accept")
                content_type = self.headers.get("Content-Type")
                if split.path == protocol.UPDATE_PATH:
                    self._admitted(
                        split,
                        lambda: endpoint.handle_update(body),
                        op="update",
                    )
                elif split.path == protocol.QUERY_PATH:
                    params = urllib.parse.parse_qs(split.query)
                    if params.get("explain") == ["analyze"]:
                        self._admitted(
                            split,
                            lambda: endpoint.handle_query_analyze(body),
                            op="query",
                        )
                        return
                    self._admitted(
                        split,
                        lambda: endpoint.handle_query(body, accept=accept),
                        op="query",
                    )
                elif split.path == protocol.BATCH_PATH:
                    self._admitted(
                        split,
                        lambda: endpoint.handle_batch(
                            body, content_type=content_type
                        ),
                        op="batch",
                    )
                elif split.path == protocol.CHECKPOINT_PATH:
                    self._send(endpoint.handle_checkpoint())
                elif split.path == protocol.PROMOTE_PATH:
                    # Promotion bypasses admission: it must run exactly
                    # when the cluster is degraded and load is shedding.
                    self._send(endpoint.handle_promote())
                else:
                    self._send(Response.text("not found", status=404))

            def _route_get(self) -> None:
                split = urllib.parse.urlsplit(self.path)
                if split.path == protocol.HEALTH_PATH:
                    # Health/readiness bypass admission: a probe must
                    # answer precisely when the server is saturated.
                    self._send(endpoint.handle_health())
                elif split.path == protocol.READY_PATH:
                    self._send(endpoint.handle_ready())
                elif split.path == protocol.METRICS_PATH:
                    # /metrics bypasses admission like the probes — a
                    # saturated (or degraded) server must still scrape.
                    self._send(endpoint.handle_metrics())
                elif split.path == protocol.STATS_PATH:
                    self._send(endpoint.handle_stats())
                elif split.path == protocol.SLOW_QUERIES_PATH:
                    self._send(endpoint.handle_slow_queries())
                elif split.path == protocol.DUMP_PATH:
                    self._admitted(split, endpoint.handle_dump, op="dump")
                elif split.path == protocol.MAPPING_PATH:
                    self._send(endpoint.handle_mapping())
                elif split.path == protocol.QUERY_PATH:
                    # SPARQL Protocol: GET /query?query=<urlencoded>
                    params = urllib.parse.parse_qs(split.query)
                    queries = params.get("query")
                    if not queries:
                        endpoint._count(error=True)
                        self._send(
                            Response.text("missing query parameter", status=400)
                        )
                        return
                    if params.get("explain") == ["analyze"]:
                        self._admitted(
                            split,
                            lambda: endpoint.handle_query_analyze(queries[0]),
                            op="query",
                        )
                        return
                    accept = self.headers.get("Accept")
                    self._admitted(
                        split,
                        lambda: endpoint.handle_query(
                            queries[0], accept=accept
                        ),
                        op="query",
                    )
                else:
                    self._send(Response.text("not found", status=404))

        self._server = _BoundedThreadingHTTPServer(
            (self.host, self._requested_port),
            Handler,
            max_connections=self.max_connections,
        )
        self._thread = threading.Thread(
            target=self._server.serve_forever, daemon=True
        )
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


def _write_rejected(exc: ReproError) -> Response:
    """A rejected write answers with RDF feedback (paper Section 6)."""
    if isinstance(exc, SPARQLParseError):
        exc = TranslationError(
            f"cannot parse request: {exc}",
            code=TranslationError.UNSUPPORTED,
        )
    if isinstance(exc, TranslationError):
        return Response.turtle(error_graph(exc), status=400)
    raise exc


def _query_rejected(exc: ReproError) -> Response:
    return Response.text(f"error: {exc}", status=400)
