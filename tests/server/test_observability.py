"""Unified observability layer tests (ISSUE 10): /metrics exposition,
request-id tracing through success and error paths, the slow-query
ring, EXPLAIN ANALYZE operator instrumentation, /admin/stats, and
chaos at the exposition fault site.

Deterministic by construction — run in CI with ``-p no:randomly``.
"""

import http.client
import json
import threading
import time

import pytest

from repro import OntoAccess
from repro.errors import EndpointTransportError
from repro.faults import INJECTOR
from repro.observability import QueryLog, lint_exposition
from repro.observability.metrics import EXECUTOR_ROWS, REQUESTS
from repro.observability.tracing import request_scope
from repro.rdb.engine import Database
from repro.server import OntoAccessClient, OntoAccessEndpoint, RetryPolicy
from repro.workloads.publication import (
    build_database,
    build_mapping,
    seed_feasibility_data,
)

SELECT_NAMES = (
    "PREFIX foaf: <http://xmlns.com/foaf/0.1/> "
    "SELECT ?n WHERE { ?x foaf:family_name ?n . }"
)


@pytest.fixture(autouse=True)
def clean_injector():
    INJECTOR.clear()
    yield
    INJECTOR.clear()


@pytest.fixture
def endpoint():
    db = build_database()
    seed_feasibility_data(db)
    mediator = OntoAccess(db, build_mapping(db))
    return OntoAccessEndpoint(mediator)


def _get(port, path, headers=None, timeout=10.0):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", path, headers=headers or {})
        response = conn.getresponse()
        return (
            response.status,
            dict(response.getheaders()),
            response.read().decode(),
        )
    finally:
        conn.close()


def _post(port, path, body, headers=None, timeout=10.0):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        merged = {"Content-Type": "application/sparql-query"}
        merged.update(headers or {})
        conn.request("POST", path, body=body.encode("utf-8"), headers=merged)
        response = conn.getresponse()
        return (
            response.status,
            dict(response.getheaders()),
            response.read().decode(),
        )
    finally:
        conn.close()


def _await(predicate, timeout=5.0):
    """Bookkeeping (metrics/slow-log) lands *after* the response bytes
    flush, so a probe racing the client's read polls briefly."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


def _sample(text, name):
    """The value of an unlabelled sample, or the sum over labelled ones."""
    total, found = 0.0, False
    for line in text.splitlines():
        if line.startswith("#"):
            continue
        if line.startswith(name + " ") or line.startswith(name + "{"):
            total += float(line.rsplit(" ", 1)[1])
            found = True
    return total if found else None


class TestMetricsExposition:
    def test_exposition_parses_and_counters_move(self, endpoint):
        with endpoint:
            before_requests = REQUESTS.labels("query", "200").value()
            for _ in range(3):
                status, _, _ = _post(endpoint.port, "/query", SELECT_NAMES)
                assert status == 200
            assert _await(
                lambda: REQUESTS.labels("query", "200").value()
                >= before_requests + 3
            )
            status, headers, text = _get(endpoint.port, "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert "version=0.0.4" in headers["Content-Type"]
        assert lint_exposition(text) == []
        # process-wide counters moved under the load we just applied
        after = _sample(text, "repro_requests_total")
        assert after >= before_requests + 3
        assert _sample(text, "repro_session_operations_total") >= 3
        assert _sample(text, "repro_executor_rows_total") > 0
        # latency histogram exposes buckets, sum and count
        assert 'repro_request_seconds_bucket{op="query",le="+Inf"}' in text
        assert _sample(text, "repro_request_seconds_count") >= 3
        # instance-state gauges are scraped from the live endpoint
        assert _sample(text, "repro_serving_in_flight") is not None
        assert _sample(text, "repro_serving_admitted_total") >= 3
        assert _sample(text, "repro_plan_cache_hits") is not None
        # one query shape was planned, once, and is what the cache holds
        assert _sample(text, "repro_plan_cache_entries") == 1.0
        assert _sample(text, "repro_plan_cache_misses") == 1.0
        assert _sample(text, "repro_replica_role_primary") == 1.0

    def test_snapshot_select_counts_its_rows(self):
        """A SELECT outside any transaction runs lock-free on the
        committed snapshot; its rows count in
        ``repro_executor_rows_total{op="select"}`` like a transaction's."""
        db = build_database()
        seed_feasibility_data(db)
        counter = EXECUTOR_ROWS.labels("select")
        before = counter.value()
        result = db.execute("SELECT id, lastname FROM author")
        assert len(result) > 0
        assert counter.value() - before == len(result)

    def test_metrics_bypasses_admission(self, endpoint):
        """A saturated gate must not starve the scrape (like /health)."""
        release = threading.Event()
        INJECTOR.inject("executor:scan", stall=release)
        endpoint._gate.max_in_flight = 1
        endpoint._gate.max_queue = 0
        stalled = []
        with endpoint:
            worker = threading.Thread(
                target=lambda: stalled.append(
                    _post(endpoint.port, "/query", SELECT_NAMES)
                ),
                daemon=True,
            )
            worker.start()
            deadline = time.monotonic() + 5.0
            while endpoint.serving_stats()["in_flight"] < 1:
                assert time.monotonic() < deadline
                time.sleep(0.005)
            status, _, text = _get(endpoint.port, "/metrics")
            release.set()
            worker.join(timeout=10.0)
        assert status == 200
        assert _sample(text, "repro_serving_in_flight") == 1.0

    def test_durable_store_exports_wal_counters(self, tmp_path):
        from repro.workloads.publication import PUBLICATION_DDL

        db = Database(data_dir=str(tmp_path / "dd"))
        db.execute_script(PUBLICATION_DDL)
        mediator = OntoAccess(db, build_mapping(db))
        try:
            with OntoAccessEndpoint(mediator) as endpoint:
                _, _, text = _get(endpoint.port, "/metrics")
                assert _sample(text, "repro_storage_durable") == 1.0
                appends = _sample(text, "repro_wal_appends")
                commits = _sample(text, "repro_wal_commits")
                syncs = _sample(text, "repro_wal_syncs")
                assert appends > 0 and commits > 0 and syncs > 0
                assert syncs <= commits  # group commit folds flushes
        finally:
            db.close()


class TestExportFault:
    def test_failing_scrape_is_503_and_serving_unaffected(self, endpoint):
        INJECTOR.inject("obs:export", fail=True)
        with endpoint:
            status, _, body = _get(endpoint.port, "/metrics")
            assert status == 503
            assert json.loads(body)["error"] == "metrics-unavailable"
            # serving is not poisoned: work requests still answer, and
            # a healthy scrape resumes once the fault clears
            status, _, _ = _post(endpoint.port, "/query", SELECT_NAMES)
            assert status == 200
            INJECTOR.clear()
            status, _, text = _get(endpoint.port, "/metrics")
            assert status == 200
            assert lint_exposition(text) == []

    def test_slow_scrape_does_not_hold_the_gate(self, endpoint):
        INJECTOR.inject("obs:export", latency=0.3)
        with endpoint:
            scraped = []
            worker = threading.Thread(
                target=lambda: scraped.append(
                    _get(endpoint.port, "/metrics")
                ),
                daemon=True,
            )
            worker.start()
            time.sleep(0.05)  # scrape is mid-stall now
            start = time.monotonic()
            status, _, _ = _post(endpoint.port, "/query", SELECT_NAMES)
            elapsed = time.monotonic() - start
            worker.join(timeout=10.0)
        assert status == 200
        assert elapsed < 0.25  # never queued behind the stalled scrape
        assert scraped and scraped[0][0] == 200


class TestRequestIds:
    def test_id_round_trips_on_200(self, endpoint):
        with endpoint:
            status, headers, _ = _post(
                endpoint.port, "/query", SELECT_NAMES,
                headers={"X-Request-Id": "caller-chose-this"},
            )
        assert status == 200
        assert headers["X-Request-Id"] == "caller-chose-this"

    def test_id_is_generated_when_absent(self, endpoint):
        with endpoint:
            status, headers, _ = _post(endpoint.port, "/query", SELECT_NAMES)
        assert status == 200
        assert len(headers["X-Request-Id"]) >= 8

    def test_id_round_trips_on_408(self, endpoint):
        INJECTOR.inject("executor:scan", latency=0.05)
        with endpoint:
            status, headers, body = _post(
                endpoint.port, "/query?timeout=0.01", SELECT_NAMES,
                headers={"X-Request-Id": "timed-out-req"},
            )
        assert status == 408
        assert json.loads(body)["error"] == "timeout"
        assert headers["X-Request-Id"] == "timed-out-req"

    def test_id_round_trips_on_503_shed(self, endpoint):
        release = threading.Event()
        INJECTOR.inject("executor:scan", stall=release)
        endpoint._gate.max_in_flight = 1
        endpoint._gate.max_queue = 0
        endpoint._gate.queue_timeout = 0.05
        stalled = []
        with endpoint:
            worker = threading.Thread(
                target=lambda: stalled.append(
                    _post(endpoint.port, "/query", SELECT_NAMES)
                ),
                daemon=True,
            )
            worker.start()
            deadline = time.monotonic() + 5.0
            while endpoint.serving_stats()["in_flight"] < 1:
                assert time.monotonic() < deadline
                time.sleep(0.005)
            status, headers, body = _post(
                endpoint.port, "/query", SELECT_NAMES,
                headers={"X-Request-Id": "shed-me"},
            )
            release.set()
            worker.join(timeout=10.0)
        assert status == 503
        assert json.loads(body)["error"] == "overloaded"
        assert headers["X-Request-Id"] == "shed-me"

    def test_hostile_id_is_sanitized(self, endpoint):
        with endpoint:
            status, headers, _ = _post(
                endpoint.port, "/query", SELECT_NAMES,
                headers={"X-Request-Id": "ok" + "x" * 500},
            )
        assert status == 200
        assert len(headers["X-Request-Id"]) <= 128

    def test_client_sends_and_error_carries_the_id(self, endpoint):
        with endpoint:
            client = OntoAccessClient(endpoint.url)
            with request_scope("my-trace-id"):
                client.query_json(SELECT_NAMES)
            assert (
                client.last_response_headers.get("X-Request-Id")
                == "my-trace-id"
            )
            client.close()
        # against a dead endpoint the transport error carries the id
        dead = OntoAccessClient(
            endpoint.url, retry=RetryPolicy(max_attempts=2),
            sleep=lambda _s: None,
        )
        with pytest.raises(EndpointTransportError) as info:
            with request_scope("doomed-id"):
                dead.query_json(SELECT_NAMES)
        assert info.value.request_id == "doomed-id"
        assert "doomed-id" in str(info.value)

    def test_slow_query_entry_shares_the_request_id(self, endpoint):
        endpoint.query_log.threshold = 0.0
        with endpoint:
            _post(
                endpoint.port, "/query", SELECT_NAMES,
                headers={"X-Request-Id": "slow-and-logged"},
            )
            assert _await(lambda: endpoint.query_log.status()["count"] >= 1)
            status, _, body = _get(endpoint.port, "/admin/slow-queries")
        assert status == 200
        entries = json.loads(body)["entries"]
        assert any(e["request_id"] == "slow-and-logged" for e in entries)


    def test_entry_says_when_the_request_paid_for_planning(self, endpoint):
        """Cold path only: the request that builds a plan says so in its
        log entry; requests of the same shape after it say nothing."""
        endpoint.query_log.threshold = 0.0
        point = (
            "PREFIX foaf: <http://xmlns.com/foaf/0.1/> "
            "PREFIX ex: <http://example.org/db/> "
            "SELECT ?n WHERE { ex:author%d foaf:family_name ?n . }"
        )
        with endpoint:
            for key in (6, 7, 8):  # one shape, three keys
                _post(
                    endpoint.port, "/query", point % key,
                    headers={"X-Request-Id": f"key-{key}"},
                )
            assert _await(lambda: endpoint.query_log.status()["count"] >= 3)
            _, _, body = _get(endpoint.port, "/admin/slow-queries")
        entries = {e["request_id"]: e for e in json.loads(body)["entries"]}
        assert entries["key-6"]["plans_built"] == 1
        assert "plans_built" not in entries["key-7"]
        assert "plans_built" not in entries["key-8"]


class TestSlowQueryLog:
    def test_ring_caps_and_orders_newest_first(self):
        log = QueryLog(capacity=4, threshold=0.0)
        for n in range(10):
            assert log.record({"op": "query", "n": n, "total_s": 0.001})
        snapshot = log.snapshot()
        assert len(snapshot) == 4  # capped
        assert [e["n"] for e in snapshot] == [9, 8, 7, 6]  # newest first
        assert log.status()["recorded_total"] == 10

    def test_threshold_filters(self):
        log = QueryLog(capacity=8, threshold=0.5)
        assert not log.record({"op": "query", "total_s": 0.1})
        assert log.record({"op": "query", "total_s": 0.9})
        assert len(log.snapshot()) == 1

    def test_disabled_log_records_nothing(self):
        log = QueryLog(capacity=8, threshold=None)
        assert not log.record({"op": "query", "total_s": 100.0})
        assert log.snapshot() == []

    def test_http_surface(self, endpoint):
        endpoint.query_log.threshold = 0.0
        with endpoint:
            for _ in range(3):
                _post(endpoint.port, "/query", SELECT_NAMES)
            assert _await(lambda: endpoint.query_log.status()["count"] >= 3)
            status, _, body = _get(endpoint.port, "/admin/slow-queries")
        assert status == 200
        doc = json.loads(body)
        assert doc["count"] >= 3
        for entry in doc["entries"]:
            assert entry["op"] == "query"
            assert "total_s" in entry and "execute_s" in entry


class TestAdminStats:
    def test_stats_surface(self, endpoint):
        with endpoint:
            _post(endpoint.port, "/query", SELECT_NAMES)
            status, _, body = _get(endpoint.port, "/admin/stats")
        assert status == 200
        doc = json.loads(body)
        assert doc["serving"]["admitted_total"] >= 1
        assert doc["requests"]["served"] >= 1
        assert "slow_queries" in doc


class TestExplainAnalyze:
    @pytest.fixture
    def db(self):
        db = Database()
        db.execute(
            "CREATE TABLE item (id INTEGER PRIMARY KEY, name VARCHAR(64))"
        )
        for n in range(50):
            db.execute(
                "INSERT INTO item (id, name) VALUES (?, ?)", (n, f"n{n}")
            )
        return db

    def test_indexed_lookup_rows_match_cardinality(self, db):
        report = db.explain_analyze("SELECT name FROM item WHERE id = 7")
        assert report["rows"] == 1
        assert report["columns"] == ["name"]
        [base] = [
            op for op in report["operators"] if "point lookup" in op["operator"]
        ]
        assert base["rows"] == 1
        assert base["loops"] == 1
        assert base["elapsed_us"] >= 0.0

    def test_forced_scan_rows_match_cardinality(self, db):
        # name is not indexed: the base access must examine all 50 rows
        report = db.explain_analyze(
            "SELECT id FROM item WHERE name = 'n33'"
        )
        assert report["rows"] == 1
        scans = [
            op for op in report["operators"] if "full scan" in op["operator"]
        ]
        assert scans and scans[0]["rows"] == 1  # rows *surviving* the filter
        assert scans[0]["loops"] == 1
        # the plan tree rides along with the measurements
        assert any("full scan" in line for line in report["plan"])

    def test_explain_analyze_sql_prefix_accepted(self, db):
        report = db.explain_analyze(
            "EXPLAIN ANALYZE SELECT name FROM item WHERE id = 3"
        )
        assert report["rows"] == 1

    def test_non_select_is_rejected(self, db):
        from repro.errors import DatabaseError

        with pytest.raises(DatabaseError):
            db.explain_analyze("DELETE FROM item WHERE id = 1")

    def test_disarmed_plans_carry_no_probe_state(self, db):
        """The probe is thread-local and per-execution: a plan analyzed
        once must not keep accumulating when run without a probe."""
        report = db.explain_analyze("SELECT name FROM item WHERE id = 7")
        result = db.execute("SELECT name FROM item WHERE id = 7")
        assert len(result.rows) == 1
        assert report["rows"] == 1  # unchanged by the later execution

    def test_http_explain_analyze(self, endpoint):
        with endpoint:
            status, _, body = _post(
                endpoint.port, "/query?explain=analyze", SELECT_NAMES
            )
        assert status == 200
        doc = json.loads(body)
        assert doc["operators"], "no operator measurements"
        for op in doc["operators"]:
            assert set(op) == {"operator", "elapsed_us", "rows", "loops"}
        assert doc["result_rows"] >= 1
