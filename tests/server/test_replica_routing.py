"""Read/write routing across a replicated topology (ISSUE 8).

A real three-server topology over HTTP — one writable primary plus two
read replicas following its WAL over sockets — driven through
:class:`~repro.server.client.ReplicatedClient`.  The routing contract:

* **writes always hit the primary**; a write sent directly to a replica
  endpoint is refused with 403 ``read-only-replica``;
* **reads distribute across the replicas** (round-robin), falling back
  to the primary only on replica failure or staleness;
* every replica-served read carries an ``X-Replica-Lag`` header whose
  value is a finite, non-negative staleness bound in seconds;
* when a replica's lag exceeds its node's ``max_replica_lag``, its
  reads return 503 and the client transparently falls back to the
  primary — which serves the freshest data;
* a replica endpoint's ``/ready`` stays 503 (``replica-syncing``) until
  bootstrap replay has caught up to the primary's watermark.
"""

import http.client
import json
import threading

import pytest

from repro import OntoAccess
from repro.faults import INJECTOR
from repro.rdb import Database
from repro.replication import LogShipper, Node, Replica
from repro.server import OntoAccessEndpoint, ReplicatedClient
from repro.workloads.publication import (
    PUBLICATION_DDL,
    build_mapping,
    seed_feasibility_data,
)

SELECT_AUTHORS = (
    'PREFIX foaf: <http://xmlns.com/foaf/0.1/> '
    'SELECT ?n WHERE { ?x foaf:family_name ?n . }'
)

SELECT_TEAMS = (
    'PREFIX foaf: <http://xmlns.com/foaf/0.1/> '
    'SELECT ?n WHERE { ?t <http://xmlns.com/foaf/0.1/name> ?n }'
)

UPDATE_TEAM4 = """
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
PREFIX ont:  <http://example.org/ontology#>
PREFIX ex:   <http://example.org/db/>
INSERT DATA {
    ex:team4 foaf:name "Database Technology" ;
             ont:teamCode "DBTG" .
}
"""


@pytest.fixture(autouse=True)
def clean_injector():
    INJECTOR.clear()
    yield
    INJECTOR.clear()


def _request(port, method, path, body=None, content_type=None, timeout=10.0):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        headers = {"Content-Type": content_type} if content_type else {}
        conn.request(
            method,
            path,
            body=body.encode("utf-8") if body is not None else None,
            headers=headers,
        )
        response = conn.getresponse()
        return (
            response.status,
            dict(response.getheaders()),
            response.read().decode(),
        )
    finally:
        conn.close()


class _Topology:
    """Primary (publication schema, durable) + shipper + two replica
    endpoints, all over real sockets."""

    def __init__(self, tmp_path, *, max_replica_lag=5.0, heartbeat_grace=0.3):
        self.db = Database(data_dir=str(tmp_path / "primary"), sync_mode="os")
        self.db.execute_script(PUBLICATION_DDL)
        seed_feasibility_data(self.db)
        self.primary = OntoAccessEndpoint(
            OntoAccess(self.db, build_mapping(self.db))
        )
        self.primary.start()
        self.shipper = LogShipper(self.db).start()
        self.replicas = []
        self.replica_endpoints = []
        for _ in range(2):
            replica = Replica(
                self.shipper.address, heartbeat_grace=heartbeat_grace
            ).start()
            assert replica.wait_ready(10.0), replica.status()
            endpoint = OntoAccessEndpoint(
                OntoAccess(replica.db, build_mapping(replica.db)),
                node=Node(
                    replica.db, replica=replica, max_replica_lag=max_replica_lag
                ),
            )
            endpoint.start()
            self.replicas.append(replica)
            self.replica_endpoints.append(endpoint)
        self.client = ReplicatedClient(
            self.primary.url,
            [endpoint.url for endpoint in self.replica_endpoints],
        )

    def quiesce(self, timeout=10.0):
        manager = self.db._durability
        manager.ship_flush()
        position = manager.position()
        for replica in self.replicas:
            assert replica.wait_applied(position, timeout), replica.status()

    def close(self):
        self.client.close()
        for endpoint in self.replica_endpoints:
            endpoint.stop()
        for replica in self.replicas:
            replica.close()
        self.shipper.stop()
        self.primary.stop()
        self.db.close()


@pytest.fixture
def topo(tmp_path):
    topology = _Topology(tmp_path)
    yield topology
    topology.close()


def _names(result):
    return sorted(
        binding["n"]["value"]
        for binding in result["results"]["bindings"]
    )


def test_writes_hit_primary_and_replicas_refuse_them(topo):
    before = topo.primary.requests_served
    topo.client.update(UPDATE_TEAM4)
    assert topo.primary.requests_served == before + 1
    for endpoint in topo.replica_endpoints:
        assert endpoint.requests_served == 0  # no write ever routed here

    # a write aimed straight at a replica is refused, not queued
    status, _, body = _request(
        topo.replica_endpoints[0].port,
        "POST",
        "/update",
        UPDATE_TEAM4,
        "application/sparql-update",
    )
    assert status == 403
    assert json.loads(body)["error"] == "read-only-replica"

    # ...and the refused write really did not reach any replica store
    topo.quiesce()
    result = topo.client.query_json(SELECT_TEAMS)
    assert _names(result).count("Database Technology") == 1


def test_reads_distribute_across_replicas(topo):
    topo.quiesce()
    reads = 6
    for _ in range(reads):
        result = topo.client.query_json(SELECT_AUTHORS)
        assert "Hert" in _names(result)
    assert topo.client.replica_reads == reads
    assert topo.client.primary_fallbacks == 0
    for endpoint in topo.replica_endpoints:
        assert endpoint.requests_served >= 2  # round-robin, 6 over 2


def test_replica_reads_carry_sane_lag_header(topo):
    topo.quiesce()
    samples = []
    for _ in range(4):
        topo.client.query_json(SELECT_AUTHORS)
        assert topo.client.last_replica_lag is not None
        samples.append(topo.client.last_replica_lag)
    assert all(0.0 <= lag < 60.0 for lag in samples)

    status, headers, _ = _request(
        topo.replica_endpoints[0].port,
        "POST",
        "/query",
        SELECT_AUTHORS,
        "application/sparql-query",
    )
    assert status == 200
    assert float(headers["X-Replica-Lag"]) >= 0.0


def test_lag_bound_exceeded_falls_back_to_primary(tmp_path):
    topology = _Topology(tmp_path, max_replica_lag=0.3, heartbeat_grace=0.2)
    try:
        topology.quiesce()
        gate = threading.Event()
        INJECTOR.inject("repl:apply", stall=gate)
        topology.client.update(UPDATE_TEAM4)  # appliers stall on this frame
        for replica in topology.replicas:
            deadline_lag = replica.lag
            while deadline_lag() <= 0.3:
                gate.wait(0.02)

        # both replicas are now over the bound: reads must fall back to
        # the primary and still observe the fresh write
        result = topology.client.query_json(SELECT_TEAMS)
        assert "Database Technology" in _names(result)
        assert topology.client.primary_fallbacks >= 1
        assert topology.client.primary_reads >= 1

        gate.set()
        INJECTOR.clear("repl:apply")
        topology.quiesce()
        fallbacks = topology.client.primary_fallbacks
        result = topology.client.query_json(SELECT_TEAMS)
        assert "Database Technology" in _names(result)
        assert topology.client.primary_fallbacks == fallbacks  # replicas again
    finally:
        topology.close()


def test_replica_ready_is_503_until_bootstrap_completes(topo):
    gate = threading.Event()
    INJECTOR.inject("repl:connect", stall=gate)
    late = Replica(topo.shipper.address).start()
    try:
        # endpoint exists before the replica ever syncs; its store is
        # empty, so the mapping is empty too — /ready must shield that
        endpoint = OntoAccessEndpoint(
            OntoAccess(late.db, build_mapping(late.db)),
            node=Node(late.db, replica=late, max_replica_lag=5.0),
        )
        endpoint.start()
        try:
            status, _, body = _request(endpoint.port, "GET", "/ready")
            assert status == 503
            document = json.loads(body)
            assert document["error"] == "replica-syncing"
            assert document["replica"]["ready"] is False

            gate.set()
            INJECTOR.clear("repl:connect")
            assert late.wait_ready(10.0), late.status()
            status, _, body = _request(endpoint.port, "GET", "/ready")
            assert status == 200
            assert json.loads(body)["replica"]["ready"] is True
        finally:
            endpoint.stop()
    finally:
        late.close()
