"""Client-side write failover (ISSUE 9).

:class:`~repro.server.client.ReplicatedClient` against a real two-node
topology over HTTP.  The retry classification under test:

* **before promotion** a dead primary fails writes *fast* with
  :class:`~repro.errors.EndpointTransportError` — there is no primary
  to re-route to, and a non-idempotent write is never resent at all;
* **after promotion** the same client discovers the new primary via
  ``/health`` ``role``/``epoch`` and the write succeeds;
* a **403 read-only refusal** (fenced old primary) provably executed
  nothing, so even a non-idempotent write is re-routed;
* the diagnostics stay coherent: ``write_failovers``,
  ``primary_rediscoveries``, and the read-path counters
  (``last_replica_lag``, ``primary_fallbacks``) keep working across the
  failover.
"""

import pytest

from repro.core.mediator import OntoAccess
from repro.errors import EndpointTransportError
from repro.faults import INJECTOR
from repro.r3m.generator import generate_mapping
from repro.rdb import Database
from repro.replication import Node, Replica
from repro.server import OntoAccessEndpoint, ReplicatedClient
from repro.server.client import RetryPolicy

WRITE = (
    "PREFIX v: <http://example.org/vocab#> "
    "PREFIX ex: <http://example.org/db/> "
    'INSERT DATA {{ ex:kv{key} a v:Kv ; v:kv_v {key} . }}'
)

SELECT = (
    "PREFIX v: <http://example.org/vocab#> "
    "SELECT ?v WHERE { ?s v:kv_v ?v }"
)


@pytest.fixture(autouse=True)
def clean_injector():
    INJECTOR.clear()
    yield
    INJECTOR.clear()


class _Cluster:
    """Durable primary endpoint + one promotable replica endpoint."""

    def __init__(self, tmp_path):
        self.db = Database(data_dir=str(tmp_path / "primary"), sync_mode="os")
        self.db.execute("CREATE TABLE kv (id INTEGER PRIMARY KEY, v INTEGER)")
        self.db.execute("INSERT INTO kv (id, v) VALUES (1, 1)")
        self.primary_node = Node(self.db, shipping={})
        self.primary = OntoAccessEndpoint(
            OntoAccess(self.db, generate_mapping(self.db)),
            node=self.primary_node,
        )
        self.primary.start()
        self.replica = Replica(
            self.primary_node.shipper.address,
            db=Database(data_dir=str(tmp_path / "replica"), sync_mode="os"),
        ).start()
        assert self.replica.wait_ready(10.0), self.replica.status()
        self.node = Node(
            self.replica.db, replica=self.replica, max_replica_lag=5.0
        )
        self.replica_endpoint = OntoAccessEndpoint(
            OntoAccess(self.replica.db, generate_mapping(self.replica.db)),
            node=self.node,
        )
        self.replica_endpoint.start()

    def client(self, **kwargs):
        kwargs.setdefault("sleep", lambda _s: None)
        kwargs.setdefault(
            "failover_retry",
            RetryPolicy(max_attempts=4, base_delay=0.0, max_delay=0.0),
        )
        return ReplicatedClient(
            self.primary.url, [self.replica_endpoint.url], **kwargs
        )

    def close(self):
        self.replica_endpoint.stop()
        self.primary.stop()
        self.node.close()
        self.primary_node.close()


@pytest.fixture
def cluster(tmp_path):
    built = _Cluster(tmp_path)
    yield built
    built.close()


def test_writes_fail_fast_before_promotion_succeed_after(cluster):
    client = cluster.client()
    assert client.update(WRITE.format(key=10), idempotent=True).ok

    cluster.primary.stop()  # the primary dies; nobody promoted yet
    client.primary.close()  # ...taking the keep-alive connection with it
    with pytest.raises(EndpointTransportError):
        client.update(WRITE.format(key=11), idempotent=True)
    rediscoveries_before = client.primary_rediscoveries
    assert rediscoveries_before > 0  # it looked for a new primary...
    assert client.write_failovers == 0  # ...and found none to point at

    cluster.node.promote()  # operator (or detector) promotes
    feedback = client.update(WRITE.format(key=12), idempotent=True)
    assert feedback.ok, feedback.message
    assert client.write_failovers == 1
    assert client.primary_rediscoveries > rediscoveries_before
    # the re-routed write landed on the promoted node
    rows = cluster.replica.db.query("SELECT id FROM kv ORDER BY id").rows
    assert (12,) in rows and (11,) not in rows

    # the client stays pointed at the new primary: no further failover
    assert client.update(WRITE.format(key=13), idempotent=True).ok
    assert client.write_failovers == 1


def test_non_idempotent_transport_failure_is_never_resent(cluster):
    """Without ``idempotent=True`` a transport failure must surface
    immediately: the write may have executed before the connection
    died, and resending it could double-apply."""
    client = cluster.client()
    cluster.primary.stop()
    with pytest.raises(EndpointTransportError):
        client.update(WRITE.format(key=20))
    assert client.primary_rediscoveries == 0  # no re-route was attempted
    assert client.write_failovers == 0


def test_read_only_refusal_reroutes_even_non_idempotent_writes(cluster):
    """A fenced old primary answers 403 ``read-only``: the refusal
    proves nothing executed, so even a non-idempotent write re-routes."""
    cluster.node.promote()
    cluster.db.read_only = True  # the old primary got fenced
    client = cluster.client()

    feedback = client.update(WRITE.format(key=30))  # idempotent=False
    assert feedback.ok, feedback.message
    assert client.write_failovers == 1
    assert client.primary_rediscoveries == 1
    rows = cluster.replica.db.query("SELECT id FROM kv ORDER BY id").rows
    assert (30,) in rows


def test_batch_follows_the_same_failover_path(cluster):
    cluster.node.promote()
    cluster.db.read_only = True
    client = cluster.client()
    feedback = client.batch(
        [WRITE.format(key=40), WRITE.format(key=41)], idempotent=True
    )
    assert feedback.ok, feedback.message
    assert client.write_failovers == 1
    rows = cluster.replica.db.query("SELECT id FROM kv ORDER BY id").rows
    assert (40,) in rows and (41,) in rows


def test_read_counters_stay_coherent_across_failover(cluster):
    client = cluster.client()
    doc = client.query_json(SELECT)
    assert doc["results"]["bindings"]
    assert client.replica_reads == 1
    assert client.last_replica_lag is not None
    assert client.last_replica_lag >= 0.0

    cluster.node.promote()
    # A promoted replica endpoint still serves reads (no lag header —
    # a primary is not stale), and the client's routing still works.
    doc = client.query_json(SELECT)
    assert doc["results"]["bindings"]
    assert client.replica_reads == 2

    # the dead old primary pushes reads to the fallback path
    cluster.primary.stop()
    client_fresh = cluster.client()
    doc = client_fresh.query_json(SELECT)
    assert doc["results"]["bindings"]
    assert client_fresh.replica_reads == 1
    assert client_fresh.primary_fallbacks == 0
