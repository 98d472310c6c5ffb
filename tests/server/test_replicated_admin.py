"""A primary that ships its log, one read replica that can be promoted,
and the clients and admin routes over them.

* ``GET /metrics`` on the primary carries the log shipper's samples and
  lints clean;
* :class:`~repro.server.ReplicatedClient` reads a query's text from the
  replica, and from the primary when the replica answers 503
  ``replica-lagging`` — never that body as the answer; its checkpoint
  and health go to the primary, and a dump falls back to it as a query
  does;
* :meth:`OntoAccessClient.promote` turns the replica endpoint into a
  primary and is refused by one that has no replica to promote;
* the admin routes answer the serving tier's own failures as the work
  routes do: a storage failure while a checkpoint or a promotion is
  written is 503 ``storage-degraded``, not a conflict or a 500.

Sockets: run in CI with ``-p no:randomly``.
"""

import json

import pytest

from repro import OntoAccess
from repro.errors import DurabilityError, FaultError, ReproError
from repro.faults import INJECTOR
from repro.observability import lint_exposition
from repro.rdb import Database
from repro.replication import Node, Replica
from repro.server import OntoAccessClient, OntoAccessEndpoint, ReplicatedClient
from repro.workloads.publication import (
    PUBLICATION_DDL,
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


class _Deployment:
    def __init__(self, tmp_path):
        self.db = Database(data_dir=str(tmp_path / "primary"), sync_mode="os")
        self.db.execute_script(PUBLICATION_DDL)
        seed_feasibility_data(self.db)
        self.node = Node(self.db, shipping={})
        self.primary = OntoAccessEndpoint(
            OntoAccess(self.db, build_mapping(self.db)), node=self.node
        )
        self.primary.start()
        self.replica = Replica(
            self.node.shipper.address,
            db=Database(data_dir=str(tmp_path / "replica"), sync_mode="os"),
        ).start()
        assert self.replica.wait_ready(10.0), self.replica.status()
        position = self.db._durability.position()
        assert self.replica.wait_applied(position, 10.0), self.replica.status()
        self.replica_node = Node(
            self.replica.db, replica=self.replica, max_replica_lag=5.0, shipping={}
        )
        self.secondary = OntoAccessEndpoint(
            OntoAccess(self.replica.db, build_mapping(self.replica.db)),
            node=self.replica_node,
        )
        self.secondary.start()
        self.client = ReplicatedClient(self.primary.url, [self.secondary.url])

    def close(self):
        self.client.close()
        self.secondary.stop()
        self.replica_node.close()
        self.primary.stop()
        self.node.close()
        self.db.close()


@pytest.fixture
def deployment(tmp_path):
    running = _Deployment(tmp_path)
    yield running
    running.close()


def test_metrics_of_a_shipping_primary_lint_clean(deployment):
    response = deployment.primary.handle("GET", "/metrics")
    assert response.status == 200
    text = response.body
    assert lint_exposition(text) == []
    samples = dict(
        line.rsplit(" ", 1) for line in text.splitlines()
        if line.startswith("repro_shipper_")
    )
    assert float(samples["repro_shipper_replicas_connected"]) == 1.0
    assert float(samples["repro_shipper_epoch"]) == 1.0
    assert set(samples) == {
        f"repro_shipper_{key}" for key in deployment.node.shipper.metrics()
    }


def test_query_text_reads_the_replica_and_falls_back_past_a_lagging_one(
    deployment, monkeypatch
):
    client = deployment.client
    with OntoAccessClient(deployment.primary.url) as primary:
        expected = primary.query_text(SELECT_NAMES)
        dumped = primary.dump()
    assert "Hert" in expected
    assert client.query_text(SELECT_NAMES) == expected
    assert (client.replica_reads, client.primary_fallbacks) == (1, 0)

    monkeypatch.setattr(deployment.replica_node, "lag", lambda: 99.0)
    lagging = deployment.secondary.handle("POST", "/query", body=SELECT_NAMES)
    assert lagging.status == 503
    assert json.loads(lagging.body)["error"] == "replica-lagging"
    assert client.query_text(SELECT_NAMES) == expected
    assert client.dump() == dumped
    assert (client.replica_reads, client.primary_fallbacks) == (1, 2)
    assert client.primary_reads == 2


def test_checkpoint_and_health_go_to_the_primary(deployment):
    client = deployment.client
    served = deployment.secondary.requests_served
    assert client.health()["role"] == "primary"
    checkpoint = client.checkpoint()["checkpoint"]
    assert checkpoint.startswith(deployment.db._durability.data_dir)
    assert deployment.db._durability.newest_checkpoint() is not None
    assert deployment.secondary.requests_served == served


def test_promote_a_replica_endpoint(deployment):
    with OntoAccessClient(deployment.primary.url) as primary:
        with pytest.raises(ReproError, match="HTTP 409"):
            primary.promote()
    with OntoAccessClient(deployment.secondary.url) as secondary:
        record = secondary.promote()
        assert record["promoted"] is True and record["epoch"] == 2
        assert secondary.promote()["epoch"] == 2  # idempotent
        health = secondary.health()
    assert (health["role"], health["epoch"]) == ("primary", 2)


def test_a_storage_failure_while_checkpointing_is_storage_degraded(deployment):
    INJECTOR.inject("checkpoint:pre-rename", error=DurabilityError("disk gone"))
    response = deployment.primary.handle("POST", "/admin/checkpoint", body="")
    assert response.status == 503
    assert json.loads(response.body)["error"] == "storage-degraded"
    INJECTOR.clear()
    in_memory = OntoAccessEndpoint(OntoAccess(Database(), build_mapping(Database())))
    response = in_memory.handle("POST", "/admin/checkpoint", body="")
    assert response.status == 409  # nothing to checkpoint


@pytest.mark.parametrize(
    "error, status, code",
    [
        (DurabilityError("disk gone"), 503, "storage-degraded"),
        (FaultError("boom"), 500, "promotion-failed"),
    ],
)
def test_a_failed_promotion_answers_by_the_serving_rule(deployment, error, status, code):
    INJECTOR.inject("repl:promote", error=error, times=1)
    response = deployment.secondary.handle("POST", "/admin/promote", body="")
    assert response.status == status
    assert json.loads(response.body)["error"] == code
