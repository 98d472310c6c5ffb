"""The replication node: one object owns what a serving process serves.

* **five states, one table** — primary, syncing replica, ready replica,
  promoted, promoted-then-fenced: each answers ``/health`` with its
  role and epoch, and refuses writes, gates reads and tags reads with
  ``X-Replica-Lag`` exactly as the endpoint's role table says;
* **one promotion** — two threads promoting one node at once get one
  promotion record, one log shipper (on a fixed port, where a second
  one could not even bind) and the same answer;
* **a promoted node can be fenced** — through ``repro serve``: promote a
  CLI replica, say hello to its new shipper from a higher epoch, and the
  node answers ``role: fenced``, refuses writes with 403 ``read-only``
  and drops out of ``/ready``, as a primary it was started as does.

Sockets and subprocesses: run in CI with ``-p no:randomly``.
"""

import json
import os
import queue
import re
import socket
import subprocess
import sys
import threading
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro import OntoAccess
from repro.faults import INJECTOR
from repro.r3m.generator import generate_mapping
from repro.rdb import Database
from repro.replication import LogShipper, Node, Replica
from repro.server import OntoAccessEndpoint

from tests.replication.test_repl_chaos import _wait

_SRC = str(Path(__file__).resolve().parents[2] / "src")

KV_DDL = "CREATE TABLE kv (id INTEGER PRIMARY KEY, v INTEGER)"

SELECT = "PREFIX v: <http://example.org/vocab#> SELECT ?v WHERE { ?s v:kv_v ?v }"


def _write(key):
    return (
        "PREFIX v: <http://example.org/vocab#> "
        "PREFIX ex: <http://example.org/db/> "
        f"INSERT DATA {{ ex:kv{key} a v:Kv ; v:kv_v {key} . }}"
    )


@pytest.fixture(autouse=True)
def clean_injector():
    INJECTOR.clear()
    yield
    INJECTOR.clear()


def _primary(tmp_path):
    db = Database(data_dir=str(tmp_path / "primary"), sync_mode="os")
    db.execute(KV_DDL)
    db.execute("INSERT INTO kv (id, v) VALUES (1, 1)")
    return db, LogShipper(db).start()


def _durable_replica(tmp_path, name, shipper):
    replica = Replica(
        shipper.address,
        db=Database(data_dir=str(tmp_path / name), sync_mode="os"),
    ).start()
    assert replica.wait_ready(10.0), replica.status()
    return replica


def _free_port():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


# ---------------------------------------------------------------------------
# the five states
# ---------------------------------------------------------------------------

#: state -> (role, epoch, write answer, read gated, X-Replica-Lag present)
STATES = {
    "primary": ("primary", 1, 200, False, False),
    "syncing replica": ("replica", 0, "read-only-replica", True, False),
    "ready replica": ("replica", 1, "read-only-replica", False, True),
    "promoted": ("primary", 2, 200, False, False),
    "promoted, then fenced": ("fenced", 2, "read-only", False, False),
}


def _observe(node, key):
    """One row of the table, read through the endpoint's dispatcher."""
    endpoint = OntoAccessEndpoint(
        OntoAccess(node.db, generate_mapping(node.db)), node=node
    )
    health = json.loads(endpoint.handle("GET", "/health").body)
    write = endpoint.handle("POST", "/update", body=_write(key))
    if write.status != 200:
        write_answer = json.loads(write.body)["error"]
        assert write.status == 403, write.body
    else:
        write_answer = 200
    read = endpoint.handle("POST", "/query", body=SELECT)
    assert read.status in (200, 503), read.body
    return (
        health["role"],
        health["epoch"],
        write_answer,
        read.status == 503,
        "X-Replica-Lag" in read.headers,
    )


def test_five_node_states(tmp_path):
    db, shipper = _primary(tmp_path)
    syncing = Replica(("127.0.0.1", _free_port())).start()  # nobody there
    ready = _durable_replica(tmp_path, "ready", shipper)
    promoted = _durable_replica(tmp_path, "promoted", shipper)
    replicas = [
        Node(syncing.db, replica=syncing, max_replica_lag=5.0),
        Node(ready.db, replica=ready, max_replica_lag=5.0),
        Node(promoted.db, replica=promoted, max_replica_lag=5.0, shipping={}),
    ]
    taker = replicas[2]
    probe = None
    try:
        observed = {
            "primary": _observe(Node(db), 10),
            "syncing replica": _observe(replicas[0], 11),
            "ready replica": _observe(replicas[1], 12),
        }
        taker.promote()
        observed["promoted"] = _observe(taker, 13)
        # a peer from a later epoch says hello to the promoted shipper
        probe = Replica(taker.shipper.address, min_epoch=3).start()
        _wait(lambda: taker.role == "fenced", message="never fenced")
        observed["promoted, then fenced"] = _observe(taker, 14)
        assert observed == STATES
        assert taker.shipper.fenced_by == 3
    finally:
        if probe is not None:
            probe.close()
        for node in replicas:
            node.close()
        shipper.stop()
        db.close()


# ---------------------------------------------------------------------------
# one promotion
# ---------------------------------------------------------------------------


def test_racing_promotions_start_one_shipper(tmp_path, monkeypatch):
    started = []
    start = LogShipper.start

    def counting_start(shipper):
        started.append(shipper)
        return start(shipper)

    monkeypatch.setattr(LogShipper, "start", counting_start)
    db, shipper = _primary(tmp_path)
    replica = _durable_replica(tmp_path, "replica", shipper)
    node = Node(
        replica.db, replica=replica, shipping={"port": _free_port()}
    )
    started.clear()  # the primary's own shipper
    # hold the first promotion inside Replica.promote, where the second
    # caller must wait for it rather than start a shipper of its own
    INJECTOR.inject("repl:promote", latency=0.2)
    barrier = threading.Barrier(2)
    answers = []

    def promote():
        barrier.wait()
        answers.append(node.promote())

    callers = [threading.Thread(target=promote) for _ in range(2)]
    try:
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(10.0)
        assert len(answers) == 2
        assert answers[0] is answers[1]
        assert answers[0]["epoch"] == 2
        assert started == [node.shipper]
        assert INJECTOR.fired("repl:promote") == 1
        assert node.role == "primary"
    finally:
        node.close()
        shipper.stop()
        db.close()


# ---------------------------------------------------------------------------
# fencing a promoted node through `repro serve`
# ---------------------------------------------------------------------------


class _Served:
    """One ``repro serve`` process; its stdout lines land in a queue."""

    def __init__(self, *flags):
        self.child = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", *flags],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env=dict(os.environ, PYTHONPATH=_SRC),
        )
        self.lines = queue.Queue()
        threading.Thread(target=self._pump, daemon=True).start()
        self.url = self.next_match(r"endpoint at (http://\S+)")

    def _pump(self):
        for line in self.child.stdout:
            self.lines.put(line)

    def next_match(self, pattern, timeout=30.0):
        while True:
            line = self.lines.get(timeout=timeout)
            match = re.search(pattern, line)
            if match:
                return match.group(1)

    def request(self, method, path, body=None):
        request = urllib.request.Request(
            self.url + path, method=method,
            data=None if body is None else body.encode("utf-8"),
        )
        try:
            with urllib.request.urlopen(request, timeout=10.0) as response:
                return response.status, response.read().decode()
        except urllib.error.HTTPError as exc:
            return exc.code, exc.read().decode()

    def health(self):
        return json.loads(self.request("GET", "/health")[1])

    def kill(self):
        if self.child.poll() is None:
            self.child.kill()
        self.child.wait(10)


def test_promoted_cli_node_is_fenced_by_a_higher_epoch(tmp_path):
    schema = tmp_path / "kv.sql"
    schema.write_text(KV_DDL + ";\n")
    primary = _Served(
        "--schema", str(schema), "--data-dir", str(tmp_path / "primary"),
        "--sync-mode", "os", "--replication-port", "0",
        "--heartbeat-interval", "0.05",
    )
    replica = probe = None
    try:
        ship_port = primary.next_match(r"log shipper at [^:]+:(\d+)")
        replica = _Served(
            "--replica-of", f"127.0.0.1:{ship_port}",
            "--data-dir", str(tmp_path / "replica"), "--sync-mode", "os",
            "--replication-port", "0",
        )
        status, body = replica.request("POST", "/admin/promote", "")
        assert status == 200, body
        epoch = json.loads(body)["epoch"]
        new_port = int(replica.next_match(r"log shipper at [^:]+:(\d+)"))
        assert replica.health()["role"] == "primary"
        assert replica.request("POST", "/update", _write(20))[0] == 200

        probe = Replica(("127.0.0.1", new_port), min_epoch=epoch + 1).start()
        _wait(
            lambda: replica.health()["role"] == "fenced",
            message="the promoted node never stopped advertising primary",
        )
        assert replica.health()["epoch"] == epoch
        status, body = replica.request("POST", "/update", _write(21))
        assert (status, json.loads(body)["error"]) == (403, "read-only")
        assert replica.request("GET", "/ready")[0] == 503
        metrics = replica.request("GET", "/metrics")[1]
        assert "repro_shipper_fenced 1" in metrics
        assert "repro_replica_role_primary 0" in metrics
    finally:
        if probe is not None:
            probe.close()
        for served in (replica, primary):
            if served is not None:
                served.kill()
