"""Chaos suite for WAL-shipping replication (ISSUE 8).

FaultInjector rules at the ``repl:*`` sites — plus the wire-mangling
seam and a real SIGKILL — prove the failure contract: every fault is
connection-scoped and recovery is automatic, with **no acknowledged
primary commit ever lost on a replica**:

* mid-frame disconnect → reconnect and *resume* from the applied
  position (no re-bootstrap);
* a checkpoint deleting the segment a disconnected replica was tailing
  → reconnect re-bases from the checkpoint **snapshot**;
* a torn frame on the wire → rejected by CRC before touching the
  applier, then recovered by reconnect;
* a stalled applier → the lag signal grows monotonically and the
  serving gate closes reads (clients fall back to the primary), then
  reopens after catch-up;
* SIGKILL of a replica process → a fresh replica process rejoins
  cleanly and converges to the primary's exact position;
* connect-time faults → retried with backoff until the primary answers.
"""

import os
import random
import re
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.errors import ReplicationError
from repro.faults import INJECTOR
from repro.rdb import Database
from repro.replication import LogShipper, Node, Replica, wire

_SRC = str(Path(__file__).resolve().parents[2] / "src")


@pytest.fixture(autouse=True)
def clean_injector():
    INJECTOR.clear()
    yield
    INJECTOR.clear()


def _rows(db):
    return db.query("SELECT id, v FROM kv ORDER BY id").rows


def _quiesce(db, replicas, timeout=15.0):
    manager = db._durability
    manager.ship_flush()
    position = manager.position()
    for replica in replicas:
        assert replica.wait_applied(position, timeout), (
            f"replica never reached {position}: {replica.status()}"
        )
    return position


def _wait(predicate, timeout=10.0, message="condition never held"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    assert predicate(), message


class _Topology:
    """One durable primary (small kv table) + shipper + one replica."""

    def __init__(self, tmp_path, **replica_kwargs):
        self.db = Database(data_dir=str(tmp_path / "primary"), sync_mode="os")
        self.db.execute("CREATE TABLE kv (id INTEGER PRIMARY KEY, v INTEGER)")
        for i in range(10):
            self.db.execute(f"INSERT INTO kv (id, v) VALUES ({i}, {i})")
        self.shipper = LogShipper(self.db).start()
        self.replica = Replica(self.shipper.address, **replica_kwargs).start()
        assert self.replica.wait_ready(10.0), self.replica.status()

    def close(self):
        self.replica.close()
        self.shipper.stop()
        self.db.close()


@pytest.fixture
def topo(tmp_path):
    topology = _Topology(tmp_path)
    yield topology
    topology.close()


def test_mid_frame_disconnect_reconnects_and_resumes(topo):
    """An injected send-side fault tears the connection mid-stream; the
    replica reconnects and resumes from its applied position — no
    snapshot, no lost or duplicated commit."""
    INJECTOR.inject("repl:ship", fail=True, times=1)
    topo.db.execute("INSERT INTO kv (id, v) VALUES (100, 100)")
    topo.db.execute("INSERT INTO kv (id, v) VALUES (101, 101)")
    _quiesce(topo.db, [topo.replica])
    assert INJECTOR.fired("repl:ship") == 1
    assert topo.replica.connects >= 2, topo.replica.status()
    assert topo.replica.snapshots_loaded == 1  # resumed, not re-based
    assert _rows(topo.replica.db) == _rows(topo.db)


def test_checkpoint_during_disconnect_forces_snapshot_resync(topo):
    """While the replica is off the air, a checkpoint deletes the
    segment it was tailing; on reconnect the primary re-bases it from
    the checkpoint snapshot and streaming continues."""
    gate = threading.Event()
    INJECTOR.inject("repl:connect", stall=gate)  # holds reconnects
    INJECTOR.inject("repl:ship", fail=True, times=1)  # forces the drop
    topo.db.execute("INSERT INTO kv (id, v) VALUES (100, 100)")
    _wait(lambda: not topo.replica._connected, message="never disconnected")
    topo.db.execute("INSERT INTO kv (id, v) VALUES (101, 101)")
    topo.db.checkpoint()  # the replica's old segment is deleted here
    topo.db.execute("INSERT INTO kv (id, v) VALUES (102, 102)")
    gate.set()
    INJECTOR.clear("repl:connect")
    _quiesce(topo.db, [topo.replica])
    assert topo.replica.snapshots_loaded >= 2, topo.replica.status()
    assert _rows(topo.replica.db) == _rows(topo.db)


def test_torn_frame_rejected_by_crc_without_poisoning_applier(topo):
    """A frame corrupted on the wire fails the CRC check *before* the
    applier sees it; the replica reconnects, the clean frame re-ships,
    and later commits keep applying."""
    topo.shipper.mangle_next_frame = (
        lambda payload: bytes([payload[0] ^ 0xFF]) + payload[1:]
    )
    topo.db.execute("INSERT INTO kv (id, v) VALUES (200, 200)")
    _quiesce(topo.db, [topo.replica])
    assert topo.replica.wire_errors >= 1, topo.replica.status()
    assert topo.replica.connects >= 2
    assert topo.replica.snapshots_loaded == 1  # resume was enough
    assert _rows(topo.replica.db) == _rows(topo.db)
    # the applier survived: the next commit flows through untouched
    topo.db.execute("INSERT INTO kv (id, v) VALUES (201, 201)")
    _quiesce(topo.db, [topo.replica])
    assert _rows(topo.replica.db) == _rows(topo.db)


def test_stalled_applier_grows_lag_and_gates_reads(tmp_path):
    """A stalled applier freezes the replica's progress; its lag signal
    must grow monotonically, close the endpoint's staleness gate (503 →
    clients fall back to the primary), and reopen after catch-up."""
    from repro.core.mediator import OntoAccess
    from repro.r3m.generator import generate_mapping
    from repro.server.endpoint import ROUTES, OntoAccessEndpoint

    topology = _Topology(tmp_path, heartbeat_grace=0.2)
    try:
        replica = topology.replica
        mediator = OntoAccess(replica.db, generate_mapping(replica.db))
        endpoint = OntoAccessEndpoint(
            mediator,
            node=Node(replica.db, replica=replica, max_replica_lag=0.3),
        )
        read = ROUTES[("POST", "/query")]
        assert endpoint._replica_policy(read) is None  # caught up: reads open

        gate = threading.Event()
        INJECTOR.inject("repl:apply", stall=gate)
        topology.db.execute("INSERT INTO kv (id, v) VALUES (300, 300)")
        _wait(lambda: replica.lag() > 0.3, message="lag never grew")
        first = replica.lag()
        time.sleep(0.2)
        second = replica.lag()
        assert second > first > 0.3  # monotone growth while stalled

        blocked = endpoint._replica_policy(read)
        assert blocked is not None and blocked.status == 503
        assert "replica-lagging" in blocked.body
        assert float(blocked.headers["X-Replica-Lag"]) > 0.3

        gate.set()
        INJECTOR.clear("repl:apply")
        _quiesce(topology.db, [replica])
        assert _rows(replica.db) == _rows(topology.db)
        _wait(
            lambda: endpoint._replica_policy(read) is None,
            message="gate never reopened",
        )
    finally:
        topology.close()


def test_connect_faults_are_retried_with_backoff(tmp_path):
    """Connect-time faults (primary briefly unreachable) never kill the
    supervisor: it backs off and retries until the primary answers."""
    db = Database(data_dir=str(tmp_path / "primary"), sync_mode="os")
    db.execute("CREATE TABLE kv (id INTEGER PRIMARY KEY, v INTEGER)")
    db.execute("INSERT INTO kv (id, v) VALUES (1, 1)")
    shipper = LogShipper(db).start()
    INJECTOR.inject("repl:connect", fail=True, times=3)
    replica = Replica(shipper.address).start()
    try:
        assert replica.wait_ready(10.0), replica.status()
        assert INJECTOR.fired("repl:connect") == 3  # all three faults hit
        assert replica.connects == 1  # …then the fourth attempt landed
        assert _rows(replica.db) == _rows(db)
    finally:
        replica.close()
        shipper.stop()
        db.close()


def _http_json(url, timeout=5.0):
    import json

    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return response.status, json.loads(response.read().decode())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode())


def _spawn_replica(port_of_shipper):
    env = dict(os.environ, PYTHONPATH=_SRC)
    child = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--replica-of", f"127.0.0.1:{port_of_shipper}",
            "--port", "0",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env=env,
    )
    url = None
    for _ in range(8):
        line = child.stdout.readline()
        if not line:
            break
        match = re.search(r"endpoint at (http://\S+)", line)
        if match:
            url = match.group(1)
        if line.startswith("POST"):
            break
    assert url is not None, "replica process never announced its endpoint"
    return child, url


def test_sigkill_replica_then_clean_rejoin(tmp_path):
    """SIGKILL a replica *process*; a fresh replica process rejoins the
    same primary cleanly and converges to its exact log position."""
    db = Database(data_dir=str(tmp_path / "primary"), sync_mode="os")
    db.execute("CREATE TABLE kv (id INTEGER PRIMARY KEY, v INTEGER)")
    for i in range(5):
        db.execute(f"INSERT INTO kv (id, v) VALUES ({i}, {i})")
    shipper = LogShipper(db).start()
    child = rejoined = None
    try:
        child, url = _spawn_replica(shipper.port)
        status, _ = _http_json(url + "/ready")
        assert status == 200  # the CLI gates serving on bootstrap

        child.kill()
        child.wait(10)

        # commits made while no replica is alive must not be lost
        for i in range(5, 10):
            db.execute(f"INSERT INTO kv (id, v) VALUES ({i}, {i})")

        rejoined, url = _spawn_replica(shipper.port)
        status, _ = _http_json(url + "/ready")
        assert status == 200
        db._durability.ship_flush()
        position = list(db._durability.position())

        def caught_up():
            status, doc = _http_json(url + "/health")
            return (
                status == 200
                and doc.get("replication", {}).get("applied") == position
            )

        _wait(caught_up, timeout=15.0, message="rejoined replica lagged")
        assert shipper.connections_served >= 2
    finally:
        for proc in (child, rejoined):
            if proc is not None and proc.poll() is None:
                proc.kill()
                proc.wait(10)
        shipper.stop()
        db.close()


# ---------------------------------------------------------------------------
# wire-protocol fuzz (ISSUE 9): malformed bytes become typed errors
# ---------------------------------------------------------------------------


def _pair():
    left, right = socket.socketpair()
    left.settimeout(5.0)   # a wrong implementation blocks; fail instead
    right.settimeout(5.0)
    return left, right


def test_wire_truncated_header_is_a_typed_error():
    left, right = _pair()
    try:
        left.sendall(b"\x03\x01\x00")  # 3 of the 33 header bytes
        left.close()
        with pytest.raises(ReplicationError, match="truncated header"):
            wire.recv_message(right)
    finally:
        right.close()


def test_wire_clean_eof_between_messages_is_connection_scoped():
    """Zero bytes at a message boundary is an orderly close — a
    ConnectionError (reconnect), not a corruption report."""
    left, right = _pair()
    try:
        left.close()
        with pytest.raises(ConnectionError):
            wire.recv_message(right)
    finally:
        right.close()


def test_wire_unknown_kind_rejected_before_payload_read():
    left, right = _pair()
    try:
        header = wire._HEADER.pack(42, 1, 0, 0, 0.0, 10, 0)
        left.sendall(header)  # note: the claimed 10-byte payload never comes
        with pytest.raises(ReplicationError, match="unknown replication"):
            wire.recv_message(right)  # must not block waiting for payload
    finally:
        left.close()
        right.close()


def test_wire_oversized_payload_len_rejected_before_allocation():
    """A corrupt length field claiming 4 GiB must be rejected from the
    header alone — before the receiver tries to read (or allocate) it."""
    left, right = _pair()
    try:
        header = wire._HEADER.pack(
            wire.FRAME, 1, 0, 0, 0.0, wire.MAX_PAYLOAD + 1, 0
        )
        left.sendall(header)
        with pytest.raises(ReplicationError, match="oversized frame"):
            wire.recv_message(right)
    finally:
        left.close()
        right.close()


def test_wire_truncated_payload_is_a_typed_error():
    left, right = _pair()
    try:
        header = wire._HEADER.pack(wire.FRAME, 1, 0, 0, 0.0, 100, 0)
        left.sendall(header + b"x" * 10)  # 10 of 100 payload bytes
        left.close()
        with pytest.raises(ReplicationError, match="truncated frame payload"):
            wire.recv_message(right)
    finally:
        right.close()


def test_wire_garbage_after_valid_message_is_contained():
    """A valid message followed by garbage: the first decodes cleanly,
    the garbage raises a typed error on the *next* read — the valid
    message is never poisoned retroactively."""
    left, right = _pair()
    try:
        wire.send_message(
            right, wire.HEARTBEAT, 3, 1024, epoch=2, sent_at=123.0
        )
        right.sendall(b"\xde\xad\xbe\xef" * 16)
        message = wire.recv_message(left)
        assert message.kind == wire.HEARTBEAT
        assert message.epoch == 2
        assert message.position == (3, 1024)
        with pytest.raises(ReplicationError):
            wire.recv_message(left)
    finally:
        left.close()
        right.close()


def test_wire_random_garbage_never_escapes_the_typed_contract():
    """Seeded fuzz: arbitrary byte blobs must always surface as
    ReplicationError or ConnectionError — never struct.error, a huge
    allocation, or a hang."""
    rng = random.Random(0xEB0C)
    for _ in range(100):
        blob = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 80)))
        left, right = _pair()
        try:
            left.sendall(blob)
            left.close()
            with pytest.raises((ReplicationError, ConnectionError)):
                wire.recv_message(right)
        finally:
            right.close()


def test_garbage_hello_does_not_poison_the_shipper(topo):
    """A client speaking garbage at the shipper's listener is dropped
    connection-scoped: the real replica keeps streaming untouched."""
    raw = socket.create_connection(topo.shipper.address, timeout=5.0)
    try:
        # ≥ one full header of garbage, so the kind check fires (fewer
        # bytes would legitimately leave the server waiting for more)
        raw.sendall(b"GET / HTTP/1.1\r\n\r\n".ljust(64, b"\xaa"))
        raw.settimeout(5.0)
        assert raw.recv(1024) == b""  # server side hangs up
    finally:
        raw.close()
    topo.db.execute("INSERT INTO kv (id, v) VALUES (400, 400)")
    _quiesce(topo.db, [topo.replica])
    assert _rows(topo.replica.db) == _rows(topo.db)
