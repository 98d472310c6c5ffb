"""What a log shipper sends a replica that bootstraps from a checkpoint.

The SNAPSHOT payload is the newest checkpoint's payload bytes as stored,
its CRC checked, not a decoded body encoded again.  A damaged newest
checkpoint ends the connection (the replica redials with backoff); it is
not read again and again while the connection stays open.

Every wait here is bounded: a regression fails an assertion, it never
hangs the run.
"""

import shutil
import socket
import time
from pathlib import Path

import pytest

from repro.rdb import Database
from repro.rdb.durability import (
    _CKPT_MAGIC,
    _FRAME,
    WAL_HEADER_SIZE,
    decode_payload,
    encode_payload,
)
from repro.replication import LogShipper, wire

FIXTURE = Path(__file__).resolve().parents[1] / "rdb" / "format_pin"
CHECKPOINT = "checkpoint-00000001.db"
TAIL = "wal-00000001.log"


@pytest.fixture
def primary(tmp_path):
    """A durable database opened on the pinned checkpoint and tail."""
    data_dir = tmp_path / "primary"
    data_dir.mkdir()
    for name in (CHECKPOINT, TAIL):
        shutil.copy(FIXTURE / name, data_dir / name)
    db = Database(data_dir=str(data_dir), sync_mode="os")
    yield db
    db.close()


def _hello(shipper: LogShipper) -> socket.socket:
    """Connect as a replica that has applied nothing: it must be sent a
    snapshot."""
    sock = socket.create_connection(shipper.address, timeout=5.0)
    wire.send_message(
        sock, wire.HELLO, 0, 0, epoch=shipper.epoch, sent_at=time.time()
    )
    return sock


def test_the_snapshot_is_the_checkpoint_payload_as_stored(primary):
    shipper = LogShipper(primary).start()
    try:
        with _hello(shipper) as sock:
            message = wire.recv_message(sock)
    finally:
        shipper.stop()
    assert message.kind == wire.SNAPSHOT
    assert message.position == (1, WAL_HEADER_SIZE)
    stored = (FIXTURE / CHECKPOINT).read_bytes()[len(_CKPT_MAGIC) + _FRAME.size:]
    assert message.payload == stored
    # ... which is what a decoded body encoded again gives
    assert message.payload == encode_payload(decode_payload(stored))


def test_a_damaged_checkpoint_closes_the_connection_without_spinning(primary):
    # Damaged after the database opened (recovery read it intact): the
    # newest checkpoint now fails its CRC, and no newer one supersedes it.
    path = Path(primary._durability.data_dir) / CHECKPOINT
    data = bytearray(path.read_bytes())
    data[-1] ^= 0xFF
    path.write_bytes(bytes(data))

    shipper = LogShipper(primary).start()
    try:
        with _hello(shipper) as sock:
            started = time.process_time()
            try:
                closed = sock.recv(65536) == b""
            except ConnectionResetError:
                closed = True
            except socket.timeout:
                closed = False
            spent = time.process_time() - started
    finally:
        shipper.stop()
    assert closed, "the shipper kept the connection open"
    assert spent < 1.0, f"{spent:.2f} s of CPU while the snapshot was refused"
    assert shipper.snapshots_sent == 0
