"""Primary-side log shipper: streams WAL frames to read replicas.

One :class:`LogShipper` per primary database.  It listens on a TCP port;
each connecting replica gets its own shipping thread that

1. reads the replica's ``HELLO`` (its applied position and the highest
   epoch it has seen),
2. resumes streaming from that position when the epochs match, the
   primary still has the segment and the offset lands on a frame
   boundary — otherwise sends a ``SNAPSHOT`` (the newest checkpoint
   body) to re-base the replica.  A position from a *different* epoch is
   never resumable: generations restart after a promotion, so offsets
   from another lineage would collide silently,
3. tails the log: flush the live segment, read complete frames from
   disk (:func:`~repro.rdb.durability.iter_wal_frames`), ship them
   verbatim, cross segment boundaries with ``ROTATE``, and idle on the
   manager's ship condition with periodic ``HEARTBEAT``\\ s carrying the
   end-of-log watermark,
4. drains the replica's ``ACK`` stream on a side thread, feeding the
   semi-sync commit barrier.

**Fencing**: every outgoing message is stamped with the data_dir's
persisted epoch.  A ``HELLO`` (or ``ACK``) carrying a *higher* epoch
proves a replica was promoted past this primary: the shipper fences
itself permanently (``fenced``), fires ``on_deposed`` (the serving
layer flips the local database read-only), closes every connection and
refuses to stream another frame.  A deposed primary therefore cannot
ship a single frame — and even if it could, appliers reject the stale
epoch.

**Semi-sync** (``min_sync_replicas > 0``): the database's commit
barrier (``Database.commit_barrier``, set by :meth:`start`) blocks each
commit until at least that many replicas have acknowledged applying up
to the commit's WAL position, or raises
:class:`~repro.errors.ReplicationError` after ``ack_timeout`` — the
caller's write fails even though it is locally durable, which is what
makes "every acknowledged write survives failover" a theorem instead of
a race.

The shipper never taps the commit path for *data*: frames are read back
from the files the WAL writer produced, so a replica can only ever
apply changes the primary could also recover.

Backpressure is TCP's: a stalled replica blocks its ``sendall`` while
other replicas and the primary's commit path proceed.  If a checkpoint
deletes the segment a slow replica was tailing, the shipper falls back
to a fresh ``SNAPSHOT`` on the same connection.

Fault sites: ``repl:ship`` fires before each frame send; injected
errors tear the connection down exactly like a network failure.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import (
    DurabilityError,
    FaultError,
    ReplicationError,
    StaleEpochError,
)
from ..faults import INJECTOR
from ..rdb.durability import WAL_HEADER_SIZE, iter_wal_frames
from . import wire

__all__ = ["LogShipper"]


def _shutdown_close(conn: socket.socket) -> None:
    """Tear a connection down so *every* thread blocked on it wakes.

    ``close()`` alone is not enough: the per-connection ACK reader is
    blocked in ``recv()`` on the same file description, which keeps it
    referenced — no FIN goes out and both the reader and the remote
    replica hang until a timeout.  ``shutdown()`` acts on the connection
    itself, unblocking the reader (recv returns 0) and notifying the
    peer immediately."""
    try:
        conn.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        conn.close()
    except OSError:
        pass


class LogShipper:
    """Streams a primary database's WAL to any number of replicas."""

    def __init__(
        self,
        db,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        heartbeat_interval: float = 0.2,
        min_sync_replicas: int = 0,
        ack_timeout: float = 5.0,
        on_deposed: Optional[Callable[[int], None]] = None,
    ) -> None:
        if db._durability is None:
            raise ReplicationError(
                "cannot ship the log of an in-memory database; "
                "open it with a data_dir"
            )
        self.db = db
        self.manager = db._durability
        self.host = host
        self._requested_port = port
        self.heartbeat_interval = heartbeat_interval
        self.min_sync_replicas = min_sync_replicas
        self.ack_timeout = ack_timeout
        self.on_deposed = on_deposed
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._conns: List[socket.socket] = []
        self._lock = threading.Lock()
        self._stopped = threading.Event()
        #: replica-acknowledged applied positions, per live connection;
        #: the semi-sync barrier counts entries >= the commit position
        self._ack_cond = threading.Condition()
        self._acks: Dict[socket.socket, Tuple[int, int]] = {}
        #: fencing: set once a peer proves a higher epoch exists
        self.fenced = False
        self.fenced_by: Optional[int] = None
        #: test seam: corrupts the payload of the next FRAME sent (after
        #: its CRC is computed), simulating a torn frame on the wire
        self.mangle_next_frame: Optional[Callable[[bytes], bytes]] = None
        #: diagnostics
        self.connections_served = 0
        self.snapshots_sent = 0
        self.frames_shipped = 0
        self.barrier_timeouts = 0

    @property
    def epoch(self) -> int:
        return self.manager.epoch

    def metrics(self) -> Dict[str, float]:
        """Numeric samples for the /metrics exposition."""
        with self._lock:
            live = len(self._conns)
        return {
            "epoch": float(self.epoch),
            "fenced": 1.0 if self.fenced else 0.0,
            "replicas_connected": float(live),
            "connections_served": float(self.connections_served),
            "snapshots_sent": float(self.snapshots_sent),
            "frames_shipped": float(self.frames_shipped),
            "barrier_timeouts": float(self.barrier_timeouts),
        }

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "LogShipper":
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self._requested_port))
        listener.listen(8)
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repl-shipper-accept", daemon=True
        )
        self._accept_thread.start()
        if self.min_sync_replicas > 0:
            self.db.commit_barrier = self._commit_barrier
        return self

    def stop(self) -> None:
        self._stopped.set()
        if self.db.commit_barrier == self._commit_barrier:
            self.db.commit_barrier = None
        if self._listener is not None:
            # shutdown() too: close() alone leaves accept() blocked
            _shutdown_close(self._listener)
        self._close_conns()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)

    def _close_conns(self) -> None:
        with self._lock:
            conns = list(self._conns)
        for conn in conns:
            _shutdown_close(conn)
        with self._ack_cond:
            self._ack_cond.notify_all()

    @property
    def address(self) -> Tuple[str, int]:
        assert self._listener is not None, "shipper not started"
        return self._listener.getsockname()[:2]

    @property
    def port(self) -> int:
        return self.address[1]

    # -- fencing --------------------------------------------------------

    def _fence(self, epoch: int) -> None:
        """A peer proved epoch ``epoch`` exists: this primary is deposed.
        Permanent — only rejoining as a replica (a new process/role)
        clears it."""
        with self._lock:
            if self.fenced:
                return
            self.fenced = True
            self.fenced_by = epoch
        self._close_conns()
        if self.on_deposed is not None:
            self.on_deposed(epoch)

    # -- semi-sync commit barrier ---------------------------------------

    def _note_ack(self, conn: socket.socket, position: Tuple[int, int]) -> None:
        with self._ack_cond:
            if position > self._acks.get(conn, (0, 0)):
                self._acks[conn] = position
            self._ack_cond.notify_all()

    def wait_replicated(
        self, position: Tuple[int, int], timeout: float
    ) -> bool:
        """Block until ``min_sync_replicas`` replicas acked ``position``
        (True) or the timeout passes (False)."""
        deadline = time.monotonic() + timeout
        with self._ack_cond:
            while True:
                count = sum(1 for p in self._acks.values() if p >= position)
                if count >= self.min_sync_replicas:
                    return True
                if self.fenced:
                    raise StaleEpochError(
                        f"primary fenced by epoch {self.fenced_by}; "
                        "writes must go to the new primary"
                    )
                remaining = deadline - time.monotonic()
                if remaining <= 0 or self._stopped.is_set():
                    return False
                self._ack_cond.wait(min(remaining, 0.5))

    def _commit_barrier(self, position: Tuple[int, int]) -> None:
        """The database's commit barrier: refuse to acknowledge a write
        until enough replicas confirmed it (or fail the commit call — the
        write is locally durable but reported as NOT acknowledged, so a
        failover cannot lose anything a client believes happened)."""
        if self._stopped.is_set():
            return
        if not self.wait_replicated(position, self.ack_timeout):
            self.barrier_timeouts += 1
            raise ReplicationError(
                f"commit at {position} was not acknowledged by "
                f"{self.min_sync_replicas} replica(s) within "
                f"{self.ack_timeout:g}s; the write is durable on the "
                "primary only and reported as unacknowledged"
            )

    # -- accept / serve -------------------------------------------------

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._stopped.is_set():
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return  # listener closed by stop()
            with self._lock:
                self._conns.append(conn)
            self.connections_served += 1
            threading.Thread(
                target=self._serve, args=(conn,),
                name="repl-shipper-conn", daemon=True,
            ).start()

    def _serve(self, conn: socket.socket) -> None:
        try:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            hello = wire.recv_message(conn)
            if hello.kind != wire.HELLO:
                raise ReplicationError(
                    f"expected hello, got {wire.KIND_NAMES[hello.kind]}"
                )
            if hello.epoch > self.epoch:
                # The replica lives in a later epoch: we were deposed.
                self._fence(hello.epoch)
                return
            if self.fenced:
                return
            # A position is only meaningful within its epoch's lineage;
            # a replica from an older epoch (a rejoining deposed
            # primary) always re-bases from a snapshot, which is what
            # truncates its diverged history.
            position = None
            if hello.epoch == self.epoch:
                position = self._resume_position(hello.position)
            if position is None:
                position = self._send_snapshot(conn)
            # The current end of log is the replica's sync target: once
            # it applies up to this watermark it can report itself ready.
            self._send_heartbeat(conn)
            threading.Thread(
                target=self._drain_acks, args=(conn,),
                name="repl-shipper-acks", daemon=True,
            ).start()
            self._stream(conn, position)
        except (OSError, ConnectionError, ReplicationError,
                DurabilityError, FaultError):
            pass  # connection-scoped: the replica reconnects and resyncs
        finally:
            _shutdown_close(conn)
            with self._lock:
                if conn in self._conns:
                    self._conns.remove(conn)
            with self._ack_cond:
                self._acks.pop(conn, None)
                self._ack_cond.notify_all()

    def _drain_acks(self, conn: socket.socket) -> None:
        """Consume the replica's upstream ACK stream (side thread, one
        per connection): each ACK advances the semi-sync watermark; an
        ACK from a higher epoch fences this primary."""
        try:
            while not self._stopped.is_set():
                message = wire.recv_message(conn)
                if message.kind != wire.ACK:
                    raise ReplicationError(
                        f"unexpected upstream "
                        f"{wire.KIND_NAMES[message.kind]}"
                    )
                if message.epoch > self.epoch:
                    self._fence(message.epoch)
                    return
                self._note_ack(conn, message.position)
        except (OSError, ConnectionError, ReplicationError):
            pass  # connection teardown handles cleanup

    # -- handshake ------------------------------------------------------

    def _resume_position(
        self, position: Tuple[int, int]
    ) -> Optional[Tuple[int, int]]:
        """Validate a replica's claimed position against the on-disk log.

        Resumable iff the segment still exists and the offset is a frame
        boundary of it (the segment start, or the end of some complete
        frame).  Anything else — the segment was checkpointed away, or
        the offset is from a diverged history — means re-bootstrap.
        """
        generation, offset = position
        if generation not in self.manager.wal_generations():
            return None
        if offset == WAL_HEADER_SIZE:
            return position
        self.manager.ship_flush()
        path = self.manager.segment_path(generation)
        try:
            for _, end in iter_wal_frames(path, WAL_HEADER_SIZE):
                if end == offset:
                    return position
                if end > offset:
                    return None
        except OSError:
            return None
        return None

    def _send_snapshot(self, conn: socket.socket) -> Tuple[int, int]:
        """Ship the newest checkpoint (or "start empty" for a fresh
        primary) and return the base position streaming resumes from."""
        while True:
            generation = self.manager.newest_checkpoint()
            if generation is None:
                wals = self.manager.wal_generations()
                base = (wals[0] if wals else self.manager.generation,
                        WAL_HEADER_SIZE)
                payload = b""
            else:
                base = (generation, WAL_HEADER_SIZE)
                try:
                    payload = self.manager.checkpoint_payload(generation)
                except DurabilityError:
                    if self.manager.newest_checkpoint() != generation:
                        continue  # a newer checkpoint raced the read; retry
                    # Damaged, not superseded: reading it again fails
                    # again.  The connection closes; the replica redials.
                    raise
            wire.send_message(
                conn, wire.SNAPSHOT, base[0], base[1], payload,
                epoch=self.epoch, sent_at=time.time(),
            )
            self.snapshots_sent += 1
            return base

    def _send_heartbeat(self, conn: socket.socket) -> None:
        generation, offset = self.manager.position()
        wire.send_message(
            conn, wire.HEARTBEAT, generation, offset,
            epoch=self.epoch, sent_at=time.time(),
        )

    # -- the tail loop --------------------------------------------------

    def _stream(self, conn: socket.socket, position: Tuple[int, int]) -> None:
        generation, offset = position
        while not self._stopped.is_set():
            if self.fenced:
                raise StaleEpochError(
                    f"fenced by epoch {self.fenced_by}: refusing to ship"
                )
            seq = self.manager.ship_seq()
            self.manager.ship_flush()
            current = self.manager.position()
            try:
                frames = list(
                    iter_wal_frames(
                        self.manager.segment_path(generation), offset
                    )
                )
            except FileNotFoundError:
                # A checkpoint superseded the segment we were tailing:
                # re-base this replica from the checkpoint.
                generation, offset = self._send_snapshot(conn)
                self._send_heartbeat(conn)
                continue
            for payload, end in frames:
                if self.fenced:
                    raise StaleEpochError(
                        f"fenced by epoch {self.fenced_by}: "
                        "refusing to ship"
                    )
                if INJECTOR.armed:
                    INJECTOR.fire("repl:ship")
                mangle, self.mangle_next_frame = self.mangle_next_frame, None
                wire.send_message(
                    conn, wire.FRAME, generation, end, payload,
                    epoch=self.epoch, sent_at=time.time(), mangle=mangle,
                )
                self.frames_shipped += 1
                offset = end
            if generation < current[0]:
                # Segment exhausted and the log moved on: generations are
                # strictly consecutive and closed segments are complete
                # (close() flushes), so step to the next one.
                generation += 1
                offset = WAL_HEADER_SIZE
                wire.send_message(
                    conn, wire.ROTATE, generation, offset,
                    epoch=self.epoch, sent_at=time.time(),
                )
                continue
            self._send_heartbeat(conn)
            self.manager.ship_wait(seq, self.heartbeat_interval)
