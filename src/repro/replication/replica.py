"""Replica-side supervisor: connects, applies the stream, tracks lag.

A :class:`Replica` owns a :class:`~repro.rdb.engine.Database` (in-memory
by default, durable when constructed with one) and a supervisor thread
that keeps one replication connection alive to the primary's
:class:`~repro.replication.shipper.LogShipper`:

* connect (with exponential backoff), send ``HELLO`` with the applied
  position and the highest epoch observed, then apply whatever arrives:
  a ``SNAPSHOT`` resets the store wholesale
  (:meth:`Database.reset_for_snapshot`), a ``FRAME`` replays one commit
  batch (:meth:`Database.apply_replicated`), ``ROTATE`` just advances
  the position, ``HEARTBEAT`` refreshes the watermark.  After each
  applied frame (and each heartbeat) the replica sends an ``ACK`` with
  its applied position — the primary's semi-sync barrier feeds on it.
* every error — socket, torn frame (CRC), injected fault, a failed
  apply (counted in ``apply_errors``) — tears the connection down and
  the supervisor reconnects; the applied position in the next ``HELLO``
  makes resumption exact (a batch applies atomically, so a frame an
  error cut short ships again).  Only an applied frame or snapshot
  resets the reconnect backoff.

**Epoch fencing**: the replica tracks the highest epoch it has ever
seen (persisted via the database when durable).  Any message stamped
with a lower epoch is from a deposed primary's lineage — it raises
:class:`~repro.errors.StaleEpochError`, is counted in
``fenced_messages``, and is *never applied*.  This is the applier half
of the split-brain guarantee.

**Promotion** (:meth:`promote`): drain the applied tail to the last
known watermark, stop following, bump the epoch past anything observed,
flip the database writable, and (for durable stores) checkpoint so a
new :class:`LogShipper` can bootstrap followers from the current state.
:class:`PrimaryLossDetector` automates the trigger: when heartbeats —
the primary's lease renewals — go silent past a loss timeout, it fires
a promotion callback exactly once.

**Lag** is the replica's staleness bound, in seconds, computed on the
monotonic clock (wall-clock steps can't send it backwards) from two
signals: how long the replica has been behind the primary's watermark
(time since it was last caught up), and how long since the primary was
last heard from at all (beyond a heartbeat grace).  Before the first
successful sync, lag is infinite — the serving layer's ``/ready`` stays
503.  :meth:`silence` exposes the raw heard-nothing measure the lease
detector uses.

**At-least-once, idempotent-once**: the shipper may resend a frame the
replica already applied (reconnect races); frames carry their end
position, so anything at or below the applied position is skipped.

Fault sites: ``repl:connect`` fires before each connection attempt,
``repl:apply`` before applying each snapshot/frame (so an injected
error leaves the frame unapplied — it replays on reconnect),
``repl:lease`` on each detector check, ``repl:promote`` at the start of
a promotion (an injected error aborts it).
"""

from __future__ import annotations

import math
import socket
import threading
import time
from typing import Any, Callable, Dict, Optional, Tuple

from ..errors import FaultError, ReplicationError, StaleEpochError
from ..faults import INJECTOR
from ..rdb.durability import decode_payload
from ..rdb.engine import Database
from . import wire

__all__ = ["Replica", "PrimaryLossDetector"]

#: applied position before anything was ever received; below any real
#: position (those start at the segment header size) and representable
#: in the wire header's unsigned fields, so a first HELLO carries it and
#: the primary answers with a bootstrap snapshot
_NOWHERE = (0, 0)


class Replica:
    """Maintains a read replica of a primary database over one socket."""

    def __init__(
        self,
        primary_address: Tuple[str, int],
        *,
        db: Optional[Database] = None,
        reconnect_backoff: float = 0.05,
        max_backoff: float = 1.0,
        heartbeat_grace: float = 1.0,
        socket_timeout: float = 10.0,
        min_epoch: int = 0,
    ) -> None:
        self.primary_address = tuple(primary_address)
        self.db = db if db is not None else Database()
        #: a replica's store only changes via the replication stream;
        #: promote() flips this
        self.db.read_only = True
        self.reconnect_backoff = reconnect_backoff
        self.max_backoff = max_backoff
        self.heartbeat_grace = heartbeat_grace
        self.socket_timeout = socket_timeout
        self._thread: Optional[threading.Thread] = None
        self._stopped = threading.Event()
        self._sock: Optional[socket.socket] = None
        self._lock = threading.Lock()
        self._promote_lock = threading.Lock()
        #: positions, all under _lock
        self._applied: Tuple[int, int] = _NOWHERE
        self._watermark: Tuple[int, int] = _NOWHERE
        self._last_contact: Optional[float] = None  # monotonic clock
        self._caught_up_at: Optional[float] = None  # monotonic clock
        self._synced_once = False
        self._ready_event = threading.Event()
        self._connected = False
        #: highest epoch ever observed (fencing floor); a durable store
        #: contributes what it recovered
        self._epoch = max(min_epoch, getattr(self.db, "epoch", 0),
                          getattr(self.db, "replicated_epoch", 0))
        self._role = "replica"
        self._promotion: Optional[Dict[str, Any]] = None
        #: a durable replica resumes the stream where its journal ends
        resume = getattr(self.db, "replicated_position", None)
        if resume is not None:
            self._applied = (int(resume[0]), int(resume[1]))
        #: diagnostics
        self.connects = 0
        self.frames_applied = 0
        self.snapshots_loaded = 0
        self.wire_errors = 0
        self.apply_errors = 0
        self.fenced_messages = 0
        self.acks_sent = 0
        self.last_error: Optional[str] = None

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "Replica":
        self._thread = threading.Thread(
            target=self._run, name="repl-replica", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stopped.set()
        self._close_socket()
        if self._thread is not None:
            self._thread.join(timeout=5.0)

    def close(self) -> None:
        self.stop()
        self.db.close()

    def _close_socket(self) -> None:
        sock = self._sock
        if sock is not None:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass
            self._sock = None

    # -- supervisor loop ------------------------------------------------

    def _run(self) -> None:
        backoff = self.reconnect_backoff
        while not self._stopped.is_set():
            try:
                INJECTOR.fire("repl:connect")
                sock = socket.create_connection(
                    self.primary_address, timeout=self.socket_timeout
                )
            except (OSError, FaultError) as exc:
                self.last_error = f"{type(exc).__name__}: {exc}"
                if self._stopped.wait(backoff):
                    return
                backoff = min(backoff * 2, self.max_backoff)
                continue
            self._sock = sock
            self.connects += 1
            progress = self.frames_applied + self.snapshots_loaded
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                wire.send_message(
                    sock, wire.HELLO, *self._position(),
                    epoch=self._epoch, sent_at=time.time(),
                )
                self._connected = True
                while not self._stopped.is_set():
                    self._handle(sock, wire.recv_message(sock))
            except Exception as exc:  # an apply error too: it rolled back
                if isinstance(exc, ReplicationError):
                    self.wire_errors += 1
                elif not isinstance(exc, OSError):
                    self.apply_errors += 1
                self.last_error = f"{type(exc).__name__}: {exc}"
            finally:
                self._connected = False
                self._close_socket()
            # A frame that keeps failing is retried ever more slowly.
            if self.frames_applied + self.snapshots_loaded > progress:
                backoff = self.reconnect_backoff
            elif self._stopped.wait(backoff):
                return
            else:
                backoff = min(backoff * 2, self.max_backoff)

    def _position(self) -> Tuple[int, int]:
        with self._lock:
            return self._applied

    def _observe_epoch(self, message: wire.Message) -> None:
        """Enforce the fencing floor, then ratchet it.  A stale-epoch
        message is counted and rejected *before* any state changes — a
        deposed primary's frames are never applied."""
        if message.epoch < self._epoch:
            self.fenced_messages += 1
            raise StaleEpochError(
                f"rejected {wire.KIND_NAMES[message.kind]} from stale "
                f"epoch {message.epoch} (fencing floor {self._epoch})"
            )
        if message.epoch > self._epoch:
            self._epoch = message.epoch
            manager = self.db._durability
            if manager is not None and manager.epoch < message.epoch:
                # Persist the floor: a restarted durable replica must
                # keep refusing the old lineage.
                manager.set_epoch(message.epoch)

    def _send_ack(self, sock: socket.socket) -> None:
        wire.send_message(
            sock, wire.ACK, *self._position(),
            epoch=self._epoch, sent_at=time.time(),
        )
        self.acks_sent += 1

    def _handle(self, sock: socket.socket, message: wire.Message) -> None:
        self._observe_epoch(message)
        if message.kind == wire.SNAPSHOT:
            # repl:apply fires BEFORE the mutation: an injected error
            # leaves the store untouched and the message replays after
            # the reconnect.
            INJECTOR.fire("repl:apply")
            self._ready_event.clear()
            self.db.reset_for_snapshot(
                decode_payload(message.payload) if message.payload else None,
                position=message.position,
                epoch=message.epoch,
            )
            self.snapshots_loaded += 1
            with self._lock:
                self._applied = message.position
                self._synced_once = False
        elif message.kind == wire.FRAME:
            if message.position > self._position():
                INJECTOR.fire("repl:apply")
                self.db.apply_replicated(
                    decode_payload(message.payload),
                    position=message.position,
                    epoch=message.epoch,
                )
                self.frames_applied += 1
                with self._lock:
                    self._applied = message.position
            self._send_ack(sock)
        elif message.kind == wire.ROTATE:
            with self._lock:
                self._applied = max(self._applied, message.position)
        elif message.kind == wire.HEARTBEAT:
            self._send_ack(sock)
        # every message (incl. HEARTBEAT) refreshes watermark + liveness
        now = time.monotonic()
        with self._lock:
            self._watermark = max(self._watermark, message.position)
            self._last_contact = now
            # A SNAPSHOT alone can never prove sync: its base position is
            # trivially "caught up" to itself, while the primary's real
            # end of log is only learned from the heartbeat the shipper
            # sends right after it.  Declaring ready here would let a
            # bootstrap observer (mapping generation, /ready) read a
            # store that is still mid-replay.
            if message.kind != wire.SNAPSHOT and (
                self._applied >= self._watermark
            ):
                self._caught_up_at = now
                self._synced_once = True
                self._ready_event.set()

    # -- the lag signal -------------------------------------------------

    def lag(self) -> float:
        """Staleness bound in seconds: ``inf`` before the first full
        sync, else how long the replica has been behind the watermark,
        floored by silence from the primary beyond the heartbeat grace.
        A caught-up, connected replica reports ~0.  A promoted replica
        is the primary — its lag is 0 by definition.  Monotonic clock
        throughout: wall-clock steps can't send lag backwards."""
        now = time.monotonic()
        with self._lock:
            if self._role == "primary":
                return 0.0
            if not self._synced_once or self._caught_up_at is None:
                return math.inf
            behind = 0.0
            if self._applied < self._watermark:
                behind = now - self._caught_up_at
            if self._last_contact is not None:
                silence = now - self._last_contact - self.heartbeat_grace
                behind = max(behind, silence)
            return max(0.0, behind)

    def silence(self) -> float:
        """Seconds since the primary was last heard from (monotonic);
        ``inf`` before any contact.  The raw lease signal — no grace
        subtracted."""
        with self._lock:
            if self._last_contact is None:
                return math.inf
            return max(0.0, time.monotonic() - self._last_contact)

    @property
    def ready(self) -> bool:
        """True once bootstrap replay caught up to the primary's
        watermark (stays true across reconnects; a mid-life re-bootstrap
        snapshot clears it until replay catches up again)."""
        return self._ready_event.is_set()

    def wait_ready(self, timeout: float) -> bool:
        return self._ready_event.wait(timeout)

    def applied_position(self) -> Tuple[int, int]:
        return self._position()

    def wait_applied(self, position: Tuple[int, int], timeout: float) -> bool:
        """Block until the applied position reaches ``position`` (the
        quiesce primitive the differential harness uses)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self._position() >= position:
                return True
            time.sleep(0.005)
        return self._position() >= position

    # -- role / promotion -----------------------------------------------

    @property
    def role(self) -> str:
        return self._role

    @property
    def epoch(self) -> int:
        return self._epoch

    @property
    def synced_once(self) -> bool:
        return self._synced_once

    def promote(self, *, drain_timeout: float = 5.0) -> Dict[str, Any]:
        """Take over as primary (idempotent).

        1. drain: wait (bounded) for the applied tail to reach the last
           known watermark — everything the old primary ever told us
           about gets applied before we diverge;
        2. stop following; no message from the old lineage can arrive
           between the drain and the epoch bump;
        3. bump the epoch strictly past everything observed — persisted
           before the store opens for writes, so our frames fence the
           old primary's everywhere;
        4. flip the database writable and (for a durable store)
           checkpoint, so a new :class:`LogShipper` bootstraps followers
           from current state.

        :meth:`Node.promote` starts that shipper.
        Raises :class:`~repro.errors.FaultError` from the
        ``repl:promote`` site — an injected fault aborts the promotion
        before any state changes.
        """
        with self._promote_lock:
            if self._role == "primary":
                assert self._promotion is not None
                return self._promotion
            INJECTOR.fire("repl:promote")
            with self._lock:
                target = self._watermark
            # Best-effort drain: if the connection died mid-stream the
            # tail up to the watermark may be unreachable; everything
            # *acknowledged* is already applied (semi-sync), so a bounded
            # wait is safe.
            drained = self.wait_applied(target, drain_timeout)
            self.stop()
            new_epoch = self._epoch + 1
            db = self.db
            if db._durability is not None:
                db._durability.advance_epoch(new_epoch)
                new_epoch = db._durability.epoch
                db.checkpoint()
            self._epoch = new_epoch
            db.read_only = False
            self._role = "primary"
            self._connected = False
            self._ready_event.set()
            self._promotion = {
                "epoch": new_epoch,
                "drained": drained,
                "applied": list(self._position()),
            }
            return self._promotion

    def status(self) -> Dict[str, Any]:
        """Machine-readable replication state for /health and /ready."""
        lag = self.lag()
        silence = self.silence()
        with self._lock:
            applied = list(self._applied)
            watermark = list(self._watermark)
        return {
            "role": self._role,
            "epoch": self._epoch,
            "primary": f"{self.primary_address[0]}:{self.primary_address[1]}",
            "connected": self._connected,
            "ready": self.ready,
            "lag_s": None if math.isinf(lag) else round(lag, 3),
            "silence_s": None if math.isinf(silence) else round(silence, 3),
            "applied": applied,
            "watermark": watermark,
            "connects": self.connects,
            "frames_applied": self.frames_applied,
            "snapshots_loaded": self.snapshots_loaded,
            "wire_errors": self.wire_errors,
            "apply_errors": self.apply_errors,
            "fenced_messages": self.fenced_messages,
        }

    def metrics(self) -> Dict[str, float]:
        """Numeric samples for the /metrics exposition.

        Unlike :meth:`status` every value is a float and ``inf`` is kept
        as ``inf`` (Prometheus renders ``+Inf``) rather than ``None``, so
        a never-synced replica scrapes as unbounded lag instead of a
        missing series.
        """
        return {
            "role_primary": 1.0 if self._role == "primary" else 0.0,
            "epoch": float(self._epoch),
            "connected": 1.0 if self._connected else 0.0,
            "ready": 1.0 if self.ready else 0.0,
            "lag_seconds": self.lag(),
            "silence_seconds": self.silence(),
            "connects": float(self.connects),
            "frames_applied": float(self.frames_applied),
            "snapshots_loaded": float(self.snapshots_loaded),
            "wire_errors": float(self.wire_errors),
            "apply_errors": float(self.apply_errors),
            "fenced_messages": float(self.fenced_messages),
            "acks_sent": float(self.acks_sent),
        }


class PrimaryLossDetector:
    """Lease watcher: promotes (or calls back) on primary silence.

    The primary's heartbeats are its lease renewals.  Once a replica has
    synced at least once, letting :meth:`Replica.silence` exceed
    ``loss_timeout`` means the lease expired: ``on_loss`` fires exactly
    once (typically a :meth:`Replica.promote` wrapper).  A replica that
    never reached the primary is never promoted — there is nothing it
    could safely take over.

    ``repl:lease`` fires on every check, so chaos tests can stall or
    fail the detector itself.
    """

    def __init__(
        self,
        replica: Replica,
        loss_timeout: float,
        on_loss: Callable[[], Any],
        *,
        check_interval: float = 0.05,
    ) -> None:
        self.replica = replica
        self.loss_timeout = loss_timeout
        self.on_loss = on_loss
        self.check_interval = check_interval
        self._thread: Optional[threading.Thread] = None
        self._stopped = threading.Event()
        self.triggered = False
        self.last_error: Optional[str] = None

    def start(self) -> "PrimaryLossDetector":
        self._thread = threading.Thread(
            target=self._run, name="repl-lease-detector", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stopped.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)

    def _run(self) -> None:
        while not self._stopped.is_set():
            try:
                INJECTOR.fire("repl:lease")
            except FaultError as exc:
                self.last_error = f"{type(exc).__name__}: {exc}"
                if self._stopped.wait(self.check_interval):
                    return
                continue
            if self.replica.role != "replica":
                return  # already promoted (by us or an operator)
            if (
                self.replica.synced_once
                and self.replica.silence() >= self.loss_timeout
            ):
                self.triggered = True
                try:
                    self.on_loss()
                except Exception as exc:  # surfaced via diagnostics
                    self.last_error = f"{type(exc).__name__}: {exc}"
                return
            self._stopped.wait(self.check_interval)
