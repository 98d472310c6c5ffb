"""What this process serves, and the one place that changes it.

A :class:`Node` holds the database a serving process answers from and
its replication machinery — the :class:`Replica` it follows, the
:class:`LogShipper` it streams its log through, the
:class:`PrimaryLossDetector` that may promote it — and is the one object
that knows its role: ``replica`` while it follows a primary,
``primary`` when built without a replica or once promoted, ``fenced``
once a peer proved a higher epoch exists (the endpoint's module
docstring says what each role serves).

Only the node changes the role.  :meth:`Node.promote` (``POST
/admin/promote`` and the detector both call it) promotes the replica and
starts the shipper under one lock: racing callers get one promotion, one
shipper and the same record.  Every shipper the node starts fences the
node through its ``on_deposed``, which makes the database read-only.

The serving tier reads the node on every request; on a primary that is
one attribute, :attr:`Node.following` (the replica while the node
serves one, else None).
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, TextIO, Tuple

from ..rdb.engine import Database
from .replica import PrimaryLossDetector, Replica
from .shipper import LogShipper

__all__ = ["Node"]


class Node:
    """The replication role of one serving process (see the module
    docstring).

    ``replica`` is the started replica this node follows (None: a
    primary); ``max_replica_lag`` bounds the staleness its reads may
    have.  ``shipping`` holds the :class:`LogShipper` keyword arguments
    (``host``, ``port``, ``heartbeat_interval``, ``min_sync_replicas``,
    ``ack_timeout``) when the node ships its log — a primary from the
    start, a replica once promoted.  ``loss_timeout`` arms the
    primary-loss detector on a replica.  ``out`` receives one line per
    role change.
    """

    def __init__(
        self,
        db: Database,
        *,
        replica: Optional[Replica] = None,
        max_replica_lag: Optional[float] = None,
        shipping: Optional[Dict[str, Any]] = None,
        loss_timeout: Optional[float] = None,
        out: Optional[TextIO] = None,
    ) -> None:
        self.db = db
        self.replica = replica
        self.max_replica_lag = max_replica_lag
        #: the replica while this node serves one, else None
        self.following: Optional[Replica] = replica
        self.shipper: Optional[LogShipper] = None
        self._shipping = shipping
        self._out = out
        self._lock = threading.Lock()
        self._detector: Optional[PrimaryLossDetector] = None
        if replica is None:
            if shipping is not None:
                self.shipper = self._ship()
        elif loss_timeout is not None:
            self._detector = PrimaryLossDetector(
                replica, loss_timeout, self.promote
            ).start()

    # -- what the serving tier reads ------------------------------------

    @property
    def role(self) -> str:
        """``"replica"``, ``"primary"`` or ``"fenced"``."""
        if self.following is not None:
            return "replica"
        return "fenced" if self.db.read_only else "primary"

    @property
    def epoch(self) -> int:
        """The failover epoch of the served store."""
        if self.replica is not None:
            return self.replica.epoch
        return self.db.epoch

    @property
    def ready(self) -> bool:
        """Whether the node can do its job: a replica once bootstrap
        replay caught up with its primary, a primary until fenced."""
        replica = self.following
        if replica is not None:
            return replica.ready
        return not self.db.read_only

    def lag(self) -> float:
        """Staleness of what this node serves, in seconds (``inf``
        before a replica first syncs; 0 on a primary)."""
        replica = self.following
        return 0.0 if replica is None else replica.lag()

    def status(self) -> Optional[Dict[str, Any]]:
        """The replica's replication state for /health, or None."""
        return None if self.replica is None else self.replica.status()

    def metrics(self) -> List[Tuple[str, str, float]]:
        """``(name, help, value)`` samples for /metrics: role and epoch
        on every node, then the replica's and the shipper's statistics
        where there are any."""
        samples = [
            ("replica_role_primary", "1 when this endpoint serves the primary.",
             1.0 if self.role == "primary" else 0.0),
            ("replica_epoch", "Failover epoch of the served store.",
             float(self.epoch)),
        ]
        if self.replica is not None:
            samples += [
                (f"replica_{key}", f"Replica statistic {key!r} (see /health).",
                 value)
                for key, value in self.replica.metrics().items()
                if key not in ("role_primary", "epoch")
            ]
        shipper = self.shipper
        if shipper is not None:
            samples += [
                (f"shipper_{key}", f"Log-shipper statistic {key!r}.", value)
                for key, value in shipper.metrics().items()
            ]
        return samples

    def describe(self) -> List[str]:
        """What the node serves, in the lines ``repro serve`` prints
        after its endpoint line."""
        replica = self.replica
        if replica is None:
            return [] if self.shipper is None else [self._shipper_line()]
        host, port = replica.primary_address
        lines = [f"read replica of {host}:{port} "
                 f"(max lag {self.max_replica_lag:g}s)"]
        if self._detector is not None:
            lines.append(f"auto-promote after {self._detector.loss_timeout:g}s "
                         "of primary silence")
        return lines

    # -- what changes the role ------------------------------------------

    @property
    def promotable(self) -> bool:
        return self.replica is not None

    def promote(self) -> Dict[str, Any]:
        """Take over as primary: promote the replica, then start the log
        shipper when the node ships — both under one lock, so racing
        callers get one shipper; every call answers the replica's one
        promotion record, and a failed step is retried by the next."""
        with self._lock:
            record = self.replica.promote()
            if self.following is not None:
                self.following = None
                self._say(f"promoted to primary at epoch {record['epoch']}")
            if self._shipping is not None and self.shipper is None:
                self.shipper = self._ship()
                self._say(self._shipper_line())
            return record

    def _ship(self) -> LogShipper:
        return LogShipper(
            self.db, **self._shipping, on_deposed=self._fence
        ).start()

    def _fence(self, epoch: int) -> None:
        """The shipper's ``on_deposed``: a peer proved epoch ``epoch``
        exists, so refuse writes from here on — no client can
        split-brain this lineage."""
        self.db.read_only = True
        self._say(
            f"fenced by replication epoch {epoch}: "
            "this primary is now read-only"
        )

    def close(self) -> None:
        """Stop the detector, the shipper and the replica, and close the
        database."""
        if self._detector is not None:
            self._detector.stop()
        if self.shipper is not None:
            self.shipper.stop()
        if self.replica is not None:
            self.replica.close()
        else:
            self.db.close()

    # -- output ---------------------------------------------------------

    def _shipper_line(self) -> str:
        host, port = self.shipper.address
        return f"replication log shipper at {host}:{port}"

    def _say(self, line: str) -> None:
        if self._out is not None:
            print(line, file=self._out)
            self._out.flush()
