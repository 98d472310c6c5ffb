"""WAL-shipping replication: primary-side shipper, replica-side applier.

The first read fan-out story for the mediator (ROADMAP: serve the
archive-query workload to millions of users): the primary's CRC-framed
write-ahead log is already a complete logical change stream, so a
:class:`LogShipper` streams it over TCP to any number of
:class:`Replica` processes, each replaying into its own MVCC store and
serving snapshot reads with a bounded, measured staleness.  See
:mod:`repro.replication.wire` for the protocol.  A :class:`Node` owns
which of the roles a serving process plays (:mod:`repro.replication.node`).
"""

from .node import Node
from .replica import PrimaryLossDetector, Replica
from .shipper import LogShipper

__all__ = ["LogShipper", "Node", "PrimaryLossDetector", "Replica"]
