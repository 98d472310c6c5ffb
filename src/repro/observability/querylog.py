"""Ring-buffered slow-query log (ISSUE 10).

Every request produces one structured record (assembled by the endpoint
from its trace scope); records whose total latency crosses the
configured threshold are teed into a bounded ring buffer served at
``GET /admin/slow-queries``.  The buffer is a ``deque(maxlen=...)``
under a lock — O(1) appends, the capacity evicts oldest-first, and a
snapshot returns newest-first so the most recent offender is the first
thing an operator sees.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Deque, Dict, List, Optional

from .metrics import SLOW_QUERIES

__all__ = ["QueryLog"]


class QueryLog:
    """Bounded, threshold-gated record of the slowest requests."""

    def __init__(
        self, capacity: int = 128, threshold: Optional[float] = None
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity!r}")
        self.capacity = capacity
        #: Seconds of total request latency above which a record is
        #: kept; None disables the log entirely.
        self.threshold = threshold
        self._lock = threading.Lock()
        self._entries: Deque[Dict[str, Any]] = deque(maxlen=capacity)
        self.recorded = 0

    def record(self, entry: Dict[str, Any]) -> bool:
        """Keep ``entry`` if it crosses the threshold; True when kept.

        The comparison key is ``entry["total_s"]`` (missing = 0, never
        kept unless the threshold is 0).
        """
        threshold = self.threshold
        if threshold is None:
            return False
        if float(entry.get("total_s") or 0.0) < threshold:
            return False
        with self._lock:
            self._entries.append(entry)
            self.recorded += 1
        SLOW_QUERIES.inc()
        return True

    def snapshot(self) -> List[Dict[str, Any]]:
        """Current entries, newest first."""
        with self._lock:
            return list(reversed(self._entries))

    def status(self) -> Dict[str, Any]:
        with self._lock:
            count = len(self._entries)
        return {
            "threshold_s": self.threshold,
            "capacity": self.capacity,
            "recorded_total": self.recorded,
            "count": count,
        }
