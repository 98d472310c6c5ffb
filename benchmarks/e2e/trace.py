"""Spans, counters and the per-layer table of a traced run.

The benchmark times the calls into each layer's public functions from its
own files (nothing under ``src/`` knows about this module):

* :class:`Recorder` keeps spans in memory — name, start, end, parent, op
  id — and computes self time (a span's duration minus what its children
  cover).  Spans of one request share the op id.
* :func:`instrument_database` shadows the public ``begin`` / ``execute`` /
  ``commit`` / ``rollback`` methods of one ``Database`` instance with
  span-recording wrappers, so calls the ``core`` layer makes into ``rdb``
  become child spans of whatever the harness has open.
* :func:`read_access_log` and :func:`scrape_metrics` read what a served
  process reports about itself (``--access-log`` lines joined to client
  spans by ``X-Request-Id``; ``/metrics`` samples before and after).
"""

from __future__ import annotations

import json
import threading
import time
import urllib.request
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "Recorder",
    "family_sum",
    "format_table",
    "instrument_database",
    "parse_exposition",
    "read_access_log",
    "scrape_metrics",
]


class Recorder:
    """In-memory span store; one open-span stack per thread."""

    def __init__(self) -> None:
        #: [name, start, end, parent index or -1, op id]
        self.spans: List[List[Any]] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, op_id: Any = None) -> int:
        """Open a span under the innermost open span of this thread; a
        root span's op id defaults to its own index, a child inherits."""
        stack = self._stack()
        parent = stack[-1] if stack else -1
        if op_id is None and parent >= 0:
            op_id = self.spans[parent][4]
        with self._lock:
            index = len(self.spans)
            self.spans.append(
                [name, 0.0, 0.0, parent, index if op_id is None else op_id]
            )
        stack.append(index)
        self.spans[index][1] = time.perf_counter()
        return index

    def end(self, index: int) -> float:
        """Close the span; returns its duration."""
        now = time.perf_counter()
        span = self.spans[index]
        span[2] = now
        self._stack().pop()
        return now - span[1]

    def call(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Call ``fn`` inside a span."""
        index = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(index)

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` recorded as one span per call."""
        return lambda *args, **kwargs: self.call(name, fn, *args, **kwargs)

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> List[float]:
        """Per span: duration minus the time its direct children cover."""
        own = [span[2] - span[1] for span in self.spans]
        for span in self.spans:
            if span[3] >= 0:
                own[span[3]] -= span[2] - span[1]
        return own

    def by_name(self) -> Dict[str, Dict[str, float]]:
        """name -> calls, total seconds, self seconds."""
        table: Dict[str, Dict[str, float]] = {}
        for span, own in zip(self.spans, self.self_times()):
            row = table.setdefault(
                span[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            row["calls"] += 1
            row["total_s"] += span[2] - span[1]
            row["self_s"] += own
        return table

    def write(self, path: str, extra: Optional[Dict[str, Any]] = None) -> None:
        doc = {
            "columns": ["name", "start_s", "end_s", "parent", "op"],
            "spans": self.spans,
            "by_name": self.by_name(),
        }
        doc.update(extra or {})
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)


def instrument_database(db: Any, recorder: Recorder) -> None:
    """Record a span for every call into ``db``'s transaction and
    statement entry points (instance attributes shadow the methods, so
    the class and every other database stay untouched)."""
    db.begin = recorder.wrap("rdb.begin", db.begin)
    db.execute = recorder.wrap("rdb.execute", db.execute)
    db.commit = recorder.wrap("rdb.commit", db.commit)
    db.rollback = recorder.wrap("rdb.rollback", db.rollback)


# ---------------------------------------------------------------------------
# what a served process reports about itself
# ---------------------------------------------------------------------------

def read_access_log(path: str) -> Dict[str, Dict[str, Any]]:
    """request id -> the server's access-log entry for it."""
    entries: Dict[str, Dict[str, Any]] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except ValueError:
                continue  # a line cut short by SIGKILL
            if entry.get("request_id"):
                entries[entry["request_id"]] = entry
    return entries


def parse_exposition(text: str) -> Dict[str, float]:
    """Prometheus text -> sample name (with labels) -> value; histogram
    buckets are skipped, ``_sum`` / ``_count`` kept."""
    samples: Dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#") or "_bucket{" in line:
            continue
        name, _, value = line.rpartition(" ")
        try:
            samples[name] = float(value)
        except ValueError:
            continue
    return samples


def scrape_metrics(base_url: str, timeout: float = 10.0) -> Dict[str, float]:
    """GET /metrics of a served process as a flat sample map."""
    with urllib.request.urlopen(base_url + "/metrics", timeout=timeout) as reply:
        return parse_exposition(reply.read().decode("utf-8"))


def family_sum(samples: Dict[str, float], family: str) -> float:
    """Sum of every sample of one metric family (all label sets)."""
    return sum(
        value for name, value in samples.items()
        if name == family or name.startswith(family + "{")
    )


def format_table(rows: Iterable[Tuple[str, ...]]) -> str:
    """Left-aligned columns, two spaces apart."""
    rows = list(rows)
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return "\n".join(
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        for row in rows
    )
