"""Request tracing and operator-level plan instrumentation (ISSUE 10).

What a thread runs under is one :class:`RequestScope` — the request
id, the trace record, the analyze probe and the deadline
(:mod:`repro.deadline` reads it too) — held by one thread-local,
:data:`current`, whose class default is an empty scope.  The endpoint
enters one scope per request; the helpers below are each one scope:

* **Request id** — :func:`request_scope` carries the ``X-Request-Id``
  (caller-supplied or :func:`new_request_id`) through
  Session → executor → error responses, so one id joins the client's
  retries, the server's access-log line, and the slow-query entry.
* **Trace record** — :func:`trace_scope` opens a mutable dict that any
  layer may :func:`annotate` (rows, used_sql, backend); the endpoint
  turns it into the structured JSON access-log line.  ``annotate`` is a
  no-op (one thread-local read) when no trace is active.
* **Analyze probe** — :func:`analyze_scope` arms per-operator
  timing/row/loop collection inside the planner's compiled plans (the
  EXPLAIN ANALYZE machinery).  Disarmed, plans pay a single
  :func:`current_probe` check per *statement*, never per row.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterator, List, Optional

if TYPE_CHECKING:
    from ..deadline import Deadline

__all__ = [
    "AnalyzeProbe",
    "OperatorStats",
    "RequestScope",
    "analyze_scope",
    "annotate",
    "current",
    "current_probe",
    "current_request_id",
    "current_trace",
    "new_request_id",
    "request_scope",
    "trace_scope",
]


class RequestScope:
    """The request id, trace record, analyze probe, deadline and
    admission slot one unit of work runs under: :data:`current`'s scope
    from entry to exit.

    A value left None is the outer scope's; an outer request id wins
    over this one, and of two deadlines the one that expires first.
    :meth:`hold` sets the deadline later, with the admission slot it
    was granted, whose release runs on exit."""

    __slots__ = ("request_id", "trace", "probe", "deadline", "release", "outer")

    def __init__(
        self, request_id: Optional[str] = None, trace: Optional[Dict[str, Any]] = None,
        probe: Optional["AnalyzeProbe"] = None, deadline: Optional["Deadline"] = None,
    ) -> None:
        self.request_id, self.trace, self.probe = request_id, trace, probe
        self.deadline = deadline
        self.release: Optional[Callable[[], None]] = None

    def __enter__(self) -> "RequestScope":
        outer = self.outer = current.scope
        self.request_id = outer.request_id or self.request_id
        if self.trace is None:
            self.trace = outer.trace
        if self.probe is None:
            self.probe = outer.probe
        self.hold(self.deadline)
        current.scope = self
        return self

    def hold(
        self, deadline: Optional["Deadline"], release: Optional[Callable[[], None]] = None
    ) -> None:
        """Run the rest of the scope under ``deadline`` (the outer one
        when that expires first); call ``release`` on exit."""
        outer = self.outer.deadline
        if deadline is None or (
            outer is not None and outer.expires_at < deadline.expires_at
        ):
            deadline = outer
        self.deadline = deadline
        self.release = release

    def __exit__(self, *exc_info: Any) -> None:
        current.scope = self.outer
        if self.release is not None:
            self.release()


class _Current(threading.local):
    #: A class default, never entered: a thread that never opened a
    #: scope reads its Nones without a failed attribute lookup.
    scope = RequestScope()


#: The scope the current thread runs under.
current = _Current()


# ---------------------------------------------------------------------------
# request ids
# ---------------------------------------------------------------------------

def new_request_id() -> str:
    """A fresh 16-hex-char request id."""
    return os.urandom(8).hex()


def current_request_id() -> Optional[str]:
    """The request id governing the current thread, or None."""
    return current.scope.request_id


def sanitize_request_id(raw: Optional[str]) -> Optional[str]:
    """A header-safe version of a caller-supplied id, or None.

    Ids are echoed into response headers and log lines, so control
    characters are stripped and length is capped; an id that is clean
    already is returned as it is.
    """
    if not raw:
        return None
    if not (raw.isascii() and raw.isprintable()):
        raw = "".join(ch for ch in raw if 32 <= ord(ch) < 127)
    return raw[:128].strip() or None


@contextmanager
def request_scope(request_id: Optional[str] = None) -> Iterator[str]:
    """Install a request id for the ``with`` block (generated if None).

    Nested scopes keep the outer id: a client helper that opens a scope
    around a logical operation keeps one id across retries and failover.
    """
    with RequestScope(current.scope.request_id or request_id or new_request_id()) as scope:
        yield scope.request_id


# ---------------------------------------------------------------------------
# per-request trace records
# ---------------------------------------------------------------------------

def current_trace() -> Optional[Dict[str, Any]]:
    return current.scope.trace


def annotate(**fields: Any) -> None:
    """Merge fields into the active trace record (no-op without one)."""
    trace = current.scope.trace
    if trace is not None:
        trace.update(fields)


@contextmanager
def trace_scope(**initial: Any) -> Iterator[Dict[str, Any]]:
    """Open a mutable trace record for the ``with`` block."""
    with RequestScope(trace=dict(initial)) as scope:
        yield scope.trace


# ---------------------------------------------------------------------------
# EXPLAIN ANALYZE probe
# ---------------------------------------------------------------------------

class OperatorStats:
    """Timing and cardinality for one plan operator.

    ``elapsed_s`` is *inclusive* pipeline time: how long callers spent
    pulling rows out of this operator, including everything beneath it —
    the same convention EXPLAIN ANALYZE uses elsewhere.  ``loops``
    counts how many times the operator was (re)opened.
    """

    __slots__ = ("describe", "elapsed_s", "rows", "loops")

    def __init__(self, describe: str) -> None:
        self.describe = describe
        self.elapsed_s = 0.0
        self.rows = 0
        self.loops = 0

    def report(self) -> Dict[str, Any]:
        return {
            "operator": self.describe,
            "elapsed_us": round(self.elapsed_s * 1e6, 3),
            "rows": self.rows,
            "loops": self.loops,
        }


class AnalyzeProbe:
    """Collects per-operator stats for the statements run under it."""

    def __init__(self) -> None:
        self._stats: Dict[Any, OperatorStats] = {}
        self._order: List[OperatorStats] = []
        self._plans_seen: Dict[int, bool] = {}
        self.plan: List[str] = []
        self.elapsed_s = 0.0
        self.rows = 0

    def operator(self, key: Any, describe: str) -> OperatorStats:
        """The stats cell for one operator, keyed by identity, so a
        re-executed plan accumulates loops instead of duplicating."""
        stats = self._stats.get(key)
        if stats is None:
            stats = OperatorStats(describe)
            self._stats[key] = stats
            self._order.append(stats)
        return stats

    def note_plan(self, plan: Any, lines: List[str]) -> None:
        """Record a plan's EXPLAIN tree once, even when re-executed."""
        if id(plan) not in self._plans_seen:
            self._plans_seen[id(plan)] = True
            self.plan.extend(lines)

    def timed(self, iterator: Iterator, stats: OperatorStats) -> Iterator:
        """Wrap an operator's output iterator with timing/row counting."""
        stats.loops += 1
        clock = time.perf_counter
        while True:
            start = clock()
            try:
                item = next(iterator)
            except StopIteration:
                stats.elapsed_s += clock() - start
                return
            stats.elapsed_s += clock() - start
            stats.rows += 1
            yield item

    def operators(self) -> List[Dict[str, Any]]:
        return [stats.report() for stats in self._order]

    def report(self) -> Dict[str, Any]:
        return {
            "plan": list(self.plan),
            "operators": self.operators(),
            "rows": self.rows,
            "elapsed_us": round(self.elapsed_s * 1e6, 3),
        }


def current_probe() -> Optional[AnalyzeProbe]:
    """The analyze probe armed for this thread, or None (the fast path)."""
    return current.scope.probe


@contextmanager
def analyze_scope() -> Iterator[AnalyzeProbe]:
    """Arm operator-level instrumentation for the ``with`` block."""
    with RequestScope(probe=AnalyzeProbe()) as scope:
        yield scope.probe
