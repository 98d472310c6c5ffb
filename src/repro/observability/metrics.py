"""Process-wide metrics registry with Prometheus text exposition (ISSUE 10).

Three primitives, all engineered so the *hot path* (incrementing) never
takes a lock:

* :class:`Counter` — monotonically increasing, per-thread sharded the
  same way the endpoint's request counters are: each thread owns a cell
  it alone mutates (``cell[0] += n`` under the GIL), a lock is taken only
  once per (metric, thread) to register the cell, and cells of dead
  threads are folded into a base value at read time.
* :class:`Gauge` — a point-in-time value.  Either set explicitly
  (last-write-wins, no lock) or backed by a callback evaluated at scrape
  time — the export path for state that already lives elsewhere
  (admission-gate depth, WAL status, replica lag) without double
  bookkeeping on the hot path.
* :class:`Histogram` — pre-bucketed: bucket bounds are fixed at
  construction, ``observe`` is a bisect plus one sharded-cell increment.

Labelled children are created once (under a lock) and cached; steady
state is a dict hit.  Rendering walks the registry and produces the
Prometheus text format (``# HELP`` / ``# TYPE`` / samples), which
:func:`lint_exposition` can check — the same linter CI runs against a
live ``/metrics`` scrape.

The scrape itself fires the ``obs:export`` fault-injection site so the
chaos suite can prove a failing or slow exporter never stalls or poisons
the serving path (the endpoint maps the failure to a plain 503).
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left
from typing import Dict, Iterable, List, Sequence, Tuple

from ..faults import INJECTOR

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "LATENCY_BUCKETS",
    "lint_exposition",
    "render_exposition",
]

#: Default latency buckets (seconds): 100us .. 10s, roughly 1-2.5-5 per
#: decade — wide enough for point queries and slow scans alike.
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def _escape_label(value: str) -> str:
    return (
        str(value)
        .replace("\\", r"\\")
        .replace("\n", r"\n")
        .replace('"', r'\"')
    )


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def _labels_text(names: Sequence[str], values: Sequence[str]) -> str:
    if not names:
        return ""
    pairs = ",".join(
        f'{name}="{_escape_label(value)}"'
        for name, value in zip(names, values)
    )
    return "{" + pairs + "}"


class _ShardedCells:
    """Per-thread mutable cells with dead-thread folding.

    Each thread gets one list of floats it alone mutates; ``total``
    folds cells whose owning thread has exited into a base vector so
    short-lived handler threads never leak cells.
    """

    __slots__ = ("_lock", "_local", "_cells", "_base", "_width")

    def __init__(self, width: int) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        #: thread -> cell; registration is the only locked operation.
        self._cells: Dict[threading.Thread, List[float]] = {}
        self._base = [0.0] * width
        self._width = width

    def cell(self) -> List[float]:
        cell = getattr(self._local, "cell", None)
        if cell is None:
            cell = [0.0] * self._width
            self._local.cell = cell
            with self._lock:
                self._cells[threading.current_thread()] = cell
        return cell

    def total(self) -> List[float]:
        with self._lock:
            dead = [t for t in self._cells if not t.is_alive()]
            for thread in dead:
                cell = self._cells.pop(thread)
                for i, v in enumerate(cell):
                    self._base[i] += v
            out = list(self._base)
            for cell in self._cells.values():
                for i, v in enumerate(cell):
                    out[i] += v
            return out


class _Metric:
    """Shared child-management for labelled metrics."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labelnames: Sequence[str] = ()) -> None:
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], "_Metric"] = {}

    def labels(self, *values) -> "_Metric":
        key = tuple(str(v) for v in values)
        if len(key) != len(self.labelnames):
            raise ValueError(
                f"{self.name}: expected {len(self.labelnames)} label "
                f"value(s), got {len(key)}"
            )
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    child = self._make_child()
                    self._children[key] = child
        return child

    def _make_child(self) -> "_Metric":
        raise NotImplementedError

    def _sample_groups(self) -> Iterable[Tuple[Tuple[str, ...], "_Metric"]]:
        if self.labelnames:
            with self._lock:
                return list(self._children.items())
        return [((), self)]

    def samples(self) -> List[Tuple[str, Sequence[str], Sequence[str], float]]:
        """(sample name, label names, label values, value) tuples."""
        raise NotImplementedError


class Counter(_Metric):
    """Monotonic counter; per-thread sharded, lock-free to increment."""

    kind = "counter"

    def __init__(self, name: str, help: str, labelnames: Sequence[str] = ()) -> None:
        super().__init__(name, help, labelnames)
        self._cells = _ShardedCells(1) if not labelnames else None

    def _make_child(self) -> "Counter":
        return Counter(self.name, self.help)

    def inc(self, amount: float = 1.0) -> None:
        if self.labelnames:
            raise ValueError(f"{self.name}: labelled counter needs .labels()")
        self._cells.cell()[0] += amount

    def value(self) -> float:
        return self._cells.total()[0]

    def samples(self):
        out = []
        for key, child in self._sample_groups():
            out.append((self.name, self.labelnames, key, child.value()))
        return out


class Gauge(_Metric):
    """Point-in-time value, set explicitly."""

    kind = "gauge"

    def __init__(self, name: str, help: str, labelnames: Sequence[str] = ()) -> None:
        super().__init__(name, help, labelnames)
        self._value = 0.0

    def _make_child(self) -> "Gauge":
        return Gauge(self.name, self.help)

    def set(self, value: float) -> None:
        self._value = float(value)

    def value(self) -> float:
        return self._value

    def samples(self):
        out = []
        for key, child in self._sample_groups():
            out.append((self.name, self.labelnames, key, child.value()))
        return out


class Histogram(_Metric):
    """Pre-bucketed histogram; observe = bisect + sharded increment."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = LATENCY_BUCKETS,
    ) -> None:
        super().__init__(name, help, labelnames)
        self.buckets = tuple(sorted(buckets))
        # cells: one count per finite bucket, +Inf count, then the sum.
        self._cells = (
            _ShardedCells(len(self.buckets) + 2) if not labelnames else None
        )

    def _make_child(self) -> "Histogram":
        return Histogram(self.name, self.help, buckets=self.buckets)

    def observe(self, value: float) -> None:
        if self.labelnames:
            raise ValueError(f"{self.name}: labelled histogram needs .labels()")
        cell = self._cells.cell()
        cell[bisect_left(self.buckets, value)] += 1.0
        cell[-1] += value

    def samples(self):
        out = []
        for key, child in self._sample_groups():
            totals = child._cells.total()
            cumulative = 0.0
            names = self.labelnames + ("le",)
            for bound, count in zip(child.buckets, totals):
                cumulative += count
                out.append(
                    (self.name + "_bucket", names,
                     key + (_format_value(bound),), cumulative)
                )
            cumulative += totals[len(child.buckets)]
            out.append((self.name + "_bucket", names, key + ("+Inf",), cumulative))
            out.append((self.name + "_count", self.labelnames, key, cumulative))
            out.append((self.name + "_sum", self.labelnames, key, totals[-1]))
        return out


class MetricsRegistry:
    """An ordered collection of metrics with a text exposition renderer.

    The module-level :data:`REGISTRY` holds the process-wide hot-path
    metrics (request counts, latency histograms, executor row counters);
    components with per-instance state (the endpoint, a replica) build a
    private registry of callback gauges and render both together via
    :func:`render_exposition`.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, _Metric] = {}

    def register(self, metric: _Metric) -> _Metric:
        with self._lock:
            existing = self._metrics.get(metric.name)
            if existing is not None:
                if type(existing) is not type(metric):
                    raise ValueError(
                        f"metric {metric.name!r} already registered "
                        f"as {existing.kind}"
                    )
                return existing
            self._metrics[metric.name] = metric
        return metric

    def counter(self, name: str, help: str, labelnames: Sequence[str] = ()) -> Counter:
        return self.register(Counter(name, help, labelnames))  # type: ignore[return-value]

    def gauge(self, name: str, help: str, labelnames: Sequence[str] = ()) -> Gauge:
        return self.register(Gauge(name, help, labelnames))  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = LATENCY_BUCKETS,
    ) -> Histogram:
        return self.register(Histogram(name, help, labelnames, buckets))  # type: ignore[return-value]

    def metrics(self) -> List[_Metric]:
        with self._lock:
            return list(self._metrics.values())

    def render(self) -> str:
        return render_exposition([self])


def render_exposition(registries: Sequence[MetricsRegistry]) -> str:
    """Prometheus text format over one or more registries.

    Fires the ``obs:export`` fault site first: an armed error rule makes
    the whole scrape fail *here*, before any state is touched, so the
    endpoint can prove export failures are isolated from serving.
    """
    if INJECTOR.armed:
        INJECTOR.fire("obs:export")
    lines: List[str] = []
    for registry in registries:
        for metric in registry.metrics():
            lines.append(f"# HELP {metric.name} {metric.help}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            for name, labelnames, labelvalues, value in metric.samples():
                lines.append(
                    f"{name}{_labels_text(labelnames, labelvalues)} "
                    f"{_format_value(value)}"
                )
    return "\n".join(lines) + "\n"


_NAME_OK = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^}]*\})?"
    r" (?P<value>[^ ]+)( [0-9]+)?$"
)


def lint_exposition(text: str) -> List[str]:
    """Minimal Prometheus text-format checker; returns problems found.

    Checks what a scraper would choke on: sample lines must parse, every
    sample must follow a ``# TYPE`` for its family, values must be
    numbers, and ``_bucket`` samples need an ``le`` label.  Used by the
    unit tests and by the CI step that scrapes a live server.
    """
    problems: List[str] = []
    typed: Dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line:
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ", 3)
            if len(parts) < 4 or not _NAME_OK.match(parts[2]):
                problems.append(f"line {lineno}: malformed TYPE line")
            else:
                typed[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE.match(line)
        if match is None:
            problems.append(f"line {lineno}: unparsable sample: {line!r}")
            continue
        name = match.group("name")
        family = name
        for suffix in ("_bucket", "_count", "_sum"):
            if name.endswith(suffix) and name[: -len(suffix)] in typed:
                family = name[: -len(suffix)]
        if family not in typed:
            problems.append(f"line {lineno}: sample {name!r} has no TYPE")
        value = match.group("value")
        if value not in ("+Inf", "-Inf", "NaN"):
            try:
                float(value)
            except ValueError:
                problems.append(f"line {lineno}: bad value {value!r}")
        if name.endswith("_bucket") and typed.get(family) == "histogram":
            labels = match.group("labels") or ""
            if 'le="' not in labels:
                problems.append(f"line {lineno}: bucket without le label")
    return problems


#: The process-wide registry for hot-path metrics.
REGISTRY = MetricsRegistry()

# -- the shared metric families, defined once at import -----------------

#: HTTP requests completed, by operation and status code.
REQUESTS = REGISTRY.counter(
    "repro_requests_total",
    "HTTP requests completed, by operation and final status code.",
    ("op", "status"),
)

#: End-to-end request latency (admission wait through serialization).
REQUEST_SECONDS = REGISTRY.histogram(
    "repro_request_seconds",
    "End-to-end request latency in seconds, by operation.",
    ("op",),
)

#: Time a request spent waiting for an admission slot.
QUEUE_WAIT_SECONDS = REGISTRY.histogram(
    "repro_queue_wait_seconds",
    "Admission-queue wait in seconds for admitted requests.",
)

#: Rows flowing out of the executor, by statement kind.
EXECUTOR_ROWS = REGISTRY.counter(
    "repro_executor_rows_total",
    "Rows produced or affected by executor statements, by kind.",
    ("op",),
)

#: Rows plan base accesses read, by table (one add per statement).
ROWS_SCANNED = REGISTRY.counter(
    "repro_executor_rows_scanned_total",
    "Candidate rows examined by plan base accesses, by table.",
    ("table",),
)

#: Full table scans plan base accesses started, by table.
FULL_SCANS = REGISTRY.counter(
    "repro_executor_full_scans_total",
    "Full table scans started by plan base accesses, by table.",
    ("table",),
)

#: Session-level operations, by kind (query/update/batch).
SESSION_OPS = REGISTRY.counter(
    "repro_session_operations_total",
    "Operations executed through the Session API, by kind.",
    ("kind",),
)

#: Request texts that ran as a kept shape (hit), as a shape parsed for
#: them (miss), or were parsed as written because they could not be read
#: as a shape plus values (fallback).
REQUEST_SHAPES = REGISTRY.counter(
    "repro_request_shapes_total",
    "Request texts that ran as a kept parsed shape (hit), as a shape parsed "
    "for them (miss), or were parsed as written (fallback).",
    ("outcome",),
)

#: Data blocks that ran as a kept template (bound), built one where none
#: was kept for the mapping and schema (built), or built one because a
#: request's terms did not fit the kept one (rebuilt).
DATA_TEMPLATES = REGISTRY.counter(
    "repro_data_templates_total",
    "INSERT DATA / DELETE DATA blocks bound to a kept translated template "
    "(bound), or whose template was built (built) or built again for "
    "terms the kept one does not fit (rebuilt).",
    ("outcome",),
)

#: SPARQL JSON answers of /query, by what wrote them: a kept
#: translation's generated writer, straight from its rows (generated),
#: or the solutions' terms (terms).
JSON_ANSWERS = REGISTRY.counter(
    "repro_json_answers_total",
    "SPARQL JSON query answers written from a kept translation's rows by "
    "its generated writer (generated) or from the solutions' terms "
    "(terms).",
    ("writer",),
)

#: Requests that crossed the slow-query threshold.
SLOW_QUERIES = REGISTRY.counter(
    "repro_slow_queries_total",
    "Requests recorded in the slow-query log.",
)
