"""Targets (how one request reaches the system) and load loops.

A *target* sends one generated :class:`~workloads.Op` through one public
surface and hands back what the model needs to check it:

* :class:`OneshotTarget` — ``OntoAccess.update`` / ``OntoAccess.query``
  with the request text (parse + translate on every call);
* :class:`TracedOneshotTarget` — the same work done step by step with a
  span per step, the way the facade does it: ``parse_update`` /
  ``parse_query`` → ``db.begin()`` → ``translate_operation`` (MODIFY:
  ``bindings_for_pattern`` + ``plan_binding``; SELECT: ``execute_query``)
  → ``db.execute`` per statement → ``db.commit()``;
* :class:`PreparedTarget` — ``Session.prepare`` once per template, then
  ``execute(bindings)``;
* :class:`HttpTarget` — ``repro.server.client.OntoAccessClient`` over one
  keep-alive connection.

A *loop* feeds a target from a :class:`~workloads.Stream`: closed
(:func:`run_round` on the calling thread, :func:`run_closed` on one thread
per target: next request after the previous answer) or open
(:func:`run_open`: requests fall due on a fixed schedule and are timed
from their due time).  Every loop files its latencies by *round* — a fixed
number of requests, or a fixed stretch of the clock — so the metrics can be
computed per round.  Verification happens after the clock has stopped.
"""

from __future__ import annotations

import bisect
import json
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import OntoAccess
from repro.core.modify import bindings_for_pattern, plan_binding
from repro.core.query import execute_query
from repro.observability.tracing import request_scope
from repro.server.client import OntoAccessClient, RetryPolicy
from repro.sparql.query_parser import parse_query
from repro.sparql.update_ast import Modify
from repro.sparql.update_parser import parse_update
from repro.workloads.operations import PREFIXES

from trace import Recorder
from workloads import CLASSES, TEMPLATES, Op, Stream, check_rows, check_update

__all__ = [
    "HttpTarget",
    "OneshotTarget",
    "PreparedTarget",
    "Samples",
    "TracedOneshotTarget",
    "run_closed",
    "run_open",
    "run_round",
    "run_untimed",
    "REFERENCE_WORK_S",
    "reference_work",
    "speed_factor",
]

#: requests the single in-process worker generates (and always completes)
#: at a time; its clock stops while it generates
CHUNK = 128
#: a request answered later than this after its due time misses the SLO
SLO_S = 0.050
#: a request sent later than this after its due time counts as late
LATE_S = 0.001


#: what :func:`reference_work` takes between the requests of
#: ``inproc_oneshot_mixed`` when the box that sized this benchmark runs at
#: full speed; metrics of CPU-bound workloads are stated at it
REFERENCE_WORK_S = 0.00135

#: a table of row dictionaries, copied and scanned by the reference work
_TABLE = {
    i: {"id": i, "first": f"F{i}", "last": f"L{i}", "email": f"e{i}", "team": i % 20}
    for i in range(3000)
}


def reference_work() -> float:
    """CPU seconds this thread needs for a fixed piece of pure-Python work
    that uses no code of the system under test: copy a table of rows,
    replace one and filter them, eight times; then format 2 000 strings and
    count them in a dictionary.  The box changes speed by up to 70 % for
    minutes at a time (other tenants of the host); the loops take a sample
    between requests so that CPU-bound metrics can be stated at one speed
    (:data:`REFERENCE_WORK_S`).  The work is done three times and timed the
    third, so the time says how fast the box is and not what the requests
    before it left in the caches.  README.md, "Box speed", has the choice
    of the work and how closely it follows the requests."""
    for _ in range(3):
        started = time.thread_time()
        for _ in range(8):
            table = dict(_TABLE)
            table[5] = dict(table[5])
            sum(1 for row in table.values() if row["team"] == 3)
        counts: Dict[str, List[Any]] = {}
        for i in range(2000):
            key = "k%d" % (i % 100)
            entry = counts.get(key)
            if entry is None:
                counts[key] = entry = [0, key]
            entry[0] += len(key)
        sorted(counts.values())
    return time.thread_time() - started


def speed_factor(work: List[float]) -> float:
    """How many times slower than the reference the box ran while these
    :func:`reference_work` samples were taken."""
    return statistics.median(work) / REFERENCE_WORK_S


@dataclass
class Samples:
    """What one timed section observed."""

    #: per round: operation class -> latencies in seconds (successful only)
    rounds: List[Dict[str, List[float]]] = field(default_factory=list)
    #: per round: operation class -> when each of them was answered
    answered: List[Dict[str, List[float]]] = field(default_factory=list)
    #: per round: seconds it took (closed in-process: executing only)
    round_wall: List[float] = field(default_factory=list)
    #: (instant, :func:`reference_work` seconds) taken while the loop ran
    work: List[Tuple[float, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: first few failures, for the report
    errors: List[str] = field(default_factory=list)
    #: seconds the in-process worker spent generating requests
    generating_s: float = 0.0
    #: load-generator cost: share of its time the in-process worker spent
    #: generating, or CPU-seconds per wall-second of a threaded loop
    generator_cpu_share: float = 0.0
    late: int = 0
    slo_missed: int = 0
    #: (start, end) of every acknowledged update, for checkpoint stalls
    update_spans: List[Tuple[float, float]] = field(default_factory=list)
    update_bytes: int = 0
    rows_returned: int = 0
    bytes_returned: int = 0
    lock: threading.Lock = field(default_factory=threading.Lock)

    def open_rounds(self, count: int, wall_s: float = 0.0) -> int:
        """Append ``count`` empty rounds of ``wall_s`` seconds each; the
        index of the first."""
        first = len(self.rounds)
        self.rounds += [{cls: [] for cls in CLASSES} for _ in range(count)]
        self.answered += [{cls: [] for cls in CLASSES} for _ in range(count)]
        self.round_wall += [wall_s] * count
        return first

    def sample_work(self) -> None:
        self.work.append((time.perf_counter(), reference_work()))

    def speed_at(self, instant: float) -> float:
        """How many times slower than the reference the box ran around
        ``instant``: from the two reference-work samples before it and the
        two after it."""
        i = bisect.bisect(self.work, (instant,))
        return speed_factor([v for _, v in self.work[max(0, i - 2):i + 2]])

    @property
    def latencies(self) -> Dict[str, List[float]]:
        """Operation class -> latencies of all rounds together."""
        return {
            cls: [v for entry in self.rounds for v in entry[cls]]
            for cls in CLASSES
        }

    @property
    def wall_s(self) -> float:
        return sum(self.round_wall)

    def add(self, op: Op, start: float, end: float, ok: bool,
            due: Optional[float] = None, round_index: int = -1) -> None:
        latency = end - (start if due is None else due)
        with self.lock:
            if not self.rounds:
                self.open_rounds(1)
            self.attempted += 1
            if not ok:
                self.failed += 1
                self.slo_missed += 1
                return
            self.rounds[round_index][op.cls].append(latency)
            self.answered[round_index][op.cls].append(end)
            if latency > SLO_S:
                self.slo_missed += 1
            if op.is_update:
                self.update_spans.append((start, end))
                self.update_bytes += len(op.text)

    def fail(self, op: Op, exc: BaseException) -> None:
        with self.lock:
            if len(self.errors) < 5:
                self.errors.append(
                    f"{op.template}: {type(exc).__name__}: {exc}"[:300]
                )

    def successful(self) -> int:
        return self.attempted - self.failed


# ---------------------------------------------------------------------------
# targets
# ---------------------------------------------------------------------------

def _solution_rows(result: Any) -> List[Dict[str, str]]:
    return [
        {var.name: str(term) for var, term in solution.items()}
        for solution in result.solutions
    ]


class OneshotTarget:
    """Request text through the facade, parsed and translated per call."""

    def __init__(self, mediator: OntoAccess) -> None:
        self.mediator = mediator

    def call(self, op: Op) -> Any:
        if op.is_update:
            return self.mediator.update(op.text)
        return self.mediator.query(op.text)

    def verify(self, op: Op, raw: Any) -> bool:
        if op.is_update:
            return check_update(op, raw.rows_affected())
        return check_rows(op, _solution_rows(raw))


class TracedOneshotTarget(OneshotTarget):
    """The facade's steps performed here, one span per layer boundary.

    Needs :func:`trace.instrument_database` on the mediator's database so
    ``rdb.*`` calls made from inside ``core`` show up as child spans.
    """

    def __init__(self, mediator: OntoAccess, recorder: Recorder) -> None:
        super().__init__(mediator)
        self.recorder = recorder
        self.backend = mediator.session().backend
        self.db = mediator.db
        self.statements = 0
        self.modify_bindings = 0
        self.modify_ops = 0

    def call(self, op: Op) -> Any:
        backend, db = self.backend, self.db
        if not op.is_update:
            query = self.recorder.call("sparql.parse", parse_query, op.text)
            return self.recorder.call(
                "core.query", execute_query, backend.mapping, db, query
            ).result
        request = self.recorder.call("sparql.parse", parse_update, op.text)
        rows = 0
        for operation in request.operations:
            db.begin()
            try:
                for statement in self._translate(operation):
                    rows += db.execute(statement).rowcount
                    self.statements += 1
                db.commit()
            except Exception:
                if db.in_transaction():
                    db.rollback()
                raise
        return rows

    def _translate(self, operation: Any):
        """Statements of one operation; a MODIFY is planned binding by
        binding against the state the previous binding left (Algorithm 2)."""
        backend, db = self.backend, self.db
        if not isinstance(operation, Modify):
            yield from self.recorder.call(
                "core.translate", backend.translate_operation, operation
            )
            return
        solutions, _, _ = self.recorder.call(
            "core.modify.bindings", bindings_for_pattern,
            backend.mapping, db, operation.where,
        )
        self.modify_ops += 1
        self.modify_bindings += len(solutions)
        for solution in solutions:
            step = self.recorder.call(
                "core.modify.plan_binding", plan_binding,
                backend.mapping, db, operation, solution,
                optimize_redundant_deletes=backend.optimize_modify,
            )
            yield from step.all_statements()

    def verify(self, op: Op, raw: Any) -> bool:
        if op.is_update:
            return check_update(op, raw)
        return check_rows(op, _solution_rows(raw))


class PreparedTarget:
    """``Session.prepare`` once per template, ``execute(bindings)`` per op."""

    def __init__(self, mediator: OntoAccess, recorder: Optional[Recorder] = None) -> None:
        self.session = mediator.session()
        started = time.perf_counter()
        self.prepared = {
            name: self.session.prepare(PREFIXES + text)
            for name, (_, text) in TEMPLATES.items()
            if text
        }
        self.prepare_s = time.perf_counter() - started
        self.recorder = recorder
        self.statements = 0

    def call(self, op: Op) -> Any:
        prepared = self.prepared[op.template]
        if self.recorder is None:
            return prepared.execute(op.bindings)
        name = "core.prepared_execute." + ("update" if op.is_update else "query")
        return self.recorder.call(name, prepared.execute, op.bindings)

    def verify(self, op: Op, raw: Any) -> bool:
        if op.is_update:
            self.statements += raw.statements_executed()
            return check_update(op, raw.rows_affected())
        return check_rows(op, _solution_rows(raw))


class HttpTarget:
    """One keep-alive connection of the public client.

    Retries are off: a shed or timed-out request is a failure to count,
    not something to hide behind a second attempt.  With ``trace_prefix``
    every request carries ``X-Request-Id: <prefix>-<n>`` so the server's
    access-log line can be joined to the client's span.
    """

    def __init__(self, url: str, trace_prefix: Optional[str] = None,
                 samples: Optional[Samples] = None) -> None:
        self.client = OntoAccessClient(url, retry=RetryPolicy(max_attempts=1))
        self.trace_prefix = trace_prefix
        self.samples = samples
        self.sent = 0
        self.last_request_id: Optional[str] = None

    def call(self, op: Op) -> Any:
        if self.trace_prefix is None:
            return self._send(op)
        self.sent += 1
        self.last_request_id = f"{self.trace_prefix}-{self.sent}"
        with request_scope(self.last_request_id):
            return self._send(op)

    def _send(self, op: Op) -> Any:
        if op.is_update:
            return self.client.update(op.text)
        return self.client.query_json(op.text)

    def verify(self, op: Op, raw: Any) -> bool:
        if op.is_update:
            return raw.ok
        rows = [
            {name: term["value"] for name, term in binding.items()}
            for binding in raw["results"]["bindings"]
        ]
        if self.trace_prefix is not None:
            # traced runs only: re-serialising costs generator CPU
            with self.samples.lock:
                self.samples.rows_returned += len(rows)
                self.samples.bytes_returned += len(json.dumps(raw))
        return check_rows(op, rows)

    def close(self) -> None:
        self.client.close()


# ---------------------------------------------------------------------------
# loops
# ---------------------------------------------------------------------------

def _one(target: Any, op: Op, samples: Samples, recorder: Optional[Recorder],
         due: Optional[float] = None, round_index: int = -1) -> bool:
    """Send one request, stop the clock, then verify it."""
    span = recorder.begin("op") if recorder else -1
    start = time.perf_counter()
    try:
        raw = target.call(op)
    except Exception as exc:  # the loop must survive any one request
        end = time.perf_counter()
        if recorder:
            recorder.end(span)
        samples.fail(op, exc)
        samples.add(op, start, end, False, due, round_index)
        return False
    end = time.perf_counter()
    if recorder:
        recorder.end(span)
        request_id = getattr(target, "last_request_id", None)
        if request_id:
            recorder.spans[span][4] = request_id
    try:
        ok = target.verify(op, raw)
        if not ok:
            samples.fail(op, AssertionError(f"expected {op.expect!r}"))
    except Exception as exc:  # a malformed answer is a wrong answer
        samples.fail(op, exc)
        ok = False
    samples.add(op, start, end, ok, due, round_index)
    return ok


def run_untimed(targets: List[Any], streams: List[Stream], count: int) -> Samples:
    """Warm-up / WAL-tail requests, ``count`` per worker: verified, never
    reported as latencies."""
    samples = Samples()

    def worker(target: Any, stream: Stream) -> None:
        for op in stream.next_chunk(count):
            _one(target, op, samples, None)

    if len(targets) == 1:
        worker(targets[0], streams[0])
    else:
        _join_all(worker, targets, streams)
    return samples


def run_round(target: Any, stream: Stream, count: int, samples: Samples,
              recorder: Optional[Recorder] = None) -> None:
    """One round of a closed loop on the calling thread: ``count`` requests,
    each sent when the previous one was answered.  The clock stops while
    the next chunk is generated (the round's seconds are executing time)."""
    index = samples.open_rounds(1)
    samples.sample_work()
    busy = 0.0
    while count > 0:
        started = time.perf_counter()
        ops = stream.next_chunk(min(CHUNK, count))
        generated = time.perf_counter()
        for op in ops:
            _one(target, op, samples, recorder, round_index=index)
        busy += time.perf_counter() - generated
        samples.generating_s += generated - started
        samples.sample_work()
        count -= len(ops)
    samples.round_wall[index] = busy
    samples.generator_cpu_share = samples.generating_s / (
        samples.generating_s + samples.wall_s
    )


def _rounds(samples: Samples, seconds: float, round_seconds: float):
    """Cut ``seconds`` of the clock into equal rounds of about
    ``round_seconds``; returns ``instant -> round index`` for instants
    counted from the loop's start (late ones fall into the last round)."""
    count = max(1, round(seconds / round_seconds)) if round_seconds else 1
    first = samples.open_rounds(count, seconds / count)
    last = first + count - 1
    return lambda t: min(last, first + int(t * count / seconds))


def run_closed(
    targets: List[Any],
    streams: List[Stream],
    seconds: float,
    round_seconds: float,
    samples: Samples,
    recorder: Optional[Recorder] = None,
    after_update: Optional[Callable[[Any], None]] = None,
    min_ops: int = 0,
) -> None:
    """Closed loop on one thread per target, each sending its next request
    when the previous one was answered, against a shared wall-clock
    deadline (each sends at least ``min_ops`` requests however slow the
    box is).  A request belongs to the round it was sent in."""
    round_of = _rounds(samples, seconds, round_seconds)
    started = time.perf_counter()
    deadline = started + seconds
    cpu_started = time.process_time()

    def worker(target: Any, stream: Stream) -> None:
        # one request generated at a time: everything generated is sent,
        # so the model never runs ahead of what the server acknowledged
        sent = 0
        while time.perf_counter() < deadline or sent < min_ops:
            op = stream.next_op()
            sent += 1
            index = round_of(time.perf_counter() - started)
            ok = _one(target, op, samples, recorder, round_index=index)
            if ok and op.is_update and after_update:
                after_update(target)

    _join_all(worker, targets, streams, samples.sample_work)
    samples.generator_cpu_share = (time.process_time() - cpu_started) / (
        time.perf_counter() - started
    )


def run_open(
    targets: List[Any],
    streams: List[Stream],
    rate: float,
    seconds: float,
    round_seconds: float,
    samples: Samples,
    recorder: Optional[Recorder] = None,
) -> None:
    """Open loop: request ``i`` falls due at ``i / rate`` whether or not
    earlier ones were answered; worker ``w`` sends requests ``w``,
    ``w + workers``, ... and each is timed from its due time and belongs
    to the round it fell due in."""
    workers = len(targets)
    total = int(rate * seconds)
    per_worker = [len(range(w, total, workers)) for w in range(workers)]
    plans = [stream.next_chunk(n) for stream, n in zip(streams, per_worker)]
    round_of = _rounds(samples, seconds, round_seconds)
    epoch = time.perf_counter() + 0.05
    cpu_started = time.process_time()

    def worker(target: Any, stream: Stream) -> None:
        w = stream.worker
        for k, op in enumerate(plans[w]):
            offset = (w + k * workers) / rate
            due = epoch + offset
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            if time.perf_counter() - due > LATE_S:
                with samples.lock:
                    samples.late += 1
            _one(
                target, op, samples, recorder, due=due,
                round_index=round_of(offset),
            )

    # Senders wake from sleep needing the interpreter lock; the default
    # 5 ms hand-over would make them late whenever another sender parses.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(0.0005)
    try:
        _join_all(worker, targets, streams, samples.sample_work)
    finally:
        sys.setswitchinterval(interval)
    samples.generator_cpu_share = (time.process_time() - cpu_started) / (
        time.perf_counter() - epoch
    )


def _join_all(worker: Callable, targets: List[Any], streams: List[Stream],
              meanwhile: Optional[Callable[[], None]] = None) -> None:
    """Run ``worker(target, stream)`` on one thread per target; the calling
    thread calls ``meanwhile`` four times a second until all have ended."""
    failures: List[BaseException] = []

    def guarded(target: Any, stream: Stream) -> None:
        try:
            worker(target, stream)
        except BaseException as exc:  # re-raised on the calling thread
            failures.append(exc)

    threads = [
        threading.Thread(target=guarded, args=pair, daemon=True)
        for pair in zip(targets, streams)
    ]
    for thread in threads:
        thread.start()
    while meanwhile and any(thread.is_alive() for thread in threads):
        meanwhile()
        time.sleep(0.25)
    for thread in threads:
        thread.join()
    if failures:
        raise failures[0]
