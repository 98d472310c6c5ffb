"""Concurrent read throughput: MVCC snapshot reads vs. the serialized lock.

ISSUE 4 replaced the single session lock with two tiers: writers hold an
exclusive lock for the span of a transaction, readers run lock-free
against the committed snapshot current at their start.  This benchmark
measures what that buys: **aggregate read throughput while a writer is
active**, at 1/2/4/8 reader threads, through both the Session API and the
HTTP endpoint.

The writer models the traffic the lock tiers exist for: client-driven
transactions that hold the write tier while they think (network gaps
between a batch's statements) — ``HOLD`` seconds per transaction with a
``GAP`` between transactions, i.e. the write tier is busy ~90% of
wall-clock time.  Under the old discipline every reader queued behind
those transactions; under MVCC they read the pre-transaction snapshot and
never wait.

Honesty note (measurement environment): this container runs CPython with
the GIL on a single core, so *compute* cannot scale with reader threads —
no-writer thread scaling hovers around 1x by construction.  What MVCC
eliminates, and what this benchmark therefore gates, is **lock wait**:
readers no longer serialize behind writer transactions.  On multi-core
free-threaded builds the same snapshot path additionally scales compute.

Two guards:

* in-run assertion — 8 MVCC readers must sustain >= ``MIN_SPEEDUP`` (4x)
  the throughput of the single serialized-reader baseline measured in the
  same process seconds earlier (self-calibrating, trips if reads ever
  serialize behind the writer again);
* trend gate — ``BENCH_concurrency.json`` feeds ``check_trend.py`` in CI
  (8-reader MVCC latency, calibrated by the 1-reader MVCC latency, >2x
  fails), which trips on contention regressions that scale with thread
  count.

Run with::

    PYTHONPATH=src python -m pytest -q benchmarks/bench_concurrency.py -s
"""

import json
import pathlib
import threading
import time

from repro import OntoAccess
from repro.server import OntoAccessClient, OntoAccessEndpoint
from repro.workloads.publication import (
    build_database,
    build_mapping,
    seed_feasibility_data,
)

BENCH_DIR = pathlib.Path(__file__).parent
ARTIFACT = BENCH_DIR / "BENCH_concurrency.json"

PREFIXES = """
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
PREFIX ont:  <http://example.org/ontology#>
PREFIX ex:   <http://example.org/db/>
"""

READ_QUERY = PREFIXES + "SELECT ?n WHERE { ?x foaf:family_name ?n . }"

#: Writer transaction shape: the write tier is held HOLD seconds per
#: transaction (three statements with think-time between them), then
#: released for GAP seconds — a ~90% write-tier duty cycle, the "heavy
#: traffic with slow client-driven transactions" regime the lock tiers
#: exist for.
HOLD = 0.024
GAP = 0.001
#: Measurement window per configuration (seconds).
WINDOW = 0.6
#: Acceptance floor: 8 MVCC readers vs. one serialized reader, writer
#: active in both (ISSUE 4 acceptance criterion).
MIN_SPEEDUP = 4.0

THREAD_COUNTS = (1, 2, 4, 8)


def _fresh_mediator():
    db = build_database()
    seed_feasibility_data(db)
    return OntoAccess(db, build_mapping(db))


class _Writer:
    """Background writer: transactions that hold the write tier."""

    def __init__(self, session):
        self.session = session
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._counter = 0

    def _run(self):
        while not self._stop.is_set():
            base = 100_000 + self._counter
            self._counter += 3
            with self.session.transaction():
                for k in range(3):
                    self.session.execute(
                        PREFIXES
                        + f'INSERT DATA {{ ex:team{base + k} '
                        f'foaf:name "W{base + k}" . }}'
                    )
                    time.sleep(HOLD / 3)
            time.sleep(GAP)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc_info):
        self._stop.set()
        self._thread.join(10)


def _measure(read_once, n_threads, window=WINDOW):
    """Aggregate reads/second of ``n_threads`` hammering ``read_once``."""
    read_once()  # warm caches outside the window
    counts = [0] * n_threads
    stop = threading.Event()
    start_gate = threading.Barrier(n_threads + 1)

    def worker(idx):
        start_gate.wait()
        while not stop.is_set():
            read_once()
            counts[idx] += 1

    threads = [
        threading.Thread(target=worker, args=(i,), daemon=True)
        for i in range(n_threads)
    ]
    for thread in threads:
        thread.start()
    start_gate.wait()
    time.sleep(window)
    stop.set()
    for thread in threads:
        thread.join(10)
    return sum(counts) / window


def _record(records, name, throughput):
    ops = max(throughput, 1e-9)
    records.append(
        {
            "name": name,
            "fullname": f"benchmarks/bench_concurrency.py::{name}",
            "rounds": 1,
            "median_us": 1e6 / ops,  # aggregate per-op latency
            "mean_us": 1e6 / ops,
            "min_us": 1e6 / ops,
            "max_us": 1e6 / ops,
            "stddev_us": 0.0,
            "ops": ops,
        }
    )
    return throughput


def test_concurrent_read_throughput(capsys):
    records = []
    lines = []

    # ---- Session API: serialized baseline vs. MVCC, writer active ----
    mediator = _fresh_mediator()
    session = mediator.session()
    session.query(READ_QUERY)  # publish the first snapshot

    def mvcc_read():
        session.query(READ_QUERY)

    def serialized_read():
        # The serialized discipline: every read takes the database's
        # writer lock, so it queues behind open transactions.
        with session.backend.writer_lock:
            session.query(READ_QUERY)

    with _Writer(session):
        serialized_1 = _record(
            records, "session_serialized_readers1",
            _measure(serialized_read, 1),
        )
        serialized_8 = _record(
            records, "session_serialized_readers8",
            _measure(serialized_read, 8),
        )
        mvcc = {
            n: _record(
                records, f"session_mvcc_readers{n}", _measure(mvcc_read, n)
            )
            for n in THREAD_COUNTS
        }

    lines.append(
        f"serialized baseline (writer active): "
        f"{serialized_1:7.0f} q/s @1 reader, {serialized_8:7.0f} q/s @8"
    )
    for n in THREAD_COUNTS:
        lines.append(
            f"mvcc snapshot reads (writer active): {mvcc[n]:7.0f} q/s "
            f"@{n} reader(s)  ({mvcc[n] / serialized_1:5.1f}x vs serialized@1)"
        )

    # ---- no-writer scaling, for the record (GIL: expect ~flat) ----
    quiet = {
        n: _record(
            records, f"session_nowriter_readers{n}", _measure(mvcc_read, n)
        )
        for n in (1, 8)
    }
    lines.append(
        f"no-writer reference: {quiet[1]:7.0f} q/s @1, {quiet[8]:7.0f} q/s @8 "
        "(GIL/1-core: compute cannot scale; the win above is lock-wait)"
    )

    # ---- HTTP endpoint sweep, writer POSTing updates ----
    endpoint = OntoAccessEndpoint(_fresh_mediator())
    with endpoint:
        writer_client = OntoAccessClient(endpoint.url)
        stop = threading.Event()

        def http_writer():
            i = 0
            while not stop.is_set():
                writer_client.update(
                    PREFIXES
                    + f'INSERT DATA {{ ex:team{200_000 + i} foaf:name "H{i}" . }}'
                )
                i += 1
                time.sleep(GAP)

        writer_thread = threading.Thread(target=http_writer, daemon=True)
        writer_thread.start()
        try:
            local = threading.local()

            def http_read():
                client = getattr(local, "client", None)
                if client is None:
                    client = local.client = OntoAccessClient(endpoint.url)
                client.query_json(READ_QUERY)

            for n in THREAD_COUNTS:
                throughput = _record(
                    records, f"endpoint_readers{n}", _measure(http_read, n)
                )
                lines.append(
                    f"endpoint (writer posting):           "
                    f"{throughput:7.0f} req/s @{n} reader(s)"
                )
        finally:
            stop.set()
            writer_thread.join(10)

    # ---- artifact + report ----
    ARTIFACT.write_text(
        json.dumps(
            {"module": "bench_concurrency", "benchmarks": records},
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    with capsys.disabled():
        print("\n### concurrent read throughput")
        for line in lines:
            print(f"    {line}")

    # ---- acceptance criterion (self-calibrating, same process) ----
    speedup = mvcc[8] / serialized_1
    assert speedup >= MIN_SPEEDUP, (
        f"8 MVCC readers reached only {speedup:.1f}x the serialized "
        f"single-reader baseline (floor: {MIN_SPEEDUP}x) — reads are "
        "waiting on the write tier again"
    )
