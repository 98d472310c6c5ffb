"""Serving-tier benchmark (ISSUE 6): open-loop latency and shed rate.

Drives the HTTP endpoint with an **open-loop** arrival process — requests
fire on a fixed schedule whether or not earlier ones finished, the way
real traffic arrives — at 1x, 2x, and 4x of the endpoint's measured
capacity, and reports the p50/p99 latency of *accepted* requests plus
the shed rate at each level.

The point of admission control is visible in the numbers: without it,
2x overload makes every request's latency grow without bound as the
queue builds; with it, excess requests are shed fast with 503 +
``Retry-After`` while the accepted ones keep a bounded p99 (the wait is
capped by the short bounded queue, never by the backlog length).

Methodology notes:

* Service time is pinned by injecting a fixed latency at the executor's
  scan site (the fault-injection harness doubling as a load model), so
  capacity is stable across machines and the offered-load multiples mean
  the same thing everywhere.
* ``1x`` is the closed-loop sequential capacity ``1/median_service``.
  At an offered load equal to capacity a queue already builds (rho = 1),
  so a small shed rate at 1x is expected and correct.
* The in-run floor asserts the core property (bounded accepted-latency
  under 2x overload, genuine shedding at 4x); the CI trend gate compares
  ``accepted_p99_overload2x`` across runs, calibrated by
  ``accepted_p99_load1x`` so machine speed cancels out.

Run with::

    PYTHONPATH=src python -m pytest -q benchmarks/bench_serving.py -s
"""

import http.client
import json
import pathlib
import statistics
import threading
import time

from repro import OntoAccess
from repro.faults import INJECTOR
from repro.server import OntoAccessEndpoint
from repro.workloads.calibration import (
    derive_overload_pins,
    measure_service_time,
)
from repro.workloads.publication import (
    build_database,
    build_mapping,
    seed_feasibility_data,
)

BENCH_DIR = pathlib.Path(__file__).parent
ARTIFACT = BENCH_DIR / "BENCH_serving.json"

SCAN_QUERY = (
    "PREFIX foaf: <http://xmlns.com/foaf/0.1/> "
    "SELECT ?n WHERE { ?x foaf:family_name ?n . }"
)

#: Floor for the injected per-scan latency: it must dominate the raw
#: request time so capacity (and therefore the offered-load multiples)
#: is stable across machines.  The actual figure comes from a short
#: uninjected calibration run (see repro.workloads.calibration) — a
#: slow box gets a proportionally larger pin instead of a flaky run.
MIN_SERVICE_LATENCY = 0.02
LOADS = (1, 2, 4)
REQUESTS_PER_LEVEL = 120
SENDER_THREADS = 32
#: Floor for the in-run ceiling on accepted-request p99 under 2x
#: overload: queue wait is bounded by the short queue (2 x service)
#: plus queue_timeout, so anything far beyond a handful of service
#: times means backlog latency leaked back in.  Scaled up with the
#: calibrated service time on slow machines.
MIN_P99_CEILING_2X = 1.0


def _fire(port):
    """One request over a fresh connection; returns (status, seconds)."""
    start = time.monotonic()
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10.0)
    try:
        conn.request(
            "POST",
            "/query",
            body=SCAN_QUERY.encode("utf-8"),
            headers={"Content-Type": "application/sparql-query"},
        )
        response = conn.getresponse()
        response.read()
        return response.status, time.monotonic() - start
    finally:
        conn.close()


def _percentile(values, fraction):
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
    return ordered[index]


def _run_level(port, rate, count):
    """Open loop: ``count`` arrivals at fixed ``rate``/s, a sender pool
    large enough that a slow response never delays later arrivals."""
    interval = 1.0 / rate
    begin = time.monotonic() + 0.05
    cursor = [0]
    results = []
    lock = threading.Lock()

    def sender():
        while True:
            with lock:
                if cursor[0] >= count:
                    return
                index = cursor[0]
                cursor[0] += 1
            delay = begin + index * interval - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            try:
                outcome = _fire(port)
            except Exception as exc:
                outcome = (f"transport:{type(exc).__name__}", 0.0)
            with lock:
                results.append(outcome)

    threads = [
        threading.Thread(target=sender, daemon=True)
        for _ in range(SENDER_THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(60.0)
    return results


def _record(records, name, median_us, **extra):
    entry = {
        "name": name,
        "fullname": f"benchmarks/bench_serving.py::{name}",
        "rounds": 1,
        "median_us": median_us,
        "mean_us": median_us,
        "min_us": median_us,
        "max_us": median_us,
        "stddev_us": 0.0,
        "ops": 1e6 / median_us if median_us > 0 else 0.0,
    }
    entry.update(extra)
    records.append(entry)


def _publish(records, **sections):
    document = {"benchmarks": records, "module": "bench_serving", **sections}
    ARTIFACT.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")


def test_open_loop_serving(capsys):
    db = build_database()
    seed_feasibility_data(db)
    mediator = OntoAccess(db, build_mapping(db))
    # calibrate the raw request time first, so the injected latency is
    # guaranteed to dominate it on this machine
    with OntoAccessEndpoint(mediator) as probe:
        raw = measure_service_time(
            lambda: _fire(probe.port), samples=5, warmup=1
        )
    pins = derive_overload_pins(raw, min_injected=MIN_SERVICE_LATENCY)
    p99_ceiling_2x = max(MIN_P99_CEILING_2X, 20.0 * pins.service_s)
    INJECTOR.inject("executor:scan", latency=pins.injected_latency_s)
    endpoint = OntoAccessEndpoint(
        mediator,
        max_in_flight=1,
        max_queue=2,
        queue_timeout=0.05,
        default_timeout=pins.default_timeout_s,
        max_connections=64,
    )
    records = []
    lines = []
    try:
        with endpoint:
            port = endpoint.port
            # -- capacity calibration: sequential closed loop ----------
            service = []
            for _ in range(15):
                status, elapsed = _fire(port)
                assert status == 200, status
                service.append(elapsed)
            capacity = 1.0 / statistics.median(service)
            lines.append(
                f"service time {statistics.median(service) * 1e3:6.1f} ms"
                f" -> capacity {capacity:5.1f} req/s"
            )

            levels = {}
            for multiple in LOADS:
                outcomes = _run_level(
                    port, multiple * capacity, REQUESTS_PER_LEVEL
                )
                statuses = [status for status, _ in outcomes]
                accepted = [
                    elapsed for status, elapsed in outcomes if status == 200
                ]
                shed = statuses.count(503)
                transport = sum(
                    1 for status in statuses if not isinstance(status, int)
                )
                assert transport == 0, statuses
                assert set(statuses) <= {200, 408, 503}, statuses
                assert accepted, f"no request accepted at {multiple}x"
                shed_rate = shed / len(outcomes)
                label = (
                    f"load{multiple}x" if multiple == 1
                    else f"overload{multiple}x"
                )
                p50 = _percentile(accepted, 0.50)
                p99 = _percentile(accepted, 0.99)
                levels[multiple] = (p50, p99, shed_rate)
                _record(
                    records, f"accepted_p50_{label}", p50 * 1e6,
                    offered_rps=round(multiple * capacity, 1),
                    accepted=len(accepted), shed=shed,
                )
                _record(
                    records, f"accepted_p99_{label}", p99 * 1e6,
                    offered_rps=round(multiple * capacity, 1),
                    accepted=len(accepted), shed=shed,
                )
                # shed rate as a record too (median_us abused to carry
                # the percentage; not part of any trend gate)
                _record(
                    records, f"shed_percent_{label}",
                    max(shed_rate * 100.0, 1e-3),
                    shed_fraction=round(shed_rate, 4),
                )
                lines.append(
                    f"{multiple}x offered: p50 {p50 * 1e3:6.1f} ms, "
                    f"p99 {p99 * 1e3:6.1f} ms, shed {shed_rate:5.1%} "
                    f"({len(accepted)} accepted / {len(outcomes)})"
                )
            stats = endpoint.serving_stats()
    finally:
        INJECTOR.clear()

    _publish(
        records,
        serving_stats=stats,
        calibration={
            "raw_service_s": round(pins.raw_service_s, 6),
            "injected_latency_s": round(pins.injected_latency_s, 6),
            "default_timeout_s": round(pins.default_timeout_s, 3),
            "p99_ceiling_2x_s": round(p99_ceiling_2x, 3),
        },
    )
    with capsys.disabled():
        print("\n### open-loop serving latency under overload")
        for line in lines:
            print(f"    {line}")

    # -- floors (self-calibrating, same process) -----------------------
    _, p99_2x, _ = levels[2]
    _, _, shed_4x = levels[4]
    assert shed_4x > 0.0, (
        "4x offered load shed nothing — admission control is not engaging"
    )
    assert p99_2x < p99_ceiling_2x, (
        f"accepted-request p99 under 2x overload is {p99_2x:.3f}s — the "
        "bounded queue is no longer bounding latency"
    )
