"""Shared fixtures and reporting helpers for the benchmark harness.

Each benchmark module regenerates one artifact of the paper (a figure,
table, or listing) or measures one claim.  The ``report`` helper prints
labelled rows so ``pytest benchmarks/ --benchmark-only -s`` shows the
regenerated artifacts next to the timing tables.

At session end, every module's timings are also written to
``benchmarks/BENCH_<module>.json`` (e.g. ``BENCH_query.json``,
``BENCH_scaling.json``) so the performance trajectory is recorded as a
committed artifact instead of scrollback.  See ``benchmarks/README.md``
for the curve shapes each file is expected to show.
"""

import json
import pathlib

import pytest

from repro import OntoAccess
from repro.workloads.publication import (
    build_database,
    build_mapping,
    seed_feasibility_data,
)

BENCH_DIR = pathlib.Path(__file__).parent


def reference_loop():
    """Machine-speed yardstick for the trend gates: plain Python work
    (filter and sum a 2 000-row dict table) that no code under
    ``src/repro`` runs, so no change to the program moves it."""
    table = {i: (i, f"name{i % 97}", i % 7) for i in range(2000)}
    return sum(row[0] for row in table.values() if row[2] == 3 and row[1] != "x")


def report(title, lines):
    print(f"\n### {title}")
    for line in lines:
        print(f"    {line}")


@pytest.fixture
def fresh_mediator():
    db = build_database()
    return OntoAccess(db, build_mapping(db))


@pytest.fixture
def seeded_mediator():
    db = build_database()
    seed_feasibility_data(db)
    return OntoAccess(db, build_mapping(db))


def _stats_record(bench):
    stats = bench.stats
    return {
        "name": bench.name,
        "fullname": bench.fullname,
        "rounds": stats.rounds,
        "mean_us": stats.mean * 1e6,
        "median_us": stats.median * 1e6,
        "min_us": stats.min * 1e6,
        "max_us": stats.max * 1e6,
        "stddev_us": stats.stddev * 1e6,
        "ops": stats.ops,
    }


def pytest_sessionfinish(session, exitstatus):
    """Write per-module BENCH_<name>.json files from pytest-benchmark data."""
    benchmark_session = getattr(session.config, "_benchmarksession", None)
    if benchmark_session is None:
        return
    groups = {}
    for bench in benchmark_session.benchmarks:
        if getattr(bench, "has_error", False):
            continue
        module = pathlib.Path(bench.fullname.split("::")[0]).stem
        name = module[len("bench_"):] if module.startswith("bench_") else module
        try:
            groups.setdefault(name, []).append(_stats_record(bench))
        except (AttributeError, TypeError):
            continue  # a fixture that never ran its timer
    for name, records in groups.items():
        path = BENCH_DIR / f"BENCH_{name}.json"
        # Merge into the committed artifact by test name so a filtered run
        # (-k, smoke passes) refreshes only what it measured instead of
        # truncating the module's record.
        merged = {}
        if path.exists():
            try:
                for record in json.loads(path.read_text())["benchmarks"]:
                    merged[record["fullname"]] = record
            except (ValueError, KeyError):
                pass  # corrupt/legacy artifact: rewrite from this run
        for record in records:
            merged[record["fullname"]] = record
        payload = {
            "module": f"bench_{name}",
            "benchmarks": sorted(merged.values(), key=lambda r: r["fullname"]),
        }
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
