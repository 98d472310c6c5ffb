#!/usr/bin/env python3
"""Benchmark trend check: fail CI on point-query regressions.

Compares a freshly produced ``BENCH_query.json`` against the committed
artifact (saved aside before the benchmark run) and fails when any
point-query timing regressed by more than ``--max-ratio`` (default 2x).

The committed numbers come from a dev machine and CI runners have
different absolute speed, so the comparison is **calibrated**: the
machine factor is estimated as the median fresh/committed ratio over the
calibration benchmarks (default: ``test_reference_loop``, plain Python
work that no program change moves).  Each point-query ratio is divided
by that factor before the threshold check — a uniformly slower machine
cancels out, while a lost index path (which costs 10x+ on point queries
only) does not.  When the two files share no calibration benchmark the
timings are compared as they are, and the output says so.

Usage::

    cp benchmarks/BENCH_query.json /tmp/committed.json
    PYTHONPATH=src python -m pytest benchmarks/bench_query.py \
        --benchmark-only -k "point or reference_loop"
    python benchmarks/check_trend.py /tmp/committed.json \
        benchmarks/BENCH_query.json

Medians are compared (more stable than means under CI noise), and only
benchmarks present in both files are considered.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from typing import Optional


def load_medians(path: str, name_filter: str) -> dict:
    with open(path) as handle:
        payload = json.load(handle)
    return {
        record["fullname"]: record["median_us"]
        for record in payload.get("benchmarks", [])
        if name_filter in record.get("name", "")
    }


def machine_factor(
    committed_path: str, fresh_path: str, calibration: str
) -> Optional[float]:
    """Median fresh/committed ratio over the calibration benchmarks, or
    None when the two files share none."""
    committed = load_medians(committed_path, calibration)
    fresh = load_medians(fresh_path, calibration)
    shared = set(committed) & set(fresh)
    if not shared:
        return None
    return statistics.median(
        fresh[name] / committed[name] for name in shared
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("committed", help="artifact from the repository")
    parser.add_argument("fresh", help="artifact produced by this run")
    parser.add_argument(
        "--max-ratio",
        type=float,
        default=2.0,
        help="fail when calibrated fresh/committed exceeds this (default 2.0)",
    )
    parser.add_argument(
        "--filter",
        default="point",
        help="substring of benchmark names to compare (default: point)",
    )
    parser.add_argument(
        "--calibration",
        default="reference_loop",
        help="substring of benchmarks used to estimate machine speed "
        "(default: reference_loop); pass '' to disable",
    )
    args = parser.parse_args()

    committed = load_medians(args.committed, args.filter)
    fresh = load_medians(args.fresh, args.filter)
    shared = sorted(set(committed) & set(fresh))
    if not shared:
        print(
            f"trend check: no overlapping benchmarks matching "
            f"{args.filter!r}; nothing to compare"
        )
        return 1

    factor = 1.0
    if args.calibration:
        measured = machine_factor(args.committed, args.fresh, args.calibration)
        if measured is None:
            # Not silently 1.0: the verdicts below are absolute timings.
            print(f"machine calibration: no {args.calibration!r} benchmark in "
                  "both files; comparing absolute timings")
        else:
            factor = measured
            print(f"machine calibration factor: {factor:.2f}x "
                  f"(median over {args.calibration!r} benchmarks)")

    failures = []
    for fullname in shared:
        ratio = fresh[fullname] / committed[fullname] / factor
        status = "FAIL" if ratio > args.max_ratio else "ok"
        print(
            f"{status:>4}  {fullname}: {committed[fullname]:.1f} -> "
            f"{fresh[fullname]:.1f} us  ({ratio:.2f}x calibrated)"
        )
        if ratio > args.max_ratio:
            failures.append(fullname)

    if failures:
        print(
            f"\ntrend check FAILED: {len(failures)} benchmark(s) regressed "
            f"beyond {args.max_ratio}x"
        )
        return 1
    print(f"\ntrend check passed ({len(shared)} benchmark(s) compared)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
