"""Compare two sets of benchmark runs, one row per metric x workload.

    python3 benchmarks/e2e/compare.py base.jsonl change.jsonl

Each file holds the result lines ``run.py --out FILE`` appended (any
number of runs per workload).  For every end-to-end metric the row shows
both medians, the ratio with its base, the regression bound from
``BENCHMARK.json``, the wider of the two run-to-run spreads (distance
between the quartiles as a share of the median) and a verdict:

* ``worse``      — the change's median is worse than the base's by more
  than the bound;
* ``unresolved`` — a spread is wider than the bound, so the runs cannot
  show whether the metric held;
* ``ok``         — neither.

Per-layer metrics (``--trace 1`` lines) have no bound: their rows show
medians and ratio only.  Exits 1 when any row is ``worse``.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys
from typing import Any, Dict, List, Optional, Tuple

from trace import format_table  # benchmarks/e2e/trace.py

ROOT = pathlib.Path(__file__).resolve().parents[2]

Runs = Dict[Tuple[str, str], List[float]]


def load(path: str) -> Runs:
    """(workload, metric) -> one value per run, in file order."""
    runs: Runs = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            doc = json.loads(line)
            for name, metric in doc["metrics"].items():
                runs.setdefault((doc["workload"], name), []).append(metric["value"])
    return runs


def spread(values: List[float]) -> Optional[float]:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else None


def verdict(base: List[float], change: List[float], better: str,
            bound: Optional[float]) -> Tuple[float, Optional[float], str]:
    """(ratio of medians, wider spread, verdict)."""
    base_median = statistics.median(base)
    change_median = statistics.median(change)
    ratio = change_median / base_median if base_median else float("inf")
    spreads = [s for s in (spread(base), spread(change)) if s is not None]
    widest = max(spreads) if spreads else None
    if bound is None:
        return ratio, widest, "-"
    worsening = ratio - 1.0 if better == "lower" else 1.0 - ratio
    if widest is not None and widest > bound:
        return ratio, widest, "unresolved"
    return ratio, widest, "worse" if worsening > bound else "ok"


def compare(base: Runs, change: Runs, contract: Dict[str, Any]) -> List[Tuple[str, ...]]:
    declared = {
        m["name"]: m for m in contract["end_to_end"] + contract["per_layer"]
    }
    rows = [("workload", "metric", "base", "change", "ratio", "bound", "spread", "verdict")]
    for workload in (w["name"] for w in contract["workloads"]):
        for name, meta in declared.items():
            key = (workload, name)
            if key not in base or key not in change:
                continue
            ratio, widest, word = verdict(
                base[key], change[key], meta["better"], meta.get("bound")
            )
            base_median = statistics.median(base[key])
            rows.append((
                workload,
                name,
                f"{base_median:.5g} {meta['unit']} (n={len(base[key])})",
                f"{statistics.median(change[key]):.5g} (n={len(change[key])})",
                f"{ratio:.3f}x of {base_median:.5g}",
                f"{meta['bound']:.0%}" if "bound" in meta else "-",
                "-" if widest is None else f"{widest:.1%}",
                word,
            ))
    return rows


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        contract = json.load(handle)
    rows = compare(load(argv[0]), load(argv[1]), contract)
    print(format_table(rows))
    worse = sum(1 for row in rows[1:] if row[-1] == "worse")
    unresolved = sum(1 for row in rows[1:] if row[-1] == "unresolved")
    print(f"{len(rows) - 1} rows: {worse} worse, {unresolved} unresolved")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
