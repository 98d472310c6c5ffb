"""The mediator's end-to-end benchmark: one command, four workloads.

    python3 benchmarks/e2e/run.py --workload <name> --seed <n> \\
        --seconds <s> --trace <0|1>

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` runs the same workload twice on identical fresh state — a short
untraced section, then a traced one — and reports the per-layer metrics
(the ratio of the two is the tracing overhead).  Metric names, units and
regression bounds come from ``BENCHMARK.json`` at the repository root.

The timed work is cut into rounds; a latency metric is the quiet quartile
of the rounds' medians, and where requests wait for the CPU every latency
is first divided by how much slower than a reference the box ran at that
moment (``drivers.reference_work``; README.md, "Rounds" and "Box speed").

Every response is checked against the generator-side model; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``README.md`` next to this file.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import math
import os
import pathlib
import shutil
import signal
import statistics
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"

if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"{ROOT / 'src' / 'repro'} is missing: nothing to benchmark")
sys.path.insert(0, str(ROOT / "src"))

from repro import Database, OntoAccess  # noqa: E402
from repro.observability.metrics import REGISTRY  # noqa: E402
from repro.server.client import OntoAccessClient  # noqa: E402
from repro.workloads.generator import Dataset, populate_database  # noqa: E402
from repro.workloads.operations import PREFIXES  # noqa: E402
from repro.workloads.publication import (  # noqa: E402
    PUBLICATION_DDL,
    URI_PREFIX,
    build_database,
    build_mapping,
)

import trace as tracing  # noqa: E402  (benchmarks/e2e/trace.py)
from drivers import (  # noqa: E402
    HttpTarget,
    OneshotTarget,
    PreparedTarget,
    Samples,
    TracedOneshotTarget,
    run_closed,
    run_open,
    run_round,
    run_untimed,
    reference_work,
    speed_factor,
)
from serverproc import ServerProcess, peak_rss_mb  # noqa: E402
from workloads import (  # noqa: E402
    CLASSES,
    QUERY_CLASSES,
    UPDATE_CLASSES,
    WORKLOADS,
    Model,
    Spec,
    Stream,
    build_dataset,
)

PROBE_QUERY = PREFIXES + "SELECT ?l WHERE { ex:author1 foaf:family_name ?l }"
#: share of ``--seconds`` a traced run spends on its untraced section
UNTRACED_SHARE = 0.3


def load_contract() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        return json.load(handle)


def scaled(spec: Spec, scale: float) -> Spec:
    """The workload at a fraction of its data size, set up once, with the
    templates taken in turn (smoke test)."""
    if scale == 1.0:
        return spec
    return dataclasses.replace(
        spec,
        authors=max(400, int(spec.authors * scale)),
        publications=max(800, int(spec.publications * scale)),
        setup_repeats=1,
        warmup_ops=4,
        round_ops=min(spec.round_ops, 128),
        cycle_templates=True,
        wal_tail_ops=min(spec.wal_tail_ops, 10),
    )


def tails(samples: Samples, q: float) -> Dict[str, float]:
    """"update" / "query" -> tail latency in seconds: the ``q`` quantile,
    or with too few samples the highest percentile that still has ten
    samples beyond it (never below the median) — the slowest handful of a
    small class is chance, not a property of the program."""
    result = {}
    for name, classes in (("update", UPDATE_CLASSES), ("query", QUERY_CLASSES)):
        ordered = sorted(v for cls in classes for v in samples.latencies[cls])
        n = len(ordered)
        result[name] = ordered[max(n // 2, min(math.ceil(q * n) - 1, n - 11))]
    return result


# ---------------------------------------------------------------------------
# environments: the system under test, set up and torn down
# ---------------------------------------------------------------------------

class InprocEnv:
    """The database and mediator live in this process."""

    def __init__(self, spec: Spec, dataset: Dataset, rundir: pathlib.Path,
                 recorder: Optional[tracing.Recorder]) -> None:
        started = time.perf_counter()
        self.db = build_database()
        populate_database(self.db, dataset)
        self.mediator = OntoAccess(self.db, build_mapping(self.db))
        if spec.surface == "prepared":
            self.target: Any = PreparedTarget(self.mediator, recorder)
        elif recorder is not None:
            self.target = TracedOneshotTarget(self.mediator, recorder)
        else:
            self.target = OneshotTarget(self.mediator)
        self.mediator.query(PROBE_QUERY)
        self.setup_s = time.perf_counter() - started
        if recorder is not None:
            tracing.instrument_database(self.db, recorder)

    def targets(self, samples: Samples) -> List[Any]:
        return [self.target]

    def counters(self) -> Dict[str, float]:
        samples = tracing.parse_exposition(REGISTRY.render())
        for key, value in self.db.planner.stats.items():
            samples[f"repro_plan_cache_{key}"] = float(value)
        return samples

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()

    def close(self) -> None:
        self.db.close()


class HttpEnv:
    """The database lives in a server subprocess."""

    def __init__(self, spec: Spec, dataset: Dataset, rundir: pathlib.Path,
                 recorder: Optional[tracing.Recorder]) -> None:
        self.spec = spec
        self.recorder = recorder
        self.stderr_path = str(rundir / "server.stderr")
        self.access_log = str(rundir / "access.log") if recorder else None
        self.data_dir = str(rundir / "data")
        self.server: Optional[ServerProcess] = None
        self._targets: List[HttpTarget] = []
        if not spec.durable:
            # handing the generated rows over is the generator's work
            dataset_path = rundir / "dataset.json"
            if not dataset_path.exists():
                with open(dataset_path, "w", encoding="utf-8") as handle:
                    json.dump(dataclasses.asdict(dataset), handle)
        started = time.perf_counter()
        try:
            if spec.durable:
                shutil.rmtree(self.data_dir, ignore_errors=True)
                db = Database(data_dir=self.data_dir, sync_mode="fsync")
                db.execute_script(PUBLICATION_DDL)
                with db.transaction():
                    populate_database(db, dataset)
                db.checkpoint()
                db.close()
                self.server = ServerProcess.serve_data_dir(
                    self.data_dir, self.stderr_path, self.access_log
                )
            else:
                self.server = ServerProcess.serve_inmemory(
                    str(dataset_path), self.stderr_path, self.access_log
                )
            self.server.wait_ready(PROBE_QUERY)
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - started

    @property
    def url(self) -> str:
        return self.server.url

    def targets(self, samples: Samples) -> List[Any]:
        self._targets = [
            HttpTarget(
                self.url,
                trace_prefix=f"w{w}" if self.recorder else None,
                samples=samples,
            )
            for w in range(self.spec.workers)
        ]
        return self._targets

    def counters(self) -> Dict[str, float]:
        return tracing.scrape_metrics(self.url)

    def peak_rss_mb(self) -> float:
        return self.server.peak_rss_mb()

    def crash_and_recover(self) -> float:
        """SIGKILL the server, restart it on the same ``data_dir``; seconds
        from the kill until ``/ready`` is 200 and a probe query answers."""
        for target in self._targets:
            target.close()
        started = time.perf_counter()
        self.server.kill()
        self.server = ServerProcess.serve_data_dir(self.data_dir, self.stderr_path)
        self.server.wait_ready(PROBE_QUERY)
        return time.perf_counter() - started

    def close(self) -> None:
        for target in self._targets:
            target.close()
        if self.server is not None:
            self.server.kill()


def make_env(spec: Spec, dataset: Dataset, rundir: pathlib.Path,
             recorder: Optional[tracing.Recorder] = None) -> Any:
    """Set the system up; ``setup_s`` is stated at the reference speed of
    the box (loading rows and starting an interpreter wait for the CPU)."""
    cls = HttpEnv if spec.surface == "http" else InprocEnv
    work = [reference_work() for _ in range(2)]
    env = cls(spec, dataset, rundir, recorder)
    work += [reference_work() for _ in range(2)]
    env.setup_s /= speed_factor(work)
    return env


# ---------------------------------------------------------------------------
# durability: checkpoints inside the timed section, crash at its end
# ---------------------------------------------------------------------------

class Checkpointer:
    """Fires ``count`` ``POST /admin/checkpoint`` calls evenly spread over
    the timed section, each from the worker whose update was acknowledged
    first after the checkpoint fell due (the other worker keeps writing)."""

    def __init__(self, count: int, seconds: float) -> None:
        now = time.perf_counter()
        self.due = [now + seconds * (i + 1) / (count + 1) for i in range(count)]
        #: (start, end, checkpoint file bytes)
        self.events: List[Tuple[float, float, int]] = []
        #: bytes of every WAL segment a checkpoint retired
        self.wal_bytes = 0
        #: WAL records appended when the last checkpoint was cut
        self.appends_at_last = 0

    def after_update(self, target: HttpTarget) -> None:
        with target.samples.lock:
            due = bool(self.due) and time.perf_counter() >= self.due[0]
            if due:
                del self.due[0]
        if due:
            self.checkpoint(target.client)

    def checkpoint(self, client: Any) -> None:
        backend = client.health()["backend"]
        started = time.perf_counter()
        path = client.checkpoint()["checkpoint"]
        ended = time.perf_counter()
        self.wal_bytes += backend["wal_bytes"]
        self.appends_at_last = backend["wal_appends"]
        self.events.append((started, ended, os.path.getsize(path)))

    def stall_ms(self, samples: Samples) -> float:
        """Slowest update overlapping a checkpoint, minus the update median."""
        durations = [end - start for start, end in samples.update_spans]
        if not durations or not self.events:
            return 0.0
        overlapping = [
            end - start
            for start, end in samples.update_spans
            if any(start < c_end and end > c_start for c_start, c_end, _ in self.events)
        ]
        if not overlapping:
            return 0.0
        return (max(overlapping) - statistics.median(durations)) * 1e3


def verify_recovered(url: str, model: Model) -> List[str]:
    """Every acknowledged write must be readable after the restart: the
    authors alive and every author's mbox, read back in two queries."""
    def column(doc: Dict[str, Any], key: str, value: str) -> Dict[str, str]:
        return {
            b[key]["value"]: b[value]["value"] for b in doc["results"]["bindings"]
        }

    with OntoAccessClient(url, timeout=60.0) as client:
        names = column(
            client.query_json(
                PREFIXES + "SELECT ?a ?l WHERE { ?a foaf:family_name ?l }"
            ), "a", "l",
        )
        mboxes = column(
            client.query_json(PREFIXES + "SELECT ?a ?m WHERE { ?a foaf:mbox ?m }"),
            "a", "m",
        )
    problems: List[str] = []
    expected_names = {
        f"{URI_PREFIX}author{a}": last for a, (_, last) in model.names.items()
    }
    expected_mboxes = {
        f"{URI_PREFIX}author{a}": "mailto:" + address
        for a, address in model.mbox.items() if address
    }
    if names != expected_names:
        lost = set(expected_names) - set(names)
        extra = set(names) - set(expected_names)
        problems.append(
            f"authors after recovery: {len(lost)} lost, {len(extra)} resurrected"
        )
    if mboxes != expected_mboxes:
        wrong = sum(
            1 for a in set(mboxes) | set(expected_mboxes)
            if mboxes.get(a) != expected_mboxes.get(a)
        )
        problems.append(f"mboxes after recovery: {wrong} differ from the model")
    return problems


# ---------------------------------------------------------------------------
# one timed section
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class Section:
    """Warm-up and timed rounds of a workload, on one set-up or (a workload
    with ``fresh_rounds``) on a new set-up per round."""

    samples: Samples
    #: seconds every set-up of the section took
    setups: List[float] = dataclasses.field(default_factory=list)
    peak_rss_mb: float = 0.0
    live_rows: int = 0
    #: counter sample -> what the timed rounds added to it
    counters: Dict[str, float] = dataclasses.field(default_factory=dict)
    problems: List[str] = dataclasses.field(default_factory=list)
    warmup_failed: int = 0
    #: request bytes of the updates sent outside the timed rounds
    untimed_update_bytes: int = 0
    prepare_s: float = 0.0
    statements: int = 0
    modify_ops: int = 0
    modify_bindings: int = 0
    recovery_s: float = 0.0
    checkpoints: Optional[Checkpointer] = None
    tail_frames: int = 0
    health: Dict[str, Any] = dataclasses.field(default_factory=dict)
    access: Dict[str, Dict[str, Any]] = dataclasses.field(default_factory=dict)


def run_section(spec: Spec, dataset: Dataset, rundir: pathlib.Path, seed: int,
                seconds: float, recorder: Optional[tracing.Recorder]) -> Section:
    samples = Samples()
    section = Section(samples=samples)
    while True:
        # a fresh set-up replays the same request list from its start
        model = Model(dataset)
        streams = [Stream(spec, model, w, seed) for w in range(spec.workers)]
        env = make_env(spec, dataset, rundir, recorder)
        try:
            section.setups.append(env.setup_s)
            targets = env.targets(samples)
            target = targets[0]
            mark = len(recorder.spans) if recorder is not None else 0
            warm = run_untimed(targets, streams, spec.warmup_ops)
            section.problems += warm.errors
            section.warmup_failed += warm.failed
            section.untimed_update_bytes += warm.update_bytes
            # warm-up is not part of the trace or of the per-op counts
            if recorder is not None:
                del recorder.spans[mark:]
            for counter in ("statements", "modify_ops", "modify_bindings"):
                if hasattr(target, counter):
                    setattr(target, counter, 0)
            before = env.counters()
            checkpoints = None
            if spec.rate is not None:
                run_open(
                    targets, streams, spec.rate, seconds, spec.round_seconds,
                    samples, recorder,
                )
            elif spec.round_ops:
                while True:
                    run_round(target, streams[0], spec.round_ops, samples, recorder)
                    if spec.fresh_rounds or samples.wall_s >= seconds:
                        break
            else:
                if spec.checkpoints:
                    checkpoints = Checkpointer(spec.checkpoints, seconds)
                run_closed(
                    targets, streams, seconds, spec.round_seconds, samples, recorder,
                    after_update=checkpoints.after_update if checkpoints else None,
                    # a smoke run must see every template at least once
                    min_ops=len(spec.mix) if spec.cycle_templates else 0,
                )
            for name, value in env.counters().items():
                section.counters[name] = (
                    section.counters.get(name, 0.0) + value - before.get(name, 0.0)
                )
            section.peak_rss_mb = max(section.peak_rss_mb, env.peak_rss_mb())
            section.live_rows = (
                dataset.row_count() + model.live_rows()
                - model.base_authors - model.base_publications
            )
            section.checkpoints = checkpoints
            section.prepare_s = getattr(target, "prepare_s", 0.0)
            for counter in ("statements", "modify_ops", "modify_bindings"):
                setattr(
                    section, counter,
                    getattr(section, counter) + getattr(target, counter, 0),
                )
            if spec.durable:
                # A fixed-length WAL tail after a last checkpoint, then the crash.
                checkpoints.checkpoint(target.client)
                tail = run_untimed(targets, streams, spec.wal_tail_ops // spec.workers)
                section.warmup_failed += tail.failed
                section.untimed_update_bytes += tail.update_bytes
                section.problems += tail.errors
                section.health = target.client.health()["backend"]
                section.tail_frames = (
                    section.health["wal_appends"] - checkpoints.appends_at_last
                )
                section.recovery_s = env.crash_and_recover()
                section.problems += verify_recovered(env.url, model)
            if recorder is not None and spec.surface == "http":
                section.access = tracing.read_access_log(env.access_log)
        finally:
            env.close()
        if not spec.fresh_rounds or samples.wall_s >= seconds:
            break
        # free it before the next build: the peak must be one database
        del env, targets, target
        gc.collect()
    section.problems += samples.errors
    return section


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

#: a round counts towards a class's metric with at least this many samples
MIN_ROUND_SAMPLES = 5


def quiet_quartile(values: List[float], better: str) -> float:
    """The quartile of the per-round values on their good side.  Other
    tenants of the box only ever add time, so the quietest quarter of the
    rounds says most about the program; a quartile instead of the extreme
    keeps one lucky round from setting the number."""
    if len(values) == 1:
        return values[0]
    quartiles = statistics.quantiles(values, n=4, method="inclusive")
    return quartiles[0] if better == "lower" else quartiles[2]


def at_reference_speed(spec: Spec, samples: Samples) -> List[Dict[str, List[float]]]:
    """The rounds' latencies, each divided by how many times slower than
    the reference the box ran when the request was answered; as measured
    for a workload that does not wait for the CPU."""
    if not spec.cpu_bound or not samples.work:
        return samples.rounds
    return [
        {
            cls: [v / samples.speed_at(t) for v, t in zip(entry[cls], ends[cls])]
            for cls in CLASSES
        }
        for entry, ends in zip(samples.rounds, samples.answered)
    ]


def class_latency(raw: List[List[float]], rounds: List[List[float]]) -> Tuple[float, str]:
    """(seconds, what it rests on): the quiet quartile of the rounds'
    medians of one operation class (``raw``: as measured, ``rounds``: at
    the reference speed); the median of everything when no round has
    enough samples of it."""
    medians = [
        statistics.median(values) for values in rounds
        if len(values) >= MIN_ROUND_SAMPLES
    ]
    if medians:
        value = quiet_quartile(medians, "lower")
    else:
        value = statistics.median(v for values in rounds for v in values)
    whole = statistics.median(v for values in raw for v in values)
    count = sum(len(values) for values in raw)
    return value, f"n={count} rounds={len(medians)} raw={whole * 1e3:.4g}"


def end_to_end(spec: Spec, section: Section,
               setups: List[float]) -> Dict[str, Tuple[float, str]]:
    """name -> (value, what it rests on)."""
    s = section.samples
    rounds = at_reference_speed(spec, s)
    rates = []
    for raw, entry, wall in zip(s.rounds, rounds, s.round_wall):
        raw_s = sum(sum(values) for values in raw.values())
        # a closed loop at the reference speed: the round's seconds shrink
        # as its latencies do; an open loop's rate is its schedule
        if spec.rate is None and raw_s:
            wall *= sum(sum(values) for values in entry.values()) / raw_s
        rates.append(sum(len(values) for values in raw.values()) / wall)
    metrics = {
        "setup_s": (statistics.median(setups), f"n={len(setups)}"),
        "throughput_ops_s": (
            quiet_quartile(rates, "higher"),
            f"n={s.successful()} rounds={len(rates)} "
            f"raw={s.successful() / s.wall_s:.4g} "
            f"box={speed_factor([v for _, v in s.work]) if s.work else 1:.3f}x",
        ),
        "peak_rss_mb": (section.peak_rss_mb, "n=1"),
    }
    for cls in CLASSES:
        value, note = class_latency(
            [entry[cls] for entry in s.rounds], [entry[cls] for entry in rounds]
        )
        metrics[f"{cls}_p50_ms"] = (value * 1e3, note)
    return metrics


def require_samples(section: Section) -> None:
    empty = [cls for cls in CLASSES if not section.samples.latencies[cls]]
    if empty:
        raise SystemExit(
            f"no successful {', '.join(empty)} request in the timed section: "
            f"{section.problems[:3]}"
        )


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def weighted_latency(samples: Samples, weights: Dict[str, int]) -> float:
    """Class medians weighted by ``weights`` (a fixed class mix), so two
    sections of different length compare on the same mix."""
    return sum(
        statistics.median(samples.latencies[cls]) * weights[cls]
        for cls in CLASSES
        if samples.latencies[cls] and weights.get(cls)
    )


def per_layer(spec: Spec, untraced: Section, traced: Section,
              recorder: tracing.Recorder) -> Dict[str, float]:
    s = traced.samples
    ops = max(1, s.successful())
    updates = max(1, sum(len(s.latencies[c]) for c in UPDATE_CLASSES))
    spans = recorder.by_name()

    def total(*names: str) -> float:
        return sum(spans[n]["total_s"] for n in names if n in spans)

    def own(*names: str) -> float:
        return sum(spans[n]["self_s"] for n in names if n in spans)

    def calls(name: str) -> float:
        return spans.get(name, {}).get("calls", 0)

    def counter(family: str) -> float:
        return tracing.family_sum(traced.counters, family)

    op_time = total("op") or 1.0
    hits, misses = counter("repro_plan_cache_hits"), counter("repro_plan_cache_misses")
    translate = own(
        "core.translate", "core.query", "core.modify.bindings",
        "core.modify.plan_binding",
    )
    prepared = own("core.prepared_execute.update", "core.prepared_execute.query")
    weights = {cls: len(s.latencies[cls]) for cls in CLASSES}
    metrics = {
        "sparql.parse_s": _ratio(own("sparql.parse"), calls("sparql.parse")),
        "sparql.parse_share": own("sparql.parse") / op_time,
        "sparql.parse_ops": calls("sparql.parse"),
        "core.translate_s": translate / ops,
        "core.sql_statements_per_op": traced.statements / updates,
        "core.modify_bindings_per_op": _ratio(
            traced.modify_bindings, traced.modify_ops
        ),
        "core.prepare_s": traced.prepare_s,
        "core.prepared_execute_s": prepared / ops,
        "rdb.planner.plan_cache_hit_ratio": _ratio(hits, hits + misses),
        "rdb.planner.plan_cache_invalidations": counter("repro_plan_cache_invalidations"),
        "rdb.executor.execute_s": total("rdb.execute") / ops,
        "rdb.executor.rows_scanned_per_row_returned": _ratio(
            counter("repro_executor_rows_scanned_total"),
            counter('repro_executor_rows_total{op="select"}'),
        ),
        "rdb.commit_s": total("rdb.begin", "rdb.commit") / updates,
        "rdb.storage.rss_bytes_per_row": traced.peak_rss_mb * 2**20 / traced.live_rows,
        "bench.box_slowdown": (
            speed_factor([v for _, v in s.work]) if s.work else 1.0
        ),
        "bench.late_ratio": s.late / max(1, s.attempted),
        "bench.generator_cpu_share": s.generator_cpu_share,
        "trace.overhead_ratio": _ratio(
            weighted_latency(s, weights),
            weighted_latency(untraced.samples, weights),
        ),
        "trace.unattributed_s": own("op") / ops,
        "trace.unattributed_share": own("op") / op_time,
        "diag.recovery_s": traced.recovery_s,
        "diag.failed_ratio": s.failed / max(1, s.attempted),
    }
    for q in (0.95, 0.99):
        for name, value in tails(s, q).items():
            metrics[f"diag.{name}_p{q * 100:.0f}_ms"] = value * 1e3
    metrics.update(durability_layer(traced))
    metrics.update(server_layer(spec, traced, recorder))
    if spec.surface == "http":
        # the client's op span has no client-side children: what the
        # server's own total does not cover is the unattributed part
        metrics["trace.unattributed_s"] = metrics["server.transport_s"]
        metrics["trace.unattributed_share"] = (
            metrics["server.transport_s"] * calls("op") / op_time
        )
    return metrics


def durability_layer(section: Section) -> Dict[str, float]:
    names = (
        "wal_syncs_per_commit", "wal_bytes_per_update_byte", "checkpoint_s",
        "checkpoint_bytes", "checkpoint_stall_ms", "recovery_frames_per_s",
    )
    metrics = {f"rdb.durability.{name}": 0.0 for name in names}
    ckpt = section.checkpoints
    if ckpt is None:
        return metrics
    in_section = ckpt.events[:-1] or ckpt.events  # the last one is after it

    def counter(family: str) -> float:
        return tracing.family_sum(section.counters, family)

    wal_bytes = ckpt.wal_bytes + section.health["wal_bytes"]
    metrics.update({
        "rdb.durability.wal_syncs_per_commit": _ratio(
            counter("repro_wal_syncs"), counter("repro_wal_commits")
        ),
        "rdb.durability.wal_bytes_per_update_byte": _ratio(
            wal_bytes,
            section.samples.update_bytes + section.untimed_update_bytes,
        ),
        "rdb.durability.checkpoint_s": statistics.median(
            end - start for start, end, _ in in_section
        ),
        "rdb.durability.checkpoint_bytes": statistics.median(
            size for _, _, size in in_section
        ),
        "rdb.durability.checkpoint_stall_ms": ckpt.stall_ms(section.samples),
        "rdb.durability.recovery_frames_per_s": _ratio(
            section.tail_frames, section.recovery_s
        ),
    })
    return metrics


def server_layer(spec: Spec, section: Section,
                 recorder: tracing.Recorder) -> Dict[str, float]:
    names = (
        "queue_wait_s", "execute_s", "serialize_s", "transport_s",
        "shed_ratio", "bytes_out_per_row", "slo_miss_ratio",
    )
    metrics = {f"server.{name}": 0.0 for name in names}
    if spec.surface != "http":
        return metrics
    s = section.samples
    sums = {"queue_wait_s": 0.0, "execute_s": 0.0, "serialize_s": 0.0, "transport_s": 0.0}
    joined = 0
    for name, start, end, _, op_id in recorder.spans:
        entry = section.access.get(op_id) if name == "op" else None
        if entry is None:
            continue
        joined += 1
        for key in ("queue_wait_s", "execute_s", "serialize_s"):
            sums[key] += entry.get(key, 0.0)
        sums["transport_s"] += (end - start) - entry["total_s"]
    for key, value in sums.items():
        metrics[f"server.{key}"] = _ratio(value, joined)
    shed = tracing.family_sum(section.counters, "repro_serving_shed_total")
    admitted = tracing.family_sum(section.counters, "repro_serving_admitted_total")
    metrics["server.shed_ratio"] = _ratio(shed, shed + admitted)
    metrics["server.bytes_out_per_row"] = _ratio(s.bytes_returned, s.rows_returned)
    metrics["server.slo_miss_ratio"] = s.slo_missed / max(1, s.attempted)
    return metrics


# ---------------------------------------------------------------------------
# a whole run
# ---------------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: float = 1.0) -> Dict[str, Any]:
    """Run one workload; returns the result object the command prints
    (plus ``samples``: what each metric rests on, and ``problems``)."""
    spec = scaled(WORKLOADS[name], scale)
    dataset = build_dataset(spec, seed)
    rundir = OUT / f"{name}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    try:
        if not trace:
            setups = []
            for _ in range(spec.setup_repeats - 1):
                env = make_env(spec, dataset, rundir)
                setups.append(env.setup_s)
                env.close()
                # free it before the next build: the peak must be one database
                del env
                gc.collect()
            section = run_section(spec, dataset, rundir, seed, seconds, None)
            require_samples(section)
            setups += section.setups
            sections = [section]
            values = end_to_end(spec, section, setups)
            metrics = {k: v for k, (v, _) in values.items()}
            counts = {k: n for k, (_, n) in values.items()}
        else:
            untraced = run_section(
                spec, dataset, rundir, seed, seconds * UNTRACED_SHARE, None
            )
            recorder = tracing.Recorder()
            traced = run_section(
                spec, dataset, rundir, seed, seconds * (1 - UNTRACED_SHARE), recorder
            )
            sections = [untraced, traced]
            require_samples(untraced)
            require_samples(traced)
            metrics = per_layer(spec, untraced, traced, recorder)
            counts = {}
            recorder.write(
                str(OUT / f"trace-{name}.json"),
                {"workload": name, "seed": seed, "per_layer": metrics},
            )
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    attempted = sum(s.samples.attempted for s in sections)
    failed = sum(s.samples.failed + s.warmup_failed for s in sections)
    problems = [p for s in sections for p in s.problems]
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "samples": counts,
        "problems": problems,
    }


def report(name: str, args: argparse.Namespace, result: Dict[str, Any],
           contract: Dict[str, Any]) -> None:
    """The human-readable table, then the contract's one JSON line."""
    declared = contract["per_layer" if args.trace else "end_to_end"]
    mismatch = {m["name"] for m in declared} ^ set(result["metrics"])
    if mismatch:
        raise SystemExit(f"metrics out of step with BENCHMARK.json: {sorted(mismatch)}")
    print(
        f"workload {name}  seed {args.seed}  seconds {args.seconds:g}  "
        f"trace {args.trace}  attempted {result['attempted']}  "
        f"failed {result['failed']}  correct {result['correct']}"
    )
    rows = [("metric", "value", "unit", "samples / bound")]
    for m in declared:
        note = ""
        if not args.trace:
            note = f"{result['samples'][m['name']]}  bound {m['bound']:.0%}"
        rows.append((m["name"], f"{result['metrics'][m['name']]:.6g}", m["unit"], note))
    print(tracing.format_table(rows))
    for problem in result["problems"][:10]:
        print("problem:", problem)
    line = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
            for m in declared
        },
    }
    if args.out:
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(
                {"workload": name, "seed": args.seed, "trace": args.trace, **line,
                 "rests_on": result["samples"]}
            ) + "\n")
    print(json.dumps(line))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="fraction of the workload's data size (smoke test only)",
    )
    parser.add_argument(
        "--out", help="also append the result line to this JSON-lines file "
        "(input of compare.py)",
    )
    args = parser.parse_args(argv)
    # a terminated run must still reap its server: unwind through finally
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    contract = load_contract()
    result = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.scale
    )
    report(args.workload, args, result, contract)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
