"""A day in the life of the system, observed end to end.

:func:`run_day_in_the_life` runs the smallest honest version of the
paper's full loop — train with compressed exchanges, publish deltas to a
serving tier, serve a Zipf-skewed request trace — with the observability
runtime enabled throughout, and returns every artifact the ``repro.obs``
stack can produce from one run:

* a :class:`~repro.obs.registry.RegistrySnapshot` covering all three
  tiers (pipeline/comm/train/publish/serve metric families),
* one *unified* chrome trace (train, publication, and serving timelines
  as separate process lanes, each with its spans and counter tracks),
* the human :func:`~repro.obs.exporters.run_report` text.

On top of the raw artifacts, the run is *analyzed*: each tier's
timeline gets a critical-path extraction (rendered as a highlight lane
in the unified trace and as makespan-attribution tables in the report)
and the three tiers feed live SLO burn-rate monitors (serve p99 vs
target, publication staleness vs the adaptive plan's bound, train step
time vs budget).

This is the scenario behind ``examples/obs_day_in_the_life.py`` and the
CI ``obs-smoke`` job: with ``out_dir`` set it writes ``metrics.json``
(validated against the snapshot schema, including the ``reports``
block), ``metrics.prom``, ``obs_trace.json``, ``run_report.txt``, and
``critical_path.json``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.obs.registry import MetricsRegistry, RegistrySnapshot
from repro.obs.runtime import capture, enable
from repro.utils.validation import check_count

__all__ = [
    "ScenarioResult",
    "build_day_world",
    "evict_rows",
    "run_day_in_the_life",
    "write_artifacts",
]


@dataclass(frozen=True)
class ScenarioResult:
    """Everything one observed train→publish→serve run produces."""

    snapshot: RegistrySnapshot
    trace: dict  # unified chrome trace (traceEvents + metadata)
    report: str  # human run_report text
    train_makespan: float
    publish_wire_nbytes: int
    serve_p99_latency: float
    #: paths written when ``out_dir`` was given, keyed by artifact name
    paths: dict[str, Path]
    #: tier name -> CriticalPathResult over that tier's timeline
    critical_paths: dict | None = None
    #: the run's SloHub (burn-rate monitors, already fed)
    slo: object | None = None


#: the day-in-the-life world, shared by the observed and the chaos scenario:
#: tables, rows per table, offered request rate and the seed all draws derive from
DAY_TABLES = 6
DAY_CARDINALITY = 400
DAY_QPS = 2000.0
DAY_SEED = 7


def build_day_world(name: str, n_tables: int, cardinality: int, seed: int):
    """One fresh, fully-seeded workload (twin runs of one seed match):
    ``(dataset, config, trainer)`` with a 2-rank compressed hybrid-parallel
    trainer whose adaptive plan was analyzed from the initial embeddings."""
    from repro.adaptive import AdaptiveController, OfflineAnalyzer
    from repro.data import SyntheticClickDataset, make_uniform_spec
    from repro.dist import ClusterSimulator
    from repro.model import DLRM, DLRMConfig
    from repro.train import CompressionPipeline, HybridParallelTrainer

    spec = make_uniform_spec(name, n_tables=n_tables, cardinality=cardinality, zipf_exponent=1.2)
    dataset = SyntheticClickDataset(spec, seed=seed, teacher_scale=3.0)
    config = DLRMConfig.from_dataset(spec, embedding_dim=8, seed=seed + 1)
    model = DLRM(config)
    batch = dataset.batch(128, batch_index=10_000_000)
    samples = {j: model.lookup(j, batch.sparse[:, j]) for j in range(n_tables)}
    plan = OfflineAnalyzer().analyze(samples)
    trainer = HybridParallelTrainer(
        model,
        dataset,
        ClusterSimulator(2),
        pipeline=CompressionPipeline(AdaptiveController(plan)),
        lr=0.2,
        overlap=True,  # chunked overlapped exchanges -> chunk events on the ledger
        pipeline_chunks=4,
    )
    return dataset, config, trainer


def evict_rows(model, table_ids, n_rows: int, seed: int, *key: int | str) -> None:
    """Evict ``n_rows`` rows of each table in ``table_ids``: each row is
    redrawn (:meth:`~repro.nn.embedding.EmbeddingTable.reinitialize_rows`),
    as when a production table hands an evicted ID's slot to a new ID.
    Such a row moves by the scale of the embeddings, typically far past the
    table's publication error bound, so the next publication ships the
    table.  Rows and values derive from ``seed`` and ``key`` alone, so twin
    runs evict identically.  Tests use it to move a table past its bound
    before a publication they inspect."""
    from repro.utils.rng import spawn_rng

    rng = spawn_rng(seed, "evict", *key)
    for table_id in table_ids:
        table = model.tables[table_id]
        rows = rng.choice(table.cardinality, size=n_rows, replace=False)
        table.reinitialize_rows(rows, rng)


def write_artifacts(
    out_dir: str | Path | None,
    snapshot: RegistrySnapshot,
    trace: dict,
    report: str,
    *,
    trace_name: str,
    reports: dict | None = None,
    extra: dict[str, str] | None = None,
) -> dict[str, Path]:
    """Write one scenario run's artifacts under ``out_dir`` (nothing when
    it is ``None``); returns the paths keyed by file name: ``metrics.json``
    (schema-validated, with the ``reports`` block if given), ``metrics.prom``,
    the chrome trace as ``trace_name``, ``run_report.txt``, and whatever
    ``extra`` maps from file name to text."""
    if out_dir is None:
        return {}
    from repro.obs.exporters import snapshot_to_json, to_prometheus
    from repro.obs.schema import validate_snapshot_json

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    metrics_json = snapshot_to_json(snapshot, indent=2, reports=reports)
    validate_snapshot_json(metrics_json)  # never ship an invalid artifact
    texts = {
        "metrics.json": metrics_json,
        "metrics.prom": to_prometheus(snapshot),
        trace_name: json.dumps(trace),
        "run_report.txt": report + "\n",
        **(extra or {}),
    }
    paths = {name: out / name for name in texts}
    for name, text in texts.items():
        paths[name].write_text(text)
    return paths


#: the scenario's serve p99 latency budget, seconds
SERVE_LATENCY_TARGET = 2e-3

#: the scenario's train step time budget, seconds
TRAIN_STEP_TARGET = 5e-3


def run_day_in_the_life(
    *,
    n_iterations: int = 3,
    n_requests: int = 200,
    out_dir: str | Path | None = None,
) -> ScenarioResult:
    """Run the observed end-to-end scenario and collect its artifacts.

    The world is fixed: :data:`DAY_TABLES` tables of
    :data:`DAY_CARDINALITY` rows, requests offered at :data:`DAY_QPS`, every
    seed derived from :data:`DAY_SEED`.

    The observability runtime is enabled onto a fresh private registry for
    the duration of the run (prior enable/disable state is restored), so
    calling this never perturbs the caller's metrics.
    """
    # Heavy imports stay local: repro.obs must be importable without
    # pulling the model/train/serve stack (the hot paths import obs, not
    # the other way around).
    from repro.dist.timeline import Timeline
    from repro.obs.critpath import (
        extract_critical_path,
        highlight_trace_events,
        report_json_block,
    )
    from repro.obs.exporters import run_report
    from repro.obs.slo import SloHub, attach_hub, default_monitors
    from repro.obs.trace import unified_chrome_trace
    from repro.serve import build_serving_tier
    from repro.serve.loadgen import RequestLoadGenerator
    from repro.serve.simulator import ServingSimulator

    check_count("n_iterations", n_iterations, 1)
    check_count("n_requests", n_requests, 1)

    with capture():
        registry = enable(MetricsRegistry())

        # --- train: compressed hybrid-parallel steps on a 2-rank cluster
        dataset, config, trainer = build_day_world(
            "obs-day", DAY_TABLES, DAY_CARDINALITY, DAY_SEED
        )

        # --- SLOs: the staleness bound is exactly what the adaptive plan
        # promises (worst per-table effective error bound at the publish
        # iteration); serve latency and step time get scenario budgets.
        controller = trainer.pipeline.controller
        staleness_bound = max(
            controller.error_bound(t, n_iterations - 1)
            for t in controller.table_ids()
        )
        slo_hub = attach_hub(
            SloHub(
                default_monitors(
                    serve_p99_target=SERVE_LATENCY_TARGET,
                    publish_staleness_bound=staleness_bound,
                    train_step_target=TRAIN_STEP_TARGET,
                )
            )
        )

        for iteration in range(n_iterations):
            trainer.train_step(64, iteration=iteration)
        train_makespan = trainer.simulator.makespan()

        # --- publish: a 2-shard serving tier built from the trained
        # tables, then rows of every other table evicted, so the round
        # ships those tables and skips the rest (within their bound)
        tier = build_serving_tier(
            trainer, n_shard_ranks=2, n_replicas=2, cache_rows=64
        )
        evict_rows(trainer.model, range(0, DAY_TABLES, 2), 4, DAY_SEED, "publish")
        publication = tier.publisher.publish(iteration=n_iterations - 1)

        # --- serve: a Zipf-skewed open-loop trace over the fresh tables
        serve_trace = Timeline()
        loadgen = RequestLoadGenerator(dataset, qps=DAY_QPS, seed=DAY_SEED + 2)
        requests = loadgen.generate(n_requests)
        serving = ServingSimulator(tier.replicas, config)
        serving_report = serving.run(
            requests,
            replica_available_at=publication.downtime_seconds,
            trace=serve_trace,
        )

        snapshot = registry.snapshot()
        timelines = {
            "train": trainer.simulator.timeline,
            "publish": tier.publisher.simulator.timeline,
            "serve": serve_trace,
        }
        # Lay the tiers out in wall-clock-ish order: publication begins
        # when training pauses; serving resumes behind the publication.
        offsets = {"publish": train_makespan, "serve": train_makespan}
        trace = unified_chrome_trace(timelines, offsets=offsets)
        # --- critical path per tier, rendered as an extra highlight lane
        # on each tier's process in the unified trace
        critical_paths = {
            name: extract_critical_path(timeline)
            for name, timeline in timelines.items()
            if len(timeline)
        }
        tier_meta = trace["metadata"]["tiers"]
        for name, result in critical_paths.items():
            trace["traceEvents"].extend(
                highlight_trace_events(
                    result,
                    pid=tier_meta[name]["pid"],
                    offset_seconds=tier_meta[name]["offset_seconds"],
                )
            )
        report = run_report(
            snapshot,
            timelines=timelines,
            critical_paths=critical_paths,
            slo=slo_hub,
            title="Day in the life",
        )

    critical_path_block = report_json_block(critical_paths)
    paths = write_artifacts(
        out_dir,
        snapshot,
        trace,
        report,
        trace_name="obs_trace.json",
        reports={"critical_path": critical_path_block, "slo": slo_hub.to_json_dict()},
        extra={"critical_path.json": json.dumps(critical_path_block, indent=2) + "\n"},
    )

    return ScenarioResult(
        snapshot=snapshot,
        trace=trace,
        report=report,
        train_makespan=train_makespan,
        publish_wire_nbytes=publication.wire_nbytes,
        serve_p99_latency=serving_report.p99_latency,
        paths=paths,
        critical_paths=critical_paths,
        slo=slo_hub,
    )
