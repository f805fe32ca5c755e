"""Serving-tier scaling: compressed vs raw delta publication under load.

This benchmark prices the full trainer -> publisher -> replica loop the
``repro.serve`` subsystem adds: a hybrid-parallel trainer takes a few
steps, a :class:`~repro.serve.publisher.DeltaPublisher` ships the
per-table embedding deltas to the compressed shard tier (compressed under
the adaptive controller's per-table bounds, or raw), and an open-loop
Poisson workload of Criteo-shaped lookups is served across replica
counts, cache sizes, and NVLink/IB/PCIe fabrics.

Per row it reports sustained QPS, p50/p99 latency, cache hit rate, and
the publication's wire bytes; the headline metric is **QPS per published
megabyte** — freshness bought per unit of publication bandwidth — where
compressed delta publication must strictly beat raw publication on the
multi-node fabrics (the acceptance criterion of the serving PR).

Two training steps move no element past its table's bound, and a
publication ships only tables whose delta crossed it, so before publishing
the sweep evicts ``EVICTED_ROWS`` rows of every third table
(:func:`~repro.obs.scenario.evict_rows`): those tables ship under
compressed publication, and the compressed-vs-raw comparisons require each
compressed publication to ship at least one table.

Setting ``REPRO_SERVE_SMOKE=1`` restricts the sweep to the smallest
2-replica scenario for CI's perf-smoke job.
"""

from __future__ import annotations

import os

import pytest

from repro.adaptive import AdaptiveController, OfflineAnalyzer
from repro.data import CRITEO_KAGGLE, SyntheticClickDataset, scaled_spec
from repro.dist import (
    IB_HDR_LIKE,
    NVLINK_LIKE,
    PCIE_LIKE,
    ClusterSimulator,
    NetworkModel,
    Topology,
)
from repro.model import DLRM, DLRMConfig
from repro.obs.scenario import evict_rows
from repro.serve import RequestLoadGenerator, ServingSimulator, build_serving_tier
from repro.train import CompressionPipeline, HybridParallelTrainer
from repro.utils import format_table

from conftest import MAX_CARDINALITY, SEED, write_result

TRAIN_ITERATIONS = 2
TRAIN_BATCH = 128
TRAIN_RANKS = 4
ROWS_PER_BLOCK = 128
N_REQUESTS = 900
QPS_PER_REPLICA = 6000.0
EMBEDDING_DIM = 32
#: rows evicted (re-initialised) in each of every third table before publishing
EVICTED_ROWS = 8

#: (label, inter link or None for a flat NVLink fabric); the hierarchical
#: fabrics put replicas on node 0 and shard nodes on node 1, so every
#: cache miss crosses the inter-node link — the multi-node scenarios.
FABRICS = [
    ("nvlink-flat", None),
    ("nvlink+ib-hdr", IB_HDR_LIKE),
    ("nvlink+pcie", PCIE_LIKE),
]

#: (scenario label, fabric label, n_replicas (= n_shard_ranks), cache_rows,
#: compressed publication) — replica-count, cache-size, and publication
#: axes around the (4 replicas, 4096 rows) center point.
SCENARIOS = [
    ("2-replica", "nvlink+ib-hdr", 2, 4096, True),
    ("2-replica", "nvlink+ib-hdr", 2, 4096, False),
    ("4-replica", "nvlink-flat", 4, 4096, True),
    ("4-replica", "nvlink-flat", 4, 4096, False),
    ("4-replica", "nvlink+ib-hdr", 4, 4096, True),
    ("4-replica", "nvlink+ib-hdr", 4, 4096, False),
    ("4-replica", "nvlink+pcie", 4, 4096, True),
    ("4-replica", "nvlink+pcie", 4, 4096, False),
    ("4-replica/small-cache", "nvlink+ib-hdr", 4, 512, True),
    ("4-replica/mid-cache", "nvlink+ib-hdr", 4, 2048, True),
    ("8-replica", "nvlink+ib-hdr", 8, 4096, True),
]

SMOKE_SCENARIOS = SCENARIOS[:2]


def fabric_network(label: str, n_replicas: int) -> NetworkModel:
    inter = dict(FABRICS)[label]
    if inter is None:
        return NetworkModel(bandwidth=NVLINK_LIKE.bandwidth, latency=NVLINK_LIKE.latency)
    return NetworkModel.from_topology(
        Topology.hierarchical(2, n_replicas, NVLINK_LIKE, inter)
    )


class ServingRuns:
    """All scenario runs over one trained model (built once per session)."""

    def __init__(self, smoke: bool):
        self.smoke = smoke
        scenarios = SMOKE_SCENARIOS if smoke else SCENARIOS
        self.spec = scaled_spec(CRITEO_KAGGLE, max_cardinality=MAX_CARDINALITY)
        self.dataset = SyntheticClickDataset(self.spec, seed=SEED, teacher_scale=3.0)
        self.config = DLRMConfig.from_dataset(
            self.spec,
            embedding_dim=EMBEDDING_DIM,
            bottom_hidden=(64, 32),
            top_hidden=(64, 32),
            seed=SEED + 1,
        )
        model = DLRM(self.config)
        batch = self.dataset.batch(256, batch_index=10_000_000)
        samples = {
            j: model.lookup(j, batch.sparse[:, j]) for j in range(self.spec.n_tables)
        }
        plan = OfflineAnalyzer().analyze(samples)
        self.trainer = HybridParallelTrainer(
            model,
            self.dataset,
            ClusterSimulator(TRAIN_RANKS),
            pipeline=CompressionPipeline(AdaptiveController(plan)),
            lr=0.2,
        )
        # Every tier snapshots the *pre-training* model state, so each
        # publisher ships the identical training delta — compressed vs raw
        # publication differ only in the publication path.
        self.tiers = {}
        for key in scenarios:
            _, fabric, n_replicas, cache_rows, compressed = key
            inter = dict(FABRICS)[fabric]
            publication_link = inter if inter is not None else NVLINK_LIKE
            self.tiers[key] = build_serving_tier(
                self.trainer,
                n_shard_ranks=n_replicas,
                n_replicas=n_replicas,
                cache_rows=cache_rows,
                rows_per_block=ROWS_PER_BLOCK,
                publication_network=NetworkModel(
                    bandwidth=publication_link.bandwidth,
                    latency=publication_link.latency,
                ),
                compress_publication=compressed,
            )
        self.trainer.train(TRAIN_ITERATIONS, TRAIN_BATCH * TRAIN_RANKS)
        evict_rows(model, range(0, self.spec.n_tables, 3), EVICTED_ROWS, SEED)
        self.publications = {
            key: tier.publisher.publish(iteration=TRAIN_ITERATIONS)
            for key, tier in self.tiers.items()
        }
        self.reports = {}
        for key, tier in self.tiers.items():
            _, fabric, n_replicas, cache_rows, _ = key
            serving = ServingSimulator(
                tier.replicas, self.config, network=fabric_network(fabric, n_replicas)
            )
            loadgen = RequestLoadGenerator(
                self.dataset, qps=QPS_PER_REPLICA * n_replicas, seed=SEED
            )
            self.reports[key] = serving.run(
                loadgen.generate(N_REQUESTS),
                replica_available_at=self.publications[key].downtime_seconds,
            )

    def qps_per_megabyte(self, key) -> float:
        return self.reports[key].sustained_qps / (
            self.publications[key].wire_nbytes / 1e6
        )

    def shipped(self, key) -> list:
        """The table deltas a publication put on the wire."""
        return [t for t in self.publications[key].tables if t.shipped]

    def shipped_ratio(self, key) -> float:
        """Compression ratio over the shipped tables only."""
        shipped = self.shipped(key)
        return sum(t.raw_nbytes for t in shipped) / sum(t.wire_nbytes for t in shipped)


@pytest.fixture(scope="session")
def serving_runs() -> ServingRuns:
    return ServingRuns(smoke=bool(os.environ.get("REPRO_SERVE_SMOKE")))


def test_serving_scaling_report(serving_runs):
    rows = []
    for key in serving_runs.reports:
        scenario, fabric, n_replicas, cache_rows, compressed = key
        report = serving_runs.reports[key]
        publication = serving_runs.publications[key]
        rows.append(
            (
                scenario,
                fabric,
                "compressed" if compressed else "raw",
                cache_rows,
                f"{report.sustained_qps:.0f}",
                f"{report.p50_latency * 1e6:.1f} us",
                f"{report.p99_latency * 1e6:.1f} us",
                f"{report.cache_hit_rate:.1%}",
                f"{len(serving_runs.shipped(key))}/{len(publication.tables)}",
                f"{publication.wire_nbytes / 1e3:.1f} KB",
                f"{serving_runs.shipped_ratio(key):.1f}x",
                f"{serving_runs.qps_per_megabyte(key):.0f}",
            )
        )
    text = format_table(
        [
            "scenario",
            "fabric",
            "publication",
            "cache rows",
            "QPS",
            "p50",
            "p99",
            "hit rate",
            "tables shipped",
            "pub wire",
            "shipped ratio",
            "QPS/MB",
        ],
        rows,
        title=(
            "Serving scaling - compressed vs raw delta publication "
            f"({N_REQUESTS} requests/row, {QPS_PER_REPLICA:.0f} QPS/replica"
            + (", smoke)" if serving_runs.smoke else ")")
        ),
    )
    write_result("serving_scaling", text)


def test_rows_are_sane(serving_runs):
    for key, report in serving_runs.reports.items():
        assert report.n_requests == N_REQUESTS, key
        assert 0 < report.p50_latency <= report.p99_latency, key
        assert 0.0 < report.cache_hit_rate < 1.0, key
        assert report.sustained_qps > 0, key


def test_compressed_publication_ships_fewer_bytes(serving_runs):
    """Same training delta, same fabric: the compressed publisher must ship
    strictly fewer bytes on every compressed/raw pair."""
    pairs = 0
    for key, publication in serving_runs.publications.items():
        scenario, fabric, n_replicas, cache_rows, compressed = key
        if not compressed:
            continue
        raw_key = (scenario, fabric, n_replicas, cache_rows, False)
        if raw_key not in serving_runs.publications:
            continue
        raw = serving_runs.publications[raw_key]
        assert serving_runs.shipped(key), key  # not vacuous: a table shipped
        assert publication.wire_nbytes < raw.wire_nbytes, key
        assert publication.raw_nbytes == raw.raw_nbytes, key
        assert publication.compression_ratio > 2.0, key
        pairs += 1
    assert pairs >= 1


def test_compressed_beats_raw_qps_per_byte_on_multinode_fabrics(serving_runs):
    """The acceptance criterion: on every multi-node fabric in the sweep,
    compressed delta publication sustains strictly more QPS per published
    byte than raw publication."""
    checked = 0
    for key in serving_runs.publications:
        scenario, fabric, n_replicas, cache_rows, compressed = key
        if not compressed or fabric == "nvlink-flat":
            continue
        raw_key = (scenario, fabric, n_replicas, cache_rows, False)
        if raw_key not in serving_runs.publications:
            continue
        assert serving_runs.shipped(key), key  # not vacuous: a table shipped
        assert serving_runs.qps_per_megabyte(key) > serving_runs.qps_per_megabyte(
            raw_key
        ), key
        checked += 1
    assert checked >= 1  # at least one multi-node compressed/raw pair ran


def test_staleness_bounded_after_publication(serving_runs):
    controller = serving_runs.trainer.pipeline.controller
    for key, publication in serving_runs.publications.items():
        if not key[4]:
            assert publication.staleness_bound == 0.0
            continue
        bound = max(
            controller.error_bound(t, TRAIN_ITERATIONS)
            for t in range(serving_runs.spec.n_tables)
        )
        assert publication.staleness_bound <= bound * (1 + 1e-9)
        assert publication.max_abs_error <= publication.staleness_bound * (1 + 1e-5)


def test_cache_hit_rate_monotone_in_cache_size(serving_runs):
    if serving_runs.smoke:
        pytest.skip("cache axis runs in the full sweep only")
    cache_axis = [
        ("4-replica/small-cache", "nvlink+ib-hdr", 4, 512, True),
        ("4-replica/mid-cache", "nvlink+ib-hdr", 4, 2048, True),
        ("4-replica", "nvlink+ib-hdr", 4, 4096, True),
    ]
    rates = [serving_runs.reports[key].cache_hit_rate for key in cache_axis]
    assert rates == sorted(rates)
    assert rates[-1] > rates[0]


def test_replica_scaling_sustains_more_qps(serving_runs):
    """Single-axis comparison: same fabric class and cache size, only the
    replica count (and the offered load riding on it) changes."""
    if serving_runs.smoke:
        pytest.skip("replica axis runs in the full sweep only")
    two = serving_runs.reports[("2-replica", "nvlink+ib-hdr", 2, 4096, True)]
    four = serving_runs.reports[("4-replica", "nvlink+ib-hdr", 4, 4096, True)]
    eight = serving_runs.reports[("8-replica", "nvlink+ib-hdr", 8, 4096, True)]
    assert two.sustained_qps < four.sustained_qps < eight.sustained_qps


def test_benchmark_serving_step(serving_runs, benchmark):
    tier = next(iter(serving_runs.tiers.values()))
    loadgen = RequestLoadGenerator(serving_runs.dataset, qps=4000.0, seed=SEED + 7)
    requests = loadgen.generate(64)
    serving = ServingSimulator(
        tier.replicas,
        serving_runs.config,
        network=fabric_network("nvlink+ib-hdr", len(tier.replicas)),
    )
    benchmark.pedantic(lambda: serving.run(requests), rounds=3, iterations=1)
