"""ServingSimulator: determinism, monotonicity, and fabric pricing."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.data import SyntheticClickDataset, make_uniform_spec
from repro.dist import IB_HDR_LIKE, NVLINK_LIKE, PCIE_LIKE, NetworkModel, Topology
from repro.model import DLRM, DLRMConfig
from repro.serve import (
    EmbeddingShardServer,
    InferenceReplica,
    RequestLoadGenerator,
    ServingSimulator,
)
from tests.conftest import round_robin_plan

N_TABLES = 6
ROWS = 400
DIM = 16


@pytest.fixture(scope="module")
def world():
    spec = make_uniform_spec(
        "serve-sim", n_tables=N_TABLES, cardinality=ROWS, zipf_exponent=1.4
    )
    dataset = SyntheticClickDataset(spec, seed=21)
    config = DLRMConfig.from_dataset(spec, embedding_dim=DIM, seed=22)
    model = DLRM(config)
    return spec, dataset, config, model


def build_tier(model, n_shards=2, n_replicas=2, cache_rows=512):
    sharding = round_robin_plan(N_TABLES, n_shards)
    servers = [
        EmbeddingShardServer.from_model(
            model, sharding.tables_of(rank), rows_per_block=32
        )
        for rank in range(n_shards)
    ]
    replicas = [
        InferenceReplica(i, servers, sharding, cache_rows) for i in range(n_replicas)
    ]
    return servers, replicas, sharding


def run_once(world, *, cache_rows=512, n_replicas=2, network=None, n_requests=400, qps=2000.0):
    spec, dataset, config, model = world
    _, replicas, _ = build_tier(model, n_replicas=n_replicas, cache_rows=cache_rows)
    sim = ServingSimulator(replicas, config, network=network)
    requests = RequestLoadGenerator(dataset, qps=qps, seed=7).generate(n_requests)
    return sim.run(requests)


class TestDeterminism:
    def test_identical_runs_identical_reports(self, world):
        """The satellite contract: a fixed seed fixes the whole report."""
        a = run_once(world)
        b = run_once(world)
        assert dataclasses.asdict(a) == dataclasses.asdict(b)

    def test_report_sanity(self, world):
        report = run_once(world)
        assert report.n_requests == 400
        assert 0.0 < report.p50_latency <= report.p99_latency <= report.max_latency
        assert report.mean_latency > 0
        assert 0.0 <= report.cache_hit_rate <= 1.0
        assert report.hits + report.misses == 400 * N_TABLES
        assert 0.0 <= report.mean_fanout <= 2.0  # at most both shard nodes
        assert report.pulled_compressed_nbytes < report.pulled_raw_nbytes
        assert sum(report.replica_requests) == 400
        assert report.sustained_qps > 0


class TestExactRankPercentiles:
    """PR-6 satellite: the report's p50/p99 come from the metrics
    registry's exact-rank estimator, not ``np.percentile`` — on small
    samples every quantile is a latency some request actually saw, with
    rank ``max(1, ceil(q * n))``, never an interpolated value."""

    def test_small_sample_percentiles_are_observed_latencies(self, world):
        report = run_once(world, n_requests=7)
        # recompute the per-request latencies independently of the report
        spec, dataset, config, model = world
        _, replicas, _ = build_tier(model, n_replicas=2, cache_rows=512)
        sim = ServingSimulator(replicas, config)
        requests = RequestLoadGenerator(dataset, qps=2000.0, seed=7).generate(7)
        requests = sorted(requests, key=lambda r: r.arrival_seconds)
        free = [0.0, 0.0]
        latencies = []
        for i, request in enumerate(requests):
            replica_index = i % 2
            seconds, _ = sim.service_seconds(replica_index, request)
            start = max(request.arrival_seconds, free[replica_index])
            free[replica_index] = start + seconds
            latencies.append(start + seconds - request.arrival_seconds)
        ordered = sorted(latencies)
        # exact-rank order statistics on n=7: p50 -> rank 4, p99 -> rank 7
        assert report.p50_latency == ordered[3]
        assert report.p99_latency == ordered[6]
        assert report.p50_latency in latencies
        assert report.p99_latency in latencies

    def test_p99_is_max_on_samples_under_100(self, world):
        report = run_once(world, n_requests=50)
        assert report.p99_latency == report.max_latency


class TestCacheMonotonicity:
    def test_hit_rate_monotone_in_cache_size(self, world):
        rates = [
            run_once(world, cache_rows=c).cache_hit_rate for c in (0, 64, 256, 1024, 4096)
        ]
        assert rates == sorted(rates)
        assert rates[0] == 0.0 and rates[-1] > 0.5

    def test_more_cache_means_less_pulled_bytes(self, world):
        small = run_once(world, cache_rows=32)
        large = run_once(world, cache_rows=2048)
        assert large.pulled_compressed_nbytes < small.pulled_compressed_nbytes


class TestFabricPricing:
    def test_slower_inter_fabric_raises_latency(self, world):
        """Replicas on node 0, shards on node 1: every miss crosses the
        inter link, so any hierarchical fabric serves slower than flat
        NVLink — while hit rate and pulled bytes (data-path properties)
        are fabric-invariant.  Small pulls are latency-dominated, so the
        HDR-IB class (1.5 us hops) prices *above* the PCIe class (1.2 us
        hops) despite its higher bandwidth."""
        reports = {}
        for name, inter in (("ib", IB_HDR_LIKE), ("pcie", PCIE_LIKE)):
            topology = Topology.hierarchical(2, 2, NVLINK_LIKE, inter)
            reports[name] = run_once(
                world, network=NetworkModel.from_topology(topology), cache_rows=64
            )
        flat = run_once(
            world,
            network=NetworkModel.from_topology(Topology.flat(4, NVLINK_LIKE)),
            cache_rows=64,
        )
        assert flat.mean_latency < reports["pcie"].mean_latency < reports["ib"].mean_latency
        for report in reports.values():
            assert report.cache_hit_rate == flat.cache_hit_rate
            assert report.pulled_compressed_nbytes == flat.pulled_compressed_nbytes

    def test_topology_must_span_the_tier(self, world):
        spec, dataset, config, model = world
        _, replicas, _ = build_tier(model, n_shards=2, n_replicas=4)
        small = NetworkModel.from_topology(Topology.flat(4, NVLINK_LIKE))
        with pytest.raises(ValueError, match="spans 4 ranks"):
            ServingSimulator(replicas, config, network=small)  # needs 6


class TestQueueing:
    def test_overload_shows_up_as_tail_latency(self, world):
        """Open-loop arrivals beyond capacity queue without bound: the p99
        at heavy offered load dominates the light-load p99."""
        light = run_once(world, qps=500.0, n_requests=300)
        heavy = run_once(world, qps=200_000.0, n_requests=300)
        assert heavy.p99_latency > 5 * light.p99_latency
        assert heavy.sustained_qps < 200_000.0

    def test_more_replicas_sustain_more_qps(self, world):
        """At saturating offered load, doubling replicas must raise
        sustained throughput."""
        few = run_once(world, n_replicas=1, qps=500_000.0, n_requests=600)
        many = run_once(world, n_replicas=4, qps=500_000.0, n_requests=600)
        assert many.sustained_qps > 1.5 * few.sustained_qps

    def test_interleaved_traces_are_served_in_arrival_order(self, world):
        """run() sorts by arrival, so a merged multi-class trace prices
        identically to the pre-sorted one."""
        spec, dataset, config, model = world
        _, replicas_a, _ = build_tier(model)
        sim_a = ServingSimulator(replicas_a, config)
        a = RequestLoadGenerator(dataset, qps=1500.0, seed=7).generate(80)
        b = RequestLoadGenerator(dataset, qps=1500.0, seed=8).generate(80)
        merged = sim_a.run(a + b)
        _, replicas_b, _ = build_tier(model)
        sim_b = ServingSimulator(replicas_b, config)
        presorted = sim_b.run(sorted(a + b, key=lambda r: r.arrival_seconds))
        assert dataclasses.asdict(merged) == dataclasses.asdict(presorted)

    def test_publication_window_delays_early_requests(self, world):
        spec, dataset, config, model = world
        _, replicas, _ = build_tier(model)
        sim = ServingSimulator(replicas, config)
        requests = RequestLoadGenerator(dataset, qps=2000.0, seed=7).generate(100)
        baseline = sim.run(requests)
        _, replicas2, _ = build_tier(model)
        sim2 = ServingSimulator(replicas2, config)
        delayed = sim2.run(requests, replica_available_at=0.05)
        assert delayed.max_latency > baseline.max_latency
        assert delayed.p99_latency >= baseline.p99_latency


class TestValidation:
    def test_needs_replicas(self, world):
        spec, dataset, config, model = world
        with pytest.raises(ValueError, match="at least one replica"):
            ServingSimulator([], config)

    def test_replicas_must_share_tier(self, world):
        spec, dataset, config, model = world
        _, replicas_a, _ = build_tier(model)
        _, replicas_b, _ = build_tier(model)
        with pytest.raises(ValueError, match="share one shard-server tier"):
            ServingSimulator([replicas_a[0], replicas_b[0]], config)

    def test_needs_requests(self, world):
        spec, dataset, config, model = world
        _, replicas, _ = build_tier(model)
        with pytest.raises(ValueError, match="at least one request"):
            ServingSimulator(replicas, config).run([])
