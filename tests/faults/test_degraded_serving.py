"""ServingSimulator under faults: retries, breakers, stale fallback, and
the no-silent-degradation accounting invariants."""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import SyntheticClickDataset, make_uniform_spec
from repro.dist import LinkSpec, NetworkModel, Topology
from repro.faults import (
    FaultInjector,
    FaultPlan,
    LinkFault,
    RetryPolicy,
    ShardCrashFault,
)
from repro.model import DLRM, DLRMConfig
from repro.serve import (
    EmbeddingShardServer,
    InferenceReplica,
    Request,
    RequestLoadGenerator,
    ServingSimulator,
)
from repro.train.sharding import ShardingPlan

N_TABLES = 6
ROWS = 300
QPS = 2000.0


@pytest.fixture(scope="module")
def world():
    spec = make_uniform_spec(
        "faults-serve", n_tables=N_TABLES, cardinality=ROWS, zipf_exponent=1.4
    )
    dataset = SyntheticClickDataset(spec, seed=61)
    config = DLRMConfig.from_dataset(spec, embedding_dim=8, seed=62)
    model = DLRM(config)
    return dataset, config, model


def build_replicas(model, cache_rows=256, n_replicas=2, keep_stale=False):
    sharding = ShardingPlan.round_robin(N_TABLES, 2)
    servers = [
        EmbeddingShardServer.from_model(
            model, sharding.tables_of(rank), error_bound=1e-2, rows_per_block=32
        )
        for rank in range(2)
    ]
    return [
        InferenceReplica(i, servers, sharding, cache_rows, keep_stale=keep_stale)
        for i in range(n_replicas)
    ]


def run_faulty(world, crashes, *, n_requests=150, max_attempts=2, timeout=0.005,
               cache_rows=256, keep_stale=False, hedge_delay=None):
    dataset, config, model = world
    replicas = build_replicas(model, cache_rows=cache_rows, keep_stale=keep_stale)
    injector = FaultInjector(FaultPlan(shard_crashes=tuple(crashes)), seed=1)
    sim = ServingSimulator(
        replicas,
        config,
        fault_injector=injector,
        retry_policy=RetryPolicy(
            max_attempts=max_attempts, timeout_seconds=timeout, seed=1
        ),
        hedge_delay=hedge_delay,
        breaker_reset_seconds=0.01,
    )
    requests = RequestLoadGenerator(dataset, qps=QPS, seed=9).generate(n_requests)
    return sim.run(requests)


class TestHealthyEquivalence:
    def test_no_injector_path_is_untouched(self, world):
        """Without fault kwargs the report matches the pre-fault baseline
        shape: zero retries/timeouts/degradations, and two identical runs
        agree exactly."""
        dataset, config, model = world
        reports = []
        for _ in range(2):
            replicas = build_replicas(model)
            sim = ServingSimulator(replicas, config)
            requests = RequestLoadGenerator(dataset, qps=QPS, seed=9).generate(100)
            reports.append(sim.run(requests))
        a, b = reports
        assert a == b
        assert a.impaired_requests == 0
        assert a.pull_retries == a.pull_timeouts == a.breaker_fast_fails == 0
        assert a.stale_rows == a.degraded_rows == 0
        assert a.fresh_requests == a.n_requests

    def test_faulty_path_with_empty_plan_serves_everything_fresh(self, world):
        report = run_faulty(world, [])
        assert report.impaired_requests == 0
        assert report.stale_rows == report.degraded_rows == 0
        assert report.pull_timeouts == report.breaker_fast_fails == 0
        assert report.fresh_requests == report.n_requests

    def test_empty_fault_plan_is_the_healthy_run(self, world):
        """One path: an injector with nothing planned (with or without a
        retry policy) reports exactly what the no-keyword simulator does,
        to the last bit of every latency."""
        dataset, config, model = world
        requests = RequestLoadGenerator(dataset, qps=QPS, seed=9).generate(150)
        plain = ServingSimulator(build_replicas(model), config).run(requests)
        empty = ServingSimulator(
            build_replicas(model), config, fault_injector=FaultInjector(FaultPlan())
        ).run(requests)
        assert empty == plain
        assert run_faulty(world, []) == plain

    @pytest.mark.parametrize("n_ids", [N_TABLES - 1, N_TABLES + 1])
    def test_wrong_length_request_rejected_with_or_without_faults(self, world, n_ids):
        """The fault-configured simulator validates ``request.sparse`` like
        the plain one (it used to IndexError when short and silently
        truncate when long)."""
        dataset, config, model = world
        request = Request(0, 0.0, np.zeros(n_ids, dtype=np.int64), np.zeros(config.n_dense))
        plain = ServingSimulator(build_replicas(model), config)
        faulty = ServingSimulator(
            build_replicas(model),
            config,
            fault_injector=FaultInjector(FaultPlan()),
            retry_policy=RetryPolicy(max_attempts=2),
        )
        messages = []
        for sim in (plain, faulty):
            with pytest.raises(ValueError, match="one per table") as caught:
                sim.run([request])
            messages.append(str(caught.value))
        assert messages[0] == messages[1]


class TestCrashedShard:
    def test_permanent_crash_degrades_but_answers(self, world):
        """Shard 0 down the whole trace: every request still completes,
        misses on shard-0 tables degrade, and the breaker converts the
        steady state into fast-fails instead of timeout queues."""
        report = run_faulty(
            world, [ShardCrashFault(shard_rank=0, start=0.0, duration=1e6)],
            cache_rows=0,  # every lookup must pull
        )
        assert report.n_requests == report.fresh_requests + report.impaired_requests
        assert report.impaired_requests == report.n_requests  # shard 0 owns 3 tables
        assert report.degraded_rows > 0
        assert report.pull_timeouts > 0
        assert report.breaker_fast_fails > 0
        assert report.breaker_fast_fails > report.pull_timeouts  # fail-fast dominates

    def test_short_crash_recovers_via_retries(self, world):
        """A crash shorter than the retry budget: requests ride it out
        with retries and nothing is silently degraded."""
        report = run_faulty(
            world,
            [ShardCrashFault(shard_rank=0, start=0.0, duration=0.004)],
            max_attempts=3,
            timeout=0.005,
        )
        assert report.pull_retries + report.pull_timeouts > 0
        assert report.n_requests == report.fresh_requests + report.impaired_requests

    def test_stale_fallback_served_from_pre_publication_copy(self, world):
        """keep_stale replicas answer a crashed shard from the displaced
        copy — counted stale, not silently fresh, and numerically equal to
        what the cache held before invalidation."""
        dataset, config, model = world
        replicas = build_replicas(model, keep_stale=True)
        replica = replicas[0]
        shard0_tables = [t for t in range(N_TABLES) if replica.sharding.owner_of(t) == 0]
        # Warm the cache through the one gather, then invalidate (as a
        # delta publication would).
        row_id = 7
        sparse = np.full(N_TABLES, row_id, dtype=np.int64)
        warmed = replica.gather(sparse).rows.copy()
        assert replica.invalidate_tables(shard0_tables) == len(shard0_tables)
        for t in shard0_tables:
            stale = replica.stale_lookup(t, row_id)
            assert stale is not None
            assert np.array_equal(stale, warmed[t])
        assert replica.stale_lookup(shard0_tables[0], row_id + 1) is None
        # ... and the gather answers shard 0's tables from exactly that copy.
        result = replica.gather(sparse, deliver=lambda rank, pulls: rank != 0)
        assert result.stale_rows == len(shard0_tables) and result.degraded_rows == 0
        assert np.array_equal(result.rows, warmed)

    def test_hedged_pulls_fire_when_primary_is_slow(self, world):
        report = run_faulty(world, [], hedge_delay=1e-9, cache_rows=0)
        assert report.hedged_pulls > 0
        assert report.impaired_requests == 0


class TestDegradedLinkPricing:
    """``bandwidth_factor`` degrades throughput and ``extra_latency`` adds
    a per-message spike — on every fabric, by one formula."""

    LATENCY = 100e-6
    BANDWIDTH = 1e9

    def price(self, world, network, link_fault, nbytes=1000):
        _, config, model = world
        sim = ServingSimulator(
            build_replicas(model),
            config,
            network=network,
            fault_injector=FaultInjector(FaultPlan(links=(link_fault,))),
        )
        during = sim._pull_wire_seconds(0, 0, nbytes, link_fault.start)
        after = sim._pull_wire_seconds(0, 0, nbytes, link_fault.end)
        return during, after

    def fabrics(self):
        link = LinkSpec(self.BANDWIDTH, self.LATENCY)
        return (
            NetworkModel(bandwidth=self.BANDWIDTH, latency=self.LATENCY),
            NetworkModel.from_topology(Topology.flat(4, link)),
        )

    def test_flat_and_topology_fabrics_price_a_degraded_pull_equally(self, world):
        fault = LinkFault(start=0.0, duration=1.0, bandwidth_factor=0.5, extra_latency=7e-6)
        flat, topo = (self.price(world, network, fault) for network in self.fabrics())
        assert flat == topo
        during, after = flat
        # latency is not scaled (it was, on the flat fabric: 202 us vs 102 us
        # for this pull at factor 0.5 with no spike); throughput halves
        assert during == self.LATENCY + 7e-6 + 1000 / (self.BANDWIDTH * 0.5)
        assert after == self.LATENCY + 1000 / self.BANDWIDTH

    def test_severed_link_is_unreachable_on_both(self, world):
        fault = LinkFault(start=0.0, duration=1.0, outage=True)
        for network in self.fabrics():
            during, after = self.price(world, network, fault)
            assert during is None and after is not None


class TestGatherServesWhatItCounts:
    """The request path returns the rows it claims to serve: driving
    ``gather`` with shard 0's pull groups undelivered."""

    @staticmethod
    def shard0_down(rank, pulls):
        return rank != 0

    def test_degraded_stale_and_delivered_rows(self, world):
        dataset, config, model = world
        replica = build_replicas(model, keep_stale=True)[0]
        owner = replica.sharding.owner_of
        warm = np.arange(N_TABLES, dtype=np.int64) + 3
        pre_publication = replica.gather(warm).rows.copy()
        replica.invalidate_tables(range(N_TABLES))
        cold = warm + 50  # rows the stale store has never seen
        for sparse, fallback in ((warm, "stale"), (cold, "degraded")):
            result = replica.gather(sparse, deliver=self.shard0_down)
            assert result.rows.shape == (N_TABLES, config.embedding_dim)
            assert result.rows.dtype == np.float32
            assert result.hits + result.misses == N_TABLES
            undelivered = [t for t in range(N_TABLES) if owner(t) == 0]
            assert result.stale_rows == (len(undelivered) if fallback == "stale" else 0)
            assert result.degraded_rows == (len(undelivered) if fallback == "degraded" else 0)
            assert set(result.pull_ranks) == {1} and result.fanout == 1
            assert len(result.pulls) == N_TABLES - len(undelivered)
            for t in range(N_TABLES):
                if owner(t) != 0:  # delivered: a fresh decode within the bound
                    exact = model.lookup(t, sparse[t : t + 1])[0]
                    bound = replica.servers[1].error_bound(t)
                    assert np.max(np.abs(result.rows[t] - exact)) <= bound * (1 + 1e-6)
                    assert (t, int(sparse[t])) in replica._cache
                    continue
                assert (t, int(sparse[t])) not in replica._cache  # never admitted
                if fallback == "stale":
                    assert np.array_equal(result.rows[t], pre_publication[t])
                else:
                    assert not result.rows[t].any()
        # lifetime accounting covers every lookup of all three gathers
        assert replica.hits + replica.misses == 3 * N_TABLES

    def test_default_delivers_everything(self, world):
        _, _, model = world
        a, b = build_replicas(model)
        sparse = np.arange(N_TABLES, dtype=np.int64)
        implicit = a.gather(sparse)
        explicit = b.gather(sparse, deliver=lambda rank, pulls: True)
        assert implicit.stale_rows == implicit.degraded_rows == 0
        assert np.array_equal(implicit.rows, explicit.rows)
        assert implicit.pull_ranks == explicit.pull_ranks
        assert list(a._cache) == list(b._cache)  # admission order is table order

    def test_deliver_asked_once_per_contacted_shard_in_rank_order(self, world):
        _, _, model = world
        replica = build_replicas(model)[0]
        asked = []

        def deliver(rank, pulls):
            asked.append((rank, [p.table_id for p in pulls]))
            return True

        replica.gather(np.zeros(N_TABLES, dtype=np.int64), deliver=deliver)
        assert asked == [(0, [0, 2, 4]), (1, [1, 3, 5])]
        asked.clear()
        replica.gather(np.zeros(N_TABLES, dtype=np.int64), deliver=deliver)
        assert asked == []  # all hits: no shard contacted


class TestOnePath:
    """Guard: the forked request path and its replica hooks stay gone."""

    def test_fork_names_appear_nowhere_under_src(self):
        import repro

        banned = re.compile(
            r"\b(_service_under_faults|_pull_wire_seconds_at|_faulty|cache_lookup|admit_row)\b"
        )
        offenders = [
            f"{path}:{number}"
            for path in sorted(Path(repro.__file__).parent.rglob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if banned.search(line)
        ]
        assert offenders == []


class TestAccountingInvariants:
    @settings(deadline=None, max_examples=12)
    @given(
        start=st.floats(min_value=0.0, max_value=0.05),
        duration=st.floats(min_value=1e-4, max_value=0.2),
        shard=st.integers(min_value=0, max_value=1),
    )
    def test_no_silent_degradation_under_any_outage_window(
        self, world, start, duration, shard
    ):
        """Hypothesis sweep: whatever the crash window, every request is
        accounted fresh xor impaired, degraded/stale rows appear only on
        impaired requests, and determinism holds per window."""
        crashes = [ShardCrashFault(shard_rank=shard, start=start, duration=duration)]
        report = run_faulty(world, crashes)
        assert report.n_requests == report.fresh_requests + report.impaired_requests
        if report.impaired_requests == 0:
            assert report.stale_rows == report.degraded_rows == 0
        else:
            assert report.stale_rows + report.degraded_rows > 0
        assert report.stale_requests <= report.impaired_requests
        assert report.degraded_requests <= report.impaired_requests
        # Every lookup is a hit, a fresh decode (one block per delivered
        # single-row pull), or counted stale/degraded — nothing else.
        assert report.hits + report.misses == report.n_requests * N_TABLES
        not_fresh = report.misses - report.blocks_pulled
        assert report.stale_rows + report.degraded_rows == not_fresh
        assert run_faulty(world, crashes) == report  # deterministic replay
