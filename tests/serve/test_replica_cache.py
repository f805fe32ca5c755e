"""InferenceReplica: hot-row LRU semantics and hit-rate monotonicity."""

from __future__ import annotations

import numpy as np
import pytest

from repro.serve import EmbeddingShardServer, InferenceReplica
from tests.conftest import cached_rows, cached_tables, hit_rate, round_robin_plan


def make_tier(n_tables=4, rows=128, dim=8, n_shards=2, cache_rows=16, seed=0):
    rng = np.random.default_rng(seed)
    sharding = round_robin_plan(n_tables, n_shards)
    servers = []
    for rank in range(n_shards):
        tables = {
            t: rng.normal(0.0, 0.05, size=(rows, dim)).astype(np.float32)
            for t in sharding.tables_of(rank)
        }
        servers.append(
            EmbeddingShardServer(tables, error_bounds=0.0, rows_per_block=32)
        )
    replica = InferenceReplica(0, servers, sharding, cache_rows=cache_rows)
    return replica, servers, sharding


def zipf_trace(n_requests, n_tables, rows, seed=1, exponent=1.4):
    rng = np.random.default_rng(seed)
    ranks = np.minimum(rng.zipf(exponent, size=(n_requests, n_tables)) - 1, rows - 1)
    return ranks.astype(np.int64)


class TestCacheSemantics:
    def test_first_gather_misses_then_hits(self):
        replica, _, _ = make_tier()
        request = np.array([3, 7, 11, 15])
        first = replica.gather(request)
        assert first.hits == 0 and first.misses == 4
        assert first.fanout == 2  # tables round-robin over 2 shard nodes
        second = replica.gather(request)
        assert second.hits == 4 and second.misses == 0
        assert second.pulls == ()

    def test_rows_match_servers(self):
        replica, servers, sharding = make_tier()
        request = np.array([5, 9, 64, 127])
        result = replica.gather(request)
        for t in range(4):
            expected = servers[sharding.owner_of(t)].pull(
                t, np.array([request[t]])
            ).rows[0]
            np.testing.assert_array_equal(result.rows[t], expected)
        # Cached path returns the identical rows.
        again = replica.gather(request)
        np.testing.assert_array_equal(again.rows, result.rows)

    def test_capacity_respected_and_lru_evicts_oldest(self):
        replica, _, _ = make_tier(n_tables=1, n_shards=1, cache_rows=3)
        for row in (0, 1, 2):
            replica.gather(np.array([row]))
        assert cached_rows(replica) == 3
        replica.gather(np.array([0]))  # refresh row 0
        replica.gather(np.array([3]))  # evicts row 1 (least recent)
        assert cached_rows(replica) == 3
        assert replica.gather(np.array([0])).hits == 1
        assert replica.gather(np.array([1])).hits == 0  # evicted

    def test_zero_capacity_disables_caching(self):
        replica, _, _ = make_tier(cache_rows=0)
        request = np.array([1, 2, 3, 4])
        replica.gather(request)
        assert replica.gather(request).hits == 0
        assert cached_rows(replica) == 0

    def test_invalidate_tables(self):
        replica, _, _ = make_tier()
        replica.gather(np.array([1, 2, 3, 4]))
        dropped = replica.invalidate_tables([0, 2])
        assert dropped == 2
        assert cached_tables(replica) == {1, 3}
        result = replica.gather(np.array([1, 2, 3, 4]))
        assert result.hits == 2 and result.misses == 2


class TestHitRateMonotonicity:
    def test_hit_rate_monotone_in_cache_size(self):
        """The satellite invariant: LRU's stack (inclusion) property makes
        the hit rate non-decreasing in capacity on any fixed trace."""
        trace = zipf_trace(600, n_tables=4, rows=128)
        rates = []
        for cache_rows in (0, 4, 16, 64, 256, 1024):
            replica, _, _ = make_tier(cache_rows=cache_rows)
            for request in trace:
                replica.gather(request)
            rates.append(hit_rate(replica))
        assert rates == sorted(rates)
        assert rates[-1] > rates[1] > 0.0  # skew makes caching productive

    def test_zipf_skew_beats_uniform(self):
        """Hot-row skew is what the cache exploits: at equal capacity a
        Zipf trace hits far more than a uniform one."""
        n, rows = 500, 128
        rng = np.random.default_rng(9)
        uniform = rng.integers(0, rows, size=(n, 4))
        skewed = zipf_trace(n, 4, rows, exponent=1.6)
        rates = {}
        for name, trace in (("uniform", uniform), ("zipf", skewed)):
            replica, _, _ = make_tier(cache_rows=32)
            for request in trace:
                replica.gather(np.asarray(request, dtype=np.int64))
            rates[name] = hit_rate(replica)
        assert rates["zipf"] > rates["uniform"] + 0.2


class TestValidation:
    def test_sharding_server_mismatch(self):
        replica, servers, sharding = make_tier()
        with pytest.raises(ValueError, match="shard ranks"):
            InferenceReplica(1, servers[:1], sharding, cache_rows=4)

    def test_missing_table_on_shard(self):
        _, servers, sharding = make_tier()
        swapped = [servers[1], servers[0]]  # wrong ownership
        with pytest.raises(ValueError, match="missing tables"):
            InferenceReplica(0, swapped, sharding, cache_rows=4)

    def test_bad_request_shape(self):
        replica, _, _ = make_tier()
        with pytest.raises(ValueError, match="one per table"):
            replica.gather(np.array([1, 2]))

    def test_negative_cache_rejected(self):
        _, servers, sharding = make_tier()
        with pytest.raises(ValueError, match="cache_rows"):
            InferenceReplica(0, servers, sharding, cache_rows=-1)
