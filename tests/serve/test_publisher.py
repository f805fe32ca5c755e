"""DeltaPublisher: bounded staleness, error feedback, wire accounting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.adaptive import AdaptiveController, OfflineAnalyzer
from repro.compression import decompress_any
from repro.compression.serialization import has_checksum, verify_checksum_frame
from repro.data import SyntheticClickDataset, make_uniform_spec
from repro.dist import ClusterSimulator
from repro.model import DLRM, DLRMConfig
from repro.obs.scenario import evict_rows
from repro.serve import (
    DeltaPublisher,
    EmbeddingShardServer,
    InferenceReplica,
    ServingTier,
    build_serving_tier,
)
from repro.train import CompressionPipeline, HybridParallelTrainer, ShardingPlan
from tests.conftest import cached_rows, decoded_table

N_TABLES = 5
CARDINALITY = 300


@pytest.fixture()
def trainer():
    spec = make_uniform_spec(
        "serve-pub", n_tables=N_TABLES, cardinality=CARDINALITY, zipf_exponent=1.2
    )
    dataset = SyntheticClickDataset(spec, seed=31, teacher_scale=3.0)
    config = DLRMConfig.from_dataset(spec, embedding_dim=8, seed=32)
    model = DLRM(config)
    batch = dataset.batch(128, batch_index=10_000_000)
    samples = {j: model.lookup(j, batch.sparse[:, j]) for j in range(N_TABLES)}
    plan = OfflineAnalyzer().analyze(samples)
    pipeline = CompressionPipeline(AdaptiveController(plan))
    return HybridParallelTrainer(
        model, dataset, ClusterSimulator(2), pipeline=pipeline, lr=0.2
    )


def trainer_table(trainer, t):
    return trainer.model.tables[t].weight.data.astype(np.float32)


def lossless_tier(trainer, n_shard_ranks, n_replicas, cache_rows, **publisher_kwargs):
    """A tier whose shards store losslessly (bound 0), assembled from its
    parts the way ``build_serving_tier`` assembles the adaptive one."""
    sharding = ShardingPlan.size_balanced(
        list(trainer.model.config.table_cardinalities), n_shard_ranks
    )
    servers = tuple(
        EmbeddingShardServer({t: trainer_table(trainer, t) for t in sharding.tables_of(rank)}, 0.0)
        for rank in range(n_shard_ranks)
    )
    replicas = tuple(InferenceReplica(i, servers, sharding, cache_rows) for i in range(n_replicas))
    publisher = DeltaPublisher(trainer, servers, replicas, sharding=sharding, **publisher_kwargs)
    return ServingTier(servers=servers, replicas=replicas, publisher=publisher, sharding=sharding)


class TestStalenessBound:
    def test_published_state_within_bound_after_each_round(self, trainer):
        """The satellite test: error feedback keeps |trainer - published|
        within the per-table publication bound after *every* round — the
        bound does not accumulate across publications."""
        tier = build_serving_tier(trainer, n_shard_ranks=2, n_replicas=1, cache_rows=64)
        publisher = tier.publisher
        controller = trainer.pipeline.controller
        for round_index in range(4):
            trainer.train_step(64, iteration=round_index)
            report = publisher.publish(iteration=round_index)
            for t in range(N_TABLES):
                bound = controller.error_bound(t, round_index)
                gap = np.max(
                    np.abs(trainer_table(trainer, t) - publisher.published_table(t))
                )
                assert gap <= bound * (1 + 1e-5), f"table {t}, round {round_index}"
            assert report.max_abs_error <= report.staleness_bound * (1 + 1e-5)
            assert publisher.staleness() <= report.staleness_bound * (1 + 1e-5)

    def test_served_rows_within_publication_plus_storage_bound(self, trainer):
        """End-to-end: a row served from the recompressed shard is within
        (publication bound + shard-storage bound) of the trainer's row."""
        tier = build_serving_tier(trainer, n_shard_ranks=2, n_replicas=1, cache_rows=0)
        controller = trainer.pipeline.controller
        trainer.train_step(64, iteration=0)
        tier.publisher.publish(iteration=0)
        for rank, server in enumerate(tier.servers):
            for t in tier.sharding.tables_of(rank):
                stored = decoded_table(server, t)
                total_bound = controller.error_bound(t, 0) + server.error_bound(t)
                gap = np.max(np.abs(stored - trainer_table(trainer, t)))
                assert gap <= total_bound * (1 + 1e-5)

    def test_lossless_shards_meet_publication_bound_exactly(self, trainer):
        tier = lossless_tier(trainer, n_shard_ranks=2, n_replicas=1, cache_rows=0)
        trainer.train_step(64, iteration=0)
        report = tier.publisher.publish(iteration=0)
        for rank, server in enumerate(tier.servers):
            for t in tier.sharding.tables_of(rank):
                gap = np.max(np.abs(decoded_table(server, t) - trainer_table(trainer, t)))
                bound = trainer.pipeline.controller.error_bound(t, 0)
                assert gap <= bound * (1 + 1e-5)
        assert report.staleness_bound > 0

    def test_raw_publication_is_exact(self, trainer):
        tier = lossless_tier(trainer, n_shard_ranks=2, n_replicas=1, cache_rows=0, compress=False)
        trainer.train_step(64, iteration=0)
        report = tier.publisher.publish(iteration=0)
        assert report.staleness_bound == 0.0
        assert report.max_abs_error == 0.0
        for rank, server in enumerate(tier.servers):
            for t in tier.sharding.tables_of(rank):
                np.testing.assert_array_equal(
                    decoded_table(server, t), trainer_table(trainer, t)
                )


class TestWireAccounting:
    def test_compressed_ships_fewer_bytes_than_raw(self, trainer):
        compressed_tier = build_serving_tier(trainer, 2, 1, cache_rows=0)
        raw_tier = build_serving_tier(
            trainer, 2, 1, cache_rows=0, compress_publication=False
        )
        trainer.train_step(64, iteration=0)
        compressed = compressed_tier.publisher.publish(iteration=0)
        raw = raw_tier.publisher.publish(iteration=0)
        assert compressed.raw_nbytes == raw.raw_nbytes == raw.wire_nbytes
        assert compressed.wire_nbytes < raw.wire_nbytes
        assert compressed.compression_ratio > 2.0
        assert raw.compression_ratio == pytest.approx(1.0)

    def test_wire_priced_through_the_communicator(self, trainer):
        tier = build_serving_tier(trainer, 2, 1, cache_rows=0)
        trainer.train_step(64, iteration=0)
        evict_rows(trainer.model, range(N_TABLES), 3, 0, 0)
        report = tier.publisher.publish(iteration=0)
        assert report.wire_seconds > 0
        events = tier.publisher.simulator.timeline.events
        assert events, "publication must charge the publication fabric"
        categories = {str(e.category) for e in events}
        assert "alltoall_fwd" in categories
        assert "metadata" in categories  # stage-② of the compressed exchange
        assert report.downtime_seconds >= report.wire_seconds

    def test_per_table_records(self, trainer):
        tier = build_serving_tier(trainer, 2, 1, cache_rows=0)
        trainer.train_step(64, iteration=0)
        evict_rows(trainer.model, range(N_TABLES), 3, 0, 0)
        report = tier.publisher.publish(iteration=0)
        assert sorted(t.table_id for t in report.tables) == list(range(N_TABLES))
        for record in report.tables:
            assert record.wire_nbytes > 0
            assert record.raw_nbytes == CARDINALITY * 8 * 4
            assert record.codec == trainer.pipeline.controller.compressor_name(
                record.table_id
            )


def capture_shipped(monkeypatch, publisher):
    """Record, per exchange call, the payloads rank 0 posts to the shard
    ranks, flattened in rank order (the publisher's record order)."""
    shipped: list[list] = []
    comm = publisher.simulator.comm
    for name in ("compressed_all_to_all", "all_to_all"):
        real = getattr(comm, name)

        def call(sendbufs, *args, _real=real, **kwargs):
            shipped.append([p for dst in sendbufs[0][1:] for p in dst])
            return _real(sendbufs, *args, **kwargs)

        monkeypatch.setattr(comm, name, call)
    return shipped


class TestWirePayloads:
    @pytest.mark.parametrize("compress", [True, False], ids=["compressed", "raw"])
    @pytest.mark.parametrize("checksum", [False, True], ids=["plain", "framed"])
    def test_shipped_payloads_are_bytes_that_decode_to_the_applied_delta(
        self, trainer, monkeypatch, compress, checksum
    ):
        tier = build_serving_tier(
            trainer, 2, 1, cache_rows=0, compress_publication=compress, checksum=checksum
        )
        publisher = tier.publisher
        shipped = capture_shipped(monkeypatch, publisher)
        for round_index in range(2):
            before = {t: publisher.published_table(t).copy() for t in range(N_TABLES)}
            trainer.train_step(64, iteration=round_index)
            evict_rows(trainer.model, range(N_TABLES), 3, 0, round_index)
            report = publisher.publish(iteration=round_index)
            payloads = shipped[round_index]
            assert len(payloads) == len(report.tables) == N_TABLES
            for record, payload in zip(report.tables, payloads):
                t = record.table_id
                assert type(payload) is bytes
                assert len(payload) == record.wire_nbytes
                assert has_checksum(payload) == checksum
                after = publisher.published_table(t)
                if compress:
                    np.testing.assert_array_equal(before[t] + decompress_any(payload), after)
                else:
                    body = verify_checksum_frame(payload) if checksum else payload
                    delta = np.frombuffer(body, dtype=np.float32).reshape(after.shape)
                    np.testing.assert_array_equal(delta, trainer_table(trainer, t) - before[t])
                    np.testing.assert_array_equal(after, trainer_table(trainer, t))


class TestReplicaInvalidation:
    def test_publication_drops_stale_cached_rows(self, trainer):
        tier = build_serving_tier(trainer, 2, 1, cache_rows=256)
        replica = tier.replicas[0]
        replica.gather(np.arange(N_TABLES) % CARDINALITY)
        assert cached_rows(replica) == N_TABLES
        trainer.train_step(64, iteration=0)
        evict_rows(trainer.model, range(N_TABLES), 3, 0, 0)
        tier.publisher.publish(iteration=0)
        assert cached_rows(replica) == 0  # every table updated -> every row stale

    def test_cache_refill_serves_fresh_rows(self, trainer):
        tier = lossless_tier(trainer, 2, 1, cache_rows=256)
        replica = tier.replicas[0]
        request = np.arange(N_TABLES) % CARDINALITY
        replica.gather(request)
        trainer.train_step(64, iteration=0)
        tier.publisher.publish(iteration=0)
        fresh = replica.gather(request)
        for t in range(N_TABLES):
            np.testing.assert_array_equal(
                fresh.rows[t], tier.publisher.published_table(t)[request[t]]
            )


class TestValidation:
    def test_compressed_publication_needs_pipeline(self, trainer):
        bare = HybridParallelTrainer(
            trainer.model, trainer.dataset, ClusterSimulator(2), lr=0.2
        )
        with pytest.raises(ValueError, match="CompressionPipeline"):
            build_serving_tier(bare, 2, 1, cache_rows=0)

    def test_raw_publication_works_without_pipeline(self, trainer):
        bare = HybridParallelTrainer(
            trainer.model, trainer.dataset, ClusterSimulator(2), lr=0.2
        )
        tier = build_serving_tier(bare, 2, 1, cache_rows=0, compress_publication=False)
        evict_rows(bare.model, range(N_TABLES), 3, 0, 0)
        report = tier.publisher.publish()
        assert report.wire_nbytes == report.raw_nbytes

    def test_too_many_shard_ranks(self, trainer):
        with pytest.raises(ValueError, match="cannot populate"):
            build_serving_tier(trainer, N_TABLES + 1, 1, cache_rows=0)

    def test_sharding_required_without_replicas(self, trainer):
        tier = build_serving_tier(trainer, 2, 1, cache_rows=0)
        with pytest.raises(ValueError, match="sharding"):
            DeltaPublisher(trainer, tier.servers, ())
