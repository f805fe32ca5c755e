"""DeltaPublisher under corruption: detection, retry, error-feedback-safe
replay, and the staleness bound across failed rounds."""

from __future__ import annotations

import numpy as np
import pytest

from repro.adaptive import AdaptiveController, OfflineAnalyzer
from repro.data import SyntheticClickDataset, make_uniform_spec
from repro.dist import ClusterSimulator
from repro.dist.timeline import EventCategory
from repro.faults import CorruptionFault, FaultInjector, FaultPlan, RetryPolicy
from repro.model import DLRM, DLRMConfig
from repro.obs.scenario import evict_rows
from repro.serve import build_serving_tier
from repro.train import CompressionPipeline, HybridParallelTrainer
from tests.conftest import decoded_table

N_TABLES = 4
CARDINALITY = 200


@pytest.fixture()
def trainer():
    spec = make_uniform_spec(
        "faults-pub", n_tables=N_TABLES, cardinality=CARDINALITY, zipf_exponent=1.2
    )
    dataset = SyntheticClickDataset(spec, seed=51, teacher_scale=3.0)
    config = DLRMConfig.from_dataset(spec, embedding_dim=8, seed=52)
    model = DLRM(config)
    batch = dataset.batch(128, batch_index=10_000_000)
    samples = {j: model.lookup(j, batch.sparse[:, j]) for j in range(N_TABLES)}
    plan = OfflineAnalyzer().analyze(samples)
    pipeline = CompressionPipeline(AdaptiveController(plan))
    return HybridParallelTrainer(
        model, dataset, ClusterSimulator(2), pipeline=pipeline, lr=0.2
    )


def faulty_tier(trainer, corruptions, max_attempts=3, keep_stale=False):
    injector = FaultInjector(FaultPlan(corruptions=tuple(corruptions)), seed=5)
    return build_serving_tier(
        trainer,
        n_shard_ranks=2,
        n_replicas=1,
        cache_rows=64,
        retry_policy=RetryPolicy(max_attempts=max_attempts, seed=5),
        fault_injector=injector,
        keep_stale=keep_stale,
    )


class TestRetryRecovers:
    def test_corrupted_first_attempt_is_retried(self, trainer):
        tier = faulty_tier(trainer, [CorruptionFault(round_index=0, table_index=0, attempt=0)])
        trainer.train_step(64, iteration=0)
        evict_rows(trainer.model, range(N_TABLES), 3, 0, 0)
        report = tier.publisher.publish(iteration=0)
        assert report.succeeded
        assert report.attempts == 2
        assert report.corrupted_payloads == 1
        assert report.retry_backoff_seconds > 0.0
        assert tier.publisher.staleness() <= report.staleness_bound * (1 + 1e-5)

    def test_backoff_is_charged_as_retry_on_the_fabric(self, trainer):
        tier = faulty_tier(trainer, [CorruptionFault(round_index=0, table_index=0, attempt=0)])
        trainer.train_step(64, iteration=0)
        evict_rows(trainer.model, range(N_TABLES), 3, 0, 0)
        tier.publisher.publish(iteration=0)
        totals = tier.publisher.simulator.timeline.total_by_category()
        assert totals.get(EventCategory.RETRY, 0.0) > 0.0

    def test_retry_reships_the_same_payload_objects(self, trainer, monkeypatch):
        """Payloads are compressed once per round: a retry posts the very
        ``bytes`` objects of the first attempt, with only the record that
        was damaged in transit differing on that first attempt."""
        tier = faulty_tier(trainer, [CorruptionFault(round_index=0, table_index=1, attempt=0)])
        comm = tier.publisher.simulator.comm
        real = comm.compressed_all_to_all
        attempts = []

        def recording(sendbufs, *args, **kwargs):
            attempts.append([p for dst in sendbufs[0][1:] for p in dst])
            return real(sendbufs, *args, **kwargs)

        monkeypatch.setattr(comm, "compressed_all_to_all", recording)
        trainer.train_step(64, iteration=0)
        evict_rows(trainer.model, range(N_TABLES), 3, 0, 0)
        assert tier.publisher.publish(iteration=0).attempts == 2
        first, retry = attempts
        assert len(first) == len(retry) == N_TABLES
        assert all(type(p) is bytes for p in first + retry)
        assert [i for i, (a, b) in enumerate(zip(first, retry)) if a is not b] == [1]
        assert first[1] != retry[1] and len(first[1]) == len(retry[1])

    def test_clean_rounds_report_single_attempt(self, trainer):
        tier = faulty_tier(trainer, [])
        trainer.train_step(64, iteration=0)
        evict_rows(trainer.model, range(N_TABLES), 3, 0, 0)
        report = tier.publisher.publish(iteration=0)
        assert report.succeeded and report.attempts == 1
        assert report.corrupted_payloads == 0
        assert report.retry_backoff_seconds == 0.0


class TestCorruptionKeysOnTheTableRecord:
    def test_fault_on_a_skipped_table_lands_on_nothing(self, trainer):
        """``table_index`` is the table record's index in the round: a fault
        on a table that ships nothing has nothing in transit to damage,
        while one on a shipped table is detected and retried."""
        tier = faulty_tier(
            trainer,
            [
                CorruptionFault(round_index=0, table_index=0, attempt=0),
                CorruptionFault(round_index=1, table_index=1, attempt=0),
            ],
        )
        order = [t for rank in range(2) for t in tier.sharding.tables_of(rank)]
        for round_index in range(2):
            trainer.train_step(64, iteration=round_index)
            evict_rows(trainer.model, [order[1]], 3, 0, round_index)
            report = tier.publisher.publish(iteration=round_index)
            assert [r.shipped for r in report.tables] == [False, True] + [False] * (N_TABLES - 2)
            assert report.succeeded
            if round_index == 0:  # the fault named record 0, which shipped nothing
                assert (report.attempts, report.corrupted_payloads) == (1, 0)
            else:  # the fault named record 1, the shipped table
                assert (report.attempts, report.corrupted_payloads) == (2, 1)
            assert tier.publisher.staleness() <= report.staleness_bound * (1 + 1e-5)


class TestFailedRounds:
    def all_attempts_corrupt(self, round_index, max_attempts):
        return [
            CorruptionFault(round_index=round_index, table_index=0, attempt=a)
            for a in range(max_attempts)
        ]

    def test_exhausted_retries_apply_nothing(self, trainer):
        tier = faulty_tier(trainer, self.all_attempts_corrupt(0, 3))
        publisher = tier.publisher
        before = [publisher.published_table(t).copy() for t in range(N_TABLES)]
        shard_before = [
            decoded_table(tier.servers[rank], t).copy()
            for rank in range(2)
            for t in tier.sharding.tables_of(rank)
        ]
        trainer.train_step(64, iteration=0)
        evict_rows(trainer.model, range(N_TABLES), 3, 0, 0)
        report = publisher.publish(iteration=0)
        assert not report.succeeded
        assert report.attempts == 3
        assert report.downtime_seconds == 0.0  # replicas never paused
        for t in range(N_TABLES):
            assert np.array_equal(publisher.published_table(t), before[t])
        shard_after = [
            decoded_table(tier.servers[rank], t)
            for rank in range(2)
            for t in tier.sharding.tables_of(rank)
        ]
        for got, expected in zip(shard_after, shard_before):
            assert np.array_equal(got, expected)

    def test_staleness_does_not_accumulate_across_failed_rounds(self, trainer):
        """Error-feedback-safe replay: after any number of abandoned
        rounds, the next successful round lands the tier within that
        single round's bound."""
        tier = faulty_tier(trainer, self.all_attempts_corrupt(0, 3) + self.all_attempts_corrupt(1, 3))
        publisher = tier.publisher
        for round_index in range(3):
            trainer.train_step(64, iteration=round_index)
            evict_rows(trainer.model, range(N_TABLES), 3, 0, round_index)
            report = publisher.publish(iteration=round_index)
            assert report.succeeded == (round_index == 2)
        assert publisher.staleness() <= report.staleness_bound * (1 + 1e-5)

    def test_failed_round_still_counts_corruptions(self, trainer):
        tier = faulty_tier(trainer, self.all_attempts_corrupt(0, 2), max_attempts=2)
        trainer.train_step(64, iteration=0)
        evict_rows(trainer.model, range(N_TABLES), 3, 0, 0)
        report = tier.publisher.publish(iteration=0)
        assert report.corrupted_payloads == 2


class TestConfiguration:
    def test_an_unchecked_tier_cannot_be_built(self, trainer):
        """Every frame carries its CRC32, so ``checksum`` takes only
        ``True`` (or its default); ``False`` is refused, with or without a
        corruption plan."""
        injector = FaultInjector(FaultPlan(corruptions=(CorruptionFault(round_index=0),)))
        for fault_injector in (None, injector):
            with pytest.raises(ValueError, match="every frame carries a CRC32"):
                build_serving_tier(
                    trainer, 2, 1, cache_rows=64, checksum=False, fault_injector=fault_injector
                )
        tier = build_serving_tier(trainer, 2, 1, cache_rows=64, checksum=True)
        assert not hasattr(tier.publisher, "checksum")

    def test_corrupted_raw_publication_is_retried_and_exact(self, trainer):
        """Raw deltas ship as ``raw`` frames, so the same CRC32 check
        catches their corruption: the round retries and then applies the
        trainer's tables exactly."""
        injector = FaultInjector(
            FaultPlan(corruptions=(CorruptionFault(round_index=0, table_index=0, attempt=0),)), seed=5
        )
        tier = build_serving_tier(
            trainer, 2, 1, cache_rows=64, compress_publication=False,
            retry_policy=RetryPolicy(max_attempts=2, seed=5), fault_injector=injector,
        )
        trainer.train_step(64, iteration=0)
        report = tier.publisher.publish(iteration=0)
        assert report.succeeded and report.attempts == 2 and report.corrupted_payloads == 1
        for t in range(N_TABLES):
            assert np.array_equal(tier.publisher.published_table(t), trainer.model.tables[t].weight.data)
