"""The publication skip rule: a table whose delta is within its bound ships
nothing and re-encodes nothing.

``DeltaPublisher.publish`` skips a table when
``max|float32(current) - published| <= bound`` (the bound is 0 in raw mode).
The laws here are counted, not timed: a skipped table costs no compress, no
decode, no exchange, no ``set_table`` and no replica invalidation, and keeps
its published state and shard bytes bit for bit; a shipped table's payload
is the bytes the always-ship publisher put on the wire: every codec is
stateless, so they are a fresh codec's bytes for that delta.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adaptive import AdaptiveController, OfflineAnalyzer
from repro.adaptive.offline import CompressionPlan
from repro.compression.base import Compressor, frame_payload
from repro.compression.registry import get_compressor
from repro.compression.hybrid import HybridCompressor
from repro.data import SyntheticClickDataset, make_uniform_spec
from repro.dist import ClusterSimulator
from repro.dist.timeline import EventCategory
from repro.model import DLRM, DLRMConfig
from repro.obs.scenario import evict_rows
from repro.serve import EmbeddingShardServer, InferenceReplica, build_serving_tier
from repro.serve import publisher as publisher_module
from repro.train import CompressionPipeline, HybridParallelTrainer
from tests.conftest import cached_tables

N_TABLES = 4
CARDINALITY = 200
DIM = 8

SPEC = make_uniform_spec("publish-skip", n_tables=N_TABLES, cardinality=CARDINALITY, zipf_exponent=1.2)
DATASET = SyntheticClickDataset(SPEC, seed=61, teacher_scale=3.0)
CONFIG = DLRMConfig.from_dataset(SPEC, embedding_dim=DIM, seed=62)


def _base_plan() -> CompressionPlan:
    model = DLRM(CONFIG)
    batch = DATASET.batch(128, batch_index=10_000_000)
    return OfflineAnalyzer().analyze(
        {j: model.lookup(j, batch.sparse[:, j]) for j in range(N_TABLES)}
    )


BASE_PLAN = _base_plan()


def make_trainer(codecs=None, bounds=None) -> HybridParallelTrainer:
    """A fresh trainer whose controller uses ``codecs[t]`` / ``bounds[t]``
    for table ``t`` (the offline plan's choice where not given)."""
    plan = BASE_PLAN
    if codecs is not None:
        tables = {
            t: replace(plan.tables[t], compressor=codecs[t], error_bound=bounds[t])
            for t in range(N_TABLES)
        }
        plan = CompressionPlan(tables, plan.levels, plan.global_error_bound)
    return HybridParallelTrainer(
        DLRM(CONFIG),
        DATASET,
        ClusterSimulator(2),
        pipeline=CompressionPipeline(AdaptiveController(plan)),
        lr=0.2,
    )


def record_order(tier) -> list[int]:
    """Table ids in the order of a round's table records (shard order)."""
    return [t for rank in range(len(tier.servers)) for t in tier.sharding.tables_of(rank)]


class CallCounts:
    """Counts the calls a publication round makes into each stage."""

    def __init__(self, monkeypatch, tier):
        self.calls: Counter = Counter()
        self.invalidated: list[list[int]] = []
        comm = tier.publisher.simulator.comm
        for owner, name in (
            (Compressor, "compress"),
            (HybridCompressor, "compress"),
            (publisher_module, "decompress_any"),
            (publisher_module, "frame_payload"),
            (publisher_module, "unpack_meta"),
            (EmbeddingShardServer, "set_table"),
            (comm, "compressed_all_to_all"),
            (comm, "all_to_all"),
        ):
            monkeypatch.setattr(owner, name, self._counting(name, getattr(owner, name)))
        real_invalidate = InferenceReplica.invalidate_tables

        def invalidate(replica, table_ids):
            self.calls["invalidate_tables"] += 1
            self.invalidated.append(list(table_ids))
            return real_invalidate(replica, table_ids)

        monkeypatch.setattr(InferenceReplica, "invalidate_tables", invalidate)

    def _counting(self, name, real):
        def call(*args, **kwargs):
            self.calls[name] += 1
            return real(*args, **kwargs)

        return call


class TestWithinBoundRoundDoesNoWork:
    @pytest.mark.parametrize("compress", [True, False], ids=["compressed", "raw"])
    def test_zero_calls_into_every_stage(self, monkeypatch, compress):
        trainer = make_trainer()
        tier = build_serving_tier(trainer, 2, 2, cache_rows=64, compress_publication=compress)
        if compress:
            trainer.train_step(64, iteration=0)  # a few steps stay within the bound
        counts = CallCounts(monkeypatch, tier)
        report = tier.publisher.publish(iteration=0)
        assert not any(record.shipped for record in report.tables)
        assert counts.calls == Counter()

    def test_report_and_fabric_of_an_empty_round(self):
        trainer = make_trainer()
        tier = build_serving_tier(trainer, 2, 1, cache_rows=64)
        trainer.train_step(64, iteration=0)
        report = tier.publisher.publish(iteration=0)
        assert len(report.tables) == N_TABLES
        assert report.attempts == 0 and report.succeeded
        assert report.wire_nbytes == 0 and report.corrupted_payloads == 0
        assert report.wire_seconds == report.compress_seconds == 0.0
        assert report.apply_seconds == (0.0, 0.0) and report.downtime_seconds == 0.0
        assert report.raw_nbytes == N_TABLES * CARDINALITY * DIM * 4
        for record in report.tables:
            assert record.wire_nbytes == 0 and not record.shipped
            assert 0.0 < record.max_abs_error <= record.error_bound
        # nothing is charged to the publication fabric; the PUBLISH span stays
        timeline = tier.publisher.simulator.timeline
        assert tier.publisher.simulator.makespan() == 0.0
        spans = [e for e in timeline.events if e.category == EventCategory.PUBLISH]
        assert len(spans) == 1 and spans[0].duration == 0.0
        assert {e.category for e in timeline.events} == {EventCategory.PUBLISH}


class TestOnlyShippedTablesAreApplied:
    def test_one_table_past_its_bound_ships_alone(self, monkeypatch):
        trainer = make_trainer()
        tier = build_serving_tier(trainer, 2, 2, cache_rows=64)
        trainer.train_step(64, iteration=0)
        moved = record_order(tier)[2]
        evict_rows(trainer.model, [moved], 3, 0, 0)
        counts = CallCounts(monkeypatch, tier)
        report = tier.publisher.publish(iteration=0)
        assert [r.table_id for r in report.tables if r.shipped] == [moved]
        assert report.wire_nbytes == report.tables[2].wire_nbytes > 0
        assert report.attempts == 1
        for name in ("decompress_any", "set_table", "compressed_all_to_all"):
            assert counts.calls[name] == 1, name
        assert counts.calls["all_to_all"] == 0
        assert counts.invalidated == [[moved], [moved]]  # one call per replica

    def test_replicas_keep_the_rows_of_unshipped_tables(self):
        trainer = make_trainer()
        tier = build_serving_tier(trainer, 2, 1, cache_rows=256)
        replica = tier.replicas[0]
        replica.gather(np.arange(N_TABLES) * 7 % CARDINALITY)
        assert cached_tables(replica) == set(range(N_TABLES))
        trainer.train_step(64, iteration=0)
        evict_rows(trainer.model, [1], 3, 0, 0)
        tier.publisher.publish(iteration=0)
        assert cached_tables(replica) == set(range(N_TABLES)) - {1}

    def test_shipped_tables_are_priced_unshipped_are_not(self):
        """Apply time is charged per shipped table: a shard node none of
        whose tables ship is charged nothing."""
        trainer = make_trainer()
        tier = build_serving_tier(trainer, 2, 1, cache_rows=0)
        trainer.train_step(64, iteration=0)
        moved = tier.sharding.tables_of(1)[0]
        evict_rows(trainer.model, [moved], 3, 0, 0)
        report = tier.publisher.publish(iteration=0)
        assert report.apply_seconds[0] == 0.0 < report.apply_seconds[1]
        assert report.compress_seconds > 0 and report.wire_seconds > 0

    def test_nan_delta_is_never_skipped(self):
        trainer = make_trainer()
        tier = build_serving_tier(trainer, 2, 1, cache_rows=0)
        trainer.model.tables[0].weight.data[5, 2] = np.nan
        with pytest.raises(ValueError):
            tier.publisher.publish(iteration=0)


# ---------------------------------------------------------------------------
# the skip law, over deltas straddling the bound

#: multiples of the bound a table's largest delta element is drawn at: 1.0
#: sits on the bound (float32 rounding puts it just either side)
FACTORS = (0.0, 0.25, 0.999, 1.0, 1.001, 1.5, 4.0)

rounds_strategy = st.lists(
    st.lists(
        st.tuples(st.sampled_from(FACTORS), st.integers(0, 2**16), st.booleans()),
        min_size=N_TABLES,
        max_size=N_TABLES,
    ),
    min_size=1,
    max_size=3,
)


def straddling_delta(
    published: np.ndarray, bound: float, factor: float, seed: int, dense: bool
) -> np.ndarray:
    """A float32 delta over every row (``dense``) or over a few, whose
    largest magnitude is ``factor * bound`` (0.01 stands in for the bound
    in raw mode).  Past the bound, the hybrid codec's vector-LZ leg wins on
    a sparse delta and its entropy leg on a dense one, so a sequence of
    draws exercises both legs."""
    rng = np.random.default_rng(seed)
    scale = np.float32(factor * (bound if bound > 0 else 1e-2))
    delta = np.zeros_like(published)
    n_rows = published.shape[0] if dense else 3
    rows = rng.permutation(published.shape[0])[:n_rows]
    noise = rng.uniform(-1.0, 1.0, size=(n_rows, published.shape[1])).astype(np.float32)
    delta[rows] = noise * scale
    delta[rows[0], int(rng.integers(published.shape[1]))] = scale * (1 if seed % 2 else -1)
    return delta


@settings(max_examples=30, deadline=None)
@given(
    mode=st.sampled_from(["vector_lz", "entropy", "hybrid", "raw"]),
    bounds=st.lists(st.floats(0.005, 0.05), min_size=N_TABLES, max_size=N_TABLES),
    rounds=rounds_strategy,
)
def test_skip_law(mode, bounds, rounds):
    compress = mode != "raw"
    trainer = make_trainer([mode if compress else "vector_lz"] * N_TABLES, bounds)
    tier = build_serving_tier(trainer, 2, 1, cache_rows=64, compress_publication=compress)
    publisher = tier.publisher
    comm = publisher.simulator.comm
    shipped_payloads: list[list[bytes]] = []
    for name in ("compressed_all_to_all", "all_to_all"):
        real = getattr(comm, name)

        def recording(sendbufs, *args, _real=real, **kwargs):
            shipped_payloads.append([p for dst in sendbufs[0][1:] for p in dst])
            return _real(sendbufs, *args, **kwargs)

        setattr(comm, name, recording)
    servers = {t: tier.servers[tier.sharding.owner_of(t)] for t in range(N_TABLES)}
    order = record_order(tier)

    for iteration, draws in enumerate(rounds):
        before = {t: publisher.published_table(t).copy() for t in range(N_TABLES)}
        blocks = {t: [bytes(b) for b in servers[t]._table(t).blocks] for t in range(N_TABLES)}
        deltas = {}
        for t, (factor, seed, dense) in enumerate(draws):
            bound = bounds[t] if compress else 0.0
            delta = straddling_delta(before[t], bound, factor, seed, dense)
            current = (before[t] + delta).astype(np.float32)
            trainer.model.tables[t].weight.data[...] = current
            deltas[t] = current - before[t]
        calls_before = len(shipped_payloads)
        report = publisher.publish(iteration=iteration)
        assert report.succeeded
        payloads = shipped_payloads[calls_before] if len(shipped_payloads) > calls_before else []
        shipped = [r for r in report.tables if r.shipped]
        assert len(payloads) == len(shipped) == report.attempts * len(shipped)
        assert [r.table_id for r in report.tables] == order
        by_table = dict(zip((r.table_id for r in shipped), payloads))
        for record in report.tables:
            t = record.table_id
            bound = bounds[t] if compress else 0.0
            drift = float(np.max(np.abs(deltas[t])))
            assert record.error_bound == bound
            assert record.shipped == (not drift <= bound), (t, drift, bound)
            if not record.shipped:
                assert record.wire_nbytes == 0 and record.max_abs_error == drift
                assert publisher.published_table(t).tobytes() == before[t].tobytes()
                assert [bytes(b) for b in servers[t]._table(t).blocks] == blocks[t]
                continue
            if compress:
                expected = get_compressor(mode).compress(deltas[t], bound)
            else:
                expected = frame_payload("raw", deltas[t].shape, deltas[t].dtype, b"", deltas[t])
            assert by_table[t] == expected
        # the contract, after every round, for every table
        for record in report.tables:
            t = record.table_id
            current = trainer.model.tables[t].weight.data.astype(np.float32)
            gap = float(np.max(np.abs(current - publisher.published_table(t))))
            ulp = float(np.spacing(np.float32(np.abs(current).max()))) if record.shipped else 0.0
            assert gap <= record.error_bound + ulp, (t, gap, record.error_bound)
