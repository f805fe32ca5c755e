"""Tests for the reference and hybrid-parallel trainers.

The load-bearing test here is the *equivalence* one: the hybrid-parallel
simulation must produce bit-identical losses to the single-process
reference trainer (with the matching lossy hook), because they share all
arithmetic by construction.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.adaptive import AdaptiveController, OfflineAnalyzer, StepwiseDecay
from repro.data import CRITEO_KAGGLE, SyntheticClickDataset, make_uniform_spec, scaled_spec
from repro.dist import ClusterSimulator, EventCategory
from repro.model import DLRM, DLRMConfig
from repro.train import (
    CompressionPipeline,
    HybridParallelTrainer,
    ReferenceTrainer,
    ShardingPlan,
)


@pytest.fixture(scope="module")
def small_world():
    spec = make_uniform_spec("t", n_tables=6, cardinality=200, zipf_exponent=1.4)
    dataset = SyntheticClickDataset(spec, seed=11, teacher_scale=3.0)
    config = DLRMConfig.from_dataset(
        spec, embedding_dim=8, bottom_hidden=(16,), top_hidden=(16,), seed=12
    )
    return spec, dataset, config


@pytest.fixture(scope="module")
def bench_world():
    """``bench_e2e``'s training world — the 26 Criteo-Kaggle-shaped tables
    (cardinalities 3 … cap) and two-layer MLPs — at reduced size."""
    spec = scaled_spec(CRITEO_KAGGLE, max_cardinality=300)
    dataset = SyntheticClickDataset(spec, seed=100, teacher_scale=3.0)
    config = DLRMConfig.from_dataset(
        spec, embedding_dim=16, bottom_hidden=(32, 16), top_hidden=(32, 16), seed=101
    )
    return dataset, config


def _make_plan(dataset, config, batch=128):
    model = DLRM(config)
    b = dataset.batch(batch, batch_index=777)
    samples = {j: model.lookup(j, b.sparse[:, j]) for j in range(config.n_tables)}
    return OfflineAnalyzer().analyze(samples)


class TestReferenceTrainer:
    def test_loss_decreases(self, small_world):
        _, dataset, config = small_world
        trainer = ReferenceTrainer(DLRM(config), dataset, lr=0.3)
        history = trainer.train(60, 64)
        assert np.mean(history.losses[-10:]) < np.mean(history.losses[:10])

    def test_eval_recorded(self, small_world):
        _, dataset, config = small_world
        trainer = ReferenceTrainer(DLRM(config), dataset, lr=0.3)
        history = trainer.train(10, 32, eval_every=5, eval_batches=1)
        assert history.eval_iterations == [4, 9]
        assert len(history.accuracies) == 2

    def test_adagrad_variant(self, small_world):
        _, dataset, config = small_world
        trainer = ReferenceTrainer(DLRM(config), dataset, lr=0.05, optimizer="adagrad")
        history = trainer.train(30, 64)
        assert np.mean(history.losses[-5:]) < np.mean(history.losses[:5])

    def test_lookup_transform_applied(self, small_world):
        _, dataset, config = small_world
        calls = []

        def spy(table_id, rows, iteration):
            calls.append((table_id, iteration))
            return rows

        trainer = ReferenceTrainer(DLRM(config), dataset, lr=0.1, lookup_transform=spy)
        trainer.train(2, 16)
        assert (0, 0) in calls and (5, 1) in calls

    def test_tight_compression_barely_changes_training(self, small_world):
        """With a tiny error bound the lossy run tracks the exact run."""
        _, dataset, config = small_world
        exact = ReferenceTrainer(DLRM(config), dataset, lr=0.2)
        h_exact = exact.train(20, 64)

        from repro.compression import HybridCompressor

        codec = HybridCompressor()

        def lossy(table_id, rows, iteration):
            return codec.decompress(codec.compress(rows, 1e-6))

        noisy = ReferenceTrainer(DLRM(config), dataset, lr=0.2, lookup_transform=lossy)
        h_noisy = noisy.train(20, 64)
        np.testing.assert_allclose(h_exact.losses, h_noisy.losses, atol=1e-4)

    def test_invalid_optimizer(self, small_world):
        _, dataset, config = small_world
        with pytest.raises(ValueError):
            ReferenceTrainer(DLRM(config), dataset, lr=0.1, optimizer="adam")


class TestHybridTrainer:
    def test_matches_reference_exactly_without_compression(self, small_world):
        """Hybrid-parallel numerics == single-process numerics."""
        _, dataset, config = small_world
        ref = ReferenceTrainer(DLRM(config), dataset, lr=0.2)
        h_ref = ref.train(8, 64)
        sim = ClusterSimulator(4)
        hyb = HybridParallelTrainer(DLRM(config), dataset, sim, lr=0.2)
        rep = hyb.train(8, 64)
        np.testing.assert_allclose(h_ref.losses, rep.history.losses, rtol=1e-12)

    @pytest.mark.parametrize("optimizer", ["sgd", "adagrad"])
    def test_benchmark_contract_bit_for_bit(self, bench_world, optimizer):
        """What ``bench_e2e`` checks after ``train_baseline``'s timed region:
        with ``pipeline=None`` the two trainers share every kernel, so losses
        (and here parameters, under either optimizer) agree to the bit."""
        dataset, config = bench_world
        ref = ReferenceTrainer(DLRM(config), dataset, lr=0.2, optimizer=optimizer)
        hyb = HybridParallelTrainer(
            DLRM(config), dataset, ClusterSimulator(8), pipeline=None, lr=0.2, optimizer=optimizer
        )
        for iteration in range(4):
            assert float(hyb.train_step(256, iteration)) == float(ref.train_step(256, iteration))
        for ours, theirs in zip(hyb.model.parameters(), ref.model.parameters()):
            np.testing.assert_array_equal(ours.data, theirs.data, err_msg=ours.name)

    def test_matches_reference_with_compression(self, small_world):
        """With the same controller, the hybrid run's losses equal the
        reference run that applies the identical per-slice round-trip."""
        _, dataset, config = small_world
        plan = _make_plan(dataset, config)
        n_ranks, batch = 4, 64
        local = batch // n_ranks

        # Hybrid run.
        sim = ClusterSimulator(n_ranks)
        controller = AdaptiveController(plan, StepwiseDecay(2.0, 10, n_steps=2))
        pipe = CompressionPipeline(controller)
        hyb = HybridParallelTrainer(DLRM(config), dataset, sim, pipeline=pipe, lr=0.2)
        rep = hyb.train(6, batch)

        # Reference run with per-destination-slice round-trips.
        controller2 = AdaptiveController(plan, StepwiseDecay(2.0, 10, n_steps=2))
        pipe2 = CompressionPipeline(controller2)

        def per_slice_roundtrip(table_id, rows, iteration):
            parts = [
                pipe2.roundtrip(table_id, rows[r * local : (r + 1) * local], iteration)
                for r in range(n_ranks)
            ]
            return np.concatenate(parts, axis=0)

        ref = ReferenceTrainer(
            DLRM(config), dataset, lr=0.2, lookup_transform=per_slice_roundtrip
        )
        h_ref = ref.train(6, batch)
        np.testing.assert_allclose(h_ref.losses, rep.history.losses, rtol=1e-10)

    def test_compression_reduces_wire_bytes(self, small_world):
        _, dataset, config = small_world
        plan = _make_plan(dataset, config)
        sim = ClusterSimulator(4)
        pipe = CompressionPipeline(AdaptiveController(plan))
        trainer = HybridParallelTrainer(DLRM(config), dataset, sim, pipeline=pipe, lr=0.2)
        report = trainer.train(3, 64)
        assert report.forward_wire_bytes < report.forward_raw_bytes
        assert report.forward_compression_ratio > 1.5

    def test_timeline_has_pipeline_stages(self, small_world):
        _, dataset, config = small_world
        plan = _make_plan(dataset, config)
        sim = ClusterSimulator(4)
        pipe = CompressionPipeline(AdaptiveController(plan))
        trainer = HybridParallelTrainer(DLRM(config), dataset, sim, pipeline=pipe, lr=0.2)
        trainer.train(2, 64)
        cats = set(sim.timeline.total_by_category())
        assert EventCategory.COMPRESS in cats
        assert EventCategory.DECOMPRESS in cats
        assert EventCategory.METADATA in cats
        assert EventCategory.ALLTOALL_FWD in cats
        assert EventCategory.ALLTOALL_BWD in cats

    def test_no_pipeline_timeline_has_no_compression(self, small_world):
        _, dataset, config = small_world
        sim = ClusterSimulator(4)
        trainer = HybridParallelTrainer(DLRM(config), dataset, sim, lr=0.2)
        trainer.train(2, 64)
        cats = set(sim.timeline.total_by_category())
        assert EventCategory.COMPRESS not in cats
        assert EventCategory.METADATA not in cats

    def test_indivisible_batch_rejected(self, small_world):
        _, dataset, config = small_world
        trainer = HybridParallelTrainer(DLRM(config), dataset, ClusterSimulator(4), lr=0.2)
        with pytest.raises(ValueError, match="divisible"):
            trainer.train_step(66, 0)

    def test_custom_sharding_round_robin(self, small_world):
        _, dataset, config = small_world
        sim = ClusterSimulator(2)
        sharding = ShardingPlan.round_robin(config.n_tables, 2)
        trainer = HybridParallelTrainer(
            DLRM(config), dataset, sim, lr=0.2, sharding=sharding
        )
        report = trainer.train(2, 32)
        assert len(report.history.losses) == 2

    def test_mismatched_sharding_rejected(self, small_world):
        _, dataset, config = small_world
        bad = ShardingPlan.round_robin(3, 2)  # wrong table count
        with pytest.raises(ValueError, match="sharding"):
            HybridParallelTrainer(
                DLRM(config), dataset, ClusterSimulator(2), lr=0.2, sharding=bad
            )

    def test_backward_compression_path(self, small_world):
        _, dataset, config = small_world
        plan = _make_plan(dataset, config)
        sim = ClusterSimulator(2)
        pipe = CompressionPipeline(AdaptiveController(plan), compress_backward=True)
        trainer = HybridParallelTrainer(DLRM(config), dataset, sim, pipeline=pipe, lr=0.2)
        report = trainer.train(3, 32)
        # Training still converging-ish (losses finite and sane).
        assert all(np.isfinite(report.history.losses))

    def test_report_breakdown_fractions_sum_to_one(self, small_world):
        _, dataset, config = small_world
        sim = ClusterSimulator(4)
        trainer = HybridParallelTrainer(DLRM(config), dataset, sim, lr=0.2)
        report = trainer.train(2, 64)
        fractions = report.breakdown_fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_single_rank_degenerates_cleanly(self, small_world):
        _, dataset, config = small_world
        sim = ClusterSimulator(1)
        trainer = HybridParallelTrainer(DLRM(config), dataset, sim, lr=0.2)
        report = trainer.train(2, 32)
        assert report.n_ranks == 1
        assert all(np.isfinite(report.history.losses))


class TestBatchedExchangePin:
    """The fused per-table stage ①/④ (``compress_stack`` / ``decompress_stack``
    behind ``compress_slices`` / ``decompress_batch``) must be invisible:
    same payload bytes, losses, parameters, stats and obs counters as the
    per-slice loops it replaces."""

    N_RANKS, BATCH, STEPS = 8, 256, 4

    def _run(self, bench_world, per_slice: bool):
        import hashlib
        from dataclasses import replace

        from repro.obs.runtime import capture

        dataset, config = bench_world
        plan = _make_plan(dataset, config)
        # The offline analysis picks vector-LZ everywhere in this small
        # world; pin two tables to Huffman so the per-slice keyed route
        # (and its codebook cache) interleaves with the fused one.
        tables = {
            t: replace(table, compressor="entropy") if t in (3, 17) else table
            for t, table in plan.tables.items()
        }
        plan = replace(plan, tables=tables)
        pipe = CompressionPipeline(AdaptiveController(plan, StepwiseDecay(2.0, 2, n_steps=2)))
        digests: list[str] = []
        batched_compress = pipe.compress_slices

        def compress_slices(slices, iteration):
            if per_slice:
                payloads = [pipe.compress_slice(t, rows, iteration) for t, rows in slices]
            else:
                payloads = batched_compress(slices, iteration)
            digest = hashlib.sha256()
            for payload in payloads:  # (table, dst) order of the exchange
                digest.update(len(payload).to_bytes(8, "little"))
                digest.update(payload)
            digests.append(digest.hexdigest())
            return payloads

        pipe.compress_slices = compress_slices
        if per_slice:
            pipe.decompress_batch = lambda payloads: [pipe.decompress_slice(p) for p in payloads]
        trainer = HybridParallelTrainer(
            DLRM(config), dataset, ClusterSimulator(self.N_RANKS), pipeline=pipe, lr=0.2
        )
        with capture() as registry:
            losses = [float(trainer.train_step(self.BATCH, it)) for it in range(self.STEPS)]
        codecs = {pipe.controller.compressor_name(t) for t in range(config.n_tables)}
        return trainer, pipe, losses, digests, registry.snapshot(), codecs

    def test_batched_path_equals_per_slice_loops(self, bench_world):
        fused, fused_pipe, fused_losses, fused_digests, fused_obs, codecs = self._run(
            bench_world, per_slice=False
        )
        loop, loop_pipe, loop_losses, loop_digests, loop_obs, _ = self._run(
            bench_world, per_slice=True
        )
        assert codecs == {"vector_lz", "entropy"}  # both routes exercised
        assert fused_losses == loop_losses
        for ours, theirs in zip(fused.model.parameters(), loop.model.parameters()):
            np.testing.assert_array_equal(ours.data, theirs.data, err_msg=ours.name)
        assert fused.forward_wire_bytes == loop.forward_wire_bytes
        assert len(fused_digests) == self.STEPS and fused_digests == loop_digests
        assert fused_pipe.stats == loop_pipe.stats
        assert len(fused_pipe.stats) == self.STEPS * 26 * self.N_RANKS
        assert fused_obs == loop_obs
