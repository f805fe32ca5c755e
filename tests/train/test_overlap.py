"""Tests for the trainer's overlapped exchanges and related helpers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adaptive import AdaptiveController, OfflineAnalyzer
from repro.dist import ClusterSimulator, NetworkModel
from repro.train import CompressionPipeline
from tests.conftest import make_gaussian_batch, make_hot_batch


@pytest.fixture
def pipeline(rng) -> CompressionPipeline:
    samples = {0: make_hot_batch(rng), 1: make_gaussian_batch(rng)}
    plan = OfflineAnalyzer().analyze(samples)
    return CompressionPipeline(AdaptiveController(plan), fused_kernels=False)


def _exchange(pipeline, chunks, payload_nbytes, bandwidth, *, overlap):
    """Rank 0 streams one compressed payload per chunk to rank 1 through
    the communicator, its stage ① priced by ``pipeline``; returns the
    simulator after the exchange."""
    sim = ClusterSimulator(2, network=NetworkModel(bandwidth=bandwidth))
    sim.comm.compressed_all_to_all(
        [[[], [bytes(payload_nbytes)] * len(chunks)], [[], []]],
        entries_per_pair=np.zeros((2, 2), dtype=np.int64),
        overlap=overlap,
        compress_seconds=[pipeline.compression_seconds(chunks), 0.0],
        chunks_per_rank=[max(1, len(chunks)), 1],
    )
    return sim


def _wire_seconds(sim, payload_nbytes, n_chunks) -> float:
    return sim.network.all_to_all_time(np.array([[0, payload_nbytes * n_chunks], [0, 0]]))


class TestPipelinedExchange:
    """The pipeline's stage-① price fed through the communicator's chunk
    pipeline — the one exchange timing model."""

    def test_never_worse_than_sequential(self, pipeline):
        chunks = [("vector_lz", 1 << 20)] * 8
        overlapped = _exchange(pipeline, chunks, 1 << 16, 1e9, overlap=True).makespan()
        sequential = _exchange(pipeline, chunks, 1 << 16, 1e9, overlap=False).makespan()
        assert overlapped <= sequential

    def test_lower_bounded_by_each_stage(self, pipeline):
        chunks = [("vector_lz", 1 << 20)] * 8
        sim = _exchange(pipeline, chunks, 1 << 16, 1e9, overlap=True)
        assert sim.makespan() >= _wire_seconds(sim, 1 << 16, 8)
        assert sim.makespan() >= pipeline.compression_seconds(chunks) - 1e-12

    def test_wire_dominated_limit(self, pipeline):
        """When the wire is very slow, overlap hides compression almost
        entirely: makespan = one chunk's compress + the whole wire."""
        chunks = [("vector_lz", 1 << 16)] * 4
        sim = _exchange(pipeline, chunks, 1000, 1e3, overlap=True)
        expected = pipeline.compression_seconds(chunks) / 4 + _wire_seconds(sim, 1000, 4)
        assert sim.makespan() == pytest.approx(expected, rel=1e-9)

    def test_compress_dominated_limit(self, pipeline):
        """When compression dominates, overlap hides the wire except the
        final chunk's transmission."""
        chunks = [("vector_lz", 1 << 24)] * 4
        sim = _exchange(pipeline, chunks, 1000, 1e12, overlap=True)
        expected = pipeline.compression_seconds(chunks) + _wire_seconds(sim, 1000, 4) / 4
        assert sim.makespan() == pytest.approx(expected, rel=1e-9)

    def test_empty(self, pipeline):
        """Nothing to compress or send: both modes cost the same bare
        collective."""
        overlapped = _exchange(pipeline, [], 0, 1e9, overlap=True)
        sequential = _exchange(pipeline, [], 0, 1e9, overlap=False)
        assert overlapped.makespan() == sequential.makespan() == _wire_seconds(overlapped, 0, 0)

    def test_length_mismatch_rejected(self, pipeline):
        comm = ClusterSimulator(2).comm
        sendbufs = [[[], [b"x"]], [[], []]]
        with pytest.raises(ValueError, match="one entry per rank"):
            comm.compressed_all_to_all(
                sendbufs, overlap=True, compress_seconds=[pipeline.compression_seconds([])]
            )
        with pytest.raises(ValueError, match="one entry per rank"):
            comm.compressed_all_to_all(sendbufs, overlap=True, chunks_per_rank=[1, 1, 1])

    def test_negative_stage_seconds_rejected(self, pipeline):
        comm = ClusterSimulator(2).comm
        with pytest.raises(ValueError, match=">= 0"):
            comm.compressed_all_to_all(
                [[[], [b"x"]], [[], []]], overlap=True, compress_seconds=[-1.0, 0.0]
            )

    @given(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=10, max_value=1 << 22),
        st.integers(min_value=1, max_value=1 << 16),
        st.floats(min_value=1e6, max_value=1e12),
    )
    @settings(max_examples=30, deadline=None)
    def test_between_bounds_property(self, n_chunks, chunk_bytes, payload_nbytes, bandwidth):
        samples = {0: make_hot_batch(np.random.default_rng(0))}
        plan = OfflineAnalyzer().analyze(samples)
        pipeline = CompressionPipeline(AdaptiveController(plan), fused_kernels=False)
        chunks = [("vector_lz", chunk_bytes)] * n_chunks
        sim = _exchange(pipeline, chunks, payload_nbytes, bandwidth, overlap=True)
        overlapped = sim.makespan()
        sequential = _exchange(pipeline, chunks, payload_nbytes, bandwidth, overlap=False).makespan()
        floor = max(_wire_seconds(sim, payload_nbytes, n_chunks), pipeline.compression_seconds(chunks))
        assert floor - 1e-12 <= overlapped <= sequential + 1e-12


def _tiny_workflow(n_ranks=8, max_cardinality=600):
    from repro.data import CRITEO_KAGGLE, SyntheticClickDataset, scaled_spec
    from repro.model import DLRM, DLRMConfig

    spec = scaled_spec(CRITEO_KAGGLE, max_cardinality=max_cardinality)
    dataset = SyntheticClickDataset(spec, seed=31, teacher_scale=3.0)
    config = DLRMConfig.from_dataset(
        spec, embedding_dim=8, bottom_hidden=(16,), top_hidden=(16,), seed=32
    )
    probe = DLRM(config)
    batch = dataset.batch(128, batch_index=888)
    samples = {j: probe.lookup(j, batch.sparse[:, j]) for j in range(spec.n_tables)}
    from repro.adaptive import OfflineAnalyzer

    plan = OfflineAnalyzer().analyze(samples)
    return dataset, config, plan


def _train_makespan(dataset, config, plan, *, overlap, n_ranks=8, network=None, **kw):
    from repro.dist import ClusterSimulator
    from repro.model import DLRM
    from repro.train import HybridParallelTrainer

    sim = ClusterSimulator(n_ranks, network=network)
    pipeline = CompressionPipeline(AdaptiveController(plan))
    trainer = HybridParallelTrainer(
        DLRM(config), dataset, sim, pipeline=pipeline, lr=0.2, overlap=overlap, **kw
    )
    trainer.train(2, 32 * n_ranks)
    return sim


class TestTrainerThroughCommunicator:
    """The tentpole's acceptance criteria on the trainer refactor."""

    def test_no_direct_collective_charging(self):
        """`HybridParallelTrainer` must route every exchange through the
        Communicator — zero direct ``simulator.collective`` calls."""
        import inspect

        from repro.train import hybrid

        source = inspect.getsource(hybrid.HybridParallelTrainer)
        assert "simulator.collective" not in source

    def test_overlap_on_beats_overlap_off_8_ranks(self):
        """Acceptance: overlap-on end-to-end makespan strictly below
        overlap-off on the paper's 8-rank configuration."""
        dataset, config, plan = _tiny_workflow()
        sequential = _train_makespan(dataset, config, plan, overlap=False)
        overlapped = _train_makespan(dataset, config, plan, overlap=True)
        assert overlapped.makespan() < sequential.makespan()

    def test_overlap_never_worse_with_backward_compression(self):
        dataset, config, plan = _tiny_workflow()
        makespans = {}
        for overlap in (False, True):
            from repro.dist import ClusterSimulator
            from repro.model import DLRM
            from repro.train import HybridParallelTrainer

            sim = ClusterSimulator(4)
            pipeline = CompressionPipeline(AdaptiveController(plan), compress_backward=True)
            HybridParallelTrainer(
                DLRM(config), dataset, sim, pipeline=pipeline, lr=0.2, overlap=overlap
            ).train(2, 64)
            makespans[overlap] = sim.makespan()
        assert makespans[True] <= makespans[False] + 1e-12

    def test_overlap_does_not_change_numerics(self):
        """Overlap changes *when* things are charged, never *what* the
        receivers decode: losses are bit-identical."""
        from repro.dist import ClusterSimulator
        from repro.model import DLRM
        from repro.train import HybridParallelTrainer

        dataset, config, plan = _tiny_workflow()
        losses = {}
        for overlap in (False, True):
            sim = ClusterSimulator(4)
            pipeline = CompressionPipeline(AdaptiveController(plan))
            trainer = HybridParallelTrainer(
                DLRM(config), dataset, sim, pipeline=pipeline, lr=0.2, overlap=overlap
            )
            losses[overlap] = [trainer.train_step(64, it) for it in range(2)]
        assert losses[False] == losses[True]

    @pytest.mark.parametrize("pipeline_chunks", [1, 2, 32])
    def test_pipeline_chunks_do_not_change_numerics(self, pipeline_chunks):
        """The chunk count reshapes the overlapped schedule only: losses
        and wire bytes equal the default 8-chunk run's."""
        from repro.model import DLRM
        from repro.train import HybridParallelTrainer

        dataset, config, plan = _tiny_workflow()
        runs = {}
        for chunks in (8, pipeline_chunks):
            sim = ClusterSimulator(4)
            trainer = HybridParallelTrainer(
                DLRM(config),
                dataset,
                sim,
                pipeline=CompressionPipeline(AdaptiveController(plan)),
                lr=0.2,
                overlap=True,
                pipeline_chunks=chunks,
            )
            losses = [trainer.train_step(64, it) for it in range(2)]
            runs[chunks] = (losses, trainer.forward_wire_bytes)
        assert runs[pipeline_chunks] == runs[8]

    def test_uncompressed_exchange_stays_exact(self):
        """Routing the raw exchange through the Communicator hands
        receivers bit-identical lookup rows."""
        from repro.dist import ClusterSimulator
        from repro.model import DLRM
        from repro.train import HybridParallelTrainer, ReferenceTrainer

        dataset, config, _ = _tiny_workflow()
        sim = ClusterSimulator(4)
        hybrid_trainer = HybridParallelTrainer(DLRM(config), dataset, sim, lr=0.2)
        reference = ReferenceTrainer(DLRM(config), dataset, lr=0.2)
        for iteration in range(2):
            hybrid_loss = hybrid_trainer.train_step(64, iteration)
            reference_loss = reference.train_step(64, iteration)
            assert hybrid_loss == pytest.approx(reference_loss, rel=1e-12)

    def test_overlap_efficiency_reported(self):
        from repro.profiling import overlap_efficiency

        dataset, config, plan = _tiny_workflow()
        sequential = _train_makespan(dataset, config, plan, overlap=False, n_ranks=4)
        overlapped = _train_makespan(dataset, config, plan, overlap=True, n_ranks=4)
        assert overlap_efficiency(sequential.timeline) == 0.0
        assert overlap_efficiency(overlapped.timeline) > 0.0

    def test_hierarchical_allreduce_routed(self):
        from repro.dist import NetworkModel, Topology

        dataset, config, plan = _tiny_workflow()
        network = NetworkModel.from_topology(Topology.hierarchical(2, 4))
        ring = _train_makespan(
            dataset, config, plan, overlap=False, network=network,
            allreduce_algorithm="ring",
        )
        hier = _train_makespan(
            dataset, config, plan, overlap=False, network=network,
            allreduce_algorithm="hierarchical",
        )
        ring_ar = ring.timeline.total_by_category(rank=0)["allreduce"]
        hier_ar = hier.timeline.total_by_category(rank=0)["allreduce"]
        assert hier_ar < ring_ar

    def test_bad_allreduce_algorithm_rejected(self):
        from repro.dist import ClusterSimulator
        from repro.model import DLRM
        from repro.train import HybridParallelTrainer

        dataset, config, _ = _tiny_workflow()
        with pytest.raises(ValueError):
            HybridParallelTrainer(
                DLRM(config), dataset, ClusterSimulator(4), allreduce_algorithm="tree"
            )
