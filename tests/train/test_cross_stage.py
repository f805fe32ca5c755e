"""Cross-stage backward overlap: timing-only semantics, pinned numerics.

``overlap="cross_stage"`` makes the trainer issue the backward
embedding-gradient exchange *before* charging the bottom-MLP backward
kernels, so the exchange's wire overlaps compute across pipeline stages.
These tests pin the two contracts: the makespan never gets worse than
within-exchange overlap, and the numerics are byte-identical to both the
sequential and the overlapped schedules.
"""

from __future__ import annotations

import inspect

import pytest

from repro.adaptive import AdaptiveController
from repro.dist import ClusterSimulator, EventCategory
from repro.model import DLRM
from repro.train import CompressionPipeline, HybridParallelTrainer
from tests.train.test_overlap import _tiny_workflow
from tests.conftest import events_in


def _train(config, dataset, plan, *, overlap, n_ranks=4, steps=3, compress_backward=False):
    sim = ClusterSimulator(n_ranks)
    pipeline = (
        CompressionPipeline(
            AdaptiveController(plan), compress_backward=compress_backward
        )
        if plan is not None
        else None
    )
    trainer = HybridParallelTrainer(
        DLRM(config), dataset, sim, pipeline=pipeline, lr=0.2, overlap=overlap
    )
    losses = [trainer.train_step(32 * n_ranks, it) for it in range(steps)]
    return sim, trainer, losses


class TestBitIdentity:
    """The satellite regression: sequential vs overlap vs cross_stage give
    byte-identical model parameters after N training steps."""

    @pytest.mark.parametrize("compress_backward", [False, True])
    def test_parameters_byte_identical_across_overlap_modes(self, compress_backward):
        dataset, config, plan = _tiny_workflow(n_ranks=4)
        snapshots = {}
        for overlap in (False, True, "cross_stage"):
            _, trainer, losses = _train(
                config,
                dataset,
                plan,
                overlap=overlap,
                compress_backward=compress_backward,
            )
            snapshots[overlap] = (
                [p.data.tobytes() for p in trainer.model.parameters()],
                losses,
            )
        base_params, base_losses = snapshots[False]
        for overlap in (True, "cross_stage"):
            params, losses = snapshots[overlap]
            assert losses == base_losses
            assert params == base_params  # byte-identical weights

    def test_uncompressed_trainer_bit_identical_too(self):
        dataset, config, _ = _tiny_workflow(n_ranks=4)
        snapshots = {}
        for overlap in (False, "cross_stage"):
            _, trainer, losses = _train(config, dataset, None, overlap=overlap)
            snapshots[overlap] = (
                [p.data.tobytes() for p in trainer.model.parameters()],
                losses,
            )
        assert snapshots[False] == snapshots["cross_stage"]


class TestCrossStageTiming:
    def test_cross_stage_never_loses_to_within_exchange_overlap(self):
        dataset, config, plan = _tiny_workflow(n_ranks=4)
        overlapped, _, _ = _train(config, dataset, plan, overlap=True)
        cross, _, _ = _train(config, dataset, plan, overlap="cross_stage")
        assert cross.makespan() <= overlapped.makespan() + 1e-12

    def test_cross_stage_strictly_beats_sequential(self):
        dataset, config, plan = _tiny_workflow(n_ranks=8)
        sequential, _, _ = _train(config, dataset, plan, overlap=False, n_ranks=8)
        cross, _, _ = _train(config, dataset, plan, overlap="cross_stage", n_ranks=8)
        assert cross.makespan() < sequential.makespan()

    def test_backward_wire_overlaps_bottom_mlp_backward(self):
        """The backward exchange's wire must double-book with bottom-MLP
        backward kernels on at least one rank — the cross-stage overlap."""
        dataset, config, plan = _tiny_workflow(n_ranks=4)
        sim, _, _ = _train(config, dataset, plan, overlap="cross_stage")
        wire = events_in(sim.timeline, EventCategory.ALLTOALL_BWD)
        mlp = events_in(sim.timeline, EventCategory.BOTTOM_MLP_BWD)
        assert any(
            w.rank == m.rank and w.start < m.end and m.start < w.end
            for w in wire
            for m in mlp
        )

    def test_sequential_mode_keeps_wire_and_mlp_disjoint(self):
        dataset, config, plan = _tiny_workflow(n_ranks=4)
        sim, _, _ = _train(config, dataset, plan, overlap=False)
        wire = events_in(sim.timeline, EventCategory.ALLTOALL_BWD)
        mlp = events_in(sim.timeline, EventCategory.BOTTOM_MLP_BWD)
        assert not any(
            w.rank == m.rank and w.start < m.end - 1e-15 and m.start < w.end - 1e-15
            for w in wire
            for m in mlp
        )

    def test_compressed_backward_cross_stage_never_loses(self):
        dataset, config, plan = _tiny_workflow(n_ranks=4)
        overlapped, _, _ = _train(
            config, dataset, plan, overlap=True, compress_backward=True
        )
        cross, _, _ = _train(
            config, dataset, plan, overlap="cross_stage", compress_backward=True
        )
        assert cross.makespan() <= overlapped.makespan() + 1e-12


class TestKnobValidation:
    def test_bad_overlap_value_rejected(self):
        dataset, config, _ = _tiny_workflow(n_ranks=4)
        with pytest.raises(ValueError, match="overlap"):
            HybridParallelTrainer(
                DLRM(config), dataset, ClusterSimulator(4), overlap="both"
            )

    def test_bad_pipeline_chunks_rejected(self):
        dataset, config, _ = _tiny_workflow(n_ranks=4)
        with pytest.raises(ValueError):
            HybridParallelTrainer(
                DLRM(config), dataset, ClusterSimulator(4), pipeline_chunks=0
            )

    def test_no_direct_simulator_charging_for_communication(self):
        """Grep-pin: the trainer issues every exchange through the
        Communicator — no direct collective or stream charging."""
        from repro.train import hybrid

        source = inspect.getsource(hybrid.HybridParallelTrainer)
        assert "simulator.collective" not in source
        assert "stream_compute" not in source
