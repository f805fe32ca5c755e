"""TrainerCheckpoint: bit-identical resume after an injected failure."""

from __future__ import annotations

import pytest

from repro.adaptive import AdaptiveController, OfflineAnalyzer
from repro.data import SyntheticClickDataset, make_uniform_spec
from repro.dist import ClusterSimulator
from repro.dist.timeline import EventCategory
from repro.faults import TrainerCheckpoint
from repro.model import DLRM, DLRMConfig
from repro.nn.param import PRICED_ITEMSIZE
from repro.train import CompressionPipeline, HybridParallelTrainer
from tests.conftest import events_in

N_TABLES = 4
CARDINALITY = 200


def build_trainer(compressed=True):
    spec = make_uniform_spec(
        "faults-ckpt", n_tables=N_TABLES, cardinality=CARDINALITY, zipf_exponent=1.2
    )
    dataset = SyntheticClickDataset(spec, seed=41, teacher_scale=3.0)
    config = DLRMConfig.from_dataset(spec, embedding_dim=8, seed=42)
    model = DLRM(config)
    pipeline = None
    if compressed:
        batch = dataset.batch(128, batch_index=10_000_000)
        samples = {j: model.lookup(j, batch.sparse[:, j]) for j in range(N_TABLES)}
        plan = OfflineAnalyzer().analyze(samples)
        pipeline = CompressionPipeline(AdaptiveController(plan))
    return HybridParallelTrainer(
        model,
        dataset,
        ClusterSimulator(2),
        pipeline=pipeline,
        lr=0.2,
    )


def param_bytes(trainer):
    return b"".join(p.data.tobytes() for p in trainer.model.parameters())


def run_to(trainer, stop, start=0):
    for iteration in range(start, stop):
        trainer.train_step(64, iteration=iteration)


def test_resume_is_bit_identical():
    """The tentpole invariant: crash after iteration k, restore the
    iteration-k snapshot, replay — final parameters match the
    uninterrupted twin byte for byte (compression caches included)."""
    straight = build_trainer()
    run_to(straight, 6)
    reference = param_bytes(straight)

    resumed = build_trainer()
    run_to(resumed, 3)
    snapshot = TrainerCheckpoint.capture(resumed, iteration=3)
    run_to(resumed, 5, start=3)  # lost work: the failure hits at iteration 5
    assert snapshot.restore(resumed) == 3
    run_to(resumed, 6, start=3)
    assert param_bytes(resumed) == reference


def test_repeated_restores_from_one_snapshot():
    trainer = build_trainer()
    run_to(trainer, 2)
    snapshot = TrainerCheckpoint.capture(trainer, iteration=2)
    results = []
    for _ in range(2):
        snapshot.restore(trainer)
        run_to(trainer, 4, start=2)
        results.append(param_bytes(trainer))
    assert results[0] == results[1]  # the snapshot stays pristine


def test_checkpoint_and_restore_are_charged():
    trainer = build_trainer()
    run_to(trainer, 1)
    before = trainer.simulator.makespan()
    snapshot = TrainerCheckpoint.capture(trainer, iteration=1)
    after_capture = trainer.simulator.makespan()
    assert after_capture > before
    snapshot.restore(trainer)
    assert trainer.simulator.makespan() > after_capture
    totals = trainer.simulator.timeline.total_by_category()
    assert totals.get(EventCategory.CHECKPOINT, 0.0) > 0.0
    assert totals.get(EventCategory.RESTORE, 0.0) > 0.0
    assert snapshot.nbytes > 0


def priced_state_bytes(trainer) -> int:
    """The state bytes a snapshot or reload is charged for: every element of
    the parameters and pending gradients at ``PRICED_ITEMSIZE`` bytes."""
    return sum(2 * p.data.size for p in trainer.model.parameters()) * PRICED_ITEMSIZE


def test_snapshot_size_is_parameters_plus_gradients():
    """SGD keeps no optimizer state, so a snapshot is exactly the parameter
    and pending-gradient bytes; each charge is one memcpy of its elements,
    priced at ``PRICED_ITEMSIZE`` bytes each."""
    trainer = build_trainer()
    run_to(trainer, 1)
    params = list(trainer.model.parameters())
    snapshot = TrainerCheckpoint.capture(trainer, iteration=1)
    assert snapshot.nbytes == sum(p.data.nbytes + p.grad.nbytes for p in params)
    charged = events_in(trainer.simulator.timeline, EventCategory.CHECKPOINT)
    assert len(charged) == trainer.simulator.n_ranks
    expected = trainer.simulator.gpu.memcpy_time(priced_state_bytes(trainer))
    assert {e.duration for e in charged} == {expected}


def test_restore_charges_one_memcpy_per_rank():
    trainer = build_trainer()
    snapshot = TrainerCheckpoint.capture(trainer, iteration=0)
    run_to(trainer, 1)
    snapshot.restore(trainer)
    charged = events_in(trainer.simulator.timeline, EventCategory.RESTORE)
    assert sorted(e.rank for e in charged) == list(range(trainer.simulator.n_ranks))
    expected = trainer.simulator.gpu.memcpy_time(priced_state_bytes(trainer))
    assert {e.duration for e in charged} == {expected}


def test_restore_rejects_mismatched_trainer():
    donor = build_trainer()
    snapshot = TrainerCheckpoint.capture(donor, iteration=0)
    spec = make_uniform_spec("faults-ckpt-other", n_tables=2, cardinality=50)
    dataset = SyntheticClickDataset(spec, seed=1)
    other = HybridParallelTrainer(
        DLRM(DLRMConfig.from_dataset(spec, embedding_dim=8, seed=2)),
        dataset,
        ClusterSimulator(2),
        pipeline=None,
        lr=0.1,
    )
    with pytest.raises(ValueError):
        snapshot.restore(other)


def test_capture_validates_iteration():
    trainer = build_trainer()
    with pytest.raises(ValueError):
        TrainerCheckpoint.capture(trainer, iteration=-1)
