"""The model dtype law: one training step runs in float32 end to end.

``Parameter`` stores float32 and every layer follows its parameters or its
inputs, so one stray float64 array (a cast, a buffer allocated without a
dtype, a float64 constant array) would silently promote the rest of the
step back to float64 — and the optimizer's in-place ``-=`` would cast the
update down again, hiding it from any check on the parameters alone.
This law therefore reads every array a ``DLRM`` stage takes or returns,
and every parameter's ``data`` and ``grad`` just before the optimizer
consumes them, for both trainers and every exchange mode.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.adaptive import AdaptiveController, OfflineAnalyzer
from repro.data import SyntheticClickDataset, make_uniform_spec
from repro.dist import ClusterSimulator
from repro.model import DLRM, DLRMConfig
from repro.train import CompressionPipeline, HybridParallelTrainer, ReferenceTrainer

N_RANKS, BATCH = 4, 64
STAGES = (
    "forward_dense",
    "lookup",
    "forward_interaction",
    "backward_interaction",
    "backward_dense",
    "accumulate_embedding_grad",
)
FLOAT_ARGS = {"lookup": (), "accumulate_embedding_grad": (2,)}


def _world():
    spec = make_uniform_spec("t", n_tables=5, cardinality=120, zipf_exponent=1.3)
    dataset = SyntheticClickDataset(spec, seed=3, teacher_scale=3.0)
    config = DLRMConfig.from_dataset(
        spec, embedding_dim=8, bottom_hidden=(16,), top_hidden=(16,), seed=4
    )
    return dataset, config


def _pipeline(dataset, config, **kwargs) -> CompressionPipeline:
    model = DLRM(config)
    sample = dataset.batch(128, batch_index=777)
    plan = OfflineAnalyzer().analyze(
        {j: model.lookup(j, sample.sparse[:, j]) for j in range(config.n_tables)}
    )
    return CompressionPipeline(AdaptiveController(plan), **kwargs)


def _arrays(value):
    """Every ndarray in a stage's result (arrays, lists and tuples of them)."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, (list, tuple)):
        return [a for item in value for a in _arrays(item)]
    return []


def _instrument(trainer) -> list[tuple[str, np.dtype]]:
    """Record ``(where, dtype)`` for every float array a stage of
    ``trainer.model`` takes or returns, and for every parameter's data and
    grad when the optimizer steps."""
    seen: list[tuple[str, np.dtype]] = []
    model = trainer.model
    for name in STAGES:
        stage = getattr(model, name)

        def wrapped(*args, _stage=stage, _name=name):
            positions = FLOAT_ARGS.get(_name, range(len(args)))
            for i in positions:
                seen.extend((f"{_name} arg {i}", a.dtype) for a in _arrays(args[i]))
            result = _stage(*args)
            seen.extend((f"{_name} result", a.dtype) for a in _arrays(result))
            return result

        setattr(model, name, wrapped)
    step = trainer._opt.step

    def optimizer_step():
        for param in trainer._opt.parameters:
            seen.append((f"{param.name}.data", param.data.dtype))
            seen.append((f"{param.name}.grad", param.grad.dtype))
        step()

    trainer._opt.step = optimizer_step
    return seen


def _reference(dataset, config):
    return ReferenceTrainer(DLRM(config), dataset, lr=0.2)


def _hybrid(dataset, config, pipeline=None, **kwargs):
    return HybridParallelTrainer(
        DLRM(config), dataset, ClusterSimulator(N_RANKS), pipeline=pipeline, lr=0.2, **kwargs
    )


MODES = {
    "reference": _reference,
    "hybrid pipeline=None": _hybrid,
    "hybrid compressed": lambda d, c: _hybrid(d, c, _pipeline(d, c)),
    "hybrid compress_backward": lambda d, c: _hybrid(
        d, c, _pipeline(d, c, compress_backward=True)
    ),
    "hybrid cross_stage": lambda d, c: _hybrid(d, c, _pipeline(d, c), overlap="cross_stage"),
    "hybrid quant_sum all-reduce": lambda d, c: _hybrid(
        d, c, _pipeline(d, c), allreduce_codec="quant_sum"
    ),
}


@pytest.mark.parametrize("mode", MODES)
def test_one_step_runs_in_float32(mode):
    dataset, config = _world()
    trainer = MODES[mode](dataset, config)
    seen = _instrument(trainer)
    loss = trainer.train_step(BATCH, 0)
    assert np.isfinite(loss)
    stages = {where.split(" ")[0] for where, _ in seen}
    assert stages >= set(STAGES), f"stages never called: {set(STAGES) - stages}"
    n_params = len(trainer.model.parameters())
    assert sum(where.endswith(".grad") for where, _ in seen) == n_params
    wrong = [(where, str(dtype)) for where, dtype in seen if dtype != np.float32]
    assert wrong == []


def test_parameters_store_float32():
    _, config = _world()
    model = DLRM(config)
    assert {p.data.dtype for p in model.parameters()} == {np.dtype(np.float32)}
    assert {p.grad.dtype for p in model.parameters()} == {np.dtype(np.float32)}
