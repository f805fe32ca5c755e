"""Regression: the trainer's ``allreduce_codec=`` knob is bit-for-bound.

The dense-gradient all-reduce may be routed through the homomorphic
``quant_sum`` codec (``Communicator.compressed_all_reduce``).  This suite
pins the numerics contract of that knob against the seed dense path:

* ``allreduce_codec=None`` (the default) is the seed path — explicitly
  passing ``None`` changes nothing, byte for byte;
* ``allreduce_codec="quant_sum"`` is exact up to one quantization: after
  one step every MLP gradient is bit for bit the quantize-dequantize
  ``float32(rint(g / (2 eb)) * 2 eb)`` of the dense path's gradient ``g``
  (integer codes, so ``-0.0`` comes back as ``+0.0``),
  across every overlap mode and all-reduce algorithm, and after N steps
  parameters and losses are bit-identical across all of them;
* it stays within the closed-form composed bound: after S steps at
  learning rate lr on n ranks with error bound eb, every parameter sits
  within ``S * lr * n * eb`` of its dense twin;
* any other codec is refused at construction time.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.adaptive import AdaptiveController
from repro.compression import available_compressors
from repro.dist import IB_HDR_LIKE, NVLINK_LIKE, ClusterSimulator, NetworkModel, Topology
from repro.dist.network import ALLREDUCE_ALGORITHMS
from repro.model import DLRM
from repro.train import CompressionPipeline, HybridParallelTrainer
from repro.train.hybrid import ALLREDUCE_ERROR_BOUND
from tests.train.test_overlap import _tiny_workflow

N_RANKS = 4
LR = 0.2
STEPS = 3


def _trainer(config, dataset, plan, *, overlap=False, network=None, **kw):
    sim = ClusterSimulator(N_RANKS, network=network)
    pipeline = CompressionPipeline(AdaptiveController(plan))
    return HybridParallelTrainer(
        DLRM(config), dataset, sim, pipeline=pipeline, lr=LR, overlap=overlap, **kw
    )


def _run(config, dataset, plan, *, steps=STEPS, **kw):
    trainer = _trainer(config, dataset, plan, **kw)
    losses = [trainer.train_step(32 * N_RANKS, it) for it in range(steps)]
    params = [p.data.copy() for p in trainer.model.parameters()]
    return trainer.simulator, params, losses


def _first_step_grads(config, dataset, plan, **kw) -> list[np.ndarray]:
    """Every MLP gradient of step 0 as the optimizer receives it (the
    optimizer zeroes gradients once it has applied them)."""
    trainer = _trainer(config, dataset, plan, **kw)
    grads = []
    step = trainer._opt.step

    def snapshot_then_step():
        grads.extend(p.grad.copy() for p in trainer.model.mlp_parameters())
        step()

    trainer._opt.step = snapshot_then_step
    trainer.train_step(32 * N_RANKS, 0)
    return grads


def _quantize_dequantize(grad: np.ndarray) -> np.ndarray:
    """``float32(rint(g / (2 eb)) * 2 eb)`` through integer codes, so a
    tiny negative gradient comes back as ``+0.0`` like the codec's."""
    scale = 2.0 * ALLREDUCE_ERROR_BOUND
    codes = np.rint(grad.astype(np.float64) / scale).astype(np.int64)
    return (codes * scale).astype(grad.dtype)


@pytest.fixture(scope="module")
def workflow():
    return _tiny_workflow(n_ranks=N_RANKS)


@pytest.fixture(scope="module")
def dense_run(workflow):
    dataset, config, plan = workflow
    return _run(config, dataset, plan)


class TestSeedEquivalence:
    def test_explicit_none_is_the_seed_path(self, workflow, dense_run):
        dataset, config, plan = workflow
        _, params, losses = _run(config, dataset, plan, allreduce_codec=None)
        _, dense_params, dense_losses = dense_run
        assert losses == dense_losses
        for got, want in zip(params, dense_params):
            assert got.tobytes() == want.tobytes()



class TestQuantSumIsOneQuantization:
    @pytest.mark.parametrize("overlap", [False, True, "cross_stage"])
    @pytest.mark.parametrize("algorithm", ALLREDUCE_ALGORITHMS)
    def test_gradient_is_the_dense_gradients_quantize_dequantize(
        self, workflow, overlap, algorithm
    ):
        dataset, config, plan = workflow
        dense = _first_step_grads(config, dataset, plan, overlap=overlap)
        quant = _first_step_grads(
            config,
            dataset,
            plan,
            overlap=overlap,
            allreduce_codec="quant_sum",
            allreduce_algorithm=algorithm,
        )
        assert len(quant) == len(dense) > 0
        for got, want in zip(quant, dense):
            assert got.dtype == want.dtype
            assert got.tobytes() == _quantize_dequantize(want).tobytes()

    @pytest.fixture(scope="class")
    def quant_run(self, workflow):
        dataset, config, plan = workflow
        return _run(config, dataset, plan, allreduce_codec="quant_sum")

    @pytest.mark.parametrize("overlap", [False, True, "cross_stage"])
    @pytest.mark.parametrize("algorithm", ALLREDUCE_ALGORITHMS)
    def test_bit_identical_across_overlap_and_algorithm(
        self, workflow, quant_run, overlap, algorithm
    ):
        dataset, config, plan = workflow
        _, want_params, want_losses = quant_run
        _, params, losses = _run(
            config,
            dataset,
            plan,
            overlap=overlap,
            allreduce_codec="quant_sum",
            allreduce_algorithm=algorithm,
        )
        assert losses == want_losses
        for got, want in zip(params, want_params):
            assert got.tobytes() == want.tobytes()

    def test_bit_identical_on_switch_fabric(self, workflow, quant_run):
        dataset, config, plan = workflow
        network = NetworkModel.from_topology(
            Topology.hierarchical(2, 2, NVLINK_LIKE, IB_HDR_LIKE)
        )
        dense = _first_step_grads(config, dataset, plan)
        quant = _first_step_grads(
            config,
            dataset,
            plan,
            network=network,
            allreduce_codec="quant_sum",
            allreduce_algorithm="switch",
        )
        for got, want in zip(quant, dense):
            assert got.tobytes() == _quantize_dequantize(want).tobytes()
        _, want_params, want_losses = quant_run
        _, params, losses = _run(
            config,
            dataset,
            plan,
            network=network,
            allreduce_codec="quant_sum",
            allreduce_algorithm="switch",
        )
        assert losses == want_losses
        for got, want in zip(params, want_params):
            assert got.tobytes() == want.tobytes()


class TestQuantSumBound:
    @pytest.mark.parametrize("overlap", [False, True, "cross_stage"])
    def test_parameters_within_composed_bound(self, workflow, overlap, dense_run):
        eb = ALLREDUCE_ERROR_BOUND
        dataset, config, plan = workflow
        if overlap is not False:
            _, dense_params, _ = _run(config, dataset, plan, overlap=overlap)
        else:
            _, dense_params, _ = dense_run
        _, params, _ = _run(
            config,
            dataset,
            plan,
            overlap=overlap,
            allreduce_codec="quant_sum",
        )
        # Per step the decoded gradient total is within the composed bound
        # n * eb of the exact sum, so each SGD update moves a parameter by
        # at most lr * n * eb away from its dense twin.
        bound = STEPS * LR * N_RANKS * eb
        worst = max(
            float(np.max(np.abs(got.astype(np.float64) - want.astype(np.float64)), initial=0.0))
            for got, want in zip(params, dense_params)
        )
        assert 0.0 < worst <= bound

    def test_tighter_bound_tracks_dense_more_closely(self):
        """The trainer's bound is a constant; the all-reduce it calls takes
        any bound, and a tighter one lands closer to the exact sum."""
        rng = np.random.default_rng(5)
        shards = [rng.normal(0, 0.1, 257).astype(np.float32) for _ in range(N_RANKS)]
        exact = np.sum(np.stack(shards).astype(np.float64), axis=0)

        def worst_delta(eb):
            (total, *_) = ClusterSimulator(N_RANKS).comm.compressed_all_reduce(shards, eb)
            return float(np.max(np.abs(total.astype(np.float64) - exact)))

        assert worst_delta(1e-5) < worst_delta(1e-2) <= N_RANKS * 1e-2 * (1 + 1e-6)


class TestValidation:
    @pytest.mark.parametrize(
        "codec", [name for name in available_compressors() if name != "quant_sum"]
    )
    def test_other_codecs_rejected(self, workflow, codec):
        dataset, config, plan = workflow
        sim = ClusterSimulator(N_RANKS)
        with pytest.raises(ValueError, match=rf"allreduce_codec.*'{codec}'"):
            HybridParallelTrainer(
                DLRM(config),
                dataset,
                sim,
                pipeline=CompressionPipeline(AdaptiveController(plan)),
                lr=LR,
                allreduce_codec=codec,
            )

    def test_unknown_algorithm_rejected(self, workflow):
        dataset, config, plan = workflow
        sim = ClusterSimulator(N_RANKS)
        with pytest.raises(ValueError, match="allreduce_algorithm"):
            HybridParallelTrainer(
                DLRM(config),
                dataset,
                sim,
                pipeline=CompressionPipeline(AdaptiveController(plan)),
                lr=LR,
                allreduce_algorithm="mesh",
            )
