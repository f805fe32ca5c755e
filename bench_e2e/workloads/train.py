"""``train_compressed`` / ``train_baseline``: the paper's training scenario.

The world is the headline one of ``examples/train_dlrm_simulated_cluster.py``
(32 ranks, Criteo-Kaggle-shaped tables capped at 4000 rows, dim 64, global
batch 4096).  ``train_compressed`` runs the dual-level adaptive pipeline on
the forward all-to-all and is the only workload where every layer does real
work; ``train_baseline`` passes ``pipeline=None``, bypassing
``repro.compression`` and ``repro.train.pipeline`` entirely — the control
on which a codec or framing change must show no move, and the plain
reference whose losses must equal ``ReferenceTrainer``'s bit for bit.

A segment is one ``HybridParallelTrainer.train_step`` (the primary
operation, reported as training samples per wall second) followed by one
held-out ``evaluate_model`` call of 4 x 512 samples — the evaluation the
headline example ends with (the secondary operation, evaluated samples per
second), each timed on its own.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.adaptive import AdaptiveController, StepwiseDecay
from repro.dist import ClusterSimulator
from repro.model import DLRM
from repro.obs import MetricsRegistry
from repro.obs.runtime import capture
from repro.profiling import compare_runs
from repro.train import CompressionPipeline, HybridParallelTrainer, ReferenceTrainer
from repro.train import reference

from bench_e2e.harness import Part, RunContext
from bench_e2e.trace import Totals
from bench_e2e.workloads.common import (
    COLLECTIVES,
    DECODE_KERNELS,
    ENCODE_KERNELS,
    PACK_FRAMING,
    PARSE_FRAMING,
    build_world,
    is_name,
)

__all__ = ["TrainWorkload"]

N_RANKS = 32
GLOBAL_BATCH = 4096
LEARNING_RATE = 0.2
EVAL_BATCH = 512
EVAL_BATCHES = 4
#: steps compared against the plain single-worker reference / the twin run
REFERENCE_STEPS = 4
#: compressed-vs-uncompressed loss gap allowed at one iteration
LOSS_TOLERANCE = 0.02


class TrainWorkload:
    def __init__(self, compressed: bool):
        self.compressed = compressed
        self.name = "train_compressed" if compressed else "train_baseline"

    # ---------------------------------------------------------------- set-up

    def build(self, ctx: RunContext) -> None:
        # (warm-up steps, minimum timed segments)
        self.warmup, self.min_steps = (1, 2) if ctx.smoke else (2, 16 if self.compressed else 24)
        self.dataset, self.config, self.plan = build_world(
            ctx.seed, 64, bottom_hidden=(128, 64), top_hidden=(128, 64)
        )
        self.pipeline = None
        if self.compressed:
            # The decay phase covers the first half of the fixed step count,
            # as in the headline example (ITERATIONS // 2).
            phase = max(1, (self.warmup + self.min_steps) // 2)
            controller = AdaptiveController(
                self.plan, StepwiseDecay(2.0, phase_iterations=phase, n_steps=4)
            )
            self.pipeline = CompressionPipeline(controller)
        self.trainer = HybridParallelTrainer(
            DLRM(self.config),
            self.dataset,
            ClusterSimulator(N_RANKS),
            pipeline=self.pipeline,
            lr=LEARNING_RATE,
        )
        self._iteration = 0
        self.losses = [self._step() for _ in range(self.warmup)]
        reference.evaluate_model(self.trainer.model, self.dataset, EVAL_BATCH, EVAL_BATCHES)

    def _step(self) -> float:
        """The next iteration (warm-up and timed steps share one counter)."""
        loss = float(self.trainer.train_step(GLOBAL_BATCH, self._iteration))
        self._iteration += 1
        return loss

    # --------------------------------------------------------------- measure

    def measure(self, ctx: RunContext) -> None:
        trainer = self.trainer
        sim = trainer.simulator
        start = (
            sim.makespan(),
            len(sim.timeline.events),
            trainer.forward_wire_bytes,
            trainer.forward_raw_bytes,
        )

        def step() -> None:
            self.losses.append(self._step())

        # Called through the module so the tracer's rebinding is seen here too.
        def evaluate() -> None:
            self._scores = reference.evaluate_model(
                trainer.model, self.dataset, EVAL_BATCH, EVAL_BATCHES
            )

        def check() -> None:
            loss = self.losses[-1]
            ctx.count(math.isfinite(loss), f"step {self._iteration - 1}: loss {loss!r}")
            ctx.count(all(0.0 <= score <= 1.0 for score in self._scores), "evaluation out of range")

        ctx.run_segments(
            [Part("step", step, GLOBAL_BATCH), Part("eval", evaluate, EVAL_BATCH * EVAL_BATCHES)],
            min_segments=self.min_steps,
            seconds=ctx.seconds,
            after=check,
        )
        steps = self._iteration - self.warmup
        self.timed_steps = steps
        self.sim_seconds_per_step = (sim.makespan() - start[0]) / steps
        self.events_per_step = (len(sim.timeline.events) - start[1]) / steps
        self.wire_bytes_per_step = (trainer.forward_wire_bytes - start[2]) / steps
        self.raw_bytes_per_step = (trainer.forward_raw_bytes - start[3]) / steps

    def end_to_end(self, ctx: RunContext) -> dict[str, float]:
        return {
            "primary_ops_per_s": ctx.phases["step"].ops_per_second,
            "secondary_ops_per_s": ctx.phases["eval"].ops_per_second,
        }

    # ---------------------------------------------------------------- verify

    def verify(self, ctx: RunContext) -> None:
        n_ref = min(REFERENCE_STEPS, len(self.losses))
        if not self.compressed:
            plain = ReferenceTrainer(DLRM(self.config), self.dataset, lr=LEARNING_RATE)
            for iteration in range(n_ref):
                expected = float(plain.train_step(GLOBAL_BATCH, iteration))
                ctx.count(
                    expected == self.losses[iteration],
                    f"iteration {iteration}: loss {self.losses[iteration]!r} != "
                    f"ReferenceTrainer's {expected!r}",
                )
            return
        # The uncompressed twin: same model seed, pipeline=None.  Its losses
        # bound the accuracy cost; its (shape-determined) simulated time per
        # iteration is the base of the paper's speedups.
        twin = HybridParallelTrainer(
            DLRM(self.config), self.dataset, ClusterSimulator(N_RANKS), lr=LEARNING_RATE
        )
        for iteration in range(n_ref):
            expected = float(twin.train_step(GLOBAL_BATCH, iteration))
            gap = abs(expected - self.losses[iteration])
            ctx.count(
                gap <= LOSS_TOLERANCE,
                f"iteration {iteration}: compressed loss is {gap:.4f} from the baseline's",
            )
        self.twin = twin
        self.twin_steps = n_ref
        iteration = self._iteration - 1
        batch = self.dataset.batch(GLOBAL_BATCH, batch_index=iteration)
        controller = self.pipeline.controller
        for table in range(self.config.n_tables):
            rows = self.trainer.model.lookup(table, batch.sparse[:, table])
            decoded = self.pipeline.roundtrip(table, rows, iteration)
            bound = controller.error_bound(table, iteration)
            tolerance = bound * (1 + 1e-5) + np.spacing(np.abs(decoded).max())
            error = float(np.abs(rows.astype(np.float64) - decoded).max())
            ctx.count(
                error <= tolerance, f"table {table}: round-trip error {error:.3e} > bound {bound:.3e}"
            )

    # ------------------------------------------------------------- per layer

    def _obs_overhead(self) -> float:
        """Fastest step with ``repro.obs`` enabled over the fastest with it
        off, interleaved (ROADMAP direction 5; not on any gated path yet)."""
        on, off = [], []
        for _ in range(1 if len(self.losses) < 6 else 3):
            with capture(MetricsRegistry()):
                start = time.perf_counter()
                self._step()
                on.append(time.perf_counter() - start)
            start = time.perf_counter()
            self._step()
            off.append(time.perf_counter() - start)
        return min(on) / min(off)

    def per_layer(self, ctx: RunContext, totals: Totals) -> dict[str, float]:
        step = ctx.phases["step"]
        n = len(step.traced_walls)
        root = totals.root_seconds["step"]

        def ms_per_step(match) -> float:
            return 1e3 * totals.inclusive_seconds("step", match) / n

        def self_ms_per_step(match) -> float:
            return 1e3 * totals.name_self_seconds("step", match) / n

        dist_self = totals.self_seconds("step", ["dist"])
        metrics = {
            "data.batch_ms_per_step": ms_per_step(is_name("SyntheticClickDataset.batch")),
            "model.forward_dense_ms_per_step": ms_per_step(is_name("DLRM.forward_dense")),
            "model.lookup_ms_per_step": ms_per_step(is_name("DLRM.lookup")),
            "model.forward_interaction_ms_per_step": ms_per_step(is_name("DLRM.forward_interaction")),
            "model.backward_interaction_ms_per_step": ms_per_step(is_name("DLRM.backward_interaction")),
            "model.backward_dense_ms_per_step": ms_per_step(is_name("DLRM.backward_dense")),
            "model.accumulate_embedding_grad_ms_per_step": ms_per_step(
                is_name("DLRM.accumulate_embedding_grad")
            ),
            "nn.optim_step_ms_per_step": ms_per_step(is_name("SGD.step")),
            "model.share_of_step": totals.self_seconds("step", ["model", "nn"]) / root,
            "train.hybrid.glue_self_ms_per_step": 1e3 * totals.self_seconds("step", ["train.hybrid"]) / n,
            "train.reference.evaluate_ms_per_call": 1e3
            * totals.inclusive_seconds("eval", is_name(".evaluate_model"))
            / max(1, len(ctx.phases["eval"].traced_walls)),
            "dist.comm_self_ms_per_step": 1e3 * dist_self / n,
            "dist.events_per_step": self.events_per_step,
            "dist.collective_calls_per_step": totals.calls("step", COLLECTIVES) / n,
            "dist.wire_bytes_per_step": self.wire_bytes_per_step,
            "dist.us_per_event": 1e6 * dist_self / (n * self.events_per_step),
            "dist.sim_iteration_ms": 1e3 * self.sim_seconds_per_step,
            "train.final_loss": self.losses[self.warmup + self.min_steps - 1],
        }
        if not self.compressed:
            return metrics
        encode_s = totals.inclusive_seconds("step", is_name("._compress_body"))
        decode_s = totals.inclusive_seconds("step", DECODE_KERNELS)
        twin_seconds = self.twin.simulator.makespan() / self.twin_steps
        iterations = self.warmup + self.timed_steps

        def per_iteration(trainer, n_iterations) -> dict[str, float]:
            categories = trainer.simulator.timeline.total_by_category(rank=0)
            return {key: value / n_iterations for key, value in categories.items()}

        speedups = compare_runs(
            per_iteration(self.twin, self.twin_steps), per_iteration(self.trainer, iterations)
        )
        metrics.update(
            {
                "train.pipeline.compress_slices_ms_per_step": ms_per_step(
                    is_name("CompressionPipeline.compress_slices")
                ),
                "train.pipeline.decompress_batch_ms_per_step": ms_per_step(
                    is_name("CompressionPipeline.decompress_batch")
                ),
                "train.pipeline.slices_per_step": totals.calls(
                    "step", is_name("CompressionPipeline.compress_slice")
                )
                / n,
                "train.pipeline.payload_bytes_per_step": self.wire_bytes_per_step,
                "train.pipeline.fwd_compression_ratio": self.raw_bytes_per_step
                / self.wire_bytes_per_step,
                "compression.kernels.encode_self_ms_per_step": self_ms_per_step(ENCODE_KERNELS),
                "compression.kernels.decode_self_ms_per_step": self_ms_per_step(DECODE_KERNELS),
                "compression.kernels.encode_calls_per_step": totals.calls(
                    "step", is_name("._compress_body")
                )
                / n,
                "compression.kernels.pack_codes_calls_per_step": totals.calls(
                    "step", is_name(".pack_codes")
                )
                / n,
                "compression.kernels.encode_mb_per_s": totals.counter("step", "encode_bytes")
                / 1e6
                / encode_s,
                "compression.kernels.decode_mb_per_s": totals.counter("step", "decode_bytes")
                / 1e6
                / decode_s,
                "compression.framing.pack_self_ms_per_step": self_ms_per_step(PACK_FRAMING),
                "compression.framing.parse_self_ms_per_step": self_ms_per_step(PARSE_FRAMING),
                "compression.framing.parse_calls_per_payload": totals.calls(
                    "step", is_name(".parse_payload")
                )
                / totals.calls("step", is_name(".decompress_any")),
                "adaptive.controller_ms_per_step": 1e3 * totals.self_seconds("step", ["adaptive"]) / n,
                "dist.sim_e2e_speedup": twin_seconds / self.sim_seconds_per_step,
                "dist.sim_fwd_a2a_speedup": speedups.communication,
                "obs.enabled_overhead_ratio": self._obs_overhead(),
            }
        )
        return metrics
