"""Hybrid-parallel DLRM training over the cluster simulator.

Reproduces the paper's training system (Section II-A): embedding tables are
*model parallel* (each rank owns a table subset and looks up the **global**
batch for its tables), MLPs are *data parallel* (each rank handles its
sub-batch; gradients are all-reduced).  The forward all-to-all redistributes
per-table lookups from table owners to sub-batch owners; the backward
all-to-all returns the lookup gradients.

With a :class:`~repro.train.pipeline.CompressionPipeline`, the forward
exchange runs the paper's 4-stage compressed pipeline: per-slice
compression under the dual-level adaptive controller, a metadata all-to-all
(stage ②, needed because error-bounded payloads have variable size), the
payload all-to-all, and per-slice decompression.

**Every collective goes through the** :class:`~repro.dist.comm.Communicator`
— the trainer never charges ``simulator.collective`` directly, so trainer
and communicator cannot drift apart.  ``overlap=True`` runs the compressed
exchanges in the communicator's chunk-level pipelined mode (stage ①
overlapping stage ③ on per-rank streams, ``pipeline_chunks`` wire chunks
per rank); ``overlap="cross_stage"`` additionally issues the *backward*
embedding-gradient exchange before charging the bottom-MLP backward
kernels, so that exchange overlaps compute across pipeline stages (the
kernels ride into the communicator as ``overlap_compute_seconds`` — the
numerics are bit-identical in every mode, only the charge schedule moves).
``allreduce_algorithm="hierarchical"`` prices the dense synchronization
with the topology-aware hierarchical schedule (``"switch"`` with the
in-network aggregation tree, meaningful alongside ``allreduce_codec=``).

``allreduce_codec="count_sum"`` / ``"quant_sum"`` routes the dense
gradient all-reduce through
:meth:`~repro.dist.comm.Communicator.compressed_all_reduce`: each rank
encodes a disjoint strided shard of the global MLP gradient (rank ``r``
owns elements ``r::n``, so the shards sum *exactly* to the gradient), the
payloads aggregate in compressed space with no intermediate decode, and
the decoded total lands back in ``param.grad`` before the optimizer step.
With the lossless ``count_sum`` the parameters stay bit-identical to the
uncompressed path; with ``quant_sum`` they stay within the composed bound
``lr_effective * n_ranks * allreduce_error_bound`` per step.

**Numerics vs. timing.**  All ranks of the simulation share one
:class:`~repro.model.dlrm.DLRM` parameter set: replicated data-parallel
MLPs with all-reduced gradients are numerically identical to a single copy
trained on the global batch, and each sharded table has exactly one owner.
What the receivers see — decompressed lookups — is computed for real, so
accuracy effects are exact; compute and communication *times* are charged
to per-rank clocks through the GPU/network cost models, with byte counts
taken from the actual compressed payloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.synthetic import SyntheticClickDataset
from repro.dist.simulator import ClusterSimulator
from repro.dist.timeline import OBS_STREAM, EventCategory, Timeline
from repro.model.dlrm import DLRM
from repro.obs.registry import UNIT_BUCKETS
from repro.obs.runtime import OBS
from repro.nn.loss import bce_grad, bce_with_logits
from repro.nn.optim import SGD, Adagrad
from repro.train.metrics import TrainingHistory
from repro.train.pipeline import CompressionPipeline
from repro.train.reference import evaluate_model
from repro.train.sharding import ShardingPlan
from repro.utils.validation import check_in, check_positive

__all__ = ["HybridParallelTrainer", "HybridTrainingReport"]


@dataclass
class HybridTrainingReport:
    """Outcome of a simulated hybrid-parallel run."""

    history: TrainingHistory
    timeline: Timeline
    makespan: float
    n_iterations: int
    global_batch_size: int
    n_ranks: int
    forward_wire_bytes: int  # bytes actually sent in forward all-to-alls
    forward_raw_bytes: int  # what uncompressed forward all-to-alls would send
    category_seconds: dict[str, float] = field(default_factory=dict)

    @property
    def iteration_seconds(self) -> float:
        return self.makespan / max(1, self.n_iterations)

    @property
    def forward_compression_ratio(self) -> float:
        """Overall forward-exchange data reduction."""
        return self.forward_raw_bytes / max(1, self.forward_wire_bytes)

    def breakdown_fractions(self) -> dict[str, float]:
        total = sum(self.category_seconds.values())
        if total == 0:
            return {}
        return {k: v / total for k, v in sorted(self.category_seconds.items())}


class HybridParallelTrainer:
    """SPMD driver for hybrid-parallel DLRM over the simulator."""

    def __init__(
        self,
        model: DLRM,
        dataset: SyntheticClickDataset,
        simulator: ClusterSimulator,
        pipeline: CompressionPipeline | None = None,
        lr: float = 0.1,
        optimizer: str = "sgd",
        sharding: ShardingPlan | None = None,
        overlap: bool | str = False,
        allreduce_algorithm: str = "ring",
        pipeline_chunks: int = 8,
        autotuner=None,
        codec_executor=None,
        allreduce_codec: str | None = None,
        allreduce_error_bound: float = 1e-3,
    ):
        check_positive("lr", lr)
        check_in("optimizer", optimizer, ("sgd", "adagrad"))
        check_in(
            "allreduce_algorithm", allreduce_algorithm, ("ring", "hierarchical", "switch")
        )
        check_positive("allreduce_error_bound", allreduce_error_bound)
        if allreduce_codec is not None:
            from repro.compression.homomorphic import homomorphic_codecs

            check_in("allreduce_codec", allreduce_codec, homomorphic_codecs())
        if overlap not in (False, True, "cross_stage"):
            raise ValueError(
                f"overlap must be False, True, or 'cross_stage', got {overlap!r}"
            )
        check_positive("pipeline_chunks", pipeline_chunks)
        if int(pipeline_chunks) != pipeline_chunks:
            raise ValueError(
                f"pipeline_chunks must be an integer, got {pipeline_chunks!r}"
            )
        self.model = model
        self.dataset = dataset
        self.simulator = simulator
        self.comm = simulator.comm
        self.pipeline = pipeline
        self.overlap = bool(overlap)
        self.cross_stage = overlap == "cross_stage"
        self.pipeline_chunks = int(pipeline_chunks)
        #: optional :class:`~repro.compression.parallel.ExchangeAutotuner`:
        #: when set, each exchange's measured compress/wire/decompress
        #: balance feeds it and the *next* exchange adopts its recommended
        #: pipeline chunk count (and codec parallelism, via the pipeline's
        #: executor).  Numerics are unaffected — only scheduling changes.
        self.autotuner = autotuner
        if codec_executor is not None:
            if pipeline is None:
                raise ValueError("codec_executor requires a compression pipeline")
            pipeline.executor = codec_executor
        if autotuner is not None and pipeline is not None and pipeline.autotuner is None:
            pipeline.autotuner = autotuner
        self.allreduce_algorithm = allreduce_algorithm
        self.allreduce_codec = allreduce_codec
        self.allreduce_error_bound = float(allreduce_error_bound)
        #: pooled scratch for the dense-path decode (ROADMAP 5b): the
        #: aggregated payload decodes into a BitstreamPool lease, not a
        #: fresh per-step output allocation.
        self._allreduce_pool = None
        if allreduce_codec is not None:
            from repro.compression.parallel import BitstreamPool

            self._allreduce_pool = BitstreamPool()
        n_tables = model.config.n_tables
        self.sharding = sharding or ShardingPlan.size_balanced(
            list(model.config.table_cardinalities), simulator.n_ranks
        )
        if self.sharding.n_tables != n_tables or self.sharding.n_ranks != simulator.n_ranks:
            raise ValueError("sharding plan does not match model/simulator layout")
        opt_cls = SGD if optimizer == "sgd" else Adagrad
        self._opt = opt_cls(model.parameters(), lr=lr)
        self._mlp_param_bytes = int(
            sum(p.data.size for p in model.mlp_parameters()) * 4
        )
        self.forward_wire_bytes = 0
        self.forward_raw_bytes = 0

    # ------------------------------------------------------------ internals

    @property
    def n_ranks(self) -> int:
        return self.simulator.n_ranks

    def _slices(self, batch_size: int) -> list[tuple[int, int]]:
        local = batch_size // self.n_ranks
        return [(r * local, (r + 1) * local) for r in range(self.n_ranks)]

    def _charge_mlp(self, batch: int, sizes: tuple[int, ...], category: str, scale: float = 1.0) -> None:
        gpu = self.simulator.gpu
        for rank in range(self.n_ranks):
            self.simulator.compute(rank, scale * gpu.mlp_time(batch, sizes), category)

    def _tuned_chunk_cap(self) -> int:
        """Pipeline chunk cap: the autotuner's recommendation once it has
        observed an exchange, else the constructor's ``pipeline_chunks``."""
        if self.autotuner is not None:
            decision = self.autotuner.recommend()
            if decision.observations:
                return decision.pipeline_chunks
        return self.pipeline_chunks

    def _forward_exchange(
        self, sparse: np.ndarray, iteration: int
    ) -> list[np.ndarray]:
        """Lookup + stages ①-④; returns per-table full-batch lookup rows
        (exactly what receivers reconstruct)."""
        gpu = self.simulator.gpu
        cfg = self.model.config
        batch_size = sparse.shape[0]
        slices = self._slices(batch_size)
        local = batch_size // self.n_ranks

        # Stage 0: every owner gathers its tables for the global batch.
        raw_lookups: dict[int, np.ndarray] = {}
        for rank in range(self.n_ranks):
            owned = self.sharding.tables_of(rank)
            if owned:
                self.simulator.compute(
                    rank,
                    gpu.lookup_time(batch_size, cfg.embedding_dim, len(owned)),
                    EventCategory.EMB_LOOKUP,
                )
            for table_id in owned:
                raw_lookups[table_id] = self.model.lookup(table_id, sparse[:, table_id])

        slice_bytes = local * cfg.embedding_dim * 4
        raw_matrix = np.zeros((self.n_ranks, self.n_ranks), dtype=np.int64)
        for table_id in range(cfg.n_tables):
            raw_matrix[self.sharding.owner_of(table_id), :] += slice_bytes
        self.forward_raw_bytes += int(raw_matrix.sum())

        if self.pipeline is None:
            # Uncompressed: each owner posts its per-destination row slices
            # (views — wire size equals the raw bytes) and receivers stitch
            # the full-batch rows back per table, bit-identically.
            sendbufs = [
                [
                    [raw_lookups[t][lo:hi] for t in self.sharding.tables_of(rank)]
                    for (lo, hi) in slices
                ]
                for rank in range(self.n_ranks)
            ]
            received = self.comm.all_to_all(sendbufs, EventCategory.ALLTOALL_FWD)
            self.forward_wire_bytes += int(raw_matrix.sum())
            reconstructed = []
            for table_id in range(cfg.n_tables):
                owner = self.sharding.owner_of(table_id)
                index = self.sharding.slot_of(table_id)
                reconstructed.append(
                    np.concatenate(
                        [received[dst][owner][index] for dst in range(self.n_ranks)],
                        axis=0,
                    )
                )
            return reconstructed

        # Stage ①: compress per (owned table x destination slice); the
        # communicator charges all four stages (and, in overlap mode,
        # pipelines stage ① against the wire on per-rank streams).
        payloads: dict[tuple[int, int], bytes] = {}  # (table, dst) -> payload
        wire_matrix = np.zeros((self.n_ranks, self.n_ranks), dtype=np.int64)
        entries_matrix = np.zeros((self.n_ranks, self.n_ranks), dtype=np.int64)
        compress_seconds = [0.0] * self.n_ranks
        chunks_per_rank = [1] * self.n_ranks
        chunk_cap = self._tuned_chunk_cap()
        # Gather every (table x destination) slice first, then compress the
        # whole exchange as one batch — the executor (when attached to the
        # pipeline) spreads the independent slices across its workers.
        slice_plan: list[tuple[int, int, int, np.ndarray]] = []  # rank, table, dst, rows
        for rank in range(self.n_ranks):
            for table_id in self.sharding.tables_of(rank):
                rows = raw_lookups[table_id]
                for dst, (lo, hi) in enumerate(slices):
                    slice_plan.append((rank, table_id, dst, rows[lo:hi]))
        slice_payloads = self.pipeline.compress_slices(
            [(table_id, rows) for (_, table_id, _, rows) in slice_plan], iteration
        )
        rank_chunks: dict[int, list[tuple[str, int]]] = {}
        for (rank, table_id, dst, rows), payload in zip(slice_plan, slice_payloads):
            payloads[(table_id, dst)] = payload
            wire_matrix[rank, dst] += len(payload)
            entries_matrix[rank, dst] += 1
            rank_chunks.setdefault(rank, []).append(
                (self.pipeline.controller.compressor_name(table_id), rows.nbytes)
            )
        for rank, chunks in rank_chunks.items():
            compress_seconds[rank] = self.pipeline.compression_seconds(chunks)
            # Pipeline depth: the communicator emits one real wire
            # event per chunk, so cap the granularity at the trainer's
            # pipeline_chunks knob (or the autotuner's recommendation)
            # — slices batch into that many chunk-sized kernels/messages.
            chunks_per_rank[rank] = min(len(chunks), chunk_cap)

        # Every receiver decodes the same per-slice chunk set.
        decompress_seconds = [
            self.pipeline.decompression_seconds(
                [
                    (self.pipeline.controller.compressor_name(t), slice_bytes)
                    for t in range(cfg.n_tables)
                ]
            )
        ] * self.n_ranks
        sendbufs = [
            [
                [payloads[(t, dst)] for t in self.sharding.tables_of(rank)]
                for dst in range(self.n_ranks)
            ]
            for rank in range(self.n_ranks)
        ]
        # Stages ②+③(+①/④ timing): metadata round, then payloads.
        self.comm.compressed_all_to_all(
            sendbufs,
            metadata_bytes_per_entry=self.pipeline.metadata_bytes_per_entry,
            entries_per_pair=entries_matrix,
            category=EventCategory.ALLTOALL_FWD,
            overlap=self.overlap,
            compress_seconds=compress_seconds,
            decompress_seconds=decompress_seconds,
            chunks_per_rank=chunks_per_rank,
        )
        self.forward_wire_bytes += int(wire_matrix.sum())
        if self.autotuner is not None:
            # Feed the measured balance: critical-path compress/decompress
            # vs. the fabric's makespan for this wire matrix.  The *next*
            # exchange adopts the updated recommendation.
            self.autotuner.observe(
                max(compress_seconds),
                float(self.simulator.network.all_to_all_time(wire_matrix)),
                max(decompress_seconds),
            )

        # Stage ④ numerics: every receiver decodes all tables for its
        # slice; the batched decode keeps codec caches hot per table.
        reconstructed: list[np.ndarray] = []
        for table_id in range(cfg.n_tables):
            parts = self.pipeline.decompress_batch(
                [payloads[(table_id, dst)] for dst in range(self.n_ranks)]
            )
            reconstructed.append(np.concatenate(parts, axis=0))
        return reconstructed

    def _backward_exchange(
        self,
        sparse: np.ndarray,
        d_emb: list[np.ndarray],
        iteration: int,
        overlap_compute: list[float] | None = None,
    ) -> None:
        """Gradient all-to-all (uncompressed unless the pipeline opts in) +
        sparse accumulation at the table owners.

        ``overlap_compute`` (cross-stage mode) carries the bottom-MLP
        backward kernel times into the communicator so the exchange's wire
        overlaps them — the exchange is issued first, the kernels launch
        behind the compression chunks, decode trails the arrivals."""
        gpu = self.simulator.gpu
        cfg = self.model.config
        batch_size = sparse.shape[0]
        slices = self._slices(batch_size)
        local = batch_size // self.n_ranks
        slice_bytes = local * cfg.embedding_dim * 4

        compress = self.pipeline is not None and self.pipeline.compress_backward
        grads_to_apply: list[np.ndarray] = list(d_emb)
        if compress:
            # Gradient payloads are self-describing (no metadata round);
            # sendbufs[src][owner] batches every table slice src owes owner.
            sendbufs: list[list[list[bytes]]] = [
                [[] for _ in range(self.n_ranks)] for _ in range(self.n_ranks)
            ]
            grads_to_apply = [g.copy() for g in d_emb]  # slices replaced below
            compress_seconds = [0.0] * self.n_ranks
            chunks_per_rank = [1] * self.n_ranks
            for src, (lo, hi) in enumerate(slices):
                chunks: list[tuple[str, int]] = []
                for table_id in range(cfg.n_tables):
                    owner = self.sharding.owner_of(table_id)
                    rows = np.ascontiguousarray(d_emb[table_id][lo:hi], dtype=np.float32)
                    payload = self.pipeline.compress_slice(table_id, rows, iteration)
                    grads_to_apply[table_id][lo:hi] = self.pipeline.decompress_slice(payload)
                    sendbufs[src][owner].append(payload)
                    chunks.append(
                        (self.pipeline.controller.compressor_name(table_id), rows.nbytes)
                    )
                compress_seconds[src] = self.pipeline.compression_seconds(chunks)
                chunks_per_rank[src] = max(1, min(len(chunks), self._tuned_chunk_cap()))
            decompress_seconds = [
                self.pipeline.decompression_seconds(
                    [
                        (self.pipeline.controller.compressor_name(t), slice_bytes)
                        for t in self.sharding.tables_of(rank)
                        for _ in range(self.n_ranks)
                    ]
                )
                if self.sharding.tables_of(rank)
                else 0.0
                for rank in range(self.n_ranks)
            ]
            self.comm.compressed_all_to_all(
                sendbufs,
                entries_per_pair=np.zeros((self.n_ranks, self.n_ranks), dtype=np.int64),
                category=EventCategory.ALLTOALL_BWD,
                overlap=self.overlap,
                compress_seconds=compress_seconds,
                decompress_seconds=decompress_seconds,
                chunks_per_rank=chunks_per_rank,
                overlap_compute_seconds=overlap_compute,
                overlap_compute_category=EventCategory.BOTTOM_MLP_BWD,
            )
        else:
            grad_matrix = np.zeros((self.n_ranks, self.n_ranks), dtype=np.int64)
            for table_id in range(cfg.n_tables):
                grad_matrix[:, self.sharding.owner_of(table_id)] += slice_bytes
            self.comm.all_to_all_bytes(
                grad_matrix,
                EventCategory.ALLTOALL_BWD,
                overlap_compute_seconds=overlap_compute,
                overlap_compute_category=EventCategory.BOTTOM_MLP_BWD,
            )

        for rank in range(self.n_ranks):
            owned = self.sharding.tables_of(rank)
            if owned:
                self.simulator.compute(
                    rank,
                    gpu.lookup_time(batch_size, cfg.embedding_dim, len(owned)),
                    EventCategory.EMB_UPDATE,
                )
            for table_id in owned:
                self.model.accumulate_embedding_grad(
                    table_id, sparse[:, table_id], grads_to_apply[table_id]
                )

    def _homomorphic_dense_sync(self) -> None:
        """Dense gradient all-reduce in compressed space.

        The replicated-MLP trainer computes the *global* gradient in
        process, so the per-rank contributions are reconstructed as
        disjoint strided shards: rank ``r`` encodes a payload holding
        elements ``r::n`` of the gradient (zeros elsewhere).  The shards
        sum exactly to the gradient — each element has exactly one nonzero
        leaf — so ``count_sum`` reproduces it bit for bit and ``quant_sum``
        stays within the composed bound.  Encode/decode device time is
        priced as one gradient-sized memcpy per rank (quantize / limb
        kernels are memory-bound), and the final decode lands in a pooled
        scratch lease.
        """
        params = self.model.mlp_parameters()
        grads = np.concatenate([p.grad.ravel() for p in params])
        n = self.n_ranks
        shards = []
        for rank in range(n):
            shard = np.zeros_like(grads)
            shard[rank::n] = grads[rank::n]
            shards.append(shard)
        codec_seconds = self.simulator.gpu.memcpy_time(grads.nbytes)
        totals = self.comm.compressed_all_reduce(
            shards,
            codec=self.allreduce_codec,
            error_bound=self.allreduce_error_bound,
            algorithm=self.allreduce_algorithm,
            encode_seconds=[codec_seconds] * n,
            decode_seconds=[codec_seconds] * n,
            pool=self._allreduce_pool,
        )
        total = totals[0]
        offset = 0
        for param in params:
            size = param.grad.size
            param.grad[...] = total[offset : offset + size].reshape(param.grad.shape)
            offset += size

    # -------------------------------------------------------------- public

    def train_step(self, global_batch_size: int, iteration: int) -> float:
        """One hybrid-parallel iteration; returns the global-batch loss."""
        check_positive("global_batch_size", global_batch_size)
        if global_batch_size % self.n_ranks:
            raise ValueError(
                f"global batch {global_batch_size} not divisible by {self.n_ranks} ranks"
            )
        cfg = self.model.config
        gpu = self.simulator.gpu
        local = global_batch_size // self.n_ranks
        batch = self.dataset.batch(global_batch_size, batch_index=iteration)
        obs_on = OBS.enabled
        if obs_on:
            step_start = self.simulator.makespan()
            events_before = len(self.simulator.timeline.events)
            wire_before = self.forward_wire_bytes
            raw_before = self.forward_raw_bytes

        # Forward: bottom MLP (data parallel) + embedding exchange.
        self._charge_mlp(local, self.model.bottom_mlp.sizes, EventCategory.BOTTOM_MLP_FWD)
        bottom_out = self.model.forward_dense(batch.dense)
        emb_rows = self._forward_exchange(batch.sparse, iteration)
        for rank in range(self.n_ranks):
            self.simulator.compute(
                rank,
                gpu.interaction_time(local, cfg.interaction_features, cfg.embedding_dim),
                EventCategory.INTERACTION_FWD,
            )
        self._charge_mlp(local, self.model.top_mlp.sizes, EventCategory.TOP_MLP_FWD)
        logits = self.model.forward_interaction(bottom_out, emb_rows)
        loss = bce_with_logits(logits, batch.labels)

        # Backward: symmetric stages.
        dlogits = bce_grad(logits, batch.labels)
        self._charge_mlp(local, self.model.top_mlp.sizes, EventCategory.TOP_MLP_BWD, scale=2.0)
        for rank in range(self.n_ranks):
            self.simulator.compute(
                rank,
                2.0 * gpu.interaction_time(local, cfg.interaction_features, cfg.embedding_dim),
                EventCategory.INTERACTION_BWD,
            )
        d_bottom, d_emb = self.model.backward_interaction(dlogits)
        if self.cross_stage:
            # Cross-stage overlap: the gradient exchange is issued first
            # and the bottom-MLP backward kernels ride into it, so the
            # wire hides behind them (charge schedule only — numerics are
            # identical to the sequential order below).
            mlp_bwd = 2.0 * self.simulator.gpu.mlp_time(local, self.model.bottom_mlp.sizes)
            self._backward_exchange(
                batch.sparse, d_emb, iteration, overlap_compute=[mlp_bwd] * self.n_ranks
            )
        else:
            self._backward_exchange(batch.sparse, d_emb, iteration)
            self._charge_mlp(local, self.model.bottom_mlp.sizes, EventCategory.BOTTOM_MLP_BWD, scale=2.0)
        self.model.backward_dense(d_bottom)

        # Dense gradient synchronization + update (numerics are exact by
        # construction: replicated MLPs over the global batch).
        if self.allreduce_codec is None:
            self.comm.all_reduce_bytes(
                self._mlp_param_bytes, algorithm=self.allreduce_algorithm
            )
        else:
            self._homomorphic_dense_sync()
        param_bytes = sum(p.data.nbytes for p in self.model.parameters())
        for rank in range(self.n_ranks):
            self.simulator.compute(
                rank,
                gpu.memcpy_time(param_bytes / max(1, self.n_ranks)),
                EventCategory.OPTIMIZER,
            )
        self._opt.step()
        if obs_on:
            self._obs_step(
                iteration, float(loss), step_start, events_before, wire_before, raw_before
            )
        return loss

    def _obs_step(
        self,
        iteration: int,
        loss: float,
        step_start: float,
        events_before: int,
        wire_before: int,
        raw_before: int,
    ) -> None:
        """Per-iteration step breakdown: a TRAIN_STEP annotation span on
        the obs lane (so one chrome trace shows step boundaries over the
        compute/comm events), the step-time histogram, wire-byte counters,
        and this iteration's overlap efficiency measured over exactly the
        events the step recorded."""
        from repro.profiling.breakdown import overlap_efficiency

        timeline = self.simulator.timeline
        step_end = self.simulator.makespan()
        wire_bytes = self.forward_wire_bytes - wire_before
        timeline.record(
            0,
            EventCategory.TRAIN_STEP,
            step_start,
            step_end - step_start,
            stream=OBS_STREAM,
            args={"iteration": iteration, "loss": loss},
        )
        timeline.record_counter(
            "train_wire_bytes", step_end, float(self.forward_wire_bytes)
        )
        window = Timeline()
        window.events = timeline.events[events_before:]
        efficiency = overlap_efficiency(window)
        reg = OBS.registry
        if OBS.slo_hub is not None:
            OBS.slo_hub.feed("train_step", step_end, step_end - step_start)
        reg.histogram(
            "train_step_seconds", "simulated wall time per iteration"
        ).observe(step_end - step_start)
        reg.histogram(
            "train_overlap_efficiency",
            "per-iteration fraction of wire time hidden behind compute",
            bounds=UNIT_BUCKETS,
        ).observe(efficiency)
        reg.gauge(
            "train_overlap_efficiency_last", "overlap efficiency of the latest iteration"
        ).set(efficiency)
        reg.counter("train_iterations_total", "completed iterations").inc()
        reg.counter(
            "train_forward_wire_bytes_total", "compressed forward-exchange bytes"
        ).inc(wire_bytes)
        reg.counter(
            "train_forward_raw_bytes_total", "uncompressed-equivalent forward bytes"
        ).inc(self.forward_raw_bytes - raw_before)

    def train(
        self,
        n_iterations: int,
        global_batch_size: int,
        eval_every: int = 0,
        eval_batch_size: int = 512,
        eval_batches: int = 4,
    ) -> HybridTrainingReport:
        """Run the simulated training loop and collect the full report."""
        check_positive("n_iterations", n_iterations)
        history = TrainingHistory()
        for iteration in range(n_iterations):
            loss = self.train_step(global_batch_size, iteration)
            history.record_loss(loss)
            last = iteration == n_iterations - 1
            if eval_every and (iteration % eval_every == eval_every - 1 or last):
                accuracy, auc = evaluate_model(
                    self.model, self.dataset, eval_batch_size, eval_batches
                )
                history.record_eval(iteration, accuracy, auc)
        return HybridTrainingReport(
            history=history,
            timeline=self.simulator.timeline,
            makespan=self.simulator.makespan(),
            n_iterations=n_iterations,
            global_batch_size=global_batch_size,
            n_ranks=self.n_ranks,
            forward_wire_bytes=self.forward_wire_bytes,
            forward_raw_bytes=self.forward_raw_bytes,
            category_seconds=self.simulator.timeline.total_by_category(rank=0),
        )
