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
payload all-to-all, and per-slice decompression.  With
``compress_backward`` the gradient exchange runs through the same routine
(:meth:`HybridParallelTrainer._compressed_exchange`) with sender and
receiver swapped.  It skips stage ②: gradient payloads are
self-describing (each header carries the slice's size and codec), so that
direction is charged framing only — the paper's pipeline adds the
metadata round to the forward exchange alone.

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

``allreduce_codec="quant_sum"`` routes the dense gradient all-reduce
through :meth:`~repro.dist.comm.Communicator.compressed_all_reduce`: each
rank encodes a disjoint strided shard of the global MLP gradient (rank
``r`` owns elements ``r::n``, so the shards sum *exactly* to the
gradient), the payloads aggregate in compressed space with no intermediate
decode, and the decoded total lands back in ``param.grad`` before the
optimizer step.  Each element has exactly one nonzero leaf, so each
gradient element equals its own quantize-dequantize at
``ALLREDUCE_ERROR_BOUND``, in every overlap mode and schedule.

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

from repro.compression.serialization import CorruptPayloadError
from repro.data.synthetic import SyntheticClickDataset
from repro.dist.network import ALLREDUCE_ALGORITHMS
from repro.dist.simulator import ClusterSimulator
from repro.dist.timeline import OBS_STREAM, EventCategory, Timeline
from repro.model.dlrm import DLRM
from repro.obs.registry import UNIT_BUCKETS
from repro.obs.runtime import OBS
from repro.nn.loss import bce_grad, bce_with_logits
from repro.nn.optim import SGD
from repro.nn.param import PRICED_ITEMSIZE
from repro.train.metrics import TrainingHistory
from repro.train.pipeline import CompressionPipeline
from repro.train.reference import EVAL_BATCHES, evaluate_model
from repro.train.sharding import ShardingPlan
from repro.utils.validation import check_count, check_in, check_positive

__all__ = ["HybridParallelTrainer", "HybridTrainingReport"]

#: per-rank error bound of the ``quant_sum`` gradient all-reduce
ALLREDUCE_ERROR_BOUND = 1e-3


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


class HybridParallelTrainer:
    """SPMD driver for hybrid-parallel DLRM over the simulator."""

    def __init__(
        self,
        model: DLRM,
        dataset: SyntheticClickDataset,
        simulator: ClusterSimulator,
        pipeline: CompressionPipeline | None = None,
        lr: float = 0.1,
        sharding: ShardingPlan | None = None,
        overlap: bool | str = False,
        allreduce_algorithm: str = "ring",
        pipeline_chunks: int = 8,
        allreduce_codec: str | None = None,
    ):
        check_positive("lr", lr)
        check_in("allreduce_algorithm", allreduce_algorithm, ALLREDUCE_ALGORITHMS)
        if allreduce_codec is not None:
            check_in("allreduce_codec", allreduce_codec, ("quant_sum",))
        if overlap not in (False, True, "cross_stage"):
            raise ValueError(
                f"overlap must be False, True, or 'cross_stage', got {overlap!r}"
            )
        self.model = model
        self.dataset = dataset
        self.simulator = simulator
        self.comm = simulator.comm
        self.pipeline = pipeline
        self.overlap = bool(overlap)
        self.cross_stage = overlap == "cross_stage"
        self.pipeline_chunks = check_count("pipeline_chunks", pipeline_chunks, 1)
        self.allreduce_algorithm = allreduce_algorithm
        self.allreduce_codec = allreduce_codec
        n_tables = model.config.n_tables
        self.sharding = sharding or ShardingPlan.size_balanced(
            list(model.config.table_cardinalities), simulator.n_ranks
        )
        if self.sharding.n_tables != n_tables or self.sharding.n_ranks != simulator.n_ranks:
            raise ValueError("sharding plan does not match model/simulator layout")
        self._opt = SGD(model.parameters(), lr=lr)
        self._mlp_param_bytes = sum(p.data.nbytes for p in model.mlp_parameters())
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
        seconds = scale * self.simulator.gpu.mlp_time(batch, sizes)
        self.simulator.compute([seconds] * self.n_ranks, category)

    def _lookup_seconds(self, batch_size: int) -> list[float]:
        """Per rank: one gather (or scatter-update) over the tables it owns
        for the global batch; 0 on a rank that owns none."""
        gpu, dim = self.simulator.gpu, self.model.config.embedding_dim
        return [
            gpu.lookup_time(batch_size, dim, len(owned)) if owned else 0.0
            for owned in map(self.sharding.tables_of, range(self.n_ranks))
        ]

    def _forward_exchange(
        self, sparse: np.ndarray, iteration: int
    ) -> list[np.ndarray]:
        """Lookup + stages ①-④; returns per-table full-batch lookup rows
        (exactly what receivers reconstruct)."""
        cfg = self.model.config
        batch_size = sparse.shape[0]
        local = batch_size // self.n_ranks

        # Stage 0: every owner gathers its tables for the global batch.
        self.simulator.compute(self._lookup_seconds(batch_size), EventCategory.EMB_LOOKUP)
        raw_lookups = {
            table_id: self.model.lookup(table_id, sparse[:, table_id])
            for rank in range(self.n_ranks)
            for table_id in self.sharding.tables_of(rank)
        }

        slice_bytes = local * cfg.embedding_dim * 4
        raw_matrix = np.zeros((self.n_ranks, self.n_ranks), dtype=np.int64)
        for table_id in range(cfg.n_tables):
            raw_matrix[self.sharding.owner_of(table_id), :] += slice_bytes
        self.forward_raw_bytes += int(raw_matrix.sum())

        if self.pipeline is None:
            # Uncompressed: the receivers' full-batch rows are the owners'
            # lookups bit for bit, so the exchange is charged from its byte
            # matrix, like the uncompressed backward one.
            self.comm.all_to_all_bytes(raw_matrix, EventCategory.ALLTOALL_FWD)
            self.forward_wire_bytes += int(raw_matrix.sum())
            return [raw_lookups[t] for t in range(cfg.n_tables)]

        reconstructed, wire_nbytes = self._compressed_exchange(
            [raw_lookups[t] for t in range(cfg.n_tables)],
            iteration,
            owner_sends=True,
            metadata=True,
            category=EventCategory.ALLTOALL_FWD,
        )
        self.forward_wire_bytes += wire_nbytes
        return reconstructed

    def _compressed_exchange(
        self,
        rows: list[np.ndarray],
        iteration: int,
        *,
        owner_sends: bool,
        metadata: bool,
        category: str,
        overlap_compute: list[float] | None = None,
    ) -> tuple[list[np.ndarray], int]:
        """Stages ①-④ of one compressed embedding exchange, either direction.

        ``rows[t]`` holds table ``t``'s full-batch rows; every ``(table,
        batch-slice)`` pair travels between the table's owner and the
        slice's rank — owner to slice rank when ``owner_sends`` (forward
        lookups), slice rank to owner otherwise (backward gradients).
        ``metadata`` runs the stage-② round (one entry per slice).
        Returns each table's decoded full-batch rows (exactly what the
        receivers reconstruct) and the payload bytes posted."""
        pipeline = self.pipeline
        n = self.n_ranks
        slices = self._slices(rows[0].shape[0])
        # Owner-major -> table -> batch slice: each table's slices are
        # consecutive, so stage ① compresses them as one stack.
        plan = [
            (owner, table_id, part, rows[table_id][lo:hi])
            for owner in range(n)
            for table_id in self.sharding.tables_of(owner)
            for part, (lo, hi) in enumerate(slices)
        ]
        payloads = pipeline.compress_slices([(t, r) for (_, t, _, r) in plan], iteration)
        sendbufs: list[list[list[bytes]]] = [[[] for _ in range(n)] for _ in range(n)]
        send_chunks: list[list[tuple[str, int]]] = [[] for _ in range(n)]
        recv_chunks: list[list[tuple[str, int]]] = [[] for _ in range(n)]
        by_table: dict[int, list[bytes]] = {}
        for (owner, table_id, part, r), payload in zip(plan, payloads):
            src, dst = (owner, part) if owner_sends else (part, owner)
            sendbufs[src][dst].append(payload)
            chunk = (pipeline.controller.compressor_name(table_id), r.nbytes)
            send_chunks[src].append(chunk)
            recv_chunks[dst].append(chunk)
            by_table.setdefault(table_id, []).append(payload)
        entries = np.array(
            [[len(buf) if metadata else 0 for buf in row] for row in sendbufs], dtype=np.int64
        )
        # The communicator charges all four stages (and, in overlap mode,
        # pipelines stage ① against the wire on per-rank streams).
        self.comm.compressed_all_to_all(
            sendbufs,
            entries_per_pair=entries,
            category=category,
            overlap=self.overlap,
            compress_seconds=[pipeline.compression_seconds(c) for c in send_chunks],
            decompress_seconds=[pipeline.decompression_seconds(c) for c in recv_chunks],
            # Pipeline depth: the communicator emits one real wire event
            # per chunk, so cap the granularity at the trainer's
            # pipeline_chunks knob — slices batch into that many
            # chunk-sized kernels/messages.
            chunks_per_rank=[max(1, min(len(c), self.pipeline_chunks)) for c in send_chunks],
            overlap_compute_seconds=overlap_compute,
        )
        # Stage ④ numerics: one batched decode per table keeps codec
        # caches hot across its slices.  A corrupt slice names its table
        # and iteration.
        decoded = []
        for t in range(len(rows)):
            try:
                arrays = pipeline.decompress_batch(by_table[t])
            except CorruptPayloadError as exc:
                raise CorruptPayloadError(f"table {t}, iteration {iteration}: {exc}") from exc
            decoded.append(np.concatenate(arrays, axis=0))
        return decoded, sum(map(len, payloads))

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
        cfg = self.model.config
        batch_size = sparse.shape[0]
        grads: list[np.ndarray] = d_emb
        if self.pipeline is not None and self.pipeline.compress_backward:
            # Self-describing gradient payloads: no stage-② round.
            grads, _ = self._compressed_exchange(
                [np.ascontiguousarray(g) for g in d_emb],
                iteration,
                owner_sends=False,
                metadata=False,
                category=EventCategory.ALLTOALL_BWD,
                overlap_compute=overlap_compute,
            )
        else:
            slice_bytes = batch_size // self.n_ranks * cfg.embedding_dim * 4
            grad_matrix = np.zeros((self.n_ranks, self.n_ranks), dtype=np.int64)
            for table_id in range(cfg.n_tables):
                grad_matrix[:, self.sharding.owner_of(table_id)] += slice_bytes
            self.comm.all_to_all_bytes(
                grad_matrix,
                EventCategory.ALLTOALL_BWD,
                overlap_compute_seconds=overlap_compute,
            )

        self.simulator.compute(self._lookup_seconds(batch_size), EventCategory.EMB_UPDATE)
        for rank in range(self.n_ranks):
            for table_id in self.sharding.tables_of(rank):
                self.model.accumulate_embedding_grad(
                    table_id, sparse[:, table_id], grads[table_id]
                )

    def _homomorphic_dense_sync(self) -> None:
        """Dense gradient all-reduce in compressed space.

        The replicated-MLP trainer computes the *global* gradient in
        process, so the per-rank contributions are reconstructed as
        disjoint strided shards: rank ``r`` encodes a payload holding
        elements ``r::n`` of the gradient (zeros elsewhere).  The shards
        sum exactly to the gradient — each element has exactly one nonzero
        leaf, and a zero encodes to code 0 — so each element comes back as
        its own quantize-dequantize.  Encode/decode device time is priced
        as one gradient-sized memcpy per rank at ``PRICED_ITEMSIZE`` bytes
        per element (the quantize kernels are memory-bound).
        """
        params = self.model.mlp_parameters()
        grads = np.concatenate([p.grad.ravel() for p in params])
        n = self.n_ranks
        shards = []
        for rank in range(n):
            shard = np.zeros_like(grads)
            shard[rank::n] = grads[rank::n]
            shards.append(shard)
        codec_seconds = self.simulator.gpu.memcpy_time(grads.size * PRICED_ITEMSIZE)
        totals = self.comm.compressed_all_reduce(
            shards,
            error_bound=ALLREDUCE_ERROR_BOUND,
            algorithm=self.allreduce_algorithm,
            encode_seconds=[codec_seconds] * n,
            decode_seconds=[codec_seconds] * n,
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
        check_count("global_batch_size", global_batch_size, 1)
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
            events_before = len(self.simulator.timeline)
            wire_before = self.forward_wire_bytes
            raw_before = self.forward_raw_bytes

        # Forward: bottom MLP (data parallel) + embedding exchange.
        self._charge_mlp(local, self.model.bottom_mlp.sizes, EventCategory.BOTTOM_MLP_FWD)
        bottom_out = self.model.forward_dense(batch.dense)
        emb_rows = self._forward_exchange(batch.sparse, iteration)
        interaction = gpu.interaction_time(local, cfg.interaction_features, cfg.embedding_dim)
        self.simulator.compute([interaction] * self.n_ranks, EventCategory.INTERACTION_FWD)
        self._charge_mlp(local, self.model.top_mlp.sizes, EventCategory.TOP_MLP_FWD)
        logits = self.model.forward_interaction(bottom_out, emb_rows)
        loss = bce_with_logits(logits, batch.labels)

        # Backward: symmetric stages.
        dlogits = bce_grad(logits, batch.labels)
        self._charge_mlp(local, self.model.top_mlp.sizes, EventCategory.TOP_MLP_BWD, scale=2.0)
        self.simulator.compute([2.0 * interaction] * self.n_ranks, EventCategory.INTERACTION_BWD)
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
        param_bytes = sum(p.data.size for p in self.model.parameters()) * PRICED_ITEMSIZE
        optimizer = gpu.memcpy_time(param_bytes / self.n_ranks)
        self.simulator.compute([optimizer] * self.n_ranks, EventCategory.OPTIMIZER)
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
        efficiency = overlap_efficiency(timeline, first=events_before)
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
    ) -> HybridTrainingReport:
        """Run the simulated training loop and collect the full report."""
        check_count("n_iterations", n_iterations, 1)
        history = TrainingHistory()
        for iteration in range(n_iterations):
            loss = self.train_step(global_batch_size, iteration)
            history.record_loss(loss)
            last = iteration == n_iterations - 1
            if eval_every and (iteration % eval_every == eval_every - 1 or last):
                accuracy, auc = evaluate_model(self.model, self.dataset, n_batches=EVAL_BATCHES)
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
