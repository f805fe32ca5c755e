"""The compressed all-to-all pipeline (Section III-A).

The paper's training pipeline adds four stages around the embedding
exchange: ① compress per-table/per-destination chunks on each device,
② exchange compressed-size *metadata* (a small fixed-size all-to-all),
③ exchange the variable-size payloads, ④ decompress on each receiver.

:class:`CompressionPipeline` owns stages ① and ④: it applies the dual-level
adaptive controller (per-table encoder + effective error bound at the
current iteration), collects per-transfer statistics, and prices the
modelled GPU cost of each stage — fused single-kernel compression per the
paper's buffer optimization, or naive per-chunk kernels for ablations.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from itertools import groupby
from typing import Sequence

import numpy as np

from repro.adaptive.controller import AdaptiveController
from repro.adaptive.selection import PAPER_A100_PROFILE, DeviceThroughputProfile
from repro.compression.buffer import BufferCostModel
from repro.compression.cache import TableCodebookCache
from repro.compression.entropy import EntropyCompressor
from repro.compression.registry import decompress_any
from repro.compression.vector_lz import DEFAULT_WINDOW, VectorLZCompressor
from repro.dist.gpu import A100_LIKE, GpuModel
from repro.obs.registry import exponential_buckets
from repro.obs.runtime import OBS

__all__ = ["TransferStats", "CompressionPipeline"]

#: compression-ratio histogram buckets: 1x .. ~2900x in sqrt-2 steps
RATIO_BUCKETS = exponential_buckets(1.0, 2**0.5, 24)


@dataclass(frozen=True)
class TransferStats:
    """Accounting for one compressed table-slice transfer."""

    iteration: int
    table_id: int
    codec: str
    error_bound: float
    original_nbytes: int
    compressed_nbytes: int

    @property
    def ratio(self) -> float:
        return self.original_nbytes / max(1, self.compressed_nbytes)


@dataclass
class CompressionPipeline:
    """Stages ① and ④ of the compressed training pipeline.

    Parameters
    ----------
    controller:
        The dual-level adaptive controller (per-table codec + decayed
        error bound).
    profile:
        Modelled device throughputs per codec (for simulated timing).
    gpu:
        GPU cost model used for kernel pricing.
    fused_kernels:
        ``True`` (default) prices stage ① as one fused kernel per codec —
        the paper's buffer optimization; ``False`` prices naive per-chunk
        kernels (the Fig. 15 ablation).
    compress_backward:
        Also compress the gradient all-to-all.  Off by default: the paper
        compresses the forward exchange (Fig. 12).
    codebook_refresh:
        Staleness window (in uses per table) for the shared Huffman
        codebook cache on the compress hot loop; ``0`` disables caching.
    """

    controller: AdaptiveController
    profile: DeviceThroughputProfile = field(default_factory=lambda: PAPER_A100_PROFILE)
    gpu: GpuModel = field(default_factory=lambda: A100_LIKE)
    window: int = DEFAULT_WINDOW
    fused_kernels: bool = True
    compress_backward: bool = False
    #: metadata bytes exchanged per (pair, table): compressed size + codec id
    metadata_bytes_per_entry: int = 16
    codebook_refresh: int = 8
    #: optional :class:`~repro.compression.parallel.CodecExecutor`: batch
    #: stage-①/④ calls run across its workers (payload bytes independent of
    #: worker count).  ``None`` keeps the seed's serial keyed path.
    executor: object | None = None
    #: optional :class:`~repro.compression.parallel.ExchangeAutotuner`
    #: supplying the per-batch parallelism hint for the executor
    autotuner: object | None = None

    def __post_init__(self) -> None:
        self.codebook_cache = (
            TableCodebookCache(refresh_every=self.codebook_refresh)
            if self.codebook_refresh > 0
            else None
        )
        self._codecs = {
            "vector_lz": VectorLZCompressor(window=self.window),
            "entropy": EntropyCompressor(codebook_cache=self.codebook_cache),
        }
        self._buffer_models: dict[tuple[str, str], BufferCostModel] = {}
        self.stats: list[TransferStats] = []
        self._last_codec: dict[int, str] = {}

    # ------------------------------------------------------------ stage ①/④

    def compress_slice(self, table_id: int, rows: np.ndarray, iteration: int) -> bytes:
        """Compress one table's rows bound for one destination rank."""
        codec_name = self.controller.compressor_name(table_id)
        error_bound = self.controller.error_bound(table_id, iteration)
        payload = self._codecs[codec_name].compress(rows, error_bound, key=table_id)
        self._record_transfer(table_id, codec_name, error_bound, iteration, rows.nbytes, len(payload))
        return payload

    def _record_transfer(
        self,
        table_id: int,
        codec_name: str,
        error_bound: float,
        iteration: int,
        raw_nbytes: int,
        compressed_nbytes: int,
    ) -> None:
        self.stats.append(
            TransferStats(
                iteration=iteration,
                table_id=table_id,
                codec=codec_name,
                error_bound=error_bound,
                original_nbytes=raw_nbytes,
                compressed_nbytes=compressed_nbytes,
            )
        )
        if OBS.enabled:
            self._obs_transfer(
                table_id, codec_name, error_bound, iteration, raw_nbytes, compressed_nbytes
            )

    def _obs_transfer(
        self,
        table_id: int,
        codec_name: str,
        error_bound: float,
        iteration: int,
        raw_nbytes: int,
        compressed_nbytes: int,
    ) -> None:
        """Per-transfer stage-① metrics: bytes, ratio, bound utilization,
        and codec-selection churn (how often the controller's per-table
        pick changes between consecutive transfers of one table)."""
        reg = OBS.registry
        reg.counter("pipeline_raw_bytes_total", "stage-① input bytes").inc(
            raw_nbytes, codec=codec_name
        )
        reg.counter(
            "pipeline_compressed_bytes_total", "stage-① output bytes"
        ).inc(compressed_nbytes, codec=codec_name)
        reg.histogram(
            "pipeline_compression_ratio",
            "per-transfer compression ratio",
            bounds=RATIO_BUCKETS,
        ).observe(raw_nbytes / max(1, compressed_nbytes), table=str(table_id))
        base = self.controller.error_bound(table_id, 0)
        reg.gauge(
            "pipeline_bound_utilization",
            "effective error bound over the table's base bound",
        ).set(error_bound / base if base > 0 else 0.0, table=str(table_id))
        last = self._last_codec.get(table_id)
        if last is not None and last != codec_name:
            reg.counter(
                "pipeline_codec_switch_total",
                "per-table codec-selection changes between transfers",
            ).inc(1, table=str(table_id))
        self._last_codec[table_id] = codec_name

    def _tuned_parallelism(self) -> int | None:
        if self.autotuner is None:
            return None
        decision = self.autotuner.recommend()
        return decision.workers if decision.observations else None

    def compress_slices(
        self, slices: Sequence[tuple[int, np.ndarray]], iteration: int
    ) -> list:
        """Stage ① over many independent ``(table_id, rows)`` slices.

        Without an executor, consecutive equal-shape slices of one
        vector-LZ table — the 32 destination slices the trainer posts per
        table — compress as one stack (:meth:`VectorLZCompressor.compress_stack`,
        the wall-clock counterpart of the fused kernel ``fused_kernels``
        prices); everything else goes slice by slice through
        :meth:`compress_slice`.  Payload bytes and their order equal a plain
        loop of :meth:`compress_slice`.  With an executor, slices compress
        through its stateless parallel path at the autotuner's recommended
        parallelism — payload bytes are then independent of worker count
        *and* of keyed cache state, so the wire traffic is reproducible run
        to run.  Stats/obs accounting is identical in every mode.
        """
        if self.executor is None:
            payloads: list = []
            for (table_id, _, _), group in groupby(
                slices, key=lambda s: (s[0], s[1].shape, s[1].dtype)
            ):
                rows = [r for _, r in group]
                codec_name = self.controller.compressor_name(table_id)
                if codec_name != "vector_lz" or len(rows) == 1 or rows[0].ndim != 2:
                    payloads.extend(self.compress_slice(table_id, r, iteration) for r in rows)
                    continue
                error_bound = self.controller.error_bound(table_id, iteration)
                stack_payloads = self._codecs[codec_name].compress_stack(np.stack(rows), error_bound)
                for r, payload in zip(rows, stack_payloads):
                    self._record_transfer(
                        table_id, codec_name, error_bound, iteration, r.nbytes, len(payload)
                    )
                payloads.extend(stack_payloads)
            return payloads
        from repro.compression.parallel import CompressJob

        jobs = []
        routes = []
        for table_id, rows in slices:
            codec_name = self.controller.compressor_name(table_id)
            error_bound = self.controller.error_bound(table_id, iteration)
            kwargs = (("window", self.window),) if codec_name == "vector_lz" else ()
            jobs.append(CompressJob(codec_name, np.ascontiguousarray(rows), error_bound, kwargs))
            routes.append((table_id, codec_name, error_bound))
        payloads = self.executor.compress_batch(jobs, parallelism=self._tuned_parallelism())
        for (table_id, codec_name, error_bound), job, payload in zip(routes, jobs, payloads):
            self._record_transfer(
                table_id, codec_name, error_bound, iteration, job.array.nbytes, len(payload)
            )
        return payloads

    def decompress_slice(self, payload: bytes) -> np.ndarray:
        """Stage ④: reconstruct a slice (self-describing payload)."""
        arr = decompress_any(payload)
        if OBS.enabled:
            OBS.registry.counter(
                "pipeline_decompressed_bytes_total", "stage-④ output bytes"
            ).inc(arr.nbytes)
        return arr

    def decompress_batch(self, payloads: Sequence[bytes]) -> list[np.ndarray]:
        """Stage ④ over a whole received batch (e.g. every slice of one
        exchange, as handed back by
        :meth:`~repro.dist.comm.Communicator.compressed_all_to_all`).

        A batch of equal-shape vector-LZ payloads (one table's slices)
        decodes in one pass; otherwise decoding back to back keeps the
        Huffman peek-table and codebook caches hot across payloads that
        share a table's codebook — one cache fill amortizes over the
        exchange instead of per slice.  With an executor attached, the
        batch decodes across its workers (decompression is stateless, so
        results are identical).
        """
        if self.executor is not None:
            arrays = self.executor.decompress_batch(
                payloads, parallelism=self._tuned_parallelism()
            )
        else:
            arrays = None
            if len(payloads) > 1:
                arrays = self._codecs["vector_lz"].decompress_stack(payloads)
            if arrays is None:
                arrays = [decompress_any(payload) for payload in payloads]
        if OBS.enabled:
            OBS.registry.counter(
                "pipeline_decompressed_bytes_total", "stage-④ output bytes"
            ).inc(sum(a.nbytes for a in arrays))
        return arrays

    def roundtrip(self, table_id: int, rows: np.ndarray, iteration: int) -> np.ndarray:
        """Compress + decompress — the noise the receiver actually sees.

        Used by the single-process reference trainer to study accuracy
        effects without simulating a cluster.
        """
        return self.decompress_slice(self.compress_slice(table_id, rows, iteration))

    # ------------------------------------------------------------- timing

    def _codec_throughputs(self, codec: str) -> tuple[float, float]:
        t = self.profile.for_codec(codec)
        return t.compress, t.decompress

    def _buffer_model(self, codec: str, stage: str) -> BufferCostModel:
        """Memoized per-(codec, stage) cost model — these are rebuilt for
        every simulated exchange otherwise (the timing hot loop)."""
        key = (codec, stage)
        model = self._buffer_models.get(key)
        if model is None:
            tc, td = self._codec_throughputs(codec)
            if stage == "compress":
                model = BufferCostModel(gpu=self.gpu, compress_throughput=tc)
            else:
                model = BufferCostModel(gpu=self.gpu, decompress_throughput=td)
            self._buffer_models[key] = model
        return model

    def compression_seconds(self, chunks: list[tuple[str, int]]) -> float:
        """Modelled stage-① time for ``(codec, input_nbytes)`` chunks.

        Chunks are grouped by codec; each group runs as one fused kernel
        (buffer optimization) or as per-chunk kernels.
        """
        by_codec: dict[str, list[float]] = defaultdict(list)
        for codec, nbytes in chunks:
            by_codec[codec].append(float(nbytes))
        total = 0.0
        for codec, sizes in by_codec.items():
            model = self._buffer_model(codec, "compress")
            if self.fused_kernels:
                total += model.fused_compression_seconds(sizes)
            else:
                total += model.chunked_compression_seconds(sizes)
        return total

    def decompression_seconds(self, chunks: list[tuple[str, int]]) -> float:
        """Modelled stage-④ time (parallel chunk decode when fused)."""
        by_codec: dict[str, list[float]] = defaultdict(list)
        for codec, nbytes in chunks:
            by_codec[codec].append(float(nbytes))
        total = 0.0
        for codec, sizes in by_codec.items():
            model = self._buffer_model(codec, "decompress")
            if self.fused_kernels:
                total += model.parallel_decompression_seconds(sizes)
            else:
                total += model.serial_decompression_seconds(sizes)
        return total

    # ------------------------------------------------- future-work overlap

    def pipelined_exchange_seconds(
        self, chunks: list[tuple[str, int]], wire_seconds_per_chunk: list[float]
    ) -> float:
        """Makespan of a compression⇄transmission *pipeline* (future work).

        The paper's future work proposes integrating (de)compression with
        the communication library so chunk ``i+1`` compresses while chunk
        ``i`` is on the wire.  For per-chunk compress times ``c_i`` and
        wire times ``w_i``, the classic two-stage pipeline makespan is::

            max_k ( sum_{i<=k} c_i  +  sum_{i>=k} w_i )

        Chunks run as individual kernels here (they must be available
        incrementally), so this composes with ``fused_kernels=False``
        pricing.  Compare with :meth:`sequential_exchange_seconds`.
        """
        if len(chunks) != len(wire_seconds_per_chunk):
            raise ValueError(
                f"{len(chunks)} chunks but {len(wire_seconds_per_chunk)} wire times"
            )
        if not chunks:
            return 0.0
        if any(w < 0 for w in wire_seconds_per_chunk):
            raise ValueError("wire times must be >= 0")
        compress_times = []
        for codec, nbytes in chunks:
            model = self._buffer_model(codec, "compress")
            compress_times.append(model.chunked_compression_seconds([float(nbytes)]))
        prefix_c = 0.0
        best = 0.0
        suffix_w = [0.0] * (len(chunks) + 1)
        for i in range(len(chunks) - 1, -1, -1):
            suffix_w[i] = suffix_w[i + 1] + wire_seconds_per_chunk[i]
        for k in range(len(chunks)):
            prefix_c += compress_times[k]
            best = max(best, prefix_c + suffix_w[k])
        return best

    def sequential_exchange_seconds(
        self, chunks: list[tuple[str, int]], wire_seconds_per_chunk: list[float]
    ) -> float:
        """No overlap: all compression, then all transmission (the default
        pipeline the paper ships; baseline for the overlap ablation)."""
        if len(chunks) != len(wire_seconds_per_chunk):
            raise ValueError(
                f"{len(chunks)} chunks but {len(wire_seconds_per_chunk)} wire times"
            )
        return self.compression_seconds(chunks) + sum(wire_seconds_per_chunk)

    # ------------------------------------------------------------- reports

    def mean_ratio(self, table_id: int | None = None) -> float:
        """Average compression ratio over recorded transfers."""
        selected = [
            s for s in self.stats if table_id is None or s.table_id == table_id
        ]
        if not selected:
            raise ValueError("no transfers recorded")
        original = sum(s.original_nbytes for s in selected)
        compressed = sum(s.compressed_nbytes for s in selected)
        return original / max(1, compressed)

    def clear_stats(self) -> None:
        self.stats.clear()
