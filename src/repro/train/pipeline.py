"""The compressed all-to-all pipeline (Section III-A).

The paper's training pipeline adds four stages around the embedding
exchange: ① compress per-table/per-destination chunks on each device,
② exchange compressed-size *metadata* (a small fixed-size all-to-all),
③ exchange the variable-size payloads, ④ decompress on each receiver.

:class:`CompressionPipeline` owns stages ① and ④: it applies the dual-level
adaptive controller (per-table encoder + effective error bound at the
current iteration), collects per-transfer statistics, and prices the
modelled A100 cost of each stage (``A100_LIKE`` kernels at
``PAPER_A100_PROFILE`` codec throughputs) — fused single-kernel
compression per the paper's buffer optimization, or naive per-chunk
kernels for ablations.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from itertools import groupby
from typing import Sequence

import numpy as np

from repro.adaptive.controller import AdaptiveController
from repro.adaptive.selection import PAPER_A100_PROFILE
from repro.compression.buffer import BufferCostModel
from repro.compression.entropy import EntropyCompressor
from repro.compression.registry import decompress_any
from repro.compression.vector_lz import VectorLZCompressor
from repro.dist.gpu import A100_LIKE
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


@dataclass
class CompressionPipeline:
    """Stages ① and ④ of the compressed training pipeline.

    Parameters
    ----------
    controller:
        The dual-level adaptive controller (per-table codec + decayed
        error bound).
    fused_kernels:
        ``True`` (default) prices stage ① as one fused kernel per codec —
        the paper's buffer optimization; ``False`` prices naive per-chunk
        kernels (the Fig. 15 ablation).
    compress_backward:
        Also compress the gradient all-to-all — through the same
        :meth:`compress_slices` / :meth:`decompress_batch` calls as the
        forward exchange.  Off by default: the paper compresses the
        forward exchange (Fig. 12).
    """

    controller: AdaptiveController
    fused_kernels: bool = True
    compress_backward: bool = False
    #: metadata bytes exchanged per (pair, table): compressed size + codec id
    metadata_bytes_per_entry: int = field(init=False, default=16)

    def __post_init__(self) -> None:
        self._codecs = {"vector_lz": VectorLZCompressor(), "entropy": EntropyCompressor()}
        self._buffer_models: dict[tuple[str, str], BufferCostModel] = {}
        self.stats: list[TransferStats] = []
        self._last_codec: dict[int, str] = {}

    # ------------------------------------------------------------ stage ①/④

    def compress_slice(self, table_id: int, rows: np.ndarray, iteration: int) -> bytes:
        """Compress one table's rows bound for one destination rank."""
        codec_name = self.controller.compressor_name(table_id)
        error_bound = self.controller.error_bound(table_id, iteration)
        payload = self._codecs[codec_name].compress(rows, error_bound)
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

    def compress_slices(
        self, slices: Sequence[tuple[int, np.ndarray]], iteration: int
    ) -> list:
        """Stage ① over many independent ``(table_id, rows)`` slices.

        Consecutive equal-shape slices of one vector-LZ table — one per
        batch slice, as the trainer posts them in either exchange
        direction — compress as one stack
        (:meth:`VectorLZCompressor.compress_stack`, the wall-clock
        counterpart of the fused kernel ``fused_kernels`` prices);
        everything else goes slice by slice through :meth:`compress_slice`.
        Payload bytes, their order and the stats/obs accounting equal a
        plain loop of :meth:`compress_slice`.
        """
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
        decodes in one pass; otherwise each payload decodes on its own,
        back to back.
        """
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
        t = PAPER_A100_PROFILE.for_codec(codec)
        return t.compress, t.decompress

    def _buffer_model(self, codec: str, stage: str) -> BufferCostModel:
        """Memoized per-(codec, stage) cost model — these are rebuilt for
        every simulated exchange otherwise (the timing hot loop)."""
        key = (codec, stage)
        model = self._buffer_models.get(key)
        if model is None:
            tc, td = self._codec_throughputs(codec)
            if stage == "compress":
                model = BufferCostModel(gpu=A100_LIKE, compress_throughput=tc)
            else:
                model = BufferCostModel(gpu=A100_LIKE, decompress_throughput=td)
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

    # ------------------------------------------------------------- reports

    def mean_ratio(self) -> float:
        """Average compression ratio over recorded transfers."""
        if not self.stats:
            raise ValueError("no transfers recorded")
        original = sum(s.original_nbytes for s in self.stats)
        compressed = sum(s.compressed_nbytes for s in self.stats)
        return original / max(1, compressed)
