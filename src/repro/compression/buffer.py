"""Buffer-optimization cost model (Section III-E, Fig. 15).

In all-to-all, each rank compresses one chunk per peer.  The naive scheme
launches one kernel per chunk and memcpys each compressed chunk into the
send buffer; the paper's optimization runs a *single* fused kernel that
claims write offsets with an atomic add and writes compressed output
directly into the send buffer.  Decompression is symmetric: the received
chunks can be decompressed by concurrent kernels instead of serially.

This module prices both schemes with the :class:`~repro.dist.gpu.GpuModel`
(kernel-launch overhead + utilization-scaled throughput), reproducing the
paper's findings: the fused kernel wins more as chunk count grows, and wins
more at small block sizes (8 MB) than large ones (64 MB).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dist.gpu import A100_LIKE, GpuModel
from repro.utils.validation import check_positive

__all__ = ["BufferCostModel", "BufferComparison"]

#: cost of the offset-claiming atomic add + flag synchronization, per chunk
#: (one atomicAdd on a global counter plus a release flag write)
_ATOMIC_SYNC_OVERHEAD = 0.1e-6
#: compression ratio the naive scheme's memcpy volume is priced at
COMPRESSION_RATIO = 10.0


@dataclass(frozen=True)
class BufferComparison:
    """Timing of the chunked vs. fused execution of one exchange."""

    chunked_seconds: float
    fused_seconds: float

    @property
    def speedup(self) -> float:
        return self.chunked_seconds / self.fused_seconds


@dataclass(frozen=True)
class BufferCostModel:
    """Prices chunked vs. single-kernel compression/decompression."""

    gpu: GpuModel = A100_LIKE
    compress_throughput: float = 40.5e9  # bytes/s at full utilization
    decompress_throughput: float = 205.4e9

    def __post_init__(self) -> None:
        check_positive("compress_throughput", self.compress_throughput)
        check_positive("decompress_throughput", self.decompress_throughput)

    def _validate_chunks(self, chunk_bytes: list[float] | tuple[float, ...]) -> list[float]:
        chunks = [float(c) for c in chunk_bytes]
        if not chunks:
            raise ValueError("need at least one chunk")
        if any(c < 0 for c in chunks):
            raise ValueError("chunk sizes must be >= 0")
        return chunks

    # ------------------------------------------------------------- compress

    def chunked_compression_seconds(self, chunk_bytes: list[float]) -> float:
        """One kernel per chunk + memcpy of each compressed chunk into the
        send buffer (the naive pointer-returning compressor)."""
        chunks = self._validate_chunks(chunk_bytes)
        total = 0.0
        for c in chunks:
            total += self.gpu.throughput_kernel_time(c, self.compress_throughput)
            total += self.gpu.memcpy_time(c / COMPRESSION_RATIO)
        return total

    def fused_compression_seconds(self, chunk_bytes: list[float]) -> float:
        """Single fused kernel writing directly to the send buffer."""
        chunks = self._validate_chunks(chunk_bytes)
        whole = sum(chunks)
        kernel = self.gpu.throughput_kernel_time(whole, self.compress_throughput)
        return kernel + _ATOMIC_SYNC_OVERHEAD * len(chunks)

    def compare_compression(self, chunk_bytes: list[float]) -> BufferComparison:
        return BufferComparison(
            chunked_seconds=self.chunked_compression_seconds(chunk_bytes),
            fused_seconds=self.fused_compression_seconds(chunk_bytes),
        )

    # ----------------------------------------------------------- decompress

    def serial_decompression_seconds(self, chunk_bytes: list[float]) -> float:
        """Chunks decompressed one kernel after another."""
        chunks = self._validate_chunks(chunk_bytes)
        return sum(
            self.gpu.throughput_kernel_time(c, self.decompress_throughput) for c in chunks
        )

    def parallel_decompression_seconds(self, chunk_bytes: list[float]) -> float:
        """Chunks decompressed by concurrent kernels sharing the device.

        The wave completes when the shared-throughput processing of all
        bytes finishes, but no faster than the largest chunk alone at full
        rate; a single launch round is charged.
        """
        chunks = self._validate_chunks(chunk_bytes)
        whole = sum(chunks)
        shared = whole / (self.decompress_throughput * self.gpu.utilization(whole)) if whole else 0.0
        largest = max(chunks)
        alone = largest / self.decompress_throughput if largest else 0.0
        return self.gpu.kernel_launch_overhead + max(shared, alone)

    def compare_decompression(self, chunk_bytes: list[float]) -> BufferComparison:
        return BufferComparison(
            chunked_seconds=self.serial_decompression_seconds(chunk_bytes),
            fused_seconds=self.parallel_decompression_seconds(chunk_bytes),
        )
