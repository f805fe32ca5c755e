"""GPU cost model: kernel-launch overhead + utilization-scaled throughput.

Every simulated device operation is priced with the same three-part recipe
the paper's measurements exhibit (Section IV, Fig. 15): a fixed kernel
launch overhead, a peak rate (FLOPS for GEMMs, bytes/s for streaming
kernels), and a *utilization* factor that rises with the work size —
small kernels leave most of the device idle, which is exactly why the
paper's fused single-kernel buffer optimization wins at small chunk sizes.

The model is deliberately analytic: it prices operations, it does not run
them.  Numerics are computed exactly elsewhere (:mod:`repro.dist.comm`);
only *time* flows through this class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.utils.units import MB
from repro.utils.validation import check_positive

__all__ = ["GpuModel", "A100_LIKE"]

#: fraction of peak FLOPS the training-step GEMMs achieve (small DLRM
#: layers never saturate tensor cores)
GEMM_EFFICIENCY = 0.33
#: peak HBM bandwidth, bytes/s
MEMORY_BANDWIDTH = 1.555e12
#: fraction of peak bandwidth an embedding gather/scatter achieves
#: (random-access rows defeat coalescing)
GATHER_EFFICIENCY = 0.1
#: effective device-to-device copy bandwidth, bytes/s (read+write)
MEMCPY_BANDWIDTH = 1.3e12


@dataclass(frozen=True)
class GpuModel:
    """Analytic single-device cost model.

    Parameters
    ----------
    saturation_bytes:
        Input size at which a streaming (compression-style) kernel reaches
        half of its peak throughput; see :meth:`utilization`.

    ``kernel_launch_overhead`` (the fixed host-side cost of launching one
    kernel, seconds), ``flops`` (the peak fp32 rate, FLOP/s) and
    ``min_utilization`` (the floor on the utilization curve — even a tiny
    kernel keeps a few SMs busy, and an unbounded 1/x penalty would be
    unphysical) are the same on every device.
    """

    name: str = "generic"
    saturation_bytes: float = 2.0 * MB
    kernel_launch_overhead: float = field(init=False, default=4.5e-6)
    flops: float = field(init=False, default=19.5e12)
    min_utilization: float = field(init=False, default=0.25)

    def __post_init__(self) -> None:
        check_positive("saturation_bytes", self.saturation_bytes)

    # ----------------------------------------------------------- primitives

    def utilization(self, nbytes: float) -> float:
        """Fraction of peak throughput a streaming kernel of ``nbytes``
        input achieves: ``n / (n + saturation_bytes)``, floored at
        :attr:`min_utilization`.  Monotonically increasing, ->1 for large
        inputs — so fusing chunks into one kernel raises utilization."""
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes!r}")
        if nbytes == 0:
            return self.min_utilization
        return max(self.min_utilization, nbytes / (nbytes + self.saturation_bytes))

    def throughput_kernel_time(self, nbytes: float, peak_throughput: float) -> float:
        """One kernel processing ``nbytes`` at a peak rate of
        ``peak_throughput`` bytes/s, derated by :meth:`utilization`."""
        check_positive("peak_throughput", peak_throughput)
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes!r}")
        if nbytes == 0:
            return self.kernel_launch_overhead
        return self.kernel_launch_overhead + nbytes / (peak_throughput * self.utilization(nbytes))

    def memcpy_time(self, nbytes: float) -> float:
        """Device-to-device copy of ``nbytes`` (DMA engine, no launch)."""
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes!r}")
        return nbytes / MEMCPY_BANDWIDTH

    # ------------------------------------------------------- training step

    def mlp_time(self, batch: int, sizes: Sequence[int]) -> float:
        """Forward time of an MLP with layer widths ``sizes`` (one GEMM
        per consecutive pair) on a ``batch``-row input.  The backward pass
        is conventionally charged at 2x this (two GEMMs per layer)."""
        check_positive("batch", batch)
        if len(sizes) < 2:
            raise ValueError(f"need at least input and output widths, got {list(sizes)}")
        total = 0.0
        for fan_in, fan_out in zip(sizes, sizes[1:]):
            flop = 2.0 * batch * fan_in * fan_out
            total += self.kernel_launch_overhead + flop / (self.flops * GEMM_EFFICIENCY)
        return total

    def lookup_time(self, batch: int, embedding_dim: int, n_tables: int) -> float:
        """Embedding gather (or scatter-update) of ``n_tables`` tables for
        a ``batch``-row global batch — memory-bound random access."""
        check_positive("batch", batch)
        check_positive("embedding_dim", embedding_dim)
        check_positive("n_tables", n_tables)
        nbytes = 4.0 * batch * embedding_dim * n_tables
        return self.kernel_launch_overhead + nbytes / (MEMORY_BANDWIDTH * GATHER_EFFICIENCY)

    def interaction_time(self, batch: int, n_features: int, embedding_dim: int) -> float:
        """Pairwise dot-product feature interaction (batched ``f x f``
        Gram matrix over ``embedding_dim``-wide features)."""
        check_positive("batch", batch)
        check_positive("n_features", n_features)
        check_positive("embedding_dim", embedding_dim)
        flop = float(batch) * n_features * n_features * embedding_dim
        return self.kernel_launch_overhead + flop / (self.flops * GEMM_EFFICIENCY)


#: Default device: calibrated to the paper's A100 measurements — ~4.5 us
#: launch overhead, 19.5 TFLOPS fp32, ~1.5 TB/s HBM.  ``saturation_bytes``
#: is tuned for the *training-step* kernels; compression kernels saturate
#: later (several MB — see ``benchmarks/bench_fig15_buffer_opt.py``).
A100_LIKE = GpuModel(name="a100-like")
