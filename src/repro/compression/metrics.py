"""Compression metrics: ratios, error statistics, and the Eq.-2 speedup model.

The paper selects the per-table encoder not by ratio alone but by the
estimated end-to-end communication speedup (its Equation 2)::

    speedup = 1 / (1/CR + B * (1/Tc + 1/Td))

where ``CR`` is the compression ratio, ``B`` the network bandwidth and
``Tc``/``Td`` the compression/decompression throughputs (all in bytes/s):
sending ``N`` bytes takes ``N/(CR*B) + N/Tc + N/Td`` instead of ``N/B``.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_positive

__all__ = [
    "compression_ratio",
    "communication_speedup",
    "max_abs_error",
]


def compression_ratio(original_nbytes: int, compressed_nbytes: int) -> float:
    """Original over compressed size; > 1 means the codec helped."""
    check_positive("original_nbytes", original_nbytes)
    check_positive("compressed_nbytes", compressed_nbytes)
    return original_nbytes / compressed_nbytes


def communication_speedup(
    ratio: float,
    bandwidth: float,
    compress_throughput: float,
    decompress_throughput: float,
) -> float:
    """Equation (2): end-to-end communication speedup of compressed transfer.

    All throughputs and the bandwidth share units (e.g. bytes/s).  A result
    below 1.0 means compression slows communication down for this setting —
    Algorithm 2 uses exactly this to reject a codec.
    """
    check_positive("ratio", ratio)
    check_positive("bandwidth", bandwidth)
    check_positive("compress_throughput", compress_throughput)
    check_positive("decompress_throughput", decompress_throughput)
    denominator = 1.0 / ratio + bandwidth * (
        1.0 / compress_throughput + 1.0 / decompress_throughput
    )
    return 1.0 / denominator


def max_abs_error(original: np.ndarray, reconstructed: np.ndarray) -> float:
    """Largest pointwise absolute error between two arrays."""
    original = np.asarray(original, dtype=np.float64)
    reconstructed = np.asarray(reconstructed, dtype=np.float64)
    if original.shape != reconstructed.shape:
        raise ValueError(f"shape mismatch: {original.shape} vs {reconstructed.shape}")
    if original.size == 0:
        return 0.0
    return float(np.abs(original - reconstructed).max())
