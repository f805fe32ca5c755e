"""cuSZ-family baseline: Lorenzo prediction + quantization + Huffman.

SZ-style compressors predict each point from its decoded neighbours and
entropy-code the prediction residuals.  Like cuSZ, this implementation uses
*pre-quantization* (dual-quant): values are first quantized to integers, the
2-D Lorenzo predictor then operates exactly on integers, so prediction and
reconstruction commute and the error bound holds end to end:

    residual[i, j] = q[i, j] - (q[i-1, j] + q[i, j-1] - q[i-1, j-1])

The inverse transform is a running 2-D prefix sum, fully vectorized.

On embedding batches this predictor *hurts*: neighbouring rows are
independent lookups, so residuals have higher entropy than raw bins — the
paper's "false prediction" observation (Figure 4), and the reason its hybrid
compressor skips prediction entirely.  This baseline exists to demonstrate
exactly that effect.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from repro.compression.base import Compressor
from repro.compression.huffman import huffman_decode, huffman_encode, huffman_sections, read_huffman_sections
from repro.compression.quantizer import dequantize, quantize

__all__ = ["lorenzo_residuals_2d", "inverse_lorenzo_2d", "CuszLikeCompressor"]


def lorenzo_residuals_2d(codes: np.ndarray) -> np.ndarray:
    """2-D Lorenzo prediction residuals of an integer field."""
    codes = np.asarray(codes, dtype=np.int64)
    if codes.ndim != 2:
        raise ValueError(f"expected 2-D code array, got shape {codes.shape}")
    padded = np.zeros((codes.shape[0] + 1, codes.shape[1] + 1), dtype=np.int64)
    padded[1:, 1:] = codes
    return (
        padded[1:, 1:] - padded[:-1, 1:] - padded[1:, :-1] + padded[:-1, :-1]
    )


def inverse_lorenzo_2d(residuals: np.ndarray) -> np.ndarray:
    """Invert :func:`lorenzo_residuals_2d` via a 2-D prefix sum."""
    residuals = np.asarray(residuals, dtype=np.int64)
    if residuals.ndim != 2:
        raise ValueError(f"expected 2-D residual array, got shape {residuals.shape}")
    return residuals.cumsum(axis=0).cumsum(axis=1)


class CuszLikeCompressor(Compressor):
    """Error-bounded Lorenzo + quantization + Huffman (cuSZ family)."""

    name = "cusz_like"
    lossy = True
    error_bounded = True
    #: error bound, smallest residual, code-length table entries
    tail = struct.Struct("<dqI")

    def _compress_body(self, array: np.ndarray, error_bound: float | None) -> tuple[tuple, list]:
        codes = quantize(array, float(error_bound))
        residuals = lorenzo_residuals_2d(codes)
        res_min = int(residuals.min()) if residuals.size else 0
        shifted = (residuals - res_min).ravel()
        alphabet = int(shifted.max()) + 1 if shifted.size else 1
        encoded = huffman_encode(shifted, alphabet)
        return (float(error_bound), res_min, encoded.code_lengths.size), huffman_sections(encoded)

    def _decompress_body(
        self, tail: tuple, body: memoryview, shape: tuple[int, int], dtype: np.dtype
    ) -> np.ndarray:
        eb, res_min, n_lengths = tail
        encoded = read_huffman_sections(self.name, body, n_lengths, math.prod(shape))
        residuals = huffman_decode(encoded).reshape(shape) + res_min
        return dequantize(inverse_lorenzo_2d(residuals), eb, dtype)
