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

from typing import Any

import numpy as np

from repro.compression.base import Compressor
from repro.compression.huffman import (
    HuffmanEncoded,
    huffman_decode,
    huffman_encode,
)
from repro.compression.quantizer import quantize

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

    def _compress_body(self, array: np.ndarray, error_bound: float | None, key=None) -> tuple[dict[str, Any], bytes]:
        codes = quantize(array, float(error_bound))
        residuals = lorenzo_residuals_2d(codes)
        res_min = int(residuals.min()) if residuals.size else 0
        shifted = (residuals - res_min).ravel()
        alphabet = int(shifted.max()) + 1 if shifted.size else 1
        encoded = huffman_encode(shifted, alphabet)
        meta = {
            "eb": float(error_bound),
            "res_min": res_min,
            "code_lengths": encoded.code_lengths.astype(np.uint8),
            "chunk_bit_offsets": encoded.chunk_bit_offsets.astype(np.uint64),
            "chunk_symbol_counts": encoded.chunk_symbol_counts.astype(np.int64),
            "total_symbols": int(encoded.total_symbols),
        }
        return meta, encoded.payload

    def _decompress_body(
        self, header: dict[str, Any], body: memoryview, shape: tuple[int, ...], dtype: np.dtype
    ) -> np.ndarray:
        encoded = HuffmanEncoded(
            payload=np.frombuffer(body, dtype=np.uint8),
            code_lengths=header["code_lengths"].astype(np.int64),
            chunk_bit_offsets=header["chunk_bit_offsets"],
            chunk_symbol_counts=header["chunk_symbol_counts"],
            total_symbols=header["total_symbols"],
        )
        shifted = huffman_decode(encoded).reshape(shape)
        residuals = shifted + header["res_min"]
        codes = inverse_lorenzo_2d(residuals)
        return (codes.astype(np.float64) * (2.0 * header["eb"])).astype(dtype)
