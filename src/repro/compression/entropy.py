"""Error-bounded compressor: quantization + optimized Huffman ("Ours-Huffman").

This is the entropy leg of the paper's hybrid compressor.  Per observation
❸ (Gaussian value distributions in hot tables), quantized embedding values
concentrate into few bins, which canonical Huffman exploits directly —
*without* a prediction stage, per observation ❶ (false prediction: Lorenzo
predictors turn identical vectors into distinct residuals and raise entropy).

Encoding is stateless: each batch gets the canonical codebook built from its
own symbol frequencies, and the payload ships that book's code-length table.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.compression.base import Compressor, check_element_count, header_int
from repro.compression.huffman import huffman_decode, huffman_encode, huffman_sections, read_huffman_sections
from repro.compression.quantizer import dequantize, quantize_batch

__all__ = ["EntropyCompressor"]


class EntropyCompressor(Compressor):
    """Quantize to bins, then canonical length-limited Huffman over bins.

    Code lengths are capped at :mod:`~repro.compression.huffman`'s
    ``DEFAULT_MAX_CODE_LENGTH`` (flat-peek-table decode) and the stream is
    cut into chunks of its ``DEFAULT_CHUNK_SYMBOLS`` independently decodable
    symbols, mirroring the paper's chunk-parallel GPU decompression.
    """

    name = "entropy"
    lossy = True
    error_bounded = True

    def _compress_body(self, array: np.ndarray, error_bound: float | None) -> tuple[dict[str, Any], bytes]:
        batch = quantize_batch(array, float(error_bound))
        encoded = huffman_encode(batch.codes, batch.alphabet_size)
        meta = {
            "eb": batch.error_bound,
            "code_min": batch.code_min,
            **huffman_sections(encoded),
            "total_symbols": int(encoded.total_symbols),
        }
        # The bitstream array goes to the framer as a buffer part — one copy
        # into the framed payload, no tobytes() round-trip.
        return meta, encoded.payload

    def _decompress_body(
        self,
        header: dict[str, Any],
        body: memoryview,
        shape: tuple[int, ...],
        dtype: np.dtype,
    ) -> np.ndarray:
        total_symbols = header_int(self.name, header, "total_symbols")
        check_element_count(self.name, total_symbols, shape)
        code_min = header_int(self.name, header, "code_min")
        symbols = huffman_decode(read_huffman_sections(self.name, header, body, total_symbols))
        return dequantize(symbols.reshape(shape) + code_min, header["eb"], dtype)
