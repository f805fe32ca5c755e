"""The paper's hybrid error-bounded compressor.

Quantization feeds one of two lossless encoders — vector-based LZ or
optimized Huffman.  The codec tries both and keeps the smaller payload:
this is what Table V's "hybrid" column reports (the per-table max ratio).
The offline analysis that picks one encoder per table by the Eq.-2 speedup
model lives in :mod:`repro.adaptive.selection`.

The payload embeds which encoder won, so decompression is self-contained.
The codec keeps no state: a payload is a pure function of the input array
and the error bound.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.compression.base import Compressor, parse_payload, _wrong_codec_error
from repro.compression.entropy import EntropyCompressor
from repro.compression.vector_lz import VectorLZCompressor
from repro.obs.runtime import OBS

__all__ = ["HybridCompressor"]


class HybridCompressor(Compressor):
    """Quantize + the smaller of {vector-LZ, Huffman} ("Ours")."""

    name = "hybrid"
    lossy = True
    error_bounded = True

    def __init__(self):
        self._lz = VectorLZCompressor()
        self._entropy = EntropyCompressor()

    def compress(self, array: np.ndarray, error_bound: float | None = None) -> bytes:
        """Compress with both legs and keep the smaller payload."""
        array = self._validate(array, error_bound)
        lz = self._lz.compress(array, error_bound)
        huff = self._entropy.compress(array, error_bound)
        out = lz if len(lz) <= len(huff) else huff
        if OBS.enabled:
            reg = OBS.registry
            reg.counter("hybrid_raw_bytes_total", "hybrid compress input bytes").inc(
                array.nbytes
            )
            reg.counter(
                "hybrid_compressed_bytes_total", "hybrid compress output bytes"
            ).inc(len(out))
        return out

    def decompress(self, payload: bytes | memoryview) -> np.ndarray:
        header, body = parse_payload(payload)
        inner = header["codec"]
        if inner == self._lz.name:
            result = self._lz._decode_frame(header, body)
        elif inner == self._entropy.name:
            result = self._entropy._decode_frame(header, body)
        else:
            raise _wrong_codec_error(inner, self.name)
        if OBS.enabled:
            OBS.registry.counter(
                "hybrid_decompressed_bytes_total", "hybrid decompress output bytes"
            ).inc(result.nbytes)
        return result

    # The public compress/decompress are overridden wholesale (the payload is
    # delegated to the winning sub-codec), so the body hooks are unused.
    def _compress_body(self, array: np.ndarray, error_bound: float | None) -> tuple[dict[str, Any], bytes]:
        raise NotImplementedError("HybridCompressor delegates framing to its sub-codecs")

    def _decompress_body(
        self, header: dict[str, Any], body: memoryview, shape: tuple[int, ...], dtype: np.dtype
    ) -> np.ndarray:
        raise NotImplementedError("HybridCompressor delegates framing to its sub-codecs")
