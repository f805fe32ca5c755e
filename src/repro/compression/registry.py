"""Compressor registry: construct codecs by name, decode any payload.

The offline analysis (Algorithm 2) and the benchmark harness refer to
compressors by name; payloads are self-describing, so the registry can also
route an arbitrary payload to the codec that produced it.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.compression.base import Compressor, parse_payload
from repro.compression.baselines import (
    CuszLikeCompressor,
    DeflateLikeCompressor,
    Fp8Compressor,
    Fp16Compressor,
    FzGpuLikeCompressor,
    Lz4LikeCompressor,
)
from repro.compression.entropy import EntropyCompressor
from repro.compression.homomorphic import QuantSumCompressor
from repro.compression.hybrid import HybridCompressor
from repro.compression.serialization import CorruptPayloadError
from repro.compression.vector_lz import VectorLZCompressor

__all__ = ["register_compressor", "get_compressor", "available_compressors", "decompress_any"]

_FACTORIES: dict[str, Callable[[], Compressor]] = {
    HybridCompressor.name: HybridCompressor,
    VectorLZCompressor.name: VectorLZCompressor,
    EntropyCompressor.name: EntropyCompressor,
    Fp16Compressor.name: Fp16Compressor,
    Fp8Compressor.name: Fp8Compressor,
    Lz4LikeCompressor.name: Lz4LikeCompressor,
    DeflateLikeCompressor.name: DeflateLikeCompressor,
    CuszLikeCompressor.name: CuszLikeCompressor,
    FzGpuLikeCompressor.name: FzGpuLikeCompressor,
    QuantSumCompressor.name: QuantSumCompressor,
}


#: one default-constructed decoder per codec name (decoding is stateless and
#: driven by the payload header, so the instance is reusable)
_DECODERS: dict[str, Compressor] = {}


def register_compressor(name: str, factory: Callable[[], Compressor]) -> None:
    """Register a codec factory under ``name`` (error on collision)."""
    if name in _FACTORIES:
        raise ValueError(f"compressor {name!r} is already registered")
    _FACTORIES[name] = factory


def get_compressor(name: str) -> Compressor:
    """Construct a compressor by registry name (codecs are stateless, so
    one instance may serve any number of callers)."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise KeyError(
            f"unknown compressor {name!r}; available: {sorted(_FACTORIES)}"
        ) from None
    return factory()


def available_compressors() -> tuple[str, ...]:
    """All registered codec names, sorted."""
    return tuple(sorted(_FACTORIES))


def decompress_any(payload: bytes | memoryview) -> np.ndarray:
    """Decode a codec frame produced by any registered codec.

    The prelude is parsed, and the frame's CRC32 checked, once: the codec
    it names decodes from the parsed ``(prelude, body)``.  A frame that
    fails its CRC32 raises ``CorruptPayloadError``, as does one naming a
    codec that is not registered.
    """
    prelude, body = parse_payload(payload)
    codec = prelude.codec
    decoder = _DECODERS.get(codec)
    if decoder is None:
        if codec not in _FACTORIES:
            raise CorruptPayloadError(f"payload codec {codec!r} is not registered")
        decoder = _DECODERS[codec] = _FACTORIES[codec]()
    return decoder._decode_frame(prelude, body)
