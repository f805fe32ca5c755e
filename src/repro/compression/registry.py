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
    ZfpLikeCompressor,
)
from repro.compression.entropy import EntropyCompressor
from repro.compression.homomorphic import CountSumCompressor, QuantSumCompressor
from repro.compression.hybrid import HybridCompressor
from repro.compression.serialization import has_checksum, verify_checksum_frame
from repro.compression.vector_lz import VectorLZCompressor

__all__ = ["register_compressor", "get_compressor", "available_compressors", "decompress_any"]

_FACTORIES: dict[str, Callable[..., Compressor]] = {
    HybridCompressor.name: HybridCompressor,
    VectorLZCompressor.name: VectorLZCompressor,
    EntropyCompressor.name: EntropyCompressor,
    Fp16Compressor.name: Fp16Compressor,
    Fp8Compressor.name: Fp8Compressor,
    Lz4LikeCompressor.name: Lz4LikeCompressor,
    DeflateLikeCompressor.name: DeflateLikeCompressor,
    CuszLikeCompressor.name: CuszLikeCompressor,
    FzGpuLikeCompressor.name: FzGpuLikeCompressor,
    ZfpLikeCompressor.name: ZfpLikeCompressor,
    QuantSumCompressor.name: QuantSumCompressor,
    CountSumCompressor.name: CountSumCompressor,
}


#: one default-constructed decoder per codec name (decoding is stateless and
#: driven by the payload header, so the instance is reusable)
_DECODERS: dict[str, Compressor] = {}


def register_compressor(name: str, factory: Callable[..., Compressor]) -> None:
    """Register a codec factory under ``name`` (error on collision)."""
    if name in _FACTORIES:
        raise ValueError(f"compressor {name!r} is already registered")
    _FACTORIES[name] = factory


def get_compressor(name: str, **kwargs: object) -> Compressor:
    """Construct a compressor by registry name."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise KeyError(
            f"unknown compressor {name!r}; available: {sorted(_FACTORIES)}"
        ) from None
    return factory(**kwargs)


def available_compressors() -> tuple[str, ...]:
    """All registered codec names, sorted."""
    return tuple(sorted(_FACTORIES))


def decompress_any(payload: bytes | memoryview, rows: np.ndarray | None = None) -> np.ndarray:
    """Decode a payload produced by any registered codec.

    Accepts both bare codec frames and CRC32-checksummed envelopes (see
    :func:`repro.compression.serialization.frame_with_checksum`); a
    checksummed payload is verified first, so a corrupted frame raises
    :class:`~repro.compression.serialization.CorruptPayloadError` instead
    of decoding garbage.  The header is parsed once: the codec it names
    decodes from the parsed ``(header, body)``.

    ``rows`` selects rows of the decoded array: the result is bit-identical
    to ``decompress_any(payload)[rows]`` — dtype included — for every
    registered codec and any 1-D integer ``rows`` (empty, duplicated,
    unsorted, negative from the end; ``IndexError`` out of range).  Vector-LZ
    and entropy frames (hence hybrid ones, which carry the inner codec's
    name) decode only the rows asked for when those are few; the other
    codecs, and requests for a large share of the frame, decode it whole and
    index.  Corrupt bytes raise ``ValueError`` from a row decode as they do
    from a full one, though a fault in rows that were not asked for can go
    unseen.
    """
    if has_checksum(payload):
        payload = verify_checksum_frame(payload)
    header, body = parse_payload(payload)
    codec = header["codec"]
    decoder = _DECODERS.get(codec)
    if decoder is None:
        if codec not in _FACTORIES:
            raise KeyError(f"payload codec {codec!r} is not registered")
        decoder = _DECODERS[codec] = _FACTORIES[codec]()
    return decoder._decode_frame(header, body, rows)
