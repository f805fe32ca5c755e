"""FZ-GPU-family baseline: quantization + bitshuffle + sparse bitplanes.

FZ-GPU pairs SZ-style quantization with a very fast encoder: bitshuffle the
quantization codes so that each *bit plane* is contiguous, then store only
the non-zero blocks of each plane (small-magnitude codes leave the high
planes all-zero).  Throughput is the highest of the lossy GPU compressors,
but — as the paper measures — the ratio trails the DLRM-specialized hybrid.

Implementation: codes are zig-zag mapped to unsigned 16-bit, each of the 16
planes is extracted and packed with ``np.packbits``, planes are split into
fixed-size blocks, and an all-zero-block bitmap elides empty blocks.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.compression.base import Compressor, check_element_count
from repro.compression.quantizer import quantize
from repro.compression.serialization import CorruptPayloadError

__all__ = [
    "zigzag_encode",
    "zigzag_decode",
    "pack_bitplanes",
    "unpack_bitplanes",
    "FzGpuLikeCompressor",
]

_PLANES = 16
DEFAULT_BLOCK_BYTES = 256


def pack_bitplanes(unsigned: np.ndarray, block_bytes: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Bitshuffle + sparse-block packing of all 16 planes at once.

    Returns ``(bitmap, payload, n_blocks_per_plane)`` where ``bitmap`` is a
    packed nonzero-block map (plane-major) and ``payload`` concatenates the
    surviving blocks.  All planes are extracted with one broadcast
    shift/mask and packed with a single axis-wise ``np.packbits``; byte
    layout is identical to the per-plane reference.
    """
    # uint16 source (the encoder guarantees 16-bit magnitudes) quarters the
    # memory traffic of the plane extraction versus uint64.
    u16 = np.asarray(unsigned, dtype=np.uint64).ravel().astype(np.uint16)
    packed_len = (u16.size + 7) // 8
    n_blocks = (packed_len + block_bytes - 1) // block_bytes if packed_len else 0
    padded = np.zeros((_PLANES, n_blocks * block_bytes), dtype=np.uint8)
    for plane in range(_PLANES):
        bits = ((u16 >> np.uint16(plane)) & np.uint16(1)).astype(np.uint8)
        padded[plane, :packed_len] = np.packbits(bits)
    blocks = padded.reshape(_PLANES, n_blocks, block_bytes)
    nonzero = blocks.any(axis=2)  # (_PLANES, n_blocks)
    bitmap = np.packbits(nonzero.ravel())
    payload = blocks[nonzero].ravel()
    return bitmap, payload, n_blocks


def unpack_bitplanes(
    bitmap: np.ndarray,
    payload: np.ndarray,
    n_values: int,
    block_bytes: int,
    n_blocks: int,
) -> np.ndarray:
    """Invert :func:`pack_bitplanes` back to the unsigned code array."""
    plane_map = np.unpackbits(bitmap, count=_PLANES * n_blocks).astype(bool).reshape(
        _PLANES, n_blocks
    )
    blocks = np.zeros((_PLANES, n_blocks, block_bytes), dtype=np.uint8)
    n_nonzero = int(plane_map.sum())
    if payload.size < n_nonzero * block_bytes:
        raise CorruptPayloadError(
            f"fzgpu_like: {payload.size} plane bytes cannot hold the bitmap's "
            f"{n_nonzero} blocks of {block_bytes} bytes"
        )
    blocks[plane_map] = payload[: n_nonzero * block_bytes].reshape(n_nonzero, block_bytes)
    packed_len = (n_values + 7) // 8
    packed = blocks.reshape(_PLANES, n_blocks * block_bytes)[:, :packed_len]
    unsigned = np.zeros(n_values, dtype=np.uint16)
    for plane in range(_PLANES):
        bits = np.unpackbits(packed[plane], count=n_values)
        unsigned |= bits.astype(np.uint16) << np.uint16(plane)
    return unsigned.astype(np.uint64)


def _reference_pack_bitplanes(
    unsigned: np.ndarray, block_bytes: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """The seed's original per-plane packing loop, frozen as the oracle."""
    unsigned = np.asarray(unsigned, dtype=np.uint64).ravel()
    plane_payloads: list[np.ndarray] = []
    block_maps: list[np.ndarray] = []
    n_blocks_per_plane = 0
    for plane in range(_PLANES):
        bits = ((unsigned >> np.uint64(plane)) & np.uint64(1)).astype(np.uint8)
        packed = np.packbits(bits)
        n_blocks = (packed.size + block_bytes - 1) // block_bytes
        n_blocks_per_plane = max(n_blocks_per_plane, n_blocks)
        pad = n_blocks * block_bytes - packed.size
        blocks = np.concatenate([packed, np.zeros(pad, dtype=np.uint8)]).reshape(
            n_blocks, block_bytes
        )
        nonzero = blocks.any(axis=1)
        block_maps.append(nonzero)
        plane_payloads.append(blocks[nonzero].ravel())
    bitmap = np.packbits(np.concatenate(block_maps)) if block_maps else np.zeros(0, np.uint8)
    payload = np.concatenate(plane_payloads) if plane_payloads else np.zeros(0, np.uint8)
    return bitmap, payload, n_blocks_per_plane


def _reference_unpack_bitplanes(
    bitmap: np.ndarray,
    payload: np.ndarray,
    n_values: int,
    block_bytes: int,
    n_blocks: int,
) -> np.ndarray:
    """The seed's original per-plane unpacking loop, frozen as the oracle."""
    plane_bitmap = np.unpackbits(bitmap, count=_PLANES * n_blocks).astype(bool)
    unsigned = np.zeros(n_values, dtype=np.uint64)
    packed_len = (n_values + 7) // 8
    cursor = 0
    for plane in range(_PLANES):
        plane_map = plane_bitmap[plane * n_blocks : (plane + 1) * n_blocks]
        n_nonzero = int(plane_map.sum())
        blocks = np.zeros((n_blocks, block_bytes), dtype=np.uint8)
        if n_nonzero:
            take = payload[cursor : cursor + n_nonzero * block_bytes]
            blocks[plane_map] = take.reshape(n_nonzero, block_bytes)
            cursor += n_nonzero * block_bytes
        packed = blocks.ravel()[:packed_len]
        bits = np.unpackbits(packed, count=n_values).astype(np.uint64)
        unsigned |= bits << np.uint64(plane)
    return unsigned


def zigzag_encode(values: np.ndarray) -> np.ndarray:
    """Map signed integers to unsigned (0,-1,1,-2,... -> 0,1,2,3,...)."""
    values = np.asarray(values, dtype=np.int64)
    return ((values << 1) ^ (values >> 63)).astype(np.uint64)


def zigzag_decode(values: np.ndarray) -> np.ndarray:
    """Invert :func:`zigzag_encode`."""
    values = np.asarray(values, dtype=np.uint64)
    return ((values >> np.uint64(1)).astype(np.int64)) ^ -((values & np.uint64(1)).astype(np.int64))


class FzGpuLikeCompressor(Compressor):
    """Error-bounded bitshuffle + sparse bitplane codec (FZ-GPU family)."""

    name = "fzgpu_like"
    lossy = True
    error_bounded = True

    def _compress_body(self, array: np.ndarray, error_bound: float | None) -> tuple[dict[str, Any], bytes]:
        codes = quantize(array, float(error_bound))
        unsigned = zigzag_encode(codes.ravel())
        if unsigned.size and int(unsigned.max()) >= (1 << _PLANES):
            raise ValueError(
                "fzgpu_like: quantized magnitudes exceed 16-bit planes; "
                "use a larger error bound or a different codec"
            )
        n = unsigned.size
        bitmap, payload, n_blocks_per_plane = pack_bitplanes(unsigned, DEFAULT_BLOCK_BYTES)
        body = [bitmap, payload]
        meta = {
            "eb": float(error_bound),
            "n_values": n,
            "block_bytes": DEFAULT_BLOCK_BYTES,
            "n_blocks_per_plane": n_blocks_per_plane,
            "bitmap_len": int(bitmap.size),
        }
        return meta, body

    def _decompress_body(
        self, header: dict[str, Any], body: memoryview, shape: tuple[int, ...], dtype: np.dtype
    ) -> np.ndarray:
        n = header["n_values"]
        block_bytes = header["block_bytes"]
        n_blocks = header["n_blocks_per_plane"]
        bitmap_len = header["bitmap_len"]
        # Every size the planes are allocated from follows from n.
        check_element_count(self.name, n, shape)
        packed_len = (n + 7) // 8
        if not 0 <= n_blocks * block_bytes - packed_len < block_bytes:
            raise CorruptPayloadError(
                f"{self.name}: {n_blocks} blocks of {block_bytes} bytes per plane "
                f"do not fit {packed_len} packed bytes"
            )
        raw = np.frombuffer(body, dtype=np.uint8)
        unsigned = unpack_bitplanes(raw[:bitmap_len], raw[bitmap_len:], n, block_bytes, n_blocks)
        codes = zigzag_decode(unsigned).reshape(shape)
        return (codes.astype(np.float64) * (2.0 * header["eb"])).astype(dtype)
