"""Vectorized bit-level packing for entropy and fixed-width codes.

GPU entropy coders write variable-length codes with warp-parallel bit
scatter; the NumPy analogue here packs all symbols in ``O(max_code_length)``
vectorized passes instead of a per-symbol Python loop: pass ``b`` writes bit
``b`` of every code whose length exceeds ``b`` using ``np.bitwise_or.at``.

All bit order is MSB-first within a byte, matching conventional canonical
Huffman streams.
"""

from __future__ import annotations

import numpy as np

from repro.compression.serialization import CorruptPayloadError

__all__ = [
    "pack_codes",
    "unpack_fixed",
    "bits_to_bytes",
    "pack_fixed_segments",
    "unpack_fixed_segments",
    "word_table",
    "padded_stream",
]

#: zero bytes after a stream: a reader gathers whole 8-byte words past its
#: last code bit
_STREAM_PAD = 8


def padded_stream(data: np.ndarray) -> np.ndarray:
    """A fresh copy of ``data`` followed by :data:`_STREAM_PAD` zero bytes."""
    data = np.asarray(data, dtype=np.uint8).ravel()
    out = np.zeros(data.size + _STREAM_PAD, dtype=np.uint8)
    out[: data.size] = data
    return out


def _reference_unpack_fixed(packed: np.ndarray, count: int, width: int) -> np.ndarray:
    """The seed's original 8-byte-gather fixed-width reader, frozen verbatim
    as part of the differential/benchmark oracle."""
    if width == 0:
        return np.zeros(count, dtype=np.uint64)
    if width < 0 or width > 57:
        raise ValueError(f"width must be in [0, 57], got {width}")
    packed = np.asarray(packed, dtype=np.uint8)
    if count == 0:
        return np.zeros(0, dtype=np.uint64)
    starts = np.arange(count, dtype=np.int64) * width
    last_bit = int(starts[-1]) + width
    if last_bit > packed.size * 8:
        raise ValueError(f"stream too short: need {last_bit} bits, have {packed.size * 8}")
    byte_start = (starts >> 3).astype(np.int64)
    padded = np.concatenate([packed, np.zeros(8, dtype=np.uint8)])
    gathered = np.zeros(count, dtype=np.uint64)
    for k in range(8):
        gathered = (gathered << np.uint64(8)) | padded[byte_start + k].astype(np.uint64)
    offset_in_byte = (starts & 7).astype(np.uint64)
    shift = np.uint64(64) - offset_in_byte - np.uint64(width)
    mask = np.uint64((1 << width) - 1)
    return (gathered >> shift) & mask


def bits_to_bytes(nbits: int) -> int:
    """Number of bytes needed to hold ``nbits`` bits."""
    return (int(nbits) + 7) // 8


def word_table(data: np.ndarray, width: int) -> tuple[np.ndarray, type, int]:
    """Big-endian byte-combined words for ``width``-bit windows.

    Returns ``(words, dtype, n_bytes)`` where ``n_bytes`` is the number of
    bytes covering a ``width``-bit window starting at any in-byte offset,
    and ``words[b]`` combines ``data[b : b + n_bytes]`` big-endian, for
    every byte position with that many bytes available.  One shift of
    ``words[b]`` then extracts any window starting inside byte ``b`` — the
    shared building block of the vectorized fixed-width reader and the
    Huffman sliding-window peek.
    """
    n_bytes = (width + 14) // 8
    dtype = np.uint32 if n_bytes <= 4 else np.uint64
    n_words = data.size - n_bytes + 1
    words = np.zeros(n_words, dtype=dtype)
    for k in range(n_bytes):
        words = (words << dtype(8)) | data[k : k + n_words]
    return words, dtype, n_bytes


def _reference_pack_codes(codes: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, int]:
    """The seed's original per-bit-plane packer (one ``bitwise_or.at`` pass
    per code bit), frozen verbatim as the differential/benchmark oracle."""
    codes = np.asarray(codes, dtype=np.uint64).ravel()
    lengths = np.asarray(lengths, dtype=np.int64).ravel()
    if codes.shape != lengths.shape:
        raise ValueError(f"codes/lengths shape mismatch: {codes.shape} vs {lengths.shape}")
    if codes.size == 0:
        return np.zeros(0, dtype=np.uint8), 0
    if lengths.min() < 1 or lengths.max() > 57:
        raise ValueError(f"code lengths must be in [1, 57], got range [{lengths.min()}, {lengths.max()}]")
    ends = np.cumsum(lengths)
    starts = ends - lengths
    total_bits = int(ends[-1])
    packed = np.zeros(bits_to_bytes(total_bits), dtype=np.uint8)
    max_len = int(lengths.max())
    for b in range(max_len):
        live = lengths > b
        if not live.any():
            break
        pos = starts[live] + b
        shift = (lengths[live] - 1 - b).astype(np.uint64)
        bit = (codes[live] >> shift) & np.uint64(1)
        on = bit.astype(bool)
        if on.any():
            byte_idx = (pos[on] >> 3).astype(np.int64)
            bit_in_byte = (7 - (pos[on] & 7)).astype(np.uint8)
            np.bitwise_or.at(packed, byte_idx, np.left_shift(np.uint8(1), bit_in_byte))
    return packed, total_bits


def pack_codes(codes: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, int]:
    """Concatenate variable-length codes into a packed byte array.

    Word-level packing: each code is left-justified into the 64-bit
    big-endian window that starts at its first byte (a <=57-bit code at
    any in-byte offset spans at most 8 bytes), the window is split into
    its 8 byte planes, and all nonzero byte contributions land in one
    ``bincount`` accumulation.  Because consecutive codes occupy disjoint
    bit ranges, byte contributions to a shared boundary byte have disjoint
    set bits — so their *sum* equals their bitwise OR, and ``bincount``
    (a buffered, C-speed scatter-add) replaces the unbuffered
    ``bitwise_or.at`` of the per-bit-plane reference.

    Parameters
    ----------
    codes:
        Unsigned integer code values; bit ``length-1`` down to bit ``0`` of
        each value are emitted MSB-first.
    lengths:
        Bit length of each code (same shape as ``codes``); each must be in
        ``[1, 57]``.

    Returns
    -------
    (packed, total_bits):
        ``packed`` is a ``uint8`` array; trailing pad bits are zero.
    """
    codes = np.asarray(codes, dtype=np.uint64).ravel()
    lengths = np.asarray(lengths, dtype=np.int64).ravel()
    if codes.shape != lengths.shape:
        raise ValueError(f"codes/lengths shape mismatch: {codes.shape} vs {lengths.shape}")
    if codes.size == 0:
        return np.zeros(0, dtype=np.uint8), 0
    if lengths.min() < 1 or lengths.max() > 57:
        raise ValueError(f"code lengths must be in [1, 57], got range [{lengths.min()}, {lengths.max()}]")
    ends = np.cumsum(lengths)
    starts = ends - lengths
    total_bits = int(ends[-1])
    nbytes = bits_to_bytes(total_bits)
    first_byte = starts >> 3
    # Only bits [length-1, 0] of each value are emitted: mask stray higher
    # bits (the per-bit-plane reference never read them) so they cannot
    # shift into a neighbouring code's bit range and break the
    # disjoint-bits assumption behind the bincount accumulation.
    codes = codes & ((np.uint64(1) << lengths.astype(np.uint64)) - np.uint64(1))
    # Left-justify each code inside its 8-byte window: the code's MSB
    # lands at in-window bit (starts & 7).
    shift = (np.uint64(64) - lengths.astype(np.uint64) - (starts & 7).astype(np.uint64))
    windows = codes << shift
    index_parts: list[np.ndarray] = []
    value_parts: list[np.ndarray] = []
    # A length-L code starting at any in-byte offset spans at most
    # ceil((7 + L) / 8) bytes — byte planes beyond that are all zero.
    n_planes = (7 + int(lengths.max()) + 7) // 8
    for k in range(n_planes):
        plane = (windows >> np.uint64(8 * (7 - k))) & np.uint64(0xFF)
        on = plane != 0
        if on.any():
            index_parts.append(first_byte[on] + k)
            value_parts.append(plane[on])
    packed = np.zeros(nbytes, dtype=np.uint8)
    if index_parts:
        accumulated = np.bincount(
            np.concatenate(index_parts),
            weights=np.concatenate(value_parts).astype(np.float64),
            minlength=nbytes,
        )
        packed += accumulated.astype(np.uint8)
    return packed, total_bits


def _read_fixed(packed: np.ndarray, starts: np.ndarray, width: int) -> np.ndarray:
    """``width``-bit big-endian values at arbitrary bit positions ``starts``.

    Combines each run of bytes into one word per byte position, then a
    single gather + shift extracts every value (a width<=57 value starting
    mid-byte spans at most 8 bytes).
    """
    padded = padded_stream(packed)
    words, dtype, n_bytes = word_table(padded, width)
    shift = (dtype(n_bytes * 8 - width) - (starts & 7).astype(dtype)).astype(dtype)
    mask = dtype((1 << width) - 1)
    return ((np.take(words, starts >> 3) >> shift) & mask).astype(np.uint64)


def unpack_fixed(packed: np.ndarray, count: int, width: int) -> np.ndarray:
    """Read ``count`` fixed-width unsigned integers from the stream's start.

    Vectorized: gathers up to 9 bytes around each value and shifts.  Inverse
    of :func:`pack_codes` with every length ``width``, and of one run of
    :func:`pack_fixed_segments`.
    """
    if width == 0:
        return np.zeros(count, dtype=np.uint64)
    if width < 0 or width > 57:
        raise ValueError(f"width must be in [0, 57], got {width}")
    packed = np.asarray(packed, dtype=np.uint8)
    if count == 0:
        return np.zeros(0, dtype=np.uint64)
    last_bit = count * width
    if last_bit > packed.size * 8:
        raise CorruptPayloadError(f"stream too short: need {last_bit} bits, have {packed.size * 8}")
    if width == 8:
        # Bytes: the packed stream IS the values.
        return packed[:count].astype(np.uint64)
    starts = np.arange(count, dtype=np.int64) * width
    return _read_fixed(packed, starts, width)


def pack_fixed_segments(
    values: np.ndarray, width: int, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Pack consecutive runs of ``values``, each run starting on a byte boundary.

    ``counts[s]`` values belong to run ``s``.  Returns ``(packed, bounds)``
    with ``packed[bounds[s] : bounds[s + 1]]`` byte-identical to
    ``pack_codes(run_s, np.full(run_s.shape, width))[0]`` — but all runs
    share one bit-matrix pass (big-endian bytes -> ``unpackbits`` -> keep
    the low ``width`` columns -> ``packbits``) instead of one
    :func:`pack_codes` call each, which is what pays on many short runs.
    """
    values = np.asarray(values, dtype=np.uint64).ravel()
    counts = np.asarray(counts, dtype=np.int64)
    if width < 0 or width > 57:
        raise ValueError(f"width must be in [0, 57], got {width}")
    if width == 0:
        if values.size and values.max() > 0:
            raise ValueError("width 0 requires all-zero values")
        return np.zeros(0, dtype=np.uint8), np.zeros(counts.size + 1, dtype=np.int64)
    if values.size and int(values.max()) >> width:
        raise ValueError(f"value {values.max()} does not fit in {width} bits")
    run_bits = counts * width
    bounds = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum((run_bits + 7) >> 3, out=bounds[1:])
    if width <= 8 and not (counts & 7).any():
        # Whole groups of 8 values fill exactly ``width`` bytes: combine each
        # group into one 64-bit word (disjoint bit ranges, so the weighted
        # sum is their OR) and keep the word's low ``width`` big-endian bytes.
        weights = np.uint64(1) << (np.arange(7, -1, -1, dtype=np.uint64) * np.uint64(width))
        words = values.reshape(values.size // 8, 8) @ weights
        group_bytes = words.astype(">u8").view(np.uint8).reshape(words.size, 8)[:, 8 - width :]
        return np.ascontiguousarray(group_bytes).ravel(), bounds
    # Big-endian bytes of the narrowest word holding ``width`` bits.
    word = np.dtype(">u8" if width > 32 else ">u4" if width > 16 else ">u2" if width > 8 else "u1")
    big_endian = values.astype(word).view(np.uint8).reshape(values.size, word.itemsize)
    bits = np.unpackbits(big_endian, axis=1)[:, 8 * word.itemsize - width :]
    if not (run_bits & 7).any():
        return np.packbits(bits), bounds
    # Unaligned runs: shift each run's bits past the pad bits of its
    # predecessors (pad bits stay zero, as pack_codes leaves them).
    padded = np.zeros(int(bounds[-1]) * 8, dtype=np.uint8)
    pad_shift = bounds[:-1] * 8 - (np.cumsum(run_bits) - run_bits)
    padded[np.arange(bits.size) + np.repeat(pad_shift, run_bits)] = bits.ravel()
    return np.packbits(padded), bounds


def unpack_fixed_segments(segments, counts: np.ndarray, width: int) -> np.ndarray:
    """Concatenation of ``unpack_fixed(segments[s], counts[s], width)`` over
    all ``s``, read with one gather over the joined segments.

    Inverse of :func:`pack_fixed_segments`; a segment holding fewer than
    ``counts[s] * width`` bits raises the same "stream too short" error
    :func:`unpack_fixed` raises for it.
    """
    if len(segments) == 1:  # nothing to join: the plain reader, minus the index math
        return unpack_fixed(segments[0], int(counts[0]), width)
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if width == 0:
        return np.zeros(total, dtype=np.uint64)
    if width < 0 or width > 57:
        raise ValueError(f"width must be in [0, 57], got {width}")
    sizes = np.array([segment.size for segment in segments], dtype=np.int64)
    short = np.flatnonzero(counts * width > sizes * 8)
    if short.size:
        s = int(short[0])
        raise CorruptPayloadError(
            f"stream too short: need {int(counts[s]) * width} bits, have {int(sizes[s]) * 8}"
        )
    if total == 0:
        return np.zeros(0, dtype=np.uint64)
    data = np.concatenate(segments)
    segment_bit = (np.cumsum(sizes) - sizes) * 8
    first_value = np.cumsum(counts) - counts
    starts = np.repeat(segment_bit - first_value * width, counts)
    starts += np.arange(total, dtype=np.int64) * width
    if width == 8:
        # Segments start byte-aligned, so every value is one whole byte.
        return data[starts >> 3].astype(np.uint64)
    return _read_fixed(data, starts, width)
