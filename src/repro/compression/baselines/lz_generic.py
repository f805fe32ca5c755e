"""Generic byte-oriented LZ77 baselines (LZ4-like and Deflate-like).

These model nvCOMP's general-purpose lossless codecs: a greedy hash-table
LZ77 with the *traditional small window* (4 KB) and *variable-length*
patterns — exactly the two properties the paper's vector-based LZ replaces
(extended window measured in vectors, fixed pattern length).  On embedding
batches the 4 KB window covers only a handful of vectors, which is why these
baselines achieve low ratios on lookup traffic (Table V).

Token format (LZ4-flavoured)::

    token byte: high nibble = literal run length, low nibble = match length - MIN_MATCH
    [0xFF extension bytes while nibble saturated]
    literal bytes
    2-byte little-endian match offset (if a match follows)

The stream ends with a literals-only token (match nibble 0, no offset).

``DeflateLikeCompressor`` entropy-codes the LZ77 token stream with the
library's canonical Huffman coder, modelling Deflate's LZ + Huffman split.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from repro.compression.base import Compressor
from repro.compression.huffman import huffman_decode, huffman_encode, huffman_sections, read_huffman_sections
from repro.compression.serialization import CorruptPayloadError

__all__ = ["lz77_encode_bytes", "lz77_decode_bytes", "Lz4LikeCompressor", "DeflateLikeCompressor"]

DEFAULT_BYTE_WINDOW = 4096
MIN_MATCH = 4
_HASH_BITS = 14
_HASH_SIZE = 1 << _HASH_BITS


def _hash_u32(values: np.ndarray) -> np.ndarray:
    return ((values * np.uint32(2654435761)) >> np.uint32(32 - _HASH_BITS)).astype(np.int64)


def _write_varnibble(out: bytearray, value: int) -> None:
    """Emit LZ4-style 255-extension bytes for a saturated nibble."""
    value -= 15
    while value >= 255:
        out.append(255)
        value -= 255
    out.append(value)


def _previous_same_hash(hashes: np.ndarray) -> np.ndarray:
    """``prev[i]`` = largest ``j < i`` with ``hashes[j] == hashes[i]``, else -1.

    Vectorized replacement for the sequential hash-table scan: a stable
    argsort groups equal hashes while preserving position order, so each
    element's predecessor within its group is its most recent prior
    occurrence.
    """
    order = np.argsort(hashes, kind="stable")
    prev = np.full(hashes.size, -1, dtype=np.int64)
    if hashes.size > 1:
        same = hashes[order[1:]] == hashes[order[:-1]]
        prev[order[1:][same]] = order[:-1][same]
    return prev


def _match_extension(arr: np.ndarray, a: int, b: int) -> int:
    """Longest common run of ``arr[a + k] == arr[b + k]`` with ``b + k < n``.

    Compares in geometrically growing blocks so short matches stay cheap
    and long matches run at memcmp speed.
    """
    max_k = arr.size - b
    total = 0
    block = 32
    while total < max_k:
        m = min(block, max_k - total)
        diff = arr[a + total : a + total + m] != arr[b + total : b + total + m]
        if diff.any():
            return total + int(np.argmax(diff))
        total += m
        block = min(block * 2, 1 << 16)
    return max_k


def lz77_encode_bytes(data: bytes) -> bytes:
    """Greedy hash-table LZ77 over raw bytes within a
    :data:`DEFAULT_BYTE_WINDOW`-byte window.

    Produces the byte stream of the original sequential encoder (the
    ``_reference_lz77_encode_bytes`` oracle) but finds matches vectorized:
    because the sequential scan inserts every position it passes, a
    position's candidate is always *the most recent earlier position in the
    same hash bucket* — a parse-independent quantity.  All candidates,
    window checks, and 4-byte verifications are precomputed with NumPy; the
    remaining Python loop runs once per emitted match token (never per
    byte), leaping between match sites with ``searchsorted``.
    """
    n = len(data)
    out = bytearray()
    if n == 0:
        return bytes(out)
    arr = np.frombuffer(data, dtype=np.uint8)
    if n >= MIN_MATCH:
        u32 = (
            arr[: n - 3].astype(np.uint32)
            | (arr[1 : n - 2].astype(np.uint32) << np.uint32(8))
            | (arr[2 : n - 1].astype(np.uint32) << np.uint32(16))
            | (arr[3:n].astype(np.uint32) << np.uint32(24))
        )
        # uint16 hash keys (14 bits used) make the stable argsort inside
        # _previous_same_hash a 2-byte radix sort — ~10x faster than int64.
        hashes = ((u32 * np.uint32(2654435761)) >> np.uint32(32 - _HASH_BITS)).astype(
            np.uint16
        )
        prev = _previous_same_hash(hashes)
        candidates = np.flatnonzero(prev >= 0)
        verified = (candidates - prev[candidates] <= DEFAULT_BYTE_WINDOW) & (
            u32[candidates] == u32[prev[candidates]]
        )
        match_sites = candidates[verified]
    else:
        prev = np.empty(0, dtype=np.int64)
        match_sites = np.empty(0, dtype=np.int64)
    pos = 0
    literal_start = 0
    while True:
        site = int(np.searchsorted(match_sites, pos))
        if site >= match_sites.size:
            break
        pos = int(match_sites[site])
        candidate = int(prev[pos])
        match_len = MIN_MATCH + _match_extension(arr, candidate + MIN_MATCH, pos + MIN_MATCH)
        lit_len = pos - literal_start
        token_lit = min(lit_len, 15)
        token_match = min(match_len - MIN_MATCH, 15)
        out.append((token_lit << 4) | token_match)
        if token_lit == 15:
            _write_varnibble(out, lit_len)
        out.extend(data[literal_start:pos])
        offset = pos - candidate
        out.extend(offset.to_bytes(2, "little"))
        if token_match == 15:
            _write_varnibble(out, match_len - MIN_MATCH)
        pos += match_len
        literal_start = pos
    # Final literals-only token.
    lit_len = n - literal_start
    token_lit = min(lit_len, 15)
    out.append(token_lit << 4)
    if token_lit == 15:
        _write_varnibble(out, lit_len)
    out.extend(data[literal_start:n])
    return bytes(out)


def _reference_lz77_encode_bytes(data: bytes) -> bytes:
    """The seed's original sequential encoder, frozen as the differential
    oracle: per-position hash-table updates and per-byte match extension,
    at the live encoder's ``DEFAULT_BYTE_WINDOW``."""
    n = len(data)
    out = bytearray()
    if n == 0:
        return bytes(out)
    arr = np.frombuffer(data, dtype=np.uint8)
    if n >= MIN_MATCH:
        u32 = (
            arr[: n - 3].astype(np.uint32)
            | (arr[1 : n - 2].astype(np.uint32) << np.uint32(8))
            | (arr[2 : n - 1].astype(np.uint32) << np.uint32(16))
            | (arr[3:n].astype(np.uint32) << np.uint32(24))
        )
        hashes = _hash_u32(u32).tolist()
    else:
        hashes = []
    head = [-1] * _HASH_SIZE  # hash bucket -> most recent position
    pos = 0
    literal_start = 0
    limit = n - MIN_MATCH + 1
    while pos < limit:
        h = hashes[pos]
        candidate = head[h]
        head[h] = pos
        if candidate >= 0 and pos - candidate <= DEFAULT_BYTE_WINDOW and data[candidate : candidate + MIN_MATCH] == data[pos : pos + MIN_MATCH]:
            # Extend the match forward as far as it goes.
            match_len = MIN_MATCH
            max_len = n - pos
            while match_len < max_len and data[candidate + match_len] == data[pos + match_len]:
                match_len += 1
            lit_len = pos - literal_start
            token_lit = min(lit_len, 15)
            token_match = min(match_len - MIN_MATCH, 15)
            out.append((token_lit << 4) | token_match)
            if token_lit == 15:
                _write_varnibble(out, lit_len)
            out.extend(data[literal_start:pos])
            offset = pos - candidate
            out.extend(offset.to_bytes(2, "little"))
            if token_match == 15:
                _write_varnibble(out, match_len - MIN_MATCH)
            # Insert hash entries inside the match so later data can
            # reference it, then leap past the matched span.
            end = min(pos + match_len, limit)
            for p in range(pos + 1, end):
                head[hashes[p]] = p
            pos += match_len
            literal_start = pos
        else:
            pos += 1
    # Final literals-only token.
    lit_len = n - literal_start
    token_lit = min(lit_len, 15)
    out.append(token_lit << 4)
    if token_lit == 15:
        _write_varnibble(out, lit_len)
    out.extend(data[literal_start:n])
    return bytes(out)


def _read_varnibble(data: bytes | memoryview, pos: int, nibble: int) -> tuple[int, int]:
    value = nibble
    if nibble == 15:
        while True:
            ext = data[pos]
            pos += 1
            value += ext
            if ext != 255:
                break
    return value, pos


def _corrupt(codec: str, detail: str, pos: int) -> CorruptPayloadError:
    return CorruptPayloadError(f"{codec}: corrupt LZ77 stream at byte {pos}: {detail}")


def lz77_decode_bytes(stream: bytes | memoryview, expected_size: int, codec: str = "lz77") -> bytes:
    """Invert :func:`lz77_encode_bytes`.

    Match copies run as C-speed slice operations: non-overlapping matches
    are a single slice copy, overlapping ones replicate the ``offset``-byte
    period — identical output to the byte-at-a-time reference.  A stream the
    encoder cannot have written raises
    :class:`~repro.compression.serialization.CorruptPayloadError` naming
    ``codec`` and the stream byte offset of the token that failed.
    """
    out = bytearray()
    pos = token_pos = 0
    n = len(stream)
    try:
        while pos < n:
            token_pos = pos
            token = stream[pos]
            pos += 1
            lit_len, pos = _read_varnibble(stream, pos, token >> 4)
            out.extend(stream[pos : pos + lit_len])
            pos += lit_len
            if pos >= n:
                break  # literals-only tail token
            offset = int.from_bytes(stream[pos : pos + 2], "little")
            pos += 2
            match_len, pos = _read_varnibble(stream, pos, token & 0xF)
            match_len += MIN_MATCH
            if offset == 0 or offset > len(out):
                raise _corrupt(codec, f"offset {offset} at output size {len(out)}", token_pos)
            start = len(out) - offset
            if offset >= match_len:
                out += out[start : start + match_len]
            else:
                # Overlapping match: the copy region is periodic in `offset`.
                period = bytes(out[start:])
                repeats = -(-match_len // offset)
                out += (period * repeats)[:match_len]
    except IndexError:  # a length extension runs past the end
        raise _corrupt(codec, "truncated token", token_pos) from None
    if len(out) != expected_size:
        raise _corrupt(codec, f"decoded {len(out)} bytes, expected {expected_size}", n)
    return bytes(out)


def _reference_lz77_decode_bytes(stream: bytes | memoryview, expected_size: int) -> bytes:
    """The seed's original byte-at-a-time decoder, frozen as the oracle."""
    out = bytearray()
    pos = 0
    n = len(stream)
    while pos < n:
        token_pos = pos
        token = stream[pos]
        pos += 1
        lit_len, pos = _read_varnibble(stream, pos, token >> 4)
        out.extend(stream[pos : pos + lit_len])
        pos += lit_len
        if pos >= n:
            break  # literals-only tail token
        offset = int.from_bytes(stream[pos : pos + 2], "little")
        pos += 2
        match_len, pos = _read_varnibble(stream, pos, token & 0xF)
        match_len += MIN_MATCH
        if offset == 0 or offset > len(out):
            raise _corrupt("lz77", f"offset {offset} at output size {len(out)}", token_pos)
        start = len(out) - offset
        # Overlap-safe copy (offset may be smaller than match_len).
        for k in range(match_len):
            out.append(out[start + k])
    if len(out) != expected_size:
        raise _corrupt("lz77", f"decoded {len(out)} bytes, expected {expected_size}", n)
    return bytes(out)


class Lz4LikeCompressor(Compressor):
    """Lossless byte-LZ77 with a traditional 4 KB window (nvCOMP-LZ4 family)."""

    name = "lz4_like"
    lossy = False
    error_bounded = False

    def _compress_body(self, array: np.ndarray, error_bound: float | None) -> tuple[tuple, bytes]:
        return (), lz77_encode_bytes(array.tobytes())

    def _decompress_body(
        self, tail: tuple, body: memoryview, shape: tuple[int, int], dtype: np.dtype
    ) -> np.ndarray:
        raw = lz77_decode_bytes(body, math.prod(shape) * dtype.itemsize, self.name)
        return np.frombuffer(raw, dtype=dtype).reshape(shape)


class DeflateLikeCompressor(Compressor):
    """LZ77 + Huffman over the token stream (nvCOMP-Deflate family)."""

    name = "deflate_like"
    lossy = False
    error_bounded = False
    #: LZ77 stream bytes (its code-length table has one entry per byte value)
    tail = struct.Struct("<Q")

    def _compress_body(self, array: np.ndarray, error_bound: float | None) -> tuple[tuple, list]:
        lz_stream = lz77_encode_bytes(array.tobytes())
        encoded = huffman_encode(np.frombuffer(lz_stream, dtype=np.uint8), 256)
        return (len(lz_stream),), huffman_sections(encoded)

    def _decompress_body(
        self, tail: tuple, body: memoryview, shape: tuple[int, int], dtype: np.dtype
    ) -> np.ndarray:
        (lz_size,) = tail
        encoded = read_huffman_sections(self.name, body, 256, lz_size)
        lz_stream = huffman_decode(encoded).astype(np.uint8).tobytes()
        raw = lz77_decode_bytes(lz_stream, math.prod(shape) * dtype.itemsize, self.name)
        return np.frombuffer(raw, dtype=dtype).reshape(shape)
