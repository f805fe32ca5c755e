"""Optimized entropy encoder: canonical, length-limited Huffman coding.

This is the paper's "optimized entropy encoding" leg of the hybrid
compressor.  Design points mirroring the GPU implementation:

* **Canonical codes** — the codebook ships as code *lengths* only (plus the
  symbol alphabet); codes are re-derived on the receiver, keeping metadata
  small.
* **Length limiting** — code lengths are capped (default 15 bits) so the
  decoder can use a single flat peek table, the same reason Deflate caps at
  15.  Lengths are fixed up to satisfy Kraft's inequality after clamping.
* **Chunked streams** — symbols are encoded in independent chunks with
  recorded bit offsets, mirroring the paper's chunk-parallel decompression
  (Section III-E): each chunk can be decoded independently.

Encoding is fully vectorized (see :mod:`repro.compression.bitstream`);
decoding computes speculative flat-peek-table lookups at every bit offset
vectorized (the gap-array technique of GPU Huffman decoders) and then only
walks the per-chunk jump chain sequentially.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

import numpy as np

from repro.compression.bitstream import _reference_pack_codes, pack_codes, padded_stream, word_table
from repro.compression.cache import LruCache
from repro.compression.serialization import CorruptPayloadError

__all__ = [
    "huffman_code_lengths",
    "limit_code_lengths",
    "canonical_codes",
    "HuffmanCodebook",
    "build_codebook",
    "HuffmanEncoded",
    "huffman_encode",
    "huffman_decode",
    "huffman_decode_rows",
    "DEFAULT_MAX_CODE_LENGTH",
    "DEFAULT_CHUNK_SYMBOLS",
]

DEFAULT_MAX_CODE_LENGTH = 15
DEFAULT_CHUNK_SYMBOLS = 4096

#: decode-side peek tables keyed by the payload's code-length table; a flat
#: 2**max_length table is expensive to rebuild and identical across all
#: decodes of the same codebook (every chunk of a batch, every pull of a
#: stored block).  A served entropy table holds one
#: codebook per row block (54 in the ``publish_serve`` world, where 32
#: entries missed on ~40% of decodes), so the cache holds several such tables.
_PEEK_TABLE_CACHE = LruCache(128)


def _reference_huffman_code_lengths(freqs: np.ndarray) -> np.ndarray:
    """The seed's original heap-based tree build, frozen verbatim as the
    differential/benchmark oracle."""
    freqs = np.asarray(freqs, dtype=np.int64)
    n = freqs.size
    if n == 0:
        raise ValueError("cannot build a Huffman code over an empty alphabet")
    if (freqs <= 0).any():
        raise ValueError("all frequencies must be positive (drop unused symbols first)")
    if n == 1:
        return np.array([1], dtype=np.int64)
    # Leaves are ids [0, n); internal nodes get ids [n, 2n-1).  Heap entries
    # carry (weight, id) — the id tiebreak keeps construction deterministic.
    heap: list[tuple[int, int]] = [(int(f), i) for i, f in enumerate(freqs)]
    heapq.heapify(heap)
    parent = np.zeros(2 * n - 1, dtype=np.int64)
    next_id = n
    while len(heap) > 1:
        w1, a = heapq.heappop(heap)
        w2, b = heapq.heappop(heap)
        parent[a] = next_id
        parent[b] = next_id
        heapq.heappush(heap, (w1 + w2, next_id))
        next_id += 1
    root = next_id - 1
    depth = np.zeros(2 * n - 1, dtype=np.int64)
    for node in range(root - 1, -1, -1):  # parents always have larger ids
        depth[node] = depth[parent[node]] + 1
    return depth[:n]


def huffman_code_lengths(freqs: np.ndarray) -> np.ndarray:
    """Optimal (unlimited) Huffman code lengths for positive frequencies.

    Two-queue O(n log n) construction (the log factor is one ``argsort``):
    leaves wait in weight order in one queue, merged internal nodes are
    produced in nondecreasing weight order and consumed FIFO from the
    other, so every merge step picks its two cheapest nodes with plain
    comparisons — no heap.  Tie-breaking matches the seed's heap build
    exactly (leaves before internals at equal weight, then smaller symbol
    index / earlier creation first), so the resulting length table is
    identical, not merely equivalent — the differential tests pin this.
    """
    freqs = np.asarray(freqs, dtype=np.int64)
    n = freqs.size
    if n == 0:
        raise ValueError("cannot build a Huffman code over an empty alphabet")
    if (freqs <= 0).any():
        raise ValueError("all frequencies must be positive (drop unused symbols first)")
    if n == 1:
        return np.array([1], dtype=np.int64)
    order = np.argsort(freqs, kind="stable")
    leaf_weights = freqs[order].tolist()
    leaf_ids = order.tolist()
    merged_weights: list[int] = []  # FIFO, weights nondecreasing
    merged_ids: list[int] = []
    parent = np.zeros(2 * n - 1, dtype=np.int64)
    li = mi = 0  # queue cursors
    next_id = n

    def pop_min() -> tuple[int, int]:
        nonlocal li, mi
        # Equal weights prefer the leaf: leaf ids < n <= internal ids, and
        # the heap oracle orders by (weight, id).
        if li < n and (mi >= len(merged_weights) or leaf_weights[li] <= merged_weights[mi]):
            li += 1
            return leaf_weights[li - 1], leaf_ids[li - 1]
        mi += 1
        return merged_weights[mi - 1], merged_ids[mi - 1]

    for _ in range(n - 1):
        w1, a = pop_min()
        w2, b = pop_min()
        parent[a] = next_id
        parent[b] = next_id
        merged_weights.append(w1 + w2)
        merged_ids.append(next_id)
        next_id += 1
    root = next_id - 1
    depth = np.zeros(2 * n - 1, dtype=np.int64)
    for node in range(root - 1, -1, -1):  # parents always have larger ids
        depth[node] = depth[parent[node]] + 1
    return depth[:n]


def limit_code_lengths(lengths: np.ndarray, freqs: np.ndarray, max_length: int) -> np.ndarray:
    """Clamp code lengths to ``max_length`` and repair Kraft's inequality.

    Uses the classic zlib-style adjustment: clamp, then while the Kraft sum
    exceeds 1 lengthen the cheapest (lowest-frequency) symbol that still has
    headroom; finally shorten the most frequent symbols while the sum allows,
    recovering most of the clamping loss.  The result always satisfies
    ``sum(2**-l) <= 1`` and hence admits a canonical prefix code.
    """
    lengths = np.asarray(lengths, dtype=np.int64).copy()
    freqs = np.asarray(freqs, dtype=np.int64)
    if max_length < 1:
        raise ValueError(f"max_length must be >= 1, got {max_length}")
    if lengths.size > (1 << max_length):
        raise ValueError(
            f"alphabet of {lengths.size} symbols cannot fit in {max_length}-bit codes"
        )
    np.minimum(lengths, max_length, out=lengths)
    # Kraft sum scaled by 2**max_length to stay in integers.
    unit = 1 << max_length
    kraft = int(np.sum(unit >> lengths))
    if kraft > unit:
        # Lengthen low-frequency symbols (cheapest in expected bits) first.
        order = np.argsort(freqs, kind="stable")
        while kraft > unit:
            progressed = False
            for idx in order:
                if lengths[idx] < max_length:
                    kraft -= (unit >> lengths[idx]) - (unit >> (lengths[idx] + 1))
                    lengths[idx] += 1
                    progressed = True
                    if kraft <= unit:
                        break
            if not progressed:  # pragma: no cover - guarded by size check above
                raise AssertionError("cannot satisfy Kraft inequality")
    # Greedy improvement: shorten the most frequent symbols while legal.
    order = np.argsort(-freqs, kind="stable")
    improved = True
    while improved:
        improved = False
        for idx in order:
            if lengths[idx] > 1:
                gain = (unit >> lengths[idx] - 1) - (unit >> lengths[idx])
                if kraft + gain <= unit:
                    lengths[idx] -= 1
                    kraft += gain
                    improved = True
    return lengths


def canonical_codes(lengths: np.ndarray) -> np.ndarray:
    """Assign canonical code values for the given lengths.

    Symbols are ordered by (length, symbol index); codes within a length are
    consecutive, and the first code of each length follows the Deflate
    recurrence ``code[l] = (code[l-1] + count[l-1]) << 1``.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.size == 0:
        return np.zeros(0, dtype=np.uint64)
    if lengths.min() < 1:
        raise ValueError("all code lengths must be >= 1")
    max_len = int(lengths.max())
    counts = np.bincount(lengths, minlength=max_len + 1)
    first = np.zeros(max_len + 2, dtype=np.int64)
    code = 0
    for length in range(1, max_len + 1):
        code = (code + counts[length - 1]) << 1
        first[length] = code
    order = np.lexsort((np.arange(lengths.size), lengths))
    codes = np.zeros(lengths.size, dtype=np.uint64)
    # Rank of each symbol within its length class, in canonical order.
    sorted_lengths = lengths[order]
    boundaries = np.flatnonzero(np.diff(sorted_lengths)) + 1
    rank = np.arange(lengths.size) - np.repeat(
        np.concatenate([[0], boundaries]), np.diff(np.concatenate([[0], boundaries, [lengths.size]]))
    )
    codes[order] = (first[sorted_lengths] + rank).astype(np.uint64)
    return codes


@dataclass(frozen=True)
class HuffmanCodebook:
    """Canonical codebook over a dense alphabet ``[0, n)``."""

    lengths: np.ndarray  # int64, per dense symbol
    codes: np.ndarray  # uint64, per dense symbol

    @property
    def max_length(self) -> int:
        return int(self.lengths.max()) if self.lengths.size else 0

    def expected_bits(self, freqs: np.ndarray) -> float:
        """Average code length in bits under the given frequencies."""
        freqs = np.asarray(freqs, dtype=np.float64)
        return float((freqs * self.lengths).sum() / freqs.sum())

    def peek_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Flat decode table of size ``2**max_length``.

        Entry ``p`` holds the (symbol, length) whose code prefixes the
        ``max_length``-bit window ``p``.
        """
        max_len = self.max_length
        size = 1 << max_len
        table_sym = np.zeros(size, dtype=np.int64)
        table_len = np.zeros(size, dtype=np.int64)
        for sym, (code, length) in enumerate(zip(self.codes, self.lengths)):
            lo = int(code) << (max_len - int(length))
            hi = (int(code) + 1) << (max_len - int(length))
            table_sym[lo:hi] = sym
            table_len[lo:hi] = length
        return table_sym, table_len


def build_codebook(freqs: np.ndarray, max_length: int = DEFAULT_MAX_CODE_LENGTH) -> HuffmanCodebook:
    """Build a canonical, length-limited codebook from symbol frequencies."""
    lengths = huffman_code_lengths(freqs)
    lengths = limit_code_lengths(lengths, freqs, max_length)
    return HuffmanCodebook(lengths=lengths, codes=canonical_codes(lengths))


@dataclass(frozen=True)
class HuffmanEncoded:
    """An entropy-coded symbol stream plus decode metadata."""

    payload: np.ndarray  # uint8 bitstream
    code_lengths: np.ndarray  # per dense symbol, rebuildable codebook
    chunk_bit_offsets: np.ndarray  # uint64, start bit of each chunk
    chunk_symbol_counts: np.ndarray  # int64
    total_symbols: int


def huffman_encode(
    symbols: np.ndarray,
    alphabet_size: int,
    *,
    max_code_length: int = DEFAULT_MAX_CODE_LENGTH,
    chunk_symbols: int = DEFAULT_CHUNK_SYMBOLS,
) -> HuffmanEncoded:
    """Entropy-code a dense symbol stream in independently decodable chunks.

    ``symbols`` must be integers in ``[0, alphabet_size)``.  Symbols that do
    not occur get no code; the shipped length table marks them with 0.
    """
    symbols = np.asarray(symbols, dtype=np.int64).ravel()
    if symbols.size and (symbols.min() < 0 or symbols.max() >= alphabet_size):
        raise ValueError(
            f"symbols out of range [0, {alphabet_size}): [{symbols.min()}, {symbols.max()}]"
        )
    if chunk_symbols < 1:
        raise ValueError(f"chunk_symbols must be >= 1, got {chunk_symbols}")
    if symbols.size == 0:
        return HuffmanEncoded(
            payload=np.zeros(0, dtype=np.uint8),
            code_lengths=np.zeros(alphabet_size, dtype=np.int64),
            chunk_bit_offsets=np.zeros(0, dtype=np.uint64),
            chunk_symbol_counts=np.zeros(0, dtype=np.int64),
            total_symbols=0,
        )
    freqs = np.bincount(symbols, minlength=alphabet_size)
    used = np.flatnonzero(freqs)
    if used.size > (1 << max_code_length):
        # Fail fast BEFORE the heap-based tree build: limit_code_lengths
        # would reject this anyway, but only after an O(n log n) Python
        # loop over every distinct symbol.
        raise ValueError(
            f"{used.size} distinct symbols cannot fit in {max_code_length}-bit "
            "codes; shrink the alphabet (e.g. loosen the error bound) or raise "
            "max_code_length"
        )
    if used.size == 1:
        # Degenerate single-symbol stream (e.g. a fully homogenized batch):
        # the code table alone identifies the symbol, no payload bits needed.
        lengths = np.zeros(alphabet_size, dtype=np.int64)
        lengths[used[0]] = 1
        chunk_counts = _chunk_layout(symbols.size, chunk_symbols)
        return HuffmanEncoded(
            payload=np.zeros(0, dtype=np.uint8),
            code_lengths=lengths,
            chunk_bit_offsets=np.zeros(chunk_counts.size, dtype=np.uint64),
            chunk_symbol_counts=chunk_counts,
            total_symbols=symbols.size,
        )
    dense_book = build_codebook(freqs[used], max_code_length)
    # Scatter dense codebook back onto the full alphabet (length 0 = unused).
    lengths = np.zeros(alphabet_size, dtype=np.int64)
    codes = np.zeros(alphabet_size, dtype=np.uint64)
    lengths[used] = dense_book.lengths
    codes[used] = dense_book.codes
    sym_codes = codes[symbols]
    sym_lengths = lengths[symbols]
    # Chunk boundaries in symbol space; bit offsets come from the cumsum.
    chunk_counts = _chunk_layout(symbols.size, chunk_symbols)
    bit_ends = np.cumsum(sym_lengths)
    chunk_starts_sym = np.arange(chunk_counts.size, dtype=np.int64) * chunk_symbols
    chunk_bit_offsets = np.where(
        chunk_starts_sym == 0, 0, bit_ends[chunk_starts_sym - 1]
    ).astype(np.uint64)
    packed, _total_bits = pack_codes(sym_codes, sym_lengths)
    return HuffmanEncoded(
        payload=packed,
        code_lengths=lengths,
        chunk_bit_offsets=chunk_bit_offsets,
        chunk_symbol_counts=chunk_counts,
        total_symbols=symbols.size,
    )


def _chunk_layout(n_symbols: int, chunk_symbols: int) -> np.ndarray:
    """Per-chunk symbol counts: full chunks plus a short tail."""
    n_chunks = (n_symbols + chunk_symbols - 1) // chunk_symbols
    chunk_counts = np.full(n_chunks, chunk_symbols, dtype=np.int64)
    chunk_counts[-1] = n_symbols - chunk_symbols * (n_chunks - 1)
    return chunk_counts


def _reference_huffman_encode(
    symbols: np.ndarray,
    alphabet_size: int,
    *,
    max_code_length: int = DEFAULT_MAX_CODE_LENGTH,
    chunk_symbols: int = DEFAULT_CHUNK_SYMBOLS,
) -> HuffmanEncoded:
    """The seed's encode path — heap tree build + per-bit-plane packing —
    composed from the frozen ``_reference_*`` kernels (benchmark oracle)."""
    symbols = np.asarray(symbols, dtype=np.int64).ravel()
    if symbols.size == 0:
        return huffman_encode(symbols, alphabet_size, max_code_length=max_code_length)
    freqs = np.bincount(symbols, minlength=alphabet_size)
    used = np.flatnonzero(freqs)
    if used.size == 1:
        return huffman_encode(
            symbols, alphabet_size, max_code_length=max_code_length, chunk_symbols=chunk_symbols
        )
    dense_lengths = limit_code_lengths(
        _reference_huffman_code_lengths(freqs[used]), freqs[used], max_code_length
    )
    lengths = np.zeros(alphabet_size, dtype=np.int64)
    codes = np.zeros(alphabet_size, dtype=np.uint64)
    lengths[used] = dense_lengths
    codes[used] = canonical_codes(dense_lengths)
    sym_codes = codes[symbols]
    sym_lengths = lengths[symbols]
    chunk_counts = _chunk_layout(symbols.size, chunk_symbols)
    bit_ends = np.cumsum(sym_lengths)
    chunk_starts_sym = np.arange(chunk_counts.size, dtype=np.int64) * chunk_symbols
    chunk_bit_offsets = np.where(
        chunk_starts_sym == 0, 0, bit_ends[chunk_starts_sym - 1]
    ).astype(np.uint64)
    packed, _total_bits = _reference_pack_codes(sym_codes, sym_lengths)
    return HuffmanEncoded(
        payload=packed,
        code_lengths=lengths,
        chunk_bit_offsets=chunk_bit_offsets,
        chunk_symbol_counts=chunk_counts,
        total_symbols=symbols.size,
    )


def _sliding_windows(padded: np.ndarray, start_bit: int, count: int, width: int) -> np.ndarray:
    """``width``-bit big-endian windows at every bit offset in
    ``[start_bit, start_bit + count)``.  ``padded`` must carry >= 8 slack
    bytes past the last window.

    Combines each run of ``ceil((width + 7) / 8)`` bytes into one machine
    word per *byte* position, then broadcasts the 8 in-byte shifts — all
    elementwise, no per-bit gathers.  Returns ``uint32`` when the window
    fits (width <= 25), else ``uint64``.
    """
    if count <= 0:
        return np.zeros(0, dtype=np.uint64)
    first_byte = start_bit >> 3
    last_byte = (start_bit + count - 1) >> 3
    words, dtype, n_bytes = word_table(padded[first_byte : last_byte + 8], width)
    words = words[: last_byte - first_byte + 1]
    shifts = dtype(n_bytes * 8 - width) - np.arange(8, dtype=dtype)
    mask = dtype((1 << width) - 1)
    windows = ((words[:, None] >> shifts[None, :]) & mask).ravel()
    offset = start_bit & 7
    return windows[offset : offset + count]


def _check_bits_cover_symbols(total_bits: int, total_symbols: int) -> None:
    """With two or more coded symbols every code is at least one bit, so a
    body of fewer bits than declared symbols cannot be what was encoded."""
    if total_bits < total_symbols:
        raise CorruptPayloadError(
            f"corrupt Huffman stream: {total_bits} body bits cannot hold "
            f"{total_symbols} symbols of at least one bit each"
        )


def _peek_tables_for(code_lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """``(table_sym, table_len, max_len)`` for a length table, LRU-cached.

    ``table_sym`` is mapped back onto the full alphabet.  The same codebook
    recurs across chunks, iterations, and tables, so the flat
    ``2**max_length`` table is built once per distinct length table.
    Callers widen what they gather from ``table_sym`` to int64.
    """
    key = code_lengths.tobytes()
    cached = _PEEK_TABLE_CACHE.get(key)
    if cached is not None:
        return cached
    used = np.flatnonzero(code_lengths)
    dense_book = HuffmanCodebook(
        lengths=code_lengths[used], codes=canonical_codes(code_lengths[used])
    )
    max_len = dense_book.max_length
    table_sym, table_len = dense_book.peek_table()
    # int32 symbols (a full alphabet ships one length byte per symbol, so a
    # payload under 2 GiB cannot name a wider one) and uint8 lengths (max 57
    # bits) keep a cached table small and the per-bit-offset gathers cheap.
    sym_dtype = np.int32 if code_lengths.size <= np.iinfo(np.int32).max else np.int64
    value = (used.astype(sym_dtype)[table_sym], table_len.astype(np.uint8), max_len)
    _PEEK_TABLE_CACHE.put(key, value)
    return value


def huffman_decode(encoded: HuffmanEncoded) -> np.ndarray:
    """Decode a :class:`HuffmanEncoded` stream back to dense symbols.

    Fully vectorized gap-array decode (the Python analogue of the paper's
    chunk-parallel GPU decompression): speculative peek-table lookups at
    *every* bit offset of the payload yield a successor array
    ``next[p] = p + code_length_at(p)``, and the per-chunk jump chains —
    the only sequential dependence in Huffman decoding — are resolved for
    **all chunks simultaneously** by sequence doubling: the decoded position
    sequence doubles in length each pass while the successor array composes
    with itself, so ``chunk_symbols`` symbols need only
    ``ceil(log2(chunk_symbols))`` batched passes.  Output lands in one
    preallocated array; no Python lists, no per-symbol work.
    """
    if encoded.total_symbols == 0:
        return np.zeros(0, dtype=np.int64)
    lengths = encoded.code_lengths
    used = np.flatnonzero(lengths)
    if used.size == 0:
        raise ValueError("corrupt stream: no symbols have codes")
    if used.size == 1:
        # Mirror of the encoder's single-symbol fast path.
        return np.full(encoded.total_symbols, int(used[0]), dtype=np.int64)
    total_bits = encoded.payload.size * 8
    _check_bits_cover_symbols(total_bits, encoded.total_symbols)
    table_sym, table_len, max_len = _peek_tables_for(lengths)
    padded = padded_stream(encoded.payload, 8)
    windows = _sliding_windows(padded, 0, total_bits, max_len)
    steps = np.take(table_len, windows)  # uint8: code length at every bit offset
    # Successor array with a self-looping sentinel slot at total_bits; a
    # zero step (Kraft gap) also self-loops and is caught as corruption.
    pos_dtype = np.int32 if total_bits < 2**31 - 8 else np.int64
    successor = np.arange(total_bits + 1, dtype=pos_dtype)
    successor[:total_bits] += steps
    np.minimum(successor, pos_dtype(total_bits), out=successor)
    counts = encoded.chunk_symbol_counts.astype(np.int64)
    starts = encoded.chunk_bit_offsets.astype(np.int64)
    if starts.size == 0:
        raise ValueError("corrupt Huffman stream: symbols recorded but no chunks")
    if starts.min() < 0 or starts.max() > total_bits:
        raise ValueError("corrupt Huffman stream: chunk offset outside payload")
    n_chunks = starts.size
    max_count = int(counts.max())
    if max_count > total_bits:
        # every code is at least one bit: the bytes present bound each chunk
        raise CorruptPayloadError(
            f"corrupt Huffman stream: a chunk of {max_count} symbols in {total_bits} body bits"
        )
    # Resolve every chunk's jump chain simultaneously.  Composing the full
    # successor array log2(max_count) times would dominate (the bit domain
    # is ~10x the symbol count), so instead: compose it only `s` times into
    # a stride-2**s hop, walk the strided skeleton (max_count / 2**s tiny
    # cross-chunk steps), then expand each stride segment with 2**s - 1
    # single-step passes over all segments of all chunks at once.  `s`
    # balances composition cost (~per-element gather over the bit domain)
    # against Python-loop iteration overhead in the skeleton walk.
    _COMPOSE_COST = 1.3e-9  # seconds per successor element per composition
    _ITERATION_COST = 1.0e-6  # seconds per Python-loop pass (walk or expand)
    s = min(
        range(min(13, max_count.bit_length() + 1)),
        key=lambda k: k * total_bits * _COMPOSE_COST
        + (((max_count + (1 << k) - 1) >> k) + (1 << k)) * _ITERATION_COST,
    )
    stride = 1 << s
    hop = successor
    for _ in range(s):
        hop = np.take(hop, hop)
    n_segments = (max_count + stride - 1) // stride
    # Segment-major layout keeps every per-pass write contiguous; the final
    # transpose+reshape restores (chunk, symbol-index) order in one copy.
    expanded = np.empty((stride, n_segments, n_chunks), dtype=pos_dtype)
    skeleton = expanded[0]
    cursor = starts.astype(pos_dtype)
    for segment in range(n_segments):
        skeleton[segment] = cursor
        if segment + 1 < n_segments:
            cursor = np.take(hop, cursor)
    cursor = skeleton
    for t in range(1, stride):
        cursor = np.take(successor, cursor)
        expanded[t] = cursor
    flat = expanded.transpose(2, 1, 0).reshape(n_chunks, n_segments * stride)
    if int(counts.min()) == max_count or (counts[:-1] == max_count).all():
        # Standard layout (all chunks full except possibly the last): the
        # row-major flatten IS the symbol order; skip the validity mask.
        seq = flat[:, :max_count].ravel()[: encoded.total_symbols]
    else:
        valid = np.arange(max_count)[None, :] < counts[:, None]
        seq = flat[:, :max_count][valid]
    seq_clamped = np.minimum(seq, pos_dtype(total_bits - 1))
    peek_steps = np.take(steps, seq_clamped)
    if (peek_steps == 0).any() or (seq == total_bits).any():
        raise ValueError("corrupt Huffman stream: peek hit an unassigned code")
    return np.take(table_sym, np.take(windows, seq_clamped)).astype(np.int64)


def huffman_decode_rows(encoded: HuffmanEncoded, rows: Sequence[int], dim: int) -> np.ndarray:
    """``huffman_decode(encoded).reshape(-1, dim)[rows]`` without decoding
    the symbols of other rows.

    A variable-length stream is only addressable at its chunk starts, so a
    row costs the walk from the start of its chunk: the per-bit-offset
    code-length table of that chunk is computed vectorised (as the full
    decoder does for the whole payload), then **one** forward walk per
    touched chunk hops code to code up to the last requested row in it,
    peeking only the requested symbols.  A walk is as long as the symbols
    before the row, never the stream.  A zero step (a Kraft gap, or the
    zero padding past the chunk's bits) parks the walk where it stands, so
    it shows as a zero step under the next requested symbol and is raised
    as corruption there.

    ``rows`` holds indices in ``[0, total_symbols // dim)``.
    """
    distinct = sorted(set(rows))
    if len(distinct) * dim == 0:
        return np.empty((len(rows), dim), dtype=np.int64)
    lengths = encoded.code_lengths
    used = np.flatnonzero(lengths)
    if used.size == 0:
        raise ValueError("corrupt stream: no symbols have codes")
    if used.size == 1:
        # Mirror of the encoder's single-symbol fast path.
        return np.full((len(rows), dim), int(used[0]), dtype=np.int64)
    total_bits = encoded.payload.size * 8
    _check_bits_cover_symbols(total_bits, encoded.total_symbols)
    table_sym, table_len, max_len = _peek_tables_for(lengths)
    starts = encoded.chunk_bit_offsets.tolist()
    if not starts:
        raise ValueError("corrupt Huffman stream: symbols recorded but no chunks")
    if max(starts) > total_bits:
        raise ValueError("corrupt Huffman stream: chunk offset outside payload")
    counts = encoded.chunk_symbol_counts.tolist()
    if min(counts, default=0) < 1:
        raise ValueError("corrupt Huffman stream: a chunk without symbols")
    # Symbols [chunk_ends[c - 1], chunk_ends[c]) live in chunk c.
    chunk_ends = list(accumulate(counts))

    # Per touched chunk, the runs of requested symbols as (first symbol within
    # the chunk, count): a row is one run, cut where it crosses into the next
    # chunk.  Rows ascend, so chunks and runs come out in stream order.
    runs_of_chunk: dict[int, list[tuple[int, int]]] = {}
    for row in distinct:
        symbol, end = row * dim, (row + 1) * dim
        while symbol < end:
            chunk = bisect_right(chunk_ends, symbol)
            if chunk >= min(len(chunk_ends), len(starts)):
                raise ValueError("corrupt Huffman stream: chunks hold fewer symbols than rows")
            count = min(end, chunk_ends[chunk]) - symbol
            first = symbol - (chunk_ends[chunk - 1] if chunk else 0)
            runs_of_chunk.setdefault(chunk, []).append((first, count))
            symbol += count

    decoded = []
    for chunk, runs in runs_of_chunk.items():
        start = starts[chunk]
        n_bits = (starts[chunk + 1] if chunk + 1 < len(starts) else total_bits) - start
        last_first, last_count = runs[-1]
        if last_first + last_count > n_bits:
            # every code is at least one bit: the bytes present bound the walk
            raise ValueError("corrupt Huffman stream: peek hit an unassigned code")
        first_byte = start >> 3
        padded = padded_stream(encoded.payload[first_byte : (start + n_bits + 7) >> 3], 8)
        windows = _sliding_windows(padded, start - first_byte * 8, n_bits, max_len)
        # Zero steps past the chunk's last bit, so a walk that runs off it parks.
        steps = np.take(table_len, windows).tobytes() + bytes(max_len)
        position = walked = 0
        peeked: list[int] = []
        for first, count in runs:
            for _ in range(first - walked):
                position += steps[position]
            for _ in range(count):
                peeked.append(position)
                position += steps[position]
            walked = first + count
        if not all(steps[p] for p in peeked):
            raise ValueError("corrupt Huffman stream: peek hit an unassigned code")
        decoded.append(np.take(table_sym, np.take(windows, peeked)))
    # Stream order is row-major order of the distinct rows.
    out = np.concatenate(decoded, dtype=np.int64).reshape(len(distinct), dim)
    slot_of = {row: slot for slot, row in enumerate(distinct)}
    return out[[slot_of[row] for row in rows]]


def _reference_sliding_windows(
    padded: np.ndarray, start_bit: int, count: int, width: int
) -> np.ndarray:
    """The seed's original per-bit 8-byte-gather window computation, frozen
    verbatim as part of the differential/benchmark oracle."""
    positions = start_bit + np.arange(count, dtype=np.int64)
    byte_start = positions >> 3
    gathered = np.zeros(count, dtype=np.uint64)
    for k in range(8):
        gathered = (gathered << np.uint64(8)) | padded[byte_start + k].astype(np.uint64)
    shift = np.uint64(64) - (positions & 7).astype(np.uint64) - np.uint64(width)
    return (gathered >> shift) & np.uint64((1 << width) - 1)


def _reference_huffman_decode(encoded: HuffmanEncoded) -> np.ndarray:
    """Original per-symbol jump-chain walk, kept as the differential oracle."""
    if encoded.total_symbols == 0:
        return np.zeros(0, dtype=np.int64)
    lengths = encoded.code_lengths
    used = np.flatnonzero(lengths)
    if used.size == 0:
        raise ValueError("corrupt stream: no symbols have codes")
    if used.size == 1:
        return np.full(encoded.total_symbols, int(used[0]), dtype=np.int64)
    dense_book = HuffmanCodebook(
        lengths=lengths[used], codes=canonical_codes(lengths[used])
    )
    max_len = dense_book.max_length
    table_sym_np, table_len_np = dense_book.peek_table()
    table_sym_np = used[table_sym_np]
    padded = np.concatenate([encoded.payload, np.zeros(8, dtype=np.uint8)])
    n_chunks = encoded.chunk_bit_offsets.size
    total_bits = encoded.payload.size * 8
    out: list[int] = []
    for chunk_idx in range(n_chunks):
        start = int(encoded.chunk_bit_offsets[chunk_idx])
        count = int(encoded.chunk_symbol_counts[chunk_idx])
        end = (
            int(encoded.chunk_bit_offsets[chunk_idx + 1])
            if chunk_idx + 1 < n_chunks
            else total_bits
        )
        span = max(end - start, 1)
        windows = _reference_sliding_windows(padded, start, span, max_len)
        syms = table_sym_np[windows].tolist()
        steps = table_len_np[windows].tolist()
        pos = 0
        append = out.append
        for _ in range(count):
            append(syms[pos])
            step = steps[pos]
            if step == 0:  # only reachable on corrupt payloads (Kraft < 1 gap)
                raise ValueError("corrupt Huffman stream: peek hit an unassigned code")
            pos += step
    return np.asarray(out, dtype=np.int64)
