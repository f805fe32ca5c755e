"""Vector-based LZ encoding for embedding batches.

The paper's key observation (Section III-D) is that repeated patterns in
DLRM all-to-all traffic are *whole embedding vectors*: the unbalanced query
distribution makes hot rows recur within a batch, and a repeated row is
byte-identical for its entire, fixed length.  The vector-based LZ encoder
therefore departs from byte-oriented LZ77 in two ways:

* **Fixed pattern length** — match candidates are whole rows; if the first
  element differs the comparison stops, and the search pointer leaps a full
  vector instead of advancing one byte.
* **Extended window** — the window is measured in *vectors* (default 255,
  the paper's best), covering the 128–2048-row batches DLRM produces, far
  beyond a 4 KB byte window.

The encoder emits, per row, either a back-reference to an earlier identical
row inside the window or a literal row whose (quantized) elements are packed
at the minimal fixed bit width.

The kernels work on a *stack* of equal-shape batches ``(S, n, d)`` — the S
destination slices of one table in an exchange — and emit S streams
byte-identical to S independent encodes: one quantize, one match search
(sorted row hashes, every candidate verified, exact dictionary scan on a
collision) and one packing pass per distinct width, so the cost follows the
data volume instead of S times NumPy's per-call overhead.  A single batch
is the ``S = 1`` case of the same code.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Sequence

import numpy as np

from repro.compression.base import MAGIC, Compressor, frame_payload
from repro.compression.bitstream import (
    pack_fixed_segments,
    unpack_fixed_segments,
)
from repro.compression.quantizer import quantize
from repro.compression.serialization import CorruptPayloadError, unpack_meta

__all__ = [
    "DEFAULT_WINDOW",
    "VectorLZEncoded",
    "find_vector_matches",
    "vector_lz_encode",
    "vector_lz_encode_stack",
    "vector_lz_decode",
    "vector_lz_decode_stack",
    "VectorLZCompressor",
]

# The GPU decoder resolves match chains in O(log window) batched passes
# (pointer jumping); chains longer than ~2**60 would overflow the pass
# counter, far beyond any real batch.
_MAX_JUMP_PASSES = 64

DEFAULT_WINDOW = 255

#: Vector-LZ stores literals at a fixed bit width (<= 57), so unlike the
#: entropy leg it tolerates huge alphabets; the cap is the packing limit
#: rather than the codebook-oriented ``DEFAULT_MAX_ALPHABET``.
_MAX_ALPHABET = 1 << 57


def _row_keys(codes: np.ndarray) -> list[bytes]:
    """Return a hashable per-row key (the row's raw bytes)."""
    contiguous = np.ascontiguousarray(codes)
    if contiguous.ndim != 2:
        raise ValueError(f"expected 2-D code array, got shape {contiguous.shape}")
    n, d = contiguous.shape
    if d == 0:
        return [b""] * n
    void_dtype = np.dtype((np.void, d * contiguous.itemsize))
    return contiguous.reshape(n, d).view(void_dtype).ravel().tolist()


def find_vector_matches(codes: np.ndarray, window: int) -> tuple[np.ndarray, np.ndarray]:
    """Find, for each row, the nearest identical earlier row within ``window``.

    Returns ``(is_match, offsets)`` where ``offsets[i] = i - j`` for matched
    rows (1-based distance) and 0 for literals.  The scan keeps only the most
    recent occurrence per distinct row — matching the leap-forward search of
    the paper's fine-tuned LZ, which never revisits stale candidates.

    This dictionary scan is the exact definition of a match; the batched
    encoder reproduces it with sorted row hashes and falls back to it for
    any slice where a hash collision is detected.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    keys = _row_keys(codes)
    n = len(keys)
    is_match = np.zeros(n, dtype=bool)
    offsets = np.zeros(n, dtype=np.int64)
    last_seen: dict[bytes, int] = {}
    for i, key in enumerate(keys):
        j = last_seen.get(key)
        if j is not None and i - j <= window:
            is_match[i] = True
            offsets[i] = i - j
        last_seen[key] = i
    return is_match, offsets


@lru_cache(maxsize=16)
def _hash_multipliers(dim: int) -> np.ndarray:
    """Fixed pseudo-random odd 64-bit multipliers, one per row element.

    The hash only proposes match candidates — every candidate is verified
    by a full row comparison — so its values never reach a payload.
    """
    rng = np.random.default_rng(0x5EED_0F_11)
    multipliers = rng.integers(0, 1 << 63, size=dim, dtype=np.uint64) * np.uint64(2) + np.uint64(1)
    multipliers.setflags(write=False)
    return multipliers


def _find_stack_matches(codes: np.ndarray, window: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`find_vector_matches` for every slice of an ``(S, n, d)`` stack.

    Rows are hashed, each slice's hashes are stably sorted, and a row's
    candidate is its predecessor in that order when the hashes tie — the
    most recent earlier row of the *same slice* with that hash.  A candidate
    that turns out to differ (a collision) may hide an identical row further
    back, so that slice is redone with the exact dictionary scan.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    n_slices, n, d = codes.shape
    is_match = np.zeros((n_slices, n), dtype=bool)
    offsets = np.zeros((n_slices, n), dtype=np.int64)
    if n_slices * n == 0:
        return is_match, offsets
    rows = codes.reshape(n_slices * n, d)
    # Hash whole 8-byte words of a row where its bytes split into them.
    row_bytes = d * codes.itemsize
    words = rows.view(np.uint64) if row_bytes and row_bytes % 8 == 0 else rows.astype(np.uint64)
    hashes = (words @ _hash_multipliers(words.shape[1])).reshape(n_slices, n)
    # Global row indices, each slice's rows in (hash, row) order.
    order = np.argsort(hashes, axis=1, kind="stable")
    order += np.arange(0, n_slices * n, n)[:, None]
    ranked = hashes.ravel()[order]
    tied = ranked[:, 1:] == ranked[:, :-1]
    row, candidate = order[:, 1:][tied], order[:, :-1][tied]
    identical = (rows[row] == rows[candidate]).all(axis=1)
    distance = row - candidate
    hit = identical & (distance <= window)
    is_match.ravel()[row[hit]] = True
    offsets.ravel()[row[hit]] = distance[hit]
    for s in sorted(set((row[~identical] // n).tolist())):
        is_match[s], offsets[s] = find_vector_matches(codes[s], window)
    return is_match, offsets


def _width_for(max_value: int) -> int:
    """Minimal bit width holding values in [0, max_value]."""
    return max(1, int(max_value).bit_length())


@dataclass(frozen=True)
class VectorLZEncoded:
    """A vector-LZ token stream (flags + back-references + literal rows)."""

    flags: np.ndarray  # packed uint8 bitmap, 1 = match
    offsets: np.ndarray  # packed uint8, fixed-width back-references
    literals: np.ndarray  # packed uint8, fixed-width literal elements
    n_rows: int
    n_matches: int
    dim: int
    window: int
    offset_width: int
    literal_width: int


def _encode_stack(codes: np.ndarray, window: int) -> list[VectorLZEncoded]:
    """Encode a C-contiguous ``(S, n, d)`` stack of non-negative integer
    codes (any integer dtype: a narrow one makes the row comparisons cheap)."""
    n_slices, n, d = codes.shape
    is_match, offsets = _find_stack_matches(codes, window)
    n_matches = is_match.sum(axis=1)
    flags = np.packbits(is_match, axis=1)
    offset_width = _width_for(window)
    packed_offsets, offset_bounds = pack_fixed_segments(offsets[is_match], offset_width, n_matches)

    literal_rows = codes[~is_match]
    literal_max = np.zeros(n_slices, dtype=np.int64)
    if codes.size:
        literal_max = np.where(is_match, 0, codes.max(axis=2)).max(axis=1)
    literal_widths = [_width_for(m) for m in literal_max.tolist()]
    values_per_slice = (n - n_matches) * d
    literals: list[np.ndarray] = [None] * n_slices  # type: ignore[list-item]
    # One bit-matrix pass per distinct width (slices of one table mostly share it).
    for width in set(literal_widths):
        members = [s for s, w in enumerate(literal_widths) if w == width]
        selected = literal_rows
        if len(members) != n_slices:
            selected = literal_rows[np.repeat(np.array(literal_widths) == width, n - n_matches)]
        packed, bounds = pack_fixed_segments(selected.ravel(), width, values_per_slice[members])
        for k, s in enumerate(members):
            literals[s] = packed[bounds[k] : bounds[k + 1]]

    return [
        VectorLZEncoded(
            flags=flags[s],
            offsets=packed_offsets[offset_bounds[s] : offset_bounds[s + 1]],
            literals=literals[s],
            n_rows=n,
            n_matches=int(n_matches[s]),
            dim=d,
            window=window,
            offset_width=offset_width,
            literal_width=literal_widths[s],
        )
        for s in range(n_slices)
    ]


def vector_lz_encode_stack(
    codes: np.ndarray, window: int = DEFAULT_WINDOW
) -> list[VectorLZEncoded]:
    """Encode every slice of an ``(S, n, d)`` stack of non-negative codes.

    Stream ``s`` is byte-identical to encoding ``codes[s]`` alone at the
    same window, but all slices share one vectorized pass: one match search, one bit
    matrix per distinct width — no per-slice NumPy call overhead.
    """
    codes = np.ascontiguousarray(codes, dtype=np.int64)
    if codes.ndim != 3:
        raise ValueError(f"expected 3-D (slices, rows, dim) code stack, got shape {codes.shape}")
    if codes.size and codes.min() < 0:
        raise ValueError("vector_lz_encode expects non-negative codes")
    return _encode_stack(codes, window)


def vector_lz_encode(codes: np.ndarray) -> VectorLZEncoded:
    """Encode a 2-D array of non-negative integer codes row-wise, at
    :data:`DEFAULT_WINDOW`."""
    codes = np.asarray(codes)
    if codes.ndim != 2:
        raise ValueError(f"expected 2-D code array, got shape {codes.shape}")
    return vector_lz_encode_stack(codes[None])[0]


def _unpack_sections(sections: list[np.ndarray], counts: list[int], widths: list[int]) -> np.ndarray:
    """``unpack_fixed(sections[s], counts[s], widths[s])`` for all ``s``,
    concatenated — one gather per distinct width."""
    if len(set(widths)) == 1:
        return unpack_fixed_segments(sections, counts, widths[0])
    values = np.empty(sum(counts), dtype=np.uint64)
    owner = np.repeat(widths, counts)
    for width in set(widths):
        members = [s for s, w in enumerate(widths) if w == width]
        values[owner == width] = unpack_fixed_segments(
            [sections[s] for s in members], [counts[s] for s in members], width
        )
    return values


def _resolve_stack(encoded: Sequence[VectorLZEncoded]) -> tuple[np.ndarray, np.ndarray]:
    """Decode S equal-shape streams down to their literals.

    Returns ``(literal_rows, literal_of_row)``: all literal rows in stream
    order, and for every one of the ``S * n`` output rows the literal it
    resolves to.  Every row is either a literal or a back-reference to an
    earlier row, so each row resolves to exactly one literal through a
    chain of references; chains are collapsed with batched pointer jumping
    (``src = src[src]``) over the global row index, which terminates in
    O(log chain-length) vectorized passes.  A back-reference may never
    leave its own stream.
    """
    n_streams = len(encoded)
    n, d = encoded[0].n_rows, encoded[0].dim
    flag_bytes = (n + 7) // 8
    if n_streams > 1 and all(e.flags.size == flag_bytes for e in encoded):
        flags = np.concatenate([e.flags for e in encoded]).reshape(n_streams, flag_bytes)
        is_match = np.unpackbits(flags, axis=1, count=n).ravel()
    else:  # short maps read as zero-padded, long ones are cut (unpackbits count=)
        is_match = np.concatenate([np.unpackbits(e.flags, count=n) for e in encoded])
    is_match = is_match.view(bool)
    n_matches = [e.n_matches for e in encoded]
    marked = is_match.reshape(n_streams, n).sum(axis=1).tolist()
    if marked != n_matches:
        s = next(s for s in range(n_streams) if marked[s] != n_matches[s])
        raise CorruptPayloadError(
            f"corrupt vector-LZ stream: flag map marks {marked[s]} matches, "
            f"header declares {n_matches[s]}"
        )
    n_literals = [n - m for m in n_matches]
    literal_values = _unpack_sections(
        [e.literals for e in encoded],
        [count * d for count in n_literals],
        [e.literal_width for e in encoded],
    )
    literal_rows = literal_values.reshape(sum(n_literals), d).astype(np.int64)
    if not any(n_matches):
        return literal_rows, np.arange(n_streams * n)

    offsets = _unpack_sections(
        [e.offsets for e in encoded], n_matches, [e.offset_width for e in encoded]
    )
    # src[i]: the earlier row that row i copies (itself for literals).
    src = np.arange(n_streams * n, dtype=np.int64)
    match_positions = np.flatnonzero(is_match)
    src[match_positions] = match_positions - offsets.astype(np.int64)
    if (src[match_positions] < match_positions - match_positions % n).any():
        raise CorruptPayloadError("corrupt vector-LZ stream: back-reference before row 0")
    # Pointer jumping: literals are fixed points, matches strictly decrease,
    # so repeated src[src] reaches the all-literal fixed point.
    for _ in range(_MAX_JUMP_PASSES):
        hopped = np.take(src, src)
        if np.array_equal(hopped, src):
            break
        src = hopped
    if is_match[src].any():
        raise CorruptPayloadError("corrupt vector-LZ stream: unresolvable match chain")
    # Root rows are literals; literal_index maps a literal row position to
    # its rank in the packed literal block.
    literal_index = np.cumsum(~is_match) - 1
    return literal_rows, np.take(literal_index, src)


def vector_lz_decode_stack(encoded: Sequence[VectorLZEncoded]) -> np.ndarray:
    """Reconstruct the ``(S, n, d)`` code stack from S equal-shape streams
    (the mirror image of :func:`vector_lz_encode_stack`)."""
    if not encoded:
        raise ValueError("vector_lz_decode_stack needs at least one stream")
    n, d = encoded[0].n_rows, encoded[0].dim
    if any((e.n_rows, e.dim) != (n, d) for e in encoded):
        raise ValueError("vector_lz_decode_stack: streams differ in shape")
    if n == 0:
        return np.zeros((len(encoded), 0, d), dtype=np.int64)
    literal_rows, literal_of_row = _resolve_stack(encoded)
    return np.take(literal_rows, literal_of_row, axis=0).reshape(len(encoded), n, d)


def vector_lz_decode(encoded: VectorLZEncoded) -> np.ndarray:
    """Reconstruct the code array from a :class:`VectorLZEncoded` stream."""
    return vector_lz_decode_stack([encoded])[0]


def _reference_vector_lz_decode(encoded: VectorLZEncoded) -> np.ndarray:
    """Original per-row decode loop (with the seed's original fixed-width
    bit reader), kept as the differential-test and benchmark oracle."""
    from repro.compression.bitstream import _reference_unpack_fixed

    n, d = encoded.n_rows, encoded.dim
    if n == 0:
        return np.zeros((0, d), dtype=np.int64)
    is_match = np.unpackbits(encoded.flags, count=n).astype(bool)
    offsets = _reference_unpack_fixed(encoded.offsets, encoded.n_matches, encoded.offset_width)
    n_literals = n - encoded.n_matches
    literal_values = _reference_unpack_fixed(
        encoded.literals, n_literals * d, encoded.literal_width
    )
    literal_rows = literal_values.reshape(n_literals, d).astype(np.int64)
    out = np.empty((n, d), dtype=np.int64)
    match_iter = 0
    literal_iter = 0
    for i in range(n):
        if is_match[i]:
            out[i] = out[i - int(offsets[match_iter])]
            match_iter += 1
        else:
            out[i] = literal_rows[literal_iter]
            literal_iter += 1
    return out


def _parsed_stream(header: dict[str, Any], body: memoryview, n: int, d: int) -> VectorLZEncoded:
    """The three sections of one parsed vector-LZ frame, as views of ``body``.

    Every decode path reads a frame through here, so this is where a frame
    whose header the bytes cannot back is rejected, before anything
    unpacks: the match count must lie in ``[0, n]``, both widths in
    ``[1, 57]``, ``code_min`` an int64, and the offset and literal
    sections must hold the bits the header declares for them."""
    flags_len, offsets_len = header["flags_len"], header["offsets_len"]
    if flags_len < 0 or offsets_len < 0 or flags_len + offsets_len > len(body):
        raise CorruptPayloadError(
            f"corrupt vector-LZ stream: header declares {flags_len} + {offsets_len} "
            f"flag and offset bytes, body holds {len(body)}"
        )
    if flags_len < (n + 7) // 8:  # before unpacking n flag bits allocates
        raise CorruptPayloadError(
            f"corrupt vector-LZ stream too short: {n} rows need {(n + 7) // 8} "
            f"flag bytes, header declares {flags_len}"
        )
    if not -(1 << 63) <= header["code_min"] < (1 << 63):
        raise CorruptPayloadError(
            f"corrupt vector-LZ stream: code_min {header['code_min']} is not an int64"
        )
    n_matches = header["n_matches"]
    if not 0 <= n_matches <= n:
        raise CorruptPayloadError(
            f"corrupt vector-LZ stream: vector_lz header declares {n_matches} matches in {n} rows"
        )
    literals_len = len(body) - flags_len - offsets_len
    sections = (
        ("offset", header["offset_width"], n_matches, offsets_len),
        ("literal", header["literal_width"], (n - n_matches) * d, literals_len),
    )
    for section, width, count, present in sections:
        if not 1 <= width <= 57:
            raise CorruptPayloadError(
                f"corrupt vector-LZ stream: vector_lz {section} width {width} is not in [1, 57]"
            )
        needed = (count * width + 7) // 8
        if needed > present:
            raise CorruptPayloadError(
                f"corrupt vector-LZ stream too short: vector_lz {section} section needs "
                f"{needed} bytes, has {present}"
            )
    raw = np.frombuffer(body, dtype=np.uint8)
    return VectorLZEncoded(
        flags=raw[:flags_len],
        offsets=raw[flags_len : flags_len + offsets_len],
        literals=raw[flags_len + offsets_len :],
        n_rows=n,
        n_matches=n_matches,
        dim=d,
        window=header["window"],
        offset_width=header["offset_width"],
        literal_width=header["literal_width"],
    )


class VectorLZCompressor(Compressor):
    """Error-bounded compressor: quantization + vector-based LZ ("Ours-Vector").

    Parameters
    ----------
    window:
        Match window in vectors.  The paper sweeps {32, 64, 128, 255}
    """

    name = "vector_lz"
    lossy = True
    error_bounded = True

    def __init__(self, window: int = DEFAULT_WINDOW):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = int(window)

    # ------------------------------------------------------------- encode

    def _encode_bodies(self, stack: np.ndarray, error_bound: float) -> list[tuple[dict[str, Any], list]]:
        """``(meta, body parts)`` for every slice of a validated ``(S, n, d)``
        stack; each slice is quantized against its own ``code_min``."""
        codes = quantize(stack, error_bound)
        n_slices = codes.shape[0]
        code_min = np.zeros(n_slices, dtype=np.int64)
        if codes.size:
            per_slice = codes.reshape(n_slices, -1)
            code_min, code_max = per_slice.min(axis=1), per_slice.max(axis=1)
            # Python ints: a range wider than int64 must trip the cap, not wrap.
            for low, high in zip(code_min.tolist(), code_max.tolist()):
                if high - low + 1 > _MAX_ALPHABET:
                    raise ValueError(
                        f"quantize_batch: error_bound={error_bound!r} yields an alphabet of "
                        f"{high - low + 1} symbols (> max_alphabet={_MAX_ALPHABET}); the bound is too "
                        "tight for this value range — loosen it"
                    )
            # Shift each slice to start at 0, into the narrowest dtype that
            # holds the widest slice (the match search compares whole rows).
            # (Modular arithmetic in the narrow dtype: exact, as every
            # difference fits it.)
            narrow = np.min_scalar_type(int((code_max - code_min).max()))
            codes = np.subtract(codes, code_min[:, None, None], dtype=narrow, casting="unsafe")
        bodies = []
        for slice_min, encoded in zip(code_min.tolist(), _encode_stack(codes, self.window)):
            meta = {
                "eb": error_bound,
                "code_min": slice_min,
                "window": encoded.window,
                "n_matches": encoded.n_matches,
                "offset_width": encoded.offset_width,
                "literal_width": encoded.literal_width,
                "flags_len": int(encoded.flags.size),
                "offsets_len": int(encoded.offsets.size),
            }
            # Hand the three sections to the framer as parts: the payload is
            # assembled with one copy instead of tobytes() per section plus a
            # concatenation (byte layout unchanged).
            bodies.append((meta, [encoded.flags, encoded.offsets, encoded.literals]))
        return bodies

    def _compress_body(self, array: np.ndarray, error_bound: float | None) -> tuple[dict[str, Any], list]:
        return self._encode_bodies(array[None], float(error_bound))[0]

    def compress_stack(self, stack: np.ndarray, error_bound: float | None = None) -> list[bytes]:
        """Compress an ``(S, n, d)`` stack of equal-shape batches at once.

        Payload ``s`` is byte-identical to ``compress(stack[s], error_bound)``;
        the S slices share one quantize, one match search and one packing
        pass, so the cost is set by the data volume rather than by S times
        the per-call overhead of the kernels.
        """
        stack = np.ascontiguousarray(stack)
        if stack.ndim != 3:
            raise ValueError(
                f"{self.name}: expected 3-D (slices, batch, dim) stack, got shape {stack.shape}"
            )
        n_slices, n, d = stack.shape
        self._validate(stack.reshape(n_slices * n, d), error_bound)  # dtype + bound rules
        shape = (n, d)
        return [
            frame_payload(self.name, shape, stack.dtype, meta, body)
            for meta, body in self._encode_bodies(stack, float(error_bound))
        ]

    # ------------------------------------------------------------- decode

    def _decompress_body(
        self,
        header: dict[str, Any],
        body: memoryview,
        shape: tuple[int, ...],
        dtype: np.dtype,
    ) -> np.ndarray:
        n, d = shape
        return self._decode_bodies([header], [body], n, d, dtype)[0]

    def _decode_bodies(
        self, headers: list[dict[str, Any]], bodies: list, n: int, d: int, dtype: np.dtype
    ) -> np.ndarray:
        """Decode S parsed ``(n, d)`` frames into one ``(S, n, d)`` array."""
        encoded = [_parsed_stream(header, body, n, d) for header, body in zip(headers, bodies)]
        if n == 0:
            return np.zeros((len(encoded), 0, d), dtype=dtype)
        literal_rows, literal_of_row = _resolve_stack(encoded)
        # Dequantize the literals only: every output row is a copy of one.
        if len(headers) == 1:
            code_min, bin_width = headers[0]["code_min"], 2.0 * headers[0]["eb"]
        else:  # per-stream constants, repeated over each stream's literals
            n_literals = [n - e.n_matches for e in encoded]
            code_min = np.array([header["code_min"] for header in headers], dtype=np.int64)
            bin_width = 2.0 * np.array([header["eb"] for header in headers], dtype=np.float64)
            code_min = np.repeat(code_min, n_literals)[:, None]
            bin_width = np.repeat(bin_width, n_literals)[:, None]
        values = ((literal_rows + code_min).astype(np.float64) * bin_width).astype(dtype)
        return np.take(values, literal_of_row, axis=0).reshape(len(encoded), n, d)

    def decompress_stack(self, payloads: Sequence[bytes | memoryview]) -> list[np.ndarray] | None:
        """Decode a batch of equal-shape vector-LZ payloads in one pass.

        Returns the S arrays ``decompress`` would return for each payload,
        or ``None`` when the batch is not one stack (another codec's frame,
        a checksum envelope, ragged shapes or dtypes) — the caller then
        decodes payload by payload.
        """
        headers, bodies = [], []
        for payload in payloads:
            view = memoryview(payload)
            # Foreign framing (e.g. a checksum envelope) is declined, not an
            # error here — hence no parse_payload, which raises on it.
            if len(view) == 0 or view[0] != MAGIC:
                return None
            header, pos = unpack_meta(view, 1)
            if header.get("codec") != self.name:
                return None
            headers.append(header)
            bodies.append(view[pos:])
        if not headers:
            return None
        first = headers[0]
        if len(first["shape"]) != 2 or any(
            header["dtype"] != first["dtype"] or not np.array_equal(header["shape"], first["shape"])
            for header in headers[1:]
        ):
            return None
        n, d = (int(s) for s in first["shape"])
        return list(self._decode_bodies(headers, bodies, n, d, np.dtype(first["dtype"])))
