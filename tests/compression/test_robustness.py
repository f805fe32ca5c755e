"""Failure-injection tests: corrupt and truncated payloads.

A compressor used inside a training loop must fail loudly on mangled
input — silently decoding garbage would corrupt the model.  These tests
verify that every codec raises a Python-level exception (never hangs,
never returns a wrong-shaped array) for a family of corruptions.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.compression import available_compressors, decompress_any, get_compressor
from repro.compression.base import MAGIC, frame_payload, parse_payload
from repro.compression.baselines.lz_generic import lz77_encode_bytes
from repro.compression.huffman import huffman_encode
from repro.compression.serialization import CorruptPayloadError
from tests.conftest import make_hot_batch


#: through ``decompress_any(..., rows=)``: one row (a row-kernel walk), a few
#: unsorted ones, and every row (the full decode, indexed)
ROW_SETS = (np.array([0]), np.array([127, 5, 64]), np.arange(128))


def _check_row_decodes(original: bytes, mangled: bytes, shape: tuple[int, int]) -> None:
    """The same mangled bytes through the row selector: rows of the declared
    width or a ``ValueError`` (``CorruptPayloadError`` is one) — never a
    hang, never a failure class the full decode does not have.

    Bytes that reach a row kernel (header intact, vector-LZ or entropy frame)
    get exactly that.  A mangled *header* fails in the tagged-dict parser
    first, in that parser's own ways (``IndexError``, ``KeyError``, ...:
    ROADMAP direction 2), and a codec without a row kernel decodes the whole
    frame as before; there the demand is that the row decode fails the way
    the full decode of the same bytes does.
    """
    header, body = parse_payload(original)
    body_start = len(original) - len(body)
    header_intact = mangled[:body_start] == original[:body_start]
    strict = header_intact and get_compressor(header["codec"]).decodes_rows
    try:
        full = decompress_any(mangled)
    except Exception as exc:
        full = exc
    for rows in ROW_SETS:
        try:
            picked = decompress_any(mangled, rows=rows)
        except ValueError:
            continue
        except Exception as exc:
            assert not strict and type(exc) is type(full), (header["codec"], rows, exc, full)
            continue
        assert picked.shape == (rows.size, shape[1]), header["codec"]


#: single-bit flips of one 64x32 float32 block (54 normal(0, 0.1) rows, then
#: the first 10 again; eb 1e-2) that once leaked an untyped error
FLIPPED_BITS = [
    ("entropy", 178),  # KeyError('dtype'): the flip renames a header key
    ("vector_lz", 888),  # KeyError('offset_width')
    ("zfp_like", 564),  # KeyError('n_blocks')
    ("zfp_like", 211),  # AssertionError: decoded shape (64, 32, 4) != (64, 32)
    ("vector_lz", 396),  # MemoryError: a flipped shape field asked for 17.6 TB of flag bits
]


@pytest.fixture(scope="module")
def payloads():
    rng = np.random.default_rng(99)
    batch = make_hot_batch(rng, batch=128, dim=16)
    out = {}
    for name in available_compressors():
        codec = get_compressor(name)
        out[name] = (codec, codec.compress(batch, 0.01 if codec.error_bounded else None), batch)
    return out


class TestCorruptPayloads:
    def test_bad_magic_rejected_every_codec(self, payloads):
        for name, (codec, payload, _) in payloads.items():
            mangled = bytes([MAGIC ^ 0xFF]) + payload[1:]
            with pytest.raises(ValueError, match="magic"):
                codec.decompress(mangled)

    def test_empty_payload_rejected(self):
        with pytest.raises(ValueError):
            decompress_any(b"")

    @pytest.mark.parametrize("fraction", [0.05, 0.5, 0.95])
    def test_truncation_never_hangs_or_misshapes(self, payloads, fraction):
        """Truncated payloads raise; they never return a wrong result."""
        for name, (codec, payload, batch) in payloads.items():
            cut = max(1, int(len(payload) * fraction))
            truncated = payload[:cut]
            _check_row_decodes(payload, truncated, batch.shape)
            try:
                result = codec.decompress(truncated)
            except Exception:
                continue  # loud failure: exactly what we want
            # If decode "succeeded", framing must have been complete and the
            # shape contract must still hold.
            assert result.shape == batch.shape, name

    def test_header_tag_corruption_rejected(self, payloads):
        codec, payload, _ = payloads["entropy"]
        # Flip a byte inside the header region (just past the magic byte).
        mangled = bytearray(payload)
        mangled[1] ^= 0xFF
        with pytest.raises(Exception):
            codec.decompress(bytes(mangled))

    @pytest.mark.filterwarnings("ignore:Data type alias:DeprecationWarning")  # a flip to "|a8"
    def test_header_prefixes_and_bit_flips_parse_or_raise_value_error(self, payloads):
        """Every prefix and every single-bit flip of each registered codec's
        header bytes: ``parse_payload`` returns a header or raises
        ``ValueError`` (``CorruptPayloadError`` is one) — never an
        ``IndexError``, ``struct.error`` or ``TypeError`` out of the parser."""
        leaks = []
        for name, (_, payload, _) in payloads.items():
            body_start = len(payload) - len(parse_payload(payload)[1])
            mangled = [(f"cut {cut}", payload[:cut]) for cut in range(body_start)]
            for at in range(body_start):
                for bit in range(8):
                    flipped = bytearray(payload)
                    flipped[at] ^= 1 << bit
                    mangled.append((f"flip {at}.{bit}", bytes(flipped)))
            for how, data in mangled:
                try:
                    parse_payload(data)
                except ValueError:
                    pass
                except Exception as exc:
                    leaks.append(f"{name} {how}: {type(exc).__name__}: {exc}")
        assert leaks == []

    def test_cross_codec_payload_rejected(self, payloads):
        lz_codec, lz_payload, _ = payloads["vector_lz"]
        entropy_codec, _, _ = payloads["entropy"]
        with pytest.raises(ValueError, match="produced by codec"):
            entropy_codec.decompress(lz_payload)

    def test_parse_payload_roundtrip_headers(self, payloads):
        for name, (_, payload, batch) in payloads.items():
            header, body = parse_payload(payload)
            assert tuple(int(s) for s in header["shape"]) == batch.shape
            assert len(body) <= len(payload)

    def test_body_bitflip_huffman_detected_or_bounded(self, payloads):
        """A flipped bit in the entropy body either raises or decodes to the
        declared shape (the jump-chain guard prevents hangs)."""
        codec, payload, batch = payloads["entropy"]
        header, body = parse_payload(payload)
        body_start = len(payload) - len(body)
        for offset in (0, len(body) // 2, len(body) - 1):
            mangled = bytearray(payload)
            mangled[body_start + offset] ^= 0x55
            _check_row_decodes(payload, bytes(mangled), batch.shape)
            try:
                result = codec.decompress(bytes(mangled))
            except Exception:
                continue
            assert result.shape == batch.shape

    @pytest.mark.parametrize("name", ["vector_lz", "entropy"])
    def test_body_corruption_reaches_the_row_kernels_typed(self, payloads, name):
        """Seeded sweep of body bit flips and overwritten bytes over the two
        codecs that decode row by row: the header parses, so every outcome
        is the row kernel's own — declared-width rows or ``ValueError``."""
        _, payload, batch = payloads[name]
        body_start = len(payload) - len(parse_payload(payload)[1])
        rng = np.random.default_rng(7)
        for trial in range(150):
            mangled = bytearray(payload)
            for _ in range(int(rng.integers(1, 4))):
                at = int(rng.integers(body_start, len(payload)))
                flipped = mangled[at] ^ (1 << int(rng.integers(8)))
                mangled[at] = int(rng.integers(256)) if trial % 2 else flipped
            _check_row_decodes(payload, bytes(mangled), batch.shape)


class TestShortEntropyBody:
    @pytest.mark.parametrize("body", [b"", b"\xff"])
    def test_too_few_body_bits_for_the_declared_symbols(self, body):
        """An entropy frame whose code table holds two or more symbols
        needs at least one body bit per symbol.  An empty body once leaked
        ``IndexError`` from the full decode's peek gather."""
        rng = np.random.default_rng(0)
        payload = get_compressor("entropy").compress(rng.normal(0.0, 0.1, size=(64, 32)), 1e-2)
        header, _ = parse_payload(payload)
        assert np.count_nonzero(header["code_lengths"]) >= 2
        meta = {k: v for k, v in header.items() if k not in ("codec", "dtype", "shape")}
        short = frame_payload("entropy", (64, 32), np.dtype(header["dtype"]), meta, body)
        for selected in (None, np.array([0]), np.array([63, 1])):
            with pytest.raises(CorruptPayloadError, match="body bits"):
                decompress_any(short, rows=selected)


    def test_a_chunk_of_more_symbols_than_body_bits(self):
        """A flipped bit in ``chunk_symbol_counts`` (2048 -> 134 219 776)
        once sent the full decode through 134M positions for 2.5 s before
        it returned; no chunk can hold more symbols than the body has
        bits."""
        rng = np.random.default_rng(0)
        payload = get_compressor("entropy").compress(rng.normal(0.0, 0.1, size=(64, 32)), 1e-2)
        header, body = parse_payload(payload)
        meta = {k: v for k, v in header.items() if k not in ("codec", "dtype", "shape")}
        meta["chunk_symbol_counts"] = np.array([len(body) * 8 + 1], dtype=np.int64)
        inflated = frame_payload("entropy", (64, 32), np.dtype(header["dtype"]), meta, body)
        with pytest.raises(CorruptPayloadError, match="a chunk of .* symbols in .* body bits"):
            decompress_any(inflated)


class TestFlippedBitsRaiseCorruptPayloadError:
    @pytest.mark.parametrize("name,bit", FLIPPED_BITS)
    def test_flip_raises_the_typed_error(self, name, bit):
        rng = np.random.default_rng(0)
        rows = rng.normal(0.0, 0.1, size=(54, 32)).astype(np.float32)
        payload = bytearray(get_compressor(name).compress(np.concatenate([rows, rows[:10]]), 1e-2))
        payload[bit // 8] ^= 1 << (bit % 8)
        for selected in (None, np.array([0])):
            with pytest.raises(CorruptPayloadError):
                decompress_any(bytes(payload), rows=selected)


def _vector_lz_frame(flags: bytes = b"\x20", offsets: bytes = b"\x01", **meta) -> bytes:
    """A hand-built 4x2 vector-LZ frame with 8-bit offsets and literals.
    The defaults are well formed: row 2 (flag byte 0x20) copies row 1."""
    fields = {
        "eb": 1e-2,
        "code_min": 0,
        "window": 255,
        "n_matches": 1,
        "offset_width": 8,
        "literal_width": 8,
        "flags_len": len(flags),
        "offsets_len": len(offsets),
        **meta,
    }
    literals = bytes(range((4 - fields["n_matches"]) * 2))
    return frame_payload("vector_lz", (4, 2), np.dtype(np.float32), fields, [flags, offsets, literals])


#: corruptions of the well-formed frame, each caught by both decoders
CRAFTED_VECTOR_LZ = {
    "flag_count_is_not_n_matches": {"n_matches": 2},
    "back_reference_before_row_0": {"flags": b"\x80"},
    "unresolvable_match_chain": {"offsets": b"\x00"},
    "sections_past_the_body": {"offsets_len": 100},
}


class TestCraftedVectorLZFrames:
    def test_the_well_formed_frame_decodes(self):
        decoded = decompress_any(_vector_lz_frame())
        np.testing.assert_array_equal(decoded[2], decoded[1])
        picked = decompress_any(_vector_lz_frame(), rows=np.array([2, 0]))
        np.testing.assert_array_equal(picked, decoded[[2, 0]])

    @pytest.mark.parametrize("rows", [None, np.array([2, 0])], ids=["full", "rows"])
    @pytest.mark.parametrize("case", sorted(CRAFTED_VECTOR_LZ))
    def test_corrupt_stream_raises_the_typed_error(self, case, rows):
        frame = _vector_lz_frame(**CRAFTED_VECTOR_LZ[case])
        with pytest.raises(CorruptPayloadError, match="corrupt vector-LZ stream"):
            decompress_any(frame, rows=rows)

    def test_code_min_outside_int64_rejected_by_the_row_decode(self):
        with pytest.raises(CorruptPayloadError, match="code_min"):
            decompress_any(_vector_lz_frame(code_min=1 << 63), rows=np.array([0]))


class TestTruncatedVectorLZ:
    """Cutting bytes off a vector-LZ payload once leaked ``bitstream``'s bare
    ``ValueError("stream too short: ...")`` on all three decode paths; the
    frame reader now names the codec, the section and the bytes."""

    @pytest.fixture(scope="class")
    def payload(self) -> bytes:
        rng = np.random.default_rng(0)
        rows = rng.normal(0.0, 0.1, size=(54, 32)).astype(np.float32)
        return get_compressor("vector_lz").compress(np.concatenate([rows, rows[:10]]), 1e-2)

    @pytest.mark.parametrize("path", ["full", "rows", "stack"])
    @pytest.mark.parametrize("cut", [1, 8, 40])
    def test_cut_raises_the_typed_error(self, payload, cut, path):
        short = payload[:-cut]
        header, body = parse_payload(payload)
        present = len(body) - header["flags_len"] - header["offsets_len"] - cut
        message = f"vector_lz literal section needs {present + cut} bytes, has {present}$"
        with pytest.raises(CorruptPayloadError, match=message):
            if path == "full":
                decompress_any(short)
            elif path == "rows":
                decompress_any(short, rows=np.array([63, 0]))
            else:
                get_compressor("vector_lz").decompress_stack([payload, short])


def _lz_rows() -> np.ndarray:
    rng = np.random.default_rng(0)
    return np.round(rng.normal(0.0, 0.1, size=(64, 8)), 2).astype(np.float32)


def _deflate_frame(lz_stream: bytes, raw_size: int) -> bytes:
    """A ``deflate_like`` frame around an arbitrary LZ77 token stream: the
    Huffman stage round-trips it, so damage reaches the LZ77 decoder."""
    encoded = huffman_encode(np.frombuffer(lz_stream, dtype=np.uint8), 256)
    meta = {
        "raw_size": raw_size,
        "lz_size": len(lz_stream),
        "window": 4096,
        "code_lengths": encoded.code_lengths.astype(np.uint8),
        "chunk_bit_offsets": encoded.chunk_bit_offsets.astype(np.uint64),
        "chunk_symbol_counts": encoded.chunk_symbol_counts.astype(np.int64),
    }
    return frame_payload("deflate_like", (64, 8), np.dtype(np.float32), meta, [encoded.payload])


def _flips_decode_or_raise_typed(codec: str, mangled_payloads) -> None:
    """Each mangled payload decodes (an LZ77 literal byte carries no
    redundancy to check) or raises ``CorruptPayloadError`` naming the codec
    and the byte; at least one of them raises."""
    typed = 0
    for mangled in mangled_payloads:
        try:
            decompress_any(mangled)
        except CorruptPayloadError as exc:
            assert re.match(rf"{codec}: .* byte \d+", str(exc)), str(exc)
            typed += 1
    assert typed > 0


class TestLZ77AndQuantSumBodiesRaiseCorruptPayloadError:
    """A damaged LZ77 token stream (``lz4_like``, ``deflate_like``) or a
    ``quant_sum`` body of the wrong size once raised a bare ``ValueError``
    (or, for an LZ77 length extension cut short, an ``IndexError``); each
    now raises the typed error naming the codec and the byte offset."""

    def test_lz4_like_flip(self):
        payload = get_compressor("lz4_like").compress(_lz_rows())
        start = len(payload) - len(parse_payload(payload)[1])
        _flips_decode_or_raise_typed(
            "lz4_like",
            (payload[:i] + bytes([payload[i] ^ 0xFF]) + payload[i + 1 :] for i in range(start, len(payload))),
        )

    def test_lz4_like_truncate(self):
        payload = get_compressor("lz4_like").compress(_lz_rows())
        start = len(payload) - len(parse_payload(payload)[1])
        for cut in range(start, len(payload)):
            with pytest.raises(CorruptPayloadError, match=r"lz4_like: corrupt LZ77 stream at byte \d+"):
                decompress_any(payload[:cut])

    def test_deflate_like_flip(self):
        raw = _lz_rows().tobytes()
        stream = lz77_encode_bytes(raw, 4096)
        assert decompress_any(_deflate_frame(stream, len(raw))).tobytes() == raw
        _flips_decode_or_raise_typed(
            "deflate_like",
            (
                _deflate_frame(stream[:i] + bytes([stream[i] ^ 0xFF]) + stream[i + 1 :], len(raw))
                for i in range(0, len(stream), 3)
            ),
        )

    def test_deflate_like_truncate(self):
        raw = _lz_rows().tobytes()
        stream = lz77_encode_bytes(raw, 4096)
        for cut in range(1, len(stream), 5):
            with pytest.raises(CorruptPayloadError, match=r"deflate_like: corrupt LZ77 stream at byte \d+"):
                decompress_any(_deflate_frame(stream[:cut], len(raw)))

    def test_quant_sum_flip(self):
        """A flipped code width (``|i1`` -> ``|i2``) halves the codes the
        body holds."""
        payload = get_compressor("quant_sum").compress(_lz_rows(), 1e-2)
        assert payload.count(b"|i1") == 1
        with pytest.raises(CorruptPayloadError, match="quant_sum: body holds 512 bytes, but 512 "):
            decompress_any(payload.replace(b"|i1", b"|i2"))

    def test_quant_sum_truncate(self):
        payload = get_compressor("quant_sum").compress(_lz_rows(), 1e-2)
        body = len(parse_payload(payload)[1])
        for cut in range(1, body + 1):
            message = f"quant_sum: body holds {body - cut} bytes, but 512 \\|i1 codes end at byte 512"
            with pytest.raises(CorruptPayloadError, match=message):
                decompress_any(payload[:-cut])


class TestUnregisteredCodecRaisesCorruptPayloadError:
    @pytest.mark.parametrize("name", available_compressors())
    def test_renamed_codec(self, payloads, name):
        """One flipped bit in the frame's codec-name string renames the codec
        (``entropy`` -> ``eltropy``).  ``decompress_any`` once leaked the
        registry's ``KeyError`` for it; it now names the codec it met."""
        _, payload, _ = payloads[name]
        framed_as = parse_payload(payload)[0]["codec"]  # a hybrid frame names its leg
        at = payload.index(framed_as.encode(), 1) + 1
        renamed = bytearray(payload)
        renamed[at] ^= 0x02
        bogus = parse_payload(bytes(renamed))[0]["codec"]
        assert bogus not in available_compressors()
        for selected in (None, np.array([0])):
            with pytest.raises(CorruptPayloadError, match=re.escape(repr(bogus))):
                decompress_any(bytes(renamed), rows=selected)


def _census_payload(name: str) -> bytes:
    """``name``'s frame of the fuzz census block (54 normal(0, 0.1) rows,
    then the first 10 again; eb 1e-2)."""
    rng = np.random.default_rng(0)
    rows = rng.normal(0.0, 0.1, size=(54, 32)).astype(np.float32)
    codec = get_compressor(name)
    return codec.compress(np.concatenate([rows, rows[:10]]), 1e-2 if codec.error_bounded else None)


class TestFrameDtypeRaisesCorruptPayloadError:
    @pytest.mark.parametrize("name", available_compressors())
    def test_every_flip_of_the_dtype_string(self, name):
        """One flipped bit in a frame's dtype string (``<f4``) once reached
        ``np.dtype`` as is and leaked NumPy's ``TypeError`` (``data type
        '\\x1cf4' not understood``) or ``SyntaxError``, or named a subarray
        dtype (``8f4``) whose decode failed to reshape.  Each flip now
        raises the typed error or decodes to the declared shape."""
        payload = _census_payload(name)
        dtype = parse_payload(payload)[0]["dtype"].encode()
        at = payload.index(dtype, 1)
        for byte in range(at, at + len(dtype)):
            for bit in range(8):
                flipped = bytearray(payload)
                flipped[byte] ^= 1 << bit
                for selected, shape in ((None, (64, 32)), (np.array([0]), (1, 32))):
                    try:
                        decoded = decompress_any(bytes(flipped), rows=selected)
                    except CorruptPayloadError:
                        continue
                    assert decoded.shape == shape, (byte, bit)


class TestBodyLengthRaisesCorruptPayloadError:
    """A body one byte short or long once reached ``np.frombuffer`` /
    ``reshape`` (or ``bitstream``'s reader) and raised NumPy's bare
    ``ValueError``; the body length is now checked against the header's
    shape first, naming the codec and both sizes."""

    @pytest.mark.parametrize("name", ["count_sum", "fp16", "fp8", "lz4_like", "zfp_like"])
    @pytest.mark.parametrize("change", ["truncate", "extend"])
    def test_one_byte_off(self, name, change):
        payload = _census_payload(name)
        mangled = payload[:-1] if change == "truncate" else payload + b"\0"
        with pytest.raises(CorruptPayloadError, match=rf"^{name}: "):
            decompress_any(mangled)

    @pytest.mark.parametrize("name", ["lz4_like", "deflate_like"])
    @pytest.mark.parametrize("change", [-1, 1])
    def test_lz_stream_of_the_wrong_size(self, name, change):
        """A well-formed LZ77 stream whose bytes do not fill the shape."""
        raw = _lz_rows().tobytes()
        raw = raw[:change] if change < 0 else raw + b"\0"
        stream = lz77_encode_bytes(raw, 4096)
        if name == "deflate_like":
            frame = _deflate_frame(stream, len(raw))
        else:
            meta = {"raw_size": len(raw), "window": 4096}
            frame = frame_payload(name, (64, 8), np.dtype(np.float32), meta, stream)
        with pytest.raises(CorruptPayloadError, match=f"{name}: body holds {len(raw)} bytes, expected 2048"):
            decompress_any(frame)
