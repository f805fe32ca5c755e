"""Failure-injection tests: corrupt and truncated payloads.

A compressor used inside a training loop must fail loudly on mangled
input — silently decoding garbage would corrupt the model.  These tests
verify that every codec raises a Python-level exception (never hangs,
never returns a wrong-shaped array) for a family of corruptions.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.compression import agg_sum, available_compressors, decompress_any, get_compressor
from repro.compression.base import MAGIC, parse_payload
from repro.compression.baselines.lz_generic import lz77_encode_bytes
from repro.compression.homomorphic import MAX_TERMS
from repro.compression.huffman import (
    DEFAULT_CHUNK_SYMBOLS,
    huffman_decode,
    huffman_encode,
    huffman_sections,
    read_huffman_sections,
)
from repro.compression.serialization import CorruptPayloadError
from tests.compression.frames import build, reframe, seal, split
from tests.conftest import make_hot_batch


#: single-bit flips of one 64x32 float32 block (54 normal(0, 0.1) rows, then
#: the first 10 again; eb 1e-2) in the fixed header: the dtype code (0 -> 2),
#: the high bit of the row count (64 -> 2**31 + 64 rows: a flag section of
#: 256 MiB) and a bit of vector-LZ's offset width (8 -> 72).  Each flipped
#: frame is re-sealed with a valid CRC32, so the flip meets its range check.
FLIPPED_BITS = [
    ("entropy", 17 * 8 + 1),
    ("vector_lz", 21 * 8 + 7),
    ("vector_lz", 50 * 8 + 6),
]


def _tables(payload: bytes) -> int:
    """Bytes of the code-length and chunk-offset tables at the front of a
    Huffman-coded frame's body."""
    prelude, tail, _ = split(payload)
    rows, cols = prelude["shape"]
    return tail["n_lengths"] + 8 * -(-rows * cols // DEFAULT_CHUNK_SYMBOLS)


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
            mangled = seal(bytes([MAGIC ^ 0xFF]) + payload[1:])
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
            truncated = seal(payload[:cut])
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
        with pytest.raises(CorruptPayloadError, match="is not registered"):
            codec.decompress(seal(mangled))

    def test_header_prefixes_and_bit_flips_parse_or_raise_value_error(self, payloads):
        """Every prefix and every single-bit flip of each registered codec's
        prelude bytes, re-sealed with a valid CRC32: ``parse_payload``
        returns a prelude or raises ``ValueError`` (``CorruptPayloadError``
        is one) — never an ``IndexError``, ``struct.error`` or
        ``TypeError`` out of the parser."""
        leaks = []
        for name, (_, payload, _) in payloads.items():
            body_start = len(payload) - len(parse_payload(payload)[1])
            mangled = [(f"cut {cut}", seal(payload[:cut])) for cut in range(body_start)]
            for at in range(body_start):
                for bit in range(8):
                    flipped = bytearray(payload)
                    flipped[at] ^= 1 << bit
                    mangled.append((f"flip {at}.{bit}", seal(flipped)))
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
            prelude, body = parse_payload(payload)
            assert prelude.shape == batch.shape
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
            try:
                result = codec.decompress(seal(mangled))
            except Exception:
                continue
            assert result.shape == batch.shape

    @pytest.mark.parametrize("name", ["vector_lz", "entropy"])
    def test_body_corruption_decodes_or_raises_typed(self, payloads, name):
        """Seeded sweep of body bit flips and overwritten bytes over the
        paper's two codecs, each re-sealed with a valid CRC32: the prelude
        and tail parse, so every outcome is the decoder's own — the declared
        shape or ``CorruptPayloadError``."""
        _, payload, batch = payloads[name]
        body_start = len(payload) - len(split(payload)[2])
        rng = np.random.default_rng(7)
        for trial in range(150):
            mangled = bytearray(payload)
            for _ in range(int(rng.integers(1, 4))):
                at = int(rng.integers(body_start, len(payload)))
                flipped = mangled[at] ^ (1 << int(rng.integers(8)))
                mangled[at] = int(rng.integers(256)) if trial % 2 else flipped
            try:
                decoded = decompress_any(seal(mangled))
            except CorruptPayloadError:
                continue
            assert decoded.shape == batch.shape, trial


class TestShortEntropyBody:
    @pytest.mark.parametrize("body", [b"", b"\xff"])
    def test_too_few_body_bits_for_the_declared_symbols(self, body):
        """An entropy frame whose code table holds two or more symbols
        needs at least one body bit per symbol.  An empty body once leaked
        ``IndexError`` from the full decode's peek gather."""
        rng = np.random.default_rng(0)
        payload = get_compressor("entropy").compress(rng.normal(0.0, 0.1, size=(64, 32)), 1e-2)
        _, tail, sections = split(payload)
        assert np.count_nonzero(np.frombuffer(sections[: tail["n_lengths"]], np.uint8)) >= 2
        short = reframe(payload, body=sections[: _tables(payload)] + body)
        with pytest.raises(CorruptPayloadError, match="body bits"):
            decompress_any(short)

    def test_a_chunk_of_more_symbols_than_body_bits(self):
        """A chunk count past the body's bits (2048 -> 134 219 776, once a
        flipped header bit) sent the full decode through 134M positions for
        2.5 s before it returned; frames now derive their chunk counts from
        the shape, and a stream declaring such a chunk is still refused."""
        rng = np.random.default_rng(0)
        payload = get_compressor("entropy").compress(rng.normal(0.0, 0.1, size=(64, 32)), 1e-2)
        _, tail, body = split(payload)
        encoded = read_huffman_sections("entropy", memoryview(body), tail["n_lengths"], 2048)
        inflated = dataclasses.replace(
            encoded, chunk_symbol_counts=np.array([encoded.payload.size * 8 + 1], dtype=np.int64)
        )
        with pytest.raises(CorruptPayloadError, match="a chunk of .* symbols in .* body bits"):
            huffman_decode(inflated)


class TestFlippedBitsRaiseCorruptPayloadError:
    @pytest.mark.parametrize("name,bit", FLIPPED_BITS)
    def test_flip_raises_the_typed_error(self, name, bit):
        rng = np.random.default_rng(0)
        rows = rng.normal(0.0, 0.1, size=(54, 32)).astype(np.float32)
        payload = bytearray(get_compressor(name).compress(np.concatenate([rows, rows[:10]]), 1e-2))
        payload[bit // 8] ^= 1 << (bit % 8)
        with pytest.raises(CorruptPayloadError, match="^(dtype code|corrupt vector-LZ stream)"):
            decompress_any(seal(payload))


def _vector_lz_frame(flags: bytes = b"\x20", offsets: bytes = b"\x01", **tail) -> bytes:
    """A hand-built 4x2 vector-LZ frame with 8-bit offsets and literals.
    The defaults are well formed: row 2 (flag byte 0x20) copies row 1."""
    fields = {"eb": 1e-2, "code_min": 0, "n_matches": 1, "offset_width": 8, "literal_width": 8, **tail}
    literals = bytes(range((4 - fields["n_matches"]) * 2))
    return build("vector_lz", (4, 2), fields, flags + offsets + literals)


#: corruptions of the well-formed frame
CRAFTED_VECTOR_LZ = {
    "flag_count_is_not_n_matches": {"n_matches": 2, "offsets": b"\x01\x01"},
    "back_reference_before_row_0": {"flags": b"\x80"},
    "unresolvable_match_chain": {"offsets": b"\x00"},
    "sections_past_the_body": {"offset_width": 57},
}


class TestCraftedVectorLZFrames:
    def test_the_well_formed_frame_decodes(self):
        decoded = decompress_any(_vector_lz_frame())
        np.testing.assert_array_equal(decoded[2], decoded[1])

    @pytest.mark.parametrize("case", sorted(CRAFTED_VECTOR_LZ))
    def test_corrupt_stream_raises_the_typed_error(self, case):
        frame = _vector_lz_frame(**CRAFTED_VECTOR_LZ[case])
        with pytest.raises(CorruptPayloadError, match="corrupt vector-LZ stream"):
            decompress_any(frame)


class TestTruncatedVectorLZ:
    """Cutting bytes off a vector-LZ payload once leaked ``bitstream``'s bare
    ``ValueError("stream too short: ...")`` on every decode path; the
    frame reader now names the codec, the section and the bytes."""

    @pytest.fixture(scope="class")
    def payload(self) -> bytes:
        rng = np.random.default_rng(0)
        rows = rng.normal(0.0, 0.1, size=(54, 32)).astype(np.float32)
        return get_compressor("vector_lz").compress(np.concatenate([rows, rows[:10]]), 1e-2)

    @pytest.mark.parametrize("path", ["full", "stack"])
    @pytest.mark.parametrize("cut", [1, 8, 40])
    def test_cut_raises_the_typed_error(self, payload, cut, path):
        short = seal(payload[:-cut])
        _, tail, body = split(payload)
        offsets_len = (tail["n_matches"] * tail["offset_width"] + 7) // 8
        present = len(body) - 64 // 8 - offsets_len - cut
        message = f"vector_lz literal section needs {present + cut} bytes, has {present}$"
        with pytest.raises(CorruptPayloadError, match=message):
            if path == "full":
                decompress_any(short)
            else:
                get_compressor("vector_lz").decompress_stack([payload, short])


def _lz_rows() -> np.ndarray:
    rng = np.random.default_rng(0)
    return np.round(rng.normal(0.0, 0.1, size=(64, 8)), 2).astype(np.float32)


def _deflate_frame(lz_stream: bytes) -> bytes:
    """A (64, 8) float32 ``deflate_like`` frame around an arbitrary LZ77
    token stream: the Huffman stage round-trips it, so damage reaches the
    LZ77 decoder."""
    encoded = huffman_encode(np.frombuffer(lz_stream, dtype=np.uint8), 256)
    body = b"".join(bytes(section) for section in huffman_sections(encoded))
    return build("deflate_like", (64, 8), {"lz_size": len(lz_stream)}, body)


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
            (seal(payload[:i] + bytes([payload[i] ^ 0xFF]) + payload[i + 1 :]) for i in range(start, len(payload))),
        )

    def test_lz4_like_truncate(self):
        payload = get_compressor("lz4_like").compress(_lz_rows())
        start = len(payload) - len(parse_payload(payload)[1])
        for cut in range(start, len(payload)):
            with pytest.raises(CorruptPayloadError, match=r"lz4_like: corrupt LZ77 stream at byte \d+"):
                decompress_any(seal(payload[:cut]))

    def test_deflate_like_flip(self):
        raw = _lz_rows().tobytes()
        stream = lz77_encode_bytes(raw)
        assert decompress_any(_deflate_frame(stream)).tobytes() == raw
        _flips_decode_or_raise_typed(
            "deflate_like",
            (
                _deflate_frame(stream[:i] + bytes([stream[i] ^ 0xFF]) + stream[i + 1 :])
                for i in range(0, len(stream), 3)
            ),
        )

    def test_deflate_like_truncate(self):
        raw = _lz_rows().tobytes()
        stream = lz77_encode_bytes(raw)
        for cut in range(1, len(stream), 5):
            with pytest.raises(CorruptPayloadError, match=r"deflate_like: corrupt LZ77 stream at byte \d+"):
                decompress_any(_deflate_frame(stream[:cut]))

    def test_quant_sum_flip(self):
        """A flipped code width (int8 -> int16) halves the codes the body
        holds."""
        payload = get_compressor("quant_sum").compress(_lz_rows(), 1e-2)
        assert split(payload)[1]["code_dtype"] == 0
        with pytest.raises(CorruptPayloadError, match="quant_sum: body holds 512 bytes, but 512 <i2 "):
            decompress_any(reframe(payload, code_dtype=1))

    def test_quant_sum_truncate(self):
        payload = get_compressor("quant_sum").compress(_lz_rows(), 1e-2)
        body = len(split(payload)[2])
        for cut in range(1, body + 1):
            message = f"quant_sum: body holds {body - cut} bytes, but 512 \\|i1 codes end at byte 512"
            with pytest.raises(CorruptPayloadError, match=message):
                decompress_any(seal(payload[:-cut]))


class TestUnregisteredCodecRaisesCorruptPayloadError:
    @pytest.mark.parametrize("name", available_compressors())
    def test_renamed_codec(self, payloads, name):
        """One flipped bit in the frame's codec-name string renames the codec
        (``entropy`` -> ``eltropy``).  ``decompress_any`` once leaked the
        registry's ``KeyError`` for it; it now names the codec it met."""
        _, payload, _ = payloads[name]
        framed_as = parse_payload(payload)[0].codec  # a hybrid frame names its leg
        at = payload.index(framed_as.encode(), 1) + 1
        renamed = bytearray(payload)
        renamed[at] ^= 0x02
        renamed = seal(renamed)
        bogus = parse_payload(renamed)[0].codec
        assert bogus not in available_compressors()
        with pytest.raises(CorruptPayloadError, match=re.escape(repr(bogus))):
            decompress_any(renamed)


def _census_payload(name: str) -> bytes:
    """``name``'s frame of the fuzz census block (54 normal(0, 0.1) rows,
    then the first 10 again; eb 1e-2)."""
    rng = np.random.default_rng(0)
    rows = rng.normal(0.0, 0.1, size=(54, 32)).astype(np.float32)
    codec = get_compressor(name)
    return codec.compress(np.concatenate([rows, rows[:10]]), 1e-2 if codec.error_bounded else None)


class TestFrameDtypeRaisesCorruptPayloadError:
    @pytest.mark.parametrize("name", available_compressors())
    def test_every_flip_of_the_dtype_code(self, name):
        """One flipped bit in a frame's dtype once reached ``np.dtype`` as a
        string and leaked NumPy's ``TypeError`` or ``SyntaxError``.  The
        dtype is now a one-byte code: each flip names float64 (a frame of
        the declared shape) or a code outside the table (the typed error)."""
        payload = _census_payload(name)
        for bit in range(8):
            flipped = bytearray(payload)
            flipped[17] ^= 1 << bit
            try:
                decoded = decompress_any(seal(flipped))
            except CorruptPayloadError:
                continue
            assert decoded.shape == (64, 32) and decoded.dtype == np.float64, bit


class TestBodyLengthRaisesCorruptPayloadError:
    """A body one byte short or long once reached ``np.frombuffer`` /
    ``reshape`` (or ``bitstream``'s reader) and raised NumPy's bare
    ``ValueError``; the body length is now checked against the header's
    shape first, naming the codec and both sizes."""

    @pytest.mark.parametrize("name", ["quant_sum", "fp16", "fp8", "lz4_like"])
    @pytest.mark.parametrize("change", ["truncate", "extend"])
    def test_one_byte_off(self, name, change):
        payload = _census_payload(name)
        mangled = seal(payload[:-1] if change == "truncate" else payload + b"\0")
        with pytest.raises(CorruptPayloadError, match=rf"^{name}: "):
            decompress_any(mangled)

    @pytest.mark.parametrize("name", ["lz4_like", "deflate_like"])
    @pytest.mark.parametrize("change", [-1, 1])
    def test_lz_stream_of_the_wrong_size(self, name, change):
        """A well-formed LZ77 stream whose bytes do not fill the shape."""
        raw = _lz_rows().tobytes()
        raw = raw[:change] if change < 0 else raw + b"\0"
        stream = lz77_encode_bytes(raw)
        if name == "deflate_like":
            frame = _deflate_frame(stream)
        else:
            frame = build(name, (64, 8), {}, stream)
        with pytest.raises(CorruptPayloadError, match=f"{name}: corrupt LZ77 stream at byte .*: decoded {len(raw)} bytes, expected 2048"):
            decompress_any(frame)


class TestSectionsRaiseCorruptPayloadError:
    """A count that disagrees with the frame shape (or with the bytes
    present), and a Huffman code longer than an encoder writes, once reached
    NumPy's ``reshape`` / ``zeros`` and raised its bare ``ValueError``; the
    sizes a decoder allocates from now follow from the shape and its tail,
    and each is checked against the body before anything is allocated,
    naming the codec and both sizes."""

    @pytest.mark.parametrize(
        "name,change,match",
        [
            ("entropy", {"n_lengths": 10**6}, r"^entropy: body holds .* its 1000000 code lengths and 1 chunk"),
            ("cusz_like", {"body": b"\0" * 8}, r"^cusz_like: body holds 8 bytes, its .* code lengths and 1 chunk"),
            ("fzgpu_like", {"body": b"\0"}, r"^fzgpu_like: body holds 1 bytes, the block bitmap of 2048 values needs 2"),
            ("deflate_like", {"lz_size": 2**64 - 1}, r"^deflate_like: body holds .* chunk offsets need"),
        ],
        ids=["entropy-lengths", "cusz-tables", "fzgpu-bitmap", "deflate-lz-size"],
    )
    def test_a_table_past_the_body(self, name, change, match):
        with pytest.raises(CorruptPayloadError, match=match):
            decompress_any(reframe(_census_payload(name), **change))

    def test_plane_bytes_past_the_body(self):
        payload = _census_payload("fzgpu_like")
        with pytest.raises(CorruptPayloadError, match=r"^fzgpu_like: .* plane bytes cannot hold"):
            decompress_any(seal(payload[:-1]))

    @pytest.mark.parametrize("name", ["entropy", "cusz_like"])
    @pytest.mark.parametrize("length", [16, 58])
    def test_a_code_longer_than_an_encoder_writes(self, name, length):
        """A flipped bit in the code-length table once asked for a
        ``2**41``-entry peek table (16 TiB); no encoder writes a code longer
        than 15 bits."""
        payload = _census_payload(name)
        _, tail, body = split(payload)
        lengths = bytearray(body[: tail["n_lengths"]])
        lengths[int(np.argmax(lengths))] = length
        hostile = reframe(payload, body=bytes(lengths) + body[tail["n_lengths"] :])
        with pytest.raises(CorruptPayloadError, match=f"a {length}-bit code is longer than the 15-bit"):
            decompress_any(hostile)


def _quant_sum_frame(
    code: int, itemsize: int, shape: tuple[int, int] = (4, 8), cmax: int = 0, codes: int = 32
) -> bytes:
    """A ``quant_sum`` frame of a float32 block of ``shape`` whose tail
    declares code dtype ``code`` and code bound ``cmax`` over a body of
    ``codes`` zero ``itemsize``-byte codes (32 by default: the (4, 8)
    block's)."""
    fields = {"scale": 0.02, "terms": 1, "code_dtype": code, "cmax": cmax}
    return build("quant_sum", shape, fields, bytes(codes * itemsize))


def _agg_beside_a_clean_leaf(hostile: bytes) -> np.ndarray:
    """``hostile`` aggregated with a clean (4, 8) leaf, then decoded."""
    return decompress_any(agg_sum(_quant_sum_frame(0, 1), hostile))


#: code dtype codes outside the table of int8, int16, int32, int64
HOSTILE_CODES = [4, 255]

#: declared shapes -> the one-byte codes their body holds: 10**18 elements
#: over 32 bytes, and about 2**64 elements over an empty body
HUGE_SHAPES = {"10**9 x 10**9": ((10**9, 10**9), 32), "2**32-1 x 2**32-1": ((2**32 - 1, 2**32 - 1), 0)}

#: a (2, 2) float64 frame of int64 codes 2**62 whose tail claims ``cmax = 0``
LYING_CMAX = build(
    "quant_sum",
    (2, 2),
    {"scale": 1.0, "terms": 1, "code_dtype": 3, "cmax": 0},
    np.full((2, 2), 2**62, dtype="<i8").tobytes(),
    dtype_code=1,
)

#: hostile ``quant_sum`` tails -> what the decode must raise, before the
#: body is read as codes
HOSTILE_HEADERS = {
    **{
        f"code_dtype={code}": (
            lambda code=code: decompress_any(_quant_sum_frame(code, 1)),
            rf"quant_sum: code dtype code {code} is not one of 0..3",
        )
        for code in HOSTILE_CODES
    },
    **{
        f"shape={label}": (
            lambda shape=shape, codes=codes: decompress_any(_quant_sum_frame(0, 1, shape, codes=codes)),
            rf"quant_sum: body holds {codes} bytes, but {math.prod(shape)} \|i1 codes end",
        )
        for label, (shape, codes) in HUGE_SHAPES.items()
    },
    **{
        f"agg_sum shape={label}": (
            lambda shape=shape, codes=codes: agg_sum(
                _quant_sum_frame(0, 1, shape, codes=codes),
                _quant_sum_frame(0, 1, shape, codes=codes),
            ),
            rf"quant_sum: body holds {codes} bytes, but {math.prod(shape)} \|i1 codes end",
        )
        for label, (shape, codes) in HUGE_SHAPES.items()
    },
    "agg_sum code_dtype=255": (
        lambda: _agg_beside_a_clean_leaf(_quant_sum_frame(255, 8)),
        r"quant_sum: code dtype code 255 is not one of 0..3",
    ),
    "agg_sum cmax=2**62": (
        lambda: _agg_beside_a_clean_leaf(_quant_sum_frame(0, 1, cmax=2**62)),
        r"quant_sum: cmax 4611686018427387904 is not below 2\*\*62",
    ),
    "agg_sum codes past cmax": (
        lambda: agg_sum(LYING_CMAX, LYING_CMAX),
        r"quant_sum: a code of magnitude 4611686018427387904 exceeds cmax 0",
    ),
}

#: address-space cap and per-decode alarm of the hostile-header decodes
HOSTILE_ADDRESS_SPACE = 2 << 30
HOSTILE_SECONDS = 0.5


def hostile_outcomes() -> dict[str, str]:
    """Decode every :data:`HOSTILE_HEADERS` input in this process under
    ``RLIMIT_AS`` and an alarm: ``{case: outcome}``, the outcome being the
    raised exception's type and message, ``"decoded"`` or ``"hang"``."""
    import resource
    import signal

    def on_alarm(signum, frame):
        raise TimeoutError

    resource.setrlimit(resource.RLIMIT_AS, (HOSTILE_ADDRESS_SPACE, HOSTILE_ADDRESS_SPACE))
    signal.signal(signal.SIGALRM, on_alarm)
    outcomes = {}
    for case, (decode, _) in HOSTILE_HEADERS.items():
        signal.setitimer(signal.ITIMER_REAL, HOSTILE_SECONDS)
        try:
            decode()
            outcomes[case] = "decoded"
        except TimeoutError:
            outcomes[case] = "hang"
        except Exception as exc:  # the outcome under test, whatever it is
            outcomes[case] = f"{type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    return outcomes


class TestHostileHomomorphicHeaders:
    """A ``quant_sum`` frame whose code dtype, shape or code bound no
    encoder writes is rejected before the body is read as codes, on decode
    and on :func:`agg_sum` alike (a shape of 2**64 elements once wrapped an
    int64 count to 0, so its empty body passed the length check and the
    decode raised an untyped ``ValueError``; codes past their ``cmax`` once
    aggregated into an int64 sum that wrapped to zeros); each case runs in
    a subprocess under ``RLIMIT_AS`` and a :data:`HOSTILE_SECONDS` alarm."""

    @pytest.fixture(scope="class")
    def hostile(self) -> dict[str, str]:
        import repro

        root = Path(__file__).resolve().parents[2]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(Path(repro.__file__).parents[1]), str(root)]))
        done = subprocess.run(
            [sys.executable, __file__], capture_output=True, text=True, env=env, timeout=120
        )
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout)

    @pytest.mark.parametrize("case", HOSTILE_HEADERS)
    def test_a_hostile_header_is_rejected_before_it_is_used(self, hostile, case):
        assert re.match(f"CorruptPayloadError: {HOSTILE_HEADERS[case][1]}", hostile[case]), hostile[case]


class TestHostileVectorLZSections:
    """A vector-LZ tail the body cannot back is rejected before anything
    unpacks, so a lying tail allocates nothing."""

    @pytest.fixture()
    def payload(self):
        rng = np.random.default_rng(11)
        table = rng.normal(0.0, 0.1, size=(4, 6))[rng.integers(0, 4, size=24)].astype(np.float32)
        return get_compressor("vector_lz").compress(table, 0.01)

    def test_short_sections_are_too_short(self, payload):
        for hostile in (reframe(payload, offset_width=40), reframe(payload, literal_width=57)):
            with pytest.raises(CorruptPayloadError, match="stream too short"):
                decompress_any(hostile)
        for field in ("offset_width", "literal_width"):
            with pytest.raises(CorruptPayloadError, match=rf"{field[:-6]} width 58 is not in \[1, 57\]"):
                decompress_any(reframe(payload, **{field: 58}))

    def test_section_lengths_are_checked_against_the_body(self, payload):
        with pytest.raises(CorruptPayloadError, match="flag section needs 3 bytes, has 1$"):
            decompress_any(reframe(payload, body=b"\0"))
        with pytest.raises(CorruptPayloadError, match="declares 25 matches in 24 rows"):
            decompress_any(reframe(payload, n_matches=25))

    def test_a_declared_shape_the_bytes_cannot_hold_allocates_nothing(self, payload):
        for shape in ((2**32 - 1, 6), (24, 2**32 - 1)):
            with pytest.raises(CorruptPayloadError, match="stream too short"):
                decompress_any(reframe(payload, shape=shape))

    @pytest.mark.parametrize("field, value", [("eb", math.nan), ("offset_width", 0), ("n_matches", 2**32 - 1)])
    def test_tail_fields_are_checked_on_every_decode_path(self, field, value):
        """One slice of a stack re-framed with a tail field out of its
        range is rejected alike by the stacked decode (beside a good slice
        and alone) and by ``decompress_any``."""
        rng = np.random.default_rng(12)
        stack = rng.normal(0.0, 0.1, size=(2, 4, 6))[:, rng.integers(0, 4, size=24)].astype(np.float32)
        codec = get_compressor("vector_lz")
        bad, good = codec.compress_stack(stack, 0.01)
        bad = reframe(bad, **{field: value})
        for decode in (
            lambda: codec.decompress_stack([bad, good]),
            lambda: codec.decompress_stack([bad]),
            lambda: decompress_any(bad),
        ):
            with pytest.raises(CorruptPayloadError):
                decode()


#: rows of six values for the hostile-Huffman payload: one row more than a
#: chunk of symbols fills, so the payload has two chunks
HUFFMAN_ROWS = DEFAULT_CHUNK_SYMBOLS // 6 + 1


class TestHostileHuffman:
    @pytest.fixture()
    def payload(self):
        table = np.random.default_rng(5).normal(0.0, 0.05, size=(HUFFMAN_ROWS, 6))
        table = table.astype(np.float32)
        payload = get_compressor("entropy").compress(table, 0.01)
        assert _tables(payload) == split(payload)[1]["n_lengths"] + 2 * 8
        return payload

    def test_a_kraft_gap_is_an_unassigned_code(self):
        """Lengths (1, 2) leave the prefix ``11`` without a code: the first
        peek of an all-ones body steps by zero."""
        fields = {"eb": 1e-2, "code_min": 0, "n_lengths": 2}
        gap = build("entropy", (4, 2), fields, bytes([1, 2]) + bytes(8) + b"\xff" * 4)
        with pytest.raises(CorruptPayloadError, match="peek hit an unassigned code at bit 0"):
            decompress_any(gap)

    def test_a_chain_that_runs_off_the_bits_is_an_unassigned_code(self, payload):
        """Both chunks start at bit 0 of half the bits: the second chunk's
        symbols run off the end."""
        _, tail, body = split(payload)
        tables = _tables(payload)
        bits = body[tables:]
        half = body[: tail["n_lengths"]] + bytes(16) + bits[: len(bits) // 2]
        with pytest.raises(CorruptPayloadError, match="peek hit an unassigned code"):
            decompress_any(reframe(payload, body=half))

    def test_chunk_table_is_checked_against_the_body(self, payload):
        _, tail, body = split(payload)
        tables = _tables(payload)
        offsets = np.frombuffer(body[tail["n_lengths"] : tables], "<u8").copy()
        offsets[1] = (len(body) - tables) * 8 + 1
        moved = body[: tail["n_lengths"]] + offsets.tobytes() + body[tables:]
        with pytest.raises(CorruptPayloadError, match="chunk offset outside payload"):
            decompress_any(reframe(payload, body=moved))
        with pytest.raises(CorruptPayloadError, match="2 chunk offsets need"):
            decompress_any(reframe(payload, body=body[: tables - 1]))

    def test_a_lying_shape_allocates_nothing(self, payload):
        with pytest.raises(CorruptPayloadError, match="chunk offsets need"):
            decompress_any(reframe(payload, shape=(2**32 - 1, 6)))


#: every registered codec that takes an error bound
ERROR_BOUNDED = [name for name in available_compressors() if get_compressor(name).error_bounded]
BAD_BOUNDS = [np.inf, np.nan, -0.01, 0.0]


def _unit_normal_batch() -> np.ndarray:
    return np.random.default_rng(7).normal(size=(8, 4)).astype(np.float32)


class TestErrorBoundsAreFiniteAndPositive:
    """An infinite bound once encoded (every value to bin 0, decoded as
    NaN), and a frame whose bound header says inf, NaN, a negative or zero
    decoded without error to inf, NaN or values up to 4.6 off.  Both sides
    now require a bound that is finite and > 0."""

    @pytest.mark.parametrize("bound", BAD_BOUNDS)
    @pytest.mark.parametrize("name", ERROR_BOUNDED)
    def test_encoder_rejects_the_bound(self, name, bound):
        with pytest.raises(ValueError, match=rf"^{name}: requires a finite, positive error_bound"):
            get_compressor(name).compress(_unit_normal_batch(), bound)

    @pytest.mark.parametrize("bound", BAD_BOUNDS)
    @pytest.mark.parametrize("name", ERROR_BOUNDED)
    def test_decoder_rejects_the_header_bound(self, name, bound):
        payload = get_compressor(name).compress(_unit_normal_batch(), 1e-2)
        field = "scale" if name == "quant_sum" else "eb"
        with pytest.raises(CorruptPayloadError, match="is not finite and > 0"):
            decompress_any(reframe(payload, **{field: bound}))


class TestAggSumOperandsAreFrames:
    """A ``quant_sum`` leaf re-framed with ``terms = -5`` once aggregated
    into a payload claiming ``terms = -4`` (a negative composed bound), and
    an operand with a 3-D header shape aggregated although
    ``decompress_any`` rejects that frame.  Each operand's leaf count, code
    dtype and code bound are now read as a frame's; a mismatch between two
    well-formed operands stays the caller's misuse."""

    CORRUPT = {
        "terms-max": {"terms": 2**32 - 1},
        "terms-zero": {"terms": 0},
        "terms-past-max": {"terms": MAX_TERMS + 1},
        "code-dtype-past-table": {"code_dtype": 4},
        "cmax-below-codes": {"cmax": 0},
    }

    @pytest.mark.parametrize("change", sorted(CORRUPT))
    def test_a_corrupt_operand_raises_corrupt_payload_error(self, change):
        leaf = get_compressor("quant_sum").compress(_unit_normal_batch(), 1e-2)
        bad = reframe(leaf, **self.CORRUPT[change])
        for pair in ((leaf, bad), (bad, leaf)):
            with pytest.raises(CorruptPayloadError, match=r"^quant_sum: "):
                agg_sum(*pair)

    def test_well_formed_operands_that_do_not_add_up_are_misuse(self):
        codec = get_compressor("quant_sum")
        leaf = codec.compress(_unit_normal_batch(), 1e-2)
        wide = codec.compress(np.zeros((8, 5), np.float32), 1e-2)
        heavy = reframe(leaf, terms=MAX_TERMS // 2 + 1)
        for pair, match in (((leaf, wide), "shapes differ"), ((heavy, heavy), "exceeds MAX_TERMS")):
            with pytest.raises(ValueError, match=match) as raised:
                agg_sum(*pair)
            assert type(raised.value) is ValueError


if __name__ == "__main__":
    print(json.dumps(hostile_outcomes()))
