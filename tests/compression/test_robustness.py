"""Failure-injection tests: corrupt and truncated payloads.

A compressor used inside a training loop must fail loudly on mangled
input — silently decoding garbage would corrupt the model.  These tests
verify that every codec raises a Python-level exception (never hangs,
never returns a wrong-shaped array) for a family of corruptions.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.compression import agg_sum, available_compressors, decompress_any, get_compressor
from repro.compression.base import MAGIC, frame_payload, parse_payload
from repro.compression.baselines.lz_generic import lz77_encode_bytes
from repro.compression.huffman import DEFAULT_CHUNK_SYMBOLS, huffman_encode
from repro.compression.serialization import CorruptPayloadError
from tests.conftest import make_hot_batch


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
            try:
                result = codec.decompress(bytes(mangled))
            except Exception:
                continue
            assert result.shape == batch.shape

    @pytest.mark.parametrize("name", ["vector_lz", "entropy"])
    def test_body_corruption_decodes_or_raises_typed(self, payloads, name):
        """Seeded sweep of body bit flips and overwritten bytes over the
        paper's two codecs: the header parses, so every outcome is the
        decoder's own — the declared shape or ``CorruptPayloadError``."""
        _, payload, batch = payloads[name]
        body_start = len(payload) - len(parse_payload(payload)[1])
        rng = np.random.default_rng(7)
        for trial in range(150):
            mangled = bytearray(payload)
            for _ in range(int(rng.integers(1, 4))):
                at = int(rng.integers(body_start, len(payload)))
                flipped = mangled[at] ^ (1 << int(rng.integers(8)))
                mangled[at] = int(rng.integers(256)) if trial % 2 else flipped
            try:
                decoded = decompress_any(bytes(mangled))
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
        header, _ = parse_payload(payload)
        assert np.count_nonzero(header["code_lengths"]) >= 2
        meta = {k: v for k, v in header.items() if k not in ("codec", "dtype", "shape")}
        short = frame_payload("entropy", (64, 32), np.dtype(header["dtype"]), meta, body)
        with pytest.raises(CorruptPayloadError, match="body bits"):
            decompress_any(short)

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
        with pytest.raises(CorruptPayloadError):
            decompress_any(bytes(payload))


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


#: corruptions of the well-formed frame
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

    @pytest.mark.parametrize("case", sorted(CRAFTED_VECTOR_LZ))
    def test_corrupt_stream_raises_the_typed_error(self, case):
        frame = _vector_lz_frame(**CRAFTED_VECTOR_LZ[case])
        with pytest.raises(CorruptPayloadError, match="corrupt vector-LZ stream"):
            decompress_any(frame)

    def test_code_min_outside_int64_rejected(self):
        """A ``code_min`` past int64 once leaked NumPy's ``OverflowError``
        from the dequantize."""
        with pytest.raises(CorruptPayloadError, match="code_min .* is not an int64"):
            decompress_any(_vector_lz_frame(code_min=1 << 63))


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
        short = payload[:-cut]
        header, body = parse_payload(payload)
        present = len(body) - header["flags_len"] - header["offsets_len"] - cut
        message = f"vector_lz literal section needs {present + cut} bytes, has {present}$"
        with pytest.raises(CorruptPayloadError, match=message):
            if path == "full":
                decompress_any(short)
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
        stream = lz77_encode_bytes(raw)
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
        stream = lz77_encode_bytes(raw)
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
        with pytest.raises(CorruptPayloadError, match=re.escape(repr(bogus))):
            decompress_any(bytes(renamed))


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
                try:
                    decoded = decompress_any(bytes(flipped))
                except CorruptPayloadError:
                    continue
                assert decoded.shape == (64, 32), (byte, bit)


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
        stream = lz77_encode_bytes(raw)
        if name == "deflate_like":
            frame = _deflate_frame(stream, len(raw))
        else:
            meta = {"raw_size": len(raw), "window": 4096}
            frame = frame_payload(name, (64, 8), np.dtype(np.float32), meta, stream)
        with pytest.raises(CorruptPayloadError, match=f"{name}: body holds {len(raw)} bytes, expected 2048"):
            decompress_any(frame)


def _recount(name: str, body_cut: int = 0, **fields) -> bytes:
    """``name``'s census frame with header ``fields`` replaced and the last
    ``body_cut`` body bytes dropped."""
    header, body = parse_payload(_census_payload(name))
    meta = {k: v for k, v in header.items() if k not in ("codec", "dtype", "shape")}
    meta.update(fields)
    body = bytes(body)[: len(body) - body_cut]
    return frame_payload(name, (64, 32), np.dtype(header["dtype"]), meta, body)


class TestCountsAndWidthsRaiseCorruptPayloadError:
    """A header count that disagrees with the frame shape (or with the
    bytes present), and a Huffman code wider than the peek window, once
    reached NumPy's ``reshape`` / ``zeros`` and raised its bare
    ``ValueError``; each is now checked before anything is allocated from
    it, naming the codec and both sizes."""

    @pytest.mark.parametrize(
        "name,change,match",
        [
            (
                "entropy",
                {"chunk_symbol_counts": np.array([2047])},
                "chunks hold 2047 symbols, the header declares 2048",
            ),
            (
                "cusz_like",
                {"total_symbols": 2047},
                r"^cusz_like: 2047 values cannot fill shape \(64, 32\) of 2048",
            ),
            ("fzgpu_like", {"n_values": 2049}, r"^fzgpu_like: 2049 values cannot fill shape"),
            (
                "fzgpu_like",
                {"n_blocks_per_plane": 10**6},
                r"^fzgpu_like: 1000000 blocks of .* do not fit 256 packed bytes",
            ),
            ("fzgpu_like", {"body_cut": 1}, r"^fzgpu_like: .* plane bytes cannot hold"),
            ("zfp_like", {"n_blocks": 513}, r"^zfp_like: 2052 values cannot fill shape"),
            ("zfp_like", {"pad": 4}, r"^zfp_like: pad 4 is outside \[0, 4\)"),
        ],
        ids=[
            "entropy-chunk-counts",
            "cusz-total-symbols",
            "fzgpu-n-values",
            "fzgpu-blocks-per-plane",
            "fzgpu-plane-bytes",
            "zfp-n-blocks",
            "zfp-pad",
        ],
    )
    def test_header_count(self, name, change, match):
        with pytest.raises(CorruptPayloadError, match=match):
            decompress_any(_recount(name, **change))

    @pytest.mark.parametrize("name", ["entropy", "cusz_like"])
    def test_code_wider_than_the_peek_window(self, name):
        header, _ = parse_payload(_census_payload(name))
        lengths = header["code_lengths"].copy()
        lengths[np.argmax(lengths)] = 58
        with pytest.raises(CorruptPayloadError, match="58-bit code is wider than the 57-bit"):
            decompress_any(_recount(name, code_lengths=lengths))


def _count_sum_frame(sexp: int, wlen: int, w0: int = 0, dtype=np.float32) -> bytes:
    """A well-formed ``count_sum`` frame of one (4, 8) block whose header
    declares grid exponent ``sexp`` over limbs ``[w0, w0 + wlen)`` of 2**30."""
    limbs = np.full((wlen, 32), 1 << 30, dtype=np.int64)
    meta = {"terms": 1, "w0": w0, "wlen": wlen, "sexp": sexp, "lmax": 1 << 30}
    return frame_payload("count_sum", (4, 8), np.dtype(dtype), meta, limbs.tobytes())


def _quant_sum_frame(cdtype: str, itemsize: int) -> bytes:
    """A ``quant_sum`` frame of one (4, 8) float32 block whose header
    declares code dtype ``cdtype`` over a body of ``itemsize``-byte codes."""
    meta = {"scale": 0.02, "terms": 1, "cdtype": cdtype, "cmax": 0}
    return frame_payload("quant_sum", (4, 8), np.dtype(np.float32), meta, bytes(32 * itemsize))


#: hostile homomorphic headers -> what the decode must raise, before any
#: shift or allocation the header sizes
HOSTILE_HEADERS = {
    "w0=10**9": (
        lambda: decompress_any(_count_sum_frame(-149, 1, w0=10**9)),
        r"count_sum: limb window \[1000000000, 1000000001\) is outside \[0, 10\)",
    ),
    "w0=10**8": (
        lambda: decompress_any(_count_sum_frame(-149, 1, w0=10**8)),
        r"count_sum: limb window \[100000000, 100000001\) is outside",
    ),
    "w0=-10**8": (
        lambda: decompress_any(_count_sum_frame(-149, 1, w0=-(10**8))),
        r"count_sum: limb window \[-100000000, -99999999\) is outside",
    ),
    "sexp=-10**9": (
        lambda: decompress_any(_count_sum_frame(-(10**9), 1)),
        r"count_sum: grid exponent -1000000000 is not the <f4 grid -149",
    ),
    "sexp=2000": (
        lambda: decompress_any(_count_sum_frame(2000, 1)),
        r"count_sum: grid exponent 2000 is not the <f4 grid -149",
    ),
    "wlen=40": (
        lambda: decompress_any(_count_sum_frame(-149, 40)),
        r"count_sum: limb window \[0, 40\) is outside \[0, 10\)",
    ),
    "agg_sum w0 10**9 apart": (
        lambda: agg_sum(_count_sum_frame(-149, 1), _count_sum_frame(-149, 1, w0=10**9)),
        r"count_sum: limb window \[1000000000, 1000000001\) is outside",
    ),
    "cdtype=not-a-dtype": (
        lambda: decompress_any(_quant_sum_frame("not-a-dtype", 1)),
        r"quant_sum: code dtype 'not-a-dtype' is not a signed integer",
    ),
    "cdtype=<f2": (
        lambda: decompress_any(_quant_sum_frame("<f2", 2)),
        r"quant_sum: code dtype '<f2' is not a signed integer",
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


class TestCountSumOverflowRaisesCorruptPayloadError:
    """A genuine aggregate of at most ``MAX_TERMS`` float32 leaves stays far
    inside the float64 range, so a sum that overflows it on the exact
    decode path comes from a corrupt header.  Both exact branches once let
    the overflow out untyped: ``float(m * mul)`` as a bare
    ``OverflowError``, ``m / den`` as a bare ``ValueError``.  A header whose
    grid exponent or limb window no encoder writes is rejected before any
    shift or allocation it sizes; each such case runs in a subprocess under
    ``RLIMIT_AS`` and a :data:`HOSTILE_SECONDS` alarm."""

    def test_the_widest_float64_window_overflows(self):
        with pytest.raises(CorruptPayloadError, match=r"^count_sum: aggregated sum overflows"):
            decompress_any(_count_sum_frame(-1074, 66, dtype=np.float64))

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


def _reframe(payload: bytes, **overrides) -> bytes:
    """Rebuild a frame with header fields, the shape and/or the body replaced."""
    header, body = parse_payload(payload)
    body = overrides.pop("body", bytes(body))
    shape = overrides.pop("shape", tuple(header["shape"]))
    meta = {k: v for k, v in header.items() if k not in ("codec", "dtype", "shape")}
    meta.update(overrides)
    return frame_payload(header["codec"], shape, np.dtype(header["dtype"]), meta, body)


class TestHostileVectorLZSections:
    """A vector-LZ header the body cannot back is rejected before anything
    unpacks, so a lying header allocates nothing."""

    @pytest.fixture()
    def payload(self):
        rng = np.random.default_rng(11)
        table = rng.normal(0.0, 0.1, size=(4, 6))[rng.integers(0, 4, size=24)].astype(np.float32)
        return get_compressor("vector_lz").compress(table, 0.01)

    def test_short_sections_are_too_short(self, payload):
        header, _ = parse_payload(payload)
        for hostile in (
            _reframe(payload, offsets_len=header["offsets_len"] - 1),
            _reframe(payload, offset_width=40),
        ):
            with pytest.raises(CorruptPayloadError, match="stream too short"):
                decompress_any(hostile)
        with pytest.raises(CorruptPayloadError, match=r"literal width 58 is not in \[1, 57\]"):
            decompress_any(_reframe(payload, literal_width=58))

    def test_section_lengths_are_checked_against_the_body(self, payload):
        _, body = parse_payload(payload)
        for overrides in ({"flags_len": len(body) + 1}, {"offsets_len": len(body)}, {"flags_len": -1}):
            with pytest.raises(CorruptPayloadError, match="flag and offset bytes"):
                decompress_any(_reframe(payload, **overrides))

    def test_a_declared_shape_the_bytes_cannot_hold_allocates_nothing(self, payload):
        with pytest.raises(CorruptPayloadError, match="stream too short"):
            decompress_any(_reframe(payload, shape=(1 << 40, 6)))


#: rows of six values for the hostile-Huffman payload: one row more than a
#: chunk of symbols fills, so the payload has two chunks
HUFFMAN_ROWS = DEFAULT_CHUNK_SYMBOLS // 6 + 1


class TestHostileHuffman:
    @pytest.fixture()
    def payload(self):
        table = np.random.default_rng(5).normal(0.0, 0.05, size=(HUFFMAN_ROWS, 6))
        table = table.astype(np.float32)
        payload = get_compressor("entropy").compress(table, 0.01)
        assert len(parse_payload(payload)[0]["chunk_bit_offsets"]) == 2
        return payload

    def test_a_kraft_gap_is_an_unassigned_code(self):
        """Lengths (1, 2) leave the prefix ``11`` without a code: the first
        peek of an all-ones body steps by zero."""
        meta = {
            "eb": 1e-2,
            "code_min": 0,
            "code_lengths": np.array([1, 2], dtype=np.uint8),
            "chunk_bit_offsets": np.zeros(1, dtype=np.uint64),
            "chunk_symbol_counts": np.array([8], dtype=np.int64),
            "total_symbols": 8,
        }
        gap = frame_payload("entropy", (4, 2), np.dtype(np.float32), meta, b"\xff" * 4)
        with pytest.raises(CorruptPayloadError, match="peek hit an unassigned code at bit 0"):
            decompress_any(gap)

    def test_a_chain_that_runs_off_the_bits_is_an_unassigned_code(self, payload):
        header, body = parse_payload(payload)
        half = _reframe(  # one chunk claiming every symbol, over half the bits
            payload,
            body=bytes(body[: len(body) // 2]),
            chunk_bit_offsets=header["chunk_bit_offsets"][:1],
            chunk_symbol_counts=np.array([HUFFMAN_ROWS * 6]),
        )
        with pytest.raises(CorruptPayloadError, match="peek hit an unassigned code"):
            decompress_any(half)

    def test_chunk_table_is_checked_against_the_body(self, payload):
        header, body = parse_payload(payload)
        offsets = header["chunk_bit_offsets"].copy()
        offsets[1] = len(body) * 8 + 1
        with pytest.raises(CorruptPayloadError, match="chunk offset outside payload"):
            decompress_any(_reframe(payload, chunk_bit_offsets=offsets))
        with pytest.raises(CorruptPayloadError, match="no chunks"):
            decompress_any(_reframe(payload, chunk_bit_offsets=np.zeros(0, np.uint64)))

    def test_a_lying_header_allocates_nothing(self, payload):
        with pytest.raises(CorruptPayloadError, match="cannot fill shape"):
            decompress_any(_reframe(payload, shape=(1 << 40, 6)))
        with pytest.raises(CorruptPayloadError, match="code_min .* is not an int64"):
            decompress_any(_reframe(payload, code_min=-(1 << 64)))


if __name__ == "__main__":
    print(json.dumps(hostile_outcomes()))
