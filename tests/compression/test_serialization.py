"""Tests for the fixed frame prelude and the CRC32 it carries."""

from __future__ import annotations

import zlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.compression import EntropyCompressor, available_compressors, decompress_any, get_compressor
from repro.compression.base import MAGIC, frame_parts, frame_payload, parse_payload
from repro.compression.serialization import (
    FRAME_DTYPES,
    PRELUDE,
    CorruptPayloadError,
    Prelude,
    frame_with_checksum,
    pack_meta,
    unpack_meta,
    verify_checksum_frame,
)
from tests.compression.frames import CRC_AT, seal

names = st.text(alphabet=st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=16)
dimensions = st.integers(min_value=0, max_value=2**32 - 1)


class TestPrelude:
    @given(names, st.sampled_from(FRAME_DTYPES), dimensions, dimensions)
    def test_roundtrip_property(self, codec, dtype, rows, cols):
        packed = pack_meta(codec, dtype, (rows, cols))
        assert len(packed) == PRELUDE.size == 30
        prelude, end = unpack_meta(seal(packed))
        assert prelude == Prelude(codec, dtype, (rows, cols))
        assert end == PRELUDE.size

    def test_the_layout_is_fixed_little_endian(self):
        packed = pack_meta("vector_lz", np.dtype(np.float64), (0x01020304, 7))
        assert packed[0] == MAGIC
        assert packed[1:17] == b"vector_lz".ljust(16, b"\0")
        assert packed[17] == 1
        assert packed[18:22] == bytes([4, 3, 2, 1])
        assert packed[22:26] == bytes([7, 0, 0, 0])
        assert packed[26:30] == bytes(4)  # the CRC32, filled by the framer
        framed = b"".join(frame_parts("vector_lz", (0x01020304, 7), np.dtype(np.float64), b"", b""))
        assert framed[:26] == packed[:26]
        assert int.from_bytes(framed[26:30], "little") == zlib.crc32(framed[:26])

    def test_a_prelude_is_read_at_the_front_of_a_longer_buffer(self):
        packed = seal(pack_meta("fp16", np.dtype(np.float32), (3, 4)) + b"body")
        prelude, end = unpack_meta(packed)
        assert prelude == Prelude("fp16", np.dtype(np.float32), (3, 4))
        assert packed[end:] == b"body"

    def test_every_truncation_raises_corrupt_payload_error(self):
        packed = pack_meta("entropy", np.dtype(np.float32), (64, 32))
        with pytest.raises(CorruptPayloadError, match="empty payload"):
            unpack_meta(packed[:0])
        for cut in range(1, PRELUDE.size):
            with pytest.raises(CorruptPayloadError, match=f"truncated frame: {cut} bytes, the prelude needs 30"):
                unpack_meta(packed[:cut])

    @pytest.mark.parametrize("code", [2, 3, 255])
    def test_a_dtype_code_outside_the_table_is_corrupt(self, code):
        packed = bytearray(pack_meta("entropy", np.dtype(np.float32), (64, 32)))
        packed[17] = code
        with pytest.raises(CorruptPayloadError, match=f"dtype code {code} at byte 17 is not float32"):
            unpack_meta(seal(packed))

    def test_any_name_bytes_parse_to_a_name(self):
        """The name field holds 16 raw bytes: each parses (NUL padding
        stripped), and one no codec registers is the registry's to reject."""
        packed = bytearray(pack_meta("entropy", np.dtype(np.float32), (1, 1)))
        packed[1:17] = bytes(range(0xF0, 0x100))
        prelude, _ = unpack_meta(seal(packed))
        assert prelude.codec == bytes(range(0xF0, 0x100)).decode("latin-1")
        with pytest.raises(CorruptPayloadError, match="is not registered"):
            decompress_any(seal(packed))

    def test_a_name_or_batch_the_layout_cannot_hold_is_refused(self):
        with pytest.raises(ValueError, match="longer than 16 bytes"):
            pack_meta("x" * 17, np.dtype(np.float32), (1, 1))
        with pytest.raises(ValueError, match="does not fit a frame"):
            pack_meta("fp16", np.dtype(np.float32), (2**32, 0))
        with pytest.raises(ValueError, match="does not fit a frame"):
            pack_meta("fp16", np.dtype(np.float16), (1, 1))


def _entropy_payload(seed: int = 3) -> bytes:
    rows = np.random.default_rng(seed).normal(0.0, 0.1, size=(64, 16)).astype(np.float32)
    return EntropyCompressor().compress(rows, 1e-2)


class TestParsePayload:
    """``parse_payload`` parses afresh on every call."""

    def test_a_bytes_frame_parses_to_its_prelude_and_a_view_of_its_body(self):
        payload = _entropy_payload()
        prelude, body = parse_payload(payload)
        assert prelude == unpack_meta(payload)[0] == Prelude("entropy", np.dtype(np.float32), (64, 16))
        assert bytes(body) == payload[PRELUDE.size :]
        assert body.obj is payload

    def test_a_returned_prelude_cannot_be_changed(self):
        prelude, _ = parse_payload(_entropy_payload())
        with pytest.raises(AttributeError):
            prelude.codec = "fp16"

    def test_a_corrupt_frame_raises_on_every_call(self):
        payload = _entropy_payload()
        truncated = payload[:12]
        bad_magic = bytes([MAGIC ^ 0xFF]) + payload[1:]
        for _ in range(3):
            with pytest.raises(CorruptPayloadError, match="truncated frame: 12 bytes"):
                parse_payload(truncated)
            with pytest.raises(ValueError, match="magic"):
                parse_payload(bad_magic)

    @pytest.mark.parametrize("wrap", [bytearray, memoryview])
    def test_other_buffers_parse_as_before(self, wrap):
        payload = _entropy_payload()
        prelude, body = parse_payload(wrap(payload))
        assert prelude == parse_payload(payload)[0]
        assert bytes(body) == payload[PRELUDE.size :]
        np.testing.assert_array_equal(decompress_any(wrap(payload)), decompress_any(payload))

    def test_a_bytearray_rewritten_in_place_parses_its_new_content(self):
        first = _entropy_payload(3)
        second = EntropyCompressor().compress(np.zeros((5, 2), np.float64), 1e-2)
        buffer = bytearray(first)
        parse_payload(buffer)
        buffer[:] = second
        assert parse_payload(buffer)[0] == Prelude("entropy", np.dtype(np.float64), (5, 2))


class TestFrameChecksum:
    """Every frame carries a CRC32 of all its bytes but the CRC field:
    ``frame_parts`` fills it and ``unpack_meta`` checks it before reading
    any other field."""

    @pytest.mark.parametrize("name", available_compressors())
    def test_every_codec_writes_the_crc_of_its_frame(self, name):
        codec = get_compressor(name)
        rows = np.random.default_rng(1).normal(0.0, 0.1, size=(32, 8)).astype(np.float32)
        payload = codec.compress(rows, 1e-2 if codec.error_bounded else None)
        assert seal(payload) == payload

    @given(st.lists(st.binary(max_size=64), max_size=4), st.binary(max_size=8))
    def test_the_crc_covers_every_part_and_the_tail(self, parts, tail):
        framed = frame_payload("fp16", (3, 4), np.dtype(np.float32), tail, parts)
        assert framed == seal(framed)
        assert framed[PRELUDE.size :] == tail + b"".join(parts)

    @given(st.binary(min_size=1, max_size=64))
    def test_any_buffer_type_frames_as_its_bytes(self, body):
        expected = frame_payload("raw", (1, len(body)), np.dtype(np.float32), b"", body)
        for part in (bytearray(body), memoryview(body), np.frombuffer(body, dtype=np.uint8)):
            assert frame_payload("raw", (1, len(body)), np.dtype(np.float32), b"", part) == expected

    def test_a_typed_array_frames_its_raw_bytes(self):
        array = np.arange(12, dtype=np.float32).reshape(3, 4)
        framed = frame_payload("raw", array.shape, array.dtype, b"", array)
        assert framed[PRELUDE.size :] == array.tobytes() and framed == seal(framed)

    def test_the_fill_writes_only_the_crc_field(self):
        parts = [pack_meta("fp16", np.dtype(np.float32), (1, 1)) + b"tail", memoryview(b"body")]
        before = bytes(parts[0])
        assert frame_with_checksum(parts) is parts
        assert parts[0][:CRC_AT] == before[:CRC_AT] and parts[0][PRELUDE.size :] == b"tail"
        assert bytes(parts[0]) + b"body" == seal(before + b"body")

    @given(st.binary(max_size=64), st.data())
    def test_every_single_bit_flip_is_corrupt(self, body, data):
        framed = frame_payload("fp16", (1, len(body)), np.dtype(np.float32), b"", body)
        bit = data.draw(st.integers(8, len(framed) * 8 - 1))  # past the magic byte
        flipped = bytearray(framed)
        flipped[bit // 8] ^= 1 << (bit % 8)
        with pytest.raises(CorruptPayloadError, match="checksum mismatch: stored CRC32"):
            unpack_meta(bytes(flipped))

    def test_the_check_runs_before_the_dtype_code_is_read(self):
        packed = bytearray(pack_meta("entropy", np.dtype(np.float32), (64, 32)))
        packed[17] = 255
        with pytest.raises(CorruptPayloadError, match="checksum mismatch"):
            unpack_meta(bytes(packed))

    def test_a_damaged_crc_field_is_corrupt(self):
        framed = bytearray(_entropy_payload())
        framed[CRC_AT + 2] ^= 0x01
        with pytest.raises(CorruptPayloadError, match=f"over {len(framed) - 4} bytes"):
            parse_payload(bytes(framed))
        with pytest.raises(CorruptPayloadError, match="CRC32"):
            verify_checksum_frame(memoryview(framed))

    def test_a_prelude_alone_checks_too(self):
        """A frame of no tail and no body (an empty batch of a codec
        without a tail) is still checked."""
        framed = frame_payload("fp16", (0, 4), np.dtype(np.float32), b"", b"")
        assert len(framed) == PRELUDE.size
        assert unpack_meta(framed) == (Prelude("fp16", np.dtype(np.float32), (0, 4)), PRELUDE.size)
        assert np.array_equal(decompress_any(framed), np.zeros((0, 4), np.float32))
