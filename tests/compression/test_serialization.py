"""Tests for the fixed frame prelude and the checksum envelope."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.compression import EntropyCompressor, decompress_any
from repro.compression.base import MAGIC, parse_payload
from repro.compression.serialization import (
    FRAME_DTYPES,
    PRELUDE,
    CorruptPayloadError,
    Prelude,
    pack_meta,
    unpack_meta,
)

names = st.text(alphabet=st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=16)
dimensions = st.integers(min_value=0, max_value=2**32 - 1)


class TestPrelude:
    @given(names, st.sampled_from(FRAME_DTYPES), dimensions, dimensions)
    def test_roundtrip_property(self, codec, dtype, rows, cols):
        packed = pack_meta(codec, dtype, (rows, cols))
        assert len(packed) == PRELUDE.size == 26
        prelude, end = unpack_meta(packed)
        assert prelude == Prelude(codec, dtype, (rows, cols))
        assert end == PRELUDE.size

    def test_the_layout_is_fixed_little_endian(self):
        packed = pack_meta("vector_lz", np.dtype(np.float64), (0x01020304, 7))
        assert packed[0] == MAGIC
        assert packed[1:17] == b"vector_lz".ljust(16, b"\0")
        assert packed[17] == 1
        assert packed[18:22] == bytes([4, 3, 2, 1])
        assert packed[22:26] == bytes([7, 0, 0, 0])

    def test_a_prelude_is_read_at_the_front_of_a_longer_buffer(self):
        packed = pack_meta("fp16", np.dtype(np.float32), (3, 4)) + b"body"
        prelude, end = unpack_meta(packed)
        assert prelude == Prelude("fp16", np.dtype(np.float32), (3, 4))
        assert packed[end:] == b"body"

    def test_every_truncation_raises_corrupt_payload_error(self):
        packed = pack_meta("entropy", np.dtype(np.float32), (64, 32))
        with pytest.raises(CorruptPayloadError, match="empty payload"):
            unpack_meta(packed[:0])
        for cut in range(1, PRELUDE.size):
            with pytest.raises(CorruptPayloadError, match=f"truncated frame: {cut} bytes, the prelude needs 26"):
                unpack_meta(packed[:cut])

    @pytest.mark.parametrize("code", [2, 3, 255])
    def test_a_dtype_code_outside_the_table_is_corrupt(self, code):
        packed = bytearray(pack_meta("entropy", np.dtype(np.float32), (64, 32)))
        packed[17] = code
        with pytest.raises(CorruptPayloadError, match=f"dtype code {code} at byte 17 is not float32"):
            unpack_meta(bytes(packed))

    def test_any_name_bytes_parse_to_a_name(self):
        """The name field holds 16 raw bytes: each parses (NUL padding
        stripped), and one no codec registers is the registry's to reject."""
        packed = bytearray(pack_meta("entropy", np.dtype(np.float32), (1, 1)))
        packed[1:17] = bytes(range(0xF0, 0x100))
        prelude, _ = unpack_meta(bytes(packed))
        assert prelude.codec == bytes(range(0xF0, 0x100)).decode("latin-1")
        with pytest.raises(CorruptPayloadError, match="is not registered"):
            decompress_any(bytes(packed))

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


class TestChecksumFrame:
    """The opt-in CRC32 envelope (satellite of the fault-injection PR)."""

    def test_roundtrip(self):
        from repro.compression.serialization import (
            CHECKSUM_MAGIC,
            frame_with_checksum,
            verify_checksum_frame,
        )

        body = b"compressed delta payload"
        framed = frame_with_checksum(body)
        assert framed[0] == CHECKSUM_MAGIC
        assert len(framed) == len(body) + 5
        assert verify_checksum_frame(framed) == body

    def test_empty_body_roundtrips(self):
        from repro.compression.serialization import frame_with_checksum, verify_checksum_frame

        assert verify_checksum_frame(frame_with_checksum(b"")) == b""

    @pytest.mark.parametrize("position", [5, 10, 23])
    def test_bit_flip_detected(self, position):
        from repro.compression.serialization import (
            CorruptPayloadError,
            frame_with_checksum,
            verify_checksum_frame,
        )

        framed = bytearray(frame_with_checksum(bytes(range(32))))
        framed[position] ^= 0x40
        with pytest.raises(CorruptPayloadError, match="CRC32"):
            verify_checksum_frame(bytes(framed))

    def test_damaged_digest_detected(self):
        from repro.compression.serialization import (
            CorruptPayloadError,
            frame_with_checksum,
            verify_checksum_frame,
        )

        framed = bytearray(frame_with_checksum(b"payload"))
        framed[2] ^= 0x01  # inside the stored digest
        with pytest.raises(CorruptPayloadError):
            verify_checksum_frame(bytes(framed))

    def test_unframed_payload_rejected_as_value_error(self):
        from repro.compression.serialization import CorruptPayloadError, verify_checksum_frame

        with pytest.raises(ValueError) as err:
            verify_checksum_frame(b"no envelope here")
        assert not isinstance(err.value, CorruptPayloadError)

    @given(st.binary(max_size=256))
    def test_roundtrip_property(self, body):
        from repro.compression.serialization import frame_with_checksum, verify_checksum_frame

        assert verify_checksum_frame(frame_with_checksum(body)) == body

    def test_decompress_any_decodes_bare_frames_only(self):
        """An envelope is verified by its receiver, then decoded; handed to
        the decoder as it is, it is no codec frame."""
        import numpy as np

        from repro.compression import HybridCompressor, decompress_any
        from repro.compression.serialization import frame_with_checksum, verify_checksum_frame

        data = np.linspace(-1.0, 1.0, 512, dtype=np.float32).reshape(64, 8)
        payload = HybridCompressor().compress(data, 1e-2)
        framed = frame_with_checksum(payload)
        assert np.array_equal(decompress_any(payload), decompress_any(verify_checksum_frame(framed)))
        with pytest.raises(CorruptPayloadError, match="bad magic byte 0xc5"):
            decompress_any(framed)


class TestZeroCopyFraming:
    """Differential: zero-copy framing vs the frozen seed implementation in
    ``reference_codecs`` (the raw-speed PR's byte-compatibility contract)."""

    @given(st.binary(max_size=512))
    def test_frame_matches_reference(self, body):
        from repro.compression.serialization import frame_with_checksum
        from tests.compression.reference_codecs import reference_frame_with_checksum

        assert frame_with_checksum(body) == reference_frame_with_checksum(body)

    @given(st.binary(min_size=1, max_size=512))
    def test_frame_accepts_any_buffer_type(self, body):
        from repro.compression.serialization import frame_with_checksum
        from tests.compression.reference_codecs import reference_frame_with_checksum

        expected = reference_frame_with_checksum(body)
        assert frame_with_checksum(bytearray(body)) == expected
        assert frame_with_checksum(memoryview(body)) == expected
        assert frame_with_checksum(np.frombuffer(body, dtype=np.uint8)) == expected

    @given(st.binary(max_size=512))
    def test_frame_is_a_bytes_copy_of_the_body(self, body):
        """The frame owns its bytes: changing the source buffer after
        framing leaves the frame, and its checksum, intact."""
        from repro.compression.serialization import frame_with_checksum, verify_checksum_frame
        from tests.compression.reference_codecs import reference_frame_with_checksum

        source = bytearray(body)
        framed = frame_with_checksum(source)
        assert type(framed) is bytes
        source[:] = bytes(len(source))  # zero it in place
        source.extend(b"tail")
        assert framed == reference_frame_with_checksum(body)
        assert bytes(verify_checksum_frame(framed)) == body

    @given(
        st.integers(1, 6).flatmap(
            lambda cols: st.lists(
                st.lists(st.floats(width=32), min_size=cols, max_size=cols),
                min_size=1,
                max_size=6,
            )
        )
    )
    def test_frame_of_a_typed_array_frames_its_raw_bytes(self, rows):
        """A multi-byte, multi-dimensional buffer is framed as its raw
        bytes, as a codec's float32 body would be."""
        from repro.compression.serialization import frame_with_checksum
        from tests.compression.reference_codecs import reference_frame_with_checksum

        array = np.array(rows, dtype=np.float32).reshape(len(rows), -1)
        assert frame_with_checksum(array) == reference_frame_with_checksum(array.tobytes())

    @given(st.binary(max_size=512))
    def test_verify_matches_reference_and_is_a_view(self, body):
        from repro.compression.serialization import (
            _reference_verify_checksum_frame,
            frame_with_checksum,
            verify_checksum_frame,
        )

        framed = frame_with_checksum(body)
        got = verify_checksum_frame(framed)
        assert isinstance(got, memoryview)  # no body copy on the hot path
        assert bytes(got) == _reference_verify_checksum_frame(framed) == body
