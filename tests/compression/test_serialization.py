"""Tests for the compact header serializer."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.compression import EntropyCompressor, decompress_any
from repro.compression.base import MAGIC, parse_payload
from repro.compression.serialization import (
    CorruptPayloadError,
    pack_meta,
    read_varint,
    unpack_meta,
    write_varint,
)


class TestVarint:
    @pytest.mark.parametrize("value", [0, 1, 127, 128, 255, 300, 2**20, 2**63])
    def test_roundtrip(self, value):
        out = bytearray()
        write_varint(out, value)
        decoded, pos = read_varint(bytes(out), 0)
        assert decoded == value
        assert pos == len(out)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            write_varint(bytearray(), -1)

    def test_truncated_stream(self):
        out = bytearray()
        write_varint(out, 2**20)
        with pytest.raises(ValueError, match="truncated"):
            read_varint(bytes(out[:-1]), 0)

    def test_truncated_varint_names_its_start_offset(self):
        with pytest.raises(CorruptPayloadError, match="truncated varint at byte 1"):
            read_varint(b"\x05\x80\x80", 1)

    def test_overlong_varint_is_typed(self):
        with pytest.raises(CorruptPayloadError, match="varint too long at byte 1"):
            read_varint(b"\x00" + b"\x80" * 12, 1)

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    def test_roundtrip_property(self, value):
        out = bytearray()
        write_varint(out, value)
        decoded, _ = read_varint(bytes(out), 0)
        assert decoded == value

    def test_small_values_take_one_byte(self):
        out = bytearray()
        write_varint(out, 100)
        assert len(out) == 1


class TestPackMeta:
    def test_roundtrip_all_types(self):
        meta = {
            "int": 42,
            "neg": -17,
            "float": 3.25,
            "str": "vector_lz",
            "bytes": b"\x00\xff\x01",
            "arr": np.arange(12, dtype=np.int64).reshape(3, 4),
        }
        packed = pack_meta(meta)
        decoded, pos = unpack_meta(packed)
        assert pos == len(packed)
        assert decoded["int"] == 42
        assert decoded["neg"] == -17
        assert decoded["float"] == 3.25
        assert decoded["str"] == "vector_lz"
        assert decoded["bytes"] == b"\x00\xff\x01"
        np.testing.assert_array_equal(decoded["arr"], meta["arr"])
        assert decoded["arr"].dtype == np.int64

    def test_empty_meta(self):
        decoded, pos = unpack_meta(pack_meta({}))
        assert decoded == {}
        assert pos == 1  # single varint 0

    def test_preserves_key_order(self):
        meta = {"z": 1, "a": 2, "m": 3}
        decoded, _ = unpack_meta(pack_meta(meta))
        assert list(decoded) == ["z", "a", "m"]

    def test_array_dtype_preserved(self):
        for dtype in (np.uint8, np.int32, np.float32, np.float64, np.uint64):
            meta = {"a": np.array([1, 2, 3], dtype=dtype)}
            decoded, _ = unpack_meta(pack_meta(meta))
            assert decoded["a"].dtype == dtype

    def test_empty_array(self):
        decoded, _ = unpack_meta(pack_meta({"a": np.zeros((0, 3), dtype=np.float32)}))
        assert decoded["a"].shape == (0, 3)

    def test_bool_rejected(self):
        with pytest.raises(TypeError, match="bool"):
            pack_meta({"flag": True})

    def test_unsupported_type_rejected(self):
        with pytest.raises(TypeError):
            pack_meta({"x": object()})

    def test_unknown_tag_rejected(self):
        packed = bytearray(pack_meta({"k": 1}))
        # Corrupt the value tag ('I') into an unknown letter.
        packed[packed.index(ord("I"))] = ord("Q")
        with pytest.raises(CorruptPayloadError, match="unknown meta tag 'Q' at byte 3"):
            unpack_meta(bytes(packed))

    def test_every_truncation_raises_corrupt_payload_error(self):
        """Each strict prefix of a header — mid-varint, mid-float, mid-array
        and mid-final-value alike — is a typed error naming a byte offset."""
        packed = pack_meta(
            {"codec": "vector_lz", "eb": 0.01, "shape": np.array([64, 32]), "tail": b"abcdef"}
        )
        for cut in range(len(packed)):
            with pytest.raises(CorruptPayloadError, match="at byte"):
                unpack_meta(packed[:cut])

    @pytest.mark.parametrize("value", ["vector_lz", b"\x00\xff\x01\x02"])
    def test_final_value_overrun_is_not_a_short_value(self, value):
        packed = pack_meta({"a": 1, "last": value})
        with pytest.raises(CorruptPayloadError, match=r"truncated (string|bytes) at byte 12"):
            unpack_meta(packed[:-1])

    def test_malformed_array_dtype_is_typed(self):
        packed = bytearray(pack_meta({"arr": np.arange(3, dtype=np.int64)}))
        packed[packed.index(b"<i8") + 2] = ord("9")  # "<i9": no such dtype
        with pytest.raises(CorruptPayloadError, match="malformed array at byte 5"):
            unpack_meta(bytes(packed))

    def test_non_utf8_key_is_typed(self):
        packed = bytearray(pack_meta({"k": 1}))
        packed[2] = 0xFF
        with pytest.raises(CorruptPayloadError, match="key at byte 2 is not utf-8"):
            unpack_meta(bytes(packed))

    def test_non_ascii_array_dtype_is_typed(self):
        packed = bytearray(pack_meta({"arr": np.arange(3, dtype=np.int64)}))
        at = packed.index(b"<i8")
        packed[at] = 0xFF
        with pytest.raises(CorruptPayloadError, match=f"array dtype at byte {at} is not ascii"):
            unpack_meta(bytes(packed))

    def test_array_body_shape_mismatch_is_typed(self):
        packed = bytearray(pack_meta({"arr": np.arange(3, dtype=np.int64)}))
        packed[packed.index(b"<i8") + 4] = 4  # shape (3,) -> (4,): 24 body bytes hold 3
        with pytest.raises(CorruptPayloadError, match="malformed array at byte 5"):
            unpack_meta(bytes(packed))

    def test_array_body_of_partial_items_is_typed(self):
        packed = bytearray(pack_meta({"arr": np.arange(3, dtype=np.int64)}))
        at = packed.index(b"<i8")
        packed[at : at + 3] = b"|V5"  # 24 body bytes are not whole 5-byte items
        with pytest.raises(CorruptPayloadError, match="malformed array at byte 5"):
            unpack_meta(bytes(packed))

    def test_truncated_float_reports_declared_and_present_bytes(self):
        packed = pack_meta({"eb": 0.01})
        with pytest.raises(
            CorruptPayloadError, match="truncated float at byte 5: 8 bytes declared, 5 present"
        ):
            unpack_meta(packed[:-3])

    def test_offsets_are_absolute_in_sequential_headers(self):
        """A damaged second header names offsets in the whole buffer, not
        relative to where that header starts."""
        first = pack_meta({"a": 1})
        second = pack_meta({"b": "xyz"})
        blob = first + second[:-1]
        _, pos = unpack_meta(blob)
        with pytest.raises(
            CorruptPayloadError, match=f"truncated string at byte {len(first) + 5}"
        ):
            unpack_meta(blob, pos)

    @given(
        st.dictionaries(
            st.text(min_size=1, max_size=8),
            st.one_of(
                st.integers(min_value=-(2**62), max_value=2**62),
                st.floats(allow_nan=False, allow_infinity=False),
                st.text(max_size=16),
                st.binary(max_size=16),
            ),
            max_size=6,
        )
    )
    def test_roundtrip_property(self, meta):
        decoded, pos = unpack_meta(pack_meta(meta))
        packed = pack_meta(meta)
        assert pos == len(packed)
        assert decoded == meta

    def test_sequential_headers(self):
        """Two headers packed back-to-back parse at returned offsets."""
        first = pack_meta({"a": 1})
        second = pack_meta({"b": "x"})
        blob = first + second
        meta1, pos = unpack_meta(blob)
        meta2, end = unpack_meta(blob, pos)
        assert meta1 == {"a": 1}
        assert meta2 == {"b": "x"}
        assert end == len(blob)


def _entropy_payload(seed: int = 3) -> bytes:
    """A frame whose header holds arrays (code lengths, chunk offsets)."""
    rows = np.random.default_rng(seed).normal(0.0, 0.1, size=(64, 16)).astype(np.float32)
    return EntropyCompressor().compress(rows, 1e-2)


def _assert_headers_equal(header: dict, expected: dict) -> None:
    assert list(header) == list(expected)
    for key, value in expected.items():
        if isinstance(value, np.ndarray):
            assert header[key].dtype == value.dtype
            np.testing.assert_array_equal(header[key], value)
        else:
            assert header[key] == value


class TestParsePayload:
    """``parse_payload`` parses afresh on every call."""

    def test_a_bytes_frame_parses_to_its_header_and_a_view_of_its_body(self):
        payload = _entropy_payload()
        header, body = parse_payload(payload)
        fresh, pos = unpack_meta(payload, 1)
        _assert_headers_equal(header, fresh)
        assert bytes(body) == payload[pos:]
        assert body.obj is payload

    def test_returned_headers_are_private(self):
        """Changing a returned header's fields, or writing into its arrays,
        never reaches the next parse of the same bytes."""
        payload = _entropy_payload()
        header, _ = parse_payload(payload)
        header["eb"] = 99.0
        header["extra"] = 1
        del header["code_min"]
        header["code_lengths"][0] = 7
        header["shape"][:] = 0
        again, _ = parse_payload(payload)
        _assert_headers_equal(again, unpack_meta(payload, 1)[0])
        with pytest.raises(CorruptPayloadError, match="no 'extra' field"):
            again["extra"]

    def test_a_corrupt_frame_raises_on_every_call(self):
        payload = _entropy_payload()
        truncated = payload[:12]
        bad_magic = bytes([MAGIC ^ 0xFF]) + payload[1:]
        for _ in range(3):
            with pytest.raises(CorruptPayloadError, match="at byte"):
                parse_payload(truncated)
            with pytest.raises(ValueError, match="magic"):
                parse_payload(bad_magic)

    @pytest.mark.parametrize("wrap", [bytearray, memoryview])
    def test_other_buffers_parse_as_before(self, wrap):
        payload = _entropy_payload()
        header, body = parse_payload(wrap(payload))
        fresh, pos = unpack_meta(payload, 1)
        _assert_headers_equal(header, fresh)
        assert bytes(body) == payload[pos:]
        assert header["code_lengths"].flags.writeable
        np.testing.assert_array_equal(decompress_any(wrap(payload)), decompress_any(payload))

    def test_a_bytearray_rewritten_in_place_parses_its_new_content(self):
        first, second = _entropy_payload(3), _entropy_payload(4)
        buffer = bytearray(first)
        parse_payload(buffer)
        buffer[:] = second
        _assert_headers_equal(parse_payload(buffer)[0], unpack_meta(second, 1)[0])


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
