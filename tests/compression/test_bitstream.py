"""Tests for vectorized bit packing/unpacking."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.bitstream import (
    bits_to_bytes,
    pack_codes,
    pack_fixed_segments,
    unpack_fixed,
    unpack_fixed_segments,
)
from repro.compression.serialization import CorruptPayloadError
from tests.compression.reference_codecs import pack_fixed


class TestBitsToBytes:
    @pytest.mark.parametrize("bits,expected", [(0, 0), (1, 1), (8, 1), (9, 2), (16, 2), (17, 3)])
    def test_values(self, bits, expected):
        assert bits_to_bytes(bits) == expected


class TestPackCodes:
    def test_single_byte_codes(self):
        packed, total = pack_codes(np.array([0b101]), np.array([3]))
        assert total == 3
        assert packed[0] == 0b10100000

    def test_cross_byte_boundary(self):
        # 6 + 6 bits -> 12 bits spanning two bytes.
        packed, total = pack_codes(np.array([0b111111, 0b000001]), np.array([6, 6]))
        assert total == 12
        assert packed[0] == 0b11111100
        assert packed[1] == 0b00010000

    def test_empty(self):
        packed, total = pack_codes(np.array([], dtype=np.uint64), np.array([], dtype=np.int64))
        assert total == 0
        assert packed.size == 0

    def test_rejects_zero_length(self):
        with pytest.raises(ValueError):
            pack_codes(np.array([1]), np.array([0]))

    def test_rejects_oversize_length(self):
        with pytest.raises(ValueError):
            pack_codes(np.array([1]), np.array([58]))

    def test_mismatched_shapes(self):
        with pytest.raises(ValueError):
            pack_codes(np.array([1, 2]), np.array([3]))

    def test_manual_reference(self):
        """Compare against a bit-by-bit Python reference."""
        rng = np.random.default_rng(7)
        lengths = rng.integers(1, 20, size=100)
        codes = np.array([rng.integers(0, 1 << l) for l in lengths], dtype=np.uint64)
        packed, total = pack_codes(codes, lengths)
        bitstring = "".join(format(int(c), f"0{l}b") for c, l in zip(codes, lengths))
        assert total == len(bitstring)
        unpacked_bits = np.unpackbits(packed)[:total]
        assert "".join(map(str, unpacked_bits)) == bitstring


class TestFixedWidth:
    def test_roundtrip_simple(self):
        values = np.array([3, 7, 0, 5, 1], dtype=np.uint64)
        packed, total = pack_fixed(values, 3)
        assert total == 15
        out = unpack_fixed(packed, 5, 3)
        np.testing.assert_array_equal(out, values)

    def test_width_eight_reads_the_bytes(self):
        values = np.array([0, 1, 127, 255, 9], dtype=np.uint64)
        packed, total = pack_fixed(values, 8)
        assert total == 40
        np.testing.assert_array_equal(unpack_fixed(packed, 3, 8), values[:3])
        np.testing.assert_array_equal(unpack_fixed(packed, 5, 8), values)

    def test_width_zero_all_zero(self):
        packed, bounds = pack_fixed_segments(np.zeros(4, dtype=np.uint64), 0, [4])
        assert packed.size == 0 and bounds.tolist() == [0, 0]
        np.testing.assert_array_equal(unpack_fixed(packed, 4, 0), np.zeros(4))

    def test_width_zero_nonzero_rejected(self):
        with pytest.raises(ValueError, match="width 0 requires all-zero values"):
            pack_fixed_segments(np.array([1], dtype=np.uint64), 0, [1])

    def test_value_too_wide_rejected(self):
        with pytest.raises(ValueError, match="does not fit in 3 bits"):
            pack_fixed_segments(np.array([8], dtype=np.uint64), 3, [1])

    def test_short_stream_rejected(self):
        packed, _ = pack_fixed(np.array([1, 2], dtype=np.uint64), 4)
        with pytest.raises(ValueError, match="too short"):
            unpack_fixed(packed, 5, 4)

    def test_short_stream_raises_the_typed_error(self):
        """A short stream is corrupt input, so the reader raises what every
        other decode-side check raises."""
        packed, _ = pack_fixed(np.array([1, 2], dtype=np.uint64), 4)
        with pytest.raises(CorruptPayloadError, match="stream too short: need 20 bits, have 8"):
            unpack_fixed(packed, 5, 4)

    def test_short_segment_raises_the_typed_error(self):
        segments = [np.zeros(4, np.uint8), np.zeros(2, np.uint8)]
        with pytest.raises(CorruptPayloadError, match="stream too short: need 24 bits, have 16"):
            unpack_fixed_segments(segments, [2, 3], 8)

    @given(
        st.integers(min_value=1, max_value=57),
        st.integers(min_value=0, max_value=500),
        st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, width, count, seed):
        rng = np.random.default_rng(seed)
        hi = 1 << width
        values = rng.integers(0, hi, size=count, dtype=np.uint64)
        packed, total = pack_fixed(values, width)
        assert total == count * width
        out = unpack_fixed(packed, count, width)
        np.testing.assert_array_equal(out, values)

    def test_max_width_57(self):
        values = np.array([(1 << 57) - 1, 0, 12345678901234567], dtype=np.uint64)
        packed, _ = pack_fixed(values, 57)
        np.testing.assert_array_equal(unpack_fixed(packed, 3, 57), values)
