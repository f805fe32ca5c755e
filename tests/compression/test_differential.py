"""Differential tests: vectorized hot paths vs the frozen seed oracles.

The vectorization PR rewrote every per-element decode/search loop with
batched NumPy passes while keeping the original implementations as
``_reference_*`` functions.  These property tests pin the new code to the
old semantics: byte-identical encoded payloads, element-identical decodes,
and identical error behaviour, over randomized shapes, alphabets, windows,
and error bounds.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.baselines.fzgpu_like import (
    _reference_pack_bitplanes,
    _reference_unpack_bitplanes,
    pack_bitplanes,
    unpack_bitplanes,
)
from repro.compression.baselines.lz_generic import (
    DEFAULT_BYTE_WINDOW,
    _reference_lz77_decode_bytes,
    _reference_lz77_encode_bytes,
    lz77_decode_bytes,
    lz77_encode_bytes,
)
from repro.compression.bitstream import (
    _reference_pack_codes,
    _reference_unpack_fixed,
    pack_codes,
    unpack_fixed,
)
from repro.compression.huffman import (
    DEFAULT_CHUNK_SYMBOLS,
    _reference_huffman_code_lengths,
    _reference_huffman_decode,
    _reference_huffman_encode,
    _reference_sliding_windows,
    _sliding_windows,
    huffman_code_lengths,
    huffman_decode,
    huffman_encode,
)
from repro.compression.vector_lz import (
    _reference_vector_lz_decode,
    vector_lz_decode,
    vector_lz_encode_stack,
)
from repro.compression.entropy import EntropyCompressor
from repro.compression.vector_lz import VectorLZCompressor
from tests.compression.reference_codecs import pack_fixed


class TestBitstreamDifferential:
    @given(
        st.integers(min_value=0, max_value=400),
        st.integers(min_value=1, max_value=57),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_unpack_fixed_matches_reference(self, count, width, seed):
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 1 << width, size=count, dtype=np.uint64)
        packed, _ = pack_fixed(values, width)
        new = unpack_fixed(packed, count, width)
        ref = _reference_unpack_fixed(packed, count, width)
        np.testing.assert_array_equal(new, ref)
        np.testing.assert_array_equal(new, values)

    @given(
        st.integers(min_value=1, max_value=600),
        st.integers(min_value=1, max_value=25),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_sliding_windows_match_reference(self, nbytes, width, seed):
        rng = np.random.default_rng(seed)
        payload = rng.integers(0, 256, size=nbytes, dtype=np.uint8)
        padded = np.concatenate([payload, np.zeros(8, dtype=np.uint8)])
        count = nbytes * 8 - rng.integers(0, min(7, nbytes * 8 - 1))
        start = int(rng.integers(0, nbytes * 8 - count + 1))
        new = _sliding_windows(padded, start, int(count), width)
        ref = _reference_sliding_windows(padded, start, int(count), width)
        np.testing.assert_array_equal(new.astype(np.uint64), ref)


class TestVectorLZDifferential:
    @given(
        st.integers(min_value=0, max_value=300),
        st.integers(min_value=1, max_value=16),
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_decode_matches_reference(self, n, d, pool, window, seed):
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, 2000, size=(pool, d))
        codes = rows[rng.integers(0, pool, size=n)]
        encoded = vector_lz_encode_stack(codes[None], window)[0]
        new = vector_lz_decode(encoded)
        ref = _reference_vector_lz_decode(encoded)
        np.testing.assert_array_equal(new, ref)
        np.testing.assert_array_equal(new, codes)

    def test_long_chain_all_identical_rows(self):
        """Chains as long as the batch (every row references the previous)."""
        codes = np.full((4096, 8), 7, dtype=np.int64)
        encoded = vector_lz_encode_stack(codes[None], 1)[0]
        np.testing.assert_array_equal(vector_lz_decode(encoded), codes)
        np.testing.assert_array_equal(_reference_vector_lz_decode(encoded), codes)

    @given(st.floats(min_value=1e-4, max_value=1.0), st.integers(0, 2**31))
    @settings(max_examples=20, deadline=None)
    def test_codec_payload_roundtrip_any_bound(self, error_bound, seed):
        rng = np.random.default_rng(seed)
        data = rng.normal(0, 0.2, size=(50, 8)).astype(np.float32)
        codec = VectorLZCompressor()
        payload = codec.compress(data, error_bound)
        rec = codec.decompress(payload)
        # One float32 ulp of slack: the ideal reconstruction is within the
        # bound, but rounding it to float32 can add up to half an ulp
        # (hypothesis found eb=1e-4 cases exceeding the bare bound by ~1e-9).
        tolerance = error_bound * (1 + 1e-5) + np.spacing(np.abs(rec).max())
        assert np.abs(data - rec).max() <= tolerance


class TestPackCodesDifferential:
    @given(
        st.integers(min_value=0, max_value=3000),
        st.integers(min_value=1, max_value=57),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_byte_identical_to_reference(self, count, max_len, seed):
        """The word-level packer must reproduce the per-bit-plane packer's
        stream bit for bit, over arbitrary code lengths up to 57."""
        rng = np.random.default_rng(seed)
        lengths = rng.integers(1, max_len + 1, size=count)
        codes = np.array(
            [rng.integers(0, 1 << int(l)) for l in lengths], dtype=np.uint64
        )
        new_packed, new_bits = pack_codes(codes, lengths)
        ref_packed, ref_bits = _reference_pack_codes(codes, lengths)
        assert new_bits == ref_bits
        np.testing.assert_array_equal(new_packed, ref_packed)

    def test_stray_high_bits_ignored_like_reference(self):
        """Only bits [length-1, 0] are emitted: value bits above the
        declared length must not leak into a neighbouring code."""
        codes = np.array([1, 0b111], dtype=np.uint64)  # second code: len 2, stray bit 2
        lengths = np.array([1, 2])
        new_packed, _ = pack_codes(codes, lengths)
        ref_packed, _ = _reference_pack_codes(codes, lengths)
        np.testing.assert_array_equal(new_packed, ref_packed)

    @given(st.integers(min_value=1, max_value=400), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=40, deadline=None)
    def test_arbitrary_values_match_reference(self, count, seed):
        """Differential with unmasked 57-bit values at random lengths."""
        rng = np.random.default_rng(seed)
        lengths = rng.integers(1, 58, size=count)
        codes = rng.integers(0, 1 << 57, size=count, dtype=np.uint64)
        new_packed, new_bits = pack_codes(codes, lengths)
        ref_packed, ref_bits = _reference_pack_codes(codes, lengths)
        assert new_bits == ref_bits
        np.testing.assert_array_equal(new_packed, ref_packed)

    def test_empty(self):
        packed, bits = pack_codes(np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.int64))
        assert bits == 0 and packed.size == 0

    def test_rejects_out_of_range_lengths(self):
        with pytest.raises(ValueError):
            pack_codes(np.array([1], dtype=np.uint64), np.array([58]))
        with pytest.raises(ValueError):
            pack_codes(np.array([1], dtype=np.uint64), np.array([0]))


class TestCodeLengthsDifferential:
    @given(
        st.lists(st.integers(min_value=1, max_value=100_000), min_size=1, max_size=300),
    )
    @settings(max_examples=60, deadline=None)
    def test_identical_to_heap_reference(self, freq_list):
        """The two-queue build matches the seed's heap tie-breaking
        exactly: identical length tables, not merely equivalent ones."""
        freqs = np.array(freq_list, dtype=np.int64)
        np.testing.assert_array_equal(
            huffman_code_lengths(freqs), _reference_huffman_code_lengths(freqs)
        )

    @given(st.integers(min_value=2, max_value=500), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=40, deadline=None)
    def test_heavy_tie_distributions(self, n, seed):
        """Ties are where two-queue and heap could diverge; hammer them."""
        rng = np.random.default_rng(seed)
        freqs = rng.integers(1, 4, size=n)
        new = huffman_code_lengths(freqs)
        ref = _reference_huffman_code_lengths(freqs)
        np.testing.assert_array_equal(new, ref)
        assert np.isclose(np.sum(2.0 ** -new.astype(np.float64)), 1.0)

    def test_validation_matches_reference(self):
        for fn in (huffman_code_lengths, _reference_huffman_code_lengths):
            with pytest.raises(ValueError):
                fn(np.array([], dtype=np.int64))
            with pytest.raises(ValueError):
                fn(np.array([3, 0, 1]))
            np.testing.assert_array_equal(fn(np.array([7])), [1])


class TestHuffmanEncodeDifferential:
    @given(
        st.integers(min_value=0, max_value=3 * DEFAULT_CHUNK_SYMBOLS + 100),
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_encode_matches_reference_stream(self, count, alphabet, seed):
        """Whole-encoder differential: payload, codebook, and chunk layout
        all byte-identical to the frozen seed path."""
        rng = np.random.default_rng(seed)
        raw = rng.zipf(1.4, size=count) - 1 if count else np.zeros(0, dtype=np.int64)
        symbols = np.minimum(raw, alphabet - 1).astype(np.int64)
        new = huffman_encode(symbols, alphabet)
        ref = _reference_huffman_encode(symbols, alphabet)
        np.testing.assert_array_equal(new.payload, ref.payload)
        np.testing.assert_array_equal(new.code_lengths, ref.code_lengths)
        np.testing.assert_array_equal(new.chunk_bit_offsets, ref.chunk_bit_offsets)
        np.testing.assert_array_equal(new.chunk_symbol_counts, ref.chunk_symbol_counts)
        np.testing.assert_array_equal(huffman_decode(new), symbols)


class TestHuffmanDifferential:
    @given(
        st.integers(min_value=0, max_value=3 * DEFAULT_CHUNK_SYMBOLS + 100),
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_decode_matches_reference(self, count, alphabet, seed):
        rng = np.random.default_rng(seed)
        raw = rng.zipf(1.4, size=count) - 1 if count else np.zeros(0, dtype=np.int64)
        symbols = np.minimum(raw, alphabet - 1).astype(np.int64)
        encoded = huffman_encode(symbols, alphabet)
        new = huffman_decode(encoded)
        ref = _reference_huffman_decode(encoded)
        np.testing.assert_array_equal(new, ref)
        np.testing.assert_array_equal(new, symbols)

    def test_corrupt_stream_raises_like_reference(self):
        """A Kraft-gap peek must raise, not decode garbage."""
        rng = np.random.default_rng(3)
        symbols = rng.integers(0, 16, size=500)
        encoded = huffman_encode(symbols, 16)
        # Lengthen one code so the canonical table leaves a gap (Kraft < 1),
        # making some windows land on unassigned entries.
        lengths = encoded.code_lengths.copy()
        used = np.flatnonzero(lengths)
        lengths[used[0]] += 3
        from dataclasses import replace

        broken = replace(encoded, code_lengths=lengths)
        with pytest.raises(ValueError, match="corrupt"):
            huffman_decode(broken)
        with pytest.raises(ValueError, match="corrupt"):
            _reference_huffman_decode(broken)

    @given(st.floats(min_value=1e-4, max_value=1.0), st.integers(0, 2**31))
    @settings(max_examples=20, deadline=None)
    def test_codec_payload_roundtrip_any_bound(self, error_bound, seed):
        rng = np.random.default_rng(seed)
        data = rng.normal(0, 0.2, size=(50, 8)).astype(np.float32)
        codec = EntropyCompressor()
        payload = codec.compress(data, error_bound)
        rec = codec.decompress(payload)
        # Same float32-ulp slack as the vector-LZ roundtrip above.
        tolerance = error_bound * (1 + 1e-5) + np.spacing(np.abs(rec).max())
        assert np.abs(data - rec).max() <= tolerance


class TestLz77Differential:
    @staticmethod
    def _make_data(rng, kind: str, size: int) -> bytes:
        if kind == "random":
            return rng.integers(0, 256, size).astype(np.uint8).tobytes()
        if kind == "low_entropy":
            return rng.integers(0, 4, size).astype(np.uint8).tobytes()
        if kind == "hot_rows":
            pool = rng.integers(0, 256, (8, 64)).astype(np.uint8)
            return pool[rng.integers(0, 8, max(size // 64, 1))].tobytes()
        return bytes(size)  # zeros

    @given(
        st.sampled_from(["random", "low_entropy", "hot_rows", "zeros"]),
        # sizes up to twice DEFAULT_BYTE_WINDOW, so matches cross the window edge
        st.integers(min_value=0, max_value=2 * DEFAULT_BYTE_WINDOW),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_encode_byte_identical_and_decode_exact(self, kind, size, seed):
        rng = np.random.default_rng(seed)
        data = self._make_data(rng, kind, size)
        new_stream = lz77_encode_bytes(data)
        ref_stream = _reference_lz77_encode_bytes(data)
        assert new_stream == ref_stream
        assert lz77_decode_bytes(new_stream, len(data)) == data
        assert _reference_lz77_decode_bytes(new_stream, len(data)) == data

    def test_repeats_past_the_window_match_the_reference(self):
        """A repeat farther back than ``DEFAULT_BYTE_WINDOW`` stays literal
        on both encoders; one inside it matches on both."""
        rng = np.random.default_rng(4)
        chunk = rng.integers(0, 256, 300).astype(np.uint8).tobytes()
        gap = rng.integers(0, 256, DEFAULT_BYTE_WINDOW).astype(np.uint8).tobytes()
        data = chunk + gap + chunk + chunk
        stream = lz77_encode_bytes(data)
        assert stream == _reference_lz77_encode_bytes(data)
        assert lz77_decode_bytes(stream, len(data)) == data

    def test_overlapping_match_copies(self):
        """Period-replication copy must equal the byte-at-a-time loop."""
        data = b"ab" * 4000 + b"xyz" + b"a" * 1000
        stream = lz77_encode_bytes(data)
        assert lz77_decode_bytes(stream, len(data)) == data
        assert _reference_lz77_decode_bytes(stream, len(data)) == data


class TestOracleEdgeCases:
    """Gap coverage against the frozen seed oracles: empty payloads,
    single-symbol alphabets, and the max-alphabet boundary."""

    def test_empty_huffman_payload_matches_reference(self):
        symbols = np.zeros(0, dtype=np.int64)
        new = huffman_encode(symbols, 1)
        ref = _reference_huffman_encode(symbols, 1)
        np.testing.assert_array_equal(new.payload, ref.payload)
        np.testing.assert_array_equal(new.code_lengths, ref.code_lengths)
        np.testing.assert_array_equal(new.chunk_bit_offsets, ref.chunk_bit_offsets)
        np.testing.assert_array_equal(new.chunk_symbol_counts, ref.chunk_symbol_counts)
        assert huffman_decode(new).size == 0
        assert _reference_huffman_decode(new).size == 0

    def test_empty_lz77_stream_matches_reference(self):
        new_stream = lz77_encode_bytes(b"")
        ref_stream = _reference_lz77_encode_bytes(b"")
        assert new_stream == ref_stream
        assert lz77_decode_bytes(new_stream, 0) == b""
        assert _reference_lz77_decode_bytes(ref_stream, 0) == b""

    def test_empty_vector_lz_batch_matches_reference(self):
        codes = np.zeros((0, 4), dtype=np.int64)
        encoded = vector_lz_encode_stack(codes[None], 8)[0]
        np.testing.assert_array_equal(vector_lz_decode(encoded), codes)
        np.testing.assert_array_equal(_reference_vector_lz_decode(encoded), codes)

    def test_empty_bitplanes_match_reference(self):
        unsigned = np.zeros(0, dtype=np.uint64)
        new_bitmap, new_payload, new_blocks = pack_bitplanes(unsigned, 128)
        ref_bitmap, ref_payload, ref_blocks = _reference_pack_bitplanes(unsigned, 128)
        assert new_blocks == ref_blocks
        assert new_bitmap.tobytes() == ref_bitmap.tobytes()
        assert new_payload.tobytes() == ref_payload.tobytes()
        decoded = unpack_bitplanes(new_bitmap, new_payload, 0, 128, new_blocks)
        assert decoded.size == 0

    def test_single_symbol_alphabet_matches_reference(self):
        """A degenerate one-symbol alphabet (constant slice after
        quantization) must encode and decode identically on both paths."""
        symbols = np.zeros(257, dtype=np.int64)
        new = huffman_encode(symbols, 1)
        ref = _reference_huffman_encode(symbols, 1)
        np.testing.assert_array_equal(new.payload, ref.payload)
        np.testing.assert_array_equal(new.code_lengths, ref.code_lengths)
        np.testing.assert_array_equal(huffman_decode(new), symbols)
        np.testing.assert_array_equal(_reference_huffman_decode(new), symbols)

    def test_constant_batch_roundtrips_through_entropy_codec(self):
        data = np.full((16, 8), 0.25, dtype=np.float32)
        codec = EntropyCompressor()
        payload = codec.compress(data, 0.1)
        rec = codec.decompress(payload)
        assert np.abs(data - rec).max() <= 0.1 * (1 + 1e-6)

    def test_max_alphabet_boundary_symbols_match_reference(self):
        """Symbols spanning the full declared alphabet, including the top
        symbol ``alphabet - 1``, on both encoder paths."""
        alphabet = 4096
        rng = np.random.default_rng(11)
        symbols = np.concatenate(
            [np.array([0, alphabet - 1]), rng.integers(0, alphabet, size=500)]
        ).astype(np.int64)
        new = huffman_encode(symbols, alphabet)
        ref = _reference_huffman_encode(symbols, alphabet)
        np.testing.assert_array_equal(new.payload, ref.payload)
        np.testing.assert_array_equal(new.code_lengths, ref.code_lengths)
        np.testing.assert_array_equal(huffman_decode(new), symbols)
        np.testing.assert_array_equal(_reference_huffman_decode(new), symbols)

    def test_quantize_batch_max_alphabet_boundary(self):
        """Exactly at the cap passes; one past the cap fails fast."""
        from repro.compression.quantizer import DEFAULT_MAX_ALPHABET, quantize_batch

        m = DEFAULT_MAX_ALPHABET
        at_cap = np.array([[0.0, m - 1]], dtype=np.float32)  # codes 0 and m-1 at eb=0.5
        assert quantize_batch(at_cap, 0.5).alphabet_size == m
        with pytest.raises(ValueError, match="alphabet"):
            quantize_batch(np.array([[0.0, m]], dtype=np.float32), 0.5)


class TestFzgpuDifferential:
    @given(
        st.integers(min_value=0, max_value=8000),
        st.integers(min_value=1, max_value=16),
        st.integers(min_value=1, max_value=512),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_bitplanes_byte_identical(self, n, bits, block_bytes, seed):
        rng = np.random.default_rng(seed)
        unsigned = rng.integers(0, 1 << bits, size=n).astype(np.uint64)
        new_bitmap, new_payload, new_blocks = pack_bitplanes(unsigned, block_bytes)
        ref_bitmap, ref_payload, ref_blocks = _reference_pack_bitplanes(unsigned, block_bytes)
        assert new_blocks == ref_blocks
        assert new_bitmap.tobytes() == ref_bitmap.tobytes()
        assert new_payload.tobytes() == ref_payload.tobytes()
        decoded = unpack_bitplanes(new_bitmap, new_payload, n, block_bytes, new_blocks)
        ref_decoded = _reference_unpack_bitplanes(
            new_bitmap, new_payload, n, block_bytes, new_blocks
        )
        np.testing.assert_array_equal(decoded, unsigned)
        np.testing.assert_array_equal(ref_decoded, unsigned)
