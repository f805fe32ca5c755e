"""Tests for canonical length-limited Huffman coding."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.huffman import (
    DEFAULT_CHUNK_SYMBOLS,
    HuffmanCodebook,
    build_codebook,
    canonical_codes,
    huffman_code_lengths,
    huffman_decode,
    huffman_encode,
    limit_code_lengths,
)


def entropy_bits(freqs: np.ndarray) -> float:
    p = freqs / freqs.sum()
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


class TestCodeLengths:
    def test_uniform_four_symbols(self):
        lengths = huffman_code_lengths(np.array([1, 1, 1, 1]))
        np.testing.assert_array_equal(lengths, [2, 2, 2, 2])

    def test_skewed_distribution(self):
        lengths = huffman_code_lengths(np.array([100, 1, 1]))
        assert lengths[0] == 1
        assert set(lengths[1:]) == {2}

    def test_single_symbol(self):
        np.testing.assert_array_equal(huffman_code_lengths(np.array([5])), [1])

    def test_two_symbols(self):
        np.testing.assert_array_equal(huffman_code_lengths(np.array([1, 1000])), [1, 1])

    def test_rejects_zero_frequency(self):
        with pytest.raises(ValueError, match="positive"):
            huffman_code_lengths(np.array([1, 0, 2]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            huffman_code_lengths(np.array([], dtype=np.int64))

    def test_kraft_equality(self):
        """Unlimited Huffman lengths satisfy Kraft with equality."""
        rng = np.random.default_rng(5)
        freqs = rng.integers(1, 1000, size=100)
        lengths = huffman_code_lengths(freqs)
        assert np.isclose(np.sum(2.0 ** -lengths), 1.0)

    def test_optimality_vs_entropy(self):
        """Expected length within 1 bit of entropy (Shannon bound)."""
        rng = np.random.default_rng(6)
        freqs = rng.integers(1, 10000, size=64)
        lengths = huffman_code_lengths(freqs)
        avg = float((freqs * lengths).sum() / freqs.sum())
        h = entropy_bits(freqs)
        assert h <= avg <= h + 1.0

    def test_deterministic(self):
        freqs = np.array([5, 5, 5, 5, 3, 3, 2])
        l1 = huffman_code_lengths(freqs)
        l2 = huffman_code_lengths(freqs)
        np.testing.assert_array_equal(l1, l2)


class TestLimitLengths:
    def test_noop_when_within_limit(self):
        freqs = np.array([4, 3, 2, 1])
        lengths = huffman_code_lengths(freqs)
        limited = limit_code_lengths(lengths, freqs, 15)
        np.testing.assert_array_equal(limited, lengths)

    def test_clamps_and_repairs_kraft(self):
        # Fibonacci-like frequencies force deep trees.
        freqs = np.array([1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987])
        lengths = huffman_code_lengths(freqs)
        assert lengths.max() > 5
        limited = limit_code_lengths(lengths, freqs, 5)
        assert limited.max() <= 5
        assert np.sum(2.0 ** -limited) <= 1.0 + 1e-12

    def test_rejects_impossible_limit(self):
        freqs = np.ones(8, dtype=np.int64)
        lengths = huffman_code_lengths(freqs)
        with pytest.raises(ValueError, match="cannot fit"):
            limit_code_lengths(lengths, freqs, 2)

    @given(st.integers(min_value=2, max_value=200), st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_kraft_always_satisfied(self, n, seed):
        rng = np.random.default_rng(seed)
        freqs = rng.integers(1, 10000, size=n)
        lengths = huffman_code_lengths(freqs)
        limit = max(int(np.ceil(np.log2(n))), 4)
        limited = limit_code_lengths(lengths, freqs, limit)
        assert limited.max() <= limit
        assert limited.min() >= 1
        assert np.sum(2.0 ** -limited) <= 1.0 + 1e-12


class TestCanonicalCodes:
    def test_prefix_free(self):
        freqs = np.array([10, 7, 5, 3, 2, 1, 1, 1])
        lengths = huffman_code_lengths(freqs)
        codes = canonical_codes(lengths)
        bit_strings = [format(int(c), f"0{int(l)}b") for c, l in zip(codes, lengths)]
        for i, a in enumerate(bit_strings):
            for j, b in enumerate(bit_strings):
                if i != j:
                    assert not b.startswith(a), f"{a} prefixes {b}"

    def test_canonical_ordering(self):
        """Shorter codes sort numerically before longer ones (left-justified)."""
        freqs = np.array([100, 50, 20, 10, 5, 1])
        lengths = huffman_code_lengths(freqs)
        codes = canonical_codes(lengths)
        justified = [int(c) << (32 - int(l)) for c, l in zip(codes, lengths)]
        order = np.lexsort((np.arange(len(freqs)), lengths))
        assert sorted(justified) == [justified[i] for i in order]

    def test_empty(self):
        assert canonical_codes(np.array([], dtype=np.int64)).size == 0

    def test_rejects_zero_length(self):
        with pytest.raises(ValueError):
            canonical_codes(np.array([0, 1]))


class TestPeekTable:
    def test_full_coverage_when_kraft_tight(self):
        freqs = np.array([4, 2, 1, 1])
        book = build_codebook(freqs)
        table_sym, table_len = book.peek_table()
        assert (table_len > 0).all()  # Kraft equality -> every peek decodable
        # Each symbol's share of the table is 2^(max-len)
        counts = np.bincount(table_sym, minlength=4)
        expected = 2 ** (book.max_length - book.lengths)
        np.testing.assert_array_equal(counts, expected.astype(np.int64))


class TestEncodeDecode:
    def test_roundtrip_simple(self):
        symbols = np.array([0, 1, 2, 1, 0, 0, 3, 2, 1, 0])
        encoded = huffman_encode(symbols, 4)
        np.testing.assert_array_equal(huffman_decode(encoded), symbols)

    def test_roundtrip_single_symbol_stream(self):
        symbols = np.zeros(100, dtype=np.int64)
        encoded = huffman_encode(symbols, 1)
        np.testing.assert_array_equal(huffman_decode(encoded), symbols)

    def test_roundtrip_empty(self):
        encoded = huffman_encode(np.array([], dtype=np.int64), 4)
        assert huffman_decode(encoded).size == 0

    def test_roundtrip_sparse_alphabet(self):
        """Alphabet much larger than the used symbols."""
        symbols = np.array([5, 900, 5, 5, 900, 123])
        encoded = huffman_encode(symbols, 1000)
        np.testing.assert_array_equal(huffman_decode(encoded), symbols)

    def test_chunking_boundaries(self):
        rng = np.random.default_rng(9)
        chunk = DEFAULT_CHUNK_SYMBOLS
        n = 2 * chunk + 1000
        symbols = rng.integers(0, 16, size=n)
        encoded = huffman_encode(symbols, 16)
        assert encoded.chunk_bit_offsets.size == 3
        assert encoded.chunk_symbol_counts.sum() == n
        assert encoded.chunk_symbol_counts[-1] == 1000
        np.testing.assert_array_equal(huffman_decode(encoded), symbols)

    def test_out_of_range_symbols_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            huffman_encode(np.array([0, 4]), 4)
        with pytest.raises(ValueError, match="out of range"):
            huffman_encode(np.array([-1]), 4)

    def test_compression_beats_fixed_width_on_skew(self):
        rng = np.random.default_rng(10)
        # Highly skewed: symbol 0 dominates.
        symbols = np.where(rng.random(5000) < 0.9, 0, rng.integers(1, 256, size=5000))
        encoded = huffman_encode(symbols, 256)
        fixed_bytes = 5000  # 8 bits/symbol
        assert encoded.payload.nbytes < fixed_bytes / 4

    def test_payload_size_matches_expected_bits(self):
        rng = np.random.default_rng(12)
        symbols = rng.integers(0, 8, size=512)
        encoded = huffman_encode(symbols, 8)
        freqs = np.bincount(symbols, minlength=8)
        used = freqs > 0
        total_bits = int((freqs[used] * encoded.code_lengths[used]).sum())
        assert encoded.payload.nbytes == (total_bits + 7) // 8

    @given(
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=0, max_value=3 * DEFAULT_CHUNK_SYMBOLS + 100),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, alphabet, count, seed):
        rng = np.random.default_rng(seed)
        # Zipf-ish skew mirrors quantized embedding bins.
        raw = rng.zipf(1.5, size=count) - 1 if count else np.array([], dtype=np.int64)
        symbols = np.minimum(raw, alphabet - 1).astype(np.int64)
        encoded = huffman_encode(symbols, alphabet)
        np.testing.assert_array_equal(huffman_decode(encoded), symbols)
