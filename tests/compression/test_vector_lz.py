"""Tests for the vector-based LZ encoder."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.vector_lz import (
    VectorLZCompressor,
    VectorLZEncoded,
    find_vector_matches,
    vector_lz_decode,
    vector_lz_encode,
    vector_lz_encode_stack,
)
from tests.conftest import make_hot_batch


def encode(codes: np.ndarray, window: int) -> VectorLZEncoded:
    """``codes`` encoded alone at ``window``."""
    return vector_lz_encode_stack(np.asarray(codes)[None], window)[0]


def nbytes(encoded: VectorLZEncoded) -> int:
    return encoded.flags.nbytes + encoded.offsets.nbytes + encoded.literals.nbytes


class TestFindMatches:
    def test_exact_repeat_found(self):
        codes = np.array([[1, 2], [3, 4], [1, 2]])
        is_match, offsets = find_vector_matches(codes, window=255)
        np.testing.assert_array_equal(is_match, [False, False, True])
        assert offsets[2] == 2

    def test_nearest_occurrence_wins(self):
        codes = np.array([[1, 1], [1, 1], [1, 1]])
        is_match, offsets = find_vector_matches(codes, window=255)
        np.testing.assert_array_equal(offsets[1:], [1, 1])

    def test_window_excludes_stale_rows(self):
        codes = np.array([[7, 7], [1, 1], [2, 2], [7, 7]])
        is_match, _ = find_vector_matches(codes, window=2)
        assert not is_match[3]  # distance 3 > window 2

    def test_window_boundary_inclusive(self):
        codes = np.array([[7, 7], [1, 1], [7, 7]])
        is_match, offsets = find_vector_matches(codes, window=2)
        assert is_match[2] and offsets[2] == 2

    def test_no_false_matches_on_distinct_rows(self):
        codes = np.arange(20).reshape(10, 2)
        is_match, _ = find_vector_matches(codes, window=255)
        assert not is_match.any()

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            find_vector_matches(np.zeros((2, 2), dtype=np.int64), window=0)

    def test_partial_row_difference_is_literal(self):
        """Rows differing in one element must not match (fixed pattern length)."""
        codes = np.array([[1, 2, 3], [1, 2, 4]])
        is_match, _ = find_vector_matches(codes, window=255)
        assert not is_match[1]


class TestEncodeDecode:
    def test_roundtrip_hot_batch(self):
        rng = np.random.default_rng(0)
        pool = rng.integers(0, 100, size=(10, 16))
        codes = pool[rng.integers(0, 10, size=200)]
        encoded = encode(codes, 255)
        np.testing.assert_array_equal(vector_lz_decode(encoded), codes)
        assert encoded.n_matches > 150

    def test_roundtrip_all_unique(self):
        codes = np.arange(64).reshape(8, 8)
        encoded = vector_lz_encode(codes)
        np.testing.assert_array_equal(vector_lz_decode(encoded), codes)
        assert encoded.n_matches == 0

    def test_roundtrip_all_identical(self):
        codes = np.full((50, 4), 3, dtype=np.int64)
        encoded = vector_lz_encode(codes)
        np.testing.assert_array_equal(vector_lz_decode(encoded), codes)
        assert encoded.n_matches == 49

    def test_roundtrip_single_row(self):
        codes = np.array([[9, 8, 7]])
        encoded = vector_lz_encode(codes)
        np.testing.assert_array_equal(vector_lz_decode(encoded), codes)

    def test_roundtrip_empty(self):
        codes = np.zeros((0, 4), dtype=np.int64)
        encoded = vector_lz_encode(codes)
        assert vector_lz_decode(encoded).shape == (0, 4)

    def test_chained_matches(self):
        """A row matching a row that was itself a match decodes correctly."""
        codes = np.array([[5, 5], [5, 5], [5, 5], [1, 1], [5, 5]])
        encoded = encode(codes, 2)
        np.testing.assert_array_equal(vector_lz_decode(encoded), codes)

    def test_encode_runs_at_the_default_window(self):
        from repro.compression.vector_lz import DEFAULT_WINDOW

        codes = np.arange(8 * 300).reshape(300, 8) % (8 * 260)
        default = vector_lz_encode(codes)
        assert default.offset_width == DEFAULT_WINDOW.bit_length()
        assert default.flags.tobytes() == encode(codes, DEFAULT_WINDOW).flags.tobytes()
        assert default.n_matches == 0  # each repeat is 260 rows back, past the window
        assert encode(codes, 260).n_matches == 40

    def test_rejects_negative_codes(self):
        with pytest.raises(ValueError, match="non-negative"):
            vector_lz_encode(np.array([[-1, 2]]))

    def test_rejects_1d(self):
        with pytest.raises(ValueError, match="2-D"):
            vector_lz_encode(np.arange(4))

    def test_compressed_size_shrinks_with_repeats(self):
        unique = np.arange(1600).reshape(100, 16)
        repeated = np.tile(np.arange(16), (100, 1))
        assert nbytes(vector_lz_encode(repeated)) < nbytes(vector_lz_encode(unique)) / 5

    def test_window_growth_finds_more_matches(self):
        """More matches with a larger window (Table VI's mechanism)."""
        rng = np.random.default_rng(42)
        # Rows recur with gaps larger than the small window.
        pool = rng.integers(0, 50, size=(60, 8))
        codes = pool[rng.integers(0, 60, size=500)]
        small = encode(codes, 32)
        large = encode(codes, 255)
        assert large.n_matches >= small.n_matches
        assert nbytes(large) <= nbytes(small)

    @given(
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=0, max_value=2**31),
        st.integers(min_value=1, max_value=300),
    )
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, n, d, pool_size, seed, window):
        rng = np.random.default_rng(seed)
        pool = rng.integers(0, 1000, size=(pool_size, d))
        codes = pool[rng.integers(0, pool_size, size=n)]
        encoded = encode(codes, window)
        np.testing.assert_array_equal(vector_lz_decode(encoded), codes)


class TestVectorLZCompressor:
    def test_roundtrip_within_bound(self, hot_batch):
        codec = VectorLZCompressor()
        payload = codec.compress(hot_batch, 0.01)
        rec = codec.decompress(payload)
        assert np.abs(hot_batch - rec).max() <= 0.01 + 1e-6

    def test_quantization_creates_matches(self, rng):
        """Vector homogenization: near-identical rows fuse after quantization."""
        base = rng.normal(0, 0.1, size=(1, 16)).astype(np.float32)
        jitter = rng.normal(0, 1e-4, size=(100, 16)).astype(np.float32)
        data = (base + jitter).astype(np.float32)
        codec = VectorLZCompressor()
        tight = len(codec.compress(data, 1e-6))
        loose = len(codec.compress(data, 0.01))
        assert loose < tight / 3

    def test_requires_error_bound(self, hot_batch):
        codec = VectorLZCompressor()
        with pytest.raises(ValueError, match="error_bound"):
            codec.compress(hot_batch)

    def test_window_validation(self):
        with pytest.raises(ValueError):
            VectorLZCompressor(window=0)

    def test_beats_entropy_on_hot_batches(self, rng):
        """LZ-friendly tables: repeats dominate (the paper's EMB Table 5 case)."""
        from repro.compression.entropy import EntropyCompressor

        data = make_hot_batch(rng, batch=512, dim=32, pool=8, unique_fraction=0.02)
        lz = len(VectorLZCompressor().compress(data, 0.01))
        huff = len(EntropyCompressor().compress(data, 0.01))
        assert lz < huff
