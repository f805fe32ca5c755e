"""Tests for error-bounded linear-scaling quantization."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.compression.quantizer import DEFAULT_MAX_ALPHABET, quantize, quantize_batch


def dequantize(codes: np.ndarray, error_bound: float, dtype=np.float32) -> np.ndarray:
    """Bin centres of :func:`quantize` codes, as every codec's decoder
    computes them (in float64, then cast)."""
    return (np.asarray(codes, dtype=np.float64) * (2.0 * error_bound)).astype(dtype)


def _reconstruct(batch):
    """Invert the offset shift and dequantize back to the input dtype."""
    raw = batch.codes.astype(np.int64) + batch.code_min
    return dequantize(raw, batch.error_bound, batch.dtype).reshape(batch.shape)


class TestQuantize:
    def test_zero_maps_to_zero(self):
        np.testing.assert_array_equal(quantize(np.zeros(5, np.float32), 0.01), np.zeros(5))

    def test_bin_width_is_twice_bound(self):
        # Values exactly one bin apart differ by one code.
        eb = 0.05
        codes = quantize(np.array([0.0, 2 * eb, 4 * eb]), eb)
        np.testing.assert_array_equal(codes, [0, 1, 2])

    def test_error_bound_holds(self):
        rng = np.random.default_rng(3)
        data = rng.normal(0, 1, size=1000).astype(np.float32)
        for eb in (0.5, 0.01, 1e-4):
            rec = dequantize(quantize(data, eb), eb)
            assert np.abs(data.astype(np.float64) - rec).max() <= eb * (1 + 1e-6)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            quantize(np.array([1.0, np.nan]), 0.01)

    def test_rejects_inf(self):
        with pytest.raises(ValueError, match="NaN/inf"):
            quantize(np.array([np.inf]), 0.01)

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError):
            quantize(np.zeros(3), 0.0)
        with pytest.raises(ValueError):
            quantize(np.zeros(3), -0.1)

    @pytest.mark.parametrize("bound", [np.inf, np.nan])
    def test_rejects_non_finite_bound(self, bound):
        """An infinite bound maps every value to bin 0, which reconstructs
        as NaN (``0 * inf``)."""
        with pytest.raises(ValueError, match="error_bound must be finite and > 0"):
            quantize(np.zeros(3), bound)

    def test_negative_values(self):
        codes = quantize(np.array([-0.1, -0.02, 0.02, 0.1]), 0.01)
        assert codes[0] < 0 < codes[3]
        rec = dequantize(codes, 0.01)
        assert np.abs(np.array([-0.1, -0.02, 0.02, 0.1]) - rec).max() <= 0.01 + 1e-9

    @given(
        hnp.arrays(
            np.float32,
            st.integers(min_value=1, max_value=64),
            elements=st.floats(-1e4, 1e4, width=32),
        ),
        st.floats(min_value=1e-4, max_value=10.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_bound_property(self, data, eb):
        rec = dequantize(quantize(data, eb), eb, dtype=np.float64)
        slack = 4 * np.finfo(np.float32).eps * max(1.0, float(np.abs(data).max()))
        assert np.abs(data.astype(np.float64) - rec).max() <= eb + slack

    def test_coarser_bound_never_more_codes(self):
        """Monotonicity: larger error bound -> no more distinct codes."""
        rng = np.random.default_rng(11)
        data = rng.normal(0, 0.2, size=2048).astype(np.float32)
        uniques = [
            np.unique(quantize(data, eb)).size for eb in (0.001, 0.01, 0.1, 1.0)
        ]
        assert uniques == sorted(uniques, reverse=True)


class TestQuantizedBatch:
    def test_codes_are_nonnegative(self, gaussian_batch):
        batch = quantize_batch(gaussian_batch, 0.01)
        assert batch.codes.min() >= 0

    def test_reconstruct_roundtrip(self, gaussian_batch):
        batch = quantize_batch(gaussian_batch, 0.01)
        rec = _reconstruct(batch)
        assert rec.shape == gaussian_batch.shape
        assert rec.dtype == gaussian_batch.dtype
        assert np.abs(gaussian_batch - rec).max() <= 0.01 + 1e-6

    def test_alphabet_size(self):
        data = np.array([[0.0, 0.1, 0.2]], dtype=np.float32)
        batch = quantize_batch(data, 0.05)
        # codes 0, 1, 2 -> alphabet of 3
        assert batch.alphabet_size == 3

    def test_empty_like_row(self):
        data = np.zeros((1, 4), dtype=np.float32)
        batch = quantize_batch(data, 0.01)
        assert batch.alphabet_size == 1
        np.testing.assert_array_equal(_reconstruct(batch), data)

    def test_preserves_float64(self):
        data = np.random.default_rng(0).normal(size=(4, 4))
        batch = quantize_batch(data, 0.01)
        assert _reconstruct(batch).dtype == np.float64


class TestAlphabetCap:
    def test_tiny_bound_raises_with_alphabet_size_in_message(self):
        data = np.array([[0.0, 1.0]], dtype=np.float32)
        with pytest.raises(ValueError, match="alphabet"):
            quantize_batch(data, 1e-9)
        try:
            quantize_batch(data, 1e-9)
        except ValueError as err:
            message = str(err)
            assert str(DEFAULT_MAX_ALPHABET) in message
            # the offending alphabet size: range 1.0 / bin 2e-9 -> 5e8 symbols
            assert "500000001" in message

    def test_boundary_exactly_at_cap_passes(self):
        # codes 0 and DEFAULT_MAX_ALPHABET - 1 at a bin width of 1
        data = np.array([[0.0, DEFAULT_MAX_ALPHABET - 1]], dtype=np.float32)
        batch = quantize_batch(data, 0.5)
        assert batch.alphabet_size == DEFAULT_MAX_ALPHABET

    def test_default_cap_leaves_normal_bounds_alone(self):
        rng = np.random.default_rng(0)
        data = rng.normal(0, 0.1, size=(64, 16)).astype(np.float32)
        batch = quantize_batch(data, 1e-6)  # tight but sane
        assert batch.alphabet_size < 2_000_000

    def test_vector_lz_still_accepts_tight_bounds(self):
        """The cap guards the entropy leg; vector-LZ packs literals at a
        fixed width and must keep its pre-cap tolerance of huge alphabets."""
        from repro.compression import VectorLZCompressor

        rng = np.random.default_rng(1)
        data = rng.uniform(0.0, 1.0, size=(8, 4)).astype(np.float32)
        codec = VectorLZCompressor()
        payload = codec.compress(data, 1e-8)  # ~5e7 bins
        rec = codec.decompress(payload)
        # Bound holds to within one float32 ULP (the documented contract).
        assert np.abs(data - rec).max() <= 1e-8 + np.finfo(np.float32).eps

    def test_huffman_fails_fast_on_oversized_used_alphabet(self):
        """More distinct symbols than 15-bit codes allow must raise before
        the tree build, with an actionable message."""
        from repro.compression.huffman import huffman_encode

        symbols = np.arange(40_000, dtype=np.int64)
        with pytest.raises(ValueError, match="loosen the error bound"):
            huffman_encode(symbols, 40_000)
