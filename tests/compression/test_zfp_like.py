"""Tests for the ZFP-like fixed-rate transform codec."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.baselines.zfp_like import (
    RATE,
    ZfpLikeCompressor,
    block_transform,
    inverse_block_transform,
)


class TestBlockTransform:
    def test_constant_block_concentrates_energy(self):
        block = np.full((1, 4), 5, dtype=np.int64)
        coeffs = block_transform(block)
        assert coeffs[0, 0] == 20
        np.testing.assert_array_equal(coeffs[0, 1:], 0)

    def test_inverse_exact_on_untruncated(self):
        rng = np.random.default_rng(0)
        blocks = rng.integers(-1000, 1000, size=(50, 4))
        coeffs = block_transform(blocks)
        restored = inverse_block_transform(coeffs)
        np.testing.assert_allclose(restored, blocks)

    def test_linearity(self):
        rng = np.random.default_rng(1)
        a = rng.integers(-10, 10, size=(5, 4))
        b = rng.integers(-10, 10, size=(5, 4))
        np.testing.assert_array_equal(
            block_transform(a + b), block_transform(a) + block_transform(b)
        )


class TestZfpLike:
    def test_ratio_tracks_rate(self, gaussian_batch):
        payload = ZfpLikeCompressor().compress(gaussian_batch)
        ratio = gaussian_batch.nbytes / len(payload)
        # 32/RATE minus per-block header overhead (2 bytes per 16-byte
        # block: exponent + shift).
        assert 0.45 * 32 / RATE < ratio <= 32 / RATE

    def test_fixed_rate_independent_of_content(self, rng):
        """The defining fixed-rate property: payload size does not depend on
        the data (unlike the error-bounded codecs)."""
        codec = ZfpLikeCompressor()
        smooth = np.zeros((64, 32), dtype=np.float32)
        noisy = rng.uniform(-10, 10, size=(64, 32)).astype(np.float32)
        assert len(codec.compress(smooth)) == len(codec.compress(noisy))

    def test_relative_error_bounded_by_rate(self, rng):
        """Per-block relative error is ~2**-RATE."""
        data = rng.normal(0, 1.0, size=(128, 32)).astype(np.float32)
        codec = ZfpLikeCompressor()
        rec = codec.decompress(codec.compress(data))
        rel = np.abs(data - rec).max() / np.abs(data).max()
        assert rel < 2.0 ** -(RATE - 4)  # sign bit + transform growth margin

    def test_non_multiple_of_block_sizes(self, rng):
        codec = ZfpLikeCompressor()
        for shape in [(1, 1), (3, 5), (7, 13), (2, 31)]:
            data = rng.normal(0, 0.1, size=shape).astype(np.float32)
            rec = codec.decompress(codec.compress(data))
            assert rec.shape == shape
            assert np.abs(data - rec).max() < 0.01

    def test_zero_input_exact(self):
        codec = ZfpLikeCompressor()
        data = np.zeros((8, 8), dtype=np.float32)
        np.testing.assert_array_equal(codec.decompress(codec.compress(data)), data)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            ZfpLikeCompressor().compress(np.array([[np.nan, 0, 0, 0]], dtype=np.float32))

    def test_registered(self):
        from repro.compression import decompress_any, get_compressor

        codec = get_compressor("zfp_like")
        data = np.random.default_rng(3).normal(0, 0.1, (16, 16)).astype(np.float32)
        rec = decompress_any(codec.compress(data))
        assert rec.shape == data.shape

    @given(
        st.integers(min_value=1, max_value=200),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_shape_and_sanity(self, n, seed):
        rng = np.random.default_rng(seed)
        data = rng.normal(0, 0.5, size=(n, 3)).astype(np.float32)
        codec = ZfpLikeCompressor()
        rec = codec.decompress(codec.compress(data))
        assert rec.shape == data.shape
        assert np.isfinite(rec).all()
        # Reconstruction error bounded by block magnitude at worst.
        scale = max(float(np.abs(data).max()), 1e-6)
        assert np.abs(data - rec).max() <= scale * 2.0 ** (4 - RATE) * 16 + 1e-6
