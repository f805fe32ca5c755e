"""Tests for the baseline compressors (FP16/FP8, LZ4/Deflate-like, cuSZ/FZ-GPU-like)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.baselines.cusz_like import (
    CuszLikeCompressor,
    inverse_lorenzo_2d,
    lorenzo_residuals_2d,
)
from repro.compression.baselines.fp import (
    Fp8Compressor,
    Fp16Compressor,
    e4m3_to_float32,
    e4m3_value_table,
    float32_to_e4m3,
)
from repro.compression.baselines.fzgpu_like import (
    FzGpuLikeCompressor,
    zigzag_decode,
    zigzag_encode,
)
from repro.compression.baselines.lz_generic import (
    DEFAULT_BYTE_WINDOW,
    DeflateLikeCompressor,
    Lz4LikeCompressor,
    lz77_decode_bytes,
    lz77_encode_bytes,
)
from tests.conftest import make_hot_batch


class TestE4M3:
    def test_table_known_values(self):
        table = e4m3_value_table()
        assert table[0] == 0.0  # +0
        assert table[0x38] == 1.0  # exp=7 bias -> 2^0, mantissa 0
        assert table[0x7E] == 448.0  # max finite
        assert np.isnan(table[0x7F])  # NaN code
        assert table[0xBE] == -1.75  # sign bit example: 0x3E = (1+6/8)*2^0 = 1.75

    def test_exactly_representable_roundtrip(self):
        values = np.array([0.0, 1.0, -1.0, 0.5, 448.0, -448.0, 0.0625], dtype=np.float32)
        codes = float32_to_e4m3(values)
        np.testing.assert_array_equal(e4m3_to_float32(codes), values)

    def test_saturation(self):
        codes = float32_to_e4m3(np.array([1e9, -1e9], dtype=np.float32))
        np.testing.assert_array_equal(e4m3_to_float32(codes), [448.0, -448.0])

    def test_rounds_to_nearest(self):
        # 1.0 and 1.125 are adjacent E4M3 values; 1.05 is nearer 1.0.
        out = e4m3_to_float32(float32_to_e4m3(np.array([1.05], dtype=np.float32)))
        assert out[0] == 1.0

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            float32_to_e4m3(np.array([np.nan], dtype=np.float32))

    @given(st.floats(min_value=-448, max_value=448, width=32))
    @settings(max_examples=200, deadline=None)
    def test_nearest_property(self, x):
        """Encoded value is the closest finite E4M3 value."""
        table = e4m3_value_table()
        finite = table[np.isfinite(table)]
        encoded = e4m3_to_float32(float32_to_e4m3(np.array([x], dtype=np.float32)))[0]
        best = float(np.min(np.abs(finite.astype(np.float64) - float(x))))
        assert abs(float(encoded) - float(x)) == pytest.approx(best, abs=1e-12)


class TestFpCompressors:
    def test_fp16_ratio_near_two(self, gaussian_batch):
        payload = Fp16Compressor().compress(gaussian_batch)
        assert gaussian_batch.nbytes / len(payload) == pytest.approx(2.0, rel=0.05)

    def test_fp8_ratio_near_four(self, gaussian_batch):
        payload = Fp8Compressor().compress(gaussian_batch)
        assert gaussian_batch.nbytes / len(payload) == pytest.approx(4.0, rel=0.05)

    def test_fp16_roundtrip_error_small(self, gaussian_batch):
        rec = Fp16Compressor().decompress(Fp16Compressor().compress(gaussian_batch))
        assert np.abs(gaussian_batch - rec).max() < 1e-3

    def test_fp8_roundtrip_error_relative(self, gaussian_batch):
        rec = Fp8Compressor().decompress(Fp8Compressor().compress(gaussian_batch))
        # E4M3 has ~6% max relative error for normal values.
        mask = np.abs(gaussian_batch) > 2**-6
        rel = np.abs((gaussian_batch - rec)[mask] / gaussian_batch[mask])
        assert rel.max() < 0.07


class TestLz77Bytes:
    @pytest.mark.parametrize(
        "data",
        [
            b"",
            b"a",
            b"abcabcabcabcabc",
            b"the quick brown fox " * 20,
            bytes(range(256)) * 4,
            b"\x00" * 1000,
        ],
    )
    def test_roundtrip(self, data):
        encoded = lz77_encode_bytes(data)
        assert lz77_decode_bytes(encoded, len(data)) == data

    def test_repetitive_data_compresses(self):
        data = b"embedding" * 500
        assert len(lz77_encode_bytes(data)) < len(data) / 10

    def test_random_data_expands_little(self):
        rng = np.random.default_rng(0)
        data = rng.integers(0, 256, size=4096, dtype=np.uint8).tobytes()
        encoded = lz77_encode_bytes(data)
        assert len(encoded) < len(data) * 1.1

    def test_overlapping_match(self):
        """RLE-style overlap: offset smaller than match length."""
        data = b"ab" + b"ab" * 100
        encoded = lz77_encode_bytes(data)
        assert lz77_decode_bytes(encoded, len(data)) == data

    def test_window_limits_matches(self):
        """A repeat farther than the window back cannot be matched."""
        rng = np.random.default_rng(1)
        chunk = rng.integers(0, 256, size=256, dtype=np.uint8).tobytes()

        def repeat_cost(gap: int) -> int:
            filler = rng.integers(0, 256, size=gap, dtype=np.uint8).tobytes()
            return len(lz77_encode_bytes(chunk + filler + chunk)) - len(lz77_encode_bytes(chunk + filler))

        assert repeat_cost(DEFAULT_BYTE_WINDOW // 2) < 16  # one match token
        assert repeat_cost(2 * DEFAULT_BYTE_WINDOW) >= len(chunk)  # literals

    def test_corrupt_offset_rejected(self):
        with pytest.raises(ValueError, match="corrupt"):
            # Token declaring a match at output position 0.
            lz77_decode_bytes(bytes([0x01, ord("x"), 9, 0]), 100)

    @given(st.binary(max_size=2 * DEFAULT_BYTE_WINDOW))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, data):
        encoded = lz77_encode_bytes(data)
        assert lz77_decode_bytes(encoded, len(data)) == data


class TestLzCompressors:
    def test_lz4_like_lossless(self, hot_batch):
        codec = Lz4LikeCompressor()
        rec = codec.decompress(codec.compress(hot_batch))
        np.testing.assert_array_equal(rec, hot_batch)

    def test_deflate_like_lossless(self, hot_batch):
        codec = DeflateLikeCompressor()
        rec = codec.decompress(codec.compress(hot_batch))
        np.testing.assert_array_equal(rec, hot_batch)

    def test_deflate_not_worse_than_lz4(self, hot_batch):
        """Entropy stage should roughly match or beat plain LZ output size."""
        lz4 = len(Lz4LikeCompressor().compress(hot_batch))
        deflate = len(DeflateLikeCompressor().compress(hot_batch))
        assert deflate < lz4 * 1.2


class TestLorenzo:
    def test_residual_inverse(self):
        rng = np.random.default_rng(2)
        codes = rng.integers(-100, 100, size=(37, 19))
        np.testing.assert_array_equal(inverse_lorenzo_2d(lorenzo_residuals_2d(codes)), codes)

    def test_constant_field_residuals_sparse(self):
        codes = np.full((10, 10), 7, dtype=np.int64)
        residuals = lorenzo_residuals_2d(codes)
        assert residuals[0, 0] == 7
        assert np.count_nonzero(residuals) == 1

    def test_smooth_gradient_residuals_small(self):
        """On smooth scientific-like fields the predictor wins (by design)."""
        x = np.arange(50)[:, None] + np.arange(50)[None, :]
        residuals = lorenzo_residuals_2d(x)
        assert np.abs(residuals[1:, 1:]).max() == 0

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            lorenzo_residuals_2d(np.arange(5))

    @given(st.integers(1, 30), st.integers(1, 30), st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_inverse_property(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        codes = rng.integers(-1000, 1000, size=(rows, cols))
        np.testing.assert_array_equal(inverse_lorenzo_2d(lorenzo_residuals_2d(codes)), codes)


class TestCuszLike:
    def test_roundtrip_within_bound(self, gaussian_batch):
        codec = CuszLikeCompressor()
        rec = codec.decompress(codec.compress(gaussian_batch, 0.01))
        assert np.abs(gaussian_batch - rec).max() <= 0.01 + 1e-6

    def test_false_prediction_on_embedding_batches(self, rng):
        """The paper's observation ❶: prediction hurts on repeated-row data."""
        from repro.compression.entropy import EntropyCompressor

        data = make_hot_batch(rng, batch=512, dim=32, pool=10, unique_fraction=0.05)
        cusz = len(CuszLikeCompressor().compress(data, 0.01))
        ours = len(EntropyCompressor().compress(data, 0.01))
        assert ours < cusz

    def test_prediction_helps_on_smooth_fields(self):
        """Sanity: on smooth data (its home turf) cuSZ-like beats raw entropy."""
        from repro.compression.entropy import EntropyCompressor

        x, y = np.meshgrid(np.linspace(0, 4, 64), np.linspace(0, 4, 64))
        smooth = np.sin(x) * np.cos(y) + x * 0.2
        smooth = smooth.astype(np.float32)
        cusz = len(CuszLikeCompressor().compress(smooth, 1e-4))
        ours = len(EntropyCompressor().compress(smooth, 1e-4))
        assert cusz < ours


class TestZigzag:
    @given(st.lists(st.integers(min_value=-(2**40), max_value=2**40), max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, values):
        arr = np.array(values, dtype=np.int64)
        np.testing.assert_array_equal(zigzag_decode(zigzag_encode(arr)), arr)

    def test_small_magnitudes_stay_small(self):
        np.testing.assert_array_equal(zigzag_encode(np.array([0, -1, 1, -2, 2])), [0, 1, 2, 3, 4])


class TestFzGpuLike:
    def test_roundtrip_within_bound(self, gaussian_batch):
        codec = FzGpuLikeCompressor()
        rec = codec.decompress(codec.compress(gaussian_batch, 0.01))
        assert np.abs(gaussian_batch - rec).max() <= 0.01 + 1e-6

    def test_concentrated_data_compresses(self, gaussian_batch):
        payload = FzGpuLikeCompressor().compress(gaussian_batch, 0.01)
        assert gaussian_batch.nbytes / len(payload) > 2.0

    def test_rejects_overflowing_codes(self):
        data = np.array([[1e6]], dtype=np.float32)
        with pytest.raises(ValueError, match="16-bit"):
            FzGpuLikeCompressor().compress(data, 1e-4)

    def test_roundtrip_various_sizes(self, rng):
        codec = FzGpuLikeCompressor()
        for shape in [(1, 1), (3, 7), (128, 32), (77, 13)]:
            data = rng.normal(0, 0.1, size=shape).astype(np.float32)
            rec = codec.decompress(codec.compress(data, 0.005))
            assert np.abs(data - rec).max() <= 0.005 + 1e-6
