"""Edge-case sweep across every registered codec.

Production compressors meet degenerate inputs: empty batches at epoch
boundaries, single-row slices when batch >> ranks is violated, float64
tensors from accumulation buffers, and non-contiguous views.  Every codec
must handle all of them through the same contract.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression import available_compressors, get_compressor

ERROR_BOUND = 0.01


def _roundtrip(name: str, array: np.ndarray) -> np.ndarray:
    codec = get_compressor(name)
    payload = codec.compress(array, ERROR_BOUND if codec.error_bounded else None)
    return codec.decompress(payload)


@pytest.mark.parametrize("name", available_compressors())
class TestDegenerateShapes:
    def test_single_row(self, name, rng):
        data = rng.normal(0, 0.1, size=(1, 16)).astype(np.float32)
        out = _roundtrip(name, data)
        assert out.shape == data.shape
        assert np.abs(data - out).max() < 0.25  # loosest codec is fp8

    def test_single_column(self, name, rng):
        data = rng.normal(0, 0.1, size=(32, 1)).astype(np.float32)
        out = _roundtrip(name, data)
        assert out.shape == data.shape

    def test_single_element(self, name):
        data = np.array([[0.125]], dtype=np.float32)
        out = _roundtrip(name, data)
        assert out.shape == (1, 1)
        assert abs(float(out[0, 0]) - 0.125) < 0.05

    def test_empty_batch(self, name):
        data = np.zeros((0, 8), dtype=np.float32)
        out = _roundtrip(name, data)
        assert out.shape == (0, 8)

    def test_all_zeros(self, name):
        data = np.zeros((16, 8), dtype=np.float32)
        out = _roundtrip(name, data)
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_constant_nonzero(self, name):
        data = np.full((16, 8), 0.25, dtype=np.float32)
        out = _roundtrip(name, data)
        assert np.abs(data - out).max() < 0.05

    def test_float64_input_preserves_dtype(self, name, rng):
        data = rng.normal(0, 0.1, size=(8, 8))
        out = _roundtrip(name, data)
        assert out.dtype == np.float64
        assert out.shape == data.shape

    def test_non_contiguous_view(self, name, rng):
        base = rng.normal(0, 0.1, size=(32, 32)).astype(np.float32)
        view = base[::2, ::2]
        assert not view.flags["C_CONTIGUOUS"]
        out = _roundtrip(name, view)
        assert out.shape == view.shape

    def test_negative_values(self, name, rng):
        data = -np.abs(rng.normal(0, 0.1, size=(16, 8))).astype(np.float32)
        out = _roundtrip(name, data)
        lossless = name in ("lz4_like", "deflate_like")
        if lossless:
            np.testing.assert_array_equal(out, data)
        else:
            assert np.abs(data - out).max() < 0.05

    def test_1d_rejected(self, name):
        codec = get_compressor(name)
        with pytest.raises(ValueError):
            codec.compress(np.zeros(8, dtype=np.float32), ERROR_BOUND)

    def test_integer_dtype_rejected(self, name):
        codec = get_compressor(name)
        with pytest.raises(TypeError):
            codec.compress(np.zeros((4, 4), dtype=np.int32), ERROR_BOUND)


class TestExtremeValues:
    @pytest.mark.parametrize("name", ["hybrid", "vector_lz", "entropy", "cusz_like"])
    def test_large_magnitudes(self, name, rng):
        """Error-bounded codecs must hold the bound on large values too."""
        data = rng.normal(0, 100.0, size=(32, 8)).astype(np.float32)
        out = _roundtrip(name, data)
        slack = 8 * np.finfo(np.float32).eps * np.abs(data).max()
        assert np.abs(data - out).max() <= ERROR_BOUND + slack

    @pytest.mark.parametrize("name", ["hybrid", "entropy"])
    def test_tiny_magnitudes_collapse(self, name, rng):
        """Values far below the bound quantize to a single bin."""
        data = rng.normal(0, 1e-6, size=(256, 32)).astype(np.float32)
        codec = get_compressor(name)
        payload = codec.compress(data, ERROR_BOUND)
        # One code for the whole batch: the payload is header-sized only.
        assert len(payload) < data.nbytes / 50
        np.testing.assert_allclose(codec.decompress(payload), 0.0, atol=ERROR_BOUND)

    @pytest.mark.parametrize("name", available_compressors())
    def test_nan_rejected_or_roundtrips(self, name):
        """No codec may silently corrupt NaN input: either reject or (for
        the bit-exact lossless codecs) reproduce it."""
        data = np.array([[np.nan, 1.0, 2.0, 3.0]], dtype=np.float32)
        codec = get_compressor(name)
        try:
            payload = codec.compress(data, ERROR_BOUND if codec.error_bounded else None)
        except ValueError:
            return  # loud rejection: fine
        out = codec.decompress(payload)
        if name in ("lz4_like", "deflate_like", "fp16"):
            assert np.isnan(out[0, 0])
