"""Tests for the hybrid compressor, registry, and metrics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression import (
    CuszLikeCompressor,
    EntropyCompressor,
    HybridCompressor,
    VectorLZCompressor,
    available_compressors,
    communication_speedup,
    compression_ratio,
    decompress_any,
    evaluate_codec,
    get_compressor,
    max_abs_error,
    register_compressor,
)
from repro.compression.base import parse_payload
from tests.conftest import make_gaussian_batch, make_hot_batch


class TestHybrid:
    def test_auto_picks_smaller(self, rng):
        hybrid = HybridCompressor()
        lz = VectorLZCompressor()
        entropy = EntropyCompressor()
        for batch in (
            make_hot_batch(rng, pool=8, unique_fraction=0.02),
            make_gaussian_batch(rng),
        ):
            payload = hybrid.compress(batch, 0.01)
            assert len(payload) == min(
                len(lz.compress(batch, 0.01)), len(entropy.compress(batch, 0.01))
            )

    def test_auto_never_worse_than_either(self, rng):
        """Table V: hybrid column equals max ratio of the two legs."""
        hybrid = HybridCompressor()
        for batch in (make_hot_batch(rng), make_gaussian_batch(rng)):
            h = len(hybrid.compress(batch, 0.02))
            lz = len(VectorLZCompressor().compress(batch, 0.02))
            en = len(EntropyCompressor().compress(batch, 0.02))
            assert h <= lz and h <= en

    def test_header_names_the_winning_leg(self, hot_batch, gaussian_batch):
        hybrid = HybridCompressor()
        for batch in (hot_batch, gaussian_batch):
            lz = len(VectorLZCompressor().compress(batch, 0.01))
            entropy = len(EntropyCompressor().compress(batch, 0.01))
            header, _ = parse_payload(hybrid.compress(batch, 0.01))
            assert header["codec"] == ("vector_lz" if lz <= entropy else "entropy")

    def test_decompress_either_leg(self, hot_batch, gaussian_batch):
        hybrid = HybridCompressor()
        for batch in (hot_batch, gaussian_batch):
            payload = hybrid.compress(batch, 0.01)
            rec = hybrid.decompress(payload)
            assert np.abs(batch - rec).max() <= 0.01 + 1e-6

    def test_requires_error_bound(self, hot_batch):
        with pytest.raises(ValueError, match="error_bound"):
            HybridCompressor().compress(hot_batch)

    def test_rejects_1d_input(self):
        with pytest.raises(ValueError, match="2-D"):
            HybridCompressor().compress(np.zeros(8, dtype=np.float32), 0.01)

    def test_error_bound_respected_across_bounds(self, uniform_batch):
        hybrid = HybridCompressor()
        for eb in (0.001, 0.02, 0.3):
            rec = hybrid.decompress(hybrid.compress(uniform_batch, eb))
            # the float32 cast of the reconstruction may add a few ULPs
            assert max_abs_error(uniform_batch, rec) <= eb + 4 * np.finfo(np.float32).eps

    def test_larger_bound_smaller_payload(self, uniform_batch):
        hybrid = HybridCompressor()
        sizes = [len(hybrid.compress(uniform_batch, eb)) for eb in (0.001, 0.01, 0.1)]
        assert sizes == sorted(sizes, reverse=True)


class TestRegistry:
    def test_all_names_constructible(self):
        for name in available_compressors():
            codec = get_compressor(name)
            assert codec.name == name

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown compressor"):
            get_compressor("zstd")

    def test_decompress_any_routes(self, gaussian_batch):
        for name in available_compressors():
            codec = get_compressor(name)
            payload = codec.compress(gaussian_batch, 0.01)
            rec = decompress_any(payload)
            assert rec.shape == gaussian_batch.shape

    def test_register_collision(self):
        with pytest.raises(ValueError, match="already registered"):
            register_compressor("hybrid", HybridCompressor)

    def test_wrong_codec_decompress_rejected(self, gaussian_batch):
        payload = get_compressor("fp16").compress(gaussian_batch)
        with pytest.raises(ValueError, match="produced by codec"):
            CuszLikeCompressor().decompress(payload)

    def test_decompress_any_parses_once_with_one_decoder(self, gaussian_batch, monkeypatch):
        """The header is parsed to find the codec and the same parse feeds
        the decode, through one cached decoder instance per codec name."""
        from repro.compression import base, hybrid, registry

        calls = []

        def counting_parse(payload):
            calls.append(1)
            return parse_payload(payload)

        for module in (base, hybrid, registry):
            monkeypatch.setattr(module, "parse_payload", counting_parse)
        for name in available_compressors():
            codec = get_compressor(name)
            payload = codec.compress(gaussian_batch, 0.01)
            del calls[:]
            first = decompress_any(payload)
            assert len(calls) == 1, name
            inner = parse_payload(payload)[0]["codec"]
            decoder = registry._DECODERS[inner]
            np.testing.assert_array_equal(decompress_any(payload), first)
            assert registry._DECODERS[inner] is decoder
            del calls[:]
            np.testing.assert_array_equal(codec.decompress(payload), first)
            assert len(calls) == 1, name

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError, match="magic"):
            decompress_any(b"\x00\x01\x02")


class TestMetrics:
    def test_compression_ratio(self):
        assert compression_ratio(100, 25) == 4.0

    def test_ratio_rejects_zero(self):
        with pytest.raises(ValueError):
            compression_ratio(0, 10)

    def test_eq2_matches_hand_computation(self):
        # CR=10, B=4 GB/s, Tc=40 GB/s, Td=200 GB/s
        # denom = 0.1 + 4/40 + 4/200 = 0.1 + 0.1 + 0.02 = 0.22
        assert communication_speedup(10, 4e9, 40e9, 200e9) == pytest.approx(1 / 0.22)

    def test_eq2_infinite_throughput_limit(self):
        """With free compression the speedup approaches CR."""
        assert communication_speedup(8, 4e9, 1e18, 1e18) == pytest.approx(8.0, rel=1e-6)

    def test_eq2_slow_compressor_penalized(self):
        fast = communication_speedup(10, 4e9, 100e9, 100e9)
        slow = communication_speedup(10, 4e9, 5e9, 5e9)
        assert slow < 1.0 < fast

    def test_eq2_monotone_in_ratio(self):
        speedups = [communication_speedup(cr, 4e9, 40e9, 40e9) for cr in (2, 4, 8, 16)]
        assert speedups == sorted(speedups)

    def test_max_abs_error_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            max_abs_error(np.zeros(3), np.zeros(4))

    def test_evaluate_codec_fields(self, gaussian_batch):
        ev = evaluate_codec(get_compressor("entropy"), gaussian_batch, 0.01)
        assert ev.codec == "entropy"
        assert ev.ratio > 1.0
        assert 0 < ev.max_error <= 0.01 + 1e-6
        assert ev.compress_throughput > 0
        assert ev.decompress_throughput > 0
        assert ev.original_nbytes == gaussian_batch.nbytes
